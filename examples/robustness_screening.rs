//! Robustness screening of leaf designs: the ρ/Γ analysis of Section 2.3.
//!
//! The example compares the natural leaf with an aggressively tuned
//! maximum-uptake design and a balanced trade-off design, reporting the global
//! yield Γ and the per-enzyme local yields that reveal which enzymes make a
//! design fragile.
//!
//! Run with: `cargo run --release --example robustness_screening`
//!
//! The balanced design comes from the search `examples/robustness_screening.spec`
//! describes: a hypervolume-stagnation stopping rule stacked on the
//! generation budget, so the search exits as soon as the front stops
//! improving. Set `PATHWAY_EXAMPLE_BUDGET=quick` (as CI does) to shrink the
//! budgets.

use pathway_core::prelude::*;
use pathway_moo::robustness::{global_yield, local_yield, RobustnessOptions};

mod common;
use common::{load_spec, quick_budget};

fn report(label: &str, partition: &EnzymePartition, scenario: &Scenario, trials: usize) {
    let problem = LeafRedesignProblem::new(*scenario);
    let options = RobustnessOptions {
        global_trials: trials,
        local_trials: (trials / 20).max(10),
        ..Default::default()
    };
    let uptake = problem.uptake(partition.capacities());
    let global = global_yield(partition.capacities(), |x| problem.uptake(x), &options);
    let local = local_yield(partition.capacities(), |x| problem.uptake(x), &options);

    println!(
        "{label}: uptake {:.2} µmol/m²/s, nitrogen {:.0} mg/l, global yield {:.0}%",
        uptake,
        partition.total_nitrogen(),
        global.yield_percent()
    );
    // The three most fragile enzymes under single-enzyme perturbation.
    let mut per_enzyme: Vec<(&str, f64)> = EnzymeKind::ALL
        .iter()
        .map(|k| k.name())
        .zip(local.per_variable_yield.iter().copied())
        .collect();
    per_enzyme.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("yields are finite"));
    print!("  most sensitive enzymes:");
    for (name, yield_fraction) in per_enzyme.iter().take(3) {
        print!(" {name} ({:.0}%)", yield_fraction * 100.0);
    }
    println!();
}

fn main() {
    let spec = load_spec(include_str!("robustness_screening.spec"), (16, 30, 15));
    let trials = if quick_budget() { 300 } else { 2_000 };
    let Ok(AnyProblem::LeafDesign(problem)) = AnyProblem::from_spec(&spec.problem) else {
        panic!("the robustness-screening spec describes the leaf-design problem");
    };
    let scenario = *problem.scenario();

    // 1. The natural leaf.
    report(
        "natural leaf        ",
        &EnzymePartition::natural(),
        &scenario,
        trials,
    );

    // 2. A hand-tuned maximum-uptake leaf: everything scaled up, which the
    //    paper finds to be less robust than interior trade-off points.
    let aggressive = EnzymePartition::natural().scaled(3.0);
    report("aggressive (3x) leaf", &aggressive, &scenario, trials);

    // 3. A balanced design straight from a short PMO2 run, with an early
    //    exit once the hypervolume stops moving.
    let executor = Executor::shared(spec.optimizer.backend());
    let mut driver = spec_driver(&spec, problem, executor);
    let front = driver.run();
    let outcome = LeafDesignOutcome::from_front(scenario, front, driver.optimizer().evaluations());
    let knee = outcome.closest_to_ideal();
    report("closest-to-ideal    ", &knee.partition, &scenario, trials);

    println!();
    println!(
        "designs screened from a front of {} Pareto-optimal partitions \
         ({} of {} budgeted generations used)",
        outcome.front.len(),
        driver.generation(),
        spec.stopping.max_generations
    );
}

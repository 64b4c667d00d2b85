//! Quickstart: optimize the present-day leaf, mine the front, check robustness.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! The search is the one `examples/quickstart.spec` describes — the same
//! file `pathway run examples/quickstart.spec` executes — driven through
//! [`spec_driver`] with the spec's logging observer. Set
//! `PATHWAY_EXAMPLE_BUDGET=quick` (as CI does) to shrink the budgets.

use pathway_core::prelude::*;
use pathway_core::{render_table, SelectionRow};

mod common;
use common::{load_spec, quick_budget};

fn main() {
    // A small but representative search: 2 NSGA-II islands, broadcast
    // migration, present-day CO2 with the low triose-phosphate export rate.
    let spec = load_spec(include_str!("quickstart.spec"), (20, 30, 10));
    let trials = if quick_budget() { 150 } else { 1_000 };
    let Ok(AnyProblem::LeafDesign(problem)) = AnyProblem::from_spec(&spec.problem) else {
        panic!("the quickstart spec describes the leaf-design problem");
    };
    let scenario = *problem.scenario();

    // Drive the run explicitly so we can watch it converge.
    let executor = Executor::shared(spec.optimizer.backend());
    let mut driver = spec_driver(&spec, problem, executor);
    let front = driver.run();
    let outcome = LeafDesignOutcome::from_front(scenario, front, driver.optimizer().evaluations());

    println!(
        "PMO2 found {} Pareto-optimal leaf designs ({} evaluations over {} generations)",
        outcome.front.len(),
        outcome.evaluations,
        driver.generation()
    );
    println!(
        "natural leaf: uptake {:.3} µmol/m²/s at {:.0} mg/l nitrogen",
        Scenario::NATURAL_UPTAKE,
        EnzymePartition::NATURAL_NITROGEN
    );

    let selected = outcome.selected_designs(trials, 20);
    let rows = [
        ("Closest-to-ideal", &selected.closest_to_ideal),
        ("Max CO2 Uptake", &selected.max_uptake),
        ("Min Nitrogen", &selected.min_nitrogen),
        ("Max Yield", &selected.max_yield),
    ];
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, (design, yield_percent))| {
            SelectionRow {
                selection: name.to_string(),
                co2_uptake: design.uptake,
                nitrogen: design.nitrogen,
                yield_percent: *yield_percent,
            }
            .cells()
        })
        .collect();
    println!();
    println!(
        "{}",
        render_table(
            &["Selection", "CO2 Uptake", "Nitrogen", "Yield %"],
            &table_rows
        )
    );

    if let Some(candidate_b) = outcome.candidate_b(1.0) {
        println!(
            "candidate B keeps the natural uptake ({:.2}) at {:.0}% of the natural nitrogen",
            candidate_b.uptake,
            100.0 * candidate_b.nitrogen / EnzymePartition::NATURAL_NITROGEN
        );
    }
}

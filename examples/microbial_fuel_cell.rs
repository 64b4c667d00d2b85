//! Microbial fuel cell design: trade biomass growth against electron transfer
//! in the synthetic *Geobacter sulfurreducens* model (the paper's Section 3.2
//! and Figure 4).
//!
//! Run with: `cargo run --release --example microbial_fuel_cell`
//!
//! The search is the one `examples/microbial_fuel_cell.spec` describes,
//! driven through [`spec_driver`] with a checkpoint mid-run to demonstrate
//! that a split run reproduces the unsplit trajectory bit for bit. The
//! example uses a 300-reaction synthetic model so it finishes quickly; the
//! Figure 4 experiment binary (`cargo run --release -p pathway-bench --bin
//! figure4`) runs the full 608-reaction scale. Set
//! `PATHWAY_EXAMPLE_BUDGET=quick` (as CI does) to shrink the budgets.

use pathway_core::prelude::*;
use pathway_core::render_table;

mod common;
use common::{load_spec, quick_budget};

fn main() {
    let mut spec = load_spec(include_str!("microbial_fuel_cell.spec"), (24, 30, 15));
    if quick_budget() {
        spec.problem = spec.problem.with_param("reactions", "100");
    }
    let reactions = spec
        .problem
        .parsed_param::<usize>("reactions")
        .expect("reactions is a count")
        .expect("the spec sets the model size");

    // First look at the pure FBA extremes of the synthetic organism.
    let model = GeobacterModel::builder().reactions(reactions).build();
    let max_biomass = model.max_biomass().expect("biomass FBA is feasible");
    let max_electron = model.max_electron().expect("electron FBA is feasible");
    println!(
        "FBA extremes: max biomass {:.3} 1/h, max electron production {:.1} mmol/gDW/h",
        max_biomass.objective_value, max_electron.objective_value
    );

    // Then run the multi-objective search over the full flux vector. The
    // offspring batches of each island are evaluated on the spec's 4 worker
    // threads; swap in `backend = serial` and the result is bit-identical,
    // just slower on multicore hardware.
    let problem = GeobacterFluxProblem::new(&model).expect("the FBA reference is feasible");
    let executor = Executor::shared(spec.optimizer.backend());

    // Drive the first half, checkpoint, and resume — the resumed run is
    // bit-identical to driving straight through (the determinism suite
    // enforces this at every split point).
    let mut first_half = spec_driver(&spec, &problem, executor.clone());
    first_half.run_for(spec.stopping.max_generations / 2);
    let checkpoint = first_half.checkpoint();
    println!(
        "checkpoint at generation {} ({} evaluations so far)",
        checkpoint.generation,
        first_half.optimizer().evaluations(),
    );
    let front = resume_spec_driver(&spec, &problem, checkpoint, executor)
        .expect("checkpoint matches the spec")
        .run();

    // The paper's "initial guess" violation reference: a random vector in
    // the model's raw flux bounds, far from steady state.
    let outcome = GeobacterOutcome::from_front(&problem, &front, spec.seed)
        .expect("violation of a random guess is defined");

    println!(
        "multi-objective search: {} non-dominated flux distributions",
        outcome.front.len()
    );
    println!(
        "steady-state violation: random initial guess {:.3e}, best evolved {:.3e} ({}x reduction)",
        outcome.initial_violation,
        outcome.best_violation,
        (outcome.initial_violation / outcome.best_violation.max(1e-12)).round()
    );

    let labels = ["A", "B", "C", "D", "E"];
    let rows: Vec<Vec<String>> = outcome
        .labelled_points(labels.len())
        .iter()
        .zip(labels.iter())
        .map(|(point, label)| {
            vec![
                label.to_string(),
                format!("{:.2}", point.electron_production),
                format!("{:.3}", point.biomass_production),
                format!("{:.2e}", point.violation),
            ]
        })
        .collect();
    println!();
    println!(
        "{}",
        render_table(
            &[
                "Point",
                "Electron production",
                "Biomass production",
                "Violation"
            ],
            &rows
        )
    );
}

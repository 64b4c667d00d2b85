//! Figure 4: the Pareto front of *Geobacter sulfurreducens* — biomass
//! production versus electron production, with the five labelled trade-off
//! points A–E and the steady-state-violation reduction achieved by the search.
//!
//! Run with: `cargo run --release -p pathway-bench --bin figure4`
//!
//! The default budget uses the full 608-reaction synthetic model; set
//! `PATHWAY_BENCH_SCALE` to raise the optimization budget.

use pathway_bench::{pmo2_spec, run_search, scaled};
use pathway_core::prelude::*;

fn main() {
    let reactions = 608;
    let seed = 4;
    let model = GeobacterModel::builder()
        .reactions(reactions)
        .seed(seed ^ 0x6E0B)
        .build();
    let problem = GeobacterFluxProblem::new(&model).expect("the FBA reference is feasible");
    let generations = scaled(120, 1000);
    let spec = pmo2_spec(scaled(60, 200), generations, (generations / 2).max(1), seed);
    let (front, _) = run_search(&spec, &problem);
    let outcome = GeobacterOutcome::from_front(&problem, &front, seed)
        .expect("the steady-state violation is defined");

    println!("# Figure 4 — Geobacter sulfurreducens: biomass vs electron production");
    println!(
        "# {} reactions; steady-state violation: initial guess {:.3e}, best evolved {:.3e} ({:.1}x reduction)",
        reactions,
        outcome.initial_violation,
        outcome.best_violation,
        outcome.initial_violation / outcome.best_violation.max(1e-12)
    );
    println!("label\telectron_production_mmol_gdw_h\tbiomass_production_mmol_gdw_h");
    let labels = ["A", "B", "C", "D", "E"];
    for (label, point) in labels.iter().zip(outcome.labelled_points(5)) {
        println!(
            "{label}\t{:.2}\t{:.3}",
            point.electron_production, point.biomass_production
        );
    }
    println!();
    println!("# full front ({} points)", outcome.front.len());
    println!("electron_production\tbiomass_production\tviolation");
    let mut front = outcome.front.clone();
    front.sort_by(|a, b| {
        a.electron_production
            .partial_cmp(&b.electron_production)
            .expect("fluxes are finite")
    });
    for point in front {
        println!(
            "{:.2}\t{:.3}\t{:.2e}",
            point.electron_production, point.biomass_production, point.violation
        );
    }
}

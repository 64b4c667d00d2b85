//! Figure 1: Pareto fronts of CO₂ uptake vs protein nitrogen for the six
//! environmental scenarios (three CO₂ eras × two triose-phosphate export
//! rates), plus the natural operating point.
//!
//! Run with: `cargo run --release -p pathway-bench --bin figure1`

use pathway_bench::{leaf_search, pmo2_spec, scaled};
use pathway_core::prelude::*;

fn main() {
    println!("# Figure 1 — multi-objective optimization of CO2 uptake vs nitrogen");
    println!(
        "# natural operating point: uptake {:.3} ± 10% µmol/m²/s, nitrogen {:.0} ± 10% mg/l",
        Scenario::NATURAL_UPTAKE,
        EnzymePartition::NATURAL_NITROGEN
    );
    let population = scaled(60, 200);
    let generations = scaled(200, 2000);

    for (index, scenario) in Scenario::all().into_iter().enumerate() {
        let spec = pmo2_spec(
            population,
            generations,
            scaled(100, 200),
            1000 + index as u64,
        );
        let outcome = leaf_search(scenario, &spec);
        let mut designs = outcome.front.clone();
        designs.sort_by(|a, b| a.uptake.partial_cmp(&b.uptake).expect("uptake is finite"));

        println!();
        println!(
            "## series: {scenario} — {} Pareto-optimal points ({} evaluations)",
            designs.len(),
            outcome.evaluations
        );
        println!("co2_uptake_umol_m2_s\tnitrogen_mg_l");
        for design in designs {
            println!("{:.4}\t{:.1}", design.uptake, design.nitrogen);
        }
    }
}

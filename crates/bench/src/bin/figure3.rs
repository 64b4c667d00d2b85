//! Figure 3: the photosynthetic Pareto surface — robustness yield versus CO₂
//! uptake and nitrogen consumption for 50 equally spaced Pareto points plus
//! the automatically selected trade-off designs.
//!
//! Run with: `cargo run --release -p pathway-bench --bin figure3`

use pathway_bench::{leaf_search, pmo2_spec, scaled};
use pathway_core::prelude::*;

fn main() {
    let scenario = Scenario::present_high_export();
    let spec = pmo2_spec(scaled(60, 200), scaled(200, 2000), scaled(100, 200), 3);
    let outcome = leaf_search(scenario, &spec);
    let trials = scaled(1_000, 5_000);

    println!("# Figure 3 — robustness vs CO2 uptake vs nitrogen (Pareto surface)");
    println!("co2_uptake_umol_m2_s\tnitrogen_mg_l\trobustness_percent");

    let spread = outcome.spread(50);
    for design in spread {
        let yield_percent = outcome.robustness_percent(design, trials);
        println!(
            "{:.4}\t{:.1}\t{:.1}",
            design.uptake, design.nitrogen, yield_percent
        );
    }

    // The extremes (Pareto relative minima) for reference: the paper observes
    // they are markedly less robust than interior trade-off points.
    for (label, design) in [
        ("max_co2_uptake", outcome.max_uptake().clone()),
        ("min_nitrogen", outcome.min_nitrogen().clone()),
        ("closest_to_ideal", outcome.closest_to_ideal().clone()),
    ] {
        let yield_percent = outcome.robustness_percent(&design, trials);
        println!(
            "# {label}: uptake {:.3}, nitrogen {:.0}, robustness {:.1}%",
            design.uptake, design.nitrogen, yield_percent
        );
    }
}

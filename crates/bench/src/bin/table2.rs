//! Table 2: the automatically selected trade-off designs (closest-to-ideal,
//! maximum CO₂ uptake, minimum nitrogen, maximum yield) with their CO₂ uptake,
//! nitrogen and robustness yield.
//!
//! Run with: `cargo run --release -p pathway-bench --bin table2`

use pathway_bench::{leaf_search, pmo2_spec, scaled};
use pathway_core::prelude::*;
use pathway_core::{render_table, SelectionRow};

fn main() {
    let spec = pmo2_spec(scaled(80, 200), scaled(250, 2000), scaled(100, 200), 22);
    let outcome = leaf_search(Scenario::present_high_export(), &spec);
    let selected = outcome.selected_designs(scaled(2_000, 5_000), 50);

    let rows = [
        ("Closest-to-ideal", &selected.closest_to_ideal),
        ("Max CO2 Uptake", &selected.max_uptake),
        ("Min Nitrogen", &selected.min_nitrogen),
        ("Max Yield", &selected.max_yield),
    ];
    let cells: Vec<Vec<String>> = rows
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

    println!("# Table 2 — selected Pareto-optimal leaf designs and their robustness yield");
    println!(
        "# front of {} Pareto-optimal designs ({} evaluations, {:.2}% of evaluated partitions)",
        outcome.front.len(),
        outcome.evaluations,
        100.0 * outcome.front.len() as f64 / outcome.evaluations as f64
    );
    println!(
        "{}",
        render_table(&["Selection", "CO2 Uptake", "Nitrogen", "Yield %"], &cells)
    );
}

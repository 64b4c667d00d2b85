//! Figure 2: per-enzyme capacity of the re-engineering candidate B relative to
//! the natural leaf. Candidate B preserves the natural CO₂ uptake with roughly
//! half the natural protein nitrogen.
//!
//! Run with: `cargo run --release -p pathway-bench --bin figure2`

use pathway_bench::{leaf_search, pmo2_spec, scaled};
use pathway_core::prelude::*;

fn main() {
    let scenario = Scenario::present_low_export();
    let spec = pmo2_spec(scaled(80, 200), scaled(300, 2000), scaled(100, 200), 2024);
    let outcome = leaf_search(scenario, &spec);

    let candidate_b = outcome
        .candidate_b(1.0)
        .or_else(|| outcome.candidate_b(0.95))
        .expect("a candidate preserving (most of) the natural uptake exists on the front");

    println!("# Figure 2 — candidate B vs natural leaf");
    println!(
        "# candidate B: uptake {:.3} µmol/m²/s, nitrogen {:.0} mg/l ({:.0}% of the natural {:.0})",
        candidate_b.uptake,
        candidate_b.nitrogen,
        100.0 * candidate_b.nitrogen / EnzymePartition::NATURAL_NITROGEN,
        EnzymePartition::NATURAL_NITROGEN
    );
    println!("enzyme\tcapacity_ratio_engineered_over_natural");
    let ratios = candidate_b.partition.ratio_to_natural();
    for (kind, ratio) in EnzymeKind::ALL.iter().zip(ratios) {
        println!("{}\t{:.3}", kind.name(), ratio);
    }
}

//! Table 1: Pareto-front quality comparison between PMO2 and MOEA/D on the
//! leaf-redesign problem (Ci = 270 µmol/mol, triose-phosphate export
//! 3 mmol/l/s): number of non-dominated points, relative coverage R_p, global
//! coverage G_p and hypervolume V_p.
//!
//! Run with: `cargo run --release -p pathway-bench --bin table1`

use pathway_bench::{pmo2_spec, run_search, scaled};
use pathway_core::prelude::*;
use pathway_core::{render_table, CoverageRow};
use pathway_moo::engine::MoeadSpec;
use pathway_moo::metrics::{global_coverage, hypervolume, relative_coverage, union_front};

fn objective_matrix(front: &[Individual]) -> Vec<Vec<f64>> {
    front.iter().map(|i| i.objectives.clone()).collect()
}

fn main() {
    let problem = LeafRedesignProblem::new(Scenario::present_high_export());
    let population = scaled(80, 200);
    let generations = scaled(250, 2000);

    let pmo2_run = pmo2_spec(population, generations, scaled(100, 200), 11);
    let moead_run = RunSpec {
        optimizer: OptimizerSpec::Moead(MoeadSpec {
            population,
            ..Default::default()
        }),
        ..pmo2_run.clone()
    };
    let (pmo2_front, _) = run_search(&pmo2_run, &problem);
    let (moead_front, _) = run_search(&moead_run, &problem);

    let pmo2 = objective_matrix(&pmo2_front);
    let moead = objective_matrix(&moead_front);
    let global = union_front(&[pmo2.clone(), moead.clone()]);
    // Reference point: zero uptake (i.e. -uptake = 0) and 4x the natural
    // nitrogen, normalized into the hypervolume computation directly.
    let reference = [1.0, 4.0 * EnzymePartition::NATURAL_NITROGEN];
    let normalize = |fronts: &Vec<Vec<f64>>| {
        fronts
            .iter()
            .map(|p| vec![p[0] / 45.0 + 1.0, p[1] / reference[1]])
            .collect::<Vec<_>>()
    };
    let unit_reference = [1.0, 1.0];

    let rows: Vec<CoverageRow> = [("PMO2", &pmo2), ("MOEA-D", &moead)]
        .into_iter()
        .map(|(name, front)| CoverageRow {
            algorithm: name.to_string(),
            points: front.len(),
            relative_coverage: relative_coverage(front, &global),
            global_coverage: global_coverage(front, &global),
            hypervolume: hypervolume(&normalize(front), &unit_reference),
        })
        .collect();

    println!("# Table 1 — Pareto-front analysis (PMO2 vs MOEA/D)");
    println!(
        "# leaf-redesign problem, Ci = 270 µmol/mol, triose-P export 3 mmol/l/s, {} global Pareto points",
        global.len()
    );
    let cells: Vec<Vec<String>> = rows.iter().map(CoverageRow::cells).collect();
    println!(
        "{}",
        render_table(&["Algorithm", "Points", "Rp", "Gp", "Vp"], &cells)
    );
}

//! Integration of the quality indicators with real optimizer output: the
//! PMO2-vs-MOEA/D comparison of the paper's Table 1 on a reduced budget.

use pathway_core::prelude::*;
use pathway_moo::engine::{ArchipelagoSpec, MoeadSpec, Nsga2Spec};
use pathway_moo::metrics::{global_coverage, hypervolume, relative_coverage, spacing, union_front};

fn objective_matrix(front: &[pathway_moo::Individual]) -> Vec<Vec<f64>> {
    front.iter().map(|i| i.objectives.clone()).collect()
}

/// Runs `optimizer` over `problem` for `generations` generations from `seed`.
fn run(
    optimizer: OptimizerSpec,
    generations: usize,
    seed: u64,
    problem: &LeafRedesignProblem,
) -> Vec<Individual> {
    let spec = RunSpec {
        optimizer,
        seed,
        stopping: StoppingSpec {
            max_generations: generations,
            ..Default::default()
        },
        ..Default::default()
    };
    spec_driver(&spec, problem, Executor::shared(spec.optimizer.backend())).run()
}

/// Two NSGA-II islands of `population` with broadcast migration every
/// `interval` generations at probability 0.5.
fn archipelago(population: usize, interval: usize) -> OptimizerSpec {
    OptimizerSpec::Archipelago(ArchipelagoSpec {
        islands: 2,
        island: nsga2_island(population),
        migration_interval: interval,
        migration_probability: 0.5,
        topology: MigrationTopology::Broadcast,
    })
}

fn nsga2_island(population: usize) -> Nsga2Spec {
    Nsga2Spec {
        population,
        ..Default::default()
    }
}

#[test]
fn table_1_style_comparison_runs_end_to_end() {
    let problem = LeafRedesignProblem::new(Scenario::present_high_export());

    let pmo2_front = run(archipelago(30, 20), 40, 1, &problem);
    let moead = OptimizerSpec::Moead(MoeadSpec {
        population: 30,
        ..Default::default()
    });
    let moead_front = run(moead, 40, 1, &problem);

    let pmo2 = objective_matrix(&pmo2_front);
    let moead = objective_matrix(&moead_front);
    let global = union_front(&[pmo2.clone(), moead.clone()]);
    assert!(!global.is_empty());

    // Coverage metrics are proper fractions and the union front is at least as
    // large as the biggest contribution counted inside it.
    for front in [&pmo2, &moead] {
        let g = global_coverage(front, &global);
        let r = relative_coverage(front, &global);
        assert!((0.0..=1.0).contains(&g));
        assert!((0.0..=1.0).contains(&r));
    }
    let total_contribution = global_coverage(&pmo2, &global) + global_coverage(&moead, &global);
    assert!(total_contribution >= 1.0 - 1e-9);

    // Hypervolume uses a reference point dominated by every solution:
    // uptake >= 0 (so -uptake <= 0) and nitrogen below 2x natural.
    let reference = [1.0, 2.0 * EnzymePartition::NATURAL_NITROGEN];
    let hv_pmo2 = hypervolume(&pmo2, &reference);
    let hv_moead = hypervolume(&moead, &reference);
    let hv_union = hypervolume(&global, &reference);
    assert!(hv_pmo2 > 0.0);
    assert!(hv_union >= hv_pmo2.max(hv_moead) - 1e-6);
}

#[test]
fn pmo2_front_is_at_least_as_good_as_a_single_island_with_the_same_budget() {
    let problem = LeafRedesignProblem::new(Scenario::present_high_export());
    // Single NSGA-II with population 30 and 60 generations vs PMO2 with two
    // islands of 30 for 30 generations each: identical evaluation budgets.
    let single = run(OptimizerSpec::Nsga2(nsga2_island(30)), 60, 3, &problem);
    let pmo2 = run(archipelago(30, 10), 30, 3, &problem);

    let reference = [1.0, 2.0 * EnzymePartition::NATURAL_NITROGEN];
    let hv_single = hypervolume(&objective_matrix(&single), &reference);
    let hv_pmo2 = hypervolume(&objective_matrix(&pmo2), &reference);
    // PMO2 should be competitive: allow 15% slack since the budgets are tiny
    // and both runs are stochastic.
    assert!(
        hv_pmo2 >= 0.85 * hv_single,
        "PMO2 hypervolume {hv_pmo2} fell far below the single-island run {hv_single}"
    );
}

#[test]
fn spacing_of_an_evolved_front_is_finite_and_positive() {
    let problem = LeafRedesignProblem::new(Scenario::present_low_export());
    let front = run(OptimizerSpec::Nsga2(nsga2_island(30)), 30, 4, &problem);
    let matrix = objective_matrix(&front);
    let s = spacing(&matrix);
    assert!(s.is_finite());
    if matrix.len() > 2 {
        assert!(s >= 0.0);
    }
}

//! Cross-crate integration tests for the Geobacter substrate: FBA, the flux
//! optimization problem and the multi-objective search working together.

use pathway_core::prelude::*;
use pathway_fba::{steady_state_violation, FluxPerturbation, FluxRepair};
use pathway_moo::engine::{ArchipelagoSpec, Nsga2Spec};

fn small_model() -> GeobacterModel {
    GeobacterModel::builder().reactions(80).seed(11).build()
}

/// Runs `optimizer` serially over `problem` for `generations` generations
/// from `seed`.
fn run(
    optimizer: OptimizerSpec,
    generations: usize,
    seed: u64,
    problem: &GeobacterFluxProblem,
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
    spec_driver(&spec, problem, Executor::shared(EvalBackend::Serial)).run()
}

fn nsga2(population: usize) -> OptimizerSpec {
    OptimizerSpec::Nsga2(Nsga2Spec {
        population,
        ..Default::default()
    })
}

#[test]
fn fba_extremes_bound_the_evolved_front() {
    let model = small_model();
    let max_biomass = model.max_biomass().expect("biomass FBA runs");
    let max_electron = model.max_electron().expect("electron FBA runs");

    let problem = GeobacterFluxProblem::new(&model).expect("problem builds");
    let front = run(nsga2(40), 40, 5, &problem);
    assert!(!front.is_empty());
    // Evolved solutions are allowed a bounded steady-state violation
    // (0.035 · radius · reactions), so they may overshoot the exact-FBA optima
    // by a margin of that order, but not arbitrarily.
    let slack = 0.035 * 5.0 * model.model().num_reactions() as f64 + 0.5;
    for individual in &front {
        let solution = problem.decode(&individual.variables);
        assert!(solution.biomass_production <= max_biomass.objective_value + slack);
        assert!(solution.electron_production <= max_electron.objective_value + slack);
    }
}

#[test]
fn evolved_solutions_respect_the_pinned_atp_maintenance_flux() {
    let model = small_model();
    let atp_index = model.atp_maintenance_reaction();
    let problem = GeobacterFluxProblem::new(&model).expect("problem builds");
    let front = run(nsga2(30), 20, 9, &problem);
    for individual in &front {
        assert!(
            (individual.variables[atp_index] - pathway_fba::geobacter::ATP_MAINTENANCE_FLUX).abs()
                < 1e-9,
            "the ATP maintenance flux must stay pinned at 0.45"
        );
    }
}

#[test]
fn repair_operator_improves_random_flux_vectors() {
    let model = small_model();
    let mut perturbation = FluxPerturbation::new(0.2, 5.0, 3);
    let repair = FluxRepair::default();
    let mut improved = 0;
    for _ in 0..10 {
        let mut fluxes = perturbation.random_vector(model.model());
        let before = steady_state_violation(model.model(), &fluxes).expect("dimensions match");
        let after = repair
            .repair(model.model(), &mut fluxes)
            .expect("repair runs");
        if after < before {
            improved += 1;
        }
    }
    assert!(
        improved >= 8,
        "repair only improved {improved}/10 random vectors"
    );
}

#[test]
fn study_violation_reduction_mirrors_the_paper() {
    // The paper reports the evolved solution violating the steady-state
    // constraint ~26x less than the initial guess. At reduced scale we only
    // require a clear order-of-magnitude style improvement.
    let seed = 13;
    let model = GeobacterModel::builder()
        .reactions(80)
        .seed(seed ^ 0x6E0B)
        .build();
    let problem = GeobacterFluxProblem::new(&model).expect("problem builds");
    let pmo2 = OptimizerSpec::Archipelago(ArchipelagoSpec {
        island: Nsga2Spec {
            population: 40,
            ..Default::default()
        },
        migration_interval: 20,
        ..Default::default()
    });
    let front = run(pmo2, 40, seed, &problem);
    let outcome = GeobacterOutcome::from_front(&problem, &front, seed).expect("study runs");
    assert!(outcome.initial_violation > 0.0);
    assert!(outcome.best_violation < outcome.initial_violation / 5.0);
    // The labelled A-E points are ordered by decreasing biomass production.
    let labelled = outcome.labelled_points(5);
    for pair in labelled.windows(2) {
        assert!(pair[0].biomass_production >= pair[1].biomass_production);
    }
}

#[test]
fn biomass_and_electron_objectives_genuinely_conflict() {
    let model = small_model();
    let problem = GeobacterFluxProblem::new(&model).expect("problem builds");
    let front = run(nsga2(40), 40, 21, &problem);
    let solutions: Vec<GeobacterSolution> = front
        .iter()
        .map(|individual| problem.decode(&individual.variables))
        .collect();
    let best_biomass = solutions
        .iter()
        .cloned()
        .max_by(|a, b| {
            a.biomass_production
                .partial_cmp(&b.biomass_production)
                .unwrap()
        })
        .unwrap();
    let best_electron = solutions
        .iter()
        .cloned()
        .max_by(|a, b| {
            a.electron_production
                .partial_cmp(&b.electron_production)
                .unwrap()
        })
        .unwrap();
    // If the front has more than one point, the two champions differ and the
    // electron champion pays in biomass (and vice versa).
    if solutions.len() > 1 {
        assert!(best_electron.biomass_production <= best_biomass.biomass_production + 1e-9);
        assert!(best_biomass.electron_production <= best_electron.electron_production + 1e-9);
    }
}

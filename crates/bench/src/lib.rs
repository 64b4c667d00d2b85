//! Shared helpers for the benchmark and experiment harness.
//!
//! The `pathway-bench` crate has two faces:
//!
//! * **experiment binaries** (`src/bin/`): one per table and figure of the
//!   paper, each printing the corresponding rows/series
//!   (`cargo run --release -p pathway-bench --bin table1`);
//! * **Criterion benches** (`benches/`): performance and ablation benchmarks
//!   for the building blocks (NSGA-II generations, migration topologies,
//!   hypervolume, ODE steady states, FBA, robustness ensembles).
//!
//! Experiment budgets scale with the `PATHWAY_BENCH_SCALE` environment
//! variable: `1` (default) is a laptop-friendly budget, larger values approach
//! the paper's original budgets.
//!
//! Every experiment configures its search as a [`RunSpec`] and drives it
//! with [`spec_driver`], like the `pathway` CLI does with a spec file.

use pathway_core::{spec_driver, LeafDesignOutcome, LeafRedesignProblem};
use pathway_moo::engine::{ArchipelagoSpec, Nsga2Spec, OptimizerSpec, RunSpec, StoppingSpec};
use pathway_moo::{Executor, Individual, MultiObjectiveProblem};
use pathway_photosynthesis::Scenario;

/// Returns the experiment scale factor from `PATHWAY_BENCH_SCALE` (default 1).
pub fn scale() -> usize {
    std::env::var("PATHWAY_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(1)
}

/// Scales a base budget by the experiment scale factor, saturating at `max`.
pub fn scaled(base: usize, max: usize) -> usize {
    (base * scale()).min(max)
}

/// The paper's PMO2 search as a run spec: two NSGA-II islands of
/// `population`, broadcast migration every `migration_interval` generations
/// with probability 0.5, serial evaluation, `generations` generations from
/// `seed`. The experiments hand their problem to [`spec_driver`] directly,
/// so the spec's `[problem]` section stays empty.
pub fn pmo2_spec(
    population: usize,
    generations: usize,
    migration_interval: usize,
    seed: u64,
) -> RunSpec {
    RunSpec {
        optimizer: OptimizerSpec::Archipelago(ArchipelagoSpec {
            island: Nsga2Spec {
                population,
                ..Default::default()
            },
            migration_interval,
            ..Default::default()
        }),
        seed,
        stopping: StoppingSpec {
            max_generations: generations,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Runs `spec` over `problem` to completion on the spec's evaluation
/// backend, returning the final front and the evaluations it spent.
pub fn run_search<P: MultiObjectiveProblem>(
    spec: &RunSpec,
    problem: P,
) -> (Vec<Individual>, usize) {
    let executor = Executor::shared(spec.optimizer.backend());
    let mut driver = spec_driver(spec, problem, executor);
    let front = driver.run();
    (front, driver.optimizer().evaluations())
}

/// Runs `spec` over the leaf redesign problem of `scenario` and decodes the
/// front into leaf designs for mining and robustness screening.
pub fn leaf_search(scenario: Scenario, spec: &RunSpec) -> LeafDesignOutcome {
    let (front, evaluations) = run_search(spec, LeafRedesignProblem::new(scenario));
    LeafDesignOutcome::from_front(scenario, front, evaluations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_one() {
        // The environment variable is not set under `cargo test`.
        if std::env::var("PATHWAY_BENCH_SCALE").is_err() {
            assert_eq!(scale(), 1);
            assert_eq!(scaled(40, 1000), 40);
        }
    }

    #[test]
    fn scaled_saturates_at_the_cap() {
        assert_eq!(scaled(500, 200), 200);
    }
}

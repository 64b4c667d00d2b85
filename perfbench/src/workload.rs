//! The three workloads: the paper's oracles, each behind the spec text a
//! user would hand to `pathway run`. The workload seed becomes the spec's
//! `seed`; the program sees nothing else of it.

use pathway_core::{AnyProblem, OdeLeafRedesignProblem};
use pathway_moo::engine::{MetricsRegistry, RunSpec};
use pathway_moo::MultiObjectiveProblem;
use pathway_photosynthesis::Scenario;

/// Registry name the ODE leaf spec carries. The problem is not in
/// `PROBLEM_CATALOG`, so the benchmark builds it itself, the way
/// `tests/determinism.rs` and `benches/batch_eval.rs` do.
const ODE_LEAF_PROBLEM: &str = "leaf-design-ode";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Analytic leaf model (~3 µs per evaluation): driver phases, executor
    /// dispatch and checkpoint writes are the cost.
    LeafAnalytic,
    /// 608-reaction Geobacter: two simplex LPs at set-up, wide-genome
    /// variation, one CSR residual mat×mat per batch, large checkpoints.
    Geobacter608,
    /// Calvin-cycle ODE leaf (~8 ms per evaluation): oracle-bound, the only
    /// user of the ODE solver, LU and the warm-start library.
    LeafOde,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LeafAnalytic,
        Workload::Geobacter608,
        Workload::LeafOde,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LeafAnalytic => "leaf-analytic",
            Workload::Geobacter608 => "geobacter-608",
            Workload::LeafOde => "leaf-ode",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The run spec of one search on this workload.
    pub fn spec_text(self, seed: u64) -> String {
        let (problem, optimizer, checkpoint_every, generations) = match self {
            // The quickstart study (`examples/quickstart.spec`), run four
            // times as long so a pass outweighs timer and scheduler noise.
            Workload::LeafAnalytic => (
                "name = leaf-design\nera = present\nexport = low\n",
                ARCHIPELAGO_2X60,
                25,
                600,
            ),
            Workload::Geobacter608 => (
                "name = geobacter\nreactions = 608\n",
                ARCHIPELAGO_2X60,
                25,
                500,
            ),
            // Single-population NSGA-II: an archipelago would drive the
            // stateful warm-start library from two threads, which the
            // problem refuses.
            Workload::LeafOde => (
                "name = leaf-design-ode\n",
                "kind = nsga2\npopulation = 32\nbackend = serial\n",
                1,
                3,
            ),
        };
        format!(
            "pathway-spec v1\n\n[problem]\n{problem}\n[optimizer]\n{optimizer}\n[run]\n\
             seed = {seed}\ncheckpoint_every = {checkpoint_every}\n\n\
             [stop]\nmax_generations = {generations}\n"
        )
    }

    /// Rounds a run makes even when they overrun `--seconds`. The ODE
    /// searches are short and their cost and quality vary most from seed
    /// to seed, so that workload pools twice as many.
    pub fn min_rounds(self) -> usize {
        match self {
            Workload::LeafAnalytic | Workload::Geobacter608 => 10,
            Workload::LeafOde => 20,
        }
    }

    /// Fixed hypervolume reference point for `front_hv`, in the problem's
    /// (minimized) objective space: beyond the natural design's nitrogen
    /// and at zero uptake for the leaf models, at zero production for
    /// Geobacter.
    pub fn reference_point(self) -> [f64; 2] {
        match self {
            Workload::LeafAnalytic | Workload::LeafOde => [0.0, 1.0e6],
            Workload::Geobacter608 => [0.0, 0.0],
        }
    }

    /// Whether the oracle marks an unsettled design with the `+0.0` uptake
    /// sentinel (see [`crate::probe::Probe`]).
    pub fn has_unsettled_sentinel(self) -> bool {
        self == Workload::LeafOde
    }
}

const ARCHIPELAGO_2X60: &str = "kind = archipelago\nislands = 2\npopulation = 60\n\
    migration_interval = 50\nmigration_probability = 0.5\ntopology = broadcast\n\
    backend = serial\n";

/// A built oracle.
pub enum Oracle {
    Registry(AnyProblem),
    OdeLeaf(OdeLeafRedesignProblem),
}

impl Oracle {
    /// Builds the spec's problem: through the registry, or directly for
    /// the ODE leaf problem.
    pub fn build(spec: &RunSpec) -> Result<Oracle, String> {
        if spec.problem.name == ODE_LEAF_PROBLEM {
            return Ok(Oracle::OdeLeaf(OdeLeafRedesignProblem::new(
                Scenario::present_low_export(),
            )));
        }
        AnyProblem::from_spec(&spec.problem)
            .map(Oracle::Registry)
            .map_err(|err| err.to_string())
    }

    pub fn problem(&self) -> &dyn MultiObjectiveProblem {
        match self {
            Oracle::Registry(problem) => problem,
            Oracle::OdeLeaf(problem) => problem,
        }
    }

    /// Whether evaluations leave state behind (the warm-start library), so
    /// every search needs a fresh instance to repeat bit for bit.
    pub fn is_stateful(&self) -> bool {
        matches!(self, Oracle::OdeLeaf(_))
    }

    pub fn record_oracle_metrics(&self, registry: &MetricsRegistry) {
        match self {
            Oracle::Registry(problem) => problem.record_oracle_metrics(registry),
            Oracle::OdeLeaf(problem) => problem.record_oracle_metrics(registry),
        }
    }
}

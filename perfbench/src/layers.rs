//! Per-layer probes of a traced run that replay work outside the search:
//! the Geobacter set-up LPs and a sample of ODE steady-state solves. Also
//! the readers of the program's own `MetricsRegistry`.

use std::time::Instant;

use pathway_fba::geobacter::GeobacterModel;
use pathway_fba::FluxBalanceAnalysis;
use pathway_moo::engine::{HistogramSnapshot, MetricsSnapshot};
use pathway_photosynthesis::{EnzymePartition, OdeUptakeEvaluator, Scenario};

use crate::trace::Tracer;

/// The two LPs `GeobacterFluxProblem::with_exploration` solves at
/// construction, solved again.
pub struct LpReplay {
    pub seconds: f64,
    /// Sum of `FbaSolution::iterations` over both LPs.
    pub pivots: u64,
    /// The reference flux distribution the problem derives from them.
    pub reference: Vec<f64>,
}

/// Rebuilds the Geobacter model and re-solves its max-biomass and
/// max-electron LPs, timing only the FBA calls. Without a `model_seed` the
/// builder's default seed applies, as it does for the registry's problem.
pub fn replay_geobacter_lps(
    reactions: usize,
    model_seed: Option<u64>,
    tracer: &Tracer,
) -> Result<LpReplay, String> {
    let mut builder = GeobacterModel::builder().reactions(reactions);
    if let Some(seed) = model_seed {
        builder = builder.seed(seed);
    }
    let model = builder.build();
    let span = tracer.open("fba.lp", None, None);
    let started = Instant::now();
    let fba = FluxBalanceAnalysis::new(model.model());
    let solve = |reaction| {
        fba.maximize_reaction(reaction)
            .map_err(|err| format!("FBA replay failed: {err}"))
    };
    let biomass = solve(model.biomass_reaction())?;
    let electron = solve(model.electron_reaction())?;
    let seconds = started.elapsed().as_secs_f64();
    tracer.close(span);
    Ok(LpReplay {
        seconds,
        pivots: (biomass.iterations + electron.iterations) as u64,
        reference: biomass
            .fluxes
            .iter()
            .zip(&electron.fluxes)
            .map(|(a, b)| 0.5 * (a + b))
            .collect(),
    })
}

/// Solver work of a replayed sample, summed; compared exactly between two
/// replays of the same sample.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OdeCounts {
    pub cold_solves: u64,
    pub steps: u64,
    pub newton: u64,
    pub jacobians: u64,
    pub rhs: u64,
    /// Solves (cold or warm) that did not settle.
    pub failures: u64,
}

/// Wall times of the solves that settled, and the counts.
pub struct OdeReplay {
    pub cold_ms: Vec<f64>,
    pub warm_ms: Vec<f64>,
    pub counts: OdeCounts,
}

/// Solves every design in `designs` to steady state from the cold start,
/// then again warm-started from the previous design's steady state (the
/// last design's for the first), as the warm-start library would. Times
/// are kept for the solves that settled; counts come from
/// `SteadyState::stats` of the settled cold solves.
pub fn replay_ode(designs: &[Vec<f64>], tracer: &Tracer) -> OdeReplay {
    // The evaluator and scenario `OdeLeafRedesignProblem::new` uses.
    let evaluator = OdeUptakeEvaluator::fast();
    let scenario = Scenario::present_low_export();
    let mut replay = OdeReplay {
        cold_ms: Vec::new(),
        warm_ms: Vec::new(),
        counts: OdeCounts::default(),
    };
    let mut settled = Vec::with_capacity(designs.len());
    for design in designs {
        let partition = EnzymePartition::new(design.clone());
        let span = tracer.open("ode.cold", None, None);
        let started = Instant::now();
        let solved = evaluator.steady_state(&partition, &scenario);
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        tracer.close(span);
        match solved {
            Ok((steady, _uptake)) => {
                replay.cold_ms.push(elapsed_ms);
                let stats = steady.stats;
                let counts = &mut replay.counts;
                counts.cold_solves += 1;
                counts.steps += stats.steps_attempted() as u64;
                counts.newton += stats.newton_iterations as u64;
                counts.jacobians += stats.jacobian_evaluations as u64;
                counts.rhs += stats.rhs_evaluations as u64;
                settled.push(Some(steady.state));
            }
            Err(_) => {
                replay.counts.failures += 1;
                settled.push(None);
            }
        }
    }
    for (index, design) in designs.iter().enumerate() {
        let previous = (index + designs.len() - 1) % designs.len();
        let Some(start) = settled[previous].clone() else {
            continue;
        };
        let partition = EnzymePartition::new(design.clone());
        let span = tracer.open("ode.warm", None, None);
        let started = Instant::now();
        let solved = evaluator.steady_state_from(&partition, &scenario, start);
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        tracer.close(span);
        match solved {
            Ok(_) => replay.warm_ms.push(elapsed_ms),
            Err(_) => replay.counts.failures += 1,
        }
    }
    replay
}

/// Seconds recorded under the phase `name` (`phase.<name>.us`).
pub fn phase_seconds(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.counter(&format!("phase.{name}.us")).unwrap_or(0) as f64 * 1e-6
}

pub fn counter(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.counter(name).unwrap_or(0) as f64
}

/// The `q`-quantile of a bucketed histogram, read as the upper bound of
/// the bucket it falls in (the last bound for the overflow bucket); `0.0`
/// when empty or absent.
pub fn histogram_quantile(histogram: Option<&HistogramSnapshot>, q: f64) -> f64 {
    let Some(histogram) = histogram.filter(|h| h.count > 0) else {
        return 0.0;
    };
    let target = (q * histogram.count as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (bucket, count) in histogram.counts.iter().enumerate() {
        seen += count;
        if seen >= target {
            let last = histogram.bounds.len().saturating_sub(1);
            return histogram
                .bounds
                .get(bucket.min(last))
                .copied()
                .unwrap_or(0.0);
        }
    }
    histogram.bounds.last().copied().unwrap_or(0.0)
}

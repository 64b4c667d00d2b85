//! The oracle probe: a transparent [`MultiObjectiveProblem`] wrapper that
//! counts what the optimizer asks of the oracle and, in traced runs, times
//! and spans every call into it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pathway_moo::MultiObjectiveProblem;

use crate::trace::Tracer;

/// Cumulative oracle tallies of one search pass.
#[derive(Debug, Default)]
pub struct OracleCounters {
    /// `evaluate_batch` plus direct `evaluate` calls.
    pub calls: AtomicU64,
    /// Candidates evaluated.
    pub candidates: AtomicU64,
    /// Candidates whose evaluation failed (see [`Probe`]).
    pub failed: AtomicU64,
    /// Nanoseconds inside `evaluate_batch`/`evaluate`, summed over lanes
    /// (traced runs only).
    pub busy_ns: AtomicU64,
    /// Nanoseconds inside `prepare_batch` (traced runs only).
    pub prepare_ns: AtomicU64,
}

/// Forwards every call to `inner` unchanged, so the search trajectory is
/// the one `pathway run` takes on the bare problem.
///
/// A candidate counts as failed when an objective is not finite, or — with
/// `unsettled_sentinel` — when its first objective carries the exact `+0.0`
/// bit pattern the ODE leaf oracle returns for a design whose integration
/// never settled (a settled design scores `-uptake`, never `+0.0`).
pub struct Probe<'a> {
    pub inner: &'a dyn MultiObjectiveProblem,
    pub counters: &'a OracleCounters,
    pub unsettled_sentinel: bool,
    pub tracer: Option<&'a Tracer>,
}

impl Probe<'_> {
    fn is_failure(&self, objectives: &[f64]) -> bool {
        objectives.iter().any(|value| !value.is_finite())
            || (self.unsettled_sentinel
                && objectives.first().map(|value| value.to_bits()) == Some(0.0f64.to_bits()))
    }

    fn count(&self, candidates: usize, failed: usize) {
        let counters = self.counters;
        counters.calls.fetch_add(1, Ordering::Relaxed);
        counters
            .candidates
            .fetch_add(candidates as u64, Ordering::Relaxed);
        counters.failed.fetch_add(failed as u64, Ordering::Relaxed);
    }

    /// Runs `call` inside an oracle span when tracing, adding its duration
    /// to `busy`.
    fn timed<R>(&self, name: &'static str, busy: &AtomicU64, call: impl FnOnce() -> R) -> R {
        let Some(tracer) = self.tracer else {
            return call();
        };
        let span = tracer.open_in_context(name);
        let started = Instant::now();
        let result = call();
        let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        busy.fetch_add(elapsed, Ordering::Relaxed);
        tracer.close(span);
        result
    }
}

impl MultiObjectiveProblem for Probe<'_> {
    fn num_variables(&self) -> usize {
        self.inner.num_variables()
    }

    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        self.inner.bounds()
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        let objectives = self.timed("oracle.evaluate", &self.counters.busy_ns, || {
            self.inner.evaluate(x)
        });
        self.count(1, usize::from(self.is_failure(&objectives)));
        objectives
    }

    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<(Vec<f64>, f64)> {
        let results = self.timed("oracle.evaluate_batch", &self.counters.busy_ns, || {
            self.inner.evaluate_batch(xs)
        });
        let failed = results
            .iter()
            .filter(|(objectives, violation)| self.is_failure(objectives) || violation.is_nan())
            .count();
        self.count(xs.len(), failed);
        results
    }

    fn prepare_batch(&self, xs: &[Vec<f64>]) {
        self.timed("oracle.prepare_batch", &self.counters.prepare_ns, || {
            self.inner.prepare_batch(xs)
        });
    }

    fn constraint_violation(&self, x: &[f64]) -> f64 {
        self.inner.constraint_violation(x)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn clamp(&self, x: &mut [f64]) {
        self.inner.clamp(x);
    }
}

//! One search pass: the generation loop `pathway run` drives, on a given
//! executor, with its periodic and final checkpoint writes.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pathway_moo::engine::{
    CheckpointStore, Driver, MetricsRegistry, Optimizer, RunCheckpoint, RunSpec,
};
use pathway_moo::exec::Executor;
use pathway_moo::Individual;

use crate::probe::Probe;
use crate::trace::Tracer;

/// What a pass leaves behind.
pub struct Pass {
    /// Wall time of every `Driver::step` and checkpoint save.
    pub seconds: f64,
    pub front: Vec<Individual>,
    pub population: Vec<Individual>,
    pub evaluations: usize,
    /// Wall time of each `Driver::step`, in milliseconds.
    pub step_ms: Vec<f64>,
    /// Wall time of each `CheckpointStore::save`, in milliseconds.
    pub save_ms: Vec<f64>,
    /// Mean size of the checkpoint files the pass left, in bytes.
    pub checkpoint_bytes: f64,
    /// The final checkpoint file.
    pub final_checkpoint: Vec<u8>,
}

/// Runs `spec` to its stopping rule on `executor`, saving checkpoints
/// under `checkpoint_dir` as `pathway run` does: every `checkpoint_every`
/// generations, then once more at the end. The final checkpoint is read
/// back and must match the run's state.
pub fn run_pass(
    spec: &RunSpec,
    problem: Probe<'_>,
    executor: Arc<Executor>,
    metrics: Option<MetricsRegistry>,
    tracer: Option<&Tracer>,
    span_name: &'static str,
    checkpoint_dir: &Path,
) -> Result<Pass, String> {
    if checkpoint_dir.exists() {
        std::fs::remove_dir_all(checkpoint_dir).map_err(|err| err.to_string())?;
    }
    let store = CheckpointStore::create(checkpoint_dir, spec).map_err(|err| err.to_string())?;
    let mut optimizer = spec.build_optimizer();
    optimizer.set_executor(executor);
    let mut driver = Driver::new(optimizer, problem).with_stopping(spec.stopping_rule());
    if let Some(reference) = &spec.reference_point {
        driver = driver.with_reference_point(reference.clone());
    }
    if let Some(registry) = metrics {
        driver = driver.with_metrics(registry);
    }

    let mut step_ms = Vec::with_capacity(spec.stopping.max_generations);
    let mut save_ms = Vec::new();
    let root = tracer.map(|tracer| tracer.open(span_name, None, None));
    let started = Instant::now();
    let mut save = |checkpoint: &RunCheckpoint| -> Result<(), String> {
        let span =
            tracer.map(|tracer| tracer.open("store.save", root.as_ref().map(|s| s.id()), None));
        let save_started = Instant::now();
        store
            .save(checkpoint)
            .map_err(|err| format!("checkpoint save failed: {err}"))?;
        save_ms.push(save_started.elapsed().as_secs_f64() * 1e3);
        if let (Some(tracer), Some(span)) = (tracer, span) {
            tracer.close(span);
        }
        Ok(())
    };
    while !driver.should_stop() {
        let generation = driver.generation() as u64 + 1;
        let span = tracer.map(|tracer| {
            let span = tracer.open(
                "driver.step",
                root.as_ref().map(|s| s.id()),
                Some(generation),
            );
            tracer.set_context(Some(span.id()), Some(generation));
            span
        });
        let step_started = Instant::now();
        driver.step();
        step_ms.push(step_started.elapsed().as_secs_f64() * 1e3);
        if let (Some(tracer), Some(span)) = (tracer, span) {
            tracer.close(span);
        }
        if spec.checkpoint_every > 0 && driver.generation().is_multiple_of(spec.checkpoint_every) {
            save(&driver.checkpoint())?;
        }
    }
    save(&driver.checkpoint())?;
    let seconds = started.elapsed().as_secs_f64();
    if let (Some(tracer), Some(root)) = (tracer, root) {
        tracer.set_context(None, None);
        tracer.close(root);
    }

    let final_path = checkpoint_dir.join(format!("gen-{}.ckpt", driver.generation()));
    let stored = CheckpointStore::load_matching(&final_path, spec)
        .map_err(|err| format!("final checkpoint does not load: {err}"))?;
    if stored.checkpoint != driver.checkpoint() {
        return Err("final checkpoint does not round-trip the run state".to_string());
    }
    let read_error = |err: std::io::Error| format!("{}: {err}", checkpoint_dir.display());
    let mut sizes = Vec::new();
    for entry in std::fs::read_dir(checkpoint_dir).map_err(read_error)? {
        sizes.push(
            entry
                .map_err(read_error)?
                .metadata()
                .map_err(read_error)?
                .len(),
        );
    }
    let checkpoint_bytes = sizes.iter().sum::<u64>() as f64 / sizes.len().max(1) as f64;
    let final_checkpoint = std::fs::read(&final_path).map_err(read_error)?;
    let population = Optimizer::<Probe<'_>>::population(driver.optimizer());
    Ok(Pass {
        seconds,
        front: driver.front(),
        population,
        evaluations: driver.optimizer().evaluations(),
        step_ms,
        save_ms,
        checkpoint_bytes,
        final_checkpoint,
    })
}

/// True when both fronts hold the same individuals in the same order, bit
/// for bit on variables, objectives and violation.
pub fn fronts_identical(a: &[Individual], b: &[Individual]) -> bool {
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            bits(&x.variables) == bits(&y.variables)
                && bits(&x.objectives) == bits(&y.objectives)
                && x.violation.to_bits() == y.violation.to_bits()
        })
}

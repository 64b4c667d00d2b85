//! One benchmark run of one workload: set-up, then search passes at 1 and
//! 2 lanes until the measuring time is spent, then the metrics.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pathway_core::jsonlite::JsonValue;
use pathway_core::AnyProblem;
use pathway_moo::engine::{MetricsRegistry, MetricsSnapshot, OptimizerSpec, RunSpec};
use pathway_moo::exec::Executor;
use pathway_moo::metrics::hypervolume;
use pathway_moo::EvalBackend;

use crate::layers::{self, counter, histogram_quantile, phase_seconds, OdeCounts};
use crate::probe::{OracleCounters, Probe};
use crate::search::{fronts_identical, run_pass, Pass};
use crate::stats::{max, median, quantile, trimmed_mean};
use crate::trace::{write_chrome_json, Tracer};
use crate::workload::{Oracle, Workload};

/// Lanes of the parallel pass: the calling thread plus one pool worker.
const LANES: usize = 2;
/// Set-up samples a run takes at least. A set-up too slow to batch
/// (Geobacter's LPs take seconds) is sampled once before the first round
/// and then between rounds, spread over the rounds every run makes (see
/// [`slow_setup_due`]).
const MIN_SETUPS: usize = 3;
/// Time set-up samples may take before the first round; batched set-ups
/// fill it.
const SETUP_BUDGET: Duration = Duration::from_millis(500);
/// Wall time one set-up sample aims at. A set-up that takes less (the leaf
/// workloads' take tens of microseconds) is repeated in a batch that fills
/// it, and the sample is the batch's mean.
const SETUP_SAMPLE: Duration = Duration::from_millis(5);
/// Set-up samples taken after every round when set-ups are batched. The
/// host's speed drifts over seconds; sampling all through the run, as the
/// search passes do, keeps one slow moment from setting `setup_s`.
const SETUP_SAMPLES_PER_ROUND: usize = 10;
/// Most rounds a run makes, and the stride between the search seeds of
/// two workload seeds (see [`search_seed`]).
const MAX_ROUNDS: usize = 1000;
const ROUND_SEEDS: u64 = MAX_ROUNDS as u64;
/// Share of a run's passes dropped at each end before their times and
/// hypervolumes are averaged (see [`trimmed_mean`]).
const TRIM: f64 = 0.2;
/// Hypervisor steal, as a share of the machine's CPU time, above which a
/// pass timed the host rather than the program: on the 2-vCPU baseline
/// machine a Geobacter pass took 0.7 s with no steal and 1.1-1.6 s during
/// 19-27% steal. Such passes are left out of `search_s` while at least
/// [`MIN_CALM_PASSES`] passes of the lane count remain.
const MAX_STEAL: f64 = 0.05;
const MIN_CALM_PASSES: usize = 5;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// What a run measured and what it found wrong.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Search passes run.
    pub attempted: u64,
    /// Search passes that failed a correctness check.
    pub failed: u64,
    /// Every failed check, in words.
    pub errors: Vec<String>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        });
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.errors.push(what());
        }
        ok
    }
}

/// The set-up a run searches with.
struct Setup {
    spec: RunSpec,
    oracle: Oracle,
    pool: Arc<Executor>,
}

/// Set-up times of a run, sample by sample.
struct SetupTimes {
    /// Mean set-up time of each sample's batch.
    setup_s: Vec<f64>,
    /// Mean problem-construction time of each sample's batch.
    build_s: Vec<f64>,
    /// Set-ups timed, over all samples.
    repetitions: usize,
    /// Set-ups in the next sample.
    batch: usize,
}

impl SetupTimes {
    /// Times one sample: a batch of set-ups (spec parse + problem
    /// construction + executor build), each timed on its own with the
    /// previous one dropped outside the timers, so a sample holds no
    /// executor tear-down. Returns the last set-up. The first sample is one
    /// set-up; each later one batches as many as fill [`SETUP_SAMPLE`] at
    /// the previous sample's pace.
    fn sample(&mut self, text: &str, tracer: Option<&Tracer>) -> Result<Setup, String> {
        let (mut setup_sum, mut build_sum) = (Duration::ZERO, Duration::ZERO);
        let mut kept = None;
        for _ in 0..self.batch {
            drop(kept.take());
            let span = tracer.map(|tracer| tracer.open("setup", None, None));
            let t0 = Instant::now();
            let spec =
                RunSpec::from_text(text).map_err(|err| format!("spec does not parse: {err}"))?;
            let t1 = Instant::now();
            let build = tracer.map(|tracer| {
                tracer.open("core.problem_build", span.as_ref().map(|s| s.id()), None)
            });
            let oracle = Oracle::build(&spec)?;
            let t2 = Instant::now();
            if let (Some(tracer), Some(build)) = (tracer, build) {
                tracer.close(build);
            }
            let pool = Executor::shared(EvalBackend::Threads(LANES));
            let t3 = Instant::now();
            if let (Some(tracer), Some(span)) = (tracer, span) {
                tracer.close(span);
            }
            setup_sum += t3 - t0;
            build_sum += t2 - t1;
            kept = Some(Setup { spec, oracle, pool });
        }
        let pace = setup_sum.as_secs_f64() / self.batch as f64;
        self.setup_s.push(pace);
        self.build_s
            .push(build_sum.as_secs_f64() / self.batch as f64);
        self.repetitions += self.batch;
        self.batch = (SETUP_SAMPLE.as_secs_f64() / pace).floor().max(1.0) as usize;
        Ok(kept.expect("a batch holds at least one set-up"))
    }

    /// Whether set-ups are short enough to be timed in batches.
    fn batched(&self) -> bool {
        self.batch > 1
    }
}

/// Times set-up samples until `budget` is spent, at least one; returns the
/// last set-up and the times.
fn set_up(
    text: &str,
    budget: Duration,
    tracer: Option<&Tracer>,
) -> Result<(Setup, SetupTimes), String> {
    let mut times = SetupTimes {
        setup_s: Vec::new(),
        build_s: Vec::new(),
        repetitions: 0,
        batch: 1,
    };
    let started = Instant::now();
    let mut setup = times.sample(text, tracer)?;
    while started.elapsed() < budget {
        setup = times.sample(text, tracer)?;
    }
    Ok((setup, times))
}

/// Whether an unbatched set-up sample is due once `done` rounds have run:
/// the [`MIN_SETUPS`] samples are spread evenly over the first
/// `min_rounds` rounds, the first one before round 0.
fn slow_setup_due(samples: usize, done: usize, min_rounds: usize) -> bool {
    samples < MIN_SETUPS && done * MIN_SETUPS >= samples * min_rounds
}

/// Which executor a pass runs on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Lanes {
    One,
    Two,
}

impl Lanes {
    fn label(self) -> &'static str {
        match self {
            Lanes::One => "l1",
            Lanes::Two => "l2",
        }
    }
}

/// A finished pass with the tallies of its oracle probe.
struct Measured {
    round: usize,
    lanes: Lanes,
    pass: Pass,
    calls: u64,
    candidates: u64,
    failed: u64,
    busy_s: f64,
    prepare_s: f64,
    /// Hypervolume of the pass's front at the workload's reference point.
    hv: f64,
    /// Share of the machine's CPU time the hypervisor took during the pass.
    stolen_frac: f64,
    /// Traced passes: the registry snapshot, with the oracle's own
    /// counters recorded into it, and the span self times.
    snapshot: Option<MetricsSnapshot>,
    self_s: Option<std::collections::BTreeMap<&'static str, f64>>,
}

struct Runner<'a> {
    workload: Workload,
    setup: &'a Setup,
    serial: Arc<Executor>,
    checkpoint_root: PathBuf,
    origin: Instant,
    tracers: Vec<(String, Tracer)>,
}

impl Runner<'_> {
    /// One search pass. Untraced passes reuse the set-up's executors;
    /// traced ones get fresh executors with a registry attached, so each
    /// pass's registry holds that pass alone.
    fn pass(
        &mut self,
        spec: &RunSpec,
        round: usize,
        lanes: Lanes,
        traced: bool,
    ) -> Result<Measured, String> {
        let fresh = if self.setup.oracle.is_stateful() {
            Some(Oracle::build(spec)?)
        } else {
            None
        };
        let oracle = fresh.as_ref().unwrap_or(&self.setup.oracle);
        let counters = OracleCounters::default();
        let tracer = traced.then(|| Tracer::new(self.origin));
        let registry = traced.then(MetricsRegistry::new);
        let executor = match (lanes, &registry) {
            (Lanes::One, None) => Arc::clone(&self.serial),
            (Lanes::Two, None) => Arc::clone(&self.setup.pool),
            (Lanes::One, Some(registry)) => {
                let executor = Executor::shared(EvalBackend::Serial);
                executor.set_metrics(registry.clone());
                executor
            }
            (Lanes::Two, Some(registry)) => {
                let executor = Executor::shared(EvalBackend::Threads(LANES));
                executor.set_metrics(registry.clone());
                executor
            }
        };
        let probe = Probe {
            inner: oracle.problem(),
            counters: &counters,
            unsettled_sentinel: self.workload.has_unsettled_sentinel(),
            tracer: tracer.as_ref(),
        };
        let span_name = match lanes {
            Lanes::One => "search.l1",
            Lanes::Two => "search.l2",
        };
        let stolen_before = stolen_seconds();
        let pass = run_pass(
            spec,
            probe,
            executor,
            registry.clone(),
            tracer.as_ref(),
            span_name,
            &self.checkpoint_root.join(lanes.label()),
        )?;
        let snapshot = registry.map(|registry| {
            oracle.record_oracle_metrics(&registry);
            registry.snapshot()
        });
        let self_s = tracer.as_ref().map(Tracer::self_seconds);
        if let Some(tracer) = tracer {
            let label = format!("{} pass {}", span_name, self.tracers.len() + 1);
            self.tracers.push((label, tracer));
        }
        let load = |counter: &std::sync::atomic::AtomicU64| counter.load(Ordering::Relaxed);
        let cores = std::thread::available_parallelism().map_or(1, usize::from) as f64;
        let stolen_frac = (stolen_seconds() - stolen_before) / (cores * pass.seconds);
        let objectives: Vec<Vec<f64>> =
            pass.front.iter().map(|i| i.objectives.clone()).collect();
        let hv = hypervolume(&objectives, &self.workload.reference_point());
        Ok(Measured {
            round,
            lanes,
            hv,
            stolen_frac,
            calls: load(&counters.calls),
            candidates: load(&counters.candidates),
            failed: load(&counters.failed),
            busy_s: load(&counters.busy_ns) as f64 * 1e-9,
            prepare_s: load(&counters.prepare_ns) as f64 * 1e-9,
            pass,
            snapshot,
            self_s,
        })
    }
}

/// CPU time the hypervisor has taken from this machine's virtual CPUs
/// (`steal` in `/proc/stat`, in 1/100 s), in seconds; 0 where unreported.
fn stolen_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let steal = stat.lines().next()?.split_whitespace().nth(8)?;
            steal.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// `numerator / denominator`, or `0.0` when the layer did no work.
fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Resident-set high-water mark of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The search seed of round `round` of a run from `seed`. Every round
/// searches from its own seed, so a run's medians pool many independent
/// searches instead of repeating one, and a run's figures depend far less
/// on which seed it was given.
pub fn search_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(ROUND_SEEDS).wrapping_add(round as u64)
}

/// Runs `workload` from `seed` for `seconds`, set-up included, untraced
/// (end-to-end metrics) or traced (per-layer metrics). The rounds every
/// run makes may overrun `seconds`. Scratch files go under `out_dir`; a
/// traced run leaves its Chrome trace there.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
    env: &[(String, String)],
) -> Result<Outcome, String> {
    let origin = Instant::now();
    let text = workload.spec_text(search_seed(seed, 0));
    let setup_tracer = traced.then(|| Tracer::new(origin));
    let (setup, mut setup_times) = if traced {
        set_up(&text, Duration::ZERO, setup_tracer.as_ref())?
    } else {
        set_up(&text, SETUP_BUDGET, None)?
    };
    let mut outcome = Outcome {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        notes: Vec::new(),
    };
    let checkpoint_root = out_dir.join(format!("checkpoints-{}", std::process::id()));
    let mut runner = Runner {
        workload,
        setup: &setup,
        serial: Arc::new(Executor::serial()),
        checkpoint_root: checkpoint_root.clone(),
        origin,
        tracers: Vec::new(),
    };
    if let Some(tracer) = setup_tracer {
        runner.tracers.push(("setup".to_string(), tracer));
    }

    // Rounds until the measuring time is spent, each on its own search
    // seed, with every front of a round compared bit for bit. Untraced
    // runs alternate which lane count goes first, and take set-up samples
    // between rounds; traced runs pair a traced serial pass with an
    // untraced one (alternating order) for the tracing overhead, then
    // trace the 2-lane pass.
    let deadline = origin + Duration::from_secs_f64(seconds);
    let min_rounds = workload.min_rounds();
    let mut passes: Vec<Measured> = Vec::new();
    let mut round = 0;
    let result = (|| -> Result<(), String> {
        while round < min_rounds || (Instant::now() < deadline && round < MAX_ROUNDS) {
            let text = workload.spec_text(search_seed(seed, round));
            let spec =
                RunSpec::from_text(&text).map_err(|err| format!("spec does not parse: {err}"))?;
            let plan: &[(Lanes, bool)] = match (traced, round % 2 == 0) {
                (false, true) => &[(Lanes::One, false), (Lanes::Two, false)],
                (false, false) => &[(Lanes::Two, false), (Lanes::One, false)],
                (true, true) => &[(Lanes::One, false), (Lanes::One, true), (Lanes::Two, true)],
                (true, false) => &[(Lanes::One, true), (Lanes::One, false), (Lanes::Two, true)],
            };
            let first = passes.len();
            for &(lanes, traced_pass) in plan {
                let measured = runner.pass(&spec, round, lanes, traced_pass)?;
                outcome.attempted += 1;
                let label = lanes.label();
                let front = &measured.pass.front;
                let first_pass = &passes.get(first).unwrap_or(&measured).pass;
                let mut ok = outcome.check(!front.is_empty(), || {
                    format!("round {round}: the {label} front is empty")
                });
                // Zero is a valid hypervolume: a search whose every design
                // failed to settle has its front at zero uptake.
                ok &= outcome.check(measured.hv.is_finite() && measured.hv >= 0.0, || {
                    format!("round {round}: the {label} front's hypervolume is {}", measured.hv)
                });
                ok &= outcome.check(fronts_identical(front, &first_pass.front), || {
                    format!("round {round}: the {label} front differs from the round's first")
                });
                let same_checkpoint = measured.pass.final_checkpoint == first_pass.final_checkpoint;
                ok &= outcome.check(same_checkpoint, || {
                    format!("round {round}: the {label} final checkpoint differs from the first")
                });
                let (seen, counted) = (measured.candidates, measured.pass.evaluations);
                ok &= outcome.check(seen == counted as u64, || {
                    format!(
                        "round {round}: the oracle saw {seen} candidates, the optimizer {counted}"
                    )
                });
                if !ok {
                    outcome.failed += 1;
                }
                passes.push(measured);
            }
            // Keep only what the metrics read, so the run's own memory does
            // not grow with the number of rounds and show in `peak_rss_mb`.
            for measured in &mut passes[first..] {
                measured.pass.final_checkpoint = Vec::new();
                measured.pass.front = Vec::new();
                if round > 0 {
                    measured.pass.population = Vec::new();
                }
            }
            round += 1;
            if !traced {
                let samples = if setup_times.batched() {
                    SETUP_SAMPLES_PER_ROUND
                } else {
                    usize::from(slow_setup_due(setup_times.setup_s.len(), round, min_rounds))
                };
                for _ in 0..samples {
                    setup_times.sample(&text, None)?;
                }
            }
        }
        Ok(())
    })();
    let cleanup = std::fs::remove_dir_all(&checkpoint_root);
    result?;
    cleanup.map_err(|err| format!("cannot remove {}: {err}", checkpoint_root.display()))?;
    outcome.notes.push(format!(
        "set-up: {} repetitions in {} samples, sample quartiles {:.6}/{:.6}/{:.6} s",
        setup_times.repetitions,
        setup_times.setup_s.len(),
        quantile(&setup_times.setup_s, 0.25),
        median(&setup_times.setup_s),
        quantile(&setup_times.setup_s, 0.75)
    ));
    outcome
        .notes
        .push(format!("{round} rounds, {} search passes", passes.len()));

    if traced {
        per_layer(&mut outcome, &mut runner, &passes, &setup_times)?;
        let trace_path = out_dir.join(format!("trace-{}-seed{seed}.json", workload.name()));
        let metadata = env
            .iter()
            .map(|(key, value)| (key.clone(), JsonValue::string(value.as_str())))
            .collect();
        write_chrome_json(&trace_path, &runner.tracers, metadata)
            .map_err(|err| format!("cannot write {}: {err}", trace_path.display()))?;
        outcome
            .notes
            .push(format!("trace: {}", trace_path.display()));
        return Ok(outcome);
    }

    // Quality and failures come from the serial passes: each search's
    // front and evaluations, once.
    let serial: Vec<&Measured> = passes.iter().filter(|m| m.lanes == Lanes::One).collect();
    let hvs: Vec<f64> = serial.iter().map(|m| m.hv).collect();
    let hv = trimmed_mean(&hvs, TRIM);
    outcome.check(hv > 0.0, || {
        format!(
            "front_hv at the reference point {:?} is not positive",
            workload.reference_point()
        )
    });
    let attempted: u64 = serial.iter().map(|m| m.candidates).sum();
    let failed: u64 = serial.iter().map(|m| m.failed).sum();
    let failed_frac = failed as f64 / attempted.max(1) as f64;

    let seconds_of = |lanes: Lanes| -> (Vec<f64>, usize) {
        let all: Vec<&Measured> = passes.iter().filter(|m| m.lanes == lanes).collect();
        let calm: Vec<f64> = all
            .iter()
            .filter(|m| m.stolen_frac <= MAX_STEAL)
            .map(|m| m.pass.seconds)
            .collect();
        if calm.len() >= MIN_CALM_PASSES {
            (calm, all.len())
        } else {
            (all.iter().map(|m| m.pass.seconds).collect(), all.len())
        }
    };
    let ((l1, l1_all), (l2, l2_all)) = (seconds_of(Lanes::One), seconds_of(Lanes::Two));
    outcome.push("setup_s", "s", median(&setup_times.setup_s));
    outcome.push("search_s.l1", "s", trimmed_mean(&l1, TRIM));
    outcome.push("search_s.l2", "s", trimmed_mean(&l2, TRIM));
    outcome.push("peak_rss_mb", "MB", peak_rss_mb());
    outcome.push("front_hv", "hv", hv);
    outcome.push("evals_ok_frac", "ratio", 1.0 - failed_frac);
    let list = |values: &[f64]| {
        values
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    outcome
        .notes
        .push(format!("front_hv per round: {}", list(&hvs)));
    let stolen: Vec<f64> = passes.iter().map(|m| m.stolen_frac).collect();
    outcome.notes.push(format!(
        "hypervisor steal during the passes: median {:.1}%, max {:.1}% of the machine's CPU time",
        100.0 * median(&stolen),
        100.0 * max(&stolen)
    ));
    outcome.notes.push(format!(
        "search_s from {} of {} l1 and {} of {} l2 passes (steal <= {:.0}% unless fewer than {} \
         passes are)",
        l1.len(),
        l1_all,
        l2.len(),
        l2_all,
        100.0 * MAX_STEAL,
        MIN_CALM_PASSES
    ));
    for lanes in [Lanes::One, Lanes::Two] {
        let listed: Vec<String> = passes
            .iter()
            .filter(|m| m.lanes == lanes)
            .map(|m| format!("{:.4}/{:.1}", m.pass.seconds, 100.0 * m.stolen_frac))
            .collect();
        outcome.notes.push(format!(
            "search_s.{} passes (s/steal %): {}",
            lanes.label(),
            listed.join(" ")
        ));
    }
    outcome.notes.push(format!(
        "failed_evals_frac {failed_frac:.6} ({failed} of {attempted} evaluations in the {} \
         serial passes); front_hv is the trimmed mean over their fronts",
        serial.len()
    ));
    Ok(outcome)
}

/// The per-layer metrics of a traced run.
fn per_layer(
    outcome: &mut Outcome,
    runner: &mut Runner<'_>,
    passes: &[Measured],
    setup_times: &SetupTimes,
) -> Result<(), String> {
    let workload = runner.workload;
    let setup = runner.setup;
    let traced: Vec<&Measured> = passes.iter().filter(|m| m.snapshot.is_some()).collect();
    let l1: Vec<&Measured> = traced
        .iter()
        .copied()
        .filter(|m| m.lanes == Lanes::One)
        .collect();
    let l2: Vec<&Measured> = traced
        .iter()
        .copied()
        .filter(|m| m.lanes == Lanes::Two)
        .collect();
    fn snapshot(m: &Measured) -> &MetricsSnapshot {
        m.snapshot.as_ref().expect("traced pass")
    }
    let median_of = |list: &[&Measured], value: &dyn Fn(&Measured) -> f64| -> f64 {
        median(&list.iter().map(|m| value(m)).collect::<Vec<_>>())
    };

    // Counts that must repeat exactly from pass to pass.
    fn exact(
        outcome: &mut Outcome,
        name: &str,
        list: &[&Measured],
        value: &dyn Fn(&Measured) -> f64,
    ) -> f64 {
        let first = list.first().map_or(0.0, |m| value(m));
        let same = list.iter().all(|m| value(m).to_bits() == first.to_bits());
        outcome.check(same, || {
            format!("exact count {name} drifted between passes of one run")
        });
        first
    }

    // core + fba: set-up.
    outcome.push("core.problem_build_s", "s", median(&setup_times.build_s));
    let (lp_s, lp_pivots) = match &setup.oracle {
        Oracle::Registry(AnyProblem::Geobacter(problem)) => {
            let reactions = setup
                .spec
                .problem
                .parsed_param::<usize>("reactions")
                .map_err(|err| err.to_string())?
                .unwrap_or(problem.model().num_reactions());
            let model_seed = setup
                .spec
                .problem
                .parsed_param::<u64>("model_seed")
                .map_err(|err| err.to_string())?;
            // Solved twice: the pivot counts and fluxes of the two solves
            // must agree exactly, and both must reproduce the problem's
            // reference fluxes bit for bit.
            let tracer = Tracer::new(runner.origin);
            let first = layers::replay_geobacter_lps(reactions, model_seed, &tracer)?;
            let second = layers::replay_geobacter_lps(reactions, model_seed, &tracer)?;
            runner.tracers.push(("fba replay".to_string(), tracer));
            outcome.check(first.pivots == second.pivots, || {
                format!(
                    "exact count fba.lp_pivots drifted between two replays: {} then {}",
                    first.pivots, second.pivots
                )
            });
            let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let reference = bits(problem.reference_fluxes());
            outcome.check(
                bits(&first.reference) == reference && bits(&second.reference) == reference,
                || {
                    "replayed LPs do not reproduce the problem's reference fluxes bit for bit"
                        .to_string()
                },
            );
            (0.5 * (first.seconds + second.seconds), first.pivots as f64)
        }
        _ => (0.0, 0.0),
    };
    outcome.push("fba.lp_s", "s", lp_s);
    outcome.push("fba.lp_pivots", "count", lp_pivots);
    outcome.push("fba.us_per_pivot", "us", ratio(lp_s * 1e6, lp_pivots));

    // Oracle, through the probe. Call and candidate counts depend only on
    // the spec's shape, so every pass of the run must repeat them.
    let all: Vec<&Measured> = passes.iter().collect();
    let serial: Vec<&Measured> = passes.iter().filter(|m| m.lanes == Lanes::One).collect();
    let calls_l1 = exact(outcome, "oracle.calls.l1", &serial, &|m| m.calls as f64);
    outcome.push("oracle.calls.l1", "count", calls_l1);
    outcome.push(
        "oracle.calls.l2",
        "count",
        median_of(&l2, &|m| m.calls as f64),
    );
    let candidates = exact(outcome, "oracle.candidates", &all, &|m| m.candidates as f64);
    outcome.push("oracle.candidates", "count", candidates);
    let busy_l1 = median_of(&l1, &|m| m.busy_s);
    let busy_l2 = median_of(&l2, &|m| m.busy_s);
    outcome.push("oracle.busy_s.l1", "s", busy_l1);
    outcome.push("oracle.busy_s.l2", "s", busy_l2);
    outcome.push(
        "oracle.us_per_candidate",
        "us",
        ratio(busy_l1 * 1e6, candidates),
    );
    outcome.push("oracle.prepare_s", "s", median_of(&l1, &|m| m.prepare_s));
    outcome.push(
        "oracle.warm_hit_frac",
        "ratio",
        median_of(&l1, &|m| {
            let warm = counter(snapshot(m), "oracle.ode.warm_starts");
            let cold = counter(snapshot(m), "oracle.ode.cold_starts");
            ratio(warm, warm + cold)
        }),
    );
    let nnz = match &setup.oracle {
        Oracle::Registry(AnyProblem::Geobacter(problem)) => {
            problem.model().stoichiometric_matrix().nnz() as f64
        }
        _ => 0.0,
    };
    outcome.push("oracle.csr_flops", "computed-flop", 2.0 * nnz * candidates);

    // ODE + LU: the final population of the first traced serial pass (a
    // fixed sample, set by the seed), replayed twice; the solver counts
    // must agree exactly.
    let ode = if workload == Workload::LeafOde {
        let population = &l1
            .first()
            .expect("a traced serial pass ran")
            .pass
            .population;
        let designs: Vec<Vec<f64>> = population.iter().map(|i| i.variables.clone()).collect();
        let tracer = Tracer::new(runner.origin);
        let first = layers::replay_ode(&designs, &tracer);
        let second = layers::replay_ode(&designs, &tracer);
        runner.tracers.push(("ode replay".to_string(), tracer));
        outcome.check(first.counts == second.counts, || {
            "ODE solver counts drifted between two replays of one sample".to_string()
        });
        let cold_ms: Vec<f64> = first
            .cold_ms
            .iter()
            .chain(&second.cold_ms)
            .copied()
            .collect();
        let warm_ms: Vec<f64> = first
            .warm_ms
            .iter()
            .chain(&second.warm_ms)
            .copied()
            .collect();
        Some((median(&cold_ms), median(&warm_ms), first.counts))
    } else {
        None
    };
    let (cold_ms, warm_ms, counts) = ode.unwrap_or((0.0, 0.0, OdeCounts::default()));
    let per_solve = |total: u64| ratio(total as f64, counts.cold_solves as f64);
    outcome.push("ode.cold_ms", "ms", cold_ms);
    outcome.push("ode.warm_ms", "ms", warm_ms);
    outcome.push("ode.steps_per_solve", "count", per_solve(counts.steps));
    outcome.push("ode.newton_per_solve", "count", per_solve(counts.newton));
    outcome.push("ode.jac_per_solve", "count", per_solve(counts.jacobians));
    outcome.push("ode.rhs_per_solve", "count", per_solve(counts.rhs));
    outcome.push("ode.failures", "count", counts.failures as f64);

    // Executor, from the program's registry of the 2-lane passes. The
    // islands of an archipelago step on threads of their own, at the same
    // time, and each island's `evaluate_batch` opens its own `eval` span:
    // the phase sums concurrent spans, about `islands` times the wall time
    // spent evaluating. Every island's calling thread and the pool's
    // workers run candidates during that wall time, so the lane time is
    // estimated as (islands + LANES - 1) x eval / islands, which is
    // LANES x eval for a single population.
    let eval_l2 = median_of(&l2, &|m| phase_seconds(snapshot(m), "eval"));
    outcome.push("exec.eval_s.l2", "s", eval_l2);
    let islands = match &setup.spec.optimizer {
        OptimizerSpec::Archipelago(archipelago) => archipelago.islands.max(1) as f64,
        _ => 1.0,
    };
    let lane_time = (islands + LANES as f64 - 1.0) * eval_l2 / islands;
    outcome.push(
        "exec.overhead_frac.l2",
        "ratio",
        ratio(lane_time - busy_l2, lane_time),
    );
    outcome.push(
        "exec.chunks",
        "count",
        median_of(&l2, &|m| counter(snapshot(m), "exec.chunks")),
    );
    outcome.push(
        "exec.steal_count",
        "count",
        median_of(&l2, &|m| counter(snapshot(m), "exec.steal_count")),
    );
    outcome.push(
        "exec.idle_lane_turns",
        "count",
        median_of(&l2, &|m| counter(snapshot(m), "exec.idle_lane_turns")),
    );
    for (name, q) in [
        ("exec.queue_wait_us.p50", 0.5),
        ("exec.queue_wait_us.p99", 0.99),
    ] {
        outcome.push(
            name,
            "us",
            median_of(&l2, &|m| {
                histogram_quantile(snapshot(m).histogram("exec.queue_wait_us"), q)
            }),
        );
    }

    // Driver and optimizer phases, serial passes.
    let step_ms: Vec<f64> = l1
        .iter()
        .flat_map(|m| m.pass.step_ms.iter().copied())
        .collect();
    outcome.push("driver.step_ms.p50", "ms", quantile(&step_ms, 0.5));
    outcome.push("driver.step_ms.p99", "ms", quantile(&step_ms, 0.99));
    for (name, phase) in [
        ("driver.variation_s", "variation"),
        ("driver.selection_s", "selection"),
        ("driver.migration_s", "migration"),
    ] {
        outcome.push(
            name,
            "s",
            median_of(&l1, &|m| phase_seconds(snapshot(m), phase)),
        );
    }

    // Checkpoint store, serial passes. The files a pass leaves depend on
    // its seed; the first round's are reported, and every pass of a round
    // must leave the same ones.
    let saves = exact(outcome, "store.saves", &all, &|m| {
        m.pass.save_ms.len() as f64
    });
    outcome.push("store.saves", "count", saves);
    let save_ms: Vec<f64> = l1
        .iter()
        .flat_map(|m| m.pass.save_ms.iter().copied())
        .collect();
    outcome.push("store.save_ms.p50", "ms", median(&save_ms));
    outcome.push("store.save_ms.max", "ms", max(&save_ms));
    let first_round: Vec<&Measured> = passes.iter().filter(|m| m.round == 0).collect();
    let bytes = exact(outcome, "store.bytes_per_save", &first_round, &|m| {
        m.pass.checkpoint_bytes
    });
    outcome.push("store.bytes_per_save", "bytes", bytes);

    // Span self times of the serial passes, and the cost of tracing.
    for (name, span) in [
        ("self_s.search.l1", "search.l1"),
        ("self_s.driver.l1", "driver.step"),
        ("self_s.oracle.l1", "oracle.evaluate_batch"),
        ("self_s.store.l1", "store.save"),
    ] {
        outcome.push(
            name,
            "s",
            median_of(&l1, &|m| {
                m.self_s
                    .as_ref()
                    .and_then(|s| s.get(span))
                    .copied()
                    .unwrap_or(0.0)
            }),
        );
    }
    // Traced over untraced serial search time of the same round.
    let ratios: Vec<f64> = l1
        .iter()
        .filter_map(|traced| {
            passes
                .iter()
                .find(|m| m.round == traced.round && m.lanes == Lanes::One && m.snapshot.is_none())
                .map(|untraced| traced.pass.seconds / untraced.pass.seconds)
        })
        .collect();
    outcome.push("trace.overhead_frac", "ratio", median(&ratios) - 1.0);
    Ok(())
}

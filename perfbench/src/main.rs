//! `perfbench` — the repository benchmark: the paper's three oracles
//! searched end to end at 1 and 2 lanes, through the public calls
//! `pathway run` makes.
//!
//! ```text
//! perfbench --workload <leaf-analytic|geobacter-608|leaf-ode|all>
//!           [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it are
//! for people: the environment block, the checks and a metric table. The
//! exit code is non-zero when any check failed. See `README.md` in this
//! directory for the workloads, the metrics and the baseline.

mod bench;
mod layers;
mod probe;
mod search;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use pathway_core::jsonlite::JsonValue;

use crate::bench::{Metric, Outcome};
use crate::workload::Workload;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
/// Seed held out of all tuning: re-check any claimed gain on it.
const HELD_OUT_SEED: u64 = 7919;
/// Seconds a run measures when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 55.0;
/// Where runs put checkpoints and traces, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n\
         defaults: --seed {DEFAULT_SEED} (held-out seed for re-checking claims: {HELD_OUT_SEED}), \
         --seconds {DEFAULT_SECONDS}, --trace 0",
        Workload::ALL.map(Workload::name).join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut workload_given = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload_given = true;
                parsed.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(
                        Workload::parse(&name)
                            .ok_or_else(|| format!("unknown workload '{name}'"))?,
                    ),
                };
            }
            "--seed" => {
                let text = value()?;
                parsed.seed = text
                    .parse()
                    .map_err(|_| format!("--seed needs a whole number, got '{text}'"))?;
            }
            "--seconds" => {
                let text = value()?;
                parsed.seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds needs a positive number, got '{text}'"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got '{other}'")),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !workload_given {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}

/// The commit the working directory is checked out at, read from `.git`
/// without leaving it; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(Path::new(".git").join(path)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|rev| rev.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment block every run prints and every trace carries.
fn environment(workload: Workload, seed: u64, spec_hash: Option<u64>) -> Vec<(String, String)> {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let mut env = vec![
        ("cores".to_string(), cores.to_string()),
        ("lanes".to_string(), "1,2".to_string()),
        (
            "build_profile".to_string(),
            format!("{} (lto = thin)", env!("PERFBENCH_PROFILE")),
        ),
        (
            "rustc".to_string(),
            env!("PERFBENCH_RUSTC_VERSION").to_string(),
        ),
        ("git_rev".to_string(), git_revision()),
        ("workload".to_string(), workload.name().to_string()),
        ("seed".to_string(), seed.to_string()),
    ];
    if let Some(hash) = spec_hash {
        env.push(("spec_hash".to_string(), format!("{hash:#018x}")));
    }
    env
}

fn metrics_json(metrics: &[Metric]) -> JsonValue {
    JsonValue::Object(
        metrics
            .iter()
            .map(|metric| {
                (
                    metric.name.clone(),
                    JsonValue::object([
                        ("value", JsonValue::Number(metric.value)),
                        ("unit", JsonValue::string(metric.unit.as_str())),
                    ]),
                )
            })
            .collect(),
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: JsonValue) -> String {
    JsonValue::object([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Int(attempted as i64)),
        ("failed", JsonValue::Int(failed as i64)),
        ("metrics", metrics),
    ])
    .to_compact()
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    println!(
        "perfbench: workload {}, seed {}, {} s, trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let round_zero = workload.spec_text(bench::search_seed(args.seed, 0));
    let spec_hash = pathway_moo::engine::RunSpec::from_text(&round_zero)
        .map(|spec| spec.content_hash())
        .ok();
    let env = environment(workload, args.seed, spec_hash);
    let line: Vec<String> = env.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("env: {}", line.join("  "));
    let outcome = match bench::run(
        workload,
        args.seed,
        args.seconds,
        args.trace,
        Path::new(OUT_DIR),
        &env,
    ) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    report(&outcome)
}

/// Prints the checks, the metric table and the result line.
fn report(outcome: &Outcome) -> ExitCode {
    for note in &outcome.notes {
        println!("{note}");
    }
    for error in &outcome.errors {
        println!("CHECK FAILED: {error}");
    }
    if outcome.errors.is_empty() {
        println!(
            "checks: l1 and l2 fronts bit-identical on every pass, checkpoints round-trip, \
             exact counts repeat"
        );
    }
    println!("{:<28} {:>22}  unit", "metric", "value");
    for metric in &outcome.metrics {
        println!(
            "{:<28} {:>22.9}  {}",
            metric.name, metric.value, metric.unit
        );
    }
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    let correct = outcome.errors.is_empty() && finite;
    if !finite {
        println!("CHECK FAILED: a metric is not a finite number");
    }
    let metrics: Vec<Metric> = outcome
        .metrics
        .iter()
        .map(|m| Metric {
            name: m.name.clone(),
            unit: m.unit.clone(),
            value: if m.value.is_finite() { m.value } else { 0.0 },
        })
        .collect();
    println!(
        "{}",
        result_line(
            correct,
            outcome.attempted,
            outcome.failed,
            metrics_json(&metrics)
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in its own process so each reports its own
/// peak RSS, then prints one table and one result line over all of them.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("error: cannot locate the benchmark executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut table: Vec<Metric> = Vec::new();
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(output) => output,
            Err(err) => {
                eprintln!("error: cannot run {}: {err}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let result = stdout
            .lines()
            .last()
            .and_then(|line| JsonValue::parse(line).ok());
        let Some(result) = result else {
            eprintln!("error: {} printed no result", workload.name());
            return ExitCode::FAILURE;
        };
        correct &= output.status.success()
            && result.get("correct").and_then(JsonValue::as_bool) == Some(true);
        attempted += result
            .get("attempted")
            .and_then(JsonValue::as_i64)
            .unwrap_or(0) as u64;
        failed += result
            .get("failed")
            .and_then(JsonValue::as_i64)
            .unwrap_or(0) as u64;
        if let Some(JsonValue::Object(metrics)) = result.get("metrics") {
            for (name, metric) in metrics {
                let value = metric
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0);
                let unit = metric.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                table.push(Metric {
                    name: format!("{}/{name}", workload.name()),
                    unit: unit.to_string(),
                    value,
                });
            }
        }
    }
    println!("\nall workloads, seed {}:", args.seed);
    println!("{:<44} {:>22}  unit", "workload/metric", "value");
    for metric in &table {
        println!(
            "{:<44} {:>22.9}  {}",
            metric.name, metric.value, metric.unit
        );
    }
    println!(
        "{}",
        result_line(correct, attempted, failed, metrics_json(&table))
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

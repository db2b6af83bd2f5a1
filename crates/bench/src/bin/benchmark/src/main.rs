//! `benchmark`: end-to-end and per-layer performance of inf2vec's three
//! hot paths — batch SGNS training, the durable streaming pipeline, and
//! network serving — with correctness gates on every run.
//!
//! ```text
//! benchmark [--seed S] [--runs N] [--seconds T] [--trace] [--out DIR] [--smoke]
//! benchmark --workload W [--seed S] [--seconds T] [--trace 0|1] [--out DIR] [--smoke]
//! ```
//!
//! The first form runs every workload `--runs` times, each run in a
//! fresh child process (so peak RSS is per workload), prints every
//! end-to-end metric with its median, quartiles and sample count, and
//! writes `DIR/results.json`; `--trace` adds one traced run per workload
//! and writes `DIR/trace.json`. The second form is one run of one
//! workload: its last line on stdout is a JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics, or per-layer
//! metrics with `--trace 1`). Either form exits non-zero when a
//! correctness gate fails. See README.md for workloads and metrics.

mod inputs;
mod report;
mod serve;
mod stats;
mod stream;
mod suite;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::RunResult;
use trace::Tracer;

/// The workloads, in run order.
pub const WORKLOADS: [&str; 4] = ["train", "stream-durable", "stream-backfill", "serve"];

/// Seconds one run measures by default (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: f64 = 30.0;

/// Set-ups per run; the run reports their median.
const SETUP_REPEATS: usize = 5;

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub traced: bool,
    /// Shrunk inputs for a quick functional pass.
    pub smoke: bool,
    /// Where logs, journals and result files go.
    pub out: PathBuf,
}

/// Runs `workload` in this process.
pub fn run_workload(workload: &str, opts: &RunOpts) -> Option<RunResult> {
    Some(match workload {
        "train" => train::run(opts),
        "stream-durable" => stream::run(stream::Kind::Durable, opts),
        "stream-backfill" => stream::run(stream::Kind::Backfill, opts),
        "serve" => serve::run(opts),
        _ => return None,
    })
}

/// Runs `setup` [`SETUP_REPEATS`] times; returns the median wall time
/// and the last set-up's product (earlier ones are dropped).
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

/// The `trace.json` entry of one traced workload: the reconciliation of
/// the root span `root` (plus `extra` members), per-layer totals, and
/// every span.
pub fn trace_entry(t: &Tracer, root: &str, overhead_s: f64, extra: &str) -> String {
    let rec = t
        .reconcile(root)
        .expect("the traced run records its root span");
    let share = if rec.wall_s > 0.0 {
        rec.unattributed_s / rec.wall_s
    } else {
        0.0
    };
    let mut layers = String::from("{");
    for (i, (name, l)) in t.layers().iter().enumerate() {
        if i > 0 {
            layers.push(',');
        }
        layers.push_str(&format!(
            "\"{name}\":{{\"calls\":{},\"wall_s\":{},\"self_s\":{}{}}}",
            l.calls,
            l.wall_s,
            l.self_s,
            if l.excluded { ",\"excluded\":true" } else { "" }
        ));
    }
    layers.push('}');
    format!(
        "{{\"reconciliation\":{{\"root\":\"{root}\",\"wall_s\":{},\"layers_self_s\":{},\
         \"unattributed_s\":{},\"unattributed_share\":{share},\"tracing_overhead_s\":{overhead_s}{extra}}},\
         \"layers\":{layers},\"spans\":{}}}",
        rec.wall_s,
        rec.layers_s,
        rec.unattributed_s,
        t.spans_json()
    )
}

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    runs: Option<usize>,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        runs: None,
        trace: false,
        out: PathBuf::from("benchmark-out"),
        smoke: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects a non-negative integer")?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds expects a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--runs" => {
                let n: usize = value("--runs")?
                    .parse()
                    .map_err(|_| "--runs expects a positive integer")?;
                if n == 0 {
                    return Err("--runs must be positive".into());
                }
                args.runs = Some(n);
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--smoke" => args.smoke = true,
            "--trace" => {
                // `--trace 0|1` (one run) or a bare `--trace` (suite).
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "-h" | "--help" => {
                return Err(
                    "usage: benchmark [--workload W] [--seed S] [--runs N] [--seconds T] \
                            [--trace [0|1]] [--out DIR] [--smoke]"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let default_seconds = if args.smoke { 1.0 } else { RUN_SECONDS };
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(default_seconds),
        traced: args.trace,
        smoke: args.smoke,
        out: args.out,
    };
    match args.workload {
        Some(w) => one_run(&w, &opts),
        None => suite::run(&opts, args.runs.unwrap_or(if args.smoke { 1 } else { 5 })),
    }
}

/// One run of one workload: gate failures on stderr, the per-run files,
/// and the summary line last on stdout (what the suite reads).
fn one_run(workload: &str, opts: &RunOpts) -> ExitCode {
    let Some(result) = run_workload(workload, opts) else {
        eprintln!("benchmark: unknown workload {workload:?} (one of {WORKLOADS:?})");
        return ExitCode::from(2);
    };
    for p in &result.problems {
        eprintln!("benchmark: {workload}: GATE FAILED: {p}");
    }
    if let Err(e) = suite::write_run_files(workload, opts, &result) {
        eprintln!("benchmark: {e}");
    }
    println!("{}", result.summary_json(opts.traced));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

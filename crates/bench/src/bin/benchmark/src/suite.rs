//! Every workload, several runs each, one child process per run:
//! the summary table, `results.json` and `trace.json`.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use inf2vec_util::json::{json_string, Json};

use crate::report::{json_num, RunResult, END_TO_END};
use crate::stats::{median, quartiles};
use crate::{RunOpts, WORKLOADS};

/// One run as its summary line reports it.
#[derive(Debug, Clone)]
pub struct Summary {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in catalog order.
    metrics: Vec<(String, f64, String)>,
}

impl Summary {
    /// Parses a summary line (see [`RunResult::summary_json`]).
    pub fn parse(line: &str) -> Option<Self> {
        let doc = Json::parse(line).ok()?;
        let Json::Obj(members) = doc.get("metrics")? else {
            return None;
        };
        let metrics = members
            .iter()
            .map(|(name, m)| {
                Some((
                    name.clone(),
                    m.get("value")?.as_f64()?,
                    m.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Self {
            correct: doc.get("correct")?.as_bool()?,
            attempted: doc.get("attempted")?.as_u64()?,
            failed: doc.get("failed")?.as_u64()?,
            metrics,
        })
    }
}

/// Everything collected for one workload.
#[derive(Debug, Default)]
pub struct WorkloadRuns {
    name: String,
    /// End-to-end runs.
    runs: Vec<Summary>,
    /// Each end-to-end run's `run.json`.
    details: Vec<String>,
    /// The traced run, when requested.
    traced: Option<Summary>,
    /// The traced run's `trace.json` entry.
    trace: Option<String>,
    /// Why a run produced nothing usable.
    errors: Vec<String>,
}

impl WorkloadRuns {
    fn ok(&self) -> bool {
        self.errors.is_empty()
            && self.runs.iter().chain(&self.traced).all(|s| s.correct)
            && !self.runs.is_empty()
    }

    /// Values of end-to-end metric `name` across runs.
    fn values(&self, name: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|s| s.metrics.iter().find(|m| m.0 == name).map(|m| m.1))
            .collect()
    }
}

/// The per-run files: `DIR/<workload>/run.json`, plus `trace.json` for
/// a traced run.
pub fn write_run_files(workload: &str, opts: &RunOpts, r: &RunResult) -> Result<(), String> {
    let dir = opts.out.join(workload);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut problems = String::from("[");
    for (i, p) in r.problems.iter().enumerate() {
        if i > 0 {
            problems.push(',');
        }
        problems.push_str(&json_string(p));
    }
    problems.push(']');
    let run = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"traced\":{},\"problems\":{problems},\
         \"summary\":{},\"detail\":{{{}}}}}\n",
        opts.seed,
        opts.seconds,
        opts.traced,
        r.summary_json(opts.traced),
        r.detail
    );
    write(&dir.join("run.json"), &run)?;
    if let Some(trace) = &r.trace {
        write(&dir.join("trace.json"), trace)?;
    }
    Ok(())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One run in a fresh child process (this executable with
/// `--workload`); waits for it to exit.
fn child_run(workload: &str, opts: &RunOpts) -> Result<(Summary, String, Option<String>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    // A child that dies before writing its own files must not leave an
    // earlier run's files to be read in their place.
    let dir = opts.out.join(workload);
    for name in ["run.json", "trace.json"] {
        std::fs::remove_file(dir.join(name)).ok();
    }
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout
        .lines()
        .last()
        .and_then(Summary::parse)
        .ok_or_else(|| format!("{workload} run ({}) printed no result", out.status))?;
    let detail = std::fs::read_to_string(dir.join("run.json")).unwrap_or_else(|_| "null".into());
    let trace = if opts.traced {
        std::fs::read_to_string(dir.join("trace.json")).ok()
    } else {
        None
    };
    Ok((summary, detail.trim_end().to_string(), trace))
}

/// The suite: every workload `runs` times (plus one traced run each
/// with `--trace`), the table on stdout, `results.json` and
/// `trace.json` under `--out`.
pub fn run(opts: &RunOpts, runs: usize) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("benchmark: cannot create {}: {e}", opts.out.display());
        return ExitCode::from(2);
    }
    let mut all = Vec::new();
    for workload in WORKLOADS {
        let mut w = WorkloadRuns {
            name: workload.to_string(),
            ..WorkloadRuns::default()
        };
        let plain = RunOpts {
            traced: false,
            ..opts.clone()
        };
        for i in 0..runs {
            eprintln!(
                "benchmark: {workload} run {}/{runs} (seed {})",
                i + 1,
                opts.seed
            );
            match child_run(workload, &plain) {
                Ok((s, detail, _)) => {
                    w.runs.push(s);
                    w.details.push(detail);
                }
                Err(e) => w.errors.push(e),
            }
        }
        if opts.traced {
            eprintln!("benchmark: {workload} traced run");
            match child_run(workload, opts) {
                Ok((s, _, trace)) => {
                    w.traced = Some(s);
                    w.trace = trace;
                }
                Err(e) => w.errors.push(e),
            }
        }
        all.push(w);
    }
    print!("{}", table(&all));
    let results = results_json(&meta_json(opts, runs), &all);
    let mut ok = all.iter().all(WorkloadRuns::ok);
    if let Err(e) = write(&opts.out.join("results.json"), &results) {
        eprintln!("benchmark: {e}");
        ok = false;
    }
    if opts.traced {
        if let Err(e) = write(&opts.out.join("trace.json"), &trace_json(&all)) {
            eprintln!("benchmark: {e}");
            ok = false;
        }
    }
    for w in &all {
        for e in &w.errors {
            eprintln!("benchmark: {}: {e}", w.name);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: FAILED (a run failed or a correctness gate did not hold)");
        ExitCode::from(1)
    }
}

/// Every end-to-end metric by name and unit with median, quartiles and
/// sample count, plus ops and failed ops, per workload.
fn table(all: &[WorkloadRuns]) -> String {
    let mut s = String::new();
    for w in all {
        let ops: u64 = w.runs.iter().map(|r| r.attempted).sum();
        let failed: u64 = w.runs.iter().map(|r| r.failed).sum();
        let _ = writeln!(
            s,
            "{}  (runs {}, ops {ops}, ops_failed {failed}, correct {})",
            w.name,
            w.runs.len(),
            w.ok()
        );
        for (name, unit) in END_TO_END {
            let v = w.values(name);
            let (q1, q3) = quartiles(&v);
            let _ = writeln!(
                s,
                "  {name:<18} {:>14.4} {unit:<5} q1 {q1:.4}  q3 {q3:.4}  n {}",
                median(&v),
                v.len()
            );
        }
    }
    s
}

fn results_json(meta: &str, all: &[WorkloadRuns]) -> String {
    let mut s = format!("{{\"meta\":{meta},\"workloads\":{{");
    for (i, w) in all.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let ops: u64 = w.runs.iter().map(|r| r.attempted).sum();
        let failed: u64 = w.runs.iter().map(|r| r.failed).sum();
        let _ = write!(
            s,
            "\"{}\":{{\"correct\":{},\"ops\":{ops},\"ops_failed\":{failed},\"metrics\":{{",
            w.name,
            w.ok()
        );
        for (j, (name, unit)) in END_TO_END.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let v = w.values(name);
            let (q1, q3) = quartiles(&v);
            let values: Vec<String> = v.iter().map(|x| json_num(*x)).collect();
            let _ = write!(
                s,
                "\"{name}\":{{\"unit\":\"{unit}\",\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\
                 \"values\":[{}]}}",
                json_num(median(&v)),
                json_num(q1),
                json_num(q3),
                v.len(),
                values.join(",")
            );
        }
        s.push_str("},\"per_layer\":{");
        if let Some(t) = &w.traced {
            for (j, (name, value, unit)) in t.metrics.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "\"{name}\":{{\"unit\":\"{unit}\",\"value\":{}}}",
                    json_num(*value)
                );
            }
        }
        let _ = write!(s, "}},\"runs\":[{}]", w.details.join(","));
        let errors: Vec<String> = w.errors.iter().map(|e| json_string(e)).collect();
        let _ = write!(s, ",\"errors\":[{}]}}", errors.join(","));
    }
    s.push_str("}}\n");
    s
}

fn trace_json(all: &[WorkloadRuns]) -> String {
    let entries: Vec<String> = all
        .iter()
        .filter_map(|w| w.trace.as_ref().map(|t| format!("\"{}\":{t}", w.name)))
        .collect();
    format!("{{{}}}\n", entries.join(","))
}

/// Host and build facts two commits' results must share to be compared.
fn meta_json(opts: &RunOpts, runs: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let seconds: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("\"{w}\":{}", opts.seconds))
        .collect();
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{},\"rustc\":{},\"git_head\":{},\"seed\":{},\"runs\":{runs},\
         \"smoke\":{},\"run_seconds\":{{{}}}}}",
        json_string(&cpu),
        json_string(&command_line("rustc", &["-V"])),
        json_string(&command_line("git", &["rev-parse", "HEAD"])),
        opts.seed,
        opts.smoke,
        seconds.join(",")
    )
}

/// First line of a command's stdout, or `unknown` (waits for it to exit).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric BENCHMARK.json names must reach `results.json` from
    /// a `--smoke` pass: end-to-end metrics from every workload, and
    /// every per-layer metric measured by at least one workload.
    #[test]
    fn smoke_results_name_every_benchmark_metric() {
        let spec = Json::parse(include_str!("../../../../../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let workloads: Vec<String> = names("workloads");
        assert_eq!(workloads, WORKLOADS);
        // The spec and the code's catalog name the same metrics, units
        // and order.
        let with_units = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let catalog = |c: Vec<(String, &str)>| -> Vec<(String, String)> {
            c.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let e2e = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        assert_eq!(with_units("end_to_end"), catalog(e2e));
        assert_eq!(with_units("per_layer"), catalog(crate::report::per_layer()));

        let dir =
            std::env::temp_dir().join(format!("inf2vec-benchmark-smoke-{}", std::process::id()));
        let mut all = Vec::new();
        let mut measured: std::collections::BTreeSet<String> = Default::default();
        for workload in WORKLOADS {
            let mut w = WorkloadRuns {
                name: workload.to_string(),
                ..WorkloadRuns::default()
            };
            for traced in [false, true] {
                let opts = RunOpts {
                    seed: 7,
                    seconds: 1.0,
                    traced,
                    smoke: true,
                    out: dir.clone(),
                };
                let r = crate::run_workload(workload, &opts).unwrap();
                assert!(
                    r.problems.is_empty(),
                    "{workload} traced={traced}: {:?}",
                    r.problems
                );
                measured.extend(r.metrics.names().map(str::to_string));
                let s = Summary::parse(&r.summary_json(traced)).unwrap();
                if traced {
                    w.traced = Some(s);
                } else {
                    w.runs.push(s);
                }
            }
            all.push(w);
        }
        std::fs::remove_dir_all(&dir).ok();
        let results = Json::parse(&results_json("{}", &all)).unwrap();
        let per_workload = results.get("workloads").unwrap();
        for workload in WORKLOADS {
            let w = per_workload.get(workload).unwrap();
            assert_eq!(
                w.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}"
            );
            for name in names("end_to_end") {
                let m = w.get("metrics").and_then(|m| m.get(&name));
                let median = m.and_then(|m| m.get("median")).and_then(Json::as_f64);
                assert!(
                    median.is_some_and(|v| v > 0.0),
                    "{workload}: {name} = {median:?}"
                );
            }
            for name in names("per_layer") {
                assert!(
                    w.get("per_layer").and_then(|m| m.get(&name)).is_some(),
                    "{workload}: per-layer {name} missing"
                );
            }
        }
        for name in names("per_layer") {
            assert!(measured.contains(&name), "no workload measures {name}");
        }
    }
}

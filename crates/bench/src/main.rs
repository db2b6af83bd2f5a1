//! `repro` — regenerates every table and figure of the Inf2vec paper.
//!
//! ```text
//! repro [OPTIONS] <COMMAND>...
//!
//! Commands:
//!   table1 table2 table3 table4 table5 table6
//!   fig1 fig2 fig3 fig6 fig7 fig8 fig9
//!   ablate-alpha ablate-bias ablate-restart ablate-regen
//!   ingest         load real data via --edges/--actions with an
//!                  --on-error policy, writing --ingest-report JSON
//!   serve          run the scoring-service chaos scenario and
//!                  reconcile outcome tallies against the metrics,
//!                  writing --serve-report JSON; with --listen ADDR,
//!                  run the long-lived HTTP scoring server instead
//!   soak           run the crash/recover pipeline soak with fault
//!                  injection and reconcile every record, writing
//!                  --soak-report JSON; --wall-clock S cycles against
//!                  real time instead of a fixed cycle count
//!   restore        rebuild the full logical action stream from the
//!                  segmented archive plus the live log tail
//!   verify-archive re-checksum every archive segment and check the
//!                  chain against the live log, writing
//!                  --archive-report JSON
//!   trace          reconstruct causal record → episode → publish
//!                  chains offline from a --trace-jsonl event file
//!   all            every table and figure in order
//!   ablate         every ablation
//!
//! Options:
//!   --quick        small datasets, 1 run, short training (smoke test)
//!   --runs N       runs per stochastic method (default 3; paper uses 10)
//!   --seed S       master seed (default 42)
//!   --mc-runs N    Monte-Carlo simulations per diffusion instance
//!                  (default 1000; paper uses 5000)
//!   --threads N    Hogwild threads (default 1 = deterministic)
//!   --out DIR      artifact directory (default ./results)
//!   --quiet        suppress tables/progress (warnings still print)
//!   --telemetry-jsonl FILE
//!                  write training + harness events as JSON lines
//! ```
//!
//! Absolute numbers differ from the paper (synthetic data, different
//! hardware); the method ordering, ratios, and trends are the reproduction
//! target. EXPERIMENTS.md records a paper-vs-measured comparison.

mod ablate;
mod common;
mod figures;
mod ingest;
mod oracle;
mod restore;
mod serve;
mod soak;
mod tables;
mod trace;

use std::sync::Arc;

use common::Opts;
use inf2vec_obs::{JsonlSink, Telemetry};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts::default();
    let mut commands: Vec<String> = Vec::new();
    let mut telemetry_jsonl: Option<std::path::PathBuf> = None;

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let take_value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| die(&format!("{arg} needs a value")))
                .clone()
        };
        match arg {
            "--quick" => {
                opts.quick = true;
                opts.runs = 1;
                opts.mc_runs = 200;
            }
            "--runs" => {
                opts.runs = take_value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| die("--runs expects an integer"));
            }
            "--seed" => {
                opts.seed = take_value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| die("--seed expects an integer"));
            }
            "--mc-runs" => {
                opts.mc_runs = take_value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| die("--mc-runs expects an integer"));
            }
            "--threads" => {
                opts.threads = take_value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| die("--threads expects an integer"));
            }
            "--out" => {
                opts.out = take_value(&mut i).into();
            }
            "--quiet" => {
                opts.quiet = true;
            }
            "--telemetry-jsonl" => {
                telemetry_jsonl = Some(take_value(&mut i).into());
            }
            "--edges" => {
                opts.edges = Some(take_value(&mut i).into());
            }
            "--actions" => {
                opts.actions = Some(take_value(&mut i).into());
            }
            "--on-error" => {
                opts.on_error = take_value(&mut i)
                    .parse()
                    .unwrap_or_else(|e| die(&format!("--on-error: {e}")));
            }
            "--max-errors" => {
                opts.max_errors = Some(
                    take_value(&mut i)
                        .parse()
                        .unwrap_or_else(|_| die("--max-errors expects an integer")),
                );
            }
            "--ingest-report" => {
                opts.ingest_report = Some(take_value(&mut i).into());
            }
            "--serve-workers" => {
                opts.serve_workers = take_value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| die("--serve-workers expects an integer"));
            }
            "--serve-policy" => {
                opts.serve_policy = take_value(&mut i)
                    .parse()
                    .unwrap_or_else(|e| die(&format!("--serve-policy: {e}")));
            }
            "--serve-report" => {
                opts.serve_report = Some(take_value(&mut i).into());
            }
            "--soak-cycles" => {
                opts.soak_cycles = Some(
                    take_value(&mut i)
                        .parse()
                        .unwrap_or_else(|_| die("--soak-cycles expects an integer")),
                );
            }
            "--soak-records" => {
                opts.soak_records = Some(
                    take_value(&mut i)
                        .parse()
                        .unwrap_or_else(|_| die("--soak-records expects an integer")),
                );
            }
            "--long" => {
                opts.soak_long = true;
            }
            "--soak-budget-bytes" => {
                opts.soak_budget_bytes = Some(
                    take_value(&mut i)
                        .parse()
                        .unwrap_or_else(|_| die("--soak-budget-bytes expects an integer")),
                );
            }
            "--wall-clock" => {
                opts.wall_clock = Some(
                    take_value(&mut i)
                        .parse()
                        .unwrap_or_else(|_| die("--wall-clock expects seconds")),
                );
            }
            "--archive-log" => {
                opts.archive_log = Some(take_value(&mut i).into());
            }
            "--restore-out" => {
                opts.restore_out = Some(take_value(&mut i).into());
            }
            "--archive-report" => {
                opts.archive_report = Some(take_value(&mut i).into());
            }
            "--soak-report" => {
                opts.soak_report = Some(take_value(&mut i).into());
            }
            "--introspect" => {
                opts.introspect = Some(take_value(&mut i));
            }
            "--listen" => {
                opts.listen = Some(take_value(&mut i));
            }
            "--load-seconds" => {
                opts.load_seconds = Some(
                    take_value(&mut i)
                        .parse()
                        .unwrap_or_else(|_| die("--load-seconds expects a number")),
                );
            }
            "--trace-jsonl" => {
                opts.trace_jsonl = Some(take_value(&mut i).into());
            }
            "--trace-record" => {
                opts.trace_record = Some(
                    take_value(&mut i)
                        .parse()
                        .unwrap_or_else(|_| die("--trace-record expects an integer")),
                );
            }
            "--epochs" => {
                opts.epochs_override = Some(
                    take_value(&mut i)
                        .parse()
                        .unwrap_or_else(|_| die("--epochs expects an integer")),
                );
            }
            "--lr" => {
                opts.lr_override = Some(
                    take_value(&mut i)
                        .parse()
                        .unwrap_or_else(|_| die("--lr expects a float")),
                );
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            cmd if !cmd.starts_with('-') => commands.push(cmd.to_string()),
            other => die(&format!("unknown option {other}")),
        }
        i += 1;
    }

    if commands.is_empty() {
        print_help();
        die("no command given");
    }
    if opts.runs == 0 || opts.mc_runs == 0 || opts.threads == 0 {
        die("--runs, --mc-runs, and --threads must be positive");
    }
    if let Some(path) = &telemetry_jsonl {
        let sink = JsonlSink::create(path)
            .unwrap_or_else(|e| die(&format!("cannot open {}: {e}", path.display())));
        opts.telemetry = Telemetry::new(Arc::new(sink));
    }

    let started = std::time::Instant::now();
    for cmd in &commands {
        run_command(cmd, &opts);
    }
    opts.note(&format!("[repro] done in {:.1}s", started.elapsed().as_secs_f64()));
    if let Err(e) = opts.telemetry.flush() {
        eprintln!("warning: telemetry flush failed: {e}");
    }
}

fn run_command(cmd: &str, opts: &Opts) {
    match cmd {
        "table1" => tables::table1(opts),
        "table2" => tables::table2(opts),
        "table3" => tables::table3(opts),
        "table4" => tables::table4(opts),
        "table5" => tables::table5(opts),
        "table6" => tables::table6(opts),
        "fig1" => figures::fig12(opts, false),
        "fig2" => figures::fig12(opts, true),
        "fig3" => figures::fig3(opts),
        "fig6" => figures::fig6(opts),
        "fig7" => figures::fig78(opts, false),
        "fig8" => figures::fig78(opts, true),
        "fig9" => figures::fig9(opts),
        "oracle" => oracle::oracle(opts),
        "ingest" => ingest::ingest(opts),
        "serve" => serve::serve(opts),
        "soak" => soak::soak(opts),
        "restore" => restore::restore(opts),
        "verify-archive" => restore::verify_archive(opts),
        "trace" => trace::trace(opts),
        "ablate-alpha" => ablate::ablate_alpha(opts),
        "ablate-bias" => ablate::ablate_bias(opts),
        "ablate-restart" => ablate::ablate_restart(opts),
        "ablate-regen" => ablate::ablate_regen(opts),
        "ablate" => {
            ablate::ablate_alpha(opts);
            ablate::ablate_bias(opts);
            ablate::ablate_restart(opts);
            ablate::ablate_regen(opts);
        }
        "all" => {
            for c in [
                "table1", "fig1", "fig2", "fig3", "table2", "table3", "table4", "table5",
                "fig6", "fig7", "fig8", "fig9", "table6",
            ] {
                run_command(c, opts);
            }
        }
        other => die(&format!("unknown command {other} (try --help)")),
    }
}

fn print_help() {
    println!(
        "repro — regenerate the Inf2vec paper's tables and figures\n\n\
         usage: repro [--quick] [--runs N] [--seed S] [--mc-runs N] [--threads N] [--epochs N] [--lr F] [--out DIR] [--quiet] [--telemetry-jsonl FILE] <command>...\n\n\
         commands: table1 table2 table3 table4 table5 table6\n\
                   fig1 fig2 fig3 fig6 fig7 fig8 fig9\n\
                   ablate-alpha ablate-bias ablate-restart ablate-regen ablate\n\
                   oracle ingest serve soak restore verify-archive all\n\n\
         ingest:   repro ingest --edges FILE --actions FILE\n\
                   [--on-error strict|skip|repair] [--max-errors N]\n\
                   [--ingest-report FILE]  load a real dataset through the\n\
                   policy-driven loader and write the quarantine report\n\n\
         serve:    repro serve [--serve-workers N]\n\
                   [--serve-policy reject|shed|block] [--serve-report FILE]\n\
                   hammer the resilient scoring service with scripted\n\
                   snapshot faults and reconcile every outcome tally;\n\
                   with --listen ADDR (e.g. 127.0.0.1:7878), run the\n\
                   HTTP/1.1 scoring front-end instead — POST /v1/rank\n\
                   /v1/score /v1/score_active, GET /metrics /healthz\n\
                   /debug/flight — until killed (or for --load-seconds S)\n\n\
         soak:     repro soak [--long] [--soak-cycles N] [--soak-records N]\n\
                   [--soak-budget-bytes N] [--wall-clock S]\n\
                   [--soak-report FILE]\n\
                   crash and recover the continuous-learning pipeline\n\
                   under injected faults (stage panics, torn journals,\n\
                   disk-write failures, a poisoned snapshot), compacting\n\
                   the log under the byte budget, sealing prefixes into\n\
                   the segmented archive with retention, and growing the\n\
                   model for mid-stream users, then reconcile every\n\
                   record and prove replay bit-identity; --long runs the\n\
                   hours-equivalent preset, --wall-clock S keeps cycling\n\
                   against real time\n\n\
         restore:  repro restore [--archive-log FILE] [--restore-out FILE]\n\
                   rebuild the full logical action stream (archive\n\
                   segments ++ live log payload) from a soak workdir's\n\
                   log, verifying every segment checksum on the way\n\n\
         verify-archive: repro verify-archive [--archive-log FILE]\n\
                   [--archive-report FILE]  re-checksum every archive\n\
                   segment, check the manifest chain, and confirm the\n\
                   archive is contiguous with the live log\n\n\
         trace:    repro trace --trace-jsonl FILE [--trace-record SEQ]\n\
                   [--seed S]  reconstruct record -> episode -> publish\n\
                   chains offline from a trace-stamped event log; with\n\
                   --trace-record, narrate one record's end-to-end path\n\n\
         introspection: soak and serve accept --introspect ADDR (e.g.\n\
                   127.0.0.1:9600) to expose /metrics, /healthz, and\n\
                   /debug/flight over HTTP for the duration of the run"
    );
}

pub(crate) fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

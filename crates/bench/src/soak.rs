//! The `soak` subcommand: run the fault-injection pipeline soak and
//! reconcile every written record against the pipeline's ledger.
//!
//! ```text
//! repro soak [--long] [--soak-cycles N] [--soak-records N] \
//!     [--soak-budget-bytes N] [--wall-clock S] \
//!     [--soak-report FILE] \
//!     [--telemetry-jsonl FILE] [--introspect ADDR]
//! ```
//!
//! Drives synthetic action-log traffic through repeated crash/recover
//! cycles while a scripted fault plan panics stages, fails and slows
//! publishes, tears journal slots, injects ENOSPC-style faults into
//! journal/compaction/snapshot writes, and poisons one snapshot the
//! quality gate must withhold — all while the live log is compacted
//! under a byte budget, compacted prefixes are sealed into the
//! segmented archive whose retention budgets force real expiries, and
//! mid-stream users grow the model. Exits non-zero when any record
//! escapes the {applied, quarantined, pending} ledger, the obs gauges
//! disagree, an uninterrupted replay is not bit-identical, the disk
//! strays past its budget, the archive overruns its segment budget,
//! expiry loses or double-counts a byte, the restored stream diverges
//! from the ground truth, growth fails, or a poisoned model reaches
//! the serving path — this is the CI gate for the continuous-learning
//! pipeline.
//!
//! `--long` selects the hours-equivalent preset
//! ([`SoakConfig::long`]); `--wall-clock S` keeps cycling against real
//! elapsed time instead of a fixed cycle count.

use inf2vec_obs::{IntrospectServer, Telemetry};
use inf2vec_pipeline::{pipeline_health_policy, run_soak, SoakConfig};

use crate::common::Opts;
use crate::die;

/// Runs the pipeline soak command from the harness options.
pub fn soak(opts: &Opts) {
    // Reconciliation cross-checks the gauges, so the run needs a registry
    // even when no --telemetry-jsonl sink was requested.
    let telemetry = if opts.telemetry.enabled() {
        opts.telemetry.clone()
    } else {
        Telemetry::with_registry()
    };
    // The soak forks this handle (same registry + flight ring, teed
    // recorder), so the endpoint sees the pipeline's live metrics.
    let _introspect = opts.introspect.as_ref().map(|addr| {
        let server =
            IntrospectServer::start(addr, telemetry.clone(), pipeline_health_policy())
                .unwrap_or_else(|e| die(&format!("cannot bind --introspect {addr}: {e}")));
        opts.note(&format!(
            "[soak] introspection at http://{}/ (/metrics /healthz /debug/flight)",
            server.local_addr()
        ));
        server
    });
    let base = if opts.soak_long {
        SoakConfig::long()
    } else {
        SoakConfig::default()
    };
    let mut cfg = SoakConfig {
        seed: opts.seed,
        ..base
    };
    cfg.pipeline.telemetry = telemetry.clone();
    if opts.quick {
        cfg.cycles = 4;
        cfg.records_per_chunk = 80;
    }
    if let Some(cycles) = opts.soak_cycles {
        cfg.cycles = cycles;
    }
    if let Some(records) = opts.soak_records {
        cfg.records_per_chunk = records;
    }
    if let Some(budget) = opts.soak_budget_bytes {
        cfg.log_budget_bytes = budget;
    }
    if let Some(secs) = opts.wall_clock {
        if !secs.is_finite() || secs <= 0.0 {
            die("--wall-clock expects a positive number of seconds");
        }
        cfg.wall_clock = Some(std::time::Duration::from_secs_f64(secs));
    }

    let workdir = opts.out.join("soak");
    let started = std::time::Instant::now();
    let report = run_soak(&cfg, &workdir)
        .unwrap_or_else(|e| die(&format!("soak run failed: {e}")));
    let wall_secs = started.elapsed().as_secs_f64();

    let r = &report.reconciliation;
    opts.say(&format!(
        "[soak] {} cycles, {} good + {} garbage records written ({}{})",
        report.cycles,
        report.written_good,
        report.written_bad,
        if opts.soak_long { "long preset, " } else { "" },
        format_args!("{wall_secs:.1}s wall"),
    ));
    opts.say(&format!(
        "[soak] ledger: {} applied + {} pending = {} seen; {} quarantined",
        r.records_applied, r.records_pending, r.records_seen, r.records_quarantined
    ));
    opts.say(&format!(
        "[soak] restarts tail/train/publish: {}/{}/{}  publishes ok/failed/withheld/skipped: {}/{}/{}/{}  versions installed: {}",
        report.restarts.0,
        report.restarts.1,
        report.restarts.2,
        report.publishes.0,
        report.publishes.1,
        report.publishes.2,
        report.publishes.3,
        report.versions_installed,
    ));
    opts.say(&format!(
        "[soak] disk: {} compactions, live log peaked at {} B under a {} B budget (bounded={})",
        report.compactions,
        report.max_live_log_bytes,
        report.log_budget_bytes,
        report.disk_bounded,
    ));
    opts.say(&format!(
        "[soak] archive: {} seals / {} expiries, {} B reclaimed, {} B dropped, {} segments retained (peak {} under a {}-segment budget, held={})",
        report.segments_sealed,
        report.segments_expired,
        report.bytes_reclaimed,
        report.bytes_dropped,
        report.segments_final,
        report.max_archive_segments,
        report.archive_max_segments,
        report.disk_budget_held,
    ));
    opts.say(&format!(
        "[soak] restore: verify + full-stream rebuild in {:.3}s (restore_identical={} expiry_exact={})",
        report.restore_verify_secs, report.restore_identical, report.expiry_exact,
    ));
    opts.say(&format!(
        "[soak] growth: {}/{} users first seen mid-stream, final model rows {} (growth_ok={})",
        report.users_midstream, report.universe, report.final_rows, report.growth_ok,
    ));
    opts.say(&format!(
        "[soak] quality gate: {} withheld, poisoned model never served (held={})",
        report.publishes.2, report.quality_gate_held,
    ));
    opts.say(&format!(
        "[soak] balanced={} gauges_consistent={} bit_identical={} trace_complete={} checksum={:016x}",
        report.balanced,
        report.gauges_consistent,
        report.bit_identical,
        report.trace_complete,
        r.store_checksum
    ));

    if let Some(path) = &opts.soak_report {
        match std::fs::write(path, report.to_json()) {
            Ok(()) => opts.note(&format!("[soak] report written to {}", path.display())),
            Err(e) => die(&format!("cannot write {}: {e}", path.display())),
        }
    }
    if !report.passed() {
        die("pipeline soak failed to reconcile (see report above)");
    }
}

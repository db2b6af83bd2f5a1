//! The `serve` subcommand: run the scripted chaos scenario against the
//! resilient scoring service and reconcile every outcome tally against
//! the telemetry metrics — or, with `--listen`, the long-lived network
//! front-end.
//!
//! ```text
//! repro serve [--serve-workers N] [--serve-policy reject|shed|block] \
//!     [--serve-report FILE] [--telemetry-jsonl FILE] [--introspect ADDR]
//! repro serve --listen ADDR [--load-seconds S] [--serve-workers N] \
//!     [--serve-policy reject|shed|block]
//! ```
//!
//! Exits non-zero when any tally fails to reconcile, any request hangs
//! without an outcome, or any NaN escapes — this is the CI gate for the
//! serving layer.

use std::sync::Arc;
use std::time::Duration;

use inf2vec_embed::EmbeddingStore;
use inf2vec_obs::{HealthPolicy, IntrospectServer, Rule, Telemetry};
use inf2vec_serve::chaos::{run_chaos, ChaosConfig};
use inf2vec_serve::{
    AdmissionConfig, BatchConfig, Batcher, BreakerConfig, Frontend, FrontendConfig, ScoringService,
    ServeConfig,
};

use crate::common::Opts;
use crate::die;

/// Health rules for the serving plane: sustained shedding degrades, a
/// mostly-shed window fails; any model quarantine is worth flagging.
fn serve_health_policy() -> HealthPolicy {
    HealthPolicy::new()
        .rule(Rule::ratio(
            "shed_ratio",
            "inf2vec_serve_shed_total",
            "inf2vec_serve_requests_total",
            0.10,
            0.50,
        ))
        .rule(Rule::ratio(
            "quarantine_ratio",
            "inf2vec_serve_model_quarantined_total",
            "inf2vec_serve_swap_total",
            0.01,
            0.50,
        ))
}

/// Runs the serve chaos command from the harness options; with
/// `--listen ADDR`, runs the long-lived network front-end instead.
pub fn serve(opts: &Opts) {
    // Reconciliation and `/metrics` read counters back, so the run needs
    // a registry even when no --telemetry-jsonl sink was requested.
    let telemetry = if opts.telemetry.enabled() {
        opts.telemetry.clone()
    } else {
        Telemetry::with_registry()
    };
    if let Some(listen) = &opts.listen {
        serve_listen(opts, listen, telemetry);
        return;
    }
    let _introspect = opts.introspect.as_ref().map(|addr| {
        let server = IntrospectServer::start(addr, telemetry.clone(), serve_health_policy())
            .unwrap_or_else(|e| die(&format!("cannot bind --introspect {addr}: {e}")));
        opts.note(&format!(
            "[serve] introspection at http://{}/ (/metrics /healthz /debug/flight)",
            server.local_addr()
        ));
        server
    });
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        die(&format!("cannot create {}: {e}", opts.out.display()));
    }
    let cfg = ChaosConfig {
        seed: opts.seed,
        workers: opts.serve_workers,
        policy: opts.serve_policy,
        flight_dump: Some(opts.out.join("serve_flight.jsonl")),
        ..ChaosConfig::default()
    };
    let report = run_chaos(&cfg, telemetry);
    opts.say(&report.summary());
    if let Some(path) = &opts.serve_report {
        match std::fs::write(path, report.to_json()) {
            Ok(()) => opts.note(&format!("[serve] report written to {}", path.display())),
            Err(e) => die(&format!("cannot write {}: {e}", path.display())),
        }
    }
    if !report.reconciled() {
        die("serve chaos run failed to reconcile (see mismatches above)");
    }
}

/// Synthetic model shape for `serve --listen` (users × dim).
const N_NODES: usize = 4096;
const DIM: usize = 32;

/// `repro serve --listen ADDR`: the service + batcher + front-end stack
/// the way an operator would build it, over a seeded synthetic model,
/// until killed (or for `--load-seconds` when given, for scripted demos).
fn serve_listen(opts: &Opts, listen: &str, telemetry: Telemetry) {
    let svc = Arc::new(ScoringService::new(
        ServeConfig {
            admission: AdmissionConfig {
                max_in_flight: opts.serve_workers.max(1),
                max_queue: 2 * opts.serve_workers.max(1),
                policy: opts.serve_policy,
            },
            breaker: BreakerConfig {
                failure_threshold: 3,
                base_backoff: Duration::from_millis(40),
                max_backoff: Duration::from_millis(200),
            },
            expect_k: Some(DIM),
            default_deadline: Some(Duration::from_millis(250)),
            deadline_check_every: 16,
        },
        telemetry,
    ));
    svc.install_store(EmbeddingStore::new(N_NODES, DIM, opts.seed), "listen-v0")
        .unwrap_or_else(|e| die(&format!("cannot install the initial model: {e}")));
    let batcher = Arc::new(Batcher::start(
        svc,
        BatchConfig {
            max_batch: 32,
            coalesce_window: Duration::from_micros(100),
            workers: 2,
        },
    ));
    let frontend = Frontend::start(listen, batcher, FrontendConfig::default())
        .unwrap_or_else(|e| die(&format!("cannot bind {listen}: {e}")));
    opts.say(&format!(
        "[serve] listening on http://{}/ — POST /v1/rank /v1/score /v1/score_active, \
         GET /metrics /healthz /debug/flight (model: {N_NODES} users × k={DIM}, seed {})",
        frontend.local_addr(),
        opts.seed
    ));
    match opts.load_seconds {
        Some(secs) => {
            std::thread::sleep(Duration::from_secs_f64(secs));
            opts.note(&format!("[serve] --load-seconds {secs} elapsed, shutting down"));
        }
        None => loop {
            // Until the process is killed; the front-end threads do the work.
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
}

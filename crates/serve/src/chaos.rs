//! The chaos harness: hammer the service from worker threads while a
//! scripted fault schedule breaks the snapshot source, then reconcile
//! every worker-side tally **exactly** against the `inf2vec-obs`
//! metrics.
//!
//! The driver walks a fixed script — good load, corrupted load, slow
//! load (hot-swap under traffic), truncated load, a flaky streak that
//! trips the circuit breaker, a suppressed attempt while open, a
//! half-open recovery that installs a model whose finite parameters
//! overflow `f32` at scoring time (forcing runtime quarantine and
//! degraded answers), and a final good swap that restores full service.
//! Meanwhile every worker fires pair / aggregate / ranked queries with a
//! mix of deadlines (including zero-budget ones) and strictness, and
//! tallies the outcome of every single request.
//!
//! The run passes when:
//!
//! - every request got a definitive outcome (the tallies sum to the
//!   request count — nothing hung, nothing panicked),
//! - no success carried a NaN (or an unexpected non-finite) score,
//! - each per-outcome tally equals
//!   `inf2vec_serve_requests_total{outcome=...}` exactly,
//! - driver-side swap / failure / suppression / quarantine counts equal
//!   their metrics exactly, and every scripted step had its expected
//!   effect.
//!
//! [`run_script`] and [`reconcile`] are public: the wire-level test in
//! `tests/frontend.rs` replays the same script under keep-alive HTTP
//! traffic and reconciles its client-side tallies the same way.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use inf2vec_embed::EmbeddingStore;
use inf2vec_eval::aggregate::Aggregator;
use inf2vec_graph::NodeId;
use inf2vec_obs::{Snapshot, Telemetry};
use inf2vec_util::faultinject::SnapshotFault;
use inf2vec_util::json::push_json_string;
use inf2vec_util::rng::{split_seed, Xoshiro256pp};

use crate::admission::{AdmissionConfig, OverloadPolicy};
use crate::breaker::BreakerConfig;
use crate::registry::store_checksum;
use crate::service::{metrics, Request, ScoringService, ServeConfig, OUTCOMES};

/// Chaos run configuration.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Query worker threads.
    pub workers: usize,
    /// Users in the synthetic models.
    pub n_nodes: usize,
    /// Embedding dimension.
    pub k: usize,
    /// Master seed for models and per-worker query streams.
    pub seed: u64,
    /// Overload policy under test.
    pub policy: OverloadPolicy,
    /// Concurrent scoring slots (kept small to force queueing).
    pub max_in_flight: usize,
    /// Wait-queue bound.
    pub max_queue: usize,
    /// Default per-request deadline budget.
    pub deadline_ms: u64,
    /// Every this-many-th request carries a zero budget (guaranteed
    /// deadline miss); 0 disables.
    pub tight_deadline_every: usize,
    /// Every this-many-th request refuses degraded answers; 0 disables.
    pub strict_every: usize,
    /// Driver pause between script steps.
    pub driver_pause_ms: u64,
    /// Dump the telemetry flight ring here (JSONL) at run end — the same
    /// postmortem artifact the pipeline writes on a stage panic. `None`
    /// skips the dump.
    pub flight_dump: Option<std::path::PathBuf>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            // More workers than in-flight slots + queue places, so the
            // overload policy genuinely fires.
            workers: 8,
            n_nodes: 64,
            k: 8,
            seed: 42,
            policy: OverloadPolicy::Shed,
            max_in_flight: 1,
            max_queue: 2,
            deadline_ms: 100,
            tight_deadline_every: 17,
            strict_every: 13,
            driver_pause_ms: 2,
            flight_dump: None,
        }
    }
}

/// What a scripted step is expected to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Swap,
    Fail,
    Suppressed,
}

/// One scripted reload: (label, payload, expected checksum, fault, expectation).
type ScriptStep<'a> = (&'a str, &'a [u8], Option<u64>, SnapshotFault, Expect);

/// The result of one chaos run; see [`ChaosReport::reconciled`].
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Total requests issued by the workers.
    pub requests: u64,
    /// Worker-side outcome tallies.
    pub tallies: BTreeMap<String, u64>,
    /// `inf2vec_serve_requests_total{outcome=...}` at run end.
    pub metric_requests: BTreeMap<String, u64>,
    /// Driver-observed successful swaps.
    pub swaps_ok: u64,
    /// Driver-observed failed load attempts (breaker-visible).
    pub swaps_failed: u64,
    /// Driver-observed breaker-suppressed attempts.
    pub suppressed: u64,
    /// Quarantined-version count from the metrics.
    pub quarantined: u64,
    /// Successful answers that carried NaN or an unexpected non-finite
    /// value (must be 0).
    pub bad_values: u64,
    /// Every reconciliation failure, human-readable. Empty on success.
    pub mismatches: Vec<String>,
}

impl ChaosReport {
    /// True when every tally reconciled exactly and no invariant broke.
    pub fn reconciled(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// One JSON object (no trailing newline) for artifact upload.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        let _ = write!(s, "\"requests\":{}", self.requests);
        let _ = write!(s, ",\"reconciled\":{}", self.reconciled());
        let _ = write!(s, ",\"bad_values\":{}", self.bad_values);
        let _ = write!(
            s,
            ",\"swaps_ok\":{},\"swaps_failed\":{},\"suppressed\":{},\"quarantined\":{}",
            self.swaps_ok, self.swaps_failed, self.suppressed, self.quarantined
        );
        for (key, map) in [("tallies", &self.tallies), ("metrics", &self.metric_requests)] {
            let _ = write!(s, ",\"{key}\":{{");
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_json_string(&mut s, k);
                let _ = write!(s, ":{v}");
            }
            s.push('}');
        }
        s.push_str(",\"mismatches\":[");
        for (i, m) in self.mismatches.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_string(&mut s, m);
        }
        s.push_str("]}");
        s
    }

    /// A short human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "[serve:chaos] requests={} swaps={}/{} suppressed={} quarantined={} \
             bad_values={} reconciled={}",
            self.requests,
            self.swaps_ok,
            self.swaps_ok + self.swaps_failed,
            self.suppressed,
            self.quarantined,
            self.bad_values,
            self.reconciled(),
        );
        let mut outcomes: Vec<&str> = OUTCOMES.to_vec();
        outcomes.sort_unstable();
        for o in outcomes {
            let n = self.tallies.get(o).copied().unwrap_or(0);
            if n > 0 {
                let _ = write!(s, "\n  {o}: {n}");
            }
        }
        for m in &self.mismatches {
            let _ = write!(s, "\n  MISMATCH: {m}");
        }
        s
    }
}

#[derive(Debug, Default)]
struct WorkerTally {
    outcomes: BTreeMap<&'static str, u64>,
    requests: u64,
    bad_values: u64,
}

impl WorkerTally {
    fn note(&mut self, outcome: &'static str) {
        self.requests += 1;
        *self.outcomes.entry(outcome).or_insert(0) += 1;
    }
}

/// Runs the scripted chaos scenario against a fresh [`ScoringService`]
/// recording through `telemetry`. The telemetry handle **must** carry a
/// registry (e.g. `Telemetry::with_registry()` or a recorder built on
/// one); reconciliation reads the counters back from it.
pub fn run_chaos(cfg: &ChaosConfig, telemetry: Telemetry) -> ChaosReport {
    let cfg = ChaosConfig {
        workers: cfg.workers.max(1),
        n_nodes: cfg.n_nodes.max(4),
        k: cfg.k.max(1),
        ..cfg.clone()
    };
    let breaker = BreakerConfig {
        failure_threshold: 3,
        base_backoff: Duration::from_millis(40),
        max_backoff: Duration::from_millis(200),
    };
    let svc = ScoringService::new(
        ServeConfig {
            admission: AdmissionConfig {
                max_in_flight: cfg.max_in_flight,
                max_queue: cfg.max_queue,
                policy: cfg.policy,
            },
            breaker,
            expect_k: Some(cfg.k),
            default_deadline: Some(Duration::from_millis(cfg.deadline_ms)),
            deadline_check_every: 16,
        },
        telemetry,
    );

    let stop = AtomicBool::new(false);
    let (mut script, worker_tallies) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.workers)
            .map(|w| {
                let svc = &svc;
                let stop = &stop;
                let cfg = &cfg;
                scope.spawn(move || worker_loop(svc, stop, cfg, w as u64))
            })
            .collect();
        let pause = Duration::from_millis(cfg.driver_pause_ms);
        let script = run_script(&svc, cfg.n_nodes, cfg.k, cfg.seed, pause);
        // Let the restored model serve a little, then stop the workers.
        std::thread::sleep(Duration::from_millis(10));
        stop.store(true, Ordering::SeqCst);
        let tallies: Vec<WorkerTally> = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        (script, tallies)
    });

    // --- reconciliation ---------------------------------------------------
    let mut tallies: BTreeMap<String, u64> = BTreeMap::new();
    let mut requests = 0u64;
    let mut bad_values = 0u64;
    for t in &worker_tallies {
        requests += t.requests;
        bad_values += t.bad_values;
        for (k, v) in &t.outcomes {
            *tallies.entry((*k).to_string()).or_insert(0) += v;
        }
    }
    let snap = svc.telemetry().snapshot();
    let (metric_requests, quarantined) =
        reconcile(&snap, &tallies, requests, bad_values, &mut script, 0);
    let mismatches = &mut script.mismatches;
    for (dedicated, outcome) in [
        (metrics::SHED_TOTAL, "shed"),
        (metrics::DEADLINE_MISS_TOTAL, "deadline_exceeded"),
        (metrics::DEGRADED_TOTAL, "degraded"),
    ] {
        let a = snap.counter_value(dedicated, &[]);
        let b = snap.counter_value(metrics::REQUESTS_TOTAL, &[("outcome", outcome)]);
        if a != b {
            mismatches.push(format!(
                "{dedicated} ({a}) disagrees with requests_total{{outcome={outcome}}} ({b})"
            ));
        }
    }

    // Postmortem artifact: the most recent events (swaps, failures,
    // breaker transitions) as the flight ring saw them.
    if let Some(path) = &cfg.flight_dump {
        if let Err(e) = svc.telemetry().dump_flight(path) {
            mismatches.push(format!("flight dump to {} failed: {e}", path.display()));
        }
    }

    ChaosReport {
        requests,
        tallies,
        metric_requests,
        swaps_ok: script.swaps_ok,
        swaps_failed: script.swaps_failed,
        suppressed: script.suppressed,
        quarantined,
        bad_values,
        mismatches: script.mismatches,
    }
}

/// Driver-side counts from one pass over the chaos script.
#[derive(Debug, Default)]
pub struct ScriptTally {
    /// Successful swaps.
    pub swaps_ok: u64,
    /// Failed load attempts (breaker-visible).
    pub swaps_failed: u64,
    /// Breaker-suppressed attempts.
    pub suppressed: u64,
    /// Every mismatch found so far: the steps that missed their expected
    /// effect, then whatever [`reconcile`] adds.
    pub mismatches: Vec<String>,
}

/// Walks the chaos script against `svc`: a good swap, a corrupted load,
/// a slow hot-swap, a truncated load, a flaky streak that trips the
/// breaker, a suppressed reload while it is open, an overflow model
/// that must be quarantined at runtime (the caller's concurrent traffic
/// trips the guard, and degraded answers must follow), and a final good
/// swap. The three `n_nodes × k` models are seeded `seed`, `seed + 1`
/// and `seed + 2`; `pause` separates the ordinary steps, and the step
/// after the suppressed one waits out the breaker's base backoff so it
/// runs as a half-open probe.
pub fn run_script(
    svc: &ScoringService,
    n_nodes: usize,
    k: usize,
    seed: u64,
    pause: Duration,
) -> ScriptTally {
    let model_a = EmbeddingStore::new(n_nodes, k, seed);
    let model_b = EmbeddingStore::new(n_nodes, k, seed + 1);
    // Finite parameters that overflow f32 in the dot product: validation
    // passes, the runtime guard must catch it.
    let overflow = EmbeddingStore::new(n_nodes, k, seed + 2);
    for i in 0..n_nodes {
        unsafe {
            overflow.source.row_mut(i).fill(1e30);
            overflow.target.row_mut(i).fill(1e30);
        }
    }
    let mut bytes_a = Vec::new();
    let mut bytes_b = Vec::new();
    let mut bytes_ovf = Vec::new();
    model_a.save(&mut bytes_a).expect("in-memory save");
    model_b.save(&mut bytes_b).expect("in-memory save");
    overflow.save(&mut bytes_ovf).expect("in-memory save");
    let sum_a = store_checksum(&model_a);
    let sum_b = store_checksum(&model_b);

    // --- the script -------------------------------------------------------
    // (label, payload, expected checksum, fault, expectation)
    let script: Vec<ScriptStep> = vec![
        ("v-good-a", &bytes_a, Some(sum_a), SnapshotFault::Clean, Expect::Swap),
        (
            "v-corrupt",
            &bytes_a,
            Some(sum_a),
            SnapshotFault::Corrupt { period: 37 },
            Expect::Fail,
        ),
        (
            "v-good-b-slow",
            &bytes_b,
            Some(sum_b),
            // ~4 delayed chunks: a visibly slow hot-swap under traffic
            // without stalling the whole scripted run.
            SnapshotFault::Slow {
                delay_ms: 2,
                chunk: bytes_b.len() / 4 + 1,
            },
            Expect::Swap,
        ),
        (
            "v-truncated",
            &bytes_a,
            Some(sum_a),
            SnapshotFault::Truncate {
                limit: bytes_a.len() / 2,
            },
            Expect::Fail,
        ),
        (
            "v-flaky-1",
            &bytes_a,
            Some(sum_a),
            SnapshotFault::Flaky { fail_after: 128 },
            Expect::Fail,
        ),
        (
            "v-flaky-2",
            &bytes_a,
            Some(sum_a),
            SnapshotFault::Flaky { fail_after: 128 },
            Expect::Fail,
        ),
        // The third consecutive failure above tripped the breaker open;
        // this perfectly good payload must be refused without a read.
        ("v-suppressed", &bytes_a, Some(sum_a), SnapshotFault::Clean, Expect::Suppressed),
        ("v-overflow", &bytes_ovf, None, SnapshotFault::Clean, Expect::Swap),
        ("v-final-b", &bytes_b, Some(sum_b), SnapshotFault::Clean, Expect::Swap),
    ];
    let mut tally = ScriptTally::default();
    for (i, (label, payload, expected_sum, fault, expect)) in script.iter().enumerate() {
        let res = svc.reload_from_reader(label, fault.wrap(*payload), *expected_sum);
        match (expect, &res) {
            (Expect::Swap, Ok(_)) => tally.swaps_ok += 1,
            (Expect::Fail, Err(e)) if !is_suppressed(e) => tally.swaps_failed += 1,
            (Expect::Suppressed, Err(e)) if is_suppressed(e) => tally.suppressed += 1,
            (want, got) => tally.mismatches.push(format!(
                "script step {i} ({label}): expected {want:?}, got {got:?}"
            )),
        }
        match *label {
            // Give the breaker's backoff time to elapse so the next
            // step runs as a half-open probe.
            "v-suppressed" => {
                std::thread::sleep(svc.config().breaker.base_backoff + Duration::from_millis(20))
            }
            // Wait (bounded) for the traffic to trip the runtime
            // non-finite guard and quarantine the overflow model, then
            // for at least one degraded answer to land.
            "v-overflow" => {
                if !wait_until(Duration::from_secs(5), || svc.registry().current().is_none()) {
                    tally.mismatches.push("overflow model was never quarantined".into());
                }
                let degraded_seen = wait_until(Duration::from_secs(5), || {
                    svc.telemetry()
                        .snapshot()
                        .counter_value(metrics::REQUESTS_TOTAL, &[("outcome", "degraded")])
                        > 0
                });
                if !degraded_seen {
                    tally
                        .mismatches
                        .push("no degraded answer was served while quarantined".into());
                }
            }
            _ => std::thread::sleep(pause),
        }
    }
    tally
}

/// Reconciles a chaos run against the metrics in `snap`: the callers'
/// per-outcome `tallies` (which must sum to `requests`) against
/// `inf2vec_serve_requests_total`, no non-finite answer (`bad_values`),
/// the script's swap / failure / suppression counts — plus `installs`
/// swaps made outside the script — against their counters, and exactly
/// one quarantined version. Every disagreement is pushed onto
/// `script.mismatches`. Returns the per-outcome metric counts and the
/// quarantined-version count.
pub fn reconcile(
    snap: &Snapshot,
    tallies: &BTreeMap<String, u64>,
    requests: u64,
    bad_values: u64,
    script: &mut ScriptTally,
    installs: u64,
) -> (BTreeMap<String, u64>, u64) {
    let mismatches = &mut script.mismatches;
    let mut metric_requests: BTreeMap<String, u64> = BTreeMap::new();
    for outcome in OUTCOMES {
        let n = snap.counter_value(metrics::REQUESTS_TOTAL, &[("outcome", outcome)]);
        if n > 0 {
            metric_requests.insert(outcome.to_string(), n);
        }
        let tallied = tallies.get(outcome).copied().unwrap_or(0);
        if tallied != n {
            mismatches.push(format!(
                "outcome {outcome}: callers tallied {tallied}, metrics say {n}"
            ));
        }
    }
    let tally_sum: u64 = tallies.values().sum();
    if tally_sum != requests {
        mismatches.push(format!(
            "tallies sum to {tally_sum} but {requests} requests completed \
             (some request vanished without an outcome)"
        ));
    }
    if bad_values > 0 {
        mismatches.push(format!(
            "{bad_values} successful answers carried NaN or an unexpected non-finite score"
        ));
    }
    let swaps_ok = script.swaps_ok + installs;
    let (swaps_failed, suppressed) = (script.swaps_failed, script.suppressed);
    for (name, want, what) in [
        (metrics::SWAP_TOTAL, swaps_ok, "successful swaps"),
        (metrics::SWAP_FAILED_TOTAL, swaps_failed, "failed loads"),
        (metrics::BREAKER_SUPPRESSED_TOTAL, suppressed, "suppressed reloads"),
    ] {
        let got = snap.counter_value(name, &[]);
        if got != want {
            mismatches.push(format!("{what}: driver saw {want}, metric {name} says {got}"));
        }
    }
    let quarantined = snap.counter_value(metrics::QUARANTINED_TOTAL, &[]);
    if quarantined != 1 {
        mismatches.push(format!(
            "expected exactly 1 quarantined version, metrics say {quarantined}"
        ));
    }
    (metric_requests, quarantined)
}

fn is_suppressed(e: &inf2vec_util::error::Inf2vecError) -> bool {
    matches!(
        e,
        inf2vec_util::error::Inf2vecError::Serve(
            inf2vec_util::error::ServeError::ModelUnavailable { reason }
        ) if reason.contains("circuit breaker")
    )
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

fn worker_loop(
    svc: &ScoringService,
    stop: &AtomicBool,
    cfg: &ChaosConfig,
    worker: u64,
) -> WorkerTally {
    let mut rng = Xoshiro256pp::new(split_seed(cfg.seed, worker));
    let mut tally = WorkerTally::default();
    let n = cfg.n_nodes as u64;
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        i += 1;
        let mut req = Request::new();
        if cfg.tight_deadline_every > 0 && i.is_multiple_of(cfg.tight_deadline_every as u64) {
            req = req.with_deadline(Duration::ZERO);
        }
        if cfg.strict_every > 0 && i.is_multiple_of(cfg.strict_every as u64) {
            req = req.strict();
        }
        let u = NodeId(rng.below(n) as u32);
        let v = NodeId(rng.below(n) as u32);
        match i % 3 {
            0 => {
                // Ranked query over a random candidate slate.
                let candidates: Vec<NodeId> =
                    (0..16).map(|_| NodeId(rng.below(n) as u32)).collect();
                match svc.rank_targets(u, &candidates, 5, &req) {
                    Ok(r) => {
                        tally.note(if r.degraded { "degraded" } else { "ok" });
                        if r.items.iter().any(|(_, s)| !s.is_finite()) {
                            tally.bad_values += 1;
                        }
                    }
                    Err(e) => tally.note(e.outcome()),
                }
            }
            1 => {
                // Aggregate query; occasionally with an empty active set,
                // which must return the deterministic bottom, not NaN.
                let expect_bottom = i.is_multiple_of(29);
                let active: Vec<NodeId> = if expect_bottom {
                    Vec::new()
                } else {
                    (0..1 + rng.below(4)).map(|_| NodeId(rng.below(n) as u32)).collect()
                };
                let agg = Aggregator::ALL[rng.index(4)];
                match svc.score_given_active(v, &active, agg, &req) {
                    Ok(s) => {
                        tally.note(if s.degraded { "degraded" } else { "ok" });
                        let legal = if expect_bottom {
                            s.value == f64::NEG_INFINITY
                        } else {
                            s.value.is_finite()
                        };
                        if !legal {
                            tally.bad_values += 1;
                        }
                    }
                    Err(e) => tally.note(e.outcome()),
                }
            }
            _ => match svc.score_pair(u, v, &req) {
                Ok(s) => {
                    tally.note(if s.degraded { "degraded" } else { "ok" });
                    if !s.value.is_finite() {
                        tally.bad_values += 1;
                    }
                }
                Err(e) => tally.note(e.outcome()),
            },
        }
        // Yield a little so the driver's swaps interleave with traffic
        // instead of the workers monopolizing the admission queue.
        if i.is_multiple_of(32) {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_well_formed() {
        let mut tallies = BTreeMap::new();
        tallies.insert("ok".to_string(), 10);
        let report = ChaosReport {
            requests: 10,
            tallies: tallies.clone(),
            metric_requests: tallies,
            swaps_ok: 1,
            swaps_failed: 0,
            suppressed: 0,
            quarantined: 1,
            bad_values: 0,
            mismatches: vec!["a \"quoted\" mismatch".to_string()],
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"requests\":10"));
        assert!(json.contains("\"reconciled\":false"));
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(report.summary().contains("MISMATCH"));
    }
}

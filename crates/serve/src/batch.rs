//! Request batching: coalesce concurrent rank requests into a chunked,
//! cache-friendly batched GEMV over the target matrix.
//!
//! The network front-end submits every `/v1/rank` request through a
//! [`Batcher`]. The submitting thread runs the same request spine as the
//! unbatched path — deadline start, argument validation, **admission on
//! the caller's thread** (so overload policies and in-flight accounting
//! see batched traffic identically) — then parks on a response slot
//! while a worker thread coalesces up to [`BatchConfig::max_batch`]
//! queued jobs (waiting at most [`BatchConfig::coalesce_window`] after
//! the first) and scores them together.
//!
//! The hot kernel is [`score_block`]: one source row `S_u` held in
//! registers against [`BLOCK`] target rows at once, one independent f32
//! accumulator per candidate summing in `k` order. Each accumulator
//! performs *exactly* the operation sequence of the scalar
//! `EmbeddingStore::score` path (`dot` then `+ b_u` then `+ b̃_v`), so
//! batched results are **bit-identical** to `ScoringService::rank_targets`
//! — a property test below pins this.
//!
//! Deadlines stay end-to-end: the scoring loop re-checks at the same
//! candidate indices as the unbatched path, and a job whose deadline
//! lapses *while queued in the batcher* is failed at dequeue with
//! `deadline_exceeded`, counted exactly once through the service's
//! single outcome-accounting point ([`ScoringService::finish`]).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use inf2vec_embed::EmbeddingStore;
use inf2vec_graph::NodeId;
use inf2vec_util::error::ServeError;
use inf2vec_util::topk::TopK;

use crate::admission::Deadline;
use crate::registry::ModelVersion;
use crate::service::{check_ids, rank_bias, Ranked, Request, Resolved, ScoringService};

/// Metric names the batcher registers (all under `inf2vec_serve_batch_`).
pub mod metrics {
    /// Histogram of jobs per flushed batch.
    pub const BATCH_SIZE: &str = "inf2vec_serve_batch_size";
    /// Counter, labelled `reason=full|window|drain`: one increment per
    /// flushed batch.
    pub const BATCH_FLUSH_TOTAL: &str = "inf2vec_serve_batch_flush_total";
    /// Gauge: rank jobs waiting in the batcher queue.
    pub const BATCH_QUEUE_DEPTH: &str = "inf2vec_serve_batch_queue_depth";
    /// Counter: jobs whose deadline lapsed while queued in the batcher.
    pub const BATCH_EXPIRED_IN_QUEUE_TOTAL: &str = "inf2vec_serve_batch_expired_in_queue_total";
}

/// Candidates scored per kernel block: one source row against this many
/// target rows at once.
pub const BLOCK: usize = 4;

/// Batcher tuning.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Jobs coalesced into one batch at most.
    pub max_batch: usize,
    /// How long a worker waits for more jobs after the first arrives.
    /// Zero flushes immediately (no added latency, batching only under
    /// concurrent load — the default).
    pub coalesce_window: Duration,
    /// Worker threads scoring batches.
    pub workers: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            coalesce_window: Duration::ZERO,
            workers: 2,
        }
    }
}

/// One queued rank job. The submitting thread holds the admission
/// permit for the job's whole life, so the batcher queue can never
/// outgrow the admission in-flight cap.
pub(crate) struct Job {
    pub(crate) u: NodeId,
    pub(crate) candidates: Vec<NodeId>,
    pub(crate) top_n: usize,
    pub(crate) allow_degraded: bool,
    pub(crate) deadline: Deadline,
    pub(crate) slot: Arc<ResponseSlot>,
}

/// Where a worker parks the job's result for the submitting thread.
pub(crate) struct ResponseSlot {
    result: Mutex<Option<Result<Ranked, ServeError>>>,
    ready: Condvar,
}

impl ResponseSlot {
    pub(crate) fn new() -> Self {
        Self {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    pub(crate) fn fulfill(&self, res: Result<Ranked, ServeError>) {
        let mut slot = self.result.lock().expect("response slot poisoned");
        *slot = Some(res);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Ranked, ServeError> {
        let mut slot = self.result.lock().expect("response slot poisoned");
        loop {
            if let Some(res) = slot.take() {
                return res;
            }
            slot = self.ready.wait(slot).expect("response slot poisoned");
        }
    }
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    stopping: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    arrived: Condvar,
}

/// The coalescing batcher in front of a [`ScoringService`]. Share
/// behind an `Arc`; [`rank`](Self::rank) is called from any number of
/// front-end threads.
pub struct Batcher {
    svc: Arc<ScoringService>,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Batcher {
    /// Starts `cfg.workers` scoring threads over `svc`.
    pub fn start(svc: Arc<ScoringService>, cfg: BatchConfig) -> Self {
        let cfg = BatchConfig {
            max_batch: cfg.max_batch.max(1),
            workers: cfg.workers.max(1),
            ..cfg
        };
        // Pre-register the batch-size histogram with size buckets
        // (1, 2, 4, ... jobs) instead of the default latency buckets.
        if let Some(reg) = svc.telemetry().registry() {
            reg.histogram_with(metrics::BATCH_SIZE, &[], || {
                inf2vec_obs::Histogram::exponential(1.0, 2.0, 10)
            });
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            arrived: Condvar::new(),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let svc = Arc::clone(&svc);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("inf2vec-batch-{i}"))
                    .spawn(move || worker_loop(&svc, &shared, cfg))
                    .expect("spawn batch worker")
            })
            .collect();
        Self {
            svc,
            shared,
            workers,
        }
    }

    /// The service this batcher scores through.
    pub fn service(&self) -> &Arc<ScoringService> {
        &self.svc
    }

    /// Ranks `candidates` by `x(u, v)` through the batched path.
    /// Semantics (validation, admission, deadlines, degraded fallback,
    /// outcome accounting) match [`ScoringService::rank_targets`]; the
    /// per-pair scores are bit-identical to it.
    pub fn rank(
        &self,
        u: NodeId,
        candidates: Vec<NodeId>,
        top_n: usize,
        req: &Request,
    ) -> Result<Ranked, ServeError> {
        let deadline = self.svc.deadline(req);
        if top_n == 0 {
            let err = ServeError::BadRequest {
                reason: "top_n must be positive".into(),
            };
            self.svc.finish(err.outcome(), &deadline);
            return Err(err);
        }
        // Admission on the caller's thread: the permit is held until the
        // response arrives, so queued-in-batcher work counts as in-flight
        // and overload policies fire exactly as on the unbatched path.
        let permit = match self.svc.admission().admit(&deadline) {
            Ok(p) => p,
            Err(e) => {
                self.svc.finish(e.outcome(), &deadline);
                return Err(e);
            }
        };
        let slot = Arc::new(ResponseSlot::new());
        {
            let mut q = self.shared.queue.lock().expect("batch queue poisoned");
            if q.stopping {
                drop(q);
                drop(permit);
                let err = ServeError::ModelUnavailable {
                    reason: "batcher is shutting down".into(),
                };
                self.svc.finish(err.outcome(), &deadline);
                return Err(err);
            }
            q.jobs.push_back(Job {
                u,
                candidates,
                top_n,
                allow_degraded: req.allow_degraded,
                deadline,
                slot: Arc::clone(&slot),
            });
            self.svc
                .telemetry()
                .gauge_set(metrics::BATCH_QUEUE_DEPTH, q.jobs.len() as f64);
        }
        self.shared.arrived.notify_all();
        let res = slot.wait();
        drop(permit);
        res
    }

    /// Stops the workers after draining every queued job.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("batch queue poisoned");
            q.stopping = true;
        }
        self.shared.arrived.notify_all();
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(svc: &ScoringService, shared: &Shared, cfg: BatchConfig) {
    loop {
        let (batch, reason) = collect_batch(shared, cfg);
        if batch.is_empty() {
            return; // stopping, queue drained
        }
        svc.telemetry()
            .observe(metrics::BATCH_SIZE, batch.len() as f64);
        svc.telemetry()
            .count_with(metrics::BATCH_FLUSH_TOTAL, &[("reason", reason)], 1);
        process_batch(svc, batch);
    }
}

/// Blocks for the first job, then coalesces up to `cfg.max_batch` jobs
/// arriving within `cfg.coalesce_window`. Returns the flush reason for
/// the `reason` label of [`metrics::BATCH_FLUSH_TOTAL`].
fn collect_batch(shared: &Shared, cfg: BatchConfig) -> (Vec<Job>, &'static str) {
    let mut q = shared.queue.lock().expect("batch queue poisoned");
    loop {
        if !q.jobs.is_empty() {
            break;
        }
        if q.stopping {
            return (Vec::new(), "drain");
        }
        q = shared.arrived.wait(q).expect("batch queue poisoned");
    }
    let window_start = Instant::now();
    let reason = loop {
        if q.jobs.len() >= cfg.max_batch {
            break "full";
        }
        if q.stopping {
            break "drain";
        }
        let elapsed = window_start.elapsed();
        if elapsed >= cfg.coalesce_window {
            break "window";
        }
        let (guard, _) = shared
            .arrived
            .wait_timeout(q, cfg.coalesce_window - elapsed)
            .expect("batch queue poisoned");
        q = guard;
    };
    let n = q.jobs.len().min(cfg.max_batch);
    let batch: Vec<Job> = q.jobs.drain(..n).collect();
    (batch, reason)
}

/// Scores one flushed batch. Every job gets exactly one outcome through
/// [`ScoringService::finish`] and exactly one slot fulfillment —
/// including jobs that expired while queued.
pub(crate) fn process_batch(svc: &ScoringService, batch: Vec<Job>) {
    svc.telemetry()
        .gauge_set(metrics::BATCH_QUEUE_DEPTH, 0.0);
    for job in batch {
        let res = process_job(svc, &job);
        let outcome = match &res {
            Ok(r) if r.degraded => "degraded",
            Ok(_) => "ok",
            Err(e) => e.outcome(),
        };
        svc.finish(outcome, &job.deadline);
        job.slot.fulfill(res);
    }
}

fn process_job(svc: &ScoringService, job: &Job) -> Result<Ranked, ServeError> {
    if job.deadline.expired() {
        svc.telemetry()
            .count(metrics::BATCH_EXPIRED_IN_QUEUE_TOTAL, 1);
    }
    job.deadline.check()?;
    let req = Request {
        deadline: None,
        allow_degraded: job.allow_degraded,
    };
    let every = svc.config().deadline_check_every.max(1);
    match svc.resolve(&req)? {
        Resolved::Full(m) => rank_batched(svc, &m, job, &req, every),
        Resolved::Degraded(fb) => {
            check_ids(fb.len(), &[job.u])?;
            rank_bias(&fb, job.u, &job.candidates, job.top_n, &job.deadline, every)
        }
    }
}

/// The batched full-model rank: blocked GEMV with the same validation,
/// deadline-check indices, non-finite quarantine, and TopK semantics as
/// `ScoringService::rank_targets_inner`. (One divergence, documented in
/// DESIGN.md: ids are validated a block ahead of scoring, so a bad id
/// and a non-finite score in the same block report the bad id without
/// first quarantining — the outcome label is identical either way.)
fn rank_batched(
    svc: &ScoringService,
    m: &Arc<ModelVersion>,
    job: &Job,
    req: &Request,
    every: usize,
) -> Result<Ranked, ServeError> {
    let store = m.store();
    check_ids(m.n(), &[job.u])?;
    let s_u = store.s(job.u.0);
    let b_u = store.b(job.u.0);
    let mut top = TopK::new(job.top_n);
    let mut scores = [0.0f32; BLOCK];
    for (bi, block) in job.candidates.chunks(BLOCK).enumerate() {
        let base = bi * BLOCK;
        for j in 0..block.len() {
            if (base + j).is_multiple_of(every) {
                job.deadline.check()?;
            }
        }
        check_ids(m.n(), block)?;
        score_block(s_u, b_u, store, block, &mut scores);
        for (j, &v) in block.iter().enumerate() {
            let x = scores[j];
            if !x.is_finite() {
                let reason = svc.quarantine(m, job.u, v);
                let fb = svc.fallback_for(req, reason)?;
                return rank_bias(&fb, job.u, &job.candidates, job.top_n, &job.deadline, every);
            }
            top.push(x as f64, v);
        }
    }
    Ok(Ranked {
        items: top.into_sorted().into_iter().map(|(s, v)| (v, s)).collect(),
        version: m.version(),
        degraded: false,
    })
}

/// Scores one source row against up to [`BLOCK`] target rows: one
/// independent accumulator per candidate, summed in `k` order, `+ b_u`
/// then `+ b̃_v` — the exact f32 operation sequence of
/// `EmbeddingStore::score`, so each `out[j]` is bit-identical to
/// `store.score(u, block[j])` while `S_u` stays hot across the block.
pub(crate) fn score_block(
    s_u: &[f32],
    b_u: f32,
    store: &EmbeddingStore,
    block: &[NodeId],
    out: &mut [f32; BLOCK],
) {
    let k = s_u.len();
    if let [v0, v1, v2, v3] = *block {
        let t0 = &store.t(v0.0)[..k];
        let t1 = &store.t(v1.0)[..k];
        let t2 = &store.t(v2.0)[..k];
        let t3 = &store.t(v3.0)[..k];
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for i in 0..k {
            let si = s_u[i];
            a0 += si * t0[i];
            a1 += si * t1[i];
            a2 += si * t2[i];
            a3 += si * t3[i];
        }
        out[0] = a0 + b_u + store.b_tilde(v0.0);
        out[1] = a1 + b_u + store.b_tilde(v1.0);
        out[2] = a2 + b_u + store.b_tilde(v2.0);
        out[3] = a3 + b_u + store.b_tilde(v3.0);
    } else {
        // Tail block (< BLOCK candidates): plain scalar dots, same order.
        for (j, &v) in block.iter().enumerate() {
            let t = &store.t(v.0)[..k];
            let mut a = 0.0f32;
            for i in 0..k {
                a += s_u[i] * t[i];
            }
            out[j] = a + b_u + store.b_tilde(v.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{AdmissionConfig, OverloadPolicy};
    use crate::service::{metrics as svc_metrics, ServeConfig};
    use inf2vec_obs::Telemetry;
    use inf2vec_util::ManualClock;
    use proptest::prelude::*;

    fn service(cfg: ServeConfig) -> Arc<ScoringService> {
        Arc::new(ScoringService::new(cfg, Telemetry::with_registry()))
    }

    fn install(svc: &ScoringService, n: usize, k: usize, seed: u64) {
        svc.install_store(EmbeddingStore::new(n, k, seed), "m")
            .unwrap();
    }

    #[test]
    fn score_block_matches_store_exactly() {
        let store = EmbeddingStore::new(64, 17, 9);
        let mut out = [0.0f32; BLOCK];
        for u in [0u32, 5, 63] {
            let s_u = store.s(u);
            let b_u = store.b(u);
            let full: Vec<NodeId> = (10..14).map(NodeId).collect();
            score_block(s_u, b_u, &store, &full, &mut out);
            for (j, &v) in full.iter().enumerate() {
                assert_eq!(out[j].to_bits(), store.score(u, v.0).to_bits());
            }
            let tail: Vec<NodeId> = (60..63).map(NodeId).collect();
            score_block(s_u, b_u, &store, &tail, &mut out);
            for (j, &v) in tail.iter().enumerate() {
                assert_eq!(out[j].to_bits(), store.score(u, v.0).to_bits());
            }
        }
    }

    #[test]
    fn batched_rank_matches_unbatched() {
        let svc = service(ServeConfig::default());
        install(&svc, 128, 16, 11);
        let batcher = Batcher::start(Arc::clone(&svc), BatchConfig::default());
        let candidates: Vec<NodeId> = (1..128).map(NodeId).collect();
        let req = Request::new();
        let want = svc
            .rank_targets(NodeId(0), &candidates, 10, &req)
            .unwrap();
        let got = batcher.rank(NodeId(0), candidates, 10, &req).unwrap();
        assert_eq!(got, want);
        batcher.stop();
    }

    /// `top_n` arrives off the wire unbounded: past the slate size, both
    /// rank paths return every candidate, best first.
    #[test]
    fn unbounded_top_n_returns_every_candidate_best_first() {
        let svc = service(ServeConfig::default());
        install(&svc, 64, 8, 5);
        let batcher = Arc::new(Batcher::start(Arc::clone(&svc), BatchConfig::default()));
        let candidates: Vec<NodeId> = (1..40).map(NodeId).collect();
        for top_n in [1 << 62, usize::MAX] {
            let want = svc
                .rank_targets(NodeId(0), &candidates, top_n, &Request::new())
                .unwrap();
            let mut ids: Vec<NodeId> = want.items.iter().map(|&(v, _)| v).collect();
            ids.sort_unstable();
            assert_eq!(ids, candidates);
            assert!(want.items.windows(2).all(|w| w[0].1 >= w[1].1), "{want:?}");

            let (tx, rx) = std::sync::mpsc::channel();
            let caller = {
                let (batcher, candidates) = (Arc::clone(&batcher), candidates.clone());
                std::thread::spawn(move || {
                    let _ = tx.send(batcher.rank(NodeId(0), candidates, top_n, &Request::new()));
                })
            };
            // A panicking worker would park the caller for good: bound the wait.
            let got = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("Batcher::rank never answered")
                .unwrap();
            caller.join().unwrap();
            assert_eq!(got, want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn batched_rank_is_bit_identical_to_unbatched(
            seed in 0u64..1_000,
            n in 2usize..96,
            k in 1usize..24,
            top_n in 1usize..12,
            pick in prop::collection::vec(0usize..4096, 0..80),
        ) {
            let svc = service(ServeConfig::default());
            install(&svc, n, k, seed);
            let batcher = Batcher::start(Arc::clone(&svc), BatchConfig::default());
            let candidates: Vec<NodeId> =
                pick.iter().map(|&i| NodeId((i % n) as u32)).collect();
            let u = NodeId((seed % n as u64) as u32);
            let req = Request::new();
            let want = svc.rank_targets(u, &candidates, top_n, &req);
            let got = batcher.rank(u, candidates, top_n, &req);
            match (got, want) {
                (Ok(g), Ok(w)) => {
                    prop_assert_eq!(g.items.len(), w.items.len());
                    for ((gv, gs), (wv, ws)) in g.items.iter().zip(w.items.iter()) {
                        prop_assert_eq!(gv, wv);
                        prop_assert_eq!(gs.to_bits(), ws.to_bits());
                    }
                    prop_assert_eq!(g.version, w.version);
                    prop_assert_eq!(g.degraded, w.degraded);
                }
                (Err(g), Err(w)) => prop_assert_eq!(g.outcome(), w.outcome()),
                (g, w) => prop_assert!(false, "diverged: {:?} vs {:?}", g, w),
            }
            batcher.stop();
        }
    }

    #[test]
    fn concurrent_load_coalesces_and_reconciles() {
        let svc = service(ServeConfig {
            admission: AdmissionConfig {
                max_in_flight: 16,
                max_queue: 16,
                policy: OverloadPolicy::Block,
            },
            ..ServeConfig::default()
        });
        install(&svc, 64, 8, 3);
        let batcher = Arc::new(Batcher::start(
            Arc::clone(&svc),
            BatchConfig {
                max_batch: 8,
                coalesce_window: Duration::from_millis(2),
                workers: 2,
            },
        ));
        let threads: Vec<_> = (0..16)
            .map(|t| {
                let batcher = Arc::clone(&batcher);
                std::thread::spawn(move || {
                    let candidates: Vec<NodeId> = (0..64).map(NodeId).collect();
                    for i in 0..25 {
                        let u = NodeId(((t * 25 + i) % 64) as u32);
                        batcher.rank(u, candidates.clone(), 5, &Request::new()).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = svc.telemetry().snapshot();
        assert_eq!(
            snap.counter_value(svc_metrics::REQUESTS_TOTAL, &[("outcome", "ok")]),
            16 * 25,
            "every request counted ok exactly once"
        );
        let flushes: u64 = ["full", "window", "drain"]
            .iter()
            .map(|r| snap.counter_value(metrics::BATCH_FLUSH_TOTAL, &[("reason", r)]))
            .sum();
        assert!(flushes > 0 && flushes <= 16 * 25, "batches actually coalesced");
    }

    #[test]
    fn deadline_expired_in_queue_is_counted_exactly_once() {
        let svc = service(ServeConfig::default());
        install(&svc, 16, 4, 5);
        let (clock, handle) = ManualClock::shared();
        let deadline = Deadline::start_with_clock(Some(Duration::from_millis(50)), clock);
        let slot = Arc::new(ResponseSlot::new());
        let job = Job {
            u: NodeId(0),
            candidates: (0..16).map(NodeId).collect(),
            top_n: 4,
            allow_degraded: true,
            deadline,
            slot: Arc::clone(&slot),
        };
        // The job sits "queued" past its whole budget before any worker
        // dequeues it.
        handle.advance(Duration::from_millis(60));
        process_batch(&svc, vec![job]);
        let res = slot.wait();
        assert!(
            matches!(res, Err(ServeError::DeadlineExceeded { .. })),
            "{res:?}"
        );
        let snap = svc.telemetry().snapshot();
        assert_eq!(
            snap.counter_value(svc_metrics::REQUESTS_TOTAL, &[("outcome", "deadline_exceeded")]),
            1,
            "deadline_exceeded counted exactly once"
        );
        assert_eq!(snap.counter_value(svc_metrics::DEADLINE_MISS_TOTAL, &[]), 1);
        assert_eq!(
            snap.counter_value(metrics::BATCH_EXPIRED_IN_QUEUE_TOTAL, &[]),
            1
        );
        let all: u64 = crate::service::OUTCOMES
            .iter()
            .map(|o| snap.counter_value(svc_metrics::REQUESTS_TOTAL, &[("outcome", o)]))
            .sum();
        assert_eq!(all, 1, "no other outcome was counted for the job");
    }

    #[test]
    fn degraded_fallback_flows_through_the_batcher() {
        let svc = service(ServeConfig::default());
        // Install a model that overflows at score time, then poke it so
        // it gets quarantined and only the bias fallback remains.
        let s = EmbeddingStore::new(8, 2, 3);
        for i in 0..8 {
            unsafe {
                s.source.row_mut(i).fill(1e30);
                s.target.row_mut(i).fill(1e30);
            }
        }
        svc.install_store(s, "overflow").unwrap();
        let batcher = Batcher::start(Arc::clone(&svc), BatchConfig::default());
        let candidates: Vec<NodeId> = (0..8).map(NodeId).collect();
        let got = batcher
            .rank(NodeId(0), candidates.clone(), 3, &Request::new())
            .unwrap();
        assert!(got.degraded, "quarantined model must degrade");
        assert!(got.items.iter().all(|(_, s)| s.is_finite()));
        // Strict requests get the typed refusal through the batcher too.
        let err = batcher
            .rank(NodeId(0), candidates, 3, &Request::new().strict())
            .unwrap_err();
        assert_eq!(err.outcome(), "degraded_refused");
        batcher.stop();
    }

    #[test]
    fn stopped_batcher_refuses_new_work_but_drains_old() {
        let svc = service(ServeConfig::default());
        install(&svc, 8, 2, 1);
        let batcher = Batcher::start(Arc::clone(&svc), BatchConfig::default());
        let got = batcher
            .rank(NodeId(0), vec![NodeId(1), NodeId(2)], 1, &Request::new())
            .unwrap();
        assert_eq!(got.items.len(), 1);
        batcher.stop();
    }
}

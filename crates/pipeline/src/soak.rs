//! Fault-injection soak: crash cycles, torn tails, exact reconciliation.
//!
//! The harness plays both sides of the pipeline's contract:
//!
//! 1. a deterministic **traffic writer** appends chunks of synthetic
//!    action records to the log — including scheduled garbage lines,
//!    *partial* lines (a torn producer) completed by the next chunk, and
//!    (from the second cycle on) records naming users the social graph
//!    never enumerated, so the model's row space must grow mid-stream;
//! 2. between chunks the pipeline is **crashed** (dropped without a
//!    graceful shutdown) and reopened from its journal, while a per-cycle
//!    [`FaultPlan`] panics stages, fails/slows publishes, shears journal
//!    slots mid-run, injects ENOSPC-style faults into journal, compaction
//!    and snapshot-export writes, and poisons one snapshot (intact bits,
//!    inverted semantics) that the quality gate must withhold;
//! 3. the live log is held under a byte budget by journal-coordinated
//!    **compaction** throughout, so the end-state checks also have to
//!    survive the consumed prefix being rotated into the archive;
//! 4. at the end, every written record must sit in exactly one of
//!    {applied, quarantined, pending} — checked against the writer's own
//!    ledger *and* against the obs gauges — and an uninterrupted
//!    fresh-journal run over the **reconstructed** full stream (archive
//!    bytes + live suffix) must produce a bit-identical model
//!    ([`inf2vec_serve::store_checksum`]).

use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use inf2vec_graph::{DiGraph, GraphBuilder, NodeId};
use inf2vec_ingest::{archive_dir, ArchiveCounters, ArchiveStore};
use inf2vec_obs::SampleValue;
use inf2vec_serve::ModelRegistry;
use inf2vec_util::error::Inf2vecError;
use inf2vec_util::faultinject::{Fault, FaultPlan};
use inf2vec_util::rng::Xoshiro256pp;
use inf2vec_util::{split_seed, system_clock};

use crate::config::PipelineConfig;
use crate::publish::RegistrySink;
use crate::runner::{Pipeline, Reconciliation};

/// Soak shape. Defaults give a few seconds of work — CI-sized.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Users in the social graph (ring-with-shortcuts).
    pub users: u32,
    /// Users beyond the graph that start appearing from the second cycle
    /// on: they force mid-stream row-space growth (the pipeline runs with
    /// `user_capacity = users + extra_users`).
    pub extra_users: u32,
    /// Records per cascade: each item stays active for roughly this many
    /// log lines, then goes quiet (and so eventually closes). Adjacent
    /// cascades overlap, keeping a couple of episodes open at all times.
    pub cascade_len: u32,
    /// Crash/recover cycles (one traffic chunk each). Minimum 4, so the
    /// schedule can fit every fault class including the poisoned
    /// snapshot.
    pub cycles: u32,
    /// Records appended per chunk.
    pub records_per_chunk: u32,
    /// Every Nth line is garbage (quarantine traffic); 0 disables.
    pub defect_every: u32,
    /// Live-log byte budget driving compaction (0 disables — the soak
    /// then cannot prove disk boundedness).
    pub log_budget_bytes: u64,
    /// Archive segment budget driving retention expiry (0 = unlimited —
    /// the soak then cannot prove the archive stays bounded).
    pub archive_max_segments: usize,
    /// Archive payload byte budget (0 = unlimited).
    pub archive_max_bytes: u64,
    /// Real-clock mode (`repro soak --wall-clock`): keep cycling until
    /// this much wall time has elapsed (at least `cycles` cycles either
    /// way), with [`wall_clock_pause`](Self::wall_clock_pause) of real
    /// sleep between chunks so compaction, expiry, and restore run
    /// against elapsing time rather than back-to-back.
    pub wall_clock: Option<Duration>,
    /// Real sleep between cycles in wall-clock mode.
    pub wall_clock_pause: Duration,
    /// Held-out probe triples backing the quality gate (0 disables — the
    /// soak then cannot prove the poisoned snapshot is withheld).
    pub probe_pairs: usize,
    /// Master seed for traffic and training.
    pub seed: u64,
    /// Pipeline knobs (the harness overrides seed/telemetry/capacity/
    /// budget/probe/snapshot-dir coherently).
    pub pipeline: PipelineConfig,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            users: 24,
            extra_users: 8,
            cascade_len: 20,
            cycles: 4,
            records_per_chunk: 160,
            defect_every: 13,
            log_budget_bytes: 2048,
            archive_max_segments: 2,
            archive_max_bytes: 0,
            wall_clock: None,
            wall_clock_pause: Duration::from_millis(25),
            probe_pairs: 48,
            seed: 42,
            pipeline: PipelineConfig {
                close_after: 24,
                batch_max: 32,
                publish_every_episodes: 2,
                publish_backoff: Duration::from_millis(1),
                publish_backoff_cap: Duration::from_millis(4),
                inf2vec: inf2vec_core::Inf2vecConfig {
                    k: 8,
                    l: 8,
                    ..inf2vec_core::Inf2vecConfig::default()
                },
                ..PipelineConfig::default()
            },
        }
    }
}

impl SoakConfig {
    /// The long-soak preset (`repro soak --long`): more users, more
    /// cycles, several times the traffic, a tighter relative disk budget.
    /// Minutes of work rather than seconds — the overnight/CI-nightly
    /// shape.
    pub fn long() -> Self {
        let base = Self::default();
        Self {
            users: 48,
            extra_users: 16,
            cascade_len: 24,
            cycles: 8,
            records_per_chunk: 400,
            log_budget_bytes: 4096,
            archive_max_segments: 3,
            probe_pairs: 64,
            pipeline: PipelineConfig {
                close_after: 32,
                batch_max: 48,
                ..base.pipeline
            },
            ..base
        }
    }
}

/// What the soak proved (serializable for CI artifacts).
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Well-formed records the writer produced.
    pub written_good: u64,
    /// Garbage lines the writer produced.
    pub written_bad: u64,
    /// Crash/recover cycles driven.
    pub cycles: u32,
    /// Stage restarts across all incarnations (tailer, trainer, publisher).
    pub restarts: (u32, u32, u32),
    /// Publishes across all incarnations (ok, failed, withheld, skipped).
    pub publishes: (u64, u64, u64, u64),
    /// Model versions actually installed in the registry.
    pub versions_installed: u64,
    /// Log compactions across all incarnations.
    pub compactions: u64,
    /// Largest live-log size observed at any cycle boundary.
    pub max_live_log_bytes: u64,
    /// The compaction budget the soak ran under.
    pub log_budget_bytes: u64,
    /// The live log never strayed past twice the budget — the disk
    /// stayed bounded while traffic kept growing. (The default combined
    /// scenario additionally asserts `compactions >= 3`, but a
    /// scaled-down run can be bounded with fewer.)
    pub disk_bounded: bool,
    /// Archive segments sealed across all incarnations.
    pub segments_sealed: u64,
    /// Archive segments expired under the retention policy.
    pub segments_expired: u64,
    /// Archive payload bytes reclaimed by expiry.
    pub bytes_reclaimed: u64,
    /// Bytes compacted away without landing durably in the archive
    /// (seal-degrade paths; 0 in a fault-recovered run).
    pub bytes_dropped: u64,
    /// Archive segments retained when the soak ended.
    pub segments_final: u64,
    /// Largest retained-segment count observed at any cycle boundary.
    pub max_archive_segments: u64,
    /// The segment budget the soak ran under.
    pub archive_max_segments: usize,
    /// Wall seconds spent in the verify-archive + restore pass.
    pub restore_verify_secs: f64,
    /// [`disk_bounded`](Self::disk_bounded) *and* the archive store held
    /// its retention budgets (with one segment of in-flight slack) at
    /// every observed cycle boundary — live log + archive together
    /// occupy bounded disk.
    pub disk_budget_held: bool,
    /// The archive's expired-prefix offset plus the retained archive
    /// payload plus the live payload exactly tiles the writer's
    /// ground-truth stream, and the per-incarnation reclaimed/dropped
    /// counters sum to exactly that offset — every expired byte
    /// accounted once, none twice.
    pub expiry_exact: bool,
    /// `verify-archive` passed and the restored `archive ++ live` stream
    /// is byte-identical to the ground-truth suffix from the expired-
    /// prefix boundary on.
    pub restore_identical: bool,
    /// The user-id universe (`users + extra_users`).
    pub universe: u32,
    /// Users whose first record arrived after the first cycle.
    pub users_midstream: u32,
    /// Rows the final model holds (> `users` proves growth).
    pub final_rows: usize,
    /// ≥ 20% of the universe appeared mid-stream and the model grew past
    /// the base graph.
    pub growth_ok: bool,
    /// The poisoned snapshot was withheld and no poisoned version was
    /// ever observed serving.
    pub quality_gate_held: bool,
    /// The final incarnation's ledger.
    pub reconciliation: Reconciliation,
    /// `applied + pending == written_good` and `quarantined == written_bad`.
    pub balanced: bool,
    /// The obs gauges agree with the ledger.
    pub gauges_consistent: bool,
    /// An uninterrupted fresh run over the reconstructed full stream
    /// produced the same [`inf2vec_serve::store_checksum`].
    pub bit_identical: bool,
    /// Every accepted record reconstructed to a complete causal chain
    /// (valid deterministic trace ids, fate agreeing with the ledger).
    pub trace_complete: bool,
}

impl SoakReport {
    /// Every invariant the soak exists to prove.
    pub fn passed(&self) -> bool {
        self.balanced
            && self.gauges_consistent
            && self.bit_identical
            && self.trace_complete
            && self.disk_bounded
            && self.disk_budget_held
            && self.expiry_exact
            && self.restore_identical
            && self.growth_ok
            && self.quality_gate_held
    }

    /// One-object JSON rendering (CI artifact).
    pub fn to_json(&self) -> String {
        let r = &self.reconciliation;
        format!(
            concat!(
                "{{\"written_good\":{},\"written_bad\":{},\"cycles\":{},",
                "\"restarts\":{{\"tail\":{},\"train\":{},\"publish\":{}}},",
                "\"publishes\":{{\"ok\":{},\"failed\":{},\"withheld\":{},\"skipped\":{}}},",
                "\"versions_installed\":{},",
                "\"compactions\":{},\"max_live_log_bytes\":{},\"log_budget_bytes\":{},",
                "\"disk_bounded\":{},",
                "\"archive\":{{\"segments_sealed\":{},\"segments_expired\":{},",
                "\"bytes_reclaimed\":{},\"bytes_dropped\":{},\"segments_final\":{},",
                "\"max_segments_observed\":{},\"max_segments_budget\":{},",
                "\"restore_verify_secs\":{:.6}}},",
                "\"disk_budget_held\":{},\"expiry_exact\":{},\"restore_identical\":{},",
                "\"universe\":{},\"users_midstream\":{},\"final_rows\":{},\"growth_ok\":{},",
                "\"quality_gate_held\":{},",
                "\"records\":{{\"seen\":{},\"applied\":{},\"quarantined\":{},\"pending\":{}}},",
                "\"episodes_applied\":{},\"pairs_applied\":{},",
                "\"store_checksum\":\"{:016x}\",",
                "\"balanced\":{},\"gauges_consistent\":{},\"bit_identical\":{},",
                "\"trace_complete\":{},\"passed\":{}}}"
            ),
            self.written_good,
            self.written_bad,
            self.cycles,
            self.restarts.0,
            self.restarts.1,
            self.restarts.2,
            self.publishes.0,
            self.publishes.1,
            self.publishes.2,
            self.publishes.3,
            self.versions_installed,
            self.compactions,
            self.max_live_log_bytes,
            self.log_budget_bytes,
            self.disk_bounded,
            self.segments_sealed,
            self.segments_expired,
            self.bytes_reclaimed,
            self.bytes_dropped,
            self.segments_final,
            self.max_archive_segments,
            self.archive_max_segments,
            self.restore_verify_secs,
            self.disk_budget_held,
            self.expiry_exact,
            self.restore_identical,
            self.universe,
            self.users_midstream,
            self.final_rows,
            self.growth_ok,
            self.quality_gate_held,
            r.records_seen,
            r.records_applied,
            r.records_quarantined,
            r.records_pending,
            r.episodes_applied,
            r.pairs_applied,
            r.store_checksum,
            self.balanced,
            self.gauges_consistent,
            self.bit_identical,
            self.trace_complete,
            self.passed(),
        )
    }
}

/// Deterministic traffic: interleaved cascades over a small item pool,
/// garbage lines on a schedule, torn (partial) lines at chunk seams, and
/// a user population that widens mid-stream once unlocked.
struct TrafficWriter {
    rng: Xoshiro256pp,
    /// Users currently eligible to appear (starts at the graph size).
    active_users: u32,
    /// The full id space (`users + extra_users`).
    universe: u32,
    cascade_len: u32,
    defect_every: u32,
    time: u64,
    lines: u64,
    good: u64,
    bad: u64,
    /// Per-user: has any record named this id yet?
    seen: Vec<bool>,
    /// The population has been widened to the full universe.
    unlocked: bool,
    /// Users whose first record arrived after the widening.
    midstream: u32,
    /// A partial line is pending completion: (tail to write, is_good).
    partial: Option<(String, bool)>,
}

impl TrafficWriter {
    fn new(cfg: &SoakConfig) -> Self {
        let universe = cfg.users + cfg.extra_users;
        Self {
            rng: Xoshiro256pp::new(split_seed(cfg.seed, 0x50AC)),
            active_users: cfg.users,
            universe,
            cascade_len: cfg.cascade_len.max(1),
            defect_every: cfg.defect_every,
            time: 0,
            lines: 0,
            good: 0,
            bad: 0,
            seen: vec![false; universe as usize],
            unlocked: false,
            midstream: 0,
            partial: None,
        }
    }

    /// Widens the user population to the full universe; users first seen
    /// from here on count as mid-stream arrivals (the growth axis).
    fn unlock_users(&mut self) {
        self.active_users = self.universe;
        self.unlocked = true;
    }

    fn mark_user(&mut self, user: u32) {
        if !self.seen[user as usize] {
            self.seen[user as usize] = true;
            if self.unlocked {
                self.midstream += 1;
            }
        }
    }

    fn append_chunk(
        &mut self,
        log: &Path,
        shadow: &Path,
        records: u32,
        tear_tail: bool,
    ) -> std::io::Result<()> {
        // Build the chunk once, append it to both the live log (what the
        // pipeline consumes and compacts) and the shadow log (the
        // untouched ground-truth stream the restore/bit-identity gates
        // compare against). Torn tails land identically in both.
        let mut buf: Vec<u8> = Vec::new();
        if let Some((tail, good)) = self.partial.take() {
            // Complete the line the previous chunk tore; only now does it
            // become a record (or a quarantined defect).
            writeln!(buf, "{tail}")?;
            if good {
                self.good += 1;
            } else {
                self.bad += 1;
            }
        }
        for i in 0..records {
            self.lines += 1;
            self.time += 1;
            let torn = tear_tail && i + 1 == records;
            if self.defect_every > 0 && self.lines.is_multiple_of(self.defect_every as u64) {
                // Garbage on schedule: torn garbage stays garbage once
                // completed, so the ledger is decided at completion time.
                if torn {
                    write!(buf, "corrupt")?;
                    self.partial = Some(("ed tail <<>>".into(), false));
                } else {
                    writeln!(buf, "garbage line {}", self.lines)?;
                    self.bad += 1;
                }
                continue;
            }
            // Cascades: each item spans ~cascade_len lines, with a ±1
            // group jitter so two cascades interleave; once the line
            // counter moves past an item's span it goes quiet and the
            // pipeline's close_after threshold can retire it.
            let user = self.rng.below(self.active_users as u64) as u32;
            self.mark_user(user);
            let group = self.lines / self.cascade_len as u64;
            let item = (group + self.rng.below(2)) as u32;
            if torn {
                write!(buf, "{user} {item}")?;
                self.partial = Some((format!(" {}", self.time), true));
            } else {
                writeln!(buf, "{user} {item} {}", self.time)?;
                self.good += 1;
            }
        }
        for path in [log, shadow] {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            f.write_all(&buf)?;
            f.flush()?;
        }
        Ok(())
    }

    /// Completes any pending partial line (end of traffic).
    fn finish(&mut self, log: &Path, shadow: &Path) -> std::io::Result<()> {
        self.append_chunk(log, shadow, 0, false)
    }
}

/// Ring-with-shortcuts social graph: every user influences the next two.
fn soak_graph(users: u32) -> Arc<DiGraph> {
    let mut b = GraphBuilder::with_nodes(users);
    for i in 0..users {
        b.add_edge(NodeId(i), NodeId((i + 1) % users));
        b.add_edge(NodeId(i), NodeId((i + 3) % users));
    }
    Arc::new(b.build())
}

/// The per-cycle fault schedule: early cycles exercise every fault class,
/// later cycles run clean so the pipeline also proves it can catch up.
fn fault_plan_for(cycle: u32) -> Arc<FaultPlan> {
    Arc::new(match cycle {
        // Exhausting the first snapshot's whole retry chain (default
        // publish_max_attempts = 4) proves graceful degradation.
        0 => FaultPlan::none()
            .with(Fault::TailerPanic, [20])
            .with(Fault::PublishAttempt, [1, 2, 3, 4]),
        // A transient journal disk fault (attempt 3 fails, the in-place
        // retry succeeds) on top of trainer panics and a torn slot.
        1 => FaultPlan::none()
            .with(Fault::TrainerPanic, [1, 3])
            .with(Fault::JournalTruncate, [2])
            .with(Fault::JournalWrite, [3]),
        // Disk faults on the maintenance paths: the first compaction
        // attempt, the first archive segment seal, and the first
        // snapshot-export attempt all fail ENOSPC-style and must be
        // retried in place, while the publisher also panics and slows.
        2 => FaultPlan::none()
            .with(Fault::PublisherPanic, [1])
            .with_publish_delay(Duration::from_millis(2))
            .with(Fault::TailerPanic, [40])
            .with(Fault::Compaction, [1])
            .with(Fault::ArchiveSeal, [1])
            .with(Fault::SnapshotWrite, [1]),
        // The semantic attack: the first snapshot of this incarnation has
        // intact bits but inverted rankings — only the quality gate can
        // catch it. Plus one journal write whose whole retry chain
        // (disk_max_attempts = 3 → attempts 4,5,6) exhausts: the commit
        // is skipped and training must continue on a wider replay window.
        // And the first archive-expiry manifest commit fails mid-write:
        // the old boundary survives and the retry must land.
        3 => FaultPlan::none()
            .with(Fault::PoisonSnapshot, [1])
            .with(Fault::JournalWrite, [4, 5, 6])
            .with(Fault::ArchiveExpiry, [1]),
        _ => FaultPlan::none(),
    })
}

fn gauge(snapshot: &inf2vec_obs::Snapshot, name: &str) -> Option<u64> {
    match snapshot.get(name)?.value {
        SampleValue::Gauge(v) => Some(v as u64),
        _ => None,
    }
}

fn log_len(log: &Path) -> u64 {
    std::fs::metadata(log).map(|m| m.len()).unwrap_or(0)
}

/// Folds one incarnation's archive counters into the running total.
fn accumulate(total: &mut ArchiveCounters, inc: ArchiveCounters) {
    total.compactions += inc.compactions;
    total.segments_sealed += inc.segments_sealed;
    total.segments_expired += inc.segments_expired;
    total.bytes_sealed += inc.bytes_sealed;
    total.bytes_reclaimed += inc.bytes_reclaimed;
    total.bytes_dropped += inc.bytes_dropped;
}

/// Runs the full soak in `workdir` (created if missing; the log, the
/// shadow ground-truth log, the segmented archive directory, both journal
/// directories, the snapshot-export directory, and the restored/verify
/// logs live there).
pub fn run_soak(cfg: &SoakConfig, workdir: &Path) -> Result<SoakReport, Inf2vecError> {
    std::fs::create_dir_all(workdir)?;
    let log = workdir.join("actions.log");
    let shadow = workdir.join("shadow.log");
    let journal_dir = workdir.join("journal");
    // A stale workdir would double-count traffic: start clean.
    let _ = std::fs::remove_file(&log);
    let _ = std::fs::remove_file(&shadow);
    let _ = std::fs::remove_dir_all(archive_dir(&log));
    let _ = std::fs::remove_file(workdir.join("verify.log"));
    let _ = std::fs::remove_file(workdir.join("restored.log"));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(workdir.join("journal-verify"));
    let _ = std::fs::remove_dir_all(workdir.join("snapshots"));

    let universe = cfg.users + cfg.extra_users;
    let mut pipe_cfg = cfg.pipeline.clone();
    pipe_cfg.inf2vec.seed = cfg.seed;
    pipe_cfg.user_capacity = universe as usize;
    pipe_cfg.log_budget_bytes = cfg.log_budget_bytes;
    pipe_cfg.archive_max_segments = cfg.archive_max_segments;
    pipe_cfg.archive_max_bytes = cfg.archive_max_bytes;
    pipe_cfg.probe_pairs = cfg.probe_pairs;
    pipe_cfg.snapshot_dir = Some(workdir.join("snapshots"));
    // Tee the pipeline's event stream into a memory sink so the harness
    // can reconstruct causal traces afterwards — without stealing the
    // stream from whatever recorder the caller configured. The crash
    // cycles always run with telemetry on; the bit-identity verify run
    // below runs with it off, so the soak also proves tracing does not
    // perturb training.
    let mem = Arc::new(inf2vec_obs::MemorySink::new());
    let recorder: Arc<dyn inf2vec_obs::Recorder> = match pipe_cfg.telemetry.recorder() {
        Some(r) => Arc::new(inf2vec_obs::TeeRecorder::new(
            r,
            Arc::clone(&mem) as Arc<dyn inf2vec_obs::Recorder>,
        )),
        None => Arc::clone(&mem) as Arc<dyn inf2vec_obs::Recorder>,
    };
    // `fork_recorder` keeps the caller's registry (and flight ring) live,
    // so an introspection endpoint started on the caller's handle keeps
    // seeing the pipeline's metrics while the soak runs.
    pipe_cfg.telemetry = pipe_cfg.telemetry.fork_recorder(recorder);
    let telemetry = pipe_cfg.telemetry.clone();
    let graph = soak_graph(cfg.users);
    let registry = Arc::new(ModelRegistry::new(Some(pipe_cfg.inf2vec.k)));
    let sink = Arc::new(RegistrySink::new(Arc::clone(&registry)));

    let mut writer = TrafficWriter::new(cfg);
    let min_cycles = cfg.cycles.max(4);
    let started = Instant::now();
    let mut restarts = (0u32, 0u32, 0u32);
    let mut publishes = (0u64, 0u64, 0u64, 0u64);
    let mut max_live = 0u64;
    let mut poisoned_served = false;
    let mut arch = ArchiveCounters::default();
    let mut max_archive_segments = 0u64;
    let mut budget_held = true;
    let mut track = |r: &Reconciliation| {
        restarts.0 += r.restarts.0;
        restarts.1 += r.restarts.1;
        restarts.2 += r.restarts.2;
        publishes.0 += r.publishes_ok;
        publishes.1 += r.publishes_failed;
        publishes.2 += r.publishes_withheld;
        publishes.3 += r.publishes_skipped;
    };

    let mut cycle = 0u32;
    loop {
        // Wall-clock mode keeps cycling (and re-playing the fault
        // schedule) until the requested real time has elapsed; the
        // accelerated mode runs exactly `cycles` chunks.
        let keep_going = cycle < min_cycles
            || cfg.wall_clock.is_some_and(|d| started.elapsed() < d);
        if !keep_going {
            break;
        }
        if cycle == 1 {
            // Users beyond the graph start arriving from the second chunk:
            // the model's row space must grow mid-stream, across crashes.
            writer.unlock_users();
        }
        writer.append_chunk(
            &log,
            &shadow,
            cfg.records_per_chunk,
            cycle.is_multiple_of(2),
        )?;
        let mut p = Pipeline::with_runtime(
            pipe_cfg.clone(),
            &log,
            &journal_dir,
            Arc::clone(&graph),
            Arc::clone(&sink) as Arc<dyn crate::publish::PublishSink>,
            system_clock(),
            fault_plan_for(cycle % 6),
        )?;
        p.run_until_idle()?;
        // Simulated hard crash: stop the stages without a final journal
        // commit (recovery replays from the last batch boundary). The
        // join settles in-flight publish accounting before we read it.
        p.crash();
        track(&p.reconciliation());
        accumulate(&mut arch, p.log_store().counters());
        if let Some(store) = p.log_store().archive() {
            let n = store.segments().len() as u64;
            max_archive_segments = max_archive_segments.max(n);
            // One segment of slack: a boundary that sealed but degraded
            // before its expiry step (injected compaction fault) shows
            // budget+1 until the next boundary catches up.
            if cfg.archive_max_segments > 0 && n as usize > cfg.archive_max_segments + 1 {
                budget_held = false;
            }
            if cfg.archive_max_bytes > 0
                && store.payload_bytes() > cfg.archive_max_bytes.saturating_mul(2)
            {
                budget_held = false;
            }
        }
        max_live = max_live.max(log_len(&log));
        if let Some(v) = registry.current() {
            // A poisoned snapshot must never reach the serving path.
            poisoned_served |= v.label().ends_with("-poisoned");
        }
        telemetry.emit(
            inf2vec_obs::Event::new("soak.cycle")
                .u64("cycle", cycle as u64)
                .u64("episodes", p.episodes_applied())
                .u64("offset", p.position().offset),
        );
        drop(p);
        if cfg.wall_clock.is_some() {
            std::thread::sleep(cfg.wall_clock_pause);
        }
        cycle += 1;
    }
    let cycles = cycle;

    // Final incarnation: complete torn traffic, drain, stop gracefully.
    writer.finish(&log, &shadow)?;
    let mut p = Pipeline::with_runtime(
        pipe_cfg.clone(),
        &log,
        &journal_dir,
        Arc::clone(&graph),
        Arc::clone(&sink) as Arc<dyn crate::publish::PublishSink>,
        system_clock(),
        Arc::new(FaultPlan::none()),
    )?;
    p.run_until_idle()?;
    p.drain_open_episodes()?;
    p.shutdown()?;
    let recon = p.reconciliation();
    track(&recon);
    accumulate(&mut arch, p.log_store().counters());
    max_live = max_live.max(log_len(&log));
    let final_rows = p.model_rows();
    if let Some(v) = registry.current() {
        poisoned_served |= v.label().ends_with("-poisoned");
    }
    let balanced = recon.balances(writer.good, writer.bad);

    // Disk boundedness: the live log never strayed past twice the budget
    // (one uncompacted in-flight chunk of slack). Whether compaction
    // fired *often enough* is scenario-dependent — the default combined
    // scenario asserts `compactions >= 3` on top of this.
    let disk_bounded =
        cfg.log_budget_bytes == 0 || max_live <= cfg.log_budget_bytes.saturating_mul(2);

    // Growth: a fifth of the universe arrived mid-stream and the model's
    // row space followed them past the base graph.
    let growth_ok = cfg.extra_users == 0
        || (u64::from(writer.midstream) * 5 >= u64::from(universe)
            && final_rows > cfg.users as usize);

    // Quality gate: the poisoned snapshot was withheld, nothing poisoned
    // was ever observed serving, and a model is still being served.
    let quality_gate_held = cfg.probe_pairs == 0
        || (publishes.2 >= 1 && !poisoned_served && registry.current().is_some());

    // Cross-check the ledger against the exported gauges.
    let snap = telemetry.snapshot();
    let gauges_consistent = !telemetry.enabled()
        || (gauge(&snap, "inf2vec_pipeline_records_applied") == Some(recon.records_applied)
            && gauge(&snap, "inf2vec_pipeline_records_quarantined")
                == Some(recon.records_quarantined)
            && gauge(&snap, "inf2vec_pipeline_records_pending") == Some(recon.records_pending));

    // Causal-trace completeness: replay the teed event stream into a
    // TraceIndex and require every accepted record to reconstruct with
    // valid deterministic ids and a fate agreeing with the ledger.
    let events = mem.events();
    let idx = crate::trace::TraceIndex::from_events(&events);
    let (indexed, applied, pending, quarantined) = idx.counts();
    let trace_complete = idx.chain_complete(cfg.seed).is_ok()
        && indexed == recon.records_seen
        && applied == recon.records_applied
        && pending == recon.records_pending
        && quarantined == recon.records_quarantined;

    // Archive verify + restore, judged against the shadow log — the
    // writer's untouched ground-truth byte stream. Three gates come out
    // of this pass:
    //
    // - `restore_identical`: deep-verify passes and the restored
    //   `archive ++ live` payload is byte-identical to the ground truth
    //   from the expired-prefix boundary on;
    // - `expiry_exact`: boundary + archived + live exactly tiles the
    //   ground-truth stream, and the reclaimed/dropped counters sum to
    //   exactly the boundary (every expired byte accounted once);
    // - `bit_identical` (below): the fresh run consumes the *restored*
    //   bytes, so bit-identity is proven through the restore path.
    let shadow_bytes = std::fs::read(&shadow)?;
    let restore_started = Instant::now();
    let store = ArchiveStore::open(archive_dir(&log))?;
    let restored_path = workdir.join("restored.log");
    let verify_ok = store.verify(Some(&log)).is_ok();
    let restore_res = store.restore_to(&log, &restored_path);
    let restore_verify_secs = restore_started.elapsed().as_secs_f64();
    let segments_final = store.segments().len() as u64;
    max_archive_segments = max_archive_segments.max(segments_final);
    if cfg.archive_max_segments > 0 && segments_final as usize > cfg.archive_max_segments + 1 {
        budget_held = false;
    }
    let verify_log = workdir.join("verify.log");
    let (restore_identical, expiry_exact) = match &restore_res {
        Ok(stats) => {
            let restored = std::fs::read(&restored_path)?;
            let payload = &restored[stats.sentinel_len as usize..];
            let start = (stats.start_offset as usize).min(shadow_bytes.len());
            let identical = verify_ok
                && stats.start_offset as usize == start
                && payload == &shadow_bytes[start..];
            let tiles = stats.start_offset + stats.archived_bytes + stats.live_bytes
                == shadow_bytes.len() as u64;
            let counted =
                arch.bytes_reclaimed + arch.bytes_dropped == stats.start_offset;
            // The verify log: ground-truth prefix below the boundary,
            // then literally the restored bytes.
            let mut full = shadow_bytes[..start].to_vec();
            full.extend_from_slice(payload);
            std::fs::write(&verify_log, full)?;
            (identical, tiles && counted)
        }
        Err(_) => {
            // Restore failed (gate already lost): fall back to the
            // ground truth so the bit-identity run still reports.
            std::fs::write(&verify_log, &shadow_bytes)?;
            (false, false)
        }
    };
    let disk_budget_held = disk_bounded && budget_held;
    let verify_registry = Arc::new(ModelRegistry::new(Some(pipe_cfg.inf2vec.k)));
    let mut verify_cfg = pipe_cfg.clone();
    verify_cfg.telemetry = inf2vec_obs::Telemetry::disabled();
    verify_cfg.log_budget_bytes = 0;
    verify_cfg.probe_pairs = 0;
    verify_cfg.snapshot_dir = None;
    let mut q = Pipeline::with_runtime(
        verify_cfg,
        &verify_log,
        workdir.join("journal-verify"),
        Arc::clone(&graph),
        Arc::new(RegistrySink::new(verify_registry)) as Arc<dyn crate::publish::PublishSink>,
        system_clock(),
        Arc::new(FaultPlan::none()),
    )?;
    q.run_until_idle()?;
    q.drain_open_episodes()?;
    q.shutdown()?;
    let bit_identical = q.reconciliation().store_checksum == recon.store_checksum
        && q.model_rows() == final_rows;

    Ok(SoakReport {
        written_good: writer.good,
        written_bad: writer.bad,
        cycles,
        restarts,
        publishes,
        versions_installed: registry.installed_count(),
        compactions: arch.compactions,
        max_live_log_bytes: max_live,
        log_budget_bytes: cfg.log_budget_bytes,
        disk_bounded,
        segments_sealed: arch.segments_sealed,
        segments_expired: arch.segments_expired,
        bytes_reclaimed: arch.bytes_reclaimed,
        bytes_dropped: arch.bytes_dropped,
        segments_final,
        max_archive_segments,
        archive_max_segments: cfg.archive_max_segments,
        restore_verify_secs,
        disk_budget_held,
        expiry_exact,
        restore_identical,
        universe,
        users_midstream: writer.midstream,
        final_rows,
        growth_ok,
        quality_gate_held,
        reconciliation: recon,
        balanced,
        gauges_consistent,
        bit_identical,
        trace_complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tmp_dir;

    #[test]
    fn soak_reconciles_exactly_and_replays_bit_identically() {
        let dir = tmp_dir("soak");
        let cfg = SoakConfig {
            pipeline: PipelineConfig {
                telemetry: inf2vec_obs::Telemetry::with_registry(),
                ..SoakConfig::default().pipeline
            },
            ..SoakConfig::default()
        };
        let report = run_soak(&cfg, &dir).unwrap();
        assert!(
            report.balanced,
            "every record in exactly one bucket: {}",
            report.to_json()
        );
        assert!(report.gauges_consistent, "{}", report.to_json());
        assert!(report.bit_identical, "{}", report.to_json());
        assert!(
            report.trace_complete,
            "every applied record needs a complete trace chain: {}",
            report.to_json()
        );
        let (tail, train, publish) = report.restarts;
        assert!(
            tail >= 1 && train >= 1 && publish >= 1,
            "every restart class must actually fire: {}",
            report.to_json()
        );
        assert!(report.publishes.1 >= 1, "a publish retry chain must exhaust");
        assert!(report.versions_installed >= 1, "live registry took installs");
        assert!(report.written_bad > 0, "defect traffic present");
        assert!(
            report.compactions >= 3 && report.disk_bounded,
            "the live log must stay under budget via compaction: {}",
            report.to_json()
        );
        assert!(
            report.segments_sealed >= 3 && report.segments_expired >= 1,
            "the archive must seal and the retention policy must fire: {}",
            report.to_json()
        );
        assert!(
            report.disk_budget_held && report.expiry_exact && report.restore_identical,
            "archive budgets held, expiry accounted exactly, restore identical: {}",
            report.to_json()
        );
        assert_eq!(report.bytes_dropped, 0, "all seal faults were recovered in place");
        assert!(
            report.growth_ok && report.final_rows > cfg.users as usize,
            "mid-stream users must grow the model: {}",
            report.to_json()
        );
        assert!(
            report.publishes.2 >= 1 && report.quality_gate_held,
            "the poisoned snapshot must be withheld: {}",
            report.to_json()
        );
        assert!(report.passed());
    }

    /// Wall-clock mode keeps cycling against real time and still passes
    /// every gate (scaled way down: a fraction of a second of real time).
    #[test]
    fn wall_clock_mode_cycles_until_elapsed() {
        let dir = tmp_dir("soak-wallclock");
        let cfg = SoakConfig {
            records_per_chunk: 60,
            wall_clock: Some(Duration::from_millis(300)),
            wall_clock_pause: Duration::from_millis(20),
            ..SoakConfig::default()
        };
        let report = run_soak(&cfg, &dir).unwrap();
        assert!(report.cycles >= 4, "at least the minimum cycles ran");
        assert!(
            report.passed(),
            "wall-clock soak holds every gate: {}",
            report.to_json()
        );
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let dir = tmp_dir("soak-json");
        let report = run_soak(
            &SoakConfig {
                cycles: 4,
                records_per_chunk: 60,
                ..SoakConfig::default()
            },
            &dir,
        )
        .unwrap();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"bit_identical\":true"), "{json}");
        assert!(json.contains("\"compactions\":"), "{json}");
        assert!(json.contains("\"withheld\":"), "{json}");
    }
}

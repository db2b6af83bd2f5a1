//! The pipeline runtime: the trainer loop, its helper threads,
//! supervision, exactly-once replay.
//!
//! One loop on the caller's thread, two helper threads:
//!
//! - **trainer** (the caller's thread, inside
//!   [`Pipeline::run_until_idle`]): polls the action log via [`LogTail`],
//!   folds each batch's records into open episodes, closes episodes that
//!   have gone quiet, applies their pairs to the online model, and
//!   journals progress at batch boundaries. It returns after the first
//!   poll that finds no new complete line.
//! - **journal writer** (one thread per commit): writes the trainer's
//!   snapshot into its slot while the trainer goes on training. At most
//!   one commit is in flight; the trainer *settles* it (joins the writer,
//!   then advances the round and has the [`LogStore`] compact) before it
//!   starts the next one and before any public call returns, so a caller
//!   only ever sees the journal the synchronous write would have left.
//! - **publisher** (thread): receives model snapshots over a capacity-1
//!   channel and installs them into the sink with retry + backoff.
//!
//! # Exactly-once across crashes
//!
//! The journal commits `(tail position, counters, open episodes, online
//! state)` atomically, only at batch boundaries. After a crash anywhere,
//! recovery loads the newest valid journal and re-tails the log from the
//! committed position; every downstream decision — when an episode
//! closes, which contexts its pairs sample, which negatives each pair
//! draws, how rows initialize — is a pure function of that journaled
//! state and the log bytes, so the replayed run is bit-identical to an
//! uninterrupted one. Batch boundaries may fall differently on replay;
//! the state after consuming any given record does not.
//!
//! # Supervision
//!
//! Each stage has a restart budget. A panic while polling the log is
//! caught on the trainer's thread and counted as a `tail` restart; the
//! tail resumes at the trainer's committed position. A panicked trainer
//! is rebuilt from the journal and the tail resumes at the rebuilt
//! position, so the half-applied batch is re-read, never double-applied.
//! A dead publisher is respawned and at most the single in-flight
//! snapshot is lost (counted as skipped). Exhausting a budget escalates
//! to [`PipelineError::StageFailed`]. A log the tail cannot read at its
//! committed position (truncated, rotated past it, an I/O error) is
//! counted and returned as the typed [`IngestError`].

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use inf2vec_diffusion::{Episode, ItemId};
use inf2vec_embed::{EmbeddingStore, OnlineSgns};
use inf2vec_graph::{DiGraph, NodeId};
use inf2vec_ingest::{LogStore, LogStoreConfig, LogTail, RetentionPolicy, TailItem, TailPosition};
use inf2vec_obs::{Event, Telemetry, TraceCtx};
use inf2vec_serve::store_checksum;
use inf2vec_util::error::{Inf2vecError, IngestError, PipelineError};
use inf2vec_util::faultinject::{Fault, FaultPlan};
use inf2vec_util::{retry, system_clock, FxHashMap, SharedClock};

use crate::config::PipelineConfig;
use crate::journal::{self, check_shape, Journal, JournalState, OpenItemState};
use crate::publish::{
    export_snapshot, poison_snapshot, publish_with_retry, PublishCounters, PublishSink, Snapshot,
};
use crate::quality::{ProbeSet, QualityGate};

/// A running publisher thread. Dropping closes the channel and joins:
/// the publisher finishes (or abandons, per retry budget) what it holds.
struct PublisherHandle {
    tx: Option<SyncSender<Snapshot>>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for PublisherHandle {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A journal commit whose writer thread may still be running: the
/// committed position and the writer, which yields the slot it wrote
/// (`None` once every retry attempt failed).
struct InFlightCommit {
    pos: TailPosition,
    writer: JoinHandle<Option<PathBuf>>,
}

/// One still-assembling episode.
#[derive(Debug, Default)]
struct OpenItem {
    /// Per-user earliest activation `(time, arrival seq)`.
    users: FxHashMap<u32, (u64, u64)>,
    /// Accepted-record sequence of the most recent activity.
    last_seq: u64,
    /// Accepted records folded in (retired together when the item closes).
    folded: u64,
}

/// The trainer stage: episode assembly + online SGNS + counters. All of
/// its state round-trips through [`JournalState`].
struct Trainer {
    online: OnlineSgns,
    open: BTreeMap<u32, OpenItem>,
    pos: TailPosition,
    records_seen: u64,
    records_applied: u64,
    quarantined: u64,
    /// Exponential moving average of episode loss. Observability only —
    /// deliberately *not* journaled, so it never feeds back into training
    /// and a post-recovery reset is harmless.
    loss_ema: Option<f64>,
}

impl Trainer {
    /// Rebuilds a trainer from a journal snapshot (or fresh when `None`).
    /// Returns the trainer and the next journal round. `n` is the base
    /// row count (the social graph); a journal may hold anywhere in
    /// `[n, universe]` rows — the row space it had grown to when written.
    fn from_journal(
        loaded: Option<JournalState>,
        cfg: &PipelineConfig,
        n: usize,
        universe: usize,
        k: usize,
    ) -> Result<(Self, u64), Inf2vecError> {
        match loaded {
            None => Ok((
                Self {
                    online: OnlineSgns::new(n, k, cfg.online.clone(), cfg.seed()),
                    open: BTreeMap::new(),
                    pos: TailPosition::default(),
                    records_seen: 0,
                    records_applied: 0,
                    quarantined: 0,
                    loss_ema: None,
                },
                0,
            )),
            Some(s) => {
                check_shape(&s, n, universe, k)?;
                let online = OnlineSgns::from_state(s.online, cfg.online.clone(), cfg.seed())
                    .map_err(|e| {
                        Inf2vecError::from(PipelineError::JournalMismatch {
                            detail: e.to_string(),
                        })
                    })?;
                let open = s
                    .open
                    .into_iter()
                    .map(|it| {
                        (
                            it.item,
                            OpenItem {
                                users: it.users.iter().map(|&(u, t, q)| (u, (t, q))).collect(),
                                last_seq: it.last_seq,
                                folded: it.folded,
                            },
                        )
                    })
                    .collect();
                Ok((
                    Self {
                        online,
                        open,
                        pos: s.pos,
                        records_seen: s.records_seen,
                        records_applied: s.records_applied,
                        quarantined: s.quarantined,
                        loss_ema: None,
                    },
                    s.round + 1,
                ))
            }
        }
    }

    /// The persistable snapshot for journal round `round`.
    fn to_state(&self, round: u64) -> JournalState {
        let open = self
            .open
            .iter()
            .map(|(&item, it)| {
                let mut users: Vec<(u32, u64, u64)> =
                    it.users.iter().map(|(&u, &(t, q))| (u, t, q)).collect();
                users.sort_unstable();
                OpenItemState {
                    item,
                    last_seq: it.last_seq,
                    folded: it.folded,
                    users,
                }
            })
            .collect();
        JournalState {
            round,
            pos: self.pos,
            records_seen: self.records_seen,
            records_applied: self.records_applied,
            quarantined: self.quarantined,
            open,
            online: self.online.state().clone(),
        }
    }

    /// Applies one tailed batch: fold records, quarantine defects, close
    /// episodes that went quiet, commit the new position.
    fn apply_batch(
        &mut self,
        items: Vec<TailItem>,
        pos_after: TailPosition,
        cfg: &PipelineConfig,
        graph: &DiGraph,
        faults: &FaultPlan,
    ) {
        for item in items {
            match item {
                TailItem::Record(r) => {
                    self.records_seen += 1;
                    let seq = self.records_seen;
                    cfg.telemetry.count("inf2vec_pipeline_records_total", 1);
                    // Root span of this record's causal chain. The id is a
                    // pure function of (seed, seq) and seq is journaled, so
                    // a post-crash replay re-stamps identical ids.
                    cfg.telemetry.emit_with(|| {
                        TraceCtx::for_record(cfg.seed(), seq).stamp(
                            Event::new("trace.accept")
                                .u64("seq", seq)
                                .u64("line", r.line_no)
                                .u64("user", r.user as u64)
                                .u64("item", r.item as u64)
                                .u64("time", r.time),
                        )
                    });
                    let entry = self.open.entry(r.item).or_default();
                    // Earliest activation per user wins; ties keep the
                    // first arrival (same semantics as batch assembly).
                    let slot = entry.users.entry(r.user).or_insert((r.time, seq));
                    if r.time < slot.0 {
                        *slot = (r.time, seq);
                    }
                    entry.folded += 1;
                    entry.last_seq = seq;
                    self.close_due(cfg, graph, faults);
                }
                TailItem::Defect { kind, line_no, .. } => {
                    self.quarantined += 1;
                    cfg.telemetry.count_with(
                        "inf2vec_pipeline_quarantined_total",
                        &[("kind", kind.name())],
                        1,
                    );
                    cfg.telemetry.emit_with(|| {
                        TraceCtx::for_defect(cfg.seed(), line_no).stamp(
                            Event::new("pipeline.quarantine")
                                .u64("line", line_no)
                                .str("kind", kind.name()),
                        )
                    });
                }
            }
        }
        self.pos = pos_after;
    }

    /// Closes (in ascending item order, so replay closes identically)
    /// every open episode whose last activity is `close_after` accepted
    /// records in the past.
    fn close_due(&mut self, cfg: &PipelineConfig, graph: &DiGraph, faults: &FaultPlan) {
        let close_after = cfg.close_after.max(1);
        let due: Vec<u32> = self
            .open
            .iter()
            .filter(|(_, it)| self.records_seen - it.last_seq >= close_after)
            .map(|(&item, _)| item)
            .collect();
        for item in due {
            let it = self.open.remove(&item).expect("due item is open");
            self.close_item(item, it, cfg, graph, faults);
        }
    }

    /// Closes all open episodes immediately (used for final drain when
    /// the log is known complete, e.g. end of a soak).
    fn close_all(&mut self, cfg: &PipelineConfig, graph: &DiGraph, faults: &FaultPlan) {
        while let Some((&item, _)) = self.open.iter().next() {
            let it = self.open.remove(&item).expect("item is open");
            self.close_item(item, it, cfg, graph, faults);
        }
    }

    fn close_item(
        &mut self,
        item: u32,
        it: OpenItem,
        cfg: &PipelineConfig,
        graph: &DiGraph,
        faults: &FaultPlan,
    ) {
        // The injected panic fires *before* the model mutates: the
        // journal still describes the pre-episode state, and replay
        // closes this episode again, this time applying it.
        if faults.tick(Fault::TrainerPanic) {
            panic!("injected trainer panic at episode close (item {item})");
        }
        let mut acts: Vec<(u64, u64, u32)> =
            it.users.iter().map(|(&u, &(t, q))| (t, q, u)).collect();
        acts.sort_unstable();
        let episode = Episode::new(
            ItemId(item),
            acts.iter().map(|&(t, _, u)| (NodeId(u), t)).collect(),
        );
        let episode_seq = self.online.episodes_applied();
        let (pairs, stats) = inf2vec_core::episode_pairs(graph, &episode, &cfg.inf2vec, episode_seq);
        let builds_before = self.online.sampler_builds();
        let loss = self.online.apply_episode(episode_seq, &pairs);
        let builds = self.online.sampler_builds() - builds_before;
        self.records_applied += it.folded;
        cfg.telemetry.count("inf2vec_pipeline_episodes_total", 1);
        if builds > 0 {
            cfg.telemetry
                .count("inf2vec_pipeline_sampler_builds_total", builds);
        }
        cfg.telemetry
            .count("inf2vec_pipeline_pairs_total", pairs.len() as u64);
        if !pairs.is_empty() {
            cfg.telemetry.observe("inf2vec_pipeline_episode_loss", loss);
            let ema = match self.loss_ema {
                None => loss,
                Some(prev) => 0.9 * prev + 0.1 * loss,
            };
            self.loss_ema = Some(ema);
            cfg.telemetry.gauge_set("inf2vec_pipeline_loss_ema", ema);
        }
        cfg.telemetry.emit_with(|| {
            TraceCtx::for_episode(cfg.seed(), episode_seq).stamp(
                Event::new("pipeline.episode")
                    .u64("item", item as u64)
                    .u64("seq", episode_seq)
                    .u64("users", episode.len() as u64)
                    .u64("pairs", pairs.len() as u64)
                    .u64("local", stats.local)
                    .u64("global", stats.global)
                    .f64("loss", loss),
            )
        });
    }
}

/// End-of-run accounting: every consumed record lands in exactly one of
/// `applied` / `quarantined` / `pending`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reconciliation {
    /// Well-formed records consumed from the log.
    pub records_seen: u64,
    /// Records whose episode closed and trained the model.
    pub records_applied: u64,
    /// Defective records quarantined.
    pub records_quarantined: u64,
    /// Records folded into episodes still open (awaiting quiet).
    pub records_pending: u64,
    /// Episodes applied to the model.
    pub episodes_applied: u64,
    /// Training pairs applied.
    pub pairs_applied: u64,
    /// Snapshots successfully published.
    pub publishes_ok: u64,
    /// Snapshots abandoned after exhausting retries.
    pub publishes_failed: u64,
    /// Snapshots withheld by the quality gate (probe regression).
    pub publishes_withheld: u64,
    /// Snapshot offers dropped (publisher busy or restarting).
    pub publishes_skipped: u64,
    /// Stage restarts consumed: (tailer, trainer, publisher).
    pub restarts: (u32, u32, u32),
    /// [`store_checksum`] of the current model (bit-identity witness).
    pub store_checksum: u64,
}

impl Reconciliation {
    /// The exactly-once ledger: `applied + pending == seen` and every
    /// seen/quarantined record matches what the writer produced.
    pub fn balances(&self, written_good: u64, written_bad: u64) -> bool {
        self.records_applied + self.records_pending == self.records_seen
            && self.records_seen == written_good
            && self.records_quarantined == written_bad
    }
}

/// The crash-recoverable continuous-learning pipeline.
pub struct Pipeline {
    cfg: PipelineConfig,
    clock: SharedClock,
    faults: Arc<FaultPlan>,
    graph: Arc<DiGraph>,
    sink: Arc<dyn PublishSink>,
    /// The action log and its archive.
    log: LogStore,
    /// The log's reader. Between polls it stands at the trainer's
    /// committed position.
    tail: LogTail,
    /// Where the flight recorder dumps on stage panics (`flight.jsonl`
    /// beside the journal slots).
    flight_path: PathBuf,
    journal: Journal,
    trainer: Trainer,
    round: u64,
    /// The user-id space the tail accepts and the row space may grow
    /// to: `max(graph nodes, cfg.user_capacity)`.
    universe: usize,
    /// Quality gate (`None` when `cfg.probe_pairs == 0`).
    gate: Option<Arc<QualityGate>>,
    /// The position committed by the *previous* successful journal write
    /// in this incarnation — the newest point both slots are guaranteed
    /// to be at or past, and therefore the compaction bound.
    prev_commit: Option<TailPosition>,
    /// The one journal commit that may be in flight.
    in_flight: Option<InFlightCommit>,
    publisher: Option<PublisherHandle>,
    counters: Arc<PublishCounters>,
    snapshots_offered: u64,
    batches_since_journal: u32,
    last_publish_episode: u64,
    tailer_restarts: u32,
    trainer_restarts: u32,
    publisher_restarts: u32,
}

impl Pipeline {
    /// Opens a pipeline over `log_path`, recovering from any journal in
    /// `journal_dir` (fresh start when none is readable).
    pub fn open(
        cfg: PipelineConfig,
        log_path: impl Into<PathBuf>,
        journal_dir: impl Into<PathBuf>,
        graph: Arc<DiGraph>,
        sink: Arc<dyn PublishSink>,
    ) -> Result<Self, Inf2vecError> {
        Self::with_runtime(
            cfg,
            log_path,
            journal_dir,
            graph,
            sink,
            system_clock(),
            Arc::new(FaultPlan::none()),
        )
    }

    /// [`Pipeline::open`] with an explicit clock and fault plan (tests,
    /// soak harness).
    pub fn with_runtime(
        cfg: PipelineConfig,
        log_path: impl Into<PathBuf>,
        journal_dir: impl Into<PathBuf>,
        graph: Arc<DiGraph>,
        sink: Arc<dyn PublishSink>,
        clock: SharedClock,
        faults: Arc<FaultPlan>,
    ) -> Result<Self, Inf2vecError> {
        cfg.inf2vec.validate()?;
        let journal_dir = journal_dir.into();
        let log = LogStore::new(
            log_path,
            LogStoreConfig {
                log_budget_bytes: cfg.log_budget_bytes,
                retention: RetentionPolicy {
                    max_bytes: cfg.archive_max_bytes,
                    max_segments: cfg.archive_max_segments,
                    max_age: cfg.archive_max_age,
                },
                disk_max_attempts: cfg.disk_max_attempts,
                disk_retry_backoff: cfg.disk_retry_backoff,
            },
            clock.clone(),
            Arc::clone(&faults),
            cfg.telemetry.clone(),
        );
        let flight_path = journal_dir.join("flight.jsonl");
        let journal = Journal::new(journal_dir)?;
        let n = graph.node_count() as usize;
        let universe = if cfg.user_capacity == 0 {
            n
        } else {
            cfg.user_capacity.max(n)
        };
        let k = cfg.inf2vec.k;
        let loaded = journal.load_latest()?;
        let recovered = loaded.is_some();
        if !recovered {
            log.require_origin()?;
        }
        let (trainer, round) = Trainer::from_journal(loaded, &cfg, n, universe, k)?;
        let gate = (cfg.probe_pairs > 0).then(|| {
            let gate = QualityGate::new(
                ProbeSet::build(&graph, cfg.seed(), cfg.probe_pairs),
                cfg.quality_budget,
            );
            // Seed the high-water mark from the *recovered* model, so a
            // poisoned first snapshot after a crash is still caught.
            let best = gate.observe(trainer.online.store());
            cfg.telemetry.gauge_set("inf2vec_pipeline_quality_probe", best);
            Arc::new(gate)
        });
        cfg.telemetry.emit(
            Event::new("pipeline.open")
                .u64("recovered", recovered as u64)
                .u64("round", round)
                .u64("offset", trainer.pos.offset)
                .u64("records", trainer.records_seen)
                .u64("episodes", trainer.online.episodes_applied())
                .u64("rows", trainer.online.store().len() as u64)
                .u64("universe", universe as u64),
        );
        let last_publish_episode = trainer.online.episodes_applied();
        let tail = open_tail(&log, universe, trainer.pos, &cfg.telemetry);
        Ok(Self {
            cfg,
            clock,
            faults,
            graph,
            sink,
            log,
            tail,
            flight_path,
            journal,
            trainer,
            round,
            universe,
            gate,
            prev_commit: None,
            in_flight: None,
            publisher: None,
            counters: Arc::new(PublishCounters::default()),
            snapshots_offered: 0,
            batches_since_journal: 0,
            last_publish_episode,
            tailer_restarts: 0,
            trainer_restarts: 0,
            publisher_restarts: 0,
        })
    }

    /// Polls the log and applies each batch until a poll finds no new
    /// complete line, then journals. A partial last line stays pending;
    /// records appended later are read by the next call. Supervises all
    /// stages while running. A log the tail cannot read at the committed
    /// position fails with the typed [`IngestError`]. Returns with the
    /// journal settled, on error too.
    pub fn run_until_idle(&mut self) -> Result<(), Inf2vecError> {
        if let Err(e) = self.consume_until_idle() {
            self.settle();
            return Err(e);
        }
        self.write_journal();
        Ok(())
    }

    fn consume_until_idle(&mut self) -> Result<(), Inf2vecError> {
        self.ensure_publisher();
        loop {
            let (tail, faults) = (&mut self.tail, &self.faults);
            let batch_max = self.cfg.batch_max.max(1);
            let polled = catch_unwind(AssertUnwindSafe(|| {
                let items = tail.poll(batch_max)?;
                // Fires before the batch is applied: the resumed tail
                // re-reads it.
                if !items.is_empty() && faults.tick_by(Fault::TailerPanic, items.len() as u64) {
                    panic!("injected tailer panic");
                }
                Ok(items)
            }));
            match polled {
                Ok(Ok(items)) if items.is_empty() => return Ok(()),
                Ok(Ok(items)) => self.handle_batch(items)?,
                Ok(Err(e)) => return Err(self.tail_error(e)),
                Err(payload) => self.restart_tail(panic_message(payload))?,
            }
        }
    }

    /// Counts and events a poll that cannot honor the committed position
    /// and resumes the tail there: a read that failed midway may have
    /// counted lines past its offset.
    fn tail_error(&mut self, e: IngestError) -> Inf2vecError {
        // Truncation/rotation are typed, not generic I/O: the committed
        // position is unservable and retrying cannot fix it — surface the
        // kind so operators see *which* contract the log's producer broke.
        let kind = match &e {
            IngestError::LogTruncated { .. } => "truncated",
            IngestError::LogRotated { .. } => "rotated",
            _ => "io",
        };
        let telemetry = &self.cfg.telemetry;
        telemetry.count_with(
            "inf2vec_pipeline_tail_io_errors_total",
            &[("kind", kind)],
            1,
        );
        telemetry.emit(
            Event::new("pipeline.tail_error")
                .str("kind", kind)
                .str("error", e.to_string()),
        );
        self.resume_tail();
        e.into()
    }

    /// Points the tail at the trainer's committed position.
    fn resume_tail(&mut self) {
        self.tail = open_tail(
            &self.log,
            self.universe,
            self.trainer.pos,
            &self.cfg.telemetry,
        );
    }

    /// Applies the batch the tail just polled.
    fn handle_batch(&mut self, items: Vec<TailItem>) -> Result<(), Inf2vecError> {
        let (trainer, pos_after) = (&mut self.trainer, self.tail.position());
        let (cfg, graph, faults) = (&self.cfg, &self.graph, &self.faults);
        let result = catch_unwind(AssertUnwindSafe(|| {
            trainer.apply_batch(items, pos_after, cfg, graph, faults)
        }));
        match result {
            Ok(()) => {
                self.batches_since_journal += 1;
                if self.batches_since_journal >= self.cfg.journal_every_batches.max(1) {
                    self.begin_commit();
                }
                self.maybe_publish()
            }
            Err(payload) => self.recover_trainer(panic_message(payload)),
        }
    }

    /// Trainer panicked mid-batch: its in-memory state is suspect, so
    /// rebuild it from the journal and resume the tail at the journaled
    /// position, which re-reads the half-applied batch.
    fn recover_trainer(&mut self, message: String) -> Result<(), Inf2vecError> {
        // The rebuild reads the journal, and the commit in flight belongs
        // to the batches before the panic.
        self.settle();
        // Dump *before* emitting the restart event: the last line of the
        // flight file must be an event that preceded the panic site.
        self.dump_flight_postmortem("trainer_panic");
        self.trainer_restarts += 1;
        self.cfg.telemetry.emit(
            Event::new("pipeline.stage_restart")
                .str("stage", "train")
                .u64("restarts", self.trainer_restarts as u64)
                .str("panic", message.clone()),
        );
        self.count_restart("train", self.trainer_restarts, message)?;
        let loaded = self.journal.load_latest()?;
        let n = self.graph.node_count() as usize;
        let (trainer, round) =
            Trainer::from_journal(loaded, &self.cfg, n, self.universe, self.cfg.inf2vec.k)?;
        self.trainer = trainer;
        self.round = round;
        self.batches_since_journal = 0;
        self.last_publish_episode = self.trainer.online.episodes_applied();
        self.resume_tail();
        Ok(())
    }

    /// A poll panicked: the tail's position is suspect, so resume it at
    /// the trainer's committed position.
    fn restart_tail(&mut self, message: String) -> Result<(), Inf2vecError> {
        self.dump_flight_postmortem("tailer_death");
        self.tailer_restarts += 1;
        self.count_restart("tail", self.tailer_restarts, message)?;
        self.resume_tail();
        Ok(())
    }

    fn restart_publisher(&mut self) -> Result<(), Inf2vecError> {
        self.dump_flight_postmortem("publisher_death");
        self.publisher_restarts += 1;
        let message = "publisher thread died".to_string();
        self.count_restart("publish", self.publisher_restarts, message)?;
        self.publisher = None;
        self.ensure_publisher();
        Ok(())
    }

    /// Counts the `restarts`-th restart of `stage` and escalates to
    /// [`PipelineError::StageFailed`] once it is past the budget.
    fn count_restart(
        &self,
        stage: &'static str,
        restarts: u32,
        message: String,
    ) -> Result<(), Inf2vecError> {
        self.cfg.telemetry.count_with(
            "inf2vec_pipeline_stage_restarts_total",
            &[("stage", stage)],
            1,
        );
        if restarts > self.cfg.restart_budget {
            return Err(PipelineError::StageFailed {
                stage,
                restarts,
                message,
            }
            .into());
        }
        Ok(())
    }

    fn maybe_publish(&mut self) -> Result<(), Inf2vecError> {
        let episodes = self.trainer.online.episodes_applied();
        self.cfg.telemetry.gauge_set(
            "inf2vec_pipeline_publish_lag_episodes",
            episodes.saturating_sub(self.counters.last_episodes.load(Ordering::SeqCst)) as f64,
        );
        if episodes < self.last_publish_episode + self.cfg.publish_every_episodes.max(1) {
            return Ok(());
        }
        self.last_publish_episode = episodes;
        let store = self.trainer.online.store().clone();
        let snap = Snapshot {
            checksum: store_checksum(&store),
            store,
            label: format!("pipeline-e{episodes}"),
            episodes,
        };
        self.snapshots_offered += 1;
        let tx = self
            .publisher
            .as_ref()
            .and_then(|p| p.tx.clone())
            .expect("publisher running");
        match tx.try_send(snap) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => {
                // Publisher busy: drop the offer, training never waits.
                self.cfg
                    .telemetry
                    .count("inf2vec_pipeline_publish_skipped_total", 1);
                Ok(())
            }
            Err(TrySendError::Disconnected(snap)) => {
                self.restart_publisher()?;
                let tx = self
                    .publisher
                    .as_ref()
                    .and_then(|p| p.tx.clone())
                    .expect("publisher running");
                if tx.try_send(snap).is_err() {
                    self.cfg
                        .telemetry
                        .count("inf2vec_pipeline_publish_skipped_total", 1);
                }
                Ok(())
            }
        }
    }

    /// Starts a journal commit of the trainer's current state and returns
    /// without waiting for the disk: a writer thread writes the slot
    /// while training goes on. The previous commit is settled first, so
    /// at most one is ever in flight; the time the trainer waits for it
    /// is observed as `inf2vec_pipeline_journal_wait_seconds`.
    ///
    /// The writer retries disk faults with [`retry`]. An exhausted retry
    /// chain **degrades instead of failing**: training continues
    /// uncommitted (a wider replay window after the next crash, never
    /// lost records), and the next batch boundary tries again with the
    /// same round.
    fn begin_commit(&mut self) {
        if self.in_flight.is_some() {
            let started = Instant::now();
            self.settle();
            self.cfg.telemetry.observe(
                "inf2vec_pipeline_journal_wait_seconds",
                started.elapsed().as_secs_f64(),
            );
        }
        let state = self.trainer.to_state(self.round);
        let pos = state.pos;
        let journal = self.journal.clone();
        let (clock, faults) = (self.clock.clone(), Arc::clone(&self.faults));
        let (attempts, backoff) = (self.cfg.disk_max_attempts, self.cfg.disk_retry_backoff);
        let telemetry = self.cfg.telemetry.clone();
        let writer = std::thread::Builder::new()
            .name("inf2vec-journal".into())
            .spawn(move || {
                retry(
                    &clock,
                    attempts,
                    backoff,
                    Duration::MAX,
                    |_| {
                        let inject = faults.tick(Fault::JournalWrite).then_some(64);
                        journal.write_with(&state, inject)
                    },
                    |attempt, e| {
                        telemetry.count("inf2vec_pipeline_journal_write_errors_total", 1);
                        telemetry.emit(
                            Event::new("pipeline.journal_write_error")
                                .u64("round", state.round)
                                .u64("attempt", attempt as u64)
                                .str("error", e.to_string()),
                        );
                    },
                )
            })
            .expect("spawn journal writer thread");
        self.in_flight = Some(InFlightCommit { pos, writer });
        self.batches_since_journal = 0;
    }

    /// Waits for the commit in flight, if any, and applies its outcome as
    /// the synchronous write did right after writing: a written slot
    /// advances the round, is counted, may be torn by fault injection,
    /// lets the log store compact below the previous commit (the newest
    /// point both slots have durably passed) and becomes the next
    /// compaction bound; an exhausted one is counted as skipped and dumps
    /// a flight postmortem.
    fn settle(&mut self) {
        let Some(commit) = self.in_flight.take() else {
            return;
        };
        // A writer that panicked wrote nothing durable: the same outcome
        // as an exhausted retry chain.
        let Some(path) = commit.writer.join().unwrap_or(None) else {
            self.dump_flight_postmortem("journal_write_failed");
            self.cfg
                .telemetry
                .count("inf2vec_pipeline_journal_writes_skipped_total", 1);
            return;
        };
        self.round += 1;
        self.cfg
            .telemetry
            .count("inf2vec_pipeline_journal_writes_total", 1);
        if self.faults.tick(Fault::JournalTruncate) {
            // Torn-write injection: shear the tail off the slot that was
            // just written; recovery must fall back to the other slot.
            journal::truncate_tail(&path, 32).ok();
            self.cfg
                .telemetry
                .emit(Event::new("pipeline.injected_torn_journal").str(
                    "slot",
                    path.file_name().unwrap_or_default().to_string_lossy(),
                ));
        }
        // The first write of this incarnation has no bound: the other
        // slot's position is unknown.
        if let Some(upto) = self.prev_commit {
            let (telemetry, flight) = (&self.cfg.telemetry, &self.flight_path);
            self.log
                .compact(upto, |reason| dump_flight(telemetry, flight, reason));
        }
        self.prev_commit = Some(commit.pos);
    }

    /// Commits and waits for the write: the commits at idle, drain and
    /// shutdown, which the caller may look at as soon as the call returns.
    fn write_journal(&mut self) {
        self.begin_commit();
        self.settle();
    }

    fn ensure_publisher(&mut self) {
        if self.publisher.is_some() {
            return;
        }
        let (tx, rx) = sync_channel::<Snapshot>(1);
        let cfg = self.cfg.clone();
        let clock = self.clock.clone();
        let faults = Arc::clone(&self.faults);
        let sink = Arc::clone(&self.sink);
        let counters = Arc::clone(&self.counters);
        let gate = self.gate.clone();
        let thread = std::thread::Builder::new()
            .name("inf2vec-publish".into())
            .spawn(move || {
                for mut snap in rx.iter() {
                    if faults.tick(Fault::PoisonSnapshot) {
                        // Bits mangled, checksum recomputed: integrity
                        // verification passes, only the gate can catch it.
                        poison_snapshot(&mut snap);
                        cfg.telemetry.emit(
                            Event::new("pipeline.injected_poison")
                                .u64("episodes", snap.episodes),
                        );
                    }
                    if publish_admitted(&gate, &snap, &cfg, &counters) {
                        let ok = publish_with_retry(
                            sink.as_ref(),
                            &snap,
                            &cfg,
                            &clock,
                            &faults,
                            &counters,
                        );
                        if ok {
                            if let Some(g) = gate.as_deref() {
                                // Only an *installed* snapshot raises the
                                // high-water mark future candidates must meet.
                                let score = g.observe(&snap.store);
                                cfg.telemetry
                                    .gauge_set("inf2vec_pipeline_quality_probe", score);
                            }
                            maybe_export(&snap, &cfg, &clock, &faults);
                        }
                    }
                    // Fires after the snapshot settled (counted ok,
                    // failed, or withheld); only the thread dies, not the
                    // accounting.
                    if faults.tick(Fault::PublisherPanic) {
                        panic!("injected publisher panic");
                    }
                }
            })
            .expect("spawn publisher thread");
        self.publisher = Some(PublisherHandle {
            tx: Some(tx),
            thread: Some(thread),
        });
    }

    /// Closes every still-open episode immediately. Only meaningful when
    /// the log is known complete (final drain); supervises trainer panics
    /// like any other application.
    pub fn drain_open_episodes(&mut self) -> Result<(), Inf2vecError> {
        loop {
            let trainer = &mut self.trainer;
            let (cfg, graph, faults) = (&self.cfg, &self.graph, &self.faults);
            let result =
                catch_unwind(AssertUnwindSafe(|| trainer.close_all(cfg, graph, faults)));
            match result {
                Ok(()) => {
                    self.write_journal();
                    return Ok(());
                }
                // Recovery replays the tail of the log; the caller's next
                // run_until_idle + drain applies what is still open.
                Err(payload) => self.recover_trainer(panic_message(payload))?,
            }
        }
    }

    /// Graceful stop: stages joined, final journal written. The pipeline
    /// remains readable (reconciliation, store) afterwards. Dropping the
    /// pipeline *without* calling this simulates a crash: no final
    /// journal, recovery replays from the last batch-boundary commit.
    pub fn shutdown(&mut self) -> Result<(), Inf2vecError> {
        self.publisher = None;
        self.write_journal();
        Ok(())
    }

    /// Simulated hard crash: settles the commit in flight and stops the
    /// stage threads (joining them, so publish accounting settles and
    /// [`reconciliation`](Self::reconciliation) is exact) but — unlike
    /// [`shutdown`](Self::shutdown) — commits no final journal. Recovery
    /// must replay everything after the last batch-boundary commit.
    /// Dropping the pipeline without calling this is the same crash with
    /// unsettled publish counters.
    pub fn crash(&mut self) {
        self.settle();
        self.dump_flight_postmortem("simulated_crash");
        self.publisher = None;
    }

    fn dump_flight_postmortem(&self, reason: &str) {
        dump_flight(&self.cfg.telemetry, &self.flight_path, reason);
    }

    /// Where postmortem flight dumps land (`flight.jsonl` in the journal
    /// directory).
    pub fn flight_path(&self) -> &std::path::Path {
        &self.flight_path
    }

    /// The end-of-run ledger; also exports it as obs gauges.
    pub fn reconciliation(&self) -> Reconciliation {
        let ok = self.counters.ok.load(Ordering::SeqCst);
        let failed = self.counters.failed.load(Ordering::SeqCst);
        let withheld = self.counters.withheld.load(Ordering::SeqCst);
        let r = Reconciliation {
            records_seen: self.trainer.records_seen,
            records_applied: self.trainer.records_applied,
            records_quarantined: self.trainer.quarantined,
            records_pending: self.trainer.open.values().map(|it| it.folded).sum(),
            episodes_applied: self.trainer.online.episodes_applied(),
            pairs_applied: self.trainer.online.pairs_applied(),
            publishes_ok: ok,
            publishes_failed: failed,
            publishes_withheld: withheld,
            publishes_skipped: self.snapshots_offered.saturating_sub(ok + failed + withheld),
            restarts: (
                self.tailer_restarts,
                self.trainer_restarts,
                self.publisher_restarts,
            ),
            store_checksum: store_checksum(self.trainer.online.store()),
        };
        let t = &self.cfg.telemetry;
        t.gauge_set("inf2vec_pipeline_records_seen", r.records_seen as f64);
        t.gauge_set("inf2vec_pipeline_records_applied", r.records_applied as f64);
        t.gauge_set(
            "inf2vec_pipeline_records_quarantined",
            r.records_quarantined as f64,
        );
        t.gauge_set("inf2vec_pipeline_records_pending", r.records_pending as f64);
        t.gauge_set("inf2vec_pipeline_episodes_applied", r.episodes_applied as f64);
        t.gauge_set("inf2vec_pipeline_publishes_ok", r.publishes_ok as f64);
        t.gauge_set("inf2vec_pipeline_publishes_failed", r.publishes_failed as f64);
        t.gauge_set(
            "inf2vec_pipeline_publishes_withheld",
            r.publishes_withheld as f64,
        );
        t.gauge_set("inf2vec_pipeline_publishes_skipped", r.publishes_skipped as f64);
        t.gauge_set(
            "inf2vec_pipeline_publish_lag_episodes",
            r.episodes_applied
                .saturating_sub(self.counters.last_episodes.load(Ordering::SeqCst))
                as f64,
        );
        r
    }

    /// The current model parameters.
    pub fn store(&self) -> &EmbeddingStore {
        self.trainer.online.store()
    }

    /// The committed tail position.
    pub fn position(&self) -> TailPosition {
        self.trainer.pos
    }

    /// Episodes applied to the model so far.
    pub fn episodes_applied(&self) -> u64 {
        self.trainer.online.episodes_applied()
    }

    /// The action log and its archive, with this incarnation's
    /// compaction and archive accounting.
    pub fn log_store(&self) -> &LogStore {
        &self.log
    }

    /// The user-id space in effect: `max(graph nodes, user_capacity)`.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The quality gate's `(best score, budget)`, when the gate is on.
    pub fn quality(&self) -> Option<(f64, f64)> {
        self.gate.as_deref().map(|g| (g.best(), g.budget()))
    }

    /// Rows the model currently holds — the base graph size plus any
    /// growth driven by unseen user ids in the stream.
    pub fn model_rows(&self) -> usize {
        self.trainer.online.store().len()
    }
}

impl Drop for Pipeline {
    /// Settles the commit in flight, so a pipeline dropped without
    /// [`shutdown`](Pipeline::shutdown) leaves the journal of the last
    /// batch boundary, as the synchronous write did.
    fn drop(&mut self) {
        self.settle();
    }
}

/// Quality-gate admission (publisher thread). Returns `true` when the
/// snapshot may be offered to the sink; a withheld snapshot is counted,
/// gauged, and trace-stamped, and the registry keeps serving the last
/// good version.
fn publish_admitted(
    gate: &Option<Arc<QualityGate>>,
    snap: &Snapshot,
    cfg: &PipelineConfig,
    counters: &PublishCounters,
) -> bool {
    let Some(g) = gate.as_deref() else {
        return true;
    };
    let (score, admitted) = g.admit(&snap.store);
    cfg.telemetry
        .gauge_set("inf2vec_pipeline_quality_probe", score);
    cfg.telemetry.gauge_set(
        "inf2vec_pipeline_quality_regression",
        (g.best() - score).max(0.0),
    );
    if !admitted {
        counters.withheld.fetch_add(1, Ordering::SeqCst);
        cfg.telemetry
            .count("inf2vec_pipeline_publish_withheld_total", 1);
        cfg.telemetry.emit_with(|| {
            TraceCtx::for_publish(cfg.seed(), snap.episodes).stamp(
                Event::new("pipeline.publish_withheld")
                    .u64("episodes", snap.episodes)
                    .f64("score", score)
                    .f64("best", g.best())
                    .f64("budget", g.budget()),
            )
        });
    }
    admitted
}

/// Post-publish snapshot export with [`retry`] (publisher thread).
/// Export failures degrade — the registry already holds the model; only
/// the on-disk copy is stale until the next publish.
fn maybe_export(snap: &Snapshot, cfg: &PipelineConfig, clock: &SharedClock, faults: &FaultPlan) {
    let Some(dir) = cfg.snapshot_dir.as_deref() else {
        return;
    };
    let exported = retry(
        clock,
        cfg.disk_max_attempts,
        cfg.disk_retry_backoff,
        Duration::MAX,
        |_| export_snapshot(dir, snap, faults.tick(Fault::SnapshotWrite).then_some(48)),
        |attempt, e| {
            cfg.telemetry
                .count("inf2vec_pipeline_snapshot_export_errors_total", 1);
            cfg.telemetry.emit(
                Event::new("pipeline.snapshot_export_error")
                    .u64("episodes", snap.episodes)
                    .u64("attempt", attempt as u64)
                    .str("error", e.to_string()),
            );
        },
    );
    if exported.is_some() {
        cfg.telemetry
            .count("inf2vec_pipeline_snapshot_exports_total", 1);
    }
}

/// A tail of `log` from `pos`. It accepts the whole user universe, not
/// just the graph: ids beyond the graph are real (late-joining) users
/// whose rows the model grows on demand.
fn open_tail(log: &LogStore, universe: usize, pos: TailPosition, telemetry: &Telemetry) -> LogTail {
    LogTail::resume(log.path(), universe as u32, pos).with_telemetry(telemetry.clone())
}

/// Best-effort atomic dump of the flight ring to `path` (the pipeline's
/// [`flight.jsonl`](Pipeline::flight_path)). Never fails the pipeline: a
/// postmortem that cannot be written is counted, not propagated.
fn dump_flight(telemetry: &Telemetry, path: &Path, reason: &str) {
    match telemetry.dump_flight(path) {
        Ok(true) => {
            telemetry.count_with(
                "inf2vec_pipeline_flight_dumps_total",
                &[("reason", reason)],
                1,
            );
        }
        Ok(false) => {} // telemetry disabled: nothing to dump
        Err(_) => telemetry.count("inf2vec_pipeline_flight_dump_errors_total", 1),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publish::CountingSink;
    use crate::testutil::tmp_dir;
    use inf2vec_graph::GraphBuilder;
    use std::io::Write;

    fn ring_graph(n: u32) -> Arc<DiGraph> {
        let mut b = GraphBuilder::with_nodes(n);
        for i in 0..n {
            b.add_edge(NodeId(i), NodeId((i + 1) % n));
            b.add_edge(NodeId(i), NodeId((i + 2) % n));
        }
        Arc::new(b.build())
    }

    fn small_cfg() -> PipelineConfig {
        PipelineConfig {
            close_after: 4,
            batch_max: 8,
            publish_every_episodes: 2,
            inf2vec: inf2vec_core::Inf2vecConfig {
                k: 4,
                l: 6,
                seed: 11,
                ..inf2vec_core::Inf2vecConfig::default()
            },
            ..PipelineConfig::default()
        }
    }

    /// Writes `episodes` interleaved item cascades plus a defective line.
    fn write_log(path: &std::path::Path, items: u32, users: u32) -> (u64, u64) {
        let mut f = std::fs::File::create(path).unwrap();
        let (mut good, mut bad) = (0u64, 0u64);
        for item in 0..items {
            for u in 0..users {
                writeln!(f, "{} {} {}", (u + item) % users, 100 + item, u as u64 + 1).unwrap();
                good += 1;
            }
        }
        writeln!(f, "totally not a record").unwrap();
        bad += 1;
        // Trailing chatter so earlier items pass the quiet threshold.
        for u in 0..users {
            writeln!(f, "{u} 999 50").unwrap();
            good += 1;
        }
        (good, bad)
    }

    fn run_once(
        dir: &std::path::Path,
        log: &std::path::Path,
        cfg: PipelineConfig,
        faults: Arc<FaultPlan>,
    ) -> (Reconciliation, u64) {
        let sink = Arc::new(CountingSink::new());
        let mut p = Pipeline::with_runtime(
            cfg,
            log,
            dir.join("journal"),
            ring_graph(6),
            sink,
            system_clock(),
            faults,
        )
        .unwrap();
        p.run_until_idle().unwrap();
        p.drain_open_episodes().unwrap();
        p.shutdown().unwrap();
        let r = p.reconciliation();
        let sum = r.store_checksum;
        (r, sum)
    }

    #[test]
    fn consumes_a_log_and_reconciles() {
        let dir = tmp_dir("runner-basic");
        let log = dir.join("actions.log");
        let (good, bad) = write_log(&log, 4, 6);
        let (r, _) = run_once(&dir, &log, small_cfg(), Arc::new(FaultPlan::none()));
        assert!(r.balances(good, bad), "ledger must balance: {r:?}");
        assert_eq!(r.records_pending, 0, "drain closed everything");
        assert!(r.episodes_applied >= 4, "every item closed: {r:?}");
        assert!(r.publishes_ok >= 1, "at least one snapshot published");
        // With no byte budget the archive is never created.
        assert!(!inf2vec_ingest::archive_dir(&log).exists());
    }

    #[test]
    fn injected_stage_panics_do_not_change_the_model() {
        let dir_a = tmp_dir("runner-faulty");
        let log_a = dir_a.join("actions.log");
        let (good, bad) = write_log(&log_a, 4, 6);
        let faults = Arc::new(
            FaultPlan::none()
                .with(Fault::TailerPanic, [5])
                .with(Fault::TrainerPanic, [1, 3])
                .with(Fault::JournalTruncate, [2]),
        );
        let (r, sum_faulty) = run_once(&dir_a, &log_a, small_cfg(), faults);
        assert!(r.balances(good, bad), "faulty run still balances: {r:?}");
        assert!(r.restarts.0 >= 1 && r.restarts.1 >= 1, "faults fired: {r:?}");

        let dir_b = tmp_dir("runner-clean");
        let log_b = dir_b.join("actions.log");
        write_log(&log_b, 4, 6);
        let (_, sum_clean) = run_once(&dir_b, &log_b, small_cfg(), Arc::new(FaultPlan::none()));
        assert_eq!(
            sum_faulty, sum_clean,
            "crash/replay must be bit-identical to the uninterrupted run"
        );
    }

    #[test]
    fn crash_drop_then_reopen_resumes_exactly() {
        let dir = tmp_dir("runner-resume");
        let log = dir.join("actions.log");
        let (good, bad) = write_log(&log, 4, 6);
        {
            // First incarnation: consume everything, then "crash" (drop
            // without shutdown — the last journal is a batch-boundary
            // commit, not the final state).
            let mut p = Pipeline::with_runtime(
                small_cfg(),
                &log,
                dir.join("journal"),
                ring_graph(6),
                Arc::new(CountingSink::new()),
                system_clock(),
                Arc::new(FaultPlan::none()),
            )
            .unwrap();
            p.run_until_idle().unwrap();
        }
        // Second incarnation recovers and finishes the job.
        let mut p = Pipeline::with_runtime(
            small_cfg(),
            &log,
            dir.join("journal"),
            ring_graph(6),
            Arc::new(CountingSink::new()),
            system_clock(),
            Arc::new(FaultPlan::none()),
        )
        .unwrap();
        p.run_until_idle().unwrap();
        p.drain_open_episodes().unwrap();
        p.shutdown().unwrap();
        let r = p.reconciliation();
        assert!(r.balances(good, bad), "resumed ledger balances: {r:?}");

        let dir_c = tmp_dir("runner-oneshot");
        let log_c = dir_c.join("actions.log");
        write_log(&log_c, 4, 6);
        let (_, sum_clean) = run_once(&dir_c, &log_c, small_cfg(), Arc::new(FaultPlan::none()));
        assert_eq!(r.store_checksum, sum_clean, "resume is bit-identical");
    }

    /// A journal directory holding only a v2 slot (written before the
    /// sampler counts were journaled) resumes from that slot, with the
    /// sampler rebuilt from its context counts, and finishes the log.
    #[test]
    fn a_journal_holding_only_a_v2_slot_resumes_from_it() {
        let dir = tmp_dir("runner-v2-resume");
        let log = dir.join("actions.log");
        let (good, bad) = write_log(&log, 4, 6);
        let open = || {
            Pipeline::with_runtime(
                small_cfg(),
                &log,
                dir.join("journal"),
                ring_graph(6),
                Arc::new(CountingSink::new()),
                system_clock(),
                Arc::new(FaultPlan::none()),
            )
            .unwrap()
        };
        open().run_until_idle().unwrap(); // then dropped: a crash
        let journal = Journal::new(dir.join("journal")).unwrap();
        let state = journal.load_latest().unwrap().expect("a committed slot");
        assert!(state.online.episodes_applied > 0, "the slot holds progress");
        // Rewrite the newest slot as v2, the only slot in the directory.
        let v3 = std::fs::read_to_string(journal.slot_path(state.round)).unwrap();
        let body_end = v3.trim_end_matches('\n').rfind('\n').unwrap() + 1;
        let body: String = v3[..body_end]
            .replacen("inf2vec-journal v3", "inf2vec-journal v2", 1)
            .lines()
            .filter(|l| !l.starts_with("sampler_counts "))
            .map(|l| format!("{l}\n"))
            .collect();
        let v2 = format!(
            "{body}checksum {:016x}\n",
            inf2vec_util::fnv1a(body.as_bytes())
        );
        std::fs::remove_dir_all(dir.join("journal")).unwrap();
        let journal = Journal::new(dir.join("journal")).unwrap();
        std::fs::write(journal.slot_path(state.round), v2).unwrap();
        let loaded = journal.load_latest().unwrap().expect("the v2 slot loads");
        assert_eq!(loaded.online.sampler_counts, state.online.ctx_counts);

        let mut p = open();
        assert_eq!(p.position(), state.pos, "resumed at the slot's position");
        assert_eq!(p.episodes_applied(), state.online.episodes_applied);
        p.run_until_idle().unwrap();
        p.drain_open_episodes().unwrap();
        p.shutdown().unwrap();
        let r = p.reconciliation();
        assert!(r.balances(good, bad), "resumed ledger balances: {r:?}");
        assert_eq!(r.records_pending, 0);
    }

    /// Compaction with a tiny budget seals prefixes into the segmented
    /// store, expiry holds the segment budget, and the retained
    /// `archive ++ live` stream restores with verified contiguity.
    #[test]
    fn compaction_seals_expires_and_restores() {
        let dir = tmp_dir("runner-archive");
        let log = dir.join("actions.log");
        let (good, bad) = write_log(&log, 6, 6);
        let cfg = PipelineConfig {
            log_budget_bytes: 256,
            archive_max_segments: 2,
            ..small_cfg()
        };
        let mut p = Pipeline::with_runtime(
            cfg,
            &log,
            dir.join("journal"),
            ring_graph(6),
            Arc::new(CountingSink::new()),
            system_clock(),
            Arc::new(FaultPlan::none()),
        )
        .unwrap();
        p.run_until_idle().unwrap();
        p.drain_open_episodes().unwrap();
        p.shutdown().unwrap();
        let r = p.reconciliation();
        assert!(r.balances(good, bad), "{r:?}");
        let c = p.log_store().counters();
        assert!(c.compactions >= 2, "budget forced compactions");
        assert!(c.segments_sealed >= 2, "each compaction sealed: {c:?}");
        assert_eq!(c.bytes_dropped, 0, "nothing degraded: {c:?}");
        let store = p.log_store().archive().expect("store opened");
        assert!(
            store.segments().len() <= 2,
            "segment budget held: {} live",
            store.segments().len()
        );
        // Reclaimed + retained covers everything ever sealed.
        assert_eq!(c.bytes_reclaimed + store.payload_bytes(), c.bytes_sealed);
        assert_eq!(c.bytes_reclaimed, store.start().offset);
        store.verify(Some(&log)).unwrap();
        let out = dir.join("restored.log");
        let stats = store.restore_to(&log, &out).unwrap();
        assert_eq!(stats.start_offset, store.start().offset);
    }

    /// An exhausted seal retry chain degrades to a counted drop: the
    /// prefix is dropped and counted, the archive rebases over the hole,
    /// and the suffix stays restorable.
    #[test]
    fn seal_exhaustion_degrades_to_counted_drop() {
        let dir = tmp_dir("runner-sealdrop");
        let log = dir.join("actions.log");
        write_log(&log, 6, 6);
        let cfg = PipelineConfig {
            log_budget_bytes: 256,
            disk_max_attempts: 2,
            ..small_cfg()
        };
        // Enough consecutive seal faults to exhaust the first boundary's
        // whole retry chain; later boundaries seal normally.
        let faults = Arc::new(FaultPlan::none().with(Fault::ArchiveSeal, [1, 2]));
        let mut p = Pipeline::with_runtime(
            cfg,
            &log,
            dir.join("journal"),
            ring_graph(6),
            Arc::new(CountingSink::new()),
            system_clock(),
            faults,
        )
        .unwrap();
        p.run_until_idle().unwrap();
        p.drain_open_episodes().unwrap();
        p.shutdown().unwrap();
        let c = p.log_store().counters();
        assert!(c.bytes_dropped > 0, "the degraded prefix was counted: {c:?}");
        let store = p.log_store().archive().expect("store opened");
        assert!(store.start().offset >= c.bytes_dropped, "rebased past the hole");
        // The surviving suffix is still a verified, restorable stream.
        store.verify(Some(&log)).unwrap();
        store.restore_to(&log, &dir.join("restored.log")).unwrap();
    }

    /// One full run of `small_cfg()` with metrics on and snapshots
    /// exported, adjusted by `tweak`, over a 6-item log whose first
    /// `failures` attempts at `site` fail.
    fn run_counted(
        tweak: fn(&mut PipelineConfig),
        site: Fault,
        failures: u64,
    ) -> (Reconciliation, inf2vec_obs::Snapshot) {
        let dir = tmp_dir("runner-retry");
        let log = dir.join("actions.log");
        write_log(&log, 6, 6);
        let mut cfg = PipelineConfig {
            telemetry: inf2vec_obs::Telemetry::with_registry(),
            snapshot_dir: Some(dir.join("snapshots")),
            ..small_cfg()
        };
        tweak(&mut cfg);
        let telemetry = cfg.telemetry.clone();
        let faults = Arc::new(FaultPlan::none().with(site, 1..=failures));
        (run_once(&dir, &log, cfg, faults).0, telemetry.snapshot())
    }

    /// Every bounded-retry site counts each failed attempt exactly once
    /// and degrades exactly as documented once its chain is exhausted.
    #[test]
    fn every_retry_site_counts_and_degrades_exactly() {
        let disk = u64::from(small_cfg().disk_max_attempts);
        let publish = u64::from(small_cfg().publish_max_attempts);
        let plain: fn(&mut PipelineConfig) = |_| {};
        let archived: fn(&mut PipelineConfig) = |c| {
            c.log_budget_bytes = 256;
            c.archive_max_segments = 1;
        };
        let clean = run_counted(plain, Fault::JournalWrite, 0).0.store_checksum;
        for (site, failures, tweak) in [
            (Fault::JournalWrite, 1, plain),
            (Fault::JournalWrite, disk, plain),
            (Fault::ArchiveSeal, 1, archived),
            (Fault::ArchiveExpiry, 1000, archived),
            (Fault::SnapshotWrite, disk, plain),
            (Fault::PublishAttempt, publish, plain),
        ] {
            let (rec, metrics) = run_counted(tweak, site, failures);
            let count =
                |name: &str| metrics.counter_value(&format!("inf2vec_pipeline_{name}_total"), &[]);
            let dumps = |reason: &str| {
                let labels = [("reason", reason)];
                metrics.counter_value("inf2vec_pipeline_flight_dumps_total", &labels)
            };
            match site {
                Fault::JournalWrite => {
                    let skipped = u64::from(failures == disk);
                    assert_eq!(count("journal_write_errors"), failures);
                    assert_eq!(count("journal_writes_skipped"), skipped);
                    assert_eq!(dumps("journal_write_failed"), skipped);
                    assert_eq!(rec.store_checksum, clean, "a skipped commit changes no bit");
                }
                Fault::ArchiveSeal => {
                    assert_eq!(count("archive_seal_errors"), failures);
                    assert_eq!(count("archive_dropped_bytes"), 0);
                    assert_eq!(dumps("archive_seal_failed"), 0);
                }
                // `expire` returns without writing when nothing is
                // eligible, so a fault scheduled on that attempt is used
                // up without firing: every attempt fails, yet errors come
                // in whole chains.
                Fault::ArchiveExpiry => {
                    let errors = count("archive_expiry_errors");
                    assert!(errors > 0 && errors % disk == 0, "{errors} expiry errors");
                    assert_eq!(count("archive_expired_segments"), 0);
                    assert_eq!(dumps("archive_expiry_failed"), errors / disk);
                }
                Fault::SnapshotWrite => {
                    assert_eq!(count("snapshot_export_errors"), failures);
                    assert_eq!(count("snapshot_exports"), rec.publishes_ok - 1);
                }
                _ => {
                    assert_eq!(count("publish_retry"), failures);
                    assert_eq!(rec.publishes_failed, 1);
                }
            }
        }
    }

    /// Every call a caller can look after, and a plain drop, settles the
    /// commit in flight: the journal then holds the trainer's committed
    /// position and round and no temp file. A commit whose retry chain
    /// is exhausted leaves its round, and so its slot, to the next one.
    #[test]
    fn every_exit_settles_the_commit_in_flight() {
        let dir = tmp_dir("runner-settle");
        let log = dir.join("actions.log");
        write_log(&log, 4, 6);
        let cfg = PipelineConfig {
            journal_every_batches: 1,
            disk_retry_backoff: Duration::from_millis(50),
            telemetry: inf2vec_obs::Telemetry::with_registry(),
            ..small_cfg()
        };
        // The first commit exhausts its retry chain; every later one fails
        // its first attempt, so its writer is still in its backoff sleep
        // when an exit that did not settle would return.
        let disk = u64::from(cfg.disk_max_attempts);
        let faults = (1..=disk).chain((disk + 1..).step_by(2).take(1000));
        let journal_dir = dir.join("journal");
        let mut p = Pipeline::with_runtime(
            cfg.clone(),
            &log,
            &journal_dir,
            ring_graph(6),
            Arc::new(CountingSink::new()),
            system_clock(),
            Arc::new(FaultPlan::none().with(Fault::JournalWrite, faults)),
        )
        .unwrap();
        let journal = Journal::new(&journal_dir).unwrap();
        let settled = |pos: TailPosition, next_round: u64| {
            let state = journal.load_latest().unwrap().expect("a slot is committed");
            assert_eq!((state.pos, state.round + 1), (pos, next_round));
            let temps: Vec<_> = std::fs::read_dir(&journal_dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|name| name.contains(".tmp."))
                .collect();
            assert!(temps.is_empty(), "temp files left behind: {temps:?}");
        };

        p.begin_commit();
        p.write_journal();
        assert_eq!(p.round, 1, "the exhausted commit did not advance the round");
        settled(p.position(), 1); // the next commit wrote round 0

        p.run_until_idle().unwrap();
        settled(p.position(), p.round);
        let metrics = cfg.telemetry.snapshot();
        let count = |name: &str| metrics.counter_value(name, &[]);
        assert_eq!(count("inf2vec_pipeline_journal_writes_skipped_total"), 1);
        assert_eq!(count("inf2vec_pipeline_journal_writes_total"), p.round);

        // Each exit below starts with a boundary commit in flight.
        let round = p.round;
        p.begin_commit();
        p.drain_open_episodes().unwrap();
        assert_eq!(p.round, round + 2, "the commit in flight, then the drain's");
        settled(p.position(), p.round);
        p.begin_commit();
        p.crash();
        assert_eq!(p.round, round + 3);
        settled(p.position(), p.round);
        p.begin_commit();
        let (pos, next_round) = (p.position(), p.round + 1);
        drop(p);
        settled(pos, next_round);
    }

    #[test]
    fn trainer_budget_exhaustion_is_typed() {
        let dir = tmp_dir("runner-budget");
        let log = dir.join("actions.log");
        write_log(&log, 4, 6);
        let cfg = PipelineConfig {
            restart_budget: 1,
            ..small_cfg()
        };
        let faults = Arc::new(FaultPlan::none().with(Fault::TrainerPanic, 1..=8));
        let mut p = Pipeline::with_runtime(
            cfg,
            &log,
            dir.join("journal"),
            ring_graph(6),
            Arc::new(CountingSink::new()),
            system_clock(),
            faults,
        )
        .unwrap();
        let err = p
            .run_until_idle()
            .and_then(|()| p.drain_open_episodes())
            .unwrap_err();
        assert!(
            matches!(
                err,
                Inf2vecError::Pipeline(PipelineError::StageFailed { stage: "train", .. })
            ),
            "got {err:?}"
        );
    }

    /// A call reads what was appended after the previous call returned,
    /// however long the log sat idle in between.
    #[test]
    fn a_later_call_reads_records_appended_after_the_last_one() {
        let dir = tmp_dir("runner-append");
        let log = dir.join("actions.log");
        let append = |from: u32| {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&log)
                .unwrap();
            for i in from..from + 40 {
                writeln!(f, "{} {} {}", i % 6, 100 + i / 8, i + 1).unwrap();
            }
        };
        append(0);
        let mut p = Pipeline::with_runtime(
            small_cfg(),
            &log,
            dir.join("journal"),
            ring_graph(6),
            Arc::new(CountingSink::new()),
            system_clock(),
            Arc::new(FaultPlan::none()),
        )
        .unwrap();
        p.run_until_idle().unwrap();
        assert_eq!(p.reconciliation().records_seen, 40);
        // Long enough for anything polling between the calls to have
        // found the log idle before the append.
        std::thread::sleep(Duration::from_millis(50));
        append(40);
        p.run_until_idle().unwrap();
        assert_eq!(p.reconciliation().records_seen, 80);
    }

    /// A log cut below the committed position fails the next call with
    /// the typed error, counted once, and the call returns.
    #[test]
    fn a_truncated_log_fails_the_next_call_typed() {
        let dir = tmp_dir("runner-truncated");
        let log = dir.join("actions.log");
        write_log(&log, 4, 6);
        let cfg = PipelineConfig {
            telemetry: Telemetry::with_registry(),
            ..small_cfg()
        };
        let telemetry = cfg.telemetry.clone();
        let mut p = Pipeline::with_runtime(
            cfg,
            &log,
            dir.join("journal"),
            ring_graph(6),
            Arc::new(CountingSink::new()),
            system_clock(),
            Arc::new(FaultPlan::none()),
        )
        .unwrap();
        p.run_until_idle().unwrap();
        let bytes = std::fs::read(&log).unwrap();
        std::fs::write(&log, &bytes[..bytes.len() / 2]).unwrap();
        // On a helper thread, so a call that never returns fails the test
        // instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let caller = std::thread::spawn(move || {
            let result = p.run_until_idle();
            tx.send((result, p)).ok();
        });
        let (result, _p) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("run_until_idle returns on a truncated log");
        caller.join().unwrap();
        assert!(
            matches!(
                result,
                Err(Inf2vecError::Ingest(IngestError::LogTruncated { .. }))
            ),
            "got {result:?}"
        );
        let labels = [("kind", "truncated")];
        let metrics = telemetry.snapshot();
        assert_eq!(
            metrics.counter_value("inf2vec_pipeline_tail_io_errors_total", &labels),
            1
        );
    }
}

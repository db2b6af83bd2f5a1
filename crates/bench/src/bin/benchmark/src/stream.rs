//! The `stream-durable` and `stream-backfill` workloads: the continuous
//! learning pipeline replaying a pre-written action log.
//!
//! One operation is one replay: `Pipeline::open`, `run_until_idle`,
//! `drain_open_episodes` and `shutdown` over a fresh journal. The two
//! workloads differ in what dominates:
//!
//! - `stream-durable` journals every 256-record batch (the default
//!   crash-safe configuration): serializing and fsyncing the whole model
//!   per batch is most of the wall clock, so journal changes show here.
//! - `stream-backfill` replays a ten times longer log journaling once per
//!   64 batches, as an operator does after a restore: per-record work
//!   (context pairs, online SGNS, the per-episode negative table, the
//!   publish checksum) dominates, and journal changes should not move it.
//!
//! The traced run replays the same log a second way, through the public
//! layer calls in the runner's order ([`Mirror`]), and must reach the
//! very model the real pipeline reached — so the per-layer numbers
//! describe the same work.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use inf2vec_core::{episode_pairs, Inf2vecModel};
use inf2vec_diffusion::synth::SyntheticConfig;
use inf2vec_diffusion::{Episode, ItemId};
use inf2vec_embed::{EmbeddingStore, NegativeTable, OnlineSgns};
use inf2vec_eval::activation::ActivationTask;
use inf2vec_eval::{Aggregator, ScoringModel};
use inf2vec_graph::{DiGraph, NodeId};
use inf2vec_ingest::{LogTail, TailItem, TailPosition};
use inf2vec_obs::{SampleValue, Telemetry};
use inf2vec_pipeline::{
    Journal, JournalState, OpenItemState, Pipeline, PipelineConfig, Reconciliation, RegistrySink,
};
use inf2vec_serve::{store_checksum, ModelRegistry};
use inf2vec_util::rng::split_seed;

use crate::inputs::{write_interleaved_log, Bundle};
use crate::report::{peak_rss_mb, RunResult};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{timed_setups, RunOpts};

/// Which stream workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Flickr-like train cascades, journal every batch.
    Durable,
    /// A ten times longer log, journal every 64 batches.
    Backfill,
}

impl Kind {
    /// The workload name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Durable => "stream-durable",
            Kind::Backfill => "stream-backfill",
        }
    }

    /// Held-out activation AUC (Ave aggregator) of the online model: the
    /// median over seeds 1..=10 at the commit that defined this benchmark
    /// (ranges 0.4898–0.5142 and 0.5129–0.5251 — the online model is
    /// barely above chance on this task, unlike the batch model's 0.76).
    fn reference_auc(self) -> f64 {
        match self {
            Kind::Durable => 0.4969,
            Kind::Backfill => 0.5200,
        }
    }

    /// Twice the AUC range across those seeds: how far below the
    /// reference a run may land before the model counts as broken.
    fn auc_tolerance(self) -> f64 {
        match self {
            Kind::Durable => 0.049,
            Kind::Backfill => 0.024,
        }
    }
}

fn settings(kind: Kind, smoke: bool, seed: u64) -> (SyntheticConfig, PipelineConfig) {
    let flickr = SyntheticConfig::flickr_like();
    let data = match (kind, smoke) {
        (Kind::Durable, false) => flickr,
        (Kind::Backfill, false) => flickr.scaled(3000, 12_000),
        (Kind::Durable, true) => flickr.scaled(300, 150),
        (Kind::Backfill, true) => flickr.scaled(300, 600),
    };
    let base = PipelineConfig::default();
    let cfg = PipelineConfig {
        journal_every_batches: match kind {
            Kind::Durable => base.journal_every_batches,
            Kind::Backfill => 64,
        },
        inf2vec: inf2vec_core::Inf2vecConfig {
            k: 50,
            alpha: 0.25,
            seed: split_seed(seed, 0x1000),
            ..base.inf2vec.clone()
        },
        ..base
    };
    (data, cfg)
}

/// Everything a replay needs, built once per setup.
struct Inputs {
    graph: Arc<DiGraph>,
    log: PathBuf,
    records: u64,
    task: ActivationTask,
}

/// One real replay's outcome.
struct Replay {
    wall_s: f64,
    rec: Reconciliation,
    store: EmbeddingStore,
}

/// One real pipeline replay over a fresh journal in `journal_dir`.
fn replay(cfg: &PipelineConfig, inputs: &Inputs, journal_dir: &Path) -> Result<Replay, String> {
    fresh_dir(journal_dir)?;
    let registry = Arc::new(ModelRegistry::new(Some(cfg.inf2vec.k)));
    let sink = Arc::new(RegistrySink::new(registry));
    let started = Instant::now();
    let mut p = Pipeline::open(
        cfg.clone(),
        &inputs.log,
        journal_dir,
        Arc::clone(&inputs.graph),
        sink,
    )
    .map_err(|e| format!("Pipeline::open: {e}"))?;
    p.run_until_idle()
        .map_err(|e| format!("run_until_idle: {e}"))?;
    p.drain_open_episodes()
        .map_err(|e| format!("drain_open_episodes: {e}"))?;
    p.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Replay {
        wall_s,
        rec: p.reconciliation(),
        store: p.store().clone(),
    })
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot clear {}: {e}", dir.display())),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// One still-assembling episode, as the runner keeps it.
#[derive(Default)]
struct OpenItem {
    /// Per-user earliest activation `(time, arrival seq)`.
    users: BTreeMap<u32, (u64, u64)>,
    last_seq: u64,
    folded: u64,
}

/// The pipeline's trainer stage replayed through public calls, in the
/// runner's order: `LogTail::poll`, episode assembly (earliest time per
/// user, close after `close_after` quiet records in ascending item order,
/// close everything at drain), `episode_pairs` then
/// `OnlineSgns::apply_episode`, `Journal::write` at the runner's cadence,
/// and clone + `store_checksum` + `install_checked` every
/// `publish_every_episodes`. Each call sits in its own span.
struct Mirror<'a> {
    cfg: &'a PipelineConfig,
    graph: &'a DiGraph,
    online: OnlineSgns,
    open: BTreeMap<u32, OpenItem>,
    pos: TailPosition,
    records_seen: u64,
    records_applied: u64,
    quarantined: u64,
    round: u64,
    batches_since_journal: u32,
    last_publish_episode: u64,
    journal: Journal,
    journal_bytes: u64,
    registry: ModelRegistry,
}

impl<'a> Mirror<'a> {
    fn new(
        cfg: &'a PipelineConfig,
        graph: &'a DiGraph,
        journal_dir: &Path,
    ) -> Result<Self, String> {
        fresh_dir(journal_dir)?;
        let n = graph.node_count() as usize;
        Ok(Self {
            cfg,
            graph,
            online: OnlineSgns::new(n, cfg.inf2vec.k, cfg.online.clone(), cfg.seed()),
            open: BTreeMap::new(),
            pos: TailPosition::default(),
            records_seen: 0,
            records_applied: 0,
            quarantined: 0,
            round: 0,
            batches_since_journal: 0,
            last_publish_episode: 0,
            journal: Journal::new(journal_dir).map_err(|e| e.to_string())?,
            journal_bytes: 0,
            registry: ModelRegistry::new(Some(cfg.inf2vec.k)),
        })
    }

    /// `Pipeline::open` … `shutdown` over `log`, under the root span
    /// `stream`.
    fn run(&mut self, log: &Path, t: &mut Tracer) -> Result<(), String> {
        let root = t.enter("stream");
        let universe = self.graph.node_count();
        let mut tail = LogTail::new(log, universe);
        let batch_max = self.cfg.batch_max.max(1);
        loop {
            let items = t
                .time("ingest.tail", || tail.poll(batch_max))
                .map_err(|e| format!("LogTail::poll: {e}"))?;
            if items.is_empty() {
                break; // the log is complete: the runner goes idle here
            }
            for item in items {
                match item {
                    TailItem::Record(r) => {
                        self.records_seen += 1;
                        let seq = self.records_seen;
                        let entry = self.open.entry(r.item).or_default();
                        let slot = entry.users.entry(r.user).or_insert((r.time, seq));
                        if r.time < slot.0 {
                            *slot = (r.time, seq);
                        }
                        entry.folded += 1;
                        entry.last_seq = seq;
                        self.close_due(t);
                    }
                    TailItem::Defect { .. } => self.quarantined += 1,
                }
            }
            self.pos = tail.position();
            self.batches_since_journal += 1;
            if self.batches_since_journal >= self.cfg.journal_every_batches.max(1) {
                self.write_journal(t)?;
            }
            self.maybe_publish(t)?;
        }
        self.write_journal(t)?; // run_until_idle commits once idle
        let due: Vec<u32> = self.open.keys().copied().collect();
        for item in due {
            let it = self.open.remove(&item).expect("item is open");
            self.close_item(item, it, t);
        }
        self.write_journal(t)?; // drain_open_episodes
        self.write_journal(t)?; // shutdown
        t.exit(root);
        Ok(())
    }

    fn close_due(&mut self, t: &mut Tracer) {
        let close_after = self.cfg.close_after.max(1);
        let due: Vec<u32> = self
            .open
            .iter()
            .filter(|(_, it)| self.records_seen - it.last_seq >= close_after)
            .map(|(&item, _)| item)
            .collect();
        for item in due {
            let it = self.open.remove(&item).expect("due item is open");
            self.close_item(item, it, t);
        }
    }

    fn close_item(&mut self, item: u32, it: OpenItem, t: &mut Tracer) {
        let mut acts: Vec<(u64, u64, u32)> = it
            .users
            .iter()
            .map(|(&u, &(time, q))| (time, q, u))
            .collect();
        acts.sort_unstable();
        let episode = Episode::new(
            ItemId(item),
            acts.iter().map(|&(time, _, u)| (NodeId(u), time)).collect(),
        );
        let seq = self.online.episodes_applied();
        let (pairs, _) = t.time("core.stream", || {
            episode_pairs(self.graph, &episode, &self.cfg.inf2vec, seq)
        });
        if t.enabled() {
            // What rebuilding the sampler costs per episode: the same
            // call `apply_episode` makes on its pre-episode counts.
            let counts = &self.online.state().ctx_counts;
            t.time_excluded("embed.negative.rebuild", || {
                std::hint::black_box(if counts.iter().all(|&c| c == 0) {
                    NegativeTable::uniform(counts.len() as u32)
                } else {
                    NegativeTable::from_counts(counts)
                })
            });
        }
        t.time("embed.online", || self.online.apply_episode(seq, &pairs));
        self.records_applied += it.folded;
    }

    fn write_journal(&mut self, t: &mut Tracer) -> Result<(), String> {
        let path = t
            .time("pipeline.journal", || {
                let open = self
                    .open
                    .iter()
                    .map(|(&item, it)| OpenItemState {
                        item,
                        last_seq: it.last_seq,
                        folded: it.folded,
                        users: it
                            .users
                            .iter()
                            .map(|(&u, &(time, q))| (u, time, q))
                            .collect(),
                    })
                    .collect();
                self.journal.write(&JournalState {
                    round: self.round,
                    pos: self.pos,
                    records_seen: self.records_seen,
                    records_applied: self.records_applied,
                    quarantined: self.quarantined,
                    open,
                    online: self.online.state().clone(),
                })
            })
            .map_err(|e| format!("Journal::write: {e}"))?;
        self.journal_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        self.round += 1;
        self.batches_since_journal = 0;
        Ok(())
    }

    fn maybe_publish(&mut self, t: &mut Tracer) -> Result<(), String> {
        let episodes = self.online.episodes_applied();
        if episodes < self.last_publish_episode + self.cfg.publish_every_episodes.max(1) {
            return Ok(());
        }
        self.last_publish_episode = episodes;
        let store = t.time("pipeline.publish.clone", || self.online.store().clone());
        let checksum = t.time("pipeline.publish.checksum", || store_checksum(&store));
        // `RegistrySink::publish` clones the snapshot into the registry.
        t.time("pipeline.publish.install", || {
            self.registry.install_checked(
                store.clone(),
                &format!("pipeline-e{episodes}"),
                Some(checksum),
            )
        })
        .map_err(|e| format!("install_checked: {e}"))?;
        Ok(())
    }
}

/// Publish statistics the real run exports through its registry.
struct PublishStats {
    skipped: u64,
    mean_s: f64,
}

fn publish_stats(
    cfg: &PipelineConfig,
    inputs: &Inputs,
    journal_dir: &Path,
) -> Result<PublishStats, String> {
    let telemetry = Telemetry::with_registry();
    let cfg = PipelineConfig {
        telemetry: telemetry.clone(),
        ..cfg.clone()
    };
    let out = replay(&cfg, inputs, journal_dir)?;
    let mean_s = match telemetry
        .snapshot()
        .get("inf2vec_pipeline_publish_seconds")
        .map(|s| &s.value)
    {
        Some(SampleValue::Histogram { sum, count, .. }) if *count > 0 => sum / *count as f64,
        _ => 0.0,
    };
    Ok(PublishStats {
        skipped: out.rec.publishes_skipped,
        mean_s,
    })
}

/// Runs one stream workload for `opts.seconds` (at least two replays,
/// so the determinism gate always has a pair to compare).
pub fn run(kind: Kind, opts: &RunOpts) -> RunResult {
    let (data, cfg) = settings(kind, opts.smoke, opts.seed);
    let workdir = opts.out.join(kind.name());
    let mut r = RunResult::default();
    if let Err(e) = std::fs::create_dir_all(&workdir) {
        r.gate(false, || {
            format!("cannot create {}: {e}", workdir.display())
        });
        return r;
    }
    let log = workdir.join("actions.log");
    let (setup_s, setup) = timed_setups(|| {
        let b = Bundle::generate(&data, opts.seed);
        let records = write_interleaved_log(&log, &b.train_episodes())?;
        Ok::<_, std::io::Error>(Inputs {
            graph: Arc::new(b.graph().clone()),
            log: log.clone(),
            records,
            task: b.test_task(),
        })
    });
    let inputs = match setup {
        Ok(i) => i,
        Err(e) => {
            r.gate(false, || format!("cannot write {}: {e}", log.display()));
            return r;
        }
    };
    r.metrics.set("setup_s", setup_s);

    let journal_dir = workdir.join("journal");
    let mut replays: Vec<Replay> = Vec::new();
    let started = Instant::now();
    let min_replays = if opts.traced { 1 } else { 2 };
    loop {
        match replay(&cfg, &inputs, &journal_dir) {
            Ok(out) => replays.push(out),
            Err(e) => {
                r.gate(false, || format!("replay failed: {e}"));
                break;
            }
        }
        let typical = median(&replays.iter().map(|o| o.wall_s).collect::<Vec<_>>());
        if replays.len() >= min_replays
            && (opts.traced || started.elapsed().as_secs_f64() + typical > opts.seconds)
        {
            break;
        }
    }
    if replays.is_empty() {
        return r;
    }

    let written = inputs.records;
    for (i, out) in replays.iter().enumerate() {
        let rec = &out.rec;
        r.attempted += written;
        r.failed += written.saturating_sub(rec.records_applied);
        r.gate(rec.balances(written, 0) && rec.records_pending == 0, || {
            format!(
                "replay {i}: ledger does not balance against {written} written records: {rec:?}"
            )
        });
        r.gate(
            rec.restarts == (0, 0, 0) && rec.publishes_failed == 0,
            || format!("replay {i}: stage restarts or failed publishes: {rec:?}"),
        );
        r.gate(rec.store_checksum == replays[0].rec.store_checksum, || {
            format!(
                "replay {i} reached model {:016x}, replay 0 reached {:016x} \
                 (the pipeline must replay deterministically)",
                rec.store_checksum, replays[0].rec.store_checksum
            )
        });
    }
    let last = replays.last().expect("at least one replay");
    let eval_started = Instant::now();
    let model = Inf2vecModel::new(last.store.clone());
    let quality = inputs
        .task
        .evaluate(&ScoringModel::Representation(&model, Aggregator::Ave));
    let eval_s = eval_started.elapsed().as_secs_f64();
    if !opts.smoke {
        let (reference, tolerance) = (kind.reference_auc(), kind.auc_tolerance());
        r.gate(quality.auc >= reference - tolerance, || {
            format!(
                "activation AUC {:.4} is below the reference {reference:.4} by more than \
                 {tolerance:.4}",
                quality.auc
            )
        });
    }

    let walls: Vec<f64> = replays.iter().map(|o| o.wall_s).collect();
    let rates: Vec<f64> = replays
        .iter()
        .map(|o| o.rec.records_seen as f64 / o.wall_s)
        .collect();
    r.metrics.set("peak_rss_mb", peak_rss_mb());
    r.metrics.set("throughput_per_s", median(&rates));
    r.metrics
        .set("latency_p50_ms", percentile(&walls, 0.5) * 1e3);
    r.detail = format!(
        "\"replays\":{},\"wall_s\":{:?},\"records\":{written},\"episodes\":{},\"pairs\":{},\
         \"publishes_ok\":{},\"publishes_skipped\":{},\"auc\":{},\"map\":{}",
        replays.len(),
        walls,
        last.rec.episodes_applied,
        last.rec.pairs_applied,
        last.rec.publishes_ok,
        last.rec.publishes_skipped,
        quality.auc,
        quality.map
    );

    if opts.traced {
        if let Err(e) = traced(&cfg, &inputs, &workdir, last, &mut r) {
            r.gate(false, || e);
        }
        r.metrics.set("eval.activation.eval_s", eval_s);
        r.metrics.set("eval.activation.auc", quality.auc);
        r.metrics.set("eval.activation.map", quality.map);
    }
    r
}

/// The traced part of a traced run: the publish statistics of a real run
/// with metrics on, the mirror untraced (overhead baseline) and traced,
/// and the gate that the mirror reached the real pipeline's model.
fn traced(
    cfg: &PipelineConfig,
    inputs: &Inputs,
    workdir: &Path,
    real: &Replay,
    r: &mut RunResult,
) -> Result<(), String> {
    let publish = publish_stats(cfg, inputs, &workdir.join("journal"))?;
    let mirror_dir = workdir.join("mirror-journal");
    let mut untraced = Mirror::new(cfg, &inputs.graph, &mirror_dir)?;
    let started = Instant::now();
    untraced.run(&inputs.log, &mut Tracer::off())?;
    let untraced_s = started.elapsed().as_secs_f64();
    drop(untraced);

    let mut t = Tracer::on();
    let mut mirror = Mirror::new(cfg, &inputs.graph, &mirror_dir)?;
    mirror.run(&inputs.log, &mut t)?;
    let rec = t
        .reconcile("stream")
        .expect("the mirror records a root span");
    let overhead_s = rec.wall_s - untraced_s;

    let want = &real.rec;
    let got = (
        store_checksum(mirror.online.store()),
        mirror.online.episodes_applied(),
        mirror.online.pairs_applied(),
    );
    r.gate(
        got == (
            want.store_checksum,
            want.episodes_applied,
            want.pairs_applied,
        ),
        || {
            format!(
                "the layer-by-layer replay reached (checksum {:016x}, {} episodes, {} pairs), \
                 the pipeline reached ({:016x}, {}, {}): per-layer numbers would describe \
                 different work",
                got.0, got.1, got.2, want.store_checksum, want.episodes_applied, want.pairs_applied
            )
        },
    );

    let layers = t.layers();
    let calls = |name: &str| layers.get(name).map_or(0, |l| l.calls) as f64;
    let self_s = |name: &str| layers.get(name).map_or(0.0, |l| l.self_s);
    let pairs = mirror.online.pairs_applied() as f64;
    let apply_s = self_s("embed.online");
    let m = &mut r.metrics;
    m.set("ingest.tail.poll_s", self_s("ingest.tail"));
    m.set("ingest.tail.polls", calls("ingest.tail"));
    m.set("ingest.tail.records", mirror.records_seen as f64);
    m.set("core.stream.pairs_s", self_s("core.stream"));
    m.set("core.stream.pairs", pairs);
    m.set("embed.online.apply_s", apply_s);
    m.set(
        "embed.online.episodes",
        mirror.online.episodes_applied() as f64,
    );
    m.set(
        "embed.online.pairs_per_s",
        if apply_s > 0.0 { pairs / apply_s } else { 0.0 },
    );
    m.set(
        "embed.negative.rebuild_s_est",
        layers
            .get("embed.negative.rebuild")
            .map_or(0.0, |l| l.wall_s),
    );
    m.set("pipeline.journal.write_s", self_s("pipeline.journal"));
    m.set("pipeline.journal.writes", calls("pipeline.journal"));
    m.set(
        "pipeline.journal.bytes_per_record",
        mirror.journal_bytes as f64 / mirror.records_seen.max(1) as f64,
    );
    m.set("pipeline.publish.clone_s", self_s("pipeline.publish.clone"));
    m.set(
        "pipeline.publish.checksum_s",
        self_s("pipeline.publish.checksum"),
    );
    m.set(
        "pipeline.publish.install_s",
        self_s("pipeline.publish.install"),
    );
    m.set(
        "pipeline.publish.installs",
        calls("pipeline.publish.install"),
    );
    m.set("pipeline.publish.skipped", publish.skipped as f64);
    m.set("pipeline.publish.publish_s_mean", publish.mean_s);
    // The real run overlaps tailing and publishing with training on
    // other threads, so this can go negative: the layers' summed self
    // time then exceeds the wall clock they shared.
    let unattributed_s = real.wall_s - rec.layers_s;
    m.set("pipeline.unattributed_s", unattributed_s);
    m.set("tracing_overhead_s", overhead_s);
    let extra = format!(
        ",\"pipeline_wall_s\":{},\"pipeline_unattributed_s\":{unattributed_s}",
        real.wall_s
    );
    r.trace = Some(crate::trace_entry(&t, "stream", overhead_s, &extra));
    Ok(())
}

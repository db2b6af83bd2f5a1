//! Snapshot publication: retried, backed off, never blocking training.
//!
//! The trainer offers a [`Snapshot`] to the publisher thread over a
//! capacity-1 `try_send` channel: if the publisher is still busy (slow
//! registry, mid-backoff) the offer is simply dropped and counted — a
//! fresher snapshot will come along, and training never waits on serving.
//! Each accepted snapshot is pushed through a [`PublishSink`] with
//! [`retry`] — the one capped-exponential-backoff loop every bounded
//! disk/publish retry in the workspace shares; exhausting the attempts
//! abandons that snapshot (the registry keeps serving the last good
//! version).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use inf2vec_embed::EmbeddingStore;
use inf2vec_serve::ModelRegistry;
use inf2vec_util::error::{DataError, Inf2vecError};
use inf2vec_util::faultinject::{Fault, FaultPlan};
use inf2vec_util::{retry, SharedClock};

use crate::config::PipelineConfig;

/// One publishable model state, checksummed at capture time so the sink
/// can verify the bits survived the channel crossing.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The parameters to publish.
    pub store: EmbeddingStore,
    /// Version label (shows up in registry/version metadata).
    pub label: String,
    /// [`inf2vec_serve::store_checksum`] at capture time.
    pub checksum: u64,
    /// Episodes applied when the snapshot was taken.
    pub episodes: u64,
}

/// Where snapshots go. The registry sink is the production target;
/// tests substitute counting/failing sinks.
pub trait PublishSink: Send + Sync {
    /// Publishes one snapshot, returning the installed version number.
    fn publish(&self, snap: &Snapshot) -> Result<u64, Inf2vecError>;
}

/// Publishes into a live [`ModelRegistry`] via checksum-verified install.
#[derive(Debug)]
pub struct RegistrySink {
    registry: Arc<ModelRegistry>,
}

impl RegistrySink {
    /// Wraps a registry.
    pub fn new(registry: Arc<ModelRegistry>) -> Self {
        Self { registry }
    }
}

impl PublishSink for RegistrySink {
    fn publish(&self, snap: &Snapshot) -> Result<u64, Inf2vecError> {
        let version =
            self.registry
                .install_checked(snap.store.clone(), &snap.label, Some(snap.checksum))?;
        Ok(version.version())
    }
}

/// A test/bench sink that records successful publishes.
#[derive(Debug, Default)]
pub struct CountingSink {
    published: AtomicU64,
}

impl CountingSink {
    /// A fresh sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots accepted so far.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::SeqCst)
    }
}

impl PublishSink for CountingSink {
    fn publish(&self, _snap: &Snapshot) -> Result<u64, Inf2vecError> {
        Ok(self.published.fetch_add(1, Ordering::SeqCst) + 1)
    }
}

/// Publisher-side counters, shared with the supervisor (atomics: the
/// publisher thread may be restarted, the counters persist).
#[derive(Debug, Default)]
pub struct PublishCounters {
    /// Snapshots successfully installed.
    pub ok: AtomicU64,
    /// Snapshots abandoned after exhausting retries.
    pub failed: AtomicU64,
    /// Snapshots withheld by the quality gate (probe-score regression):
    /// never offered to the sink, last good version keeps serving.
    pub withheld: AtomicU64,
    /// Episode count of the newest successfully published snapshot
    /// (monotone via `fetch_max`) — the supervisor derives the publish-lag
    /// gauge from it.
    pub last_episodes: AtomicU64,
}

/// Publishes one snapshot with [`retry`] under the publish backoff.
/// Returns `true` on success. Never propagates an error upward — a dead
/// registry degrades publication, not training.
pub fn publish_with_retry(
    sink: &dyn PublishSink,
    snap: &Snapshot,
    cfg: &PipelineConfig,
    clock: &SharedClock,
    faults: &FaultPlan,
    counters: &PublishCounters,
) -> bool {
    if let Some(delay) = faults.publish_delay() {
        clock.sleep(delay); // a slow registry
    }
    let published = retry(
        clock,
        cfg.publish_max_attempts,
        cfg.publish_backoff,
        cfg.publish_backoff_cap,
        |attempt| {
            let started = std::time::Instant::now();
            let version = if faults.tick(Fault::PublishAttempt) {
                Err(Inf2vecError::Data(DataError::Invalid {
                    message: "injected publish failure".into(),
                }))
            } else {
                sink.publish(snap)
            }?;
            Ok((attempt, version, started.elapsed()))
        },
        |attempt, e: Inf2vecError| {
            cfg.telemetry
                .count("inf2vec_pipeline_publish_retry_total", 1);
            cfg.telemetry.emit_with(|| {
                inf2vec_obs::TraceCtx::for_publish(cfg.seed(), snap.episodes).stamp(
                    inf2vec_obs::Event::new("pipeline.publish_error")
                        .u64("attempt", attempt as u64)
                        .u64("episodes", snap.episodes)
                        .str("error", e.to_string()),
                )
            });
        },
    );
    let Some((attempt, version, elapsed)) = published else {
        counters.failed.fetch_add(1, Ordering::SeqCst);
        cfg.telemetry
            .count("inf2vec_pipeline_publish_failed_total", 1);
        return false;
    };
    // Successful-install latency: the sink call alone, no backoff sleeps.
    cfg.telemetry
        .observe("inf2vec_pipeline_publish_seconds", elapsed.as_secs_f64());
    counters.ok.fetch_add(1, Ordering::SeqCst);
    counters
        .last_episodes
        .fetch_max(snap.episodes, Ordering::SeqCst);
    cfg.telemetry.count("inf2vec_pipeline_publish_ok_total", 1);
    cfg.telemetry.emit_with(|| {
        inf2vec_obs::TraceCtx::for_publish(cfg.seed(), snap.episodes).stamp(
            inf2vec_obs::Event::new("pipeline.publish")
                .u64("version", version)
                .u64("episodes", snap.episodes)
                .u64("attempt", attempt as u64),
        )
    });
    true
}

/// Mangles a snapshot's parameters and **recomputes its checksum**, so
/// integrity verification still passes and only a semantic quality check
/// can reject it. Used by the fault plan's poisoned-snapshot schedule:
/// every source row is negated, which flips the sign of every
/// `S_u · T_v` pair score — a model that ranked true influence targets
/// above random negatives now ranks them below.
pub fn poison_snapshot(snap: &mut Snapshot) {
    let store = &snap.store;
    for u in 0..store.len() {
        // Safety: the publisher owns this clone exclusively; nothing
        // reads it concurrently.
        unsafe {
            for v in store.source.row_mut(u) {
                *v = -*v;
            }
            // Also invert target popularity, so even a model that leans
            // on biases rather than embeddings ranks upside down.
            for b in store.bias_tgt.row_mut(u) {
                *b = -*b;
            }
        }
    }
    snap.checksum = inf2vec_serve::store_checksum(&snap.store);
    snap.label.push_str("-poisoned");
}

/// Exports a snapshot to `dir/model-e<episodes>.txt` (atomic write) with
/// a `.sum` checksum sidecar, so a cold restart can reload the last
/// published model from disk. `fail_after_bytes` threads an injected
/// disk fault into the model write; a failed export leaves no partial
/// file behind (the sidecar is only written after the model lands).
pub fn export_snapshot(
    dir: &Path,
    snap: &Snapshot,
    fail_after_bytes: Option<usize>,
) -> Result<PathBuf, Inf2vecError> {
    std::fs::create_dir_all(dir).map_err(Inf2vecError::Io)?;
    let path = dir.join(format!("model-e{}.txt", snap.episodes));
    inf2vec_util::atomic_write(&path, |f| {
        use std::io::Write;
        let mut w: Box<dyn Write> = match fail_after_bytes {
            Some(limit) => {
                Box::new(inf2vec_util::faultinject::FailingWriter::new(&mut *f, limit))
            }
            None => Box::new(&mut *f),
        };
        snap.store.save(&mut w)
    })
    .map_err(Inf2vecError::Io)?;
    inf2vec_serve::write_checksum_sidecar(&path, &snap.store)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inf2vec_util::{Clock, ManualClock};
    use std::time::Duration;

    fn snap() -> Snapshot {
        let store = EmbeddingStore::zeroed(3, 2);
        store.init_row(0, 1);
        Snapshot {
            checksum: inf2vec_serve::store_checksum(&store),
            store,
            label: "test".into(),
            episodes: 1,
        }
    }

    #[test]
    fn first_publish_retry_respects_the_backoff_cap() {
        let (clock, manual) = ManualClock::shared();
        let cfg = PipelineConfig {
            publish_backoff: Duration::from_millis(50),
            publish_backoff_cap: Duration::from_millis(20),
            ..PipelineConfig::default()
        };
        let faults = FaultPlan::none().with(Fault::PublishAttempt, [1]);
        let counters = PublishCounters::default();
        let before = manual.now();
        assert!(publish_with_retry(
            &CountingSink::new(),
            &snap(),
            &cfg,
            &clock,
            &faults,
            &counters
        ));
        assert_eq!(manual.now() - before, Duration::from_millis(20));
    }

    #[test]
    fn retry_recovers_from_injected_failures() {
        let (clock, manual) = ManualClock::shared();
        let cfg = PipelineConfig::default();
        let sink = CountingSink::new();
        let faults = FaultPlan::none().with(Fault::PublishAttempt, [1, 2]);
        let counters = PublishCounters::default();
        let before = manual.now();
        assert!(publish_with_retry(
            &sink, &snap(), &cfg, &clock, &faults, &counters
        ));
        assert_eq!(sink.published(), 1);
        assert_eq!(counters.ok.load(Ordering::SeqCst), 1);
        // Two failed attempts slept base then 2*base of backoff.
        assert_eq!(manual.now() - before, cfg.publish_backoff * 3);
    }

    #[test]
    fn exhausted_retries_abandon_the_snapshot() {
        let (clock, _manual) = ManualClock::shared();
        let cfg = PipelineConfig {
            publish_max_attempts: 2,
            ..PipelineConfig::default()
        };
        let sink = CountingSink::new();
        let faults = FaultPlan::none().with(Fault::PublishAttempt, [1, 2]);
        let counters = PublishCounters::default();
        assert!(!publish_with_retry(
            &sink, &snap(), &cfg, &clock, &faults, &counters
        ));
        assert_eq!(sink.published(), 0);
        assert_eq!(counters.failed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn registry_sink_round_trips_the_checksum() {
        let registry = Arc::new(ModelRegistry::new(Some(2)));
        let sink = RegistrySink::new(Arc::clone(&registry));
        let v = sink.publish(&snap()).unwrap();
        assert_eq!(v, registry.current_version());
        assert_eq!(registry.current().unwrap().version(), v);
    }
}

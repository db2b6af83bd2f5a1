//! [`LogStore`]: the one owner of the live action log and its segmented
//! archive (`<log>.archive.d/`).
//!
//! A consumer that journals how far it has read the log hands the store
//! each position that every journal slot has durably passed; nothing
//! below it will be replayed from the live file again, so once the file
//! outgrows its byte budget the store rotates those bytes out. Each
//! compaction is three steps in a crash-safe order:
//!
//! 1. **seal** the doomed prefix into the archive (opened lazily at the
//!    first compaction; idempotent, so a crash before step 2 re-seals
//!    nothing);
//! 2. **rewrite** the live log as a sentinel line plus the surviving
//!    suffix (the prefix now exists in exactly one or — transiently,
//!    under a crash — both places, never zero);
//! 3. **expire** archive segments over the retention budgets
//!    (manifest-before-delete, floored at the compaction bound so the
//!    journal replay window always stays restorable).
//!
//! The store reads the live log once per compaction; the seal and the
//! rewrite both cut that one snapshot. Seal and expiry writes retry disk
//! faults with [`retry`]. Failures degrade instead of failing the caller:
//! counted, flight-dumped, retried at the next boundary. A seal whose
//! retry chain is exhausted still lets the rewrite drop the prefix: every
//! lost byte is counted in `inf2vec_pipeline_archive_dropped_bytes_total`,
//! and the archive rebases over the hole so the *suffix* stays
//! restorable.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use inf2vec_obs::{Event, Telemetry};
use inf2vec_util::error::{Inf2vecError, IngestError};
use inf2vec_util::faultinject::{Fault, FaultPlan};
use inf2vec_util::{retry, SharedClock};

use crate::archive::{archive_dir, ArchiveStore, RetentionPolicy};
use crate::tail::{sentinel_base, LiveLog, TailPosition};

/// How a [`LogStore`] bounds the live log and its archive, and how often
/// it retries a failed archive write.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStoreConfig {
    /// Compact once the live log holds more than this many bytes; 0
    /// never compacts (and never creates the archive).
    pub log_budget_bytes: u64,
    /// Budgets the archive's segments are expired under.
    pub retention: RetentionPolicy,
    /// Attempts per seal or expiry before it degrades.
    pub disk_max_attempts: u32,
    /// Sleep before the second attempt, doubling after each failure.
    pub disk_retry_backoff: Duration,
}

/// Per-incarnation accounting of a [`LogStore`]. Every byte that leaves
/// the retained-history window lands in exactly one of `bytes_reclaimed`
/// (expired under the retention policy) or `bytes_dropped` (degraded
/// past — seal retries exhausted), so summing both across incarnations
/// equals the archive's expired-prefix offset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArchiveCounters {
    /// Live-log compactions performed.
    pub compactions: u64,
    /// Segments sealed into the archive store.
    pub segments_sealed: u64,
    /// Segments expired under the retention policy.
    pub segments_expired: u64,
    /// Payload bytes sealed.
    pub bytes_sealed: u64,
    /// Payload bytes reclaimed by retention expiry.
    pub bytes_reclaimed: u64,
    /// Payload bytes compacted away *without* landing in the archive.
    pub bytes_dropped: u64,
}

/// Archive failures that count against the seal: the store open, the
/// rebase manifest and the segment write.
const SEAL_ERRORS: &str = "inf2vec_pipeline_archive_seal_errors_total";

/// The live action log plus its segmented archive (see the module docs).
#[derive(Debug)]
pub struct LogStore {
    path: PathBuf,
    config: LogStoreConfig,
    clock: SharedClock,
    faults: Arc<FaultPlan>,
    telemetry: Telemetry,
    /// Opened at the first compaction. An open failure degrades:
    /// counted, retried at the next boundary.
    archive: Option<ArchiveStore>,
    counters: ArchiveCounters,
}

impl LogStore {
    /// A store over the log at `path`. Nothing is read or created until
    /// the first compaction.
    pub fn new(
        path: impl Into<PathBuf>,
        config: LogStoreConfig,
        clock: SharedClock,
        faults: Arc<FaultPlan>,
        telemetry: Telemetry,
    ) -> Self {
        Self {
            path: path.into(),
            config,
            clock,
            faults,
            telemetry,
            archive: None,
            counters: ArchiveCounters::default(),
        }
    }

    /// The live log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// This incarnation's compaction and archive accounting.
    pub fn counters(&self) -> ArchiveCounters {
        self.counters
    }

    /// The archive, once a compaction has opened it (`None` until then).
    pub fn archive(&self) -> Option<&ArchiveStore> {
        self.archive.as_ref()
    }

    /// Fails typed with [`IngestError::LogRotated`] when the live log no
    /// longer starts at the stream's origin: a consumer starting fresh
    /// cannot replay the rotated-away prefix, and must not silently train
    /// on a truncated stream.
    pub fn require_origin(&self) -> Result<(), Inf2vecError> {
        match sentinel_base(&self.path).map_err(Inf2vecError::Io)? {
            Some((base, _)) if base > 0 => {
                Err(IngestError::LogRotated { committed: 0, base }.into())
            }
            _ => Ok(()),
        }
    }

    /// Compacts the live log when it has outgrown its budget, rotating
    /// away only bytes below `upto` — a position every journal slot has
    /// durably passed, so any recoverable journal can still resume. Runs
    /// seal → rewrite → rebase over a dropped prefix → expire (see the
    /// module docs); never fails. `postmortem` is called with the
    /// flight-dump reason (`archive_seal_failed`, `archive_expiry_failed`)
    /// when a seal or an expiry exhausts its retry chain.
    pub fn compact(&mut self, upto: TailPosition, mut postmortem: impl FnMut(&str)) {
        let budget = self.config.log_budget_bytes;
        if budget == 0 {
            return;
        }
        let live = std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0);
        self.telemetry
            .gauge_set("inf2vec_pipeline_log_bytes", live as f64);
        if live <= budget {
            return;
        }
        let compacted = LiveLog::read(&self.path, upto).and_then(|log| {
            let sealed_ok = self.seal(&log, &mut postmortem);
            let inject = self.faults.tick(Fault::Compaction).then_some(48);
            log.rewrite(&self.path, inject)
                .map(|stats| (stats, sealed_ok))
        });
        match compacted {
            Ok((stats, sealed_ok)) => {
                self.counters.compactions += 1;
                self.telemetry
                    .count("inf2vec_pipeline_compactions_total", 1);
                self.telemetry
                    .gauge_set("inf2vec_pipeline_log_bytes", stats.live_bytes as f64);
                self.telemetry.emit(
                    Event::new("pipeline.compaction")
                        .u64("base", stats.base)
                        .u64("dropped", stats.dropped_bytes)
                        .u64("live", stats.live_bytes),
                );
                if !sealed_ok {
                    // The rewrite dropped bytes the archive never got.
                    self.rebase(upto);
                }
                self.expire(upto, &mut postmortem);
                self.publish_gauges();
            }
            Err(e) => {
                self.telemetry
                    .count("inf2vec_pipeline_compaction_errors_total", 1);
                self.telemetry.emit(
                    Event::new("pipeline.compaction_error")
                        .u64("offset", upto.offset)
                        .str("error", e.to_string()),
                );
            }
        }
    }

    /// Step 1: open the archive if needed and seal the prefix `log` is
    /// about to drop, with [`retry`]. Returns `false` when the prefix
    /// could not be made durable (the caller then degrades to
    /// drop-with-counter).
    fn seal(&mut self, log: &LiveLog, postmortem: &mut impl FnMut(&str)) -> bool {
        let now_ms = self.clock.now().as_millis() as u64;
        if self.archive.is_none() {
            match ArchiveStore::open(archive_dir(&self.path)) {
                Ok(store) => self.archive = Some(store),
                Err(e) => {
                    archive_error(&self.telemetry, SEAL_ERRORS, "open", None, e);
                    return false;
                }
            }
        }
        // A previous incarnation degraded (dropped bytes unarchived) and
        // died before rebasing: the live log starts past the archive
        // end. Finish the rebase so this seal lands contiguously.
        let end = self.archive.as_ref().map_or(0, ArchiveStore::end_offset);
        if log.base().offset > end && !self.rebase(log.base()) {
            return false;
        }
        let store = self.archive.as_mut().expect("store just opened");
        let sealed = retry(
            &self.clock,
            self.config.disk_max_attempts,
            self.config.disk_retry_backoff,
            Duration::MAX,
            |_| {
                let inject = self.faults.tick(Fault::ArchiveSeal).then_some(48);
                store.seal_from(log, now_ms, inject)
            },
            |attempt, e| archive_error(&self.telemetry, SEAL_ERRORS, "seal", Some(attempt), e),
        );
        match sealed {
            Some(0) => true, // already durable (idempotent retry)
            Some(bytes) => {
                self.counters.segments_sealed += 1;
                self.counters.bytes_sealed += bytes;
                self.telemetry
                    .count("inf2vec_pipeline_archive_seals_total", 1);
                self.telemetry
                    .count("inf2vec_pipeline_archive_sealed_bytes_total", bytes);
                self.telemetry.emit(
                    Event::new("pipeline.archive_seal")
                        .u64("seq", store.segments().last().map_or(0, |s| s.seq))
                        .u64("bytes", bytes)
                        .u64("end", store.end_offset()),
                );
                true
            }
            None => {
                postmortem("archive_seal_failed");
                false
            }
        }
    }

    /// Degrade path: the live log lost `[archive start, to)` without the
    /// archive holding it. Rebase the archive boundary to `to` and count
    /// every byte that left the retained-history window. A failed rebase
    /// manifest leaves the archive as is and returns `false`; the next
    /// seal (or the next incarnation's) finishes the rebase.
    fn rebase(&mut self, to: TailPosition) -> bool {
        let Some(store) = self.archive.as_mut() else {
            return false;
        };
        let lost = to.offset.saturating_sub(store.start().offset);
        match store.rebase_to(to) {
            Ok(_) => {
                self.counters.bytes_dropped += lost;
                self.telemetry
                    .count("inf2vec_pipeline_archive_dropped_bytes_total", lost);
                self.telemetry.emit(
                    Event::new("pipeline.archive_rebase")
                        .u64("offset", to.offset)
                        .u64("lost", lost),
                );
                true
            }
            Err(e) => {
                archive_error(&self.telemetry, SEAL_ERRORS, "rebase", None, e);
                false
            }
        }
    }

    /// Step 3: expire segments over the retention budgets, floored at
    /// the compaction bound (nothing in the journal replay window is
    /// deletable), with [`retry`] against manifest-write faults;
    /// exhaustion degrades — the segments stay, the next boundary
    /// retries.
    fn expire(&mut self, floor: TailPosition, postmortem: &mut impl FnMut(&str)) {
        let policy = self.config.retention;
        if policy.is_unbounded() {
            return;
        }
        let Some(store) = self.archive.as_mut() else {
            return;
        };
        let now_ms = self.clock.now().as_millis() as u64;
        let expired = retry(
            &self.clock,
            self.config.disk_max_attempts,
            self.config.disk_retry_backoff,
            Duration::MAX,
            |_| {
                let inject = self.faults.tick(Fault::ArchiveExpiry).then_some(48);
                store.expire(&policy, floor.offset, now_ms, inject)
            },
            |attempt, e| {
                let errors = "inf2vec_pipeline_archive_expiry_errors_total";
                archive_error(&self.telemetry, errors, "expire", Some(attempt), e);
            },
        );
        match expired {
            Some(stats) if stats.segments > 0 => {
                self.counters.segments_expired += stats.segments;
                self.counters.bytes_reclaimed += stats.bytes;
                self.telemetry.count(
                    "inf2vec_pipeline_archive_expired_segments_total",
                    stats.segments,
                );
                self.telemetry.count(
                    "inf2vec_pipeline_archive_reclaimed_bytes_total",
                    stats.bytes,
                );
                self.telemetry.emit(
                    Event::new("pipeline.archive_expiry")
                        .u64("segments", stats.segments)
                        .u64("bytes", stats.bytes)
                        .u64("start", store.start().offset),
                );
            }
            Some(_) => {}
            None => postmortem("archive_expiry_failed"),
        }
    }

    /// Publishes the archive occupancy gauges (no-op before the archive
    /// first opens).
    fn publish_gauges(&self) {
        let Some(store) = self.archive.as_ref() else {
            return;
        };
        self.telemetry.gauge_set(
            "inf2vec_pipeline_archive_segments",
            store.segments().len() as f64,
        );
        self.telemetry.gauge_set(
            "inf2vec_pipeline_archive_bytes",
            store.payload_bytes() as f64,
        );
    }
}

/// Counts one failed archive operation under `counter` and emits its
/// `pipeline.archive_error` event (with the attempt, when retried).
fn archive_error(
    telemetry: &Telemetry,
    counter: &str,
    op: &str,
    attempt: Option<u32>,
    e: std::io::Error,
) {
    telemetry.count(counter, 1);
    let mut event = Event::new("pipeline.archive_error").str("op", op);
    if let Some(attempt) = attempt {
        event = event.u64("attempt", attempt as u64);
    }
    telemetry.emit(event.str("error", e.to_string()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tail::render_sentinel;
    use inf2vec_util::system_clock;

    /// An earlier incarnation's seal exhausted its retries and the rewrite
    /// dropped `[12, 30)`, but it died before rebasing the archive: the
    /// live log now starts past the archive end. The next compaction
    /// finishes that rebase before it seals.
    #[test]
    fn compaction_finishes_a_rebase_an_earlier_incarnation_left_undone() {
        let dir = std::env::temp_dir().join(format!("inf2vec_logstore_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("actions.log");
        // Two archived segments, the older one expired: retention starts
        // at 6 and the archive ends at 12.
        let mut archive = ArchiveStore::open(archive_dir(&log)).unwrap();
        archive.seal(b"0 0 1\n", 1, 0, None).unwrap();
        archive.seal(b"1 0 2\n", 1, 0, None).unwrap();
        let keep_one = RetentionPolicy {
            max_segments: 1,
            ..RetentionPolicy::default()
        };
        archive.expire(&keep_one, 12, 0, None).unwrap();
        assert_eq!((archive.start().offset, archive.end_offset()), (6, 12));
        drop(archive);
        let base = TailPosition {
            offset: 30,
            line_no: 5,
        };
        let payload = "5 0 9\n6 0 9\n7 0 9\n";
        std::fs::write(&log, format!("{}{payload}", render_sentinel(base))).unwrap();

        let telemetry = Telemetry::with_registry();
        let config = LogStoreConfig {
            log_budget_bytes: 1,
            disk_max_attempts: 1,
            ..LogStoreConfig::default()
        };
        let faults = Arc::new(FaultPlan::none());
        let mut store = LogStore::new(&log, config, system_clock(), faults, telemetry.clone());
        let upto = TailPosition {
            offset: 42,
            line_no: 7,
        };
        store.compact(upto, |reason| panic!("unexpected postmortem {reason}"));

        let c = store.counters();
        // The rebase also discards the retained [6, 12): 30 − 6 bytes
        // leave the retained window, counted once.
        assert_eq!(c.bytes_dropped, 30 - 6, "{c:?}");
        let dropped = "inf2vec_pipeline_archive_dropped_bytes_total";
        assert_eq!(telemetry.snapshot().counter_value(dropped, &[]), 24);
        assert_eq!(
            (c.compactions, c.segments_sealed, c.bytes_sealed),
            (1, 1, 12)
        );
        let archive = store.archive().expect("the compaction opened the archive");
        assert_eq!(archive.start().offset, 30);
        assert_eq!(
            archive.segments()[0].base_offset,
            30,
            "the next segment starts at the base"
        );
        assert_eq!(archive.end_offset(), upto.offset);
        let report = archive.verify(Some(&log)).unwrap();
        assert!(report.contiguous_with_live);
        let stats = archive.restore_to(&log, &dir.join("restored.log")).unwrap();
        assert_eq!(
            (stats.start_offset, stats.archived_bytes, stats.live_bytes),
            (30, 12, 6)
        );
        let restored = std::fs::read_to_string(dir.join("restored.log")).unwrap();
        assert_eq!(restored, format!("{}{payload}", render_sentinel(base)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

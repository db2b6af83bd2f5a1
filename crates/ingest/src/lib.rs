#![warn(missing_docs)]

//! `inf2vec-ingest`: robust streaming ingestion for real crawled datasets.
//!
//! The paper trains on crawled action logs (Digg votes, Twitter retweets,
//! Flickr favorites), and real SNAP-style dumps are dirty: junk lines,
//! CRLF/BOM artifacts, non-contiguous ids, re-votes, dangling user ids,
//! wild timestamps. The legacy parsers (`inf2vec_graph::io::read_edge_list`,
//! `inf2vec_diffusion::dataset::read_log`) are strict fail-fast readers
//! that abort on the first bad byte and never cross-check the log against
//! the graph. This crate replaces the loading path with *observable,
//! policy-driven degradation*:
//!
//! - [`ErrorPolicy`] — `Strict` (legacy behaviour, typed error), `Skip`
//!   (quarantine within a `max_errors`/`max_error_ratio` budget), and
//!   `Repair` (best-effort fixes: clamp timestamps, drop what can't be
//!   fixed).
//! - A defect taxonomy ([`DefectKind`]) covering malformed lines, dangling
//!   node ids, duplicate edges/activations, self-loops, non-finite and
//!   out-of-range timestamps, and id overflow.
//! - [`IngestReport`] — per-defect counts, sampled offending lines with
//!   line numbers, and bytes/records throughput, serializable to JSON.
//! - [`IdMap`] — sparse external ids (SNAP crawls are non-contiguous)
//!   interned into the dense `u32` space in first-seen order.
//! - Bounded-memory episode assembly: actions fold straight into a
//!   per-item earliest-activation table instead of materializing the raw
//!   action vector.
//! - [`ValidatedDataset`] — the [`Ingestor`] entry point that
//!   cross-validates log against graph and passes the final bundle
//!   through `Dataset::try_new`.
//! - [`LogTail`] — resumable tailing of an append-only action log for the
//!   continuous-learning pipeline: complete-lines-only consumption and a
//!   persistable [`TailPosition`] so a crash replays exactly once.
//! - [`LogStore`] — the one owner of that log and its segmented
//!   [`ArchiveStore`]: crash-safe compaction under a byte budget (seal →
//!   rewrite → expire), retention, and counted degradation.
//!
//! Telemetry: when [`IngestConfig::telemetry`] is enabled, ingestion emits
//! `ingest_started` / `record_quarantined` / `ingest_finished` events and
//! maintains `inf2vec_ingest_records_total{stream}`,
//! `inf2vec_ingest_bytes_total{stream}`,
//! `inf2vec_ingest_quarantined_total{stream}`,
//! `inf2vec_ingest_defects_total{kind}`, and the
//! `inf2vec_ingest_seconds{stream}` histogram.
//!
//! ```
//! use inf2vec_ingest::{ErrorPolicy, IngestConfig, Ingestor};
//!
//! let edges = b"# nodes: 3\n0 1\njunk line\n1 2\n";
//! let actions = b"0 0 10\n1 0 NaN\n2 0 30\n";
//! let v = Ingestor::new(IngestConfig {
//!     policy: ErrorPolicy::skip(100),
//!     ..IngestConfig::default()
//! })
//! .ingest(edges.as_slice(), actions.as_slice(), "demo")
//! .unwrap();
//! assert_eq!(v.dataset.graph.edge_count(), 2);
//! assert_eq!(v.total_defects(), 2); // the junk line + the NaN timestamp
//! ```

mod actions;
mod archive;
mod collect;
mod edges;
mod idmap;
mod lines;
mod parse;
mod policy;
mod report;
mod store;
mod tail;
mod validated;

pub use archive::{
    archive_dir, ArchiveStart, ArchiveStore, RestoreStats, RetentionPolicy, SegmentMeta,
    VerifyReport, ARCHIVE_SCHEMA_VERSION,
};
pub use idmap::IdMap;
pub use policy::{ErrorPolicy, IdMode, IngestConfig, RATIO_MIN_RECORDS};
pub use report::{DefectSample, Disposition, IngestReport, SAMPLE_MAX_CHARS};
pub use store::{ArchiveCounters, LogStore, LogStoreConfig};
pub use tail::{ActionRecord, LogTail, TailItem, TailPosition};
pub use validated::{Ingestor, ValidatedDataset};

// The taxonomy and error type live in the workspace error hierarchy
// (`inf2vec-util`); re-export them so ingest callers need one import.
pub use inf2vec_util::error::{DefectKind, IngestError};

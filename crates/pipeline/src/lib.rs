#![warn(missing_docs)]

//! Crash-recoverable continuous-learning pipeline.
//!
//! Batch training (ingest a frozen log, train epochs, export) answers the
//! paper's offline evaluation; a deployed influence model instead watches
//! an *append-only action log* grow and must keep the served embeddings
//! current without ever losing or double-counting a record. This crate
//! wires the existing subsystems into that runtime:
//!
//! ```text
//!  action log ──poll──▶ [trainer] ──try_send──▶ [publisher]
//!  (append-only)         tail + parse            retry+backoff
//!                        assemble episodes       install_checked
//!                        online SGNS             into ModelRegistry
//!                        journal commit
//!                             │ ≤ 1 in flight
//!                             ▼
//!                        [journal writer] ──▶ WAL slots
//! ```
//!
//! - [`journal`]: double-slot checksummed write-ahead journal; a crash at
//!   *any* point replays to a bit-identical model (the log is the source
//!   of truth, the journal only commits how far it has been consumed).
//! - [`runner`]: the [`Pipeline`] — a trainer loop that tails the log
//!   itself, its journal-writer and publisher threads, a supervisor that
//!   restarts panicked stages within a restart budget, and exactly-once
//!   episode application across crashes. Compaction of the log and its
//!   archive belongs to the [`LogStore`](inf2vec_ingest::LogStore) the
//!   pipeline drives.
//! - [`publish`]: snapshot publication into the serve registry with
//!   capped exponential backoff; a failing or slow registry never stalls
//!   training (snapshots are skipped, training continues against the last
//!   good version).
//! - [`quality`]: the held-out probe task and quality gate — candidate
//!   snapshots whose probe score regresses past a budget are *withheld*
//!   (counted, health-evented) and the registry keeps serving the last
//!   good version; checksum verification alone cannot catch a poisoned
//!   model whose bits are internally consistent.
//! - [`soak`]: the fault-injection soak harness — drives synthetic
//!   traffic through repeated crash/recover cycles, then reconciles
//!   every written record against exactly one of
//!   {applied, quarantined, pending} and proves replay bit-identity.
//! - [`trace`]: offline causal-trace reconstruction — replays the
//!   trace-stamped event stream back into record → episode → publish
//!   chains (what `repro trace` renders, and what the soak harness
//!   checks for completeness).

pub mod config;
pub mod journal;
pub mod publish;
pub mod quality;
pub mod runner;
pub mod soak;
pub mod trace;

pub use config::{pipeline_health_policy, PipelineConfig};
pub use journal::{Journal, JournalState, OpenItemState};
pub use publish::{CountingSink, PublishSink, RegistrySink, Snapshot};
pub use quality::{ProbeSet, QualityGate};
pub use runner::{Pipeline, Reconciliation};
pub use soak::{run_soak, SoakConfig, SoakReport};
pub use trace::{RecordFate, RecordTrace, TraceIndex};

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh, empty, uniquely named temp directory for one test.
    pub fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "inf2vec_pipeline_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}

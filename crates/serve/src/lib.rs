//! `inf2vec-serve` — a resilient, embeddable influence-scoring service.
//!
//! The training side of this workspace produces [`EmbeddingStore`]
//! snapshots; this crate is the read path that keeps answering
//! influence queries (Eq. 3 pair scores, Eq. 7 aggregated activation
//! scores, top-N ranking) while models are hot-swapped, snapshot
//! sources misbehave, and load exceeds capacity. Four pieces interlock:
//!
//! - [`registry`] — versioned model registry: every load is validated
//!   (parse, dimension pin, all-finite, content checksum) before an
//!   atomic pointer swap publishes it; readers pin their version for
//!   the whole request; a failed load never evicts the serving model.
//! - [`admission`] — bounded admission: an in-flight cap, a FIFO wait
//!   queue with `reject` / `shed` / `block` overload policies, and
//!   cooperative per-request deadlines.
//! - [`breaker`] — a consecutive-failure circuit breaker with
//!   exponential backoff around snapshot (re)loads.
//! - [`service`] — the [`ScoringService`] tying it together, including
//!   the degraded bias-only fallback (`b_u + b̃_v`) that keeps ranked
//!   queries flowing — flagged — when no full model is available, and
//!   runtime non-finite guards that quarantine a model emitting
//!   infinities instead of serving them.
//!
//! [`chaos`] is the proof: a multi-threaded harness that hammers the
//! service while a script of
//! [`SnapshotFault`](inf2vec_util::faultinject::SnapshotFault)s, one per
//! reload, breaks the snapshot source, then reconciles every worker-side tally
//! *exactly* against the `inf2vec-obs` metrics. Every request gets a
//! definitive outcome — success, typed rejection, or flagged degraded
//! answer — and never a hang, panic, or silent NaN.
//!
//! ```
//! use inf2vec_embed::EmbeddingStore;
//! use inf2vec_graph::NodeId;
//! use inf2vec_obs::Telemetry;
//! use inf2vec_serve::{Request, ScoringService, ServeConfig};
//!
//! let svc = ScoringService::new(ServeConfig::default(), Telemetry::disabled());
//! svc.install_store(EmbeddingStore::new(16, 8, 42), "demo").unwrap();
//! let scored = svc.score_pair(NodeId(0), NodeId(3), &Request::new()).unwrap();
//! assert!(scored.value.is_finite() && !scored.degraded);
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod batch;
pub mod breaker;
pub mod chaos;
pub mod frontend;
pub mod registry;
pub mod service;

pub use admission::{Admission, AdmissionConfig, Deadline, OverloadPolicy};
pub use batch::{BatchConfig, Batcher};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use chaos::{ChaosConfig, ChaosReport};
pub use frontend::{Frontend, FrontendConfig};
pub use registry::{
    read_checksum_sidecar, store_checksum, write_checksum_sidecar, BiasFallback, ModelRegistry,
    ModelVersion,
};
pub use service::{Ranked, Request, Scored, ScoringService, ServeConfig, OUTCOMES};

// Re-exported so downstream callers can name the store without a direct
// `inf2vec-embed` dependency.
pub use inf2vec_embed::EmbeddingStore;

#![warn(missing_docs)]

//! Shared utilities for the inf2vec workspace.
//!
//! This crate hosts the small, dependency-light building blocks that the rest
//! of the workspace relies on:
//!
//! - [`hash`]: an Fx-style fast hasher and `FxHashMap`/`FxHashSet` aliases for
//!   integer-keyed tables on hot paths (the default SipHash is needlessly slow
//!   for `u32` node ids and HashDoS is not a concern for offline experiments).
//! - [`rng`]: deterministic, explicitly-seeded random number generation
//!   (SplitMix64 for seed derivation, Xoshiro256++ as the workhorse stream).
//!   Every randomized component in the workspace takes a `u64` seed so that
//!   experiments are reproducible bit-for-bit in single-threaded mode.
//! - [`alias`]: Walker's alias method for O(1) sampling from a fixed discrete
//!   distribution (used by negative sampling and weighted walks).
//! - [`sigmoid`]: a word2vec-style precomputed sigmoid lookup table used by
//!   the skip-gram training kernels.
//! - [`topk`]: a bounded min-heap collector for top-N ranking.
//! - [`stats`]: summary statistics and Welch's t-test for multi-run
//!   experiment reporting.
//! - [`table`]: a fixed-width plain-text table renderer for experiment
//!   output that mirrors the paper's tables.
//! - [`ascii`]: terminal scatter/histogram plots for figure reproduction.
//! - [`error`]: the workspace-wide typed error hierarchy ([`Inf2vecError`]
//!   and friends) that fallible APIs return instead of panicking.
//! - [`fsio`]: crash-safe file persistence (atomic write-temp + fsync +
//!   rename) used by model/store/checkpoint writers.
//! - [`clock`]: time as a capability (system and manual clocks) and the
//!   one bounded [`retry`] loop with capped exponential backoff.
//! - [`faultinject`]: fault-injection writers and readers (truncation,
//!   corruption, slowness, forced I/O errors) and the one deterministic
//!   fault schedule ([`faultinject::FaultPlan`]) for robustness tests;
//!   production code holds only its inert `FaultPlan::none()`.
//! - [`json`]: the workspace's one JSON string escaper, behind every
//!   hand-rolled JSON writer (telemetry events, health and ingest
//!   reports, serve responses), and the recursive-descent [`json::Json`]
//!   parser the HTTP front-end reads request bodies with and telemetry
//!   events are read back with; integer literals stay exact.

pub mod alias;
pub mod ascii;
pub mod clock;
pub mod error;
pub mod faultinject;
pub mod fsio;
pub mod hash;
pub mod json;
pub mod rng;
pub mod sigmoid;
pub mod stats;
pub mod table;
pub mod topk;

pub use alias::AliasTable;
pub use clock::{retry, system_clock, Clock, ManualClock, SharedClock, SystemClock};
pub use error::{
    ConfigError, DataError, DefectKind, Inf2vecError, IngestError, PipelineError, ServeError,
    TrainError,
};
pub use fsio::atomic_write;
pub use hash::{fnv1a, Fnv1a, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use rng::{split_seed, SplitMix64, Xoshiro256pp};
pub use sigmoid::SigmoidTable;
pub use stats::{welch_t_test, RunningStats, Summary};
pub use table::TextTable;
pub use topk::TopK;

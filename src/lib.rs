#![warn(missing_docs)]

//! Inf2vec: latent representation model for social influence embedding.
//!
//! A full Rust implementation of Feng et al., *"Inf2vec: Latent
//! Representation Model for Social Influence Embedding"* (ICDE 2018),
//! including every substrate and baseline the paper's evaluation relies on.
//!
//! # Quick tour
//!
//! ```
//! use inf2vec::prelude::*;
//!
//! // A small synthetic social dataset (graph + diffusion episodes).
//! let synth = inf2vec::diffusion::synth::generate(
//!     &inf2vec::diffusion::synth::SyntheticConfig::tiny(),
//!     7,
//! );
//! let dataset = &synth.dataset;
//! let split = dataset.split(0.8, 0.1, 1);
//!
//! // Learn the influence embedding (Algorithm 2 of the paper).
//! let config = Inf2vecConfig { k: 16, epochs: 3, ..Inf2vecConfig::default() };
//! let model = inf2vec::core::train(dataset, &split.train, &config);
//!
//! // Score "how likely does user 0 influence user 1".
//! let x = model.score(NodeId(0), NodeId(1));
//! assert!(x.is_finite());
//! ```
//!
//! # Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `inf2vec-core` | the Inf2vec model: influence contexts (Algorithm 1), training (Algorithm 2), prediction (Eq. 7) |
//! | [`graph`] | `inf2vec-graph` | CSR digraphs, generators, random walks, edge-list I/O |
//! | [`ingest`] | `inf2vec-ingest` | robust streaming ingestion: error policies, defect quarantine, id remapping, validated dataset assembly |
//! | [`diffusion`] | `inf2vec-diffusion` | action logs, episodes, influence pairs, propagation networks, IC/LT simulators, synthetic datasets |
//! | [`embed`] | `inf2vec-embed` | embedding stores, SGNS kernels, Hogwild parallel SGD |
//! | [`baselines`] | `inf2vec-baselines` | DE, ST, IC-EM, Emb-IC, MF-BPR, node2vec |
//! | [`eval`] | `inf2vec-eval` | activation/diffusion prediction tasks, AUC/MAP/P@N, aggregators |
//! | [`serve`] | `inf2vec-serve` | resilient scoring service: versioned hot-swap registry, bounded admission, deadlines, circuit breaker, degraded fallback, chaos harness |
//! | [`pipeline`] | `inf2vec-pipeline` | crash-recoverable continuous learning: journaled log tailing, online SGNS, retried live publish, fault-injection soak |
//! | [`obs`] | `inf2vec-obs` | std-only telemetry (no external crates): metrics registry, spans, JSONL events, Prometheus exposition |
//! | [`tsne`] | `inf2vec-tsne` | exact t-SNE + PCA for embedding visualization |
//! | [`util`] | `inf2vec-util` | hashing, deterministic RNG, alias sampling, stats, text tables/plots |
//!
//! The `repro` binary (`cargo run -p inf2vec-bench --release --bin repro -- all`)
//! regenerates every table and figure of the paper; see EXPERIMENTS.md.

pub use inf2vec_baselines as baselines;
pub use inf2vec_core as core;
pub use inf2vec_diffusion as diffusion;
pub use inf2vec_embed as embed;
pub use inf2vec_eval as eval;
pub use inf2vec_graph as graph;
pub use inf2vec_ingest as ingest;
pub use inf2vec_obs as obs;
pub use inf2vec_pipeline as pipeline;
pub use inf2vec_serve as serve;
pub use inf2vec_tsne as tsne;
pub use inf2vec_util as util;

/// Commonly used items in one import.
pub mod prelude {
    pub use inf2vec_core::{Inf2vecConfig, Inf2vecModel};
    pub use inf2vec_diffusion::{Action, ActionLog, Dataset, Episode, ItemId, PropagationNetwork};
    pub use inf2vec_embed::EmbeddingStore;
    pub use inf2vec_eval::{Aggregator, RankingMetrics, ScoringModel};
    pub use inf2vec_graph::{DiGraph, GraphBuilder, NodeId};
    pub use inf2vec_ingest::{ErrorPolicy, IngestConfig, Ingestor, ValidatedDataset};
    pub use inf2vec_serve::{OverloadPolicy, Request, ScoringService, ServeConfig};
    pub use inf2vec_util::rng::Xoshiro256pp;
}

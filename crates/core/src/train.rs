//! Algorithm 2: the Inf2vec training pipeline.
//!
//! Every entry point exists in two flavours: a `try_*` function returning
//! [`Inf2vecError`] (the API new code should call) and the historical
//! panicking wrapper kept for benches and examples. On top of those,
//! [`train_resumable`] adds periodic atomic checkpoints, automatic resume
//! after a crash, and loss-divergence rollback — see [`FaultTolerance`].

use std::path::PathBuf;

use inf2vec_diffusion::{Dataset, PropagationNetwork};
use inf2vec_embed::checkpoint::{write_checkpoint, Checkpoint};
use inf2vec_embed::sgns::{
    DivergenceGuard, FlatPairs, PairSource, SgnsConfig, SgnsTrainer, TrainOptions, TrainReport,
};
use inf2vec_embed::{EmbeddingStore, NegativeTable};
use inf2vec_util::error::{ConfigError, Inf2vecError, TrainError};
use inf2vec_util::rng::split_seed;

use crate::config::Inf2vecConfig;
use crate::corpus::InfluenceContextSource;
use crate::model::Inf2vecModel;

/// Periodic-snapshot policy for [`train_resumable`].
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Where the checkpoint lives. Written atomically; an existing file at
    /// this path is treated as a prior run's state and resumed from.
    pub path: PathBuf,
    /// Checkpoint after every `every_epochs` completed epochs (and always
    /// after the final one). 1 = every epoch.
    pub every_epochs: usize,
}

impl CheckpointConfig {
    /// Checkpoints to `path` after every epoch.
    pub fn every_epoch(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            every_epochs: 1,
        }
    }
}

/// Fault-tolerance options for [`train_resumable`]: both knobs default to
/// off, reproducing plain training.
#[derive(Debug, Clone, Default)]
pub struct FaultTolerance {
    /// Periodic atomic snapshots + resume-on-restart.
    pub checkpoint: Option<CheckpointConfig>,
    /// Per-epoch loss anomaly detection with rollback and lr backoff.
    pub guard: Option<DivergenceGuard>,
}

/// Trains Inf2vec on the training episodes of `dataset` (Algorithm 2).
///
/// `train_idx` selects the training episodes (from [`Dataset::split`]);
/// pass `0..n` to train on everything.
///
/// Panicking wrapper over [`try_train`].
pub fn train(dataset: &Dataset, train_idx: &[usize], config: &Inf2vecConfig) -> Inf2vecModel {
    try_train(dataset, train_idx, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`train`].
pub fn try_train(
    dataset: &Dataset,
    train_idx: &[usize],
    config: &Inf2vecConfig,
) -> Result<Inf2vecModel, Inf2vecError> {
    config.validate()?;
    // Lines 3-4: extract the propagation network of every episode.
    let nets = PropagationNetwork::build_all(
        &dataset.graph,
        train_idx.iter().map(|&i| &dataset.log.episodes()[i]),
        &config.telemetry,
    );
    Ok(try_train_on_networks(dataset.graph.node_count() as usize, nets, config)?.0)
}

/// Trains from pre-built propagation networks; returns the model and the
/// SGNS report (exposed for the efficiency benches).
///
/// Panicking wrapper over [`try_train_on_networks`].
pub fn train_on_networks(
    n_nodes: usize,
    nets: Vec<PropagationNetwork>,
    config: &Inf2vecConfig,
) -> (Inf2vecModel, TrainReport) {
    try_train_on_networks(n_nodes, nets, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`train_on_networks`].
pub fn try_train_on_networks(
    n_nodes: usize,
    nets: Vec<PropagationNetwork>,
    config: &Inf2vecConfig,
) -> Result<(Inf2vecModel, TrainReport), Inf2vecError> {
    config.validate()?;
    // Lines 5-8: generate the influence contexts.
    let source = InfluenceContextSource::new(nets, config);
    // Negative sampling over the context-target distribution (unigram^0.75).
    let negatives = NegativeTable::from_counts(&source.context_target_counts(n_nodes));
    train_resumable_on_source(
        n_nodes,
        &source,
        &negatives,
        config,
        &FaultTolerance::default(),
    )
}

/// Trains directly on first-order influence pairs, skipping Algorithm 1.
///
/// This is the setting of the Table VI citation case study ("we only
/// exploit first-order social influence pairs") and of the paper's
/// efficiency footnote (same input as Emb-IC).
///
/// Panicking wrapper over [`try_train_on_pairs`].
pub fn train_on_pairs(
    n_nodes: usize,
    pairs: &[(u32, u32)],
    config: &Inf2vecConfig,
) -> Inf2vecModel {
    try_train_on_pairs(n_nodes, pairs, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`train_on_pairs`].
pub fn try_train_on_pairs(
    n_nodes: usize,
    pairs: &[(u32, u32)],
    config: &Inf2vecConfig,
) -> Result<Inf2vecModel, Inf2vecError> {
    config.validate()?;
    let source = FlatPairs::new(pairs.to_vec());
    // Uniform negatives (the paper: "we randomly generate several negative
    // instances"). A unigram^0.75 table — word2vec's default, used by the
    // full pipeline — is counterproductive here: first-order pair lists
    // concentrate on few frequent targets, and frequency-weighted negatives
    // would cancel exactly the popularity signal the conformity bias should
    // capture.
    let negatives = NegativeTable::uniform(n_nodes as u32);
    let ft = FaultTolerance::default();
    Ok(train_resumable_on_source(n_nodes, &source, &negatives, config, &ft)?.0)
}

/// Selects the component weight α on the tuning split, mirroring the
/// paper's §V-A2 procedure ("based on the empirical study on tuning set,
/// we set the default component weight α = 0.1").
///
/// Trains one model per candidate α and returns the candidate with the
/// best tuning-set activation-prediction MAP (ties: first candidate).
///
/// # Panics
///
/// Panicking wrapper over [`try_select_alpha`]: panics if `candidates` is
/// empty or any config is invalid.
pub fn select_alpha(
    dataset: &Dataset,
    train_idx: &[usize],
    tune_idx: &[usize],
    candidates: &[f64],
    config: &Inf2vecConfig,
) -> (f64, f64) {
    try_select_alpha(dataset, train_idx, tune_idx, candidates, config)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`select_alpha`].
pub fn try_select_alpha(
    dataset: &Dataset,
    train_idx: &[usize],
    tune_idx: &[usize],
    candidates: &[f64],
    config: &Inf2vecConfig,
) -> Result<(f64, f64), Inf2vecError> {
    if candidates.is_empty() {
        return Err(ConfigError::new("candidates", "need at least one candidate alpha").into());
    }
    let task = inf2vec_eval::activation::ActivationTask::build(
        &dataset.graph,
        tune_idx.iter().map(|&i| &dataset.log.episodes()[i]),
    );
    let mut best = (candidates[0], f64::NEG_INFINITY);
    for &alpha in candidates {
        let mut cfg = config.clone();
        cfg.alpha = alpha;
        cfg.validate()?;
        let model = try_train(dataset, train_idx, &cfg)?;
        let metrics = inf2vec_eval::runner::observe_evaluation(
            &config.telemetry,
            "alpha_tuning_activation",
            || {
                task.evaluate(&inf2vec_eval::ScoringModel::Representation(
                    &model,
                    inf2vec_eval::Aggregator::Ave,
                ))
            },
        );
        if metrics.map > best.1 {
            best = (alpha, metrics.map);
        }
    }
    Ok(best)
}

/// Trains with checkpoint/resume and divergence protection (Algorithm 2
/// plus the fault-tolerance layer).
///
/// When `ft.checkpoint` is set and a checkpoint file already exists at its
/// path, training resumes from it instead of starting over — in
/// single-thread mode the resumed run is bit-identical to an uninterrupted
/// one, because per-epoch RNG streams depend only on `(seed, epoch)`.
/// Fresh snapshots are written atomically after every
/// `every_epochs` completed epochs.
pub fn train_resumable(
    dataset: &Dataset,
    train_idx: &[usize],
    config: &Inf2vecConfig,
    ft: &FaultTolerance,
) -> Result<(Inf2vecModel, TrainReport), Inf2vecError> {
    config.validate()?;
    let nets = PropagationNetwork::build_all(
        &dataset.graph,
        train_idx.iter().map(|&i| &dataset.log.episodes()[i]),
        &config.telemetry,
    );
    let n_nodes = dataset.graph.node_count() as usize;
    let source = InfluenceContextSource::new(nets, config);
    let negatives = NegativeTable::from_counts(&source.context_target_counts(n_nodes));
    train_resumable_on_source(n_nodes, &source, &negatives, config, ft)
}

/// Resumes training from an existing checkpoint, erroring if there is
/// nothing to resume from (use [`train_resumable`] when a cold start is an
/// acceptable fallback).
pub fn resume_from_checkpoint(
    dataset: &Dataset,
    train_idx: &[usize],
    config: &Inf2vecConfig,
    ft: &FaultTolerance,
) -> Result<(Inf2vecModel, TrainReport), Inf2vecError> {
    let ck = ft.checkpoint.as_ref().ok_or_else(|| {
        Inf2vecError::Config(ConfigError::new(
            "checkpoint",
            "resume requires a checkpoint config",
        ))
    })?;
    if !ck.path.exists() {
        return Err(Inf2vecError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no checkpoint at {}", ck.path.display()),
        )));
    }
    train_resumable(dataset, train_idx, config, ft)
}

/// [`train_resumable`] over an explicit pair source — the seam the
/// fault-injection tests use to wrap sources with panic triggers, and the
/// path custom corpora can call directly.
pub fn train_resumable_on_source(
    n_nodes: usize,
    source: &dyn PairSource,
    negatives: &NegativeTable,
    config: &Inf2vecConfig,
    ft: &FaultTolerance,
) -> Result<(Inf2vecModel, TrainReport), Inf2vecError> {
    config.validate()?;

    // Resume state: either a prior checkpoint or a fresh initialization
    // (Algorithm 2 line 1: S, T ~ U[-1/K, 1/K], biases 0).
    let resumed = match &ft.checkpoint {
        Some(ck) if ck.path.exists() => Some(Checkpoint::load_from_path(&ck.path)?),
        _ => None,
    };
    let (store, start_epoch, pairs_done, lr_scale, last_good) = match resumed {
        Some(ck) => {
            if ck.store.len() != n_nodes {
                return Err(TrainError::ShapeMismatch {
                    what: "checkpoint node count disagrees with the dataset",
                    expected: n_nodes,
                    found: ck.store.len(),
                }
                .into());
            }
            if ck.store.k() != config.k {
                return Err(TrainError::ShapeMismatch {
                    what: "checkpoint dimension disagrees with config K",
                    expected: config.k,
                    found: ck.store.k(),
                }
                .into());
            }
            if ck.epochs_done > config.epochs {
                return Err(TrainError::ShapeMismatch {
                    what: "checkpoint is ahead of the configured epochs",
                    expected: config.epochs,
                    found: ck.epochs_done,
                }
                .into());
            }
            (
                ck.store,
                ck.epochs_done,
                ck.pairs_processed,
                ck.lr_scale,
                ck.last_good_loss,
            )
        }
        None => {
            let mut store =
                EmbeddingStore::new(n_nodes, config.k, split_seed(config.seed, 0x171));
            store.use_bias = config.use_bias;
            (store, 0, 0, 1.0, None)
        }
    };

    let trainer = SgnsTrainer::try_new(SgnsConfig {
        negatives: config.negatives,
        lr: config.lr,
        lr_min: config.lr,
        epochs: config.epochs,
        threads: config.threads,
        seed: split_seed(config.seed, 0x262),
    })?;

    let epochs = config.epochs;
    let mut hook;
    let on_epoch: Option<inf2vec_embed::sgns::EpochHook<'_>> = match &ft.checkpoint {
        Some(ck) => {
            let every = ck.every_epochs.max(1);
            let path = ck.path.clone();
            let store_ref = &store;
            let telemetry = config.telemetry.clone();
            hook = move |st: &inf2vec_embed::EpochState| -> std::io::Result<()> {
                let done = st.epoch + 1;
                if done.is_multiple_of(every) || done == epochs {
                    let start = std::time::Instant::now();
                    write_checkpoint(
                        &path,
                        done,
                        st.pairs_processed,
                        st.lr_scale,
                        Some(st.mean_loss),
                        store_ref,
                    )?;
                    let secs = start.elapsed().as_secs_f64();
                    telemetry.observe("inf2vec_checkpoint_write_seconds", secs);
                    telemetry.emit(
                        inf2vec_obs::Event::new("checkpoint")
                            .u64("epochs_done", done as u64)
                            .u64("pairs", st.pairs_processed)
                            .f64("seconds", secs),
                    );
                }
                Ok(())
            };
            Some(&mut hook)
        }
        None => None,
    };

    let report = trainer.try_train_with(
        &store,
        source,
        negatives,
        TrainOptions {
            start_epoch,
            pairs_already_processed: pairs_done,
            lr_scale,
            last_good_loss: last_good,
            guard: ft.guard.clone(),
            on_epoch,
            telemetry: config.telemetry.clone(),
        },
    )?;
    Ok((Inf2vecModel::new(store), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use inf2vec_diffusion::pairs::pair_frequencies;
    use inf2vec_diffusion::synth::{generate, SyntheticConfig};
    use inf2vec_graph::NodeId;

    fn tiny_setup() -> (Dataset, Vec<usize>) {
        let s = generate(&SyntheticConfig::tiny(), 11);
        let n = s.dataset.log.len();
        (s.dataset, (0..n).collect())
    }

    /// Training should make observed influence pairs score higher than
    /// random pairs — the core claim of the representation model.
    #[test]
    fn observed_pairs_outrank_random_pairs() {
        let (dataset, idx) = tiny_setup();
        let config = Inf2vecConfig {
            k: 16,
            l: 20,
            epochs: 8,
            lr: 0.02,
            seed: 1,
            ..Inf2vecConfig::default()
        };
        let model = train(&dataset, &idx, &config);

        let freq = pair_frequencies(&dataset.graph, dataset.log.episodes());
        let mut observed = 0.0f64;
        let mut n_obs = 0usize;
        for (&(u, v), &c) in freq.iter() {
            if c >= 1 {
                observed += model.score(NodeId(u), NodeId(v)) as f64;
                n_obs += 1;
            }
        }
        let observed = observed / n_obs as f64;

        let mut rng = inf2vec_util::Xoshiro256pp::new(99);
        let n = dataset.graph.node_count() as u64;
        let mut random = 0.0f64;
        let trials = 2000;
        for _ in 0..trials {
            let u = rng.below(n) as u32;
            let v = rng.below(n) as u32;
            random += model.score(NodeId(u), NodeId(v)) as f64;
        }
        let random = random / trials as f64;
        assert!(
            observed > random + 0.1,
            "observed pairs {observed:.4} vs random {random:.4}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (dataset, idx) = tiny_setup();
        let config = Inf2vecConfig {
            k: 8,
            l: 10,
            epochs: 2,
            seed: 5,
            ..Inf2vecConfig::default()
        };
        let m1 = train(&dataset, &idx[..20], &config);
        let m2 = train(&dataset, &idx[..20], &config);
        assert_eq!(m1.store.source.to_vec(), m2.store.source.to_vec());
        let m3 = train(
            &dataset,
            &idx[..20],
            &Inf2vecConfig {
                seed: 6,
                ..config.clone()
            },
        );
        assert_ne!(m1.store.source.to_vec(), m3.store.source.to_vec());
    }

    #[test]
    fn pairs_only_training_learns_direction() {
        // Pairs all point 0 -> 1..4 inside a 40-node vocabulary (the extra
        // nodes exist so negative sampling has true negatives to draw);
        // score(0, x) should beat score(x, 0) after training.
        let mut pairs = Vec::new();
        for v in 1..5u32 {
            for _ in 0..100 {
                pairs.push((0u32, v));
            }
        }
        let config = Inf2vecConfig {
            k: 8,
            epochs: 10,
            lr: 0.05,
            seed: 2,
            ..Inf2vecConfig::default()
        };
        let model = train_on_pairs(40, &pairs, &config);
        // True targets must outrank non-targets for the same source (the
        // absolute score level is arbitrary under negative sampling).
        let target: f32 = (1..5).map(|v| model.score(NodeId(0), NodeId(v))).sum::<f32>() / 4.0;
        let other: f32 =
            (5..40).map(|v| model.score(NodeId(0), NodeId(v))).sum::<f32>() / 35.0;
        assert!(
            target > other + 0.5,
            "targets {target} vs non-targets {other}"
        );
    }

    #[test]
    fn inf2vec_l_variant_trains() {
        let (dataset, idx) = tiny_setup();
        let config = Inf2vecConfig {
            k: 8,
            l: 10,
            epochs: 2,
            seed: 3,
            ..Inf2vecConfig::default()
        }
        .inf2vec_l();
        let model = train(&dataset, &idx[..20], &config);
        assert_eq!(model.store.k(), 8);
    }

    #[test]
    fn alpha_selection_runs_and_returns_candidate() {
        let (dataset, idx) = tiny_setup();
        let split_at = (idx.len() * 8) / 10;
        let (train_idx, tune_idx) = idx.split_at(split_at);
        let config = Inf2vecConfig {
            k: 8,
            l: 10,
            epochs: 2,
            seed: 12,
            ..Inf2vecConfig::default()
        };
        let candidates = [0.1, 1.0];
        let (alpha, map) = select_alpha(&dataset, train_idx, tune_idx, &candidates, &config);
        assert!(candidates.contains(&alpha));
        assert!((0.0..=1.0).contains(&map));
    }

    #[test]
    fn empty_training_set_yields_initialized_model() {
        let (dataset, _) = tiny_setup();
        let config = Inf2vecConfig {
            k: 8,
            epochs: 1,
            ..Inf2vecConfig::default()
        };
        let model = train(&dataset, &[], &config);
        assert_eq!(model.store.len(), dataset.graph.node_count() as usize);
    }
}

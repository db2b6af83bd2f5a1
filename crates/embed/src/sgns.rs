//! Skip-gram with negative sampling (Eq. 4–6 of the paper).
//!
//! The trainer maximizes
//! `log σ(z_v) + Σ_{w∈N} log σ(-z_w)` with `z_x = S_u·T_x + b_u + b̃_x`
//! for every training pair `(u, v)` delivered by a [`PairSource`], applying
//! the exact gradient updates of the paper's Eq. 6 with SGD (Eq. 5).
//!
//! Training is single-threaded by default (bit-reproducible per seed) and
//! can fan out Hogwild-style over shards of the pair stream when
//! `threads > 1`.
//!
//! # Fault tolerance
//!
//! The fallible entry point is [`SgnsTrainer::try_train_with`]:
//!
//! - **Resumability.** Per-epoch RNG streams are derived purely from
//!   `(seed, epoch, shard)`, so [`TrainOptions::start_epoch`] continues a
//!   run bit-identically (in single-thread mode) from a restored parameter
//!   snapshot — no mid-stream RNG state needs to be persisted.
//! - **Divergence guard.** With a [`DivergenceGuard`], each epoch's mean
//!   loss is checked for NaN/Inf or a blow-up relative to the last healthy
//!   epoch; a diverged epoch is rolled back to the previous snapshot and
//!   retried at a reduced learning rate, up to a recovery budget.
//! - **Panic containment.** Hogwild workers run under `catch_unwind`; a
//!   panicking worker degrades the epoch to the surviving threads and
//!   surfaces as [`TrainError::WorkerPanic`] after they finish, instead of
//!   poisoning the process.
//!
//! The historical panicking API ([`SgnsTrainer::train`]) remains as a thin
//! wrapper for benches and callers that treat failure as fatal.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use inf2vec_obs::{Event, Telemetry};
use inf2vec_util::error::{ConfigError, Inf2vecError, TrainError};
use inf2vec_util::rng::{split_seed, Xoshiro256pp};
use inf2vec_util::SigmoidTable;
use rand::RngCore as _;

use crate::negative::NegativeTable;
use crate::store::EmbeddingStore;

#[cfg(target_arch = "x86_64")]
mod avx2;

/// A (re-playable) stream of `(center, context)` training pairs.
///
/// Implementations deliver pairs shard-by-shard so the trainer can run one
/// thread per shard; with a single shard the full stream arrives in order.
pub trait PairSource: Sync {
    /// Invokes `f(u, v)` for every pair of shard `shard` (of `n_shards`) in
    /// this epoch. `rng` may be used for per-epoch shuffling or sampling.
    fn for_each_pair(
        &self,
        epoch: usize,
        shard: usize,
        n_shards: usize,
        rng: &mut Xoshiro256pp,
        f: &mut dyn FnMut(u32, u32),
    );

    /// Approximate pairs per epoch across all shards (drives the optional
    /// learning-rate schedule).
    fn pairs_per_epoch(&self) -> u64;
}

/// The simplest source: a materialized pair list, shuffled per epoch.
#[derive(Debug, Clone)]
pub struct FlatPairs {
    pairs: Vec<(u32, u32)>,
}

impl FlatPairs {
    /// Wraps a pair list.
    pub fn new(pairs: Vec<(u32, u32)>) -> Self {
        Self { pairs }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

impl PairSource for FlatPairs {
    fn for_each_pair(
        &self,
        _epoch: usize,
        shard: usize,
        n_shards: usize,
        rng: &mut Xoshiro256pp,
        f: &mut dyn FnMut(u32, u32),
    ) {
        let mut idx: Vec<u32> = (shard..self.pairs.len())
            .step_by(n_shards)
            .map(|i| i as u32)
            .collect();
        rng.shuffle(&mut idx);
        for i in idx {
            let (u, v) = self.pairs[i as usize];
            f(u, v);
        }
    }

    fn pairs_per_epoch(&self) -> u64 {
        self.pairs.len() as u64
    }
}

/// SGNS hyper-parameters.
#[derive(Debug, Clone)]
pub struct SgnsConfig {
    /// Number of negative samples per positive pair (paper: 5–10).
    pub negatives: usize,
    /// Initial learning rate γ (paper default 0.005).
    pub lr: f32,
    /// Floor for the linearly-decayed learning rate. Setting it equal to
    /// `lr` (the default) keeps the rate constant, matching the paper.
    pub lr_min: f32,
    /// Number of passes over the pair stream (the paper reports
    /// convergence in 10–20 iterations).
    pub epochs: usize,
    /// Hogwild worker threads; 1 (default) is deterministic.
    pub threads: usize,
    /// RNG seed for shuffling and negative sampling.
    pub seed: u64,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        Self {
            negatives: 5,
            lr: 0.005,
            lr_min: 0.005,
            epochs: 15,
            threads: 1,
            seed: 0,
        }
    }
}

impl SgnsConfig {
    /// Checks hyper-parameter sanity.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.epochs == 0 {
            return Err(ConfigError::new("epochs", "need at least one epoch"));
        }
        if self.threads == 0 {
            return Err(ConfigError::new("threads", "need at least one thread"));
        }
        if !(self.lr > 0.0 && self.lr.is_finite()) {
            return Err(ConfigError::new("lr", "learning rate must be positive"));
        }
        Ok(())
    }
}

/// One divergence-guard intervention recorded in a [`TrainReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// 0-based epoch whose first attempt diverged.
    pub epoch: usize,
    /// The diverged mean loss that triggered the rollback (may be NaN/Inf).
    pub loss: f64,
    /// The learning-rate multiplier in effect *after* the backoff.
    pub lr_scale: f32,
}

/// Loss-anomaly detection policy for [`SgnsTrainer::try_train_with`].
///
/// An epoch is declared diverged when its mean loss is non-finite, or
/// exceeds `blowup ×` the previous healthy epoch's loss. The trainer then
/// restores the last healthy parameter snapshot, multiplies the learning
/// rate by `backoff`, and retries the epoch — at most `max_recoveries`
/// times across the whole run before giving up with
/// [`TrainError::Diverged`].
#[derive(Debug, Clone)]
pub struct DivergenceGuard {
    /// Relative loss-jump threshold (γ_blowup).
    pub blowup: f64,
    /// Learning-rate multiplier applied on each recovery (0 < backoff < 1).
    pub backoff: f32,
    /// Total recovery budget for the run.
    pub max_recoveries: usize,
}

impl Default for DivergenceGuard {
    fn default() -> Self {
        Self {
            blowup: 3.0,
            backoff: 0.5,
            max_recoveries: 3,
        }
    }
}

/// State handed to the per-epoch hook after each *healthy* epoch.
#[derive(Debug, Clone)]
pub struct EpochState {
    /// The 0-based epoch that just completed.
    pub epoch: usize,
    /// Its mean negative log-likelihood per pair.
    pub mean_loss: f64,
    /// The learning-rate multiplier currently in effect (1.0 unless the
    /// divergence guard backed off).
    pub lr_scale: f32,
    /// Cumulative pairs processed, including any resumed-from offset.
    pub pairs_processed: u64,
}

/// The per-epoch callback slot of [`TrainOptions`] — the checkpointing
/// seam. Receives the completed epoch's [`EpochState`]; an `Err` aborts
/// training.
pub type EpochHook<'a> = &'a mut dyn FnMut(&EpochState) -> std::io::Result<()>;

/// Continuation and fault-tolerance options for
/// [`SgnsTrainer::try_train_with`].
///
/// `Default` reproduces the historical behaviour: start from epoch 0, no
/// guard, no hook.
pub struct TrainOptions<'a> {
    /// First epoch to run (0-based). A checkpoint that completed epoch `e`
    /// resumes with `start_epoch = e + 1`.
    pub start_epoch: usize,
    /// Pairs already processed by previous runs (keeps the lr schedule and
    /// report totals continuous across resumes).
    pub pairs_already_processed: u64,
    /// Learning-rate multiplier carried over from a previous run's guard
    /// backoffs (1.0 for a fresh run).
    pub lr_scale: f32,
    /// The last healthy epoch's mean loss, if any (the guard's baseline
    /// when resuming).
    pub last_good_loss: Option<f64>,
    /// Divergence detection and recovery policy; `None` disables rollback
    /// (NaNs then only fail at save time).
    pub guard: Option<DivergenceGuard>,
    /// Called after every healthy epoch — the checkpointing seam. An `Err`
    /// aborts training with [`Inf2vecError::Io`].
    pub on_epoch: Option<EpochHook<'a>>,
    /// Metrics and event destination. The disabled default costs one
    /// branch per epoch and nothing per pair.
    pub telemetry: Telemetry,
}

impl Default for TrainOptions<'_> {
    fn default() -> Self {
        Self {
            start_epoch: 0,
            pairs_already_processed: 0,
            lr_scale: 1.0,
            last_good_loss: None,
            guard: None,
            on_epoch: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

impl std::fmt::Debug for TrainOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainOptions")
            .field("start_epoch", &self.start_epoch)
            .field("pairs_already_processed", &self.pairs_already_processed)
            .field("lr_scale", &self.lr_scale)
            .field("last_good_loss", &self.last_good_loss)
            .field("guard", &self.guard)
            .field("on_epoch", &self.on_epoch.as_ref().map(|_| "<hook>"))
            .field("telemetry", &self.telemetry)
            .finish()
    }
}

/// What a training run did.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Total positive pairs processed, including any resumed-from offset.
    pub pairs_processed: u64,
    /// Mean negative log-likelihood per pair over the final epoch.
    pub final_epoch_loss: f64,
    /// Total epochs the model has completed (== `config.epochs` on
    /// success, also counting epochs done before a resume).
    pub epochs: usize,
    /// Mean loss of each epoch run by *this* call, in order.
    pub epoch_losses: Vec<f64>,
    /// Wall-clock seconds of each healthy epoch run by *this* call, in
    /// order (parallel to `epoch_losses`; diverged attempts are excluded).
    pub epoch_durations: Vec<f64>,
    /// Mean throughput over the healthy epochs of *this* call, in positive
    /// pairs per second (0.0 when nothing was timed).
    pub pairs_per_sec: f64,
    /// Divergence-guard interventions, in order of occurrence.
    pub recoveries: Vec<RecoveryEvent>,
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The skip-gram trainer.
#[derive(Debug, Clone)]
pub struct SgnsTrainer {
    /// Hyper-parameters.
    pub config: SgnsConfig,
    sigmoid: SigmoidTable,
}

impl SgnsTrainer {
    /// Creates a trainer, validating the config.
    pub fn try_new(config: SgnsConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Self {
            config,
            sigmoid: SigmoidTable::default(),
        })
    }

    /// Creates a trainer, panicking on an invalid config (legacy wrapper
    /// over [`try_new`](Self::try_new)).
    pub fn new(config: SgnsConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Trains `store` on `source`'s pairs with negatives from `negatives`,
    /// panicking on any failure (legacy wrapper over
    /// [`try_train`](Self::try_train)).
    pub fn train(
        &self,
        store: &EmbeddingStore,
        source: &dyn PairSource,
        negatives: &NegativeTable,
    ) -> TrainReport {
        self.try_train(store, source, negatives)
            .unwrap_or_else(|e| panic!("sgns training failed: {e}"))
    }

    /// Trains with default options (fresh run, no guard, no hook).
    pub fn try_train(
        &self,
        store: &EmbeddingStore,
        source: &dyn PairSource,
        negatives: &NegativeTable,
    ) -> Result<TrainReport, Inf2vecError> {
        self.try_train_with(store, source, negatives, TrainOptions::default())
    }

    /// The full fault-tolerant training loop; see the module docs.
    pub fn try_train_with(
        &self,
        store: &EmbeddingStore,
        source: &dyn PairSource,
        negatives: &NegativeTable,
        mut opts: TrainOptions<'_>,
    ) -> Result<TrainReport, Inf2vecError> {
        let cfg = &self.config;
        if !(opts.lr_scale > 0.0 && opts.lr_scale.is_finite()) {
            return Err(ConfigError::new("lr_scale", "learning-rate scale must be positive").into());
        }
        if opts.start_epoch > cfg.epochs {
            return Err(ConfigError::new(
                "start_epoch",
                format!(
                    "start epoch {} is past the configured {} epochs",
                    opts.start_epoch, cfg.epochs
                ),
            )
            .into());
        }

        let total_pairs = (source.pairs_per_epoch() * cfg.epochs as u64).max(1);
        let progress = AtomicU64::new(opts.pairs_already_processed.min(total_pairs));
        let mut pairs_processed = opts.pairs_already_processed;
        let mut final_loss = 0.0f64;
        let mut epoch_losses = Vec::new();
        let mut epoch_durations = Vec::new();
        let mut recoveries: Vec<RecoveryEvent> = Vec::new();
        let mut lr_scale = opts.lr_scale;
        let mut last_good = opts.last_good_loss;
        let mut snapshot = opts.guard.as_ref().map(|_| store.snapshot());
        let telemetry = opts.telemetry.clone();
        let mut run_pairs = 0u64;
        let mut run_secs = 0.0f64;

        let mut epoch = opts.start_epoch;
        while epoch < cfg.epochs {
            let epoch_start = Instant::now();
            let (epoch_pairs, loss_sum) = self
                .run_epoch(
                    store, source, negatives, epoch, lr_scale, &progress, total_pairs, &telemetry,
                )
                .map_err(Inf2vecError::Train)?;
            let epoch_secs = epoch_start.elapsed().as_secs_f64();
            let mean = if epoch_pairs > 0 {
                loss_sum / epoch_pairs as f64
            } else {
                0.0
            };

            if let Some(guard) = &opts.guard {
                let blown = epoch_pairs > 0
                    && (!mean.is_finite()
                        || last_good.is_some_and(|g| mean > guard.blowup * g.max(1e-12)));
                if blown {
                    let snapshot = snapshot.as_ref().expect("guard always holds a snapshot");
                    // A snapshot that is not finite (the run started from,
                    // or an epoch left, a NaN in rows it did not train) is
                    // no healthy state to go back to.
                    if recoveries.len() >= guard.max_recoveries
                        || store.try_restore(snapshot).is_err()
                    {
                        return Err(TrainError::Diverged {
                            epoch,
                            loss: mean,
                            recoveries: recoveries.len(),
                        }
                        .into());
                    }
                    lr_scale *= guard.backoff;
                    recoveries.push(RecoveryEvent {
                        epoch,
                        loss: mean,
                        lr_scale,
                    });
                    telemetry.count("inf2vec_train_recoveries_total", 1);
                    telemetry.emit(
                        Event::new("recovery")
                            .u64("epoch", epoch as u64)
                            .f64("loss", mean)
                            .f64("lr_scale", lr_scale as f64),
                    );
                    // Rewind the lr schedule so the retried epoch replays
                    // the same progress window.
                    progress.fetch_sub(epoch_pairs, Ordering::Relaxed);
                    continue;
                }
            }

            pairs_processed += epoch_pairs;
            run_pairs += epoch_pairs;
            run_secs += epoch_secs;
            final_loss = mean;
            epoch_losses.push(mean);
            epoch_durations.push(epoch_secs);
            if epoch_pairs > 0 {
                last_good = Some(mean);
            }
            if opts.guard.is_some() {
                snapshot = Some(store.snapshot());
            }
            if telemetry.enabled() {
                let rate = if epoch_secs > 0.0 {
                    epoch_pairs as f64 / epoch_secs
                } else {
                    0.0
                };
                telemetry.count("inf2vec_train_pairs_total", epoch_pairs);
                telemetry.count("inf2vec_train_epochs_total", 1);
                telemetry.gauge_set("inf2vec_train_loss", mean);
                telemetry.gauge_set("inf2vec_train_lr_scale", lr_scale as f64);
                telemetry.gauge_set("inf2vec_train_pairs_per_sec", rate);
                telemetry.observe("inf2vec_train_epoch_seconds", epoch_secs);
                telemetry.emit(
                    Event::new("epoch")
                        .u64("epoch", epoch as u64)
                        .f64("loss", mean)
                        .f64("lr_scale", lr_scale as f64)
                        .u64("pairs", epoch_pairs)
                        .u64("pairs_total", pairs_processed)
                        .f64("seconds", epoch_secs)
                        .f64("pairs_per_sec", rate),
                );
            }
            if let Some(hook) = opts.on_epoch.as_mut() {
                hook(&EpochState {
                    epoch,
                    mean_loss: mean,
                    lr_scale,
                    pairs_processed,
                })?;
            }
            epoch += 1;
        }

        Ok(TrainReport {
            pairs_processed,
            final_epoch_loss: final_loss,
            epochs: cfg.epochs,
            epoch_losses,
            epoch_durations,
            pairs_per_sec: if run_secs > 0.0 {
                run_pairs as f64 / run_secs
            } else {
                0.0
            },
            recoveries,
        })
    }

    /// Runs one full epoch across `config.threads` shards; returns the
    /// summed `(pairs, loss)` or the first worker panic.
    #[allow(clippy::too_many_arguments)]
    fn run_epoch(
        &self,
        store: &EmbeddingStore,
        source: &dyn PairSource,
        negatives: &NegativeTable,
        epoch: usize,
        lr_scale: f32,
        progress: &AtomicU64,
        total_pairs: u64,
        telemetry: &Telemetry,
    ) -> Result<(u64, f64), TrainError> {
        let cfg = &self.config;
        if cfg.threads == 1 {
            let mut rng = Xoshiro256pp::new(split_seed(cfg.seed, 0x5E5 ^ epoch as u64));
            return Ok(self.run_shard(
                store, source, negatives, epoch, 0, 1, lr_scale, &mut rng, progress, total_pairs,
            ));
        }

        let results: Vec<Result<(u64, f64), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.threads)
                .map(|shard| {
                    scope.spawn(move || {
                        let shard_start = Instant::now();
                        // Contain the worker: a panic must not tear down the
                        // process while sibling shards are mid-update. The
                        // shared state is Hogwild matrices and a monotone
                        // progress counter — both meaningful after an
                        // arbitrary interruption — so AssertUnwindSafe is
                        // sound here.
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            let mut rng = Xoshiro256pp::new(split_seed(
                                cfg.seed,
                                (epoch as u64) << 16 | shard as u64,
                            ));
                            self.run_shard(
                                store,
                                source,
                                negatives,
                                epoch,
                                shard,
                                cfg.threads,
                                lr_scale,
                                &mut rng,
                                progress,
                                total_pairs,
                            )
                        }))
                        .map_err(panic_message);
                        // Per-worker throughput, recorded by the worker
                        // itself so the timing excludes join latency.
                        if telemetry.enabled() {
                            if let Ok((shard_pairs, _)) = &result {
                                let secs = shard_start.elapsed().as_secs_f64();
                                telemetry.observe("inf2vec_worker_shard_seconds", secs);
                                telemetry.emit(
                                    Event::new("shard")
                                        .u64("epoch", epoch as u64)
                                        .u64("shard", shard as u64)
                                        .u64("pairs", *shard_pairs)
                                        .f64("seconds", secs)
                                        .f64(
                                            "pairs_per_sec",
                                            if secs > 0.0 {
                                                *shard_pairs as f64 / secs
                                            } else {
                                                0.0
                                            },
                                        ),
                                );
                            }
                        }
                        result
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panics are caught inside the closure"))
                .collect()
        });

        let mut pairs = 0u64;
        let mut loss = 0.0f64;
        let mut first_panic: Option<(usize, String)> = None;
        for (shard, r) in results.into_iter().enumerate() {
            match r {
                Ok((p, l)) => {
                    pairs += p;
                    loss += l;
                }
                Err(message) => {
                    telemetry.count("inf2vec_train_worker_panics_total", 1);
                    telemetry.emit(
                        Event::new("worker_panic")
                            .u64("epoch", epoch as u64)
                            .u64("shard", shard as u64)
                            .str("message", message.clone()),
                    );
                    if first_panic.is_none() {
                        first_panic = Some((shard, message));
                    }
                }
            }
        }
        if let Some((shard, message)) = first_panic {
            return Err(TrainError::WorkerPanic {
                epoch,
                shard,
                n_shards: cfg.threads,
                message,
            });
        }
        Ok((pairs, loss))
    }

    /// Processes one shard of one epoch; returns `(pairs, summed loss)`.
    #[allow(clippy::too_many_arguments)]
    fn run_shard(
        &self,
        store: &EmbeddingStore,
        source: &dyn PairSource,
        negatives: &NegativeTable,
        epoch: usize,
        shard: usize,
        n_shards: usize,
        lr_scale: f32,
        rng: &mut Xoshiro256pp,
        progress: &AtomicU64,
        total_pairs: u64,
    ) -> (u64, f64) {
        let cfg = &self.config;
        let mut grad = vec![0.0f32; store.k()];
        let mut negs = vec![0u32; cfg.negatives];
        let mut pairs = 0u64;
        let mut loss = 0.0f64;
        let mut local_done = 0u64;
        // Separate stream for negative sampling: `rng` stays with the
        // source's shuffling, keeping both deterministic.
        let mut rng_neg = Xoshiro256pp::new(rng.next_u64());

        source.for_each_pair(epoch, shard, n_shards, rng, &mut |u, v| {
            // Start loading the pair's rows now; the negative draws and the
            // kernel's first dots overlap with the loads.
            store.source.prefetch_row(u as usize);
            store.target.prefetch_row(v as usize);
            // Learning rate: linear decay to lr_min over the whole run
            // (constant when lr_min == lr, the paper's setting), times the
            // divergence guard's current backoff scale.
            let lr = if cfg.lr_min >= cfg.lr {
                cfg.lr
            } else {
                let done = progress.load(Ordering::Relaxed) + local_done;
                let frac = done as f64 / total_pairs as f64;
                (cfg.lr * (1.0 - frac as f32)).max(cfg.lr_min)
            } * lr_scale;
            for w in negs.iter_mut() {
                *w = negatives.sample_excluding(u, v, &mut rng_neg);
                store.target.prefetch_row(*w as usize);
            }
            loss += pair_update(store, &self.sigmoid, u, v, &negs, lr, &mut grad);
            pairs += 1;
            local_done += 1;
            // Publish progress in batches to keep the atomic cold.
            if local_done.is_multiple_of(1024) {
                progress.fetch_add(1024, Ordering::Relaxed);
                local_done = 0;
            }
        });
        progress.fetch_add(local_done, Ordering::Relaxed);
        (pairs, loss)
    }
}

/// One SGD step of Eq. 6 (`∂/∂S_u = (1-σ(z_v))·T_v + Σ_w (-σ(z_w))·T_w`,
/// etc.) on pair `(u, v)` against the drawn negatives `negs`, for both the
/// batch and the online trainer; returns the pair's negative log-likelihood
/// (Eq. 4). `grad` is scratch of length `k`; what it holds on entry does
/// not matter.
///
/// Runs the AVX2 body when the CPU has AVX2, else the portable one. The
/// two give the same bits: see the `avx2` module.
#[inline]
pub(crate) fn pair_update(
    store: &EmbeddingStore,
    sigmoid: &SigmoidTable,
    u: u32,
    v: u32,
    negs: &[u32],
    lr: f32,
    grad: &mut [f32],
) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked just above.
        return unsafe { avx2::pair_update(store, sigmoid, u, v, negs, lr, grad) };
    }
    pair_update_portable(store, sigmoid, u, v, negs, lr, grad)
}

/// The portable body of [`pair_update`], and the reference the AVX2 body
/// matches bit for bit. Each target row is read once: its share of the
/// center gradient and its own update happen in one pass, with the same
/// f32 operations as accumulating first and updating after.
fn pair_update_portable(
    store: &EmbeddingStore,
    sigmoid: &SigmoidTable,
    u: u32,
    v: u32,
    negs: &[u32],
    lr: f32,
    grad: &mut [f32],
) -> f64 {
    let (mut bias_grad, mut loss) = (0.0f32, 0.0f64);
    // SAFETY (all row_mut calls below): source/target/bias matrices are
    // distinct allocations, and within each matrix we hold at most one row
    // borrow at a time on this thread. Cross-thread races fall under the
    // Hogwild contract documented in `hogwild`.
    unsafe {
        let su: &mut [f32] = store.source.row_mut(u as usize);
        let b_u = store.b(u);
        // The positive example v, then the negatives.
        for (i, &w) in std::iter::once(&v).chain(negs).enumerate() {
            let tw: &mut [f32] = store.target.row_mut(w as usize);
            let (sig, ln_pos, ln_neg) = sigmoid.get_ln(train_dot(su, tw) + b_u + store.b_tilde(w));
            // ∂logσ(z)/∂z for v, ∂logσ(-z)/∂z for a negative.
            let g = if i == 0 { 1.0 - sig } else { -sig };
            let ln = if i == 0 { ln_pos } else { ln_neg };
            let step = lr * g;
            if i == 0 {
                fold_target::<true>(grad, tw, su, g, step);
            } else {
                fold_target::<false>(grad, tw, su, g, step);
            }
            if store.use_bias {
                store.bias_tgt.row_mut(w as usize)[0] += step;
            }
            bias_grad += g;
            loss -= ln;
        }

        // Apply the accumulated center-word gradient.
        for (si, gi) in su.iter_mut().zip(grad.iter()) {
            *si += lr * gi;
        }
        if store.use_bias {
            store.bias_src.row_mut(u as usize)[0] += lr * bias_grad;
        }
    }
    loss
}

/// One target row's pass: `grad += g·T_w`, then `T_w += step·S_u`, per
/// element. The pair's first target (`FIRST`, the positive) writes
/// `0.0 + g·t`, the f32 operation `+=` performs on a zeroed slot, so
/// `grad` needs no zeroing between pairs.
#[inline(always)]
fn fold_target<const FIRST: bool>(grad: &mut [f32], tw: &mut [f32], su: &[f32], g: f32, step: f32) {
    for ((gi, ti), si) in grad.iter_mut().zip(tw.iter_mut()).zip(su) {
        let t = *ti;
        *gi = if FIRST { 0.0 } else { *gi } + g * t;
        *ti = t + step * si;
    }
}

/// The training dot: eight independent partial sums, so the additions
/// pipeline, reduced in a fixed order. Deterministic, but not bit-equal to
/// the k-order sum of [`crate::hogwild::dot`], which scoring keeps: serving
/// paths must agree bit for bit with each other, not with training.
#[inline]
fn train_dot(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [0.0f32; 8];
    for (a, b) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        for ((s, a), b) in acc.iter_mut().zip(a).zip(b) {
            *s += a * b;
        }
    }
    let body = x.len() / 8 * 8;
    let tail = crate::hogwild::dot(&x[body..], &y[body..]);
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two "communities" of nodes; pairs always link nodes in the same
    /// community. After training, same-community scores should beat
    /// cross-community scores.
    fn community_pairs() -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for rep in 0..200u32 {
            for a in 0..4u32 {
                for b in 0..4u32 {
                    if a != b {
                        pairs.push((a, b)); // community {0..3}
                        pairs.push((4 + a, 4 + b)); // community {4..7}
                    }
                }
            }
            let _ = rep;
        }
        pairs
    }

    #[test]
    fn learns_community_structure() {
        let store = EmbeddingStore::new(8, 16, 1);
        let negs = NegativeTable::uniform(8);
        let trainer = SgnsTrainer::new(SgnsConfig {
            epochs: 5,
            lr: 0.05,
            lr_min: 0.05,
            negatives: 4,
            threads: 1,
            seed: 2,
        });
        let source = FlatPairs::new(community_pairs());
        let report = trainer.train(&store, &source, &negs);
        assert_eq!(report.epochs, 5);
        assert_eq!(
            report.pairs_processed,
            source.pairs_per_epoch() * 5
        );
        assert_eq!(report.epoch_losses.len(), 5);
        assert!(report.recoveries.is_empty());

        let mut same = 0.0f32;
        let mut cross = 0.0f32;
        let mut ns = 0;
        let mut nc = 0;
        for a in 0..8u32 {
            for b in 0..8u32 {
                if a == b {
                    continue;
                }
                if (a < 4) == (b < 4) {
                    same += store.score(a, b);
                    ns += 1;
                } else {
                    cross += store.score(a, b);
                    nc += 1;
                }
            }
        }
        let (same, cross) = (same / ns as f32, cross / nc as f32);
        assert!(
            same > cross + 0.5,
            "same-community {same} not above cross {cross}"
        );
    }

    #[test]
    fn loss_decreases_with_training() {
        let source = FlatPairs::new(community_pairs());
        let negs = NegativeTable::uniform(8);
        let loss_after = |epochs: usize| {
            let store = EmbeddingStore::new(8, 16, 3);
            let trainer = SgnsTrainer::new(SgnsConfig {
                epochs,
                lr: 0.05,
                lr_min: 0.05,
                negatives: 4,
                threads: 1,
                seed: 4,
            });
            trainer.train(&store, &source, &negs).final_epoch_loss
        };
        let early = loss_after(1);
        let late = loss_after(6);
        assert!(
            late < early,
            "loss did not decrease: epoch1 {early} vs epoch6 {late}"
        );
    }

    #[test]
    fn deterministic_single_thread() {
        let run = || {
            let store = EmbeddingStore::new(8, 8, 5);
            let trainer = SgnsTrainer::new(SgnsConfig::default());
            let source = FlatPairs::new(community_pairs());
            let negs = NegativeTable::uniform(8);
            trainer.train(&store, &source, &negs);
            store.source.to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn multithreaded_training_works() {
        let store = EmbeddingStore::new(8, 8, 6);
        let trainer = SgnsTrainer::new(SgnsConfig {
            threads: 2,
            epochs: 2,
            ..SgnsConfig::default()
        });
        let source = FlatPairs::new(community_pairs());
        let negs = NegativeTable::uniform(8);
        let report = trainer.train(&store, &source, &negs);
        assert_eq!(report.pairs_processed, source.pairs_per_epoch() * 2);
        assert!(report.final_epoch_loss.is_finite());
    }

    #[test]
    fn lr_decay_path_executes() {
        let store = EmbeddingStore::new(8, 8, 7);
        let trainer = SgnsTrainer::new(SgnsConfig {
            lr: 0.05,
            lr_min: 0.001,
            epochs: 3,
            ..SgnsConfig::default()
        });
        let source = FlatPairs::new(community_pairs());
        let negs = NegativeTable::uniform(8);
        let report = trainer.train(&store, &source, &negs);
        assert!(report.final_epoch_loss.is_finite());
    }

    #[test]
    fn empty_source_is_a_noop() {
        let store = EmbeddingStore::new(4, 4, 8);
        let before = store.source.to_vec();
        let trainer = SgnsTrainer::new(SgnsConfig::default());
        let source = FlatPairs::new(vec![]);
        let negs = NegativeTable::uniform(4);
        let report = trainer.train(&store, &source, &negs);
        assert_eq!(report.pairs_processed, 0);
        assert_eq!(store.source.to_vec(), before);
    }

    #[test]
    fn bias_disabled_keeps_biases_zero() {
        let mut store = EmbeddingStore::new(8, 8, 9);
        store.use_bias = false;
        let trainer = SgnsTrainer::new(SgnsConfig::default());
        let source = FlatPairs::new(community_pairs());
        let negs = NegativeTable::uniform(8);
        trainer.train(&store, &source, &negs);
        assert!(store.bias_src.to_vec().iter().all(|&x| x == 0.0));
        assert!(store.bias_tgt.to_vec().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn bias_enabled_moves_biases() {
        let store = EmbeddingStore::new(8, 8, 10);
        let trainer = SgnsTrainer::new(SgnsConfig::default());
        // Node 0 is a frequent source: its b should drift.
        let source = FlatPairs::new(vec![(0, 1); 500]);
        let negs = NegativeTable::uniform(8);
        trainer.train(&store, &source, &negs);
        assert!(store.bias_src.to_vec()[0] != 0.0);
    }

    #[test]
    fn try_new_rejects_bad_configs() {
        assert!(SgnsTrainer::try_new(SgnsConfig {
            epochs: 0,
            ..SgnsConfig::default()
        })
        .is_err());
        assert!(SgnsTrainer::try_new(SgnsConfig {
            threads: 0,
            ..SgnsConfig::default()
        })
        .is_err());
        assert!(SgnsTrainer::try_new(SgnsConfig {
            lr: -1.0,
            ..SgnsConfig::default()
        })
        .is_err());
        assert!(SgnsTrainer::try_new(SgnsConfig::default()).is_ok());
    }

    #[test]
    fn resume_from_epoch_is_bit_identical() {
        let source = FlatPairs::new(community_pairs());
        let negs = NegativeTable::uniform(8);
        let cfg = SgnsConfig {
            epochs: 6,
            ..SgnsConfig::default()
        };
        let trainer = SgnsTrainer::new(cfg.clone());

        // Uninterrupted run.
        let full = EmbeddingStore::new(8, 8, 42);
        trainer.try_train(&full, &source, &negs).unwrap();

        // Run 3 epochs, then resume for the remaining 3.
        let split = EmbeddingStore::new(8, 8, 42);
        let part1 = SgnsTrainer::new(SgnsConfig { epochs: 3, ..cfg.clone() });
        let r1 = part1.try_train(&split, &source, &negs).unwrap();
        let r2 = trainer
            .try_train_with(
                &split,
                &source,
                &negs,
                TrainOptions {
                    start_epoch: 3,
                    pairs_already_processed: r1.pairs_processed,
                    ..TrainOptions::default()
                },
            )
            .unwrap();

        assert_eq!(full.source.to_vec(), split.source.to_vec());
        assert_eq!(full.target.to_vec(), split.target.to_vec());
        assert_eq!(full.bias_src.to_vec(), split.bias_src.to_vec());
        assert_eq!(r2.pairs_processed, source.pairs_per_epoch() * 6);
    }

    #[test]
    fn on_epoch_hook_fires_and_aborts() {
        let source = FlatPairs::new(community_pairs());
        let negs = NegativeTable::uniform(8);
        let trainer = SgnsTrainer::new(SgnsConfig {
            epochs: 4,
            ..SgnsConfig::default()
        });
        let store = EmbeddingStore::new(8, 8, 1);
        let mut seen = Vec::new();
        let mut hook = |st: &EpochState| {
            seen.push((st.epoch, st.pairs_processed));
            if st.epoch == 2 {
                return Err(std::io::Error::other("checkpoint disk full"));
            }
            Ok(())
        };
        let err = trainer
            .try_train_with(
                &store,
                &source,
                &negs,
                TrainOptions {
                    on_epoch: Some(&mut hook),
                    ..TrainOptions::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, Inf2vecError::Io(_)));
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[2].0, 2);
    }

    /// A source whose loss artificially explodes: it feeds normal pairs,
    /// but the test injects divergence by corrupting the store in the
    /// epoch hook — exercising rollback without faking the math.
    #[test]
    fn divergence_guard_rolls_back_and_recovers() {
        let source = FlatPairs::new(community_pairs());
        let negs = NegativeTable::uniform(8);
        let trainer = SgnsTrainer::new(SgnsConfig {
            epochs: 5,
            lr: 0.05,
            lr_min: 0.05,
            negatives: 4,
            threads: 1,
            seed: 2,
        });
        let store = EmbeddingStore::new(8, 16, 1);
        let mut poisoned = false;
        let mut hook = |st: &EpochState| {
            // After epoch 1, blow up the parameters so epoch 2's loss jumps;
            // the guard must roll back to the post-epoch-1 snapshot.
            if st.epoch == 1 && !poisoned {
                poisoned = true;
                // SAFETY: single-threaded test, no concurrent access.
                unsafe {
                    for u in 0..8 {
                        for x in store.source.row_mut(u) {
                            *x *= 1.0e4;
                        }
                    }
                }
            }
            Ok(())
        };
        let report = trainer
            .try_train_with(
                &store,
                &source,
                &negs,
                TrainOptions {
                    guard: Some(DivergenceGuard::default()),
                    on_epoch: Some(&mut hook),
                    ..TrainOptions::default()
                },
            )
            .expect("guard should recover");
        assert!(
            !report.recoveries.is_empty(),
            "expected at least one recovery event"
        );
        assert!(report.recoveries[0].lr_scale < 1.0);
        assert!(report.final_epoch_loss.is_finite());
        assert!(!store.has_non_finite());
        assert_eq!(report.epoch_losses.len(), 5);
    }

    #[test]
    fn report_carries_timing_and_telemetry_sees_epochs() {
        use inf2vec_obs::{MemorySink, Telemetry};
        use std::sync::Arc;

        let source = FlatPairs::new(community_pairs());
        let negs = NegativeTable::uniform(8);
        let trainer = SgnsTrainer::new(SgnsConfig {
            epochs: 3,
            ..SgnsConfig::default()
        });
        let store = EmbeddingStore::new(8, 8, 11);
        let sink = Arc::new(MemorySink::new());
        let telemetry = Telemetry::new(Arc::clone(&sink) as Arc<dyn inf2vec_obs::Recorder>);
        let report = trainer
            .try_train_with(
                &store,
                &source,
                &negs,
                TrainOptions {
                    telemetry: telemetry.clone(),
                    ..TrainOptions::default()
                },
            )
            .unwrap();

        assert_eq!(report.epoch_durations.len(), report.epoch_losses.len());
        assert!(report.epoch_durations.iter().all(|&d| d >= 0.0));
        assert!(report.pairs_per_sec > 0.0);

        let epochs: Vec<_> = sink
            .take()
            .into_iter()
            .filter(|e| e.kind() == "epoch")
            .collect();
        assert_eq!(epochs.len(), 3);
        assert_eq!(
            epochs[2].get("pairs_total").and_then(|v| v.as_u64()),
            Some(report.pairs_processed)
        );
        assert!(epochs[0].get("loss").and_then(|v| v.as_f64()).is_some());

        let snap = telemetry.snapshot();
        assert!(snap.get("inf2vec_train_loss").is_some());
        assert!(snap.get("inf2vec_train_pairs_per_sec").is_some());
        assert!(snap.get("inf2vec_train_epoch_seconds").is_some());
    }

    #[test]
    fn telemetry_does_not_change_training_math() {
        let run = |telemetry: Telemetry| {
            let store = EmbeddingStore::new(8, 8, 5);
            let trainer = SgnsTrainer::new(SgnsConfig::default());
            let source = FlatPairs::new(community_pairs());
            let negs = NegativeTable::uniform(8);
            trainer
                .try_train_with(
                    &store,
                    &source,
                    &negs,
                    TrainOptions {
                        telemetry,
                        ..TrainOptions::default()
                    },
                )
                .unwrap();
            store.source.to_vec()
        };
        assert_eq!(run(Telemetry::disabled()), run(Telemetry::with_registry()));
    }

    /// The two-pass Eq. 6 step `pair_update` replaced: accumulate the center
    /// gradient over a target row, then update the row; logs taken from σ.
    /// Only the training dot is shared.
    fn two_pass(s: &EmbeddingStore, t: &SigmoidTable, u: u32, v: u32, ns: &[u32], lr: f32) -> f64 {
        let mut grad = vec![0.0f32; s.k()];
        let (mut bias_grad, mut loss) = (0.0f32, 0.0f64);
        // SAFETY: single-threaded; one row borrow per matrix at a time.
        unsafe {
            let su = s.source.row_mut(u as usize);
            for (i, &w) in std::iter::once(&v).chain(ns).enumerate() {
                let tw = s.target.row_mut(w as usize);
                let sig = t.get(train_dot(su, tw) + s.b(u) + s.b_tilde(w));
                let g = if i == 0 { 1.0 - sig } else { -sig };
                let p = if i == 0 { sig } else { 1.0 - sig };
                for (gi, ti) in grad.iter_mut().zip(tw.iter()) {
                    *gi += g * ti;
                }
                for (ti, si) in tw.iter_mut().zip(su.iter()) {
                    *ti += lr * g * si;
                }
                if s.use_bias {
                    s.bias_tgt.row_mut(w as usize)[0] += lr * g;
                }
                bias_grad += g;
                loss -= (p.max(1e-7) as f64).ln();
            }
            for (si, gi) in su.iter_mut().zip(grad.iter()) {
                *si += lr * gi;
            }
            if s.use_bias {
                s.bias_src.row_mut(u as usize)[0] += lr * bias_grad;
            }
        }
        loss
    }

    /// The signature of one body of [`pair_update`].
    type Kernel = fn(&EmbeddingStore, &SigmoidTable, u32, u32, &[u32], f32, &mut [f32]) -> f64;

    /// The kernel bodies this CPU can run: the portable one, and the AVX2
    /// one when the CPU has AVX2.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("portable", pair_update_portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: listed only when the CPU supports AVX2.
            kernels.push(("avx2", |s, t, u, v, n, lr, g| unsafe {
                avx2::pair_update(s, t, u, v, n, lr, g)
            }));
        }
        kernels
    }

    /// Every parameter's bits, matrix by matrix.
    fn bits(s: &EmbeddingStore) -> Vec<u32> {
        let all = [&s.source, &s.target, &s.bias_src, &s.bias_tgt].map(|m| m.to_vec());
        all.concat().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn pair_update_matches_the_two_pass_kernel_bit_for_bit() {
        let sigmoid = SigmoidTable::default();
        for (name, kernel) in kernels() {
            for case in 0..10 {
                let (k, use_bias) = ([1, 5, 8, 13, 50][case / 2], case % 2 == 1);
                let mut fused = EmbeddingStore::new(9, k, k as u64);
                fused.use_bias = use_bias;
                let reference = fused.clone();
                // What `grad` holds on entry must not matter.
                let (mut rng, mut grad) = (Xoshiro256pp::new(k as u64), vec![f32::NAN; k]);
                for _ in 0..500 {
                    let (u, v) = (rng.below(9) as u32, rng.below(9) as u32);
                    // Five draws from four ids: duplicates every time, and
                    // sometimes u or v among them.
                    let negs: Vec<u32> = (0..5).map(|_| rng.below(4) as u32).collect();
                    let la = kernel(&fused, &sigmoid, u, v, &negs, 0.3, &mut grad);
                    let lb = two_pass(&reference, &sigmoid, u, v, &negs, 0.3);
                    assert_eq!(la.to_bits(), lb.to_bits(), "{name}: loss, k={k}");
                }
                assert!(!fused.has_non_finite(), "{name}");
                assert_eq!(bits(&fused), bits(&reference), "{name}: parameters, k={k}");
            }
        }
    }

    proptest::proptest! {
        /// Every kernel body gives the portable body's loss and parameter
        /// bits: any k (whole 8-lane blocks and a scalar tail), biases on
        /// or off, and any number of negatives (none, more than the AVX2
        /// body dots early), drawn from six ids so that rows repeat and
        /// negatives equal `u` or `v`.
        #[test]
        fn every_kernel_matches_the_portable_one_bit_for_bit(
            k in 1usize..71,
            use_bias in proptest::any::<bool>(),
            seed in 0u64..1000,
            lr in 0.01f32..1.0,
            steps in proptest::prop::collection::vec(
                (0u32..6, 0u32..6, proptest::prop::collection::vec(0u32..6, 0..25)), 1..30),
        ) {
            let sigmoid = SigmoidTable::default();
            let mut start = EmbeddingStore::new(6, k, seed);
            start.use_bias = use_bias;
            let run = |kernel: Kernel| {
                let store = start.clone();
                let mut grad = vec![f32::NAN; k];
                let losses: Vec<u64> = steps
                    .iter()
                    .map(|(u, v, negs)| kernel(&store, &sigmoid, *u, *v, negs, lr, &mut grad).to_bits())
                    .collect();
                (losses, bits(&store))
            };
            let reference = run(pair_update_portable);
            for (name, kernel) in kernels() {
                let (losses, params) = run(kernel);
                proptest::prop_assert_eq!(&losses, &reference.0, "{}: losses", name);
                // Any NaN equals any NaN: a NaN's payload is not part of
                // the arithmetic the bodies must share.
                let same = params.iter().zip(&reference.1).all(|(a, b)| {
                    a == b || (f32::from_bits(*a).is_nan() && f32::from_bits(*b).is_nan())
                });
                proptest::prop_assert!(same, "{}: parameters", name);
            }
        }
    }

    /// A NaN parameter must show in the loss, so that the guard rolls back
    /// or gives up. The sigmoid table used to read a NaN as its first bin,
    /// and this run ended `Ok` with every row NaN.
    #[test]
    fn a_nan_parameter_trips_the_divergence_guard() {
        let source = FlatPairs::new(community_pairs());
        let negs = NegativeTable::uniform(8);
        let trainer = SgnsTrainer::new(SgnsConfig {
            epochs: 4,
            lr: 0.05,
            lr_min: 0.05,
            negatives: 4,
            threads: 1,
            seed: 2,
        });
        let store = EmbeddingStore::new(8, 16, 1);
        // SAFETY: single-threaded test, no concurrent access.
        unsafe { store.source.row_mut(0)[3] = f32::NAN };
        let result = trainer.try_train_with(
            &store,
            &source,
            &negs,
            TrainOptions {
                guard: Some(DivergenceGuard::default()),
                ..TrainOptions::default()
            },
        );
        match result {
            // The snapshot holds the NaN too: nothing healthy to go back to.
            Err(Inf2vecError::Train(TrainError::Diverged { epoch, loss, .. })) => {
                assert_eq!(epoch, 0);
                assert!(loss.is_nan(), "diverged on loss {loss}");
            }
            Ok(report) => {
                assert!(!report.recoveries.is_empty(), "no rollback: {report:?}");
                assert!(!store.has_non_finite(), "Ok with a non-finite store");
            }
            Err(other) => panic!("expected a rollback or Diverged, got {other}"),
        }
    }

    #[test]
    fn train_dot_agrees_with_an_f64_reference() {
        let mut rng = Xoshiro256pp::new(5);
        for n in 0..=67usize {
            let x: Vec<f32> = (0..2 * n).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
            let (x, y) = x.split_at(n);
            let products = || x.iter().zip(y).map(|(a, b)| *a as f64 * *b as f64);
            let exact: f64 = products().sum();
            let scale: f64 = products().map(f64::abs).sum();
            // A dropped or repeated term would be off by ~scale / n.
            let err = (train_dot(x, y) as f64 - exact).abs();
            assert!(err <= 1e-6 * scale, "n={n}: error {err} against {scale}");
        }
    }

    /// The dot's last bits rarely move the sigmoid bin, so the kernel
    /// tests seldom see them: compare the AVX2 dot with `train_dot` itself.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_dot_equals_train_dot_bit_for_bit() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut rng = Xoshiro256pp::new(6);
        for n in 0..=70usize {
            for _ in 0..50 {
                let x: Vec<f32> = (0..2 * n).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
                let (x, y) = x.split_at(n);
                // SAFETY: the CPU supports AVX2, checked above.
                let simd = unsafe { avx2::dot(x, y) };
                assert_eq!(simd.to_bits(), train_dot(x, y).to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn divergence_guard_gives_up_after_budget() {
        let source = FlatPairs::new(community_pairs());
        let negs = NegativeTable::uniform(8);
        let trainer = SgnsTrainer::new(SgnsConfig {
            epochs: 3,
            ..SgnsConfig::default()
        });
        let store = EmbeddingStore::new(8, 8, 1);
        // A guard so strict every epoch "diverges" (loss > 0 × previous).
        let guard = DivergenceGuard {
            blowup: 0.0,
            backoff: 0.5,
            max_recoveries: 2,
        };
        let err = trainer
            .try_train_with(
                &store,
                &source,
                &negs,
                TrainOptions {
                    guard: Some(guard),
                    ..TrainOptions::default()
                },
            )
            .unwrap_err();
        match err {
            Inf2vecError::Train(TrainError::Diverged { recoveries, .. }) => {
                assert_eq!(recoveries, 2)
            }
            other => panic!("expected Diverged, got {other}"),
        }
    }
}

//! Online SGNS: incremental per-episode updates for continuous learning.
//!
//! The batch trainer ([`crate::sgns::SgnsTrainer`]) iterates epochs over a
//! frozen corpus. A continuous pipeline instead applies each episode's
//! pairs once, as the episode completes, and must be able to re-apply an
//! episode bit-identically when a crash forces replay from a journal.
//! [`OnlineSgns`] therefore keeps *all* of its mutable state in a plain
//! [`OnlineState`] value the pipeline can persist and restore:
//!
//! - **Lazy rows.** The store starts zeroed; a node's vectors are
//!   initialized on first touch from a per-row stream (order-independent,
//!   see [`EmbeddingStore::init_row`]), so cost scales with the users
//!   actually seen, not the id space.
//! - **Per-node adaptive learning rate.** Each pair trains at
//!   `lr / sqrt(1 + decay · updates[u])` — fresh users take full-size
//!   steps while long-seen users anneal, the online stand-in for the
//!   batch trainer's global schedule.
//! - **Deterministic negative sampling.** The unigram^0.75 table is kept
//!   between episodes and rebuilt from the current context counts only
//!   when the pairs applied since its last build reach the row count `n`,
//!   or when the row space has grown. The O(n) build thus costs O(1) per
//!   pair at any `n`, and the noise distribution lags the counts by fewer
//!   than `n` pairs (for the first `n` pairs it is uniform), as in
//!   incremental SGNS, where it is kept roughly current rather than exact
//!   at every step. The counts the live table was built from are
//!   journaled as [`OnlineState::sampler_counts`], so the table is a
//!   *pure function* of journaled state; the episode RNG is derived from
//!   `(seed, episode_seq)` alone. Replaying an episode against the same
//!   prior state therefore reproduces every sample, gradient, sampler
//!   build and row init exactly.

use inf2vec_util::error::DataError;
use inf2vec_util::rng::{split_seed, Xoshiro256pp};
use inf2vec_util::SigmoidTable;

use crate::negative::NegativeTable;
use crate::sgns::pair_update;
use crate::store::EmbeddingStore;

/// Stream id namespacing the per-episode update RNG.
const ONLINE_STREAM: u64 = 0x0011_5E56;

/// Online trainer hyper-parameters.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Base learning rate.
    pub lr: f32,
    /// Per-node annealing strength: pair `(u, ·)` trains at
    /// `lr / sqrt(1 + lr_decay · updates[u])`. Zero disables annealing.
    pub lr_decay: f64,
    /// Whether biases participate (mirrors [`EmbeddingStore::use_bias`]).
    pub use_bias: bool,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            negatives: 5,
            lr: 0.025,
            lr_decay: 0.05,
            use_bias: true,
        }
    }
}

/// Every mutable piece of the online trainer, as plain persistable data.
///
/// A journal that stores an `OnlineState` (plus the episode stream
/// position) can reconstruct the trainer exactly with
/// [`OnlineSgns::from_state`].
#[derive(Debug, Clone)]
pub struct OnlineState {
    /// The learned parameters (zero rows for never-seen users).
    pub store: EmbeddingStore,
    /// Per-node count of pairs applied with the node as center.
    pub update_counts: Vec<u64>,
    /// Per-node count of appearances as a (positive) context target —
    /// the negative-sampling distribution.
    pub ctx_counts: Vec<u64>,
    /// The `ctx_counts` the live negative table was built from, as of its
    /// last build (zero for rows added since).
    pub sampler_counts: Vec<u64>,
    /// Which rows have been lazily initialized.
    pub initialized: Vec<bool>,
    /// Episodes applied so far.
    pub episodes_applied: u64,
    /// Pairs applied so far.
    pub pairs_applied: u64,
}

impl OnlineState {
    /// A fresh state for `n` users with dimension `k`.
    pub fn fresh(n: usize, k: usize) -> Self {
        Self {
            store: EmbeddingStore::zeroed(n, k),
            update_counts: vec![0; n],
            ctx_counts: vec![0; n],
            sampler_counts: vec![0; n],
            initialized: vec![false; n],
            episodes_applied: 0,
            pairs_applied: 0,
        }
    }

    /// Grows the row space to `n` users: new rows are zeroed/uninitialized,
    /// exactly as if the state had been `fresh(n, k)` and those users never
    /// touched. A no-op when `n` is not larger.
    pub fn grow(&mut self, n: usize) {
        if n <= self.store.len() {
            return;
        }
        self.store.grow(n);
        self.update_counts.resize(n, 0);
        self.ctx_counts.resize(n, 0);
        self.sampler_counts.resize(n, 0);
        self.initialized.resize(n, false);
    }
}

/// The online trainer. Single-threaded over its store.
#[derive(Debug)]
pub struct OnlineSgns {
    cfg: OnlineConfig,
    seed: u64,
    state: OnlineState,
    sigmoid: SigmoidTable,
    /// The sampler over `state.sampler_counts`.
    negatives: NegativeTable,
    /// Pairs applied since `negatives` was built, `Σ (ctx_counts −
    /// sampler_counts)`: derived once from the state, then kept in step.
    since_build: u64,
    /// Sampler builds by this trainer (observability; not journaled).
    builds: u64,
}

impl OnlineSgns {
    /// A fresh trainer over `n` users with dimension `k`.
    pub fn new(n: usize, k: usize, cfg: OnlineConfig, seed: u64) -> Self {
        let mut state = OnlineState::fresh(n, k);
        state.store.use_bias = cfg.use_bias;
        Self::from_state(state, cfg, seed).expect("a fresh state is well-formed")
    }

    /// Reconstructs a trainer from journaled state, validating shape
    /// coherence (a mismatched journal must fail closed, not corrupt the
    /// model). The negative table is rebuilt from `sampler_counts`, so it
    /// is the table the trainer that wrote the state was drawing from.
    pub fn from_state(state: OnlineState, cfg: OnlineConfig, seed: u64) -> Result<Self, DataError> {
        let n = state.store.len();
        if state.update_counts.len() != n
            || state.ctx_counts.len() != n
            || state.sampler_counts.len() != n
            || state.initialized.len() != n
        {
            return Err(DataError::Invalid {
                message: format!(
                    "online state shape mismatch: store has {n} rows, counts hold \
                     {}/{}/{}/{} entries",
                    state.update_counts.len(),
                    state.ctx_counts.len(),
                    state.sampler_counts.len(),
                    state.initialized.len()
                ),
            });
        }
        // Counts only grow, so every count the table was built from is at
        // most today's, and the differences add up to the pairs since.
        // Saturating: any total of at least `n` means "build at the next
        // pair".
        let mut since_build = 0u64;
        let counts = state.sampler_counts.iter().zip(&state.ctx_counts);
        for (i, (&b, &c)) in counts.enumerate() {
            if b > c {
                return Err(DataError::Invalid {
                    message: format!(
                        "online state sampler count {b} of node {i} exceeds its context count {c}"
                    ),
                });
            }
            since_build = since_build.saturating_add(c - b);
        }
        if state.store.has_non_finite() {
            return Err(DataError::NonFinite {
                what: "online state store",
                line: 0,
            });
        }
        Ok(Self {
            negatives: NegativeTable::from_counts(&state.sampler_counts),
            since_build,
            builds: 0,
            cfg,
            seed,
            state,
            sigmoid: SigmoidTable::default(),
        })
    }

    /// The persistable state (journal this).
    pub fn state(&self) -> &OnlineState {
        &self.state
    }

    /// The learned parameters.
    pub fn store(&self) -> &EmbeddingStore {
        &self.state.store
    }

    /// Episodes applied so far.
    pub fn episodes_applied(&self) -> u64 {
        self.state.episodes_applied
    }

    /// Pairs applied so far.
    pub fn pairs_applied(&self) -> u64 {
        self.state.pairs_applied
    }

    /// Negative-table builds since this trainer was constructed (the
    /// table `from_state` restores is not counted).
    pub fn sampler_builds(&self) -> u64 {
        self.builds
    }

    /// Applies one episode's pairs. `episode_seq` is the episode's
    /// position in the deterministic application order; re-applying the
    /// same `(episode_seq, pairs)` to the same prior state is
    /// bit-identical. Returns the mean SGNS loss over the pairs (0 for an
    /// empty pair set).
    ///
    /// Pairs naming users beyond the current row space **grow** it first
    /// (see [`OnlineState::grow`]): the stream may introduce users the
    /// pipeline's social graph never enumerated. Because growth is driven
    /// by the deterministic episode application order — never by wall
    /// clock or batching — a crash replay grows at exactly the same
    /// episode boundaries and stays bit-identical.
    ///
    /// The negative table is rebuilt from the current context counts
    /// after growth, and before any pair once `n` pairs (the row count)
    /// have been applied since its last build. Both triggers depend only
    /// on the pair stream and the journaled counts, so sampler builds
    /// replay at the same pairs too.
    pub fn apply_episode(&mut self, episode_seq: u64, pairs: &[(u32, u32)]) -> f64 {
        // Growth must precede the first draw: the negative table ranges
        // over the post-growth row space, and that choice has to be a
        // pure function of the (deterministic) pair stream.
        if let Some(max_id) = pairs.iter().map(|&(u, v)| u.max(v)).max() {
            self.state.grow(max_id as usize + 1);
            if (self.negatives.len() as usize) < self.state.store.len() {
                self.build_sampler();
            }
        }
        let n = self.state.store.len() as u64;
        let mut rng = Xoshiro256pp::new(split_seed(
            split_seed(self.seed, ONLINE_STREAM),
            episode_seq,
        ));
        let mut grad = vec![0.0f32; self.state.store.k()];
        let mut negs = vec![0u32; self.cfg.negatives];
        let mut loss = 0.0f64;
        for &(u, v) in pairs {
            if self.since_build >= n {
                self.build_sampler();
            }
            // Start loading the pair's rows now; the negative draws and the
            // kernel's first dots overlap with the loads.
            self.state.store.source.prefetch_row(u as usize);
            self.state.store.target.prefetch_row(v as usize);
            let lr = self.adaptive_lr(u);
            self.ensure_row(u);
            self.ensure_row(v);
            // Negative rows are lazily initialized as they are drawn.
            for w in negs.iter_mut() {
                *w = self.negatives.sample_excluding(u, v, &mut rng);
                self.state.store.target.prefetch_row(*w as usize);
                self.ensure_row(*w);
            }
            loss += pair_update(&self.state.store, &self.sigmoid, u, v, &negs, lr, &mut grad);
            self.state.update_counts[u as usize] += 1;
            self.state.ctx_counts[v as usize] += 1;
            self.since_build += 1;
        }
        self.state.episodes_applied += 1;
        self.state.pairs_applied += pairs.len() as u64;
        if pairs.is_empty() {
            0.0
        } else {
            loss / pairs.len() as f64
        }
    }

    /// Rebuilds the negative table from the current context counts and
    /// records them as the counts it was built from. O(n).
    fn build_sampler(&mut self) {
        self.state.sampler_counts.clone_from(&self.state.ctx_counts);
        self.negatives = NegativeTable::from_counts(&self.state.sampler_counts);
        self.since_build = 0;
        self.builds += 1;
    }

    fn adaptive_lr(&self, u: u32) -> f32 {
        let c = self.state.update_counts[u as usize];
        (self.cfg.lr as f64 / (1.0 + self.cfg.lr_decay * c as f64).sqrt()) as f32
    }

    fn ensure_row(&mut self, u: u32) {
        let slot = &mut self.state.initialized[u as usize];
        if !*slot {
            self.state.store.init_row(u, self.seed);
            *slot = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs_for(episode: u64) -> Vec<(u32, u32)> {
        // Deterministic toy pairs: two communities, plus drift per episode.
        let base = [(0u32, 1u32), (1, 0), (2, 3), (3, 2), (0, 2)];
        base.iter()
            .map(|&(u, v)| ((u + episode as u32) % 6, (v + episode as u32) % 6))
            .filter(|(u, v)| u != v)
            .collect()
    }

    #[test]
    fn replay_from_state_is_bit_identical() {
        let mut a = OnlineSgns::new(6, 4, OnlineConfig::default(), 9);
        for e in 0..3u64 {
            a.apply_episode(e, &pairs_for(e));
        }
        // "Crash": persist the state, reconstruct, continue.
        let snapshot = a.state().clone();
        let mut b = OnlineSgns::from_state(snapshot, OnlineConfig::default(), 9).unwrap();
        for e in 3..6u64 {
            let la = a.apply_episode(e, &pairs_for(e));
            let lb = b.apply_episode(e, &pairs_for(e));
            assert_eq!(la, lb, "episode {e} loss");
        }
        assert_same_state(a.state(), b.state());
    }

    #[test]
    fn untouched_rows_stay_zero() {
        let mut t = OnlineSgns::new(10, 4, OnlineConfig::default(), 1);
        t.apply_episode(0, &[(0, 1), (1, 0)]);
        // Nodes 0 and 1 were centers/contexts; negatives may touch others,
        // but any initialized row is flagged and any unflagged row is zero.
        for u in 0..10u32 {
            let zero = t.store().s(u).iter().all(|&x| x == 0.0)
                && t.store().t(u).iter().all(|&x| x == 0.0);
            assert_eq!(
                zero,
                !t.state().initialized[u as usize],
                "row {u}: initialized flag must track content"
            );
        }
        assert!(t.state().initialized[0] && t.state().initialized[1]);
    }

    #[test]
    fn adaptive_lr_anneals_per_node() {
        let mut t = OnlineSgns::new(4, 4, OnlineConfig::default(), 2);
        let lr0 = t.adaptive_lr(0);
        t.apply_episode(0, &[(0, 1); 50]);
        assert!(t.adaptive_lr(0) < lr0, "node 0 must anneal after updates");
        assert_eq!(t.adaptive_lr(2), lr0, "untouched node keeps the base lr");
    }

    #[test]
    fn unseen_user_ids_grow_the_row_space_deterministically() {
        let mut a = OnlineSgns::new(4, 4, OnlineConfig::default(), 9);
        a.apply_episode(0, &pairs_for(0));
        // Mid-stream arrival: user 9 shows up, the model grows to hold it.
        a.apply_episode(1, &[(9, 0), (0, 9), (2, 7)]);
        assert_eq!(a.store().len(), 10);
        assert!(a.state().initialized[9]);

        // Journal round-trip mid-growth, then keep growing: replay must be
        // bit-identical including the growth points.
        let snapshot = a.state().clone();
        let mut b = OnlineSgns::from_state(snapshot, OnlineConfig::default(), 9).unwrap();
        let la = a.apply_episode(2, &[(11, 3), (3, 11)]);
        let lb = b.apply_episode(2, &[(11, 3), (3, 11)]);
        assert_eq!(la, lb);
        assert_eq!(a.store().len(), 12);
        assert_same_state(a.state(), b.state());
    }

    #[test]
    fn grow_is_a_noop_at_or_below_current_size() {
        let mut s = OnlineState::fresh(5, 3);
        s.grow(3);
        assert_eq!(s.store.len(), 5);
        s.grow(5);
        assert_eq!(s.store.len(), 5);
        s.grow(8);
        assert_eq!(s.store.len(), 8);
        assert_eq!(s.update_counts.len(), 8);
        assert_eq!(s.ctx_counts.len(), 8);
        assert_eq!(s.sampler_counts.len(), 8);
        assert_eq!(s.initialized.len(), 8);
        assert!(s.store.s(7).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_state_rejects_mismatched_shapes() {
        let t = OnlineSgns::new(4, 4, OnlineConfig::default(), 3);
        let mut bad = t.state().clone();
        bad.ctx_counts.pop();
        assert!(OnlineSgns::from_state(bad, OnlineConfig::default(), 3).is_err());
        for len in [3, 5] {
            let mut bad = t.state().clone();
            bad.sampler_counts.resize(len, 0);
            assert!(OnlineSgns::from_state(bad, OnlineConfig::default(), 3).is_err());
        }
        // The table cannot have been built from counts the state never had.
        let mut bad = t.state().clone();
        bad.sampler_counts[2] = 1;
        assert!(OnlineSgns::from_state(bad, OnlineConfig::default(), 3).is_err());
    }

    #[test]
    fn sampler_rebuilds_every_n_pairs_and_on_growth() {
        let mut t = OnlineSgns::new(4, 3, OnlineConfig::default(), 5);
        // The first n = 4 pairs draw from the uniform table of a fresh state.
        t.apply_episode(0, &[(0, 1), (1, 2), (2, 3)]);
        t.apply_episode(1, &[(3, 1)]);
        assert_eq!(t.sampler_builds(), 0);
        assert_eq!(t.state().sampler_counts, vec![0; 4]);
        // The fifth pair finds n pairs since the build and rebuilds first.
        t.apply_episode(2, &[(0, 2), (1, 0)]);
        assert_eq!(t.sampler_builds(), 1);
        assert_eq!(t.state().sampler_counts, vec![0, 2, 1, 1]);
        // Growth rebuilds over the new row space before the first pair.
        t.apply_episode(3, &[(5, 0)]);
        assert_eq!(t.sampler_builds(), 2);
        assert_eq!(t.state().sampler_counts, vec![1, 2, 2, 1, 0, 0]);
        assert_eq!(t.state().ctx_counts, vec![2, 2, 2, 1, 0, 0]);
    }

    fn assert_same_state(a: &OnlineState, b: &OnlineState) {
        assert_eq!(a.store.source.to_vec(), b.store.source.to_vec());
        assert_eq!(a.store.target.to_vec(), b.store.target.to_vec());
        assert_eq!(a.store.bias_src.to_vec(), b.store.bias_src.to_vec());
        assert_eq!(a.store.bias_tgt.to_vec(), b.store.bias_tgt.to_vec());
        assert_eq!(a.update_counts, b.update_counts);
        assert_eq!(a.ctx_counts, b.ctx_counts);
        assert_eq!(a.sampler_counts, b.sampler_counts);
        assert_eq!(a.initialized, b.initialized);
        assert_eq!(
            (a.episodes_applied, a.pairs_applied),
            (b.episodes_applied, b.pairs_applied)
        );
    }

    proptest::proptest! {
        /// A trainer restored with `from_state` at any episode boundary —
        /// between sampler builds or right after one, before or after the
        /// row space grows — continues exactly like the uninterrupted one:
        /// the same losses, store and counts.
        #[test]
        fn replay_is_bit_identical_across_sampler_builds(
            episodes in proptest::prop::collection::vec(
                proptest::prop::collection::vec((0u32..24, 0u32..24), 0..12), 1..10),
            seed in 0u64..1000,
        ) {
            let cfg = OnlineConfig::default();
            let mut full = OnlineSgns::new(4, 3, cfg.clone(), seed);
            let mut snapshots = Vec::new();
            let mut losses = Vec::new();
            for (e, pairs) in episodes.iter().enumerate() {
                snapshots.push(full.state().clone());
                losses.push(full.apply_episode(e as u64, pairs).to_bits());
            }
            for (cut, snapshot) in snapshots.into_iter().enumerate() {
                let mut t = OnlineSgns::from_state(snapshot, cfg.clone(), seed).unwrap();
                for (e, pairs) in episodes.iter().enumerate().skip(cut) {
                    let loss = t.apply_episode(e as u64, pairs).to_bits();
                    proptest::prop_assert_eq!(loss, losses[e], "episode {} after cut {}", e, cut);
                }
                assert_same_state(t.state(), full.state());
            }
        }
    }

    #[test]
    fn training_separates_communities() {
        let mut t = OnlineSgns::new(
            8,
            8,
            OnlineConfig {
                lr: 0.05,
                lr_decay: 0.0,
                ..OnlineConfig::default()
            },
            7,
        );
        // Two tight communities: {0..4} and {4..8}.
        let mut pairs = Vec::new();
        for u in 0..4u32 {
            for v in 0..4u32 {
                if u != v {
                    pairs.push((u, v));
                    pairs.push((u + 4, v + 4));
                }
            }
        }
        for e in 0..60u64 {
            t.apply_episode(e, &pairs);
        }
        let s = t.store();
        let within = s.score(0, 1) + s.score(4, 5);
        let across = s.score(0, 5) + s.score(4, 1);
        assert!(
            within > across,
            "within-community scores must dominate: {within} vs {across}"
        );
    }
}

//! Fault injection for the training loop.
//!
//! [`PanicAfter`] wraps any [`PairSource`] and panics on a chosen pair,
//! simulating a worker dying mid-epoch (OOM kill, assertion failure, bad
//! arithmetic). The robustness tests use it to drive the trainer's
//! `catch_unwind` containment and the crash-resume path. Nothing on a
//! production code path constructs these types.

use inf2vec_util::faultinject::{Fault, FaultPlan};
use inf2vec_util::rng::Xoshiro256pp;

use crate::sgns::PairSource;

/// A [`PairSource`] that delivers pairs normally, then panics exactly once
/// on the `n`-th pair (1-based, counted across all shards and epochs):
/// one [`Fault::PairPanic`] threshold of a [`FaultPlan`].
#[derive(Debug)]
pub struct PanicAfter<S> {
    inner: S,
    plan: FaultPlan,
    message: &'static str,
}

impl<S: PairSource> PanicAfter<S> {
    /// Panics with `message` on the `nth_pair`-th pair (1-based). The
    /// threshold fires once, so the panic fires exactly once even under
    /// concurrent shards or after a resume.
    pub fn new(inner: S, nth_pair: u64, message: &'static str) -> Self {
        Self {
            inner,
            plan: FaultPlan::none().with(Fault::PairPanic, [nth_pair.max(1)]),
            message,
        }
    }
}

impl<S: PairSource> PairSource for PanicAfter<S> {
    fn for_each_pair(
        &self,
        epoch: usize,
        shard: usize,
        n_shards: usize,
        rng: &mut Xoshiro256pp,
        f: &mut dyn FnMut(u32, u32),
    ) {
        self.inner
            .for_each_pair(epoch, shard, n_shards, rng, &mut |u, v| {
                if self.plan.tick(Fault::PairPanic) {
                    panic!("{}", self.message);
                }
                f(u, v);
            });
    }

    fn pairs_per_epoch(&self) -> u64 {
        self.inner.pairs_per_epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::negative::NegativeTable;
    use crate::sgns::{FlatPairs, SgnsConfig, SgnsTrainer, TrainOptions};
    use crate::store::EmbeddingStore;
    use inf2vec_util::error::{Inf2vecError, TrainError};

    fn pairs() -> Vec<(u32, u32)> {
        (0..100u32).map(|i| (i % 8, (i + 1) % 8)).collect()
    }

    #[test]
    fn fires_exactly_once_at_nth_pair() {
        let src = PanicAfter::new(FlatPairs::new(pairs()), 5, "injected");
        let mut rng = Xoshiro256pp::new(1);
        let mut delivered = 0u64;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            src.for_each_pair(0, 0, 1, &mut rng, &mut |_, _| delivered += 1);
        }));
        assert!(result.is_err());
        assert_eq!(delivered, 4, "4 pairs precede the 5th");
        // Subsequent traversals proceed without a second panic.
        src.for_each_pair(0, 0, 1, &mut rng, &mut |_, _| delivered += 1);
        assert_eq!(delivered, 4 + 100);
    }

    #[test]
    fn single_thread_panic_is_contained_in_multithread_mode() {
        // threads=2 exercises catch_unwind: the surviving shard finishes
        // its work and the trainer reports WorkerPanic instead of aborting.
        let store = EmbeddingStore::new(8, 4, 3);
        let trainer = SgnsTrainer::new(SgnsConfig {
            threads: 2,
            epochs: 2,
            ..SgnsConfig::default()
        });
        let src = PanicAfter::new(FlatPairs::new(pairs()), 30, "worker meltdown");
        let negs = NegativeTable::uniform(8);
        let err = trainer
            .try_train_with(&store, &src, &negs, TrainOptions::default())
            .unwrap_err();
        match err {
            Inf2vecError::Train(TrainError::WorkerPanic {
                epoch,
                n_shards,
                message,
                ..
            }) => {
                assert_eq!(epoch, 0);
                assert_eq!(n_shards, 2);
                assert!(message.contains("worker meltdown"));
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
        // The store is still usable for a rollback-and-retry.
        assert!(store.source.to_vec().iter().all(|x| x.is_finite()));
    }
}

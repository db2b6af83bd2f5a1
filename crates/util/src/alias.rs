//! Walker's alias method for O(1) discrete sampling.
//!
//! Given a fixed vector of nonnegative weights, [`AliasTable`] draws indices
//! with probability proportional to the weights in constant time per draw
//! after O(n) construction. This backs the unigram^0.75 negative-sampling
//! distribution and weighted choices in graph generation.

use crate::rng::Xoshiro256pp;

/// A prepared alias table over `n` outcomes.
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Acceptance probability of the "home" outcome in each bucket.
    prob: Vec<f64>,
    /// The alternative outcome used when the home outcome is rejected.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds an alias table from weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite value,
    /// or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one outcome");
        assert!(
            weights.len() <= u32::MAX as usize,
            "alias table limited to u32 outcomes"
        );
        let mut total = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "weights must be finite and >= 0");
            total += w;
        }
        assert!(total > 0.0, "weights must not all be zero");

        let n = weights.len();
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias: Vec<u32> = (0..n as u32).collect();

        // Indices partitioned by whether their scaled weight is below 1.
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }

        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            // The large bucket donates (1 - prob[s]) of its mass.
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Numerical residue: remaining buckets keep themselves.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }

        Self { prob, alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when the table has no outcomes (cannot happen via `new`).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one index with probability proportional to its weight.
    ///
    /// Home or alias is picked without a branch: on a skewed table the
    /// choice is a coin flip that a branch predictor cannot learn.
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> usize {
        let i = rng.index(self.prob.len());
        let home = rng.next_f64() < self.prob[i];
        std::hint::select_unpredictable(home, i, self.alias[i] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn empirical(weights: &[f64], draws: usize, seed: u64) -> Vec<f64> {
        let table = AliasTable::new(weights);
        let mut rng = Xoshiro256pp::new(seed);
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn matches_target_distribution() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let freq = empirical(&weights, 200_000, 17);
        let total: f64 = weights.iter().sum();
        for (f, w) in freq.iter().zip(&weights) {
            let target = w / total;
            assert!(
                (f - target).abs() < 0.01,
                "frequency {f} too far from {target}"
            );
        }
    }

    #[test]
    fn single_outcome_always_sampled() {
        let table = AliasTable::new(&[5.0]);
        let mut rng = Xoshiro256pp::new(1);
        for _ in 0..100 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }

    #[test]
    fn zero_weight_never_sampled() {
        let freq = empirical(&[0.0, 1.0, 0.0, 1.0], 50_000, 3);
        assert_eq!(freq[0], 0.0);
        assert_eq!(freq[2], 0.0);
        assert!((freq[1] - 0.5).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "at least one outcome")]
    fn empty_weights_panic() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn all_zero_weights_panic() {
        let _ = AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_weight_panics() {
        let _ = AliasTable::new(&[1.0, -0.5]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The empirical distribution stays within a loose tolerance of the
        /// target for arbitrary weight vectors.
        #[test]
        fn proptest_distribution(weights in prop::collection::vec(0.01f64..10.0, 1..12), seed in any::<u64>()) {
            let freq = empirical(&weights, 60_000, seed);
            let total: f64 = weights.iter().sum();
            for (f, w) in freq.iter().zip(&weights) {
                let target = w / total;
                prop_assert!((f - target).abs() < 0.05,
                    "freq {} target {}", f, target);
            }
        }

        /// Samples are always valid indices.
        #[test]
        fn proptest_in_range(n in 1usize..100, seed in any::<u64>()) {
            let weights = vec![1.0; n];
            let table = AliasTable::new(&weights);
            let mut rng = Xoshiro256pp::new(seed);
            for _ in 0..64 {
                prop_assert!(table.sample(&mut rng) < n);
            }
        }
    }
}

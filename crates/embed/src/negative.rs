//! Negative-sampling distribution.
//!
//! word2vec draws negative samples from the unigram distribution raised to
//! the 3/4 power; the paper adopts the same scheme ("we randomly generate
//! several negative instances", Eq. 4, |N| typically 5–10). Frequencies here
//! are how often each node appears as a *context* (influence target), so
//! frequently-influenced users serve as hard negatives.

use inf2vec_util::rng::Xoshiro256pp;
use inf2vec_util::AliasTable;

/// Prepared sampler over node ids `0..n`.
#[derive(Debug, Clone)]
pub struct NegativeTable {
    table: AliasTable,
    n: u32,
}

impl NegativeTable {
    /// word2vec's distortion exponent.
    pub const DISTORTION: f64 = 0.75;

    /// Builds the sampler from per-node context counts. Nodes with zero
    /// count get a floor of 1 so every node can appear as a negative (the
    /// evaluation ranks *all* candidate users, including never-influenced
    /// ones, so they must receive gradient signal).
    pub fn from_counts(counts: &[u64]) -> Self {
        assert!(!counts.is_empty(), "need at least one node");
        let weights: Vec<f64> = counts.iter().map(|&c| Self::weight(c)).collect();
        Self {
            table: AliasTable::new(&weights),
            n: counts.len() as u32,
        }
    }

    /// A node's sampling weight, `max(count, 1)^0.75`.
    #[inline]
    fn weight(count: u64) -> f64 {
        (count.max(1) as f64).powf(Self::DISTORTION)
    }

    /// Uniform sampler over `n` nodes (used when no counts exist, e.g. the
    /// citation case study's cold start): every weight is `1^0.75 = 1`.
    pub fn uniform(n: u32) -> Self {
        Self::from_counts(&vec![0; n as usize])
    }

    /// Number of nodes.
    pub fn len(&self) -> u32 {
        self.n
    }

    /// Always false (constructors reject empty tables).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws one node id.
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> u32 {
        self.table.sample(rng) as u32
    }

    /// Draws a node id different from both `u` and `v` (word2vec resamples
    /// on collision with the positive target; we also exclude the center).
    /// Falls back to a uniform draw after a few collisions, which can only
    /// matter for graphs with ≤ 2 nodes.
    #[inline]
    pub fn sample_excluding(&self, u: u32, v: u32, rng: &mut Xoshiro256pp) -> u32 {
        for _ in 0..8 {
            let w = self.sample(rng);
            if w != u && w != v {
                return w;
            }
        }
        // Degenerate distribution: walk the id space deterministically.
        let mut w = rng.below(self.n as u64) as u32;
        while (w == u || w == v) && self.n > 2 {
            w = (w + 1) % self.n;
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distortion_flattens_distribution() {
        // Counts 1 : 16 -> weights 1 : 8, so the frequent node should be
        // sampled ~8/9 of the time, not 16/17.
        let t = NegativeTable::from_counts(&[1, 16]);
        let mut rng = Xoshiro256pp::new(1);
        let mut hits = [0u32; 2];
        let trials = 100_000;
        for _ in 0..trials {
            hits[t.sample(&mut rng) as usize] += 1;
        }
        let f1 = hits[1] as f64 / trials as f64;
        assert!((f1 - 8.0 / 9.0).abs() < 0.01, "f1 = {f1}");
    }

    #[test]
    fn zero_counts_still_sampled() {
        let t = NegativeTable::from_counts(&[0, 0, 100]);
        let mut rng = Xoshiro256pp::new(2);
        let mut seen = [false; 3];
        for _ in 0..10_000 {
            seen[t.sample(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some node never sampled: {seen:?}");
    }

    #[test]
    fn exclusion_respected() {
        let t = NegativeTable::uniform(5);
        let mut rng = Xoshiro256pp::new(3);
        for _ in 0..1000 {
            let w = t.sample_excluding(1, 3, &mut rng);
            assert!(w != 1 && w != 3);
            assert!(w < 5);
        }
    }

    #[test]
    fn exclusion_degenerate_three_nodes() {
        let t = NegativeTable::from_counts(&[0, 1_000_000, 0]);
        let mut rng = Xoshiro256pp::new(4);
        for _ in 0..100 {
            let w = t.sample_excluding(1, 1, &mut rng);
            assert_ne!(w, 1);
        }
    }
}

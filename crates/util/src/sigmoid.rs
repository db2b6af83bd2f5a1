//! Precomputed sigmoid lookup table.
//!
//! Skip-gram training evaluates `σ(x) = 1 / (1 + e^{-x})` for every positive
//! and negative sample; following the original word2vec implementation we
//! precompute the function on a uniform grid over `[-MAX_X, MAX_X]` and clamp
//! outside it, where the gradient is negligible anyway.

/// Sigmoid of `x`, computed exactly.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// A lookup table for the logistic sigmoid on `[-max_x, max_x]`.
#[derive(Debug, Clone)]
pub struct SigmoidTable {
    /// `(σ, ln max(σ, 1e-7), ln max(1 − σ, 1e-7))` per entry: the low
    /// clamp, the `bins` grid samples, the high clamp, then all-NaN for a
    /// NaN input.
    table: Vec<(f32, f64, f64)>,
    max_x: f32,
    scale: f32,
}

impl SigmoidTable {
    /// word2vec defaults: 6.0 clamp, 1000 bins.
    pub const DEFAULT_MAX_X: f32 = 6.0;
    /// Default number of bins.
    pub const DEFAULT_BINS: usize = 1024;

    /// Builds a table with `bins` samples over `[-max_x, max_x]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins < 2` or `max_x <= 0`.
    pub fn new(max_x: f32, bins: usize) -> Self {
        assert!(bins >= 2, "need at least two bins");
        assert!(max_x > 0.0, "max_x must be positive");
        let grid = (0..bins).map(|i| {
            let x = -max_x + 2.0 * max_x * (i as f32 + 0.5) / bins as f32;
            sigmoid(x)
        });
        let table = std::iter::once(0.0)
            .chain(grid)
            .chain(std::iter::once(1.0))
            .map(|s: f32| {
                let ln_pos = (s.max(1e-7) as f64).ln();
                (s, ln_pos, ((1.0 - s).max(1e-7) as f64).ln())
            })
            .chain(std::iter::once((f32::NAN, f64::NAN, f64::NAN)))
            .collect();
        Self {
            table,
            max_x,
            scale: bins as f32 / (2.0 * max_x),
        }
    }

    /// Looks up `σ(x)`, clamping to 0/1 outside `[-max_x, max_x]`; NaN for
    /// a NaN `x`.
    ///
    /// The maximum absolute error with the default parameters is below 3e-3,
    /// which is well inside SGD noise.
    #[inline]
    pub fn get(&self, x: f32) -> f32 {
        self.table[self.index(x)].0
    }

    /// `σ(x)` with the two SGNS log-likelihood terms of the same entry:
    /// `(σ, ln max(σ, 1e-7), ln max(1 − σ, 1e-7))`. The logs are tabulated,
    /// so they equal computing them from the returned `σ`, bit for bit. A
    /// NaN `x` gives NaN in all three, so a NaN parameter shows in the loss.
    #[inline]
    pub fn get_ln(&self, x: f32) -> (f32, f64, f64) {
        self.table[self.index(x)]
    }

    /// Table entry for `x`: 0 below the range, `bins + 1` above it,
    /// `bins + 2` for NaN.
    #[inline]
    fn index(&self, x: f32) -> usize {
        let nan = self.table.len() - 1;
        let high = nan - 1;
        if x <= -self.max_x {
            return 0;
        }
        if x >= self.max_x {
            return high;
        }
        // NaN fails both comparisons, and the cast below would map it to
        // bin 1: a finite σ and finite logs.
        if x.is_nan() {
            return nan;
        }
        let idx = ((x + self.max_x) * self.scale) as usize;
        // Guard the upper boundary against float rounding.
        1 + idx.min(high - 2)
    }
}

impl Default for SigmoidTable {
    fn default() -> Self {
        Self::new(Self::DEFAULT_MAX_X, Self::DEFAULT_BINS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_sigmoid_midpoint() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
    }

    #[test]
    fn table_close_to_exact() {
        let t = SigmoidTable::default();
        let mut max_err: f32 = 0.0;
        let mut x = -8.0f32;
        while x <= 8.0 {
            max_err = max_err.max((t.get(x) - sigmoid(x)).abs());
            x += 0.003;
        }
        assert!(max_err < 3e-3, "max error {max_err} too large");
    }

    #[test]
    fn clamps_outside_range() {
        let t = SigmoidTable::default();
        assert_eq!(t.get(100.0), 1.0);
        assert_eq!(t.get(-100.0), 0.0);
        assert_eq!(t.get(f32::INFINITY), 1.0);
        assert_eq!(t.get(f32::NEG_INFINITY), 0.0);
    }

    #[test]
    fn get_ln_matches_logs_of_sigma_in_every_entry() {
        let t = SigmoidTable::default();
        let bins = SigmoidTable::DEFAULT_BINS;
        let max_x = SigmoidTable::DEFAULT_MAX_X;
        let centers = (0..bins).map(|i| -max_x + 2.0 * max_x * (i as f32 + 0.5) / bins as f32);
        let xs: Vec<f32> = [-max_x, f32::NEG_INFINITY, max_x, f32::INFINITY]
            .into_iter()
            .chain(centers)
            .collect();
        let mut seen = vec![false; bins + 2];
        for x in xs {
            seen[t.index(x)] = true;
            let (s, ln_pos, ln_neg) = t.get_ln(x);
            assert_eq!(s.to_bits(), t.get(x).to_bits(), "x = {x}");
            assert_eq!(
                ln_pos.to_bits(),
                (s.max(1e-7) as f64).ln().to_bits(),
                "x = {x}"
            );
            assert_eq!(
                ln_neg.to_bits(),
                ((1.0 - s).max(1e-7) as f64).ln().to_bits(),
                "x = {x}"
            );
        }
        assert!(seen.iter().all(|&s| s), "every bin and both clamps swept");
        assert_eq!(t.get_ln(-max_x).0, 0.0);
        assert_eq!(t.get_ln(max_x).0, 1.0);
    }

    #[test]
    fn nan_gives_nan_sigma_and_logs() {
        let t = SigmoidTable::default();
        let (s, ln_pos, ln_neg) = t.get_ln(f32::NAN);
        assert!(s.is_nan() && ln_pos.is_nan() && ln_neg.is_nan());
        assert!(t.get(-f32::NAN).is_nan());
    }

    #[test]
    #[should_panic(expected = "two bins")]
    fn rejects_tiny_table() {
        let _ = SigmoidTable::new(6.0, 1);
    }

    proptest! {
        /// The table output is always in [0, 1] and monotone on the grid.
        #[test]
        fn proptest_bounds(x in -50.0f32..50.0) {
            let t = SigmoidTable::default();
            let y = t.get(x);
            prop_assert!((0.0..=1.0).contains(&y));
        }

        #[test]
        fn proptest_monotone(a in -6.0f32..6.0, d in 0.1f32..3.0) {
            let t = SigmoidTable::default();
            prop_assert!(t.get(a + d) >= t.get(a) - 1e-6);
        }
    }
}

//! Inf2vec hyper-parameters.

use inf2vec_obs::Telemetry;
use inf2vec_util::error::ConfigError;

/// All knobs of Algorithm 1 + Algorithm 2, preloaded with the paper's §V-A2
/// defaults.
#[derive(Debug, Clone)]
pub struct Inf2vecConfig {
    /// Embedding dimension K (paper default 50; Figure 7 sweeps it).
    pub k: usize,
    /// Context length threshold L (paper default 50; Figure 8 sweeps it).
    pub l: usize,
    /// Component weight α: fraction of the context drawn by the local
    /// restart walk; the rest is global user-similarity sampling (paper
    /// default 0.1 from the tuning set; α = 1 is Inf2vec-L).
    pub alpha: f64,
    /// Restart probability of the local walk (paper: 0.5, following
    /// node2vec's default).
    pub restart: f64,
    /// Negative samples per positive pair (paper: 5–10).
    pub negatives: usize,
    /// SGD learning rate γ (paper default 0.005).
    pub lr: f32,
    /// Training epochs over the generated tuples (paper: converges in
    /// 10–20 iterations).
    pub epochs: usize,
    /// Hogwild worker threads (1 = deterministic, the default).
    pub threads: usize,
    /// Master seed for context generation, negative sampling, and
    /// initialization.
    pub seed: u64,
    /// Extension beyond the paper: regenerate influence contexts every
    /// epoch instead of once up front (Algorithm 2 generates them once;
    /// fresh contexts act like data augmentation). Off by default.
    pub regenerate_contexts: bool,
    /// Whether to learn the bias terms `b_u`, `b̃_u` (on in the paper;
    /// the `ablate-bias` bench turns it off).
    pub use_bias: bool,
    /// Metrics/event destination threaded through every training phase
    /// (corpus build, SGNS epochs, checkpointing). Disabled by default:
    /// then each instrumentation point costs one branch.
    pub telemetry: Telemetry,
}

impl Default for Inf2vecConfig {
    fn default() -> Self {
        Self {
            k: 50,
            l: 50,
            alpha: 0.1,
            restart: 0.5,
            negatives: 5,
            lr: 0.005,
            epochs: 15,
            threads: 1,
            seed: 0,
            regenerate_contexts: false,
            use_bias: true,
            telemetry: Telemetry::disabled(),
        }
    }
}

impl Inf2vecConfig {
    /// The Inf2vec-L variant of Table IV: local influence context only
    /// (α = 1.0), everything else unchanged.
    pub fn inf2vec_l(mut self) -> Self {
        self.alpha = 1.0;
        self
    }

    /// Number of local (walk) context nodes: `round(L · α)`.
    pub fn local_len(&self) -> usize {
        (self.l as f64 * self.alpha).round() as usize
    }

    /// Number of global (similarity) context nodes: `L - local`.
    pub fn global_len(&self) -> usize {
        self.l - self.local_len()
    }

    /// Validates parameter ranges; the trainers call this before touching
    /// any data.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.k == 0 {
            return Err(ConfigError::new("k", "K must be positive"));
        }
        if self.l == 0 {
            return Err(ConfigError::new("l", "L must be positive"));
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(ConfigError::new("alpha", "alpha must be in [0, 1]"));
        }
        if !(0.0..=1.0).contains(&self.restart) {
            return Err(ConfigError::new("restart", "restart must be in [0, 1]"));
        }
        if !(self.lr > 0.0 && self.lr.is_finite()) {
            return Err(ConfigError::new("lr", "learning rate must be positive"));
        }
        if self.epochs == 0 {
            return Err(ConfigError::new("epochs", "need at least one epoch"));
        }
        if self.threads == 0 {
            return Err(ConfigError::new("threads", "need at least one thread"));
        }
        Ok(())
    }

    /// [`validate`](Self::validate), panicking on the first violation
    /// (legacy wrapper for the panicking train entry points).
    pub fn validate_or_panic(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = Inf2vecConfig::default();
        assert_eq!(c.k, 50);
        assert_eq!(c.l, 50);
        assert!((c.alpha - 0.1).abs() < 1e-12);
        assert!((c.restart - 0.5).abs() < 1e-12);
        assert!((c.lr - 0.005).abs() < 1e-9);
        assert!(c.use_bias);
        c.validate().unwrap();
    }

    #[test]
    fn context_split_sums_to_l() {
        for alpha in [0.0, 0.1, 0.33, 0.5, 0.9, 1.0] {
            let c = Inf2vecConfig {
                alpha,
                ..Inf2vecConfig::default()
            };
            assert_eq!(c.local_len() + c.global_len(), c.l, "alpha = {alpha}");
        }
        let c = Inf2vecConfig::default();
        assert_eq!(c.local_len(), 5); // 50 * 0.1
        assert_eq!(c.global_len(), 45);
    }

    #[test]
    fn inf2vec_l_is_all_local() {
        let c = Inf2vecConfig::default().inf2vec_l();
        assert_eq!(c.local_len(), c.l);
        assert_eq!(c.global_len(), 0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn validate_rejects_bad_alpha() {
        Inf2vecConfig {
            alpha: 1.5,
            ..Inf2vecConfig::default()
        }
        .validate_or_panic();
    }

    #[test]
    fn validate_reports_the_offending_field() {
        let cases: [(&str, Inf2vecConfig); 5] = [
            ("k", Inf2vecConfig { k: 0, ..Inf2vecConfig::default() }),
            ("l", Inf2vecConfig { l: 0, ..Inf2vecConfig::default() }),
            ("restart", Inf2vecConfig { restart: -0.1, ..Inf2vecConfig::default() }),
            ("lr", Inf2vecConfig { lr: f32::NAN, ..Inf2vecConfig::default() }),
            ("epochs", Inf2vecConfig { epochs: 0, ..Inf2vecConfig::default() }),
        ];
        for (field, cfg) in cases {
            let err = cfg.validate().unwrap_err();
            assert_eq!(err.field, field);
        }
    }
}

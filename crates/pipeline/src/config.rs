//! Pipeline configuration.

use std::time::Duration;

use inf2vec_core::Inf2vecConfig;
use inf2vec_embed::OnlineConfig;
use inf2vec_obs::Telemetry;

/// Everything the continuous-learning pipeline needs to run.
///
/// The determinism-relevant knobs are `close_after`, `online`, `inf2vec`,
/// and `seed`: together with the action-log bytes they fully determine the
/// final model state. The remaining knobs (batching, journal and publish
/// cadence, backoff) shape *where* work happens, never *what* the
/// result is — a crash and journal replay under any of them reconverges
/// bit-identically.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Episode closing: an open item whose last activity is this many
    /// accepted records in the past is complete. Keyed on the accepted-
    /// record sequence (not wall clock) so closing replays exactly.
    pub close_after: u64,
    /// Max records consumed per tail poll.
    pub batch_max: usize,
    /// Commit the progress journal every N applied batches (1 = always).
    /// A commit snapshots the trainer and a writer thread writes the slot
    /// while training goes on; the next commit first waits for it, so at
    /// most one is in flight, and every public call returns with it
    /// settled. A process killed mid-write replays from the commit before
    /// the one in flight.
    pub journal_every_batches: u32,
    /// Offer a snapshot to the publisher every N closed episodes.
    pub publish_every_episodes: u64,
    /// Publish attempts before giving the snapshot up.
    pub publish_max_attempts: u32,
    /// Sleep after the first failed publish attempt; doubles per attempt.
    pub publish_backoff: Duration,
    /// Ceiling on every publish retry sleep, the first one included.
    pub publish_backoff_cap: Duration,
    /// Per-stage restarts tolerated before the pipeline escalates to
    /// [`PipelineError::StageFailed`](inf2vec_util::PipelineError::StageFailed).
    pub restart_budget: u32,
    /// Upper bound on the user-id space the pipeline accepts from the
    /// log (ids at or beyond it quarantine as defects). `0` pins the
    /// space to the social graph's node count — no row-space growth.
    /// When larger than the graph, the model's row space grows on demand
    /// as unseen ids arrive; growth is driven by the deterministic
    /// episode stream, so replay reproduces it bit-identically.
    pub user_capacity: usize,
    /// Compact the action log once its physical size exceeds this many
    /// bytes (`0` disables compaction). Compaction only ever drops bytes
    /// below the *older* of the two journal slots' committed offsets, so
    /// any recoverable journal can still resume. Each compacted prefix is
    /// first sealed into the segmented archive store
    /// (`<log>.archive.d/`), so `archive ++ live payload` reconstructs
    /// the full logical stream (what a from-scratch bit-identity replay
    /// needs).
    pub log_budget_bytes: u64,
    /// Retained archive payload budget in bytes: expiry drops the oldest
    /// segments while the retained total exceeds this (`0` = unlimited).
    /// Segments inside the journal replay window are never expired.
    pub archive_max_bytes: u64,
    /// Maximum retained archive segments (`0` = unlimited).
    pub archive_max_segments: usize,
    /// Expire archive segments sealed longer ago than this, measured
    /// against the pipeline clock that stamped them (`None` = no age
    /// bound). Advisory next to the byte/segment budgets: seal stamps
    /// are process-relative, so segments from an earlier process look
    /// young (never spuriously old).
    pub archive_max_age: Option<Duration>,
    /// Attempts for each journal write, archive seal, archive expiry and
    /// snapshot export before that write degrades (training continues,
    /// the write is skipped until the next boundary).
    pub disk_max_attempts: u32,
    /// Sleep after the first failed disk-write attempt; doubles per
    /// attempt, uncapped.
    pub disk_retry_backoff: Duration,
    /// Export every successfully published snapshot to this directory
    /// (atomic write + checksum sidecar). `None` disables export.
    pub snapshot_dir: Option<std::path::PathBuf>,
    /// Probe triples for the quality gate (`0` disables the gate and
    /// publishes on checksum alone).
    pub probe_pairs: usize,
    /// Allowed probe-score regression below the best ever published;
    /// a candidate scoring below `best - quality_budget` is withheld.
    pub quality_budget: f64,
    /// Online SGNS hyper-parameters.
    pub online: OnlineConfig,
    /// Context generation (Algorithm 1) parameters; `inf2vec.seed` is the
    /// pipeline's determinism root.
    pub inf2vec: Inf2vecConfig,
    /// Metrics/events sink.
    pub telemetry: Telemetry,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            close_after: 64,
            batch_max: 256,
            journal_every_batches: 1,
            publish_every_episodes: 8,
            publish_max_attempts: 4,
            publish_backoff: Duration::from_millis(10),
            publish_backoff_cap: Duration::from_millis(500),
            restart_budget: 5,
            user_capacity: 0,
            log_budget_bytes: 0,
            archive_max_bytes: 0,
            archive_max_segments: 0,
            archive_max_age: None,
            disk_max_attempts: 3,
            disk_retry_backoff: Duration::from_millis(2),
            snapshot_dir: None,
            probe_pairs: 0,
            quality_budget: 0.05,
            online: OnlineConfig::default(),
            inf2vec: Inf2vecConfig {
                l: 10,
                ..Inf2vecConfig::default()
            },
            telemetry: Telemetry::disabled(),
        }
    }
}

impl PipelineConfig {
    /// The determinism root seed (shared with context generation).
    pub fn seed(&self) -> u64 {
        self.inf2vec.seed
    }
}

/// The standard health policy for a running pipeline, evaluated by the
/// introspection endpoint's `/healthz`:
///
/// - **quarantine ratio** — quarantined vs. accepted records over the
///   scrape window; a defect storm degrades at 5% and fails at 25%;
/// - **publish lag** — episodes applied beyond the newest publish *this
///   process has observed*; the served model growing stale degrades at
///   16 episodes and fails at 128. After a crash the counter restarts
///   at zero, so a freshly recovered pipeline reports failing until its
///   first publish lands — deliberate pessimism: the process cannot
///   vouch for a snapshot it never published;
/// - **loss divergence** — the episode-loss EMA. The gauge is the mean
///   per-pair SGNS loss *including the negative terms*, so with the
///   default 5 negatives a freshly initialized model sits near
///   `6·ln 2 ≈ 4.2` and falls from there; an EMA above 6 means the
///   objective is moving the wrong way (degraded), above 20 it is
///   blowing up (failing);
/// - **quality regression** — how far the newest candidate snapshot's
///   held-out probe score sits below the best score ever published
///   (`inf2vec_pipeline_quality_regression = best - latest`, clamped at
///   zero). The gate withholds such snapshots from the registry; the
///   rule makes the withholding visible: a regression beyond the usual
///   publish budget degrades at 0.05 and fails at 0.25 (a model that
///   lost a quarter of its probe wins is not quietly recoverable).
pub fn pipeline_health_policy() -> inf2vec_obs::HealthPolicy {
    inf2vec_obs::HealthPolicy::new()
        .rule(inf2vec_obs::Rule::ratio(
            "quarantine_ratio",
            "inf2vec_pipeline_quarantined_total",
            "inf2vec_pipeline_records_total",
            0.05,
            0.25,
        ))
        .rule(inf2vec_obs::Rule::gauge_above(
            "publish_lag",
            "inf2vec_pipeline_publish_lag_episodes",
            16.0,
            128.0,
        ))
        .rule(inf2vec_obs::Rule::gauge_above(
            "loss_divergence",
            "inf2vec_pipeline_loss_ema",
            6.0,
            20.0,
        ))
        .rule(inf2vec_obs::Rule::gauge_above(
            "quality_regression",
            "inf2vec_pipeline_quality_regression",
            0.05,
            0.25,
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use inf2vec_obs::{HealthEvaluator, HealthState, Registry};
    use inf2vec_util::ManualClock;

    /// One NaN episode loss makes the loss EMA NaN for good; the
    /// divergence rule must read that as failing, not as below 6.
    #[test]
    fn a_nan_loss_ema_fails_the_loss_divergence_rule() {
        let (clock, _) = ManualClock::shared();
        let ev = HealthEvaluator::new(pipeline_health_policy(), clock);
        let r = Registry::new();
        let ema = 0.9 * 4.2 + 0.1 * f64::NAN;
        r.gauge("inf2vec_pipeline_loss_ema", &[]).set(ema);
        let report = ev.evaluate(r.snapshot());
        let check = report
            .checks
            .iter()
            .find(|c| c.name == "loss_divergence")
            .expect("the policy has a loss rule");
        assert_eq!(check.state, HealthState::Failing, "{report:?}");
        assert_eq!(report.state, HealthState::Failing);
    }
}

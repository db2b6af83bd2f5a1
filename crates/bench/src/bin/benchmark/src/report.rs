//! The metric catalog, per-run results, and their JSON forms.
//!
//! Every workload reports every metric of the catalog: end-to-end
//! metrics from untraced runs, per-layer metrics from traced runs. A
//! layer a workload never calls reports 0 — a journal change moving
//! `pipeline.journal.write_s` on `train` would itself be a finding.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`: what a user of the system sees.
/// Every workload reports all of them (see the README for each
/// workload's operation).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// The offered rates of the serve workload's open-loop steps, req/s.
pub const SERVE_RATES: [u32; 4] = [4000, 8000, 16000, 24000];

/// Per-layer metrics `(name, unit)`, from the traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("diffusion.propnet.build_s", "s"),
        ("core.corpus.build_s", "s"),
        ("core.corpus.tuples", "count"),
        ("core.corpus.pairs", "count"),
        ("embed.negative.build_s", "s"),
        ("embed.negative.rebuild_s_est", "s"),
        ("embed.sgns.train_s", "s"),
        ("embed.sgns.epoch_s_p50", "s"),
        ("embed.sgns.pairs_per_s", "1/s"),
        ("embed.sgns.final_loss", "nat"),
        ("eval.activation.eval_s", "s"),
        ("eval.activation.auc", "1"),
        ("eval.activation.map", "1"),
        ("ingest.tail.poll_s", "s"),
        ("ingest.tail.polls", "count"),
        ("ingest.tail.records", "count"),
        ("core.stream.pairs_s", "s"),
        ("core.stream.pairs", "count"),
        ("embed.online.apply_s", "s"),
        ("embed.online.episodes", "count"),
        ("embed.online.pairs_per_s", "1/s"),
        ("pipeline.journal.write_s", "s"),
        ("pipeline.journal.writes", "count"),
        ("pipeline.journal.bytes_per_record", "B"),
        ("pipeline.publish.clone_s", "s"),
        ("pipeline.publish.checksum_s", "s"),
        ("pipeline.publish.install_s", "s"),
        ("pipeline.publish.installs", "count"),
        ("pipeline.publish.skipped", "count"),
        ("pipeline.publish.publish_s_mean", "s"),
        ("pipeline.unattributed_s", "s"),
        ("serve.frontend.request_s_p50", "s"),
        ("serve.frontend.request_s_p99", "s"),
        ("serve.service.request_s_p50", "s"),
        ("serve.service.request_s_p99", "s"),
        ("serve.service.rank_targets_s_p50", "s"),
        ("serve.batch.rank_s_p50", "s"),
        ("serve.batch.rank_s_p99", "s"),
        ("serve.batch.size_mean", "count"),
        ("serve.batch.flush_full", "count"),
        ("serve.batch.flush_window", "count"),
        ("serve.batch.flush_drain", "count"),
        ("serve.registry.install_s", "s"),
        ("serve.registry.installs", "count"),
        ("serve.http.overhead_ms_p50", "ms"),
        ("serve.client.max_rate_rps", "1/s"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for rate in SERVE_RATES {
        for (metric, unit) in [
            ("serve.wire.p50_ms", "ms"),
            ("serve.wire.p99_ms", "ms"),
            ("serve.client.lateness_ms_p99", "ms"),
            ("serve.client.achieved_rps", "1/s"),
        ] {
            out.push((format!("{metric}.r{rate}"), unit));
        }
    }
    out.push(("tracing_overhead_s".to_string(), "s"));
    out
}

/// Measured values by metric name. Unit lookups go through the catalog,
/// so a workload cannot report a name the catalog does not define.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the catalog (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name:?} is not in the catalog"
        );
        self.values.insert(name.to_string(), value);
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Names recorded so far.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }
}

/// The unit the catalog gives `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .or_else(|| {
            per_layer()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Human-readable gate failures; the run is correct when empty.
    pub problems: Vec<String>,
    /// Operations attempted (epochs, records, or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The measured metrics.
    pub metrics: Metrics,
    /// Per-run detail for `results.json` (JSON object members, no braces).
    pub detail: String,
    /// The traced run's `trace.json` entry (JSON object), when traced.
    pub trace: Option<String>,
}

impl RunResult {
    /// Whether every correctness gate held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Records a gate: `ok`, or a problem described by `what`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The summary line: `correct`, `attempted`, `failed`, and every
    /// catalog metric of the run's kind (0 for a layer this workload
    /// never calls).
    pub fn summary_json(&self, traced: bool) -> String {
        let catalog: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in catalog.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let v = self.metrics.get(name).unwrap_or(0.0);
            let _ = write!(
                s,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(v)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number for `v`. Infinite values (a latency percentile
/// that reached a failed request) become the largest finite `f64`, with
/// the run already marked incorrect by its gates.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "0".to_string()
    } else if v > 0.0 {
        format!("{}", f64::MAX)
    } else {
        format!("{}", f64::MIN)
    }
}

/// A JSON array of [`json_num`]s.
pub fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
    format!("[{}]", items.join(","))
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate metric name");
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn summary_lists_every_catalog_metric() {
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        r.metrics.set("setup_s", 0.5);
        let line = r.summary_json(false);
        let doc = inf2vec_util::json::Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        let metrics = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(*unit));
        }
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(0.5)
        );
        r.gate(false, || "broken".into());
        assert!(r.summary_json(true).starts_with("{\"correct\":false"));
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        assert_eq!(json_num(1.5), "1.5");
        assert!(inf2vec_util::json::Json::parse(&json_num(f64::INFINITY)).is_ok());
        assert_eq!(json_num(f64::NAN), "0");
    }
}

//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end and parent. Spans are kept in
//! memory while a workload runs and written to `trace.json` at the end.
//! A layer's *self time* is its span minus the time its child spans
//! cover; summed per name, self times partition the root span, and
//! whatever the layers do not account for is reported as unattributed.
//!
//! A disabled tracer records nothing: every call is one branch, so the
//! untraced run executes the same code path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still open) span. Times are seconds since the
/// tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `embed.sgns`.
    pub name: &'static str,
    /// Start, seconds since the tracer's origin.
    pub start_s: f64,
    /// End, seconds since the tracer's origin.
    pub end_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Work the benchmark adds for measurement only (it has no
    /// counterpart in the system under test): excluded from layer sums
    /// and subtracted from the traced wall.
    pub excluded: bool,
}

impl Span {
    /// Wall duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder. Single-threaded: the benchmark makes every traced
/// layer call from one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::on()
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        self.enter_with(name, false)
    }

    fn enter_with(&mut self, name: &'static str, excluded: bool) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s: now,
            end_s: now,
            parent: self.open.last().copied(),
            excluded,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        let popped = self.open.pop();
        assert_eq!(popped, Some(i), "spans must close innermost first");
        self.spans[i].end_s = self.origin.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Runs measurement-only work `f` inside an excluded span (see
    /// [`Span::excluded`]).
    pub fn time_excluded<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter_with(name, true);
        let out = f();
        self.exit(id);
        out
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Per span, the wall time its direct children cover.
    fn child_times(&self) -> Vec<f64> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration_s();
            }
        }
        child_time
    }

    /// Per-name totals over all recorded spans.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let child_time = self.child_times();
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.wall_s += s.duration_s();
            t.self_s += s.duration_s() - child_time[i];
            t.excluded |= s.excluded;
        }
        out
    }

    /// Total self time of the spans named `name` (0 when none).
    pub fn self_s(&self, name: &str) -> f64 {
        self.layers().get(name).map_or(0.0, |t| t.self_s)
    }

    /// The reconciliation of the top-level spans named `root`: their
    /// wall time (minus excluded measurement-only spans), the self-time
    /// sum of the layer spans beneath them, and what is left
    /// unattributed. `None` when `root` was never recorded.
    pub fn reconcile(&self, root: &str) -> Option<Reconciliation> {
        let child_time = self.child_times();
        let top = |mut i: usize| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            i
        };
        let (mut found, mut wall_s, mut layers_s) = (false, 0.0, 0.0);
        for (i, s) in self.spans.iter().enumerate() {
            let r = top(i);
            if self.spans[r].name != root {
                continue;
            }
            if i == r {
                found = true;
                wall_s += s.duration_s();
            } else if s.excluded {
                wall_s -= s.duration_s();
            } else {
                layers_s += s.duration_s() - child_time[i];
            }
        }
        found.then_some(Reconciliation {
            wall_s,
            layers_s,
            unattributed_s: wall_s - layers_s,
        })
    }

    /// The spans as a JSON array of `{"name","start_s","end_s","parent"}`.
    pub fn spans_json(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 80 + 2);
        s.push('[');
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{parent}{}}}",
                span.name,
                span.start_s,
                span.end_s,
                if span.excluded {
                    ",\"excluded\":true"
                } else {
                    ""
                }
            );
        }
        s.push(']');
        s
    }
}

/// Totals of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed wall time, seconds.
    pub wall_s: f64,
    /// Summed self time (wall minus child spans), seconds.
    pub self_s: f64,
    /// Measurement-only spans (see [`Span::excluded`]).
    pub excluded: bool,
}

/// How a root span's wall clock splits into layer self times.
#[derive(Debug, Clone, Copy)]
pub struct Reconciliation {
    /// Root wall time minus measurement-only spans, seconds.
    pub wall_s: f64,
    /// Sum of the layers' self times, seconds.
    pub layers_s: f64,
    /// `wall_s - layers_s`: time no layer span covers.
    pub unattributed_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_reconciles() {
        let mut t = Tracer::on();
        let root = t.enter("root");
        t.time("a", || busy(3));
        let b = t.enter("b");
        t.time("a", || busy(2));
        t.exit(b);
        t.time_excluded("probe", || busy(2));
        t.exit(root);
        // A top-level span outside the root belongs to another reconciliation.
        t.time("outside", || busy(2));

        let layers = t.layers();
        assert_eq!(layers["a"].calls, 2);
        assert!(layers["b"].self_s < layers["b"].wall_s);
        let r = t.reconcile("root").unwrap();
        // The three real layers cover nearly the whole root; the
        // measurement-only probe is taken out of both sides.
        assert!(r.unattributed_s >= 0.0 && r.unattributed_s < 0.002, "{r:?}");
        assert!((r.wall_s - (layers["root"].wall_s - layers["probe"].wall_s)).abs() < 1e-12);
        assert!(t.spans_json().starts_with("[{\"name\":\"root\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter("root");
        assert_eq!(t.time("a", || 7), 7);
        t.exit(id);
        assert_eq!(t.spans_json(), "[]");
        assert!(t.reconcile("root").is_none());
    }
}

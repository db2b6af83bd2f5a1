//! `inf2vec-obs`: observability for the inf2vec pipeline.
//!
//! The crate provides seven layers, all reachable through one cheap handle:
//!
//! - **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]): lock-free atomic
//!   primitives safe to update from Hogwild workers.
//! - **Registry** ([`Registry`], [`Snapshot`]): named metric handles,
//!   point-in-time snapshots, Prometheus text exposition.
//! - **Events** ([`Event`], [`Recorder`], [`JsonlSink`], [`MemorySink`]):
//!   structured one-line JSON records for per-epoch / per-phase history.
//! - **Spans** ([`Span`]): phase timers feeding `<name>_seconds`
//!   histograms, clocked through [`inf2vec_util::Clock`].
//! - **Tracing** ([`TraceCtx`]): deterministic trace/span ids linking the
//!   events of one record / episode / publish into a causal chain.
//! - **Flight recorder** ([`FlightRecorder`]): an always-on ring of the
//!   most recent events, dumpable as a crash postmortem.
//! - **Introspection** ([`IntrospectServer`], [`HealthPolicy`]):
//!   `/metrics`, `/healthz` (windowed-rate health rules), and
//!   `/debug/flight` on [`http1::Server`], the `std::net` HTTP/1.1 server
//!   the scoring front-end also runs on.
//!
//! The only dependency is the workspace's own `inf2vec-util` (clock,
//! seed-splitting, atomic file writes, the JSON escaper and parser);
//! nothing external.
//!
//! # The `Telemetry` handle
//!
//! [`Telemetry`] is the only type the rest of the workspace needs. It is
//! `Clone` (an `Option<Arc<..>>`), defaults to **disabled**, and every
//! operation on a disabled handle is a branch on `None` — no allocation, no
//! locking, no clock reads beyond span construction. That is what makes it
//! safe to thread through the SGNS hot path unconditionally.
//!
//! ```
//! use inf2vec_obs::{Telemetry, MemorySink};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let t = Telemetry::new(Arc::clone(&sink) as Arc<dyn inf2vec_obs::Recorder>);
//!
//! t.count("inf2vec_train_pairs_total", 1200);
//! t.gauge_set("inf2vec_train_loss", 0.52);
//! t.emit(inf2vec_obs::Event::new("epoch").u64("epoch", 0).f64("loss", 0.52));
//! let secs = t.span("demo_phase").finish();
//! assert!(secs >= 0.0);
//!
//! assert_eq!(sink.len(), 1);
//! let prom = t.snapshot().to_prometheus();
//! assert!(prom.contains("inf2vec_train_loss 0.52"));
//! // Every emitted event (and completed span) is also in the flight ring.
//! assert!(t.flight_events().iter().any(|e| e.kind() == "epoch"));
//! ```

mod event;
pub mod health;
pub mod http;
pub mod http1;
mod metrics;
mod recorder;
pub mod registry;
mod ring;
mod span;
pub mod trace;

pub use event::{Event, Value};
pub use health::{Check, HealthEvaluator, HealthPolicy, HealthReport, HealthState, Rule, Signal};
pub use http::IntrospectServer;
pub use http1::{Connection, Head, Http1Config, IdleBackoff, ReadError, Request};
pub use metrics::{Counter, Gauge, Histogram};
pub use recorder::{JsonlSink, MemorySink, NoopRecorder, Recorder, TeeRecorder};
pub use registry::{MetricSample, Registry, SampleValue, Snapshot, DROPPED_OBSERVATIONS_METRIC};
pub use ring::{FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use span::Span;
pub use trace::TraceCtx;

use inf2vec_util::{system_clock, SharedClock};
use std::path::Path;
use std::sync::Arc;

/// Name of the synthetic counter counting recorder write errors.
pub const RECORDER_ERRORS_METRIC: &str = "inf2vec_obs_recorder_errors_total";

struct Inner {
    registry: Arc<Registry>,
    recorder: Arc<dyn Recorder>,
    clock: SharedClock,
    flight: Arc<FlightRecorder>,
}

/// The cheap, cloneable entry point to metrics, events, spans, and the
/// flight recorder.
///
/// Disabled by default ([`Telemetry::disabled`], also `Default`): every
/// method is then a no-op costing one `Option` branch. Enable with
/// [`Telemetry::new`] (events go to the given [`Recorder`]) or
/// [`Telemetry::with_registry`] (metrics only, events dropped); both use
/// the system clock and the default flight-ring capacity — use
/// [`Telemetry::with_clock`] / [`Telemetry::configured`] to override.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Telemetry {
    /// The disabled handle: records nothing, costs nothing.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled handle sending events to `recorder` (system clock,
    /// default flight-ring capacity).
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Self::configured(recorder, system_clock(), DEFAULT_FLIGHT_CAPACITY)
    }

    /// An enabled handle with an explicit clock (used by spans, event
    /// timestamps in the flight ring, and `/healthz` windows).
    pub fn with_clock(recorder: Arc<dyn Recorder>, clock: SharedClock) -> Self {
        Self::configured(recorder, clock, DEFAULT_FLIGHT_CAPACITY)
    }

    /// The fully explicit constructor: recorder, clock, and flight-ring
    /// capacity.
    pub fn configured(
        recorder: Arc<dyn Recorder>,
        clock: SharedClock,
        flight_capacity: usize,
    ) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                registry: Arc::new(Registry::new()),
                recorder,
                clock,
                flight: Arc::new(FlightRecorder::new(flight_capacity)),
            })),
        }
    }

    /// A handle sharing this one's registry, clock, and flight ring but
    /// sending events to `recorder` instead — e.g. to tee a harness's
    /// memory sink alongside the caller's recorder without splitting the
    /// metrics. Forking a disabled handle yields a fresh enabled one.
    pub fn fork_recorder(&self, recorder: Arc<dyn Recorder>) -> Telemetry {
        match &self.inner {
            Some(inner) => Telemetry {
                inner: Some(Arc::new(Inner {
                    registry: Arc::clone(&inner.registry),
                    recorder,
                    clock: Arc::clone(&inner.clock),
                    flight: Arc::clone(&inner.flight),
                })),
            },
            None => Telemetry::new(recorder),
        }
    }

    /// An enabled handle with metrics only; events are dropped (but still
    /// retained by the flight ring for postmortems).
    pub fn with_registry() -> Self {
        Self::new(Arc::new(NoopRecorder))
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The metric registry, if enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_deref().map(|i| &*i.registry)
    }

    /// The event recorder, if enabled.
    pub fn recorder(&self) -> Option<Arc<dyn Recorder>> {
        self.inner.as_deref().map(|i| Arc::clone(&i.recorder))
    }

    /// This handle's clock (the system clock when disabled, so spans on a
    /// disabled handle still measure real time).
    pub fn clock(&self) -> SharedClock {
        match &self.inner {
            Some(inner) => Arc::clone(&inner.clock),
            None => system_clock(),
        }
    }

    /// Sends one structured event to the recorder and the flight ring.
    #[inline]
    pub fn emit(&self, event: Event) {
        if let Some(inner) = &self.inner {
            let t_ms = inner.clock.now().as_millis() as u64;
            inner.flight.push(event.clone().u64("t_ms", t_ms));
            inner.recorder.record(event);
        }
    }

    /// Like [`emit`](Self::emit) but builds the event lazily, so a
    /// disabled handle pays one branch and zero allocation. Use on hot
    /// paths (per-record tracing).
    #[inline]
    pub fn emit_with(&self, build: impl FnOnce() -> Event) {
        if self.inner.is_some() {
            self.emit(build());
        }
    }

    /// Pushes an event into the flight ring only (not the recorder).
    /// Span completions use this so postmortems show recent phase ends
    /// without flooding the JSONL history.
    #[inline]
    pub(crate) fn flight_note(&self, event: Event) {
        if let Some(inner) = &self.inner {
            let t_ms = inner.clock.now().as_millis() as u64;
            inner.flight.push(event.u64("t_ms", t_ms));
        }
    }

    /// The flight ring's surviving events, oldest first (empty when
    /// disabled).
    pub fn flight_events(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => inner.flight.recent(),
            None => Vec::new(),
        }
    }

    /// The flight recorder itself, if enabled.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.inner.as_deref().map(|i| &*i.flight)
    }

    /// Atomically dumps the flight ring as JSONL to `path`. Returns
    /// `Ok(true)` when a dump was written, `Ok(false)` on a disabled
    /// handle.
    pub fn dump_flight(&self, path: &Path) -> std::io::Result<bool> {
        match &self.inner {
            Some(inner) => inner.flight.dump_jsonl(path).map(|()| true),
            None => Ok(false),
        }
    }

    /// Adds `n` to the counter `name`.
    #[inline]
    pub fn count(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter(name, &[]).add(n);
        }
    }

    /// Adds `n` to the counter `name` with labels.
    #[inline]
    pub fn count_with(&self, name: &str, labels: &[(&str, &str)], n: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter(name, labels).add(n);
        }
    }

    /// Sets the gauge `name` to `v`.
    #[inline]
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge(name, &[]).set(v);
        }
    }

    /// Records `v` into the histogram `name` (default latency buckets).
    #[inline]
    pub fn observe(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.histogram(name, &[]).observe(v);
        }
    }

    /// Records `v` into the histogram `name` with labels.
    #[inline]
    pub fn observe_with(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.histogram(name, labels).observe(v);
        }
    }

    /// Starts a timed span; its duration lands in `<name>_seconds`.
    pub fn span(&self, name: &'static str) -> Span {
        Span::start(self.clone(), name)
    }

    /// Times `f`, recording into `<name>_seconds`, and returns its result.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.span(name);
        let out = f();
        span.finish();
        out
    }

    /// Flushes the recorder (e.g. the JSONL buffer).
    pub fn flush(&self) -> std::io::Result<()> {
        match &self.inner {
            Some(inner) => inner.recorder.flush(),
            None => Ok(()),
        }
    }

    /// How many event writes the recorder has failed so far.
    pub fn recorder_errors(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.recorder.error_count(),
            None => 0,
        }
    }

    /// Freezes current metric values ([`Snapshot::default`] when disabled).
    ///
    /// Recorder write errors, when any occurred, appear as the synthetic
    /// counter [`RECORDER_ERRORS_METRIC`] alongside the registry's own
    /// samples (which themselves include the dropped-observations counter,
    /// see [`Registry::snapshot`]).
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            Some(inner) => {
                let mut snap = inner.registry.snapshot();
                let errors = inner.recorder.error_count();
                if errors > 0 {
                    snap.insert_sorted(MetricSample {
                        name: RECORDER_ERRORS_METRIC.to_string(),
                        labels: Vec::new(),
                        value: SampleValue::Counter(errors),
                    });
                }
                snap
            }
            None => Snapshot::default(),
        }
    }

    /// Renders the Prometheus text exposition of the current metrics.
    pub fn prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inf2vec_util::ManualClock;
    use std::time::Duration;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        t.count("c_total", 5);
        t.gauge_set("g", 1.0);
        t.observe("h_seconds", 0.1);
        t.emit(Event::new("e"));
        t.emit_with(|| unreachable!("closure must not run when disabled"));
        assert!(t.registry().is_none());
        assert!(t.recorder().is_none());
        assert!(t.flight().is_none());
        assert!(t.flight_events().is_empty());
        assert!(t.snapshot().samples.is_empty());
        assert_eq!(t.prometheus(), "");
        assert_eq!(t.recorder_errors(), 0);
        t.flush().unwrap();
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Telemetry::default().enabled());
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::with_registry();
        let t2 = t.clone();
        t.count("shared_total", 1);
        t2.count("shared_total", 2);
        match &t.snapshot().get("shared_total").unwrap().value {
            SampleValue::Counter(v) => assert_eq!(*v, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn events_reach_the_recorder() {
        let sink = Arc::new(MemorySink::new());
        let t = Telemetry::new(Arc::clone(&sink) as Arc<dyn Recorder>);
        t.emit(Event::new("a").u64("n", 1));
        t.emit(Event::new("b"));
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind(), "a");
    }

    #[test]
    fn time_records_and_returns() {
        let t = Telemetry::with_registry();
        let out = t.time("timed", || 42);
        assert_eq!(out, 42);
        assert!(t.snapshot().get("timed_seconds").is_some());
    }

    #[test]
    fn emitted_events_land_in_flight_ring_with_t_ms() {
        let (clock, handle) = ManualClock::shared();
        let t = Telemetry::with_clock(Arc::new(NoopRecorder), clock);
        handle.advance(Duration::from_millis(1234));
        t.emit(Event::new("tick"));
        let events = t.flight_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind(), "tick");
        assert_eq!(events[0].get("t_ms").and_then(|v| v.as_u64()), Some(1234));
        // The recorder copy (dropped by Noop here) is unstamped; the ring
        // copy carries the dump timestamp.
        assert!(t.flight().unwrap().pushed() >= 1);
    }

    #[test]
    fn dump_flight_writes_postmortem() {
        let dir = std::env::temp_dir().join(format!("obs_dump_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.jsonl");
        let t = Telemetry::with_registry();
        t.emit(Event::new("before_crash").u64("n", 7));
        assert!(t.dump_flight(&path).unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("before_crash"), "{text}");
        assert!(!Telemetry::disabled().dump_flight(&path).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recorder_errors_surface_as_metric() {
        struct FailingWriter;
        impl std::io::Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk gone"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = Arc::new(JsonlSink::to_writer(FailingWriter));
        let t = Telemetry::new(sink as Arc<dyn Recorder>);
        // Overflow the BufWriter so the failure is observed synchronously.
        let big = "x".repeat(16 * 1024);
        t.emit(Event::new("big").str("pad", big));
        t.emit(Event::new("small"));
        assert!(t.recorder_errors() > 0);
        let snap = t.snapshot();
        assert_eq!(
            snap.counter_value(RECORDER_ERRORS_METRIC, &[]),
            t.recorder_errors()
        );
        let prom = snap.to_prometheus();
        assert!(prom.contains(RECORDER_ERRORS_METRIC), "{prom}");
        // The synthetic sample keeps name ordering intact.
        let names: Vec<&str> = snap.samples.iter().map(|s| s.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}

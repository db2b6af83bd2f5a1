//! Event sinks: where structured [`Event`]s go.
//!
//! A [`Recorder`] receives finished events. The implementations cover the
//! deployment modes: [`NoopRecorder`] (drop everything — the default, zero
//! overhead), [`MemorySink`] (buffer in RAM for tests), [`JsonlSink`]
//! (append one JSON object per line to a writer or file, with a relative
//! `t_ms` timestamp injected into every event), and [`TeeRecorder`]
//! (duplicate every event into two downstream recorders — used by the soak
//! harness to observe a pipeline's event stream without stealing it).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use inf2vec_util::{system_clock, SharedClock};

use crate::event::Event;

/// Destination for structured telemetry events.
pub trait Recorder: Send + Sync {
    /// Accepts one event.
    fn record(&self, event: Event);

    /// Flushes any buffered output. Default: nothing to flush.
    fn flush(&self) -> io::Result<()> {
        Ok(())
    }

    /// How many events this recorder failed to persist. Default: none.
    fn error_count(&self) -> u64 {
        0
    }
}

/// Discards every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline]
    fn record(&self, _event: Event) {}
}

/// Buffers events in memory; intended for tests and examples.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes and returns everything recorded so far.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock().expect("memory sink poisoned"))
    }

    /// A copy of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Recorder for MemorySink {
    fn record(&self, event: Event) {
        self.events.lock().expect("memory sink poisoned").push(event);
    }
}

/// Duplicates every event into two downstream recorders.
///
/// `flush` flushes both (first error wins); `error_count` sums both.
pub struct TeeRecorder {
    a: Arc<dyn Recorder>,
    b: Arc<dyn Recorder>,
}

impl std::fmt::Debug for TeeRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeRecorder").finish_non_exhaustive()
    }
}

impl TeeRecorder {
    /// A recorder forwarding every event to both `a` and `b`.
    pub fn new(a: Arc<dyn Recorder>, b: Arc<dyn Recorder>) -> Self {
        Self { a, b }
    }
}

impl Recorder for TeeRecorder {
    fn record(&self, event: Event) {
        self.a.record(event.clone());
        self.b.record(event);
    }

    fn flush(&self) -> io::Result<()> {
        let ra = self.a.flush();
        self.b.flush()?;
        ra
    }

    fn error_count(&self) -> u64 {
        self.a.error_count() + self.b.error_count()
    }
}

/// Writes events as JSON Lines: one object per event, each stamped with a
/// `t_ms` field (milliseconds since the sink was created, read from the
/// sink's [`Clock`](inf2vec_util::Clock) — deterministic under
/// `ManualClock`) appended after the event's own fields.
///
/// Write errors are counted (see [`error_count`](Self::error_count)) rather
/// than propagated — telemetry must never take down training. Dropping the
/// sink performs a final best-effort flush, so short-lived processes do not
/// lose their tail of buffered events.
pub struct JsonlSink {
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
    clock: SharedClock,
    start: Duration,
    errors: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("errors", &self.error_count())
            .finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// A sink writing to an arbitrary writer (buffered internally),
    /// timestamped from the system clock.
    pub fn to_writer(writer: impl Write + Send + 'static) -> Self {
        Self::to_writer_with_clock(writer, system_clock())
    }

    /// A sink with an explicit clock for `t_ms` stamps.
    pub fn to_writer_with_clock(writer: impl Write + Send + 'static, clock: SharedClock) -> Self {
        let start = clock.now();
        Self {
            writer: Mutex::new(BufWriter::new(Box::new(writer))),
            clock,
            start,
            errors: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Creates (truncating) the file at `path` and writes events to it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::to_writer(File::create(path)?))
    }

    /// How many writes failed so far.
    pub fn error_count(&self) -> u64 {
        self.errors.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Recorder for JsonlSink {
    fn record(&self, event: Event) {
        let t_ms = self.clock.now().saturating_sub(self.start).as_millis() as u64;
        let line = event.u64("t_ms", t_ms).to_json();
        let mut w = self
            .writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if writeln!(w, "{line}").is_err() {
            self.errors
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    fn flush(&self) -> io::Result<()> {
        self.writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .flush()
    }

    fn error_count(&self) -> u64 {
        JsonlSink::error_count(self)
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if Recorder::flush(self).is_err() {
            self.errors
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inf2vec_util::ManualClock;
    use std::sync::Arc;

    #[test]
    fn memory_sink_buffers_and_takes() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.record(Event::new("a"));
        sink.record(Event::new("b").u64("n", 1));
        assert_eq!(sink.len(), 2);
        let taken = sink.take();
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[1].kind(), "b");
        assert!(sink.is_empty());
    }

    /// Shared Vec<u8> writer so the test can inspect what the sink wrote.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_writes_parsable_lines_with_t_ms() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::to_writer(buf.clone());
        sink.record(Event::new("epoch").u64("epoch", 0).f64("loss", 0.5));
        sink.record(Event::new("epoch").u64("epoch", 1).f64("loss", 0.25));
        Recorder::flush(&sink).unwrap();
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let e = Event::from_json(line).unwrap();
            assert_eq!(e.kind(), "epoch");
            assert_eq!(e.get("epoch").and_then(|v| v.as_u64()), Some(i as u64));
            assert!(e.get("t_ms").and_then(|v| v.as_u64()).is_some());
        }
        assert_eq!(sink.error_count(), 0);
    }

    #[test]
    fn jsonl_sink_t_ms_is_deterministic_under_manual_clock() {
        let (clock, handle) = ManualClock::shared();
        handle.advance(Duration::from_secs(100)); // sink epoch is relative
        let buf = SharedBuf::default();
        let sink = JsonlSink::to_writer_with_clock(buf.clone(), clock);
        handle.advance(Duration::from_millis(42));
        sink.record(Event::new("tick"));
        handle.advance(Duration::from_millis(8));
        sink.record(Event::new("tock"));
        Recorder::flush(&sink).unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let stamps: Vec<u64> = text
            .lines()
            .map(|l| Event::from_json(l).unwrap().get("t_ms").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(stamps, vec![42, 50]);
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        let buf = SharedBuf::default();
        {
            let sink = JsonlSink::to_writer(buf.clone());
            sink.record(Event::new("tail_event"));
            // No explicit flush: the event sits in the BufWriter.
            assert!(buf.0.lock().unwrap().is_empty());
        }
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("tail_event"), "drop did not flush: {text:?}");
    }

    #[test]
    fn jsonl_sink_counts_write_errors() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("boom"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // Tiny BufWriter capacity is not controllable here, so force the
        // flush path by writing more than the default 8 KiB buffer.
        let sink = JsonlSink::to_writer(Failing);
        let big = "x".repeat(16 * 1024);
        sink.record(Event::new("big").str("pad", big));
        sink.record(Event::new("small"));
        assert!(Recorder::flush(&sink).is_err() || sink.error_count() > 0);
    }

    #[test]
    fn tee_duplicates_flushes_and_sums_errors() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let tee = TeeRecorder::new(
            Arc::clone(&a) as Arc<dyn Recorder>,
            Arc::clone(&b) as Arc<dyn Recorder>,
        );
        tee.record(Event::new("x").u64("n", 1));
        tee.flush().unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(a.events()[0], b.events()[0]);
        assert_eq!(tee.error_count(), 0);
    }
}

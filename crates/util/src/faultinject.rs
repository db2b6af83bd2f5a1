//! Fault injection for robustness tests: I/O adapters, fixture
//! manglers, and the one deterministic fault schedule.
//!
//! The `Write` wrappers let tests simulate the disk failures the
//! persistence layer must survive — truncation (power loss mid-write), bit
//! corruption (bad sectors, partial flushes), and hard I/O errors (full
//! disk, yanked mount) — without touching a real device. The read side
//! mirrors them for the ingestion layer: [`CorruptingReader`] rots bytes
//! in flight, and [`mangle_lines`] turns a clean text fixture into the
//! kind of dirty SNAP-style crawl dump real ingestion must survive (junk
//! lines, bit flips, truncated lines, shuffled fields, CRLF, BOM,
//! interleaved NULs). For the serving layer, [`SlowReader`],
//! [`FlakyReader`], and [`TruncatingReader`] simulate slow, dying, and
//! truncated snapshot streams, one [`SnapshotFault`] per load.
//!
//! A [`FaultPlan`] schedules every other injected fault: stage panics,
//! failed publish and disk-write attempts, torn journal slots, poisoned
//! snapshots, and a training worker's panic at its n-th pair. It maps
//! each [`Fault`] class to an ascending list of thresholds over a
//! *monotonic cumulative counter* the plan owns for that class (items
//! delivered, episodes closed, attempts made, pairs taken) — never wall
//! clock, and never the caller's own replayable counters. Each
//! [`tick_by`](FaultPlan::tick_by) advances the class's counter and fires
//! when it crosses a not-yet-consumed threshold; every threshold fires
//! exactly once, even when recovery replays past the same point again, so
//! an injected crash cannot re-trigger itself into a crash loop. With
//! steps of one, a threshold list reads as the 1-based ordinals of the
//! ticks that fire.
//!
//! Everything here lives in the library (not `#[cfg(test)]`) so
//! integration tests and downstream crates can reuse it. Production code
//! holds only the inert [`FaultPlan::none`].

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crate::rng::Xoshiro256pp;

/// Writes through to the inner writer until `limit` bytes have passed,
/// then silently discards the rest — the on-disk image of a crash that
/// happened mid-write without an atomic rename protecting it.
#[derive(Debug)]
pub struct TruncatingWriter<W> {
    inner: W,
    remaining: usize,
}

impl<W: Write> TruncatingWriter<W> {
    /// Passes through at most `limit` bytes to `inner`.
    pub fn new(inner: W, limit: usize) -> Self {
        Self {
            inner,
            remaining: limit,
        }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for TruncatingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let pass = buf.len().min(self.remaining);
        if pass > 0 {
            let written = self.inner.write(&buf[..pass])?;
            self.remaining -= written;
            // Report the whole buffer as written so the producer keeps
            // going, exactly like a kernel that buffered but never flushed.
            if written == pass {
                return Ok(buf.len());
            }
            return Ok(written);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Writes through until `fail_after` bytes have passed, then returns a
/// hard `io::Error` on every subsequent write — a disk that filled up.
#[derive(Debug)]
pub struct FailingWriter<W> {
    inner: W,
    remaining: usize,
}

impl<W: Write> FailingWriter<W> {
    /// Accepts `fail_after` bytes, then errors forever.
    pub fn new(inner: W, fail_after: usize) -> Self {
        Self {
            inner,
            remaining: fail_after,
        }
    }
}

impl<W: Write> Write for FailingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(io::Error::other("injected write failure"));
        }
        let pass = buf.len().min(self.remaining);
        let written = self.inner.write(&buf[..pass])?;
        self.remaining -= written;
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Deterministically flips one bit roughly every `period` bytes — silent
/// corruption a loader must detect rather than deserialize into garbage
/// parameters.
#[derive(Debug)]
pub struct CorruptingWriter<W> {
    inner: W,
    period: usize,
    written: usize,
}

impl<W: Write> CorruptingWriter<W> {
    /// Flips the low bit of every `period`-th byte (period ≥ 1).
    pub fn new(inner: W, period: usize) -> Self {
        Self {
            inner,
            period: period.max(1),
            written: 0,
        }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for CorruptingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut owned = buf.to_vec();
        for (i, byte) in owned.iter_mut().enumerate() {
            if (self.written + i + 1).is_multiple_of(self.period) {
                *byte ^= 1;
            }
        }
        let written = self.inner.write(&owned)?;
        self.written += written;
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Deterministically flips one bit roughly every `period` bytes *read* —
/// the mirror of [`CorruptingWriter`] for loaders: the on-disk file is
/// clean, but what the parser sees has rotted in flight.
#[derive(Debug)]
pub struct CorruptingReader<R> {
    inner: R,
    period: usize,
    seen: usize,
}

impl<R: Read> CorruptingReader<R> {
    /// Flips the low bit of every `period`-th byte read (period ≥ 1).
    pub fn new(inner: R, period: usize) -> Self {
        Self {
            inner,
            period: period.max(1),
            seen: 0,
        }
    }
}

impl<R: Read> Read for CorruptingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        for (i, byte) in buf[..n].iter_mut().enumerate() {
            if (self.seen + i + 1).is_multiple_of(self.period) {
                *byte ^= 1;
            }
        }
        self.seen += n;
        Ok(n)
    }
}

/// Reports end-of-file after `limit` bytes even though the inner reader has
/// more — the read-side image of a truncated snapshot file (power loss
/// mid-write with no atomic rename protecting it).
#[derive(Debug)]
pub struct TruncatingReader<R> {
    inner: R,
    remaining: usize,
}

impl<R: Read> TruncatingReader<R> {
    /// Yields at most `limit` bytes, then EOF.
    pub fn new(inner: R, limit: usize) -> Self {
        Self {
            inner,
            remaining: limit,
        }
    }
}

impl<R: Read> Read for TruncatingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Ok(0);
        }
        let cap = buf.len().min(self.remaining);
        let n = self.inner.read(&mut buf[..cap])?;
        self.remaining -= n;
        Ok(n)
    }
}

/// Reads through until `fail_after` bytes have passed, then returns a hard
/// `io::Error` on every subsequent read — a yanked mount or a dying disk
/// encountered mid-load.
#[derive(Debug)]
pub struct FlakyReader<R> {
    inner: R,
    remaining: usize,
}

impl<R: Read> FlakyReader<R> {
    /// Delivers `fail_after` bytes, then errors forever.
    pub fn new(inner: R, fail_after: usize) -> Self {
        Self {
            inner,
            remaining: fail_after,
        }
    }
}

impl<R: Read> Read for FlakyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(io::Error::other("injected read failure"));
        }
        let cap = buf.len().min(self.remaining);
        let n = self.inner.read(&mut buf[..cap])?;
        self.remaining -= n;
        Ok(n)
    }
}

/// Caps each read at `chunk` bytes and sleeps `delay` before every chunk —
/// an overloaded NFS volume or cold object store. Total injected latency is
/// `ceil(len / chunk) * delay`, so tests can bound it precisely.
#[derive(Debug)]
pub struct SlowReader<R> {
    inner: R,
    delay: std::time::Duration,
    chunk: usize,
}

impl<R: Read> SlowReader<R> {
    /// Sleeps `delay` before each at-most-`chunk`-byte read (chunk ≥ 1).
    pub fn new(inner: R, delay: std::time::Duration, chunk: usize) -> Self {
        Self {
            inner,
            delay,
            chunk: chunk.max(1),
        }
    }
}

impl<R: Read> Read for SlowReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        std::thread::sleep(self.delay);
        let cap = buf.len().min(self.chunk);
        self.inner.read(&mut buf[..cap])
    }
}

/// One scripted fault applied to a snapshot read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotFault {
    /// Read cleanly.
    Clean,
    /// Sleep `delay_ms` before every `chunk`-byte read ([`SlowReader`]).
    Slow {
        /// Milliseconds of sleep injected per chunk.
        delay_ms: u64,
        /// Bytes delivered per read.
        chunk: usize,
    },
    /// Hard I/O error after `fail_after` bytes ([`FlakyReader`]).
    Flaky {
        /// Bytes delivered before the injected error.
        fail_after: usize,
    },
    /// Bit-flip every `period`-th byte ([`CorruptingReader`]).
    Corrupt {
        /// Corruption period in bytes.
        period: usize,
    },
    /// EOF after `limit` bytes ([`TruncatingReader`]).
    Truncate {
        /// Bytes delivered before the premature EOF.
        limit: usize,
    },
}

impl SnapshotFault {
    /// Wraps `inner` in the reader this fault describes.
    pub fn wrap<R: Read>(self, inner: R) -> FaultReader<R> {
        match self {
            SnapshotFault::Clean => FaultReader::Clean(inner),
            SnapshotFault::Slow { delay_ms, chunk } => FaultReader::Slow(SlowReader::new(
                inner,
                std::time::Duration::from_millis(delay_ms),
                chunk,
            )),
            SnapshotFault::Flaky { fail_after } => {
                FaultReader::Flaky(FlakyReader::new(inner, fail_after))
            }
            SnapshotFault::Corrupt { period } => {
                FaultReader::Corrupt(CorruptingReader::new(inner, period))
            }
            SnapshotFault::Truncate { limit } => {
                FaultReader::Truncate(TruncatingReader::new(inner, limit))
            }
        }
    }
}

/// The concrete reader for one [`SnapshotFault`] (a closed enum instead of
/// a `Box<dyn Read>` so no allocation or vtable sits on the load path).
#[derive(Debug)]
pub enum FaultReader<R> {
    /// Pass-through.
    Clean(R),
    /// Delayed reads.
    Slow(SlowReader<R>),
    /// Hard error mid-stream.
    Flaky(FlakyReader<R>),
    /// Bit rot in flight.
    Corrupt(CorruptingReader<R>),
    /// Premature EOF.
    Truncate(TruncatingReader<R>),
}

impl<R: Read> Read for FaultReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            FaultReader::Clean(r) => r.read(buf),
            FaultReader::Slow(r) => r.read(buf),
            FaultReader::Flaky(r) => r.read(buf),
            FaultReader::Corrupt(r) => r.read(buf),
            FaultReader::Truncate(r) => r.read(buf),
        }
    }
}

/// One class of injectable fault, named after the tick that fires it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic the pipeline's tailer before it sends a batch; ticked by the
    /// batch's item count.
    TailerPanic,
    /// Panic the pipeline's trainer at an episode close, before the model
    /// mutates.
    TrainerPanic,
    /// Fail a publish attempt.
    PublishAttempt,
    /// Panic the publisher after a snapshot has settled.
    PublisherPanic,
    /// Truncate the journal slot just written (a torn write the next
    /// recovery must survive via the other slot).
    JournalTruncate,
    /// Fail a journal write attempt ENOSPC-style: the write accepts a
    /// few bytes then errors and the slot is left untouched.
    JournalWrite,
    /// Fail a log-compaction rewrite mid-write (the live log and its
    /// archive stay consistent; the next journal boundary retries).
    Compaction,
    /// Fail a snapshot-export write attempt mid-stream.
    SnapshotWrite,
    /// Fail an archive segment-seal write attempt mid-stream (the store
    /// is unchanged).
    ArchiveSeal,
    /// Fail an archive-expiry manifest write attempt (the old boundary
    /// and every segment survive).
    ArchiveExpiry,
    /// Poison a snapshot the publisher received: the parameter bits are
    /// mangled *and the checksum recomputed*, so only a semantic quality
    /// gate — not an integrity check — can catch it.
    PoisonSnapshot,
    /// Panic a batch-training worker as it takes a pair; ticked once per
    /// pair across every shard and epoch.
    PairPanic,
}

const FAULT_CLASSES: usize = Fault::PairPanic as usize + 1;

/// A scripted schedule of injected faults (see the module docs).
/// [`FaultPlan::none`] is inert and is what production construction uses.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Ascending thresholds per fault class.
    at: [Vec<u64>; FAULT_CLASSES],
    /// Cumulative tick count per class.
    ticks: [AtomicU64; FAULT_CLASSES],
    /// Thresholds consumed per class.
    fired: [AtomicUsize; FAULT_CLASSES],
    publish_delay: Option<Duration>,
}

impl FaultPlan {
    /// An inert plan (no faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// Schedules `fault` at the given thresholds (1-based; sorted here),
    /// replacing any earlier schedule for that class.
    pub fn with(mut self, fault: Fault, at: impl IntoIterator<Item = u64>) -> Self {
        let mut at: Vec<u64> = at.into_iter().collect();
        at.sort_unstable();
        self.at[fault as usize] = at;
        self
    }

    /// Injects a fixed delay into every publish (a slow registry).
    pub fn with_publish_delay(mut self, delay: Duration) -> Self {
        self.publish_delay = Some(delay);
        self
    }

    /// The injected per-publish delay, if any.
    pub fn publish_delay(&self) -> Option<Duration> {
        self.publish_delay
    }

    /// One more `fault` event happened; true = inject the fault now.
    pub fn tick(&self, fault: Fault) -> bool {
        self.tick_by(fault, 1)
    }

    /// `n` more `fault` events happened; true when the counter crossed
    /// at least one threshold not yet consumed (each fires once).
    pub fn tick_by(&self, fault: Fault, n: u64) -> bool {
        let (at, fired) = (&self.at[fault as usize], &self.fired[fault as usize]);
        let now = self.ticks[fault as usize].fetch_add(n, Ordering::SeqCst) + n;
        let mut crossed = false;
        loop {
            let i = fired.load(Ordering::SeqCst);
            match at.get(i) {
                Some(&t) if t <= now => {
                    if fired
                        .compare_exchange(i, i + 1, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        crossed = true;
                    }
                }
                _ => return crossed,
            }
        }
    }
}

/// How [`mangle_lines`] is allowed to damage a fixture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MangleMode {
    /// Only *insert* whole junk lines between the clean ones; every clean
    /// line survives byte-for-byte. A `Skip`-policy loader must therefore
    /// recover a dataset bit-identical to the clean fixture's.
    InjectJunk,
    /// Additionally damage clean lines in place: bit flips, mid-line
    /// truncation, field shuffling, CRLF endings, a leading BOM,
    /// interleaved NULs. Recovery is best-effort; the only guarantee a
    /// loader owes is "no panic, defects accounted for".
    CorruptInPlace,
}

/// The junk-line repertoire shared by both modes: everything a crawler dump
/// can contain between valid records.
fn junk_line(rng: &mut Xoshiro256pp) -> Vec<u8> {
    match rng.below(8) {
        0 => b"garbage line that is not a record".to_vec(),
        1 => b"12 34 56 78 99".to_vec(),               // too many fields
        2 => b"42".to_vec(),                           // too few fields
        3 => b"\x00\x00\x00\x00".to_vec(),             // NUL noise
        4 => b"7 not_a_number".to_vec(),               // non-numeric field
        5 => b"\xff\xfe\xba\xad\xf0\x0d".to_vec(),     // invalid UTF-8
        6 => b"99999999999999999999999999 3".to_vec(), // id overflow
        7 => {
            // A pathologically long line (buffer-handling stress).
            let mut v = Vec::with_capacity(512);
            while v.len() < 512 {
                v.extend_from_slice(b"xyzzy ");
            }
            v
        }
        _ => unreachable!(),
    }
}

/// Deterministically mangles a line-oriented text fixture.
///
/// With probability `rate` per clean line a junk line is inserted before
/// it; in [`MangleMode::CorruptInPlace`] the clean line itself is also
/// damaged with probability `rate`. The output always begins with a UTF-8
/// BOM in `CorruptInPlace` mode (a classic Windows-exported-crawl artifact)
/// and a final junk line is appended in both modes, so a positive `rate`
/// yields at least one defect. Deterministic per `(input, seed, mode,
/// rate)`.
pub fn mangle_lines(input: &[u8], seed: u64, mode: MangleMode, rate: f64) -> Vec<u8> {
    let mut rng = Xoshiro256pp::new(seed);
    let mut out = Vec::with_capacity(input.len() + input.len() / 4 + 64);
    if mode == MangleMode::CorruptInPlace {
        out.extend_from_slice(b"\xef\xbb\xbf");
    }
    for line in input.split(|&b| b == b'\n') {
        if line.is_empty() {
            continue;
        }
        if rng.chance(rate) {
            out.extend_from_slice(&junk_line(&mut rng));
            out.push(b'\n');
        }
        let mut owned = line.to_vec();
        if mode == MangleMode::CorruptInPlace && rng.chance(rate) {
            match rng.below(5) {
                0 => {
                    // Flip one bit somewhere in the line.
                    let i = rng.index(owned.len());
                    owned[i] ^= 1 << rng.below(8);
                }
                1 => {
                    // Truncate mid-line.
                    owned.truncate(rng.index(owned.len()));
                }
                2 => {
                    // Shuffle whitespace-separated fields.
                    let mut fields: Vec<&[u8]> =
                        owned.split(|&b| b == b' ' || b == b'\t').collect();
                    rng.shuffle(&mut fields);
                    owned = fields.join(&b'\t');
                }
                3 => {
                    // Interleave a NUL byte.
                    owned.insert(rng.index(owned.len() + 1), 0);
                }
                4 => {
                    // CRLF line ending.
                    owned.push(b'\r');
                }
                _ => unreachable!(),
            }
        }
        out.extend_from_slice(&owned);
        out.push(b'\n');
    }
    if rate > 0.0 {
        out.extend_from_slice(&junk_line(&mut rng));
        out.push(b'\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncating_cuts_at_limit() {
        let mut w = TruncatingWriter::new(Vec::new(), 5);
        w.write_all(b"hello world").unwrap();
        w.write_all(b"more").unwrap();
        assert_eq!(w.into_inner(), b"hello");
    }

    #[test]
    fn failing_errors_after_budget() {
        let mut w = FailingWriter::new(Vec::new(), 3);
        assert!(w.write_all(b"abc").is_ok());
        assert!(w.write_all(b"d").is_err());
    }

    #[test]
    fn corrupting_flips_bits_deterministically() {
        let mut w = CorruptingWriter::new(Vec::new(), 4);
        w.write_all(&[0u8; 8]).unwrap();
        assert_eq!(w.inner, vec![0, 0, 0, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn corrupting_reader_mirrors_writer() {
        let clean = [0u8; 8];
        let mut rotted = Vec::new();
        CorruptingReader::new(clean.as_slice(), 4)
            .read_to_end(&mut rotted)
            .unwrap();
        assert_eq!(rotted, vec![0, 0, 0, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn truncating_reader_reports_early_eof() {
        let mut out = Vec::new();
        TruncatingReader::new(&b"hello world"[..], 5)
            .read_to_end(&mut out)
            .unwrap();
        assert_eq!(out, b"hello");
    }

    #[test]
    fn flaky_reader_errors_after_budget() {
        let mut r = FlakyReader::new(&b"abcdef"[..], 4);
        let mut buf = [0u8; 3];
        assert_eq!(r.read(&mut buf).unwrap(), 3);
        assert_eq!(r.read(&mut buf).unwrap(), 1);
        assert!(r.read(&mut buf).is_err());
    }

    #[test]
    fn slow_reader_chunks_and_delivers_everything() {
        let start = std::time::Instant::now();
        let mut out = Vec::new();
        SlowReader::new(&b"0123456789"[..], std::time::Duration::from_millis(2), 3)
            .read_to_end(&mut out)
            .unwrap();
        assert_eq!(out, b"0123456789");
        // 10 bytes at 3/chunk = 4 data reads (+1 EOF read), ≥ 8ms injected.
        assert!(start.elapsed() >= std::time::Duration::from_millis(8));
    }

    #[test]
    fn snapshot_fault_wrap_dispatches() {
        let data = b"0 1\n1 0\n";
        let mut clean = Vec::new();
        SnapshotFault::Clean
            .wrap(&data[..])
            .read_to_end(&mut clean)
            .unwrap();
        assert_eq!(clean, data);

        let mut rotted = Vec::new();
        SnapshotFault::Corrupt { period: 3 }
            .wrap(&data[..])
            .read_to_end(&mut rotted)
            .unwrap();
        assert_ne!(rotted, data);

        let mut short = Vec::new();
        SnapshotFault::Truncate { limit: 4 }
            .wrap(&data[..])
            .read_to_end(&mut short)
            .unwrap();
        assert_eq!(short, &data[..4]);

        let mut sink = Vec::new();
        assert!(SnapshotFault::Flaky { fail_after: 1 }
            .wrap(&data[..])
            .read_to_end(&mut sink)
            .is_err());
    }

    #[test]
    fn thresholds_fire_exactly_once_each() {
        let plan = FaultPlan::none().with(Fault::TailerPanic, [12, 5]);
        let mut fires = 0;
        for _ in 0..10 {
            if plan.tick_by(Fault::TailerPanic, 2) {
                fires += 1;
            }
        }
        assert_eq!(fires, 2, "each threshold fires exactly once");
        assert!(!plan.tick_by(Fault::TailerPanic, 100));
    }

    #[test]
    fn publish_attempts_fail_by_ordinal() {
        let plan = FaultPlan::none().with(Fault::PublishAttempt, [1, 3]);
        assert!(plan.tick(Fault::PublishAttempt));
        assert!(!plan.tick(Fault::PublishAttempt));
        assert!(plan.tick(Fault::PublishAttempt));
        assert!(!plan.tick(Fault::PublishAttempt));
        // Classes count independently.
        assert!(!plan.tick(Fault::JournalWrite));
    }

    #[test]
    fn inject_junk_preserves_clean_lines() {
        let clean = b"0\t1\n1\t2\n4\t0\n";
        let dirty = mangle_lines(clean, 7, MangleMode::InjectJunk, 0.5);
        assert_ne!(dirty, clean.to_vec());
        // Every clean line survives byte-for-byte, in order.
        let clean_lines: Vec<&[u8]> =
            clean.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
        let mut it = dirty.split(|&b| b == b'\n');
        for want in &clean_lines {
            assert!(
                it.any(|l| l == *want),
                "clean line {want:?} lost from {dirty:?}"
            );
        }
    }

    #[test]
    fn mangle_is_deterministic_per_seed() {
        let clean = b"0 1\n1 2\n2 3\n3 4\n";
        let a = mangle_lines(clean, 3, MangleMode::CorruptInPlace, 0.8);
        let b = mangle_lines(clean, 3, MangleMode::CorruptInPlace, 0.8);
        let c = mangle_lines(clean, 4, MangleMode::CorruptInPlace, 0.8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn corrupt_in_place_starts_with_bom_and_adds_junk() {
        let clean = b"0 1\n";
        let dirty = mangle_lines(clean, 1, MangleMode::CorruptInPlace, 1.0);
        assert!(dirty.starts_with(b"\xef\xbb\xbf"));
        assert!(dirty.len() > clean.len());
    }

    #[test]
    fn zero_rate_inject_junk_is_identity_modulo_trailing_newline() {
        let clean = b"0 1\n1 2\n";
        let out = mangle_lines(clean, 9, MangleMode::InjectJunk, 0.0);
        assert_eq!(out, clean.to_vec());
    }
}

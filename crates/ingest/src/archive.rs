//! Segmented, bounded-disk archive for compacted log prefixes.
//!
//! A [`LogStore`](crate::LogStore) rotates consumed bytes out of the live
//! action log; this module is where those bytes go, so the full logical
//! stream stays replayable without the archive growing until the disk
//! fills. The store is a directory beside the log:
//!
//! ```text
//! <log>.archive.d/
//!   manifest        # "#inf2vec-archive v1" + expired-prefix boundary
//!   seg-00000       # one checksummed header line + raw payload bytes
//!   seg-00001
//!   ...
//! ```
//!
//! Each segment holds a contiguous slice of the logical stream. Its
//! single header line carries the schema version, the segment's logical
//! base offset and base line, its payload line count, payload length and
//! payload FNV-1a, a seal timestamp, and an FNV of the header itself —
//! so any segment can be verified standalone and the set can be checked
//! for contiguity without trusting file names.
//!
//! The manifest records the **expired-prefix boundary**: the logical
//! `(seq, offset, line)` where the archive now begins. Everything below
//! it has been deliberately reclaimed by the retention policy and is no
//! longer reconstructable. Expiry is crash-safe at every seam:
//!
//! 1. the new manifest is written first (atomic temp+rename — a crash
//!    leaves the *old* manifest, and the doomed segments are still
//!    present and consistent);
//! 2. only then are the expired segment files unlinked — a crash
//!    in between leaves segments *below* the manifest boundary, which
//!    [`ArchiveStore::open`] unlinks idempotently on the next open.
//!
//! Sealing has the same discipline: the segment file is written
//! atomically (a crash leaves either no segment or a complete one), and
//! a retried seal is a no-op for bytes the store already holds, so the
//! log store's seal → live-rewrite sequence can die between any two
//! steps without duplicating or losing a byte. [`ArchiveStore::open`],
//! [`verify`](ArchiveStore::verify) and
//! [`restore_to`](ArchiveStore::restore_to) are public for offline tools;
//! only the log store writes.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use inf2vec_util::faultinject::FailingWriter;
use inf2vec_util::{atomic_write, fnv1a};

use crate::tail::{parse_header, render_sentinel, LiveLog, TailPosition};

/// Archive segment/manifest schema version (bump on incompatible change).
pub const ARCHIVE_SCHEMA_VERSION: u32 = 1;

const SEG_MAGIC: &str = "#inf2vec-seg v1";
const MANIFEST_MAGIC: &str = "#inf2vec-archive v1";
const MANIFEST_FILE: &str = "manifest";

/// `<log>.archive.d` beside the live log — the segmented archive
/// directory for `log_path`.
pub fn archive_dir(log_path: &Path) -> PathBuf {
    let mut os = log_path.as_os_str().to_os_string();
    os.push(".archive.d");
    PathBuf::from(os)
}

/// One sealed segment's parsed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Monotone segment sequence number (never reused after expiry).
    pub seq: u64,
    /// Logical stream offset of the segment's first payload byte.
    pub base_offset: u64,
    /// Logical lines preceding the segment's first payload line.
    pub base_line: u64,
    /// Payload lines the segment holds.
    pub lines: u64,
    /// Payload bytes the segment holds.
    pub len: u64,
    /// FNV-1a of the payload bytes.
    pub sum: u64,
    /// Clock reading (milliseconds) when the segment was sealed. Taken
    /// from the pipeline's clock, so it is process-relative: age-based
    /// retention treats segments sealed by an earlier process
    /// conservatively (they look young, never spuriously old).
    pub sealed_at_ms: u64,
    /// Physical bytes the header line occupies in the file.
    pub header_len: u64,
}

impl SegmentMeta {
    /// Logical offset one past the segment's last payload byte.
    pub fn end_offset(&self) -> u64 {
        self.base_offset + self.len
    }

    /// Logical line count after the segment.
    pub fn end_line(&self) -> u64 {
        self.base_line + self.lines
    }

    /// The segment's file name (`seg-NNNNN`).
    pub fn file_name(&self) -> String {
        segment_file_name(self.seq)
    }

    /// The header line up to its own checksum, which covers these bytes.
    fn header_prefix(&self) -> String {
        format!(
            "{SEG_MAGIC} seq {} base {} line {} count {} len {} sum {:016x} t {}",
            self.seq,
            self.base_offset,
            self.base_line,
            self.lines,
            self.len,
            self.sum,
            self.sealed_at_ms,
        )
    }

    fn render_header(&self) -> String {
        let prefix = self.header_prefix();
        format!("{prefix} h {:016x}\n", fnv1a(prefix.as_bytes()))
    }

    fn parse_header(line: &str) -> Option<Self> {
        let rest = line.strip_prefix(SEG_MAGIC)?;
        let mut kv = rest.split_ascii_whitespace();
        let mut field = |key: &str| -> Option<&str> {
            (kv.next()? == key).then_some(()).and_then(|()| kv.next())
        };
        let seq: u64 = field("seq")?.parse().ok()?;
        let base_offset: u64 = field("base")?.parse().ok()?;
        let base_line: u64 = field("line")?.parse().ok()?;
        let lines: u64 = field("count")?.parse().ok()?;
        let len: u64 = field("len")?.parse().ok()?;
        let sum = u64::from_str_radix(field("sum")?, 16).ok()?;
        let sealed_at_ms: u64 = field("t")?.parse().ok()?;
        let declared = u64::from_str_radix(field("h")?, 16).ok()?;
        if kv.next().is_some() {
            return None;
        }
        let meta = Self {
            seq,
            base_offset,
            base_line,
            lines,
            len,
            sum,
            sealed_at_ms,
            header_len: line.len() as u64 + 1,
        };
        (fnv1a(meta.header_prefix().as_bytes()) == declared).then_some(meta)
    }
}

fn segment_file_name(seq: u64) -> String {
    format!("seg-{seq:05}")
}

/// The expired-prefix boundary: where the archive's retained history
/// begins. Everything below it was reclaimed by retention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArchiveStart {
    /// First live (non-expired) segment sequence number.
    pub seq: u64,
    /// Logical byte offset where retained history begins.
    pub offset: u64,
    /// Logical lines preceding the retained history.
    pub line: u64,
}

/// Byte / segment-count / age budgets a [`LogStore`](crate::LogStore)
/// expires archive segments under. A zero (or `None`) budget means
/// "unlimited" on that axis. Segments inside the journal replay window
/// are never expired regardless of budgets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Expire oldest segments while retained payload exceeds this.
    pub max_bytes: u64,
    /// Expire oldest segments while more than this many are retained.
    pub max_segments: usize,
    /// Expire segments sealed longer ago than this (against the same
    /// clock that stamped them).
    pub max_age: Option<Duration>,
}

impl RetentionPolicy {
    /// True when no axis is bounded (expiry never fires).
    pub fn is_unbounded(&self) -> bool {
        self.max_bytes == 0 && self.max_segments == 0 && self.max_age.is_none()
    }
}

/// What one [`ArchiveStore::expire`] call reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ExpiryStats {
    /// Segments expired.
    pub(crate) segments: u64,
    /// Payload bytes reclaimed.
    pub(crate) bytes: u64,
}

/// What one [`ArchiveStore::restore_to`] call reconstructed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// The expired-prefix boundary the restored stream begins at.
    pub start_offset: u64,
    /// Logical lines preceding the restored stream.
    pub start_line: u64,
    /// Segments concatenated.
    pub segments: u64,
    /// Archived payload bytes restored.
    pub archived_bytes: u64,
    /// Live-log payload bytes appended after the archive.
    pub live_bytes: u64,
    /// Physical bytes of the sentinel line heading the restored file
    /// (0 when the stream starts at logical offset 0).
    pub sentinel_len: u64,
}

/// What [`ArchiveStore::verify`] proved about the on-disk store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Segments verified (header FNV, payload FNV, length, contiguity).
    pub segments: u64,
    /// Retained payload bytes.
    pub payload_bytes: u64,
    /// The expired-prefix boundary.
    pub start: ArchiveStart,
    /// Logical offset one past the newest archived byte.
    pub end_offset: u64,
    /// When a live log was given: its sentinel base equals
    /// [`end_offset`](Self::end_offset) — `archive ++ live` is gapless.
    pub contiguous_with_live: bool,
}

fn corrupt(detail: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("archive: {detail}"))
}

/// A segmented archive directory (see the module docs for the layout and
/// crash-safety discipline). All mutating operations leave the on-disk
/// store consistent under a crash at any byte.
#[derive(Debug)]
pub struct ArchiveStore {
    dir: PathBuf,
    start: ArchiveStart,
    /// Live segments, ascending and contiguous in both seq and offset.
    segments: Vec<SegmentMeta>,
}

impl ArchiveStore {
    /// Opens (creating if absent) the archive directory `dir`, repairing
    /// any interrupted expiry: segments below the manifest boundary are
    /// unlinked, stray atomic-write temp files are removed, and the
    /// retained chain is validated for contiguity. A missing manifest is
    /// initialized to the origin boundary.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let manifest = dir.join(MANIFEST_FILE);
        let start = match fs::read_to_string(&manifest) {
            Ok(text) => parse_manifest(&text)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let start = ArchiveStart::default();
                write_manifest(&dir, start, None)?;
                start
            }
            Err(e) => return Err(e),
        };
        let mut segments = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with('.') {
                // Atomic-write temp debris from a crashed seal/expiry.
                let _ = fs::remove_file(entry.path());
                continue;
            }
            if !name.starts_with("seg-") {
                continue;
            }
            let meta = read_segment_header(&entry.path())?;
            if meta.seq < start.seq || meta.end_offset() <= start.offset {
                // Below the manifest boundary: an expiry committed its
                // manifest but died before the unlink. Finish it.
                let _ = fs::remove_file(entry.path());
                continue;
            }
            segments.push(meta);
        }
        segments.sort_unstable_by_key(|m| m.seq);
        let store = Self {
            dir,
            start,
            segments,
        };
        store.check_chain()?;
        Ok(store)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The expired-prefix boundary.
    pub fn start(&self) -> ArchiveStart {
        self.start
    }

    /// The retained segments, oldest first.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// Logical offset one past the newest archived byte (equals
    /// [`start`](Self::start)`.offset` when nothing is retained).
    pub fn end_offset(&self) -> u64 {
        self.segments
            .last()
            .map_or(self.start.offset, |m| m.end_offset())
    }

    /// Logical line count after the newest archived byte.
    pub fn end_line(&self) -> u64 {
        self.segments
            .last()
            .map_or(self.start.line, |m| m.end_line())
    }

    /// Retained payload bytes across all live segments.
    pub fn payload_bytes(&self) -> u64 {
        self.segments.iter().map(|m| m.len).sum()
    }

    fn next_seq(&self) -> u64 {
        self.segments
            .last()
            .map_or(self.start.seq, |m| m.seq + 1)
    }

    /// Seals `payload` (exactly `lines` complete lines) as the next
    /// segment. The write is atomic: a crash (or the injected
    /// `fail_after` disk fault) leaves no segment and the store
    /// unchanged. Returns the new segment's metadata.
    pub(crate) fn seal(
        &mut self,
        payload: &[u8],
        lines: u64,
        now_ms: u64,
        fail_after: Option<usize>,
    ) -> io::Result<SegmentMeta> {
        let meta = SegmentMeta {
            seq: self.next_seq(),
            base_offset: self.end_offset(),
            base_line: self.end_line(),
            lines,
            len: payload.len() as u64,
            sum: fnv1a(payload),
            sealed_at_ms: now_ms,
            header_len: 0,
        };
        let header = meta.render_header();
        let meta = SegmentMeta {
            header_len: header.len() as u64,
            ..meta
        };
        let path = self.dir.join(meta.file_name());
        atomic_write(&path, |f| {
            let mut w: Box<dyn Write> = match fail_after {
                Some(limit) => Box::new(FailingWriter::new(&mut *f, limit)),
                None => Box::new(&mut *f),
            };
            w.write_all(header.as_bytes())?;
            w.write_all(payload)
        })?;
        self.segments.push(meta);
        Ok(meta)
    }

    /// Seals every live-log payload byte in `[self.end_offset(), upto)`
    /// as one segment — the slice a compaction at `log.upto()` is about
    /// to drop. Idempotent: bytes the store already holds are skipped, so
    /// a retried seal (after a crashed or failed live rewrite) never
    /// duplicates. Returns the payload bytes sealed (0 = nothing new).
    ///
    /// Fails typed when the live log's base has moved past the archive's
    /// end (a hole: bytes were dropped unarchived); the caller decides
    /// whether to [`rebase`](Self::rebase_to) over the gap.
    pub(crate) fn seal_from(
        &mut self,
        log: &LiveLog,
        now_ms: u64,
        fail_after: Option<usize>,
    ) -> io::Result<u64> {
        let (end, upto, base) = (self.end_offset(), log.upto(), log.base().offset);
        if upto.offset <= end {
            return Ok(0);
        }
        if end < base {
            return Err(corrupt(format!(
                "live log base {base} is past the archive end {end}: \
                 [{end}, {base}) was dropped unarchived"
            )));
        }
        let slice = log.slice_from(end);
        let lines = upto.line_no - self.end_line();
        let newlines = slice.iter().filter(|&&b| b == b'\n').count() as u64;
        if newlines != lines {
            return Err(corrupt(format!(
                "seal slice holds {newlines} lines but positions imply {lines} \
                 (log rewritten underneath the archive?)"
            )));
        }
        self.seal(slice, lines, now_ms, fail_after)?;
        Ok(slice.len() as u64)
    }

    /// Expires the oldest segments until every budget in `policy` is
    /// met, never expiring a segment whose end is past `floor_offset`
    /// (the journal replay window: a resume below the floor must still
    /// find its bytes). Crash-safe: the new manifest commits first (with
    /// the injected `fail_after` disk fault hitting *that* write, the
    /// old manifest survives untouched), then the segment files are
    /// unlinked; [`open`](Self::open) finishes an interrupted unlink.
    pub(crate) fn expire(
        &mut self,
        policy: &RetentionPolicy,
        floor_offset: u64,
        now_ms: u64,
        fail_after: Option<usize>,
    ) -> io::Result<ExpiryStats> {
        self.expire_inner(policy, floor_offset, now_ms, fail_after, None)
    }

    /// [`expire`](Self::expire) with an injected crash point for the
    /// crash-matrix tests; `crash` simulates dying between the manifest
    /// commit and (part of) the unlink phase.
    pub(crate) fn expire_inner(
        &mut self,
        policy: &RetentionPolicy,
        floor_offset: u64,
        now_ms: u64,
        fail_after: Option<usize>,
        crash: Option<ExpiryCrash>,
    ) -> io::Result<ExpiryStats> {
        let mut drop_n = 0usize;
        let mut kept_bytes = self.payload_bytes();
        let max_age_ms = policy
            .max_age
            .map(|d| d.as_millis().min(u64::MAX as u128) as u64);
        while let Some(seg) = self.segments.get(drop_n) {
            if seg.end_offset() > floor_offset {
                break; // inside the journal replay window: untouchable
            }
            let kept_n = self.segments.len() - drop_n;
            let over_bytes = policy.max_bytes > 0 && kept_bytes > policy.max_bytes;
            let over_count = policy.max_segments > 0 && kept_n > policy.max_segments;
            let over_age = max_age_ms
                .is_some_and(|max| now_ms.saturating_sub(seg.sealed_at_ms) > max);
            if !(over_bytes || over_count || over_age) {
                break;
            }
            kept_bytes -= seg.len;
            drop_n += 1;
        }
        if drop_n == 0 {
            return Ok(ExpiryStats::default());
        }
        let last = self.segments[drop_n - 1];
        let new_start = ArchiveStart {
            seq: last.seq + 1,
            offset: last.end_offset(),
            line: last.end_line(),
        };
        // Seam 1: manifest-before-delete. A failure (or crash) here
        // leaves the old manifest and every segment intact.
        write_manifest(&self.dir, new_start, fail_after)?;
        let stats = ExpiryStats {
            segments: drop_n as u64,
            bytes: self.segments[..drop_n].iter().map(|m| m.len).sum(),
        };
        // Seam 2: unlink the expired files. A crash anywhere in here
        // leaves segments below the committed boundary; open() unlinks
        // them idempotently.
        for (i, seg) in self.segments[..drop_n].iter().enumerate() {
            match crash {
                Some(ExpiryCrash::BeforeUnlink) => return Err(simulated_crash()),
                Some(ExpiryCrash::AfterUnlink(n)) if i >= n => {
                    return Err(simulated_crash())
                }
                _ => {}
            }
            // A failed unlink degrades to an orphan the next open
            // removes; the manifest is already durable.
            let _ = fs::remove_file(self.dir.join(seg.file_name()));
        }
        self.segments.drain(..drop_n);
        self.start = new_start;
        Ok(stats)
    }

    /// Rebases the boundary to `pos`, discarding **all** retained
    /// segments: the recovery path for a hole (bytes dropped unarchived
    /// after a seal's retry chain exhausted), where the retained prefix
    /// can no longer be joined to the live log. Returns the payload
    /// bytes discarded. Same manifest-before-delete discipline as
    /// [`expire`](Self::expire).
    pub(crate) fn rebase_to(&mut self, pos: TailPosition) -> io::Result<u64> {
        let new_start = ArchiveStart {
            seq: self.next_seq(),
            offset: pos.offset,
            line: pos.line_no,
        };
        write_manifest(&self.dir, new_start, None)?;
        let discarded = self.payload_bytes();
        for seg in &self.segments {
            let _ = fs::remove_file(self.dir.join(seg.file_name()));
        }
        self.segments.clear();
        self.start = new_start;
        Ok(discarded)
    }

    /// Reconstructs the retained logical stream — a sentinel line (when
    /// the boundary is past the origin), every segment payload in order,
    /// then the live log's payload — into `out`, verifying every segment
    /// checksum and the archive↔live contiguity on the way. The restored
    /// file replays exactly like the original log: a tail resumed at or
    /// past the boundary sees identical bytes.
    pub fn restore_to(&self, log_path: &Path, out: &Path) -> io::Result<RestoreStats> {
        let live = fs::read(log_path)?;
        // The sentinel comes from the same read as the payload: a
        // compaction's rename between two reads would pair one file's
        // sentinel with another file's bytes.
        let live_header = parse_header(&live);
        // Overlap (live base below the archive end) is legal: a crash
        // between a seal and the live rewrite leaves the sealed bytes in
        // both places, and the duplicate live prefix is skipped. A hole
        // (live base past the archive end) is not recoverable.
        let end = self.end_offset();
        if live_header.base > end {
            return Err(corrupt(format!(
                "live log base {} is past the archive end {end} — \
                 the stream has a hole and cannot be restored",
                live_header.base
            )));
        }
        let overlap = (end - live_header.base) as usize;
        let mut stats = RestoreStats {
            start_offset: self.start.offset,
            start_line: self.start.line,
            ..RestoreStats::default()
        };
        let mut payloads = Vec::with_capacity(self.segments.len());
        for seg in &self.segments {
            payloads.push(self.read_segment_payload(seg)?);
        }
        let live_payload_full = &live[live_header.header_len as usize..];
        if overlap > live_payload_full.len() {
            return Err(corrupt(format!(
                "live log ends at {} — before the archive end {end}",
                live_header.base + live_payload_full.len() as u64
            )));
        }
        let live_payload = &live_payload_full[overlap..];
        let sentinel = (self.start.offset > 0).then(|| {
            render_sentinel(TailPosition {
                offset: self.start.offset,
                line_no: self.start.line,
            })
        });
        atomic_write(out, |f| {
            if let Some(s) = &sentinel {
                f.write_all(s.as_bytes())?;
            }
            for p in &payloads {
                f.write_all(p)?;
            }
            f.write_all(live_payload)
        })?;
        stats.segments = self.segments.len() as u64;
        stats.archived_bytes = payloads.iter().map(|p| p.len() as u64).sum();
        stats.live_bytes = live_payload.len() as u64;
        stats.sentinel_len = sentinel.map_or(0, |s| s.len() as u64);
        Ok(stats)
    }

    /// Deep integrity check: re-reads every segment from disk, verifies
    /// its header FNV, payload FNV, length, line count, and chain
    /// contiguity against the manifest; when `log_path` is given, also
    /// requires the live log to continue the archive gaplessly. Any
    /// violation is an error, not a report field.
    pub fn verify(&self, log_path: Option<&Path>) -> io::Result<VerifyReport> {
        // Re-open from disk so verify sees what a recovery would, not
        // this process's cached view.
        let fresh = Self::open(&self.dir)?;
        if fresh.start != self.start || fresh.segments != self.segments {
            return Err(corrupt(
                "on-disk store disagrees with the open handle (concurrent writer?)",
            ));
        }
        for seg in &fresh.segments {
            let payload = fresh.read_segment_payload(seg)?;
            let lines = payload.iter().filter(|&&b| b == b'\n').count() as u64;
            if lines != seg.lines {
                return Err(corrupt(format!(
                    "segment {} declares {} lines but holds {lines}",
                    seg.file_name(),
                    seg.lines
                )));
            }
        }
        let mut report = VerifyReport {
            segments: fresh.segments.len() as u64,
            payload_bytes: fresh.payload_bytes(),
            start: fresh.start,
            end_offset: fresh.end_offset(),
            contiguous_with_live: log_path.is_none(),
        };
        if let Some(log) = log_path {
            let base = match crate::tail::sentinel_base(log)? {
                Some((base, _)) => base,
                None => 0,
            };
            // base == end is the steady state; base < end is a benign
            // overlap (seal durable, rewrite pending); base > end is a
            // hole.
            if base > fresh.end_offset() {
                return Err(corrupt(format!(
                    "live log base {base} is past the archive end {} — \
                     the stream has a hole",
                    fresh.end_offset()
                )));
            }
            report.contiguous_with_live = true;
        }
        Ok(report)
    }

    /// Reads and checksum-verifies one segment's payload.
    fn read_segment_payload(&self, seg: &SegmentMeta) -> io::Result<Vec<u8>> {
        let path = self.dir.join(seg.file_name());
        let bytes = fs::read(&path)?;
        let on_disk = read_segment_header(&path)?;
        if on_disk != *seg {
            return Err(corrupt(format!(
                "segment {} header changed underneath the store",
                seg.file_name()
            )));
        }
        let payload = bytes[seg.header_len as usize..].to_vec();
        if payload.len() as u64 != seg.len {
            return Err(corrupt(format!(
                "segment {} declares {} payload bytes but holds {}",
                seg.file_name(),
                seg.len,
                payload.len()
            )));
        }
        if fnv1a(&payload) != seg.sum {
            return Err(corrupt(format!(
                "segment {} payload checksum mismatch",
                seg.file_name()
            )));
        }
        Ok(payload)
    }

    /// Validates seq/offset/line contiguity of the retained chain
    /// against the manifest boundary.
    fn check_chain(&self) -> io::Result<()> {
        let (mut seq, mut offset, mut line) =
            (self.start.seq, self.start.offset, self.start.line);
        for seg in &self.segments {
            if seg.seq != seq || seg.base_offset != offset || seg.base_line != line {
                return Err(corrupt(format!(
                    "segment {} (base {}, line {}) breaks the chain at \
                     seq {seq} / offset {offset} / line {line}",
                    seg.file_name(),
                    seg.base_offset,
                    seg.base_line
                )));
            }
            seq += 1;
            offset = seg.end_offset();
            line = seg.end_line();
        }
        Ok(())
    }
}

/// Injected crash points for the expiry crash-matrix tests. Only test
/// code constructs these; production expiry always passes `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) enum ExpiryCrash {
    /// Die after the manifest commit, before any unlink.
    BeforeUnlink,
    /// Die after unlinking this many of the expired segments.
    AfterUnlink(usize),
}

fn simulated_crash() -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, "injected crash mid-expiry")
}

fn read_segment_header(path: &Path) -> io::Result<SegmentMeta> {
    let bytes = fs::read(path)?;
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| corrupt(format!("{}: unterminated header", path.display())))?;
    let line = std::str::from_utf8(&bytes[..nl])
        .map_err(|_| corrupt(format!("{}: non-UTF-8 header", path.display())))?;
    SegmentMeta::parse_header(line)
        .ok_or_else(|| corrupt(format!("{}: bad segment header: {line:?}", path.display())))
}

fn render_manifest(start: ArchiveStart) -> String {
    let body = format!(
        "{MANIFEST_MAGIC}\nstart seq {} offset {} line {}\n",
        start.seq, start.offset, start.line
    );
    format!("{body}sum {:016x}\n", fnv1a(body.as_bytes()))
}

fn parse_manifest(text: &str) -> io::Result<ArchiveStart> {
    let mut lines = text.lines();
    let magic = lines.next().unwrap_or_default();
    if magic != MANIFEST_MAGIC {
        return Err(corrupt(format!("bad manifest magic {magic:?}")));
    }
    let start_line = lines.next().unwrap_or_default();
    let sum_line = lines.next().unwrap_or_default();
    if lines.next().is_some() {
        return Err(corrupt("trailing manifest content"));
    }
    let declared = sum_line
        .strip_prefix("sum ")
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| corrupt(format!("bad manifest checksum line {sum_line:?}")))?;
    let body = format!("{magic}\n{start_line}\n");
    if fnv1a(body.as_bytes()) != declared {
        return Err(corrupt("manifest checksum mismatch"));
    }
    let mut kv = start_line
        .strip_prefix("start ")
        .ok_or_else(|| corrupt(format!("bad manifest start line {start_line:?}")))?
        .split_ascii_whitespace();
    let mut field = |key: &str| -> io::Result<u64> {
        match (kv.next(), kv.next()) {
            (Some(k), Some(v)) if k == key => v
                .parse()
                .map_err(|_| corrupt(format!("bad manifest field {key}"))),
            _ => Err(corrupt(format!("missing manifest field {key}"))),
        }
    };
    let start = ArchiveStart {
        seq: field("seq")?,
        offset: field("offset")?,
        line: field("line")?,
    };
    Ok(start)
}

fn write_manifest(dir: &Path, start: ArchiveStart, fail_after: Option<usize>) -> io::Result<()> {
    let text = render_manifest(start);
    atomic_write(&dir.join(MANIFEST_FILE), |f| {
        let mut w: Box<dyn Write> = match fail_after {
            Some(limit) => Box::new(FailingWriter::new(&mut *f, limit)),
            None => Box::new(&mut *f),
        };
        w.write_all(text.as_bytes())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp(name: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "inf2vec_archive_{name}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Seals `chunks` consecutive line-payloads and returns the
    /// concatenated stream for reference.
    fn seed_store(dir: &Path, chunks: &[&str]) -> (ArchiveStore, Vec<u8>) {
        let mut store = ArchiveStore::open(dir).unwrap();
        let mut stream = Vec::new();
        for (i, c) in chunks.iter().enumerate() {
            let lines = c.bytes().filter(|&b| b == b'\n').count() as u64;
            store.seal(c.as_bytes(), lines, i as u64 * 10, None).unwrap();
            stream.extend_from_slice(c.as_bytes());
        }
        (store, stream)
    }

    #[test]
    fn seal_reopen_restore_round_trips() {
        let dir = tmp("roundtrip");
        let log = dir.join("actions.log");
        let (store, stream) =
            seed_store(&dir.join("a.d"), &["0 0 1\n1 0 2\n", "2 0 3\n", "3 0 4\n4 0 5\n"]);
        assert_eq!(store.segments().len(), 3);
        assert_eq!(store.end_offset(), stream.len() as u64);
        assert_eq!(store.end_line(), 5);
        drop(store);

        // Reopen sees the identical chain.
        let store = ArchiveStore::open(dir.join("a.d")).unwrap();
        assert_eq!(store.segments().len(), 3);
        assert_eq!(store.end_offset(), stream.len() as u64);

        // An empty live log continuing the archive restores the stream.
        let pos = TailPosition {
            offset: stream.len() as u64,
            line_no: 5,
        };
        fs::write(&log, render_sentinel(pos)).unwrap();
        let out = dir.join("restored.log");
        let stats = store.restore_to(&log, &out).unwrap();
        assert_eq!(stats.segments, 3);
        assert_eq!(stats.archived_bytes, stream.len() as u64);
        // start == 0: no sentinel, byte-identical to the original stream.
        assert_eq!(stats.sentinel_len, 0);
        assert_eq!(fs::read(&out).unwrap(), stream);
        store.verify(Some(&log)).unwrap();
    }

    #[test]
    fn failed_seal_leaves_no_segment_and_retry_succeeds() {
        let dir = tmp("sealfail");
        let mut store = ArchiveStore::open(dir.join("a.d")).unwrap();
        let err = store.seal(b"0 0 1\n", 1, 0, Some(3)).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert!(store.segments().is_empty());
        drop(store);
        let mut store = ArchiveStore::open(dir.join("a.d")).unwrap();
        assert!(store.segments().is_empty(), "no torn segment survives");
        store.seal(b"0 0 1\n", 1, 0, None).unwrap();
        assert_eq!(store.end_offset(), 6);
    }

    #[test]
    fn seal_from_log_is_idempotent_across_rewrite_failures() {
        let dir = tmp("sealidem");
        let log = dir.join("actions.log");
        fs::write(&log, b"0 0 1\n1 0 2\n2 0 3\n").unwrap();
        let mut store = ArchiveStore::open(dir.join("a.d")).unwrap();
        let seal = |store: &mut ArchiveStore, offset, line_no| {
            let live = LiveLog::read(&log, TailPosition { offset, line_no }).unwrap();
            store.seal_from(&live, 0, None).unwrap()
        };
        assert_eq!(seal(&mut store, 12, 2), 12);
        // The live rewrite failed; the next boundary retries the seal at
        // the same (or a later) position — nothing is duplicated.
        assert_eq!(seal(&mut store, 12, 2), 0);
        assert_eq!(seal(&mut store, 18, 3), 6);
        assert_eq!(store.payload_bytes(), 18);
        store.verify(None).unwrap();
    }

    #[test]
    fn expiry_respects_budgets_and_replay_floor() {
        let dir = tmp("expiry");
        let (mut store, stream) =
            seed_store(&dir.join("a.d"), &["0 0 1\n", "1 0 2\n", "2 0 3\n", "3 0 4\n"]);
        let policy = RetentionPolicy {
            max_segments: 2,
            ..RetentionPolicy::default()
        };
        // Floor inside segment 0: nothing may expire.
        let s = store.expire(&policy, 3, 100, None).unwrap();
        assert_eq!(s, ExpiryStats::default());
        // Floor past everything: the two oldest go.
        let s = store.expire(&policy, stream.len() as u64, 100, None).unwrap();
        assert_eq!(s.segments, 2);
        assert_eq!(s.bytes, 12);
        assert_eq!(store.start().offset, 12);
        assert_eq!(store.segments().len(), 2);
        // Idempotent: already under budget.
        let s = store.expire(&policy, stream.len() as u64, 100, None).unwrap();
        assert_eq!(s, ExpiryStats::default());
        store.verify(None).unwrap();

        // Age budget: everything sealed before t=25ms (segments 2 at
        // t=20 is > 40-25... seal times were 0,10,20,30; max_age 15ms at
        // now=40 expires t=0,10,20, but only the remaining 20,30 exist).
        let age = RetentionPolicy {
            max_age: Some(Duration::from_millis(15)),
            ..RetentionPolicy::default()
        };
        let s = store.expire(&age, u64::MAX, 40, None).unwrap();
        assert_eq!(s.segments, 1, "t=20 is 20ms old at now=40");
        assert_eq!(store.segments().len(), 1);
    }

    #[test]
    fn failed_manifest_write_preserves_old_boundary() {
        let dir = tmp("manifestfail");
        let (mut store, stream) = seed_store(&dir.join("a.d"), &["0 0 1\n", "1 0 2\n", "2 0 3\n"]);
        let policy = RetentionPolicy {
            max_segments: 1,
            ..RetentionPolicy::default()
        };
        let err = store
            .expire(&policy, stream.len() as u64, 0, Some(4))
            .unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        drop(store);
        // Old manifest intact, all segments intact, retry completes.
        let mut store = ArchiveStore::open(dir.join("a.d")).unwrap();
        assert_eq!(store.start(), ArchiveStart::default());
        assert_eq!(store.segments().len(), 3);
        let s = store.expire(&policy, stream.len() as u64, 0, None).unwrap();
        assert_eq!(s.segments, 2);
        store.verify(None).unwrap();
    }

    #[test]
    fn rebase_discards_everything_and_restore_serves_the_suffix() {
        let dir = tmp("rebase");
        let log = dir.join("actions.log");
        let (mut store, _) = seed_store(&dir.join("a.d"), &["0 0 1\n", "1 0 2\n"]);
        // A hole: the live log starts past the archive end.
        let pos = TailPosition { offset: 30, line_no: 5 };
        let discarded = store.rebase_to(pos).unwrap();
        assert_eq!(discarded, 12);
        assert!(store.segments().is_empty());
        assert_eq!(store.start().offset, 30);
        fs::write(&log, format!("{}5 0 9\n", render_sentinel(pos))).unwrap();
        let out = dir.join("restored.log");
        let stats = store.restore_to(&log, &out).unwrap();
        assert_eq!(stats.live_bytes, 6);
        let restored = fs::read_to_string(&out).unwrap();
        assert!(restored.starts_with("#inf2vec-log v1 base 30 lines 5\n"));
        assert!(restored.ends_with("5 0 9\n"));
    }

    #[test]
    fn corrupted_segment_payload_fails_verify() {
        let dir = tmp("corrupt");
        let (store, _) = seed_store(&dir.join("a.d"), &["0 0 1\n1 0 2\n"]);
        let seg = store.dir().join(store.segments()[0].file_name());
        let mut bytes = fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x20; // flip a payload byte, header intact
        fs::write(&seg, bytes).unwrap();
        let err = store.verify(None).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Satellite: segment-header round-trip — render then parse is
        /// the identity for any field values.
        #[test]
        fn segment_header_round_trips(
            seq in 0u64..u64::MAX / 2,
            base_offset in 0u64..u64::MAX / 2,
            base_line in 0u64..u64::MAX / 2,
            lines in 0u64..u64::MAX / 2,
            len in 0u64..u64::MAX / 2,
            sum in any::<u64>(),
            sealed_at_ms in any::<u64>(),
        ) {
            let meta = SegmentMeta {
                seq, base_offset, base_line, lines, len, sum, sealed_at_ms,
                header_len: 0,
            };
            let header = meta.render_header();
            let parsed = SegmentMeta::parse_header(header.trim_end())
                .expect("rendered header parses");
            prop_assert_eq!(
                parsed,
                SegmentMeta { header_len: header.len() as u64, ..meta }
            );
            // A flipped header byte never parses as valid.
            let mut broken = header.trim_end().to_string().into_bytes();
            let i = (sum as usize) % broken.len();
            broken[i] ^= 1;
            if let Ok(s) = std::str::from_utf8(&broken) {
                if s != header.trim_end() {
                    prop_assert!(SegmentMeta::parse_header(s).is_none());
                }
            }
        }

        /// Satellite: the expiry crash-point matrix. Kill expiry at an
        /// arbitrary byte of the manifest write, between the manifest
        /// commit and the unlinks, or mid-unlink — then reopen. The
        /// store must always come back consistent (contiguous chain,
        /// boundary at one of the two legal positions), and re-running
        /// the same expiry must converge to the fully-expired state
        /// without double-counting reclaimed bytes.
        #[test]
        fn expiry_crash_matrix_recovers_consistently(
            n_segments in 2usize..6,
            max_segments in 1usize..3,
            crash_point in 0usize..12,
        ) {
            let dir = tmp("crashmatrix");
            let chunks: Vec<String> =
                (0..n_segments).map(|i| format!("{i} 0 {i}\n")).collect();
            let refs: Vec<&str> = chunks.iter().map(String::as_str).collect();
            let (mut store, stream) = seed_store(&dir.join("a.d"), &refs);
            let policy = RetentionPolicy { max_segments, ..RetentionPolicy::default() };
            let floor = stream.len() as u64;
            let expected_drop = n_segments.saturating_sub(max_segments);

            // Crash points 0..6 die inside the manifest write after that
            // many bytes; 6 dies before any unlink; 7.. die after
            // (point-7) unlinks.
            let result = if crash_point < 6 {
                store.expire(&policy, floor, 0, Some(crash_point))
            } else if crash_point == 6 {
                store.expire_inner(&policy, floor, 0, None, Some(ExpiryCrash::BeforeUnlink))
            } else {
                store.expire_inner(
                    &policy, floor, 0, None,
                    Some(ExpiryCrash::AfterUnlink(crash_point - 7)),
                )
            };
            // Whether the crash actually fires depends on geometry (a
            // no-op expiry never writes; AfterUnlink(n) past the last
            // unlink completes normally). Either way the recovery
            // invariants below must hold.
            if expected_drop == 0 {
                prop_assert_eq!(result.unwrap(), ExpiryStats::default());
            } else if let Ok(s) = result {
                prop_assert_eq!(s.segments as usize, expected_drop);
            }
            drop(store);

            // Recovery: reopen (runs the idempotent unlink repair), then
            // re-run the same expiry to completion.
            let mut store = ArchiveStore::open(dir.join("a.d")).unwrap();
            let boundary_moved = store.start().seq > 0;
            store.verify(None).unwrap();
            let s = store.expire(&policy, floor, 0, None).unwrap();
            let replayed = s.segments as usize;
            // Exactly-once reclamation: the crashed attempt and the
            // replay together expire the planned set, never more.
            let already = if boundary_moved { expected_drop } else { 0 };
            prop_assert_eq!(replayed, expected_drop - already);
            prop_assert_eq!(store.segments().len(), max_segments.min(n_segments));
            prop_assert_eq!(store.start().seq as usize, expected_drop);
            store.verify(None).unwrap();
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

//! Resumable tailing of an append-only `user item time` action log, and
//! the rotation sentinel that compaction leaves at its head.
//!
//! A [`LogTail`] polls the log file for *complete* lines past a committed
//! byte offset. A trailing line without its `\n` terminator is presumed to
//! be mid-append and is left unconsumed — the next poll re-reads it — so a
//! record is either seen whole exactly once or not yet at all. The
//! committed [`TailPosition`] (byte offset + line number) is plain data a
//! caller can persist in a progress journal and hand back to
//! [`LogTail::resume`] after a crash: replaying from a journaled position
//! yields exactly the records an uninterrupted tail would have produced.
//!
//! Every complete line classifies into exactly one [`TailItem`]:
//! a parsed [`ActionRecord`], a typed [`TailItem::Defect`] (quarantine),
//! or — for blanks and `#` comments — nothing at all. Corrupted tails
//! (torn writes, flipped bytes) therefore surface as `MalformedLine` /
//! `DanglingNode` / timestamp defects instead of derailing the stream.
//!
//! # Rotation, compaction, and logical offsets
//!
//! An immortal log file grows without bound, so long-running pipelines
//! periodically rotate the fully-consumed prefix away through a
//! [`LogStore`](crate::LogStore). The compacted file opens with a
//! **sentinel header line**
//!
//! ```text
//! #inf2vec-log v1 base <offset> lines <count>
//! ```
//!
//! recording how many logical bytes/lines of stream history precede the
//! file's first payload byte. [`TailPosition::offset`] is always a
//! *logical* offset — bytes since the origin of the stream, not since the
//! start of the current file — so journaled positions survive any number
//! of rotations unchanged. The sentinel starts with `#`, so readers that
//! ignore rotation (the batch loader) still parse the file: they simply
//! see a comment.
//!
//! A poll that cannot honor its committed position fails **typed** instead
//! of silently yielding nothing:
//!
//! - file shorter than the committed offset with no sentinel explaining it
//!   → [`IngestError::LogTruncated`] (a torn rotation or external
//!   truncation destroyed unread data);
//! - sentinel base beyond the committed offset →
//!   [`IngestError::LogRotated`] (the resume point was compacted away —
//!   only possible when compaction outruns the journal, which the
//!   pipeline's min-committed-across-slots rule prevents).

use std::fs;
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use inf2vec_obs::{Event, Telemetry};
use inf2vec_util::atomic_write;
use inf2vec_util::error::{DefectKind, IngestError};
use inf2vec_util::faultinject::FailingWriter;

use crate::lines::LineStream;
use crate::parse::{parse_id, parse_time, TimeParse};
use crate::policy::IdMode;
use crate::report::SAMPLE_MAX_CHARS;

/// Magic prefix of the rotation sentinel header line.
pub(crate) const SENTINEL_MAGIC: &str = "#inf2vec-log v1";

/// Parsed rotation sentinel: the logical stream history that precedes the
/// live file's first payload byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct LogHeader {
    /// Logical byte offset of the first payload byte.
    pub(crate) base: u64,
    /// Logical lines consumed before the first payload line.
    pub(crate) lines: u64,
    /// Physical bytes the sentinel line itself occupies (0 = no sentinel).
    pub(crate) header_len: u64,
}

pub(crate) fn render_sentinel(pos: TailPosition) -> String {
    format!("{SENTINEL_MAGIC} base {} lines {}\n", pos.offset, pos.line_no)
}

fn parse_sentinel(line: &str) -> Option<(u64, u64)> {
    let rest = line.strip_prefix(SENTINEL_MAGIC)?;
    let mut it = rest.split_ascii_whitespace();
    let (base, lines) = match (it.next()?, it.next()?, it.next()?, it.next()?) {
        ("base", b, "lines", l) => (b.parse().ok()?, l.parse().ok()?),
        _ => return None,
    };
    it.next().is_none().then_some((base, lines))
}

/// A sentinel is a short first line; 128 bytes is comfortably enough for
/// two u64s and the magic.
const SENTINEL_PROBE: usize = 128;

/// Reads the (optional) sentinel header from an open log file. The file's
/// read position afterwards is unspecified; callers must seek.
pub(crate) fn read_header(file: &mut fs::File) -> io::Result<LogHeader> {
    let mut buf = [0u8; SENTINEL_PROBE];
    file.seek(SeekFrom::Start(0))?;
    let mut got = 0;
    while got < buf.len() {
        match file.read(&mut buf[got..])? {
            0 => break,
            n => got += n,
        }
    }
    Ok(parse_header(&buf[..got]))
}

/// Parses the (optional) sentinel header at the start of `bytes`; only
/// the first [`SENTINEL_PROBE`] bytes are looked at.
pub(crate) fn parse_header(bytes: &[u8]) -> LogHeader {
    let head = &bytes[..bytes.len().min(SENTINEL_PROBE)];
    if !head.starts_with(SENTINEL_MAGIC.as_bytes()) {
        return LogHeader::default();
    }
    let Some(nl) = head.iter().position(|&b| b == b'\n') else {
        // Starts like a sentinel but the line is not terminated within the
        // probe window. Compaction writes sentinels atomically, so this is
        // a foreign or torn file; treat it as payload.
        return LogHeader::default();
    };
    let line = std::str::from_utf8(&head[..nl]).ok().map(str::trim_end);
    match line.and_then(parse_sentinel) {
        Some((base, lines)) => LogHeader {
            base,
            lines,
            header_len: nl as u64 + 1,
        },
        None => LogHeader::default(),
    }
}

/// Returns the rotation sentinel of `path` as `(logical base offset,
/// logical lines before the file)`, `(0, 0)` when the file has none, and
/// `None` when the file does not exist.
pub(crate) fn sentinel_base(path: &Path) -> io::Result<Option<(u64, u64)>> {
    let mut file = match fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let h = read_header(&mut file)?;
    Ok(Some((h.base, h.lines)))
}

/// What one [`LiveLog::rewrite`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct CompactionStats {
    /// Physical payload bytes rotated out of the live file.
    pub(crate) dropped_bytes: u64,
    /// Physical bytes the live file holds afterwards (sentinel included).
    pub(crate) live_bytes: u64,
    /// The live file's logical base offset afterwards.
    pub(crate) base: u64,
}

/// The live log read whole, once per compaction, with the position the
/// compaction cuts at: the seal and the rewrite both work from this one
/// snapshot.
#[derive(Debug)]
pub(crate) struct LiveLog {
    bytes: Vec<u8>,
    header: LogHeader,
    upto: TailPosition,
}

impl LiveLog {
    /// Reads the log at `path` to compact it below the logical position
    /// `upto`. `upto` must be a committed [`TailPosition`] (it always
    /// falls on a line boundary) that every consumer has applied and
    /// durably journaled; a position past the log's logical end is an
    /// error.
    pub(crate) fn read(path: &Path, upto: TailPosition) -> io::Result<Self> {
        let bytes = fs::read(path)?;
        let header = parse_header(&bytes);
        let log = Self {
            bytes,
            header,
            upto,
        };
        if upto.offset > log.end() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "compaction offset {} is past the log's logical end {}",
                    upto.offset,
                    log.end()
                ),
            ));
        }
        Ok(log)
    }

    /// The logical position of the file's first payload byte.
    pub(crate) fn base(&self) -> TailPosition {
        TailPosition {
            offset: self.header.base,
            line_no: self.header.lines,
        }
    }

    /// The position the compaction cuts at.
    pub(crate) fn upto(&self) -> TailPosition {
        self.upto
    }

    fn payload(&self) -> &[u8] {
        &self.bytes[self.header.header_len as usize..]
    }

    fn end(&self) -> u64 {
        self.header.base + self.payload().len() as u64
    }

    /// The payload bytes at logical offsets `[from, upto)`; `from` must
    /// lie in `[base, upto]`.
    pub(crate) fn slice_from(&self, from: u64) -> &[u8] {
        let base = self.header.base;
        &self.payload()[(from - base) as usize..(self.upto.offset - base) as usize]
    }

    /// Rotates every payload byte below `upto` out of the log at `path`,
    /// atomically rewriting the file as a sentinel header plus the
    /// surviving suffix; a cut at or below the current base is a no-op.
    /// When `fail_after_bytes` is `Some(limit)`, the rewrite accepts
    /// `limit` bytes and then fails like a full disk, leaving the file
    /// untouched.
    ///
    /// Concurrent *readers* are safe (the rewrite is an atomic rename; a
    /// reader holding the old file sees a consistent old snapshot).
    /// Concurrent appenders are not — the producer must reopen the path
    /// per append and be quiescent across a compaction, or its appends
    /// since the read are lost.
    pub(crate) fn rewrite(
        &self,
        path: &Path,
        fail_after_bytes: Option<usize>,
    ) -> io::Result<CompactionStats> {
        let base = self.header.base;
        if self.upto.offset <= base {
            return Ok(CompactionStats {
                dropped_bytes: 0,
                live_bytes: self.bytes.len() as u64,
                base,
            });
        }
        let drop = self.upto.offset - base;
        let kept = &self.payload()[drop as usize..];
        let sentinel = render_sentinel(self.upto);
        atomic_write(path, |f| {
            let mut w: Box<dyn Write> = match fail_after_bytes {
                Some(limit) => Box::new(FailingWriter::new(&mut *f, limit)),
                None => Box::new(&mut *f),
            };
            w.write_all(sentinel.as_bytes())?;
            w.write_all(kept)
        })?;
        Ok(CompactionStats {
            dropped_bytes: drop,
            live_bytes: sentinel.len() as u64 + kept.len() as u64,
            base: self.upto.offset,
        })
    }
}

/// One parsed action: `user` activated on `item` at `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionRecord {
    /// 1-based physical line number in the log.
    pub line_no: u64,
    /// Dense user id, verified `< num_users`.
    pub user: u32,
    /// Item id (its own namespace; any `u32`).
    pub item: u32,
    /// Activation timestamp.
    pub time: u64,
}

/// What one complete log line classified as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailItem {
    /// A well-formed action record.
    Record(ActionRecord),
    /// A quarantined line: the defect kind plus a truncated sample.
    Defect {
        /// 1-based physical line number in the log.
        line_no: u64,
        /// Why the line was quarantined.
        kind: DefectKind,
        /// The offending line, truncated for reporting.
        sample: String,
    },
}

/// A committed tail position: resume here and the stream continues as if
/// never interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TailPosition {
    /// Byte offset of the first unconsumed byte.
    pub offset: u64,
    /// Complete lines consumed so far.
    pub line_no: u64,
}

/// Tails an append-only action log from a resumable position.
#[derive(Debug)]
pub struct LogTail {
    path: PathBuf,
    num_users: u32,
    pos: TailPosition,
    telemetry: Telemetry,
}

impl LogTail {
    /// Tails `path` from the beginning. `num_users` bounds valid user ids
    /// (a record naming a user outside the propagation network is a
    /// [`DefectKind::DanglingNode`] defect).
    pub fn new(path: impl Into<PathBuf>, num_users: u32) -> Self {
        Self::resume(path, num_users, TailPosition::default())
    }

    /// Resumes tailing from a previously committed position.
    pub fn resume(path: impl Into<PathBuf>, num_users: u32, pos: TailPosition) -> Self {
        Self {
            path: path.into(),
            num_users,
            pos,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: each non-empty poll then counts its
    /// lines/records/defects and emits one `tail.batch` event. Disabled
    /// telemetry (the default) costs one branch per poll.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The position the next poll starts from (persist this to resume).
    pub fn position(&self) -> TailPosition {
        self.pos
    }

    /// Reads up to `max` newly completed lines, classifying each. Returns
    /// an empty vec when nothing new is terminated yet (including when the
    /// log file does not exist yet). The committed position only advances
    /// past lines whose terminator has been seen.
    ///
    /// The committed offset is *logical* (see the module docs): a rotation
    /// sentinel at the head of the file maps it onto the live file. A poll
    /// that cannot honor the committed position — the file shrank below
    /// it, or compaction rotated it away — fails with the corresponding
    /// typed [`IngestError`] instead of silently reading nothing.
    pub fn poll(&mut self, max: usize) -> Result<Vec<TailItem>, IngestError> {
        let mut file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let header = read_header(&mut file)?;
        if self.pos.offset < header.base {
            return Err(IngestError::LogRotated {
                committed: self.pos.offset,
                base: header.base,
            });
        }
        let file_len = file.metadata()?.len();
        let logical_len = header.base + file_len.saturating_sub(header.header_len);
        if self.pos.offset > logical_len {
            return Err(IngestError::LogTruncated {
                committed: self.pos.offset,
                len: logical_len,
            });
        }
        let physical = header.header_len + (self.pos.offset - header.base);
        file.seek(SeekFrom::Start(physical))?;
        let reader = BufReader::new(file.take(u64::MAX));
        let mut stream = LineStream::with_bom_strip(reader, physical == 0 && self.pos.offset == 0);
        let mut out = Vec::new();
        let mut committed = 0u64;
        while out.len() < max {
            let Some((_, line)) = stream.next_line()? else {
                break;
            };
            let line = line.to_string();
            if !stream.last_terminated() {
                // Partial tail line: the writer hasn't finished it. Leave
                // it for the next poll.
                break;
            }
            // Only lines whose terminator was seen move the offset.
            committed = stream.bytes();
            self.pos.line_no += 1;
            if let Some(item) = self.classify(self.pos.line_no, &line) {
                out.push(item);
            }
        }
        self.pos.offset += committed;
        if !out.is_empty() {
            let records = out
                .iter()
                .filter(|i| matches!(i, TailItem::Record(_)))
                .count() as u64;
            let defects = out.len() as u64 - records;
            self.telemetry
                .count("inf2vec_ingest_tail_records_total", records);
            self.telemetry
                .count("inf2vec_ingest_tail_defects_total", defects);
            self.telemetry.emit_with(|| {
                Event::new("tail.batch")
                    .u64("records", records)
                    .u64("defects", defects)
                    .u64("offset", self.pos.offset)
                    .u64("line", self.pos.line_no)
            });
        }
        Ok(out)
    }

    /// Classifies one complete line. Blank lines and comments yield
    /// nothing; everything else is exactly one record or one defect.
    fn classify(&self, line_no: u64, line: &str) -> Option<TailItem> {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return None;
        }
        let defect = |kind| TailItem::Defect {
            line_no,
            kind,
            sample: sample_of(trimmed),
        };

        let mut parts = trimmed.split_whitespace();
        let fields = (parts.next(), parts.next(), parts.next(), parts.next());
        let (u_tok, i_tok, t_tok) = match fields {
            (Some(u), Some(i), Some(t), None) => (u, i, t),
            _ => return Some(defect(DefectKind::MalformedLine)),
        };
        let user = match parse_id(u_tok, IdMode::Preserve, None) {
            Ok(u) if u < self.num_users => u,
            Ok(_) => return Some(defect(DefectKind::DanglingNode)),
            Err(kind) => return Some(defect(kind)),
        };
        let item = match parse_id(i_tok, IdMode::Preserve, None) {
            Ok(i) => i,
            Err(kind) => return Some(defect(kind)),
        };
        let time = match parse_time(t_tok) {
            TimeParse::Ok(t) => t,
            // The tail quarantines rather than repairs: an online record
            // with a mangled timestamp is evidence of a torn write, not a
            // float export quirk.
            TimeParse::Repairable(_, kind) | TimeParse::Bad(kind) => {
                return Some(defect(kind));
            }
        };
        Some(TailItem::Record(ActionRecord {
            line_no,
            user,
            item,
            time,
        }))
    }
}

fn sample_of(line: &str) -> String {
    if line.chars().count() <= SAMPLE_MAX_CHARS {
        line.to_string()
    } else {
        let cut: String = line.chars().take(SAMPLE_MAX_CHARS).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("inf2vec_tail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn append(path: &Path, bytes: &[u8]) {
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap();
        f.write_all(bytes).unwrap();
    }

    fn compact(path: &Path, pos: TailPosition) -> CompactionStats {
        LiveLog::read(path, pos)
            .unwrap()
            .rewrite(path, None)
            .unwrap()
    }

    fn rec(line_no: u64, user: u32, item: u32, time: u64) -> TailItem {
        TailItem::Record(ActionRecord {
            line_no,
            user,
            item,
            time,
        })
    }

    #[test]
    fn partial_tail_line_waits_for_terminator() {
        let path = tmp("partial.log");
        std::fs::remove_file(&path).ok();
        let mut tail = LogTail::new(&path, 10);
        assert_eq!(tail.poll(100).unwrap(), Vec::new()); // file absent: not an error

        append(&path, b"0 0 5\n1 0 7");
        assert_eq!(tail.poll(100).unwrap(), vec![rec(1, 0, 0, 5)]);
        let pos = tail.position();
        assert_eq!(pos, TailPosition { offset: 6, line_no: 1 });

        // The writer finishes the line: now it is consumed, exactly once.
        append(&path, b"\n");
        assert_eq!(tail.poll(100).unwrap(), vec![rec(2, 1, 0, 7)]);
        assert_eq!(tail.poll(100).unwrap(), Vec::new());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_from_position_matches_uninterrupted_tail() {
        let path = tmp("resume.log");
        std::fs::remove_file(&path).ok();
        append(&path, b"0 0 1\n1 0 2\n2 1 3\n3 1 4\n");

        let mut uninterrupted = LogTail::new(&path, 10);
        let all = uninterrupted.poll(100).unwrap();

        let mut first = LogTail::new(&path, 10);
        let head = first.poll(2).unwrap();
        let mut second = LogTail::resume(&path, 10, first.position());
        let rest = second.poll(100).unwrap();
        let mut replayed = head;
        replayed.extend(rest);
        assert_eq!(replayed, all);
        assert_eq!(second.position(), uninterrupted.position());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_lines_quarantine_with_typed_defects() {
        let path = tmp("corrupt.log");
        std::fs::remove_file(&path).ok();
        append(
            &path,
            b"0 0 1\ngarbage\n9 0 2\n1 0 NaN\n1 0 2.5\n# comment\n\n2 0 3\n",
        );
        let mut tail = LogTail::new(&path, 5);
        let items = tail.poll(100).unwrap();
        let kinds: Vec<_> = items
            .iter()
            .map(|i| match i {
                TailItem::Record(_) => None,
                TailItem::Defect { kind, .. } => Some(*kind),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                None,
                Some(DefectKind::MalformedLine),
                Some(DefectKind::DanglingNode),
                Some(DefectKind::NonFiniteTimestamp),
                Some(DefectKind::TimestampOutOfRange),
                None,
            ]
        );
        assert_eq!(tail.position().line_no, 8); // comments/blanks still count as lines
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn poll_respects_max_and_continues() {
        let path = tmp("batch.log");
        std::fs::remove_file(&path).ok();
        append(&path, b"0 0 1\n1 0 2\n2 0 3\n");
        let mut tail = LogTail::new(&path, 10);
        assert_eq!(tail.poll(2).unwrap().len(), 2);
        assert_eq!(tail.poll(2).unwrap(), vec![rec(3, 2, 0, 3)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn telemetry_counts_records_and_defects_per_poll() {
        use inf2vec_obs::{MemorySink, SampleValue, Telemetry};
        use std::sync::Arc;

        let path = tmp("telemetry.log");
        std::fs::remove_file(&path).ok();
        append(&path, b"0 0 1\ngarbage\n1 0 2\n");
        let sink = Arc::new(MemorySink::new());
        let telemetry = Telemetry::new(Arc::clone(&sink) as Arc<dyn inf2vec_obs::Recorder>);
        let mut tail = LogTail::new(&path, 10).with_telemetry(telemetry.clone());
        assert_eq!(tail.poll(100).unwrap().len(), 3);

        let snap = telemetry.snapshot();
        let counter = |name: &str| match snap.get(name).map(|s| &s.value) {
            Some(SampleValue::Counter(v)) => *v,
            _ => 0,
        };
        assert_eq!(counter("inf2vec_ingest_tail_records_total"), 2);
        assert_eq!(counter("inf2vec_ingest_tail_defects_total"), 1);

        let events = sink.events();
        let batch = events.iter().find(|e| e.kind() == "tail.batch").unwrap();
        assert_eq!(batch.get("records").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(batch.get("defects").and_then(|v| v.as_u64()), Some(1));

        // An empty poll is silent — no event, no counter bumps.
        assert!(tail.poll(100).unwrap().is_empty());
        assert_eq!(
            sink.events()
                .iter()
                .filter(|e| e.kind() == "tail.batch")
                .count(),
            1
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shrunk_file_is_a_typed_truncation_not_silence() {
        // Torn-rotation fixture: an external actor truncates the log below
        // the committed offset without leaving a sentinel. The old tail
        // would seek past EOF and return empty forever; it must error.
        let path = tmp("shrunk.log");
        std::fs::remove_file(&path).ok();
        append(&path, b"0 0 1\n1 0 2\n2 0 3\n");
        let mut tail = LogTail::new(&path, 10);
        assert_eq!(tail.poll(100).unwrap().len(), 3);
        let committed = tail.position().offset;
        std::fs::write(&path, b"0 0 1\n").unwrap(); // shrink below offset
        let err = tail.poll(100).unwrap_err();
        match err {
            IngestError::LogTruncated {
                committed: c,
                len,
            } => {
                assert_eq!(c, committed);
                assert_eq!(len, 6);
            }
            other => panic!("expected LogTruncated, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_rewrites_prefix_and_resume_continues_identically() {
        let path = tmp("compact.log");
        std::fs::remove_file(&path).ok();
        append(&path, b"0 0 1\n1 0 2\n2 0 3\n");
        let mut tail = LogTail::new(&path, 10);
        assert_eq!(tail.poll(2).unwrap().len(), 2);
        let pos = tail.position();

        let stats = compact(&path, pos);
        assert_eq!(stats.dropped_bytes, pos.offset);
        assert_eq!(stats.base, pos.offset);
        assert_eq!(
            sentinel_base(&path).unwrap(),
            Some((pos.offset, pos.line_no))
        );

        // The same tail keeps polling across the rotation...
        assert_eq!(tail.poll(100).unwrap(), vec![rec(3, 2, 0, 3)]);
        // ...and a journal-resumed tail lands on the same stream.
        append(&path, b"3 0 4\n");
        let mut resumed = LogTail::resume(&path, 10, tail.position());
        assert_eq!(resumed.poll(100).unwrap(), vec![rec(4, 3, 0, 4)]);

        // Compacting again at or below the base is a no-op.
        let again = compact(&path, pos);
        assert_eq!(again.dropped_bytes, 0);
        assert_eq!(again.base, pos.offset);

        // A fresh tail at offset 0 cannot be served: the prefix is gone.
        let mut fresh = LogTail::new(&path, 10);
        match fresh.poll(100).unwrap_err() {
            IngestError::LogRotated { committed: 0, base } => {
                assert_eq!(base, pos.offset)
            }
            other => panic!("expected LogRotated, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repeated_compaction_composes_logical_offsets() {
        let path = tmp("recompact.log");
        std::fs::remove_file(&path).ok();
        append(&path, b"0 0 1\n1 0 2\n");
        let mut tail = LogTail::new(&path, 10);
        assert_eq!(tail.poll(1).unwrap().len(), 1);
        compact(&path, tail.position());
        append(&path, b"2 0 3\n3 0 4\n");
        assert_eq!(tail.poll(2).unwrap().len(), 2);
        compact(&path, tail.position());
        assert_eq!(
            sentinel_base(&path).unwrap(),
            Some((tail.position().offset, tail.position().line_no))
        );
        append(&path, b"4 0 5\n");
        assert_eq!(
            tail.poll(100).unwrap(),
            vec![rec(4, 3, 0, 4), rec(5, 4, 0, 5)]
        );
        assert_eq!(tail.position().offset, 30, "logical offsets keep counting");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sentinel_on_missing_file_is_none() {
        let path = tmp("no-such.log");
        std::fs::remove_file(&path).ok();
        assert_eq!(sentinel_base(&path).unwrap(), None);
    }

    #[test]
    fn bom_is_data_when_resuming_mid_file() {
        let path = tmp("bom.log");
        std::fs::remove_file(&path).ok();
        append(&path, b"\xef\xbb\xbf0 0 1\n");
        let mut tail = LogTail::new(&path, 10);
        assert_eq!(tail.poll(100).unwrap(), vec![rec(1, 0, 0, 1)]);
        // A resumed tail must not strip BOM-looking bytes mid-file.
        append(&path, b"\xef\xbb\xbf1 0 2\n");
        let mut resumed = LogTail::resume(&path, 10, tail.position());
        let items = resumed.poll(100).unwrap();
        assert!(
            matches!(
                &items[..],
                [TailItem::Defect {
                    kind: DefectKind::MalformedLine,
                    ..
                }]
            ),
            "{items:?}"
        );
        std::fs::remove_file(&path).ok();
    }
}

//! Write-ahead progress journal: double-slot, checksummed, atomic.
//!
//! The journal captures *everything* the trainer needs to resume —
//! committed tail position, acceptance counters, open (not-yet-closed)
//! episode assembly state, and the full [`OnlineState`] — so that after a
//! crash, replaying the action log from the journaled position reproduces
//! the uninterrupted run bit for bit.
//!
//! # Slot discipline
//!
//! Writes alternate between two slot files (`journal.a` / `journal.b` by
//! round parity), each written via [`atomic_write`] (temp sibling, fsync,
//! rename) with a trailing FNV-1a checksum line. Recovery parses both
//! slots, discards any whose checksum or structure fails, and keeps the
//! valid one with the highest round:
//!
//! - a torn or truncated newest slot falls back to the previous round
//!   (older position → more log replay → same final state);
//! - both slots corrupt or absent → fresh start from offset 0, which is
//!   still correct because the log, not the journal, is the source of
//!   truth — the journal only saves work;
//! - a slot that parses but disagrees with the pipeline's fixed shape
//!   (user count, dimension) is a configuration error, surfaced as
//!   [`PipelineError::JournalMismatch`] rather than silently retrained.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use inf2vec_embed::{EmbeddingStore, OnlineState};
use inf2vec_ingest::TailPosition;
use inf2vec_util::error::{Inf2vecError, PipelineError};
use inf2vec_util::faultinject::FailingWriter;
use inf2vec_util::{atomic_write, fnv1a, Fnv1a};

/// Journal format magic (version-independent prefix).
const MAGIC: &str = "inf2vec-journal";

/// Schema version this build writes; bump on any incompatible layout
/// change. It reads this version and v2. A slot with intact checksum but
/// any other version fails as [`PipelineError::JournalMismatch`] naming
/// found/expected — never as a checksum-shaped mystery.
///
/// v3 adds the `sampler_counts` line (the counts the online trainer's
/// negative table was built from); a v2 slot loads with `sampler_counts
/// = ctx_counts`, the table a v2 build drew its next episode from.
pub const SCHEMA_VERSION: u32 = 3;

/// Journal format tag; bump [`SCHEMA_VERSION`] on any incompatible change.
const HEADER: &str = "inf2vec-journal v3";

/// The previous format tag, still read.
const HEADER_V2: &str = "inf2vec-journal v2";

/// One open (still-assembling) episode, in persistable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenItemState {
    /// The item (episode) id.
    pub item: u32,
    /// Accepted-record sequence of the item's most recent activity; the
    /// episode closes when `records_seen - last_seq >= close_after`.
    pub last_seq: u64,
    /// Accepted records folded into this item so far (each record is
    /// accounted to exactly one open item until the item closes).
    pub folded: u64,
    /// Per-user earliest activation: `(user, time, seq)`, sorted by user.
    pub users: Vec<(u32, u64, u64)>,
}

/// A complete, self-validating snapshot of trainer progress.
#[derive(Debug, Clone)]
pub struct JournalState {
    /// Monotonic write counter; selects the slot and orders recoveries.
    pub round: u64,
    /// Committed tail position: replay resumes exactly here.
    pub pos: TailPosition,
    /// Accepted (well-formed) records consumed.
    pub records_seen: u64,
    /// Records whose episode has closed (applied to the model).
    pub records_applied: u64,
    /// Defective records quarantined.
    pub quarantined: u64,
    /// Open episode assembly state, sorted by item id.
    pub open: Vec<OpenItemState>,
    /// The online trainer's full mutable state.
    pub online: OnlineState,
}

/// The on-disk journal: a directory holding the two slots.
#[derive(Debug, Clone)]
pub struct Journal {
    dir: PathBuf,
}

fn unreadable(detail: impl std::fmt::Display) -> PipelineError {
    PipelineError::JournalUnreadable {
        detail: detail.to_string(),
    }
}

impl Journal {
    /// Opens (creating if needed) the journal directory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, PipelineError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| unreadable(format!("create {dir:?}: {e}")))?;
        Ok(Self { dir })
    }

    /// The slot file a given round lands in (rounds alternate slots, so
    /// the previous round always survives the current write).
    pub fn slot_path(&self, round: u64) -> PathBuf {
        self.dir
            .join(if round % 2 == 0 { "journal.a" } else { "journal.b" })
    }

    /// Atomically writes `state` into its slot. Returns the slot path
    /// (fault injection truncates it to simulate torn writes).
    pub fn write(&self, state: &JournalState) -> Result<PathBuf, Inf2vecError> {
        self.write_with(state, None)
    }

    /// [`Journal::write`] with an optional injected disk fault: when
    /// `fail_after_bytes` is set, the slot write accepts that many bytes
    /// and then errors (an ENOSPC/EIO-shaped partial write). The
    /// [`atomic_write`] temp-file discipline guarantees the destination
    /// slot is untouched when this returns an error.
    pub fn write_with(
        &self,
        state: &JournalState,
        fail_after_bytes: Option<usize>,
    ) -> Result<PathBuf, Inf2vecError> {
        let path = self.slot_path(state.round);
        atomic_write(&path, |f| match fail_after_bytes {
            Some(limit) => write_slot(state, FailingWriter::new(f, limit)),
            None => write_slot(state, f),
        })?;
        Ok(path)
    }

    /// Loads the newest valid snapshot, or `None` for a fresh start.
    ///
    /// Corrupt/truncated slots are skipped (that is the double-slot
    /// design working, not an error); an unreadable directory, a slot
    /// written by a different schema version, or a slot that is valid but
    /// shaped for a different pipeline is an error.
    pub fn load_latest(&self) -> Result<Option<JournalState>, PipelineError> {
        let mut best: Option<JournalState> = None;
        for name in ["journal.a", "journal.b"] {
            let path = self.dir.join(name);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(unreadable(format!("read {path:?}: {e}"))),
            };
            match parse_slot(&bytes) {
                SlotParse::Valid(state) => {
                    if best.as_ref().map_or(true, |b| state.round > b.round) {
                        best = Some(*state);
                    }
                }
                // Torn write: the other slot carries the state.
                SlotParse::Corrupt => continue,
                // The bytes are *intact* (checksum passed) but written by
                // an incompatible build: silently retraining from scratch
                // would discard a perfectly good snapshot. Fail typed.
                SlotParse::VersionMismatch { found } => {
                    return Err(PipelineError::JournalMismatch {
                        detail: format!(
                            "journal slot {name} was written by schema \
                             {found:?}, this build reads v{SCHEMA_VERSION} and v2"
                        ),
                    });
                }
            }
        }
        Ok(best)
    }
}

/// Checks a parsed snapshot against the pipeline's shape envelope: the
/// dimension `k` must match exactly, and the row count must lie within
/// `[base_n, universe]` — at least the social graph's population, at most
/// the configured user capacity (the stream grows the model between the
/// two; see [`inf2vec_embed::OnlineSgns::apply_episode`]).
pub fn check_shape(
    state: &JournalState,
    base_n: usize,
    universe: usize,
    k: usize,
) -> Result<(), PipelineError> {
    let (jn, jk) = (state.online.store.len(), state.online.store.k());
    if jk != k || jn < base_n || jn > universe {
        return Err(PipelineError::JournalMismatch {
            detail: format!(
                "journal holds a {jn}x{jk} model, pipeline expects \
                 {base_n}..={universe} users at dimension {k}"
            ),
        });
    }
    Ok(())
}

/// Streams one slot into `out` through a 64 KiB buffer: the body, then a
/// checksum line over every body byte, folded in as the bytes pass.
fn write_slot(state: &JournalState, out: impl Write) -> io::Result<()> {
    let mut body = Checksummed {
        inner: BufWriter::with_capacity(64 << 10, out),
        sum: Fnv1a::default(),
    };
    serialize(state, &mut body)?;
    let Checksummed { mut inner, sum } = body;
    writeln!(inner, "checksum {:016x}", sum.finish())?;
    inner.flush()
}

/// A writer that folds every byte it passes on into an FNV-1a checksum.
struct Checksummed<W> {
    inner: W,
    sum: Fnv1a,
}

impl<W: Write> Write for Checksummed<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.sum.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

fn serialize(state: &JournalState, out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "{HEADER}")?;
    writeln!(out, "round {}", state.round)?;
    writeln!(out, "pos {} {}", state.pos.offset, state.pos.line_no)?;
    writeln!(
        out,
        "counters {} {} {} {} {}",
        state.records_seen,
        state.records_applied,
        state.quarantined,
        state.online.episodes_applied,
        state.online.pairs_applied
    )?;
    writeln!(out, "open {}", state.open.len())?;
    for it in &state.open {
        writeln!(
            out,
            "item {} {} {} {}",
            it.item,
            it.last_seq,
            it.folded,
            it.users.len()
        )?;
        for &(u, t, s) in &it.users {
            writeln!(out, "{u} {t} {s}")?;
        }
    }
    write_u64s(out, "update_counts", &state.online.update_counts)?;
    write_u64s(out, "ctx_counts", &state.online.ctx_counts)?;
    write_u64s(out, "sampler_counts", &state.online.sampler_counts)?;
    let init: Vec<u64> = state.online.initialized.iter().map(|&b| b as u64).collect();
    write_u64s(out, "initialized", &init)?;
    writeln!(out, "store")?;
    state.online.store.save(&mut *out)?;
    Ok(())
}

fn write_u64s(out: &mut impl Write, tag: &str, vals: &[u64]) -> io::Result<()> {
    write!(out, "{tag} {}", vals.len())?;
    for v in vals {
        write!(out, " {v}")?;
    }
    writeln!(out)
}

/// How one slot's bytes classified.
#[derive(Debug)]
enum SlotParse {
    /// Intact and readable by this build (boxed: the state dwarfs the
    /// other variants).
    Valid(Box<JournalState>),
    /// Checksum or structure failed: a torn/corrupted write.
    Corrupt,
    /// Checksum passed but the header names a different schema version.
    VersionMismatch {
        /// The version tag the slot's header carries.
        found: String,
    },
}

/// Parses one slot. The checksum is validated *first*, so corruption is
/// always reported as [`SlotParse::Corrupt`] — a bit-flipped version line
/// must not masquerade as a version mismatch.
fn parse_slot(bytes: &[u8]) -> SlotParse {
    match parse_slot_inner(bytes) {
        Some(r) => r,
        None => SlotParse::Corrupt,
    }
}

fn parse_slot_inner(bytes: &[u8]) -> Option<SlotParse> {
    let text = std::str::from_utf8(bytes).ok()?;
    // The checksum covers every byte before its own line.
    let body_end = text.trim_end_matches('\n').rfind('\n')? + 1;
    let sum_line = text[body_end..].trim();
    let declared = u64::from_str_radix(sum_line.strip_prefix("checksum ")?, 16).ok()?;
    if fnv1a(&bytes[..body_end]) != declared {
        return None;
    }

    let mut lines = text[..body_end].lines();
    let header = lines.next()?;
    let v2 = header == HEADER_V2;
    if header != HEADER && !v2 {
        // Intact bytes, wrong version tag (or a foreign file that happens
        // to checksum — report whatever its first line says it is).
        let found = header
            .strip_prefix(MAGIC)
            .map(str::trim)
            .unwrap_or(header)
            .to_string();
        return Some(SlotParse::VersionMismatch { found });
    }
    let round: u64 = field(lines.next()?, "round")?.parse().ok()?;
    let pos = fields(lines.next()?, "pos", 2)?;
    let pos = TailPosition {
        offset: pos[0],
        line_no: pos[1],
    };
    let c = fields(lines.next()?, "counters", 5)?;
    // Every open item and user takes a line of its own, so a declared
    // count beyond the lines left is corruption, not an allocation size.
    let lines_left = lines.clone().count();
    let n_open: usize = field(lines.next()?, "open")?.parse().ok()?;
    if n_open > lines_left {
        return None;
    }
    let mut open = Vec::with_capacity(n_open);
    for _ in 0..n_open {
        let head = fields(lines.next()?, "item", 4)?;
        let n_users = usize::try_from(head[3]).ok().filter(|&n| n <= lines_left)?;
        let mut users = Vec::with_capacity(n_users);
        for _ in 0..n_users {
            let mut it = lines.next()?.split_ascii_whitespace();
            let u: u32 = it.next()?.parse().ok()?;
            let t: u64 = it.next()?.parse().ok()?;
            let s: u64 = it.next()?.parse().ok()?;
            if it.next().is_some() {
                return None;
            }
            users.push((u, t, s));
        }
        open.push(OpenItemState {
            item: head[0] as u32,
            last_seq: head[1],
            folded: head[2],
            users,
        });
    }
    let update_counts = read_u64s(lines.next()?, "update_counts")?;
    let ctx_counts = read_u64s(lines.next()?, "ctx_counts")?;
    let sampler_counts = if v2 {
        ctx_counts.clone()
    } else {
        read_u64s(lines.next()?, "sampler_counts")?
    };
    let initialized: Vec<bool> = read_u64s(lines.next()?, "initialized")?
        .into_iter()
        .map(|v| v != 0)
        .collect();
    if lines.next()? != "store" {
        return None;
    }
    let store_start = text[..body_end].find("\nstore\n")? + "\nstore\n".len();
    let store = EmbeddingStore::load_data(io::Cursor::new(&bytes[store_start..body_end])).ok()?;
    let n = store.len();
    if update_counts.len() != n
        || ctx_counts.len() != n
        || sampler_counts.len() != n
        || initialized.len() != n
    {
        return None;
    }
    Some(SlotParse::Valid(Box::new(JournalState {
        round,
        pos,
        records_seen: c[0],
        records_applied: c[1],
        quarantined: c[2],
        open,
        online: OnlineState {
            store,
            update_counts,
            ctx_counts,
            sampler_counts,
            initialized,
            episodes_applied: c[3],
            pairs_applied: c[4],
        },
    })))
}

fn field<'a>(line: &'a str, tag: &str) -> Option<&'a str> {
    line.strip_prefix(tag)?.strip_prefix(' ').map(str::trim)
}

fn fields(line: &str, tag: &str, n: usize) -> Option<Vec<u64>> {
    let vals: Vec<u64> = field(line, tag)?
        .split_ascii_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    (vals.len() == n).then_some(vals)
}

fn read_u64s(line: &str, tag: &str) -> Option<Vec<u64>> {
    let mut it = field(line, tag)?.split_ascii_whitespace();
    let n: usize = it.next()?.parse().ok()?;
    let vals: Vec<u64> = it.map(|t| t.parse().ok()).collect::<Option<_>>()?;
    (vals.len() == n).then_some(vals)
}

/// Truncates `bytes` off the end of `path` — the soak harness's torn-write
/// simulator (a crash between write and fsync on a less careful design).
pub fn truncate_tail(path: &Path, bytes: u64) -> io::Result<()> {
    let len = fs::metadata(path)?.len();
    let f = fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(len.saturating_sub(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tmp_dir;

    fn sample(round: u64) -> JournalState {
        let mut online = OnlineState::fresh(4, 3);
        online.store.init_row(1, 7);
        online.initialized[1] = true;
        online.update_counts[1] = 5;
        online.ctx_counts[2] = 9;
        online.sampler_counts[2] = 4;
        online.episodes_applied = 3;
        online.pairs_applied = 40;
        JournalState {
            round,
            pos: TailPosition {
                offset: 123,
                line_no: 9,
            },
            records_seen: 11,
            records_applied: 6,
            quarantined: 2,
            open: vec![OpenItemState {
                item: 42,
                last_seq: 11,
                folded: 5,
                users: vec![(0, 10, 3), (2, 4, 1)],
            }],
            online,
        }
    }

    fn assert_same(a: &JournalState, b: &JournalState) {
        assert_eq!(a.round, b.round);
        assert_eq!(a.pos, b.pos);
        assert_eq!(
            (a.records_seen, a.records_applied, a.quarantined),
            (b.records_seen, b.records_applied, b.quarantined)
        );
        assert_eq!(a.open, b.open);
        assert_eq!(a.online.update_counts, b.online.update_counts);
        assert_eq!(a.online.ctx_counts, b.online.ctx_counts);
        assert_eq!(a.online.sampler_counts, b.online.sampler_counts);
        assert_eq!(a.online.initialized, b.online.initialized);
        assert_eq!(a.online.episodes_applied, b.online.episodes_applied);
        assert_eq!(a.online.pairs_applied, b.online.pairs_applied);
        assert_eq!(
            a.online.store.source.to_vec(),
            b.online.store.source.to_vec()
        );
        assert_eq!(
            a.online.store.target.to_vec(),
            b.online.store.target.to_vec()
        );
        assert_eq!(
            a.online.store.bias_src.to_vec(),
            b.online.store.bias_src.to_vec()
        );
        assert_eq!(
            a.online.store.bias_tgt.to_vec(),
            b.online.store.bias_tgt.to_vec()
        );
    }

    /// A v2 slot, written from [`fixture_state`] by the build before slots
    /// were streamed: every later build must still load it.
    const V2_SLOT: &[u8] = include_bytes!("../tests/fixtures/journal-v2.b");

    /// The v3 slot of [`fixture_state`]: its layout, number formatting and
    /// checksum line are what every later v3 build must write and read.
    const V3_SLOT: &[u8] = include_bytes!("../tests/fixtures/journal-v3.b");

    /// `sample(7)` with the float shapes the text format must reproduce:
    /// negative zero, the smallest subnormal, 1e-7, `f32::MAX` and
    /// non-zero biases. Its `sampler_counts` differ from its `ctx_counts`.
    fn fixture_state() -> JournalState {
        let state = sample(7);
        let store = &state.online.store;
        // SAFETY: single-threaded test; no two borrowed rows overlap.
        unsafe {
            let (s0, t3) = (store.source.row_mut(0), store.target.row_mut(3));
            s0.copy_from_slice(&[-0.0, f32::from_bits(1), 1e-7]);
            t3.copy_from_slice(&[f32::MAX, -1.5, 0.1]);
            store.bias_src.row_mut(2)[0] = -0.25;
            store.bias_tgt.row_mut(1)[0] = 3.0e-38;
        }
        state
    }

    #[test]
    fn write_reproduces_the_committed_v3_slot_and_loads_it() {
        let tmp = tmp_dir("journal-v3-write");
        let path = Journal::new(&tmp).unwrap().write(&fixture_state()).unwrap();
        assert_eq!(path.file_name().unwrap(), "journal.b");
        assert!(fs::read(&path).unwrap() == V3_SLOT, "slot bytes moved");

        let tmp = tmp_dir("journal-v3-load");
        fs::write(tmp.join("journal.b"), V3_SLOT).unwrap();
        let loaded = Journal::new(&tmp).unwrap().load_latest().unwrap();
        assert_same(&fixture_state(), &loaded.expect("the committed slot loads"));
    }

    #[test]
    fn the_committed_v2_slot_loads_with_sampler_counts_equal_to_ctx_counts() {
        let tmp = tmp_dir("journal-v2-load");
        fs::write(tmp.join("journal.b"), V2_SLOT).unwrap();
        let loaded = Journal::new(&tmp).unwrap().load_latest().unwrap();
        let loaded = loaded.expect("the committed v2 slot loads");
        let mut want = fixture_state();
        want.online.sampler_counts = want.online.ctx_counts.clone();
        assert_same(&want, &loaded);
    }

    #[test]
    fn roundtrip_is_exact() {
        let tmp = tmp_dir("journal-roundtrip");
        let j = Journal::new(&tmp).unwrap();
        let state = sample(4);
        j.write(&state).unwrap();
        let loaded = j.load_latest().unwrap().expect("snapshot present");
        assert_same(&state, &loaded);
    }

    #[test]
    fn newest_valid_round_wins_across_slots() {
        let tmp = tmp_dir("journal-rounds");
        let j = Journal::new(&tmp).unwrap();
        j.write(&sample(4)).unwrap(); // slot a
        j.write(&sample(5)).unwrap(); // slot b
        assert_eq!(j.load_latest().unwrap().unwrap().round, 5);
        j.write(&sample(6)).unwrap(); // slot a again
        assert_eq!(j.load_latest().unwrap().unwrap().round, 6);
    }

    #[test]
    fn truncated_slot_falls_back_to_previous_round() {
        let tmp = tmp_dir("journal-torn");
        let j = Journal::new(&tmp).unwrap();
        j.write(&sample(4)).unwrap();
        let newest = j.write(&sample(5)).unwrap();
        truncate_tail(&newest, 10).unwrap();
        let loaded = j.load_latest().unwrap().expect("older slot survives");
        assert_eq!(loaded.round, 4);
    }

    #[test]
    fn bitflip_is_rejected_by_checksum() {
        let tmp = tmp_dir("journal-flip");
        let j = Journal::new(&tmp).unwrap();
        let path = j.write(&sample(4)).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, bytes).unwrap();
        assert!(j.load_latest().unwrap().is_none(), "corrupt slot discarded");
    }

    #[test]
    fn oversized_counts_are_corrupt_and_fall_back_to_the_other_slot() {
        for (from, to) in [
            ("open 1\n", "open 18446744073709551615\n"),
            ("item 42 11 5 2\n", "item 42 11 5 18446744073709551615\n"),
        ] {
            let tmp = tmp_dir("journal-oversized");
            let j = Journal::new(&tmp).unwrap();
            j.write(&sample(4)).unwrap();
            let path = j.write(&sample(5)).unwrap();
            // Intact bytes that lie about a count: re-checksummed, so only
            // the structure check can reject them.
            let text = String::from_utf8(fs::read(&path).unwrap()).unwrap();
            let body_end = text.trim_end_matches('\n').rfind('\n').unwrap() + 1;
            let body = text[..body_end].replacen(from, to, 1);
            assert_ne!(body, text[..body_end], "{from:?} is in the slot");
            let rewritten = format!("{body}checksum {:016x}\n", fnv1a(body.as_bytes()));
            fs::write(&path, rewritten).unwrap();
            let loaded = j.load_latest().unwrap().expect("the older slot survives");
            assert_eq!(loaded.round, 4, "{to:?}");
            let _ = fs::remove_dir_all(&tmp);
        }
    }

    #[test]
    fn empty_dir_is_a_fresh_start() {
        let tmp = tmp_dir("journal-fresh");
        let j = Journal::new(&tmp).unwrap();
        assert!(j.load_latest().unwrap().is_none());
    }

    #[test]
    fn shape_mismatch_is_typed() {
        let state = sample(0); // 4 users, k = 3
        assert!(check_shape(&state, 4, 4, 3).is_ok());
        // Growth window: journal may hold more rows than the graph, up to
        // the configured universe.
        assert!(check_shape(&state, 2, 8, 3).is_ok());
        let err = check_shape(&state, 8, 8, 3).unwrap_err();
        assert!(matches!(err, PipelineError::JournalMismatch { .. }));
        let err = check_shape(&state, 2, 3, 3).unwrap_err();
        assert!(matches!(err, PipelineError::JournalMismatch { .. }));
        let err = check_shape(&state, 4, 4, 5).unwrap_err();
        assert!(matches!(err, PipelineError::JournalMismatch { .. }));
    }

    #[test]
    fn foreign_schema_version_fails_typed_with_found_and_expected() {
        let tmp = tmp_dir("journal-schema");
        let j = Journal::new(&tmp).unwrap();
        let path = j.write(&sample(4)).unwrap();
        // Rewrite the slot as a future schema: bump the header version and
        // re-checksum so the bytes are *intact*, just incompatible.
        let text = String::from_utf8(fs::read(&path).unwrap()).unwrap();
        let body_end = text.trim_end_matches('\n').rfind('\n').unwrap() + 1;
        let body = text[..body_end].replacen("inf2vec-journal v3", "inf2vec-journal v9", 1);
        let rewritten = format!("{body}checksum {:016x}\n", fnv1a(body.as_bytes()));
        fs::write(&path, rewritten).unwrap();

        let err = j.load_latest().unwrap_err();
        match err {
            PipelineError::JournalMismatch { detail } => {
                assert!(detail.contains("v9"), "found version named: {detail}");
                assert!(detail.contains("v3"), "expected version named: {detail}");
            }
            other => panic!("expected JournalMismatch, got {other:?}"),
        }
    }

    #[test]
    fn injected_write_fault_leaves_the_slot_untouched() {
        let tmp = tmp_dir("journal-enospc");
        let j = Journal::new(&tmp).unwrap();
        let good = j.write(&sample(4)).unwrap();
        let before = fs::read(&good).unwrap();
        // Round 6 targets the same slot (a). The injected partial write
        // must fail the call and leave the previous round's bytes intact.
        let err = j.write_with(&sample(6), Some(64));
        assert!(err.is_err(), "partial write must surface as an error");
        assert_eq!(fs::read(&good).unwrap(), before, "slot bytes unchanged");
        assert_eq!(j.load_latest().unwrap().unwrap().round, 4);
        // No temp litter left behind.
        let litter: Vec<_> = fs::read_dir(&tmp)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains("tmp"))
            .collect();
        assert!(litter.is_empty(), "temp files cleaned: {litter:?}");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary mangling of one or both slots never panics and
            /// never loses the recovery guarantee: either a valid slot
            /// survives (round ≤ newest written) or the journal reports a
            /// fresh start — unless the mangled bytes still checksum with
            /// a foreign version header, which must fail typed.
            #[test]
            fn mangled_slots_recover_or_fresh_start(
                cut_a in 0usize..4096,
                cut_b in 0usize..4096,
                raw_flip_a in 0usize..2049,
                raw_flip_b in 0usize..2049,
            ) {
                // 2048 is the "don't flip" sentinel (the vendored proptest
                // has no Option strategy).
                let flip_a = (raw_flip_a < 2048).then_some(raw_flip_a);
                let flip_b = (raw_flip_b < 2048).then_some(raw_flip_b);
                let tmp = tmp_dir(&format!(
                    "journal-prop-{cut_a}-{cut_b}-{raw_flip_a}-{raw_flip_b}"
                ));
                let j = Journal::new(&tmp).unwrap();
                j.write(&sample(4)).unwrap();
                j.write(&sample(5)).unwrap();
                for (name, cut, flip) in
                    [("journal.a", cut_a, flip_a), ("journal.b", cut_b, flip_b)]
                {
                    let path = tmp.join(name);
                    let mut bytes = fs::read(&path).unwrap();
                    bytes.truncate(bytes.len().saturating_sub(cut));
                    if let (Some(i), false) = (flip, bytes.is_empty()) {
                        let at = i % bytes.len();
                        bytes[at] ^= 0x41;
                    }
                    fs::write(&path, bytes).unwrap();
                }
                match j.load_latest() {
                    Ok(Some(state)) => prop_assert!(state.round == 4 || state.round == 5),
                    Ok(None) => {} // both slots gone: fresh start is legal
                    Err(PipelineError::JournalMismatch { .. }) => {} // mangled into a "foreign version" that still checksums
                    Err(e) => {
                        return Err(proptest::TestCaseError(format!("unexpected error: {e}")))
                    }
                }
                let _ = fs::remove_dir_all(&tmp);
            }

            /// A slot rewritten with a foreign version header (re-checksummed,
            /// so the bytes are intact) must fail typed, for any version tag
            /// but the two this build reads.
            #[test]
            fn any_foreign_version_is_a_typed_mismatch(v in 0u32..997) {
                let v = if v >= 2 { v + 2 } else { v };
                let tmp = tmp_dir(&format!("journal-prop-v{v}"));
                let j = Journal::new(&tmp).unwrap();
                let path = j.write(&sample(4)).unwrap();
                let text = String::from_utf8(fs::read(&path).unwrap()).unwrap();
                let body_end = text.trim_end_matches('\n').rfind('\n').unwrap() + 1;
                let body = text[..body_end]
                    .replacen("inf2vec-journal v3", &format!("inf2vec-journal v{v}"), 1);
                let rewritten =
                    format!("{body}checksum {:016x}\n", fnv1a(body.as_bytes()));
                fs::write(&path, rewritten).unwrap();
                prop_assert!(matches!(
                    j.load_latest(),
                    Err(PipelineError::JournalMismatch { .. })
                ));
                let _ = fs::remove_dir_all(&tmp);
            }
        }
    }
}

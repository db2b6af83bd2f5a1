//! The versioned model registry: validated loads, atomic hot-swap,
//! last-good rollback, and the bias-only fallback.
//!
//! A [`ModelRegistry`] owns at most one *current* full model (an
//! [`EmbeddingStore`] wrapped in a [`ModelVersion`]) plus the bias-only
//! [`BiasFallback`] distilled from the most recently installed version.
//! Swaps are atomic from the reader's point of view: a reader clones the
//! `Arc` under a short read lock and keeps scoring against that pinned
//! version for the rest of its request, no matter how many swaps land in
//! the meantime. A failed load **never** evicts the serving model — the
//! registry simply keeps answering from the last good version.
//!
//! Every load path validates before publishing:
//!
//! - the snapshot parses (typed [`DataError`]s from
//!   `EmbeddingStore::load_data` for truncation / malformed lines / NaN),
//! - the four matrices agree in shape (source and target `n × k`, both
//!   bias columns `n × 1`),
//! - parameters are all finite ([`EmbeddingStore::has_non_finite`]),
//! - the embedding dimension matches the registry's pin (when set),
//! - the [`store_checksum`] over the parameter bits matches the expected
//!   value (when one is supplied, e.g. from a `.sum` sidecar, whose `fx4`
//!   tag names that checksum). It always detects a change confined to
//!   one word (two adjacent parameters).

use std::hash::Hasher;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use inf2vec_embed::{EmbeddingStore, HogwildMatrix};
use inf2vec_eval::score::RepresentationModel;
use inf2vec_graph::NodeId;
use inf2vec_util::error::{DataError, Inf2vecError};
use inf2vec_util::FxHasher;

/// One immutable, validated model generation.
#[derive(Debug)]
pub struct ModelVersion {
    version: u64,
    label: String,
    checksum: u64,
    store: EmbeddingStore,
}

impl ModelVersion {
    /// Monotonic version number assigned at install time (first install
    /// is version 1).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Caller-supplied label (snapshot path, experiment name, ...).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Content checksum over the parameter bits ([`store_checksum`]),
    /// computed by the install that created this version.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// The underlying parameters.
    pub fn store(&self) -> &EmbeddingStore {
        &self.store
    }

    /// Number of users the model covers.
    pub fn n(&self) -> usize {
        self.store.len()
    }

    /// Embedding dimension.
    pub fn k(&self) -> usize {
        self.store.k()
    }

    /// An Eq. 7 pair scorer over this pinned version, usable anywhere an
    /// `eval` [`RepresentationModel`] is expected.
    pub fn scorer(&self) -> VersionScorer<'_> {
        VersionScorer { store: &self.store }
    }
}

/// [`RepresentationModel`] view over one pinned [`ModelVersion`]:
/// `x(u, v) = S_u · T_v + b_u + b̃_v` (Eq. 3).
#[derive(Debug, Clone, Copy)]
pub struct VersionScorer<'a> {
    store: &'a EmbeddingStore,
}

impl RepresentationModel for VersionScorer<'_> {
    fn pair_score(&self, u: NodeId, v: NodeId) -> f64 {
        self.store.score(u.0, v.0) as f64
    }
}

/// The bias-only degraded scorer: `x(u, v) ≈ b_u + b̃_v`.
///
/// Distilled from every successfully installed version and retained even
/// after the full model is evicted, so the service can keep answering
/// ranked queries (flagged as degraded) from global popularity alone.
/// For models trained without biases the fallback is all-zero — still
/// deterministic and finite, just uninformative.
#[derive(Debug)]
pub struct BiasFallback {
    /// Version of the full model this fallback was distilled from.
    version: u64,
    bias_src: Vec<f32>,
    bias_tgt: Vec<f32>,
}

impl BiasFallback {
    fn from_store(version: u64, store: &EmbeddingStore) -> Self {
        Self {
            version,
            bias_src: store.bias_src.to_vec(),
            bias_tgt: store.bias_tgt.to_vec(),
        }
    }

    /// Version of the full model this fallback came from.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of users covered.
    pub fn len(&self) -> usize {
        self.bias_src.len()
    }

    /// True when the fallback covers no users.
    pub fn is_empty(&self) -> bool {
        self.bias_src.is_empty()
    }

    /// The degraded pair score `b_u + b̃_v`, summed in f64 so two finite
    /// f32 biases can never overflow to infinity.
    pub fn score(&self, u: u32, v: u32) -> f64 {
        self.bias_src[u as usize] as f64 + self.bias_tgt[v as usize] as f64
    }

    /// [`RepresentationModel`] view over the fallback.
    pub fn scorer(&self) -> FallbackScorer<'_> {
        FallbackScorer { fb: self }
    }
}

/// [`RepresentationModel`] view over a [`BiasFallback`].
#[derive(Debug, Clone, Copy)]
pub struct FallbackScorer<'a> {
    fb: &'a BiasFallback,
}

impl RepresentationModel for FallbackScorer<'_> {
    fn pair_score(&self, u: NodeId, v: NodeId) -> f64 {
        self.fb.score(u.0, v.0)
    }
}

/// The store's content checksum: the parameters of source → target →
/// bias → bias̃ as little-endian `u64` words (two `f32::to_bits` per word,
/// low half first; a matrix of odd length ends on a word with a zero high
/// half), each matrix's words fed round-robin into four [`FxHasher`]
/// lanes starting at lane 0, then `n`, `k`, `use_bias` and the four lane
/// states folded into one final Fx state.
///
/// Each Fx step is a bijection of its lane's state for a fixed word, and
/// of the word for a fixed state, so changing any single word — in
/// particular any single parameter — always changes the checksum. Larger
/// changes (negated or swapped rows, `source` and `target` swapped) change
/// it with overwhelming probability, because each lane depends on the
/// order of its words. Reads the parameters in place, and the four lanes
/// are independent multiply chains the CPU overlaps. Stable across
/// platforms.
pub fn store_checksum(store: &EmbeddingStore) -> u64 {
    let mut lanes = [FxHasher::default(); 4];
    for m in [
        &store.source,
        &store.target,
        &store.bias_src,
        &store.bias_tgt,
    ] {
        let mut blocks = m.as_slice().chunks_exact(8);
        for block in &mut blocks {
            for (i, lane) in lanes.iter_mut().enumerate() {
                lane.write_u64(word(block[2 * i], block[2 * i + 1]));
            }
        }
        for (lane, pair) in lanes.iter_mut().zip(blocks.remainder().chunks(2)) {
            lane.write_u64(word(pair[0], pair.get(1).copied().unwrap_or(0.0)));
        }
    }
    let mut h = FxHasher::default();
    h.write_u64(store.len() as u64);
    h.write_u64(store.k() as u64);
    h.write_u8(u8::from(store.use_bias));
    for lane in lanes {
        h.write_u64(lane.finish());
    }
    h.finish()
}

/// Two parameters as one little-endian word: `lo`'s bits, then `hi`'s.
#[inline]
fn word(lo: f32, hi: f32) -> u64 {
    u64::from(lo.to_bits()) | u64::from(hi.to_bits()) << 32
}

/// Names the checksum a `.sum` sidecar holds: [`store_checksum`]'s four
/// Fx lanes.
const SIDECAR_TAG: &str = "fx4";

/// Reads a `<path>.sum` sidecar written by [`write_checksum_sidecar`]:
/// one line, the tag `fx4`, a space, and the checksum as 16 lowercase hex
/// digits. Returns `None` when the sidecar does not exist (checksum
/// verification is then skipped), `Err` when it exists but cannot be
/// parsed. An untagged line is what earlier builds wrote for another
/// checksum: its error asks for a re-export instead of reporting the
/// snapshot corrupt.
pub fn read_checksum_sidecar(snapshot_path: &Path) -> Result<Option<u64>, Inf2vecError> {
    let sidecar = sidecar_path(snapshot_path);
    let text = match std::fs::read_to_string(&sidecar) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(Inf2vecError::Io(e)),
    };
    let trimmed = text.trim();
    let invalid = |message: String| Inf2vecError::Data(DataError::Invalid { message });
    let Some(hex) = trimmed
        .strip_prefix(SIDECAR_TAG)
        .and_then(|rest| rest.strip_prefix(' '))
    else {
        return Err(invalid(format!(
            "checksum sidecar {} lacks the {SIDECAR_TAG:?} tag: {trimmed:?}; earlier builds \
             wrote another checksum untagged, re-export the snapshot",
            sidecar.display()
        )));
    };
    match u64::from_str_radix(hex, 16) {
        Ok(sum) if hex.len() == 16 => Ok(Some(sum)),
        _ => Err(invalid(format!(
            "checksum sidecar {} is not {SIDECAR_TAG:?} and 16 hex digits: {trimmed:?}",
            sidecar.display()
        ))),
    }
}

/// Writes the `<path>.sum` sidecar next to a snapshot so later loads can
/// verify integrity: `fx4 <16 hex digits>`. Returns the checksum it wrote.
///
/// The write is atomic (temp sibling + fsync + rename, same semantics as
/// checkpoints): a crash mid-publish leaves either the previous sidecar
/// or the new one, never a torn file that would fail a valid snapshot.
pub fn write_checksum_sidecar(
    snapshot_path: &Path,
    store: &EmbeddingStore,
) -> Result<u64, Inf2vecError> {
    let sum = store_checksum(store);
    inf2vec_util::atomic_write(&sidecar_path(snapshot_path), |w| {
        use std::io::Write;
        writeln!(w, "{SIDECAR_TAG} {sum:016x}")
    })
    .map_err(Inf2vecError::Io)?;
    Ok(sum)
}

fn sidecar_path(snapshot_path: &Path) -> std::path::PathBuf {
    let mut os = snapshot_path.as_os_str().to_os_string();
    os.push(".sum");
    std::path::PathBuf::from(os)
}

/// Thread-safe versioned registry with atomic hot-swap.
///
/// Readers pin a version with [`ModelRegistry::current`] (an `Arc`
/// clone under a short read lock) and score against it unlocked; writers
/// publish a fully validated replacement with one pointer store. The
/// fallback distilled from the latest successful install survives
/// eviction of the full model.
#[derive(Debug)]
pub struct ModelRegistry {
    current: RwLock<Option<Arc<ModelVersion>>>,
    fallback: RwLock<Option<Arc<BiasFallback>>>,
    next_version: AtomicU64,
    expect_k: Option<usize>,
}

impl ModelRegistry {
    /// An empty registry. `expect_k` pins the embedding dimension every
    /// installed model must have (`None` accepts any).
    pub fn new(expect_k: Option<usize>) -> Self {
        Self {
            current: RwLock::new(None),
            fallback: RwLock::new(None),
            next_version: AtomicU64::new(0),
            expect_k,
        }
    }

    /// The currently serving version, pinned. `None` when no model is
    /// installed (or the last one was evicted).
    pub fn current(&self) -> Option<Arc<ModelVersion>> {
        self.current.read().expect("registry lock poisoned").clone()
    }

    /// The retained bias-only fallback, pinned.
    pub fn fallback(&self) -> Option<Arc<BiasFallback>> {
        self.fallback
            .read()
            .expect("registry lock poisoned")
            .clone()
    }

    /// Version number of the currently serving model (0 when none).
    pub fn current_version(&self) -> u64 {
        self.current().map_or(0, |m| m.version())
    }

    /// Total versions ever installed.
    pub fn installed_count(&self) -> u64 {
        self.next_version.load(Ordering::Relaxed)
    }

    /// Validates and atomically installs `store` as the new current
    /// version, returning the pinned version. On any validation failure
    /// the previously serving model keeps serving untouched.
    pub fn install(
        &self,
        store: EmbeddingStore,
        label: &str,
    ) -> Result<Arc<ModelVersion>, Inf2vecError> {
        self.install_checked(store, label, None)
    }

    /// [`ModelRegistry::install`] with checksum verification: when
    /// `expected_checksum` is `Some`, the store's computed checksum must
    /// match it.
    pub fn install_checked(
        &self,
        store: EmbeddingStore,
        label: &str,
        expected_checksum: Option<u64>,
    ) -> Result<Arc<ModelVersion>, Inf2vecError> {
        if store.is_empty() {
            return Err(Inf2vecError::Data(DataError::Invalid {
                message: format!("model {label:?} covers zero users"),
            }));
        }
        // The fields are public, so a store built by hand can disagree
        // with itself; scoring slices every row to `k`.
        let (n, k) = (store.len(), store.k());
        let fits = |m: &HogwildMatrix, cols| m.rows() == n && m.cols() == cols;
        if !(fits(&store.target, k) && fits(&store.bias_src, 1) && fits(&store.bias_tgt, 1)) {
            return Err(Inf2vecError::Data(DataError::Invalid {
                message: format!(
                    "model {label:?} matrices disagree in shape: source {n}x{k}, \
                     target {}x{}, biases {}x{} and {}x{}",
                    store.target.rows(),
                    store.target.cols(),
                    store.bias_src.rows(),
                    store.bias_src.cols(),
                    store.bias_tgt.rows(),
                    store.bias_tgt.cols()
                ),
            }));
        }
        if let Some(k) = self.expect_k {
            if store.k() != k {
                return Err(Inf2vecError::Data(DataError::Invalid {
                    message: format!(
                        "model {label:?} has dimension k={}, registry expects k={k}",
                        store.k()
                    ),
                }));
            }
        }
        if store.has_non_finite() {
            return Err(Inf2vecError::Data(DataError::NonFinite {
                what: "model parameters",
                line: 0,
            }));
        }
        let checksum = store_checksum(&store);
        if let Some(expected) = expected_checksum {
            if checksum != expected {
                return Err(Inf2vecError::Data(DataError::Invalid {
                    message: format!(
                        "model {label:?} checksum mismatch: expected {expected:016x}, \
                         computed {checksum:016x}"
                    ),
                }));
            }
        }
        // Validation passed — only now does the swap become visible.
        Ok(self.swap_in(store, label, checksum))
    }

    /// Installs `store` with no validation at all: a model no load path
    /// accepts, for tests of what serving does when one gets through.
    #[cfg(test)]
    pub(crate) fn install_unchecked(&self, store: EmbeddingStore, label: &str) {
        let checksum = store_checksum(&store);
        self.swap_in(store, label, checksum);
    }

    fn swap_in(&self, store: EmbeddingStore, label: &str, checksum: u64) -> Arc<ModelVersion> {
        let version = self.next_version.fetch_add(1, Ordering::Relaxed) + 1;
        let model = Arc::new(ModelVersion {
            version,
            label: label.to_string(),
            checksum,
            store,
        });
        let fb = Arc::new(BiasFallback::from_store(version, &model.store));
        // Fallback first: a reader that misses the new current must still
        // find a fallback at least as new as whatever current it saw.
        *self.fallback.write().expect("registry lock poisoned") = Some(fb);
        *self.current.write().expect("registry lock poisoned") = Some(Arc::clone(&model));
        model
    }

    /// Parses, validates, and installs a snapshot from an arbitrary
    /// reader (the chaos harness wraps fault injectors here).
    pub fn load_from_reader<R: Read>(
        &self,
        label: &str,
        reader: R,
        expected_checksum: Option<u64>,
    ) -> Result<Arc<ModelVersion>, Inf2vecError> {
        let store = load_store(BufReader::new(reader))?;
        self.install_checked(store, label, expected_checksum)
    }

    /// Loads a snapshot file, verifying against a `<path>.sum` sidecar
    /// when one exists.
    pub fn load_from_path(&self, path: &Path) -> Result<Arc<ModelVersion>, Inf2vecError> {
        let expected = read_checksum_sidecar(path)?;
        let file = std::fs::File::open(path).map_err(Inf2vecError::Io)?;
        self.load_from_reader(&path.display().to_string(), file, expected)
    }

    /// Evicts the given version if it is still serving (readers that
    /// already pinned it keep their `Arc`). The fallback survives. Returns
    /// true when this call performed the eviction — concurrent detectors
    /// of the same bad version race benignly, and a version installed
    /// *after* the bad one is never evicted by a stale complaint.
    pub fn evict(&self, version: u64) -> bool {
        let mut cur = self.current.write().expect("registry lock poisoned");
        match cur.as_ref() {
            Some(m) if m.version() == version => {
                *cur = None;
                true
            }
            _ => false,
        }
    }
}

fn load_store<R: BufRead>(r: R) -> Result<EmbeddingStore, Inf2vecError> {
    EmbeddingStore::load_data(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(n: usize, k: usize, seed: u64) -> EmbeddingStore {
        EmbeddingStore::new(n, k, seed)
    }

    #[test]
    fn install_assigns_monotonic_versions_and_distills_fallback() {
        let reg = ModelRegistry::new(Some(4));
        assert!(reg.current().is_none());
        let v1 = reg.install(store(8, 4, 1), "a").unwrap();
        let v2 = reg.install(store(8, 4, 2), "b").unwrap();
        assert_eq!(v1.version(), 1);
        assert_eq!(v2.version(), 2);
        assert_eq!(reg.current_version(), 2);
        assert_eq!(reg.fallback().unwrap().version(), 2);
        assert_eq!(reg.fallback().unwrap().len(), 8);
        assert_eq!(reg.installed_count(), 2);
        // The pinned v1 Arc still scores even though v2 now serves.
        let _ = v1.store().score(0, 1);
    }

    #[test]
    fn failed_install_keeps_last_good_model() {
        let reg = ModelRegistry::new(Some(4));
        reg.install(store(8, 4, 1), "good").unwrap();
        // Wrong dimension.
        let err = reg.install(store(8, 2, 2), "bad-k").unwrap_err();
        assert!(err.to_string().contains("expects k=4"), "{err}");
        // Non-finite parameters.
        let bad = store(4, 4, 3);
        unsafe { bad.source.row_mut(0)[0] = f32::NAN };
        assert!(matches!(
            reg.install(bad, "bad-nan"),
            Err(Inf2vecError::Data(DataError::NonFinite { .. }))
        ));
        // The good model never stopped serving.
        let cur = reg.current().unwrap();
        assert_eq!(cur.version(), 1);
        assert_eq!(cur.label(), "good");
        assert_eq!(reg.fallback().unwrap().version(), 1);
    }

    #[test]
    fn matrices_that_disagree_in_shape_are_refused() {
        let reg = ModelRegistry::new(Some(4));
        reg.install(store(8, 4, 1), "good").unwrap();
        let mut narrow = store(8, 4, 2);
        narrow.target = HogwildMatrix::zeros(8, 3);
        let mut short = store(8, 4, 3);
        short.target = HogwildMatrix::zeros(7, 4);
        let mut wide_bias = store(8, 4, 4);
        wide_bias.bias_tgt = HogwildMatrix::zeros(8, 2);
        let mut short_bias = store(8, 4, 5);
        short_bias.bias_src = HogwildMatrix::zeros(6, 1);
        for (bad, label) in [
            (narrow, "narrow-target"),
            (short, "short-target"),
            (wide_bias, "wide-bias"),
            (short_bias, "short-bias"),
        ] {
            let err = reg.install(bad, label).unwrap_err();
            assert!(
                matches!(&err, Inf2vecError::Data(DataError::Invalid { message })
                    if message.contains("disagree in shape")),
                "{label}: {err}"
            );
        }
        assert_eq!(reg.current().unwrap().label(), "good");
        assert_eq!(reg.installed_count(), 1);
    }

    #[test]
    fn checksum_roundtrip_and_mismatch() {
        let s = store(6, 3, 9);
        let sum = store_checksum(&s);
        assert_eq!(sum, store_checksum(&s), "checksum must be deterministic");
        let reg = ModelRegistry::new(None);
        reg.install_checked(store(6, 3, 9), "ok", Some(sum)).unwrap();
        let err = reg
            .install_checked(store(6, 3, 10), "tampered", Some(sum))
            .unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // One bit flipped after the checksum was taken.
        let flipped = store(6, 3, 9);
        flip_bit(&flipped.target, 17, 3);
        let err = reg
            .install_checked(flipped, "bit-flipped", Some(sum))
            .unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // The mismatches did not evict the good install.
        assert_eq!(reg.current_version(), 1);
    }

    /// Flips bit `bit` of the `i`-th parameter (row-major) of `m`.
    fn flip_bit(m: &inf2vec_embed::HogwildMatrix, i: usize, bit: u32) {
        let (r, c) = (i / m.cols(), i % m.cols());
        // SAFETY: single-threaded test, one row borrow at a time.
        let slot = unsafe { &mut m.row_mut(r)[c] };
        *slot = f32::from_bits(slot.to_bits() ^ (1 << bit));
    }

    /// n = 3, k = 5 with non-zero biases: 36 parameters, and no matrix
    /// length is a multiple of the checksum's 8-parameter block.
    fn odd_store() -> EmbeddingStore {
        let s = store(3, 5, 21);
        for u in 0..3 {
            // SAFETY: single-threaded test, one row borrow at a time.
            unsafe {
                s.bias_src.row_mut(u)[0] = 0.25 + u as f32;
                s.bias_tgt.row_mut(u)[0] = -0.5 - u as f32;
            }
        }
        s
    }

    fn matrices(s: &EmbeddingStore) -> [&inf2vec_embed::HogwildMatrix; 4] {
        [&s.source, &s.target, &s.bias_src, &s.bias_tgt]
    }

    #[test]
    fn checksum_detects_every_single_bit_flip() {
        let clean = store_checksum(&odd_store());
        let lens = matrices(&odd_store()).map(|m| m.as_slice().len());
        assert_eq!(lens, [15, 15, 3, 3]);
        for (which, len) in lens.into_iter().enumerate() {
            for i in 0..len {
                for bit in 0..32 {
                    let s = odd_store();
                    flip_bit(matrices(&s)[which], i, bit);
                    assert_ne!(
                        store_checksum(&s),
                        clean,
                        "matrix {which}, parameter {i}, bit {bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn checksum_covers_flags_and_structure() {
        let clean = store_checksum(&odd_store());

        let mut s = odd_store();
        s.use_bias = false;
        assert_ne!(store_checksum(&s), clean, "use_bias toggled");

        // Negating a row flips an even number of sign bits (the pipeline's
        // poisoned-snapshot pattern).
        let s = odd_store();
        // SAFETY: single-threaded test, one row borrow at a time.
        unsafe { s.source.row_mut(1).iter_mut().for_each(|x| *x = -*x) };
        assert_ne!(store_checksum(&s), clean, "source row negated");

        let s = odd_store();
        let (r0, r2) = (s.source.row(0).to_vec(), s.source.row(2).to_vec());
        // SAFETY: single-threaded test, one row borrow at a time.
        unsafe {
            s.source.row_mut(0).copy_from_slice(&r2);
            s.source.row_mut(2).copy_from_slice(&r0);
        }
        assert_ne!(store_checksum(&s), clean, "source rows swapped");

        let mut s = odd_store();
        std::mem::swap(&mut s.source, &mut s.target);
        assert_ne!(store_checksum(&s), clean, "source and target swapped");
    }

    #[test]
    fn reader_load_rejects_corrupt_and_keeps_serving() {
        let reg = ModelRegistry::new(None);
        let s = store(5, 2, 4);
        let mut bytes = Vec::new();
        s.save(&mut bytes).unwrap();
        reg.load_from_reader("v1", &bytes[..], Some(store_checksum(&s)))
            .unwrap();
        // Truncated stream fails with a typed error; v1 keeps serving.
        let cut = &bytes[..bytes.len() / 2];
        let err = reg.load_from_reader("v2", cut, None).unwrap_err();
        assert!(matches!(err, Inf2vecError::Data(_)), "{err}");
        assert_eq!(reg.current_version(), 1);
    }

    #[test]
    fn cross_version_row_growth_under_concurrent_readers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        // The registry pins k only — n is allowed to differ across
        // versions, because the continuous-learning pipeline grows the
        // model's row space when the stream introduces unseen user ids.
        let reg = Arc::new(ModelRegistry::new(Some(4)));
        reg.install_checked(store(8, 4, 1), "base-n8", None).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        // Each reader reports the version of a finished round whenever it
        // changes, so the writer can wait for every reader to have served
        // each install before replacing it.
        let (done_tx, done_rx) = std::sync::mpsc::channel::<(usize, u64)>();
        let readers: Vec<_> = (0..4)
            .map(|id| {
                let reg = Arc::clone(&reg);
                let stop = Arc::clone(&stop);
                let done = done_tx.clone();
                std::thread::spawn(move || {
                    let (mut rounds, mut reported) = (0u64, 0u64);
                    while !stop.load(Ordering::Relaxed) {
                        // A pinned version is immutable for the whole
                        // request: same pair, same answer, no tear, even
                        // while a larger-n install swaps underneath.
                        let cur = reg.current().expect("a model is always serving");
                        assert!(cur.n() >= 8 && cur.k() == 4);
                        for u in 0..8u32 {
                            let a = cur.store().score(u, (u + 1) % 8);
                            assert!(a.is_finite(), "pre-growth id scores sanely");
                            assert_eq!(a, cur.store().score(u, (u + 1) % 8));
                        }
                        // The whole row space this version advertises is
                        // addressable — n() and the store agree.
                        let hi = (cur.n() - 1) as u32;
                        assert!(cur.store().score(hi, 0).is_finite());
                        // The bias fallback is distilled *before* the
                        // current pointer swaps, so a reader never sees a
                        // current version newer than its fallback.
                        let fb = reg.fallback().expect("fallback distilled");
                        assert!(
                            fb.version() >= cur.version(),
                            "fallback {} lags current {}",
                            fb.version(),
                            cur.version()
                        );
                        assert!(fb.score(0, 1).is_finite());
                        rounds += 1;
                        if cur.version() != reported {
                            reported = cur.version();
                            let _ = done.send((id, reported));
                        }
                    }
                    rounds
                })
            })
            .collect();
        // Blocks until every reader has finished a round on `version`. A
        // reader that dies drops its sender; the timeout turns that into a
        // failure instead of a hang.
        let await_readers = |version: u64| {
            let mut seen = [0u64; 4];
            while seen.iter().any(|&v| v < version) {
                let (id, v) = done_rx
                    .recv_timeout(std::time::Duration::from_secs(60))
                    .expect("every reader finishes a round on each install");
                seen[id] = seen[id].max(v);
            }
        };

        // Writer: a sequence of strictly growing row spaces, each installed
        // only after every reader has served the one before.
        await_readers(reg.current_version());
        let mut pinned_early = reg.current().unwrap();
        for (i, n) in [10usize, 12, 14, 16].into_iter().enumerate() {
            let s = store(n, 4, 10 + i as u64);
            let sum = store_checksum(&s);
            reg.install_checked(s, &format!("grown-n{n}"), Some(sum)).unwrap();
            await_readers(reg.current_version());
            pinned_early = reg.current().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "readers actually overlapped installs");
        }

        let cur = reg.current().unwrap();
        assert_eq!(cur.n(), 16, "the largest install serves");
        assert_eq!(cur.version(), pinned_early.version());
        // Fallback refreshed to the grown row space.
        let fb = reg.fallback().unwrap();
        assert_eq!(fb.version(), cur.version());
        assert_eq!(fb.len(), 16);
        // Pre-growth ids keep sane scores on both the full scorer and
        // the degraded bias path; post-growth rows are addressable too.
        for u in 0..8u32 {
            assert!(cur.store().score(u, (u + 1) % 8).is_finite());
            assert!(fb.score(u, (u + 1) % 8).is_finite());
        }
        assert!(cur.store().score(15, 3).is_finite());
        assert!(fb.score(15, 3).is_finite());
    }

    #[test]
    fn sidecar_roundtrip_and_eviction() {
        let dir = std::env::temp_dir().join(format!("inf2vec_serve_reg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.txt");
        let s = store(4, 2, 7);
        s.save_to_path(&path).unwrap();
        let sum = write_checksum_sidecar(&path, &s).unwrap();
        assert_eq!(read_checksum_sidecar(&path).unwrap(), Some(sum));

        let reg = ModelRegistry::new(None);
        let m = reg.load_from_path(&path).unwrap();
        assert_eq!(m.checksum(), sum);

        assert_eq!(
            std::fs::read_to_string(sidecar_path(&path)).unwrap(),
            format!("fx4 {sum:016x}\n")
        );

        // Tamper with the sidecar: the load must now fail closed.
        std::fs::write(sidecar_path(&path), "fx4 0000000000000001\n").unwrap();
        assert!(reg.load_from_path(&path).is_err());

        // An untagged sidecar, as earlier builds wrote, fails typed and
        // asks for a re-export; the serving model is unchanged.
        std::fs::write(sidecar_path(&path), format!("{sum:016x}\n")).unwrap();
        for err in [
            read_checksum_sidecar(&path).unwrap_err(),
            reg.load_from_path(&path).unwrap_err(),
        ] {
            let Inf2vecError::Data(DataError::Invalid { message }) = &err else {
                panic!("untagged sidecar must fail as DataError::Invalid, got {err:?}");
            };
            assert!(
                message.contains("\"fx4\"") && message.contains("re-export"),
                "{message}"
            );
        }
        let cur = reg.current().unwrap();
        assert_eq!((cur.version(), cur.checksum()), (m.version(), sum));

        // Eviction clears current but keeps the fallback; stale evictions
        // of already-replaced versions are no-ops.
        assert!(reg.evict(m.version()));
        assert!(!reg.evict(m.version()));
        assert!(reg.current().is_none());
        assert_eq!(reg.fallback().unwrap().version(), m.version());
        std::fs::remove_dir_all(&dir).ok();
    }
}

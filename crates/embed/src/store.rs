//! The embedding parameter store of Definition 2.
//!
//! Every user `u` owns four learned quantities: a source vector `S_u ∈ R^K`
//! (capability to influence), a target vector `T_u ∈ R^K` (tendency to be
//! influenced), an influence-ability bias `b_u`, and a conformity bias
//! `b̃_u`. The propagation score is `x(u, v) = S_u · T_v + b_u + b̃_v`
//! (Eq. 3's logit / Eq. 7's per-pair likelihood).

use std::io::{BufRead, Write};
use std::path::Path;

use inf2vec_util::error::{DataError, Inf2vecError};
use inf2vec_util::fsio::atomic_write;
use inf2vec_util::rng::Xoshiro256pp;

use crate::hogwild::{dot, HogwildMatrix};

/// A plain-data copy of every learned parameter, taken between epochs.
///
/// The divergence guard snapshots the store after each healthy epoch and
/// [restores](EmbeddingStore::restore) it when the loss blows up, so a bad
/// learning-rate excursion never becomes the model's final state.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    source: Vec<f32>,
    target: Vec<f32>,
    bias_src: Vec<f32>,
    bias_tgt: Vec<f32>,
}

/// Per-node source/target embeddings and biases.
#[derive(Debug, Clone)]
pub struct EmbeddingStore {
    /// Source matrix `S` (n × k).
    pub source: HogwildMatrix,
    /// Target matrix `T` (n × k).
    pub target: HogwildMatrix,
    /// Influence-ability biases `b` (n × 1).
    pub bias_src: HogwildMatrix,
    /// Conformity biases `b̃` (n × 1).
    pub bias_tgt: HogwildMatrix,
    /// Whether biases participate in scores and receive gradients (the
    /// paper's model has them; the ablation bench turns them off).
    pub use_bias: bool,
}

impl EmbeddingStore {
    /// Initializes per Algorithm 2 line 1: `S, T ~ U[-1/K, 1/K]`, biases 0.
    pub fn new(n: usize, k: usize, seed: u64) -> Self {
        assert!(k > 0, "dimension must be positive");
        assert!(n > 0, "need at least one node");
        let mut rng = Xoshiro256pp::new(seed);
        let scale = 1.0 / k as f32;
        Self {
            source: HogwildMatrix::uniform(n, k, scale, &mut rng),
            target: HogwildMatrix::uniform(n, k, scale, &mut rng),
            bias_src: HogwildMatrix::zeros(n, 1),
            bias_tgt: HogwildMatrix::zeros(n, 1),
            use_bias: true,
        }
    }

    /// An all-zero store for online training: rows are lazily filled on a
    /// node's first appearance via [`init_row`](Self::init_row), so a
    /// continuous pipeline pays initialization only for users it has
    /// actually seen.
    pub fn zeroed(n: usize, k: usize) -> Self {
        assert!(k > 0, "dimension must be positive");
        assert!(n > 0, "need at least one node");
        Self {
            source: HogwildMatrix::zeros(n, k),
            target: HogwildMatrix::zeros(n, k),
            bias_src: HogwildMatrix::zeros(n, 1),
            bias_tgt: HogwildMatrix::zeros(n, 1),
            use_bias: true,
        }
    }

    /// Grows the store to `n` rows, the new rows zeroed (they initialize
    /// lazily on first touch like any other row — [`init_row`](Self::init_row)
    /// keys on `(seed, u)`, so a row's values do not depend on *when* the
    /// store grew). Requires `&mut self`: growth is a single-threaded
    /// control-point operation, never concurrent with training or serving.
    /// A no-op when `n` is not larger than the current row count.
    pub fn grow(&mut self, n: usize) {
        self.source.grow_rows(n);
        self.target.grow_rows(n);
        self.bias_src.grow_rows(n);
        self.bias_tgt.grow_rows(n);
    }

    /// Initializes node `u`'s vectors from `U[-1/K, 1/K]` (biases stay 0)
    /// using a per-row random stream split from `seed` — the result
    /// depends only on `(seed, u)`, never on the order rows are touched,
    /// so lazy initialization replays bit-identically after a crash.
    ///
    /// Caller contract: no concurrent access to row `u` (the online
    /// trainer is single-threaded over the store).
    pub fn init_row(&self, u: u32, seed: u64) {
        let scale = 1.0 / self.k() as f32;
        // Double split: the outer stream id namespaces row-init away from
        // every other per-`u` stream derived from the same seed.
        let row_seed =
            inf2vec_util::split_seed(inf2vec_util::split_seed(seed, 0x1417), u as u64);
        let mut rng = Xoshiro256pp::new(row_seed);
        // SAFETY: one row borrow at a time; exclusivity per the contract.
        unsafe {
            for slot in self.source.row_mut(u as usize) {
                *slot = (rng.next_f32() * 2.0 - 1.0) * scale;
            }
            for slot in self.target.row_mut(u as usize) {
                *slot = (rng.next_f32() * 2.0 - 1.0) * scale;
            }
        }
    }

    /// Embedding dimension K.
    #[inline]
    pub fn k(&self) -> usize {
        self.source.cols()
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.source.rows()
    }

    /// Always false (constructor rejects empty stores).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Source vector `S_u`.
    #[inline]
    pub fn s(&self, u: u32) -> &[f32] {
        self.source.row(u as usize)
    }

    /// Target vector `T_v`.
    #[inline]
    pub fn t(&self, v: u32) -> &[f32] {
        self.target.row(v as usize)
    }

    /// Influence-ability bias `b_u` (0 when biases are disabled).
    #[inline]
    pub fn b(&self, u: u32) -> f32 {
        if self.use_bias {
            self.bias_src.row(u as usize)[0]
        } else {
            0.0
        }
    }

    /// Conformity bias `b̃_v` (0 when biases are disabled).
    #[inline]
    pub fn b_tilde(&self, v: u32) -> f32 {
        if self.use_bias {
            self.bias_tgt.row(v as usize)[0]
        } else {
            0.0
        }
    }

    /// The propagation score `x(u, v) = S_u · T_v + b_u + b̃_v`.
    #[inline]
    pub fn score(&self, u: u32, v: u32) -> f32 {
        dot(self.s(u), self.t(v)) + self.b(u) + self.b_tilde(v)
    }

    /// Concatenated `[S_u ; T_u]` representation, as used for the t-SNE
    /// visualization (§V-B3).
    pub fn concat(&self, u: u32) -> Vec<f32> {
        let mut out = Vec::with_capacity(2 * self.k());
        out.extend_from_slice(self.s(u));
        out.extend_from_slice(self.t(u));
        out
    }

    /// Copies every parameter out into a [`StoreSnapshot`].
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            source: self.source.to_vec(),
            target: self.target.to_vec(),
            bias_src: self.bias_src.to_vec(),
            bias_tgt: self.bias_tgt.to_vec(),
        }
    }

    /// Overwrites every parameter from `snap` through a shared reference,
    /// after validating that the snapshot matches this store's shape and
    /// contains only finite values.
    ///
    /// Intended for inter-epoch rollback and serving-side hot swaps: the
    /// caller must guarantee no training thread is concurrently touching
    /// the store (the trainer only restores after all workers of an epoch
    /// have joined).
    pub fn try_restore(&self, snap: &StoreSnapshot) -> Result<(), DataError> {
        let n = self.len();
        let k = self.k();
        if snap.source.len() != n * k
            || snap.target.len() != n * k
            || snap.bias_src.len() != n
            || snap.bias_tgt.len() != n
        {
            return Err(DataError::Invalid {
                message: format!(
                    "snapshot shape mismatch: store is {n}×{k}, snapshot holds \
                     {}/{} vector and {}/{} bias entries",
                    snap.source.len(),
                    snap.target.len(),
                    snap.bias_src.len(),
                    snap.bias_tgt.len()
                ),
            });
        }
        let finite = |v: &[f32]| v.iter().all(|x| x.is_finite());
        if !finite(&snap.source)
            || !finite(&snap.target)
            || !finite(&snap.bias_src)
            || !finite(&snap.bias_tgt)
        {
            return Err(DataError::NonFinite {
                what: "store snapshot",
                line: 0,
            });
        }
        // SAFETY: one row borrow at a time per matrix; exclusivity across
        // threads is the caller contract documented above.
        unsafe {
            for u in 0..n {
                self.source.row_mut(u).copy_from_slice(&snap.source[u * k..(u + 1) * k]);
                self.target.row_mut(u).copy_from_slice(&snap.target[u * k..(u + 1) * k]);
                self.bias_src.row_mut(u)[0] = snap.bias_src[u];
                self.bias_tgt.row_mut(u)[0] = snap.bias_tgt[u];
            }
        }
        Ok(())
    }

    /// Panicking shim over [`try_restore`](Self::try_restore) for callers
    /// that restore a snapshot taken from this very store (the divergence
    /// guard), where a mismatch is a bug rather than an input error.
    pub fn restore(&self, snap: &StoreSnapshot) {
        self.try_restore(snap)
            .expect("restore: snapshot must match the store's shape and be finite");
    }

    /// True when any parameter is NaN or infinite. Scans the matrices in
    /// place, without an early exit inside one, so the scan vectorizes.
    pub fn has_non_finite(&self) -> bool {
        [&self.source, &self.target, &self.bias_src, &self.bias_tgt]
            .iter()
            .any(|m| {
                m.as_slice()
                    .iter()
                    .fold(false, |bad, x| bad | !x.is_finite())
            })
    }

    /// Writes the store as text: a header line `n k use_bias`, then one
    /// line per node: `S... T... b b̃`.
    ///
    /// Refuses to serialize non-finite parameters: a NaN that reached a
    /// model file would silently poison every downstream score, so it is
    /// surfaced here as `InvalidData` instead.
    pub fn save<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        use std::fmt::Write as _;
        const INFALLIBLE: &str = "formatting into a String cannot fail";
        if self.has_non_finite() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "refusing to save embedding store with non-finite parameters",
            ));
        }
        writeln!(w, "{} {} {}", self.len(), self.k(), u8::from(self.use_bias))?;
        let mut line = String::new();
        for u in 0..self.len() {
            line.clear();
            for x in self.source.row(u).iter().chain(self.target.row(u)) {
                write!(line, "{x} ").expect(INFALLIBLE);
            }
            let (b, b_tilde) = (self.bias_src.row(u)[0], self.bias_tgt.row(u)[0]);
            writeln!(line, "{b} {b_tilde}").expect(INFALLIBLE);
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    /// Atomically writes the store to `path` (temp sibling + fsync +
    /// rename): a crash mid-save leaves any previous file intact.
    pub fn save_to_path(&self, path: &Path) -> Result<(), Inf2vecError> {
        atomic_write(path, |f| {
            let mut w = std::io::BufWriter::new(f);
            self.save(&mut w)?;
            w.flush()
        })?;
        Ok(())
    }

    /// Reads a store from `path`, rejecting malformed or non-finite data
    /// with the typed [`DataError`] (line numbers included).
    pub fn load_from_path(path: &Path) -> Result<Self, Inf2vecError> {
        let file = std::fs::File::open(path)?;
        Self::load_data(std::io::BufReader::new(file))
    }

    /// Reads a store written by [`save`](Self::save), returning a typed
    /// error on rejection.
    ///
    /// Rejections map onto the [`DataError`] taxonomy: a stream that ends
    /// before the declared `n` rows is [`DataError::Truncated`], a row that
    /// does not parse (bad float, wrong field count) is
    /// [`DataError::Malformed`] with its 1-based line number, and a value
    /// that parses but is NaN/Inf is [`DataError::NonFinite`] — `f32`
    /// parsing happily accepts `"NaN"` and `"inf"`, and a corrupted or
    /// hand-edited snapshot must not smuggle those into serving scores.
    pub fn load_data<R: BufRead>(mut r: R) -> Result<Self, Inf2vecError> {
        let malformed = |line: usize, content: &str| {
            Inf2vecError::Data(DataError::Malformed {
                line,
                content: content.trim_end().chars().take(80).collect(),
            })
        };
        let mut header = String::new();
        if r.read_line(&mut header)? == 0 {
            return Err(DataError::Truncated {
                what: "embedding store header",
            }
            .into());
        }
        let mut parts = header.split_whitespace();
        let mut field = |what: &'static str| {
            parts
                .next()
                .and_then(|s| s.parse::<usize>().ok())
                .ok_or_else(|| {
                    Inf2vecError::Data(DataError::Invalid {
                        message: format!("store header missing {what}: {:?}", header.trim_end()),
                    })
                })
        };
        let n = field("n")?;
        let k = field("k")?;
        let use_bias = field("bias flag")?;
        if n == 0 || k == 0 || n.checked_mul(k).is_none() {
            return Err(DataError::Invalid {
                message: format!("store shape n={n}, k={k} is empty or overflows"),
            }
            .into());
        }

        // Storage grows as rows arrive: the header's n×k is a claim the
        // body has to back, not an allocation size.
        let (mut source, mut target) = (Vec::new(), Vec::new());
        let (mut bias_src, mut bias_tgt) = (Vec::new(), Vec::new());
        let mut line = String::new();
        for u in 0..n {
            let lineno = u + 2; // 1-based; line 1 is the header.
            line.clear();
            if r.read_line(&mut line)? == 0 {
                return Err(DataError::Truncated {
                    what: "embedding store body",
                }
                .into());
            }
            let mut vals = line.split_whitespace().map(|s| s.parse::<f32>());
            let mut next_finite = || -> Result<f32, Inf2vecError> {
                let x = vals
                    .next()
                    .ok_or_else(|| malformed(lineno, &line))?
                    .map_err(|_| malformed(lineno, &line))?;
                if !x.is_finite() {
                    return Err(DataError::NonFinite {
                        what: "embedding store",
                        line: lineno,
                    }
                    .into());
                }
                Ok(x)
            };
            for row in [&mut source, &mut target] {
                for _ in 0..k {
                    row.push(next_finite()?);
                }
            }
            bias_src.push(next_finite()?);
            bias_tgt.push(next_finite()?);
            if vals.next().is_some() {
                return Err(malformed(lineno, &line));
            }
        }
        let mut store = Self::zeroed(n, k);
        store.use_bias = use_bias != 0;
        store.source.copy_from(&source);
        store.target.copy_from(&target);
        store.bias_src.copy_from(&bias_src);
        store.bias_tgt.copy_from(&bias_tgt);
        Ok(store)
    }

    /// Reads a store written by [`save`](Self::save).
    ///
    /// Thin `io::Result` shim over [`load_data`](Self::load_data) kept for
    /// callers that live in `std::io` land; rejection detail (line numbers,
    /// defect class) survives only in the error message here.
    pub fn load<R: BufRead>(r: R) -> std::io::Result<Self> {
        Self::load_data(r).map_err(|e| match e {
            Inf2vecError::Io(io) => io,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_matches_paper() {
        let s = EmbeddingStore::new(10, 8, 1);
        assert_eq!(s.k(), 8);
        assert_eq!(s.len(), 10);
        let bound = 1.0 / 8.0 + 1e-6;
        for u in 0..10u32 {
            assert!(s.s(u).iter().all(|x| x.abs() <= bound));
            assert!(s.t(u).iter().all(|x| x.abs() <= bound));
            assert_eq!(s.b(u), 0.0);
            assert_eq!(s.b_tilde(u), 0.0);
        }
    }

    #[test]
    fn score_includes_biases() {
        let mut s = EmbeddingStore::new(2, 2, 3);
        unsafe {
            s.source.row_mut(0).copy_from_slice(&[1.0, 2.0]);
            s.target.row_mut(1).copy_from_slice(&[3.0, 4.0]);
            s.bias_src.row_mut(0)[0] = 0.5;
            s.bias_tgt.row_mut(1)[0] = 0.25;
        }
        assert!((s.score(0, 1) - (11.0 + 0.75)).abs() < 1e-6);
        s.use_bias = false;
        assert!((s.score(0, 1) - 11.0).abs() < 1e-6);
    }

    #[test]
    fn concat_is_s_then_t() {
        let s = EmbeddingStore::new(3, 2, 5);
        let c = s.concat(1);
        assert_eq!(&c[..2], s.s(1));
        assert_eq!(&c[2..], s.t(1));
    }

    #[test]
    fn save_load_round_trip() {
        let s = EmbeddingStore::new(4, 3, 7);
        unsafe {
            s.bias_src.row_mut(2)[0] = -1.5;
        }
        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        let l = EmbeddingStore::load(buf.as_slice()).unwrap();
        assert_eq!(l.len(), 4);
        assert_eq!(l.k(), 3);
        assert_eq!(l.use_bias, s.use_bias);
        for u in 0..4u32 {
            assert_eq!(l.s(u), s.s(u));
            assert_eq!(l.t(u), s.t(u));
        }
        assert_eq!(l.bias_src.row(2)[0], -1.5);
    }

    /// The per-float `format!` formatter `save` used before it wrote each
    /// value into one reused line: the bytes `save` must keep producing.
    fn save_reference(s: &EmbeddingStore) -> Vec<u8> {
        let mut w = Vec::new();
        writeln!(w, "{} {} {}", s.len(), s.k(), u8::from(s.use_bias)).unwrap();
        let mut line = String::new();
        for u in 0..s.len() as u32 {
            line.clear();
            for x in s.s(u) {
                line.push_str(&format!("{x} "));
            }
            for x in s.t(u) {
                line.push_str(&format!("{x} "));
            }
            line.push_str(&format!(
                "{} {}",
                s.bias_src.row(u as usize)[0],
                s.bias_tgt.row(u as usize)[0]
            ));
            writeln!(w, "{line}").unwrap();
        }
        w
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Values every case draws from besides its arbitrary bit patterns.
        const EDGES: [f32; 9] = [
            -0.0,
            0.0,
            f32::from_bits(1), // smallest subnormal
            -f32::from_bits(0x0040_0000),
            f32::MIN_POSITIVE,
            1e-7,
            -1e-7,
            f32::MAX,
            f32::MIN,
        ];

        proptest! {
            /// `save` writes exactly the bytes of the old formatter for any
            /// finite values, with biases on or off.
            #[test]
            fn save_matches_the_per_float_formatter(
                n in 1usize..5,
                k in 1usize..6,
                bits in prop::collection::vec(any::<u32>(), 1..48),
                use_bias in any::<bool>(),
                shift in 0usize..64,
            ) {
                // Clearing the exponent's top bit makes an Inf/NaN pattern
                // finite and leaves every finite pattern as it is.
                let arbitrary = bits.iter().map(|&b| {
                    let x = f32::from_bits(b);
                    if x.is_finite() { x } else { f32::from_bits(b & !0x4000_0000) }
                });
                let pool: Vec<f32> = EDGES.iter().copied().chain(arbitrary).collect();
                let mut draw = (shift..).map(|i| pool[i % pool.len()]);
                let mut s = EmbeddingStore::zeroed(n, k);
                s.use_bias = use_bias;
                for (m, len) in [(&mut s.source, n * k), (&mut s.target, n * k)] {
                    m.copy_from(&draw.by_ref().take(len).collect::<Vec<_>>());
                }
                for m in [&mut s.bias_src, &mut s.bias_tgt] {
                    m.copy_from(&draw.by_ref().take(n).collect::<Vec<_>>());
                }
                let mut saved = Vec::new();
                s.save(&mut saved).unwrap();
                prop_assert_eq!(saved, save_reference(&s));
            }
        }
    }

    #[test]
    fn load_rejects_garbage() {
        for bad in ["", "2 0 1\n", "abc\n", "2 2 1\n1 2 3 4 5 6\n"] {
            assert!(
                EmbeddingStore::load(bad.as_bytes()).is_err(),
                "accepted {bad:?}"
            );
        }
        // Truncated body.
        let partial = "2 2 1\n1 2 3 4 0 0\n";
        assert!(EmbeddingStore::load(partial.as_bytes()).is_err());
        // Overlong row.
        let long = "1 1 1\n1 2 0 0 9\n";
        assert!(EmbeddingStore::load(long.as_bytes()).is_err());
    }

    #[test]
    fn load_rejects_non_finite() {
        for bad in [
            "1 2 1\nNaN 2 3 4 0 0\n",
            "1 2 1\n1 inf 3 4 0 0\n",
            "1 2 1\n1 2 3 4 -inf 0\n",
            "1 2 1\n1 2 3 4 0 NaN\n",
        ] {
            assert!(
                EmbeddingStore::load(bad.as_bytes()).is_err(),
                "accepted non-finite {bad:?}"
            );
        }
    }

    #[test]
    fn save_refuses_non_finite() {
        let s = EmbeddingStore::new(2, 2, 1);
        unsafe {
            s.source.row_mut(0)[1] = f32::NAN;
        }
        let mut buf = Vec::new();
        let err = s.save(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(buf.is_empty() || std::str::from_utf8(&buf).is_ok());
    }

    #[test]
    fn has_non_finite_scans_to_the_last_element_of_every_matrix() {
        assert!(!EmbeddingStore::new(3, 5, 1).has_non_finite());
        for which in 0..4 {
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let s = EmbeddingStore::new(3, 5, 1);
                let m = [&s.source, &s.target, &s.bias_src, &s.bias_tgt][which];
                // SAFETY: single-threaded test, one row borrow at a time.
                unsafe {
                    let last = m.row_mut(m.rows() - 1);
                    last[last.len() - 1] = bad;
                }
                assert!(s.has_non_finite(), "matrix {which}, {bad}");
            }
        }
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let s = EmbeddingStore::new(3, 2, 11);
        let snap = s.snapshot();
        unsafe {
            s.source.row_mut(1)[0] = 99.0;
            s.bias_tgt.row_mut(2)[0] = -7.0;
        }
        assert_ne!(s.source.to_vec(), snap.source);
        s.restore(&snap);
        assert_eq!(s.source.to_vec(), snap.source);
        assert_eq!(s.bias_tgt.to_vec(), snap.bias_tgt);
        assert!(!s.has_non_finite());
        unsafe {
            s.target.row_mut(0)[0] = f32::INFINITY;
        }
        assert!(s.has_non_finite());
    }

    #[test]
    fn truncated_snapshot_file_is_typed_data_error() {
        let dir = std::env::temp_dir().join(format!("inf2vec-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.txt");
        let s = EmbeddingStore::new(4, 3, 21);
        let mut full = Vec::new();
        s.save(&mut full).unwrap();
        // Cut at a line boundary after the header + 2 of 4 rows: the
        // on-disk image of a crash mid-write with no atomic rename.
        let cut = full
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1)
            .nth(2)
            .unwrap();
        std::fs::write(&path, &full[..cut]).unwrap();
        match EmbeddingStore::load_from_path(&path) {
            Err(Inf2vecError::Data(DataError::Truncated { what })) => {
                assert!(what.contains("store"), "{what}");
            }
            other => panic!("expected typed Truncated error, got {other:?}"),
        }
        // Mid-row truncation surfaces as Malformed with the line number.
        std::fs::write(&path, &full[..cut + 3]).unwrap();
        match EmbeddingStore::load_from_path(&path) {
            Err(Inf2vecError::Data(DataError::Malformed { line, .. })) => assert_eq!(line, 4),
            other => panic!("expected typed Malformed error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nan_injected_snapshot_file_is_typed_data_error() {
        let dir = std::env::temp_dir().join(format!("inf2vec-nan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.txt");
        std::fs::write(&path, "2 2 1\n1 2 3 4 0 0\n1 NaN 3 4 0 0\n").unwrap();
        match EmbeddingStore::load_from_path(&path) {
            Err(Inf2vecError::Data(DataError::NonFinite { what, line })) => {
                assert!(what.contains("store"));
                assert_eq!(line, 3);
            }
            other => panic!("expected typed NonFinite error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn try_restore_rejects_shape_mismatch_and_non_finite() {
        let s = EmbeddingStore::new(3, 2, 11);
        let other = EmbeddingStore::new(3, 4, 11);
        match s.try_restore(&other.snapshot()) {
            Err(DataError::Invalid { message }) => {
                assert!(message.contains("shape mismatch"), "{message}")
            }
            res => panic!("expected shape mismatch, got {res:?}"),
        }
        let mut snap = s.snapshot();
        snap.target[1] = f32::NAN;
        match s.try_restore(&snap) {
            Err(DataError::NonFinite { what, .. }) => assert!(what.contains("snapshot")),
            res => panic!("expected NonFinite, got {res:?}"),
        }
        // A rejected restore leaves the store untouched.
        assert!(!s.has_non_finite());
        assert!(s.try_restore(&s.snapshot()).is_ok());
    }

    #[test]
    fn path_save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("inf2vec-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.txt");
        let s = EmbeddingStore::new(4, 3, 13);
        s.save_to_path(&path).unwrap();
        let l = EmbeddingStore::load_from_path(&path).unwrap();
        assert_eq!(l.source.to_vec(), s.source.to_vec());
        assert_eq!(l.target.to_vec(), s.target.to_vec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lazy_row_init_is_order_independent() {
        let a = EmbeddingStore::zeroed(5, 4);
        let b = EmbeddingStore::zeroed(5, 4);
        assert!(a.s(3).iter().all(|&x| x == 0.0));
        // Touch rows in different orders: the result must match exactly.
        for u in [3u32, 0, 4] {
            a.init_row(u, 42);
        }
        for u in [4u32, 3, 0] {
            b.init_row(u, 42);
        }
        assert_eq!(a.source.to_vec(), b.source.to_vec());
        assert_eq!(a.target.to_vec(), b.target.to_vec());
        let bound = 1.0 / 4.0 + 1e-6;
        assert!(a.s(3).iter().any(|&x| x != 0.0));
        assert!(a.s(3).iter().all(|x| x.abs() <= bound));
        // Untouched rows stay zero; a different seed gives different rows.
        assert!(a.s(1).iter().all(|&x| x == 0.0));
        let c = EmbeddingStore::zeroed(5, 4);
        c.init_row(3, 43);
        assert_ne!(c.s(3), a.s(3));
    }

    #[test]
    fn deterministic_init_per_seed() {
        let a = EmbeddingStore::new(5, 4, 9);
        let b = EmbeddingStore::new(5, 4, 9);
        let c = EmbeddingStore::new(5, 4, 10);
        assert_eq!(a.source.to_vec(), b.source.to_vec());
        assert_ne!(a.source.to_vec(), c.source.to_vec());
    }
}

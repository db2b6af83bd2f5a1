//! Fx-style fast hashing.
//!
//! The algorithm is the one used by the Rust compiler (`rustc-hash`): a
//! multiply-rotate mix applied word-at-a-time. It is not HashDoS resistant,
//! which is fine for offline experiment code with integer keys, and it is
//! several times faster than SipHash for the `u32`/`u64` keys that dominate
//! this workspace (node ids, item ids, edge pairs).

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;
/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The Fx hash state. See the module docs for provenance.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add_to_hash(word);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// FNV-1a (64-bit) over raw bytes: the stable *content* checksum used by
/// the pipeline journal slots and the archive segment/manifest headers.
/// Unlike [`FxHasher`] it is byte-order independent and trivially
/// reimplementable by external tooling that wants to verify files.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.finish()
}

/// Incremental [`fnv1a`]: feeding a byte stream in any split gives the
/// checksum of the whole, so a file can be checksummed as it is written.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the state.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The checksum of every byte folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Convenience constructor: an empty `FxHashMap`.
pub fn fx_hashmap<K, V>() -> FxHashMap<K, V> {
    FxHashMap::default()
}

/// Convenience constructor: an `FxHashMap` with `cap` reserved slots.
pub fn fx_hashmap_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

/// Convenience constructor: an empty `FxHashSet`.
pub fn fx_hashset<K>() -> FxHashSet<K> {
    FxHashSet::default()
}

/// Convenience constructor: an `FxHashSet` with `cap` reserved slots.
pub fn fx_hashset_with_capacity<K>(cap: usize) -> FxHashSet<K> {
    FxHashSet::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(value: T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_for_same_input() {
        assert_eq!(hash_one(42u32), hash_one(42u32));
        assert_eq!(hash_one((1u32, 2u32)), hash_one((1u32, 2u32)));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Not a statistical test, just a sanity check that the mix is not an
        // identity on small integers.
        let h: Vec<u64> = (0u32..64).map(hash_one).collect();
        let distinct: FxHashSet<u64> = h.iter().copied().collect();
        assert_eq!(distinct.len(), 64);
    }

    #[test]
    fn byte_stream_matches_word_stream_layout() {
        // write() must consume trailing partial words.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        b.write_u64(9);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fnv1a_matches_reference_vectors_in_any_split() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::default();
        for part in [&b"fo"[..], b"", b"oba", b"r"] {
            h.update(part);
        }
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn map_and_set_usable() {
        let mut m = fx_hashmap_with_capacity::<u32, u32>(8);
        for i in 0..100u32 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m[&7], 14);

        let mut s = fx_hashset::<(u32, u32)>();
        s.insert((1, 2));
        assert!(s.contains(&(1, 2)));
        assert!(!s.contains(&(2, 1)));
    }
}

//! Lock-free shared parameter matrices for Hogwild-style SGD.
//!
//! The original word2vec trains with multiple threads updating one shared
//! parameter array without any synchronization: conflicting writes are rare
//! (updates touch only the rows of the sampled nodes) and SGD tolerates the
//! occasional lost update (Recht et al., "Hogwild!", NIPS 2011). This module
//! reproduces that design in Rust with an explicit, narrow unsafe surface.
//!
//! # Safety model
//!
//! [`HogwildMatrix::row_mut`] hands out `&mut [f32]` from a shared `&self`.
//! This is a *deliberate, documented data race* when used from multiple
//! threads, with the following contract:
//!
//! - Rows are plain `f32`s: torn reads/writes cannot produce invalid values,
//!   only stale or partially-mixed numbers, which SGD treats as gradient
//!   noise.
//! - Callers must not hold two overlapping `row_mut` borrows on the *same*
//!   thread (that would be UB even single-threaded); the trainers in this
//!   workspace only ever materialize one row borrow at a time per matrix, or
//!   disjoint rows.
//! - No pointer/len mutation ever happens after construction: the allocation
//!   is fixed, so concurrent access never observes a moving buffer.
//!
//! Strictly speaking, concurrent unsynchronized writes are UB in the Rust
//! abstract machine; like every Hogwild implementation we rely on the
//! de-facto behaviour of `f32` stores on real hardware. Single-threaded
//! runs (the default everywhere in this workspace, and the only mode used
//! by tests and benches) are fully defined.

use std::cell::UnsafeCell;

use inf2vec_util::rng::Xoshiro256pp;

/// A fixed-shape row-major `f32` matrix supporting unsynchronized shared
/// mutation (see the module docs for the safety contract).
#[derive(Debug)]
pub struct HogwildMatrix {
    rows: usize,
    cols: usize,
    data: UnsafeCell<Box<[f32]>>,
}

// SAFETY: see the module-level safety model. All fields are immutable after
// construction except the f32 payload, whose racy mutation is the accepted
// Hogwild trade-off.
unsafe impl Sync for HogwildMatrix {}

impl HogwildMatrix {
    /// Zero-initialized matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: UnsafeCell::new(vec![0.0; rows * cols].into_boxed_slice()),
        }
    }

    /// Matrix with entries drawn uniformly from `[-scale, scale]` (the
    /// paper initializes embeddings from `[-1/K, 1/K]`).
    pub fn uniform(rows: usize, cols: usize, scale: f32, rng: &mut Xoshiro256pp) -> Self {
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| (rng.next_f32() * 2.0 - 1.0) * scale)
            .collect();
        Self {
            rows,
            cols,
            data: UnsafeCell::new(data.into_boxed_slice()),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `i`.
    ///
    /// Under concurrent training this may observe in-flight updates; that is
    /// part of the Hogwild contract.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows);
        // SAFETY: the allocation never moves or resizes; read-only access to
        // possibly-racing f32 data is the documented trade-off.
        unsafe {
            let base = (*self.data.get()).as_ptr().add(i * self.cols);
            std::slice::from_raw_parts(base, self.cols)
        }
    }

    /// Mutable view of row `i` from a shared reference.
    ///
    /// # Safety
    ///
    /// The caller must not create overlapping borrows of the same row on the
    /// same thread, and accepts racy writes across threads per the module
    /// safety model.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn row_mut(&self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        let base = (*self.data.get()).as_mut_ptr().add(i * self.cols);
        std::slice::from_raw_parts_mut(base, self.cols)
    }

    /// Immutable view of the whole matrix, row-major.
    ///
    /// Same read contract as [`row`](Self::row): under concurrent training
    /// this may observe in-flight updates.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        // SAFETY: the allocation never moves or resizes while `&self` is
        // borrowed (`grow_rows` and `copy_from` take `&mut self`);
        // read-only access to possibly-racing f32 data is the documented
        // trade-off.
        unsafe { &*self.data.get() }
    }

    /// Copies the whole matrix out (for snapshots/serialization).
    pub fn to_vec(&self) -> Vec<f32> {
        self.as_slice().to_vec()
    }

    /// Overwrites the whole matrix from a flat slice.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != rows * cols`.
    pub fn copy_from(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.rows * self.cols, "shape mismatch");
        self.data.get_mut().copy_from_slice(flat);
    }

    /// Grows the matrix to `rows` rows, the new rows zero-filled. Takes
    /// `&mut self`, so no concurrent reader can observe the reallocation —
    /// growth happens at single-threaded control points (episode
    /// boundaries), never mid-training. A no-op when `rows` is not larger.
    pub fn grow_rows(&mut self, rows: usize) {
        if rows <= self.rows {
            return;
        }
        let mut data = std::mem::take(self.data.get_mut()).into_vec();
        data.resize(rows * self.cols, 0.0);
        *self.data.get_mut() = data.into_boxed_slice();
        self.rows = rows;
    }
}

impl Clone for HogwildMatrix {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: UnsafeCell::new(self.to_vec().into_boxed_slice()),
        }
    }
}

/// Dot product of two equal-length slices, summed in k order: the scoring
/// dot (training uses the kernel's own, see `sgns::pair_update`).
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = HogwildMatrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.row(2).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn uniform_respects_scale() {
        let mut rng = Xoshiro256pp::new(1);
        let m = HogwildMatrix::uniform(10, 8, 0.02, &mut rng);
        let flat = m.to_vec();
        assert!(flat.iter().all(|&x| x.abs() <= 0.02));
        assert!(flat.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn row_mut_updates_visible() {
        let m = HogwildMatrix::zeros(2, 3);
        // SAFETY: single-threaded, single borrow.
        unsafe {
            m.row_mut(1)[2] = 7.0;
        }
        assert_eq!(m.row(1), &[0.0, 0.0, 7.0]);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn clone_is_deep() {
        let m = HogwildMatrix::zeros(1, 2);
        let c = m.clone();
        unsafe {
            m.row_mut(0)[0] = 5.0;
        }
        assert_eq!(c.row(0)[0], 0.0);
    }

    #[test]
    fn copy_from_round_trip() {
        let mut m = HogwildMatrix::zeros(2, 2);
        m.copy_from(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn copy_from_checks_shape() {
        let mut m = HogwildMatrix::zeros(2, 2);
        m.copy_from(&[1.0]);
    }

    #[test]
    fn blas_helpers() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[3.0, 5.0, 7.0]), 3.0 + 10.0 + 21.0);
    }

    #[test]
    fn concurrent_updates_do_not_crash() {
        // Smoke test of the racy path: many threads hammer disjoint-ish rows.
        let m = std::sync::Arc::new(HogwildMatrix::zeros(64, 16));
        std::thread::scope(|s| {
            for t in 0..4 {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..10_000usize {
                        let row = (i * 7 + t * 13) % 64;
                        // SAFETY: single borrow per iteration; cross-thread
                        // races accepted by the Hogwild contract.
                        unsafe {
                            for x in m.row_mut(row) {
                                *x += 0.001;
                            }
                        }
                    }
                });
            }
        });
        let total: f32 = m.to_vec().iter().sum();
        assert!(total > 0.0);
    }
}

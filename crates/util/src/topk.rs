//! Bounded top-K collection.
//!
//! [`TopK`] keeps the `k` items with the largest scores seen so far using a
//! min-heap, in O(log k) per insertion. Ties are broken by insertion order
//! (earlier wins), which keeps rankings deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    score: f64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key() == other.cmp_key()
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Entry<T> {
    /// Min-heap key: smallest score first; among equal scores the *latest*
    /// insertion is evicted first so earlier items win ties.
    fn cmp_key(&self) -> (f64, std::cmp::Reverse<u64>) {
        (self.score, std::cmp::Reverse(self.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        let (s1, q1) = self.cmp_key();
        let (s2, q2) = other.cmp_key();
        // Reverse everything: BinaryHeap is a max-heap, we need a min-heap.
        s2.partial_cmp(&s1)
            .unwrap_or(Ordering::Equal)
            .then_with(|| q2.cmp(&q1))
    }
}

/// Collects the top `k` items by score.
#[derive(Debug, Clone)]
pub struct TopK<T> {
    k: usize,
    seq: u64,
    heap: BinaryHeap<Entry<T>>,
}

impl<T> TopK<T> {
    /// Creates a collector for the `k` best-scoring items. Any `k` is
    /// cheap: the heap grows with the items pushed, never past `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            seq: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Offers an item. NaN scores are ignored.
    pub fn push(&mut self, score: f64, item: T) {
        if score.is_nan() {
            return;
        }
        let entry = Entry {
            score,
            seq: self.seq,
            item,
        };
        self.seq += 1;
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if let Some(min) = self.heap.peek() {
            if entry.cmp_key() > min.cmp_key() {
                self.heap.pop();
                self.heap.push(entry);
            }
        }
    }

    /// Number of items currently held (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no item has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consumes the collector and returns `(score, item)` pairs sorted by
    /// descending score (ties: insertion order).
    pub fn into_sorted(self) -> Vec<(f64, T)> {
        let mut entries: Vec<Entry<T>> = self.heap.into_vec();
        entries.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.seq.cmp(&b.seq))
        });
        entries.into_iter().map(|e| (e.score, e.item)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keeps_largest() {
        let mut t = TopK::new(3);
        for (s, i) in [(1.0, 'a'), (5.0, 'b'), (3.0, 'c'), (4.0, 'd'), (0.5, 'e')] {
            t.push(s, i);
        }
        let got: Vec<char> = t.into_sorted().into_iter().map(|(_, i)| i).collect();
        assert_eq!(got, vec!['b', 'd', 'c']);
    }

    #[test]
    fn fewer_than_k_items() {
        let mut t = TopK::new(10);
        t.push(2.0, "x");
        t.push(1.0, "y");
        let got = t.into_sorted();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1, "x");
    }

    #[test]
    fn ties_resolved_by_insertion_order() {
        let mut t = TopK::new(2);
        t.push(1.0, 0);
        t.push(1.0, 1);
        t.push(1.0, 2);
        let got: Vec<i32> = t.into_sorted().into_iter().map(|(_, i)| i).collect();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn nan_ignored() {
        let mut t = TopK::new(2);
        t.push(f64::NAN, 'n');
        t.push(1.0, 'a');
        let got = t.into_sorted();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 'a');
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = TopK::<u8>::new(0);
    }

    proptest! {
        /// TopK agrees with full sort-then-truncate.
        #[test]
        fn proptest_matches_sort(scores in prop::collection::vec(-1e6f64..1e6, 0..200), k in 1usize..20) {
            let mut t = TopK::new(k);
            for (i, &s) in scores.iter().enumerate() {
                t.push(s, i);
            }
            let got: Vec<f64> = t.into_sorted().into_iter().map(|(s, _)| s).collect();

            let mut expect = scores.clone();
            expect.sort_by(|a, b| b.partial_cmp(a).unwrap());
            expect.truncate(k);
            prop_assert_eq!(got, expect);
        }
    }
}

//! Flat, index-addressed binary min-heap.
//!
//! `std::collections::BinaryHeap` is a max-heap and forces the
//! `Reverse<T>` wrapper plus a fresh allocation per simulation; this
//! heap is a plain `Vec<T>` with explicit parent/child index
//! arithmetic (`parent(i) = (i-1)/2`, `children(i) = 2i+1, 2i+2`),
//! min-ordered, `Copy`-only payloads, and a `with_capacity`
//! constructor so the event queue of a pre-sized simulation never
//! reallocates on the steady path.

/// A binary min-heap over `Copy + Ord` entries backed by one flat `Vec`.
///
/// Pop order is ascending by `T`'s `Ord`; ties are unordered, so
/// callers that need total determinism must make `T`'s ordering total
/// over their payloads (the engine keys entries by `(time, kind, peer)`).
#[derive(Debug, Clone)]
pub struct IndexedHeap<T: Copy + Ord> {
    slots: Vec<T>,
}

impl<T: Copy + Ord> Default for IndexedHeap<T> {
    fn default() -> Self {
        IndexedHeap::new()
    }
}

impl<T: Copy + Ord> IndexedHeap<T> {
    /// An empty heap.
    pub fn new() -> Self {
        IndexedHeap { slots: Vec::new() }
    }

    /// An empty heap with room for `capacity` entries before any
    /// reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        IndexedHeap {
            slots: Vec::with_capacity(capacity),
        }
    }

    /// The smallest entry, if any, without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.slots.first()
    }

    /// Inserts `entry`, sifting it up to its heap position.
    pub fn push(&mut self, entry: T) {
        self.slots.push(entry);
        self.sift_up(self.slots.len() - 1);
    }

    /// Removes and returns the smallest entry.
    pub fn pop(&mut self) -> Option<T> {
        let n = self.slots.len();
        if n == 0 {
            return None;
        }
        self.slots.swap(0, n - 1);
        let top = self.slots.pop();
        if !self.slots.is_empty() {
            self.sift_down(0);
        }
        top
    }

    /// Removes all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.slots[i] >= self.slots[parent] {
                break;
            }
            self.slots.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.slots.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let smallest = if right < n && self.slots[right] < self.slots[left] {
                right
            } else {
                left
            };
            if self.slots[smallest] >= self.slots[i] {
                break;
            }
            self.slots.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pops_in_ascending_order() {
        let mut heap = IndexedHeap::new();
        for x in [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            heap.push(x);
        }
        assert_eq!(heap.peek(), Some(&0));
        let drained: Vec<u64> = std::iter::from_fn(|| heap.pop()).collect();
        assert_eq!(drained, (0..10).collect::<Vec<_>>());
        assert!(heap.slots.is_empty());
    }

    #[test]
    fn matches_std_binary_heap_on_random_streams() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut rng = SmallRng::seed_from_u64(0xE_4E57);
        for _ in 0..50 {
            let mut ours = IndexedHeap::with_capacity(64);
            let mut std_heap = BinaryHeap::new();
            for _ in 0..500 {
                if rng.gen_bool(0.6) {
                    let v: (u64, u64) = (rng.gen_range(0u64..100), rng.gen());
                    ours.push(v);
                    std_heap.push(Reverse(v));
                } else {
                    assert_eq!(ours.pop(), std_heap.pop().map(|Reverse(v)| v));
                }
                assert_eq!(ours.slots.len(), std_heap.len());
            }
            let a: Vec<_> = std::iter::from_fn(|| ours.pop()).collect();
            let b: Vec<_> = std::iter::from_fn(|| std_heap.pop().map(|Reverse(v)| v)).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn with_capacity_never_grows_within_bounds() {
        let mut heap = IndexedHeap::with_capacity(128);
        let cap = heap.slots.capacity();
        for i in 0..128u32 {
            heap.push(i);
        }
        assert_eq!(heap.slots.capacity(), cap);
        heap.clear();
        assert_eq!(heap.slots.capacity(), cap);
        assert!(heap.pop().is_none());
    }
}

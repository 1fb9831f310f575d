//! Flat posting-list blocks with O(1) front truncation.
//!
//! A posting list stores, per entry, the L2AP triple `(ι(y), y_j, ‖y′_j‖)`
//! plus the owning vector's arrival time — [`PackedPosting`], 32 bytes.
//! Entries live in one contiguous buffer with a `start` cursor: the live
//! region is always a plain slice, so candidate generation is a flat,
//! branch-light walk with none of the ring-buffer wraparound masking the
//! previous ring-buffer layout paid per access, and the
//! backward time-truncation of §6.2 becomes a binary search on the
//! (non-decreasing) packed time field plus an O(1) front cut.
//!
//! Layout was chosen by measurement, not doctrine. Two columnar variants
//! were tried first — four separate arrays, then a time column plus a
//! packed scoring triple. Splitting costs every append several dirtied
//! cache lines and several bounds checks (and, with per-column `Vec`s,
//! four mallocs per list), which doubled insert time on the fig5
//! workload; the scans gained nothing measurable because scoring reads
//! every field of each admitted entry anyway, and at 32 bytes two entries
//! share a cache line. The packed layout keeps appends at ring-buffer
//! cost while retaining the flat-scan and binary-expiry wins.
//!
//! The storage discipline — `start`-cursor truncation, amortised in-place
//! compaction, occupancy-rule capacity release with deep hysteresis —
//! lives in the payload-generic [`TimedBlock`] so the live similarity
//! graph of `sssj-graph` (whose adjacency lists follow the same
//! append-and-expire pattern) reuses it; this type is the L2AP
//! specialisation with the join engines' 4-field entry API.

use crate::timed_block::{TimedBlock, TimedEntry};

/// One packed posting entry: the L2AP triple plus the arrival time.
///
/// `#[repr(C)]` pins the field order so a posting slice can be viewed as
/// a flat `u64` word stream ([`Self::as_words`]) for the SIMD batch
/// kernels; the word offsets match `sssj_kernels::POSTING_*`.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PackedPosting {
    /// Reference to the indexed vector.
    pub id: u64,
    /// The coordinate value `y_j`.
    pub weight: f64,
    /// `‖y′_j‖` — norm of the prefix strictly before this coordinate.
    pub prefix_norm: f64,
    /// Arrival time of the owning vector, in seconds.
    pub t: f64,
}

impl PackedPosting {
    /// 64-bit words per entry in the [`Self::as_words`] view.
    pub const WORDS: usize = 4;

    /// Views a posting slice as its raw 64-bit words, [`Self::WORDS`]
    /// per entry in declaration order `[id, weight_bits, prefix_bits,
    /// t_bits]` — the layout the `sssj_kernels` batch kernels consume.
    #[inline]
    pub fn as_words(postings: &[PackedPosting]) -> &[u64] {
        const _: () = assert!(
            std::mem::size_of::<PackedPosting>() == PackedPosting::WORDS * 8
                && std::mem::align_of::<PackedPosting>() == 8
        );
        // SAFETY: `#[repr(C)]` with four 8-byte fields and no padding
        // (checked above); every bit pattern is a valid `u64`.
        unsafe {
            std::slice::from_raw_parts(
                postings.as_ptr() as *const u64,
                postings.len() * Self::WORDS,
            )
        }
    }
}

impl TimedEntry for PackedPosting {
    #[inline]
    fn time(&self) -> f64 {
        self.t
    }
}

/// A flat posting list (single allocation) with O(1) front truncation.
#[derive(Clone, Debug, Default)]
pub struct PostingBlock {
    block: TimedBlock<PackedPosting>,
}

impl PostingBlock {
    /// Creates an empty block (no allocation until the first push).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.block.len()
    }

    /// Whether the block has no live entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.block.is_empty()
    }

    /// Allocated entry capacity (for memory accounting).
    pub fn capacity(&self) -> usize {
        self.block.capacity()
    }

    /// Estimated heap footprint in bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.block.heap_bytes()
    }

    /// The live entries, oldest first.
    #[inline]
    pub fn postings(&self) -> &[PackedPosting] {
        self.block.entries()
    }

    /// Appends an entry at the new end.
    #[inline]
    pub fn push(&mut self, id: u64, weight: f64, prefix_norm: f64, t: f64) {
        self.block.push(PackedPosting {
            id,
            weight,
            prefix_norm,
            t,
        });
    }

    /// Drops the `n` oldest live entries in O(1) (amortised).
    pub fn truncate_front(&mut self, n: usize) {
        self.block.truncate_front(n);
    }

    /// Drops every live entry whose time is `< cutoff`, assuming times
    /// are non-decreasing (the time-ordered lists of STR-INV / STR-L2),
    /// and returns how many were dropped.
    ///
    /// Short lists — the steady-state common case, where expiry trims a
    /// handful of entries per call — use the SIMD strided time scan
    /// (`partition_time_strided`, exact by contract); longer lists keep
    /// the O(log n) binary search + O(1) truncation.
    pub fn expire_before(&mut self, cutoff: f64) -> usize {
        let n = {
            let live = self.block.entries();
            if live.len() > 128 {
                return self.block.expire_before(cutoff);
            }
            sssj_kernels::partition_time_strided(
                PackedPosting::as_words(live),
                PackedPosting::WORDS,
                sssj_kernels::POSTING_TIME,
                cutoff,
            )
        };
        self.block.truncate_front(n);
        n
    }

    /// Keeps only the entries for which `keep` returns `true`, preserving
    /// order, in one forward compacting pass (the STR-L2AP scan, whose
    /// lists lose time order after re-indexing). Returns the number of
    /// removed entries.
    pub fn retain<F: FnMut(u64, f64, f64, f64) -> bool>(&mut self, mut keep: F) -> usize {
        self.block
            .retain(|e| keep(e.id, e.weight, e.prefix_norm, e.t))
    }

    /// Removes all entries; keeps the allocation.
    pub fn clear(&mut self) {
        self.block.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> PostingBlock {
        let mut b = PostingBlock::new();
        for i in 0..n {
            b.push(i as u64, i as f64 * 0.5, i as f64 * 0.25, i as f64);
        }
        b
    }

    fn ids(b: &PostingBlock) -> Vec<u64> {
        b.postings().iter().map(|p| p.id).collect()
    }

    fn times(b: &PostingBlock) -> Vec<f64> {
        b.postings().iter().map(|p| p.t).collect()
    }

    #[test]
    fn push_exposes_packed_entries() {
        let b = filled(4);
        assert_eq!(b.len(), 4);
        assert_eq!(ids(&b), vec![0, 1, 2, 3]);
        assert_eq!(times(&b), vec![0.0, 1.0, 2.0, 3.0]);
        let p = b.postings()[3];
        assert_eq!((p.id, p.weight, p.prefix_norm, p.t), (3, 1.5, 0.75, 3.0));
    }

    #[test]
    fn growth_preserves_entries() {
        let b = filled(1000);
        assert_eq!(b.len(), 1000);
        for i in [0usize, 7, 8, 63, 64, 511, 999] {
            let p = b.postings()[i];
            assert_eq!(p.id, i as u64);
            assert_eq!(p.weight, i as f64 * 0.5);
            assert_eq!(p.prefix_norm, i as f64 * 0.25);
            assert_eq!(p.t, i as f64);
        }
    }

    #[test]
    fn truncate_front_drops_oldest() {
        let mut b = filled(8);
        b.truncate_front(3);
        assert_eq!(ids(&b), vec![3, 4, 5, 6, 7]);
        b.truncate_front(100);
        assert!(b.is_empty());
    }

    #[test]
    fn expire_before_uses_time_order() {
        let mut b = filled(10);
        assert_eq!(b.expire_before(4.0), 4);
        assert_eq!(ids(&b), vec![4, 5, 6, 7, 8, 9]);
        assert_eq!(b.expire_before(0.0), 0);
        assert_eq!(b.expire_before(100.0), 6);
        assert!(b.is_empty());
    }

    #[test]
    fn as_words_matches_declared_layout() {
        let b = filled(3);
        let words = PackedPosting::as_words(b.postings());
        assert_eq!(words.len(), 3 * PackedPosting::WORDS);
        assert_eq!(words[0], 0); // id of entry 0
        assert_eq!(words[4], 1); // id of entry 1
        assert_eq!(f64::from_bits(words[4 + 1]), 0.5); // weight of entry 1
        assert_eq!(f64::from_bits(words[2 * 4 + 2]), 0.5); // prefix norm of 2
        assert_eq!(f64::from_bits(words[2 * 4 + 3]), 2.0); // time of entry 2
    }

    #[test]
    fn expire_simd_path_matches_binary_search() {
        // Below the 128-entry threshold the SIMD strided scan runs; the
        // generic block's binary search is the oracle. Include a
        // truncated block so the scan sees an offset live slice.
        for cut in [-1.0, 0.0, 0.5, 3.0, 64.0, 119.5, 1000.0] {
            let mut a = filled(120);
            let mut b = filled(120);
            a.truncate_front(5);
            b.truncate_front(5);
            assert_eq!(a.expire_before(cut), b.block.expire_before(cut), "{cut}");
            assert_eq!(ids(&a), ids(&b), "{cut}");
        }
    }

    #[test]
    fn retain_preserves_order_and_reports_removed() {
        let mut b = filled(10);
        let removed = b.retain(|id, _, _, _| id % 2 == 0);
        assert_eq!(removed, 5);
        assert_eq!(ids(&b), vec![0, 2, 4, 6, 8]);
        assert_eq!(times(&b), vec![0.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn retain_after_truncation_sees_only_live() {
        let mut b = filled(10);
        b.truncate_front(4);
        let removed = b.retain(|id, _, _, _| id != 7);
        assert_eq!(removed, 1);
        assert_eq!(ids(&b), vec![4, 5, 6, 8, 9]);
    }

    #[test]
    fn retain_passes_fields_in_declared_order() {
        let mut b = PostingBlock::new();
        b.push(42, 0.5, 0.25, 9.0);
        b.retain(|id, w, pn, t| {
            assert_eq!(id, 42);
            assert_eq!(w, 0.5);
            assert_eq!(pn, 0.25);
            assert_eq!(t, 9.0);
            true
        });
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn compaction_preserves_content_and_shrinks_on_collapse() {
        let mut b = filled(1000);
        let cap = b.capacity();
        for _ in 0..996 {
            b.truncate_front(1);
        }
        assert_eq!(ids(&b), vec![996, 997, 998, 999]);
        // Occupancy collapsed far below the allocation: the occupancy
        // rule must release capacity (the paper's §6.2 discipline).
        assert!(b.capacity() < cap, "deep truncation must shrink");
    }

    #[test]
    fn steady_state_interleave_is_allocation_stable() {
        // Stable occupancy: capacity settles and never changes again.
        let mut b = PostingBlock::new();
        for i in 0..64u64 {
            b.push(i, 0.0, 0.0, i as f64);
        }
        let mut cap = 0;
        for i in 64..4096u64 {
            b.push(i, 0.0, 0.0, i as f64);
            b.truncate_front(1);
            if i == 1000 {
                cap = b.capacity();
            }
            if i > 1000 {
                assert_eq!(b.capacity(), cap, "steady state must not realloc");
            }
        }
        assert_eq!(b.len(), 64);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut b = filled(100);
        let cap = b.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap);
        // And the block is fully reusable after a clear.
        b.push(5, 1.0, 2.0, 3.0);
        assert_eq!(ids(&b), vec![5]);
        assert_eq!(b.postings()[0].weight, 1.0);
    }
}

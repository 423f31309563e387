//! The AXIOM slot bitmap: 32 branches × 2-bit type tags in one `u64`.
//!
//! This module is the paper's core encoding (§3.1-3.4). Each of a trie node's
//! 32 logical branches carries a 2-bit [`Category`]:
//!
//! | tag | meaning (multi-map instance)                |
//! |-----|---------------------------------------------|
//! | 00  | `EMPTY` — branch unoccupied                 |
//! | 01  | `CAT1` — inlined payload (a `1:1` tuple)    |
//! | 10  | `CAT2` — nested payload (a `1:n` tuple)     |
//! | 11  | `NODE` — sub-trie                           |
//!
//! `EMPTY` is deliberately the all-zero pattern (an empty node is bitmap 0)
//! and `NODE` the highest tag, following the paper's conventions. The three
//! operations that make the encoding practical are:
//!
//! * [`SlotBitmap::filter`] — reduces the 2-bit patterns of one category to
//!   single bits so that hardware popcount can index into the category's
//!   slot group (paper Listing 3);
//! * [`SlotBitmap::histogram`] — per-category branch counts, from which group
//!   lengths and offsets are derived (paper §3.3);
//! * [`SlotBitmap::slot_index`] — absolute dense-array index of a branch,
//!   combining the group offset with the in-group relative index (paper
//!   Listing 2).
//!
//! HAMT and CHAMP are special cases of this encoding (paper §3.1): HAMT uses
//! a single occupied/empty bit with dynamic type recovery, CHAMP exactly the
//! categories `EMPTY`/`CAT1`/`NODE`.
//!
//! # Examples
//!
//! ```
//! use axiom::bitmap::{Category, SlotBitmap};
//!
//! // The root node of the paper's Figure 3d: 1:1 payloads at masks 4 and 9,
//! // a sub-node at mask 2.
//! let bm = SlotBitmap::EMPTY
//!     .with(4, Category::CAT1)
//!     .with(9, Category::CAT1)
//!     .with(2, Category::NODE);
//!
//! // Listing 3's worked example: F ↦ 6 lives at mask 9 and is the second
//! // CAT1 entry, i.e. relative index 1.
//! assert_eq!(bm.index(Category::CAT1, 9), 1);
//! assert_eq!(bm.get(2), Category::NODE);
//! ```

use trie_common::node::{Bitmap, Branch};

/// A 2-bit content category tag.
///
/// The four values cover rank-2 type-heterogeneity, which is what the
/// multi-map instance of AXIOM requires (`⌈log2(2+2)⌉ = 2` bits per branch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Category {
    /// Branch unoccupied. By convention the all-zero bit pattern.
    Empty = 0b00,
    /// First payload category. For multi-maps: an inlined key/value pair.
    Cat1 = 0b01,
    /// Second payload category. For multi-maps: a key with a nested value set.
    Cat2 = 0b10,
    /// A sub-trie reference. By convention the highest tag.
    Node = 0b11,
}

impl Category {
    /// Alias matching the paper's `EMPTY` constant.
    pub const EMPTY: Category = Category::Empty;
    /// Alias matching the paper's `PAYLOAD_CATEGORY_1` constant.
    pub const CAT1: Category = Category::Cat1;
    /// Alias matching the paper's `PAYLOAD_CATEGORY_2` constant.
    pub const CAT2: Category = Category::Cat2;
    /// Alias matching the paper's `NODE` constant.
    pub const NODE: Category = Category::Node;

    /// All categories in slot-group order.
    pub const ALL: [Category; 4] = [
        Category::Empty,
        Category::Cat1,
        Category::Cat2,
        Category::Node,
    ];

    #[inline(always)]
    pub(crate) fn from_bits(bits: u64) -> Category {
        match bits & 0b11 {
            0b00 => Category::Empty,
            0b01 => Category::Cat1,
            0b10 => Category::Cat2,
            _ => Category::Node,
        }
    }
}

/// Bit pattern `01 01 … 01`: the least significant bit of every 2-bit entry.
const LSB: u64 = 0x5555_5555_5555_5555;

/// The per-node bitmap: 32 × 2-bit category tags packed into a `u64`.
///
/// Branch *m*'s tag occupies bits `2m` and `2m+1` (paper §3.1: "the first two
/// bits designate the state of the first branch …").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SlotBitmap(u64);

impl SlotBitmap {
    /// The bitmap of an empty node: every branch `EMPTY`.
    pub const EMPTY: SlotBitmap = SlotBitmap(0);

    /// Creates a bitmap from its raw `u64` representation.
    #[inline]
    pub fn from_raw(raw: u64) -> SlotBitmap {
        SlotBitmap(raw)
    }

    /// The raw `u64` representation.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The category tag of branch `mask` (paper Listing 2, line 3).
    #[inline(always)]
    pub fn get(self, mask: u32) -> Category {
        debug_assert!(mask < 32);
        Category::from_bits(self.0 >> (mask << 1))
    }

    /// Returns a bitmap with branch `mask` retagged to `cat`.
    #[inline(always)]
    pub fn with(self, mask: u32, cat: Category) -> SlotBitmap {
        debug_assert!(mask < 32);
        let shift = mask << 1;
        SlotBitmap((self.0 & !(0b11u64 << shift)) | ((cat as u64) << shift))
    }

    /// True if no branch is occupied.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Reduces the 2-bit pattern of `cat` to single bits (paper Listing 3):
    /// each branch tagged `cat` contributes a `1` at bit `2·mask`, all other
    /// branches contribute `0`. The result feeds hardware popcount.
    #[inline(always)]
    pub fn filter(self, cat: Category) -> u64 {
        let masked0 = LSB & self.0;
        let masked1 = LSB & (self.0 >> 1);
        match cat {
            Category::Empty => (masked0 ^ LSB) & (masked1 ^ LSB),
            Category::Cat1 => masked0 & (masked1 ^ LSB),
            Category::Cat2 => masked1 & (masked0 ^ LSB),
            Category::Node => masked0 & masked1,
        }
    }

    /// Number of branches tagged `cat`.
    #[inline(always)]
    pub fn count(self, cat: Category) -> usize {
        self.filter(cat).count_ones() as usize
    }

    /// Relative index of branch `mask` within its category group: the number
    /// of branches with the same tag strictly below `mask` (paper Listing 3,
    /// lines 1-5). Within a group, slots stay totally ordered by mask.
    #[inline(always)]
    pub fn index(self, cat: Category, mask: u32) -> usize {
        let marker = 1u64 << (mask << 1);
        (self.filter(cat) & (marker - 1)).count_ones() as usize
    }

    /// Content histogram: branch counts per category, computed with the
    /// paper's §3.3 loop. Used for group offsets and batch processing.
    #[inline]
    pub fn histogram(self) -> [u32; 4] {
        let mut histogram = [0u32; 4];
        let mut bitmap = self.0;
        for _ in 0..32 {
            histogram[(bitmap & 0b11) as usize] += 1;
            bitmap >>= 2;
        }
        histogram
    }

    /// Number of payload branches (`CAT1` + `CAT2`).
    #[inline(always)]
    pub fn payload_arity(self) -> usize {
        self.count(Category::Cat1) + self.count(Category::Cat2)
    }

    /// Number of sub-trie branches.
    #[inline(always)]
    pub fn node_arity(self) -> usize {
        self.count(Category::Node)
    }

    /// Total number of occupied branches (`32 - histogram[EMPTY]`).
    #[inline(always)]
    pub fn arity(self) -> usize {
        32 - self.count(Category::Empty)
    }

    /// Start offset of `cat`'s slot group in the node's dense slot array,
    /// with every occupied branch occupying one physical slot (this
    /// reproduction's weights; the modeled JVM layout applies the paper's
    /// `[0, 2, 2, 1]` weights, see the `heapmodel` integration).
    #[inline(always)]
    pub fn offset(self, cat: Category) -> usize {
        match cat {
            Category::Empty => 0,
            Category::Cat1 => 0,
            Category::Cat2 => self.count(Category::Cat1),
            Category::Node => self.count(Category::Cat1) + self.count(Category::Cat2),
        }
    }

    /// Absolute dense-array slot index of branch `mask`, which must be tagged
    /// `cat`: group offset plus in-group relative index (paper Listing 2,
    /// lines 5-7).
    #[inline(always)]
    pub fn slot_index(self, cat: Category, mask: u32) -> usize {
        debug_assert_eq!(self.get(mask), cat);
        self.offset(cat) + self.index(cat, mask)
    }

    /// Iterates the masks tagged `cat` in ascending order — the order their
    /// slots appear within the category group.
    pub fn masks_of(self, cat: Category) -> MaskIter {
        MaskIter {
            filtered: self.filter(cat),
        }
    }

    /// The masks occupied in `self` or in `other`, ascending: the branches
    /// a lockstep walk of two nodes visits.
    pub fn occupied_with(self, other: SlotBitmap) -> MaskIter {
        let both = self.0 | other.0;
        MaskIter {
            filtered: (both | both >> 1) & LSB,
        }
    }

    /// Fused dispatch: category **and** absolute slot index of branch `mask`
    /// in one pass over the bitmap.
    ///
    /// [`SlotBitmap::get`] followed by [`SlotBitmap::slot_index`] re-derives
    /// the per-category filters up to four times (once for the index, once
    /// per lower category for the group offset). `locate` computes the two
    /// half-bitmap masks once and reuses them for the tag, the group offset
    /// and the in-group rank — one `filter`-style reduction plus popcounts.
    /// The returned index is meaningless (zero) for `EMPTY` branches.
    #[inline(always)]
    pub fn locate(self, mask: u32) -> (Category, usize) {
        debug_assert!(mask < 32);
        let shift = mask << 1;
        let cat = Category::from_bits(self.0 >> shift);
        let masked0 = LSB & self.0;
        let masked1 = LSB & (self.0 >> 1);
        let cat1 = masked0 & (masked1 ^ LSB);
        let (offset, filtered) = match cat {
            Category::Empty => return (Category::Empty, 0),
            Category::Cat1 => (0, cat1),
            Category::Cat2 => (cat1.count_ones(), masked1 & (masked0 ^ LSB)),
            Category::Node => (
                (cat1 | (masked1 & (masked0 ^ LSB))).count_ones(),
                masked0 & masked1,
            ),
        };
        let below = (filtered & ((1u64 << shift) - 1)).count_ones();
        (cat, (offset + below) as usize)
    }

    /// Like [`SlotBitmap::get`] but dispatching with the *extrapolated-CHAMP*
    /// strategy of paper Listing 1: sequential membership probes against each
    /// category's (filtered) bitmap instead of direct tag extraction. Only
    /// used by the ablation benchmarks; semantically identical to `get`.
    #[inline]
    pub fn get_linear_scan(self, mask: u32) -> Category {
        let marker = 1u64 << (mask << 1);
        if self.filter(Category::Cat1) & marker != 0 {
            Category::Cat1
        } else if self.filter(Category::Cat2) & marker != 0 {
            Category::Cat2
        } else if self.filter(Category::Node) & marker != 0 {
            Category::Node
        } else {
            Category::Empty
        }
    }

    /// Group offsets computed by scattered-bitmap aggregation (Listing 1's
    /// `count(datamap1()) + count(...)` chains); ablation counterpart of
    /// [`SlotBitmap::slot_index`].
    #[inline]
    pub fn slot_index_linear_scan(self, cat: Category, mask: u32) -> usize {
        let mut offset = 0usize;
        for lower in [Category::Cat1, Category::Cat2] {
            if lower == cat {
                break;
            }
            offset += self.filter(lower).count_ones() as usize;
        }
        let marker = 1u64 << (mask << 1);
        offset + (self.filter(cat) & (marker - 1)).count_ones() as usize
    }
}

/// Iterator over the ascending masks of one category. Created by
/// [`SlotBitmap::masks_of`].
#[derive(Debug, Clone)]
pub struct MaskIter {
    filtered: u64,
}

impl Iterator for MaskIter {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.filtered == 0 {
            return None;
        }
        let bit = self.filtered.trailing_zeros();
        self.filtered &= self.filtered - 1;
        Some(bit >> 1)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.filtered.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for MaskIter {}

/// The walk of every AXIOM trie ([`trie_common::node`]): `CAT1` holds an
/// entry, `CAT2` a multi-map key's bag (set and map nodes use none, the
/// CHAMP special case of the encoding) and `NODE` a sub-trie.
impl Bitmap for SlotBitmap {
    const EMPTY: SlotBitmap = SlotBitmap::EMPTY;

    #[inline(always)]
    fn get(self, mask: u32) -> Branch {
        branch(SlotBitmap::get(self, mask))
    }

    #[inline(always)]
    fn locate(self, mask: u32) -> (Branch, usize) {
        let (cat, idx) = SlotBitmap::locate(self, mask);
        (branch(cat), idx)
    }

    #[inline(always)]
    fn with(self, mask: u32, branch: Branch) -> SlotBitmap {
        SlotBitmap::with(self, mask, category(branch))
    }

    #[inline(always)]
    fn slot_index(self, branch: Branch, mask: u32) -> usize {
        SlotBitmap::slot_index(self, category(branch), mask)
    }

    #[inline(always)]
    fn payload_arity(self) -> usize {
        SlotBitmap::payload_arity(self)
    }

    #[inline(always)]
    fn node_arity(self) -> usize {
        SlotBitmap::node_arity(self)
    }

    fn occupied_with(self, other: SlotBitmap) -> impl Iterator<Item = u32> {
        SlotBitmap::occupied_with(self, other)
    }
}

/// The branch a node holds under tag `cat`.
#[inline(always)]
fn branch(cat: Category) -> Branch {
    match cat {
        Category::Empty => Branch::Empty,
        Category::Cat1 => Branch::Payload,
        Category::Cat2 => Branch::Many,
        Category::Node => Branch::Node,
    }
}

/// The tag of `branch`.
#[inline(always)]
fn category(branch: Branch) -> Category {
    match branch {
        Branch::Empty => Category::Empty,
        Branch::Payload => Category::Cat1,
        Branch::Many => Category::Cat2,
        Branch::Node => Category::Node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Category::*;

    /// The root node of Figure 3d, as used in Listing 3's worked example.
    fn figure_3d_root() -> SlotBitmap {
        SlotBitmap::EMPTY.with(4, Cat1).with(9, Cat1).with(2, Node)
    }

    #[test]
    fn empty_bitmap_is_all_empty() {
        let bm = SlotBitmap::EMPTY;
        assert!(bm.is_empty());
        for mask in 0..32 {
            assert_eq!(bm.get(mask), Empty);
        }
        assert_eq!(bm.histogram(), [32, 0, 0, 0]);
        assert_eq!(bm.arity(), 0);
    }

    #[test]
    fn with_get_roundtrip_all_masks_all_categories() {
        for mask in 0..32 {
            for cat in Category::ALL {
                let bm = SlotBitmap::EMPTY.with(mask, cat);
                assert_eq!(bm.get(mask), cat);
                // Every other branch stays empty.
                for other in (0..32).filter(|&m| m != mask) {
                    assert_eq!(bm.get(other), Empty);
                }
            }
        }
    }

    #[test]
    fn with_overwrites_previous_tag() {
        let bm = SlotBitmap::EMPTY.with(7, Node).with(7, Cat1);
        assert_eq!(bm.get(7), Cat1);
        assert_eq!(bm.count(Node), 0);
    }

    #[test]
    fn listing3_worked_example() {
        // unfilteredBitmap = … 00 01 00 00 00 00 01 00 11 00 (masks 9,4 CAT1; 2 NODE)
        let bm = figure_3d_root();
        assert_eq!(bm.raw(), (0b01 << 18) | (0b01 << 8) | (0b11 << 4));

        // filter(CAT1) keeps both CAT1 entries, drops NODE.
        assert_eq!(bm.filter(Cat1), (1 << 18) | (1 << 8));

        // Relative index of F ↦ 6 (mask 9) within CAT1 is 1.
        assert_eq!(bm.index(Cat1, 9), 1);
        assert_eq!(bm.index(Cat1, 4), 0);
        assert_eq!(bm.index(Node, 2), 0);
    }

    #[test]
    fn listing3_absolute_slot_indices() {
        // Slot layout: [cat1(mask4), cat1(mask9)], [ ], [node(mask2)].
        let bm = figure_3d_root();
        assert_eq!(bm.slot_index(Cat1, 4), 0);
        assert_eq!(bm.slot_index(Cat1, 9), 1);
        assert_eq!(bm.slot_index(Node, 2), 2);
    }

    #[test]
    fn filters_partition_all_branches() {
        // Arbitrary dense bitmap: categories assigned pseudo-randomly.
        let mut bm = SlotBitmap::EMPTY;
        for mask in 0..32u32 {
            bm = bm.with(mask, Category::ALL[(mask as usize * 7 + 3) % 4]);
        }
        let union = Category::ALL
            .iter()
            .fold(0u64, |acc, &c| acc | bm.filter(c));
        assert_eq!(union, LSB);
        for (i, &a) in Category::ALL.iter().enumerate() {
            for &b in &Category::ALL[i + 1..] {
                assert_eq!(bm.filter(a) & bm.filter(b), 0, "{a:?} ∩ {b:?}");
            }
        }
    }

    #[test]
    fn histogram_matches_filter_counts() {
        let mut bm = SlotBitmap::EMPTY;
        for mask in 0..32u32 {
            bm = bm.with(mask, Category::ALL[(mask as usize * 13 + 1) % 4]);
        }
        let hist = bm.histogram();
        for cat in Category::ALL {
            assert_eq!(hist[cat as usize] as usize, bm.count(cat), "{cat:?}");
        }
        assert_eq!(hist.iter().sum::<u32>(), 32);
    }

    #[test]
    fn arities_and_offsets() {
        let bm = SlotBitmap::EMPTY
            .with(0, Cat1)
            .with(3, Cat2)
            .with(5, Cat1)
            .with(9, Node)
            .with(31, Cat2);
        assert_eq!(bm.payload_arity(), 4);
        assert_eq!(bm.node_arity(), 1);
        assert_eq!(bm.arity(), 5);
        assert_eq!(bm.offset(Cat1), 0);
        assert_eq!(bm.offset(Cat2), 2);
        assert_eq!(bm.offset(Node), 4);
        // Absolute layout: [ (0,C1) (5,C1) | (3,C2) (31,C2) | (9,N) ]
        assert_eq!(bm.slot_index(Cat1, 0), 0);
        assert_eq!(bm.slot_index(Cat1, 5), 1);
        assert_eq!(bm.slot_index(Cat2, 3), 2);
        assert_eq!(bm.slot_index(Cat2, 31), 3);
        assert_eq!(bm.slot_index(Node, 9), 4);
    }

    #[test]
    fn masks_of_yields_ascending_masks() {
        let bm = SlotBitmap::EMPTY
            .with(17, Cat1)
            .with(2, Cat1)
            .with(30, Cat1)
            .with(5, Node);
        let masks: Vec<u32> = bm.masks_of(Cat1).collect();
        assert_eq!(masks, vec![2, 17, 30]);
        assert_eq!(bm.masks_of(Node).collect::<Vec<_>>(), vec![5]);
        assert_eq!(bm.masks_of(Cat2).count(), 0);
        assert_eq!(bm.masks_of(Empty).count(), 28);
    }

    #[test]
    fn linear_scan_dispatch_agrees_with_switch_dispatch() {
        let mut bm = SlotBitmap::EMPTY;
        for mask in 0..32u32 {
            bm = bm.with(mask, Category::ALL[(mask as usize * 11 + 2) % 4]);
        }
        for mask in 0..32 {
            assert_eq!(bm.get(mask), bm.get_linear_scan(mask));
            let cat = bm.get(mask);
            if cat != Empty {
                assert_eq!(
                    bm.slot_index(cat, mask),
                    bm.slot_index_linear_scan(cat, mask)
                );
            }
        }
    }

    #[test]
    fn locate_agrees_with_get_plus_slot_index() {
        // Dense pseudo-random bitmaps plus the documented worked example.
        let mut bitmaps = vec![figure_3d_root(), SlotBitmap::EMPTY];
        for salt in 0..8u32 {
            let mut bm = SlotBitmap::EMPTY;
            for mask in 0..32u32 {
                bm = bm.with(
                    mask,
                    Category::ALL[((mask * 7 + salt * 5 + 3) % 4) as usize],
                );
            }
            bitmaps.push(bm);
        }
        for bm in bitmaps {
            for mask in 0..32 {
                let (cat, idx) = bm.locate(mask);
                assert_eq!(cat, bm.get(mask));
                if cat != Empty {
                    assert_eq!(idx, bm.slot_index(cat, mask), "{bm:?} mask {mask}");
                }
            }
        }
    }

    #[test]
    fn occupied_with_is_the_union_of_occupied_masks() {
        let a = SlotBitmap::EMPTY.with(3, Cat2).with(31, Node);
        let b = SlotBitmap::EMPTY.with(0, Cat1).with(3, Cat1);
        assert_eq!(a.occupied_with(b).collect::<Vec<_>>(), vec![0, 3, 31]);
        assert_eq!(
            SlotBitmap::EMPTY.occupied_with(SlotBitmap::EMPTY).count(),
            0
        );
    }

    #[test]
    fn mask_31_uses_the_top_bits() {
        let bm = SlotBitmap::EMPTY.with(31, Node);
        assert_eq!(bm.raw() >> 62, 0b11);
        assert_eq!(bm.get(31), Node);
        assert_eq!(bm.index(Node, 31), 0);
        assert_eq!(bm.slot_index(Node, 31), 0);
    }
}

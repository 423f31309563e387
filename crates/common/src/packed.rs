//! One-allocation trie nodes: a reference count, the owner's bitmap word
//! and three typed slot regions in a single heap block.
//!
//! A [`Packed`] handle is one pointer. The block it points to is laid out
//! as
//!
//! ```text
//! | count: AtomicU32 | lens: [u8; 3] | flags: u8 | word: W | [A; lens[0]] | [B; lens[1]] | [Packed; lens[2]] |
//! ```
//!
//! The header is `#[repr(C)]`: 16 bytes for a 64-bit word. Each region
//! starts where the previous one ends, rounded up to its element alignment
//! (the offsets [`Layout::extend`] computes), and the block size is rounded
//! up to the largest alignment. The regions are the AXIOM categories in
//! slot order: `CAT1` payload, `CAT2` payload, sub-tries. The AXIOM and
//! CHAMP sets and maps use only the first and the last: `(K, V)` entries (a
//! set's `(T, ())`) and sub-tries, `B` being [`std::convert::Infallible`]
//! (see [`crate::node`]). The AXIOM multi-map uses `(K, V)` and its bag's
//! key-and-bag element for the two payload regions. The word is the node's
//! bitmap and is never read here:
//! which branch sits in which slot is the owner's business, so no slot
//! carries a discriminant of its own. A hash-collision node is a block with
//! no children whose word the owner ignores; it is reached through the same
//! 8-byte child pointer.
//!
//! A bitmap node has at most 32 slots, so its lengths fit the header's
//! bytes. Only a hash-collision node can have a region longer than 255. Such
//! a *wide* block sets the `WIDE` flag and keeps its three lengths as `u32`s
//! in a 12-byte prefix between the header and region 0:
//!
//! ```text
//! | count | lens: unused | flags: WIDE | word | lens: [u32; 3] | [A; lens[0]] | [B; lens[1]] | [Packed; lens[2]] |
//! ```
//!
//! so collision nodes have no cap below `u32::MAX` slots per region.
//!
//! Slots are addressed by their *absolute* index in the concatenation of
//! the three regions, which is what the owner's bitmap locates (as
//! [`crate::node::Bitmap::locate`] does).
//!
//! # Invariants
//!
//! Every `unsafe` block in the workspace's tries sits in this module and
//! relies only on the following, all kept here:
//!
//! 1. **Layout.** A handle's pointer is a live block allocated with
//!    `layout(lens)` for its lengths `lens`. A block is wide (flag set,
//!    lengths in the `u32` prefix) exactly when some length exceeds 255;
//!    otherwise the lengths are the header's bytes. Neither the lengths nor
//!    the flag change after the block is published: an edit that changes a
//!    region's length builds a new block.
//! 2. **Initialisation.** While any handle exists, every element of every
//!    region is initialised. A block under construction is owned by a
//!    `Writer` guard that knows which prefix of each region is written; if
//!    a clone or conversion unwinds, it drops that prefix and frees the
//!    block.
//! 3. **Reference count.** `count` is the number of live handles. `clone`
//!    increments it (`Relaxed`) and aborts past `i32::MAX`; `drop`
//!    decrements it (`Release`), and the handle that takes it to zero
//!    fences (`Acquire`), drops the elements and frees the block. This is
//!    the protocol of `std::sync::Arc`, without weak handles.
//! 4. **Unique access.** `&mut` access to a block's word or elements is
//!    handed out only through `&mut Packed` while `count == 1` (`Acquire`
//!    load). With no weak handles, no other thread can then reach the
//!    block, and the `&mut` borrow of the only handle keeps it so.
//! 5. **Moves.** An edit of a uniquely owned block moves its elements
//!    bitwise into the new block and frees the old one without dropping
//!    them. Between the first bitwise read and the store of the new handle
//!    nothing may unwind, so that section runs under an abort-on-unwind
//!    guard. The conversions the tries pass in run no user code; dropped
//!    leftovers are handed back and dropped after the section. An edit of
//!    a shared block clones into a `Writer` and never writes the old block.
//! 6. **Threads.** A handle is `Send`/`Sync` when `W`, `A` and `B` are
//!    both, as `Arc<T>` is when `T` is.

use std::alloc::{self, Layout};
use std::fmt;
use std::marker::PhantomData;
use std::mem::{self, align_of, size_of};
use std::ptr::{self, NonNull};
use std::sync::atomic::{self, AtomicU32, Ordering};

/// Largest reference count before `clone` aborts (as `Arc` does past
/// `isize::MAX`): far below `u32::MAX`, so racing increments cannot wrap.
const MAX_COUNT: u32 = i32::MAX as u32;

/// `flags` bit of a wide block: its lengths are in the `u32` prefix.
const WIDE: u8 = 1;

/// The longest region a block records in its header bytes.
const NARROW_MAX: usize = u8::MAX as usize;

/// The lengths prefix of a wide block.
type WideLens = [u32; 3];

#[repr(C)]
struct Header<W> {
    count: AtomicU32,
    lens: [u8; 3],
    flags: u8,
    word: W,
}

/// A reference-counted trie node in one allocation. See the [module
/// documentation](self) for the layout and its invariants.
pub struct Packed<W, A, B> {
    ptr: NonNull<Header<W>>,
    marker: PhantomData<(W, A, B)>,
}

/// One slot, by value: what an edit inserts or takes out. Nodes store no
/// such enum; the region an element sits in is its category.
#[derive(Debug)]
pub enum Slot<A, B, N> {
    /// A first-region (`CAT1`) payload.
    One(A),
    /// A second-region (`CAT2`) payload.
    Many(B),
    /// A sub-trie handle.
    Child(N),
}

/// A slot of a `Packed<W, A, B>` node, by value.
type OwnSlot<W, A, B> = Slot<A, B, Packed<W, A, B>>;

impl<A, B, N> Slot<A, B, N> {
    fn region(&self) -> usize {
        match self {
            Slot::One(_) => 0,
            Slot::Many(_) => 1,
            Slot::Child(_) => 2,
        }
    }
}

/// One of a node's three regions, as a type: selects what
/// [`Packed::migrate`] takes out.
pub trait Region<W, A, B> {
    /// The region's element type.
    type Item;
    /// The region's position: 0, 1 or 2.
    const AT: usize;
    /// The element of a slot taken from this region (a slot of another
    /// region is a caller bug and panics).
    fn item(slot: OwnSlot<W, A, B>) -> Self::Item;
}

/// The first payload region (`CAT1`).
#[derive(Debug)]
pub enum Ones {}

/// The second payload region (`CAT2`).
#[derive(Debug)]
pub enum Manys {}

/// The sub-trie region.
#[derive(Debug)]
pub enum Children {}

impl<W, A, B> Region<W, A, B> for Ones {
    type Item = A;
    const AT: usize = 0;
    fn item(slot: OwnSlot<W, A, B>) -> A {
        match slot {
            Slot::One(a) => a,
            _ => unreachable!("taken from the region checked by `migrate`"),
        }
    }
}

impl<W, A, B> Region<W, A, B> for Manys {
    type Item = B;
    const AT: usize = 1;
    fn item(slot: OwnSlot<W, A, B>) -> B {
        match slot {
            Slot::Many(b) => b,
            _ => unreachable!("taken from the region checked by `migrate`"),
        }
    }
}

impl<W, A, B> Region<W, A, B> for Children {
    type Item = Packed<W, A, B>;
    const AT: usize = 2;
    fn item(slot: OwnSlot<W, A, B>) -> Packed<W, A, B> {
        match slot {
            Slot::Child(c) => c,
            _ => unreachable!("taken from the region checked by `migrate`"),
        }
    }
}

/// A handle to the slot regions of a uniquely owned node. Created by
/// [`Packed::get_mut`] and [`Packed::make_mut`].
#[derive(Debug)]
pub struct NodeMut<'a, W, A, B> {
    /// The owner's bitmap word.
    pub word: &'a mut W,
    /// The first payload region.
    pub ones: &'a mut [A],
    /// The second payload region.
    pub manys: &'a mut [B],
    /// The sub-trie handles.
    pub children: &'a mut [Packed<W, A, B>],
}

// SAFETY: a handle owns shared access to `W`, `A` and `B` values, exactly
// like `Arc<(W, [A], [B])>`; invariant 3 keeps the count race-free.
unsafe impl<W: Send + Sync, A: Send + Sync, B: Send + Sync> Send for Packed<W, A, B> {}
// SAFETY: as above.
unsafe impl<W: Send + Sync, A: Send + Sync, B: Send + Sync> Sync for Packed<W, A, B> {}

/// Aborts the process if dropped while armed: the guard of the sections
/// that hold elements moved bitwise out of a block (invariant 5).
struct AbortOnUnwind;

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        std::process::abort();
    }
}

/// Hints the CPU to load the cache line at `addr` (a no-op off x86-64).
/// A prefetch never dereferences its address and cannot fault, so any
/// pointer may be passed; a borrow coerces to one.
#[inline(always)]
pub fn prefetch<T: ?Sized>(addr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` only hints the cache: it does not dereference
    // the address and cannot fault, whatever the pointer. SSE, which it
    // needs, is part of the x86-64 baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(addr.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = addr;
}

#[inline(always)]
const fn round_up(n: usize, align: usize) -> usize {
    (n + align - 1) & !(align - 1)
}

impl<W, A, B> Packed<W, A, B> {
    const ALIGN: usize = {
        let mut align = align_of::<Header<W>>();
        if align_of::<A>() > align {
            align = align_of::<A>();
        }
        if align_of::<B>() > align {
            align = align_of::<B>();
        }
        if align_of::<Self>() > align {
            align = align_of::<Self>();
        }
        align
    };

    /// True if a block with region lengths `lens` is wide.
    #[inline(always)]
    fn is_wide(lens: [usize; 3]) -> bool {
        (lens[0] | lens[1] | lens[2]) > NARROW_MAX
    }

    /// Byte offset of region 0 in a narrow block: right past the header.
    const NARROW_START: usize = round_up(size_of::<Header<W>>(), align_of::<A>());

    /// Byte offset of region 0 in a wide block: past the lengths prefix.
    const WIDE_START: usize = round_up(
        size_of::<Header<W>>() + size_of::<WideLens>(),
        align_of::<A>(),
    );

    /// Byte offset of region 0 for region lengths `lens`.
    #[inline(always)]
    fn start(lens: [usize; 3]) -> usize {
        match Self::is_wide(lens) {
            true => Self::WIDE_START,
            false => Self::NARROW_START,
        }
    }

    /// Byte offsets of the three regions for region lengths `lens`, region
    /// 0 starting at `start`.
    #[inline(always)]
    fn offsets(start: usize, lens: [usize; 3]) -> [usize; 3] {
        let a = start;
        let b = round_up(a + lens[0] * size_of::<A>(), align_of::<B>());
        let c = round_up(b + lens[1] * size_of::<B>(), align_of::<Self>());
        [a, b, c]
    }

    /// The block layout for `lens`, computed with checked arithmetic. Once
    /// it succeeded for a block, [`Packed::offsets`] cannot overflow on the
    /// same lengths.
    fn layout(lens: [usize; 3]) -> Layout {
        let region = |start: usize, len: usize, size: usize, align: usize| {
            len.checked_mul(size)
                .and_then(|bytes| bytes.checked_add(start))
                .and_then(|end| end.checked_add(align - 1))
                .map(|end| end & !(align - 1))
        };
        let size = region(Self::start(lens), lens[0], size_of::<A>(), align_of::<B>())
            .and_then(|b| region(b, lens[1], size_of::<B>(), align_of::<Self>()))
            .and_then(|c| region(c, lens[2], size_of::<Self>(), Self::ALIGN));
        size.and_then(|size| Layout::from_size_align(size, Self::ALIGN).ok())
            .expect("trie node size overflows the address space")
    }

    /// The block's region lengths and the byte offsets of its regions.
    /// Region 0's offset is a constant of the branch the flag takes, so
    /// reading a narrow block's first region waits on no length.
    #[inline(always)]
    fn shape(&self) -> ([usize; 3], [usize; 3]) {
        let header = self.ptr.as_ptr();
        // SAFETY: invariant 1: the header is live and neither the flags nor
        // the lengths change. `lens` and `flags` are adjacent bytes of the
        // `repr(C)` header, so one 4-byte read covers both. A wide block's
        // prefix follows the header, aligned for `u32` because the header's
        // size is a multiple of its `AtomicU32` alignment.
        unsafe {
            let [a, b, c, flags] = ptr::addr_of!((*header).lens).cast::<[u8; 4]>().read();
            if flags & WIDE == 0 {
                let lens = [a, b, c].map(usize::from);
                (lens, Self::offsets(Self::NARROW_START, lens))
            } else {
                let lens = header.add(1).cast::<WideLens>().read().map(|n| n as usize);
                (lens, Self::offsets(Self::WIDE_START, lens))
            }
        }
    }

    #[inline(always)]
    fn lens(&self) -> [usize; 3] {
        self.shape().0
    }

    #[inline(always)]
    fn count(&self) -> &AtomicU32 {
        // SAFETY: invariant 1; the count is only ever accessed atomically.
        unsafe { &*ptr::addr_of!((*self.ptr.as_ptr()).count) }
    }

    /// Pointer to element 0 of region `r` of the block at `ptr` with
    /// lengths `lens`. The element type is the caller's to get right.
    #[inline(always)]
    fn region_ptr<T>(ptr: NonNull<Header<W>>, lens: [usize; 3], r: usize) -> *mut T {
        Self::at(ptr, Self::offsets(Self::start(lens), lens)[r])
    }

    /// Pointer to byte `offset` of the block at `ptr`, as a `T` pointer.
    #[inline(always)]
    fn at<T>(ptr: NonNull<Header<W>>, offset: usize) -> *mut T {
        // SAFETY: the callers pass a region offset of the block, which lies
        // inside (or one past the end of) its allocation (invariant 1).
        unsafe { ptr.as_ptr().cast::<u8>().add(offset).cast::<T>() }
    }

    /// Allocates a block for `lens` and writes its header (count 1); the
    /// regions are left uninitialised for the caller to fill.
    fn allocate(word: W, lens: [usize; 3]) -> NonNull<Header<W>> {
        let wide = Self::is_wide(lens);
        let wide_lens = lens.map(|n| u32::try_from(n).expect("trie node region length fits u32"));
        let (narrow_lens, flags) = match wide {
            true => ([u8::MAX; 3], WIDE),
            false => (lens.map(|n| n as u8), 0),
        };
        let layout = Self::layout(lens);
        // SAFETY: the layout is at least the header, so its size is not 0.
        let raw = unsafe { alloc::alloc(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<Header<W>>()) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: a fresh block, aligned for the header; a wide block's
        // layout has room for the prefix right after it (see `lens`).
        unsafe {
            ptr.as_ptr().write(Header {
                count: AtomicU32::new(1),
                lens: narrow_lens,
                flags,
                word,
            });
            if wide {
                ptr.as_ptr().add(1).cast::<WideLens>().write(wide_lens);
            }
        };
        ptr
    }

    /// A node holding `ones`, `manys` and `children` in that order, with
    /// bitmap `word`. Each iterator must yield exactly the number of items
    /// its `len` reports; one that does not panics (after dropping what it
    /// yielded).
    pub fn new<IA, IB, IC>(word: W, ones: IA, manys: IB, children: IC) -> Self
    where
        IA: IntoIterator<Item = A>,
        IA::IntoIter: ExactSizeIterator,
        IB: IntoIterator<Item = B>,
        IB::IntoIter: ExactSizeIterator,
        IC: IntoIterator<Item = Self>,
        IC::IntoIter: ExactSizeIterator,
    {
        let (ones, manys, children) = (ones.into_iter(), manys.into_iter(), children.into_iter());
        let mut w = Writer::new(word, [ones.len(), manys.len(), children.len()]);
        ones.for_each(|a| w.push(Slot::One(a)));
        manys.for_each(|b| w.push(Slot::Many(b)));
        children.for_each(|c| w.push(Slot::Child(c)));
        w.finish()
    }

    /// The first payload region (`CAT1`).
    #[inline(always)]
    pub fn ones(&self) -> &[A] {
        let (lens, at) = self.shape();
        // SAFETY: invariants 1 and 2: region 0 holds `lens[0]` initialised
        // `A`s, shared for as long as `self` is borrowed.
        unsafe { std::slice::from_raw_parts(Self::at(self.ptr, at[0]), lens[0]) }
    }

    /// The second payload region (`CAT2`).
    #[inline(always)]
    pub fn manys(&self) -> &[B] {
        let (lens, at) = self.shape();
        // SAFETY: as in `ones`, for region 1.
        unsafe { std::slice::from_raw_parts(Self::at(self.ptr, at[1]), lens[1]) }
    }

    /// The sub-trie handles.
    #[inline(always)]
    pub fn children(&self) -> &[Self] {
        let (lens, at) = self.shape();
        // SAFETY: as in `ones`, for region 2.
        unsafe { std::slice::from_raw_parts(Self::at(self.ptr, at[2]), lens[2]) }
    }

    /// The `CAT1` payload at absolute slot index `idx`.
    #[inline(always)]
    pub fn one(&self, idx: usize) -> &A {
        &self.ones()[idx]
    }

    /// The `CAT2` payload at absolute slot index `idx`.
    #[inline(always)]
    pub fn many(&self, idx: usize) -> &B {
        let (lens, at) = self.shape();
        // SAFETY: as in `manys`.
        let manys: &[B] = unsafe { std::slice::from_raw_parts(Self::at(self.ptr, at[1]), lens[1]) };
        &manys[idx - lens[0]]
    }

    /// The sub-trie handle at absolute slot index `idx`.
    #[inline(always)]
    pub fn child(&self, idx: usize) -> &Self {
        let (lens, at) = self.shape();
        // SAFETY: as in `children`.
        let children: &[Self] =
            unsafe { std::slice::from_raw_parts(Self::at(self.ptr, at[2]), lens[2]) };
        &children[idx - lens[0] - lens[1]]
    }

    /// Number of slots in all three regions.
    #[inline]
    pub fn arity(&self) -> usize {
        self.lens().iter().sum()
    }

    /// True if the two handles point to the same node.
    #[inline(always)]
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        a.ptr == b.ptr
    }

    /// Hints the CPU to load the node's header line into cache: a
    /// lookup that will read this node soon calls it first, so that the
    /// misses of several lookups overlap (see
    /// `AxiomMultiMap::get_many`). Reads and writes nothing.
    #[inline(always)]
    pub fn prefetch(&self) {
        prefetch(self.ptr.as_ptr().cast_const());
    }

    /// The node's address, for deduplicating footprint walks.
    pub fn as_ptr(&self) -> *const u8 {
        self.ptr.as_ptr().cast::<u8>()
    }

    /// Bytes of the node's allocation, as the allocator holds them.
    pub fn alloc_bytes(&self) -> usize {
        Self::layout(self.lens()).size()
    }

    /// True if this is the only handle to its node: an edit through
    /// `&mut self` then works in place.
    #[inline(always)]
    pub fn is_unique(&self) -> bool {
        self.count().load(Ordering::Acquire) == 1
    }

    /// The regions of a node this handle is the only owner of.
    ///
    /// # Safety
    ///
    /// `self.is_unique()` must hold (invariant 4).
    #[inline(always)]
    unsafe fn parts_mut(&mut self) -> NodeMut<'_, W, A, B> {
        let (lens, at) = self.shape();
        let ptr = self.ptr;
        // SAFETY: by the caller's contract no other handle exists, and the
        // `&mut self` borrow keeps it so for `'_`; the four places are
        // disjoint and initialised (invariants 1, 2).
        unsafe {
            NodeMut {
                word: &mut *ptr::addr_of_mut!((*ptr.as_ptr()).word),
                ones: std::slice::from_raw_parts_mut(Self::at(ptr, at[0]), lens[0]),
                manys: std::slice::from_raw_parts_mut(Self::at(ptr, at[1]), lens[1]),
                children: std::slice::from_raw_parts_mut(Self::at(ptr, at[2]), lens[2]),
            }
        }
    }

    /// The node's regions, mutably, if this is its only handle.
    #[inline(always)]
    pub fn get_mut(&mut self) -> Option<NodeMut<'_, W, A, B>> {
        if !self.is_unique() {
            return None;
        }
        // SAFETY: uniqueness checked just above.
        Some(unsafe { self.parts_mut() })
    }

    /// Region index and in-region index of absolute slot `idx`.
    fn locate(lens: [usize; 3], idx: usize) -> (usize, usize) {
        if idx < lens[0] {
            (0, idx)
        } else if idx < lens[0] + lens[1] {
            (1, idx - lens[0])
        } else {
            assert!(idx < lens.iter().sum(), "slot index out of bounds");
            (2, idx - lens[0] - lens[1])
        }
    }

    /// Reads slot `(r, i)` of the block bitwise: the block still holds the
    /// bits, so the caller must make sure only one copy is ever dropped.
    ///
    /// # Safety
    ///
    /// `(r, i)` must be in bounds of the block's regions.
    unsafe fn read(&self, (r, i): (usize, usize)) -> Slot<A, B, Self> {
        let lens = self.lens();
        // SAFETY: in bounds by the caller's contract; initialised (inv. 2).
        unsafe {
            match r {
                0 => Slot::One(Self::region_ptr::<A>(self.ptr, lens, 0).add(i).read()),
                1 => Slot::Many(Self::region_ptr::<B>(self.ptr, lens, 1).add(i).read()),
                _ => Slot::Child(Self::region_ptr::<Self>(self.ptr, lens, 2).add(i).read()),
            }
        }
    }
}

impl<W: Copy, A, B> Packed<W, A, B> {
    /// The owner's bitmap word.
    #[inline(always)]
    pub fn word(&self) -> W {
        // SAFETY: invariant 1; the word is only written through `NodeMut`,
        // which excludes this shared borrow.
        unsafe { ptr::addr_of!((*self.ptr.as_ptr()).word).read() }
    }
}

impl<W: Copy, A: Clone, B: Clone> Packed<W, A, B> {
    /// A clone of the slot at absolute index `idx`.
    fn slot_cloned(&self, idx: usize) -> Slot<A, B, Self> {
        match Self::locate(self.lens(), idx) {
            (0, i) => Slot::One(self.ones()[i].clone()),
            (1, i) => Slot::Many(self.manys()[i].clone()),
            (_, i) => Slot::Child(self.children()[i].clone()),
        }
    }

    /// The node's regions, mutably; a shared node is first copied (its
    /// elements cloned), as `Arc::make_mut` does.
    pub fn make_mut(&mut self) -> NodeMut<'_, W, A, B> {
        if !self.is_unique() {
            *self = self.copied(self.word(), None, None);
        }
        // SAFETY: `self` is now the only handle (a fresh copy or checked).
        unsafe { self.parts_mut() }
    }

    /// A new node with word `word`: this node's slots cloned in order,
    /// without the slot at absolute index `skip`, and with `insert` placed
    /// at its absolute index of the new node.
    fn copied(
        &self,
        word: W,
        skip: Option<usize>,
        insert: Option<(usize, Slot<A, B, Self>)>,
    ) -> Self {
        let old = self.lens();
        let skip = skip.map(|idx| Self::locate(old, idx));
        let mut lens = old;
        if let Some((r, _)) = skip {
            lens[r] -= 1;
        }
        let mut insert = insert.map(|(idx, slot)| {
            let r = slot.region();
            lens[r] += 1;
            let start: usize = lens[..r].iter().sum();
            assert!(
                (start..start + lens[r]).contains(&idx),
                "insert index outside its region"
            );
            (r, idx - start, slot)
        });
        let mut w = Writer::new(word, lens);
        let skip_in = |r: usize| skip.and_then(|(sr, i)| (sr == r).then_some(i));
        let mut at = |r: usize| match insert.take() {
            Some((ir, i, slot)) if ir == r => Some((i, slot)),
            other => {
                insert = other;
                None
            }
        };
        let (ones, manys, children) = (self.ones(), self.manys(), self.children());
        let (o, m, c) = (at(0), at(1), at(2));
        w.clone_region(0, w.ones, ones, skip_in(0), o);
        w.clone_region(1, w.manys, manys, skip_in(1), m);
        w.clone_region(2, w.children, children, skip_in(2), c);
        w.finish()
    }

    /// Rebuilds this node with word `word`: the slot at absolute index
    /// `from` (if any) is taken out and passed to `make`, whose result (if
    /// any) goes to absolute index `to` of the new node. A unique node's
    /// slots move (invariant 5, so `make` must not unwind); a shared
    /// node's are cloned, the taken slot only if `needs_taken`.
    fn splice(
        &mut self,
        word: W,
        from: Option<usize>,
        to: usize,
        needs_taken: bool,
        make: impl FnOnce(Option<Slot<A, B, Self>>) -> Option<Slot<A, B, Self>>,
    ) {
        let old = self.lens();
        let from = from.map(|idx| (idx, Self::locate(old, idx)));
        if !self.is_unique() {
            let taken = from
                .filter(|_| needs_taken)
                .map(|(idx, _)| self.slot_cloned(idx));
            let slot = make(taken);
            *self = self.copied(word, from.map(|(idx, _)| idx), slot.map(|slot| (to, slot)));
            return;
        }
        let guard = AbortOnUnwind;
        // SAFETY: in bounds (`locate` checked it). The bits stay in the old
        // block, which is freed below without dropping its elements.
        let taken = from.map(|(_, at)| unsafe { self.read(at) });
        let slot = make(taken);
        let mut lens = old;
        if let Some((_, (r, _))) = from {
            lens[r] -= 1;
        }
        let hole = slot.as_ref().map(|slot| {
            let r = slot.region();
            lens[r] += 1;
            let start: usize = lens[..r].iter().sum();
            assert!(
                (start..start + lens[r]).contains(&to),
                "insert index outside its region"
            );
            (r, to - start)
        });
        let new = Self::allocate(word, lens);
        // SAFETY: `new` has room for `lens`; each old element except the
        // taken one is moved exactly once, in order, around the hole, and
        // the hole is then filled, so every region of `new` is initialised.
        unsafe {
            Self::move_region::<A>(self.ptr, old, new, lens, 0, from, hole);
            Self::move_region::<B>(self.ptr, old, new, lens, 1, from, hole);
            Self::move_region::<Self>(self.ptr, old, new, lens, 2, from, hole);
            if let (Some((r, i)), Some(slot)) = (hole, slot) {
                match slot {
                    Slot::One(a) => Self::region_ptr::<A>(new, lens, r).add(i).write(a),
                    Slot::Many(b) => Self::region_ptr::<B>(new, lens, r).add(i).write(b),
                    Slot::Child(c) => Self::region_ptr::<Self>(new, lens, r).add(i).write(c),
                }
            }
            alloc::dealloc(self.ptr.as_ptr().cast::<u8>(), Self::layout(old));
            ptr::write(
                self,
                Packed {
                    ptr: new,
                    marker: PhantomData,
                },
            );
        }
        mem::forget(guard);
    }

    /// Moves region `r` of the old block into the new one, skipping the
    /// taken slot and leaving the hole unwritten, in at most four
    /// `memcpy`s.
    ///
    /// # Safety
    ///
    /// `T` is region `r`'s element type; `from` and `hole` are in bounds of
    /// the old and new lengths; the moved elements are not used again from
    /// the old block.
    unsafe fn move_region<T>(
        old: NonNull<Header<W>>,
        old_lens: [usize; 3],
        new: NonNull<Header<W>>,
        new_lens: [usize; 3],
        r: usize,
        from: Option<(usize, (usize, usize))>,
        hole: Option<(usize, usize)>,
    ) {
        let src = Self::region_ptr::<T>(old, old_lens, r);
        let dst = Self::region_ptr::<T>(new, new_lens, r);
        // The kept elements, in order: old index k below the taken slot,
        // k + 1 from it on. They fill the new region around the hole.
        let skip = from.and_then(|(_, (fr, i))| (fr == r).then_some(i));
        let kept = old_lens[r] - usize::from(skip.is_some());
        let skip = skip.unwrap_or(kept);
        let hole = hole
            .and_then(|(hr, i)| (hr == r).then_some(i))
            .unwrap_or(kept);
        // Kept elements `lo..hi` go to new index `to..`.
        let copy = |lo: usize, hi: usize, to: usize| {
            let below = hi.min(skip);
            // SAFETY: `lo..below` and `max(lo, skip)..hi` are kept
            // elements, in bounds of the old region (shifted by one past
            // the taken slot); their targets lie in the new region and
            // miss the hole; the blocks are distinct.
            unsafe {
                if lo < below {
                    ptr::copy_nonoverlapping(src.add(lo), dst.add(to), below - lo);
                }
                let above = lo.max(skip);
                if above < hi {
                    ptr::copy_nonoverlapping(
                        src.add(above + 1),
                        dst.add(to + above - lo),
                        hi - above,
                    );
                }
            }
        };
        copy(0, hole, 0);
        copy(hole, kept, hole + 1);
    }

    /// Installs `word` and inserts `slot` at absolute index `idx`.
    pub fn insert(&mut self, word: W, idx: usize, slot: Slot<A, B, Self>) {
        self.splice(word, None, idx, false, |_| Some(slot));
    }

    /// Installs `word` and removes the slot at absolute index `idx`. A
    /// unique node hands the slot back for the caller to drop; a shared
    /// node returns `None`.
    pub fn remove(&mut self, word: W, idx: usize) -> Option<Slot<A, B, Self>> {
        let mut out = None;
        self.splice(word, Some(idx), 0, false, |taken| {
            out = taken;
            None
        });
        out
    }

    /// Installs `word` and moves the slot at absolute index `from`, which
    /// must lie in region `R`, to absolute index `to` of the rebuilt node,
    /// through `f`. `f` receives the element by value (moved out of a
    /// unique node, cloned out of a shared one) and returns the new slot
    /// plus whatever it does not keep, which is handed back to the caller
    /// to drop: `f` must not unwind (invariant 5), so it should only move
    /// values.
    pub fn migrate<R: Region<W, A, B>, D>(
        &mut self,
        word: W,
        from: usize,
        to: usize,
        f: impl FnOnce(R::Item) -> (Slot<A, B, Self>, D),
    ) -> D {
        assert_eq!(
            Self::locate(self.lens(), from).0,
            R::AT,
            "slot in another region"
        );
        let mut leftover = None;
        self.splice(word, Some(from), to, true, |taken| {
            let (slot, rest) = f(R::item(taken.expect("a slot was taken")));
            leftover = Some(rest);
            Some(slot)
        });
        leftover.expect("the conversion ran")
    }

    /// Stores `child` in the child slot at absolute index `idx`: in place
    /// in a unique node, in a copy of a shared one.
    pub fn put_child(&mut self, idx: usize, child: Self) {
        match self.get_mut() {
            Some(node) => {
                let start = node.ones.len() + node.manys.len();
                node.children[idx - start] = child;
            }
            None => *self = self.copied(self.word(), Some(idx), Some((idx, Slot::Child(child)))),
        }
    }

    /// The slot at absolute index `keep` of a two-slot node whose other
    /// slot goes: moved out of a unique node (the handle is left on an
    /// empty node for its parent to drop), cloned out of a shared one.
    pub fn take_survivor(&mut self, keep: usize) -> Slot<A, B, Self> {
        assert!(
            self.arity() == 2 && keep < 2,
            "a survivor needs a two-slot node"
        );
        if !self.is_unique() {
            return self.slot_cloned(keep);
        }
        let lens = self.lens();
        let guard = AbortOnUnwind;
        // SAFETY: both slots are in bounds and distinct; their bits leave
        // the old block, which is freed without dropping them.
        let (kept, gone) = unsafe {
            (
                self.read(Self::locate(lens, keep)),
                self.read(Self::locate(lens, 1 - keep)),
            )
        };
        let empty = Self::allocate(self.word(), [0; 3]);
        // SAFETY: the old block is the one `self` points to, allocated with
        // its own lengths; `self` is then pointed at the empty block.
        unsafe {
            alloc::dealloc(self.ptr.as_ptr().cast::<u8>(), Self::layout(lens));
            ptr::write(
                self,
                Packed {
                    ptr: empty,
                    marker: PhantomData,
                },
            );
        }
        mem::forget(guard);
        drop(gone);
        kept
    }
}

impl<W, A, B> Clone for Packed<W, A, B> {
    #[inline]
    fn clone(&self) -> Self {
        if self.count().fetch_add(1, Ordering::Relaxed) > MAX_COUNT {
            std::process::abort();
        }
        Packed {
            ptr: self.ptr,
            marker: PhantomData,
        }
    }
}

impl<W, A, B> Drop for Packed<W, A, B> {
    fn drop(&mut self) {
        if self.count().fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        atomic::fence(Ordering::Acquire);
        let lens = self.lens();
        // SAFETY: this was the last handle (invariant 3), so the elements
        // are dropped once and the block freed with its own layout.
        unsafe {
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(
                Self::region_ptr::<A>(self.ptr, lens, 0),
                lens[0],
            ));
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(
                Self::region_ptr::<B>(self.ptr, lens, 1),
                lens[1],
            ));
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(
                Self::region_ptr::<Self>(self.ptr, lens, 2),
                lens[2],
            ));
            alloc::dealloc(self.ptr.as_ptr().cast::<u8>(), Self::layout(lens));
        }
    }
}

impl<W: fmt::Debug, A: fmt::Debug, B: fmt::Debug> fmt::Debug for Packed<W, A, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // SAFETY: a shared read of the word, as in `word`.
        let word = unsafe { &*ptr::addr_of!((*self.ptr.as_ptr()).word) };
        f.debug_struct("Packed")
            .field("word", word)
            .field("ones", &self.ones())
            .field("manys", &self.manys())
            .field("children", &self.children())
            .finish()
    }
}

/// A block under construction (invariant 2): regions fill as prefixes, and
/// dropping an unfinished writer drops those prefixes and frees the block.
struct Writer<W, A, B> {
    ptr: NonNull<Header<W>>,
    lens: [usize; 3],
    filled: [usize; 3],
    ones: *mut A,
    manys: *mut B,
    children: *mut Packed<W, A, B>,
}

impl<W, A, B> Writer<W, A, B> {
    fn new(word: W, lens: [usize; 3]) -> Self {
        let ptr = Packed::<W, A, B>::allocate(word, lens);
        Writer {
            ptr,
            lens,
            filled: [0; 3],
            ones: Packed::<W, A, B>::region_ptr(ptr, lens, 0),
            manys: Packed::<W, A, B>::region_ptr(ptr, lens, 1),
            children: Packed::<W, A, B>::region_ptr(ptr, lens, 2),
        }
    }

    fn push(&mut self, slot: OwnSlot<W, A, B>) {
        let r = slot.region();
        let i = self.filled[r];
        assert!(i < self.lens[r], "more slots than the node was sized for");
        // SAFETY: `i` is the first unwritten element of region `r`, in
        // bounds; each arm writes the region's own element type.
        unsafe {
            match slot {
                Slot::One(a) => self.ones.add(i).write(a),
                Slot::Many(b) => self.manys.add(i).write(b),
                Slot::Child(c) => self.children.add(i).write(c),
            }
        }
        self.filled[r] = i + 1;
    }

    /// Writes clones of `items` to the next positions of region `r`,
    /// whose first element `base` points to.
    fn extend_cloned<T: Clone>(&mut self, r: usize, base: *mut T, items: &[T]) {
        let start = self.filled[r];
        assert!(
            items.len() <= self.lens[r] - start,
            "more slots than the node was sized for"
        );
        for (i, x) in items.iter().enumerate() {
            let x = x.clone();
            // SAFETY: `base` is region `r`'s start (the callers pass the
            // matching pointer), and `start + i` is in bounds and unwritten.
            unsafe { base.add(start + i).write(x) };
            self.filled[r] = start + i + 1;
        }
    }

    /// Fills region `r` (starting at `base`) with clones of `old` without
    /// its element `skip`, and with `insert` at its position.
    fn clone_region<T: Clone>(
        &mut self,
        r: usize,
        base: *mut T,
        old: &[T],
        skip: Option<usize>,
        insert: Option<(usize, OwnSlot<W, A, B>)>,
    ) {
        let (before, after) = match skip {
            Some(s) => (&old[..s], &old[s + 1..]),
            None => (old, &old[old.len()..]),
        };
        let Some((at, slot)) = insert else {
            self.extend_cloned(r, base, before);
            self.extend_cloned(r, base, after);
            return;
        };
        let split = at.min(before.len());
        self.extend_cloned(r, base, &before[..split]);
        let rest = at - split;
        self.extend_cloned(r, base, &after[..rest]);
        self.push(slot);
        self.extend_cloned(r, base, &before[split..]);
        self.extend_cloned(r, base, &after[rest..]);
    }

    fn finish(self) -> Packed<W, A, B> {
        assert_eq!(
            self.filled, self.lens,
            "fewer slots than the node was sized for"
        );
        let ptr = self.ptr;
        mem::forget(self);
        Packed {
            ptr,
            marker: PhantomData,
        }
    }
}

impl<W, A, B> Drop for Writer<W, A, B> {
    fn drop(&mut self) {
        // SAFETY: exactly the prefixes `filled` are initialised; the block
        // was allocated with `layout(lens)` and never published.
        unsafe {
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(self.ones, self.filled[0]));
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(self.manys, self.filled[1]));
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(self.children, self.filled[2]));
            alloc::dealloc(
                self.ptr.as_ptr().cast::<u8>(),
                Packed::<W, A, B>::layout(self.lens),
            );
        }
    }
}

impl<W: Copy, A: Clone, B: Clone> crate::slices::CowNode for Packed<W, A, B> {
    type Bitmap = W;
    type Slot = Slot<A, B, Self>;

    #[inline]
    fn child(&self, idx: usize) -> &Self {
        Packed::child(self, idx)
    }

    #[inline]
    fn unique_child(&mut self, idx: usize) -> Option<&mut Self> {
        let NodeMut {
            ones,
            manys,
            children,
            ..
        } = self.get_mut()?;
        Some(&mut children[idx - ones.len() - manys.len()])
    }

    fn copy_with_child(&mut self, idx: usize, child: Self) {
        self.put_child(idx, child);
    }

    #[inline]
    fn resize(&mut self, bitmap: W, idx: usize, slot: Option<Self::Slot>) {
        match slot {
            Some(slot) => self.insert(bitmap, idx, slot),
            None => drop(self.remove(bitmap, idx)),
        }
    }

    fn take_slot(&mut self, keep: usize) -> Self::Slot {
        self.take_survivor(keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicIsize;
    use std::sync::Arc;

    /// A value that counts its live instances, so a test can see every
    /// element dropped exactly once. Cloning panics when `fuse` is 0.
    #[derive(Debug)]
    struct Live {
        id: u32,
        live: Arc<AtomicIsize>,
        fuse: Arc<AtomicIsize>,
    }

    impl Live {
        fn new(id: u32, live: &Arc<AtomicIsize>, fuse: &Arc<AtomicIsize>) -> Live {
            live.fetch_add(1, Ordering::SeqCst);
            Live {
                id,
                live: Arc::clone(live),
                fuse: Arc::clone(fuse),
            }
        }
    }

    impl Clone for Live {
        fn clone(&self) -> Live {
            assert!(
                self.fuse.fetch_sub(1, Ordering::SeqCst) != 0,
                "clone fuse blew"
            );
            Live::new(self.id, &self.live, &self.fuse)
        }
    }

    impl Drop for Live {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl PartialEq for Live {
        fn eq(&self, other: &Live) -> bool {
            self.id == other.id
        }
    }

    type Node = Packed<u64, Live, (u32, Live)>;

    fn ids(node: &Node) -> (Vec<u32>, Vec<u32>, usize) {
        (
            node.ones().iter().map(|l| l.id).collect(),
            node.manys().iter().map(|(_, l)| l.id).collect(),
            node.children().len(),
        )
    }

    #[test]
    fn unique_and_shared_edits_agree_and_drop_every_element_once() {
        let live = Arc::new(AtomicIsize::new(0));
        let fuse = Arc::new(AtomicIsize::new(isize::MAX));
        let l = |id| Live::new(id, &live, &fuse);
        {
            let leaf = Node::new(9, [l(100)], [], []);
            let mut unique = Node::new(7, [l(1), l(2)], [(0, l(3))], [leaf]);
            let mut shared = unique.clone();
            let _keep = shared.clone();
            for node in [&mut unique, &mut shared] {
                node.insert(8, 1, Slot::One(l(4)));
                assert_eq!(ids(node), (vec![1, 4, 2], vec![3], 1));
                node.migrate::<Ones, _>(8, 0, 3, |a| (Slot::Many((5, a)), ()));
                assert_eq!(ids(node), (vec![4, 2], vec![3, 1], 1));
                let child = node.migrate::<Children, _>(8, 4, 2, |c| (Slot::One(l(6)), c));
                assert_eq!(child.ones()[0].id, 100);
                drop(node.remove(8, 0));
                assert_eq!(ids(node), (vec![2, 6], vec![3, 1], 0));
                node.make_mut().ones[0].id = 20;
                assert_eq!(node.word(), 8);
            }
            assert_eq!(ids(&unique), ids(&shared));
            assert_eq!(
                ids(&_keep),
                (vec![1, 2], vec![3], 1),
                "other handle untouched"
            );
            let mut pair = Node::new(1, [l(30)], [(0, l(31))], []);
            let other = pair.clone();
            assert!(matches!(pair.take_survivor(1), Slot::Many((0, ref v)) if v.id == 31));
            drop(other);
            assert!(matches!(pair.take_survivor(0), Slot::One(ref v) if v.id == 30));
            assert_eq!(pair.arity(), 0, "a unique node is left empty");
        }
        assert_eq!(live.load(Ordering::SeqCst), 0, "every element dropped once");
    }

    #[test]
    fn a_panicking_clone_leaves_the_shared_node_whole() {
        let live = Arc::new(AtomicIsize::new(0));
        let fuse = Arc::new(AtomicIsize::new(isize::MAX));
        {
            let mut node = Node::new(0, (0..6).map(|i| Live::new(i, &live, &fuse)), [], []);
            let _other = node.clone();
            fuse.store(3, Ordering::SeqCst);
            let hit = catch_unwind(AssertUnwindSafe(|| {
                node.insert(1, 0, Slot::One(Live::new(9, &live, &fuse)))
            }));
            assert!(hit.is_err(), "the fourth clone panics");
            assert_eq!(ids(&node).0, vec![0, 1, 2, 3, 4, 5]);
            assert_eq!(live.load(Ordering::SeqCst), 6, "partial copy dropped");
        }
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn regions_keep_their_alignment() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        #[repr(align(32))]
        struct Wide(u8);
        let node: Packed<u64, Wide, ()> = Packed::new(3, [Wide(1), Wide(2)], [(), ()], []);
        let with_child = Packed::new(4, [Wide(3)], [], [node.clone()]);
        assert_eq!(node.ones().as_ptr() as usize % 32, 0);
        assert_eq!(with_child.children().as_ptr() as usize % 8, 0);
        assert_eq!(node.manys().len(), 2);
        assert_eq!(node.alloc_bytes() % 32, 0);
        assert!(Packed::ptr_eq(&with_child.children()[0], &node));
        // Header (16 B) then two 32-byte elements at offset 32.
        assert_eq!(node.alloc_bytes(), 32 + 2 * 32);
    }

    #[test]
    fn a_u32_set_node_is_a_16_byte_header_and_its_slots() {
        type SetNode = Packed<u64, u32, std::convert::Infallible>;
        assert_eq!(size_of::<Header<u64>>(), 16);
        let leaf: SetNode = Packed::new(0, [1, 2], [], []);
        assert_eq!(leaf.alloc_bytes(), 16 + 2 * 4);
        let leaf: SetNode = Packed::new(0, [1, 2, 3], [], []);
        assert_eq!(leaf.alloc_bytes(), 16 + 3 * 4 + 4, "rounded up to 8");
        let inner: SetNode = Packed::new(0, [4], [], [leaf.clone(), leaf]);
        assert_eq!(inner.alloc_bytes(), 16 + 8 + 2 * 8);
        assert_eq!(size_of::<SetNode>(), 8);
    }

    #[test]
    fn a_region_past_255_makes_a_wide_block_with_no_cap() {
        type SetNode = Packed<u64, u32, std::convert::Infallible>;
        let narrow: SetNode = Packed::new(0, 0..255, [], []);
        assert_eq!(narrow.alloc_bytes(), 16 + 255 * 4 + 4);
        let wide: SetNode = Packed::new(0, 0..300, [], []);
        // Header, the three `u32` lengths, then the elements.
        assert_eq!(wide.alloc_bytes(), 16 + 12 + 300 * 4 + 4);
        assert_eq!(wide.ones().len(), 300);
        assert!(wide.ones().iter().copied().eq(0..300));
        let wider: SetNode = Packed::new(0, 0..70_000, [], []);
        assert_eq!(wider.arity(), 70_000, "no 16-bit cap either");
        assert_eq!(wider.ones()[69_999], 69_999);
    }

    #[test]
    fn wide_blocks_cross_the_255_boundary_both_ways_and_drop_once() {
        let live = Arc::new(AtomicIsize::new(0));
        let fuse = Arc::new(AtomicIsize::new(isize::MAX));
        let l = |id| Live::new(id, &live, &fuse);
        {
            let node = |l: &dyn Fn(u32) -> Live| {
                let leaf = Node::new(9, [l(1000)], [], []);
                Node::new(7, (0..255).map(l), [(0, l(500))], [leaf])
            };
            let (mut unique, mut shared) = (node(&l), node(&l));
            let narrow_bytes = unique.alloc_bytes();
            let keep = shared.clone();
            // Wide: 12 more header bytes, one more `Live` (24 B) in the first
            // region, one `(u32, Live)` (32 B) less in the second.
            let size = |n: usize, m: usize| round_up(round_up(16 + 12 + n * 24, 8) + m * 32, 8) + 8;
            for (node, share) in [(&mut unique, false), (&mut shared, true)] {
                // Narrow to wide: the CAT2 slot moves into the first region
                // (moved out of the unique node, cloned out of the shared).
                node.migrate::<Manys, _>(8, 255, 255, |(_, v)| (Slot::One(v), ()));
                let (ones, manys, children) = ids(node);
                assert_eq!(ones.len(), 256);
                assert_eq!((ones[255], manys.len(), children), (500, 0, 1));
                assert_eq!(node.word(), 8);
                assert_eq!(node.child(256).ones()[0].id, 1000);
                assert_eq!(node.alloc_bytes(), size(256, 0));
                // Wide to narrow: one element moves out again, from a
                // unique block or from one another handle still reads.
                let hold = share.then(|| node.clone());
                node.migrate::<Ones, _>(9, 3, 255, |v| (Slot::Many((1, v)), ()));
                let (ones, manys, _) = ids(node);
                assert_eq!((ones.len(), manys), (255, vec![3]));
                assert_eq!(node.alloc_bytes(), narrow_bytes);
                if let Some(hold) = hold {
                    assert_eq!(ids(&hold).0.len(), 256, "the other handle stays wide");
                    assert_eq!(hold.alloc_bytes(), size(256, 0));
                }
                node.make_mut().manys[0].0 = 2;
                assert_eq!(node.manys()[0].0, 2);
            }
            assert_eq!(ids(&unique), ids(&shared));
            assert_eq!(ids(&keep).0, (0..255).collect::<Vec<_>>(), "untouched");
            // A wide block copied with a panicking clone is left whole.
            let mut wide = Node::new(0, (0..300).map(l), [], []);
            let other = wide.clone();
            fuse.store(100, Ordering::SeqCst);
            let hit = catch_unwind(AssertUnwindSafe(|| wide.remove(0, 5)));
            assert!(hit.is_err(), "the 101st clone panics");
            fuse.store(isize::MAX, Ordering::SeqCst);
            assert_eq!(ids(&wide).0, (0..300).collect::<Vec<_>>());
            drop(other);
            drop(wide.remove(0, 5));
            assert_eq!(wide.arity(), 299);
        }
        assert_eq!(live.load(Ordering::SeqCst), 0, "every element dropped once");
    }
}

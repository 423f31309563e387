//! A counting global allocator for allocation-behaviour assertions.
//!
//! The transient in-place editing paths promise *zero* heap allocations for
//! spine-preserving edits on uniquely-owned tries (no `Arc` node copies, no
//! slot-array rebuilds). Modeled byte counts ([`crate::RustFootprint`])
//! cannot observe that — only the allocator can — so this module provides a
//! wrapper that counts every `alloc`/`realloc` passing through it. It also
//! keeps the bytes currently allocated ([`live_bytes`]), against which a
//! collection's modeled native footprint can be checked exactly.
//!
//! Opt in per test binary:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: heapmodel::alloc_counter::CountingAlloc =
//!     heapmodel::alloc_counter::CountingAlloc::system();
//!
//! let (result, allocs) = heapmodel::alloc_counter::measure(|| do_work());
//! assert_eq!(allocs, 0);
//! ```
//!
//! The counters are process-global atomics: measurements are only meaningful
//! while no other thread allocates (run such assertions in a test binary
//! with a single test).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] wrapper that counts allocations (including `realloc`)
/// and tracks live bytes before delegating to the system allocator.
#[derive(Debug, Default)]
pub struct CountingAlloc {
    inner: System,
}

impl CountingAlloc {
    /// A counting wrapper around [`std::alloc::System`], usable in a
    /// `#[global_allocator]` static.
    pub const fn system() -> CountingAlloc {
        CountingAlloc { inner: System }
    }
}

// SAFETY: delegates verbatim to the wrapped allocator; the counters have no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { self.inner.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { self.inner.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // Wrapping: a shrinking realloc adds the two's complement of the
        // difference, which the modular sum cancels.
        LIVE_BYTES.fetch_add(
            (new_size as u64).wrapping_sub(layout.size() as u64),
            Ordering::Relaxed,
        );
        unsafe { self.inner.realloc(ptr, layout, new_size) }
    }
}

/// Total allocations observed so far (0 unless a [`CountingAlloc`] is
/// installed as the global allocator).
pub fn total_allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Total bytes requested so far.
pub fn total_allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Bytes currently allocated through the counting allocator: every
/// `alloc` adds its size, every `dealloc` subtracts it, and a `realloc`
/// adds `new_size - old_size`.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Runs `f` and returns its result together with the number of allocations
/// performed while it ran (single-threaded measurements only).
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = total_allocations();
    let result = f();
    (result, total_allocations() - before)
}

//! Shared substrate for the hash-trie data structures in this workspace.
//!
//! Every trie in this repository — [HAMT], [CHAMP] and AXIOM — consumes search
//! keys as 32-bit hash codes, five bits at a time (the paper's setting: a
//! branching factor of 32 experimentally balances search and update costs for
//! immutable collections). This crate provides:
//!
//! * [`algebra`] — the structural `union`/`intersect`/`difference`/`diff`
//!   and `==` walks, written once over a read-only node view that each
//!   AXIOM, CHAMP and HAMT trie supplies;
//! * [`bits`] — 5-bit mask extraction, one-bit positions and popcount-based
//!   compressed indexing shared by all node encodings;
//! * [`hash`] — a deterministic, dependency-free 32-bit key hasher;
//! * [`ops`] — the iterator-first `MapOps` / `SetOps` / `MultiMapOps` traits
//!   that let the benchmark harness and the static-analysis case study run
//!   the *same* algorithm over every competing implementation, plus the
//!   `TransientOps`/`Builder` bulk-construction protocol;
//! * [`iter`] — reusable adapters backing the map-of-sets implementations'
//!   associated iterator types;
//! * [`slices`] — dense slot-array edit helpers (borrowed path-copying and
//!   owned in-place families) and the copy-on-write steps of the one edit
//!   walk every AXIOM, CHAMP and HAMT trie runs;
//! * [`packed`] — the one-allocation node of the AXIOM set and multi-map
//!   (reference count, bitmap and typed slot groups in one block), which
//!   holds every `unsafe` block of the tries;
//! * [`snapshot`] — the versioned binary snapshot codec
//!   (`SnapshotWrite`/`SnapshotRead`) every collection and the sharded
//!   layer persist through;
//! * [`sync`] — poison-recovering lock helpers the serving stack uses so
//!   one panicked worker never wedges the process;
//! * [`faults`] — deterministic fault-injection sites (registry compiled
//!   only under the `fault-injection` feature).
//!
//! [HAMT]: https://en.wikipedia.org/wiki/Hash_array_mapped_trie
//! [CHAMP]: https://doi.org/10.1145/2814270.2814312
//!
//! # Examples
//!
//! ```
//! use trie_common::bits::{mask, bit_pos, index_in};
//!
//! // Key hash 0b01000_00010 descends to branch 2 at level 0 and branch 8 at level 1.
//! let hash = 0b01000_00010u32;
//! assert_eq!(mask(hash, 0), 2);
//! assert_eq!(mask(hash, 5), 8);
//!
//! // Compressed indexing: branch 2 is the 2nd occupied slot of this bitmap.
//! let bitmap = 0b0000_0101u32; // branches 0 and 2 occupied
//! assert_eq!(index_in(bitmap, bit_pos(2)), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algebra;
pub mod bits;
pub mod faults;
pub mod hash;
pub mod iter;
pub mod ops;
pub mod packed;
pub mod slices;
pub mod snapshot;
pub mod sync;

pub use bits::{bit_pos, index_in, mask, BITS_PER_LEVEL, FANOUT, HASH_BITS, LEVEL_MASK};
pub use hash::hash32;
pub use ops::{Builder, EditInPlace, MapOps, MultiMapOps, SetOps, Transient, TransientOps};
pub use snapshot::{SnapshotError, SnapshotRead, SnapshotWrite};

//! **sharded** — concurrent, shard-partitioned wrappers over the persistent
//! hash tries.
//!
//! The persistent collections in this workspace ([`axiom`], `champ`, `hamt`,
//! `idiomatic`) are single-writer values: cheap to clone, lock-free to read,
//! but a `&mut` handle serializes all writers. This crate scales them to
//! concurrent traffic with a classic three-phase design, using exactly the
//! hooks the rest of the workspace already provides:
//!
//! 1. **Partition** — keys route to one of `N` (power-of-two) shards by the
//!    *top* `log2(N)` bits of the same 32-bit [`trie_common::hash::hash32`]
//!    the tries consume. Tries eat hash bits bottom-up, so shard routing is
//!    invisible to each shard's internal structure, and a key's shard never
//!    changes.
//! 2. **Shard-local transients** — bulk construction partitions the input
//!    and builds every shard through the
//!    [`TransientOps`](trie_common::ops::TransientOps) builder protocol on
//!    its own scoped worker thread ([`std::thread::scope`]); incremental
//!    writers stage batches of edits on a shard-local successor through the
//!    in-place `_mut` protocol
//!    ([`MultiMapMutOps`](trie_common::ops::MultiMapMutOps) and friends).
//!    Nothing concurrent ever touches a trie under mutation: successors are
//!    thread-private until frozen.
//! 3. **Atomic publish** — finished shard values are frozen into `Arc`
//!    snapshots and installed with one pointer swap of the global epoch
//!    bundle (`publish`). Readers pin the bundle (one refcount bump) and
//!    query the immutable tries lock-free for as long as they like; they
//!    always see a complete batch, never a partial one.
//!
//! # One generic store
//!
//! All three shapes are one type, [`Sharded<C, Kd>`]: `C` is the shard
//! collection and `Kd` a zero-sized kind marker ([`Map`], [`Set`] or
//! [`MultiMap`]) implementing the [`ShardKind`] traits — routing key,
//! element shape, in-place edit, per-shard diff, snapshot encoding. The
//! epoch plumbing (routing, pinning, batched and validated commits, the
//! parallel build/extend/diff drivers, save and restore) is written once
//! over those traits; each kind adds only its queries and algebra.
//! [`ShardedMap`], [`ShardedSet`] and [`ShardedMultiMap`] (and their
//! [`MapSnapshot`], [`SetSnapshot`], [`MultiMapSnapshot`] pins) are type
//! aliases with [`axiom`] shards by default.
//!
//! # Consistency model
//!
//! Globally serializable publication: all shards publish under **one**
//! epoch sequence, and every commit — even a batch spanning many shards —
//! swaps the whole bundle atomically. A [`Sharded::snapshot`] pins one
//! epoch, so any two reads answered from the same snapshot are mutually
//! consistent *across shards* (the MVCC guarantee the serving engine builds
//! on). Optimistic read-modify-write is available through
//! [`Sharded::apply_validated`], which re-checks the pinned per-shard
//! versions at commit and reports an [`EpochConflict`] instead of
//! clobbering concurrent writes.
//!
//! # `Send`/`Sync` reasoning
//!
//! `Sharded<C, Kd>` is `Send + Sync` whenever `C` is (the marker is a
//! `PhantomData<fn() -> Kd>`): published state is one `EpochCell` — a
//! `Mutex<Arc<…>>` bundle, its `Condvar`, and per-shard `Mutex<()>` write
//! locks — and the trie handles themselves are `Arc`-based persistent
//! structures that are `Send + Sync` for `Send + Sync` element types. The
//! aliasing discipline that makes this sound is the `Arc::get_mut`
//! uniqueness protocol of the `_mut` families: a writer's staged successor
//! shares nodes with published snapshots, and precisely those shared nodes
//! are path-copied on write — verified from the outside by the
//! `tests/sharded_aliasing.rs` cross-thread property tests.
//!
//! # Examples
//!
//! ```
//! use sharded::ShardedMultiMap;
//! use trie_common::ops::MultiMapEdit;
//!
//! // Parallel bulk build: partition once, one builder thread per shard.
//! let mm: ShardedMultiMap<u32, u32> =
//!     ShardedMultiMap::build_parallel(4, (0..1000u32).map(|i| (i % 100, i)));
//! assert_eq!(mm.tuple_count(), 1000);
//!
//! // Readers work on frozen snapshots, unaffected by later writes.
//! let snap = mm.snapshot();
//! mm.apply((0..50u32).map(MultiMapEdit::RemoveKey));
//! assert_eq!(snap.tuple_count(), 1000);
//! assert_eq!(mm.key_count(), 50);
//! ```

#![warn(missing_docs)]

mod kind;
mod map;
mod multimap;
mod partition;
mod publish;
mod set;
mod shards;
mod snapshot;

pub use kind::{DiffKind, EditKind, SaveKind, ShardKind};
pub use map::{Map, MapSnapshot, ShardedMap};
pub use multimap::{MultiMap, MultiMapSnapshot, ShardedMultiMap};
pub use partition::{partition_by, partition_tuples, Partition, MAX_SHARDS};
pub use publish::EpochConflict;
pub use set::{Set, SetSnapshot, ShardedSet};
pub use shards::{Sharded, Snapshot};

/// Default shard count: the available parallelism rounded up to a power of
/// two (capped at [`MAX_SHARDS`]; 1 when parallelism cannot be queried).
pub fn default_shard_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .next_power_of_two()
        .min(MAX_SHARDS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_shard_count_is_a_valid_partition() {
        let n = default_shard_count();
        assert!(n.is_power_of_two());
        assert!((1..=MAX_SHARDS).contains(&n));
        let _ = Partition::new(n);
    }
}

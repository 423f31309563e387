//! **serving** — an in-process MVCC query-serving engine over the sharded
//! persistent hash tries.
//!
//! The persistent collections give O(1) freeze-to-snapshot; the `sharded`
//! crate scales their write path across shards and (since the epoch
//! rework) publishes every shard under **one** global epoch sequence. This
//! crate turns that substrate into a request/response engine:
//!
//! - **Consistent epoch pins** — every read batch is answered against one
//!   pinned epoch ([`Serve::Snapshot`]), so a fan-out that touches many
//!   shards can never observe a half-applied write batch.
//! - **A request engine** ([`Engine`]) — typed read ops
//!   ([`MapRead`]/[`SetRead`]/[`MultiMapRead`]) submitted as batches and
//!   served by a worker pool; typed replies come back in submission order
//!   tagged with the answering epoch.
//! - **Writer admission** ([`Engine::stage`]) — write batches queue whole
//!   on one admission queue and one applier commits each drain as a single
//!   epoch (group commit), so a multi-shard batch is atomic; readers never
//!   block and writers never contend on trie editing.
//! - **Optimistic transactions** ([`Engine::transact`]) — read-modify-write
//!   bodies run against a pin and commit only if every shard they read or
//!   wrote is still at its pinned version, retrying on [`EpochConflict`].
//! - **Fault tolerance** — bounded admission sheds with [`Overloaded`]
//!   instead of growing without bound ([`Engine::try_stage`] /
//!   [`Engine::stage_timeout`]), ticket waits take deadlines without losing
//!   the ticket, and a panicking worker faults only the requests it carried
//!   ([`WriteError::Faulted`] / [`ReadError::Faulted`]) while a supervisor
//!   respawns it — the engine never wedges on a poisoned lock.
//! - **A wire protocol** — [`Server`] frames the same batches over TCP
//!   ([`proto`]: validated binary frames riding the snapshot value codec)
//!   and [`Client`] carries the visibility epoch as a session floor, so
//!   read-your-writes works across connections; a read pipelined behind a
//!   connection's own writes is fenced into the admission queue, so it
//!   sees them without the connection waiting; every engine failure mode
//!   maps onto a stable numeric [`Status`] code.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use serving::{Engine, EngineConfig, MapRead, MapReply};
//! use sharded::ShardedMap;
//! use trie_common::ops::MapEdit;
//!
//! let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(4));
//! // Bound the admission queue at 64 staged batches: `stage` now applies
//! // back-pressure and `try_stage` sheds (returning the batch) when full.
//! let engine = Engine::with_config(
//!     Arc::clone(&store),
//!     EngineConfig { lane_capacity: Some(64), ..EngineConfig::default() },
//! );
//!
//! // Stage a write batch; wait for its visibility epoch.
//! let ticket = engine.stage((0..100u32).map(|i| MapEdit::Insert(i, i * 2)));
//! ticket.wait().expect("no applier faulted");
//!
//! // A read batch is answered against one pinned epoch.
//! let reply = engine
//!     .submit(vec![MapRead::Get(7), MapRead::Len])
//!     .wait()
//!     .expect("no read worker faulted");
//! assert_eq!(reply.replies[0], MapReply::Value(Some(14)));
//! assert_eq!(reply.replies[1], MapReply::Count(100));
//!
//! // Read-modify-write with commit-time validation.
//! let out = engine
//!     .transact(|txn| {
//!         let MapReply::Value(v) = txn.read(&MapRead::Get(7)) else { unreachable!() };
//!         txn.write(MapEdit::Insert(7, v.unwrap() + 1));
//!     })
//!     .unwrap();
//! assert_eq!(out.delta, 0); // overwrote an existing key
//! ```

#![warn(missing_docs)]

mod admit;
mod engine;
mod error;
pub mod net;
mod ops;
pub mod proto;
pub mod session;
mod store;
mod txn;

pub use admit::WriteTicket;
pub use engine::{BatchReply, Engine, EngineConfig, EngineStats, ReadTicket};
pub use error::{Overloaded, ReadError, ReplyMismatch, Status, WriteError, ALL_STATUSES};
pub use net::{Server, ServerConfig};
pub use ops::{MapRead, MapReply, MultiMapRead, MultiMapReply, SetRead, SetReply};
pub use proto::{Frame, OpCode, WireError};
pub use session::{
    Client, ClientError, MapClient, MultiMapClient, ScriptOp, ScriptReply, SetClient,
};
pub use sharded::EpochConflict;
pub use store::{Serve, ServeKind};
pub use txn::{Txn, TxnError, TxnOutcome};

#[cfg(test)]
mod tests {
    use super::*;
    use sharded::{ShardedMap, ShardedMultiMap, ShardedSet};
    use std::sync::Arc;
    use trie_common::ops::{MapEdit, MultiMapEdit, SetEdit};

    #[test]
    fn map_reads_and_writes_roundtrip() {
        let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(4));
        let engine = Engine::new(Arc::clone(&store));
        let epoch = engine
            .stage((0..500u32).map(|i| MapEdit::Insert(i, i)))
            .wait()
            .expect("no applier faulted");
        assert!(epoch >= 1);
        let reply = engine.submit(vec![
            MapRead::Get(3),
            MapRead::Contains(499),
            MapRead::Contains(500),
            MapRead::Len,
            MapRead::Scan { limit: 10 },
        ]);
        let reply = reply.wait().expect("no read worker faulted");
        assert_eq!(reply.replies[0], MapReply::Value(Some(3)));
        assert_eq!(reply.replies[1], MapReply::Bool(true));
        assert_eq!(reply.replies[2], MapReply::Bool(false));
        assert_eq!(reply.replies[3], MapReply::Count(500));
        let entries = reply.replies[4]
            .clone()
            .into_entries()
            .expect("scan answers with entries");
        assert_eq!(entries.len(), 10);
        let stats = engine.stats();
        assert_eq!(stats.read_batches, 1);
        assert_eq!(stats.read_ops, 5);
        assert_eq!(stats.write_batches, 1);
        assert_eq!(stats.write_edits, 500);
    }

    #[test]
    fn staged_batches_coalesce_but_all_ack() {
        let store: Arc<ShardedSet<u32>> = Arc::new(ShardedSet::with_shards(2));
        let engine = Engine::new(Arc::clone(&store));
        let tickets: Vec<_> = (0..50u32)
            .map(|i| engine.stage([SetEdit::Insert(i)]))
            .collect();
        for t in &tickets {
            t.wait().expect("no applier faulted");
        }
        assert_eq!(store.len(), 50);
        let reply = engine.execute(&[SetRead::Len, SetRead::Contains(49)]);
        assert_eq!(reply.replies[0], SetReply::Count(50));
        assert_eq!(reply.replies[1], SetReply::Bool(true));
    }

    #[test]
    fn empty_write_batch_resolves_immediately() {
        let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(2));
        let engine = Engine::new(store);
        let ticket = engine.stage(std::iter::empty());
        assert_eq!(ticket.try_epoch(), Some(0));
    }

    #[test]
    fn multimap_fanout_is_single_pin() {
        let store: Arc<ShardedMultiMap<u32, u32>> = Arc::new(ShardedMultiMap::with_shards(4));
        let engine = Engine::new(Arc::clone(&store));
        engine
            .stage((0..300u32).map(|i| MultiMapEdit::Insert(i % 30, i)))
            .wait()
            .expect("no applier faulted");
        let reply = engine.execute(&[
            MultiMapRead::FanOut((0..30).collect()),
            MultiMapRead::TupleCount,
        ]);
        let per_key = reply.replies[0]
            .clone()
            .into_fan_out()
            .expect("fan-out answers with per-key values");
        assert_eq!(per_key.len(), 30);
        assert!(per_key.iter().all(|(_, vs)| vs.len() == 10));
        assert_eq!(reply.replies[1], MultiMapReply::Count(300));
    }

    #[test]
    fn transactions_retry_past_interference() {
        let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(2));
        store.insert(0, 0);
        // The budget covers the worst interleaving: one attempt can lose to
        // every other thread's remaining increments.
        let engine = Arc::new(Engine::with_config(
            Arc::clone(&store),
            EngineConfig {
                txn_attempts: 100,
                ..EngineConfig::default()
            },
        ));
        // 4 threads each increment key 0 transactionally 25 times; every
        // increment must be preserved despite conflicts.
        std::thread::scope(|s| {
            for _ in 0..4 {
                let engine = Arc::clone(&engine);
                s.spawn(move || {
                    for _ in 0..25 {
                        engine
                            .transact(|txn| {
                                let MapReply::Value(v) = txn.read(&MapRead::Get(0)) else {
                                    unreachable!()
                                };
                                txn.write(MapEdit::Insert(0, v.unwrap() + 1));
                            })
                            .expect("attempt budget is large enough");
                    }
                });
            }
        });
        assert_eq!(store.get_cloned(&0), Some(100));
        assert_eq!(engine.stats().txn_commits, 100);
    }

    #[test]
    fn transact_reports_exhaustion() {
        let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(1));
        store.insert(0, 0);
        let engine = Engine::with_config(
            Arc::clone(&store),
            EngineConfig {
                read_workers: 1,
                txn_attempts: 3,
                ..EngineConfig::default()
            },
        );
        // The body itself invalidates its own pin, so no attempt can ever
        // commit.
        let err = engine
            .transact(|txn| {
                let _ = txn.read(&MapRead::Get(0));
                store.insert(0, 1);
                txn.write(MapEdit::Insert(0, 2));
            })
            .unwrap_err();
        let TxnError::Exhausted { attempts, .. } = err;
        assert_eq!(attempts, 3);
        assert_eq!(engine.stats().txn_conflicts, 3);
    }

    #[test]
    fn pin_after_long_polls() {
        let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(2));
        let engine = Arc::new(Engine::new(Arc::clone(&store)));
        let seen = engine.pin();
        std::thread::scope(|s| {
            let e = Arc::clone(&engine);
            let seen_epoch = seen.epoch();
            let waiter = s.spawn(move || e.pin_after(seen_epoch));
            std::thread::sleep(std::time::Duration::from_millis(5));
            engine
                .stage([MapEdit::Insert(1, 1)])
                .wait()
                .expect("no applier faulted");
            let fresh = waiter.join().unwrap();
            assert!(fresh.epoch() > seen.epoch());
            assert_eq!(fresh.get(&1), Some(&1));
        });
    }

    #[test]
    fn engine_drop_drains_staged_writes() {
        let store: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::with_shards(4));
        {
            let engine = Engine::new(Arc::clone(&store));
            for i in 0..100u32 {
                engine.stage([MapEdit::Insert(i, i)]);
            }
            // No waits: drop must still apply everything queued.
        }
        assert_eq!(store.len(), 100);
    }

    #[test]
    fn mismatched_reply_accessors_error_instead_of_panicking() {
        let reply: MapReply<u32, u32> = MapReply::Count(3);
        let err = reply.into_value().unwrap_err();
        assert_eq!(err.expected, "Value");
        assert_eq!(err.found, "Count");
        assert_eq!(
            err.to_string(),
            "reply mismatch: expected Value, found Count"
        );
        let reply: MultiMapReply<u32, u32> = MultiMapReply::Bool(true);
        assert!(reply.into_fan_out().is_err());
        let reply: SetReply<u32> = SetReply::Elems(vec![1, 2]);
        assert_eq!(reply.into_elems().unwrap(), vec![1, 2]);
    }
}

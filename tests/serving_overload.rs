//! Bounded-admission behaviour of the serving engine: shed-not-grow under
//! writer storms, deadline waits that never lose the ticket, and read-queue
//! back-pressure.
//!
//! Determinism comes from a `SlowStore` wrapper whose `apply`/`answer`
//! block on explicit gates: the tests fill the admission and read queues
//! to exact depths before asserting what admission does, instead of
//! racing the real applier. The read gate lives in `answer` (carried by the snapshot)
//! rather than `pin`, because reads pin at *submission* — a gate in `pin`
//! would stall the submitting caller, not the read worker.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use axiom_repro::serving::{Engine, EngineConfig, MapRead, MapReply, ReadError, Serve, WriteError};
use axiom_repro::sharded::{EpochConflict, ShardedMap};
use axiom_repro::trie_common::ops::MapEdit;

/// A manually opened barrier: `pass` blocks until `open` is called.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn closed() -> Self {
        Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn pass(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }
}

type Inner = ShardedMap<u32, u32>;

/// Delegates to a real sharded map but lets the test block the apply and
/// answer paths, holding appliers/read-workers mid-job on demand.
struct SlowStore {
    inner: Inner,
    write_gate: Gate,
    read_gate: Arc<Gate>,
    applies_entered: AtomicUsize,
    answers_entered: Arc<AtomicUsize>,
}

/// A pinned snapshot that carries the read gate: `answer` (which runs on
/// the read worker, with the snapshot pinned long before) blocks on it.
#[derive(Clone)]
struct SlowSnap {
    inner: <Inner as Serve>::Snapshot,
    read_gate: Arc<Gate>,
    answers_entered: Arc<AtomicUsize>,
}

impl std::ops::Deref for SlowSnap {
    type Target = <Inner as Serve>::Snapshot;

    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

impl SlowStore {
    fn new(shards: usize, hold_writes: bool, hold_reads: bool) -> Self {
        let write_gate = Gate::closed();
        let read_gate = Gate::closed();
        if !hold_writes {
            write_gate.open();
        }
        if !hold_reads {
            read_gate.open();
        }
        SlowStore {
            inner: ShardedMap::with_shards(shards),
            write_gate,
            read_gate: Arc::new(read_gate),
            applies_entered: AtomicUsize::new(0),
            answers_entered: Arc::new(AtomicUsize::new(0)),
        }
    }

    fn wrap(&self, inner: <Inner as Serve>::Snapshot) -> SlowSnap {
        SlowSnap {
            inner,
            read_gate: Arc::clone(&self.read_gate),
            answers_entered: Arc::clone(&self.answers_entered),
        }
    }

    /// Spins until `counter` reaches `n` — the workers are real threads, so
    /// "the applier has picked up the batch" is an eventually-true fact.
    fn await_count(counter: &AtomicUsize, n: usize) {
        while counter.load(Ordering::Acquire) < n {
            std::thread::yield_now();
        }
    }
}

impl Serve for SlowStore {
    type Read = <Inner as Serve>::Read;
    type Reply = <Inner as Serve>::Reply;
    type Edit = <Inner as Serve>::Edit;
    type Snapshot = SlowSnap;

    fn pin(&self) -> Self::Snapshot {
        self.wrap(self.inner.pin())
    }

    fn pin_after(&self, epoch: u64) -> Self::Snapshot {
        self.wrap(self.inner.pin_after(epoch))
    }

    fn epoch_of(snap: &Self::Snapshot) -> u64 {
        <Inner as Serve>::epoch_of(&snap.inner)
    }

    fn current_epoch(&self) -> u64 {
        self.inner.current_epoch()
    }

    fn answer(snap: &Self::Snapshot, op: &Self::Read) -> Self::Reply {
        snap.answers_entered.fetch_add(1, Ordering::Release);
        snap.read_gate.pass();
        <Inner as Serve>::answer(&snap.inner, op)
    }

    fn read_shards(snap: &Self::Snapshot, op: &Self::Read, out: &mut Vec<usize>) {
        <Inner as Serve>::read_shards(&snap.inner, op, out)
    }

    fn apply(&self, batch: Vec<Self::Edit>) -> isize {
        self.applies_entered.fetch_add(1, Ordering::Release);
        self.write_gate.pass();
        <Inner as Serve>::apply(&self.inner, batch)
    }

    fn apply_validated(
        &self,
        base: &Self::Snapshot,
        read_shards: &[usize],
        batch: Vec<Self::Edit>,
    ) -> Result<isize, EpochConflict> {
        self.inner.apply_validated(&base.inner, read_shards, batch)
    }
}

fn bounded_engine(store: &Arc<SlowStore>, lane_capacity: usize) -> Engine<SlowStore> {
    Engine::with_config(
        Arc::clone(store),
        EngineConfig {
            read_workers: 1,
            lane_capacity: Some(lane_capacity),
            ..EngineConfig::default()
        },
    )
}

/// A capacity-1 admission queue under a try_stage storm: admissions beyond the one
/// in-flight batch plus one queued batch shed with `Overloaded` (never an
/// unbounded queue), every acked write is present afterwards, and every
/// shed batch is absent — nothing acked is lost, nothing shed leaks in.
#[test]
fn capacity_one_lane_sheds_storm_without_losing_acked_writes() {
    let store = Arc::new(SlowStore::new(1, true, false));
    let engine = bounded_engine(&store, 1);

    // Fill deterministically: batch A is drained and its apply blocks on
    // the gate; batch B then occupies the queue's single slot.
    let ticket_a = engine.stage([MapEdit::Insert(0, 0)]);
    SlowStore::await_count(&store.applies_entered, 1);
    let ticket_b = engine.stage([MapEdit::Insert(1, 1)]);

    // The storm: everything beyond the queued batch must shed, whole.
    let mut acked = vec![ticket_a, ticket_b];
    let mut acked_keys = vec![0u32, 1];
    let mut shed_keys = Vec::new();
    for key in 2..200u32 {
        match engine.try_stage([MapEdit::Insert(key, key)]) {
            Ok(t) => {
                acked.push(t);
                acked_keys.push(key);
            }
            Err(overloaded) => {
                let batch = overloaded.into_inner();
                assert_eq!(batch.len(), 1, "shed batches come back whole");
                shed_keys.push(key);
            }
        }
    }
    assert!(
        !shed_keys.is_empty(),
        "storm must overflow a capacity-1 queue"
    );
    assert_eq!(engine.stats().shed_writes, shed_keys.len() as u64);

    store.write_gate.open();
    for t in &acked {
        t.wait().expect("acked writes must apply");
    }
    let snap = engine.pin();
    for k in &acked_keys {
        assert_eq!(snap.get(k), Some(k), "acked key {k} lost");
    }
    for k in &shed_keys {
        assert_eq!(snap.get(k), None, "shed key {k} applied anyway");
    }
}

/// `stage_timeout` under a full queue: the deadline expires, the whole batch
/// comes back in the error, and none of it is ever applied.
#[test]
fn stage_timeout_returns_the_batch_whole() {
    let store = Arc::new(SlowStore::new(1, true, false));
    let engine = bounded_engine(&store, 1);

    let ticket_a = engine.stage([MapEdit::Insert(0, 0)]);
    SlowStore::await_count(&store.applies_entered, 1);
    let ticket_b = engine.stage([MapEdit::Insert(1, 1)]);

    let err = engine
        .stage_timeout(
            vec![MapEdit::Insert(7, 7), MapEdit::Insert(8, 8)],
            Duration::from_millis(20),
        )
        .expect_err("full queue must time the batch out");
    assert_eq!(
        err.into_inner(),
        vec![MapEdit::Insert(7, 7), MapEdit::Insert(8, 8)]
    );
    assert_eq!(engine.stats().shed_writes, 1);

    store.write_gate.open();
    ticket_a.wait().expect("ack");
    ticket_b.wait().expect("ack");
    let snap = engine.pin();
    assert_eq!(snap.get(&7), None);
    assert_eq!(snap.get(&8), None);
}

/// A `wait_timeout` expiry does not consume the ack: the same ticket can be
/// waited again (with or without deadline) and still resolves normally.
#[test]
fn write_wait_timeout_leaves_the_ticket_claimable() {
    let store = Arc::new(SlowStore::new(1, true, false));
    let engine = bounded_engine(&store, 4);

    let ticket = engine.stage([MapEdit::Insert(42, 1)]);
    assert_eq!(
        ticket.wait_timeout(Duration::from_millis(10)),
        Err(WriteError::Deadline)
    );
    assert_eq!(
        ticket.wait_timeout(Duration::from_millis(10)),
        Err(WriteError::Deadline),
        "an expired wait must be repeatable"
    );
    assert_eq!(ticket.try_epoch(), None);

    store.write_gate.open();
    let epoch = ticket
        .wait_timeout(Duration::from_secs(30))
        .expect("the same ticket resolves after the stall clears");
    assert!(epoch >= 1);
    assert_eq!(engine.pin().get(&42), Some(&1));
}

/// Same claimability contract on the read side.
#[test]
fn read_wait_timeout_leaves_the_ticket_claimable() {
    let store = Arc::new(SlowStore::new(1, false, true));
    let engine = bounded_engine(&store, 4);

    let ticket = engine.submit(vec![MapRead::Len]);
    assert_eq!(
        ticket.wait_timeout(Duration::from_millis(10)),
        Err(ReadError::Deadline)
    );
    store.read_gate.open();
    let reply = ticket
        .wait_timeout(Duration::from_secs(30))
        .expect("the same ticket resolves after the stall clears");
    assert_eq!(reply.replies, vec![MapReply::Count(0)]);
}

/// A bounded read queue sheds `try_submit` when full, and the shed requests
/// come back to the caller.
#[test]
fn bounded_read_queue_sheds_try_submit() {
    let store = Arc::new(SlowStore::new(1, false, true));
    let engine = Engine::with_config(
        Arc::clone(&store),
        EngineConfig {
            read_workers: 1,
            read_queue_capacity: Some(1),
            ..EngineConfig::default()
        },
    );

    // The single worker dequeues the first batch and blocks in answer;
    // the second occupies the queue's only slot.
    let first = engine.submit(vec![MapRead::Len]);
    SlowStore::await_count(&store.answers_entered, 1);
    let second = engine.submit(vec![MapRead::Contains(1)]);

    let shed = engine
        .try_submit(vec![MapRead::Get(5)])
        .expect_err("full read queue must shed");
    assert_eq!(shed.into_inner(), vec![MapRead::Get(5)]);
    assert!(engine.stats().shed_reads >= 1);

    store.read_gate.open();
    assert_eq!(
        first.wait().expect("queued read answers").replies,
        vec![MapReply::Count(0)]
    );
    assert_eq!(
        second.wait().expect("queued read answers").replies,
        vec![MapReply::Bool(false)]
    );
}

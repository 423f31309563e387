//! The request engine: a self-healing read worker pool plus one write
//! applier over one [`Serve`] store.
//!
//! # Fault model
//!
//! Worker panics are isolated at two levels. Each *job* runs under
//! `catch_unwind`: a panic while answering a read batch or committing a
//! write drain resolves exactly those tickets with a fault
//! ([`ReadError::Faulted`] / [`WriteError::Faulted`]) and the worker moves
//! on. A panic *outside* a job guard (e.g. an injected fault at the drain
//! site) kills the worker thread — a supervisor loop respawns it and the
//! queues lose nothing, because drains only dequeue after the fault
//! window. Every lock involved recovers from poison
//! ([`trie_common::sync`]), so readers keep answering from the last
//! published epoch no matter what any writer or worker did.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use trie_common::faults::{fire as fault_point, site};
use trie_common::sync::{lock_recover, wait_recover};

use crate::admit::{Admission, Entry, Slot, WriteTicket};
use crate::error::{Overloaded, ReadError, WriteError};
use crate::store::Serve;
use crate::txn::{Txn, TxnError, TxnOutcome};

/// Tuning knobs for an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Read worker threads serving [`Engine::submit`] batches (defaults to
    /// the available parallelism).
    pub read_workers: usize,
    /// Attempts a [`Engine::transact`] call makes before giving up
    /// (first try included).
    pub txn_attempts: usize,
    /// Admission-queue capacity, in staged write batches (read fences do
    /// not count). `None` (default) keeps the queue unbounded; `Some(n)`
    /// bounds it at `n` queued batches, making [`Engine::try_stage`] shed
    /// and [`Engine::stage`] block under pressure.
    pub lane_capacity: Option<usize>,
    /// Read-queue capacity, in queued batches. `None` (default) keeps the
    /// queue unbounded; `Some(n)` makes [`Engine::try_submit`] shed and
    /// [`Engine::submit`] block when `n` batches are already queued.
    pub read_queue_capacity: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            read_workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            txn_attempts: 16,
            lane_capacity: None,
            read_queue_capacity: None,
        }
    }
}

/// All replies of one read batch, answered against a single pinned epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReply<R> {
    /// The epoch every reply in the batch was answered at.
    pub epoch: u64,
    /// One reply per submitted op, in submission order.
    pub replies: Vec<R>,
}

/// Handle to an in-flight read batch submitted with [`Engine::submit`].
pub struct ReadTicket<R> {
    state: Arc<Slot<Result<BatchReply<R>, ReadError>>>,
}

impl<R> ReadTicket<R> {
    /// Blocks until the batch has been served. `Ok` carries the replies;
    /// [`ReadError::Faulted`] means the answering worker panicked.
    pub fn wait(self) -> Result<BatchReply<R>, ReadError> {
        self.claim(None)
    }

    /// Non-blocking probe: true once the batch has resolved (the outcome
    /// itself is still unclaimed — [`ReadTicket::wait`] hands it over).
    pub fn is_done(&self) -> bool {
        self.state.is_filled()
    }

    /// [`ReadTicket::wait`] with a deadline. `Err(Deadline)` leaves the
    /// ticket untouched and claimable — a later wait still resolves it.
    /// (Like `wait`, a success hands the replies over exactly once.)
    pub fn wait_timeout(&self, timeout: Duration) -> Result<BatchReply<R>, ReadError> {
        self.claim(Some(Instant::now() + timeout))
    }

    fn claim(&self, deadline: Option<Instant>) -> Result<BatchReply<R>, ReadError> {
        self.state
            .claim(deadline)
            .unwrap_or(Err(ReadError::Deadline))
    }
}

impl<R> std::fmt::Debug for ReadTicket<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadTicket")
            .field("done", &self.is_done())
            .finish()
    }
}

struct ReadJob<S: Serve> {
    /// The epoch pin taken when the batch was submitted. Pinning at
    /// submission (not at service) makes answering epochs follow
    /// submission order: a caller that submits R1 then R2 never sees R2
    /// answered from an *older* view than R1, no matter which pool
    /// worker serves which.
    snap: S::Snapshot,
    ops: Vec<S::Read>,
    state: Arc<Slot<Result<BatchReply<S::Reply>, ReadError>>>,
}

struct ReadQueue<S: Serve> {
    jobs: Mutex<VecDeque<ReadJob<S>>>,
    ready: Condvar,
    /// Signals blocked submitters that a worker dequeued a batch.
    space: Condvar,
    /// Maximum queued batches (`usize::MAX` = unbounded).
    capacity: usize,
    stop: AtomicBool,
}

/// Monotone operation counters, readable at any time via
/// [`Engine::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Read batches served (queued and synchronous).
    pub read_batches: u64,
    /// Individual read ops answered.
    pub read_ops: u64,
    /// Write batches staged through admission.
    pub write_batches: u64,
    /// Individual edits staged.
    pub write_edits: u64,
    /// Publications performed by the applier (coalesced drains).
    pub applier_commits: u64,
    /// Transactions that committed.
    pub txn_commits: u64,
    /// Epoch conflicts observed by transactions (each costs one retry).
    pub txn_conflicts: u64,
    /// Read batches consumed by a panicking worker (resolved as
    /// [`ReadError::Faulted`]).
    pub read_faults: u64,
    /// Write tickets resolved as faulted by a panicking commit.
    pub write_faults: u64,
    /// Write batches shed by bounded admission (`try_stage` full, or a
    /// `stage_timeout` deadline).
    pub shed_writes: u64,
    /// Read batches shed by the bounded read queue.
    pub shed_reads: u64,
    /// Worker threads respawned after a panic outside a job guard.
    pub worker_respawns: u64,
}

impl EngineStats {
    /// The counters in wire order (the order they serialize in — field
    /// declaration order, frozen; new counters append at the end).
    fn wire_fields(&self) -> [u64; 12] {
        [
            self.read_batches,
            self.read_ops,
            self.write_batches,
            self.write_edits,
            self.applier_commits,
            self.txn_commits,
            self.txn_conflicts,
            self.read_faults,
            self.write_faults,
            self.shed_writes,
            self.shed_reads,
            self.worker_respawns,
        ]
    }
}

// `EngineStats` serializes through the snapshot value codec as a flat
// sequence of its counters in declaration order, so a remote operator's
// `Stats` op decodes into exactly this struct. A shorter sequence (an
// older peer) leaves the missing trailing counters at zero; extra trailing
// counters (a newer peer) are ignored.
impl serde::ser::Serialize for EngineStats {
    fn serialize<S: serde::ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeSeq;
        let fields = self.wire_fields();
        let mut seq = serializer.serialize_seq(Some(fields.len()))?;
        for field in &fields {
            seq.serialize_element(field)?;
        }
        seq.end()
    }
}

impl<'de> serde::de::Deserialize<'de> for EngineStats {
    fn deserialize<D: serde::de::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::{SeqAccess, Visitor};
        struct StatsVisitor;
        impl<'de> Visitor<'de> for StatsVisitor {
            type Value = EngineStats;

            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("an EngineStats counter sequence")
            }

            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Self::Value, A::Error> {
                let mut fields = [0u64; 12];
                for slot in fields.iter_mut() {
                    match seq.next_element()? {
                        Some(v) => *slot = v,
                        None => break,
                    }
                }
                while seq.next_element::<u64>()?.is_some() {}
                let [read_batches, read_ops, write_batches, write_edits, applier_commits, txn_commits, txn_conflicts, read_faults, write_faults, shed_writes, shed_reads, worker_respawns] =
                    fields;
                Ok(EngineStats {
                    read_batches,
                    read_ops,
                    write_batches,
                    write_edits,
                    applier_commits,
                    txn_commits,
                    txn_conflicts,
                    read_faults,
                    write_faults,
                    shed_writes,
                    shed_reads,
                    worker_respawns,
                })
            }
        }
        deserializer.deserialize_seq(StatsVisitor)
    }
}

#[derive(Default)]
struct StatsCore {
    read_batches: AtomicU64,
    read_ops: AtomicU64,
    write_batches: AtomicU64,
    write_edits: AtomicU64,
    applier_commits: AtomicU64,
    txn_commits: AtomicU64,
    txn_conflicts: AtomicU64,
    read_faults: AtomicU64,
    write_faults: AtomicU64,
    shed_writes: AtomicU64,
    shed_reads: AtomicU64,
    worker_respawns: AtomicU64,
}

impl StatsCore {
    fn snapshot(&self) -> EngineStats {
        EngineStats {
            read_batches: self.read_batches.load(Ordering::Relaxed),
            read_ops: self.read_ops.load(Ordering::Relaxed),
            write_batches: self.write_batches.load(Ordering::Relaxed),
            write_edits: self.write_edits.load(Ordering::Relaxed),
            applier_commits: self.applier_commits.load(Ordering::Relaxed),
            txn_commits: self.txn_commits.load(Ordering::Relaxed),
            txn_conflicts: self.txn_conflicts.load(Ordering::Relaxed),
            read_faults: self.read_faults.load(Ordering::Relaxed),
            write_faults: self.write_faults.load(Ordering::Relaxed),
            shed_writes: self.shed_writes.load(Ordering::Relaxed),
            shed_reads: self.shed_reads.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
        }
    }

    fn count_reads(&self, ops: usize) {
        self.read_batches.fetch_add(1, Ordering::Relaxed);
        self.read_ops.fetch_add(ops as u64, Ordering::Relaxed);
    }
}

/// The serving engine: MVCC reads, admitted writes, and optimistic
/// transactions over one [`Serve`] store.
///
/// - **Reads** go through [`Engine::submit`] (queued, served by the worker
///   pool) or [`Engine::execute`] (on the caller's thread). Either way a
///   batch is answered against **one** pinned epoch, so its replies are
///   mutually consistent across shards.
/// - **Writes** go through [`Engine::stage`]: queued whole on one
///   admission queue and committed by one applier, each drain as one
///   epoch. With a bounded [`EngineConfig::lane_capacity`],
///   [`Engine::try_stage`] sheds under overload and
///   [`Engine::stage_timeout`] bounds the wait.
/// - **Read-modify-write** goes through [`Engine::transact`]: the body runs
///   against a pinned epoch, and the commit validates every shard it read
///   or wrote, retrying on conflict.
///
/// Dropping the engine drains both queues, then joins all threads; the
/// store itself (an `Arc`) survives and can be served again.
pub struct Engine<S: Serve> {
    store: Arc<S>,
    reads: Arc<ReadQueue<S>>,
    writes: Arc<Admission<S>>,
    stats: Arc<StatsCore>,
    txn_attempts: usize,
    workers: Vec<JoinHandle<()>>,
}

impl<S: Serve> Engine<S> {
    /// Spawns the engine over `store` with default tuning.
    pub fn new(store: Arc<S>) -> Self {
        Self::with_config(store, EngineConfig::default())
    }

    /// Spawns the engine: `config.read_workers` read threads plus the
    /// applier thread. Each worker runs under a supervisor that respawns
    /// it if it panics outside a job guard.
    pub fn with_config(store: Arc<S>, config: EngineConfig) -> Self {
        let reads = Arc::new(ReadQueue {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: config.read_queue_capacity.unwrap_or(usize::MAX).max(1),
            stop: AtomicBool::new(false),
        });
        let writes = Arc::new(Admission::new(config.lane_capacity.unwrap_or(usize::MAX)));
        let stats = Arc::new(StatsCore::default());
        let mut workers = Vec::new();
        for _ in 0..config.read_workers.max(1) {
            let reads = Arc::clone(&reads);
            let stats = Arc::clone(&stats);
            workers.push(std::thread::spawn(move || {
                supervise(&stats, || read_worker::<S>(&reads, &stats))
            }));
        }
        {
            let store = Arc::clone(&store);
            let writes = Arc::clone(&writes);
            let stats = Arc::clone(&stats);
            workers.push(std::thread::spawn(move || {
                supervise(&stats, || applier::<S>(&store, &writes, &stats))
            }));
        }
        Engine {
            store,
            reads,
            writes,
            stats,
            txn_attempts: config.txn_attempts.max(1),
            workers,
        }
    }

    /// The served store.
    pub fn store(&self) -> &Arc<S> {
        &self.store
    }

    /// Current operation counters.
    pub fn stats(&self) -> EngineStats {
        self.stats.snapshot()
    }

    /// Pins the store's current epoch (for ad-hoc reads outside the
    /// engine's batching).
    pub fn pin(&self) -> S::Snapshot {
        self.store.pin()
    }

    /// Blocks until the epoch advances past `epoch`, then pins — the
    /// long-poll primitive ("give me a view newer than what I last saw").
    pub fn pin_after(&self, epoch: u64) -> S::Snapshot {
        self.store.pin_after(epoch)
    }

    /// Enqueues a read batch for the worker pool; returns a ticket to
    /// [`ReadTicket::wait`] on. The epoch is pinned *at submission*, so
    /// tickets resolve with epochs in submission order (queueing delay
    /// never makes a later submission answer from an older view). With a
    /// bounded [`EngineConfig::read_queue_capacity`], blocks until the
    /// queue has room (use [`Engine::try_submit`] to shed instead).
    pub fn submit(&self, ops: Vec<S::Read>) -> ReadTicket<S::Reply> {
        match self.enqueue_read(ops, false) {
            Ok(ticket) => ticket,
            Err(_) => unreachable!("a blocking submission never sheds"),
        }
    }

    /// Non-blocking [`Engine::submit`]: sheds with [`Overloaded`] (handing
    /// the ops back) when the bounded read queue is full.
    pub fn try_submit(
        &self,
        ops: Vec<S::Read>,
    ) -> Result<ReadTicket<S::Reply>, Overloaded<Vec<S::Read>>> {
        self.enqueue_read(ops, true)
    }

    /// Pins, then queues the batch for the pool; with `shed`, a full queue
    /// refuses instead of blocking.
    fn enqueue_read(
        &self,
        ops: Vec<S::Read>,
        shed: bool,
    ) -> Result<ReadTicket<S::Reply>, Overloaded<Vec<S::Read>>> {
        let snap = self.store.pin();
        let mut jobs = lock_recover(&self.reads.jobs);
        while jobs.len() >= self.reads.capacity && !self.reads.stop.load(Ordering::Acquire) {
            if shed {
                drop(jobs);
                self.stats.shed_reads.fetch_add(1, Ordering::Relaxed);
                return Err(Overloaded(ops));
            }
            jobs = wait_recover(&self.reads.space, jobs);
        }
        let state = Arc::new(Slot::new());
        jobs.push_back(ReadJob {
            snap,
            ops,
            state: Arc::clone(&state),
        });
        drop(jobs);
        self.reads.ready.notify_one();
        Ok(ReadTicket { state })
    }

    /// Serves a read batch synchronously on the caller's thread (same
    /// single-pin consistency as [`Engine::submit`], no queueing).
    pub fn execute(&self, ops: &[S::Read]) -> BatchReply<S::Reply> {
        let reply = answer_batch::<S>(&self.store.pin(), ops);
        self.stats.count_reads(ops.len());
        reply
    }

    /// Queues a read fence behind every write batch staged so far: the
    /// slot fills with a pin that covers all of them and none staged
    /// later (see [`crate::admit`]).
    pub(crate) fn fence(&self) -> Arc<Slot<S::Snapshot>> {
        self.writes.fence()
    }

    /// Answers a read batch against `snap` under the read job guard, on
    /// the caller's thread: a panic while answering faults this batch
    /// only.
    pub(crate) fn answer(
        &self,
        snap: &S::Snapshot,
        ops: &[S::Read],
    ) -> Result<BatchReply<S::Reply>, ReadError> {
        answer_guarded::<S>(&self.stats, snap, ops)
    }

    /// Stages a write batch: queues it whole on the admission queue. The
    /// ticket resolves (with a visibility epoch) once the applier has
    /// committed it — in one epoch, however many shards it touches.
    ///
    /// With a bounded [`EngineConfig::lane_capacity`] this blocks until the
    /// queue has room.
    pub fn stage(&self, batch: impl IntoIterator<Item = S::Edit>) -> WriteTicket {
        match self.admit(batch, None) {
            Ok(ticket) => ticket,
            Err(_) => unreachable!("an unbounded admission wait never sheds"),
        }
    }

    /// [`Engine::stage`] with a deadline on admission: if the queue cannot
    /// make room within `timeout`, the batch is shed with [`Overloaded`]
    /// handing every edit back in submission order. The deadline covers
    /// admission only — once admitted, use [`WriteTicket::wait_timeout`]
    /// to bound the apply wait.
    ///
    /// [`WriteTicket::wait_timeout`]: crate::WriteTicket::wait_timeout
    pub fn stage_timeout(
        &self,
        batch: impl IntoIterator<Item = S::Edit>,
        timeout: Duration,
    ) -> Result<WriteTicket, Overloaded<Vec<S::Edit>>> {
        self.admit(batch, Some(Instant::now() + timeout))
    }

    /// Non-blocking [`Engine::stage`]: sheds immediately with
    /// [`Overloaded`] (handing every edit back) when the queue is at
    /// capacity, instead of blocking.
    pub fn try_stage(
        &self,
        batch: impl IntoIterator<Item = S::Edit>,
    ) -> Result<WriteTicket, Overloaded<Vec<S::Edit>>> {
        self.admit(batch, Some(Instant::now()))
    }

    /// Shared admission path: queues the batch, waiting for space until
    /// `deadline` (`None`: as long as it takes).
    fn admit(
        &self,
        batch: impl IntoIterator<Item = S::Edit>,
        deadline: Option<Instant>,
    ) -> Result<WriteTicket, Overloaded<Vec<S::Edit>>> {
        let edits: Vec<S::Edit> = batch.into_iter().collect();
        let count = edits.len() as u64;
        let ticket = if edits.is_empty() {
            // An empty batch is vacuously visible at the current epoch.
            WriteTicket::resolved(self.store.current_epoch())
        } else {
            let ticket = WriteTicket::pending();
            if let Err(edits) = self.writes.push(edits, &ticket, deadline) {
                self.stats.shed_writes.fetch_add(1, Ordering::Relaxed);
                return Err(Overloaded(edits));
            }
            ticket
        };
        self.stats.write_batches.fetch_add(1, Ordering::Relaxed);
        self.stats.write_edits.fetch_add(count, Ordering::Relaxed);
        Ok(ticket)
    }

    /// Runs `body` as an optimistic read-modify-write transaction: it reads
    /// through (and writes into) a [`Txn`] pinned at the current epoch, and
    /// the commit succeeds only if no shard it read or wrote was
    /// republished in between. On conflict the body is re-run against a
    /// fresh pin, up to the configured attempt budget.
    ///
    /// The commit bypasses the admission queue (it must validate-and-apply
    /// atomically), so transactional writers can contend with the applier
    /// on the per-shard write locks — the intended trade: staged traffic
    /// for throughput, transactions for coherence.
    pub fn transact<R>(
        &self,
        mut body: impl FnMut(&mut Txn<S>) -> R,
    ) -> Result<TxnOutcome<R>, TxnError> {
        let mut last = None;
        for attempt in 1..=self.txn_attempts {
            let mut txn = Txn::pinned(self.store.pin());
            let value = body(&mut txn);
            let (snap, reads, writes) = txn.into_parts();
            match self.store.apply_validated(&snap, &reads, writes) {
                Ok(delta) => {
                    self.stats.txn_commits.fetch_add(1, Ordering::Relaxed);
                    return Ok(TxnOutcome {
                        value,
                        delta,
                        attempts: attempt,
                    });
                }
                Err(conflict) => {
                    self.stats.txn_conflicts.fetch_add(1, Ordering::Relaxed);
                    last = Some(conflict);
                }
            }
        }
        Err(TxnError::Exhausted {
            attempts: self.txn_attempts,
            last: last.expect("at least one attempt ran"),
        })
    }
}

impl<S: Serve> Drop for Engine<S> {
    fn drop(&mut self) {
        self.reads.stop.store(true, Ordering::Release);
        {
            // Hold the lock while notifying so no worker misses the wake.
            let _guard = lock_recover(&self.reads.jobs);
            self.reads.ready.notify_all();
            self.reads.space.notify_all();
        }
        self.writes.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Runs `work` until it returns cleanly, respawning it (in place, on the
/// same thread) every time it panics outside a job guard.
fn supervise(stats: &StatsCore, work: impl Fn()) {
    loop {
        // The workers share no unwind-unsafe state: every structure they
        // touch is lock-protected and poison-recovering (see the module
        // doc), so re-entering after a panic observes only whole values.
        if catch_unwind(AssertUnwindSafe(&work)).is_ok() {
            return;
        }
        stats.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }
}

fn answer_batch<S: Serve>(snap: &S::Snapshot, ops: &[S::Read]) -> BatchReply<S::Reply> {
    BatchReply {
        epoch: S::epoch_of(snap),
        replies: S::answer_batch(snap, ops),
    }
}

/// The read job guard: a panic while answering faults this batch only.
fn answer_guarded<S: Serve>(
    stats: &StatsCore,
    snap: &S::Snapshot,
    ops: &[S::Read],
) -> Result<BatchReply<S::Reply>, ReadError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        fault_point(site::READ_WORKER);
        answer_batch::<S>(snap, ops)
    }));
    match outcome {
        Ok(reply) => {
            stats.count_reads(ops.len());
            Ok(reply)
        }
        Err(_) => {
            stats.read_faults.fetch_add(1, Ordering::Relaxed);
            Err(ReadError::Faulted)
        }
    }
}

fn read_worker<S: Serve>(queue: &ReadQueue<S>, stats: &StatsCore) {
    loop {
        let job = {
            let mut jobs = lock_recover(&queue.jobs);
            loop {
                if let Some(job) = jobs.pop_front() {
                    queue.space.notify_one();
                    break job;
                }
                if queue.stop.load(Ordering::Acquire) {
                    return;
                }
                jobs = wait_recover(&queue.ready, jobs);
            }
        };
        job.state
            .fill(answer_guarded::<S>(stats, &job.snap, &job.ops));
    }
}

/// The applier: commits each drain's batches as one epoch, split only at
/// read fences, which it pins between the commits around them.
fn applier<S: Serve>(store: &S, writes: &Admission<S>, stats: &StatsCore) {
    while let Some(entries) = writes.drain() {
        let mut edits = Vec::new();
        let mut tickets = Vec::new();
        for entry in entries {
            match entry {
                Entry::Batch(batch, ticket) => {
                    edits.extend(batch);
                    tickets.push(ticket);
                }
                Entry::Fence(pin) => {
                    commit(store, stats, &mut edits, &mut tickets);
                    pin.fill(store.pin());
                }
            }
        }
        commit(store, stats, &mut edits, &mut tickets);
    }
}

/// Applies the edits gathered since the last commit as one epoch and
/// resolves their tickets. The job guard: a panic inside apply faults
/// exactly these tickets; the publication cell recovers from the poison
/// and the next commit applies normally.
fn commit<S: Serve>(
    store: &S,
    stats: &StatsCore,
    edits: &mut Vec<S::Edit>,
    tickets: &mut Vec<WriteTicket>,
) {
    if tickets.is_empty() {
        return;
    }
    let batch = std::mem::take(edits);
    let applied = catch_unwind(AssertUnwindSafe(|| {
        fault_point(site::APPLIER_APPLY);
        store.apply(batch);
    }));
    let outcome = match applied {
        Ok(()) => {
            stats.applier_commits.fetch_add(1, Ordering::Relaxed);
            Ok(store.current_epoch())
        }
        Err(_) => {
            stats
                .write_faults
                .fetch_add(tickets.len() as u64, Ordering::Relaxed);
            Err(WriteError::Faulted)
        }
    };
    for ticket in tickets.drain(..) {
        ticket.resolve(outcome);
    }
}

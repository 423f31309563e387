//! Writer admission: one bounded queue of staged write batches and read
//! fences, drained by one applier.
//!
//! Writers never edit tries themselves. [`Engine::stage`](crate::Engine::stage)
//! enqueues the whole batch; a dedicated applier thread drains everything
//! queued, applies it through the store's batched `_mut` path, and
//! publishes it as one epoch (group commit). Consequences:
//!
//! - **Readers never block on writers** — they pin epochs; nothing on the
//!   write path touches the read path except the pointer swap.
//! - **Staged batches are atomic** — a batch commits inside one
//!   `Serve::apply` however many shards it touches, so no pin observes
//!   part of it; queued batches coalesce into one publication.
//! - **Fences order reads among writes** — a read that must see the
//!   batches queued ahead of it, and none queued behind it, enqueues a
//!   *fence*. The applier commits what precedes the fence, pins, hands the
//!   pin over, then goes on with what follows.
//! - **Back-pressure, not unbounded queues** — the queue holds at most
//!   `capacity` staged batches (fences do not count). Blocking admission
//!   waits for space, optionally up to a deadline; a refused batch comes
//!   back whole.
//! - **Fault isolation** — a panicking commit faults exactly the tickets
//!   it carried ([`WriteTicket::wait`] reports [`WriteError::Faulted`]);
//!   all locks recover from poison, so the queue keeps admitting while the
//!   applier respawns.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use trie_common::faults::{fire as fault_point, site};
use trie_common::sync::{lock_recover, wait_recover, wait_timeout_recover};

use crate::error::WriteError;
use crate::store::Serve;

/// One wait on `cv`, bounded by `deadline` (`None` waits unbounded).
/// Returns `None` instead of waiting once the deadline has passed.
fn wait_until<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    deadline: Option<Instant>,
) -> Option<MutexGuard<'a, T>> {
    match deadline {
        None => Some(wait_recover(cv, guard)),
        Some(deadline) => {
            let now = Instant::now();
            (now < deadline).then(|| wait_timeout_recover(cv, guard, deadline - now).0)
        }
    }
}

/// A value handed from one thread to its waiters: filled once, then read
/// by cloning ([`Slot::get`]) or taken by its one consumer
/// ([`Slot::claim`]).
pub(crate) struct Slot<T> {
    value: Mutex<Option<T>>,
    done: Condvar,
}

impl<T> Slot<T> {
    pub(crate) fn new() -> Self {
        Slot {
            value: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    pub(crate) fn fill(&self, value: T) {
        *lock_recover(&self.value) = Some(value);
        self.done.notify_all();
    }

    pub(crate) fn is_filled(&self) -> bool {
        lock_recover(&self.value).is_some()
    }

    /// Blocks until the slot holds a value, or `deadline` passes.
    fn wait(&self, deadline: Option<Instant>) -> Option<MutexGuard<'_, Option<T>>> {
        let mut value = lock_recover(&self.value);
        while value.is_none() {
            value = wait_until(&self.done, value, deadline)?;
        }
        Some(value)
    }

    /// Takes the value once it is filled; `None` if `deadline` passed
    /// first (the value, when it comes, stays claimable).
    pub(crate) fn claim(&self, deadline: Option<Instant>) -> Option<T> {
        self.wait(deadline).and_then(|mut value| value.take())
    }
}

impl<T: Clone> Slot<T> {
    /// A copy of the value, if filled.
    fn get(&self) -> Option<T> {
        lock_recover(&self.value).clone()
    }

    /// A copy of the value once it is filled; `None` if `deadline` passed
    /// first.
    fn wait_get(&self, deadline: Option<Instant>) -> Option<T> {
        self.wait(deadline).and_then(|value| value.clone())
    }
}

/// Acknowledgement handle for a staged write batch. Cheap to clone; any
/// clone can wait.
#[derive(Clone)]
pub struct WriteTicket {
    state: Arc<Slot<Result<u64, WriteError>>>,
}

impl WriteTicket {
    /// A ticket for a batch still to commit.
    pub(crate) fn pending() -> Self {
        WriteTicket {
            state: Arc::new(Slot::new()),
        }
    }

    /// A ticket already resolved (an empty batch is visible at once).
    pub(crate) fn resolved(epoch: u64) -> Self {
        let ticket = Self::pending();
        ticket.resolve(Ok(epoch));
        ticket
    }

    pub(crate) fn resolve(&self, outcome: Result<u64, WriteError>) {
        self.state.fill(outcome);
    }

    /// Blocks until the staged batch has committed. `Ok` carries an epoch
    /// at which the whole batch is visible; [`WriteError::Faulted`] means
    /// the commit carrying it panicked and none of it was applied.
    pub fn wait(&self) -> Result<u64, WriteError> {
        self.outcome(None)
    }

    /// [`WriteTicket::wait`] with a deadline. `Err(Deadline)` leaves the
    /// ticket untouched and claimable — the batch is still in flight and a
    /// later `wait` (or `wait_timeout`) still resolves it.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<u64, WriteError> {
        self.outcome(Some(Instant::now() + timeout))
    }

    /// The outcome once resolved; `Err(Deadline)` if `deadline` (`None`:
    /// never) passed first.
    pub(crate) fn outcome(&self, deadline: Option<Instant>) -> Result<u64, WriteError> {
        self.state
            .wait_get(deadline)
            .unwrap_or(Err(WriteError::Deadline))
    }

    /// Non-blocking probe: the visibility epoch if the batch applied
    /// without faults, `None` while it is still in flight (or if it
    /// faulted — use [`WriteTicket::try_outcome`] to distinguish).
    pub fn try_epoch(&self) -> Option<u64> {
        self.try_outcome().and_then(Result::ok)
    }

    /// Non-blocking probe with fault visibility: `None` while in flight,
    /// otherwise the same outcome [`WriteTicket::wait`] would return.
    pub fn try_outcome(&self) -> Option<Result<u64, WriteError>> {
        self.state.get()
    }

    /// True once the batch has committed or faulted.
    pub(crate) fn is_resolved(&self) -> bool {
        self.state.is_filled()
    }
}

impl std::fmt::Debug for WriteTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteTicket")
            .field("done", &self.is_resolved())
            .finish()
    }
}

/// One queued admission entry, in submission order.
pub(crate) enum Entry<S: Serve> {
    /// A staged write batch and the ticket its commit resolves.
    Batch(Vec<S::Edit>, WriteTicket),
    /// A read fence: filled with a pin taken after every batch ahead of it
    /// committed and before any batch behind it.
    Fence(Arc<Slot<S::Snapshot>>),
}

struct Queued<S: Serve> {
    entries: VecDeque<Entry<S>>,
    /// `Entry::Batch` count in `entries` (what `capacity` bounds).
    batches: usize,
}

/// The admission queue shared between stagers, fencing readers and the
/// applier.
pub(crate) struct Admission<S: Serve> {
    queue: Mutex<Queued<S>>,
    /// Signals the applier that work arrived.
    ready: Condvar,
    /// Signals blocked stagers that a drain freed queue slots.
    space: Condvar,
    /// Maximum queued batches (`usize::MAX` = unbounded).
    capacity: usize,
    stop: AtomicBool,
}

impl<S: Serve> Admission<S> {
    pub(crate) fn new(capacity: usize) -> Self {
        Admission {
            queue: Mutex::new(Queued {
                entries: VecDeque::new(),
                batches: 0,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
            stop: AtomicBool::new(false),
        }
    }

    /// Enqueues a write batch. `deadline` bounds the wait for space:
    /// `None` waits until there is room, a deadline already passed sheds
    /// at once. A refused batch comes back untouched.
    pub(crate) fn push(
        &self,
        edits: Vec<S::Edit>,
        ticket: &WriteTicket,
        deadline: Option<Instant>,
    ) -> Result<(), Vec<S::Edit>> {
        let mut q = lock_recover(&self.queue);
        while q.batches >= self.capacity {
            match wait_until(&self.space, q, deadline) {
                Some(guard) => q = guard,
                None => return Err(edits),
            }
        }
        q.batches += 1;
        q.entries.push_back(Entry::Batch(edits, ticket.clone()));
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Enqueues a read fence behind everything staged so far and returns
    /// the slot its pin will arrive in.
    pub(crate) fn fence(&self) -> Arc<Slot<S::Snapshot>> {
        let slot = Arc::new(Slot::new());
        lock_recover(&self.queue)
            .entries
            .push_back(Entry::Fence(Arc::clone(&slot)));
        self.ready.notify_one();
        slot
    }

    /// Blocks until work is queued, then drains **all** of it (the group
    /// commit: everything between two fences becomes one publication).
    /// Returns `None` when the engine is shutting down and the queue is
    /// empty.
    pub(crate) fn drain(&self) -> Option<VecDeque<Entry<S>>> {
        // Fault site fires before the queue is touched: an injected panic
        // here kills the applier with every entry still queued, so the
        // respawned applier loses nothing.
        fault_point(site::APPLIER_DRAIN);
        let mut q = lock_recover(&self.queue);
        loop {
            if !q.entries.is_empty() {
                q.batches = 0;
                self.space.notify_all();
                return Some(std::mem::take(&mut q.entries));
            }
            if self.stop.load(Ordering::Acquire) {
                return None;
            }
            q = wait_recover(&self.ready, q);
        }
    }

    /// Signals the applier to drain what is queued and exit.
    pub(crate) fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        // Acquire the lock so a sleeping applier cannot miss the wake.
        drop(lock_recover(&self.queue));
        self.ready.notify_all();
    }
}

//! The blocking TCP server: an acceptor thread plus one *pair* of
//! threads per connection — a reader half and a writer half — over one
//! [`Engine`].
//!
//! # Pipelined connections
//!
//! The reader half decodes [`proto`](crate::proto) frames off a buffered
//! socket and dispatches each one without waiting for its answer: writes
//! go onto the engine's admission queue ([`Engine::stage`]), reads get
//! their pin (see below). Each dispatched request is pushed — still
//! unresolved — onto a bounded per-connection completion queue, which the
//! writer half drains in FIFO order: it waits for each write's ticket or
//! read's pin, answers reads against their pin under the engine's read
//! job guard, and encodes the response. Because the queue preserves
//! submission order, the k-th response on a connection always answers the
//! k-th request (Redis-style pipelining), while up to
//! [`ServerConfig::pipeline_depth`] frames per connection are in flight.
//!
//! Pipelining is what lets write batches from *different* connections
//! coalesce: many staged batches pile onto the shared admission queue
//! while their connections keep reading, and one applier drain commits
//! them under a single `EpochCell` publication.
//!
//! Two ordering guarantees hold per connection:
//!
//! - **A read sees every write sent before it, and none sent after.** A
//!   read arriving while something this connection queued for the
//!   applier (a write, or an earlier read's fence) is still in flight
//!   becomes a *fence* on the admission queue: the applier pins it after
//!   committing everything queued ahead of it and before anything queued
//!   behind it. So a pipelined `write; read` script reads its own write
//!   without waiting for the write's response, and the reader half never
//!   blocks on it. A read with nothing in flight ahead of it is pinned at
//!   dispatch.
//! - **Monotone epochs.** Entries resolve in queue order, and a read is
//!   pinned at dispatch only once everything this connection queued has
//!   resolved, so read epochs never go backwards; write acks carry their
//!   commit epochs, which follow queue order too.
//!
//! Every engine failure mode maps onto a wire [`Status`]: shed
//! admission → `Overloaded`, expired deadlines → `Deadline`, panicking
//! workers (or a panic anywhere in dispatch — the reader runs requests
//! under `catch_unwind`) → `Faulted`, malformed frames → `BadRequest`.
//! A protocol-level framing error (bad magic, unknown version) poisons
//! the byte stream, so the connection enqueues one `BadRequest` *behind*
//! the requests already in flight — they are still answered in order —
//! and closes; a payload that fails to decode leaves the framing intact
//! and only fails that request.
//!
//! Shutdown is graceful: [`Server::shutdown`] (or drop) stops the
//! acceptor, every reader stops taking new requests, and every writer
//! drains the responses already in its completion queue — ticket waits
//! included — before the connection closes. Idle connections close at
//! the next poll tick; a peer trickling a half-finished frame is
//! abandoned once [`ServerConfig::drain_grace`] expires.

use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::de::Deserialize;
use serde::ser::Serialize;

use trie_common::sync::{lock_recover, wait_recover};

use crate::admit::{Slot, WriteTicket};
use crate::engine::Engine;
use crate::error::{ReadError, Status};
use crate::proto::{
    append_frame, decode_header, decode_value, encode_value, Frame, OpCode, DEFAULT_MAX_PAYLOAD,
    HEADER_LEN,
};
use crate::store::Serve;

/// Responses already resolved past the first one coalesce into a single
/// socket write until the buffer reaches this size.
const COALESCE_BYTES: usize = 64 * 1024;

/// Bytes the reader half buffers off the socket: one `read` call fills
/// it, so a pipelined burst of small frames decodes without a syscall
/// per header and payload.
const READ_BUF_BYTES: usize = 64 * 1024;

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Hard cap on request payload size; larger frames are rejected at the
    /// header, before allocation.
    pub max_payload: usize,
    /// Deadline for admitting a write batch onto the admission queue.
    /// `Some(t)` sheds with `Overloaded` after `t` (via
    /// [`Engine::stage_timeout`]); `None` blocks until admitted.
    pub admission_timeout: Option<Duration>,
    /// Deadline for an admitted batch to commit, and for a fenced read to
    /// get its pin. `Some(t)` answers `Deadline` after `t`; `None` waits
    /// indefinitely.
    pub apply_timeout: Option<Duration>,
    /// How often blocked accept/read calls wake to check the stop flag
    /// (bounds shutdown latency; does not bound request latency).
    pub poll_interval: Duration,
    /// How long a reader keeps draining a half-received frame after
    /// shutdown begins, before abandoning the connection.
    pub drain_grace: Duration,
    /// Most requests in flight per connection: the reader half stops
    /// taking new frames once this many dispatched requests await their
    /// responses. Clamped to at least 1; depth 1 degenerates to the old
    /// one-frame-at-a-time ping-pong.
    pub pipeline_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_payload: DEFAULT_MAX_PAYLOAD,
            admission_timeout: None,
            apply_timeout: None,
            poll_interval: Duration::from_millis(20),
            drain_grace: Duration::from_millis(500),
            pipeline_depth: 128,
        }
    }
}

/// A running wire server over one [`Engine`]. Returned by
/// [`Server::spawn`]; dropping it (or calling [`Server::shutdown`])
/// stops the acceptor and drains every connection gracefully.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<AtomicUsize>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and starts serving `engine` with default tuning.
    /// Bind to port 0 to let the OS pick (see [`Server::local_addr`]).
    pub fn spawn<S>(engine: Arc<Engine<S>>, addr: impl ToSocketAddrs) -> std::io::Result<Server>
    where
        S: Serve,
        S::Read: for<'de> Deserialize<'de>,
        S::Reply: Serialize,
        S::Edit: for<'de> Deserialize<'de>,
    {
        Self::spawn_with(engine, addr, ServerConfig::default())
    }

    /// [`Server::spawn`] with explicit tuning.
    pub fn spawn_with<S>(
        engine: Arc<Engine<S>>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server>
    where
        S: Serve,
        S::Read: for<'de> Deserialize<'de>,
        S::Reply: Serialize,
        S::Edit: for<'de> Deserialize<'de>,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(AtomicUsize::new(0));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || accept_loop(listener, engine, config, stop, conns))
        };
        Ok(Server {
            addr,
            stop,
            conns,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections whose handler threads have not finished, as of the
    /// acceptor's last reap. The acceptor reaps finished handlers on
    /// every accept *and* on every idle poll tick, so this converges to
    /// the live count within one `poll_interval` of connections closing
    /// — even on a server that has gone quiet.
    pub fn active_connections(&self) -> usize {
        self.conns.load(Ordering::Acquire)
    }

    /// Stops accepting, drains every in-flight request, joins all
    /// threads. Equivalent to dropping the server, but explicit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("connections", &self.conns.load(Ordering::Relaxed))
            .field("stopping", &self.stop.load(Ordering::Relaxed))
            .finish()
    }
}

fn accept_loop<S>(
    listener: TcpListener,
    engine: Arc<Engine<S>>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    conns: Arc<AtomicUsize>,
) where
    S: Serve,
    S::Read: for<'de> Deserialize<'de>,
    S::Reply: Serialize,
    S::Edit: for<'de> Deserialize<'de>,
{
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let engine = Arc::clone(&engine);
                let config = config.clone();
                let stop = Arc::clone(&stop);
                handlers.push(std::thread::spawn(move || {
                    // Connection setup failures just drop the connection;
                    // the client sees a closed socket and retries.
                    let _ = handle_connection(stream, &engine, &config, &stop);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(config.poll_interval);
            }
            Err(_) => std::thread::sleep(config.poll_interval),
        }
        // Reap finished handlers on every pass — accepts *and* idle poll
        // ticks — so a server that goes quiet after a connection burst
        // releases its joined threads instead of holding every handle
        // until shutdown.
        handlers.retain(|h| !h.is_finished());
        conns.store(handlers.len(), Ordering::Release);
    }
    for handle in handlers {
        let _ = handle.join();
    }
    conns.store(0, Ordering::Release);
}

/// Where a read's pin comes from.
enum ReadPin<S: Serve> {
    /// Taken at dispatch: nothing this connection queued earlier was
    /// still in flight.
    Now(S::Snapshot),
    /// Taken by the applier when it reaches this read's fence.
    Fenced(Arc<Slot<S::Snapshot>>),
}

/// One dispatched request awaiting its response. Queued in request order.
enum Pending<S: Serve> {
    /// The response frame is already fully determined (errors, stats).
    Ready(Frame),
    /// A read batch, answered on the writer half against its pin. `epoch`
    /// is the published epoch at dispatch, kept for error frames.
    Read {
        /// The pin to answer against, or the fence that delivers it.
        pin: ReadPin<S>,
        /// The decoded read ops.
        ops: Vec<S::Read>,
        /// Fallback epoch if the read faults or times out.
        epoch: u64,
    },
    /// A write staged onto the admission queue. `epoch` is the published
    /// epoch at dispatch, kept for error frames.
    Write {
        /// The ticket the writer half waits on.
        ticket: WriteTicket,
        /// Fallback epoch if the write sheds or faults.
        epoch: u64,
    },
}

impl<S: Serve> Pending<S> {
    /// Non-blocking: would resolving this pending response not block?
    fn is_resolved(&self) -> bool {
        match self {
            Pending::Ready(_)
            | Pending::Read {
                pin: ReadPin::Now(_),
                ..
            } => true,
            Pending::Read {
                pin: ReadPin::Fenced(slot),
                ..
            } => slot.is_filled(),
            Pending::Write { ticket, .. } => ticket.is_resolved(),
        }
    }
}

/// The newest entry this connection put on the admission queue. Entries
/// resolve in queue order, so once it has resolved, so has every earlier
/// one.
enum Tail<S: Serve> {
    Write(WriteTicket),
    Fence(Arc<Slot<S::Snapshot>>),
}

impl<S: Serve> Tail<S> {
    fn in_flight(&self) -> bool {
        match self {
            Tail::Write(ticket) => !ticket.is_resolved(),
            Tail::Fence(slot) => !slot.is_filled(),
        }
    }
}

/// The bounded per-connection completion queue between the reader half
/// (producer) and the writer half (consumer). FIFO order here is what
/// keeps responses in request order.
struct ConnQueue<S: Serve> {
    inner: Mutex<VecDeque<Pending<S>>>,
    /// Signalled when a pending response is pushed or the queue closes.
    ready: Condvar,
    /// Signalled when the writer pops and capacity frees up.
    space: Condvar,
    capacity: usize,
    /// Reader is done; the writer drains what remains, then exits.
    closed: AtomicBool,
    /// The writer's socket died; the reader stops taking requests.
    broken: AtomicBool,
}

impl<S: Serve> ConnQueue<S> {
    fn new(capacity: usize) -> ConnQueue<S> {
        ConnQueue {
            inner: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
            closed: AtomicBool::new(false),
            broken: AtomicBool::new(false),
        }
    }

    /// Enqueues a pending response, blocking while the pipeline is at
    /// capacity. A broken pipe drops the response — nobody can read it.
    fn push(&self, pending: Pending<S>) {
        let mut queue = lock_recover(&self.inner);
        while queue.len() >= self.capacity && !self.broken.load(Ordering::Acquire) {
            queue = wait_recover(&self.space, queue);
        }
        if self.broken.load(Ordering::Acquire) {
            return;
        }
        queue.push_back(pending);
        self.ready.notify_one();
    }

    /// Blocks for the next pending response; `None` once the queue is
    /// closed and drained (or the pipe broke).
    fn pop(&self) -> Option<Pending<S>> {
        let mut queue = lock_recover(&self.inner);
        loop {
            if self.broken.load(Ordering::Acquire) {
                return None;
            }
            if let Some(pending) = queue.pop_front() {
                self.space.notify_one();
                return Some(pending);
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            queue = wait_recover(&self.ready, queue);
        }
    }

    /// Pops the front only if resolving it would not block — the
    /// coalescing probe: already-resolved responses ride along in the
    /// same socket write, unresolved ones wait for the next.
    fn pop_resolved(&self) -> Option<Pending<S>> {
        let mut queue = lock_recover(&self.inner);
        if queue.front().is_some_and(Pending::is_resolved) {
            self.space.notify_one();
            queue.pop_front()
        } else {
            None
        }
    }

    /// Reader half is done producing; wakes the writer to drain and exit.
    fn close(&self) {
        let _guard = lock_recover(&self.inner);
        self.closed.store(true, Ordering::Release);
        self.ready.notify_all();
    }

    /// Writer half lost its socket; wakes a reader blocked on capacity.
    fn break_pipe(&self) {
        let _guard = lock_recover(&self.inner);
        self.broken.store(true, Ordering::Release);
        self.space.notify_all();
        self.ready.notify_all();
    }

    fn is_broken(&self) -> bool {
        self.broken.load(Ordering::Acquire)
    }
}

/// What reading the next request frame produced.
enum NextFrame {
    /// A well-framed request (its payload may still fail to decode).
    Frame(Frame),
    /// The client closed between frames.
    Closed,
    /// Shutdown began while the connection was idle (or a half-received
    /// frame outlived the drain grace).
    Stopped,
    /// The byte stream is no longer frame-aligned; unrecoverable.
    Malformed,
}

/// The reader half. Spawns the writer half, then loops: read a frame,
/// dispatch it into the engine, enqueue the pending response. On exit —
/// clean close, shutdown, framing loss, or a broken write pipe — it
/// closes the queue and joins the writer, which drains every response
/// already in flight before the connection drops.
fn handle_connection<S>(
    stream: TcpStream,
    engine: &Arc<Engine<S>>,
    config: &ServerConfig,
    stop: &AtomicBool,
) -> std::io::Result<()>
where
    S: Serve,
    S::Read: for<'de> Deserialize<'de>,
    S::Reply: Serialize,
    S::Edit: for<'de> Deserialize<'de>,
{
    stream.set_nodelay(true)?;
    stream.set_nonblocking(false)?;
    // Reads wake at every poll tick so an idle reader notices shutdown.
    stream.set_read_timeout(Some(config.poll_interval))?;
    let queue = Arc::new(ConnQueue::<S>::new(config.pipeline_depth));
    let writer = {
        let stream = stream.try_clone()?;
        let queue = Arc::clone(&queue);
        let engine = Arc::clone(engine);
        let apply_timeout = config.apply_timeout;
        std::thread::spawn(move || writer_loop(stream, &queue, &engine, apply_timeout))
    };
    let mut reader = BufReader::with_capacity(READ_BUF_BYTES, stream);
    let mut tail: Option<Tail<S>> = None;
    loop {
        if queue.is_broken() {
            break;
        }
        match next_request(&mut reader, config, stop) {
            NextFrame::Frame(frame) => {
                // The request guard: a panic anywhere in dispatch (a
                // poisoned store, an injected fault) faults this request,
                // not the server — answered at the current epoch, the
                // same visibility information the non-panicking error
                // paths report.
                let current = engine.store().current_epoch();
                let pending = catch_unwind(AssertUnwindSafe(|| {
                    dispatch_async(engine, config, frame, &mut tail)
                }))
                .unwrap_or_else(|_| Pending::Ready(Frame::error(Status::Faulted, current)));
                queue.push(pending);
                // Graceful shutdown: everything dispatched (this request
                // included) will be answered; nothing new is taken.
                if stop.load(Ordering::Acquire) {
                    break;
                }
            }
            NextFrame::Closed | NextFrame::Stopped => break,
            NextFrame::Malformed => {
                // Framing is lost: requests already in the pipeline are
                // still answered in order, then one best-effort error,
                // then hang up.
                let current = engine.store().current_epoch();
                queue.push(Pending::Ready(Frame::error(Status::BadRequest, current)));
                break;
            }
        }
    }
    queue.close();
    let _ = writer.join();
    Ok(())
}

/// The writer half: drains the completion queue in FIFO order, resolving
/// each pending response (ticket and fence waits, and read answering,
/// happen here, off the read path) and writing it back. Consecutive
/// responses that are already resolved coalesce into one socket write.
fn writer_loop<S>(
    mut stream: TcpStream,
    queue: &ConnQueue<S>,
    engine: &Engine<S>,
    apply_timeout: Option<Duration>,
) where
    S: Serve,
    S::Reply: Serialize,
{
    let mut buf = Vec::new();
    while let Some(pending) = queue.pop() {
        buf.clear();
        append_frame(&mut buf, &resolve(engine, apply_timeout, pending));
        while buf.len() < COALESCE_BYTES {
            match queue.pop_resolved() {
                Some(next) => append_frame(&mut buf, &resolve(engine, apply_timeout, next)),
                None => break,
            }
        }
        if stream.write_all(&buf).is_err() {
            queue.break_pipe();
            return;
        }
    }
}

/// Turns a pending response into its wire frame, blocking on the ticket
/// or fence if needed. Error frames carry the freshest visibility
/// information available: at least the epoch recorded at dispatch, raised
/// to the currently published epoch at resolution time.
fn resolve<S>(engine: &Engine<S>, apply_timeout: Option<Duration>, pending: Pending<S>) -> Frame
where
    S: Serve,
    S::Reply: Serialize,
{
    let deadline = apply_timeout.map(|timeout| Instant::now() + timeout);
    let error = |status: Status, epoch: u64| {
        Frame::error(status, epoch.max(engine.store().current_epoch()))
    };
    match pending {
        Pending::Ready(frame) => frame,
        Pending::Read { pin, ops, epoch } => {
            let snap = match pin {
                ReadPin::Now(snap) => Some(snap),
                ReadPin::Fenced(slot) => slot.claim(deadline),
            };
            let answered = match snap {
                Some(snap) => engine.answer(&snap, &ops),
                None => Err(ReadError::Deadline),
            };
            match answered {
                Ok(batch) => match encode_value(&batch.replies) {
                    Ok(payload) => Frame {
                        op: OpCode::ReadResp,
                        status: Status::Ok,
                        epoch: batch.epoch,
                        payload,
                    },
                    Err(_) => Frame::error(Status::Faulted, batch.epoch),
                },
                Err(e) => error(Status::from(e), epoch),
            }
        }
        Pending::Write { ticket, epoch } => match ticket.outcome(deadline) {
            Ok(applied) => Frame {
                op: OpCode::WriteResp,
                status: Status::Ok,
                epoch: applied,
                payload: Vec::new(),
            },
            // A `Deadline` here does not cancel the write — it may still
            // publish later; the fresh epoch (plus the client ratcheting
            // its session from every frame) narrows how stale this
            // session's view can be. See `session` docs.
            Err(e) => error(Status::from(e), epoch),
        },
    }
}

/// Reads one frame, polling the stop flag while idle. Distinguishes
/// "closed between frames" (clean) from "closed mid-frame" (malformed).
fn next_request(stream: &mut impl Read, config: &ServerConfig, stop: &AtomicBool) -> NextFrame {
    let mut header = [0u8; HEADER_LEN];
    match fill(stream, &mut header, config, stop, true) {
        Fill::Full => {}
        Fill::Closed => return NextFrame::Closed,
        Fill::Stopped => return NextFrame::Stopped,
        Fill::Failed => return NextFrame::Malformed,
    }
    let (mut frame, payload_len) = match decode_header(&header, config.max_payload) {
        Ok(parsed) => parsed,
        Err(_) => return NextFrame::Malformed,
    };
    if payload_len > 0 {
        let mut payload = vec![0u8; payload_len];
        match fill(stream, &mut payload, config, stop, false) {
            Fill::Full => frame.payload = payload,
            Fill::Closed | Fill::Stopped => return NextFrame::Stopped,
            Fill::Failed => return NextFrame::Malformed,
        }
    }
    NextFrame::Frame(frame)
}

enum Fill {
    Full,
    Closed,
    Stopped,
    Failed,
}

/// `read_exact` with stop-flag polling. `idle` marks the read as sitting
/// between frames: a clean close or a stop before the first byte is not
/// an error there, while mid-frame both mean the frame will never finish.
fn fill(
    stream: &mut impl Read,
    buf: &mut [u8],
    config: &ServerConfig,
    stop: &AtomicBool,
    idle: bool,
) -> Fill {
    let mut filled = 0;
    let mut drain_deadline: Option<Instant> = None;
    while filled < buf.len() {
        // The stop check runs at the top of every iteration — not only
        // when the socket goes quiet — so a peer trickling one byte per
        // poll tick (which never hits the `WouldBlock` arm) still cannot
        // extend the drain past `drain_grace`.
        if stop.load(Ordering::Acquire) {
            if filled == 0 && idle {
                return Fill::Stopped;
            }
            // Mid-frame: keep draining, but only for the grace period —
            // a stalled or trickling peer must not block shutdown.
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + config.drain_grace);
            if Instant::now() >= deadline {
                return Fill::Stopped;
            }
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && idle {
                    Fill::Closed
                } else {
                    Fill::Failed
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Fill::Failed,
        }
    }
    Fill::Full
}

/// Dispatches one request into the engine without waiting for its
/// answer, returning what the writer half should eventually send.
/// `tail` tracks this connection's newest admission-queue entry.
fn dispatch_async<S>(
    engine: &Engine<S>,
    config: &ServerConfig,
    frame: Frame,
    tail: &mut Option<Tail<S>>,
) -> Pending<S>
where
    S: Serve,
    S::Read: for<'de> Deserialize<'de>,
    S::Reply: Serialize,
    S::Edit: for<'de> Deserialize<'de>,
{
    let current = engine.store().current_epoch();
    if !frame.status.is_ok() || !frame.op.is_request() {
        return Pending::Ready(Frame::error(Status::BadRequest, current));
    }
    match frame.op {
        OpCode::ReadReq => {
            let ops: Vec<S::Read> = match decode_value(&frame.payload) {
                Ok(ops) => ops,
                Err(_) => return Pending::Ready(Frame::error(Status::BadRequest, current)),
            };
            // A floor above everything published may never be met; acks
            // always trail publication, so a floor from a real session is
            // never ahead of `current`. Every pin from here on is at or
            // past `current`, so it meets the floor.
            if frame.epoch > current {
                return Pending::Ready(Frame::error(Status::FutureEpoch, current));
            }
            let pin = if tail.as_ref().is_some_and(Tail::in_flight) {
                let slot = engine.fence();
                *tail = Some(Tail::Fence(Arc::clone(&slot)));
                ReadPin::Fenced(slot)
            } else {
                ReadPin::Now(engine.pin())
            };
            Pending::Read {
                pin,
                ops,
                epoch: current,
            }
        }
        OpCode::WriteReq => {
            let edits: Vec<S::Edit> = match decode_value(&frame.payload) {
                Ok(edits) => edits,
                Err(_) => return Pending::Ready(Frame::error(Status::BadRequest, current)),
            };
            let ticket = match config.admission_timeout {
                Some(timeout) => match engine.stage_timeout(edits, timeout) {
                    Ok(ticket) => ticket,
                    Err(_overloaded) => {
                        return Pending::Ready(Frame::error(Status::Overloaded, current))
                    }
                },
                None => engine.stage(edits),
            };
            // An empty batch resolves without queueing, so it must not
            // stand in for a fence still in flight.
            if !ticket.is_resolved() {
                *tail = Some(Tail::Write(ticket.clone()));
            }
            Pending::Write {
                ticket,
                epoch: current,
            }
        }
        OpCode::StatsReq => Pending::Ready(match encode_value(&engine.stats()) {
            Ok(payload) => Frame {
                op: OpCode::StatsResp,
                status: Status::Ok,
                epoch: current,
                payload,
            },
            Err(_) => Frame::error(Status::Faulted, current),
        }),
        // Response codes are never valid as requests.
        OpCode::ReadResp | OpCode::WriteResp | OpCode::StatsResp | OpCode::ErrorResp => {
            Pending::Ready(Frame::error(Status::BadRequest, current))
        }
    }
}

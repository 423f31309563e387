//! The load generator for the wire workloads: one connection, driven by
//! the calling thread (the sender) and one receiver thread that share the
//! socket. The server answers each connection strictly in request order,
//! so the receiver matches the k-th reply to the k-th request without ids.
//!
//! Requests are encoded once, before timing, with the public
//! `serving::proto` functions; the receiver decodes and checks every
//! reply. A wrong answer ends the run with an error; a refused or
//! unanswered request is a failure, never a slow op.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use serving::proto::{append_frame, decode_value, encode_value, read_frame, DEFAULT_MAX_PAYLOAD};
use serving::{Frame, MultiMapRead, MultiMapReply, OpCode};
use trie_common::ops::MultiMapEdit;

use crate::stats::{due_ns, Record};
use crate::trace::Recorder;

/// A read op on the served multi-map.
pub type Read = MultiMapRead<u32, u32>;
/// A read reply from the served multi-map.
pub type Reply = MultiMapReply<u32, u32>;
/// A write edit on the served multi-map.
pub type Edit = MultiMapEdit<u32, u32>;

/// One request of a workload's script.
pub enum Op {
    /// An 8-probe read batch.
    Read(Vec<Read>),
    /// A 32-edit write batch.
    Write(Vec<Edit>),
}

/// A script request with its pre-encoded wire bytes.
pub struct Request {
    /// The request itself (used to check the reply's shape).
    pub op: Op,
    /// The framed request, visibility floor 0: the server's write→read
    /// barrier gives read-your-writes within the connection.
    pub frame: Vec<u8>,
}

/// Encodes every op of a script into its request frame.
pub fn encode_script(ops: Vec<Op>) -> Vec<Request> {
    ops.into_iter()
        .map(|op| {
            let (code, payload) = match &op {
                Op::Read(reads) => (OpCode::ReadReq, encode_value(reads)),
                Op::Write(edits) => (OpCode::WriteReq, encode_value(edits)),
            };
            let payload = payload.expect("script ops encode");
            let mut frame = Vec::new();
            append_frame(&mut frame, &Frame::request(code, 0, payload));
            Request { op, frame }
        })
        .collect()
}

/// How a phase sends.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Closed loop: keep this many requests outstanding.
    Window(usize),
    /// Open loop: send on a fixed schedule of this many requests/s.
    Rate(f64),
}

/// One request attempted in a phase.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Index of the request in the script.
    pub idx: usize,
    /// Its timestamps, in ns since the phase began.
    pub rec: Record,
}

/// What one phase produced.
pub struct PhaseRun {
    /// Length of the send window, in seconds.
    pub secs: f64,
    /// One entry per request sent, in send order.
    pub outcomes: Vec<Outcome>,
    /// Replies were left unread: the connection must be replaced.
    pub desynced: bool,
    /// CPU time the whole process (server and driver) used in the phase.
    pub cpu_s: f64,
    /// Driver spans of sampled requests (traced runs only).
    pub spans: Option<Recorder>,
}

/// One connection of the driver, with the per-connection epoch state the
/// answer checks need.
pub struct Conn {
    stream: TcpStream,
    /// Highest read-reply epoch seen: read epochs never go backwards.
    last_read_epoch: u64,
    /// Highest write-ack epoch seen: a later read answers at least here.
    max_ack: u64,
    /// Position of the next request in the script (cycles).
    cursor: usize,
}

/// How long the receiver waits for a reply before it counts the rest of
/// the phase as unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

impl Conn {
    /// Connects to the server with Nagle off, as `serving::Client` does.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            stream,
            last_read_epoch: 0,
            max_ack: 0,
            cursor: 0,
        })
    }

    /// Runs one phase of `secs` seconds over `script`, continuing where
    /// the previous phase left off. In a traced run, `traced` holds the
    /// spans' time origin and which script requests are sampled; the
    /// receiver records a driver span for each sampled request.
    pub fn run_phase(
        &mut self,
        script: &[Request],
        pacing: Pacing,
        secs: f64,
        traced: Option<(Instant, &[bool])>,
    ) -> Result<PhaseRun, String> {
        let (inflight_tx, inflight_rx) = mpsc::channel::<Outcome>();
        let (credit_tx, credit_rx) = mpsc::channel::<()>();
        let abort = AtomicBool::new(false);
        let reader = self.stream.try_clone().map_err(|e| e.to_string())?;
        let cpu0 = crate::cpu_seconds();
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(secs);
        let (last_read_epoch, max_ack) = (self.last_read_epoch, self.max_ack);

        let abort = &abort;
        let received = std::thread::scope(|scope| {
            let receiver = scope.spawn(move || {
                let mut state = EpochState {
                    last_read_epoch,
                    max_ack,
                };
                let recorder = traced.map(|(origin, _)| Recorder::new(origin));
                let result = receive(
                    reader,
                    script,
                    &inflight_rx,
                    &credit_tx,
                    t0,
                    &mut state,
                    recorder.as_ref().zip(traced.map(|(_, sampled)| sampled)),
                );
                if result.is_err() {
                    abort.store(true, Ordering::Relaxed);
                }
                (result, state, recorder)
            });
            let sent = send(
                &mut self.stream,
                script,
                &mut self.cursor,
                pacing,
                t0,
                deadline,
                &inflight_tx,
                &credit_rx,
                abort,
            );
            drop(inflight_tx);
            let received = receiver.join().expect("receiver thread panicked");
            sent.map(|()| received)
        })?;
        let (result, state, spans) = received;
        let (outcomes, desynced) = result?;
        self.last_read_epoch = state.last_read_epoch;
        self.max_ack = state.max_ack;
        Ok(PhaseRun {
            secs,
            outcomes,
            desynced,
            cpu_s: crate::cpu_seconds() - cpu0,
            spans,
        })
    }
}

/// The sender half: writes requests on the pacing's schedule until the
/// deadline, telling the receiver about each one before it goes out.
#[allow(clippy::too_many_arguments)]
fn send(
    stream: &mut TcpStream,
    script: &[Request],
    cursor: &mut usize,
    pacing: Pacing,
    t0: Instant,
    deadline: Instant,
    inflight: &mpsc::Sender<Outcome>,
    credits_in: &mpsc::Receiver<()>,
    abort: &AtomicBool,
) -> Result<(), String> {
    let ns = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
    let mut buf = Vec::new();
    let mut queue = |buf: &mut Vec<u8>, due: u64, sent: u64| -> bool {
        let idx = *cursor;
        *cursor = (*cursor + 1) % script.len();
        buf.extend_from_slice(&script[idx].frame);
        let rec = Record {
            due_ns: due,
            sent_ns: sent,
            recv_ns: None,
            refused: false,
        };
        inflight.send(Outcome { idx, rec }).is_ok()
    };
    match pacing {
        Pacing::Window(window) => {
            let mut credits = window;
            loop {
                if credits == 0 {
                    match credits_in.recv() {
                        Ok(()) => credits += 1,
                        Err(_) => break,
                    }
                }
                while credits_in.try_recv().is_ok() {
                    credits += 1;
                }
                let now = Instant::now();
                if now >= deadline || abort.load(Ordering::Relaxed) {
                    break;
                }
                buf.clear();
                let sent = ns(now);
                for _ in 0..credits {
                    if !queue(&mut buf, sent, sent) {
                        return Ok(());
                    }
                }
                credits = 0;
                stream.write_all(&buf).map_err(|e| format!("send: {e}"))?;
            }
        }
        Pacing::Rate(rate) => {
            let mut next = 0u64;
            loop {
                let now = Instant::now();
                if now >= deadline || abort.load(Ordering::Relaxed) {
                    break;
                }
                let sent = ns(now);
                buf.clear();
                while due_ns(next, rate) <= sent {
                    if !queue(&mut buf, due_ns(next, rate), sent) {
                        return Ok(());
                    }
                    next += 1;
                }
                if !buf.is_empty() {
                    stream.write_all(&buf).map_err(|e| format!("send: {e}"))?;
                }
                let wake = t0 + Duration::from_nanos(due_ns(next, rate));
                let now = Instant::now();
                if wake > now {
                    std::thread::sleep(wake - now);
                }
            }
        }
    }
    Ok(())
}

struct EpochState {
    last_read_epoch: u64,
    max_ack: u64,
}

type Received = Result<(Vec<Outcome>, bool), String>;

/// The receiver half: reads replies in order, checks each against its
/// request, timestamps it, and hands a credit back to a windowed sender.
/// Returns the outcomes and whether replies were left unread.
fn receive(
    stream: TcpStream,
    script: &[Request],
    inflight: &mpsc::Receiver<Outcome>,
    credits_out: &mpsc::Sender<()>,
    t0: Instant,
    state: &mut EpochState,
    trace: Option<(&Recorder, &[bool])>,
) -> Received {
    let mut reader = BufReader::with_capacity(64 * 1024, stream);
    let mut outcomes = Vec::new();
    let mut desynced = false;
    while let Ok(mut outcome) = inflight.recv() {
        if desynced {
            outcomes.push(outcome);
            let _ = credits_out.send(());
            continue;
        }
        let frame = match read_frame(&mut reader, DEFAULT_MAX_PAYLOAD) {
            Ok(frame) => frame,
            Err(_) => {
                // Timed out or lost: this and every later request of the
                // phase count as unanswered.
                desynced = true;
                outcomes.push(outcome);
                let _ = credits_out.send(());
                continue;
            }
        };
        let now = Instant::now();
        let request = &script[outcome.idx];
        if frame.status.is_ok() {
            check_reply(request, &frame, state)
                .map_err(|e| format!("wrong answer to script request {}: {e}", outcome.idx))?;
        } else {
            outcome.rec.refused = true;
        }
        outcome.rec.recv_ns = Some(now.saturating_duration_since(t0).as_nanos() as u64);
        if let Some((recorder, sampled)) = trace {
            if sampled[outcome.idx] {
                let name = match request.op {
                    Op::Read(_) => "read",
                    Op::Write(_) => "write",
                };
                let due = t0 + Duration::from_nanos(outcome.rec.due_ns);
                recorder.record("driver", name, due, now, 0, outcome.idx as u64);
            }
        }
        outcomes.push(outcome);
        let _ = credits_out.send(());
    }
    Ok((outcomes, desynced))
}

/// Checks one `Ok` reply: its kind and shape match the request, read
/// epochs never go backwards on the connection, and a read answers at an
/// epoch at least as new as every write acked before it.
fn check_reply(request: &Request, frame: &Frame, state: &mut EpochState) -> Result<(), String> {
    match &request.op {
        Op::Write(_) => {
            if frame.op != OpCode::WriteResp {
                return Err(format!("write answered with {:?}", frame.op));
            }
            state.max_ack = state.max_ack.max(frame.epoch);
        }
        Op::Read(reads) => {
            if frame.op != OpCode::ReadResp {
                return Err(format!("read answered with {:?}", frame.op));
            }
            if frame.epoch < state.last_read_epoch {
                return Err(format!(
                    "read epoch went back from {} to {}",
                    state.last_read_epoch, frame.epoch
                ));
            }
            if frame.epoch < state.max_ack {
                return Err(format!(
                    "read answered at epoch {} after a write acked at {}",
                    frame.epoch, state.max_ack
                ));
            }
            state.last_read_epoch = frame.epoch;
            let replies: Vec<Reply> =
                decode_value(&frame.payload).map_err(|e| format!("undecodable reply: {e}"))?;
            check_shape(reads, &replies)?;
        }
    }
    Ok(())
}

/// Each reply has the variant its op calls for, and a fan-out answers
/// exactly the keys asked, in order.
pub fn check_shape(reads: &[Read], replies: &[Reply]) -> Result<(), String> {
    if reads.len() != replies.len() {
        return Err(format!("{} ops, {} replies", reads.len(), replies.len()));
    }
    for (op, reply) in reads.iter().zip(replies) {
        let ok = match (op, reply) {
            (MultiMapRead::ValuesOf(_), MultiMapReply::Values(_)) => true,
            (MultiMapRead::ContainsKey(_), MultiMapReply::Bool(_)) => true,
            (MultiMapRead::FanOut(keys), MultiMapReply::FanOut(per_key)) => {
                keys.len() == per_key.len()
                    && keys.iter().zip(per_key).all(|(k, (got, _))| k == got)
            }
            _ => false,
        };
        if !ok {
            return Err(format!("{op:?} answered with {}", reply.variant_name()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serving::Status;

    fn read_request() -> Request {
        encode_script(vec![Op::Read(vec![
            MultiMapRead::ValuesOf(1),
            MultiMapRead::ContainsKey(2),
            MultiMapRead::FanOut(vec![3, 4]),
        ])])
        .remove(0)
    }

    fn reply(epoch: u64, replies: &[Reply]) -> Frame {
        Frame {
            op: OpCode::ReadResp,
            status: Status::Ok,
            epoch,
            payload: encode_value(&replies.to_vec()).unwrap(),
        }
    }

    fn good() -> Vec<Reply> {
        vec![
            MultiMapReply::Values(vec![10]),
            MultiMapReply::Bool(false),
            MultiMapReply::FanOut(vec![(3, vec![]), (4, vec![40, 41])]),
        ]
    }

    #[test]
    fn replies_must_have_the_requests_shape() {
        let req = read_request();
        let mut state = EpochState {
            last_read_epoch: 0,
            max_ack: 0,
        };
        assert!(check_reply(&req, &reply(1, &good()), &mut state).is_ok());
        let mut wrong_kind = good();
        wrong_kind[1] = MultiMapReply::Count(0);
        assert!(check_reply(&req, &reply(1, &wrong_kind), &mut state).is_err());
        let mut wrong_keys = good();
        wrong_keys[2] = MultiMapReply::FanOut(vec![(4, vec![]), (3, vec![])]);
        assert!(check_reply(&req, &reply(1, &wrong_keys), &mut state).is_err());
        assert!(check_reply(&req, &reply(1, &good()[..2]), &mut state).is_err());
    }

    #[test]
    fn read_epochs_never_go_back_and_cover_acked_writes() {
        let req = read_request();
        let write = encode_script(vec![Op::Write(vec![MultiMapEdit::Insert(1, 1)])]).remove(0);
        let mut state = EpochState {
            last_read_epoch: 0,
            max_ack: 0,
        };
        assert!(check_reply(&req, &reply(5, &good()), &mut state).is_ok());
        let err = check_reply(&req, &reply(4, &good()), &mut state).unwrap_err();
        assert!(err.contains("went back"), "{err}");
        let ack = Frame {
            op: OpCode::WriteResp,
            status: Status::Ok,
            epoch: 9,
            payload: Vec::new(),
        };
        assert!(check_reply(&write, &ack, &mut state).is_ok());
        let err = check_reply(&req, &reply(8, &good()), &mut state).unwrap_err();
        assert!(err.contains("after a write acked at 9"), "{err}");
        assert!(check_reply(&req, &reply(9, &good()), &mut state).is_ok());
        // A write answered with a read reply is a wrong answer too.
        assert!(check_reply(&write, &reply(9, &good()), &mut state).is_err());
    }
}

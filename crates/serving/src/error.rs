//! Typed failure modes of the serving engine: overload shedding, missed
//! deadlines, faulted workers, and reply-shape mismatches — unified under
//! one numeric [`Status`] taxonomy that doubles as the wire encoding.
//!
//! The engine's contract under stress is *graceful degradation*: overload
//! sheds with the payload handed back (never silently dropped), deadlines
//! expire without losing the ticket, and a panicked worker faults only the
//! requests it was carrying — every error here is a per-request outcome,
//! never a poisoned engine.
//!
//! The typed enums ([`WriteError`], [`ReadError`],
//! [`TxnError`](crate::TxnError), [`ReplyMismatch`],
//! [`EpochConflict`](crate::EpochConflict)) stay the in-process surface;
//! [`Status`] is their shared projection onto stable `u16` codes, carried
//! verbatim in wire response headers. `status.code()` and
//! [`Status::from_code`] round-trip, so a remote peer sees exactly the
//! taxonomy a local caller matches on.

use sharded::EpochConflict;

/// The unified outcome taxonomy of the serving stack, with stable numeric
/// codes (the wire status field — see `DESIGN.md` §10 for the table).
///
/// Every typed error converts into a `Status` via `From`, and every code
/// converts back via [`Status::from_code`]; the numbers are frozen — new
/// statuses append, existing ones never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum Status {
    /// The request succeeded.
    Ok = 0,
    /// An admission queue was full; the request was shed whole
    /// ([`Overloaded`]).
    Overloaded = 1,
    /// A deadline expired before the request resolved
    /// ([`WriteError::Deadline`] / [`ReadError::Deadline`]).
    Deadline = 2,
    /// A worker carrying the request panicked; the request was consumed
    /// without effect ([`WriteError::Faulted`] / [`ReadError::Faulted`]).
    Faulted = 3,
    /// A validated commit lost its race: some shard it read or wrote was
    /// republished after the pin ([`EpochConflict`]).
    EpochConflict = 4,
    /// Every attempt of an optimistic transaction conflicted
    /// ([`TxnError::Exhausted`](crate::TxnError::Exhausted)).
    TxnExhausted = 5,
    /// A reply held a different variant than expected ([`ReplyMismatch`]).
    ReplyMismatch = 6,
    /// The request could not be decoded, or asked for an operation the
    /// endpoint does not serve.
    BadRequest = 7,
    /// The server is draining connections and admits nothing new.
    Shutdown = 8,
    /// The request pinned a session epoch the server has not published
    /// yet — only possible if the epoch did not come from one of this
    /// store's acks.
    FutureEpoch = 9,
}

/// Every defined status, in code order (supports exhaustive round-trip
/// tests and table generation).
pub const ALL_STATUSES: [Status; 10] = [
    Status::Ok,
    Status::Overloaded,
    Status::Deadline,
    Status::Faulted,
    Status::EpochConflict,
    Status::TxnExhausted,
    Status::ReplyMismatch,
    Status::BadRequest,
    Status::Shutdown,
    Status::FutureEpoch,
];

impl Status {
    /// The stable numeric code carried in wire response headers.
    pub const fn code(self) -> u16 {
        self as u16
    }

    /// The status a code names, or `None` for codes this build does not
    /// know (a newer peer may emit ones we don't).
    pub const fn from_code(code: u16) -> Option<Status> {
        Some(match code {
            0 => Status::Ok,
            1 => Status::Overloaded,
            2 => Status::Deadline,
            3 => Status::Faulted,
            4 => Status::EpochConflict,
            5 => Status::TxnExhausted,
            6 => Status::ReplyMismatch,
            7 => Status::BadRequest,
            8 => Status::Shutdown,
            9 => Status::FutureEpoch,
            _ => return None,
        })
    }

    /// True for [`Status::Ok`].
    pub const fn is_ok(self) -> bool {
        matches!(self, Status::Ok)
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Status::Ok => "ok",
            Status::Overloaded => "overloaded (request shed whole)",
            Status::Deadline => "deadline expired",
            Status::Faulted => "a worker carrying the request panicked",
            Status::EpochConflict => "epoch conflict (shard republished after the pin)",
            Status::TxnExhausted => "transaction attempts exhausted",
            Status::ReplyMismatch => "reply variant mismatch",
            Status::BadRequest => "malformed or unsupported request",
            Status::Shutdown => "server shutting down",
            Status::FutureEpoch => "session epoch not published yet",
        };
        write!(f, "{name} [status {}]", self.code())
    }
}

impl From<WriteError> for Status {
    fn from(e: WriteError) -> Status {
        match e {
            WriteError::Deadline => Status::Deadline,
            WriteError::Faulted => Status::Faulted,
        }
    }
}

impl From<ReadError> for Status {
    fn from(e: ReadError) -> Status {
        match e {
            ReadError::Deadline => Status::Deadline,
            ReadError::Faulted => Status::Faulted,
        }
    }
}

impl From<crate::TxnError> for Status {
    fn from(e: crate::TxnError) -> Status {
        match e {
            crate::TxnError::Exhausted { .. } => Status::TxnExhausted,
        }
    }
}

impl From<EpochConflict> for Status {
    fn from(_: EpochConflict) -> Status {
        Status::EpochConflict
    }
}

impl From<ReplyMismatch> for Status {
    fn from(_: ReplyMismatch) -> Status {
        Status::ReplyMismatch
    }
}

impl<T> From<Overloaded<T>> for Status {
    fn from(_: Overloaded<T>) -> Status {
        Status::Overloaded
    }
}

/// An admission queue had no room (or could not make room before the
/// deadline). Carries the rejected payload back to the caller — a shed
/// batch is returned whole, so nothing acked is ever lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Overloaded<T>(
    /// The rejected payload, exactly as submitted.
    pub T,
);

impl<T> Overloaded<T> {
    /// The rejected payload, for resubmission or spilling.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> std::fmt::Display for Overloaded<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("admission queue full: request shed, payload returned")
    }
}

impl<T: std::fmt::Debug> std::error::Error for Overloaded<T> {}

/// Why a staged write batch did not resolve with a visibility epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteError {
    /// `wait_timeout` expired before the batch finished applying. The
    /// ticket is untouched — wait again to keep claiming the ack.
    Deadline,
    /// The commit carrying the batch panicked; none of its edits were
    /// applied.
    Faulted,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::Deadline => f.write_str("write deadline expired (ticket still claimable)"),
            WriteError::Faulted => f.write_str("the commit carrying the write batch panicked"),
        }
    }
}

impl std::error::Error for WriteError {}

/// Why a submitted read batch did not resolve with replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// `wait_timeout` expired before the batch was answered. The ticket is
    /// untouched — wait again to keep claiming the reply.
    Deadline,
    /// The worker answering this batch panicked; the batch was consumed
    /// without replies. The engine itself stays healthy.
    Faulted,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Deadline => f.write_str("read deadline expired (ticket still claimable)"),
            ReadError::Faulted => f.write_str("the worker answering this read batch panicked"),
        }
    }
}

impl std::error::Error for ReadError {}

/// A reply held a different variant than the accessor asked for (e.g.
/// calling `into_value` on a `Count` reply). Returned by the typed
/// accessors on [`MapReply`](crate::MapReply) and friends, replacing the
/// panic-on-mismatch idiom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyMismatch {
    /// The variant the accessor expected.
    pub expected: &'static str,
    /// The variant the reply actually held.
    pub found: &'static str,
}

impl std::fmt::Display for ReplyMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reply mismatch: expected {}, found {}",
            self.expected, self.found
        )
    }
}

impl std::error::Error for ReplyMismatch {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_codes_roundtrip_and_stay_stable() {
        // The frozen wire numbers: renumbering any of these is a protocol
        // break, so the expectation is spelled out literally.
        let frozen: [(Status, u16); 10] = [
            (Status::Ok, 0),
            (Status::Overloaded, 1),
            (Status::Deadline, 2),
            (Status::Faulted, 3),
            (Status::EpochConflict, 4),
            (Status::TxnExhausted, 5),
            (Status::ReplyMismatch, 6),
            (Status::BadRequest, 7),
            (Status::Shutdown, 8),
            (Status::FutureEpoch, 9),
        ];
        assert_eq!(frozen.len(), ALL_STATUSES.len());
        for (status, code) in frozen {
            assert_eq!(status.code(), code);
            assert_eq!(Status::from_code(code), Some(status));
        }
        for status in ALL_STATUSES {
            assert_eq!(Status::from_code(status.code()), Some(status));
        }
        assert_eq!(Status::from_code(1000), None);
        assert!(Status::Ok.is_ok());
        assert!(!Status::Overloaded.is_ok());
    }

    #[test]
    fn typed_errors_project_onto_statuses() {
        assert_eq!(Status::from(WriteError::Deadline), Status::Deadline);
        assert_eq!(Status::from(WriteError::Faulted), Status::Faulted);
        assert_eq!(Status::from(ReadError::Deadline), Status::Deadline);
        assert_eq!(Status::from(ReadError::Faulted), Status::Faulted);
        assert_eq!(
            Status::from(Overloaded(vec![1u32, 2, 3])),
            Status::Overloaded
        );
        assert_eq!(
            Status::from(EpochConflict {
                shard: 1,
                pinned: 3,
                current: 4,
            }),
            Status::EpochConflict
        );
        assert_eq!(
            Status::from(ReplyMismatch {
                expected: "Value",
                found: "Count",
            }),
            Status::ReplyMismatch
        );
        assert_eq!(
            Status::from(crate::TxnError::Exhausted {
                attempts: 3,
                last: EpochConflict {
                    shard: 0,
                    pinned: 0,
                    current: 1,
                },
            }),
            Status::TxnExhausted
        );
    }
}

//! The transport abstraction: one trait, many fabrics.
//!
//! Everything above the point-to-point layer — the collectives, the INC
//! switch service, the nonblocking progress threads, the HEAR engine's
//! retry machinery — talks to the network through [`Transport`]. Two
//! implementations exist:
//!
//! * the in-memory [`Fabric`](crate::fabric::Fabric): one mailbox per
//!   endpoint inside a single process, with the α–β delay model and
//!   deterministic fault injection (the original simulator);
//! * the [`tcp`](crate::tcp) backend: the same mailbox matching, but every
//!   message is framed onto a real kernel socket (`std::net`, zero
//!   dependencies), either as an in-process loopback mesh or as one
//!   process per rank joined through a rendezvous rank.
//!
//! The contract is deliberately small and endpoint-addressed (ranks first,
//! then switch nodes), so a backend never needs to know about
//! communicators, contexts, or collectives:
//!
//! * `send_boxed` is fire-and-forget and must never block indefinitely
//!   (over sockets it may wait for kernel flow control, bounded by the
//!   heartbeat silence budget, but never for the receiving rank);
//! * `recv_on` matches `(source, tag)` with MPI's non-overtaking rule per
//!   pair, honours an optional deadline, and resolves waits on dead
//!   endpoints to [`CommError::PeerDead`] instead of hanging;
//! * `kill` marks an endpoint dead and wakes every waiter — fault plans,
//!   panicking ranks, and real connection loss all funnel through it;
//! * `rtt_estimate` reports the backend's measured (or modeled) round
//!   trip so deadline budgets can be derived portably.

use crate::error::CommError;
use std::any::Any;
use std::time::{Duration, Instant};

/// One in-flight message: the boxed typed payload plus the instant the
/// modeled (or injected) delay allows it to be consumed.
pub struct Envelope {
    pub payload: Box<dyn Any + Send>,
    pub available_at: Instant,
}

impl std::fmt::Debug for Envelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Envelope")
            .field("available_at", &self.available_at)
            .finish_non_exhaustive()
    }
}

/// A message-passing backend serving a fixed set of endpoints.
///
/// Implementations must be fully thread-safe: every rank thread, progress
/// thread, and switch-service thread holds the same `Arc<dyn Transport>`.
pub trait Transport: Send + Sync {
    /// Number of endpoints this transport serves (ranks, then switches).
    fn endpoints(&self) -> usize;

    /// Deposit `payload` for endpoint `to`, tagged `(from, tag)`. Sends
    /// from dead endpoints are silently discarded; sends to remote or
    /// dead endpoints must not block the caller beyond flow control.
    fn send_boxed(
        &self,
        from: usize,
        to: usize,
        tag: u64,
        payload: Box<dyn Any + Send>,
        bytes: usize,
    );

    /// Receive on endpoint `me` the next message matching `(source, tag)`,
    /// optionally bounded by `deadline`. Must return a typed error — never
    /// hang — when the source (or `me`) dies or the deadline expires.
    fn recv_on(
        &self,
        me: usize,
        source: usize,
        tag: u64,
        deadline: Option<Instant>,
    ) -> Result<Envelope, CommError>;

    /// How many `(source, tag)` queues `endpoint`'s mailbox holds. A queue
    /// exists only while it has an undelivered message in it, so an
    /// endpoint that has received everything sent to it reports 0. A test
    /// hook for the mailbox-leak pins, not part of the contract: a backend
    /// without mailboxes need not override it.
    #[doc(hidden)]
    fn pending_queues(&self, _endpoint: usize) -> usize {
        0
    }

    /// Whether `endpoint` has been marked dead.
    fn is_dead(&self, endpoint: usize) -> bool;

    /// Mark `endpoint` dead and wake every parked receiver so waits on it
    /// resolve to [`CommError::PeerDead`]. Idempotent.
    fn kill(&self, endpoint: usize);

    /// The backend's estimate of one small-message round trip: modeled
    /// (2α floored at a scheduler-wake constant) for the in-memory fabric,
    /// measured during connection establishment for TCP. Deadline budgets
    /// (chaos suite, engine retries) scale from this instead of assuming
    /// in-process latency.
    fn rtt_estimate(&self) -> Duration;

    /// Short backend name for diagnostics ("mem", "tcp").
    fn name(&self) -> &'static str;
}

//! Engine call configuration: chunking, retry policy, and the unified
//! error type.

use crate::secure::{ReduceAlgo, VerificationError};
use hear_mpi::CommError;
use std::time::Duration;

/// How the engine chunks the payload across collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkMode {
    /// One blocking collective over the whole vector.
    #[default]
    Sync,
    /// Fixed-size blocks, strictly one after another (Fig. 6's "Naïve
    /// (sync)" baseline).
    Blocked(usize),
    /// Fixed-size blocks with two collectives in flight, overlapping
    /// encrypt(n+1) / decrypt(n−1) with the reduction of block n (§6).
    Pipelined(usize),
}

/// What a collective does when a member rank is declared dead
/// mid-operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeerDeadPolicy {
    /// Surface a typed [`EngineError::Comm`] with
    /// [`CommError::PeerDead`] — the legacy fail-fast contract.
    #[default]
    Fail,
    /// Survivors run a membership-agreement round, re-derive the ring
    /// keys over the shrunk world, and re-run the collective: the caller
    /// gets a correct allreduce of the *survivors'* contributions plus a
    /// [`MembershipChange`](crate::MembershipChange) report instead of
    /// an error.
    ShrinkAndContinue,
}

/// How the engine reacts to communication and verification failures.
///
/// Defaults reproduce the legacy behavior: one attempt, no deadline. A
/// `SwitchDown` from the INC switch tree always degrades the rest of the
/// call to the host ring (a healthy run never sees one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// One more than the retry budget of the whole call (1 = no retries).
    /// The budget is shared by all the call's blocks: each block's first
    /// attempt is free, every retry of any block spends one, and a block
    /// that succeeds gives nothing back. A retry re-sends only the block
    /// that failed. Timeouts and verification failures consume retries;
    /// `SwitchDown` degradation does not.
    pub max_attempts: u32,
    /// Sleep before the first retry; doubled after each one but never
    /// beyond [`RetryPolicy::attempt_timeout`] (sleeping longer than one
    /// attempt's deadline would burn the remaining budget idling).
    pub backoff: Duration,
    /// Deadline applied to each attempt's collective; `None` waits
    /// forever (legacy blocking semantics). A retry's window opens where
    /// the failed attempt's window closed, so a rank that failed early
    /// still meets peers that waited theirs out; counting attempts across
    /// all the call's blocks, attempt `k` ends at the latest `(k + 1)`
    /// timeouts (plus backoff) into the call.
    pub attempt_timeout: Option<Duration>,
    /// React to a dead member: fail fast (default) or shrink the
    /// membership and continue over the survivors.
    pub on_peer_dead: PeerDeadPolicy,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
            attempt_timeout: None,
            on_peer_dead: PeerDeadPolicy::Fail,
        }
    }
}

impl RetryPolicy {
    /// `retries` extra attempts after the first (so `retries(2)` allows
    /// three attempts total).
    pub fn retries(retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1 + retries,
            ..RetryPolicy::default()
        }
    }

    /// Initial backoff before the first retry (doubled per retry).
    pub fn with_backoff(mut self, backoff: Duration) -> RetryPolicy {
        self.backoff = backoff;
        self
    }

    /// Bound each attempt's collective by a deadline.
    pub fn with_attempt_timeout(mut self, timeout: Duration) -> RetryPolicy {
        self.attempt_timeout = Some(timeout);
        self
    }

    /// Choose the reaction to a dead member rank
    /// ([`PeerDeadPolicy::ShrinkAndContinue`] opts into membership
    /// reconfiguration).
    pub fn on_peer_dead(mut self, policy: PeerDeadPolicy) -> RetryPolicy {
        self.on_peer_dead = policy;
        self
    }
}

/// Full configuration of one engine call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineCfg {
    pub chunk: ChunkMode,
    /// Attach the HoMAC-authenticated digest side-channel (§5.5).
    pub verified: bool,
    /// Reduction algorithm of this call; `None` runs recursive doubling
    /// ([`ReduceAlgo::default`]). The factored phases and alltoall are
    /// ring/pairwise-native and ignore this field.
    pub algo: Option<ReduceAlgo>,
    /// Failure handling: bounded retries, per-attempt deadlines, and
    /// INC→host degradation.
    pub retry: RetryPolicy,
}

impl EngineCfg {
    /// One blocking collective (the default).
    pub fn sync() -> EngineCfg {
        EngineCfg::default()
    }

    /// Sequential blocks of `block_elems` elements.
    pub fn blocked(block_elems: usize) -> EngineCfg {
        EngineCfg {
            chunk: ChunkMode::Blocked(block_elems),
            ..EngineCfg::default()
        }
    }

    /// Pipelined blocks of `block_elems` elements.
    pub fn pipelined(block_elems: usize) -> EngineCfg {
        EngineCfg {
            chunk: ChunkMode::Pipelined(block_elems),
            ..EngineCfg::default()
        }
    }

    /// Enable HoMAC result verification (requires
    /// [`SecureComm::with_homac`](crate::secure::SecureComm::with_homac)).
    pub fn verified(mut self) -> EngineCfg {
        self.verified = true;
        self
    }

    /// Choose the reduction algorithm for this call.
    pub fn with_algo(mut self, algo: ReduceAlgo) -> EngineCfg {
        self.algo = Some(algo);
        self
    }

    /// Attach a failure-handling policy to this call.
    pub fn with_retry(mut self, retry: RetryPolicy) -> EngineCfg {
        self.retry = retry;
        self
    }

    /// Elements per engine block: the configured size, or under
    /// [`ChunkMode::Sync`] the `natural` one (the whole call; at least 1).
    pub(crate) fn block_len(&self, natural: usize) -> usize {
        match self.chunk {
            ChunkMode::Sync => natural.max(1),
            ChunkMode::Blocked(b) | ChunkMode::Pipelined(b) => {
                assert!(b > 0, "block size must be positive");
                b
            }
        }
    }
}

/// Why an engine call failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// Float encoding rejected the input (NaN/Inf/overflow).
    Hfp(hear_core::HfpError),
    /// HoMAC or digest verification rejected the aggregate (and the
    /// retry budget, if any, is exhausted).
    Verification(VerificationError),
    /// The transport failed (timeout, dead peer, downed switch) beyond
    /// what the [`RetryPolicy`] could absorb.
    Comm(CommError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Hfp(e) => write!(f, "{e}"),
            EngineError::Verification(e) => write!(f, "{e}"),
            EngineError::Comm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<hear_core::HfpError> for EngineError {
    fn from(e: hear_core::HfpError) -> Self {
        EngineError::Hfp(e)
    }
}

impl From<VerificationError> for EngineError {
    fn from(e: VerificationError) -> Self {
        EngineError::Verification(e)
    }
}

impl From<CommError> for EngineError {
    fn from(e: CommError) -> Self {
        EngineError::Comm(e)
    }
}

//! # hear-layer — the libhear interposition layer
//!
//! The end-to-end system of paper §6: a drop-in secured Allreduce that
//! wraps the MPI runtime without application changes. Provides
//! [`SecureComm`] (transparent encrypt → reduce → decrypt for every
//! supported datatype/op, with optional HoMAC verification), the single
//! generic [`engine`] behind every method
//! ([`SecureComm::allreduce_with`]: scheme × algorithm × chunking ×
//! verification, all orthogonal), the typed [`arena::ScratchArena`]
//! (allocation-free steady-state staging: paper §6's memory pool, as
//! recycled `Vec`s), the [`prefetch::Prefetcher`] worker that
//! generates the next epoch's keystream during the current epoch's
//! communication phase, pipelined large-message transfers
//! ([`SecureComm::allreduce_sum_u32_pipelined`], Fig. 6), and the
//! critical-path phase instrumentation of Fig. 4 ([`breakdown`]).

pub mod arena;
pub mod breakdown;
pub mod chaos;
pub mod dispatch;
pub mod engine;
pub mod extensions;
pub mod pipeline;
pub mod prefetch;
pub mod secure;
pub mod wire;

pub use arena::ScratchArena;
pub use breakdown::{measure_phases, PhaseBreakdown};
pub use dispatch::{DispatchError, TypedSlice, TypedVec};
pub use engine::{
    ChunkMode, EngineCfg, EngineError, MembershipChange, PeerDeadPolicy, RetryPolicy,
};
pub use extensions::SecureP2p;
pub use prefetch::{PrefetchJob, Prefetcher};
pub use secure::{ReduceAlgo, SecureComm, Tagged, VerificationError};

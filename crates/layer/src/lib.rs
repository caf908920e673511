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
//! recycled `Vec`s), pipelined large-message transfers
//! ([`EngineCfg::pipelined`], Fig. 6), and the engine spans Fig. 4's
//! critical-path breakdown is folded from. The runtime-typed PMPI
//! front doors ([`SecureComm::pmpi_allreduce`] and its siblings in
//! [`dispatch`]) route every supported `(datatype, op)` pair onto the
//! engine.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod arena;
#[cfg(test)]
mod chaos;
pub mod dispatch;
pub mod engine;
pub mod extensions;
pub mod secure;
pub mod wire;

pub use arena::ScratchArena;
pub use dispatch::{DispatchError, TypedSlice, TypedVec};
pub use engine::{
    ChunkMode, EngineCfg, EngineError, MembershipChange, PeerDeadPolicy, RetryPolicy,
};
pub use extensions::SecureP2p;
pub use secure::{ReduceAlgo, SecureComm, Tagged, VerificationError};

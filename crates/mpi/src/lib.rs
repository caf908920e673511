//! # hear-mpi — a thread-backed MPI-like runtime with in-network compute
//!
//! The paper evaluates libhear on Cray MPICH over the Aries interconnect;
//! offline, this crate provides the message-passing substrate: a
//! [`Simulator`] spawns one thread per rank, each holding a
//! [`Communicator`] with MPI-style point-to-point messaging (source + tag
//! matching, non-overtaking), the classical collectives (binomial
//! broadcast/reduce, recursive-doubling and ring allreduce,
//! reduce-scatter, allgather, scatter/gather, barrier, and the tagged
//! pairwise all-to-all), nonblocking requests, and — the
//! part that motivates HEAR — an in-network switch aggregation tree
//! ([`inc`]) whose nodes hold **no key material** and fold only opaque
//! (encrypted) vectors.
//!
//! An α–β transit-delay model ([`NetConfig`]) gives communication a real
//! cost so overlap experiments (paper Fig. 6) measure something.
//!
//! ```
//! use hear_mpi::Simulator;
//! let sums = Simulator::new(4).run(|comm| {
//!     comm.allreduce(&[comm.rank() as u64 + 1], |a, b| a + b)
//! });
//! assert!(sums.iter().all(|v| v[0] == 10));
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]
#![deny(unreachable_pub)]

mod collectives;
mod comm;
mod error;
mod fabric;
mod fault;
pub mod inc;
pub mod launch;
mod nonblocking;
pub mod payload;
mod simulator;
pub mod tcp;
mod transport;

pub use collectives::ring_chunk_bounds;
pub use comm::{Communicator, ATTEMPT_TAG_STRIDE, COLL_BLOCK_TAG_STRIDE, MAX_TAG_ATTEMPTS};
pub use error::CommError;
pub use fabric::{thread_transit_wait_nanos, NetConfig};
pub use fault::{Corruptor, FaultPlan, WireSink};
pub use inc::SwitchTopology;
pub use launch::Launcher;
pub use nonblocking::{helpers_started, Request};
pub use simulator::{SimConfig, Simulator, TransportKind};
pub use tcp::TcpTransport;
pub use transport::{Envelope, Transport};

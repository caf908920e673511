//! # hear-net — cluster performance model (the Piz Daint substitute)
//!
//! Evaluates allreduce cost formulas (ring, recursive doubling) over a
//! parameterized machine ([`Machine`], defaults = the paper's testbed)
//! with HEAR's crypto costs ([`CryptoRates`], either the paper's numbers
//! or rates measured on this host) layered on top. Used by the Fig. 7/8
//! scaling harnesses and by `hear-dnn` for the Fig. 9 training study.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod machine;
pub mod model;
pub mod probe;

pub use machine::{CryptoRates, Machine};
pub use model::{
    best_algorithm, crossover_bytes, latency_with_noise, network_efficiency, rd_allreduce_time,
    ring_allreduce_time, throughput_per_node, Algo, Allocation, LatencyPoint,
};
pub use probe::{measure_loopback, measure_loopback_default, LinkEstimate};

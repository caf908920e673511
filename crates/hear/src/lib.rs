//! # HEAR — Homomorphically Encrypted Allreduce
//!
//! A from-scratch Rust reproduction of *HEAR: Homomorphically Encrypted
//! Allreduce* (Chrapek, Khalilov, Hoefler — SC '23): the first
//! high-performance system for securing in-network compute (INC) and
//! MPI Allreduce with homomorphic encryption.
//!
//! This facade re-exports the whole workspace:
//!
//! * [`core`] ([`hear_core`]) — the encryption schemes: integer
//!   SUM/PROD/XOR on rings (lossless, IND-CPA), fixed point, the HFP
//!   float schemes (SUM v1/v2, PROD; COA), key generation/progression,
//!   HoMAC result verification, and the MAP-adversary estimator.
//! * [`hfp`] ([`hear_hfp`]) — the ring-exponent floating-point format.
//! * [`prf`] ([`hear_prf`]) — AES-128 (software + AES-NI) and SHA-1 PRFs.
//! * [`mpi`] ([`hear_mpi`]) — a thread-backed MPI-like runtime with an
//!   in-network switch aggregation tree.
//! * [`layer`] ([`hear_layer`]) — the libhear interposition layer:
//!   transparent encrypted Allreduce, memory pool, pipelining.
//! * [`net`] ([`hear_net`]) — the Piz Daint performance model behind the
//!   scaling figures.
//! * [`dnn`] ([`hear_dnn`]) — the DNN-training proxy workloads of §7.2.
//! * [`num`] ([`hear_num`]) — exact arithmetic (MPFR/GMP substitute).
//! * [`baselines`] ([`hear_baselines`]) — Paillier/RSA/ElGamal for the
//!   requirements comparison.
//! * [`telemetry`] ([`hear_telemetry`]) — zero-dependency tracing and
//!   metrics: spans, counters, chrome-trace/Prometheus/JSON exporters
//!   (set `HEAR_TRACE=1`).
//!
//! ## Quickstart
//!
//! ```
//! use hear::core::{Backend, CommKeys, MpiOp};
//! use hear::layer::{EngineCfg, SecureComm, TypedSlice, TypedVec};
//! use hear::mpi::Simulator;
//!
//! // Four ranks; each contributes a vector; the network (untrusted!)
//! // only ever sees ciphertexts.
//! let sums = Simulator::new(4).run(|comm| {
//!     let keys = CommKeys::generate(4, 0x5eed, Backend::best_available())
//!         .into_iter()
//!         .nth(comm.rank())
//!         .unwrap();
//!     let mut secure = SecureComm::new(comm.clone(), keys);
//!     // MPI_Allreduce(buf, MPI_INT, MPI_SUM), encrypted end to end.
//!     let data = [comm.rank() as i32 + 1, 10];
//!     secure.pmpi_allreduce(TypedSlice::I32(&data), MpiOp::Sum, EngineCfg::sync())
//! });
//! assert!(sums.iter().all(|v| *v == Ok(TypedVec::I32(vec![10, 40]))));
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub use hear_baselines as baselines;
pub use hear_core as core;
pub use hear_dnn as dnn;
pub use hear_hfp as hfp;
pub use hear_layer as layer;
pub use hear_mpi as mpi;
pub use hear_net as net;
pub use hear_num as num;
pub use hear_prf as prf;
pub use hear_telemetry as telemetry;

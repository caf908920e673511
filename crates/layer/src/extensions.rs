//! HEAR extensions (paper §8 and §5.4): collectives beyond Allreduce,
//! derived statistical reductions, complex datatypes, and one-to-one
//! communication over a pairwise key matrix.
//!
//! These follow the paper's remarks: broadcast/reduce/gather "work
//! similarly to Allreduce, however, without any INC"; one-to-one traffic
//! needs a matrix of keys — Θ(N) space per rank instead of the Θ(1) of
//! the collective schemes; MIN/MAX remain rejected for the §5.4 security
//! reason (see [`hear_core::derived::UnsupportedOp`]). The logical
//! AND/OR reductions are an arm of [`SecureComm::pmpi_allreduce`].
//!
//! The XOR pads of broadcast, gather and scatter come from the epoch's
//! collective stream, which the XOR allreduce scheme also draws on: every
//! operation advances the keys first, so no two of them share an epoch.

use crate::engine::{collective_pad, EngineCfg, EngineError};
use crate::secure::SecureComm;
use hear_core::derived::{moments_to_stats, variance_moments, MpiOp, UnsupportedOp};
use hear_core::{
    FixedCodec, FixedSumScheme, FloatSumScheme, HfpFormat, IntProdScheme, IntSumScheme, Scheme,
};
use hear_mpi::Communicator;
use hear_prf::{xor_keystream_into, Backend, Payload, Prf, PrfCipher};
use std::collections::HashMap;

/// Pad-coordinate stride between ranks in [`SecureComm::gather_encrypted`]:
/// rank `r` pads from element `r · GATHER_STRIDE` of the collective stream,
/// whatever the lengths, so no two contributions share a pad word.
const GATHER_STRIDE: u64 = 1 << 40;

impl SecureComm {
    /// Operator guard: the layer-level answer to "can I run this MPI_Op
    /// under HEAR?" with the paper's rationale in the error.
    pub fn check_op(op: MpiOp) -> Result<&'static str, UnsupportedOp> {
        op.support()
    }

    /// Cluster-wide mean and variance of per-rank samples (§5.4's
    /// preprocessing pattern: square locally, SUM globally). `n_total` is
    /// returned alongside so callers can weight further. Two engine calls:
    /// an integer count and a fixed-point moment sum.
    pub fn allreduce_variance(&mut self, samples: &[f64]) -> Result<(f64, f64, u64), EngineError> {
        let (s, s2) = variance_moments(samples);
        let cfg = EngineCfg::sync();
        let count = [samples.len() as u64];
        let n = self.allreduce_with(&mut IntSumScheme::default(), &count, cfg)?[0];
        let mut fixed = FixedSumScheme::new(FixedCodec::new(20));
        let moments = self.allreduce_with(&mut fixed, &[s, s2], cfg)?;
        let (mean, var) = moments_to_stats(moments[0], moments[1], n.max(1));
        Ok((mean, var, n))
    }

    /// Fixed-point product (§5.2): the output scale compounds with the
    /// world size, so the lanes ride the integer PROD scheme and decode
    /// with [`FixedCodec::decode_prod`].
    pub fn allreduce_fixed_prod(
        &mut self,
        codec: FixedCodec,
        data: &[f64],
    ) -> Result<Vec<f64>, EngineError> {
        let mut lanes = Vec::new();
        codec.encode_slice(data, &mut lanes);
        let agg = self.allreduce_with(&mut IntProdScheme::default(), &lanes, EngineCfg::sync())?;
        Ok(agg
            .iter()
            .map(|l| codec.decode_prod(*l, self.world()))
            .collect())
    }

    /// Complex float summation (Table 2's "Float, Complex" datatype):
    /// component-wise Eq. 7 over interleaved (re, im) lanes.
    pub fn allreduce_complex_sum(
        &mut self,
        fmt: HfpFormat,
        data: &[(f64, f64)],
    ) -> Result<Vec<(f64, f64)>, EngineError> {
        let flat: Vec<f64> = data.iter().flat_map(|&(re, im)| [re, im]).collect();
        let out = self.allreduce_with(&mut FloatSumScheme::new(fmt), &flat, EngineCfg::sync())?;
        Ok(out.chunks_exact(2).map(|c| (c[0], c[1])).collect())
    }

    /// Encrypted `MPI_Reduce(MPI_SUM)` to `root` (§8: like Allreduce,
    /// without INC). Only the root's return value is the reduction; other
    /// ranks receive `None`. A dead peer is [`EngineError::Comm`].
    pub fn reduce_sum_u32(
        &mut self,
        root: usize,
        data: &[u32],
    ) -> Result<Option<Vec<u32>>, EngineError> {
        self.on_lane(|sc| {
            sc.keys.advance();
            let mut scheme = IntSumScheme::<u32>::default();
            let mut buf = Vec::new();
            scheme
                .mask_slice(&sc.keys, 0, data, &mut buf)
                .expect("integer masking is infallible");
            let agg = sc.comm.reduce(root, buf, IntSumScheme::<u32>::op)?;
            if sc.comm.rank() != root {
                return Ok(None);
            }
            let mut out = Vec::new();
            scheme.unmask_slice(&sc.keys, 0, &agg, &mut out);
            Ok(Some(out))
        })
    }

    /// Encrypted broadcast (§8): the payload crosses the untrusted network
    /// XOR-padded with the communicator's collective keystream; every rank
    /// holding the keys recovers it. A dead peer is [`EngineError::Comm`].
    pub fn bcast_encrypted(
        &mut self,
        root: usize,
        data: Vec<u32>,
    ) -> Result<Vec<u32>, EngineError> {
        self.on_lane(|sc| {
            sc.keys.advance();
            // XOR pad from the collective stream: same Eq. 3 machinery,
            // keyed per epoch — temporal safety applies to broadcasts too.
            let mut buf = data;
            if sc.comm.rank() == root {
                collective_pad(&sc.keys, 0, Payload::InPlace(&mut buf));
            }
            // Non-roots learn the length only on arrival; pad afterwards.
            let mut out = sc.comm.bcast(root, buf)?;
            collective_pad(&sc.keys, 0, Payload::InPlace(&mut out));
            Ok(out)
        })
    }

    /// Encrypted gather to `root`. Per-rank noise streams cannot be
    /// stripped by the root for ranks other than its neighbours, so gather
    /// pads with the *collective* stream instead, keeping Θ(1) keys: rank
    /// `r` at elements `r · 2⁴⁰ …`, a stride independent of the
    /// contribution lengths (which may differ), so no two ranks' pads
    /// overlap. A dead peer is [`EngineError::Comm`].
    pub fn gather_encrypted(
        &mut self,
        root: usize,
        data: Vec<u32>,
    ) -> Result<Vec<Vec<u32>>, EngineError> {
        assert!(
            (data.len() as u64) < GATHER_STRIDE,
            "gather contribution too long"
        );
        self.on_lane(|sc| {
            sc.keys.advance();
            let mut buf = data;
            collective_pad(
                &sc.keys,
                sc.comm.rank() as u64 * GATHER_STRIDE,
                Payload::InPlace(&mut buf),
            );
            let mut gathered = sc.comm.gather(root, buf)?;
            if sc.comm.rank() == root {
                for (r, v) in gathered.iter_mut().enumerate() {
                    collective_pad(&sc.keys, r as u64 * GATHER_STRIDE, Payload::InPlace(v));
                }
            }
            Ok(gathered)
        })
    }

    /// Encrypted scatter from `root` (§8): chunk `r` is padded with the
    /// collective stream at offset `r × len` (all chunks must share one
    /// length so offsets are unambiguous). A dead peer is
    /// [`EngineError::Comm`].
    pub fn scatter_encrypted(
        &mut self,
        root: usize,
        mut chunks: Vec<Vec<u32>>,
    ) -> Result<Vec<u32>, EngineError> {
        self.on_lane(|sc| {
            sc.keys.advance();
            if sc.comm.rank() == root {
                let len = chunks.first().map_or(0, Vec::len);
                assert!(
                    chunks.iter().all(|c| c.len() == len),
                    "scatter_encrypted requires equal chunk lengths"
                );
                for (r, c) in chunks.iter_mut().enumerate() {
                    collective_pad(&sc.keys, (r * len) as u64, Payload::InPlace(c));
                }
            }
            let mut mine = sc.comm.scatter(root, chunks)?;
            let first = (sc.comm.rank() * mine.len()) as u64;
            collective_pad(&sc.keys, first, Payload::InPlace(&mut mine));
            Ok(mine)
        })
    }
}

/// One-to-one encrypted messaging (§8): a matrix of pairwise keys.
///
/// Each ordered pair `(src, dst)` shares a key derived from a master key
/// during the trusted initialization; every message advances a per-pair
/// sequence number feeding the PRF input, so identical payloads encrypt
/// differently (temporal safety for point-to-point). Per-rank key state is
/// Θ(N) — the cost the paper notes relative to the Θ(1) collectives.
pub struct SecureP2p {
    comm: Communicator,
    /// PRF per peer for sending (keyed k_{me,peer}) and receiving
    /// (keyed k_{peer,me}).
    send_prf: Vec<PrfCipher>,
    recv_prf: Vec<PrfCipher>,
    send_seq: HashMap<usize, u64>,
    recv_seq: HashMap<usize, u64>,
}

impl SecureP2p {
    /// Derive the pairwise matrix from a master key (the trusted
    /// initializer's entropy). All ranks must pass identical
    /// `master`/`backend`.
    pub fn new(comm: Communicator, master: u128, backend: Backend) -> SecureP2p {
        let master_prf = PrfCipher::new(backend, master).expect("backend available");
        let me = comm.rank() as u128;
        let key_for = |src: u128, dst: u128| {
            // k_{src,dst} = F_master(src || dst), a 128-bit pair key.
            master_prf.eval_block((src << 64) | dst)
        };
        let world = comm.world();
        let send_prf = (0..world)
            .map(|p| PrfCipher::new(backend, key_for(me, p as u128)).expect("available"))
            .collect();
        let recv_prf = (0..world)
            .map(|p| PrfCipher::new(backend, key_for(p as u128, me)).expect("available"))
            .collect();
        SecureP2p {
            comm,
            send_prf,
            recv_prf,
            send_seq: HashMap::new(),
            recv_seq: HashMap::new(),
        }
    }

    /// Send a u32 vector to `dst`, XOR-encrypted under the pair key with
    /// the current sequence number.
    pub fn send(&mut self, dst: usize, tag: u64, data: &[u32]) {
        let seq = self.send_seq.entry(dst).or_insert(0);
        let base = (*seq as u128) << 64;
        *seq += 1;
        let mut buf = data.to_vec();
        xor_keystream_into(&self.send_prf[dst], base, 0, &mut buf);
        self.comm.send(dst, tag, buf);
    }

    /// Receive and decrypt a u32 vector from `src`. Messages from one peer
    /// must be received in send order (MPI's non-overtaking rule keeps the
    /// sequence numbers aligned).
    pub fn recv(&mut self, src: usize, tag: u64) -> Vec<u32> {
        let seq = self.recv_seq.entry(src).or_insert(0);
        let base = (*seq as u128) << 64;
        *seq += 1;
        let mut buf = self.comm.recv::<u32>(src, tag);
        xor_keystream_into(&self.recv_prf[src], base, 0, &mut buf);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{TypedSlice, TypedVec};
    use hear_core::{Backend, CommKeys};
    use hear_mpi::Simulator;

    fn secure(comm: &Communicator, seed: u64) -> SecureComm {
        let keys = CommKeys::generate(comm.world(), seed, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        SecureComm::new(comm.clone(), keys)
    }

    #[test]
    fn logical_and_or_end_to_end() {
        let results = Simulator::new(3).run(|comm| {
            let mut sc = secure(comm, 1);
            // Element 0: all true; element 1: mixed; element 2: all false.
            let bits = [true, comm.rank() == 1, false];
            sc.pmpi_allreduce(TypedSlice::Bool(&bits), MpiOp::Land, EngineCfg::sync())
                .unwrap()
        });
        let expect = vec![(true, true), (true, false), (false, false)];
        for r in &results {
            assert_eq!(*r, TypedVec::Logical(expect.clone()));
        }
    }

    #[test]
    fn variance_end_to_end() {
        let results = Simulator::new(2).run(|comm| {
            let mut sc = secure(comm, 2);
            let samples = if comm.rank() == 0 {
                vec![1.0, -1.0]
            } else {
                vec![2.0, -2.0]
            };
            sc.allreduce_variance(&samples).unwrap()
        });
        for (mean, var, n) in &results {
            assert_eq!(*n, 4);
            assert!(mean.abs() < 1e-4);
            assert!((var - 2.5).abs() < 1e-3, "var={var}");
        }
    }

    #[test]
    fn complex_sum_end_to_end() {
        let results = Simulator::new(2).run(|comm| {
            let mut sc = secure(comm, 3);
            let z = [(comm.rank() as f64 + 1.0, -1.5), (0.25, 0.75)];
            sc.allreduce_complex_sum(HfpFormat::fp32(2, 2), &z).unwrap()
        });
        for r in &results {
            assert!((r[0].0 - 3.0).abs() < 1e-4);
            assert!((r[0].1 + 3.0).abs() < 1e-4);
            assert!((r[1].0 - 0.5).abs() < 1e-4);
            assert!((r[1].1 - 1.5).abs() < 1e-4);
        }
    }

    #[test]
    fn reduce_to_each_root() {
        for root in 0..3 {
            let results = Simulator::new(3).run(move |comm| {
                let mut sc = secure(comm, 4);
                sc.reduce_sum_u32(root, &[comm.rank() as u32 + 1, 10])
                    .unwrap()
            });
            for (rank, r) in results.iter().enumerate() {
                if rank == root {
                    assert_eq!(r.as_ref().unwrap(), &vec![6, 30]);
                } else {
                    assert!(r.is_none());
                }
            }
        }
    }

    #[test]
    fn bcast_encrypted_delivers_and_hides() {
        let results = Simulator::new(4).run(|comm| {
            let mut sc = secure(comm, 5);
            let payload = if comm.rank() == 1 {
                vec![0xDEAD_BEEF, 42]
            } else {
                vec![]
            };
            sc.bcast_encrypted(1, payload).unwrap()
        });
        for r in &results {
            assert_eq!(*r, vec![0xDEAD_BEEF, 42]);
        }
    }

    /// The pads of broadcast, gather and scatter fan out across the pool
    /// the call runs on, like the engine's masks, once a buffer clears
    /// `PAR_MIN_BYTES`; the payloads still round-trip.
    #[test]
    fn large_padded_collectives_fan_out_on_the_pool() {
        use hear_prf::{with_pool, WorkerPool, PAR_MIN_BYTES};
        let len = PAR_MIN_BYTES / 4 + 3;
        let payload = |r: usize| -> Vec<u32> { (0..len as u32).map(|j| j ^ r as u32).collect() };
        let results = Simulator::new(2).run(move |comm| {
            let mut sc = secure(comm, 9);
            let pool = WorkerPool::new(2);
            let r = comm.rank();
            let mut jobs = Vec::new();
            with_pool(&pool, || {
                let sent = if r == 0 { payload(0) } else { Vec::new() };
                assert_eq!(sc.bcast_encrypted(0, sent).unwrap(), payload(0));
                jobs.push(pool.jobs());
                let gathered = sc.gather_encrypted(0, payload(r)).unwrap();
                if r == 0 {
                    assert_eq!(gathered, [payload(0), payload(1)]);
                }
                jobs.push(pool.jobs());
                let chunks = if r == 0 {
                    vec![payload(2), payload(3)]
                } else {
                    Vec::new()
                };
                assert_eq!(sc.scatter_encrypted(0, chunks).unwrap(), payload(2 + r));
                jobs.push(pool.jobs());
            });
            jobs
        });
        for (rank, jobs) in results.iter().enumerate() {
            assert!(
                jobs[0] > 0 && jobs[1] > jobs[0] && jobs[2] > jobs[1],
                "rank {rank}: pool jobs after bcast / gather / scatter {jobs:?}"
            );
        }
    }

    #[test]
    fn gather_encrypted_reassembles_at_root() {
        let results = Simulator::new(3).run(|comm| {
            let mut sc = secure(comm, 6);
            sc.gather_encrypted(0, vec![comm.rank() as u32 * 11; 2])
                .unwrap()
        });
        assert_eq!(results[0], vec![vec![0, 0], vec![11, 11], vec![22, 22]]);
    }

    #[test]
    fn gather_encrypted_reassembles_ragged_contributions() {
        // Rank r sends r + 1 words: each rank's pad stride is independent
        // of every length, so the root strips exactly what was applied.
        for root in 0..3 {
            let results = Simulator::new(3).run(move |comm| {
                let mut sc = secure(comm, 7);
                let r = comm.rank() as u32;
                sc.gather_encrypted(root, (0..=r).map(|j| 100 * r + j).collect())
                    .unwrap()
            });
            let expect: Vec<Vec<u32>> = (0..3u32)
                .map(|r| (0..=r).map(|j| 100 * r + j).collect())
                .collect();
            assert_eq!(results[root], expect, "root={root}");
        }
    }

    #[test]
    fn p2p_roundtrip_and_temporal_safety() {
        let results = Simulator::new(2).run(|comm| {
            let mut p2p = SecureP2p::new(comm.clone(), 0x77, Backend::best_available());
            // Θ(N) keys per rank, as §8 notes.
            assert_eq!(p2p.send_prf.len() + p2p.recv_prf.len(), 4);
            if comm.rank() == 0 {
                p2p.send(1, 1, &[7, 7, 7]);
                p2p.send(1, 1, &[7, 7, 7]); // same payload again
                vec![]
            } else {
                let a = p2p.recv(0, 1);
                let b = p2p.recv(0, 1);
                assert_eq!(a, vec![7, 7, 7]);
                assert_eq!(b, vec![7, 7, 7]);
                a
            }
        });
        assert_eq!(results[1], vec![7, 7, 7]);
    }

    #[test]
    fn p2p_wire_is_encrypted_and_differs_per_message() {
        // Observe the raw wire through a plain receiver: same plaintext,
        // two sends → two different ciphertexts, neither equal plaintext.
        let results = Simulator::new(2).run(|comm| {
            if comm.rank() == 0 {
                let mut p2p = SecureP2p::new(comm.clone(), 0x88, Backend::best_available());
                p2p.send(1, 2, &[1234, 5678]);
                p2p.send(1, 2, &[1234, 5678]);
                (vec![], vec![])
            } else {
                let w1 = comm.recv::<u32>(0, 2);
                let w2 = comm.recv::<u32>(0, 2);
                (w1, w2)
            }
        });
        let (w1, w2) = &results[1];
        assert_ne!(*w1, vec![1234, 5678], "wire must not carry plaintext");
        assert_ne!(w1, w2, "p2p temporal safety");
    }

    #[test]
    fn atomic_accumulate() {
        let results = Simulator::new(3).run(|comm| {
            let mut p2p = SecureP2p::new(comm.clone(), 0x99, Backend::best_available());
            if comm.rank() == 0 {
                let mut counter = 100u32;
                for src in [1, 2] {
                    counter = counter.wrapping_add(p2p.recv(src, 3)[0]);
                }
                counter
            } else {
                p2p.send(0, 3, &[comm.rank() as u32 * 10]);
                0
            }
        });
        assert_eq!(results[0], 100 + 10 + 20);
    }
}

#[cfg(test)]
mod scatter_alltoall_tests {
    use super::*;
    use hear_core::CommKeys;
    use hear_mpi::Simulator;

    fn secure(comm: &Communicator, seed: u64) -> SecureComm {
        let keys = CommKeys::generate(comm.world(), seed, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        SecureComm::new(comm.clone(), keys)
    }

    #[test]
    fn scatter_encrypted_delivers() {
        let results = Simulator::new(4).run(|comm| {
            let mut sc = secure(comm, 31);
            let chunks = if comm.rank() == 2 {
                (0..4)
                    .map(|r| vec![r as u32 * 10, r as u32 * 10 + 1])
                    .collect()
            } else {
                Vec::new()
            };
            sc.scatter_encrypted(2, chunks).unwrap()
        });
        for (r, got) in results.iter().enumerate() {
            assert_eq!(*got, vec![r as u32 * 10, r as u32 * 10 + 1]);
        }
    }

    #[test]
    fn alltoall_encrypted_transposes_and_hides() {
        let results = Simulator::new(3).run(|comm| {
            let mut sc = secure(comm, 32);
            let chunks: Vec<u32> = (0..3)
                .flat_map(|dst| [(comm.rank() * 10 + dst) as u32; 2])
                .collect();
            sc.alltoall_with(&mut IntSumScheme::default(), &chunks, EngineCfg::sync())
                .unwrap()
        });
        for (me, got) in results.iter().enumerate() {
            for (src, c) in got.chunks(2).enumerate() {
                assert_eq!(*c, [(src * 10 + me) as u32; 2], "me={me} src={src}");
            }
        }
    }

    #[test]
    fn alltoall_wire_is_not_plaintext() {
        // Two calls in different epochs put different wires on the fabric
        // for the same data; both must decrypt to it.
        let results = Simulator::new(2).run(|comm| {
            let mut sc = secure(comm, 33);
            let mut call = || {
                sc.alltoall_with(&mut IntSumScheme::default(), &[7u32; 4], EngineCfg::sync())
                    .unwrap()
            };
            (call(), call())
        });
        assert_eq!(results[0].0, results[0].1);
        assert_eq!(results[0].0, vec![7; 4]);
    }

    #[test]
    #[should_panic(expected = "equal-length chunk")]
    fn ragged_chunks_rejected() {
        Simulator::new(2).run(|comm| {
            let mut sc = secure(comm, 34);
            let _ = sc.alltoall_with(
                &mut IntSumScheme::default(),
                &[1u32, 2, 3],
                EngineCfg::sync(),
            );
        });
    }
}

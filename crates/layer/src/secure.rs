//! The libhear interposition layer.
//!
//! In the paper, libhear sits between the application and the MPI runtime
//! via PMPI and `LD_PRELOAD`: the application still calls
//! `MPI_Allreduce(..., MPI_INT, MPI_SUM, comm)` and the library encrypts,
//! forwards to the real MPI, and decrypts. [`SecureComm`] is the
//! in-process equivalent: it wraps a [`hear_mpi::Communicator`] and
//! exposes the same Allreduce surface, with the key progression, scheme
//! dispatch and optional HoMAC verification handled transparently. The
//! wrapped communicator — and everything on the other side of it,
//! including the INC switch tree — only ever sees ciphertexts.
//!
//! Its collectives are the generic engine entry points
//! ([`SecureComm::allreduce_with`] and its siblings, see [`crate::engine`])
//! and the runtime-typed front doors over them
//! ([`SecureComm::pmpi_allreduce`], see [`crate::dispatch`]); this module
//! holds the communicator state they share.
//!
//! ## One lane per rank
//!
//! In the paper each rank is its own process and does its own crypto. Here
//! ranks may share a process (the in-memory simulator) or a host (one
//! `hear-launch` process per rank), so each [`SecureComm`] owns a *lane*: a
//! [`WorkerPool`] of `max(1, B / world)` threads, where `B` is the process
//! budget [`WorkerPool::global`] caches (`HEAR_THREADS`, else the core
//! count). Every collective runs its mask and HoMAC fan-out on that lane,
//! so in-process ranks never queue on each other's fork-join jobs and
//! `world` ranks on one host use at most `B` threads between them. At
//! `B / world ≤ 1` the lane is the inline degeneracy: no lock, no worker
//! thread. A caller already inside a [`hear_prf::with_pool`] scope keeps
//! its pool. Pads are pure in `(epoch, offset)`, so the lane's size never
//! changes a ciphertext bit.

use crate::arena::ScratchArena;
use hear_core::{CommKeys, Homac};
use hear_mpi::Communicator;
use hear_prf::WorkerPool;
use std::sync::Arc;

/// Which allreduce algorithm carries the ciphertexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReduceAlgo {
    /// Latency-optimal recursive doubling (small messages).
    #[default]
    RecursiveDoubling,
    /// Bandwidth-optimal ring (large messages).
    Ring,
    /// In-network switch tree (requires a switch-enabled simulator).
    Switch,
}

/// Error returned when HoMAC verification rejects a reduction result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerificationError;

impl std::fmt::Display for VerificationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HoMAC verification failed: the network tampered with the reduction"
        )
    }
}

impl std::error::Error for VerificationError {}

/// A ciphertext/tag pair as transported when verification is enabled
/// (§5.5: "sends to the network a pair of values (σ, c)"). The engine
/// transports the richer [`crate::engine`] packet internally; this type
/// remains the public vocabulary for the raw tagged-word protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tagged<W> {
    pub c: W,
    pub sigma: u64,
}

/// A communicator with transparent HEAR encryption.
pub struct SecureComm {
    pub(crate) comm: Communicator,
    pub(crate) keys: CommKeys,
    pub(crate) homac: Option<Homac>,
    /// Typed staging-buffer recycler threaded through the engine so the
    /// hot path stops allocating after warmup.
    pub(crate) arena: ScratchArena,
    /// Sticky INC→host fallback: set when an epoch lost the switch tree
    /// (`SwitchDown`) and degraded to the ring; later Switch-algo epochs
    /// then route straight to the ring instead of re-probing dead fabric.
    pub(crate) degraded: bool,
    /// Sticky eviction record (original-world rank numbering): like
    /// `degraded`, a shrunk membership never heals — evicted ranks stay
    /// out for the life of the communicator, and per-epoch counters keep
    /// announcing the shrunk world to operators.
    pub(crate) evicted: Vec<usize>,
    /// Current members expressed as original-world ranks (`lineage[r]`
    /// is the launch-time identity of current rank `r`); identity at
    /// construction, remapped by each shrink.
    pub(crate) lineage: Vec<usize>,
    /// Completed membership reconfigurations (0 = never shrunk).
    pub(crate) membership_epoch: u64,
    /// Shrinks not yet collected by the caller.
    pub(crate) membership_changes: Vec<crate::engine::MembershipChange>,
    /// Collective calls entered through the shrink loop; lockstep across
    /// ranks, so membership agreement can tell who stands at which call.
    pub(crate) calls: u64,
    /// Survivor set of a shrink this rank agreed to at the end of a call
    /// it had completed; applied on entry to the next call.
    pub(crate) deferred_shrink: Option<Vec<usize>>,
    /// This rank's fork-join pool, sized to its share of the process
    /// budget (see the module docs); resized when a shrink changes it.
    pub(crate) lane: Arc<WorkerPool>,
}

/// A rank's share of the process thread budget at `world` ranks.
fn lane_threads(world: usize) -> usize {
    (WorkerPool::global().threads() / world).max(1)
}

impl SecureComm {
    pub fn new(comm: Communicator, keys: CommKeys) -> Self {
        assert_eq!(
            comm.world(),
            keys.world(),
            "keys generated for a different communicator"
        );
        assert_eq!(comm.rank(), keys.rank(), "keys belong to a different rank");
        // Make this communicator transport-portable: the TCP backend and
        // the fault injector know only the types in the wire-type table,
        // and the engine's payload types are this crate's to declare.
        crate::wire::register_wire_types();
        let comm_world = comm.world();
        SecureComm {
            comm,
            keys,
            homac: None,
            arena: ScratchArena::new(),
            degraded: false,
            evicted: Vec::new(),
            lineage: (0..comm_world).collect(),
            membership_epoch: 0,
            membership_changes: Vec::new(),
            calls: 0,
            deferred_shrink: None,
            lane: Arc::new(WorkerPool::new(lane_threads(comm_world))),
        }
    }

    /// Resize the lane to this rank's share at the current world, if that
    /// share changed (a shrink left fewer ranks to split the budget).
    pub(crate) fn fit_lane(&mut self) {
        let threads = lane_threads(self.world());
        if self.lane.threads() != threads {
            self.lane = Arc::new(WorkerPool::new(threads));
        }
    }

    /// Run `f` with this rank's lane installed as the thread's masking
    /// pool, unless the caller already installed one with
    /// [`hear_prf::with_pool`]: a pinned pool wins.
    pub(crate) fn on_lane<R>(&mut self, f: impl FnOnce(&mut SecureComm) -> R) -> R {
        if hear_prf::pool_scoped() {
            return f(self);
        }
        let lane = Arc::clone(&self.lane);
        hear_prf::with_pool(&lane, || f(self))
    }

    /// Whether the communicator has fallen back from in-network compute
    /// to a host algorithm after losing the switch tree.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Whether membership ever shrank below the launch-time world.
    pub fn is_shrunk(&self) -> bool {
        !self.evicted.is_empty()
    }

    /// Completed membership reconfigurations since the last call; each
    /// entry reports one shrink (who left, old and new world size).
    pub fn take_membership_changes(&mut self) -> Vec<crate::engine::MembershipChange> {
        std::mem::take(&mut self.membership_changes)
    }

    pub fn with_homac(mut self, homac: Homac) -> Self {
        self.homac = Some(homac);
        self
    }

    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    pub fn world(&self) -> usize {
        self.comm.world()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{TypedSlice, TypedVec};
    use crate::engine::EngineCfg;
    use hear_core::derived::MpiOp;
    use hear_core::{
        FixedCodec, FixedSumScheme, FloatProdScheme, FloatSumExpScheme, FloatSumScheme, HfpFormat,
        IntProdScheme, IntSumScheme, IntXorScheme, Scratch,
    };
    use hear_mpi::{SimConfig, Simulator};
    use hear_prf::Backend;

    /// Build per-rank SecureComms inside a simulator run.
    fn secure(comm: &Communicator, seed: u64) -> SecureComm {
        let keys = CommKeys::generate(comm.world(), seed, Backend::AesSoft)
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        SecureComm::new(comm.clone(), keys)
    }

    #[test]
    fn transparent_sum_matches_plaintext_allreduce() {
        for world in [1usize, 2, 3, 5] {
            let results = Simulator::new(world).run(move |comm| {
                let data: Vec<i32> = (0..10).map(|j| (comm.rank() as i32 - 1) * 7 + j).collect();
                let mut sc = secure(comm, 1);
                let enc = sc
                    .pmpi_allreduce(TypedSlice::I32(&data), MpiOp::Sum, EngineCfg::sync())
                    .unwrap();
                let plain = comm.allreduce(&data, |a, b| a.wrapping_add(*b));
                (enc, TypedVec::I32(plain))
            });
            for (enc, plain) in &results {
                assert_eq!(enc, plain, "world={world}");
            }
        }
    }

    #[test]
    fn all_int_ops_roundtrip() {
        let results = Simulator::new(3).run(|comm| {
            let mut sc = secure(comm, 2);
            let r = comm.rank() as u32 + 1;
            let cfg = EngineCfg::sync();
            let sum = sc.allreduce_with(&mut IntSumScheme::default(), &[r, 100 * r], cfg);
            let prod = sc.allreduce_with(&mut IntProdScheme::default(), &[r as u64 + 1], cfg);
            let xor = sc.allreduce_with(&mut IntXorScheme::default(), &[r * 5], cfg);
            (sum.unwrap(), prod.unwrap(), xor.unwrap())
        });
        for (sum, prod, xor) in &results {
            assert_eq!(*sum, vec![6, 600]);
            assert_eq!(*prod, vec![2 * 3 * 4]);
            assert_eq!(*xor, vec![5 ^ 10 ^ 15]);
        }
    }

    #[test]
    fn ring_and_switch_algorithms_agree() {
        let results = Simulator::with_config(4, SimConfig::default().with_switch(4)).run(|comm| {
            let data: Vec<u32> = (0..50).map(|j| comm.rank() as u32 * 1000 + j).collect();
            let run = |algo| {
                secure(comm, 3)
                    .allreduce_with(
                        &mut IntSumScheme::default(),
                        &data,
                        EngineCfg::sync().with_algo(algo),
                    )
                    .unwrap()
            };
            let rd = run(ReduceAlgo::RecursiveDoubling);
            (rd, run(ReduceAlgo::Ring), run(ReduceAlgo::Switch))
        });
        for (rd, ring, inc) in &results {
            assert_eq!(rd, ring);
            assert_eq!(rd, inc);
        }
    }

    #[test]
    fn float_sum_over_the_network() {
        let results = Simulator::new(4).run(|comm| {
            let data: Vec<f64> = (0..8)
                .map(|j| (comm.rank() + 1) as f64 * 0.5 + j as f64)
                .collect();
            let mut s = FloatSumScheme::new(HfpFormat::fp32(2, 2));
            secure(comm, 4)
                .allreduce_with(&mut s, &data, EngineCfg::sync())
                .unwrap()
        });
        for got in &results {
            for (j, v) in got.iter().enumerate() {
                let expect = (1..=4).map(|r| r as f64 * 0.5 + j as f64).sum::<f64>();
                assert!((v - expect).abs() / expect < 1e-5, "j={j} {v} vs {expect}");
            }
        }
    }

    #[test]
    fn f32_api_and_float_prod() {
        let results = Simulator::new(2).run(|comm| {
            let mut sc = secure(comm, 5);
            let s = sc.pmpi_allreduce(TypedSlice::F32(&[1.5, -2.0]), MpiOp::Sum, EngineCfg::sync());
            let mut prod = FloatProdScheme::new(HfpFormat::fp32(0, 0));
            let p = sc.allreduce_with(&mut prod, &[2.0, 3.0], EngineCfg::sync());
            (s.unwrap(), p.unwrap())
        });
        for (s, p) in &results {
            let TypedVec::F32(s) = s else {
                panic!("wrong type: {s:?}")
            };
            assert!((s[0] - 3.0).abs() < 1e-4);
            assert!((s[1] + 4.0).abs() < 1e-4);
            assert!((p[0] - 4.0).abs() < 1e-4);
            assert!((p[1] - 9.0).abs() < 1e-4);
        }
    }

    #[test]
    fn float_sum_v2_small_values() {
        let results = Simulator::new(3).run(|comm| {
            let mut s = FloatSumExpScheme::new(HfpFormat::fp64(0, 0));
            secure(comm, 6)
                .allreduce_with(&mut s, &[0.25, -0.1], EngineCfg::sync())
                .unwrap()
        });
        for got in &results {
            assert!((got[0] - 0.75).abs() < 1e-8);
            assert!((got[1] + 0.3).abs() < 1e-8);
        }
    }

    #[test]
    fn fixed_point_ops() {
        let results = Simulator::new(2).run(|comm| {
            let mut sc = secure(comm, 7);
            let codec = FixedCodec::new(16);
            let mut s = FixedSumScheme::new(codec);
            let sum = sc.allreduce_with(&mut s, &[1.25, -0.5], EngineCfg::sync());
            (
                sum.unwrap(),
                sc.allreduce_fixed_prod(codec, &[1.5]).unwrap(),
            )
        });
        for (s, p) in &results {
            assert!((s[0] - 2.5).abs() < 1e-4);
            assert!((s[1] + 1.0).abs() < 1e-4);
            assert!((p[0] - 2.25).abs() < 1e-4);
        }
    }

    #[test]
    fn verified_sum_accepts_honest_network() {
        let results = Simulator::new(3).run(|comm| {
            let homac = Homac::generate(11, Backend::AesSoft);
            let mut sc = secure(comm, 8).with_homac(homac);
            let data = [comm.rank() as u32 + 1, 7];
            let cfg = EngineCfg::sync().verified();
            sc.allreduce_with(&mut IntSumScheme::default(), &data, cfg)
        });
        for r in &results {
            assert_eq!(r.as_ref().unwrap(), &vec![6, 21]);
        }
    }

    #[test]
    fn verified_sum_rejects_tampering_switch() {
        // A malicious in-network reducer that flips a bit in the data
        // channel: HoMAC must catch it end-to-end.
        let results = Simulator::new(2).run(|comm| {
            let homac = Homac::generate(12, Backend::AesSoft);
            let keys = CommKeys::generate(2, 9, Backend::AesSoft)
                .into_iter()
                .nth(comm.rank())
                .unwrap();
            let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac.clone());
            // Tamper by post-processing what an evil switch would emit: we
            // simulate it by corrupting the aggregated pair on one rank
            // before verification — through the public API this means the
            // transport was dishonest. Here: run the honest path but then
            // check that a corrupted aggregate fails `verify`.
            sc.keys.advance();
            let mut buf = vec![41u32, 2];
            hear_core::IntSum::encrypt_in_place(&sc.keys, 0, &mut buf, &mut Scratch::default());
            let tags = homac.tag(&sc.keys, 0, &buf);
            let mut agg = comm.allreduce(&buf, |a, b| a.wrapping_add(*b));
            let sigma = comm.allreduce(&tags, |a, b| Homac::combine(*a, *b));
            assert!(homac.verify(&sc.keys, 0, &agg, &sigma));
            agg[0] = agg[0].wrapping_add(3); // the attack
            assert!(!homac.verify(&sc.keys, 0, &agg, &sigma));
            true
        });
        assert!(results.iter().all(|r| *r));
    }

    #[test]
    #[should_panic(expected = "different rank")]
    fn mismatched_keys_rejected() {
        Simulator::new(2).run(|comm| {
            if comm.rank() == 0 {
                // Deliberately take rank 1's keys on rank 0.
                let keys = CommKeys::generate(2, 1, Backend::AesSoft).pop().unwrap();
                let _ = SecureComm::new(comm.clone(), keys);
            } else {
                // Panic the other rank too so the scope unwinds cleanly.
                panic!("keys belong to a different rank (peer)");
            }
        });
    }
}

#[cfg(test)]
mod narrow_lane_tests {
    use super::*;
    use crate::engine::EngineCfg;
    use hear_core::{IntSumScheme, IntXorScheme};
    use hear_mpi::Simulator;
    use hear_prf::Backend;

    #[test]
    fn u16_and_u8_reductions() {
        let results = Simulator::new(3).run(|comm| {
            let keys = CommKeys::generate(3, 77, Backend::best_available())
                .into_iter()
                .nth(comm.rank())
                .unwrap();
            let mut sc = SecureComm::new(comm.clone(), keys);
            let cfg = EngineCfg::sync();
            let s16 = sc.allreduce_with(&mut IntSumScheme::default(), &[1000u16, u16::MAX], cfg);
            let s8 = sc.allreduce_with(&mut IntSumScheme::default(), &[50u8, 200], cfg);
            let x16 = sc.allreduce_with(&mut IntXorScheme::default(), &[0xA5A5u16], cfg);
            (s16.unwrap(), s8.unwrap(), x16.unwrap())
        });
        for (s16, s8, x16) in &results {
            assert_eq!(*s16, vec![3000, u16::MAX.wrapping_mul(3)]);
            assert_eq!(*s8, vec![150, 200u8.wrapping_mul(3)]);
            assert_eq!(*x16, vec![0xA5A5]); // odd count
        }
    }
}

#[cfg(test)]
mod lane_tests {
    use super::*;
    use crate::engine::{EngineCfg, PeerDeadPolicy, RetryPolicy};
    use hear_core::IntSumScheme;
    use hear_mpi::{FaultPlan, SimConfig, Simulator};
    use hear_prf::{with_pool, Backend, PAR_MIN_BYTES};
    use std::time::Duration;

    /// Odd `u32` count past [`PAR_MIN_BYTES`]: the mask passes and the
    /// HoMAC fan-out both shard on any pool of two or more threads.
    const LEN: usize = PAR_MIN_BYTES / 4 + 13;

    fn budget() -> usize {
        WorkerPool::global().threads()
    }

    fn secure(comm: &Communicator, world: usize) -> SecureComm {
        let keys = CommKeys::generate(world, 0x1A2E, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let homac = Homac::generate(0x1A2F, Backend::best_available());
        SecureComm::new(comm.clone(), keys).with_homac(homac)
    }

    fn data(rank: usize) -> Vec<u32> {
        (0..LEN as u32).map(|j| j ^ rank as u32).collect()
    }

    fn verified_ring() -> EngineCfg {
        EngineCfg::sync()
            .with_algo(crate::secure::ReduceAlgo::Ring)
            .verified()
    }

    /// A lone rank gets the whole budget, and its fan-out runs on it.
    #[test]
    fn world_one_gets_the_whole_budget() {
        let seen = Simulator::new(1).run(|comm| {
            let mut sc = secure(comm, 1);
            let got = sc.allreduce_with(&mut IntSumScheme::default(), &data(0), EngineCfg::sync());
            assert_eq!(got.unwrap(), data(0));
            (sc.lane.threads(), sc.lane.jobs())
        });
        let (threads, jobs) = seen[0];
        assert_eq!(threads, budget());
        assert_eq!(
            jobs > 0,
            budget() > 1,
            "{jobs} jobs on a {threads}-thread lane"
        );
    }

    /// At `world ≥ B` every rank's lane is the inline degeneracy: a
    /// verified ring allreduce past both fan-out thresholds runs without a
    /// fork-join job on any lane, so no lane spawns a `hear-worker-*`
    /// thread.
    #[test]
    fn world_at_or_past_the_budget_runs_inline() {
        let world = budget().max(2);
        let seen = Simulator::new(world).run(move |comm| {
            let mut sc = secure(comm, world);
            let mut s = IntSumScheme::<u32>::default();
            let got = sc.allreduce_with(&mut s, &data(comm.rank()), verified_ring());
            assert_eq!(got.unwrap().len(), LEN);
            (sc.lane.threads(), sc.lane.jobs())
        });
        for (rank, lane) in seen.iter().enumerate() {
            assert_eq!(*lane, (1, 0), "rank {rank} of {world}");
        }
    }

    /// A shrink from 2 to 1 hands the survivor the whole budget. (On a
    /// one-thread budget both shares are 1 and nothing is resized.)
    #[test]
    fn a_shrink_resizes_the_lane() {
        let plan = FaultPlan::seeded(3).kill_endpoint_after(1, 0);
        let sim = Simulator::with_config(2, SimConfig::default().with_faults(plan));
        let seen = sim.run(|comm| {
            if comm.rank() == 1 {
                return None;
            }
            let mut sc = secure(comm, 2);
            let before = sc.lane.threads();
            let policy = RetryPolicy::retries(0)
                .with_attempt_timeout(Duration::from_secs(2))
                .on_peer_dead(PeerDeadPolicy::ShrinkAndContinue);
            let cfg = verified_ring().with_retry(policy);
            let got = sc.allreduce_with(&mut IntSumScheme::default(), &data(0), cfg);
            assert_eq!(got.unwrap(), data(0), "the survivor's own contribution");
            assert_eq!(sc.world(), 1);
            Some((before, sc.lane.threads()))
        });
        assert_eq!(seen[0], Some(((budget() / 2).max(1), budget())));
    }

    /// A pool the caller pinned with `with_pool` carries the call; the lane
    /// stays idle.
    #[test]
    fn a_pinned_pool_wins_over_the_lane() {
        let seen = Simulator::new(1).run(|comm| {
            let pinned = WorkerPool::new(4);
            let mut sc = secure(comm, 1);
            with_pool(&pinned, || {
                let mut s = IntSumScheme::<u32>::default();
                sc.allreduce_with(&mut s, &data(0), EngineCfg::sync())
                    .unwrap()
            });
            (pinned.jobs(), sc.lane.jobs())
        });
        let (pinned, lane) = seen[0];
        assert!(pinned > 0, "the pinned 4-thread pool never fanned out");
        assert_eq!(lane, 0);
    }
}

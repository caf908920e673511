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
//! Every method here is a thin shim over the one generic engine,
//! [`SecureComm::allreduce_with`] (see [`crate::engine`]); the lint gate
//! below keeps it that way.
#![deny(clippy::too_many_lines)]

use crate::arena::ScratchArena;
use crate::engine::{EngineCfg, EngineError};
use crate::prefetch::Prefetcher;
use hear_core::{
    CommKeys, FixedCodec, FixedSumScheme, FloatProdScheme, FloatSumExpScheme, FloatSumScheme,
    HfpFormat, Homac, IntProdScheme, IntSumScheme, IntXorScheme, KeystreamCache, Scratch,
};
use hear_mpi::Communicator;
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
    /// Two-level hierarchy: groups of `group` consecutive ranks reduce to
    /// a leader, the leaders run a ring, leaders broadcast back. Matches
    /// the flat ring bit-for-bit (all HEAR combines are exactly
    /// associative-commutative) while concentrating inter-node traffic on
    /// one rank per node.
    Hierarchical {
        /// Ranks per leader group (clamped to `1..=world` at call time).
        group: usize,
    },
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
    pub(crate) algo: ReduceAlgo,
    /// Typed staging-buffer recycler threaded through the engine so the
    /// hot path stops allocating after warmup.
    pub(crate) arena: ScratchArena,
    /// Keystream prefetch worker (`None` disables overlap; masking then
    /// always generates inline).
    pub(crate) prefetch: Option<Prefetcher>,
    pub(crate) scratch_u32: Scratch<u32>,
    pub(crate) scratch_u64: Scratch<u64>,
    pub(crate) scratch_u16: Scratch<u16>,
    pub(crate) scratch_u8: Scratch<u8>,
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
}

impl SecureComm {
    pub fn new(comm: Communicator, mut keys: CommKeys) -> Self {
        assert_eq!(
            comm.world(),
            keys.world(),
            "keys generated for a different communicator"
        );
        assert_eq!(comm.rank(), keys.rank(), "keys belong to a different rank");
        // Prefetch is on by default: the schemes consult the shared cache
        // before generating noise inline, and the engine plans the next
        // epoch's streams for the worker each call.
        // Make this communicator transport-portable: the TCP backend can
        // only ship types its codec registry knows, and the engine's
        // packet payloads are private to this crate.
        crate::wire::register_wire_codecs();
        let comm_world = comm.world();
        let cache = KeystreamCache::new();
        keys.attach_cache(Arc::clone(&cache));
        let prefetch = Some(Prefetcher::new(keys.prf().clone(), cache));
        SecureComm {
            comm,
            keys,
            homac: None,
            algo: ReduceAlgo::default(),
            arena: ScratchArena::new(),
            prefetch,
            scratch_u32: Scratch::default(),
            scratch_u64: Scratch::default(),
            scratch_u16: Scratch::default(),
            scratch_u8: Scratch::default(),
            degraded: false,
            evicted: Vec::new(),
            lineage: (0..comm_world).collect(),
            membership_epoch: 0,
            membership_changes: Vec::new(),
            calls: 0,
            deferred_shrink: None,
        }
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

    /// Ranks evicted so far, in original-world numbering.
    pub fn evicted(&self) -> &[usize] {
        &self.evicted
    }

    /// Completed membership reconfigurations since the last call; each
    /// entry reports one shrink (who left, old and new world size).
    pub fn take_membership_changes(&mut self) -> Vec<crate::engine::MembershipChange> {
        std::mem::take(&mut self.membership_changes)
    }

    pub fn with_algo(mut self, algo: ReduceAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Disable the keystream prefetch worker (e.g. for A/B benchmarks);
    /// every mask/unmask then generates its keystream inline through the
    /// fused kernels.
    pub fn without_prefetch(mut self) -> Self {
        self.prefetch = None;
        self
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

    /// Access to the underlying (untrusted-side) communicator for
    /// non-reduction traffic, which HEAR leaves to other mechanisms.
    pub fn raw(&self) -> &Communicator {
        &self.comm
    }

    // ---- integer ops -----------------------------------------------------
    //
    // Each shim lends its lane width's persistent keystream scratch to the
    // scheme for the duration of the engine call, so the hot path never
    // allocates noise buffers.

    /// `MPI_Allreduce(MPI_UINT32_T, MPI_SUM)` — shim over
    /// [`SecureComm::allreduce_with`] / [`SecureComm::pmpi_allreduce`].
    pub fn allreduce_sum_u32(&mut self, data: &[u32]) -> Vec<u32> {
        let mut s = IntSumScheme::with_scratch(std::mem::take(&mut self.scratch_u32));
        let out = self.allreduce_with(&mut s, data, EngineCfg::sync());
        self.scratch_u32 = s.into_scratch();
        out.expect("integer schemes are infallible")
    }

    /// `MPI_Allreduce(MPI_UINT64_T, MPI_SUM)` — shim over
    /// [`SecureComm::allreduce_with`].
    pub fn allreduce_sum_u64(&mut self, data: &[u64]) -> Vec<u64> {
        let mut s = IntSumScheme::with_scratch(std::mem::take(&mut self.scratch_u64));
        let out = self.allreduce_with(&mut s, data, EngineCfg::sync());
        self.scratch_u64 = s.into_scratch();
        out.expect("integer schemes are infallible")
    }

    /// `MPI_Allreduce(MPI_INT, MPI_SUM)` — the paper's headline datatype;
    /// shim over [`SecureComm::allreduce_with`] via the u32 lane view.
    pub fn allreduce_sum_i32(&mut self, data: &[i32]) -> Vec<i32> {
        let lanes = hear_core::word::as_unsigned_i32(data);
        self.allreduce_sum_u32(lanes)
            .into_iter()
            .map(|v| v as i32)
            .collect()
    }

    /// `MPI_Allreduce(MPI_INT64_T, MPI_SUM)` — shim over
    /// [`SecureComm::allreduce_with`] via the u64 lane view.
    pub fn allreduce_sum_i64(&mut self, data: &[i64]) -> Vec<i64> {
        let lanes = hear_core::word::as_unsigned_i64(data);
        self.allreduce_sum_u64(lanes)
            .into_iter()
            .map(|v| v as i64)
            .collect()
    }

    /// `MPI_Allreduce(MPI_UINT32_T, MPI_PROD)` — shim over
    /// [`SecureComm::allreduce_with`].
    pub fn allreduce_prod_u32(&mut self, data: &[u32]) -> Vec<u32> {
        let mut s = IntProdScheme::with_scratch(std::mem::take(&mut self.scratch_u32));
        let out = self.allreduce_with(&mut s, data, EngineCfg::sync());
        self.scratch_u32 = s.into_scratch();
        out.expect("integer schemes are infallible")
    }

    /// `MPI_Allreduce(MPI_UINT64_T, MPI_PROD)` — shim over
    /// [`SecureComm::allreduce_with`].
    pub fn allreduce_prod_u64(&mut self, data: &[u64]) -> Vec<u64> {
        let mut s = IntProdScheme::with_scratch(std::mem::take(&mut self.scratch_u64));
        let out = self.allreduce_with(&mut s, data, EngineCfg::sync());
        self.scratch_u64 = s.into_scratch();
        out.expect("integer schemes are infallible")
    }

    /// `MPI_Allreduce(MPI_UINT32_T, MPI_BXOR)` (also MPI_LXOR on 0/1
    /// data) — shim over [`SecureComm::allreduce_with`].
    pub fn allreduce_xor_u32(&mut self, data: &[u32]) -> Vec<u32> {
        let mut s = IntXorScheme::with_scratch(std::mem::take(&mut self.scratch_u32));
        let out = self.allreduce_with(&mut s, data, EngineCfg::sync());
        self.scratch_u32 = s.into_scratch();
        out.expect("integer schemes are infallible")
    }

    /// `MPI_Allreduce(MPI_UINT64_T, MPI_BXOR)` — shim over
    /// [`SecureComm::allreduce_with`].
    pub fn allreduce_xor_u64(&mut self, data: &[u64]) -> Vec<u64> {
        let mut s = IntXorScheme::with_scratch(std::mem::take(&mut self.scratch_u64));
        let out = self.allreduce_with(&mut s, data, EngineCfg::sync());
        self.scratch_u64 = s.into_scratch();
        out.expect("integer schemes are infallible")
    }

    /// `MPI_Allreduce(MPI_UINT16_T, MPI_SUM)` (also MPI_SHORT via cast) —
    /// shim over [`SecureComm::allreduce_with`].
    pub fn allreduce_sum_u16(&mut self, data: &[u16]) -> Vec<u16> {
        let mut s = IntSumScheme::with_scratch(std::mem::take(&mut self.scratch_u16));
        let out = self.allreduce_with(&mut s, data, EngineCfg::sync());
        self.scratch_u16 = s.into_scratch();
        out.expect("integer schemes are infallible")
    }

    /// `MPI_Allreduce(MPI_BYTE/MPI_UINT8_T, MPI_SUM)` — shim over
    /// [`SecureComm::allreduce_with`].
    pub fn allreduce_sum_u8(&mut self, data: &[u8]) -> Vec<u8> {
        let mut s = IntSumScheme::with_scratch(std::mem::take(&mut self.scratch_u8));
        let out = self.allreduce_with(&mut s, data, EngineCfg::sync());
        self.scratch_u8 = s.into_scratch();
        out.expect("integer schemes are infallible")
    }

    /// `MPI_Allreduce(MPI_UINT16_T, MPI_BXOR)` — shim over
    /// [`SecureComm::allreduce_with`].
    pub fn allreduce_xor_u16(&mut self, data: &[u16]) -> Vec<u16> {
        let mut s = IntXorScheme::with_scratch(std::mem::take(&mut self.scratch_u16));
        let out = self.allreduce_with(&mut s, data, EngineCfg::sync());
        self.scratch_u16 = s.into_scratch();
        out.expect("integer schemes are infallible")
    }

    // ---- fixed point (§5.2) ----------------------------------------------

    /// Fixed-point sum: encode with `codec`, run the integer SUM scheme —
    /// shim over [`SecureComm::allreduce_with`].
    pub fn allreduce_fixed_sum(&mut self, codec: FixedCodec, data: &[f64]) -> Vec<f64> {
        let mut s = FixedSumScheme::with_scratch(codec, std::mem::take(&mut self.scratch_u64));
        let out = self.allreduce_with(&mut s, data, EngineCfg::sync());
        self.scratch_u64 = s.into_scratch();
        out.expect("fixed-point sum is infallible")
    }

    /// Fixed-point product: the output scale compounds with the world
    /// size, so this stays composed over
    /// [`SecureComm::allreduce_prod_u64`] (itself an engine shim).
    pub fn allreduce_fixed_prod(&mut self, codec: FixedCodec, data: &[f64]) -> Vec<f64> {
        let mut lanes = Vec::new();
        codec.encode_slice(data, &mut lanes);
        let agg = self.allreduce_prod_u64(&lanes);
        agg.iter()
            .map(|l| codec.decode_prod(*l, self.world()))
            .collect()
    }

    // ---- floats (§5.3) ---------------------------------------------------

    /// `MPI_Allreduce(MPI_FLOAT/MPI_DOUBLE, MPI_SUM)` via HFP (Eq. 7) —
    /// shim over [`SecureComm::allreduce_with`].
    pub fn allreduce_float_sum(
        &mut self,
        fmt: HfpFormat,
        data: &[f64],
    ) -> Result<Vec<f64>, hear_core::HfpError> {
        self.allreduce_with(&mut FloatSumScheme::new(fmt), data, EngineCfg::sync())
            .map_err(EngineError::into_hfp)
    }

    /// `MPI_Allreduce(MPI_FLOAT, MPI_SUM)` on f32 data (FP32 layout) —
    /// shim over [`SecureComm::allreduce_float_sum`].
    pub fn allreduce_f32_sum(
        &mut self,
        gamma: u32,
        data: &[f32],
    ) -> Result<Vec<f32>, hear_core::HfpError> {
        let wide: Vec<f64> = data.iter().map(|v| *v as f64).collect();
        let out = self.allreduce_float_sum(HfpFormat::fp32(2, gamma), &wide)?;
        Ok(out.into_iter().map(|v| v as f32).collect())
    }

    /// `MPI_Allreduce(MPI_DOUBLE, MPI_PROD)` via HFP (Eq. 6) — shim over
    /// [`SecureComm::allreduce_with`].
    pub fn allreduce_float_prod(
        &mut self,
        fmt: HfpFormat,
        data: &[f64],
    ) -> Result<Vec<f64>, hear_core::HfpError> {
        self.allreduce_with(&mut FloatProdScheme::new(fmt), data, EngineCfg::sync())
            .map_err(EngineError::into_hfp)
    }

    /// Alternative float sum (§5.3.4): global safety, reduced range —
    /// shim over [`SecureComm::allreduce_with`].
    pub fn allreduce_float_sum_v2(
        &mut self,
        fmt: HfpFormat,
        data: &[f64],
    ) -> Result<Vec<f64>, hear_core::HfpError> {
        self.allreduce_with(&mut FloatSumExpScheme::new(fmt), data, EngineCfg::sync())
            .map_err(EngineError::into_hfp)
    }

    // ---- verified reductions (§5.5) ---------------------------------------

    /// Integer sum with HoMAC result verification: the network carries
    /// authenticated packets and the result is rejected if the aggregate
    /// fails authentication. Shim over [`SecureComm::allreduce_with`]
    /// with [`EngineCfg::verified`].
    pub fn allreduce_sum_u32_verified(
        &mut self,
        data: &[u32],
    ) -> Result<Vec<u32>, VerificationError> {
        let mut s = IntSumScheme::with_scratch(std::mem::take(&mut self.scratch_u32));
        let out = self.allreduce_with(&mut s, data, EngineCfg::sync().verified());
        self.scratch_u32 = s.into_scratch();
        out.map_err(|e| match e {
            EngineError::Verification(v) => v,
            EngineError::Hfp(_) => unreachable!("integer schemes are infallible"),
            EngineError::Comm(c) => panic!("allreduce transport failed: {c}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                let enc = sc.allreduce_sum_i32(&data);
                let plain = comm.allreduce(&data, |a, b| a.wrapping_add(*b));
                (enc, plain)
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
            let sum = sc.allreduce_sum_u32(&[r, 100 * r]);
            let prod = sc.allreduce_prod_u64(&[r as u64 + 1]);
            let xor = sc.allreduce_xor_u32(&[r * 5]);
            (sum, prod, xor)
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
            let rd = secure(comm, 3).allreduce_sum_u32(&data);
            let ring = secure(comm, 3)
                .with_algo(ReduceAlgo::Ring)
                .allreduce_sum_u32(&data);
            let inc = secure(comm, 3)
                .with_algo(ReduceAlgo::Switch)
                .allreduce_sum_u32(&data);
            (rd, ring, inc)
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
            secure(comm, 4)
                .allreduce_float_sum(HfpFormat::fp32(2, 2), &data)
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
            let s = sc.allreduce_f32_sum(2, &[1.5f32, -2.0]).unwrap();
            let p = sc
                .allreduce_float_prod(HfpFormat::fp32(0, 0), &[2.0, 3.0])
                .unwrap();
            (s, p)
        });
        for (s, p) in &results {
            assert!((s[0] - 3.0).abs() < 1e-4);
            assert!((s[1] + 4.0).abs() < 1e-4);
            assert!((p[0] - 4.0).abs() < 1e-4);
            assert!((p[1] - 9.0).abs() < 1e-4);
        }
    }

    #[test]
    fn float_sum_v2_small_values() {
        let results = Simulator::new(3).run(|comm| {
            secure(comm, 6)
                .allreduce_float_sum_v2(HfpFormat::fp64(0, 0), &[0.25, -0.1])
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
            let s = sc.allreduce_fixed_sum(codec, &[1.25, -0.5]);
            let p = sc.allreduce_fixed_prod(codec, &[1.5]);
            (s, p)
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
            sc.allreduce_sum_u32_verified(&[comm.rank() as u32 + 1, 7])
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
            hear_core::IntSum::encrypt_in_place(&sc.keys, 0, &mut buf, &mut sc.scratch_u32);
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
            let s16 = sc.allreduce_sum_u16(&[1000, u16::MAX]);
            let s8 = sc.allreduce_sum_u8(&[50, 200]);
            let x16 = sc.allreduce_xor_u16(&[0xA5A5]);
            (s16, s8, x16)
        });
        for (s16, s8, x16) in &results {
            assert_eq!(*s16, vec![3000, u16::MAX.wrapping_mul(3)]);
            assert_eq!(*s8, vec![150, 200u8.wrapping_mul(3)]);
            assert_eq!(*x16, vec![0xA5A5]); // odd count
        }
    }
}

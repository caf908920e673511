//! The single collective engine.
//!
//! Every public collective on [`SecureComm`] is a thin shim over one of
//! the engine's generic entry points, which compose four orthogonal
//! choices:
//!
//! * **cipher** — any [`Scheme`](hear_core::Scheme) (Table 2's six rows
//!   plus fixed point),
//! * **algorithm** — [`ReduceAlgo`]: recursive doubling, ring, or the
//!   in-network switch tree (allreduce only; the factored phases are
//!   ring-native),
//! * **chunking** — [`ChunkMode`]: one synchronous block, strictly
//!   sequential blocks, or the depth-2 pipeline of paper §6 / Fig. 6,
//! * **integrity** — optional HoMAC verification (§5.5), uniform across
//!   all schemes.
//!
//! ## The collective set
//!
//! * [`SecureComm::allreduce_with`] — the paper's headline operation; on
//!   [`ReduceAlgo::Ring`] it is *exactly* the composition of the two
//!   phases below (one shared hop loop in `hear_mpi` drives all three).
//! * [`SecureComm::reduce_scatter_with`] — the ring's first phase alone:
//!   each rank ends with its fully reduced chunk. Same masking, same
//!   homomorphic combine, same verified packets as allreduce.
//! * [`SecureComm::allgather_with`] — the ring's second phase alone,
//!   with a *thinner* packet shape: single-origin data is never combined
//!   by the network, so elements travel as lossless `u64` cells
//!   ([`hear_core::Scheme::cell_encode`]) XOR-padded on the epoch's
//!   collective keystream, optionally carrying shared-stream HoMAC tags.
//! * [`SecureComm::alltoall_with`] — personalized exchange on the same
//!   cell transport, one disjoint pad slice per directed pair.
//!
//! ## Steady-state memory behavior
//!
//! Every staging vector the engine needs — wire ciphertexts, digest
//! lanes, HoMAC tags, verified packets and their decrypted blocks, ring
//! segments, pads and cells — is leased from the per-communicator
//! [`ScratchArena`] and returned after the call, and the aggregate buffer
//! coming back from the transport is recycled as the next block's wire
//! buffer. Combined with the callee-provided output of the `*_into`
//! variants, the integer hot paths perform **zero heap allocation** after
//! warmup.
//!
//! The plain reductions touch each payload byte once per phase: a block is
//! masked out of place from the caller's input into the wire buffer (all
//! noise streams folded in one pass), and its aggregate is unmasked
//! straight onto the end of the caller's `out` as blocks drain in order —
//! there is no pre-filled output and no decrypted staging copy. The
//! verified reductions keep one (`VerifyScratch::dec`), because a block
//! may reach `out` only after its digest check. On `Err`, `out` is empty.
//!
//! ## Keystream prefetch
//!
//! Right after the per-call key advance, the reduction entry points plan
//! the *next* epoch's noise streams
//! ([`hear_core::CommKeys::peek_next_epoch`] makes the target epoch
//! visible without advancing) and hand the plan to the
//! [`crate::prefetch::Prefetcher`] worker, which generates the PRF blocks
//! during this call's communication phase. The integer schemes then mask
//! the next call from cache; any misprediction (different length, scheme
//! width, or an extra advance) is a plain cache miss and regenerates
//! inline. Streams are planned only for schemes with a fixed noise lane
//! width ([`hear_core::Scheme::noise_width`]); the verified path's digest
//! streams and the cell transport's collective pads are deliberately left
//! to inline generation.
//!
//! ## Verified transport
//!
//! Verification must work for wire formats (like [`hear_core::Hfp`])
//! whose reduction is not a ring addition, so it does not tag the payload
//! cipher directly. Instead each element carries a *digest*: up to four
//! `u64` summation lanes of the plaintext (defined per scheme, exact for
//! integer and fixed-point data, quantized within the Table 2 lossiness
//! for floats). The lanes are encrypted under the lossless
//! [`hear_core::IntSum`] cipher at PRF indices offset by
//! [`hear_core::DIGEST_BASE`] — disjoint from every payload index — then
//! HoMAC-tagged. The network reduces `(c, d, σ)` packets component-wise;
//! on receipt the engine verifies the tags (any tampering with `d` or `σ`
//! is caught by the MAC), decrypts the lane sums, and checks the
//! decrypted payload against them (any tampering with `c` is caught by
//! the digest). The single-origin collectives use the lighter
//! [`Tagged`](crate::secure::Tagged) shape instead: a shared-stream MAC
//! over each padded cell, verifiable by every rank. Zero-length inputs
//! and single-rank communicators short-circuit uniformly before any
//! transport.

mod allreduce;
mod alltoall;
mod cfg;
mod membership;
mod packet;
mod phases;
mod retry;

pub use cfg::{ChunkMode, EngineCfg, EngineError, PeerDeadPolicy, RetryPolicy};
pub use membership::MembershipChange;
pub(crate) use packet::{for_each_packet_shape, Packet, SchemePacket};

use crate::prefetch::{PrefetchJob, MAX_PREFETCH_BLOCKS, MAX_STREAMS};
use crate::secure::{ReduceAlgo, SecureComm};
use hear_core::{Homac, Scheme, StreamPlan};
use hear_mpi::{CommError, Request};
use std::time::Instant;

/// Two blocks in flight overlap encrypt(n+1) and decrypt(n−1) with the
/// reduction of block n.
pub(crate) const DEPTH: usize = 2;

impl SecureComm {
    /// Record the INC→host fallback: the rest of this epoch (and every
    /// later one) runs on the ring, and the degradation is counted once
    /// per affected epoch.
    fn note_degraded(&mut self) {
        self.degraded = true;
        hear_telemetry::incr(hear_telemetry::Metric::DegradedEpochs);
    }

    /// What every verified reduction of scheme `S` starts with: the world
    /// must be one its digest is sound for, its packet shape needs a TCP
    /// codec (bound on first use, so a program pays only for the shapes it
    /// ships), and the communicator must carry HoMAC state.
    fn verified_homac<S: Scheme + 'static>(&self) -> Homac {
        assert!(
            self.world() <= S::MAX_VERIFIED_WORLD,
            "{} digest verification is sound only up to {} ranks",
            S::NAME,
            S::MAX_VERIFIED_WORLD
        );
        crate::wire::ensure_packet_codec::<S>();
        self.homac
            .clone()
            .expect("enable verification with with_homac()")
    }

    /// Plan the next epoch's noise streams for the prefetch worker. The
    /// plan predicts that the next call reuses this call's scheme lane
    /// width, element count and engine block length (`block` elements per
    /// mask) — a misprediction is a cache miss, never an error. Schemes
    /// without a fixed noise width (floats, products) skip planning
    /// entirely, and so does a call whose *first* block needs more than
    /// [`MAX_PREFETCH_BLOCKS`] per stream: the cache only hits on
    /// full-range coverage, so a capped plan for it could never hit and
    /// would only burn the background lane.
    fn submit_prefetch(&mut self, noise_width: Option<usize>, elems: usize, block: usize) {
        let (Some(w), Some(pf)) = (noise_width, self.prefetch.as_mut()) else {
            return;
        };
        let per = (16 / w).max(1);
        if block.min(elems).div_ceil(per) > MAX_PREFETCH_BLOCKS {
            return;
        }
        let nblocks = elems.div_ceil(per).min(MAX_PREFETCH_BLOCKS);
        let epoch = self.keys.peek_next_epoch();
        let (own, next, zero) = self.keys.bases_at(epoch);
        let mut streams: [Option<StreamPlan>; MAX_STREAMS] = [None; MAX_STREAMS];
        let mut n = 0usize;
        for base in [own, next, zero] {
            // Bases coincide on small rings (e.g. world ≤ 2): plan each
            // distinct stream once.
            if streams[..n].iter().flatten().any(|p| p.base == base) {
                continue;
            }
            streams[n] = Some(StreamPlan {
                base,
                first_block: 0,
                nblocks,
            });
            n += 1;
        }
        pf.submit(PrefetchJob { epoch, streams });
    }

    /// Single-rank path: the aggregate of one contribution is itself
    /// (masked and unmasked so encode/decode lossiness still applies).
    fn run_local<S: Scheme>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
    ) -> Result<(), EngineError> {
        let mut wire: Vec<S::Wire> = self.arena.take_vec();
        let sealed = scheme.mask_slice(&self.keys, 0, data, &mut wire);
        let result = match sealed {
            Ok(()) => {
                scheme.unmask_extend(&self.keys, 0, &wire, out);
                Ok(())
            }
            Err(e) => Err(e.into()),
        };
        self.arena.put_vec(wire);
        result
    }

    /// The algorithm-selected blocking transport on an explicit attempt
    /// tag and deadline. `seg` is the ring algorithm's hop staging buffer
    /// (arena-leased by the caller); the other algorithms ignore it.
    fn try_transport_sync<T, F>(
        &self,
        tag: u64,
        data: Vec<T>,
        algo: ReduceAlgo,
        op: F,
        seg: &mut Vec<T>,
        deadline: Option<Instant>,
    ) -> Result<Vec<T>, CommError>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T + Send + Sync + Clone + 'static,
    {
        match algo {
            ReduceAlgo::RecursiveDoubling => self
                .comm
                .try_allreduce_owned_tagged(tag, data, op, deadline),
            ReduceAlgo::Ring => self
                .comm
                .try_allreduce_ring_owned_tagged_with_seg(tag, data, op, seg, deadline),
            ReduceAlgo::Switch => self.comm.try_allreduce_inc_tagged(tag, data, op, deadline),
            ReduceAlgo::Hierarchical { group } => self
                .comm
                .try_allreduce_hier_owned_tagged_with_seg(tag, data, op, group, seg, deadline),
        }
    }

    /// The algorithm-selected nonblocking transport on an explicit attempt
    /// tag and deadline.
    fn try_transport_nb<T, F>(
        &self,
        tag: u64,
        data: Vec<T>,
        algo: ReduceAlgo,
        op: F,
        deadline: Option<Instant>,
    ) -> Request<Result<Vec<T>, CommError>>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T + Send + Sync + Clone + 'static,
    {
        match algo {
            ReduceAlgo::RecursiveDoubling => {
                self.comm.try_iallreduce_tagged(tag, data, op, deadline)
            }
            ReduceAlgo::Ring => self
                .comm
                .try_iallreduce_ring_tagged(tag, data, op, deadline),
            ReduceAlgo::Switch => self.comm.try_iallreduce_inc_tagged(tag, data, op, deadline),
            ReduceAlgo::Hierarchical { group } => self
                .comm
                .try_iallreduce_hier_tagged(tag, data, op, group, deadline),
        }
    }
}

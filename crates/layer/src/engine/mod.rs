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
//! Every staging vector the engine needs — digest lanes, HoMAC tags,
//! verified packets and their decrypted blocks, pads and cells — is leased
//! from the per-communicator [`ScratchArena`] and returned after the call,
//! and so are the *chunk vectors* a block travels in: one owned vector per
//! ring chunk (one in all for the whole-vector algorithms), which the ring
//! moves from rank to rank instead of copying, so a rank returns as many
//! as it leased — though not the same ones. Combined with the
//! callee-provided output of the `*_into` variants, the integer hot paths
//! perform **zero heap allocation** after warmup.
//!
//! The plain reductions touch each payload byte once per phase: a block is
//! masked out of place from the caller's input straight into its chunk
//! vectors (all noise streams folded in one pass, chunk `c` at pad offset
//! `offset + s_c`), and each aggregated chunk is unmasked straight out of
//! the vector it arrived in, as the ring hands it over, into its place in
//! the spare capacity of the caller's `out` (`engine::window::OutWindow`) — there
//! is no contiguous wire buffer, no pre-filled output and no decrypted
//! staging copy. `out`'s length moves once per block, after the last chunk.
//! The verified reductions keep one staging copy (`VerifyScratch::dec`),
//! because a chunk may reach `out` only after its digest check. A posted
//! (pipelined) block cannot touch `out` from its helper thread: it brings
//! its chunks back and the drain unmasks them in order. On `Err`, `out` is
//! empty.
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
mod window;

pub use cfg::{ChunkMode, EngineCfg, EngineError, PeerDeadPolicy, RetryPolicy};
pub use membership::MembershipChange;
pub(crate) use packet::{for_each_packet_shape, Packet, SchemePacket};

use crate::prefetch::{PrefetchJob, MAX_PREFETCH_BLOCKS, MAX_STREAMS};
use crate::secure::{ReduceAlgo, SecureComm};
use hear_core::{Homac, Scheme, StreamPlan};
use hear_mpi::{CommError, Communicator, Request};
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

    /// Lease an (empty) set of wire chunk vectors from the arena; see
    /// [`SecureComm::fit_chunks`].
    fn lease_chunks<T: Send + 'static>(&mut self) -> Vec<Vec<T>> {
        self.arena.take_vec()
    }

    /// Make `chunks` exactly `n` leased vectors — one per piece the
    /// transport moves a block in: `world` of them under the ring (at world
    /// 2 these are what used to be the wire buffer and the ring's segment
    /// buffer), one for the whole-vector algorithms. Whoever fills one
    /// sizes it first ([`make_room`]).
    fn fit_chunks<T: Send + 'static>(&mut self, chunks: &mut Vec<Vec<T>>, n: usize) {
        while chunks.len() < n {
            chunks.push(self.arena.take_vec());
        }
        while chunks.len() > n {
            self.arena.put_vec(chunks.pop().expect("longer than n"));
        }
    }

    /// Return leased chunk vectors — whichever allocations the ring left in
    /// the slots — and their holder to the arena.
    fn restore_chunks<T: Send + 'static>(&mut self, mut chunks: Vec<Vec<T>>) {
        for chunk in chunks.drain(..) {
            self.arena.put_vec(chunk);
        }
        self.arena.put_vec(chunks);
    }
}

/// What the block runners are reducing towards, and over which transport.
#[derive(Clone, Copy)]
pub(crate) enum Route {
    /// Every rank gets the whole aggregate, over this algorithm.
    All(ReduceAlgo),
    /// Rank `r` gets chunk `r` of every block: the ring's first phase
    /// alone ([`SecureComm::reduce_scatter_with`]).
    Scatter,
}

/// How many owned vectors a block travels as: the ring — both phases, or
/// the first alone — moves one per [`hear_mpi::ring_chunk_bounds`] chunk,
/// every other algorithm exchanges the whole vector.
fn chunk_count(route: Route, world: usize) -> usize {
    match route {
        Route::All(ReduceAlgo::Ring) | Route::Scatter => world,
        Route::All(_) => 1,
    }
}

/// Empty `v` and give it room for `room` elements, exactly: a vector the
/// ring moves comes back in any slot (and from any rank), so each is sized
/// for the largest piece it may be dealt, and growing one by a single
/// element must not double a payload-sized allocation.
fn make_room<T>(v: &mut Vec<T>, room: usize) {
    v.clear();
    if v.capacity() < room {
        v.reserve_exact(room);
    }
}

/// Mask the block `input` (at global `offset`) into `chunks`, chunk `c` at
/// `offset + s_c`: masking is block-composable (the [`Scheme`] contract),
/// so the chunk ciphertexts are exactly the slices of the whole block's —
/// same pad coordinates `(base, offset + s_c + j)`, same bits on the wire.
/// Every vector is given room for the largest chunk ([`make_room`]).
fn mask_chunks<S: Scheme>(
    scheme: &mut S,
    keys: &hear_core::CommKeys,
    offset: usize,
    input: &[S::Input],
    chunks: &mut [Vec<S::Wire>],
) -> Result<(), hear_core::HfpError> {
    let n = chunks.len();
    let room = input.len().div_ceil(n);
    for (c, chunk) in chunks.iter_mut().enumerate() {
        let (s, e) = phases::share_bounds(input.len(), n, c);
        make_room(chunk, room);
        scheme.mask_slice(keys, (offset + s) as u64, &input[s..e], chunk)?;
    }
    Ok(())
}

/// The route-selected blocking transport over a block's chunk vectors
/// ([`chunk_count`] of them) on an explicit attempt tag and deadline.
/// `visit(c, chunk)` sees every piece of this rank's result exactly once:
/// each aggregated chunk as it passes, under the ring; the one whole
/// vector after the exchange, under the other algorithms; the own chunk —
/// as piece 0 — after a reduce-scatter. A free function so a posted block
/// can run it on its helper thread.
fn transport_chunks<T, F, V>(
    comm: &Communicator,
    tag: u64,
    chunks: &mut [Vec<T>],
    route: Route,
    op: F,
    mut visit: V,
    deadline: Option<Instant>,
) -> Result<(), CommError>
where
    T: Clone + Send + 'static,
    F: Fn(&T, &T) -> T + Send + Sync + Clone + 'static,
    V: FnMut(usize, &[T]),
{
    let whole = |chunks: &mut [Vec<T>]| std::mem::take(&mut chunks[0]);
    let agg = match route {
        Route::All(ReduceAlgo::Ring) => {
            return comm.try_allreduce_ring_chunks(tag, chunks, op, visit, deadline);
        }
        Route::Scatter => {
            comm.try_reduce_scatter_chunks(tag, chunks, op, deadline)?;
            visit(0, &chunks[comm.rank()]);
            return Ok(());
        }
        Route::All(ReduceAlgo::RecursiveDoubling) => {
            comm.try_allreduce_owned_tagged(tag, whole(chunks), op, deadline)?
        }
        Route::All(ReduceAlgo::Switch) => {
            comm.try_allreduce_inc_tagged(tag, whole(chunks), op, deadline)?
        }
        Route::All(ReduceAlgo::Hierarchical { group }) => {
            comm.try_allreduce_hier_owned_tagged(tag, whole(chunks), op, group, deadline)?
        }
    };
    visit(0, &agg);
    chunks[0] = agg;
    Ok(())
}

/// What a posted block hands back to the thread that waits on it: its
/// aggregated chunk vectors, every slot holding its chunk.
pub(crate) type PostedChunks<T> = Request<Result<Vec<Vec<T>>, CommError>>;

/// [`transport_chunks`] posted to a helper thread. Nothing can be unmasked
/// there, so the ring keeps its chunks (one copy per forwarded chunk) for
/// the drain to unmask in order.
fn post_transport_chunks<T, F>(
    comm: &Communicator,
    tag: u64,
    mut chunks: Vec<Vec<T>>,
    route: Route,
    op: F,
    deadline: Option<Instant>,
) -> PostedChunks<T>
where
    T: Clone + Send + 'static,
    F: Fn(&T, &T) -> T + Send + Sync + Clone + 'static,
{
    comm.post(move |comm| {
        match route {
            Route::All(ReduceAlgo::Ring) => {
                comm.try_allreduce_ring_chunks_kept(tag, &mut chunks, op, deadline)?
            }
            _ => transport_chunks(comm, tag, &mut chunks, route, op, |_, _| {}, deadline)?,
        }
        Ok(chunks)
    })
}

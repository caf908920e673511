//! The single collective engine.
//!
//! Every collective on [`SecureComm`] is one of the engine's generic
//! entry points (or a runtime-typed front door or derived operation over
//! one), which compose four orthogonal choices:
//!
//! * **cipher** — any [`Scheme`] (Table 2's six rows plus fixed point),
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
//! ## One driver, four codecs
//!
//! All four run on one block driver (the `driver` module): a call is cut
//! into blocks, and the attempt loop — seal, move on the attempt's tag
//! under its deadline, open, retry / degrade / fail — and the depth-2
//! post/drain pipeline with its FIFO drain and synchronous fallback are
//! written once. Each collective supplies only what differs: its wire
//! element, how a block is sealed into chunk vectors, the transport that
//! moves them, and how an arrived chunk is opened. The two reductions share
//! one of these — ring, recursive doubling or switch tree, whole result or
//! this rank's share — over a plain or a verified codec (masked
//! ciphertexts combined by `S::op`, or verified packets); the allgather and
//! the alltoall are generic over the cell flavour, bare or tagged.
//!
//! A block travels as owned chunk vectors leased from the per-communicator
//! [`ScratchArena`](crate::ScratchArena) — one per ring chunk (one in all
//! for the whole-vector algorithms), which the ring moves from rank to rank
//! instead of copying, so a rank returns as many as it leased, though not
//! the same ones — and so is every other staging vector. With the
//! callee-provided output of the `*_into` variants, the integer hot paths
//! perform **zero heap allocation** after warmup.
//!
//! The plain reductions touch each payload byte once per phase: a block is
//! masked out of place from the caller's input straight into its chunk
//! vectors (chunk `c` at pad offset `offset + s_c`), and each aggregated
//! chunk is unmasked straight out of the vector it arrived in into its
//! place in the caller's `out` (`engine::window::OutWindow`), which the
//! reduction `resize`s to its result at entry — a no-op for an `out`
//! reused at that length. The verified reductions add one HoMAC pass a
//! side: sealing writes finished packets into the chunk vectors, opening
//! checks the tags and splits out the ciphertexts, which are unmasked into
//! their place and digest-checked there. Either way a block is committed
//! once, after its last chunk — as the ring hands them over, or, for a
//! posted block, whose helper thread can open nothing, when the drain
//! opens the chunks it brought back. Whatever fails (a rejected chunk may
//! leave anything in its place), every `*_into` entry point returns `Err`
//! with `out` empty.
//!
//! ## Verified transport
//!
//! Verification must work for wire formats (like [`hear_core::Hfp`])
//! whose reduction is not a ring addition, so it does not tag the payload
//! cipher directly. Instead each element carries a *digest*: up to four
//! `u64` summation words of the plaintext (defined per scheme, exact for
//! integer and fixed-point data, quantized within the Table 2 lossiness
//! for floats). Each word travels as its two 32-bit halves, and each half
//! is a lane: a field element modulo the HoMAC prime, padded and tagged in
//! one pass of the HoMAC kernel ([`hear_core::Homac::seal_pass`], which
//! digests each element and writes its packet) at PRF indices offset by
//! [`hear_core::DIGEST_BASE`] — disjoint from every payload index. The
//! network reduces `(c, d, σ)` packets component-wise, lanes and tags
//! modulo p; on receipt one kernel pass ([`hear_core::Homac::open_pass`])
//! verifies every tag exactly and removes the pads (any tampering with `d`
//! or `σ` is caught by the MAC), and the engine checks the decrypted
//! payload against the rejoined lane sums (any tampering with `c` is
//! caught by the digest). The single-origin collectives use the lighter
//! [`Tagged`](crate::secure::Tagged) shape instead: a shared-stream MAC
//! over each padded cell, verifiable by every rank. Zero-length inputs
//! and single-rank communicators short-circuit uniformly before any
//! transport.

mod allreduce;
mod alltoall;
mod cfg;
mod driver;
mod membership;
mod packet;
mod phases;
mod retry;
mod window;

pub use cfg::{ChunkMode, EngineCfg, EngineError, PeerDeadPolicy, RetryPolicy};
pub use membership::MembershipChange;
pub(crate) use packet::{collective_pad, for_each_packet_shape, Packet, SchemePacket};

use crate::secure::{ReduceAlgo, SecureComm};
use hear_core::{Homac, Scheme};
use hear_mpi::{CommError, Communicator, Request};
use hear_prf::WorkerPool;
use std::time::Instant;

/// Two blocks in flight overlap encrypt(n+1) and decrypt(n−1) with the
/// reduction of block n.
pub(crate) const DEPTH: usize = 2;

impl SecureComm {
    /// The contract every `*_with_into` entry point shares: run `attempt`
    /// on this rank's lane (see [`SecureComm`]'s module docs) — inside the
    /// shrink-and-continue loop when `shrink` names the policy, each
    /// re-run on the lane resized for the shrunk world — and on `Err`
    /// leave `out` empty (capacity kept): never the caller's input, never
    /// part of a result.
    fn run_into<T>(
        &mut self,
        out: &mut Vec<T>,
        shrink: Option<RetryPolicy>,
        mut attempt: impl FnMut(&mut SecureComm, &mut Vec<T>) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        let mut on_lane = |sc: &mut SecureComm| sc.on_lane(|sc| attempt(sc, out));
        match shrink {
            Some(policy) => self.with_shrink(policy, on_lane),
            None => on_lane(self),
        }
        .inspect_err(|_| out.clear())
    }

    /// The thread count of the pool this call's fan-out runs on: the lane,
    /// or the caller's pinned pool. Recorded on each collective's span.
    fn pool_threads() -> usize {
        WorkerPool::with_current(WorkerPool::threads)
    }

    /// The HoMAC state a call runs under: `None` unless `cfg.verified`,
    /// and then the communicator must carry it.
    fn homac_for(&self, cfg: EngineCfg) -> Option<Homac> {
        cfg.verified.then(|| {
            let homac = self.homac.clone();
            homac.expect("enable verification with with_homac()")
        })
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
                scheme.unmask_slice(&self.keys, 0, &wire, out);
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

/// What a reduction is reducing towards, and over which transport.
#[derive(Clone, Copy, PartialEq)]
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

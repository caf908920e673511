//! The ring allreduce, factored: reduce-scatter and allgather as
//! standalone encrypted collectives.
//!
//! [`SecureComm::reduce_scatter_with`] is the ring's reduce phase — full
//! HEAR masking, homomorphic combine, verified [`Packet`]s — ending with
//! each rank holding its fully reduced chunk. [`SecureComm::allgather_with`]
//! is the distribution phase alone, on the thinner single-origin cell
//! transport (no combine happens, so elements ride as lossless XOR-padded
//! `u64` cells with optional shared-stream HoMAC tags). Composing the two
//! reproduces the fused ring allreduce bit for bit; underneath they share
//! one chunk-owned hop loop in `hear_mpi` — and the reduce-scatter shares
//! the allreduce's block runners outright ([`Route::Scatter`]) — so the
//! three can never drift apart.

use super::cfg::{ChunkMode, EngineCfg, EngineError};
use super::packet::{open_cells, open_cells_tagged, seal_cells, seal_cells_tagged, CellScratch};
use super::retry::{attempt_tag, RetryCtl, Step};
use super::{make_room, PostedChunks, Route, DEPTH};
use crate::secure::{SecureComm, Tagged};
use hear_core::{Homac, Scheme};
use std::collections::VecDeque;

/// Bounds `(start, end)` of rank `r`'s reduce-scatter share of an
/// `n`-element block — the same chunking as
/// [`hear_mpi::ring_chunk_bounds`], computed without the per-rank vector.
pub(crate) fn share_bounds(n: usize, world: usize, r: usize) -> (usize, usize) {
    let base = n / world;
    let extra = n % world;
    let start = r * base + r.min(extra);
    (start, start + base + usize::from(r < extra))
}

/// Fold a ring-native retry decision: the factored phases run on the host
/// ring only, so a `Degrade` (which can only mean "leave the switch") is
/// just another retry.
fn ring_step(step: Step) -> Result<(), EngineError> {
    match step {
        Step::Retry | Step::Degrade => Ok(()),
        Step::Fail(e) => Err(e),
    }
}

impl SecureComm {
    /// This rank's share bounds `(start, end)` for a [`ChunkMode::Sync`]
    /// [`SecureComm::reduce_scatter_with`] over an `n`-element vector —
    /// the shard layout a ZeRO-style sharded optimizer owns.
    pub fn shard_bounds(&self, n: usize) -> (usize, usize) {
        share_bounds(n, self.world(), self.rank())
    }

    /// Encrypted ring reduce-scatter: every rank contributes an equal
    /// `data`, and receives the fully reduced elements of its own share of
    /// each block (for [`ChunkMode::Sync`], the contiguous global chunk
    /// given by [`SecureComm::shard_bounds`]). Same masking, combine, and
    /// verified packets as [`SecureComm::allreduce_with`] — it *is* the
    /// ring allreduce's first phase, stopped halfway.
    pub fn reduce_scatter_with<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        cfg: EngineCfg,
    ) -> Result<Vec<S::Input>, EngineError> {
        let mut out = Vec::new();
        self.reduce_scatter_with_into(scheme, data, &mut out, cfg)?;
        Ok(out)
    }

    /// [`SecureComm::reduce_scatter_with`] writing into a caller-provided
    /// vector (cleared, then the per-block shares are appended in block
    /// order). Steady-state allocation-free on the integer and float
    /// paths, like the other `*_into` entry points: the chunk vectors the
    /// block is masked into are arena leases, and the ring hands the share
    /// back as the chunk vector it ends owning (`tests/matrix.rs` counts
    /// both). Under
    /// [`PeerDeadPolicy::ShrinkAndContinue`](super::cfg::PeerDeadPolicy)
    /// a dead member triggers membership reconfiguration and a re-run
    /// over the survivors — note the share layout then follows the
    /// *shrunk* world ([`SecureComm::shard_bounds`] reflects it). On
    /// `Err`, `out` is empty (capacity kept), as for
    /// [`SecureComm::allreduce_with_into`].
    pub fn reduce_scatter_with_into<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        cfg: EngineCfg,
    ) -> Result<(), EngineError> {
        self.with_shrink(cfg.retry, |sc| {
            sc.reduce_scatter_attempt(scheme, data, out, cfg)
        })
        .inspect_err(|_| out.clear())
    }

    /// One full reduce-scatter attempt over the current membership (the
    /// shrink-and-continue re-run target; `out` is cleared at entry).
    pub(crate) fn reduce_scatter_attempt<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        cfg: EngineCfg,
    ) -> Result<(), EngineError> {
        let block = match cfg.chunk {
            ChunkMode::Sync => data.len().max(1),
            ChunkMode::Blocked(b) | ChunkMode::Pipelined(b) => {
                assert!(b > 0, "block size must be positive");
                b
            }
        };
        let _span = if cfg.verified {
            hear_telemetry::span!("secure_reduce_scatter_verified", elems = data.len())
        } else {
            hear_telemetry::span!("secure_reduce_scatter", elems = data.len())
        };
        let homac = cfg.verified.then(|| self.verified_homac::<S>());
        self.keys.advance();
        out.clear();
        if data.is_empty() {
            return Ok(());
        }
        self.submit_prefetch(scheme.noise_width(), data.len(), block);
        if self.world() == 1 {
            // The single rank owns the whole vector; mask/unmask locally
            // so encode/decode lossiness still applies, like allreduce.
            return self.run_local(scheme, data, out);
        }
        let nblocks = (data.len() as u64).div_ceil(block as u64);
        let base_tag = self.comm.reserve_coll_tags(nblocks);
        let mut ctl = RetryCtl::new(cfg.retry);
        self.run_blocks(
            scheme,
            data,
            out,
            block,
            cfg.chunk,
            &mut Route::Scatter,
            base_tag,
            &mut ctl,
            homac.as_ref(),
        )
    }

    /// Encrypted ring allgather: contributions may differ in length per
    /// rank; the result is their rank-ordered concatenation on every
    /// rank. Single-origin transport — elements ride as lossless
    /// XOR-padded `u64` cells, so the gathered values are bit-for-bit the
    /// contributed ones for every scheme, floats included. `scheme` picks
    /// the cell codec only; no reduction algorithm applies.
    pub fn allgather_with<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        mine: &[S::Input],
        cfg: EngineCfg,
    ) -> Result<Vec<S::Input>, EngineError> {
        let mut out = Vec::new();
        self.allgather_with_into(scheme, mine, &mut out, cfg)?;
        Ok(out)
    }

    /// [`SecureComm::allgather_with`] writing into a caller-provided
    /// vector. The output layout is identical across chunk modes: rank
    /// `r`'s contribution occupies `starts[r]..starts[r]+counts[r]`
    /// (rounds scatter their pieces into place). Under
    /// [`PeerDeadPolicy::ShrinkAndContinue`](super::cfg::PeerDeadPolicy)
    /// a dead member triggers membership reconfiguration and a re-run:
    /// the concatenation then covers the survivors only.
    pub fn allgather_with_into<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        mine: &[S::Input],
        out: &mut Vec<S::Input>,
        cfg: EngineCfg,
    ) -> Result<(), EngineError> {
        self.with_shrink(cfg.retry, |sc| sc.allgather_attempt(scheme, mine, out, cfg))
    }

    /// One full allgather attempt over the current membership (the
    /// shrink-and-continue re-run target; `out` is cleared at entry).
    pub(crate) fn allgather_attempt<S: Scheme + 'static>(
        &mut self,
        _scheme: &mut S,
        mine: &[S::Input],
        out: &mut Vec<S::Input>,
        cfg: EngineCfg,
    ) -> Result<(), EngineError> {
        let _span = hear_telemetry::span!("secure_allgather", elems = mine.len());
        let homac = if cfg.verified {
            // The shared-stream MAC has a single contributor per cell, so
            // no world-size soundness bound applies.
            Some(
                self.homac
                    .clone()
                    .expect("enable verification with with_homac()"),
            )
        } else {
            None
        };
        self.keys.advance();
        out.clear();
        if self.world() == 1 {
            // Cells are lossless, so the local path is a plain copy.
            out.extend_from_slice(mine);
            return Ok(());
        }
        let world = self.world();
        let mut ctl = RetryCtl::new(cfg.retry);
        // Counts travel first, on their own reserved tag, so ranks with
        // uneven contributions agree on the layout (and on how many data
        // tags to reserve) before any payload moves.
        let counts_tag = self.comm.reserve_coll_tags(1);
        let mut ones: Vec<usize> = self.arena.take_vec();
        ones.resize(world, 1);
        let exchanged = loop {
            let tag = attempt_tag(counts_tag, 0, ctl.attempt);
            let own = vec![mine.len() as u64];
            match (self.comm).try_allgather_tagged(tag, own, &ones, ctl.deadline()) {
                Ok(counts) => break Ok(counts),
                Err(e) => {
                    if let Err(err) = ring_step(ctl.on_error(EngineError::Comm(e))) {
                        break Err(err);
                    }
                }
            }
        };
        self.arena.put_vec(ones);
        let counts = exchanged?;
        let mut starts: Vec<u64> = self.arena.take_vec();
        let mut total = 0u64;
        for c in &counts {
            starts.push(total);
            total += c;
        }
        let res = if total > 0 {
            self.ag_layout::<S>(mine, out, cfg, &mut ctl, &counts, &starts, homac.as_ref())
        } else {
            Ok(())
        };
        self.arena.put_vec(starts);
        res
    }

    /// Fix the round structure from the agreed counts, size `out`, and run
    /// the rounds on the cell flavour the integrity setting calls for.
    #[allow(clippy::too_many_arguments)]
    fn ag_layout<S: Scheme + 'static>(
        &mut self,
        mine: &[S::Input],
        out: &mut Vec<S::Input>,
        cfg: EngineCfg,
        ctl: &mut RetryCtl,
        counts: &[u64],
        starts: &[u64],
        homac: Option<&Homac>,
    ) -> Result<(), EngineError> {
        let longest = counts.iter().copied().max().unwrap_or(0);
        let b = match cfg.chunk {
            ChunkMode::Sync => longest.max(1) as usize,
            ChunkMode::Blocked(x) | ChunkMode::Pipelined(x) => {
                assert!(x > 0, "block size must be positive");
                x
            }
        };
        let nrounds = longest.div_ceil(b as u64).max(1);
        let base_tag = self.comm.reserve_coll_tags(nrounds);
        let total = (starts[starts.len() - 1] + counts[counts.len() - 1]) as usize;
        out.resize(total, S::cell_decode(0));
        let round = Rounds {
            mine,
            b,
            room: b.min(longest as usize),
            base_tag,
            counts,
            starts,
            homac,
        };
        let pipelined = matches!(cfg.chunk, ChunkMode::Pipelined(_));
        match homac {
            Some(_) => self.ag_rounds::<S, Tagged<u64>>(&round, out, nrounds, ctl, pipelined),
            None => self.ag_rounds::<S, u64>(&round, out, nrounds, ctl, pipelined),
        }
    }

    /// Run the allgather rounds: sequential when `pipelined` is false,
    /// otherwise up to [`DEPTH`] rounds posted nonblocking with FIFO
    /// drain (failed posts fall back to the synchronous round, which
    /// retries per the policy).
    fn ag_rounds<S: Scheme + 'static, C: WireCell>(
        &mut self,
        rounds: &Rounds<'_, S>,
        out: &mut [S::Input],
        nrounds: u64,
        ctl: &mut RetryCtl,
        pipelined: bool,
    ) -> Result<(), EngineError> {
        let mut cs = CellScratch::lease(&mut self.arena);
        let mut result = Ok(());
        if pipelined {
            result = self.ag_rounds_pipelined::<S, C>(rounds, out, nrounds, ctl, &mut cs);
        } else {
            let mut hops: Vec<Vec<C>> = self.lease_chunks();
            for k in 0..nrounds {
                result = self.ag_round_sync::<S, C>(rounds, out, k, ctl, &mut cs, &mut hops);
                if result.is_err() {
                    break;
                }
            }
            self.restore_chunks(hops);
        }
        cs.restore(&mut self.arena);
        result
    }

    /// One allgather round, synchronously, with the attempt loop: seal the
    /// own piece into its chunk vector, circulate, and open every rank's
    /// piece into its place in `out` as the ring hands it over — nothing is
    /// gathered into a buffer first. A piece that fails its MAC is still
    /// forwarded and fails the attempt.
    fn ag_round_sync<S: Scheme + 'static, C: WireCell>(
        &mut self,
        rounds: &Rounds<'_, S>,
        out: &mut [S::Input],
        round: u64,
        ctl: &mut RetryCtl,
        cs: &mut CellScratch,
        hops: &mut Vec<Vec<C>>,
    ) -> Result<(), EngineError> {
        self.fit_chunks(hops, self.world());
        loop {
            rounds.seal(&self.keys, self.rank(), round, cs, &mut hops[self.rank()]);
            let tag = attempt_tag(rounds.base_tag, round, ctl.attempt);
            let deadline = ctl.deadline();
            let mut rejected = None;
            let keys = &self.keys;
            let open = |r: usize, piece: &[C]| {
                if rejected.is_none() {
                    rejected = rounds.open(keys, r, round, piece, cs, out).err();
                }
            };
            let gathered = self.comm.try_allgather_chunks(tag, hops, open, deadline);
            let step = match (gathered, rejected) {
                (Ok(()), None) => return Ok(()),
                (Ok(()), Some(e)) => ctl.on_error(e),
                (Err(e), _) => ctl.on_error(EngineError::Comm(e)),
            };
            ring_step(step)?;
        }
    }

    /// Pipelined allgather rounds: a posted round keeps its chunks and
    /// brings them back; drains open them into place (order-independent)
    /// and fall back to [`SecureComm::ag_round_sync`] on failure.
    fn ag_rounds_pipelined<S: Scheme + 'static, C: WireCell>(
        &mut self,
        rounds: &Rounds<'_, S>,
        out: &mut [S::Input],
        nrounds: u64,
        ctl: &mut RetryCtl,
        cs: &mut CellScratch,
    ) -> Result<(), EngineError> {
        let mut inflight: VecDeque<(u64, PostedChunks<C>)> = VecDeque::with_capacity(DEPTH);
        let mut drain = |sc: &mut Self,
                         round: u64,
                         req: PostedChunks<C>,
                         ctl: &mut RetryCtl,
                         cs: &mut CellScratch|
         -> Result<(), EngineError> {
            hear_telemetry::gauge_add(hear_telemetry::Gauge::PipelineInFlight, -1);
            let step = match req.wait() {
                Ok(hops) => {
                    let opened = (hops.iter().enumerate())
                        .try_for_each(|(r, piece)| rounds.open(&sc.keys, r, round, piece, cs, out));
                    sc.restore_chunks(hops);
                    match opened {
                        Ok(()) => return Ok(()),
                        Err(e) => ctl.on_error(e),
                    }
                }
                Err(e) => ctl.on_error(EngineError::Comm(e)),
            };
            ring_step(step)?;
            let mut hops = sc.lease_chunks();
            let result = sc.ag_round_sync::<S, C>(rounds, out, round, ctl, cs, &mut hops);
            sc.restore_chunks(hops);
            result
        };
        let mut result = Ok(());
        for round in 0..nrounds {
            let mut hops: Vec<Vec<C>> = self.lease_chunks();
            self.fit_chunks(&mut hops, self.world());
            rounds.seal(&self.keys, self.rank(), round, cs, &mut hops[self.rank()]);
            hear_telemetry::incr(hear_telemetry::Metric::PipelineBlocks);
            hear_telemetry::gauge_add(hear_telemetry::Gauge::PipelineInFlight, 1);
            let tag = attempt_tag(rounds.base_tag, round, ctl.attempt);
            let deadline = ctl.deadline();
            let req = self.comm.post(move |comm| {
                comm.try_allgather_chunks_kept(tag, &mut hops, deadline)?;
                Ok(hops)
            });
            inflight.push_back((round, req));
            if inflight.len() >= DEPTH {
                let (r, req) = inflight.pop_front().expect("non-empty");
                result = drain(self, r, req, ctl, cs);
                if result.is_err() {
                    break;
                }
            }
        }
        while let (Ok(()), Some((r, req))) = (&result, inflight.pop_front()) {
            result = drain(self, r, req, ctl, cs);
        }
        result
    }
}

/// A cell as the single-origin ring ships it: bare, or with its
/// shared-stream HoMAC tag. The two flavours differ only in how a piece is
/// sealed and opened.
pub(crate) trait WireCell: Clone + Send + Sized + 'static {
    /// Seal `piece` at global cell index `first` into `sealed`.
    fn seal<S: Scheme>(
        keys: &hear_core::CommKeys,
        homac: Option<&Homac>,
        first: u64,
        piece: &[S::Input],
        cs: &mut CellScratch,
        sealed: &mut Vec<Self>,
    );

    /// Open `cells` (sealed at `first`) into `out`, of the same length;
    /// nothing is written unless the whole piece checks out.
    fn open<S: Scheme>(
        keys: &hear_core::CommKeys,
        homac: Option<&Homac>,
        first: u64,
        cells: &[Self],
        cs: &mut CellScratch,
        out: &mut [S::Input],
    ) -> Result<(), EngineError>;
}

impl WireCell for u64 {
    fn seal<S: Scheme>(
        keys: &hear_core::CommKeys,
        _homac: Option<&Homac>,
        first: u64,
        piece: &[S::Input],
        cs: &mut CellScratch,
        sealed: &mut Vec<u64>,
    ) {
        std::mem::swap(&mut cs.cells, sealed);
        seal_cells::<S>(keys, first, piece, cs);
        std::mem::swap(&mut cs.cells, sealed);
    }

    fn open<S: Scheme>(
        keys: &hear_core::CommKeys,
        _homac: Option<&Homac>,
        first: u64,
        cells: &[u64],
        cs: &mut CellScratch,
        out: &mut [S::Input],
    ) -> Result<(), EngineError> {
        open_cells::<S>(keys, first, cells, cs, out);
        Ok(())
    }
}

impl WireCell for Tagged<u64> {
    fn seal<S: Scheme>(
        keys: &hear_core::CommKeys,
        homac: Option<&Homac>,
        first: u64,
        piece: &[S::Input],
        cs: &mut CellScratch,
        sealed: &mut Vec<Tagged<u64>>,
    ) {
        let homac = homac.expect("tagged cells imply HoMAC state");
        std::mem::swap(&mut cs.tagged, sealed);
        seal_cells_tagged::<S>(keys, homac, first, piece, cs);
        std::mem::swap(&mut cs.tagged, sealed);
    }

    fn open<S: Scheme>(
        keys: &hear_core::CommKeys,
        homac: Option<&Homac>,
        first: u64,
        cells: &[Tagged<u64>],
        cs: &mut CellScratch,
        out: &mut [S::Input],
    ) -> Result<(), EngineError> {
        let homac = homac.expect("tagged cells imply HoMAC state");
        open_cells_tagged::<S>(keys, homac, first, cells, cs, out)
    }
}

/// The round structure of one allgather call: every rank's contribution
/// is cut into pieces of `b` cells, round `k` circulates piece `k` of
/// each, and rank `r`'s piece lands at `starts[r] + k·b` — which is also
/// its pad (and MAC) index, so every (origin, position) pair draws a
/// distinct keystream word.
struct Rounds<'a, S: Scheme> {
    mine: &'a [S::Input],
    b: usize,
    /// Cells in the longest piece any rank ships in any round.
    room: usize,
    base_tag: u64,
    counts: &'a [u64],
    starts: &'a [u64],
    homac: Option<&'a Homac>,
}

impl<S: Scheme> Rounds<'_, S> {
    /// Global index and length of rank `r`'s piece in `round`.
    fn piece(&self, r: usize, round: u64) -> (usize, usize) {
        let lo = round as usize * self.b;
        let len = (self.counts[r] as usize).saturating_sub(lo).min(self.b);
        (self.starts[r] as usize + lo, len)
    }

    /// Seal this rank's piece of `round` into `sealed`.
    fn seal<C: WireCell>(
        &self,
        keys: &hear_core::CommKeys,
        rank: usize,
        round: u64,
        cs: &mut CellScratch,
        sealed: &mut Vec<C>,
    ) {
        let (g0, len) = self.piece(rank, round);
        // A contribution shorter than `round · b` has an empty piece here.
        let lo = (g0 - self.starts[rank] as usize).min(self.mine.len());
        make_room(sealed, self.room);
        C::seal::<S>(
            keys,
            self.homac,
            g0 as u64,
            &self.mine[lo..lo + len],
            cs,
            sealed,
        );
    }

    /// Open rank `r`'s piece of `round` into its place in `out`, rejecting
    /// it if it fails its shared-stream MAC.
    fn open<C: WireCell>(
        &self,
        keys: &hear_core::CommKeys,
        r: usize,
        round: u64,
        piece: &[C],
        cs: &mut CellScratch,
        out: &mut [S::Input],
    ) -> Result<(), EngineError> {
        let (g0, len) = self.piece(r, round);
        assert_eq!(piece.len(), len, "rank {r}'s piece has the wrong length");
        if len == 0 {
            return Ok(());
        }
        C::open::<S>(
            keys,
            self.homac,
            g0 as u64,
            piece,
            cs,
            &mut out[g0..g0 + len],
        )
    }
}

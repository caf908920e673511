//! The ring allreduce, factored: reduce-scatter and allgather as
//! standalone encrypted collectives.
//!
//! [`SecureComm::reduce_scatter_with`] is the ring's reduce phase — full
//! HEAR masking, homomorphic combine, verified [`Packet`](super::Packet)s —
//! ending with each rank holding its fully reduced chunk.
//! [`SecureComm::allgather_with`] is the distribution phase alone, on the
//! thinner single-origin cell transport (no combine happens, so elements
//! ride as lossless XOR-padded `u64` cells with optional shared-stream
//! HoMAC tags). Composing the two reproduces the fused ring allreduce bit
//! for bit; underneath they share one chunk-owned hop loop in `hear_mpi` —
//! and the reduce-scatter is the allreduce's own reduction
//! ([`Route::Scatter`]) — so the three can never drift apart.

use super::cfg::{EngineCfg, EngineError};
use super::driver::Blocks;
use super::packet::{BareCells, CellCodec, CellScratch, TaggedCells};
use super::retry::{attempt_tag, RetryCtl};
use super::{make_room, PostedChunks, Route};
use crate::secure::{SecureComm, VerificationError};
use hear_core::Scheme;
use std::time::Instant;

/// Bounds `(start, end)` of rank `r`'s reduce-scatter share of an
/// `n`-element block — the same chunking as
/// [`hear_mpi::ring_chunk_bounds`], computed without the per-rank vector.
pub(crate) fn share_bounds(n: usize, world: usize, r: usize) -> (usize, usize) {
    let base = n / world;
    let extra = n % world;
    let start = r * base + r.min(extra);
    (start, start + base + usize::from(r < extra))
}

/// Elements of an allgather whose ranks contribute `counts`, or `None`
/// for a layout no honest exchange produces: this rank's own count is not
/// `mine`, the sum overflows, or the result would exceed `isize::MAX`
/// bytes. The caller rejects it before sizing anything by it.
fn gathered_len<T>(counts: &[u64], rank: usize, mine: usize) -> Option<usize> {
    if counts.get(rank) != Some(&(mine as u64)) {
        return None;
    }
    let total = counts.iter().try_fold(0u64, |t, &c| t.checked_add(c))?;
    let total = usize::try_from(total).ok()?;
    let bytes = total.checked_mul(std::mem::size_of::<T>())?;
    (bytes <= isize::MAX as usize).then_some(total)
}

impl SecureComm {
    /// This rank's share bounds `(start, end)` for a [`ChunkMode::Sync`](super::cfg::ChunkMode::Sync)
    /// [`SecureComm::reduce_scatter_with`] over an `n`-element vector —
    /// the shard layout a ZeRO-style sharded optimizer owns.
    pub fn shard_bounds(&self, n: usize) -> (usize, usize) {
        share_bounds(n, self.world(), self.rank())
    }

    /// Encrypted ring reduce-scatter: every rank contributes an equal
    /// `data`, and receives the fully reduced elements of its own share of
    /// each block (for [`ChunkMode::Sync`](super::cfg::ChunkMode::Sync), the contiguous global chunk
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
    /// vector, `resize`d at entry to this rank's result and filled with the
    /// per-block shares in block order, so an `out` reused at that length is
    /// only overwritten. Steady-state allocation-free on the integer and
    /// float paths, like the other `*_into` entry points: the chunk vectors
    /// the block is masked into are arena leases, and the ring hands the
    /// share back as the chunk vector it ends owning (`tests/matrix.rs`
    /// counts both). Under
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
        self.run_into(out, Some(cfg.retry), |sc, out| {
            sc.reduce_attempt(scheme, data, out, cfg, Route::Scatter)
        })
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
    /// the concatenation then covers the survivors only. On `Err`, `out`
    /// is empty (capacity kept), as for
    /// [`SecureComm::allreduce_with_into`].
    ///
    /// The per-rank element counts, exchanged before the cells, carry no
    /// MAC even under `verified()`: authenticating them needs a MAC index
    /// domain argued disjoint from the cells' `DIGEST_BASE + g0`, which is
    /// left open (ROADMAP.md). A count is trusted only as far as it can be
    /// checked: a layout no honest exchange produces (this rank's own count
    /// wrong, a sum that overflows, an `out` beyond `isize::MAX` bytes or
    /// one the allocator refuses) and a piece whose length disagrees with
    /// its count are both rejected as [`EngineError::Verification`].
    pub fn allgather_with_into<S: Scheme + 'static>(
        &mut self,
        _scheme: &mut S,
        mine: &[S::Input],
        out: &mut Vec<S::Input>,
        cfg: EngineCfg,
    ) -> Result<(), EngineError> {
        // The shared-stream MAC has a single contributor per cell, so no
        // world-size soundness bound applies.
        self.run_into(out, Some(cfg.retry), |sc, out| match sc.homac_for(cfg) {
            Some(homac) => sc.allgather_attempt::<S, _>(TaggedCells(homac), mine, out, cfg),
            None => sc.allgather_attempt::<S, _>(BareCells, mine, out, cfg),
        })
    }

    /// One full allgather attempt over the current membership, its cells
    /// shipped by `codec` (the shrink-and-continue re-run target; `out` is
    /// sized to the gathered length once the counts are in, and an `out`
    /// that already has it is only overwritten).
    fn allgather_attempt<S: Scheme + 'static, K: CellCodec>(
        &mut self,
        codec: K,
        mine: &[S::Input],
        out: &mut Vec<S::Input>,
        cfg: EngineCfg,
    ) -> Result<(), EngineError> {
        let threads = SecureComm::pool_threads();
        let _span =
            hear_telemetry::span!("secure_allgather", elems = mine.len(), threads = threads);
        self.keys.advance();
        if self.world() == 1 {
            // Cells are lossless, so the local path is a plain copy.
            out.clear();
            out.extend_from_slice(mine);
            return Ok(());
        }
        let world = self.world();
        let ctl = &mut RetryCtl::new(cfg.retry);
        // Counts travel first, on their own reserved tag, so ranks with
        // uneven contributions agree on the layout (and on how many data
        // tags to reserve) before any payload moves. They travel bare (see
        // `allgather_with_into`), so the layout is checked before `out` is
        // sized by it.
        let counts_tag = self.comm.reserve_coll_tags(1);
        let mut counts = vec![0u64; world];
        let exchanged = loop {
            let tag = attempt_tag(counts_tag, 0, ctl.attempt);
            let mut chunks: Vec<Vec<u64>> = vec![Vec::new(); world];
            chunks[self.rank()].push(mine.len() as u64);
            // A count that arrives as anything but one element is a damaged
            // frame: a typed error, never a panic.
            let mut one_each = true;
            let visit = |c: usize, n: &[u64]| match n {
                [n] => counts[c] = *n,
                _ => one_each = false,
            };
            match (self.comm).try_allgather_chunks(tag, &mut chunks, visit, ctl.deadline()) {
                Ok(()) if one_each => break Ok(()),
                Ok(()) => break Err(EngineError::Verification(VerificationError)),
                Err(e) => {
                    let step = ctl.on_error(EngineError::Comm(e));
                    if let Err(err) = self.take_step(step, None) {
                        break Err(err);
                    }
                }
            }
        };
        exchanged?;
        // `try_reserve_exact` turns an allocation a lying count made
        // impossible into an error instead of an abort; with the capacity
        // already there it is free.
        let total = gathered_len::<S::Input>(&counts, self.rank(), mine.len())
            .filter(|&total| {
                out.try_reserve_exact(total.saturating_sub(out.len()))
                    .is_ok()
            })
            .ok_or(EngineError::Verification(VerificationError))?;
        out.resize(total, S::cell_decode(0));
        let mut starts: Vec<u64> = self.arena.take_vec();
        let mut at = 0u64;
        for c in &counts {
            starts.push(at);
            at += c;
        }
        let res = if total > 0 {
            let longest = counts.iter().copied().max().unwrap_or(0) as usize;
            let b = cfg.block_len(longest);
            let nrounds = longest.div_ceil(b) as u64;
            let base_tag = self.comm.reserve_coll_tags(nrounds);
            let mut cs = CellScratch::lease(&mut self.arena);
            let mut g = Gather::<S, K> {
                mine,
                b,
                room: b.min(longest),
                counts: &counts,
                starts: &starts,
                codec,
                out,
                cs: &mut cs,
            };
            let res = self.run_blocks(&mut g, nrounds, base_tag, ctl, cfg.chunk);
            cs.restore(&mut self.arena);
            res
        } else {
            Ok(())
        };
        self.arena.put_vec(starts);
        res
    }
}

/// One allgather call, cut into rounds: every rank's contribution is cut
/// into pieces of `b` cells, round `k` circulates piece `k` of each, and
/// rank `r`'s piece lands at `starts[r] + k·b` — which is also its pad (and
/// MAC) index, so every (origin, position) pair draws a distinct keystream
/// word. Each piece is opened straight into its place in `out` as the ring
/// hands it over — nothing is gathered into a buffer first — and a piece
/// that fails its MAC is still forwarded and fails the attempt.
struct Gather<'a, S: Scheme, K> {
    mine: &'a [S::Input],
    b: usize,
    /// Cells in the longest piece any rank ships in any round.
    room: usize,
    counts: &'a [u64],
    starts: &'a [u64],
    codec: K,
    out: &'a mut [S::Input],
    cs: &'a mut CellScratch,
}

impl<S: Scheme, K: CellCodec> Gather<'_, S, K> {
    /// Global index and length of rank `r`'s piece in `round`.
    fn piece(&self, r: usize, round: u64) -> (usize, usize) {
        let lo = round as usize * self.b;
        let len = (self.counts[r] as usize).saturating_sub(lo).min(self.b);
        (self.starts[r] as usize + lo, len)
    }

    /// Open rank `r`'s piece of `round` into its place in `out`, rejecting
    /// it if it fails its shared-stream MAC. This rank's own piece is
    /// copied from `mine` instead: cells are lossless, so opening the cells
    /// it sealed moments ago would only regenerate their pad (and re-check
    /// their tag) to get the same values back.
    fn open_piece(
        &mut self,
        sc: &SecureComm,
        r: usize,
        round: u64,
        piece: &[K::Cell],
    ) -> Result<(), EngineError> {
        let (g0, len) = self.piece(r, round);
        if piece.len() != len {
            // The count this rank was told disagrees with the piece that
            // came: one of the two was damaged on the way.
            return Err(EngineError::Verification(VerificationError));
        }
        if len == 0 {
            return Ok(());
        }
        let out = &mut self.out[g0..g0 + len];
        if r == sc.rank() {
            let lo = g0 - self.starts[r] as usize;
            out.clone_from_slice(&self.mine[lo..lo + len]);
            return Ok(());
        }
        self.codec
            .open::<S>(&sc.keys, g0 as u64, piece, self.cs, out)
    }
}

impl<S: Scheme, K: CellCodec> Blocks for Gather<'_, S, K> {
    type Wire = K::Cell;

    fn nchunks(&self, sc: &SecureComm) -> usize {
        sc.world()
    }

    /// Seal this rank's piece of `round` into its own slot; the ring fills
    /// the others.
    fn seal(
        &mut self,
        sc: &SecureComm,
        round: u64,
        hops: &mut [Vec<K::Cell>],
    ) -> Result<(), EngineError> {
        let rank = sc.rank();
        let (g0, len) = self.piece(rank, round);
        // A contribution shorter than `round · b` has an empty piece here.
        let lo = (g0 - self.starts[rank] as usize).min(self.mine.len());
        let sealed = &mut hops[rank];
        make_room(sealed, self.room);
        let piece = &self.mine[lo..lo + len];
        self.codec
            .seal::<S>(&sc.keys, g0 as u64, piece, self.cs, sealed);
        Ok(())
    }

    fn exchange(
        &mut self,
        sc: &SecureComm,
        round: u64,
        tag: u64,
        deadline: Option<Instant>,
        hops: &mut Vec<Vec<K::Cell>>,
    ) -> Result<(), EngineError> {
        let mut opened = Ok(());
        let open = |r: usize, piece: &[K::Cell]| {
            if opened.is_ok() {
                opened = self.open_piece(sc, r, round, piece);
            }
        };
        sc.comm.try_allgather_chunks(tag, hops, open, deadline)?;
        opened
    }

    fn post(
        &self,
        sc: &SecureComm,
        tag: u64,
        deadline: Option<Instant>,
        mut hops: Vec<Vec<K::Cell>>,
    ) -> PostedChunks<K::Cell> {
        sc.comm.post(move |comm| {
            comm.try_allgather_chunks_kept(tag, &mut hops, deadline)?;
            Ok(hops)
        })
    }

    fn open(
        &mut self,
        sc: &SecureComm,
        round: u64,
        hops: &[Vec<K::Cell>],
    ) -> Result<(), EngineError> {
        (hops.iter().enumerate()).try_for_each(|(r, piece)| self.open_piece(sc, r, round, piece))
    }
}

#[cfg(test)]
mod tests {
    use super::gathered_len;

    #[test]
    fn impossible_allgather_layouts_are_rejected() {
        assert_eq!(gathered_len::<u32>(&[5, 6, 7], 1, 6), Some(18));
        assert_eq!(gathered_len::<u32>(&[5, 7, 7], 1, 6), None, "own count");
        assert_eq!(gathered_len::<u32>(&[u64::MAX, 2, 0], 2, 0), None, "sum");
        let huge = 1u64 << 61;
        assert_eq!(gathered_len::<u8>(&[huge, 0], 1, 0), Some(huge as usize));
        assert_eq!(gathered_len::<u32>(&[huge, 0], 1, 0), None, "bytes");
    }
}

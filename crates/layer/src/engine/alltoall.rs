//! Encrypted all-to-all on the single-origin cell transport.
//!
//! Every rank contributes `world` equal-length chunks (flattened into one
//! slice) and receives the transposed set: output chunk `src` is the chunk
//! rank `src` addressed to this rank. No combine happens, so elements ride
//! as lossless XOR-padded `u64` cells — the pad word for the element `j` of
//! the `(src → dst)` chunk is collective-keystream word
//! `(src·world + dst)·L + j`, a coordinate space disjoint across ordered
//! pairs, so no pad word is ever drawn twice within an epoch. Verified mode
//! attaches a shared-stream HoMAC tag per cell at the same coordinate
//! offset by `DIGEST_BASE`.

use super::cfg::{EngineCfg, EngineError};
use super::driver::Blocks;
use super::make_room;
use super::packet::{BareCells, CellCodec, CellScratch, TaggedCells};
use super::retry::RetryCtl;
use super::PostedChunks;
use crate::secure::SecureComm;
use hear_core::Scheme;
use std::time::Instant;

impl SecureComm {
    /// Encrypted all-to-all: `data` holds `world` equal-length chunks
    /// back to back (chunk `dst` goes to rank `dst`); the result holds
    /// the received chunks in source-rank order. Bit-for-bit lossless for
    /// every scheme — `scheme` picks the cell codec only.
    pub fn alltoall_with<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        cfg: EngineCfg,
    ) -> Result<Vec<S::Input>, EngineError> {
        let mut out = Vec::new();
        self.alltoall_with_into(scheme, data, &mut out, cfg)?;
        Ok(out)
    }

    /// [`SecureComm::alltoall_with`] writing into a caller-provided
    /// vector. The layout is identical across chunk modes: the chunk from
    /// rank `src` occupies `src·L .. (src+1)·L` (rounds overwrite their
    /// slice of each chunk in place). On `Err`, `out` is empty (capacity
    /// kept), as for [`SecureComm::allreduce_with_into`]. The alltoall
    /// never reconfigures membership — its input is cut for the world it
    /// was called in — so under
    /// [`PeerDeadPolicy::ShrinkAndContinue`](super::cfg::PeerDeadPolicy)
    /// a dead member fails it with a typed error, as under the default
    /// policy.
    pub fn alltoall_with_into<S: Scheme + 'static>(
        &mut self,
        _scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        cfg: EngineCfg,
    ) -> Result<(), EngineError> {
        self.run_into(out, None, |sc, out| match sc.homac_for(cfg) {
            Some(homac) => sc.alltoall_attempt::<S, _>(TaggedCells(homac), data, out, cfg),
            None => sc.alltoall_attempt::<S, _>(BareCells, data, out, cfg),
        })
    }

    fn alltoall_attempt<S: Scheme + 'static, K: CellCodec>(
        &mut self,
        codec: K,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        cfg: EngineCfg,
    ) -> Result<(), EngineError> {
        let world = self.world();
        assert!(
            data.len() % world == 0,
            "alltoall requires one equal-length chunk per rank"
        );
        let l = data.len() / world;
        let threads = SecureComm::pool_threads();
        let _span = hear_telemetry::span!("secure_alltoall", elems = data.len(), threads = threads);
        self.keys.advance();
        if world == 1 || l == 0 {
            // The transpose is the identity.
            out.clear();
            out.extend_from_slice(data);
            return Ok(());
        }
        // The rounds overwrite every slice, the own chunk's included.
        out.resize(data.len(), S::cell_decode(0));
        let b = cfg.block_len(l);
        let nrounds = l.div_ceil(b) as u64;
        let base_tag = self.comm.reserve_coll_tags(nrounds);
        let ctl = &mut RetryCtl::new(cfg.retry);
        let mut cs = CellScratch::lease(&mut self.arena);
        let mut pairs = Pairs::<S, K> {
            data,
            out,
            l,
            b,
            codec,
            cs: &mut cs,
        };
        let res = self.run_blocks(&mut pairs, nrounds, base_tag, ctl, cfg.chunk);
        cs.restore(&mut self.arena);
        res
    }
}

/// One alltoall call, cut into rounds: round `k` exchanges elements
/// `k·b .. (k+1)·b` of every `l`-element chunk, pairwise, and decodes each
/// source's slice into its place in `out`.
struct Pairs<'a, S: Scheme, K> {
    data: &'a [S::Input],
    out: &'a mut [S::Input],
    l: usize,
    b: usize,
    codec: K,
    cs: &'a mut CellScratch,
}

impl<S: Scheme, K> Pairs<'_, S, K> {
    /// The slice `lo..hi` of every chunk that `round` moves.
    fn slice(&self, round: u64) -> (usize, usize) {
        let lo = round as usize * self.b;
        (lo, (lo + self.b).min(self.l))
    }

    /// Pad-space coordinate of element `lo` of the `(src → dst)` chunk.
    fn first(&self, src: usize, dst: usize, world: usize, lo: usize) -> u64 {
        ((src * world + dst) * self.l + lo) as u64
    }
}

impl<S: Scheme, K: CellCodec> Blocks for Pairs<'_, S, K> {
    type Wire = K::Cell;

    fn nchunks(&self, sc: &SecureComm) -> usize {
        sc.world()
    }

    /// Seal the round's slice of every destination chunk, one vector each.
    fn seal(
        &mut self,
        sc: &SecureComm,
        round: u64,
        to: &mut [Vec<K::Cell>],
    ) -> Result<(), EngineError> {
        let (lo, hi) = self.slice(round);
        for (dst, sealed) in to.iter_mut().enumerate() {
            let first = self.first(sc.rank(), dst, sc.world(), lo);
            let piece = &self.data[dst * self.l + lo..dst * self.l + hi];
            make_room(sealed, hi - lo);
            self.codec
                .seal::<S>(&sc.keys, first, piece, self.cs, sealed);
        }
        Ok(())
    }

    fn exchange(
        &mut self,
        sc: &SecureComm,
        round: u64,
        tag: u64,
        deadline: Option<Instant>,
        chunks: &mut Vec<Vec<K::Cell>>,
    ) -> Result<(), EngineError> {
        let to = std::mem::take(chunks);
        *chunks = sc.comm.try_alltoall_tagged(tag, to, deadline)?;
        self.open(sc, round, chunks)
    }

    fn post(
        &self,
        sc: &SecureComm,
        tag: u64,
        deadline: Option<Instant>,
        to: Vec<Vec<K::Cell>>,
    ) -> PostedChunks<K::Cell> {
        sc.comm
            .post(move |comm| comm.try_alltoall_tagged(tag, to, deadline))
    }

    /// Decode every source's slice into its place in `out`; rejects the
    /// round if any fails its MAC.
    fn open(
        &mut self,
        sc: &SecureComm,
        round: u64,
        from: &[Vec<K::Cell>],
    ) -> Result<(), EngineError> {
        let (lo, hi) = self.slice(round);
        for (src, cells) in from.iter().enumerate() {
            let first = self.first(src, sc.rank(), sc.world(), lo);
            let out = &mut self.out[src * self.l + lo..src * self.l + hi];
            self.codec.open::<S>(&sc.keys, first, cells, self.cs, out)?;
        }
        Ok(())
    }
}

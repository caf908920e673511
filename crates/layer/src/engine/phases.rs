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
//! one hop loop in `hear_mpi`, so the three can never drift apart.

use super::cfg::{ChunkMode, EngineCfg, EngineError};
use super::packet::{
    open_block, open_cells, open_cells_tagged, packet_op, seal_block, seal_cells,
    seal_cells_tagged, CellScratch, SchemePacket, VerifyScratch,
};
use super::retry::{attempt_tag, RetryCtl, Step};
use super::DEPTH;
use crate::secure::{SecureComm, Tagged};
use hear_core::{Homac, Scheme};
use hear_mpi::{CommError, Request};
use std::collections::VecDeque;

/// Bounds `(start, end)` of rank `r`'s reduce-scatter share of an
/// `n`-element block — the same chunking as
/// [`hear_mpi::ring_chunk_bounds`], computed without the per-rank vector.
fn share_bounds(n: usize, world: usize, r: usize) -> (usize, usize) {
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
    /// paths, like the other `*_into` entry points: the staging vectors
    /// are arena leases, and the ring hands the share back as its trimmed
    /// accumulator, so the wire buffer keeps the whole block's capacity
    /// from call to call (`tests/matrix.rs` counts both). Under
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
        match (cfg.chunk, homac) {
            (ChunkMode::Pipelined(_), None) => {
                self.rs_plain_pipelined(scheme, data, out, block, base_tag, &mut ctl)
            }
            (ChunkMode::Pipelined(_), Some(h)) => {
                self.rs_verified_pipelined(scheme, data, out, block, base_tag, &mut ctl, &h)
            }
            (_, None) => self.rs_plain_sync(scheme, data, out, block, base_tag, &mut ctl),
            (_, Some(h)) => self.rs_verified_sync(scheme, data, out, block, base_tag, &mut ctl, &h),
        }
    }

    /// One plain reduce-scatter block with the attempt loop: mask the
    /// whole block → ring reduce-scatter → unmask this rank's share at
    /// its global offset, appending to `out`.
    #[allow(clippy::too_many_arguments)]
    fn rs_plain_block_sync<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        offset: usize,
        block_idx: u64,
        base_tag: u64,
        ctl: &mut RetryCtl,
        wire: &mut Vec<S::Wire>,
        seg: &mut Vec<S::Wire>,
    ) -> Result<(), EngineError> {
        let end = (offset + block).min(data.len());
        let (s_r, _) = share_bounds(end - offset, self.world(), self.rank());
        loop {
            scheme.mask_slice(&self.keys, offset as u64, &data[offset..end], wire)?;
            let tag = attempt_tag(base_tag, block_idx, ctl.attempt);
            let deadline = ctl.deadline();
            match self.comm.try_reduce_scatter_tagged_with_seg(
                tag,
                std::mem::take(wire),
                S::op,
                seg,
                deadline,
            ) {
                Ok(share) => {
                    scheme.unmask_extend(&self.keys, (offset + s_r) as u64, &share, out);
                    *wire = share;
                    return Ok(());
                }
                Err(e) => ring_step(ctl.on_error(EngineError::Comm(e)))?,
            }
        }
    }

    fn rs_plain_sync<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        base_tag: u64,
        ctl: &mut RetryCtl,
    ) -> Result<(), EngineError> {
        let mut wire: Vec<S::Wire> = self.arena.take_vec();
        let mut seg: Vec<S::Wire> = self.arena.take_vec();
        let mut failed = None;
        let (mut offset, mut block_idx) = (0usize, 0u64);
        while offset < data.len() {
            if let Err(e) = self.rs_plain_block_sync(
                scheme, data, out, block, offset, block_idx, base_tag, ctl, &mut wire, &mut seg,
            ) {
                failed = Some(e);
                break;
            }
            offset = (offset + block).min(data.len());
            block_idx += 1;
        }
        self.arena.put_vec(wire);
        self.arena.put_vec(seg);
        failed.map_or(Ok(()), Err)
    }

    #[allow(clippy::too_many_arguments)]
    fn rs_plain_pipelined<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        base_tag: u64,
        ctl: &mut RetryCtl,
    ) -> Result<(), EngineError> {
        #[allow(clippy::type_complexity)]
        let mut inflight: VecDeque<(usize, u64, Request<Result<Vec<S::Wire>, CommError>>)> =
            VecDeque::with_capacity(DEPTH);
        let mut wire: Vec<S::Wire> = self.arena.take_vec();
        let mut seg: Vec<S::Wire> = self.arena.take_vec();
        let mut failed = None;
        let (mut offset, mut block_idx) = (0usize, 0u64);
        let drain = |sc: &mut Self,
                     scheme: &mut S,
                     o: usize,
                     bi: u64,
                     req: Request<Result<Vec<S::Wire>, CommError>>,
                     ctl: &mut RetryCtl,
                     wire: &mut Vec<S::Wire>,
                     seg: &mut Vec<S::Wire>,
                     out: &mut Vec<S::Input>|
         -> Result<(), EngineError> {
            let res = {
                let _w = hear_telemetry::span!("pipeline_wait", offset = o);
                req.wait()
            };
            hear_telemetry::gauge_add(hear_telemetry::Gauge::PipelineInFlight, -1);
            match res {
                Ok(share) => {
                    let end = (o + block).min(data.len());
                    let (s_r, _) = share_bounds(end - o, sc.world(), sc.rank());
                    scheme.unmask_extend(&sc.keys, (o + s_r) as u64, &share, out);
                    *wire = share;
                    Ok(())
                }
                Err(e) => {
                    ring_step(ctl.on_error(EngineError::Comm(e)))?;
                    sc.rs_plain_block_sync(
                        scheme, data, out, block, o, bi, base_tag, ctl, wire, seg,
                    )
                }
            }
        };
        while offset < data.len() {
            let end = (offset + block).min(data.len());
            if let Err(e) =
                scheme.mask_block(&self.keys, offset as u64, &data[offset..end], &mut wire)
            {
                failed = Some(EngineError::from(e));
                break;
            }
            hear_telemetry::incr(hear_telemetry::Metric::PipelineBlocks);
            hear_telemetry::gauge_add(hear_telemetry::Gauge::PipelineInFlight, 1);
            let tag = attempt_tag(base_tag, block_idx, ctl.attempt);
            let deadline = ctl.deadline();
            inflight.push_back((
                offset,
                block_idx,
                self.comm.try_ireduce_scatter_tagged(
                    tag,
                    std::mem::take(&mut wire),
                    S::op,
                    deadline,
                ),
            ));
            if inflight.len() >= DEPTH {
                let (o, bi, req) = inflight.pop_front().expect("non-empty");
                if let Err(e) = drain(self, scheme, o, bi, req, ctl, &mut wire, &mut seg, out) {
                    failed = Some(e);
                    break;
                }
            }
            offset = end;
            block_idx += 1;
        }
        if failed.is_none() {
            while let Some((o, bi, req)) = inflight.pop_front() {
                if let Err(e) = drain(self, scheme, o, bi, req, ctl, &mut wire, &mut seg, out) {
                    failed = Some(e);
                    break;
                }
            }
        }
        self.arena.put_vec(wire);
        self.arena.put_vec(seg);
        failed.map_or(Ok(()), Err)
    }

    /// One verified reduce-scatter block: seal the whole block (digest
    /// lanes at global indices), ring-reduce the packets, then open this
    /// rank's share at its share offset — the per-element digest PRF
    /// indices line up because they are functions of the global element
    /// index alone.
    #[allow(clippy::too_many_arguments)]
    fn rs_verified_block_sync<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        homac: &Homac,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        offset: usize,
        block_idx: u64,
        base_tag: u64,
        ctl: &mut RetryCtl,
        vs: &mut VerifyScratch<S>,
        seg: &mut Vec<SchemePacket<S>>,
    ) -> Result<(), EngineError> {
        let world = self.world();
        let end = (offset + block).min(data.len());
        let (s_r, _) = share_bounds(end - offset, world, self.rank());
        loop {
            seal_block(scheme, homac, &self.keys, offset, &data[offset..end], vs)?;
            let tag = attempt_tag(base_tag, block_idx, ctl.attempt);
            let deadline = ctl.deadline();
            let step = match self.comm.try_reduce_scatter_tagged_with_seg(
                tag,
                std::mem::take(&mut vs.packets),
                packet_op::<S>,
                seg,
                deadline,
            ) {
                Ok(agg) => {
                    match open_block(scheme, homac, &self.keys, world, offset + s_r, &agg, vs) {
                        Ok(()) => {
                            out.extend_from_slice(&vs.dec);
                            vs.packets = agg;
                            return Ok(());
                        }
                        Err(e) => ctl.on_error(e),
                    }
                }
                Err(e) => ctl.on_error(EngineError::Comm(e)),
            };
            ring_step(step)?;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn rs_verified_sync<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        base_tag: u64,
        ctl: &mut RetryCtl,
        homac: &Homac,
    ) -> Result<(), EngineError> {
        let mut vs = VerifyScratch::<S>::lease(&mut self.arena);
        let mut seg: Vec<SchemePacket<S>> = self.arena.take_vec();
        let mut failed = None;
        let (mut offset, mut block_idx) = (0usize, 0u64);
        while offset < data.len() {
            if let Err(e) = self.rs_verified_block_sync(
                scheme, homac, data, out, block, offset, block_idx, base_tag, ctl, &mut vs,
                &mut seg,
            ) {
                failed = Some(e);
                break;
            }
            offset = (offset + block).min(data.len());
            block_idx += 1;
        }
        vs.restore(&mut self.arena);
        self.arena.put_vec(seg);
        failed.map_or(Ok(()), Err)
    }

    #[allow(clippy::too_many_arguments)]
    fn rs_verified_pipelined<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        base_tag: u64,
        ctl: &mut RetryCtl,
        homac: &Homac,
    ) -> Result<(), EngineError> {
        #[allow(clippy::type_complexity)]
        let mut inflight: VecDeque<(
            usize,
            u64,
            Request<Result<Vec<SchemePacket<S>>, CommError>>,
        )> = VecDeque::with_capacity(DEPTH);
        let mut vs = VerifyScratch::<S>::lease(&mut self.arena);
        let mut seg: Vec<SchemePacket<S>> = self.arena.take_vec();
        let mut failed = None;
        let (mut offset, mut block_idx) = (0usize, 0u64);
        let world = self.world();
        let rank = self.rank();
        let drain = |sc: &mut Self,
                     scheme: &mut S,
                     o: usize,
                     bi: u64,
                     req: Request<Result<Vec<SchemePacket<S>>, CommError>>,
                     ctl: &mut RetryCtl,
                     vs: &mut VerifyScratch<S>,
                     seg: &mut Vec<SchemePacket<S>>,
                     out: &mut Vec<S::Input>|
         -> Result<(), EngineError> {
            let res = {
                let _w = hear_telemetry::span!("pipeline_wait", offset = o);
                req.wait()
            };
            hear_telemetry::gauge_add(hear_telemetry::Gauge::PipelineInFlight, -1);
            let end = (o + block).min(data.len());
            let (s_r, _) = share_bounds(end - o, world, rank);
            let step = match res {
                Ok(agg) => match open_block(scheme, homac, &sc.keys, world, o + s_r, &agg, vs) {
                    Ok(()) => {
                        out.extend_from_slice(&vs.dec);
                        vs.packets = agg;
                        return Ok(());
                    }
                    Err(e) => ctl.on_error(e),
                },
                Err(e) => ctl.on_error(EngineError::Comm(e)),
            };
            ring_step(step)?;
            sc.rs_verified_block_sync(
                scheme, homac, data, out, block, o, bi, base_tag, ctl, vs, seg,
            )
        };
        while offset < data.len() {
            let end = (offset + block).min(data.len());
            if let Err(e) = seal_block(
                scheme,
                homac,
                &self.keys,
                offset,
                &data[offset..end],
                &mut vs,
            ) {
                failed = Some(e);
                break;
            }
            hear_telemetry::incr(hear_telemetry::Metric::PipelineBlocks);
            hear_telemetry::gauge_add(hear_telemetry::Gauge::PipelineInFlight, 1);
            let tag = attempt_tag(base_tag, block_idx, ctl.attempt);
            let deadline = ctl.deadline();
            inflight.push_back((
                offset,
                block_idx,
                self.comm.try_ireduce_scatter_tagged(
                    tag,
                    std::mem::take(&mut vs.packets),
                    packet_op::<S>,
                    deadline,
                ),
            ));
            if inflight.len() >= DEPTH {
                let (o, bi, req) = inflight.pop_front().expect("non-empty");
                if let Err(e) = drain(self, scheme, o, bi, req, ctl, &mut vs, &mut seg, out) {
                    failed = Some(e);
                    break;
                }
            }
            offset = end;
            block_idx += 1;
        }
        if failed.is_none() {
            while let Some((o, bi, req)) = inflight.pop_front() {
                if let Err(e) = drain(self, scheme, o, bi, req, ctl, &mut vs, &mut seg, out) {
                    failed = Some(e);
                    break;
                }
            }
        }
        vs.restore(&mut self.arena);
        self.arena.put_vec(seg);
        failed.map_or(Ok(()), Err)
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
        let mut cseg: Vec<u64> = self.arena.take_vec();
        let mut ones: Vec<usize> = self.arena.take_vec();
        ones.clear();
        ones.resize(world, 1);
        let counts: Vec<u64> = loop {
            let tag = attempt_tag(counts_tag, 0, ctl.attempt);
            let deadline = ctl.deadline();
            match self.comm.try_allgather_tagged_with_seg(
                tag,
                vec![mine.len() as u64],
                &ones,
                &mut cseg,
                deadline,
            ) {
                Ok(c) => break c,
                Err(e) => {
                    if let Err(err) = ring_step(ctl.on_error(EngineError::Comm(e))) {
                        self.arena.put_vec(cseg);
                        self.arena.put_vec(ones);
                        return Err(err);
                    }
                }
            }
        };
        self.arena.put_vec(cseg);
        self.arena.put_vec(ones);
        let mut starts: Vec<u64> = self.arena.take_vec();
        starts.clear();
        let mut total = 0u64;
        for c in &counts {
            starts.push(total);
            total += c;
        }
        if total == 0 {
            self.arena.put_vec(starts);
            return Ok(());
        }
        let b = match cfg.chunk {
            ChunkMode::Sync => counts.iter().copied().max().unwrap_or(0).max(1) as usize,
            ChunkMode::Blocked(x) | ChunkMode::Pipelined(x) => {
                assert!(x > 0, "block size must be positive");
                x
            }
        };
        let nrounds = counts
            .iter()
            .map(|c| c.div_ceil(b as u64))
            .max()
            .unwrap_or(1)
            .max(1);
        let base_tag = self.comm.reserve_coll_tags(nrounds);
        out.resize(total as usize, S::cell_decode(0));
        let pipelined = matches!(cfg.chunk, ChunkMode::Pipelined(_));
        let res = self.ag_rounds::<S>(
            mine,
            out,
            b,
            nrounds,
            base_tag,
            &mut ctl,
            &counts,
            &starts,
            homac.as_ref(),
            pipelined,
        );
        self.arena.put_vec(starts);
        res
    }

    /// Run the allgather rounds: sequential when `pipelined` is false,
    /// otherwise up to [`DEPTH`] rounds posted nonblocking with FIFO
    /// drain (failed posts fall back to the synchronous round, which
    /// retries per the policy).
    #[allow(clippy::too_many_arguments)]
    fn ag_rounds<S: Scheme + 'static>(
        &mut self,
        mine: &[S::Input],
        out: &mut [S::Input],
        b: usize,
        nrounds: u64,
        base_tag: u64,
        ctl: &mut RetryCtl,
        counts: &[u64],
        starts: &[u64],
        homac: Option<&Homac>,
        pipelined: bool,
    ) -> Result<(), EngineError> {
        let mut cs = CellScratch::lease(&mut self.arena);
        let mut seg: Vec<u64> = self.arena.take_vec();
        let mut tseg: Vec<Tagged<u64>> = self.arena.take_vec();
        let mut rcounts: Vec<usize> = self.arena.take_vec();
        let mut failed = None;
        if pipelined {
            failed = self
                .ag_rounds_pipelined::<S>(
                    mine,
                    out,
                    b,
                    nrounds,
                    base_tag,
                    ctl,
                    counts,
                    starts,
                    homac,
                    &mut cs,
                    &mut seg,
                    &mut tseg,
                    &mut rcounts,
                )
                .err();
        } else {
            for k in 0..nrounds {
                if let Err(e) = self.ag_round_sync::<S>(
                    mine,
                    out,
                    b,
                    k,
                    base_tag,
                    ctl,
                    counts,
                    starts,
                    homac,
                    &mut cs,
                    &mut seg,
                    &mut tseg,
                    &mut rcounts,
                ) {
                    failed = Some(e);
                    break;
                }
            }
        }
        cs.restore(&mut self.arena);
        self.arena.put_vec(seg);
        self.arena.put_vec(tseg);
        self.arena.put_vec(rcounts);
        failed.map_or(Ok(()), Err)
    }

    /// One allgather round, synchronously, with the attempt loop.
    #[allow(clippy::too_many_arguments)]
    fn ag_round_sync<S: Scheme + 'static>(
        &mut self,
        mine: &[S::Input],
        out: &mut [S::Input],
        b: usize,
        round: u64,
        base_tag: u64,
        ctl: &mut RetryCtl,
        counts: &[u64],
        starts: &[u64],
        homac: Option<&Homac>,
        cs: &mut CellScratch,
        seg: &mut Vec<u64>,
        tseg: &mut Vec<Tagged<u64>>,
        rcounts: &mut Vec<usize>,
    ) -> Result<(), EngineError> {
        let _world = self.world();
        let rank = self.rank();
        let lo = round as usize * b;
        rcounts.clear();
        rcounts.extend(
            counts
                .iter()
                .map(|c| (*c as usize).saturating_sub(lo).min(b)),
        );
        let piece = &mine[lo.min(mine.len())..(lo + b).min(mine.len())];
        let first = starts[rank] + lo as u64;
        loop {
            let tag = attempt_tag(base_tag, round, ctl.attempt);
            let deadline = ctl.deadline();
            let step = if let Some(h) = homac {
                seal_cells_tagged::<S>(&self.keys, h, first, piece, cs);
                match self.comm.try_allgather_tagged_with_seg(
                    tag,
                    std::mem::take(&mut cs.tagged),
                    rcounts,
                    tseg,
                    deadline,
                ) {
                    Ok(gathered) => {
                        match open_gathered_tagged::<S>(
                            &self.keys, h, &gathered, lo, rcounts, starts, cs, out,
                        ) {
                            Ok(()) => {
                                cs.tagged = gathered;
                                return Ok(());
                            }
                            Err(e) => ctl.on_error(e),
                        }
                    }
                    Err(e) => ctl.on_error(EngineError::Comm(e)),
                }
            } else {
                seal_cells::<S>(&self.keys, first, piece, cs);
                match self.comm.try_allgather_tagged_with_seg(
                    tag,
                    std::mem::take(&mut cs.cells),
                    rcounts,
                    seg,
                    deadline,
                ) {
                    Ok(gathered) => {
                        open_gathered::<S>(&self.keys, &gathered, lo, rcounts, starts, cs, out);
                        cs.cells = gathered;
                        return Ok(());
                    }
                    Err(e) => ctl.on_error(EngineError::Comm(e)),
                }
            };
            ring_step(step)?;
        }
    }

    /// Pipelined allgather rounds: posts carry owned copies of the round's
    /// cells and counts; drains scatter into place (order-independent) and
    /// fall back to [`SecureComm::ag_round_sync`] on failure.
    #[allow(clippy::too_many_arguments)]
    fn ag_rounds_pipelined<S: Scheme + 'static>(
        &mut self,
        mine: &[S::Input],
        out: &mut [S::Input],
        b: usize,
        nrounds: u64,
        base_tag: u64,
        ctl: &mut RetryCtl,
        counts: &[u64],
        starts: &[u64],
        homac: Option<&Homac>,
        cs: &mut CellScratch,
        seg: &mut Vec<u64>,
        tseg: &mut Vec<Tagged<u64>>,
        rcounts: &mut Vec<usize>,
    ) -> Result<(), EngineError> {
        enum Post {
            Plain(Request<Result<Vec<u64>, CommError>>),
            Tagged(Request<Result<Vec<Tagged<u64>>, CommError>>),
        }
        let rank = self.rank();
        let mut inflight: VecDeque<(u64, Post)> = VecDeque::with_capacity(DEPTH);
        let drain = |sc: &mut Self,
                     round: u64,
                     post: Post,
                     ctl: &mut RetryCtl,
                     cs: &mut CellScratch,
                     seg: &mut Vec<u64>,
                     tseg: &mut Vec<Tagged<u64>>,
                     rcounts: &mut Vec<usize>,
                     out: &mut [S::Input]|
         -> Result<(), EngineError> {
            let lo = round as usize * b;
            rcounts.clear();
            rcounts.extend(
                counts
                    .iter()
                    .map(|c| (*c as usize).saturating_sub(lo).min(b)),
            );
            hear_telemetry::gauge_add(hear_telemetry::Gauge::PipelineInFlight, -1);
            let step = match post {
                Post::Plain(req) => match req.wait() {
                    Ok(gathered) => {
                        open_gathered::<S>(&sc.keys, &gathered, lo, rcounts, starts, cs, out);
                        cs.cells = gathered;
                        return Ok(());
                    }
                    Err(e) => ctl.on_error(EngineError::Comm(e)),
                },
                Post::Tagged(req) => match req.wait() {
                    Ok(gathered) => match open_gathered_tagged::<S>(
                        &sc.keys,
                        homac.expect("tagged post implies homac"),
                        &gathered,
                        lo,
                        rcounts,
                        starts,
                        cs,
                        out,
                    ) {
                        Ok(()) => {
                            cs.tagged = gathered;
                            return Ok(());
                        }
                        Err(e) => ctl.on_error(e),
                    },
                    Err(e) => ctl.on_error(EngineError::Comm(e)),
                },
            };
            ring_step(step)?;
            sc.ag_round_sync::<S>(
                mine, out, b, round, base_tag, ctl, counts, starts, homac, cs, seg, tseg, rcounts,
            )
        };
        let mut failed = None;
        for round in 0..nrounds {
            let lo = round as usize * b;
            let piece = &mine[lo.min(mine.len())..(lo + b).min(mine.len())];
            let first = starts[rank] + lo as u64;
            let round_counts: Vec<usize> = counts
                .iter()
                .map(|c| (*c as usize).saturating_sub(lo).min(b))
                .collect();
            hear_telemetry::incr(hear_telemetry::Metric::PipelineBlocks);
            hear_telemetry::gauge_add(hear_telemetry::Gauge::PipelineInFlight, 1);
            let tag = attempt_tag(base_tag, round, ctl.attempt);
            let deadline = ctl.deadline();
            let post = if let Some(h) = homac {
                seal_cells_tagged::<S>(&self.keys, h, first, piece, cs);
                Post::Tagged(self.comm.try_iallgather_tagged(
                    tag,
                    std::mem::take(&mut cs.tagged),
                    round_counts,
                    deadline,
                ))
            } else {
                seal_cells::<S>(&self.keys, first, piece, cs);
                Post::Plain(self.comm.try_iallgather_tagged(
                    tag,
                    std::mem::take(&mut cs.cells),
                    round_counts,
                    deadline,
                ))
            };
            inflight.push_back((round, post));
            if inflight.len() >= DEPTH {
                let (r, post) = inflight.pop_front().expect("non-empty");
                if let Err(e) = drain(self, r, post, ctl, cs, seg, tseg, rcounts, out) {
                    failed = Some(e);
                    break;
                }
            }
        }
        if failed.is_none() {
            while let Some((r, post)) = inflight.pop_front() {
                if let Err(e) = drain(self, r, post, ctl, cs, seg, tseg, rcounts, out) {
                    failed = Some(e);
                    break;
                }
            }
        }
        failed.map_or(Ok(()), Err)
    }
}

/// Scatter one gathered plain round into the output: rank `r`'s piece
/// lands at `starts[r] + lo`, unpadded at its global pad indices.
fn open_gathered<S: Scheme>(
    keys: &hear_core::CommKeys,
    gathered: &[u64],
    lo: usize,
    rcounts: &[usize],
    starts: &[u64],
    cs: &mut CellScratch,
    out: &mut [S::Input],
) {
    let mut pos = 0usize;
    for (r, cnt) in rcounts.iter().enumerate() {
        if *cnt == 0 {
            continue;
        }
        let g0 = starts[r] as usize + lo;
        open_cells::<S>(
            keys,
            g0 as u64,
            &gathered[pos..pos + cnt],
            cs,
            &mut out[g0..g0 + cnt],
        );
        pos += cnt;
    }
}

/// Scatter one gathered verified round into the output, rejecting the
/// round if any rank's segment fails its shared-stream MAC.
#[allow(clippy::too_many_arguments)]
fn open_gathered_tagged<S: Scheme>(
    keys: &hear_core::CommKeys,
    homac: &Homac,
    gathered: &[Tagged<u64>],
    lo: usize,
    rcounts: &[usize],
    starts: &[u64],
    cs: &mut CellScratch,
    out: &mut [S::Input],
) -> Result<(), EngineError> {
    let mut pos = 0usize;
    for (r, cnt) in rcounts.iter().enumerate() {
        if *cnt == 0 {
            continue;
        }
        let g0 = starts[r] as usize + lo;
        open_cells_tagged::<S>(
            keys,
            homac,
            g0 as u64,
            &gathered[pos..pos + cnt],
            cs,
            &mut out[g0..g0 + cnt],
        )?;
        pos += cnt;
    }
    Ok(())
}

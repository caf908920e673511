//! The fused allreduce entry point and its four chunk-mode runners.
//!
//! On [`ReduceAlgo::Ring`] the transport underneath is literally
//! reduce-scatter followed by allgather — one shared hop loop in
//! `hear_mpi` drives both phases — so this entry point and the factored
//! [`SecureComm::reduce_scatter_with`] /
//! [`SecureComm::allgather_with`](crate::secure::SecureComm) pair can
//! never drift apart.

use super::cfg::{ChunkMode, EngineCfg, EngineError};
use super::packet::{open_block, packet_op, seal_block, SchemePacket, VerifyScratch};
use super::retry::{attempt_tag, RetryCtl, Step};
use super::DEPTH;
use crate::secure::{ReduceAlgo, SecureComm};
use hear_core::{Homac, Scheme};
use hear_mpi::{CommError, Request};
use std::collections::VecDeque;

impl SecureComm {
    /// The generic secured allreduce: any [`Scheme`] × any [`ReduceAlgo`] ×
    /// any [`ChunkMode`] × optional verification. Every legacy
    /// `allreduce_*` method is a shim over this, and
    /// [`SecureComm::pmpi_allreduce`] routes runtime-typed calls here.
    pub fn allreduce_with<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        cfg: EngineCfg,
    ) -> Result<Vec<S::Input>, EngineError> {
        let mut out = Vec::new();
        self.allreduce_with_into(scheme, data, &mut out, cfg)?;
        Ok(out)
    }

    /// [`SecureComm::allreduce_with`] writing into a caller-provided
    /// vector. `out` is cleared and filled with the aggregate — blocks are
    /// unmasked straight into it as they drain, in order — and its capacity
    /// is reused across calls, which makes the integer and float hot
    /// paths free of heap allocation in steady state (the staging buffers
    /// come from the arena, the output from the caller). On `Err`, `out`
    /// is empty (capacity kept): never the caller's input, never a prefix
    /// of a result. Under
    /// [`PeerDeadPolicy::ShrinkAndContinue`](super::cfg::PeerDeadPolicy)
    /// a dead member triggers membership reconfiguration and a re-run
    /// over the survivors (see [`super::membership`]).
    pub fn allreduce_with_into<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        cfg: EngineCfg,
    ) -> Result<(), EngineError> {
        self.with_shrink(cfg.retry, |sc| sc.allreduce_attempt(scheme, data, out, cfg))
            .inspect_err(|_| out.clear())
    }

    /// One full attempt of the fused allreduce over the *current*
    /// membership. [`SecureComm::allreduce_with_into`] (the public
    /// wrapper in [`super::membership`]) re-runs this after a
    /// shrink-and-continue reconfiguration; `out` is cleared at entry so
    /// a re-run starts from a clean slate.
    pub(crate) fn allreduce_attempt<S: Scheme + 'static>(
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
        // The span mirrors the legacy per-method instrumentation: the
        // Fig. 6 baseline (`Blocked`) intentionally ran unspanned.
        let _span = match cfg.chunk {
            ChunkMode::Pipelined(b) => Some(hear_telemetry::span!(
                "pipeline",
                elems = data.len(),
                block = b
            )),
            ChunkMode::Sync if cfg.verified => Some(hear_telemetry::span!(
                "secure_allreduce_verified",
                elems = data.len()
            )),
            ChunkMode::Sync => Some(hear_telemetry::span!(
                "secure_allreduce",
                elems = data.len()
            )),
            ChunkMode::Blocked(_) => None,
        };
        let homac = cfg.verified.then(|| self.verified_homac::<S>());
        self.keys.advance();
        out.clear();
        if data.is_empty() {
            return Ok(());
        }
        self.submit_prefetch(scheme.noise_width(), data.len(), block);
        if self.world() == 1 {
            // Nothing crosses the network: mask/unmask locally so every
            // algorithm (even Switch without a switch fabric) degenerates
            // to the identity, and verification has nothing to check.
            return self.run_local(scheme, data, out);
        }
        // Tags for the whole epoch are reserved up front so retries and
        // degraded re-runs stay inside this call's tag block: block `b`,
        // attempt `a` runs on `base + b·256 + a·8` on every rank.
        let nblocks = (data.len() as u64).div_ceil(block as u64);
        let base_tag = self.comm.reserve_coll_tags(nblocks);
        let mut algo = cfg.algo.unwrap_or(self.algo);
        if algo == ReduceAlgo::Switch && self.degraded {
            // A previous epoch lost the switch tree: stay on the host
            // ring instead of re-probing a dead fabric every call.
            algo = ReduceAlgo::Ring;
            hear_telemetry::incr(hear_telemetry::Metric::DegradedEpochs);
        }
        let mut ctl = RetryCtl::new(cfg.retry);
        match (cfg.chunk, homac) {
            (ChunkMode::Pipelined(_), None) => {
                self.run_plain_pipelined(scheme, data, out, block, &mut algo, base_tag, &mut ctl)
            }
            (ChunkMode::Pipelined(_), Some(h)) => self.run_verified_pipelined(
                scheme, data, out, block, &mut algo, base_tag, &mut ctl, &h,
            ),
            (_, None) => {
                self.run_plain_sync(scheme, data, out, block, &mut algo, base_tag, &mut ctl)
            }
            (_, Some(h)) => {
                self.run_verified_sync(scheme, data, out, block, &mut algo, base_tag, &mut ctl, &h)
            }
        }
    }

    /// One plain block, synchronously, with the attempt loop: mask →
    /// transport → unmask onto the end of `out`, retrying or degrading per
    /// the policy. Re-masking on a retry reproduces the identical
    /// ciphertext (same epoch, same offsets), so a resend is never a
    /// two-time pad; only the attempt that succeeds appends.
    #[allow(clippy::too_many_arguments)]
    fn plain_block_sync<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        offset: usize,
        block_idx: u64,
        algo: &mut ReduceAlgo,
        base_tag: u64,
        ctl: &mut RetryCtl,
        wire: &mut Vec<S::Wire>,
        seg: &mut Vec<S::Wire>,
    ) -> Result<(), EngineError> {
        let end = (offset + block).min(data.len());
        loop {
            scheme.mask_slice(&self.keys, offset as u64, &data[offset..end], wire)?;
            let tag = attempt_tag(base_tag, block_idx, ctl.attempt);
            let deadline = ctl.deadline();
            match self.try_transport_sync(tag, std::mem::take(wire), *algo, S::op, seg, deadline) {
                Ok(agg) => {
                    scheme.unmask_extend(&self.keys, offset as u64, &agg, out);
                    // The aggregate's buffer becomes the next attempt's or
                    // block's wire buffer.
                    *wire = agg;
                    return Ok(());
                }
                Err(e) => match ctl.on_error(EngineError::Comm(e)) {
                    Step::Retry => {}
                    Step::Degrade => {
                        self.note_degraded();
                        *algo = ReduceAlgo::Ring;
                    }
                    Step::Fail(err) => return Err(err),
                },
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_plain_sync<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        algo: &mut ReduceAlgo,
        base_tag: u64,
        ctl: &mut RetryCtl,
    ) -> Result<(), EngineError> {
        let mut wire: Vec<S::Wire> = self.arena.take_vec();
        let mut seg: Vec<S::Wire> = self.arena.take_vec();
        let mut failed = None;
        let mut offset = 0usize;
        let mut block_idx = 0u64;
        while offset < data.len() {
            if let Err(e) = self.plain_block_sync(
                scheme, data, out, block, offset, block_idx, algo, base_tag, ctl, &mut wire,
                &mut seg,
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

    /// Complete one posted plain block: wait on the request, and on
    /// failure fall back to synchronous per-block recovery (which retries
    /// and/or degrades per the policy).
    #[allow(clippy::too_many_arguments)]
    fn drain_plain_block<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        offset: usize,
        block_idx: u64,
        req: Request<Result<Vec<S::Wire>, CommError>>,
        algo: &mut ReduceAlgo,
        base_tag: u64,
        ctl: &mut RetryCtl,
        wire: &mut Vec<S::Wire>,
        seg: &mut Vec<S::Wire>,
    ) -> Result<(), EngineError> {
        let res = {
            let _w = hear_telemetry::span!("pipeline_wait", offset = offset);
            req.wait()
        };
        hear_telemetry::gauge_add(hear_telemetry::Gauge::PipelineInFlight, -1);
        match res {
            Ok(agg) => {
                scheme.unmask_extend(&self.keys, offset as u64, &agg, out);
                *wire = agg;
                Ok(())
            }
            Err(e) => {
                match ctl.on_error(EngineError::Comm(e)) {
                    Step::Retry => {}
                    Step::Degrade => {
                        self.note_degraded();
                        *algo = ReduceAlgo::Ring;
                    }
                    Step::Fail(err) => return Err(err),
                }
                self.plain_block_sync(
                    scheme, data, out, block, offset, block_idx, algo, base_tag, ctl, wire, seg,
                )
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_plain_pipelined<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        algo: &mut ReduceAlgo,
        base_tag: u64,
        ctl: &mut RetryCtl,
    ) -> Result<(), EngineError> {
        #[allow(clippy::type_complexity)]
        let mut inflight: VecDeque<(usize, u64, Request<Result<Vec<S::Wire>, CommError>>)> =
            VecDeque::with_capacity(DEPTH);
        let mut wire: Vec<S::Wire> = self.arena.take_vec();
        let mut seg: Vec<S::Wire> = self.arena.take_vec();
        let mut failed = None;
        let mut offset = 0usize;
        let mut block_idx = 0u64;
        while offset < data.len() {
            let end = (offset + block).min(data.len());
            // An encode error aborts the call; already-posted blocks are
            // detached and complete in the background on every rank.
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
                self.try_transport_nb(tag, std::mem::take(&mut wire), *algo, S::op, deadline),
            ));
            if inflight.len() >= DEPTH {
                let (o, bi, req) = inflight.pop_front().expect("non-empty");
                if let Err(e) = self.drain_plain_block(
                    scheme, data, out, block, o, bi, req, algo, base_tag, ctl, &mut wire, &mut seg,
                ) {
                    failed = Some(e);
                    break;
                }
            }
            offset = end;
            block_idx += 1;
        }
        if failed.is_none() {
            while let Some((o, bi, req)) = inflight.pop_front() {
                if let Err(e) = self.drain_plain_block(
                    scheme, data, out, block, o, bi, req, algo, base_tag, ctl, &mut wire, &mut seg,
                ) {
                    failed = Some(e);
                    break;
                }
            }
        }
        self.arena.put_vec(wire);
        self.arena.put_vec(seg);
        failed.map_or(Ok(()), Err)
    }

    /// One verified block, synchronously, with the attempt loop: seal →
    /// transport → open → append. The block decrypts into `vs.dec` and only
    /// reaches `out` once its digest check has passed, so no unverified
    /// plaintext is ever in the caller's buffer — which is why this path
    /// keeps the staging copy the plain one dropped. A verification
    /// failure is retryable — the
    /// per-block §5.5 digest already localized the damage to this block,
    /// so the resend retransmits exactly the failing packets (re-sealed to
    /// the identical ciphertext) and nothing else.
    #[allow(clippy::too_many_arguments)]
    fn verified_block_sync<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        homac: &Homac,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        offset: usize,
        block_idx: u64,
        algo: &mut ReduceAlgo,
        base_tag: u64,
        ctl: &mut RetryCtl,
        vs: &mut VerifyScratch<S>,
        seg: &mut Vec<SchemePacket<S>>,
    ) -> Result<(), EngineError> {
        let world = self.world();
        let end = (offset + block).min(data.len());
        loop {
            seal_block(scheme, homac, &self.keys, offset, &data[offset..end], vs)?;
            let tag = attempt_tag(base_tag, block_idx, ctl.attempt);
            let deadline = ctl.deadline();
            let step = match self.try_transport_sync(
                tag,
                std::mem::take(&mut vs.packets),
                *algo,
                packet_op::<S>,
                seg,
                deadline,
            ) {
                Ok(agg) => match open_block(scheme, homac, &self.keys, world, offset, &agg, vs) {
                    Ok(()) => {
                        out.extend_from_slice(&vs.dec);
                        // The aggregate becomes the next block's packet
                        // staging.
                        vs.packets = agg;
                        return Ok(());
                    }
                    Err(e) => ctl.on_error(e),
                },
                Err(e) => ctl.on_error(EngineError::Comm(e)),
            };
            match step {
                Step::Retry => {}
                Step::Degrade => {
                    self.note_degraded();
                    *algo = ReduceAlgo::Ring;
                }
                Step::Fail(err) => return Err(err),
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_verified_sync<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        algo: &mut ReduceAlgo,
        base_tag: u64,
        ctl: &mut RetryCtl,
        homac: &Homac,
    ) -> Result<(), EngineError> {
        let mut vs = VerifyScratch::<S>::lease(&mut self.arena);
        let mut seg: Vec<SchemePacket<S>> = self.arena.take_vec();
        let mut failed = None;
        let mut offset = 0usize;
        let mut block_idx = 0u64;
        while offset < data.len() {
            if let Err(e) = self.verified_block_sync(
                scheme, homac, data, out, block, offset, block_idx, algo, base_tag, ctl, &mut vs,
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

    /// Complete one posted verified block: wait, open, and on either a
    /// transport error or a verification failure fall back to synchronous
    /// per-block recovery.
    #[allow(clippy::too_many_arguments)]
    fn drain_verified_block<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        homac: &Homac,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        offset: usize,
        block_idx: u64,
        req: Request<Result<Vec<SchemePacket<S>>, CommError>>,
        algo: &mut ReduceAlgo,
        base_tag: u64,
        ctl: &mut RetryCtl,
        vs: &mut VerifyScratch<S>,
        seg: &mut Vec<SchemePacket<S>>,
    ) -> Result<(), EngineError> {
        let world = self.world();
        let res = {
            let _w = hear_telemetry::span!("pipeline_wait", offset = offset);
            req.wait()
        };
        hear_telemetry::gauge_add(hear_telemetry::Gauge::PipelineInFlight, -1);
        let step = match res {
            Ok(agg) => match open_block(scheme, homac, &self.keys, world, offset, &agg, vs) {
                Ok(()) => {
                    out.extend_from_slice(&vs.dec);
                    vs.packets = agg;
                    return Ok(());
                }
                Err(e) => ctl.on_error(e),
            },
            Err(e) => ctl.on_error(EngineError::Comm(e)),
        };
        match step {
            Step::Retry => {}
            Step::Degrade => {
                self.note_degraded();
                *algo = ReduceAlgo::Ring;
            }
            Step::Fail(err) => return Err(err),
        }
        self.verified_block_sync(
            scheme, homac, data, out, block, offset, block_idx, algo, base_tag, ctl, vs, seg,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn run_verified_pipelined<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        algo: &mut ReduceAlgo,
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
        let mut offset = 0usize;
        let mut block_idx = 0u64;
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
                self.try_transport_nb(
                    tag,
                    std::mem::take(&mut vs.packets),
                    *algo,
                    packet_op::<S>,
                    deadline,
                ),
            ));
            if inflight.len() >= DEPTH {
                let (o, bi, req) = inflight.pop_front().expect("non-empty");
                if let Err(e) = self.drain_verified_block(
                    scheme, homac, data, out, block, o, bi, req, algo, base_tag, ctl, &mut vs,
                    &mut seg,
                ) {
                    failed = Some(e);
                    break;
                }
            }
            offset = end;
            block_idx += 1;
        }
        if failed.is_none() {
            while let Some((o, bi, req)) = inflight.pop_front() {
                if let Err(e) = self.drain_verified_block(
                    scheme, homac, data, out, block, o, bi, req, algo, base_tag, ctl, &mut vs,
                    &mut seg,
                ) {
                    failed = Some(e);
                    break;
                }
            }
        }
        vs.restore(&mut self.arena);
        self.arena.put_vec(seg);
        failed.map_or(Ok(()), Err)
    }
}

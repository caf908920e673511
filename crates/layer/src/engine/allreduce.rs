//! The fused allreduce entry point and the four chunk-mode runners it
//! shares with [`SecureComm::reduce_scatter_with`].
//!
//! On [`ReduceAlgo::Ring`] the transport underneath is literally
//! reduce-scatter followed by allgather — one chunk-owned hop loop in
//! `hear_mpi` drives both phases — and the reduce-scatter collective is
//! the same runners stopped halfway ([`Route::Scatter`]), so this entry
//! point and the factored [`SecureComm::reduce_scatter_with`] /
//! [`SecureComm::allgather_with`](crate::secure::SecureComm) pair can
//! never drift apart.
//!
//! A block travels as owned chunk vectors ([`chunk_count`] of them: one
//! per rank under the ring, one otherwise). The synchronous runners mask
//! straight into the chunks and unmask each aggregated chunk straight out
//! of it, as the ring hands it over, into its place in the caller's `out`
//! ([`OutWindow`]); a posted block cannot touch `out` from its helper
//! thread, so it brings its chunks back and the drain unmasks them in
//! order.

use super::cfg::{ChunkMode, EngineCfg, EngineError};
use super::packet::{open_block, packet_op, seal_chunks, SchemePacket, VerifyScratch};
use super::phases::share_bounds;
use super::retry::{attempt_tag, RetryCtl, Step};
use super::window::OutWindow;
use super::{
    chunk_count, mask_chunks, post_transport_chunks, transport_chunks, PostedChunks, Route, DEPTH,
};
use crate::secure::{ReduceAlgo, SecureComm};
use hear_core::{Homac, Scheme};
use std::collections::VecDeque;

/// One posted block in flight: its global offset, its index, its request.
type InFlight<T> = VecDeque<(usize, u64, PostedChunks<T>)>;

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
        self.run_blocks(
            scheme,
            data,
            out,
            block,
            cfg.chunk,
            &mut Route::All(algo),
            base_tag,
            &mut ctl,
            homac.as_ref(),
        )
    }

    /// Dispatch a reduction's blocks to the runner for its chunk mode and
    /// integrity setting.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_blocks<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        chunk: ChunkMode,
        route: &mut Route,
        base_tag: u64,
        ctl: &mut RetryCtl,
        homac: Option<&Homac>,
    ) -> Result<(), EngineError> {
        match (chunk, homac) {
            (ChunkMode::Pipelined(_), None) => {
                self.run_plain_pipelined(scheme, data, out, block, route, base_tag, ctl)
            }
            (ChunkMode::Pipelined(_), Some(h)) => {
                self.run_verified_pipelined(scheme, data, out, block, route, base_tag, ctl, h)
            }
            (_, None) => self.run_plain_sync(scheme, data, out, block, route, base_tag, ctl),
            (_, Some(h)) => {
                self.run_verified_sync(scheme, data, out, block, route, base_tag, ctl, h)
            }
        }
    }

    /// Act on a retry decision inside an attempt loop: `Ok` to go round
    /// again (on the host ring from now on, after a `Degrade`).
    fn take_step(&mut self, step: Step, route: &mut Route) -> Result<(), EngineError> {
        match (step, route) {
            (Step::Fail(e), _) => Err(e),
            (Step::Degrade, Route::All(algo)) => {
                self.note_degraded();
                *algo = ReduceAlgo::Ring;
                Ok(())
            }
            // The factored phase is ring-native: a `Degrade` (which can
            // only mean "leave the switch") is just another retry there.
            _ => Ok(()),
        }
    }

    /// Where the result of the `len`-element block at global `offset`
    /// lands: the global index of its first element, its length, and the
    /// number of chunks it arrives in. The whole block for an allreduce;
    /// this rank's share, as one piece, for a reduce-scatter.
    fn landing(&self, route: Route, offset: usize, len: usize) -> (usize, usize, usize) {
        match route {
            Route::All(_) => (offset, len, chunk_count(route, self.world())),
            Route::Scatter => {
                let (s, e) = share_bounds(len, self.world(), self.rank());
                (offset + s, e - s, 1)
            }
        }
    }

    /// The chunks of a posted block that hold this rank's result, in order
    /// from [`SecureComm::landing`]'s first element.
    fn landed<'c, T>(&self, route: Route, chunks: &'c [Vec<T>]) -> &'c [Vec<T>] {
        match route {
            Route::All(_) => chunks,
            Route::Scatter => &chunks[self.rank()..=self.rank()],
        }
    }

    /// One plain block, synchronously, with the attempt loop: mask into the
    /// chunk vectors → transport → unmask each aggregated chunk into its
    /// place past the end of `out`, retrying or degrading per the policy.
    /// Re-masking on a retry reproduces the identical ciphertext (same
    /// epoch, same offsets), so a resend is never a two-time pad; `out`
    /// grows only when an attempt has delivered every chunk.
    #[allow(clippy::too_many_arguments)]
    fn plain_block_sync<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        offset: usize,
        block_idx: u64,
        route: &mut Route,
        base_tag: u64,
        ctl: &mut RetryCtl,
        chunks: &mut Vec<Vec<S::Wire>>,
    ) -> Result<(), EngineError> {
        let input = &data[offset..(offset + block).min(data.len())];
        loop {
            let n = chunk_count(*route, self.world());
            self.fit_chunks(chunks, n);
            mask_chunks(scheme, &self.keys, offset, input, chunks)?;
            let tag = attempt_tag(base_tag, block_idx, ctl.attempt);
            let deadline = ctl.deadline();
            let (at, len, pieces) = self.landing(*route, offset, input.len());
            let mut window = OutWindow::new(out, len, pieces);
            let keys = &self.keys;
            let unmask = |c: usize, agg: &[S::Wire]| window.unmask(scheme, keys, at, c, agg);
            match transport_chunks(&self.comm, tag, chunks, *route, S::op, unmask, deadline) {
                Ok(()) => {
                    window.commit();
                    return Ok(());
                }
                Err(e) => {
                    let step = ctl.on_error(EngineError::Comm(e));
                    self.take_step(step, route)?;
                }
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
        route: &mut Route,
        base_tag: u64,
        ctl: &mut RetryCtl,
    ) -> Result<(), EngineError> {
        let mut chunks = self.lease_chunks();
        let mut result = Ok(());
        let (mut offset, mut block_idx) = (0usize, 0u64);
        while offset < data.len() && result.is_ok() {
            result = self.plain_block_sync(
                scheme,
                data,
                out,
                block,
                offset,
                block_idx,
                route,
                base_tag,
                ctl,
                &mut chunks,
            );
            offset += block;
            block_idx += 1;
        }
        self.restore_chunks(chunks);
        result
    }

    /// Complete one posted plain block: wait on the request and unmask the
    /// chunks it brought back onto the end of `out`; on failure fall back
    /// to synchronous per-block recovery (which retries and/or degrades
    /// per the policy).
    #[allow(clippy::too_many_arguments)]
    fn drain_plain_block<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        offset: usize,
        block_idx: u64,
        req: PostedChunks<S::Wire>,
        route: &mut Route,
        base_tag: u64,
        ctl: &mut RetryCtl,
    ) -> Result<(), EngineError> {
        let res = {
            let _w = hear_telemetry::span!("pipeline_wait", offset = offset);
            req.wait()
        };
        hear_telemetry::gauge_add(hear_telemetry::Gauge::PipelineInFlight, -1);
        let mut chunks = match res {
            Ok(chunks) => {
                let len = block.min(data.len() - offset);
                let (mut at, _, _) = self.landing(*route, offset, len);
                for chunk in self.landed(*route, &chunks) {
                    scheme.unmask_extend(&self.keys, at as u64, chunk, out);
                    at += chunk.len();
                }
                self.restore_chunks(chunks);
                return Ok(());
            }
            Err(e) => {
                let step = ctl.on_error(EngineError::Comm(e));
                self.take_step(step, route)?;
                self.lease_chunks()
            }
        };
        let result = self.plain_block_sync(
            scheme,
            data,
            out,
            block,
            offset,
            block_idx,
            route,
            base_tag,
            ctl,
            &mut chunks,
        );
        self.restore_chunks(chunks);
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn run_plain_pipelined<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        route: &mut Route,
        base_tag: u64,
        ctl: &mut RetryCtl,
    ) -> Result<(), EngineError> {
        let mut inflight: InFlight<S::Wire> = VecDeque::with_capacity(DEPTH);
        let mut result = Ok(());
        let (mut offset, mut block_idx) = (0usize, 0u64);
        while offset < data.len() && result.is_ok() {
            let end = (offset + block).min(data.len());
            let mut chunks = self.lease_chunks();
            let n = chunk_count(*route, self.world());
            self.fit_chunks(&mut chunks, n);
            // An encode error aborts the call; already-posted blocks are
            // detached and complete in the background on every rank.
            if let Err(e) = mask_chunks(scheme, &self.keys, offset, &data[offset..end], &mut chunks)
            {
                self.restore_chunks(chunks);
                return Err(e.into());
            }
            hear_telemetry::incr(hear_telemetry::Metric::PipelineBlocks);
            hear_telemetry::gauge_add(hear_telemetry::Gauge::PipelineInFlight, 1);
            let tag = attempt_tag(base_tag, block_idx, ctl.attempt);
            let deadline = ctl.deadline();
            let req = post_transport_chunks(&self.comm, tag, chunks, *route, S::op, deadline);
            inflight.push_back((offset, block_idx, req));
            if inflight.len() >= DEPTH {
                let (o, bi, req) = inflight.pop_front().expect("non-empty");
                result = self
                    .drain_plain_block(scheme, data, out, block, o, bi, req, route, base_tag, ctl);
            }
            offset = end;
            block_idx += 1;
        }
        while let (Ok(()), Some((o, bi, req))) = (&result, inflight.pop_front()) {
            result =
                self.drain_plain_block(scheme, data, out, block, o, bi, req, route, base_tag, ctl);
        }
        result
    }

    /// One verified block, synchronously, with the attempt loop: seal into
    /// the chunk vectors → transport → open each aggregated chunk as it
    /// passes. A chunk decrypts into `vs.dec` and is copied to its place
    /// past the end of `out` only once its digest check has passed, and
    /// `out` grows only when every chunk of the block has — so no
    /// unverified plaintext is ever in the caller's vector, which is why
    /// this path keeps the staging copy the plain one dropped. A chunk that
    /// fails is still forwarded (the ring must keep moving; the next rank
    /// runs its own check) and fails the attempt. A verification failure
    /// is retryable — the per-block §5.5 digest already localized the
    /// damage to this block, so the resend retransmits exactly the failing
    /// packets (re-sealed to the identical ciphertext) and nothing else.
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
        route: &mut Route,
        base_tag: u64,
        ctl: &mut RetryCtl,
        vs: &mut VerifyScratch<S>,
        chunks: &mut Vec<Vec<SchemePacket<S>>>,
    ) -> Result<(), EngineError> {
        let world = self.world();
        let input = &data[offset..(offset + block).min(data.len())];
        loop {
            let n = chunk_count(*route, world);
            self.fit_chunks(chunks, n);
            seal_chunks(scheme, homac, &self.keys, offset, input, vs, chunks)?;
            let tag = attempt_tag(base_tag, block_idx, ctl.attempt);
            let deadline = ctl.deadline();
            let (at, len, pieces) = self.landing(*route, offset, input.len());
            let mut window = OutWindow::new(out, len, pieces);
            let mut rejected = None;
            let keys = &self.keys;
            let open = |c: usize, agg: &[SchemePacket<S>]| {
                if rejected.is_some() {
                    return;
                }
                let (s, _) = share_bounds(len, pieces, c);
                match open_block(scheme, homac, keys, world, at + s, agg, vs) {
                    Ok(()) => window.place(c, &vs.dec),
                    Err(e) => rejected = Some(e),
                }
            };
            let sent = transport_chunks(
                &self.comm,
                tag,
                chunks,
                *route,
                packet_op::<S>,
                open,
                deadline,
            );
            let step = match (sent, rejected) {
                (Ok(()), None) => {
                    window.commit();
                    return Ok(());
                }
                (Ok(()), Some(e)) => ctl.on_error(e),
                (Err(e), _) => ctl.on_error(EngineError::Comm(e)),
            };
            self.take_step(step, route)?;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_verified_sync<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        route: &mut Route,
        base_tag: u64,
        ctl: &mut RetryCtl,
        homac: &Homac,
    ) -> Result<(), EngineError> {
        let mut vs = VerifyScratch::<S>::lease(&mut self.arena);
        let mut chunks = self.lease_chunks();
        let mut result = Ok(());
        let (mut offset, mut block_idx) = (0usize, 0u64);
        while offset < data.len() && result.is_ok() {
            result = self.verified_block_sync(
                scheme,
                homac,
                data,
                out,
                block,
                offset,
                block_idx,
                route,
                base_tag,
                ctl,
                &mut vs,
                &mut chunks,
            );
            offset += block;
            block_idx += 1;
        }
        vs.restore(&mut self.arena);
        self.restore_chunks(chunks);
        result
    }

    /// Complete one posted verified block: wait, open the chunks it
    /// brought back in order (appending each only after its digest check,
    /// and taking them all back if a later one fails), and on either a
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
        req: PostedChunks<SchemePacket<S>>,
        route: &mut Route,
        base_tag: u64,
        ctl: &mut RetryCtl,
        vs: &mut VerifyScratch<S>,
    ) -> Result<(), EngineError> {
        let world = self.world();
        let res = {
            let _w = hear_telemetry::span!("pipeline_wait", offset = offset);
            req.wait()
        };
        hear_telemetry::gauge_add(hear_telemetry::Gauge::PipelineInFlight, -1);
        let step = match res {
            Ok(chunks) => {
                let entry = out.len();
                let len = block.min(data.len() - offset);
                let (mut at, _, _) = self.landing(*route, offset, len);
                let mut opened = Ok(());
                for chunk in self.landed(*route, &chunks) {
                    opened = open_block(scheme, homac, &self.keys, world, at, chunk, vs);
                    if opened.is_err() {
                        break;
                    }
                    out.extend_from_slice(&vs.dec);
                    at += chunk.len();
                }
                self.restore_chunks(chunks);
                match opened {
                    Ok(()) => return Ok(()),
                    Err(e) => {
                        out.truncate(entry);
                        ctl.on_error(e)
                    }
                }
            }
            Err(e) => ctl.on_error(EngineError::Comm(e)),
        };
        self.take_step(step, route)?;
        let mut chunks = self.lease_chunks();
        let result = self.verified_block_sync(
            scheme,
            homac,
            data,
            out,
            block,
            offset,
            block_idx,
            route,
            base_tag,
            ctl,
            vs,
            &mut chunks,
        );
        self.restore_chunks(chunks);
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn run_verified_pipelined<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        block: usize,
        route: &mut Route,
        base_tag: u64,
        ctl: &mut RetryCtl,
        homac: &Homac,
    ) -> Result<(), EngineError> {
        let mut inflight: InFlight<SchemePacket<S>> = VecDeque::with_capacity(DEPTH);
        let mut vs = VerifyScratch::<S>::lease(&mut self.arena);
        let mut result = Ok(());
        let (mut offset, mut block_idx) = (0usize, 0u64);
        while offset < data.len() && result.is_ok() {
            let end = (offset + block).min(data.len());
            let mut chunks = self.lease_chunks();
            let n = chunk_count(*route, self.world());
            self.fit_chunks(&mut chunks, n);
            let input = &data[offset..end];
            if let Err(e) = seal_chunks(
                scheme,
                homac,
                &self.keys,
                offset,
                input,
                &mut vs,
                &mut chunks,
            ) {
                self.restore_chunks(chunks);
                result = Err(e);
                break;
            }
            hear_telemetry::incr(hear_telemetry::Metric::PipelineBlocks);
            hear_telemetry::gauge_add(hear_telemetry::Gauge::PipelineInFlight, 1);
            let tag = attempt_tag(base_tag, block_idx, ctl.attempt);
            let deadline = ctl.deadline();
            let req =
                post_transport_chunks(&self.comm, tag, chunks, *route, packet_op::<S>, deadline);
            inflight.push_back((offset, block_idx, req));
            if inflight.len() >= DEPTH {
                let (o, bi, req) = inflight.pop_front().expect("non-empty");
                result = self.drain_verified_block(
                    scheme, homac, data, out, block, o, bi, req, route, base_tag, ctl, &mut vs,
                );
            }
            offset = end;
            block_idx += 1;
        }
        while let (Ok(()), Some((o, bi, req))) = (&result, inflight.pop_front()) {
            result = self.drain_verified_block(
                scheme, homac, data, out, block, o, bi, req, route, base_tag, ctl, &mut vs,
            );
        }
        vs.restore(&mut self.arena);
        result
    }
}

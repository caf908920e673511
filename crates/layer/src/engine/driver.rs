//! The one block driver every collective runs on.
//!
//! A collective is cut into blocks (allreduce and reduce-scatter blocks,
//! allgather and alltoall rounds), and each block is sealed into owned
//! chunk vectors, moved by a transport, and opened into the caller's
//! `out`. What differs per collective — the wire element, the seal, the
//! transport and the open — is a [`Blocks`] impl; what does not is written
//! here once:
//!
//! * the attempt loop ([`SecureComm::block_sync`]): re-seal, move on the
//!   next attempt tag under a fresh deadline, and let the [`RetryCtl`]
//!   decide between retrying, degrading and failing;
//! * the depth-2 pipeline of paper §6 / Fig. 6
//!   ([`SecureComm::run_pipelined`]): up to [`DEPTH`] blocks posted to
//!   helper threads, drained in FIFO order, a drain that fails falling back
//!   to the synchronous attempt loop for that block.

use super::cfg::{ChunkMode, EngineError};
use super::retry::{attempt_tag, RetryCtl, Step};
use super::{PostedChunks, Route, DEPTH};
use crate::secure::{ReduceAlgo, SecureComm};
use hear_telemetry::{gauge_add, incr, Gauge, Metric};
use std::collections::VecDeque;
use std::time::Instant;

/// One collective, cut into blocks: how block `k` is sealed into chunk
/// vectors of wire element [`Blocks::Wire`], moved, and opened into the
/// caller's result.
pub(crate) trait Blocks {
    type Wire: Send + 'static;

    /// How many chunk vectors a block travels as.
    fn nchunks(&self, sc: &SecureComm) -> usize;

    /// Seal block `k` into `chunks`, [`Blocks::nchunks`] leased vectors
    /// (holding whatever the last transport left in them). A retry re-seals
    /// to the identical bytes: same epoch, same pad coordinates.
    fn seal(
        &mut self,
        sc: &SecureComm,
        k: u64,
        chunks: &mut [Vec<Self::Wire>],
    ) -> Result<(), EngineError>;

    /// Move block `k`'s chunks on `tag` and open this rank's result as it
    /// arrives. A transport error wins over a piece that failed its check;
    /// either way the caller's `out` keeps no trace of the attempt that a
    /// later successful one would not overwrite.
    fn exchange(
        &mut self,
        sc: &SecureComm,
        k: u64,
        tag: u64,
        deadline: Option<Instant>,
        chunks: &mut Vec<Vec<Self::Wire>>,
    ) -> Result<(), EngineError>;

    /// [`Blocks::exchange`]'s transport on a helper thread, which can open
    /// nothing: it hands the chunks back.
    fn post(
        &self,
        sc: &SecureComm,
        tag: u64,
        deadline: Option<Instant>,
        chunks: Vec<Vec<Self::Wire>>,
    ) -> PostedChunks<Self::Wire>;

    /// Open the chunks posted block `k` brought back: as many as it was
    /// posted as, which a degrade since may have made differ from
    /// [`Blocks::nchunks`].
    fn open(
        &mut self,
        sc: &SecureComm,
        k: u64,
        chunks: &[Vec<Self::Wire>],
    ) -> Result<(), EngineError>;

    /// The route a `Degrade` moves to the host ring: a reduction's. The
    /// ring- and pairwise-native collectives have none.
    fn route(&mut self) -> Option<&mut Route> {
        None
    }

    /// Where block `k` starts, for the `pipeline_wait` span a reduction's
    /// drain records.
    fn wait_offset(&self, _k: u64) -> Option<usize> {
        None
    }
}

impl SecureComm {
    /// Run blocks `0..nblocks` of `b`: one after another, or — under
    /// [`ChunkMode::Pipelined`] — [`DEPTH`] in flight. Attempt `a` of block
    /// `k` runs on `attempt_tag(base_tag, k, a)` on every rank.
    pub(crate) fn run_blocks<B: Blocks>(
        &mut self,
        b: &mut B,
        nblocks: u64,
        base_tag: u64,
        ctl: &mut RetryCtl,
        chunk: ChunkMode,
    ) -> Result<(), EngineError> {
        if let ChunkMode::Pipelined(_) = chunk {
            return self.run_pipelined(b, nblocks, base_tag, ctl);
        }
        let mut chunks = self.lease_chunks();
        let mut result = Ok(());
        for k in 0..nblocks {
            result = self.block_sync(b, k, base_tag, ctl, &mut chunks);
            if result.is_err() {
                break;
            }
        }
        self.restore_chunks(chunks);
        result
    }

    /// Block `k`, synchronously, with the attempt loop: seal → move and
    /// open → on failure retry, degrade or fail per the policy. `out`
    /// grows only when an attempt has delivered and opened every chunk.
    fn block_sync<B: Blocks>(
        &mut self,
        b: &mut B,
        k: u64,
        base_tag: u64,
        ctl: &mut RetryCtl,
        chunks: &mut Vec<Vec<B::Wire>>,
    ) -> Result<(), EngineError> {
        loop {
            self.fit_chunks(chunks, b.nchunks(self));
            b.seal(self, k, chunks)?;
            let tag = attempt_tag(base_tag, k, ctl.attempt);
            let deadline = ctl.deadline();
            let Err(e) = b.exchange(self, k, tag, deadline, chunks) else {
                return Ok(());
            };
            let step = ctl.on_error(e);
            self.take_step(step, b.route())?;
        }
    }

    /// The depth-2 pipeline: seal block `k + 1` and drain block `k − 1`
    /// while block `k` is in transit. A seal error aborts the call; blocks
    /// already posted are detached and complete in the background on every
    /// rank.
    fn run_pipelined<B: Blocks>(
        &mut self,
        b: &mut B,
        nblocks: u64,
        base_tag: u64,
        ctl: &mut RetryCtl,
    ) -> Result<(), EngineError> {
        let mut inflight: VecDeque<(u64, PostedChunks<B::Wire>)> = VecDeque::with_capacity(DEPTH);
        for k in 0..nblocks {
            let mut chunks = self.lease_chunks();
            self.fit_chunks(&mut chunks, b.nchunks(self));
            if let Err(e) = b.seal(self, k, &mut chunks) {
                self.restore_chunks(chunks);
                return Err(e);
            }
            incr(Metric::PipelineBlocks);
            gauge_add(Gauge::PipelineInFlight, 1);
            let tag = attempt_tag(base_tag, k, ctl.attempt);
            let deadline = ctl.deadline();
            inflight.push_back((k, b.post(self, tag, deadline, chunks)));
            if inflight.len() >= DEPTH {
                let (k, req) = inflight.pop_front().expect("non-empty");
                self.drain(b, k, req, base_tag, ctl)?;
            }
        }
        while let Some((k, req)) = inflight.pop_front() {
            self.drain(b, k, req, base_tag, ctl)?;
        }
        Ok(())
    }

    /// Complete posted block `k`: wait, open what it brought back, and on a
    /// transport error or a rejected piece fall back to
    /// [`SecureComm::block_sync`] for the block.
    fn drain<B: Blocks>(
        &mut self,
        b: &mut B,
        k: u64,
        req: PostedChunks<B::Wire>,
        base_tag: u64,
        ctl: &mut RetryCtl,
    ) -> Result<(), EngineError> {
        let res = {
            let _w = b
                .wait_offset(k)
                .map(|at| hear_telemetry::span!("pipeline_wait", offset = at));
            req.wait()
        };
        gauge_add(Gauge::PipelineInFlight, -1);
        let step = match res {
            Ok(chunks) => {
                let opened = b.open(self, k, &chunks);
                self.restore_chunks(chunks);
                match opened {
                    Ok(()) => return Ok(()),
                    Err(e) => ctl.on_error(e),
                }
            }
            Err(e) => ctl.on_error(EngineError::Comm(e)),
        };
        self.take_step(step, b.route())?;
        let mut chunks = self.lease_chunks();
        let result = self.block_sync(b, k, base_tag, ctl, &mut chunks);
        self.restore_chunks(chunks);
        result
    }

    /// Act on a retry decision: `Ok` to go round again. A `Degrade` — which
    /// can only mean "leave the switch" — moves a reduction's `route` to the
    /// host ring for the rest of the call and is counted; for everything
    /// ring- or pairwise-native it is just another retry.
    pub(crate) fn take_step(
        &mut self,
        step: Step,
        route: Option<&mut Route>,
    ) -> Result<(), EngineError> {
        match (step, route) {
            (Step::Fail(e), _) => Err(e),
            (Step::Degrade, Some(Route::All(algo))) => {
                self.degraded = true;
                incr(Metric::DegradedEpochs);
                *algo = ReduceAlgo::Ring;
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

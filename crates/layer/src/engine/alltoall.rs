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

use super::cfg::{ChunkMode, EngineCfg, EngineError};
use super::packet::{open_cells, open_cells_tagged, seal_cells, seal_cells_tagged, CellScratch};
use super::retry::{attempt_tag, RetryCtl, Step};
use super::DEPTH;
use crate::secure::{SecureComm, Tagged};
use hear_core::{Homac, Scheme};
use hear_mpi::{CommError, Request};
use std::collections::VecDeque;

/// Fold a retry decision on the pairwise exchange (no switch involved, so
/// `Degrade` is just another retry).
fn pair_step(step: Step) -> Result<(), EngineError> {
    match step {
        Step::Retry | Step::Degrade => Ok(()),
        Step::Fail(e) => Err(e),
    }
}

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
    /// slice of each chunk in place).
    pub fn alltoall_with_into<S: Scheme + 'static>(
        &mut self,
        _scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        cfg: EngineCfg,
    ) -> Result<(), EngineError> {
        let world = self.world();
        assert!(
            data.len() % world == 0,
            "alltoall requires one equal-length chunk per rank"
        );
        let chunk_len = data.len() / world;
        let _span = hear_telemetry::span!("secure_alltoall", elems = data.len());
        let homac = if cfg.verified {
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
        // Prefill with the contribution: the self chunk is already in
        // place, and every other chunk's slice gets overwritten by its
        // round. (At world 1 the transpose is the identity, so this is
        // also the complete zero-allocation local path.)
        out.extend_from_slice(data);
        if world == 1 || chunk_len == 0 {
            return Ok(());
        }
        let b = match cfg.chunk {
            ChunkMode::Sync => chunk_len,
            ChunkMode::Blocked(x) | ChunkMode::Pipelined(x) => {
                assert!(x > 0, "block size must be positive");
                x
            }
        };
        let nrounds = (chunk_len as u64).div_ceil(b as u64);
        let base_tag = self.comm.reserve_coll_tags(nrounds);
        let mut ctl = RetryCtl::new(cfg.retry);
        let mut cs = CellScratch::lease(&mut self.arena);
        let mut failed = None;
        if matches!(cfg.chunk, ChunkMode::Pipelined(_)) {
            failed = self
                .a2a_rounds_pipelined::<S>(
                    data,
                    out,
                    chunk_len,
                    b,
                    nrounds,
                    base_tag,
                    &mut ctl,
                    homac.as_ref(),
                    &mut cs,
                )
                .err();
        } else {
            for round in 0..nrounds {
                if let Err(e) = self.a2a_round_sync::<S>(
                    data,
                    out,
                    chunk_len,
                    b,
                    round,
                    base_tag,
                    &mut ctl,
                    homac.as_ref(),
                    &mut cs,
                ) {
                    failed = Some(e);
                    break;
                }
            }
        }
        cs.restore(&mut self.arena);
        failed.map_or(Ok(()), Err)
    }

    /// One all-to-all round, synchronously, with the attempt loop. Seals
    /// the round's slice of each destination chunk, exchanges pairwise,
    /// and decodes each source's slice into place.
    #[allow(clippy::too_many_arguments)]
    fn a2a_round_sync<S: Scheme + 'static>(
        &mut self,
        data: &[S::Input],
        out: &mut [S::Input],
        chunk_len: usize,
        b: usize,
        round: u64,
        base_tag: u64,
        ctl: &mut RetryCtl,
        homac: Option<&Homac>,
        cs: &mut CellScratch,
    ) -> Result<(), EngineError> {
        let world = self.world();
        let me = self.rank();
        let lo = round as usize * b;
        let hi = (lo + b).min(chunk_len);
        loop {
            let tag = attempt_tag(base_tag, round, ctl.attempt);
            let deadline = ctl.deadline();
            let step = if let Some(h) = homac {
                let chunks =
                    seal_round_tagged::<S>(&self.keys, h, data, world, me, chunk_len, lo, hi, cs);
                match self.comm.try_alltoall_tagged(tag, chunks, deadline) {
                    Ok(recv) => {
                        match open_round_tagged::<S>(
                            &self.keys, h, &recv, world, me, chunk_len, lo, hi, cs, out,
                        ) {
                            Ok(()) => return Ok(()),
                            Err(e) => ctl.on_error(e),
                        }
                    }
                    Err(e) => ctl.on_error(EngineError::Comm(e)),
                }
            } else {
                let chunks = seal_round::<S>(&self.keys, data, world, me, chunk_len, lo, hi, cs);
                match self.comm.try_alltoall_tagged(tag, chunks, deadline) {
                    Ok(recv) => {
                        open_round::<S>(&self.keys, &recv, world, me, chunk_len, lo, hi, cs, out);
                        return Ok(());
                    }
                    Err(e) => ctl.on_error(EngineError::Comm(e)),
                }
            };
            pair_step(step)?;
        }
    }

    /// Pipelined all-to-all rounds: up to [`DEPTH`] pairwise exchanges in
    /// flight; drains decode into disjoint slices (order-independent) and
    /// fall back to [`SecureComm::a2a_round_sync`] on failure.
    #[allow(clippy::too_many_arguments)]
    fn a2a_rounds_pipelined<S: Scheme + 'static>(
        &mut self,
        data: &[S::Input],
        out: &mut [S::Input],
        chunk_len: usize,
        b: usize,
        nrounds: u64,
        base_tag: u64,
        ctl: &mut RetryCtl,
        homac: Option<&Homac>,
        cs: &mut CellScratch,
    ) -> Result<(), EngineError> {
        enum Post {
            Plain(Request<Result<Vec<Vec<u64>>, CommError>>),
            Tagged(Request<Result<Vec<Vec<Tagged<u64>>>, CommError>>),
        }
        let world = self.world();
        let me = self.rank();
        let mut inflight: VecDeque<(u64, Post)> = VecDeque::with_capacity(DEPTH);
        let drain = |sc: &mut Self,
                     round: u64,
                     post: Post,
                     ctl: &mut RetryCtl,
                     cs: &mut CellScratch,
                     out: &mut [S::Input]|
         -> Result<(), EngineError> {
            let lo = round as usize * b;
            let hi = (lo + b).min(chunk_len);
            hear_telemetry::gauge_add(hear_telemetry::Gauge::PipelineInFlight, -1);
            let step = match post {
                Post::Plain(req) => match req.wait() {
                    Ok(recv) => {
                        open_round::<S>(&sc.keys, &recv, world, me, chunk_len, lo, hi, cs, out);
                        return Ok(());
                    }
                    Err(e) => ctl.on_error(EngineError::Comm(e)),
                },
                Post::Tagged(req) => match req.wait() {
                    Ok(recv) => match open_round_tagged::<S>(
                        &sc.keys,
                        homac.expect("tagged post implies homac"),
                        &recv,
                        world,
                        me,
                        chunk_len,
                        lo,
                        hi,
                        cs,
                        out,
                    ) {
                        Ok(()) => return Ok(()),
                        Err(e) => ctl.on_error(e),
                    },
                    Err(e) => ctl.on_error(EngineError::Comm(e)),
                },
            };
            pair_step(step)?;
            sc.a2a_round_sync::<S>(data, out, chunk_len, b, round, base_tag, ctl, homac, cs)
        };
        let mut failed = None;
        for round in 0..nrounds {
            let lo = round as usize * b;
            let hi = (lo + b).min(chunk_len);
            hear_telemetry::incr(hear_telemetry::Metric::PipelineBlocks);
            hear_telemetry::gauge_add(hear_telemetry::Gauge::PipelineInFlight, 1);
            let tag = attempt_tag(base_tag, round, ctl.attempt);
            let deadline = ctl.deadline();
            let post = if let Some(h) = homac {
                let chunks =
                    seal_round_tagged::<S>(&self.keys, h, data, world, me, chunk_len, lo, hi, cs);
                Post::Tagged(
                    self.comm
                        .post(move |comm| comm.try_alltoall_tagged(tag, chunks, deadline)),
                )
            } else {
                let chunks = seal_round::<S>(&self.keys, data, world, me, chunk_len, lo, hi, cs);
                Post::Plain(
                    self.comm
                        .post(move |comm| comm.try_alltoall_tagged(tag, chunks, deadline)),
                )
            };
            inflight.push_back((round, post));
            if inflight.len() >= DEPTH {
                let (r, post) = inflight.pop_front().expect("non-empty");
                if let Err(e) = drain(self, r, post, ctl, cs, out) {
                    failed = Some(e);
                    break;
                }
            }
        }
        if failed.is_none() {
            while let Some((r, post)) = inflight.pop_front() {
                if let Err(e) = drain(self, r, post, ctl, cs, out) {
                    failed = Some(e);
                    break;
                }
            }
        }
        failed.map_or(Ok(()), Err)
    }
}

/// Pad-space coordinate of element `j` of the round's slice of the
/// `(src → dst)` chunk.
#[inline]
fn pair_first(src: usize, dst: usize, world: usize, chunk_len: usize, lo: usize) -> u64 {
    ((src * world + dst) * chunk_len + lo) as u64
}

/// Seal the round's slice of every destination chunk into per-destination
/// cell vectors (owned — the pairwise transport consumes them).
#[allow(clippy::too_many_arguments)]
fn seal_round<S: Scheme>(
    keys: &hear_core::CommKeys,
    data: &[S::Input],
    world: usize,
    me: usize,
    chunk_len: usize,
    lo: usize,
    hi: usize,
    cs: &mut CellScratch,
) -> Vec<Vec<u64>> {
    (0..world)
        .map(|dst| {
            seal_cells::<S>(
                keys,
                pair_first(me, dst, world, chunk_len, lo),
                &data[dst * chunk_len + lo..dst * chunk_len + hi],
                cs,
            );
            std::mem::take(&mut cs.cells)
        })
        .collect()
}

/// Decode every source's received slice into its place in `out`.
#[allow(clippy::too_many_arguments)]
fn open_round<S: Scheme>(
    keys: &hear_core::CommKeys,
    recv: &[Vec<u64>],
    world: usize,
    me: usize,
    chunk_len: usize,
    lo: usize,
    hi: usize,
    cs: &mut CellScratch,
    out: &mut [S::Input],
) {
    for (src, cells) in recv.iter().enumerate() {
        open_cells::<S>(
            keys,
            pair_first(src, me, world, chunk_len, lo),
            cells,
            cs,
            &mut out[src * chunk_len + lo..src * chunk_len + hi],
        );
    }
}

/// [`seal_round`] with a shared-stream HoMAC tag per cell.
#[allow(clippy::too_many_arguments)]
fn seal_round_tagged<S: Scheme>(
    keys: &hear_core::CommKeys,
    homac: &Homac,
    data: &[S::Input],
    world: usize,
    me: usize,
    chunk_len: usize,
    lo: usize,
    hi: usize,
    cs: &mut CellScratch,
) -> Vec<Vec<Tagged<u64>>> {
    (0..world)
        .map(|dst| {
            seal_cells_tagged::<S>(
                keys,
                homac,
                pair_first(me, dst, world, chunk_len, lo),
                &data[dst * chunk_len + lo..dst * chunk_len + hi],
                cs,
            );
            std::mem::take(&mut cs.tagged)
        })
        .collect()
}

/// [`open_round`] with per-segment MAC verification; rejects the round if
/// any source's slice fails.
#[allow(clippy::too_many_arguments)]
fn open_round_tagged<S: Scheme>(
    keys: &hear_core::CommKeys,
    homac: &Homac,
    recv: &[Vec<Tagged<u64>>],
    world: usize,
    me: usize,
    chunk_len: usize,
    lo: usize,
    hi: usize,
    cs: &mut CellScratch,
    out: &mut [S::Input],
) -> Result<(), EngineError> {
    for (src, cells) in recv.iter().enumerate() {
        open_cells_tagged::<S>(
            keys,
            homac,
            pair_first(src, me, world, chunk_len, lo),
            cells,
            cs,
            &mut out[src * chunk_len + lo..src * chunk_len + hi],
        )?;
    }
    Ok(())
}

//! The fused allreduce entry point and the reduction it shares with
//! [`SecureComm::reduce_scatter_with`]: one [`Blocks`] impl, `Reduce`,
//! over a plain or a verified `Codec`.
//!
//! On [`ReduceAlgo::Ring`] the transport underneath is literally
//! reduce-scatter followed by allgather — one chunk-owned hop loop in
//! `hear_mpi` drives both phases — and the reduce-scatter collective is
//! the same reduction stopped halfway ([`Route::Scatter`]), so this entry
//! point and the factored [`SecureComm::reduce_scatter_with`] /
//! [`SecureComm::allgather_with`](crate::secure::SecureComm) pair can
//! never drift apart.
//!
//! A block travels as owned chunk vectors ([`chunk_count`] of them: one
//! per rank under the ring, one otherwise). The codec seals straight into
//! them and opens each aggregated chunk straight out of it into its place
//! in the caller's `out` ([`OutWindow`]): as the ring hands it over, or,
//! for a posted block, when the drain opens the chunks it brought back.

use super::cfg::{ChunkMode, EngineCfg, EngineError};
use super::driver::Blocks;
use super::packet::Verified;
use super::phases::share_bounds;
use super::retry::RetryCtl;
use super::window::OutWindow;
use super::{
    chunk_count, mask_chunks, post_transport_chunks, transport_chunks, PostedChunks, Route,
};
use crate::secure::{ReduceAlgo, SecureComm};
use hear_core::{CommKeys, Scheme};
use hear_telemetry::span;
use std::time::Instant;

impl SecureComm {
    /// The generic secured allreduce: any [`Scheme`] × any [`ReduceAlgo`] ×
    /// any [`ChunkMode`] × optional verification.
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
    /// vector. `out` is `resize`d to `data.len()` at entry and each block is
    /// unmasked straight into its place in it, so an `out` reused at that
    /// length is only overwritten, and its capacity is reused across calls,
    /// which makes the integer and float hot paths free of heap allocation
    /// in steady state (the staging buffers come from the arena, the output
    /// from the caller). On `Err`, `out` is empty (capacity kept): never
    /// the caller's input, never part of a result. Under
    /// [`PeerDeadPolicy::ShrinkAndContinue`](super::cfg::PeerDeadPolicy)
    /// a dead member triggers membership reconfiguration and a re-run
    /// over the survivors (see the engine's `membership` module).
    pub fn allreduce_with_into<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        cfg: EngineCfg,
    ) -> Result<(), EngineError> {
        self.run_into(out, Some(cfg.retry), |sc, out| {
            let route = Route::All(cfg.algo.unwrap_or_default());
            sc.reduce_attempt(scheme, data, out, cfg, route)
        })
    }

    /// One full attempt of a reduction towards `route` over the *current*
    /// membership — the allreduce, or the reduce-scatter on
    /// [`Route::Scatter`]. The public wrappers re-run it after a
    /// shrink-and-continue reconfiguration; `out` is sized at entry to this
    /// attempt's result (a reduce-scatter's follows the world), and every
    /// element of it is written before the attempt returns `Ok`.
    pub(crate) fn reduce_attempt<S: Scheme + 'static>(
        &mut self,
        scheme: &mut S,
        data: &[S::Input],
        out: &mut Vec<S::Input>,
        cfg: EngineCfg,
        mut route: Route,
    ) -> Result<(), EngineError> {
        let (n, block) = (data.len(), cfg.block_len(data.len()));
        let threads = SecureComm::pool_threads();
        // The Fig. 6 baseline (a `Blocked` allreduce) runs unspanned.
        let _span = match (route, cfg.chunk) {
            (Route::Scatter, _) if cfg.verified => Some(span!(
                "secure_reduce_scatter_verified",
                elems = n,
                threads = threads
            )),
            (Route::Scatter, _) => {
                Some(span!("secure_reduce_scatter", elems = n, threads = threads))
            }
            (_, ChunkMode::Pipelined(b)) => {
                Some(span!("pipeline", elems = n, block = b, threads = threads))
            }
            (_, ChunkMode::Sync) if cfg.verified => Some(span!(
                "secure_allreduce_verified",
                elems = n,
                threads = threads
            )),
            (_, ChunkMode::Sync) => Some(span!("secure_allreduce", elems = n, threads = threads)),
            (_, ChunkMode::Blocked(_)) => None,
        };
        let homac = self.homac_for(cfg);
        if homac.is_some() {
            // A digest is sound only up to some world, and the packet shape
            // needs a TCP codec (bound on first use, so a program pays only
            // for the shapes it ships).
            assert!(
                self.world() <= S::MAX_VERIFIED_WORLD,
                "{} digest verification is sound only up to {} ranks",
                S::NAME,
                S::MAX_VERIFIED_WORLD
            );
            crate::wire::ensure_packet_type::<S>();
        }
        self.keys.advance();
        // The whole vector, or this rank's share of every block.
        let share = |m| self.shard_bounds(m).1 - self.shard_bounds(m).0;
        let len = match route {
            Route::All(_) => n,
            Route::Scatter => n / block * share(block) + share(n % block),
        };
        out.resize(len, S::cell_decode(0));
        if data.is_empty() {
            return Ok(());
        }
        if self.world() == 1 {
            // Nothing crosses the network: mask/unmask locally so every
            // algorithm (even Switch without a switch fabric) degenerates
            // to the identity, and verification has nothing to check.
            return self.run_local(scheme, data, out);
        }
        // Tags for the whole epoch are reserved up front so retries and
        // degraded re-runs stay inside this call's tag block: block `b`,
        // attempt `a` runs on `base + b·256 + a·8` on every rank.
        let nblocks = (n as u64).div_ceil(block as u64);
        let base_tag = self.comm.reserve_coll_tags(nblocks);
        if route == Route::All(ReduceAlgo::Switch) && self.degraded {
            // A previous epoch lost the switch tree: stay on the host
            // ring instead of re-probing a dead fabric every call.
            route = Route::All(ReduceAlgo::Ring);
            hear_telemetry::incr(hear_telemetry::Metric::DegradedEpochs);
        }
        let ctl = &mut RetryCtl::new(cfg.retry);
        match homac {
            None => {
                let mut r = Reduce::new(scheme, data, out, block, route, Plain);
                self.run_blocks(&mut r, nblocks, base_tag, ctl, cfg.chunk)
            }
            Some(homac) => {
                let codec = Verified::lease(homac, &mut self.arena);
                let mut r = Reduce::new(scheme, data, out, block, route, codec);
                let result = self.run_blocks(&mut r, nblocks, base_tag, ctl, cfg.chunk);
                r.codec.restore(&mut self.arena);
                result
            }
        }
    }
}

/// How a reduction of scheme `S` ships a block: as plain ciphertexts
/// ([`Plain`]) or as verified packets ([`Verified`]).
pub(super) trait Codec<S: Scheme>: 'static {
    type Wire: Clone + Send + 'static;

    /// The combiner the (untrusted) network folds chunks with.
    fn op(a: &Self::Wire, b: &Self::Wire) -> Self::Wire;

    /// Seal the block `input` at global `offset` into `chunks`, chunk `c`
    /// at `offset + s_c`: the same pad coordinates, and so the same wire
    /// bytes, as the whole block sealed at once.
    fn seal(
        &mut self,
        scheme: &mut S,
        keys: &CommKeys,
        offset: usize,
        input: &[S::Input],
        chunks: &mut [Vec<Self::Wire>],
    ) -> Result<(), EngineError>;

    /// Open the aggregated chunk `agg`, whose first element sits at global
    /// index `first`, into `dst` (its place in `out`, of its length), or
    /// reject it — leaving anything in `dst`: the attempt fails, and a
    /// retry or the call's failure overwrites or clears it.
    fn open(
        &mut self,
        scheme: &mut S,
        keys: &CommKeys,
        world: usize,
        first: usize,
        agg: &[Self::Wire],
        dst: &mut [S::Input],
    ) -> Result<(), EngineError>;
}

/// Masked ciphertexts, combined by `S::op` and unmasked straight into the
/// caller's `out`. Never rejects.
struct Plain;

impl<S: Scheme + 'static> Codec<S> for Plain {
    type Wire = S::Wire;

    #[inline(always)]
    fn op(a: &S::Wire, b: &S::Wire) -> S::Wire {
        S::op(a, b)
    }

    fn seal(
        &mut self,
        scheme: &mut S,
        keys: &CommKeys,
        offset: usize,
        input: &[S::Input],
        chunks: &mut [Vec<S::Wire>],
    ) -> Result<(), EngineError> {
        Ok(mask_chunks(scheme, keys, offset, input, chunks)?)
    }

    fn open(
        &mut self,
        scheme: &mut S,
        keys: &CommKeys,
        _world: usize,
        first: usize,
        agg: &[S::Wire],
        dst: &mut [S::Input],
    ) -> Result<(), EngineError> {
        scheme.unmask_into(keys, first as u64, agg, dst);
        Ok(())
    }
}

/// A reduction of `data` in `block`-element blocks towards `route`,
/// shipped by codec `K`, into `out` sized for the result.
struct Reduce<'a, S: Scheme, K> {
    scheme: &'a mut S,
    data: &'a [S::Input],
    out: &'a mut [S::Input],
    /// Elements of `out` the blocks so far filled.
    done: usize,
    block: usize,
    route: Route,
    codec: K,
}

impl<'a, S: Scheme, K> Reduce<'a, S, K> {
    fn new(
        scheme: &'a mut S,
        data: &'a [S::Input],
        out: &'a mut [S::Input],
        block: usize,
        route: Route,
        codec: K,
    ) -> Self {
        Reduce {
            scheme,
            data,
            out,
            done: 0,
            block,
            route,
            codec,
        }
    }

    /// Block `k`'s global offset and input.
    fn input(&self, k: u64) -> (usize, &'a [S::Input]) {
        let offset = k as usize * self.block;
        let data: &'a [S::Input] = self.data;
        (offset, &data[offset..(offset + self.block).min(data.len())])
    }

    /// Where block `k`, moved as `nchunks` chunks, lands (global first
    /// index, length, pieces): the whole block, one piece per chunk, for an
    /// allreduce; this rank's share of it, as one piece, for a
    /// reduce-scatter. The pieces are counted from the chunks, not from
    /// `route`: a block posted on the switch can drain after a degrade has
    /// moved `route` to the ring.
    fn landing(&self, sc: &SecureComm, k: u64, nchunks: usize) -> (usize, usize, usize) {
        let (offset, input) = self.input(k);
        match self.route {
            Route::All(_) => (offset, input.len(), nchunks),
            Route::Scatter => {
                let (s, e) = share_bounds(input.len(), sc.world(), sc.rank());
                (offset + s, e - s, 1)
            }
        }
    }
}

impl<S: Scheme + 'static, K: Codec<S>> Blocks for Reduce<'_, S, K> {
    type Wire = K::Wire;

    fn nchunks(&self, sc: &SecureComm) -> usize {
        chunk_count(self.route, sc.world())
    }

    fn seal(
        &mut self,
        sc: &SecureComm,
        k: u64,
        chunks: &mut [Vec<K::Wire>],
    ) -> Result<(), EngineError> {
        let (offset, input) = self.input(k);
        self.codec
            .seal(self.scheme, &sc.keys, offset, input, chunks)
    }

    fn exchange(
        &mut self,
        sc: &SecureComm,
        k: u64,
        tag: u64,
        deadline: Option<Instant>,
        chunks: &mut Vec<Vec<K::Wire>>,
    ) -> Result<(), EngineError> {
        let (at, len, pieces) = self.landing(sc, k, chunks.len());
        let mut window = OutWindow::new(self.out, &mut self.done, at, len, pieces);
        let (scheme, codec) = (&mut *self.scheme, &mut self.codec);
        let mut opened = Ok(());
        let open = |c: usize, agg: &[K::Wire]| {
            if opened.is_ok() {
                opened = window.open(c, agg.len(), |first, dst| {
                    codec.open(scheme, &sc.keys, sc.world(), first, agg, dst)
                });
            }
        };
        transport_chunks(&sc.comm, tag, chunks, self.route, K::op, open, deadline)?;
        opened?;
        window.commit();
        Ok(())
    }

    fn post(
        &self,
        sc: &SecureComm,
        tag: u64,
        deadline: Option<Instant>,
        chunks: Vec<Vec<K::Wire>>,
    ) -> PostedChunks<K::Wire> {
        post_transport_chunks(&sc.comm, tag, chunks, self.route, K::op, deadline)
    }

    fn open(
        &mut self,
        sc: &SecureComm,
        k: u64,
        chunks: &[Vec<K::Wire>],
    ) -> Result<(), EngineError> {
        let landed = match self.route {
            Route::All(_) => chunks,
            Route::Scatter => &chunks[sc.rank()..=sc.rank()],
        };
        let (at, len, pieces) = self.landing(sc, k, landed.len());
        let mut window = OutWindow::new(self.out, &mut self.done, at, len, pieces);
        // Last chunk first: the descending order the window's claims check.
        let (scheme, codec) = (&mut *self.scheme, &mut self.codec);
        for (c, agg) in landed.iter().enumerate().rev() {
            window.open(c, agg.len(), |first, dst| {
                codec.open(scheme, &sc.keys, sc.world(), first, agg, dst)
            })?;
        }
        window.commit();
        Ok(())
    }

    fn route(&mut self) -> Option<&mut Route> {
        Some(&mut self.route)
    }

    fn wait_offset(&self, k: u64) -> Option<usize> {
        Some(k as usize * self.block)
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::EngineCfg;
    use crate::secure::{ReduceAlgo, SecureComm};
    use hear_core::{CommKeys, IntSumScheme};
    use hear_mpi::{Communicator, NetConfig, SimConfig, Simulator};
    use hear_prf::Backend;

    fn secure(comm: &Communicator, seed: u64) -> SecureComm {
        let keys = CommKeys::generate(comm.world(), seed, Backend::AesSoft)
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        SecureComm::new(comm.clone(), keys)
    }

    #[test]
    fn pipelining_overlaps_network_transit() {
        // This used to race wall clocks (best of five attempts); it now
        // asserts the mechanism itself, deterministically, via the
        // fabric's per-thread transit-wait accounting. The blocked-sync
        // loop absorbs every block's transit delay on the rank thread;
        // the pipelined loop hands those waits to the request progress
        // threads and keeps the rank thread transit-free — that handoff
        // IS the overlap Fig. 6 measures.
        // Alpha must dominate inter-rank compute skew (debug-build masking
        // plus scheduler noise on a loaded test machine), or the peer's
        // message can already be past its delivery time when the sync loop
        // reaches its recv and no transit sleep is ever charged.
        let cfg = SimConfig::default().with_net(NetConfig {
            alpha: std::time::Duration::from_millis(5),
            beta_ns_per_byte: 0.5,
        });
        let n = 16 * 1024usize;
        let results = Simulator::with_config(2, cfg).run(move |comm| {
            let data: Vec<u32> = (0..n as u32).collect();
            let mut sc = secure(comm, 3);
            let mut timed = |chunk: EngineCfg| {
                let w0 = hear_mpi::thread_transit_wait_nanos();
                let cfg = chunk.with_algo(ReduceAlgo::Ring);
                let out = sc.allreduce_with(&mut IntSumScheme::default(), &data, cfg);
                (out.unwrap(), hear_mpi::thread_transit_wait_nanos() - w0)
            };
            let (piped, piped_wait) = timed(EngineCfg::pipelined(4 * 1024));
            let (sync, sync_wait) = timed(EngineCfg::blocked(4 * 1024));
            assert_eq!(piped, sync);
            (piped_wait, sync_wait)
        });
        for (rank, (piped_wait, sync_wait)) in results.iter().enumerate() {
            assert_eq!(
                *piped_wait, 0,
                "rank {rank}: pipelined rank thread slept in transit"
            );
            assert!(
                *sync_wait > 0,
                "rank {rank}: sync loop never saw the transit delay"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_rejected() {
        Simulator::new(1).run(|comm| {
            let cfg = EngineCfg::pipelined(0);
            let _ = secure(comm, 4).allreduce_with(&mut IntSumScheme::default(), &[1u32], cfg);
        });
    }
}

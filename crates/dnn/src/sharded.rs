//! ZeRO-style encrypted sharded data-parallel training — *measured*, not
//! modeled.
//!
//! The analytic proxies in the crate root reproduce Fig. 9's simulated
//! iteration times; this module runs the real thing at small scale: a
//! data-parallel SGD step whose communication is the factored ring —
//!
//! 1. **reduce-scatter** the gradients (encrypted, homomorphically
//!    combined): each rank ends up with the fully reduced gradients of
//!    the parameter shard it owns;
//! 2. **local update** of the owned shard only — optimizer state is
//!    sharded, the ZeRO-1 partitioning;
//! 3. **allgather** the updated shard (encrypted, bit-exact cells) so
//!    every rank rebuilds the full parameter replica.
//!
//! Step timings are wall-clock measurements of the actual engine calls
//! over the actual transport, exposed per phase in [`StepStats`].

use hear_core::{FloatSumScheme, HfpFormat};
use hear_layer::{ChunkMode, EngineCfg, EngineError, SecureComm};
use std::time::{Duration, Instant};

/// Wall-clock breakdown of one sharded step (measured, not modeled).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    /// The encrypted gradient reduce-scatter.
    pub reduce_scatter: Duration,
    /// The local optimizer update on the owned shard.
    pub local_update: Duration,
    /// The encrypted parameter allgather.
    pub allgather: Duration,
}

impl StepStats {
    /// Accumulate another step's timings (for averaging over a run).
    #[cfg(test)]
    fn accumulate(&mut self, other: &StepStats) {
        self.reduce_scatter += other.reduce_scatter;
        self.local_update += other.local_update;
        self.allgather += other.allgather;
    }
}

/// A ZeRO-1-style sharded SGD optimizer over an encrypted communicator.
///
/// Every rank holds the full parameter replica (needed for the forward
/// and backward passes) but *owns* — and updates — only its
/// [`SecureComm::shard_bounds`] slice. Gradients are averaged via the
/// float-scheme reduce-scatter; parameters return via the lossless
/// allgather, so replicas stay bit-identical across ranks.
pub struct ShardedSgd {
    params: Vec<f64>,
    lr: f64,
    scheme: FloatSumScheme,
    verified: bool,
    // Per-step buffers, kept so a step allocates nothing of its own: the
    // reduced gradients of the owned shard, the updated shard, and the
    // replica the allgather writes (swapped with `params` each step).
    shard_grads: Vec<f64>,
    shard: Vec<f64>,
    gathered: Vec<f64>,
}

impl ShardedSgd {
    /// `params` is the initial full replica (identical on every rank —
    /// the caller's responsibility, as in any data-parallel setup).
    pub fn new(params: Vec<f64>, lr: f64) -> ShardedSgd {
        ShardedSgd {
            params,
            lr,
            // γ=2 is the cancelling-noise addition layout; fp64 keeps the
            // quantisation at Table 2's "minor" level.
            scheme: FloatSumScheme::new(HfpFormat::fp64(2, 2)),
            verified: false,
            shard_grads: Vec::new(),
            shard: Vec::new(),
            gathered: Vec::new(),
        }
    }

    /// Verify both collectives with HoMAC (requires the communicator to
    /// carry a MAC key via `with_homac`).
    pub fn verified(mut self) -> ShardedSgd {
        self.verified = true;
        self
    }

    /// The current full replica.
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// One synchronous data-parallel step: `grads` is this rank's local
    /// gradient of the full parameter vector; the update applies the
    /// gradient *mean* across ranks. Returns the measured per-phase
    /// wall-clock times.
    pub fn step(&mut self, sc: &mut SecureComm, grads: &[f64]) -> Result<StepStats, EngineError> {
        assert_eq!(
            grads.len(),
            self.params.len(),
            "gradient and parameter vectors must match"
        );
        // Sync chunking: the reduce-scatter share must be this rank's one
        // contiguous global chunk for the shard layout to be meaningful.
        let cfg = if self.verified {
            EngineCfg::sync().verified()
        } else {
            EngineCfg::sync()
        };
        debug_assert!(matches!(cfg.chunk, ChunkMode::Sync));
        let mut stats = StepStats::default();

        let t = Instant::now();
        sc.reduce_scatter_with_into(&mut self.scheme, grads, &mut self.shard_grads, cfg)?;
        stats.reduce_scatter = t.elapsed();

        let t = Instant::now();
        let (lo, hi) = sc.shard_bounds(self.params.len());
        debug_assert_eq!(self.shard_grads.len(), hi - lo);
        let scale = self.lr / sc.world() as f64;
        self.shard.clear();
        self.shard.extend(
            self.params[lo..hi]
                .iter()
                .zip(&self.shard_grads)
                .map(|(p, g)| p - scale * g),
        );
        stats.local_update = t.elapsed();

        let t = Instant::now();
        sc.allgather_with_into(&mut self.scheme, &self.shard, &mut self.gathered, cfg)?;
        stats.allgather = t.elapsed();

        // The allgather layout is rank-contiguous and the shard bounds
        // are the per-rank prefix partition, so the gathered vector *is*
        // the updated replica.
        debug_assert_eq!(self.gathered.len(), self.params.len());
        std::mem::swap(&mut self.params, &mut self.gathered);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hear_core::{Backend, CommKeys, Homac};
    use hear_mpi::Simulator;

    const WORLD: usize = 4;
    /// Not divisible by 4: shard sizes are 10, 9, 9, 9.
    const N: usize = 37;
    const LR: f64 = 0.05;
    /// Table 2 classes the FP γ=2 addition layout's lossiness as
    /// "minor" — the matrix tests bound it at 1e-4 relative per
    /// reduction; three accumulating steps stay within a few of those.
    const TOL: f64 = 5e-4;

    fn grad(rank: usize, step: usize, j: usize) -> f64 {
        ((rank * 31 + step * 7 + j) as f64 * 0.13).sin() * 0.8
    }

    fn plaintext_reference(steps: usize) -> Vec<f64> {
        let mut params: Vec<f64> = (0..N).map(|j| (j as f64 * 0.21).cos()).collect();
        for step in 0..steps {
            for (j, p) in params.iter_mut().enumerate() {
                let mean: f64 = (0..WORLD).map(|r| grad(r, step, j)).sum::<f64>() / WORLD as f64;
                *p -= LR * mean;
            }
        }
        params
    }

    fn run_encrypted(steps: usize, verified: bool) -> Vec<(Vec<f64>, StepStats)> {
        Simulator::new(WORLD).run(move |comm| {
            let keys = CommKeys::generate(WORLD, 0x5A3D, Backend::best_available())
                .into_iter()
                .nth(comm.rank())
                .unwrap();
            let homac = Homac::generate(0x5A3E, Backend::best_available());
            let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
            let init: Vec<f64> = (0..N).map(|j| (j as f64 * 0.21).cos()).collect();
            let mut opt = ShardedSgd::new(init, LR);
            if verified {
                opt = opt.verified();
            }
            let mut sum = StepStats::default();
            for step in 0..steps {
                let grads: Vec<f64> = (0..N).map(|j| grad(comm.rank(), step, j)).collect();
                let stats = opt.step(&mut sc, &grads).unwrap();
                sum.accumulate(&stats);
            }
            (opt.params().to_vec(), sum)
        })
    }

    #[test]
    fn sharded_step_matches_plaintext_sgd_across_four_ranks() {
        let expected = plaintext_reference(3);
        let results = run_encrypted(3, false);
        let reference = &results[0].0;
        for (rank, (params, stats)) in results.iter().enumerate() {
            // Replicas are bit-identical across ranks: the allgather cells
            // are lossless, so every rank decodes the same shard bits.
            for (a, b) in params.iter().zip(reference) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "replica divergence on rank {rank}"
                );
            }
            for (j, (got, want)) in params.iter().zip(&expected).enumerate() {
                let scale = want.abs().max(1.0);
                assert!(
                    (got - want).abs() / scale < TOL,
                    "rank {rank} param {j}: encrypted {got} vs plaintext {want}"
                );
            }
            // Timings are measured: the communication phases actually ran.
            assert!(stats.reduce_scatter > Duration::ZERO, "rank {rank}");
            assert!(stats.allgather > Duration::ZERO, "rank {rank}");
        }
    }

    #[test]
    fn verified_sharded_step_matches_too() {
        let expected = plaintext_reference(2);
        let results = run_encrypted(2, true);
        for (rank, (params, _)) in results.iter().enumerate() {
            for (j, (got, want)) in params.iter().zip(&expected).enumerate() {
                let scale = want.abs().max(1.0);
                assert!(
                    (got - want).abs() / scale < TOL,
                    "rank {rank} param {j}: encrypted {got} vs plaintext {want}"
                );
            }
        }
    }
}

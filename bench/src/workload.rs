//! The five workloads: what each one calls, on which transport, with which
//! inputs, and how its output is checked against a plaintext reference.
//!
//! Everything here goes through the public entry points the roadmap keeps
//! (`SecureComm::*_with_into`, `EngineCfg`, `ShardedSgd::step`,
//! `Communicator::{allreduce, allreduce_ring, reduce_scatter, allgather}`),
//! never the per-type `allreduce_<op>_<type>` shims.

use hear::core::{Backend, CommKeys, Homac, IntSumScheme};
use hear::dnn::sharded::{ShardedSgd, StepStats};
use hear::layer::{ChunkMode, EngineCfg, EngineError, ReduceAlgo, SecureComm};
use hear::mpi::{Communicator, TransportKind};
use std::hint::black_box;

/// Rank threads per world. The host has two cores; more ranks than cores
/// would measure the scheduler, not the collectives.
pub const WORLD: usize = 2;

/// Block size of the pipelined chunk mode (elements), the paper's §6 path.
pub const PIPE_BLOCK: usize = 65_536;

/// Relative tolerance of the float-SUM scheme on `fp64(2, 2)` — the
/// "minor" lossiness class of `tests/matrix.rs` (`tol_for`).
pub const FLOAT_TOL: f64 = 1e-4;

/// Learning rate of the sharded-SGD workload; small, so parameters stay
/// O(1) over the hundreds of steps a run makes.
pub const LR: f64 = 0.01;

/// What one benchmark call is.
#[derive(Debug, Clone, Copy)]
pub enum Call {
    /// `SecureComm::allreduce_with_into::<IntSumScheme<u32>>` under `cfg`.
    Allreduce { cfg: EngineCfg },
    /// `ShardedSgd::step`: float-SUM reduce-scatter, local update, cell
    /// allgather.
    ZeroStep,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub transport: TransportKind,
    /// Elements per rank (`u32` for the allreduce workloads, `f64`
    /// gradients for the sharded step).
    pub elems: usize,
    pub call: Call,
    /// Calls per timed block, fixed so every block does identical work;
    /// sized so one block lasts roughly 0.1 to 0.5 s at seed.
    pub calls_per_block: usize,
    /// Blocks of the untraced pass's first repetition when `--seconds` is
    /// 15: about 5 s of calls at seed speed (see `first_rep_blocks`).
    pub first_rep_blocks_at_15s: usize,
}

impl Spec {
    pub fn on_tcp(&self) -> bool {
        self.transport == TransportKind::Tcp
    }

    pub fn payload_bytes(&self) -> usize {
        match self.call {
            Call::Allreduce { .. } => self.elems * std::mem::size_of::<u32>(),
            Call::ZeroStep => self.elems * std::mem::size_of::<f64>(),
        }
    }

    /// Blocks the first repetition runs: fixed work, scaled with
    /// `--seconds` alone so that every run of one `run_seconds` agrees.
    pub fn first_rep_blocks(&self, seconds: f64) -> usize {
        ((self.first_rep_blocks_at_15s as f64 * seconds / 15.0).round() as usize).max(1)
    }

    /// Elements in one message the workload's call puts on the transport:
    /// a whole block for recursive doubling, one ring segment of a block
    /// otherwise (the sharded step is ring-native).
    pub fn hop_elems(&self) -> usize {
        match self.call {
            Call::Allreduce { cfg } => {
                let block = block_elems(&cfg, self.elems).min(self.elems);
                match cfg.algo {
                    Some(ReduceAlgo::Ring) => block / WORLD,
                    _ => block,
                }
            }
            Call::ZeroStep => self.elems / WORLD,
        }
    }

    /// Bytes of that message for the plaintext element type.
    pub fn hop_bytes(&self) -> usize {
        self.hop_elems() * self.payload_bytes() / self.elems
    }
}

pub fn specs() -> [Spec; 5] {
    let ring = ReduceAlgo::Ring;
    [
        // Fig. 4: per-message fixed cost is everything, crypto is ~0.
        Spec {
            name: "small_tcp",
            transport: TransportKind::Tcp,
            elems: 4,
            call: Call::Allreduce {
                cfg: EngineCfg::sync(),
            },
            calls_per_block: 1_000,
            first_rep_blocks_at_15s: 25,
        },
        // §6 large-message path over real sockets: copies per hop and a
        // thread per posted block dominate, crypto is < 10 %.
        Spec {
            name: "large_tcp",
            transport: TransportKind::Tcp,
            elems: 1 << 20,
            call: Call::Allreduce {
                cfg: EngineCfg::pipelined(PIPE_BLOCK).with_algo(ring),
            },
            calls_per_block: 10,
            first_rep_blocks_at_15s: 30,
        },
        // No sockets: mask kernels, the worker pool and the ring's
        // combine/copies are all of the time. 64 MiB against 2 x 4 MiB of
        // L2 (the host reports a shared 260 MiB L3).
        Spec {
            name: "large_mem",
            transport: TransportKind::Memory,
            elems: 1 << 24,
            call: Call::Allreduce {
                cfg: EngineCfg::sync().with_algo(ring),
            },
            calls_per_block: 2,
            first_rep_blocks_at_15s: 16,
        },
        // Same engine, verification on: HoMAC tag/verify and the
        // (c, d, sigma) packet path are nearly all of the call.
        Spec {
            name: "verified_mem",
            transport: TransportKind::Memory,
            elems: 1 << 18,
            call: Call::Allreduce {
                cfg: EngineCfg::sync().verified().with_algo(ring),
            },
            calls_per_block: 3,
            first_rep_blocks_at_15s: 20,
        },
        // §7.2's application: float encode/combine/decode and the
        // factored reduce-scatter/allgather phases.
        Spec {
            name: "zero_step_mem",
            transport: TransportKind::Memory,
            elems: 1 << 20,
            call: Call::ZeroStep,
            calls_per_block: 3,
            first_rep_blocks_at_15s: 14,
        },
    ]
}

pub fn find(name: &str) -> Option<Spec> {
    specs().into_iter().find(|s| s.name == name)
}

/// SplitMix64 — the input generator. The program under test never sees
/// the seed, only the vectors made from it.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// A run's inputs and their plaintext references, one vector per rank.
pub struct Inputs {
    pub ints: Vec<Vec<u32>>,
    /// Element-wise wrapping sum of `ints` — what every rank must get.
    pub int_sum: Vec<u32>,
    pub grads: Vec<Vec<f64>>,
    /// Element-wise sum of `grads`.
    pub grad_sum: Vec<f64>,
    /// Initial parameter replica (identical on every rank).
    pub params: Vec<f64>,
}

impl Inputs {
    /// Same `(spec, seed, world)` gives the same inputs. Only the family
    /// the workload uses is filled.
    pub fn generate(spec: &Spec, seed: u64, world: usize) -> Inputs {
        let mut rng = SplitMix64(seed ^ 0x4845_4152_5f69_6e70); // "HEAR_inp"
        let n = spec.elems;
        let mut inputs = Inputs {
            ints: Vec::new(),
            int_sum: Vec::new(),
            grads: Vec::new(),
            grad_sum: Vec::new(),
            params: Vec::new(),
        };
        match spec.call {
            Call::Allreduce { .. } => {
                inputs.int_sum = vec![0u32; n];
                for _ in 0..world {
                    let v: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32).collect();
                    for (s, x) in inputs.int_sum.iter_mut().zip(&v) {
                        *s = s.wrapping_add(*x);
                    }
                    inputs.ints.push(v);
                }
            }
            Call::ZeroStep => {
                inputs.grad_sum = vec![0.0; n];
                for _ in 0..world {
                    let v: Vec<f64> = (0..n).map(|_| rng.next_unit()).collect();
                    for (s, x) in inputs.grad_sum.iter_mut().zip(&v) {
                        *s += *x;
                    }
                    inputs.grads.push(v);
                }
                inputs.params = (0..n).map(|_| rng.next_unit()).collect();
            }
        }
        inputs
    }
}

/// Key material of one world, derived from the run seed.
pub fn rank_keys(comm: &Communicator, key_seed: u64) -> CommKeys {
    CommKeys::generate(comm.world(), key_seed, Backend::best_available())
        .into_iter()
        .nth(comm.rank())
        .expect("generate returns one key set per rank")
}

pub fn homac(key_seed: u64) -> Homac {
    Homac::generate(key_seed ^ 0x486f_4d41, Backend::best_available())
}

/// Whether a reduced float is within [`FLOAT_TOL`] of its plaintext sum,
/// relative to `max(|want|, 1)` like `tests/matrix.rs`'s `rel_close`.
pub fn float_close(got: f64, want: f64) -> bool {
    (got - want).abs() / want.abs().max(1.0) < FLOAT_TOL
}

/// One sharded-SGD step's expected parameters, within the float scheme's
/// tolerance on the reduced gradient: `prev - scale * grad_sum`.
fn step_ok(prev: &[f64], now: &[f64], grad_sum: &[f64], scale: f64) -> bool {
    now.len() == prev.len()
        && now.iter().zip(prev).zip(grad_sum).all(|((got, p), g)| {
            let want = p - scale * g;
            (got - want).abs()
                <= scale * FLOAT_TOL * g.abs().max(1.0) + 4.0 * f64::EPSILON * p.abs().max(1.0)
        })
}

/// One rank's live state for a workload: the secured communicator, the
/// scheme, and the buffers calls reuse.
pub enum Session<'a> {
    Allreduce {
        sc: SecureComm,
        scheme: IntSumScheme<u32>,
        cfg: EngineCfg,
        input: &'a [u32],
        expected: &'a [u32],
        out: Vec<u32>,
    },
    ZeroStep {
        sc: SecureComm,
        opt: ShardedSgd,
        grads: &'a [f64],
        grad_sum: &'a [f64],
        /// Parameters before the last step (what its check starts from).
        prev: Vec<f64>,
        /// Replica of the plaintext twin ([`Session::native`]).
        native_params: Vec<f64>,
        /// Phase timings the last step reported about itself.
        stats: StepStats,
    },
}

impl<'a> Session<'a> {
    /// Generate keys, wrap the communicator, register codecs — the
    /// program's own set-up work.
    pub fn open(spec: &Spec, comm: &Communicator, inputs: &'a Inputs, key_seed: u64) -> Self {
        let sc = SecureComm::new(comm.clone(), rank_keys(comm, key_seed));
        match spec.call {
            Call::Allreduce { cfg } => Session::Allreduce {
                sc: if cfg.verified {
                    sc.with_homac(homac(key_seed))
                } else {
                    sc
                },
                scheme: IntSumScheme::default(),
                cfg,
                input: &inputs.ints[comm.rank()],
                expected: &inputs.int_sum,
                out: Vec::new(),
            },
            Call::ZeroStep => Session::ZeroStep {
                sc,
                opt: ShardedSgd::new(inputs.params.clone(), LR),
                grads: &inputs.grads[comm.rank()],
                grad_sum: &inputs.grad_sum,
                prev: inputs.params.clone(),
                native_params: inputs.params.clone(),
                stats: StepStats::default(),
            },
        }
    }

    /// One benchmark call through the secured path.
    pub fn call(&mut self) -> Result<(), EngineError> {
        match self {
            Session::Allreduce {
                sc,
                scheme,
                cfg,
                input,
                out,
                ..
            } => sc.allreduce_with_into(scheme, input, out, *cfg),
            Session::ZeroStep {
                sc,
                opt,
                grads,
                prev,
                stats,
                ..
            } => {
                prev.copy_from_slice(opt.params());
                *stats = opt.step(sc, grads)?;
                Ok(())
            }
        }
    }

    /// Check the last call's output against the plaintext reference: ints
    /// bit-exact, floats within [`FLOAT_TOL`] of the reduced gradient.
    pub fn output_ok(&self) -> bool {
        match self {
            Session::Allreduce { expected, out, .. } => out.as_slice() == *expected,
            Session::ZeroStep {
                sc,
                opt,
                grad_sum,
                prev,
                ..
            } => step_ok(prev, opt.params(), grad_sum, LR / sc.world() as f64),
        }
    }

    /// The plaintext collective of the same shape, transport and
    /// algorithm — the paper's "native" baseline.
    pub fn native(&mut self, comm: &Communicator) {
        match self {
            Session::Allreduce { cfg, input, .. } => {
                black_box(plain_allreduce(comm, cfg, input, |a, b| a.wrapping_add(*b)));
            }
            Session::ZeroStep {
                grads,
                native_params,
                ..
            } => {
                let shard_grads = comm.reduce_scatter(grads, |a, b| a + b);
                let (lo, _) = hear::mpi::ring_chunk_bounds(grads.len(), comm.world())[comm.rank()];
                let scale = LR / comm.world() as f64;
                let shard: Vec<f64> = native_params[lo..lo + shard_grads.len()]
                    .iter()
                    .zip(&shard_grads)
                    .map(|(p, g)| p - scale * g)
                    .collect();
                *native_params = comm.allgather(shard).concat();
            }
        }
    }

    /// The sharded step's own phase timings; `None` for allreduce.
    pub fn step_stats(&self) -> Option<StepStats> {
        match self {
            Session::Allreduce { .. } => None,
            Session::ZeroStep { stats, .. } => Some(*stats),
        }
    }

    pub fn secure(&mut self) -> &mut SecureComm {
        match self {
            Session::Allreduce { sc, .. } | Session::ZeroStep { sc, .. } => sc,
        }
    }
}

/// Elements per engine block under `cfg` for an `n`-element vector.
pub fn block_elems(cfg: &EngineCfg, n: usize) -> usize {
    match cfg.chunk {
        ChunkMode::Sync => n.max(1),
        ChunkMode::Blocked(b) | ChunkMode::Pipelined(b) => b,
    }
}

/// The plaintext allreduce of the same shape as a secure call under `cfg`:
/// same algorithm, and the same block size on the transport (one blocking
/// collective per block, one after another). Keeping the blocks matters
/// beyond fairness: at seed a multi-MiB frame over loopback TCP
/// intermittently ends in `PeerDead` (`mpi.tcp_big_msg_ok_share`).
pub fn plain_allreduce<T: Clone + Send + 'static>(
    comm: &Communicator,
    cfg: &EngineCfg,
    data: &[T],
    op: impl Fn(&T, &T) -> T,
) -> Vec<T> {
    let mut out = Vec::with_capacity(data.len());
    for block in data.chunks(block_elems(cfg, data.len())) {
        out.extend(match cfg.algo {
            Some(ReduceAlgo::Ring) => comm.allreduce_ring(block, &op),
            _ => comm.allreduce(block, &op),
        });
    }
    out
}

/// The other of `sync()` / `pipelined(65_536)` for an allreduce workload,
/// everything else unchanged.
pub fn alt_chunk(cfg: EngineCfg) -> EngineCfg {
    EngineCfg {
        chunk: match cfg.chunk {
            ChunkMode::Sync => ChunkMode::Pipelined(PIPE_BLOCK),
            ChunkMode::Blocked(_) | ChunkMode::Pipelined(_) => ChunkMode::Sync,
        },
        ..cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::valid_name;

    #[test]
    fn workload_names_are_valid_and_distinct() {
        let names: Vec<_> = specs().iter().map(|s| s.name).collect();
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(find("large_mem").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn same_seed_same_inputs_and_reference_matches() {
        let spec = find("small_tcp").expect("workload exists");
        let a = Inputs::generate(&spec, 7, WORLD);
        let b = Inputs::generate(&spec, 7, WORLD);
        let c = Inputs::generate(&spec, 8, WORLD);
        assert_eq!(a.ints, b.ints);
        assert_ne!(a.ints, c.ints);
        for j in 0..spec.elems {
            assert_eq!(a.int_sum[j], a.ints[0][j].wrapping_add(a.ints[1][j]));
        }
    }

    #[test]
    fn step_check_accepts_tolerance_and_rejects_drift() {
        let prev = [1.0, -2.0];
        let sum = [0.5, -1.5];
        let scale = 0.005;
        let exact: Vec<f64> = prev.iter().zip(&sum).map(|(p, g)| p - scale * g).collect();
        assert!(step_ok(&prev, &exact, &sum, scale));
        let close = [exact[0] + scale * 0.5e-4, exact[1]];
        assert!(step_ok(&prev, &close, &sum, scale));
        let off = [exact[0] + scale * 1e-2, exact[1]];
        assert!(!step_ok(&prev, &off, &sum, scale));
        assert!(!step_ok(&prev, &exact[..1], &sum, scale));
    }

    #[test]
    fn alt_chunk_flips_between_sync_and_pipelined() {
        let sync = EngineCfg::sync().verified();
        let piped = alt_chunk(sync);
        assert_eq!(piped.chunk, ChunkMode::Pipelined(PIPE_BLOCK));
        assert!(piped.verified);
        assert_eq!(alt_chunk(piped).chunk, ChunkMode::Sync);
    }
}

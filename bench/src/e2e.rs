//! The untraced pass: the end-to-end metrics, measured with telemetry off
//! and the system allocator.
//!
//! Closed loop, one process, [`WORLD`] rank threads, back-to-back calls,
//! no other load. A run is [`REPS`] repetitions, each a fresh world that
//! is set up, warmed with [`WARMUP`] calls and then timed in blocks of a
//! fixed number of calls.
//!
//! The first repetition runs a fixed number of blocks (a function of
//! `--seconds` only, sized to a third of it at seed speed), so both sides
//! of a comparison do identical work before `peak_rss_mib` is read. The
//! other repetitions share what is left of `--seconds`.

use crate::stats::{block_call_us, median};
use crate::sync::Abandoned;
use crate::workload::{Inputs, Session, Spec, WORLD};
use crate::world::{locked, run_world, Rank, Shared};
use hear::mpi::Communicator;
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fresh worlds per run; `setup_s` is the median over them.
pub const REPS: usize = 3;

/// Calls before timing starts: arena, prefetch and connection warm-up.
pub const WARMUP: usize = 3;

pub struct E2e {
    /// Median over all blocks of (slowest rank's busy time / calls).
    /// A block mean, on purpose: per-call latency over TCP is multimodal,
    /// so a per-call median flips between modes run to run while the
    /// block mean repeats.
    pub call_us: f64,
    /// Median over repetitions of: before transport construction to the
    /// end of the warm-up calls on the slowest rank.
    pub setup_s: f64,
    /// `VmHWM` of this process when the first repetition ends: process
    /// start, inputs, one set-up and a fixed number of calls. Read there
    /// because memory grows with every collective call at seed (about
    /// 200 B per call), so a later reading would rise with the number of
    /// calls a faster commit fits into `--seconds`, and because how much a
    /// later world reuses of an earlier one's freed memory is up to the
    /// allocator's arenas (±40 % run to run on the small workload).
    pub peak_rss_mib: f64,
    /// Timed calls started / timed calls that returned `Err`, produced a
    /// wrong output, or were left undone by an abandoned repetition.
    pub attempted: u64,
    pub failed: u64,
}

/// What the ranks of one repetition record; lives outside the world so it
/// survives the world dying.
struct RepLog {
    /// Wall seconds rank 0 spent in the timed loop.
    timed_secs: Mutex<f64>,
    setup_secs: Mutex<Vec<f64>>,
    block_secs: Mutex<Vec<Vec<f64>>>,
    blocks_started: Mutex<usize>,
    /// `(block, call)` of every timed call that failed on some rank.
    failed: Mutex<BTreeSet<(usize, usize)>>,
}

/// Keys differ per repetition, like fresh job launches would.
fn key_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ rep as u64
}

pub fn run(spec: &Spec, seed: u64, seconds: f64) -> E2e {
    let inputs = Inputs::generate(spec, seed, WORLD);
    let mut setups = Vec::new();
    let mut blocks = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut left = seconds;
    let mut peak_rss = 0.0;
    for rep in 0..REPS {
        let (budget, max_blocks) = if rep == 0 {
            (Duration::MAX, spec.first_rep_blocks(seconds))
        } else {
            let share = left.max(0.0) / (REPS - rep) as f64;
            (Duration::from_secs_f64(share), usize::MAX)
        };
        let shared = Shared::new(WORLD, 1);
        let log = RepLog {
            timed_secs: Mutex::new(0.0),
            setup_secs: Mutex::new(Vec::new()),
            block_secs: Mutex::new(vec![Vec::new(); WORLD]),
            blocks_started: Mutex::new(0),
            failed: Mutex::new(BTreeSet::new()),
        };
        let rep_run = Rep {
            spec,
            inputs: &inputs,
            shared: &shared,
            log: &log,
            key_seed: key_seed(seed, rep),
            t0: Instant::now(),
            budget,
            max_blocks,
        };
        let alive = run_world(spec.transport, WORLD, &shared, |comm| rep_run.rank(comm));
        if alive.is_none() {
            eprintln!("hearbench: {}: repetition {rep} abandoned", spec.name);
        }
        if rep == 0 {
            peak_rss = peak_rss_mib();
        }
        left -= *locked(&log.timed_secs);
        let rank_setups = locked(&log.setup_secs);
        if rank_setups.len() == WORLD {
            setups.push(rank_setups.iter().copied().fold(0.0, f64::max));
        }
        let rep_blocks = block_call_us(&locked(&log.block_secs), spec.calls_per_block);
        if !rep_blocks.is_empty() {
            eprintln!(
                "hearbench: {} repetition {rep}: {} blocks, median {:.1} us/call, VmHWM {:.1} MiB",
                spec.name,
                rep_blocks.len(),
                median(&rep_blocks),
                peak_rss_mib()
            );
        }
        blocks.extend(rep_blocks);
        attempted += (*locked(&log.blocks_started) * spec.calls_per_block) as u64;
        failed += locked(&log.failed).len() as u64;
    }
    E2e {
        call_us: if blocks.is_empty() {
            0.0
        } else {
            median(&blocks)
        },
        setup_s: if setups.is_empty() {
            0.0
        } else {
            median(&setups)
        },
        peak_rss_mib: peak_rss,
        // A run in which no world even finished warming up still counts
        // as having tried.
        attempted: attempted.max(1),
        failed: if setups.len() < REPS {
            failed.max(1)
        } else {
            failed
        },
    }
}

/// One repetition as every rank thread sees it.
struct Rep<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    shared: &'a Shared,
    log: &'a RepLog,
    key_seed: u64,
    /// Taken before the transport is constructed: where `setup_s` starts.
    t0: Instant,
    budget: Duration,
    max_blocks: usize,
}

impl Rep<'_> {
    fn rank(&self, comm: &Communicator) -> Result<(), Abandoned> {
        let (spec, log) = (self.spec, self.log);
        let rank = Rank::new(self.shared, comm);
        let mut sess = Session::open(spec, comm, self.inputs, self.key_seed);
        for _ in 0..WARMUP {
            rank.timed("warm-up call", || sess.call());
            if !sess.output_ok() {
                rank.die(
                    "warm-up call",
                    &"output differs from the plaintext reference",
                );
            }
        }
        locked(&log.setup_secs).push(self.t0.elapsed().as_secs_f64());

        let timed = Instant::now();
        rank.timed_loop(0, self.budget, self.max_blocks, |block| {
            if rank.id == 0 {
                *locked(&log.blocks_started) = block + 1;
            }
            let mut busy = Duration::ZERO;
            for call in 0..spec.calls_per_block {
                let t = Instant::now();
                let result = sess.call();
                busy += t.elapsed();
                match result {
                    Ok(()) if sess.output_ok() => {}
                    Ok(()) => {
                        eprintln!(
                            "hearbench: rank {}: block {block} call {call}: wrong output",
                            rank.id
                        );
                        locked(&log.failed).insert((block, call));
                    }
                    Err(e) => {
                        // This call and the rest of the block stay undone.
                        locked(&log.failed)
                            .extend((call..spec.calls_per_block).map(|c| (block, c)));
                        rank.die("timed call", &e);
                    }
                }
            }
            locked(&log.block_secs)[rank.id].push(busy.as_secs_f64());
            Ok(())
        })?;
        if rank.id == 0 {
            *locked(&log.timed_secs) = timed.elapsed().as_secs_f64();
        }
        Ok(())
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

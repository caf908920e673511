//! The keystream prefetch worker: generates epoch *i+1*'s noise blocks on
//! a rank-local thread while epoch *i* is in its communication phase.
//!
//! HEAR's critical path (§6) is keystream generation plus one combine
//! pass; the combine is fused into the mask kernels (`hear-prf`), which
//! leaves generation. Because key progression is deterministic, the
//! engine can *plan* the next call's streams the moment it advances the
//! collective key — [`hear_core::CommKeys::peek_next_epoch`] — and hand
//! the plan to this worker. The worker fills PRF blocks with its own
//! clone of the cipher and publishes them to the shared
//! [`KeystreamCache`]; the integer schemes then serve masking straight
//! from the cache and fall back to inline generation on any miss.
//!
//! Design points:
//!
//! * **Single job cell.** The producer/consumer hand-off is a
//!   `Mutex<Option<Job>>` + condvar; submitting overwrites any not-yet
//!   started job (only the newest plan matters), so a worker that falls
//!   behind skips epochs instead of queueing stale work. Nothing here
//!   allocates on the submit path.
//! * **Uncounted generation.** The worker uses the PRF's uncounted bulk
//!   fill. The *consumer* attributes blocks/bytes to telemetry on a cache
//!   hit, keeping counter totals identical whether a byte was masked from
//!   the cache or inline, and keeping span lanes rank-attributed.
//! * **Buffer recycling.** [`KeystreamCache::publish`] returns the evicted
//!   generation; the worker keeps those `CacheSlot`s as spares, so the
//!   steady state regenerates in place with zero allocation.
//! * **Shared worker pool.** Generation runs on the process-wide
//!   [`WorkerPool`]'s background lane ([`hear_prf::BgTask`]) instead of a
//!   bespoke per-communicator thread: one submit parks the task in the
//!   pool's single background slot and any idle worker picks it up when no
//!   fork-join masking shards are pending. Nothing spawns until the first
//!   submit, and teardown never joins — dropping the [`Prefetcher`] flips
//!   a shutdown flag and the task retires itself at the next stream
//!   boundary.

use hear_core::{CacheSlot, KeystreamCache, StreamPlan};
use hear_prf::{BgTask, PrfCipher, WorkerPool};
use std::sync::{Arc, Mutex};

/// Most streams one job can plan: own, next and zero noise streams.
pub const MAX_STREAMS: usize = 3;

/// Per-stream generation cap (1 MiB of blocks): beyond this, prefetching
/// would evict itself from cache and the inline path is generating at
/// memory bandwidth anyway.
pub const MAX_PREFETCH_BLOCKS: usize = 1 << 16;

/// One epoch's worth of planned keystream generation.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchJob {
    /// The epoch (`kc` value) the streams belong to.
    pub epoch: u64,
    /// Up to [`MAX_STREAMS`] deduplicated stream plans.
    pub streams: [Option<StreamPlan>; MAX_STREAMS],
}

#[derive(Default)]
struct State {
    job: Option<PrefetchJob>,
    /// A pool worker is inside [`PrefetchTask::run`]'s job loop; further
    /// background wakeups bounce off instead of generating concurrently.
    running: bool,
    shutdown: bool,
    // Spare slot buffers recycled from evicted cache generations, plus one
    // reusable container for the slot list itself. Only the single active
    // runner touches them; they live here so the task owns no second lock.
    spare: Vec<CacheSlot>,
    container: Vec<CacheSlot>,
}

/// The pool-resident half of the prefetcher: picked up by an idle
/// [`WorkerPool`] worker whenever a plan is parked in the job cell.
struct PrefetchTask {
    prf: PrfCipher,
    cache: Arc<KeystreamCache>,
    state: Mutex<State>,
}

/// Owner handle for the prefetch task; dropping it flips the shutdown flag
/// (no join — the shared pool's workers outlive any one communicator).
pub struct Prefetcher {
    task: Arc<PrefetchTask>,
}

impl Prefetcher {
    /// A prefetcher publishing into `cache`, generating with (a clone of)
    /// `prf`. Nothing is scheduled until the first [`Prefetcher::submit`].
    pub fn new(prf: PrfCipher, cache: Arc<KeystreamCache>) -> Prefetcher {
        Prefetcher {
            task: Arc::new(PrefetchTask {
                prf,
                cache,
                state: Mutex::new(State::default()),
            }),
        }
    }

    /// Park a plan for an upcoming epoch in the job cell, replacing any
    /// plan generation has not started yet, and nudge the shared pool.
    /// Never blocks on generation.
    pub fn submit(&mut self, job: PrefetchJob) {
        {
            let mut st = lock_unpoisoned(&self.task.state);
            st.job = Some(job);
        }
        WorkerPool::global().submit_bg(Arc::clone(&self.task) as Arc<dyn BgTask>);
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        // No join: an in-flight runner sees the flag at the next stream
        // boundary and abandons the job; the Arc keeps the task's state
        // alive until then.
        lock_unpoisoned(&self.task.state).shutdown = true;
    }
}

impl BgTask for PrefetchTask {
    fn run(&self) {
        loop {
            let (job, mut slots, mut spare) = {
                let mut st = lock_unpoisoned(&self.state);
                // The active runner drains the job cell itself at the end
                // of each pass; a second wakeup must not touch its state.
                if st.running || st.shutdown {
                    return;
                }
                let Some(job) = st.job.take() else {
                    return;
                };
                st.running = true;
                (
                    job,
                    std::mem::take(&mut st.container),
                    std::mem::take(&mut st.spare),
                )
            };
            for plan in job.streams.into_iter().flatten() {
                // Re-check shutdown between stream fills: teardown (e.g.
                // the engine aborting mid-epoch and dropping the
                // communicator) must never hold a pool worker for a whole
                // multi-MiB plan.
                if lock_unpoisoned(&self.state).shutdown {
                    return;
                }
                let mut slot = spare.pop().unwrap_or_default();
                let n = plan.nblocks.min(MAX_PREFETCH_BLOCKS);
                slot.blocks.resize(n, 0);
                // Generation happens outside the cache lock and uncounted:
                // the consumer does the telemetry accounting on each hit.
                self.prf.fill_blocks_uncounted(
                    plan.base.wrapping_add(plan.first_block as u128),
                    &mut slot.blocks,
                );
                slot.base = plan.base;
                slot.first_block = plan.first_block;
                slots.push(slot);
            }
            let mut evicted = self.cache.publish(job.epoch, slots);
            spare.append(&mut evicted);
            {
                let mut st = lock_unpoisoned(&self.state);
                st.spare = spare;
                st.container = evicted;
                st.running = false;
                if st.job.is_none() || st.shutdown {
                    return;
                }
                // A newer plan arrived while we generated: loop and take it
                // ourselves rather than waiting for the pool to re-wake us.
                st.running = true;
            }
        }
    }
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hear_prf::{Backend, Prf};
    use std::time::{Duration, Instant};

    /// Poll `cache` until `pf`'s parked plan has been generated. The
    /// pool's background lane is one slot shared by every prefetcher in
    /// the process, and a newer submission — another test's — displaces a
    /// task no worker has claimed yet. Production shrugs (a miss generates
    /// inline); a test that *waits* for the hit must nudge the pool again.
    /// The plan itself is still parked in the task's job cell.
    fn wait_for_hit(
        pf: &Prefetcher,
        cache: &KeystreamCache,
        epoch: u64,
        base: u128,
        n: usize,
    ) -> Option<Vec<u128>> {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(blocks) = cache.with_blocks(epoch, base, 0, n, <[u128]>::to_vec) {
                return Some(blocks);
            }
            std::thread::sleep(Duration::from_millis(1));
            WorkerPool::global().submit_bg(Arc::clone(&pf.task) as Arc<dyn BgTask>);
        }
        None
    }

    #[test]
    fn worker_generates_exactly_the_planned_blocks() {
        let prf = PrfCipher::new(Backend::AesSoft, 0xfeed).unwrap();
        let cache = KeystreamCache::new();
        let mut pf = Prefetcher::new(prf.clone(), Arc::clone(&cache));
        let mut streams = [None; MAX_STREAMS];
        streams[0] = Some(StreamPlan {
            base: 500,
            first_block: 0,
            nblocks: 20,
        });
        streams[1] = Some(StreamPlan {
            base: 900,
            first_block: 4,
            nblocks: 6,
        });
        pf.submit(PrefetchJob { epoch: 3, streams });
        let got = wait_for_hit(&pf, &cache, 3, 500, 20).expect("stream 0 published");
        for (i, b) in got.iter().enumerate() {
            assert_eq!(*b, prf.eval_block(500 + i as u128));
        }
        let got = cache
            .with_blocks(3, 900, 4, 6, <[u128]>::to_vec)
            .expect("stream 1 published");
        for (i, b) in got.iter().enumerate() {
            assert_eq!(*b, prf.eval_block(900 + 4 + i as u128));
        }
        // The plan's own range is exact: uncovered blocks miss.
        assert!(cache.with_blocks(3, 900, 3, 1, |_| ()).is_none());
    }

    #[test]
    fn successive_epochs_roll_through_and_recycle() {
        let prf = PrfCipher::new(Backend::AesSoft, 1).unwrap();
        let cache = KeystreamCache::new();
        let mut pf = Prefetcher::new(prf.clone(), Arc::clone(&cache));
        for epoch in 1..=5u64 {
            let mut streams = [None; MAX_STREAMS];
            streams[0] = Some(StreamPlan {
                base: epoch as u128 * 1000,
                first_block: 0,
                nblocks: 8,
            });
            pf.submit(PrefetchJob { epoch, streams });
            assert!(wait_for_hit(&pf, &cache, epoch, epoch as u128 * 1000, 8).is_some());
        }
        // Only the two newest generations survive.
        assert!(cache.with_blocks(5, 5000, 0, 8, |_| ()).is_some());
        assert!(cache.with_blocks(4, 4000, 0, 8, |_| ()).is_some());
        assert!(cache.with_blocks(3, 3000, 0, 8, |_| ()).is_none());
    }

    #[test]
    fn oversized_plans_are_clamped_not_fatal() {
        let prf = PrfCipher::new(Backend::AesSoft, 2).unwrap();
        let cache = KeystreamCache::new();
        let mut pf = Prefetcher::new(prf, Arc::clone(&cache));
        let mut streams = [None; MAX_STREAMS];
        streams[0] = Some(StreamPlan {
            base: 7,
            first_block: 0,
            nblocks: MAX_PREFETCH_BLOCKS + 100,
        });
        pf.submit(PrefetchJob { epoch: 1, streams });
        assert!(
            wait_for_hit(&pf, &cache, 1, 7, MAX_PREFETCH_BLOCKS).is_some(),
            "clamped range is served"
        );
        assert!(cache
            .with_blocks(1, 7, 0, MAX_PREFETCH_BLOCKS + 1, |_| ())
            .is_none());
    }

    #[test]
    fn a_call_whose_first_block_outgrows_the_cap_plans_nothing() {
        // The cache hits only on full-range coverage and a plan stops at
        // `MAX_PREFETCH_BLOCKS` a stream, so a `Sync` call over more than
        // that could only ever generate keystream that is guaranteed to
        // miss. It must not reach the background lane at all; the same
        // vector in blocks the cap covers keeps its plan.
        use crate::{EngineCfg, SecureComm};
        use hear_core::{CommKeys, IntSumScheme};
        const ELEMS: usize = 2 * MAX_PREFETCH_BLOCKS * 4; // 2 MiB a stream
        let planned = hear_mpi::Simulator::new(2).run(|comm| {
            let keys = CommKeys::generate(2, 0x9F37, Backend::AesSoft)
                .into_iter()
                .nth(comm.rank())
                .unwrap();
            let mut sc = SecureComm::new(comm.clone(), keys);
            let cache = Arc::clone(sc.keys.cache().expect("prefetch is on by default"));
            let mut s = IntSumScheme::<u32>::default();
            let data = vec![comm.rank() as u32 + 1; ELEMS];
            let mut out = Vec::new();
            for _ in 0..2 {
                sc.allreduce_with_into(&mut s, &data, &mut out, EngineCfg::sync())
                    .unwrap();
            }
            let task = Arc::clone(&sc.prefetch.as_ref().expect("prefetch is on").task);
            let parked = lock_unpoisoned(&task.state).job.is_some();
            let after_sync = (parked, cache.generations());

            let blocked = EngineCfg::blocked(MAX_PREFETCH_BLOCKS * 4);
            sc.allreduce_with_into(&mut s, &data, &mut out, blocked)
                .unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while cache.generations() == 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
                WorkerPool::global().submit_bg(Arc::clone(&task) as Arc<dyn BgTask>);
            }
            (after_sync, cache.generations())
        });
        for (rank, (after_sync, after_blocked)) in planned.iter().enumerate() {
            assert_eq!(
                *after_sync,
                (false, 0),
                "rank {rank}: the Sync calls planned"
            );
            assert!(
                *after_blocked >= 1,
                "rank {rank}: the Blocked call lost its plan"
            );
        }
    }

    #[test]
    fn drop_without_submit_is_a_no_op() {
        let prf = PrfCipher::new(Backend::AesSoft, 3).unwrap();
        let pf = Prefetcher::new(prf, KeystreamCache::new());
        drop(pf); // no thread was ever spawned
    }

    #[test]
    fn drop_mid_job_returns_promptly() {
        // Regression: teardown used to check the shutdown flag only
        // between jobs, so an engine call aborting mid-epoch joined
        // against the full plan (three maximal stream fills). With the
        // in-loop check the worker abandons the job at the next stream
        // boundary.
        let prf = PrfCipher::new(Backend::AesSoft, 4).unwrap();
        let mut pf = Prefetcher::new(prf, KeystreamCache::new());
        let mut streams = [None; MAX_STREAMS];
        for (i, s) in streams.iter_mut().enumerate() {
            *s = Some(StreamPlan {
                base: (i as u128 + 1) << 64,
                first_block: 0,
                nblocks: MAX_PREFETCH_BLOCKS,
            });
        }
        pf.submit(PrefetchJob { epoch: 1, streams });
        let t0 = Instant::now();
        drop(pf);
        // Hang guard, not a benchmark: a stuck join would blow far past
        // this (and the old code could, on a loaded core).
        assert!(t0.elapsed() < Duration::from_secs(30), "teardown hung");
    }
}

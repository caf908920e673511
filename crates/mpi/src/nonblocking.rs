//! Nonblocking collectives (`MPI_Iallreduce` and friends).
//!
//! The paper's libhear overlaps encryption/decryption of neighbouring
//! pipeline blocks with the in-flight reduction of the current block
//! (paper §6, "Communication"). This module supplies the primitive that
//! makes the overlap possible: a posted collective returns a [`Request`]
//! immediately and progresses on a helper thread, while the caller keeps
//! the CPU for crypto work.
//!
//! Helpers are a process-wide cache of parked threads. `post` hands its
//! job to an idle helper and starts a new one only when none is idle, so
//! a job never queues behind a busy helper (a detached block, or one
//! without a deadline, may hold its helper for a long time). A helper
//! lists itself idle again as soon as its job's result is handed over,
//! then parks until the next job; the cache therefore holds as many
//! helpers as the peak number of concurrently posted jobs.
//!
//! The collective tag block is allocated at *post* time, in program order,
//! so blocking and nonblocking collectives can be freely interleaved as
//! long as every rank posts them in the same order — the usual MPI rule.

use crate::comm::Communicator;
use crate::fabric::lock_unpoisoned;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, Thread};

/// A job for a helper. It receives the helper's [`Lease`] and drops it
/// once its work is done, which lists the helper idle again.
pub(crate) type Job = Box<dyn FnOnce(Lease) + Send>;

/// One parked helper thread and the slot its next job is handed in by.
struct Helper {
    job: Mutex<Option<Job>>,
    thread: Thread,
}

/// Helpers waiting for a job; the most recently idle is reused first.
static IDLE: Mutex<Vec<Arc<Helper>>> = Mutex::new(Vec::new());
static STARTED: AtomicU64 = AtomicU64::new(0);

/// A running job's hold on its helper: dropping it returns the helper to
/// the idle list (also when the job unwinds).
pub(crate) struct Lease(Arc<Helper>);

impl Drop for Lease {
    fn drop(&mut self) {
        lock_unpoisoned(&IDLE).push(self.0.clone());
    }
}

/// Helper threads this process has started so far. After a warm-up the
/// cache covers the peak number of concurrently posted jobs, and a
/// steady-state loop leaves this count unchanged (test hook).
#[doc(hidden)]
pub fn helpers_started() -> u64 {
    STARTED.load(Ordering::Relaxed)
}

/// Run `job` on an idle helper, or on a newly started one when none is
/// idle. Never queues behind a busy helper.
pub(crate) fn run_on_helper(job: Job) {
    let idle = lock_unpoisoned(&IDLE).pop();
    match idle {
        Some(helper) => {
            *lock_unpoisoned(&helper.job) = Some(job);
            helper.thread.unpark();
        }
        None => {
            STARTED.fetch_add(1, Ordering::Relaxed);
            thread::Builder::new()
                .name("hear-helper".into())
                .spawn(move || helper_main(job))
                .expect("failed to start a helper thread");
        }
    }
}

/// A helper's life: run the job, park until the next one arrives in the
/// slot, repeat. A panicking job unwinds into `catch_unwind` here, so the
/// helper outlives it.
fn helper_main(mut job: Job) {
    let me = Arc::new(Helper {
        job: Mutex::new(None),
        thread: thread::current(),
    });
    loop {
        let lease = Lease(me.clone());
        let _ = catch_unwind(AssertUnwindSafe(move || job(lease)));
        job = loop {
            if let Some(next) = lock_unpoisoned(&me.job).take() {
                break next;
            }
            thread::park();
        };
    }
}

/// Where a helper leaves a posted job's outcome for its [`Request`].
struct Slot<R> {
    result: Mutex<Option<thread::Result<R>>>,
    done: Condvar,
}

/// Handle to an in-flight collective. Dropping a request without waiting
/// detaches the job (the operation still completes on its helper).
pub struct Request<R: Send + 'static> {
    slot: Arc<Slot<R>>,
}

impl<R: Send + 'static> Request<R> {
    /// Block until the operation completes and return its result.
    /// Panics if the posted job panicked.
    pub fn wait(self) -> R {
        let mut result = lock_unpoisoned(&self.slot.result);
        loop {
            if let Some(r) = result.take() {
                return r.expect("collective progress thread panicked");
            }
            result = self
                .slot
                .done
                .wait(result)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// True when the result is ready (wait will not block).
    #[cfg(test)]
    fn test(&self) -> bool {
        lock_unpoisoned(&self.slot.result).is_some()
    }
}

impl Communicator {
    /// Post `f` — any blocking collective on a tag reserved by the caller,
    /// in program order — to a helper thread that runs it on a clone of
    /// this communicator under the caller's telemetry context. `f`'s waits
    /// should be bounded by a deadline and its failures returned typed, so
    /// they come back through `wait()` instead of as a panic. The HEAR
    /// engine posts every pipelined block through this.
    pub fn post<R, F>(&self, f: F) -> Request<R>
    where
        R: Send + 'static,
        F: FnOnce(&Communicator) -> R + Send + 'static,
    {
        let comm = self.clone();
        let tele = hear_telemetry::spawn_context();
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            done: Condvar::new(),
        });
        let theirs = slot.clone();
        run_on_helper(Box::new(move |lease| {
            let result = {
                let _tele = tele.map(|(reg, rank)| reg.install(rank));
                catch_unwind(AssertUnwindSafe(move || f(&comm)))
            };
            // Idle before the result is out: a waiter that posts again at
            // once finds this helper instead of starting another.
            drop(lease);
            *lock_unpoisoned(&theirs.result) = Some(result);
            theirs.done.notify_one();
        }));
        Request { slot }
    }

    /// Nonblocking recursive-doubling allreduce.
    pub fn iallreduce<T, F>(&self, data: Vec<T>, op: F) -> Request<Vec<T>>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T + Send + 'static,
    {
        let tag = self.next_coll_tag();
        self.post(move |comm| {
            comm.try_allreduce_owned_tagged(tag, data, op, None)
                .unwrap_or_else(|e| {
                    panic!("recursive-doubling allreduce (tag {tag:#x}) failed: {e}")
                })
        })
    }

    /// Nonblocking ring allreduce (bandwidth-optimal; the variant libhear
    /// pipelines large messages over).
    pub fn iallreduce_ring<T, F>(&self, data: Vec<T>, op: F) -> Request<Vec<T>>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T + Send + 'static,
    {
        let tag = self.next_coll_tag();
        self.post(move |comm| {
            let mut data = data;
            comm.try_allreduce_ring_in_place(tag, &mut data, op)
                .unwrap_or_else(|e| panic!("ring allreduce (tag {tag:#x}) failed: {e}"));
            data
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::simulator::Simulator;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    #[test]
    fn iallreduce_matches_blocking() {
        let results = Simulator::new(4).run(|comm| {
            let data: Vec<u64> = (0..16).map(|j| comm.rank() as u64 + j).collect();
            let req = comm.iallreduce(data.clone(), |a: &u64, b: &u64| a + b);
            let blocking = comm.allreduce(&data, |a, b| a + b);
            let nb = req.wait();
            (nb, blocking)
        });
        for (nb, blocking) in &results {
            assert_eq!(nb, blocking);
        }
    }

    #[test]
    fn multiple_inflight_requests_complete_in_any_order() {
        let results = Simulator::new(3).run(|comm| {
            let r1 = comm.iallreduce(vec![1u32], |a, b| a + b);
            let r2 = comm.iallreduce(vec![10u32], |a, b| a + b);
            let r3 = comm.iallreduce_ring(vec![100u32; 7], |a, b| a + b);
            // Wait out of order.
            let v3 = r3.wait();
            let v1 = r1.wait();
            let v2 = r2.wait();
            (v1[0], v2[0], v3[0])
        });
        for r in &results {
            assert_eq!(*r, (3, 30, 300));
        }
    }

    #[test]
    fn overlap_with_compute() {
        // Post, compute, then wait: the collective must have progressed in
        // the background (checked via test()).
        let results = Simulator::new(2).run(|comm| {
            let req = comm.iallreduce(vec![comm.rank() as u64], |a, b| a + b);
            std::thread::sleep(Duration::from_millis(50));
            let ready_before_wait = req.test();
            (req.wait()[0], ready_before_wait)
        });
        for (sum, ready) in &results {
            assert_eq!(*sum, 1);
            assert!(
                ready,
                "request should have completed during the overlap window"
            );
        }
    }

    #[test]
    fn interleaved_blocking_and_nonblocking() {
        let results = Simulator::new(2).run(|comm| {
            let r1 = comm.iallreduce(vec![1u8], |a, b| a + b);
            let b1 = comm.allreduce(&[2u8], |a, b| a + b);
            let r2 = comm.iallreduce(vec![3u8], |a, b| a + b);
            (r1.wait()[0], b1[0], r2.wait()[0])
        });
        for r in &results {
            assert_eq!(*r, (2, 4, 6));
        }
    }

    #[test]
    fn a_panicking_job_panics_wait_and_the_next_post_completes() {
        let results = Simulator::new(1).run(|comm| {
            let req = comm.post(|_| -> u32 { panic!("posted job fails") });
            let err = catch_unwind(AssertUnwindSafe(|| req.wait())).expect_err("wait must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            (msg, comm.post(|comm| comm.rank() + 7).wait())
        });
        let (msg, next) = &results[0];
        assert!(
            msg.starts_with("collective progress thread panicked"),
            "{msg}"
        );
        assert_eq!(*next, 7);
    }

    #[test]
    fn a_detached_blocked_job_does_not_delay_a_fresh_post() {
        Simulator::new(1).run(|comm| {
            let (release, gate) = mpsc::channel::<()>();
            let released = Arc::new(AtomicBool::new(false));
            let flag = released.clone();
            drop(comm.post(move |_| {
                let _ = gate.recv();
                flag.store(true, Ordering::SeqCst);
            }));
            let fresh = comm.post(|comm| comm.rank() + 1);
            let t0 = Instant::now();
            while !fresh.test() {
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "the fresh job queued behind the blocked one"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(fresh.wait(), 1);
            assert!(!released.load(Ordering::SeqCst), "the first job ran early");
            release.send(()).expect("the blocked job still waits");
        });
    }
}

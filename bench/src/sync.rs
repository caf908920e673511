//! Rank-thread coordination that survives a dead world.
//!
//! A `std::sync::Barrier` would hang the surviving rank forever when its
//! sibling's call fails; [`Gate`] is a barrier every waiter leaves as soon
//! as any rank abandons the repetition.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// The repetition was abandoned: a call failed on some rank, so the world
/// is dead and the remaining calls cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abandoned;

struct GateState {
    arrived: usize,
    generation: u64,
}

/// Reusable barrier for the ranks of one world, with an abort switch.
pub struct Gate {
    ranks: usize,
    state: Mutex<GateState>,
    moved: Condvar,
    // SeqCst: the flag orders against nothing else, but it is read on the
    // failure path only, where cost is irrelevant.
    aborted: AtomicBool,
}

impl Gate {
    pub fn new(ranks: usize) -> Gate {
        Gate {
            ranks,
            state: Mutex::new(GateState {
                arrived: 0,
                generation: 0,
            }),
            moved: Condvar::new(),
            aborted: AtomicBool::new(false),
        }
    }

    /// Block until every rank has arrived, or until any rank aborts.
    /// Writes made before `wait` are visible to every rank after it (the
    /// mutex hand-over orders them).
    pub fn wait(&self) -> Result<(), Abandoned> {
        // A rank that panicked while holding the lock leaves the counters
        // valid (each update is a single field store), so recover it.
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if self.is_aborted() {
            return Err(Abandoned);
        }
        st.arrived += 1;
        if st.arrived == self.ranks {
            st.arrived = 0;
            st.generation += 1;
            self.moved.notify_all();
            return Ok(());
        }
        let generation = st.generation;
        while st.generation == generation {
            if self.is_aborted() {
                return Err(Abandoned);
            }
            // Bounded park: an abort raised between the check above and
            // the wait below is still seen within one slice.
            st = self
                .moved
                .wait_timeout(st, Duration::from_millis(5))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        Ok(())
    }

    /// Release every current and future waiter with [`Abandoned`].
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        self.moved.notify_all();
    }

    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }
}

/// Aborts the gate if the owning rank thread unwinds — a plaintext
/// `Communicator` collective reports a dead peer by panicking, and the
/// sibling may be parked at the gate rather than inside a receive.
pub struct AbortOnPanic<'a>(pub &'a Gate);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn gate_releases_all_ranks_and_is_reusable() {
        let gate = Gate::new(3);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..100 {
                        assert_eq!(gate.wait(), Ok(()));
                    }
                });
            }
        });
    }

    #[test]
    fn abort_frees_a_parked_waiter() {
        let gate = Gate::new(2);
        let (parked_tx, parked_rx) = mpsc::channel();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                parked_tx.send(()).expect("main thread listens");
                gate.wait()
            });
            // The waiter has started; whether it is already parked or not,
            // the abort must reach it.
            parked_rx.recv().expect("waiter started");
            gate.abort();
            assert_eq!(waiter.join().expect("no panic"), Err(Abandoned));
        });
        assert_eq!(gate.wait(), Err(Abandoned));
    }

    #[test]
    fn unwinding_rank_aborts_the_gate() {
        let gate = Gate::new(2);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = AbortOnPanic(&gate);
            std::panic::resume_unwind(Box::new(Abandoned));
        }));
        assert!(died.is_err());
        assert!(gate.is_aborted());
    }
}

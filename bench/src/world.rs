//! Running rank bodies in a fresh world, and failure accounting that
//! survives the world dying under them.
//!
//! A call that returns `Err` (for example `PeerDead`) is logged, the gate
//! is aborted, and the failing rank thread unwinds ([`Rank::die`]): `Simulator::run` then
//! marks the rank dead in the transport, so a sibling still blocked in a
//! receive gets a typed error instead of waiting forever. The world's
//! owner sees `None` and starts the next repetition on a fresh world.

use crate::sync::{Abandoned, AbortOnPanic, Gate};
use hear::mpi::{Communicator, SimConfig, Simulator, TransportKind};
use std::fmt::Display;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// What the ranks of one world share: the gate, and one stop flag per
/// time-boxed loop (rank 0 owns the clock; a flag is raised once and never
/// reused, so no rank can miss or re-read a stale decision).
pub struct Shared {
    pub gate: Gate,
    stops: Vec<AtomicBool>,
}

impl Shared {
    pub fn new(ranks: usize, loops: usize) -> Shared {
        Shared {
            gate: Gate::new(ranks),
            stops: (0..loops).map(|_| AtomicBool::new(false)).collect(),
        }
    }
}

/// Run `body` on every rank of a fresh `world`-rank world over
/// `transport`. `None` when any rank abandoned or panicked — the world is
/// dead and nothing it returned can be trusted.
pub fn run_world<R: Send>(
    transport: TransportKind,
    world: usize,
    shared: &Shared,
    body: impl Fn(&Communicator) -> Result<R, Abandoned> + Send + Sync,
) -> Option<Vec<R>> {
    let sim = Simulator::with_config(world, SimConfig::default().with_transport(transport));
    let ran = catch_unwind(AssertUnwindSafe(|| {
        sim.run(|comm| {
            let _abort = AbortOnPanic(&shared.gate);
            body(comm)
        })
    }));
    match ran {
        Ok(results) => results
            .into_iter()
            .collect::<Result<Vec<R>, Abandoned>>()
            .ok(),
        Err(_) => None,
    }
}

/// Lock a mutex whose data stays valid at every step (append-only logs,
/// counters), so a rank that unwound while holding it poisons nothing.
pub fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One rank thread's handle on its world: where it waits for its
/// siblings, learns when to stop, and abandons the world.
#[derive(Clone, Copy)]
pub struct Rank<'a> {
    pub shared: &'a Shared,
    pub id: usize,
}

impl<'a> Rank<'a> {
    pub fn new(shared: &'a Shared, comm: &Communicator) -> Rank<'a> {
        Rank {
            shared,
            id: comm.rank(),
        }
    }

    /// Abandon the world from inside a rank thread: log why, release the
    /// siblings from the gate, and unwind so the simulator kills this rank
    /// in the transport (without the panic hook's backtrace noise).
    pub fn die(&self, what: &str, why: &dyn Display) -> ! {
        eprintln!(
            "hearbench: rank {}: {what}: {why} — abandoning this world",
            self.id
        );
        self.shared.gate.abort();
        resume_unwind(Box::new(Abandoned))
    }

    /// Block until every rank of the world has arrived.
    pub fn wait(&self) -> Result<(), Abandoned> {
        self.shared.gate.wait()
    }

    /// Time one engine call; an `Err` abandons the world.
    pub fn timed<E: Display>(&self, what: &str, call: impl FnOnce() -> Result<(), E>) -> Duration {
        let t = Instant::now();
        let result = call();
        let took = t.elapsed();
        if let Err(e) = result {
            self.die(what, &e);
        }
        took
    }

    /// Run `f` on rank 0 while every other rank is parked between two
    /// gates, so what `f` reads (counters, the allocator) is quiescent.
    pub fn fenced<T>(&self, f: impl FnOnce() -> T) -> Result<Option<T>, Abandoned> {
        self.wait()?;
        let out = (self.id == 0).then(f);
        self.wait()?;
        Ok(out)
    }

    /// Run `body(iteration)` on every rank until rank 0's clock says
    /// `budget` is spent or `max_iters` iterations ran, at least once. All
    /// ranks enter each iteration together and run the same number of
    /// them, which is returned. `loop_id` names this loop's stop flag in
    /// [`Shared`].
    pub fn timed_loop(
        &self,
        loop_id: usize,
        budget: Duration,
        max_iters: usize,
        mut body: impl FnMut(usize) -> Result<(), Abandoned>,
    ) -> Result<usize, Abandoned> {
        let stop = &self.shared.stops[loop_id];
        let start = Instant::now();
        let mut done = 0usize;
        loop {
            if self.id == 0 && done >= 1 && (start.elapsed() >= budget || done >= max_iters) {
                // SeqCst, and the gate's mutex hand-over orders it before
                // the siblings' load below.
                stop.store(true, Ordering::SeqCst);
            }
            self.wait()?;
            if stop.load(Ordering::SeqCst) {
                return Ok(done);
            }
            body(done)?;
            done += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hear::mpi::CommError;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn timed_loop_runs_the_same_count_on_every_rank() {
        let shared = Shared::new(2, 2);
        let counts = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let out = run_world(TransportKind::Memory, 2, &shared, |comm| {
            let rank = Rank::new(&shared, comm);
            // Loop 0 stops on the iteration cap, loop 1 on the clock.
            let capped = rank.timed_loop(0, Duration::from_secs(60), 3, |_| {
                counts[rank.id].fetch_add(1, Ordering::SeqCst);
                Ok(())
            })?;
            let timed = rank.timed_loop(1, Duration::ZERO, usize::MAX, |_| Ok(()))?;
            Ok((capped, timed))
        })
        .expect("healthy world");
        assert_eq!(out, vec![(3, 1), (3, 1)]);
        assert_eq!(counts[0].load(Ordering::SeqCst), 3);
        assert_eq!(counts[1].load(Ordering::SeqCst), 3);
    }

    #[test]
    fn a_dying_rank_abandons_the_world_without_hanging_its_sibling() {
        let shared = Shared::new(2, 1);
        let out = run_world(TransportKind::Memory, 2, &shared, |comm| {
            let rank = Rank::new(&shared, comm);
            if rank.id == 0 {
                rank.die("test call", &"injected failure");
            }
            // The sibling is blocked in a receive from the dying rank:
            // the simulator marks rank 0 dead, so it must get a typed
            // error rather than wait out the deadline; then the gate must
            // refuse it too.
            let got = comm.recv_timeout::<u8>(0, 1, Duration::from_secs(30));
            assert!(
                matches!(got, Err(CommError::PeerDead { peer: 0 })),
                "{got:?}"
            );
            rank.wait()
        });
        assert!(out.is_none());
        assert!(shared.gate.is_aborted());
    }
}

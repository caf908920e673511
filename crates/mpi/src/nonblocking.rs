//! Nonblocking collectives (`MPI_Iallreduce` and friends).
//!
//! The paper's libhear overlaps encryption/decryption of neighbouring
//! pipeline blocks with the in-flight reduction of the current block
//! (paper §6, "Communication"). This module supplies the primitive that
//! makes the overlap possible: a posted collective returns a [`Request`]
//! immediately and progresses on a helper thread, while the caller keeps
//! the CPU for crypto work.
//!
//! The collective tag block is allocated at *post* time, in program order,
//! so blocking and nonblocking collectives can be freely interleaved as
//! long as every rank posts them in the same order — the usual MPI rule.

use crate::comm::Communicator;
use std::thread::JoinHandle;

/// Handle to an in-flight collective. Dropping a request without waiting
/// detaches the progress thread (the operation still completes).
pub struct Request<R: Send + 'static> {
    handle: JoinHandle<R>,
}

impl<R: Send + 'static> Request<R> {
    /// Block until the operation completes and return its result.
    pub fn wait(self) -> R {
        self.handle
            .join()
            .expect("collective progress thread panicked")
    }

    /// True when the result is ready (wait will not block).
    pub fn test(&self) -> bool {
        self.handle.is_finished()
    }
}

impl Communicator {
    /// Post `f` — any blocking collective on a tag reserved by the caller,
    /// in program order — to a helper thread that runs it on a clone of
    /// this communicator under the caller's telemetry context. `f`'s waits
    /// should be bounded by a deadline and its failures returned typed, so
    /// they come back through `wait()` instead of poisoning the join. The
    /// HEAR engine posts every pipelined block through this.
    pub fn post<R, F>(&self, f: F) -> Request<R>
    where
        R: Send + 'static,
        F: FnOnce(&Communicator) -> R + Send + 'static,
    {
        let comm = self.clone();
        let tele = hear_telemetry::spawn_context();
        Request {
            handle: std::thread::spawn(move || {
                let _tele = tele.map(|(reg, rank)| reg.install(rank));
                f(&comm)
            }),
        }
    }

    /// Nonblocking recursive-doubling allreduce.
    pub fn iallreduce<T, F>(&self, data: Vec<T>, op: F) -> Request<Vec<T>>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T + Send + 'static,
    {
        let tag = self.next_coll_tag();
        self.post(move |comm| comm.allreduce_owned_tagged(tag, data, op))
    }

    /// Nonblocking ring allreduce (bandwidth-optimal; the variant libhear
    /// pipelines large messages over).
    pub fn iallreduce_ring<T, F>(&self, data: Vec<T>, op: F) -> Request<Vec<T>>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T + Send + 'static,
    {
        let tag = self.next_coll_tag();
        self.post(move |comm| comm.allreduce_ring_tagged(tag, &data, op))
    }

    /// Nonblocking switch-tree allreduce — the INC counterpart of
    /// [`Communicator::iallreduce_ring`].
    pub fn iallreduce_inc<T, F>(&self, data: Vec<T>, op: F) -> Request<Vec<T>>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T + Send + Sync + Clone + 'static,
    {
        let tag = self.next_coll_tag();
        self.post(move |comm| comm.allreduce_inc_tagged(tag, data, op))
    }
}

#[cfg(test)]
mod tests {
    use crate::simulator::Simulator;
    use std::time::Duration;

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
    fn iallreduce_inc_matches_blocking_inc() {
        use crate::simulator::SimConfig;
        let results = Simulator::with_config(4, SimConfig::default().with_switch(4)).run(|comm| {
            let data: Vec<u64> = (0..9).map(|j| comm.rank() as u64 * 10 + j).collect();
            let req = comm.iallreduce_inc(data.clone(), |a: &u64, b: &u64| a + b);
            let blocking = comm.allreduce_inc(&data, |a: &u64, b: &u64| a + b);
            (req.wait(), blocking)
        });
        for (nb, blocking) in &results {
            assert_eq!(nb, blocking);
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
}

//! Posted pipeline blocks and switch-node services run on a process-wide
//! cache of parked helper threads: once the cache covers the pipeline's
//! peak, a steady stream of calls starts no thread at all. This file is
//! its own test binary because the helper count is process-wide; it
//! honours `HEAR_TRANSPORT`, so the TCP row of CI runs it over sockets.

use hear::core::{Backend, CommKeys, IntSumScheme};
use hear::layer::{EngineCfg, ReduceAlgo, SecureComm};
use hear::mpi::{helpers_started, SimConfig, Simulator};
use std::sync::{Arc, Barrier};

const WORLD: usize = 2;
/// Blocks one rank keeps posted at once (the engine's pipeline depth).
const DEPTH: usize = 2;
const CALLS: usize = 20;
const LEN: u32 = 256;

#[test]
fn pipelined_and_switch_calls_start_no_helper_after_warm_up() {
    let held = Arc::new(Barrier::new(WORLD * DEPTH));
    let sim = Simulator::with_config(WORLD, SimConfig::default().with_switch(2));
    let results = sim.run(|comm| {
        let keys = CommKeys::generate(WORLD, 0x40, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let mut sc = SecureComm::new(comm.clone(), keys);
        let data: Vec<u32> = (0..LEN).map(|i| i * (comm.rank() as u32 + 1)).collect();
        let ring = EngineCfg::pipelined(16).with_algo(ReduceAlgo::Ring);
        let switch = EngineCfg::sync().with_algo(ReduceAlgo::Switch);
        let mut call = |cfg| {
            sc.allreduce_with(&mut IntSumScheme::default(), &data, cfg)
                .expect("allreduce")
        };
        // Warm-up: one pipelined call, then DEPTH jobs per rank held at
        // once, so the cache reaches the peak the pipeline can reach
        // whatever the ranks' relative timing.
        let want = call(ring);
        let jobs: Vec<_> = (0..DEPTH)
            .map(|_| {
                let held = held.clone();
                comm.post(move |_| {
                    held.wait();
                })
            })
            .collect();
        jobs.into_iter().for_each(|r| r.wait());
        comm.barrier();
        let before = helpers_started();
        for _ in 0..CALLS {
            assert_eq!(call(ring), want);
        }
        assert_eq!(call(switch), want);
        comm.barrier();
        (want, before, helpers_started())
    });
    let sum: Vec<u32> = (0..LEN).map(|i| i * 3).collect();
    for (rank, (got, before, after)) in results.into_iter().enumerate() {
        assert_eq!(got, sum, "rank {rank}");
        assert!(before >= (WORLD * DEPTH) as u64, "rank {rank}: {before}");
        assert_eq!(
            after - before,
            0,
            "rank {rank}: {CALLS} pipelined calls of {} blocks and a switch call started helpers",
            LEN / 16
        );
    }
}

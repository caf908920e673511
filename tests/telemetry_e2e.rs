//! End-to-end telemetry validation (the PR's acceptance scenario).
//!
//! A 4-rank *pipelined* encrypted allreduce runs under an installed
//! private registry; the resulting chrome-trace must cover encrypt,
//! per-block send/recv, reduce and decrypt on **every** rank, and the
//! fabric byte counters must equal the ring collective's message schedule
//! exactly. All emitted formats are re-parsed with the in-repo parsers.
//! Every collective's top-level span also records the thread count of the
//! rank's lane, its share of the process thread budget.

use hear::core::{Backend, CommKeys, Homac, IntSumScheme};
use hear::layer::{EngineCfg, ReduceAlgo, SecureComm};
use hear::mpi::{SimConfig, Simulator, TransportKind};
use hear::prf::WorkerPool;
use hear::telemetry::{export, parse, Gauge, Metric, Registry};

const WORLD: usize = 4;
const ELEMS: usize = 64; // u32 elements per rank
const BLOCK: usize = 16; // pipeline block size -> 4 blocks
const BLOCKS: u64 = (ELEMS / BLOCK) as u64;

/// Ring allreduce schedule for one block of `len` elements on `p` ranks:
/// 2(p-1) steps, each step sends one chunk per rank and the per-step
/// chunks partition the block — so bytes per block = 2(p-1)·len·4,
/// independent of the chunking, and messages per block = 2(p-1)·p.
const fn ring_bytes(p: u64, total_elems: u64) -> u64 {
    2 * (p - 1) * total_elems * 4
}

const fn ring_msgs(p: u64, blocks: u64) -> u64 {
    blocks * 2 * (p - 1) * p
}

fn run_traced_pipeline(transport: TransportKind) -> Registry {
    let reg = Registry::new_enabled();
    let _ctx = reg.install(None);
    let config = SimConfig::default().with_transport(transport);
    let results = Simulator::with_config(WORLD, config).run(|comm| {
        let keys = CommKeys::generate(WORLD, 0xe2e, Backend::AesSoft)
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let mut sc = SecureComm::new(comm.clone(), keys);
        let data: Vec<u32> = (0..ELEMS as u32)
            .map(|j| comm.rank() as u32 * 100 + j)
            .collect();
        let cfg = EngineCfg::pipelined(BLOCK).with_algo(ReduceAlgo::Ring);
        sc.allreduce_with(&mut IntSumScheme::default(), &data, cfg)
            .unwrap()
    });
    // Correctness first: telemetry must never perturb results.
    for v in &results {
        for (j, x) in v.iter().enumerate() {
            let expect: u32 = (0..WORLD as u32).map(|r| r * 100 + j as u32).sum();
            assert_eq!(*x, expect);
        }
    }
    reg
}

/// The fabric counters of one run equal the ring collective's message
/// schedule exactly, whichever wire moved the bytes.
fn assert_exact_ring_schedule(reg: &Registry) {
    let p = WORLD as u64;
    assert_eq!(
        reg.counter(Metric::FabricBytes),
        ring_bytes(p, ELEMS as u64),
        "fabric bytes must equal the ring schedule"
    );
    assert_eq!(reg.counter(Metric::FabricMsgs), ring_msgs(p, BLOCKS));
    // Every message was received exactly once, by spin or by park.
    assert_eq!(
        reg.counter(Metric::MailboxSpinHits) + reg.counter(Metric::MailboxParks),
        ring_msgs(p, BLOCKS)
    );
    // Histogram totals agree with the byte counter.
    let (count, sum) = reg.hist_totals(hear::telemetry::Hist::FabricMsgBytes);
    assert_eq!(count, ring_msgs(p, BLOCKS));
    assert_eq!(sum, ring_bytes(p, ELEMS as u64));
}

/// Socket-borne messages are counted on the sending rank's thread, so a
/// privately installed registry sees them — the same exact schedule as on
/// the in-memory fabric, with `HEAR_TRANSPORT` playing no part.
#[test]
fn tcp_deliveries_land_in_the_installed_registry() {
    assert_exact_ring_schedule(&run_traced_pipeline(TransportKind::Tcp));
}

#[test]
fn traced_pipelined_allreduce_covers_every_phase_on_every_rank() {
    let reg = run_traced_pipeline(TransportKind::FromEnv);

    // --- exact fabric schedule ------------------------------------------
    let p = WORLD as u64;
    assert_exact_ring_schedule(&reg);
    // One pipelined call per rank: one key advance and BLOCKS blocks each.
    assert_eq!(reg.counter(Metric::KeyAdvances), p);
    assert_eq!(reg.counter(Metric::PipelineBlocks), p * BLOCKS);
    // Each rank posted one ring collective per block.
    assert_eq!(reg.counter(Metric::Collectives), p * BLOCKS);
    // The pipeline fully drained.
    assert_eq!(reg.gauge(Gauge::PipelineInFlight), 0);
    // Every keystream byte is generated inline and counted exactly once:
    // the mask folds two streams on P − 1 ranks and one on the last, the
    // unmask one stream on every rank — 3P − 1 streams over ELEMS words.
    let keystream = (3 * p - 1) * ELEMS as u64 * 4;
    assert_eq!(reg.counter(Metric::KeystreamBytes), keystream);
    assert_eq!(reg.counter(Metric::MaskedBytesAesSoft), keystream);
    assert_eq!(
        reg.counter(Metric::PrefetchHits) + reg.counter(Metric::PrefetchMisses),
        0,
        "nothing prefetches"
    );

    // --- chrome trace: every phase on every rank's lane -----------------
    let trace = export::chrome_trace(&reg);
    let events = parse::parse_chrome_trace(&trace).expect("trace must self-parse");
    for rank in 0..WORLD as u64 {
        for phase in ["encrypt", "send", "recv", "reduce", "decrypt", "pipeline"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.ph == "X" && e.name == phase && e.tid == rank),
                "missing span `{phase}` on rank {rank}'s lane"
            );
        }
        // Per-block sends: the ring schedule has 2(P-1) sends per rank per
        // block; every one must appear as its own span.
        let sends = events
            .iter()
            .filter(|e| e.ph == "X" && e.name == "send" && e.tid == rank)
            .count() as u64;
        assert_eq!(sends, BLOCKS * 2 * (WORLD as u64 - 1), "rank {rank}");
    }
    // Lane metadata present for Perfetto row naming.
    assert!(events
        .iter()
        .any(|e| e.ph == "M" && e.name == "thread_name"));
    assert_eq!(
        reg.dropped_events(),
        0,
        "ring buffers must not have evicted"
    );

    // --- Prometheus + snapshot round-trip -------------------------------
    let prom = export::prometheus(&reg);
    let samples = parse::parse_prometheus(&prom).expect("prom must self-parse");
    let find = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing prom sample {name}"))
            .value
    };
    assert_eq!(
        find("hear_fabric_bytes_total"),
        ring_bytes(p, ELEMS as u64) as f64
    );
    assert_eq!(
        find("hear_fabric_messages_total"),
        ring_msgs(p, BLOCKS) as f64
    );
    assert_eq!(find("hear_pipeline_blocks_total"), (p * BLOCKS) as f64);

    let snap = export::json_snapshot(&reg);
    let v = parse::parse_json(&snap).expect("snapshot must self-parse");
    assert_eq!(
        v.get("counters")
            .and_then(|c| c.get("hear_fabric_bytes_total"))
            .and_then(|n| n.as_f64()),
        Some(ring_bytes(p, ELEMS as u64) as f64)
    );
}

/// The top-level span of every collective — both reductions plain and
/// verified, the pipeline, the allgather and the alltoall — carries the
/// thread count of the pool its fan-out ran on: the rank's lane, `max(1,
/// B / world)` of the process budget `B`. The chrome trace keeps it.
#[test]
fn every_collective_span_records_its_lane_threads() {
    const W: usize = 2;
    let reg = Registry::new_enabled();
    let _ctx = reg.install(None);
    Simulator::new(W).run(|comm| {
        let keys = CommKeys::generate(W, 0x1a2e, Backend::AesSoft)
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let homac = Homac::generate(0x1a2f, Backend::AesSoft);
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let data: Vec<u32> = (0..8).map(|j| comm.rank() as u32 + j).collect();
        let mut s = IntSumScheme::<u32>::default();
        let sync = EngineCfg::sync();
        for cfg in [sync, sync.verified()] {
            sc.allreduce_with(&mut s, &data, cfg).unwrap();
            sc.reduce_scatter_with(&mut s, &data, cfg).unwrap();
        }
        sc.allreduce_with(&mut s, &data, EngineCfg::pipelined(4))
            .unwrap();
        sc.allgather_with(&mut s, &data, sync).unwrap();
        sc.alltoall_with(&mut s, &data, sync).unwrap();
    });
    let lane = (WorkerPool::global().threads() / W).max(1) as f64;
    let trace = export::chrome_trace(&reg);
    let events = parse::parse_chrome_trace(&trace).expect("trace must self-parse");
    for name in [
        "secure_allreduce",
        "secure_allreduce_verified",
        "secure_reduce_scatter",
        "secure_reduce_scatter_verified",
        "pipeline",
        "secure_allgather",
        "secure_alltoall",
    ] {
        for rank in 0..W as u64 {
            let span = events
                .iter()
                .find(|e| e.ph == "X" && e.name == name && e.tid == rank)
                .unwrap_or_else(|| panic!("no `{name}` span on rank {rank}"));
            let threads = span.args.get("threads").and_then(|t| t.as_f64());
            assert_eq!(threads, Some(lane), "`{name}` on rank {rank}");
        }
    }
}

#[test]
fn concurrent_ranks_keep_lanes_rank_correct() {
    // All four ranks record concurrently into one registry; spans must not
    // interleave across lanes and counters must be attributed somewhere
    // exactly once (totals already checked above — here: attribution).
    let reg = run_traced_pipeline(TransportKind::FromEnv);
    let evs = reg.span_events();
    // The rank threads and their collective progress threads carry rank
    // lanes; only the installing main thread may be rankless, and it
    // records no spans in this scenario.
    assert!(
        evs.iter().all(|e| e.rank.is_some()),
        "span leaked to a rankless lane"
    );
    for rank in 0..WORLD {
        // Every rank ran the same program: same number of sends on each
        // lane (the schedule is symmetric).
        let sends = evs
            .iter()
            .filter(|e| e.name == "send" && e.rank == Some(rank))
            .count();
        assert_eq!(sends as u64, BLOCKS * 2 * (WORLD as u64 - 1));
        // Depth sanity: "send" always nests under a collective span.
        assert!(evs
            .iter()
            .filter(|e| e.name == "send" && e.rank == Some(rank))
            .all(|e| e.depth > 0));
    }
}

#[test]
fn disabled_tracing_is_inert_end_to_end() {
    // With HEAR_TRACE unset and no private registry installed, an
    // encrypted allreduce must record nothing and spans must be inert.
    if hear::telemetry::env_enabled() {
        return; // environment exported HEAR_TRACE; skip
    }
    let results = Simulator::new(2).run(|comm| {
        let keys = CommKeys::generate(2, 7, Backend::AesSoft)
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let s = hear::telemetry::span!("probe");
        assert!(!s.is_recording() || hear::telemetry::active());
        SecureComm::new(comm.clone(), keys)
            .allreduce_with(
                &mut IntSumScheme::default(),
                &[1u32, 2, 3, 4],
                EngineCfg::sync(),
            )
            .unwrap()
    });
    for v in &results {
        assert_eq!(*v, vec![2, 4, 6, 8]);
    }
    assert_eq!(Registry::global().counter(Metric::FabricMsgs), 0);
}

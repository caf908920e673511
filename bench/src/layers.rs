//! The traced pass: per-layer metrics, none of them gated.
//!
//! Everything is observed from outside the program. Stage costs come from
//! re-enacting one secure call out of public pieces on every rank
//! ([`crate::staged`]), each piece wrapped in a bench-side span; counts
//! come from the existing `hear-telemetry` counters (read off the global
//! registry, switched on for the traced phases only); allocations from the traced binary's counting allocator.
//! The same process also runs the secure call and its plaintext twin
//! with telemetry off, in alternating sub-blocks so drift cancels — that
//! pair gives the paper's headline ratio (`layer.overhead_x`) and the
//! base every other share here is taken of.

use crate::e2e::WARMUP;
use crate::report::{Metrics, RunResult, PER_LAYER};
use crate::spans::{chrome_trace, SpanLog};
use crate::staged::Staged;
use crate::stats::{block_call_us, median, percentile_sorted, tail_percentile};
use crate::sync::Abandoned;
use crate::workload::{
    alt_chunk, block_elems, float_close, Call, Inputs, Session, Spec, PIPE_BLOCK, WORLD,
};
use crate::world::{locked, run_world, Rank, Shared};
use crate::{alloc, kernels};
use hear::core::{FloatSumScheme, HfpFormat, IntSumScheme, Scheme};
use hear::layer::{EngineCfg, RetryPolicy, SecureComm};
use hear::mpi::{Communicator, TransportKind};
use hear::telemetry::{Metric, Registry};
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

// Stop-flag identifiers of the main world's time-boxed loops.
const PLAIN: usize = 0;
const TRACED: usize = 1;
const STAGED: usize = 2;
const ALT: usize = 3;
const RS: usize = 4;
const AG: usize = 5;
const A2A: usize = 6;
const LOOPS: usize = 7;

/// Traced and staged calls are capped so a small-message workload does not
/// write a chrome trace of hundreds of megabytes.
const MAX_SPANNED_CALLS: usize = 3_000;

/// 16-byte ping-pong round trips for `mpi.p2p_rtt_us`.
const RTT_ROUNDS: usize = 2_000;

/// Fresh worlds (one 32 MiB single-frame allreduce each) behind
/// `mpi.tcp_big_msg_ok_share`.
const BIG_WORLDS: usize = 5;

/// Telemetry counters the traced blocks are bracketed with.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    msgs: u64,
    bytes: u64,
    spin_hits: u64,
    parks: u64,
    transit_ns: u64,
    prefetch_hits: u64,
    prefetch_misses: u64,
    retries: u64,
}

impl Counters {
    fn read(reg: &Registry) -> Counters {
        Counters {
            msgs: reg.counter(Metric::FabricMsgs),
            bytes: reg.counter(Metric::FabricBytes),
            spin_hits: reg.counter(Metric::MailboxSpinHits),
            parks: reg.counter(Metric::MailboxParks),
            transit_ns: reg.counter(Metric::TransitWaitNanos),
            prefetch_hits: reg.counter(Metric::PrefetchHits),
            prefetch_misses: reg.counter(Metric::PrefetchMisses),
            retries: reg.counter(Metric::RetriesTotal),
        }
    }

    fn since(self, earlier: Counters) -> Counters {
        Counters {
            msgs: self.msgs - earlier.msgs,
            bytes: self.bytes - earlier.bytes,
            spin_hits: self.spin_hits - earlier.spin_hits,
            parks: self.parks - earlier.parks,
            transit_ns: self.transit_ns - earlier.transit_ns,
            prefetch_hits: self.prefetch_hits - earlier.prefetch_hits,
            prefetch_misses: self.prefetch_misses - earlier.prefetch_misses,
            retries: self.retries - earlier.retries,
        }
    }
}

fn share(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

/// What rank 0 observes for the whole world between two fences.
#[derive(Default)]
struct WorldCounts {
    traced: Counters,
    traced_calls: u64,
    allocs: u64,
    alloc_bytes: u64,
    alloc_calls: u64,
}

/// What every rank measures for itself.
struct RankOut {
    log: SpanLog,
    /// Per-call microseconds of the secure call, telemetry off.
    call_us: Vec<f64>,
    /// Busy seconds per block: secure (telemetry off), plaintext twin,
    /// secure (telemetry on).
    secure_blocks: Vec<f64>,
    native_blocks: Vec<f64>,
    traced_blocks: Vec<f64>,
    /// Mean microseconds per call of the side measurements.
    alt_us: f64,
    rs_us: f64,
    ag_us: f64,
    a2a_us: f64,
    rtt_us: f64,
    stream_mbps: f64,
    /// Mean `StepStats` phases (reduce-scatter, update, allgather) in us.
    dnn_us: [f64; 3],
    checked: u64,
    wrong: u64,
}

/// One checked secure call, timed; failures abandon the world.
fn checked_call(sess: &mut Session, rank: Rank, out: &mut RankOut) -> Duration {
    let took = rank.timed("secure call", || sess.call());
    out.checked += 1;
    if !sess.output_ok() {
        eprintln!(
            "hearbench: rank {}: secure call produced a wrong output",
            rank.id
        );
        out.wrong += 1;
    }
    took
}

pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    out_dir: Option<&Path>,
) -> Result<RunResult, String> {
    let mut m: Metrics = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    kernels::measure(spec, seed, &mut m);

    // The process-global registry, not a private one: over TCP a delivery
    // is counted on the transport's progress thread, and a thread without
    // an installed context records only into the global registry. Rank
    // threads inherit it at spawn; the ranks switch it off for the
    // untraced phases. (`run.sh` clears `HEAR_TRACE`, so it starts off.)
    let reg = Registry::global();
    reg.set_enabled(true);

    let (mut attempted, mut failed) = (0u64, 0u64);
    let inputs = Inputs::generate(spec, seed, WORLD);
    let shared = Shared::new(WORLD, LOOPS);
    let main = MainWorld {
        spec,
        inputs: &inputs,
        shared: &shared,
        counts: Mutex::new(WorldCounts::default()),
        seed,
        seconds,
        origin: Instant::now(),
    };
    let ranks = run_world(spec.transport, WORLD, &shared, |comm| main.rank(comm));
    let counts = main.counts.into_inner();
    drop(inputs);
    match ranks {
        Some(ranks) => {
            let counts = counts.unwrap_or_else(std::sync::PoisonError::into_inner);
            fold_main_world(spec, &ranks, &counts, &mut m);
            attempted += ranks[0].checked;
            failed += ranks.iter().map(|r| r.wrong).max().unwrap_or(0);
            if let Some(dir) = out_dir {
                let logs: Vec<SpanLog> = ranks.into_iter().map(|r| r.log).collect();
                let file = dir.join(format!("{}.trace.json", spec.name));
                std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(&file, chrome_trace(&logs).render()))
                    .map_err(|e| format!("writing {}: {e}", file.display()))?;
            }
        }
        None => {
            eprintln!("hearbench: {}: the traced world was abandoned", spec.name);
            attempted += 1;
            failed += 1;
        }
    }

    reg.set_enabled(true);
    match world4_counts(spec, seed) {
        Some((delta, ok)) => {
            m.insert("mpi.msgs_per_call_w4", delta.msgs as f64);
            m.insert("mpi.bytes_per_call_w4", delta.bytes as f64);
            attempted += 1;
            failed += u64::from(!ok);
        }
        None => {
            attempted += 1;
            failed += 1;
        }
    }
    reg.set_enabled(false);

    // Last, because a failed frame may leave the process's sockets in a
    // state the other measurements should not inherit.
    if spec.on_tcp() {
        m.insert("mpi.tcp_big_msg_ok_share", big_tcp_messages(seed));
    }
    Ok(RunResult {
        attempted: attempted.max(1),
        failed,
        metrics: m,
    })
}

/// The world-2 run of the traced pass as every rank thread sees it.
struct MainWorld<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    shared: &'a Shared,
    /// Filled by rank 0 between fences.
    counts: Mutex<WorldCounts>,
    seed: u64,
    seconds: f64,
    /// Shared time axis of the ranks' span lanes.
    origin: Instant,
}

impl MainWorld<'_> {
    fn rank(&self, comm: &Communicator) -> Result<RankOut, Abandoned> {
        let (spec, inputs) = (self.spec, self.inputs);
        let reg = Registry::global();
        let rank = Rank::new(self.shared, comm);
        let per_block = spec.calls_per_block;
        let secs = |share: f64| Duration::from_secs_f64(self.seconds * share);
        let spanned_blocks = (MAX_SPANNED_CALLS / per_block).max(1);
        let mut out = RankOut {
            log: SpanLog::new(rank.id, self.origin),
            call_us: Vec::new(),
            secure_blocks: Vec::new(),
            native_blocks: Vec::new(),
            traced_blocks: Vec::new(),
            alt_us: 0.0,
            rs_us: 0.0,
            ag_us: 0.0,
            a2a_us: 0.0,
            rtt_us: 0.0,
            stream_mbps: 0.0,
            dnn_us: [0.0; 3],
            checked: 0,
            wrong: 0,
        };
        let mut sess = Session::open(spec, comm, inputs, self.seed);
        for _ in 0..WARMUP {
            checked_call(&mut sess, rank, &mut out);
        }

        // Telemetry off: the secure call and its plaintext twin, alternating.
        rank.fenced(|| reg.set_enabled(false))?;
        let mut dnn_sum = [Duration::ZERO; 3];
        rank.timed_loop(PLAIN, secs(1.0 / 3.0), usize::MAX, |_| {
            let mut busy = Duration::ZERO;
            for _ in 0..per_block {
                let took = checked_call(&mut sess, rank, &mut out);
                out.call_us.push(took.as_secs_f64() * 1e6);
                busy += took;
                if let Some(s) = sess.step_stats() {
                    dnn_sum[0] += s.reduce_scatter;
                    dnn_sum[1] += s.local_update;
                    dnn_sum[2] += s.allgather;
                }
            }
            out.secure_blocks.push(busy.as_secs_f64());
            let t = Instant::now();
            for _ in 0..per_block {
                sess.native(comm);
            }
            out.native_blocks.push(t.elapsed().as_secs_f64());
            Ok(())
        })?;
        for (mean, sum) in out.dnn_us.iter_mut().zip(dnn_sum) {
            *mean = sum.as_secs_f64() * 1e6 / out.call_us.len() as f64;
        }

        // Steady-state allocations of one block, all threads of the process.
        let before = rank.fenced(alloc::counts)?;
        for _ in 0..per_block {
            checked_call(&mut sess, rank, &mut out);
        }
        if let (Some((a0, b0)), Some((a1, b1))) = (before, rank.fenced(alloc::counts)?) {
            let mut c = locked(&self.counts);
            c.allocs = a1 - a0;
            c.alloc_bytes = b1 - b0;
            c.alloc_calls = per_block as u64;
        }

        // Telemetry on: the same call under a bench-side span, counters
        // bracketing the blocks.
        let before = rank.fenced(|| {
            reg.set_enabled(true);
            Counters::read(reg)
        })?;
        let traced_blocks = rank.timed_loop(TRACED, secs(1.0 / 6.0), spanned_blocks, |_| {
            let mut busy = Duration::ZERO;
            for _ in 0..per_block {
                out.log.next_call();
                let span = out.log.begin("secure_call");
                busy += checked_call(&mut sess, rank, &mut out);
                out.log.end(span);
            }
            out.traced_blocks.push(busy.as_secs_f64());
            Ok(())
        })?;
        let after = rank.fenced(|| {
            let c = Counters::read(reg);
            reg.set_enabled(false);
            c
        })?;
        if let (Some(before), Some(after)) = (before, after) {
            let mut c = locked(&self.counts);
            c.traced = after.since(before);
            c.traced_calls = (traced_blocks * per_block) as u64;
        }

        // One secure call re-enacted from public pieces, stage by stage;
        // one unrecorded call first, so fresh buffers fault their pages in
        // before the spans count.
        let mut staged = Staged::open(spec, comm, inputs, self.seed);
        let mut staged_wrong = |log: &mut SpanLog| {
            let ok = staged.call(comm, log);
            if !ok {
                eprintln!(
                    "hearbench: rank {}: staged call produced a wrong output",
                    rank.id
                );
            }
            u64::from(!ok)
        };
        out.checked += 1;
        out.wrong += staged_wrong(&mut SpanLog::new(rank.id, self.origin));
        rank.timed_loop(STAGED, secs(1.0 / 6.0), spanned_blocks, |_| {
            for _ in 0..per_block {
                out.checked += 1;
                out.wrong += staged_wrong(&mut out.log);
            }
            Ok(())
        })?;

        let side = Side {
            rank,
            budget: secs(1.0 / 20.0),
            per_block,
        };
        side_collectives(spec, inputs, &mut sess, side, &mut out)?;

        rank.wait()?;
        out.rtt_us = ping_pong_us(comm);
        rank.wait()?;
        out.stream_mbps = stream_mbps(comm, spec.hop_bytes());
        Ok(out)
    }
}

/// How the side measurements pace themselves.
#[derive(Clone, Copy)]
struct Side<'a> {
    rank: Rank<'a>,
    budget: Duration,
    per_block: usize,
}

impl Side<'_> {
    /// Mean microseconds per call over time-boxed blocks of `body`, which
    /// returns how long its call took (its output check stays outside).
    /// One unmeasured call first grows the arena and faults fresh pages in.
    fn mean_call_us(
        &self,
        loop_id: usize,
        mut body: impl FnMut() -> Duration,
    ) -> Result<f64, Abandoned> {
        body();
        let mut busy = Duration::ZERO;
        let blocks = self
            .rank
            .timed_loop(loop_id, self.budget, usize::MAX, |_| {
                for _ in 0..self.per_block {
                    busy += body();
                }
                Ok(())
            })?;
        Ok(busy.as_secs_f64() * 1e6 / (blocks * self.per_block) as f64)
    }
}

/// The other chunk mode, and the three factored collectives on the same
/// shape: `reduce_scatter_with_into`, `allgather_with_into` on the shard,
/// `alltoall_with_into`.
fn side_collectives(
    spec: &Spec,
    inputs: &Inputs,
    sess: &mut Session,
    side: Side,
    out: &mut RankOut,
) -> Result<(), Abandoned> {
    if let Session::Allreduce {
        sc,
        scheme,
        cfg,
        input,
        expected,
        out: buf,
    } = sess
    {
        let alt = alt_chunk(*cfg);
        // Over TCP the other mode is measured only while its frames stay
        // within what the workload itself sends: at seed a multi-MiB
        // frame intermittently ends in `PeerDead`.
        let alt_frame = block_elems(&alt, input.len()).min(input.len()) / WORLD;
        if !spec.on_tcp() || alt_frame <= spec.hop_elems().max(PIPE_BLOCK) {
            out.alt_us = side.mean_call_us(ALT, || {
                let took = side.rank.timed("alternate-chunking call", || {
                    sc.allreduce_with_into(scheme, input, buf, alt)
                });
                out.checked += 1;
                out.wrong += u64::from(buf.as_slice() != *expected);
                took
            })?;
        }
    }
    match spec.call {
        Call::Allreduce { cfg } => factored(
            sess.secure(),
            &mut IntSumScheme::<u32>::default(),
            &inputs.ints,
            &|got: &[u32], lo| got == &inputs.int_sum[lo..lo + got.len()],
            cfg,
            side,
            out,
        ),
        Call::ZeroStep => factored(
            sess.secure(),
            &mut FloatSumScheme::new(HfpFormat::fp64(2, 2)),
            &inputs.grads,
            &|got: &[f64], lo| {
                got.iter()
                    .zip(&inputs.grad_sum[lo..])
                    .all(|(g, want)| float_close(*g, *want))
            },
            EngineCfg::sync(),
            side,
            out,
        ),
    }
}

fn factored<S: Scheme + 'static>(
    sc: &mut SecureComm,
    scheme: &mut S,
    all: &[Vec<S::Input>],
    reduced_ok: &dyn Fn(&[S::Input], usize) -> bool,
    cfg: EngineCfg,
    side: Side,
    out: &mut RankOut,
) -> Result<(), Abandoned>
where
    S::Input: PartialEq,
{
    let rank = side.rank;
    let world = all.len();
    let mine = &all[rank.id];
    let (lo, hi) = sc.shard_bounds(mine.len());
    let mut buf = Vec::new();
    let mut wrong = 0u64;
    let mut checked = 0u64;

    // A chunked reduce-scatter returns this rank's share of every block,
    // appended in block order; `sync()` is the one-block case.
    let block = block_elems(&cfg, mine.len());
    let shares: Vec<(usize, usize)> = (0..mine.len())
        .step_by(block)
        .map(|o| {
            let (s, e) = hear::mpi::ring_chunk_bounds(block.min(mine.len() - o), world)[rank.id];
            (o + s, o + e)
        })
        .collect();
    let shares_ok = |got: &[S::Input]| {
        let mut rest = got;
        shares.iter().all(|&(s, e)| {
            rest.len() >= e - s && {
                let (head, tail) = rest.split_at(e - s);
                rest = tail;
                reduced_ok(head, s)
            }
        }) && rest.is_empty()
    };
    out.rs_us = side.mean_call_us(RS, || {
        let took = rank.timed("reduce_scatter", || {
            sc.reduce_scatter_with_into(scheme, mine, &mut buf, cfg)
        });
        checked += 1;
        wrong += u64::from(!shares_ok(&buf));
        took
    })?;

    let bounds = hear::mpi::ring_chunk_bounds(mine.len(), world);
    let gathered: Vec<S::Input> = (0..world)
        .flat_map(|r| all[r][bounds[r].0..bounds[r].1].iter().cloned())
        .collect();
    out.ag_us = side.mean_call_us(AG, || {
        let took = rank.timed("allgather", || {
            sc.allgather_with_into(scheme, &mine[lo..hi], &mut buf, cfg)
        });
        checked += 1;
        wrong += u64::from(buf != gathered);
        took
    })?;
    drop(gathered);

    let chunk = mine.len() / world;
    let transposed: Vec<S::Input> = (0..world)
        .flat_map(|src| {
            all[src][rank.id * chunk..(rank.id + 1) * chunk]
                .iter()
                .cloned()
        })
        .collect();
    out.a2a_us = side.mean_call_us(A2A, || {
        let took = rank.timed("alltoall", || {
            sc.alltoall_with_into(scheme, mine, &mut buf, cfg)
        });
        checked += 1;
        wrong += u64::from(buf != transposed);
        took
    })?;
    if wrong > 0 {
        eprintln!(
            "hearbench: rank {}: {wrong} factored-collective outputs were wrong",
            rank.id
        );
    }
    out.checked += checked;
    out.wrong += wrong;
    Ok(())
}

/// Mean round trip of a 16-byte `send`/`recv` ping-pong.
fn ping_pong_us(comm: &Communicator) -> f64 {
    let peer = 1 - comm.rank();
    let t = Instant::now();
    for _ in 0..RTT_ROUNDS {
        if comm.rank() == 0 {
            comm.send(peer, 1, vec![0u32; 4]);
            black_box(comm.recv::<u32>(peer, 2));
        } else {
            black_box(comm.recv::<u32>(peer, 1));
            comm.send(peer, 2, vec![0u32; 4]);
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / RTT_ROUNDS as f64
}

/// One-way stream, rank 0 to rank 1, of messages the size the workload's
/// call puts on the transport, closed by an acknowledgement; the sender's
/// copy into an owned `Vec` is part of the cost, because `send` takes
/// ownership.
fn stream_mbps(comm: &Communicator, message_bytes: usize) -> f64 {
    let elems = (message_bytes / 4).max(1);
    let sends = ((256usize << 20) / message_bytes).clamp(4, 2_000);
    let template = vec![0xA5A5_5A5Au32; elems];
    let t = Instant::now();
    if comm.rank() == 0 {
        for _ in 0..sends {
            comm.send(1, 3, template.clone());
        }
        black_box(comm.recv::<u32>(1, 4));
    } else {
        for _ in 0..sends {
            black_box(comm.recv::<u32>(0, 3));
        }
        comm.send(0, 4, vec![0u32; 1]);
    }
    (sends * elems * 4) as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// Slowest rank's value.
fn slowest(ranks: &[RankOut], f: impl Fn(&RankOut) -> f64) -> f64 {
    ranks.iter().map(f).fold(0.0, f64::max)
}

fn fold_main_world(spec: &Spec, ranks: &[RankOut], counts: &WorldCounts, m: &mut Metrics) {
    let per_block = spec.calls_per_block;
    let blocks = |f: fn(&RankOut) -> &Vec<f64>| {
        let per_rank: Vec<Vec<f64>> = ranks.iter().map(|r| f(r).clone()).collect();
        median(&block_call_us(&per_rank, per_block))
    };
    let call_us = blocks(|r| &r.secure_blocks);
    let native_us = blocks(|r| &r.native_blocks);
    let traced_us = blocks(|r| &r.traced_blocks);
    m.insert("layer.call_us", call_us);
    m.insert("mpi.native_call_us", native_us);
    m.insert("layer.call_traced_us", traced_us);
    m.insert("layer.overhead_x", call_us / native_us);
    m.insert("telemetry.trace_overhead_x", traced_us / call_us);

    // Stage costs per staged call, slowest rank.
    let stage = |name: &str| slowest(ranks, |r| r.log.per_call_us(name, "staged_call"));
    for (metric, span) in [
        ("core.key_advance_us", "key_advance"),
        ("core.mask_us", "mask"),
        ("core.unmask_us", "unmask"),
        ("core.digest_seal_us", "digest_seal"),
        ("core.digest_open_us", "digest_open"),
        ("core.homac_tag_us", "homac_tag"),
        ("core.homac_verify_us", "homac_verify"),
        ("core.cell_seal_us", "cell_seal"),
        ("core.cell_open_us", "cell_open"),
        ("mpi.wire_call_us", "transport"),
    ] {
        m.insert(metric, stage(span));
    }
    let stage_sum = slowest(ranks, |r| {
        r.log.mean_us("staged_call") - r.log.mean_self_us("staged_call")
    });
    m.insert("layer.stage_sum_us", stage_sum);
    m.insert("layer.engine_self_us", call_us - stage_sum);
    m.insert("layer.closure_x", stage_sum / call_us);

    m.insert("layer.alt_chunk_call_us", slowest(ranks, |r| r.alt_us));
    m.insert("layer.rs_us", slowest(ranks, |r| r.rs_us));
    m.insert("layer.ag_us", slowest(ranks, |r| r.ag_us));
    m.insert("layer.a2a_us", slowest(ranks, |r| r.a2a_us));
    m.insert("mpi.p2p_rtt_us", slowest(ranks, |r| r.rtt_us));
    m.insert(
        "mpi.p2p_MBps",
        ranks.iter().map(|r| r.stream_mbps).fold(f64::MAX, f64::min),
    );
    m.insert("dnn.rs_us", slowest(ranks, |r| r.dnn_us[0]));
    m.insert("dnn.update_us", slowest(ranks, |r| r.dnn_us[1]));
    m.insert("dnn.ag_us", slowest(ranks, |r| r.dnn_us[2]));

    // Per-call latency distribution: slowest rank per call.
    let calls = ranks.iter().map(|r| r.call_us.len()).min().unwrap_or(0);
    let mut per_call: Vec<f64> = (0..calls)
        .map(|i| slowest(ranks, |r| r.call_us[i]))
        .collect();
    per_call.sort_by(f64::total_cmp);
    let tail = tail_percentile(per_call.len());
    m.insert("call.p50_us", percentile_sorted(&per_call, 50.0));
    m.insert("call.tail_us", percentile_sorted(&per_call, tail));
    m.insert("call.tail_pct", tail);
    m.insert("call.samples", per_call.len() as f64);

    // Exact counts, whole world, per collective call.
    let t = counts.traced;
    let n = counts.traced_calls.max(1) as f64;
    m.insert("mpi.msgs_per_call", t.msgs as f64 / n);
    m.insert("mpi.bytes_per_call", t.bytes as f64 / n);
    m.insert("mpi.mailbox_park_share", share(t.parks, t.spin_hits));
    m.insert(
        "mpi.transit_wait_us_per_call",
        t.transit_ns as f64 / 1e3 / n,
    );
    m.insert(
        "layer.prefetch_hit_share",
        share(t.prefetch_hits, t.prefetch_misses),
    );
    m.insert("layer.retries_per_call", t.retries as f64 / n);
    let a = counts.alloc_calls.max(1) as f64;
    m.insert("layer.allocs_per_call", counts.allocs as f64 / a);
    m.insert("layer.alloc_bytes_per_call", counts.alloc_bytes as f64 / a);
}

/// World 4 on the same transport: message and byte counts of one call
/// only — four rank threads on two cores time the scheduler, so no
/// wall-clock number is taken. Returns the counts and whether the outputs
/// were right; `None` when the world was abandoned.
fn world4_counts(spec: &Spec, seed: u64) -> Option<(Counters, bool)> {
    const W4: usize = 4;
    let inputs = Inputs::generate(spec, seed, W4);
    let shared = Shared::new(W4, 0);
    let ranks = run_world(spec.transport, W4, &shared, |comm| {
        let reg = Registry::global();
        let rank = Rank::new(&shared, comm);
        let mut sess = Session::open(spec, comm, &inputs, seed);
        let mut ok = true;
        let mut one_call = |sess: &mut Session| {
            rank.timed("world-4 call", || sess.call());
            ok &= sess.output_ok();
        };
        one_call(&mut sess);
        let before = rank.fenced(|| Counters::read(reg))?;
        one_call(&mut sess);
        let after = rank.fenced(|| Counters::read(reg))?;
        Ok((before.zip(after).map(|(b, a)| a.since(b)), ok))
    })?;
    let ok = ranks.iter().all(|(_, ok)| *ok);
    ranks
        .into_iter()
        .find_map(|(delta, _)| delta)
        .map(|d| (d, ok))
}

/// Share of [`BIG_WORLDS`] fresh TCP worlds in which one 32 MiB
/// single-frame `sync()` allreduce returns `Ok` with the right sum. The
/// attempt deadline only keeps a wedged world from hanging the run.
fn big_tcp_messages(seed: u64) -> f64 {
    let deadline = RetryPolicy::default().with_attempt_timeout(Duration::from_secs(20));
    let spec = Spec {
        name: "tcp_big_msg",
        transport: TransportKind::Tcp,
        elems: 1 << 23,
        call: Call::Allreduce {
            cfg: EngineCfg::sync().with_retry(deadline),
        },
        calls_per_block: 1,
        first_rep_blocks_at_15s: 1,
    };
    let inputs = Inputs::generate(&spec, seed, WORLD);
    let ok = (0..BIG_WORLDS)
        .filter(|_| {
            let shared = Shared::new(WORLD, 0);
            run_world(spec.transport, WORLD, &shared, |comm| {
                let rank = Rank::new(&shared, comm);
                let mut sess = Session::open(&spec, comm, &inputs, seed);
                rank.timed("32 MiB frame", || sess.call());
                if !sess.output_ok() {
                    rank.die("32 MiB frame", &"wrong sum");
                }
                Ok(())
            })
            .is_some()
        })
        .count();
    ok as f64 / BIG_WORLDS as f64
}

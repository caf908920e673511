//! The chaos matrix: every fault type × transport algorithm × cipher
//! scheme, with HoMAC verification on, under the deterministic
//! fault-injection fabric. The invariant is the robustness contract from
//! the fault model (DESIGN.md §7): every rank either returns the
//! plaintext-reference aggregate (within the scheme's Table 2 tolerance)
//! or a *typed* `CommError`/`EngineError` before its deadline budget runs
//! out — never a hang, never a panic, never a silently wrong result.
//!
//! Kill scenarios additionally pin the recovery semantics: a dead switch
//! tree degrades to the host ring mid-epoch and still produces the right
//! answer on every rank.

use hear::core::{Backend, CommKeys, FloatSumExpScheme, HfpFormat, Homac, IntSumScheme, Scheme};
use hear::layer::{
    EngineCfg, EngineError, MembershipChange, PeerDeadPolicy, ReduceAlgo, RetryPolicy, SecureComm,
};
use hear::mpi::{CommError, FaultPlan, SimConfig, Simulator};
use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WORLD: usize = 4;
/// Single switch node at radix 4: endpoint = WORLD + node 0.
const SWITCH_ENDPOINT: usize = WORLD;
const LEN: usize = 32;
const BLOCK: usize = 16;

#[derive(Clone, Copy, Debug)]
enum FaultKind {
    Drop,
    Delay,
    Duplicate,
    Corrupt,
    RankKill,
    SwitchKill,
}

/// The policy every chaos cell runs under: two attempts per block, short
/// backoff, and a per-attempt deadline so nothing can block forever.
///
/// The deadline budget is derived from the *transport's* measured round
/// trip rather than hardcoded for in-process latency, so the same suite
/// passes unchanged over the in-memory fabric and TCP loopback
/// (`HEAR_TRANSPORT=tcp`): 1000 round trips comfortably covers a chaos
/// cell's worst schedule, floored at the historical 200 ms so the
/// in-memory runs keep their exact pre-transport-abstraction budget.
fn chaos_policy(comm: &hear_mpi::Communicator) -> RetryPolicy {
    let attempt = (comm.transport_rtt() * 1000).max(Duration::from_millis(200));
    RetryPolicy::retries(1)
        .with_backoff(Duration::from_millis(2))
        .with_attempt_timeout(attempt)
}

fn plan_for(kind: FaultKind, seed: u64) -> FaultPlan {
    let plan = FaultPlan::seeded(seed);
    match kind {
        FaultKind::Drop => plan.drop_one_in(6),
        // Shorter than the attempt timeout: delayed traffic arrives.
        FaultKind::Delay => plan.delay_one_in(3, Duration::from_millis(5)),
        FaultKind::Duplicate => plan.duplicate_one_in(4),
        FaultKind::Corrupt => plan.corrupt_one_in(5),
        // The last rank dies mid-protocol, after its third send.
        FaultKind::RankKill => plan.kill_endpoint_after(WORLD - 1, 3),
        // The switch tree is gone before the first packet.
        FaultKind::SwitchKill => plan.kill_endpoint_after(SWITCH_ENDPOINT, 0),
    }
}

/// The chunk modes a fault kind is swept over: blocked for every kind, and
/// pipelined as well for the kinds that damage a block in flight, so that a
/// posted block's drain meets both a transport failure and a rejected
/// chunk and has to fall back to synchronous recovery.
fn chunk_modes(kind: FaultKind) -> Vec<EngineCfg> {
    match kind {
        FaultKind::Drop | FaultKind::Corrupt => {
            vec![EngineCfg::blocked(BLOCK), EngineCfg::pipelined(BLOCK)]
        }
        _ => vec![EngineCfg::blocked(BLOCK)],
    }
}

/// Run one (fault, algo, scheme, chunk mode) cell at world 4 on a
/// switch-enabled fabric and check the robustness contract on every rank.
#[allow(clippy::too_many_arguments)]
fn run_cell<S, MS, CL>(
    mk_scheme: MS,
    inputs: &[Vec<S::Input>],
    expected: &[S::Input],
    close: CL,
    algo: ReduceAlgo,
    chunk: EngineCfg,
    kind: FaultKind,
    seed: u64,
) where
    S: Scheme + 'static,
    S::Input: std::fmt::Debug + Send + Sync,
    MS: Fn() -> S + Send + Sync,
    CL: Fn(&S::Input, &S::Input) -> bool,
{
    let cfg = SimConfig::default()
        .with_switch(WORLD)
        .with_faults(plan_for(kind, seed));
    let mk_scheme = &mk_scheme;
    let results = Simulator::with_config(WORLD, cfg).run(|comm| {
        let keys = CommKeys::generate(WORLD, seed, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let homac = Homac::generate(seed ^ 0x5a5a, Backend::best_available());
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let mut s = mk_scheme();
        let ecfg = chunk
            .verified()
            .with_algo(algo)
            .with_retry(chaos_policy(comm));
        // A dirty output vector: blocks append as they drain, so a retried
        // block must land exactly once and nothing stale may survive.
        let mut out = inputs[comm.rank()].clone();
        let res = sc.allreduce_with_into(&mut s, &inputs[comm.rank()], &mut out, ecfg);
        (res, out)
    });
    let cell = format!("{} {kind:?}/{algo:?}/{:?}", S::NAME, chunk.chunk);
    for (rank, (res, got)) in results.iter().enumerate() {
        match res {
            Ok(()) => {
                assert_eq!(
                    got.len(),
                    expected.len(),
                    "{cell} rank {rank}: truncated result"
                );
                for (j, (g, e)) in got.iter().zip(expected).enumerate() {
                    assert!(
                        close(g, e),
                        "{cell} rank {rank} elem {j}: got {g:?}, expected {e:?} \
                         — a fault leaked a wrong aggregate past verification"
                    );
                }
            }
            // Typed failure is an accepted outcome — but it must be a
            // transport or verification error, never a float-encode one
            // (the inputs are all encodable), and it leaves nothing that
            // could pass for a result.
            Err(e) => {
                assert!(
                    !matches!(e, EngineError::Hfp(_)),
                    "{cell} rank {rank}: wrong error class: {e}"
                );
                assert!(
                    got.is_empty(),
                    "{cell} rank {rank}: {} elements left in `out` on Err",
                    got.len()
                );
            }
        }
    }
}

/// The robustness contract, applied to the factored reduce-scatter: under
/// injected faults every rank either gets its exact per-block share of the
/// reference aggregate or a typed error — the same correct-or-typed-error
/// invariant the fused allreduce sweep pins, with the same RTT-derived
/// deadline budget.
fn run_rs_cell<S, MS, CL>(
    mk_scheme: MS,
    inputs: &[Vec<S::Input>],
    expected: &[S::Input],
    close: CL,
    chunk: EngineCfg,
    kind: FaultKind,
    seed: u64,
) where
    S: Scheme + 'static,
    S::Input: std::fmt::Debug + Clone + Send + Sync,
    MS: Fn() -> S + Send + Sync,
    CL: Fn(&S::Input, &S::Input) -> bool,
{
    let cfg = SimConfig::default()
        .with_switch(WORLD)
        .with_faults(plan_for(kind, seed));
    let mk_scheme = &mk_scheme;
    let results = Simulator::with_config(WORLD, cfg).run(|comm| {
        let keys = CommKeys::generate(WORLD, seed, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let homac = Homac::generate(seed ^ 0x5a5a, Backend::best_available());
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let mut s = mk_scheme();
        let ecfg = chunk.verified().with_retry(chaos_policy(comm));
        let mut out = inputs[comm.rank()].clone();
        let res = sc.reduce_scatter_with_into(&mut s, &inputs[comm.rank()], &mut out, ecfg);
        (res, out)
    });
    let kind = format!("{kind:?}/{:?}", chunk.chunk);
    for (rank, (res, got)) in results.iter().enumerate() {
        let want = shares(expected, BLOCK, rank);
        match res {
            Ok(()) => {
                assert_eq!(
                    got.len(),
                    want.len(),
                    "{} {kind} rank {rank}: truncated share",
                    S::NAME
                );
                for (j, (g, e)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        close(g, e),
                        "{} {kind} rank {rank} share elem {j}: got {g:?}, expected {e:?} \
                         — a fault leaked a wrong share past verification",
                        S::NAME
                    );
                }
            }
            Err(e) => {
                assert!(
                    !matches!(e, EngineError::Hfp(_)),
                    "{} {kind} rank {rank}: wrong error class: {e}",
                    S::NAME
                );
                assert!(
                    got.is_empty(),
                    "{} {kind} rank {rank}: {} elements left in `out` on Err",
                    S::NAME,
                    got.len()
                );
            }
        }
    }
}

/// Sweep the reduce-scatter over `kinds` (seeds from `seed0`), each in the
/// chunk modes [`chunk_modes`] gives it.
fn sweep_rs(kinds: &[FaultKind], seed0: u64) {
    let (int_in, int_exp) = int_inputs();
    let (flt_in, flt_exp) = float_inputs();
    for (k, &kind) in kinds.iter().enumerate() {
        let seed = seed0 + k as u64 * 100;
        for chunk in chunk_modes(kind) {
            run_rs_cell(
                IntSumScheme::<u32>::default,
                &int_in,
                &int_exp,
                |g: &u32, e: &u32| g == e,
                chunk,
                kind,
                seed,
            );
            run_rs_cell(
                || FloatSumExpScheme::new(HfpFormat::fp64(0, 0)),
                &flt_in,
                &flt_exp,
                float_close,
                chunk,
                kind,
                seed + 1,
            );
        }
    }
}

/// What a reduce-scatter in `block`-element blocks hands `rank` when the
/// reduced vector is `expected`: its share of each block, in block order.
fn shares<T: Clone>(expected: &[T], block: usize, rank: usize) -> Vec<T> {
    let mut want = Vec::new();
    for lo in (0..expected.len()).step_by(block) {
        let n = block.min(expected.len() - lo);
        let (s, e) = hear::mpi::ring_chunk_bounds(n, WORLD)[rank];
        want.extend_from_slice(&expected[lo + s..lo + e]);
    }
    want
}

#[test]
fn chaos_reduce_scatter_drop_and_kill() {
    sweep_rs(&[FaultKind::Drop, FaultKind::RankKill], 0x25C0);
}

#[test]
fn chaos_reduce_scatter_corrupt() {
    sweep_rs(&[FaultKind::Corrupt], 0x25C0 + 200);
}

fn int_inputs() -> (Vec<Vec<u32>>, Vec<u32>) {
    let inputs: Vec<Vec<u32>> = (0..WORLD)
        .map(|r| {
            (0..LEN)
                .map(|j| (j as u32).wrapping_mul(0x9E37_79B9).wrapping_add(r as u32))
                .collect()
        })
        .collect();
    let expected = (0..LEN)
        .map(|j| {
            inputs
                .iter()
                .fold(0u32, |acc, row| acc.wrapping_add(row[j]))
        })
        .collect();
    (inputs, expected)
}

fn float_inputs() -> (Vec<Vec<f64>>, Vec<f64>) {
    // Small magnitudes: the v2 shared-exponent layout needs δ = 0.
    let inputs: Vec<Vec<f64>> = (0..WORLD)
        .map(|r| {
            (0..LEN)
                .map(|j| ((r * LEN + j) as f64 * 0.29).sin() * 0.4)
                .collect()
        })
        .collect();
    let expected = (0..LEN)
        .map(|j| inputs.iter().map(|row| row[j]).sum())
        .collect();
    (inputs, expected)
}

/// Medium lossiness (Table 2 row of float sum v2), as in the matrix suite.
fn float_close(g: &f64, e: &f64) -> bool {
    (g - e).abs() / e.abs().max(1.0) < 1e-3
}

const ALGOS: [ReduceAlgo; 3] = [
    ReduceAlgo::RecursiveDoubling,
    ReduceAlgo::Ring,
    ReduceAlgo::Switch,
];

fn sweep_kind(kind: FaultKind, kind_idx: u64) {
    let (int_in, int_exp) = int_inputs();
    let (flt_in, flt_exp) = float_inputs();
    for chunk in chunk_modes(kind) {
        for (a, algo) in ALGOS.into_iter().enumerate() {
            let seed = 0xC0A5 + kind_idx * 100 + a as u64 * 10;
            run_cell(
                IntSumScheme::<u32>::default,
                &int_in,
                &int_exp,
                |g: &u32, e: &u32| g == e,
                algo,
                chunk,
                kind,
                seed,
            );
            run_cell(
                || FloatSumExpScheme::new(HfpFormat::fp64(0, 0)),
                &flt_in,
                &flt_exp,
                float_close,
                algo,
                chunk,
                kind,
                seed + 1,
            );
        }
    }
}

#[test]
fn chaos_drop() {
    sweep_kind(FaultKind::Drop, 0);
}

#[test]
fn chaos_delay() {
    sweep_kind(FaultKind::Delay, 1);
}

#[test]
fn chaos_duplicate() {
    sweep_kind(FaultKind::Duplicate, 2);
}

#[test]
fn chaos_corrupt() {
    sweep_kind(FaultKind::Corrupt, 3);
}

#[test]
fn chaos_rank_kill() {
    sweep_kind(FaultKind::RankKill, 4);
}

#[test]
fn chaos_switch_kill() {
    sweep_kind(FaultKind::SwitchKill, 5);
}

// ---- the single-origin cell collectives ---------------------------------

/// What a cell collective hands `rank` when rank `r` contributes
/// `inputs[r]`: the rank-ordered concatenation (allgather), or the
/// `rank`-th `LEN / WORLD`-element chunk of every contribution, in source
/// order (alltoall).
fn cell_result(alltoall: bool, inputs: &[Vec<u32>], rank: usize) -> Vec<u32> {
    if !alltoall {
        return inputs.concat();
    }
    let l = LEN / WORLD;
    inputs
        .iter()
        .flat_map(|row| row[rank * l..(rank + 1) * l].iter().copied())
        .collect()
}

/// Spare the allgather's counts from a corrupt fault. They travel first,
/// as a bare `Vec<u64>` that no MAC covers; claiming them and leaving them
/// whole means the corrupt rows exercise the cell MAC, which the tagged
/// cells' wire-type entry damages (one bit of one cell, or its tag).
fn spare_the_counts(payload: &mut dyn Any, _word: u64) -> bool {
    payload.is::<Vec<u64>>()
}

/// The robustness contract on the verified cell collectives: dropped,
/// corrupted and duplicated messages in the allgather and the alltoall,
/// one round or several pipelined, at world 4. Every rank ends with the
/// exact result, or with a typed error and an empty `out`.
#[test]
fn chaos_cell_collectives_drop_and_corrupt() {
    let (int_in, _) = int_inputs();
    let int_in = &int_in;
    let kinds = [FaultKind::Drop, FaultKind::Corrupt, FaultKind::Duplicate];
    for (k, kind) in kinds.into_iter().enumerate() {
        for alltoall in [false, true] {
            // Pipelined(4): eight allgather rounds, two alltoall rounds.
            for chunk in [EngineCfg::sync(), EngineCfg::pipelined(4)] {
                let seed = 0xCE11 + k as u64 * 100 + u64::from(alltoall) * 10;
                let plan = match kind {
                    FaultKind::Drop => FaultPlan::seeded(seed).drop_one_in(6),
                    FaultKind::Corrupt => FaultPlan::seeded(seed)
                        .corrupt_one_in(5)
                        .with_corruptor(Arc::new(spare_the_counts)),
                    _ => FaultPlan::seeded(seed).duplicate_one_in(4),
                };
                let cfg = SimConfig::default().with_faults(plan);
                let results = Simulator::with_config(WORLD, cfg).run(|comm| {
                    let mut sc = shrink_sc(comm, seed);
                    let mut s = IntSumScheme::<u32>::default();
                    let ecfg = chunk.verified().with_retry(chaos_policy(comm));
                    let data = &int_in[comm.rank()];
                    let mut out = data.clone();
                    let res = if alltoall {
                        sc.alltoall_with_into(&mut s, data, &mut out, ecfg)
                    } else {
                        sc.allgather_with_into(&mut s, data, &mut out, ecfg)
                    };
                    (res, out)
                });
                for (rank, (res, out)) in results.iter().enumerate() {
                    let cell = format!("{kind:?} alltoall={alltoall} {chunk:?} rank {rank}");
                    match res {
                        Ok(()) => assert_eq!(out, &cell_result(alltoall, int_in, rank), "{cell}"),
                        Err(e) => {
                            assert!(
                                matches!(e, EngineError::Comm(_) | EngineError::Verification(_)),
                                "{cell}: wrong error class: {e}"
                            );
                            assert!(out.is_empty(), "{cell}: `out` holds {} elements", out.len());
                        }
                    }
                }
            }
        }
    }
}

/// The allgather's counts round carries no MAC, so a damaged count must be
/// caught where the layout is used. World 3, ragged contributions, plain
/// and verified: the low bit of rank 1's count is flipped on the hop that
/// brings it to rank 0 — the ring's second, 2 → 0; its first, 1 → 2, stays
/// whole. Rank 0 then expects a piece of the wrong length from rank 1, and
/// every rank must end with the exact result or a typed error and an empty
/// `out`, never a panic.
#[test]
fn a_corrupted_allgather_count_is_a_typed_error() {
    const RAGGED: [usize; 3] = [5, 6, 7];
    let inputs: Vec<Vec<u32>> = (RAGGED.iter().enumerate())
        .map(|(r, &n)| (0..n as u32).map(|j| 1000 * r as u32 + j).collect())
        .collect();
    let inputs = &inputs;
    for verified in [false, true] {
        let sightings = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&sightings);
        let flip_second_sighting = move |payload: &mut dyn Any, _: u64| {
            if let Some(counts) = payload.downcast_mut::<Vec<u64>>() {
                if counts[..] == [RAGGED[1] as u64] && seen.fetch_add(1, Ordering::SeqCst) == 1 {
                    counts[0] ^= 1;
                }
            }
            true // claim every payload: nothing else is damaged
        };
        let plan = FaultPlan::seeded(0xC0C0)
            .corrupt_one_in(1)
            .with_corruptor(Arc::new(flip_second_sighting));
        let cfg = SimConfig::default().with_faults(plan);
        let results = Simulator::with_config(3, cfg).run(|comm| {
            let keys = CommKeys::generate(3, 0xC0C0, Backend::best_available())
                .into_iter()
                .nth(comm.rank())
                .unwrap();
            let homac = Homac::generate(0xC0C0 ^ 0x5a5a, Backend::best_available());
            let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
            let mut ecfg = EngineCfg::sync().with_retry(chaos_policy(comm));
            if verified {
                ecfg = ecfg.verified();
            }
            let data = &inputs[comm.rank()];
            let mut out = data.clone();
            let res =
                sc.allgather_with_into(&mut IntSumScheme::<u32>::default(), data, &mut out, ecfg);
            (res, out)
        });
        assert!(
            sightings.load(Ordering::SeqCst) >= 2,
            "rank 1's count never reached rank 0"
        );
        for (rank, (res, out)) in results.iter().enumerate() {
            let cell = format!("verified={verified} rank {rank}");
            match res {
                Ok(()) => assert_eq!(out, &inputs.concat(), "{cell}"),
                Err(e) => {
                    assert!(
                        matches!(e, EngineError::Comm(_) | EngineError::Verification(_)),
                        "{cell}: wrong error class: {e}"
                    );
                    assert!(out.is_empty(), "{cell}: `out` holds {} elements", out.len());
                }
            }
        }
        assert!(
            results[0].0.is_err(),
            "verified={verified}: rank 0 used a damaged layout"
        );
    }
}

// ---- shrink-and-continue: rank death becomes membership shrink --------

/// [`chaos_policy`] with the shrink-and-continue reaction enabled and a
/// roomier deadline floor: unlike the sweep cells (which accept a typed
/// error as a valid outcome), these tests assert a specific Ok result on
/// every survivor, so an attempt timeout caused by scheduler pressure —
/// several multi-threaded simulators run concurrently under `cargo
/// test` — must not masquerade as a membership event.
fn shrink_policy(comm: &hear_mpi::Communicator) -> RetryPolicy {
    let attempt = (comm.transport_rtt() * 1000).max(Duration::from_millis(1000));
    RetryPolicy::retries(1)
        .with_backoff(Duration::from_millis(2))
        .with_attempt_timeout(attempt)
        .on_peer_dead(PeerDeadPolicy::ShrinkAndContinue)
}

/// Reference aggregate over a subset of the ranks' contributions.
fn survivor_sum(inputs: &[Vec<u32>], survivors: &[usize]) -> Vec<u32> {
    (0..LEN)
        .map(|j| {
            survivors
                .iter()
                .fold(0u32, |a, &r| a.wrapping_add(inputs[r][j]))
        })
        .collect()
}

/// Per-rank SecureComm for the shrink scenarios.
fn shrink_sc(comm: &hear_mpi::Communicator, seed: u64) -> SecureComm {
    let keys = CommKeys::generate(WORLD, seed, Backend::best_available())
        .into_iter()
        .nth(comm.rank())
        .unwrap();
    let homac = Homac::generate(seed ^ 0x5a5a, Backend::best_available());
    SecureComm::new(comm.clone(), keys).with_homac(homac)
}

/// Assertions shared by every shrink scenario: the victim's own call
/// fails typed without shrinking, and every survivor reports exactly one
/// membership change to the expected shrunk world.
#[allow(clippy::type_complexity)]
fn check_shrink_reports<T>(
    results: &[(Result<Vec<T>, EngineError>, usize, Vec<MembershipChange>)],
    victim: usize,
) {
    // Shown only if an assertion below fails: the whole picture.
    for (rank, (res, world, changes)) in results.iter().enumerate() {
        let res = res.as_ref().map(Vec::len);
        eprintln!("rank {rank}: {res:?}, world {world}, changes {changes:?}");
    }
    let (res, _, changes) = &results[victim];
    assert!(
        matches!(res, Err(EngineError::Comm(_))),
        "the dead rank's own call must fail typed, got {:?}",
        res.as_ref().map(|v| v.len())
    );
    assert!(changes.is_empty(), "the corpse must not reconfigure");
    for (rank, (res, world, changes)) in results.iter().enumerate() {
        if rank == victim {
            continue;
        }
        assert!(res.is_ok(), "survivor {rank}: {:?}", res.as_ref().err());
        assert_eq!(*world, WORLD - 1, "survivor {rank} world");
        assert_eq!(
            changes,
            &vec![MembershipChange {
                epoch: 1,
                evicted: vec![victim],
                old_world: WORLD,
                new_world: WORLD - 1,
            }],
            "survivor {rank} membership report"
        );
    }
}

/// A rank SIGKILL-equivalent mid-reduce-scatter (its second ring hop is
/// dropped and the endpoint dies): under `ShrinkAndContinue` the three
/// survivors agree on the shrunk world, rebase keys, and re-run — each
/// ends with its share of the *survivor-set* reference aggregate plus a
/// `MembershipChange` report, and the eviction telemetry is non-zero.
/// This is the deterministic in-memory replay of the socket_smoke drill.
#[test]
fn shrink_and_continue_mid_reduce_scatter() {
    use hear::telemetry::{Metric, Registry};
    let victim = WORLD - 1;
    let (int_in, _) = int_inputs();
    let expected = survivor_sum(&int_in, &[0, 1, 2]);
    let reg = Registry::new_enabled();
    let _g = reg.install(None);
    let cfg =
        SimConfig::default().with_faults(FaultPlan::seeded(0x51C1).kill_endpoint_after(victim, 1));
    let int_in = &int_in;
    let results = Simulator::with_config(WORLD, cfg).run(|comm| {
        let mut sc = shrink_sc(comm, 0x51C1);
        let mut s = IntSumScheme::<u32>::default();
        let ecfg = EngineCfg::sync().verified().with_retry(shrink_policy(comm));
        let res = sc.reduce_scatter_with(&mut s, &int_in[comm.rank()], ecfg);
        (res, sc.world(), sc.rank(), sc.take_membership_changes())
    });
    let flat: Vec<_> = results
        .iter()
        .map(|(res, w, _, ch)| (res.clone(), *w, ch.clone()))
        .collect();
    check_shrink_reports(&flat, victim);
    for (rank, (res, _, new_rank, _)) in results.iter().enumerate() {
        if rank == victim {
            continue;
        }
        // The share layout follows the *shrunk* world.
        let (lo, hi) = hear::mpi::ring_chunk_bounds(LEN, WORLD - 1)[*new_rank];
        assert_eq!(
            res.as_ref().unwrap(),
            &expected[lo..hi],
            "survivor {rank} share"
        );
    }
    assert!(reg.counter(Metric::RanksEvicted) >= 1, "eviction uncounted");
    assert!(
        reg.counter(Metric::MembershipEpochs) >= 1,
        "membership epoch uncounted"
    );
}

/// A rank killed mid-allgather (counts exchanged, first payload hop out,
/// then dead): survivors re-run and get the rank-ordered concatenation
/// of the *survivors'* contributions.
fn shrink_mid_allgather(chunk: EngineCfg) {
    let victim = WORLD - 1;
    let (int_in, _) = int_inputs();
    let expected: Vec<u32> = int_in[..WORLD - 1].concat();
    let cfg =
        SimConfig::default().with_faults(FaultPlan::seeded(0xA64A).kill_endpoint_after(victim, 4));
    let int_in = &int_in;
    let results = Simulator::with_config(WORLD, cfg).run(|comm| {
        let mut sc = shrink_sc(comm, 0xA64A);
        let mut s = IntSumScheme::<u32>::default();
        let ecfg = chunk.verified().with_retry(shrink_policy(comm));
        let res = sc.allgather_with(&mut s, &int_in[comm.rank()], ecfg);
        (res, sc.world(), sc.take_membership_changes())
    });
    check_shrink_reports(&results, victim);
    for (rank, (res, ..)) in results.iter().enumerate() {
        if rank != victim {
            assert_eq!(res.as_ref().unwrap(), &expected, "survivor {rank} gather");
        }
    }
}

/// One round: the victim's only cell is already on the ring when it
/// dies, so the survivor upstream of it — which receives nothing from
/// the victim directly — can *complete* the full-world gather if it runs
/// two hops ahead of the kill. It must still join the agreement, discard
/// that result and re-run with the others; were it to return, they would
/// wait out the agreement deadline and evict it as well.
#[test]
fn shrink_and_continue_mid_allgather() {
    shrink_mid_allgather(EngineCfg::sync());
}

/// Two rounds: the second needs a cell the victim never sends, so every
/// survivor fails its attempt.
#[test]
fn shrink_and_continue_mid_allgather_two_rounds() {
    shrink_mid_allgather(EngineCfg::blocked(BLOCK));
}

/// A middle rank (2 of 4) killed one hop into a verified ring allreduce:
/// the survivors shrink around it and converge on the survivor-set sum,
/// and every report names it in original-world numbering — the one
/// non-suffix eviction, so the lineage remap is pinned too.
#[test]
fn shrink_and_continue_evicts_a_middle_rank() {
    let victim = 2;
    let (int_in, _) = int_inputs();
    let expected = survivor_sum(&int_in, &[0, 1, 3]);
    let cfg =
        SimConfig::default().with_faults(FaultPlan::seeded(0x41E2).kill_endpoint_after(victim, 1));
    let int_in = &int_in;
    let results = Simulator::with_config(WORLD, cfg).run(|comm| {
        let mut sc = shrink_sc(comm, 0x41E2);
        let mut s = IntSumScheme::<u32>::default();
        let ecfg = EngineCfg::sync()
            .verified()
            .with_algo(ReduceAlgo::Ring)
            .with_retry(shrink_policy(comm));
        let res = sc.allreduce_with(&mut s, &int_in[comm.rank()], ecfg);
        (res, sc.world(), sc.take_membership_changes())
    });
    check_shrink_reports(&results, victim);
    for (rank, (res, ..)) in results.iter().enumerate() {
        if rank != victim {
            assert_eq!(res.as_ref().unwrap(), &expected, "survivor {rank} sum");
        }
    }
}

/// The plain (unverified) runners unmask each block straight onto the end
/// of the caller's `out`. A member killed in the *middle* block of a
/// chunked call — after every survivor has appended block 0 — triggers a
/// shrink and a re-run of the whole call: the survivors must end with
/// exactly one copy of every block (the survivor-set sum, `LEN` elements),
/// not block 0 twice.
#[test]
fn shrink_and_continue_mid_plain_chunked_allreduce_appends_each_block_once() {
    let victim = WORLD - 1;
    let (int_in, _) = int_inputs();
    let expected = survivor_sum(&int_in, &[0, 1, 2]);
    let int_in = &int_in;
    for chunk in [EngineCfg::blocked(BLOCK), EngineCfg::pipelined(BLOCK)] {
        // A ring block is 2·(WORLD − 1) = 6 sends a rank: the victim dies
        // two hops into block 1.
        let cfg = SimConfig::default()
            .with_faults(FaultPlan::seeded(0x9A1B).kill_endpoint_after(victim, 8));
        let results = Simulator::with_config(WORLD, cfg).run(|comm| {
            let mut sc = shrink_sc(comm, 0x9A1B);
            let mut s = IntSumScheme::<u32>::default();
            let ecfg = chunk
                .with_algo(ReduceAlgo::Ring)
                .with_retry(shrink_policy(comm));
            let mut out = int_in[comm.rank()].clone();
            let res = sc.allreduce_with_into(&mut s, &int_in[comm.rank()], &mut out, ecfg);
            (res.map(|()| out), sc.world(), sc.take_membership_changes())
        });
        check_shrink_reports(&results, victim);
        for (rank, (res, ..)) in results.iter().enumerate() {
            if rank != victim {
                assert_eq!(
                    res.as_ref().unwrap(),
                    &expected,
                    "survivor {rank} ({chunk:?})"
                );
            }
        }
    }
}

/// The four collectives' `*_with_into` entry points, for the rows that pin
/// their shared contract.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Coll {
    Allreduce,
    ReduceScatter,
    Allgather,
    Alltoall,
}

/// What `out` holds when a call fails: nothing. The parent handed back the
/// caller's own plaintext input with whatever blocks had decrypted spliced
/// over its front — indistinguishable from a result. Under
/// [`PeerDeadPolicy::Fail`] a rank killed mid-call makes its peers fail
/// typed, in every chunk mode, plain and verified, for all four
/// collectives: each failed call leaves `out` empty, and a rank that did
/// complete holds the exact result. The alltoall never reconfigures, so it
/// fails the same way under [`PeerDeadPolicy::ShrinkAndContinue`].
#[test]
fn a_failed_call_leaves_out_empty() {
    let victim = WORLD - 1;
    let (int_in, int_exp) = int_inputs();
    let int_in = &int_in;
    let reductions = [
        EngineCfg::sync(),
        EngineCfg::blocked(BLOCK),
        EngineCfg::pipelined(BLOCK),
    ];
    // Pipelined(4): eight allgather rounds, two alltoall rounds.
    let cells = [EngineCfg::sync(), EngineCfg::pipelined(4)];
    let rows = [
        (Coll::Allreduce, PeerDeadPolicy::Fail),
        (Coll::ReduceScatter, PeerDeadPolicy::Fail),
        (Coll::Allgather, PeerDeadPolicy::Fail),
        (Coll::Alltoall, PeerDeadPolicy::Fail),
        (Coll::Alltoall, PeerDeadPolicy::ShrinkAndContinue),
    ];
    let (mut failures, mut calls) = (0, 0);
    for (coll, on_dead) in rows {
        let chunks: &[EngineCfg] = match coll {
            Coll::Allreduce | Coll::ReduceScatter => &reductions,
            Coll::Allgather | Coll::Alltoall => &cells,
        };
        for verified in [false, true] {
            for (c, &chunk) in chunks.iter().enumerate() {
                // Die on the first hop of a one-block call, two hops into
                // block 1 of a chunked one (survivors hold block 0 by then);
                // for the allgather, one hop past the counts exchange and
                // the rounds before. An alltoall round is one send to each
                // peer.
                let hops = (WORLD - 1) as u64;
                let after = match (coll, c) {
                    (Coll::Allreduce | Coll::ReduceScatter | Coll::Alltoall, 0) => 1,
                    (Coll::Allreduce, _) => 2 * hops + 2,
                    (Coll::ReduceScatter, _) => hops + 2,
                    (Coll::Allgather, _) => (c as u64 + 1) * hops + 1,
                    (Coll::Alltoall, _) => hops + 1,
                };
                let cfg = SimConfig::default()
                    .with_faults(FaultPlan::seeded(0xE3B7).kill_endpoint_after(victim, after));
                let results = Simulator::with_config(WORLD, cfg).run(|comm| {
                    let mut sc = shrink_sc(comm, 0xE3B7);
                    let mut s = IntSumScheme::<u32>::default();
                    let mut ecfg = chunk
                        .with_algo(ReduceAlgo::Ring)
                        .with_retry(chaos_policy(comm).on_peer_dead(on_dead));
                    if verified {
                        ecfg = ecfg.verified();
                    }
                    let data = &int_in[comm.rank()];
                    let mut out = data.clone();
                    let res = match coll {
                        Coll::Allreduce => sc.allreduce_with_into(&mut s, data, &mut out, ecfg),
                        Coll::ReduceScatter => {
                            sc.reduce_scatter_with_into(&mut s, data, &mut out, ecfg)
                        }
                        Coll::Allgather => sc.allgather_with_into(&mut s, data, &mut out, ecfg),
                        Coll::Alltoall => sc.alltoall_with_into(&mut s, data, &mut out, ecfg),
                    };
                    (res, out, sc.is_shrunk())
                });
                calls += 1;
                for (rank, (res, out, shrunk)) in results.iter().enumerate() {
                    let cell =
                        format!("{coll:?} {on_dead:?} verified={verified} {chunk:?} rank {rank}");
                    assert!(!shrunk, "{cell}: reconfigured");
                    match res {
                        Err(e) => {
                            failures += 1;
                            assert!(matches!(e, EngineError::Comm(_)), "{cell}: {e}");
                            assert!(out.is_empty(), "{cell}: `out` holds {} elements", out.len());
                            assert!(out.capacity() >= LEN, "{cell}: capacity dropped");
                        }
                        Ok(()) => {
                            let want = match coll {
                                Coll::Allreduce => int_exp.clone(),
                                Coll::ReduceScatter => {
                                    shares(&int_exp, if c == 0 { LEN } else { BLOCK }, rank)
                                }
                                Coll::Allgather => cell_result(false, int_in, rank),
                                Coll::Alltoall => cell_result(true, int_in, rank),
                            };
                            assert_eq!(out, &want, "{cell}: a completed call is exact");
                        }
                    }
                }
            }
        }
    }
    assert!(
        failures >= calls,
        "the kills failed only {failures} of {calls} calls"
    );
    // With no kill every reduction completes, and its `out` holds exactly
    // the result whatever length it entered with: longer than the result
    // and full of stale values, or shorter.
    for coll in [Coll::Allreduce, Coll::ReduceScatter] {
        for verified in [false, true] {
            for (c, chunk) in [EngineCfg::sync(), EngineCfg::pipelined(BLOCK)]
                .into_iter()
                .enumerate()
            {
                let results = Simulator::new(WORLD).run(|comm| {
                    let mut sc = shrink_sc(comm, 0xE3B7);
                    let mut s = IntSumScheme::<u32>::default();
                    let ecfg = chunk.with_algo(ReduceAlgo::Ring);
                    let ecfg = if verified { ecfg.verified() } else { ecfg };
                    let data = &int_in[comm.rank()];
                    [vec![0xDEAD_BEEF; 3 * LEN], data[..3].to_vec()].map(|mut out| {
                        let res = match coll {
                            Coll::Allreduce => sc.allreduce_with_into(&mut s, data, &mut out, ecfg),
                            _ => sc.reduce_scatter_with_into(&mut s, data, &mut out, ecfg),
                        };
                        res.map(|()| out)
                    })
                });
                for (rank, outs) in results.iter().enumerate() {
                    let want = match coll {
                        Coll::Allreduce => int_exp.clone(),
                        _ => shares(&int_exp, if c == 0 { LEN } else { BLOCK }, rank),
                    };
                    for (entry, out) in ["longer", "shorter"].iter().zip(outs) {
                        let cell = format!("{coll:?} verified={verified} {chunk:?} rank {rank}");
                        assert_eq!(out.as_ref(), Ok(&want), "{cell}: `out` entered {entry}");
                    }
                }
            }
        }
    }
}

/// The ring hands each aggregated chunk to the engine once, as it passes,
/// and the engine unmasks it there and then — so when a rank dies *during
/// the allgather phase*, every survivor has already decrypted at least its
/// own chunk (the first thing the phase does) into its place in `out`.
/// None of that may be visible: under [`PeerDeadPolicy::Fail`] a failed
/// call leaves `out` empty (its entry point clears it), plain and
/// verified, one block or several; a rank that was served every chunk
/// before the death holds the exact sum.
#[test]
fn a_kill_during_the_allgather_phase_leaves_out_empty() {
    let victim = WORLD - 1;
    let (int_in, int_exp) = int_inputs();
    let int_in = &int_in;
    let mut failures = 0;
    for verified in [false, true] {
        for (chunk, blocks_before) in [(EngineCfg::sync(), 0), (EngineCfg::blocked(BLOCK), 1)] {
            // A ring block is WORLD − 1 reduce-scatter sends, then WORLD − 1
            // allgather sends: the victim dies one hop into the allgather
            // phase (of block 1, for the chunked call).
            let after = (blocks_before * 2 * (WORLD - 1) + WORLD) as u64;
            let cfg = SimConfig::default()
                .with_faults(FaultPlan::seeded(0xA6D1).kill_endpoint_after(victim, after));
            let results = Simulator::with_config(WORLD, cfg).run(|comm| {
                let mut sc = shrink_sc(comm, 0xA6D1);
                let mut s = IntSumScheme::<u32>::default();
                let mut ecfg = chunk
                    .with_algo(ReduceAlgo::Ring)
                    .with_retry(chaos_policy(comm));
                if verified {
                    ecfg = ecfg.verified();
                }
                let data = &int_in[comm.rank()];
                let mut out = data.clone();
                let res = sc.allreduce_with_into(&mut s, data, &mut out, ecfg);
                (res, out)
            });
            for (rank, (res, out)) in results.iter().enumerate() {
                let cell = format!("verified={verified} {chunk:?} rank {rank}");
                match res {
                    Err(e) => {
                        failures += 1;
                        assert!(matches!(e, EngineError::Comm(_)), "{cell}: {e}");
                        assert!(out.is_empty(), "{cell}: `out` holds {} elements", out.len());
                        assert!(out.capacity() >= LEN, "{cell}: capacity dropped");
                    }
                    Ok(()) => assert_eq!(out, &int_exp, "{cell}: a completed sum is exact"),
                }
            }
        }
    }
    // Every chunk but the victim's own reaches the victim's successor
    // through the victim: at least that rank fails every cell.
    assert!(failures >= 4, "the kills failed only {failures} calls");
}

/// The same death under [`PeerDeadPolicy::ShrinkAndContinue`]: the
/// survivors — each with chunks of the dead attempt already decrypted
/// past the end of `out` — agree on the shrunk world and re-run. The
/// re-run rewrites the same window, so every survivor ends with exactly
/// one copy of every block: the survivor-set sum, `LEN` elements.
#[test]
fn shrink_and_continue_mid_allgather_phase_appends_each_block_once() {
    let victim = WORLD - 1;
    let (int_in, _) = int_inputs();
    let expected = survivor_sum(&int_in, &[0, 1, 2]);
    let int_in = &int_in;
    for (chunk, blocks_before) in [(EngineCfg::sync(), 0), (EngineCfg::blocked(BLOCK), 1)] {
        let after = (blocks_before * 2 * (WORLD - 1) + WORLD) as u64;
        let cfg = SimConfig::default()
            .with_faults(FaultPlan::seeded(0xA6D2).kill_endpoint_after(victim, after));
        let results = Simulator::with_config(WORLD, cfg).run(|comm| {
            let mut sc = shrink_sc(comm, 0xA6D2);
            let mut s = IntSumScheme::<u32>::default();
            let ecfg = chunk
                .with_algo(ReduceAlgo::Ring)
                .with_retry(shrink_policy(comm));
            let mut out = int_in[comm.rank()].clone();
            let res = sc.allreduce_with_into(&mut s, &int_in[comm.rank()], &mut out, ecfg);
            (res.map(|()| out), sc.world(), sc.take_membership_changes())
        });
        check_shrink_reports(&results, victim);
        for (rank, (res, ..)) in results.iter().enumerate() {
            if rank != victim {
                assert_eq!(
                    res.as_ref().unwrap(),
                    &expected,
                    "survivor {rank} ({chunk:?})"
                );
            }
        }
    }
}

/// A verified chunk is decrypted into staging, checked against its
/// authenticated digest, and only then copied to its place — and `out`
/// grows only when every chunk of the block passed. With a single attempt
/// (no retry to heal it) and one message in sixteen tampered with, every
/// call must end either with the exact result or with a verification /
/// transport error **and an empty `out`**: a tampered chunk never reaches
/// the caller, not even as a prefix. The seeds rotate through the three
/// chunk modes, so a posted block's drain is tampered with too, and each
/// seed runs the allreduce and the reduce-scatter.
#[test]
fn a_tampered_chunk_never_reaches_out() {
    let (int_in, int_exp) = int_inputs();
    let int_in = &int_in;
    let (mut rejected, mut exact) = (0, 0);
    for (seed, scatter) in (0..24u64).flat_map(|seed| [(seed, false), (seed, true)]) {
        let plan = FaultPlan::seeded(0x7A3B ^ seed).corrupt_one_in(16);
        let cfg = SimConfig::default().with_faults(plan);
        let chunk = match seed % 3 {
            0 => EngineCfg::sync(),
            1 => EngineCfg::blocked(BLOCK),
            _ => EngineCfg::pipelined(BLOCK),
        };
        let results = Simulator::with_config(WORLD, cfg).run(|comm| {
            let mut sc = shrink_sc(comm, 0x7A3B);
            let mut s = IntSumScheme::<u32>::default();
            let retry = RetryPolicy::retries(0).with_attempt_timeout(Duration::from_millis(150));
            let ecfg = chunk
                .verified()
                .with_algo(ReduceAlgo::Ring)
                .with_retry(retry);
            let data = &int_in[comm.rank()];
            let mut out = data.clone();
            let res = if scatter {
                sc.reduce_scatter_with_into(&mut s, data, &mut out, ecfg)
            } else {
                sc.allreduce_with_into(&mut s, data, &mut out, ecfg)
            };
            (res, out)
        });
        for (rank, (res, out)) in results.iter().enumerate() {
            match res {
                Ok(()) if scatter => {
                    exact += 1;
                    let block = if seed % 3 == 0 { LEN } else { BLOCK };
                    let want = shares(&int_exp, block, rank);
                    assert_eq!(out, &want, "seed {seed} rank {rank}: wrong verified share");
                }
                Ok(()) => {
                    exact += 1;
                    assert_eq!(out, &int_exp, "seed {seed} rank {rank}: wrong verified sum");
                }
                Err(e) => {
                    rejected += usize::from(matches!(e, EngineError::Verification(_)));
                    assert!(
                        matches!(e, EngineError::Verification(_) | EngineError::Comm(_)),
                        "seed {seed} rank {rank}: wrong error class: {e}"
                    );
                    assert!(out.is_empty(), "seed {seed} rank {rank}: {out:?} leaked");
                }
            }
        }
    }
    assert!(rejected > 0, "the sweep never tampered with a chunk");
    assert!(exact > 0, "the sweep never let a call through");
}

/// The same contract when the failure is the caller's own: an unencodable
/// float in block 2 of a chunked call fails that rank's mask after blocks
/// 0 and 1 were appended, and its peer starves into a typed timeout.
#[test]
fn an_unencodable_float_in_a_late_block_leaves_out_empty() {
    use hear::core::FloatSumScheme;
    let (flt_in, _) = float_inputs();
    let flt_in = &flt_in;
    for verified in [false, true] {
        for chunk in [EngineCfg::blocked(BLOCK), EngineCfg::pipelined(BLOCK)] {
            let results = Simulator::new(2).run(|comm| {
                let keys = CommKeys::generate(2, 0xF10A, Backend::best_available())
                    .into_iter()
                    .nth(comm.rank())
                    .unwrap();
                let homac = Homac::generate(0xF10A ^ 0x5a5a, Backend::best_available());
                let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
                let mut s = FloatSumScheme::new(HfpFormat::fp32(2, 2));
                let mut data: Vec<f64> = flt_in[comm.rank()]
                    .iter()
                    .cycle()
                    .take(40)
                    .copied()
                    .collect();
                if comm.rank() == 0 {
                    data[2 * BLOCK + 1] = f64::NAN;
                }
                let mut ecfg = chunk.with_retry(chaos_policy(comm));
                if verified {
                    ecfg = ecfg.verified();
                }
                let mut out = data.clone();
                let res = sc.allreduce_with_into(&mut s, &data, &mut out, ecfg);
                (res, out)
            });
            let (res, out) = &results[0];
            assert!(matches!(res, Err(EngineError::Hfp(_))), "rank 0: {res:?}");
            assert!(out.is_empty(), "rank 0 ({chunk:?}, verified={verified})");
            let (res, out) = &results[1];
            assert!(matches!(res, Err(EngineError::Comm(_))), "rank 1: {res:?}");
            assert!(out.is_empty(), "rank 1 ({chunk:?}, verified={verified})");
        }
    }
}

/// The same kill under the default [`PeerDeadPolicy::Fail`]: no shrink, no
/// hang, no wrong result. The victim completes exactly one send — the
/// first hop of the chunk its ring predecessor ends up owning — so the
/// ranks downstream of it starve and surface a typed transport error
/// within their deadline budget, while the predecessor's share may
/// assemble (and verify) in full: the reduce-scatter is `world − 1` hops
/// and nothing after them, so a rank that has its share is done. (Over
/// sockets its sends to the dead rank can fail first; either outcome is
/// the chaos contract: the correct result or a typed error.)
#[test]
fn fail_mode_surfaces_typed_error_on_rank_death() {
    let victim = WORLD - 1;
    let (int_in, int_exp) = int_inputs();
    let cfg =
        SimConfig::default().with_faults(FaultPlan::seeded(0xFA11).kill_endpoint_after(victim, 1));
    let int_in = &int_in;
    let results = Simulator::with_config(WORLD, cfg).run(|comm| {
        let mut sc = shrink_sc(comm, 0xFA11);
        let mut s = IntSumScheme::<u32>::default();
        let ecfg = EngineCfg::sync().verified().with_retry(chaos_policy(comm));
        let res = sc.reduce_scatter_with(&mut s, &int_in[comm.rank()], ecfg);
        (res, sc.is_shrunk(), sc.shard_bounds(LEN))
    });
    for (rank, (res, shrunk, (lo, hi))) in results.iter().enumerate() {
        match res {
            Err(EngineError::Comm(_)) => {}
            Ok(share) if rank == victim - 1 => {
                assert_eq!(
                    share,
                    &int_exp[*lo..*hi],
                    "rank {rank}: a completed share is exact"
                )
            }
            other => {
                panic!("rank {rank}: fail-fast mode must surface a typed Comm error, got {other:?}")
            }
        }
        assert!(!shrunk, "rank {rank}: Fail mode must never reconfigure");
    }
}

/// The §8 collectives fail typed, not by panic. At world 3 every rank
/// exchanges with the root directly in all four trees, so the root is the
/// victim. After a healthy first round the others tell the root they are
/// done, and the root dies at its next send, so its death races no
/// first-round frame still on the wire; it then owes every message of the
/// second round. The second round's broadcast starts by waiting on the
/// root, so each survivor learns of the death there; its reduce and
/// gather sends and its scatter receive then find the root dead too.
/// Every survivor gets `EngineError::Comm(PeerDead | Timeout)` from each
/// of the four. The acknowledgement works around a suspected socket
/// transport fault — a frame written just before its sender's death
/// reported as `PeerDead` — and goes once that is fixed.
#[test]
fn extension_collectives_fail_typed_on_rank_death() {
    const W: usize = 3;
    let root = 0;
    // Two sends in the broadcast, two in the scatter, then the fifth.
    let cfg =
        SimConfig::default().with_faults(FaultPlan::seeded(0x5EC8).kill_endpoint_after(root, 5));
    let results = Simulator::with_config(W, cfg).run(|comm| {
        let keys =
            CommKeys::generate(W, 0x5EC8, Backend::best_available()).swap_remove(comm.rank());
        let mut sc = SecureComm::new(comm.clone(), keys);
        let r = comm.rank() as u32;
        let mut round = || {
            let mine = if r == 0 { vec![7, 13] } else { Vec::new() };
            let chunks = if r == 0 {
                (0..W as u32).map(|dst| vec![dst + 100]).collect()
            } else {
                Vec::new()
            };
            [
                sc.bcast_encrypted(root, mine).map(|v| v.iter().sum()),
                sc.reduce_sum_u32(root, &[r + 1])
                    .map(|v| v.map_or(0, |v| v[0])),
                sc.gather_encrypted(root, vec![r])
                    .map(|v| v.concat().iter().sum()),
                sc.scatter_encrypted(root, chunks).map(|v| v[0]),
            ]
        };
        let healthy = round();
        if r == 0 {
            for src in 1..W {
                comm.recv::<u8>(src, 7);
            }
            comm.send(1, 8, vec![0u8]);
        } else {
            comm.send(root, 7, vec![1u8]);
        }
        (healthy, round())
    });
    for (rank, (healthy, after)) in results.iter().enumerate() {
        let want: [Result<u32, EngineError>; 4] = if rank == root {
            [Ok(20), Ok(6), Ok(3), Ok(100)]
        } else {
            [Ok(20), Ok(0), Ok(0), Ok(100 + rank as u32)]
        };
        assert_eq!(healthy, &want, "rank {rank}: the healthy round");
        if rank == root {
            continue;
        }
        for (op, res) in ["bcast", "reduce", "gather", "scatter"].iter().zip(after) {
            assert!(
                matches!(
                    res,
                    Err(EngineError::Comm(
                        CommError::PeerDead { .. } | CommError::Timeout { .. }
                    ))
                ),
                "survivor {rank}: {op} after the root died gave {res:?}"
            );
        }
    }
}

/// A rank that cannot reach one child still serves the others: at world
/// 4 the broadcast root sends to ranks 2 and 1, the scatter root to 1, 2
/// and 3, and rank 2 is dead from the start. The root reports it, rank 3
/// (rank 2's child in the tree) fails typed, and ranks 1 and 3 are not
/// left waiting on a root that gave up at its first failed send.
#[test]
fn a_dead_child_does_not_starve_its_siblings() {
    let dead = 2;
    let cfg =
        SimConfig::default().with_faults(FaultPlan::seeded(0xD1E5).kill_endpoint_after(dead, 0));
    let results = Simulator::with_config(WORLD, cfg).run(|comm| {
        let keys =
            CommKeys::generate(WORLD, 0xD1E5, Backend::best_available()).swap_remove(comm.rank());
        let mut sc = SecureComm::new(comm.clone(), keys);
        let root = comm.rank() == 0;
        let sent = if root { vec![5, 6] } else { Vec::new() };
        let chunks = if root {
            (0..WORLD as u32).map(|r| vec![r * 10]).collect()
        } else {
            Vec::new()
        };
        (sc.bcast_encrypted(0, sent), sc.scatter_encrypted(0, chunks))
    });
    let peer_dead = |res: &Result<Vec<u32>, EngineError>, peer| {
        *res == Err(EngineError::Comm(CommError::PeerDead { peer }))
    };
    let (bcast, scatter) = &results[0];
    assert!(
        peer_dead(bcast, dead) && peer_dead(scatter, dead),
        "root: {results:?}"
    );
    assert_eq!(results[1], (Ok(vec![5, 6]), Ok(vec![10])));
    assert!(
        peer_dead(&results[3].0, dead),
        "rank 3's bcast parent is rank 2"
    );
    assert_eq!(results[3].1, Ok(vec![30]));
}

/// A relay that fails does not strand the ranks behind it. At world 4
/// rank 2 relays between root 0 and rank 3 in both trees. In the
/// broadcast the root is dead by its first send, so rank 2 has nothing
/// to forward to rank 3; in the reduce rank 3 is dead by its first send,
/// so rank 2 has no fold to send to root 0. Either way rank 2 marks
/// itself dead, and the rank waiting on it gets `PeerDead { peer: 2 }`:
/// every rank returns its result, none waits forever.
#[test]
fn a_failed_relay_does_not_strand_its_subtree() {
    let dead = |peer| Err(EngineError::Comm(CommError::PeerDead { peer }));
    let run = |victim: usize, reduce: bool| {
        let cfg = SimConfig::default()
            .with_faults(FaultPlan::seeded(0x2E1A).kill_endpoint_after(victim, 0));
        Simulator::with_config(WORLD, cfg).run(move |comm| {
            let keys = CommKeys::generate(WORLD, 0x2E1A, Backend::best_available())
                .swap_remove(comm.rank());
            let mut sc = SecureComm::new(comm.clone(), keys);
            if reduce {
                sc.reduce_sum_u32(0, &[comm.rank() as u32 + 1])
                    .map(|v| v.unwrap_or_default())
            } else {
                let sent = if comm.rank() == 0 {
                    vec![5, 6]
                } else {
                    Vec::new()
                };
                sc.bcast_encrypted(0, sent)
            }
        })
    };
    // The victim's own first send fails on whichever of it and its
    // destination the transport marked dead first; only survivors are
    // pinned. Rank 1 hands its share to the root and is done.
    for (victim, reduce, survivors) in [
        (0, false, [dead(0), dead(0), dead(2)]),
        (3, true, [dead(2), Ok(vec![]), dead(3)]),
    ] {
        let mut results = run(victim, reduce);
        let own = results.remove(victim);
        assert!(
            matches!(own, Err(EngineError::Comm(CommError::PeerDead { .. }))),
            "victim {victim}: {own:?}"
        );
        assert_eq!(results, survivors, "victim {victim}, reduce {reduce}");
    }
}

/// A transient-disconnect window (rank 0's first two ring hops dropped,
/// link heals on its next send): the typed `Disconnected` fault stays
/// inside the retry budget — every rank converges on the full-world
/// result, nobody shrinks, and the reconnect is counted.
#[test]
fn transient_disconnect_heals_within_retry_budget() {
    use hear::telemetry::{Metric, Registry};
    let (int_in, int_exp) = int_inputs();
    let reg = Registry::new_enabled();
    let _g = reg.install(None);
    let cfg = SimConfig::default()
        .with_faults(FaultPlan::seeded(0xD15C).disconnect_endpoint_after(0, 0, 2));
    let int_in = &int_in;
    let results = Simulator::with_config(WORLD, cfg).run(|comm| {
        let mut sc = shrink_sc(comm, 0xD15C);
        let mut s = IntSumScheme::<u32>::default();
        // The two dropped hops shift rank 0's later hops one step up on
        // that link, so two ranks are handed garbage and fail
        // verification at once while the other two see only silence and
        // wait their window out. The retry window is anchored on the
        // failed attempt's deadline (`RetryCtl::deadline`), so all four
        // meet on the first retry; the extra attempts are headroom for a
        // starved runner, not something the heal needs.
        let mut policy = shrink_policy(comm);
        policy.max_attempts = 8;
        let ecfg = EngineCfg::sync()
            .verified()
            .with_algo(ReduceAlgo::Ring)
            .with_retry(policy);
        let res = sc.allreduce_with(&mut s, &int_in[comm.rank()], ecfg);
        (res, sc.is_shrunk())
    });
    for (rank, (res, shrunk)) in results.iter().enumerate() {
        assert_eq!(
            res.as_ref().unwrap(),
            &int_exp,
            "rank {rank}: a healed link must still produce the full result"
        );
        assert!(!shrunk, "rank {rank}: a transient fault must not evict");
    }
    assert!(
        reg.counter(Metric::FaultDisconnect) >= 1,
        "disconnect fault uncounted"
    );
    assert!(
        reg.counter(Metric::ReconnectsTotal) >= 1,
        "reconnect uncounted"
    );
}

/// The retry budget belongs to the call, not to each block: a retry
/// re-sends only the block that failed, but every block's retries draw on
/// the one `max_attempts − 1` budget. World 2, ring, four verified blocks:
/// rank 0's first send in block 0 and its first send in block 2 are lost.
/// A ring block attempt at world 2 is two sends a rank, so block 0's
/// failed attempt and its retry are sends 1–4, block 1 is 5–6 and block 2
/// opens on send 7. The lost hop hands rank 1 rank 0's allgather chunk as
/// its reduce-scatter input, so rank 0 fails verification and rank 1 waits
/// its window out: each fault costs every rank one retry. One retry per
/// call is spent by block 0, and block 2 fails typed with `out` empty; two
/// retries cover both faults and every rank ends with the exact sum.
#[test]
fn the_retry_budget_is_spent_across_the_blocks_of_a_call() {
    use hear::telemetry::{Metric, Registry};
    const WORLD2: usize = 2;
    let (int_in, _) = int_inputs();
    let expected = survivor_sum(&int_in, &[0, 1]);
    let int_in = &int_in;
    for retries in [1, 2] {
        let cfg = SimConfig::default().with_faults(
            FaultPlan::seeded(0xB0D6)
                .disconnect_endpoint_after(0, 0, 1)
                .disconnect_endpoint_after(0, 6, 1),
        );
        let results = Simulator::with_config(WORLD2, cfg).run(|comm| {
            let reg = Registry::new_enabled();
            let _g = reg.install(Some(comm.rank()));
            let keys = CommKeys::generate(WORLD2, 0xB0D6, Backend::best_available())
                .into_iter()
                .nth(comm.rank())
                .unwrap();
            let homac = Homac::generate(0xB0D6 ^ 0x5a5a, Backend::best_available());
            let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
            let mut s = IntSumScheme::<u32>::default();
            let attempt = (comm.transport_rtt() * 1000).max(Duration::from_millis(1000));
            let ecfg = EngineCfg::blocked(LEN / 4)
                .verified()
                .with_algo(ReduceAlgo::Ring)
                .with_retry(RetryPolicy::retries(retries).with_attempt_timeout(attempt));
            let data = &int_in[comm.rank()];
            let mut out = data.clone();
            let res = sc.allreduce_with_into(&mut s, data, &mut out, ecfg);
            (res, out, reg.counter(Metric::RetriesTotal))
        });
        for (rank, (res, out, spent)) in results.iter().enumerate() {
            let cell = format!("retries({retries}) rank {rank}");
            if retries == 1 {
                let e = res.expect_err(&format!("{cell}: a second fault fit the budget"));
                let retryable = match e {
                    EngineError::Comm(c) => c.is_retryable(),
                    EngineError::Verification(_) => true,
                    EngineError::Hfp(_) => false,
                };
                assert!(retryable, "{cell}: {e}");
                assert!(out.is_empty(), "{cell}: `out` holds {} elements", out.len());
                assert_eq!(*spent, 1, "{cell}: block 0 spent the budget");
            } else {
                assert!(res.is_ok(), "{cell}: {res:?}");
                assert_eq!(out, &expected, "{cell}: wrong sum");
                assert_eq!(*spent, 2, "{cell}: retries spent");
            }
        }
    }
}

/// The graceful-degradation pin: with the switch tree dead on arrival,
/// an INC epoch must complete *correctly* on every rank via the host-ring
/// fallback (not merely error out), the degradation must be counted, and
/// the communicator must stay sticky-degraded for later epochs.
#[test]
fn switch_kill_degrades_to_host_ring_and_completes() {
    use hear::telemetry::{Metric, Registry};
    let (int_in, int_exp) = int_inputs();
    let int_in = &int_in;
    for chunk in [EngineCfg::blocked(BLOCK), EngineCfg::pipelined(BLOCK)] {
        // Private registry so concurrent tests can't pollute the counts.
        let reg = Registry::new_enabled();
        let _g = reg.install(None);
        let cfg = SimConfig::default()
            .with_switch(WORLD)
            .with_faults(plan_for(FaultKind::SwitchKill, 0xDEAD));
        let results = Simulator::with_config(WORLD, cfg).run(|comm| {
            let keys = CommKeys::generate(WORLD, 0xDEAD, Backend::best_available())
                .into_iter()
                .nth(comm.rank())
                .unwrap();
            let homac = Homac::generate(0xDEAD ^ 0x5a5a, Backend::best_available());
            let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
            let mut s = IntSumScheme::<u32>::default();
            let ecfg = chunk
                .verified()
                .with_algo(ReduceAlgo::Switch)
                .with_retry(chaos_policy(comm));
            let first = sc.allreduce_with(&mut s, &int_in[comm.rank()], ecfg);
            // The fallback is sticky: the next epoch must not re-probe the
            // dead switch (it routes to the ring at entry).
            let second = sc.allreduce_with(&mut s, &int_in[comm.rank()], ecfg);
            (first, second, sc.is_degraded())
        });
        for (rank, (first, second, degraded)) in results.iter().enumerate() {
            let first = first.as_ref().unwrap_or_else(|e| {
                panic!("rank {rank} failed instead of degrading ({chunk:?}): {e}")
            });
            let second = second.as_ref().unwrap();
            assert_eq!(first, &int_exp, "rank {rank} fallback result ({chunk:?})");
            assert_eq!(second, &int_exp, "rank {rank} sticky epoch ({chunk:?})");
            assert!(degraded, "rank {rank} did not record the fallback");
        }
        // Each rank degrades once mid-epoch and once more at sticky entry.
        let degraded_epochs = reg.counter(Metric::DegradedEpochs);
        assert!(
            degraded_epochs >= WORLD as u64,
            "degraded epochs counted {degraded_epochs}, expected at least {WORLD}"
        );
    }
}

/// A pipelined Switch allreduce degrades to the ring while a later block
/// is still posted on the switch. Rank 0's first send is lost — its
/// contribution to block 0 or block 1, whichever helper sends first — so
/// that block times out on every rank and the call moves to the ring; the
/// block posted after it completes on the switch. Its drain must open the
/// one switch chunk it brought back, not the ring's per-rank chunks: every
/// rank ends with the exact sum.
#[test]
fn a_block_posted_on_the_switch_drains_after_the_ring_degrade() {
    let (int_in, int_exp) = int_inputs();
    let int_in = &int_in;
    for verified in [false, true] {
        let cfg = SimConfig::default()
            .with_switch(WORLD)
            .with_faults(FaultPlan::seeded(0x5D0E).disconnect_endpoint_after(0, 0, 1));
        let results = Simulator::with_config(WORLD, cfg).run(|comm| {
            let mut sc = shrink_sc(comm, 0x5D0E);
            let mut s = IntSumScheme::<u32>::default();
            // Eight blocks: the failed one is followed by a switch-posted one.
            let mut ecfg = EngineCfg::pipelined(LEN / 8)
                .with_algo(ReduceAlgo::Switch)
                .with_retry(chaos_policy(comm));
            if verified {
                ecfg = ecfg.verified();
            }
            let res = sc.allreduce_with(&mut s, &int_in[comm.rank()], ecfg);
            (res, sc.is_degraded())
        });
        for (rank, (res, degraded)) in results.iter().enumerate() {
            let cell = format!("verified={verified} rank {rank}");
            let got = res.as_ref().unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert_eq!(got, &int_exp, "{cell}: wrong sum");
            assert!(
                degraded,
                "{cell}: the lost send never moved the call to the ring"
            );
        }
    }
}

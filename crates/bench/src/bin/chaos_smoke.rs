//! Chaos smoke run: the fault-injection fabric driven through three
//! seeded, offline, deterministic failure scenarios — message loss,
//! payload corruption, and a dead switch tree — as a CI gate on the
//! self-healing contract: every rank either returns the plaintext
//! reference aggregate or a typed error, nothing hangs, nothing panics,
//! and a dead INC tree degrades to the host ring and still completes.
//!
//! Each scenario runs under a watchdog thread; a scenario that fails to
//! finish within its budget exits with a distinct code so a hung fabric
//! is distinguishable from a wrong answer in CI logs.

use hear::core::{Backend, CommKeys, Homac, IntSumScheme};
use hear::layer::{EngineCfg, EngineError, ReduceAlgo, RetryPolicy, SecureComm};
use hear::mpi::{FaultPlan, SimConfig, Simulator};
use hear::telemetry::{Metric, Registry};
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

const WORLD: usize = 4;
/// Endpoint of the single switch node at radix 4 (numbered after ranks).
const SWITCH_ENDPOINT: usize = WORLD;
const LEN: usize = 64;
const SEED: u64 = 0xC405;
/// Per-scenario watchdog budget. Generous: the worst case is every block
/// burning its full retry schedule (attempt timeouts + backoff), which
/// stays well under a second.
const WATCHDOG: Duration = Duration::from_secs(60);

fn policy() -> RetryPolicy {
    RetryPolicy::retries(2)
        .with_backoff(Duration::from_millis(2))
        .with_attempt_timeout(Duration::from_millis(200))
}

fn inputs() -> (Vec<Vec<u32>>, Vec<u32>) {
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

/// One verified allreduce per rank under `plan`; returns per-rank results.
fn run_world(plan: FaultPlan, algo: ReduceAlgo) -> Vec<Result<Vec<u32>, EngineError>> {
    let (data, _) = inputs();
    let cfg = SimConfig::default().with_switch(4).with_faults(plan);
    Simulator::with_config(WORLD, cfg).run(move |comm| {
        let keys = CommKeys::generate(WORLD, SEED, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let homac = Homac::generate(SEED ^ 0x99, Backend::best_available());
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let mut s = IntSumScheme::<u32>::default();
        let ecfg = EngineCfg::blocked(16)
            .verified()
            .with_algo(algo)
            .with_retry(policy());
        sc.allreduce_with(&mut s, &data[comm.rank()], ecfg)
    })
}

/// The base contract: Ok results must match the reference exactly;
/// errors must be typed transport/verification failures.
fn check_contract(name: &str, results: &[Result<Vec<u32>, EngineError>], expected: &[u32]) -> u32 {
    let mut failures = 0;
    for (rank, res) in results.iter().enumerate() {
        match res {
            Ok(got) if got == expected => println!("ok    {name}: rank {rank} correct"),
            Ok(_) => {
                println!("FAIL  {name}: rank {rank} returned a WRONG aggregate");
                failures += 1;
            }
            Err(EngineError::Hfp(e)) => {
                println!("FAIL  {name}: rank {rank} wrong error class: {e}");
                failures += 1;
            }
            Err(e) => println!("ok    {name}: rank {rank} typed error: {e}"),
        }
    }
    failures
}

/// Scenario 1 — message loss on the host ring: dropped sends are
/// re-driven by the retry schedule; a rank that exhausts its three
/// attempts on a block must surface a typed timeout, never a partial
/// aggregate.
fn scenario_drop() -> u32 {
    let (_, expected) = inputs();
    let plan = FaultPlan::seeded(SEED).drop_one_in(8);
    let results = run_world(plan, ReduceAlgo::Ring);
    check_contract("drop", &results, &expected)
}

/// Scenario 2 — payload corruption under HoMAC: a flipped ciphertext,
/// digest, or tag bit must never survive into an Ok result (the §5.5
/// per-block resend either re-drives it clean or surfaces a typed
/// verification failure).
fn scenario_corrupt() -> u32 {
    let (_, expected) = inputs();
    let plan = FaultPlan::seeded(SEED ^ 1).corrupt_one_in(5);
    let results = run_world(plan, ReduceAlgo::RecursiveDoubling);
    check_contract("corrupt", &results, &expected)
}

/// Scenario 3 — dead switch tree: the INC path must degrade to the host
/// ring on every rank, complete with the exact aggregate, and count the
/// degradation.
fn scenario_switch_kill() -> u32 {
    let (_, expected) = inputs();
    let reg = Registry::new_enabled();
    let _g = reg.install(None);
    let plan = FaultPlan::seeded(SEED ^ 2).kill_endpoint_after(SWITCH_ENDPOINT, 0);
    let results = run_world(plan, ReduceAlgo::Switch);
    let mut failures = 0;
    for (rank, res) in results.iter().enumerate() {
        match res {
            Ok(got) if *got == expected => {
                println!("ok    switch-kill: rank {rank} completed via host ring")
            }
            Ok(_) => {
                println!("FAIL  switch-kill: rank {rank} wrong aggregate after fallback");
                failures += 1;
            }
            Err(e) => {
                println!("FAIL  switch-kill: rank {rank} failed instead of degrading: {e}");
                failures += 1;
            }
        }
    }
    let degraded = reg.counter(Metric::DegradedEpochs);
    if degraded >= 1 {
        println!("ok    switch-kill: degraded epochs counted ({degraded})");
    } else {
        println!("FAIL  switch-kill: fallback not recorded in hear_degraded_epochs_total");
        failures += 1;
    }
    failures
}

fn main() -> ExitCode {
    type Scenario = (&'static str, fn() -> u32);
    let scenarios: [Scenario; 3] = [
        ("drop", scenario_drop),
        ("corrupt", scenario_corrupt),
        ("switch-kill", scenario_switch_kill),
    ];
    let mut failures = 0u32;
    for (name, f) in scenarios {
        // Watchdog: the whole point of the deadline/retry machinery is
        // that faults cannot hang a collective, so a scenario overrunning
        // its budget is itself a gate failure (exit 3, not a CI timeout).
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(WATCHDOG) {
            Ok(n) => failures += n,
            Err(_) => {
                eprintln!("chaos smoke: scenario '{name}' HUNG past {WATCHDOG:?}");
                return ExitCode::from(3);
            }
        }
    }
    if failures == 0 {
        println!("chaos smoke: all scenarios ok");
        ExitCode::SUCCESS
    } else {
        eprintln!("chaos smoke: {failures} check(s) FAILED");
        ExitCode::FAILURE
    }
}

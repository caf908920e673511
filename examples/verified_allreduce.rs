//! Result verification with HoMACs (paper §5.5): catching a malicious
//! network.
//!
//! HE is malleable — a compromised switch or link can perturb ciphertexts
//! and the sum still "decrypts". This example runs the engine's verified
//! Allreduce (`SecureComm::with_homac` + `EngineCfg::verified()`): every
//! ciphertext travels as a `(c, d, σ)` packet whose homomorphic tag the
//! receiver checks before it unmasks. An honest network verifies and
//! decrypts exactly; a network that corrupts packets in flight (a fault
//! plan that damages every message) is rejected on every rank with
//! `EngineError::Verification`, and no wrong sum reaches the caller.
//!
//! ```sh
//! cargo run --release --example verified_allreduce
//! ```

use hear::core::{Backend, CommKeys, Homac, IntSumScheme};
use hear::layer::{EngineCfg, EngineError, SecureComm};
use hear::mpi::{FaultPlan, SimConfig, Simulator};

const WORLD: usize = 4;

/// One verified 6-element `u32` sum on every rank of a world whose
/// network follows `cfg`.
fn verified_sum(cfg: SimConfig) -> Vec<Result<Vec<u32>, EngineError>> {
    Simulator::with_config(WORLD, cfg).run(|comm| {
        let keys =
            CommKeys::generate(WORLD, 0xFEED, Backend::best_available()).swap_remove(comm.rank());
        let homac = Homac::generate(0x7A65, Backend::best_available());
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let data: Vec<u32> = (0..6).map(|j| comm.rank() as u32 * 100 + j).collect();
        sc.allreduce_with(
            &mut IntSumScheme::default(),
            &data,
            EngineCfg::sync().verified(),
        )
    })
}

fn main() {
    println!("== HoMAC-verified encrypted Allreduce over {WORLD} ranks ==\n");
    let expected: Vec<u32> = (0..6)
        .map(|j| (0..WORLD as u32).map(|r| r * 100 + j).sum())
        .collect();

    // 1) Honest network: every rank verifies and decrypts the exact sum.
    for (rank, res) in verified_sum(SimConfig::default()).iter().enumerate() {
        assert_eq!(res.as_ref().ok(), Some(&expected), "rank {rank}");
        println!("honest network,   rank {rank}: verified ✓ {expected:?}");
    }

    // 2) Tampering network: the fault plan damages one element of every
    //    packet vector in flight. Each rank's aggregate fails its tag check.
    let tamper = SimConfig::default().with_faults(FaultPlan::seeded(0xBAD).corrupt_one_in(1));
    for (rank, res) in verified_sum(tamper).iter().enumerate() {
        match res {
            Err(EngineError::Verification(e)) => {
                println!("tampered network, rank {rank}: rejected ✓ ({e})")
            }
            other => panic!("rank {rank}: tampering was not rejected: {other:?}"),
        }
    }

    println!("\nOK: the honest sum verified and the tampered one was rejected on every rank.");
}

//! Failure injection: what happens when the untrusted side misbehaves or
//! the trusted side is misused. Wrong results must never decrypt silently
//! when verification is on; API misuse must fail loudly, not corrupt data.

use hear::core::{
    Backend, CommKeys, FloatSumScheme, HfpError, HfpFormat, Homac, IntSum, IntSumScheme, Scheme,
    Scratch,
};
use hear::layer::{EngineCfg, SecureComm};
use hear::mpi::Simulator;

fn keys(world: usize, seed: u64) -> Vec<CommKeys> {
    CommKeys::generate(world, seed, Backend::best_available())
}

#[test]
fn desynchronized_epochs_produce_garbage_not_panics() {
    // A rank that forgets to advance its collective key decrypts noise —
    // loud wrongness (detectable by the application), not UB or a hang.
    let k = keys(2, 3);
    let mut scratch = Scratch::default();
    let (mut k0, mut k1) = {
        let mut it = k.into_iter();
        (it.next().unwrap(), it.next().unwrap())
    };
    k0.advance();
    k0.advance(); // rank 0 advanced twice...
    k1.advance(); // ...rank 1 once: epochs diverge.
    assert_ne!(k0.epoch(), k1.epoch());
    let mut c0 = vec![5u32];
    let mut c1 = vec![5u32];
    IntSum::encrypt_in_place(&k0, 0, &mut c0, &mut scratch);
    IntSum::encrypt_in_place(&k1, 0, &mut c1, &mut scratch);
    let mut agg = vec![c0[0].wrapping_add(c1[0])];
    IntSum::decrypt_in_place(&k0, 0, &mut agg, &mut scratch);
    assert_ne!(
        agg[0], 10,
        "desync must not silently yield the right answer"
    );
}

#[test]
fn float_encrypt_rejects_non_finite_and_overflow() {
    let k = keys(1, 4);
    let mut fs = FloatSumScheme::new(HfpFormat::fp32(2, 2));
    let mut out = Vec::new();
    assert_eq!(
        fs.mask_slice(&k[0], 0, &[f64::NAN], &mut out),
        Err(HfpError::NonFinite)
    );
    assert_eq!(
        fs.mask_slice(&k[0], 0, &[f64::INFINITY], &mut out),
        Err(HfpError::NonFinite)
    );
    assert!(matches!(
        fs.mask_slice(&k[0], 0, &[1e300], &mut out),
        Err(HfpError::ExponentOverflow(_))
    ));
    // A failing element anywhere in the vector aborts the whole call.
    assert!(fs
        .mask_slice(&k[0], 0, &[1.0, 2.0, f64::NAN], &mut out)
        .is_err());
}

#[test]
fn verified_layer_call_errors_cleanly_under_tampering() {
    // Through the full SecureComm API with an evil switch is hard to
    // arrange (the layer owns the op), so emulate the closest failure a
    // user can cause: verification enabled but the aggregate corrupted in
    // transit is covered above; here check the misuse path — verification
    // without HoMAC state panics with a clear message.
    let caught = std::panic::catch_unwind(|| {
        Simulator::new(1).run(|comm| {
            let keys = keys(1, 5).into_iter().next().unwrap();
            let mut sc = SecureComm::new(comm.clone(), keys);
            let cfg = EngineCfg::sync().verified();
            let _ = sc.allreduce_with(&mut IntSumScheme::default(), &[1u32], cfg);
        });
    });
    assert!(
        caught.is_err(),
        "verified call without with_homac must panic"
    );
}

#[test]
fn wrong_world_keys_rejected_up_front() {
    let caught = std::panic::catch_unwind(|| {
        Simulator::new(2).run(|comm| {
            // Keys generated for a 3-rank communicator used on a 2-rank one.
            let keys = keys(3, 6).into_iter().nth(comm.rank()).unwrap();
            let _ = SecureComm::new(comm.clone(), keys);
        });
    });
    assert!(caught.is_err());
}

#[test]
fn switch_allreduce_without_switch_infrastructure_panics() {
    let caught = std::panic::catch_unwind(|| {
        Simulator::new(2).run(|comm| {
            use hear::layer::ReduceAlgo;
            let keys = keys(2, 7).into_iter().nth(comm.rank()).unwrap();
            let mut sc = SecureComm::new(comm.clone(), keys);
            let cfg = EngineCfg::sync().with_algo(ReduceAlgo::Switch);
            let _ = sc.allreduce_with(&mut IntSumScheme::default(), &[1u32], cfg);
        });
    });
    assert!(caught.is_err());
}

#[test]
fn replayed_tags_fail_after_epoch_advance() {
    let k = keys(2, 8);
    let homac = Homac::generate(9, Backend::best_available());
    let mut scratch = Scratch::default();
    let mut k0 = k.into_iter().next().unwrap();
    k0.advance();
    let mut ct = vec![1u32, 2, 3];
    IntSum::encrypt_in_place(&k0, 0, &mut ct, &mut scratch);
    let tags = homac.tag(&k0, 0, &ct);
    // World=2 but we fold only rank 0's contribution; use the plain
    // single-rank identity: verify against rank 0's own epoch works only
    // for the complete reduction, so craft the 1-rank case instead.
    let k1 = keys(1, 10);
    let mut k1 = k1.into_iter().next().unwrap();
    k1.advance();
    let mut ct1 = vec![9u32];
    IntSum::encrypt_in_place(&k1, 0, &mut ct1, &mut scratch);
    let tags1 = homac.tag(&k1, 0, &ct1);
    assert!(homac.verify(&k1, 0, &ct1, &tags1), "fresh pair verifies");
    k1.advance();
    assert!(
        !homac.verify(&k1, 0, &ct1, &tags1),
        "stale pair must fail after advance"
    );
    let _ = (ct, tags);
}

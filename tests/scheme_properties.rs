//! Randomized end-to-end properties of the full stack: proptest drives
//! world sizes, vector lengths, datatypes and transport algorithms through
//! the simulator, checking the one invariant that matters — the encrypted
//! reduction equals the plaintext reduction (exactly for integers, within
//! HFP rounding for floats) — plus scheme-composition laws.

use hear::core::{
    Backend, CommKeys, FloatSumScheme, HfpFormat, IntProdScheme, IntSumScheme, IntXorScheme, MpiOp,
};
use hear::layer::{EngineCfg, ReduceAlgo, SecureComm, TypedSlice, TypedVec};
use hear::mpi::{Communicator, SimConfig, Simulator};
use proptest::prelude::*;

fn secure(comm: &Communicator, seed: u64) -> SecureComm {
    let keys = CommKeys::generate(comm.world(), seed, Backend::best_available())
        .into_iter()
        .nth(comm.rank())
        .unwrap();
    SecureComm::new(comm.clone(), keys)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn encrypted_sum_equals_plaintext_sum(
        world in 1usize..5,
        len in 1usize..40,
        seed in any::<u64>(),
        algo_pick in 0u8..3,
    ) {
        let results = Simulator::with_config(world, SimConfig::default().with_switch(2))
            .run(move |comm| {
                let algo = match algo_pick {
                    0 => ReduceAlgo::RecursiveDoubling,
                    1 => ReduceAlgo::Ring,
                    _ => ReduceAlgo::Switch,
                };
                let mut sc = secure(comm, seed);
                let data: Vec<u32> = (0..len as u32)
                    .map(|j| j.wrapping_mul(seed as u32 | 1).wrapping_add(comm.rank() as u32))
                    .collect();
                let enc = sc
                    .allreduce_with(
                        &mut IntSumScheme::default(),
                        &data,
                        EngineCfg::sync().with_algo(algo),
                    )
                    .unwrap();
                let reference = comm.allreduce(&data, |a, b| a.wrapping_add(*b));
                (enc, reference)
            });
        for (enc, reference) in &results {
            prop_assert_eq!(enc, reference);
        }
    }

    #[test]
    fn encrypted_prod_and_xor_equal_plaintext(
        world in 1usize..5,
        len in 1usize..20,
        seed in any::<u64>(),
    ) {
        let results = Simulator::new(world).run(move |comm| {
            let mut sc = secure(comm, seed);
            let data: Vec<u64> = (0..len as u64)
                .map(|j| j.wrapping_mul(seed | 1) ^ comm.rank() as u64)
                .collect();
            let cfg = EngineCfg::sync();
            let p = sc.allreduce_with(&mut IntProdScheme::default(), &data, cfg).unwrap();
            let x = sc.allreduce_with(&mut IntXorScheme::default(), &data, cfg).unwrap();
            let rp = comm.allreduce(&data, |a, b| a.wrapping_mul(*b));
            let rx = comm.allreduce(&data, |a, b| a ^ b);
            (p, x, rp, rx)
        });
        for (p, x, rp, rx) in &results {
            prop_assert_eq!(p, rp);
            prop_assert_eq!(x, rx);
        }
    }

    #[test]
    fn float_sum_tracks_plaintext_within_tolerance(
        world in 1usize..4,
        len in 1usize..16,
        seed in any::<u64>(),
        gamma in 0u32..3,
    ) {
        let results = Simulator::new(world).run(move |comm| {
            let mut sc = secure(comm, seed);
            let data: Vec<f64> = (0..len)
                .map(|j| ((seed as f64 * 1e-12 + j as f64) * 0.37).sin() * 4.0 + 5.0)
                .collect();
            let mut s = FloatSumScheme::new(HfpFormat::fp32(2, gamma));
            let enc = sc.allreduce_with(&mut s, &data, EngineCfg::sync()).unwrap();
            let reference = comm.allreduce(&data, |a, b| a + b);
            (enc, reference)
        });
        // γ=0 drops two mantissa bits → looser budget.
        let tol = if gamma == 0 { 2e-4 } else { 2e-5 };
        for (enc, reference) in &results {
            for (e, r) in enc.iter().zip(reference) {
                let rel = ((e - r) / r).abs();
                prop_assert!(rel < tol, "gamma={} rel={}", gamma, rel);
            }
        }
    }

    #[test]
    fn sum_then_negated_sum_cancels(
        world in 2usize..5,
        v in any::<i32>(),
        seed in any::<u64>(),
    ) {
        // E2E linearity: allreduce(x) + allreduce(-x) == 0 element-wise,
        // across two separate encrypted calls (two epochs).
        let results = Simulator::new(world).run(move |comm| {
            let mut sc = secure(comm, seed);
            let mut sum = |x: i32| {
                match sc.pmpi_allreduce(TypedSlice::I32(&[x]), MpiOp::Sum, EngineCfg::sync()) {
                    Ok(TypedVec::I32(v)) => v[0],
                    other => panic!("{other:?}"),
                }
            };
            sum(v).wrapping_add(sum(v.wrapping_neg()))
        });
        for r in &results {
            prop_assert_eq!(*r, 0);
        }
    }

    #[test]
    fn verified_path_agrees_with_unverified(
        world in 1usize..4,
        len in 1usize..12,
        seed in any::<u64>(),
    ) {
        let results = Simulator::new(world).run(move |comm| {
            let homac = hear::core::Homac::generate(seed ^ 1, Backend::best_available());
            let mut sc = secure(comm, seed).with_homac(homac);
            let data: Vec<u32> = (0..len as u32).map(|j| j + comm.rank() as u32 * 7).collect();
            let mut sum = |cfg| sc.allreduce_with(&mut IntSumScheme::default(), &data, cfg);
            let verified = sum(EngineCfg::sync().verified()).expect("honest network");
            let plain = sum(EngineCfg::sync()).unwrap();
            (verified, plain)
        });
        for (verified, plain) in &results {
            prop_assert_eq!(verified, plain);
        }
    }

    #[test]
    fn narrow_and_wide_lanes_agree(
        world in 1usize..4,
        vals in proptest::collection::vec(0u16..=u16::MAX, 1..12),
        seed in any::<u64>(),
    ) {
        // Summing u16 data on u16 lanes must equal summing it on u32 lanes
        // reduced mod 2^16.
        let vals2 = vals.clone();
        let results = Simulator::new(world).run(move |comm| {
            let mut sc = secure(comm, seed);
            let cfg = EngineCfg::sync();
            let narrow = sc.allreduce_with(&mut IntSumScheme::default(), &vals2, cfg).unwrap();
            let wide_in: Vec<u32> = vals2.iter().map(|v| *v as u32).collect();
            let wide = sc.allreduce_with(&mut IntSumScheme::default(), &wide_in, cfg).unwrap();
            (narrow, wide)
        });
        for (narrow, wide) in &results {
            for (n, w) in narrow.iter().zip(wide) {
                prop_assert_eq!(*n, *w as u16);
            }
        }
    }
}

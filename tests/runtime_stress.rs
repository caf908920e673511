//! Runtime stress tests: the thread-backed MPI under adversarial
//! schedules — delayed fabric + switch tree + nonblocking overlap +
//! many concurrent collectives, with encrypted payloads throughout.

// Expected values are written as explicit per-rank sums (0 + 2 + 4).
#![allow(clippy::identity_op)]

use hear::core::{
    Backend, CommKeys, FixedCodec, FixedSumScheme, FloatProdScheme, FloatSumScheme, HfpFormat,
    IntProdScheme, IntSumScheme, MpiOp,
};
use hear::layer::{EngineCfg, ReduceAlgo, SecureComm, TypedSlice, TypedVec};
use hear::mpi::{Communicator, NetConfig, SimConfig, Simulator};
use std::time::Duration;

fn secure(comm: &Communicator, seed: u64) -> SecureComm {
    let keys = CommKeys::generate(comm.world(), seed, Backend::best_available())
        .into_iter()
        .nth(comm.rank())
        .unwrap();
    SecureComm::new(comm.clone(), keys)
}

/// One plain, synchronous u32 SUM on `sc`'s own algorithm.
fn sum_u32(sc: &mut SecureComm, data: &[u32]) -> Vec<u32> {
    sc.allreduce_with(&mut IntSumScheme::default(), data, EngineCfg::sync())
        .unwrap()
}

/// The `(or, and)` pairs of a logical reduction through the front door.
fn logical(sc: &mut SecureComm, bits: &[bool]) -> Vec<(bool, bool)> {
    match sc.pmpi_allreduce(TypedSlice::Bool(bits), MpiOp::Lor, EngineCfg::sync()) {
        Ok(TypedVec::Logical(v)) => v,
        other => panic!("{other:?}"),
    }
}

#[test]
fn hundred_collectives_with_transit_delay() {
    // A small α keeps messages in flight while later collectives post.
    let cfg = SimConfig::default().with_net(NetConfig {
        alpha: Duration::from_micros(50),
        beta_ns_per_byte: 0.1,
    });
    let results = Simulator::with_config(3, cfg).run(|comm| {
        let mut sc = secure(comm, 1);
        let mut acc = 0u64;
        for i in 0..100u32 {
            acc = acc.wrapping_add(sum_u32(&mut sc, &[i])[0] as u64);
        }
        acc
    });
    let expect: u64 = (0..100u64).map(|i| i * 3).sum();
    assert!(results.iter().all(|r| *r == expect));
}

#[test]
fn switch_tree_with_delay_model() {
    let cfg = SimConfig::default()
        .with_net(NetConfig {
            alpha: Duration::from_micros(80),
            beta_ns_per_byte: 0.2,
        })
        .with_switch(2);
    let results = Simulator::with_config(6, cfg).run(|comm| {
        let mut sc = secure(comm, 2);
        let data: Vec<u32> = (0..257).map(|j| j + comm.rank() as u32).collect();
        let cfg = EngineCfg::sync().with_algo(ReduceAlgo::Switch);
        sc.allreduce_with(&mut IntSumScheme::default(), &data, cfg)
            .unwrap()
    });
    for got in &results {
        for (j, v) in got.iter().enumerate() {
            let expect: u32 = (0..6).map(|r| j as u32 + r).sum();
            assert_eq!(*v, expect, "j={j}");
        }
    }
}

#[test]
fn deep_nonblocking_pipeline_under_delay() {
    // 16 requests in flight at once, out-of-order waits.
    let cfg = SimConfig::default().with_net(NetConfig {
        alpha: Duration::from_micros(100),
        beta_ns_per_byte: 0.0,
    });
    let results = Simulator::with_config(2, cfg).run(|comm| {
        let reqs: Vec<_> = (0..16u64)
            .map(|i| comm.iallreduce(vec![i, i * i], |a, b| a + b))
            .collect();
        // Wait in reverse order.
        let mut out = Vec::new();
        for r in reqs.into_iter().rev() {
            out.push(r.wait());
        }
        out.reverse();
        out
    });
    for r in &results {
        for (i, v) in r.iter().enumerate() {
            let i = i as u64;
            assert_eq!(*v, vec![2 * i, 2 * i * i]);
        }
    }
}

#[test]
fn mixed_schemes_interleaved_heavily() {
    // Int, float, fixed, logical, verified — shuffled per iteration to
    // stress the epoch discipline.
    let results = Simulator::new(4).run(|comm| {
        let homac = hear::core::Homac::generate(3, Backend::best_available());
        let mut sc = secure(comm, 3).with_homac(homac);
        let mut sink: f64 = 0.0;
        let cfg = EngineCfg::sync();
        for i in 0..25u32 {
            match i % 5 {
                0 => sink += sum_u32(&mut sc, &[i])[0] as f64,
                1 => {
                    let mut s = FloatSumScheme::new(HfpFormat::fp32(2, 2));
                    sink += sc.allreduce_with(&mut s, &[i as f64 + 0.5], cfg).unwrap()[0]
                }
                2 => {
                    let mut s = FixedSumScheme::new(FixedCodec::new(16));
                    sink += sc.allreduce_with(&mut s, &[0.25], cfg).unwrap()[0]
                }
                3 => sink += logical(&mut sc, &[i % 2 == 0])[0].0 as u8 as f64,
                _ => {
                    let mut s = IntSumScheme::default();
                    sink += sc.allreduce_with(&mut s, &[i], cfg.verified()).unwrap()[0] as f64
                }
            }
        }
        sink
    });
    for r in &results[1..] {
        assert!(
            (r - results[0]).abs() < 1e-9,
            "all ranks agree: {r} vs {}",
            results[0]
        );
    }
    assert!(results[0] > 0.0);
}

#[test]
fn single_rank_world_supports_everything() {
    // Degenerate communicator: every path must still work.
    let results = Simulator::new(1).run(|comm| {
        let mut sc = secure(comm, 4);
        let cfg = EngineCfg::sync();
        let a = sc.pmpi_allreduce(TypedSlice::I64(&[-5]), MpiOp::Sum, cfg);
        let b = sc.allreduce_with(&mut IntProdScheme::default(), &[7u32], cfg);
        let mut prod = FloatProdScheme::new(HfpFormat::fp32(0, 0));
        let c = sc.allreduce_with(&mut prod, &[2.5], cfg).unwrap()[0];
        let d = logical(&mut sc, &[true])[0];
        let e = sc.reduce_sum_u32(0, &[9]).unwrap().unwrap()[0];
        let a = match a {
            Ok(TypedVec::I64(v)) => v[0],
            other => panic!("{other:?}"),
        };
        let b = b.unwrap()[0];
        (a, b, c, d, e)
    });
    let (a, b, c, d, e) = results[0];
    assert_eq!(a, -5);
    assert_eq!(b, 7);
    assert!((c - 2.5).abs() < 1e-5);
    assert_eq!(d, (true, true));
    assert_eq!(e, 9);
}

#[test]
fn per_communicator_keys_over_split() {
    // Paper §5 "Key Generation": initialization is per communicator, even
    // if some processes are already initialized in another one. Two
    // disjoint sub-communicators run encrypted reductions concurrently
    // with independent keys, interleaved with the parent's.
    let results = Simulator::new(6).run(|comm| {
        let mut parent_sc = secure(comm, 10);
        let sub = comm.split(comm.rank() as u64 % 2, 0);
        // Per-communicator key generation: seed differs per color.
        let sub_keys = CommKeys::generate(
            sub.world(),
            100 + comm.rank() as u64 % 2,
            Backend::best_available(),
        )
        .into_iter()
        .nth(sub.rank())
        .unwrap();
        let mut sub_sc = SecureComm::new(sub.clone(), sub_keys);

        let a = sum_u32(&mut sub_sc, &[comm.rank() as u32]);
        let b = sum_u32(&mut parent_sc, &[1u32]);
        let c = sum_u32(&mut sub_sc, &[10u32]);
        (a[0], b[0], c[0])
    });
    for (r, (a, b, c)) in results.iter().enumerate() {
        let expect_a = if r % 2 == 0 { 0 + 2 + 4 } else { 1 + 3 + 5 };
        assert_eq!(*a, expect_a);
        assert_eq!(*b, 6);
        assert_eq!(*c, 30);
    }
}

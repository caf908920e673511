//! Integration tests for the §8 / §5.4 extensions: derived operations,
//! non-Allreduce collectives, pairwise-key one-to-one messaging, and the
//! on-wire bit packing — all through the full stack.

use hear::core::{
    derived, Backend, CommKeys, FloatSumScheme, HfpFormat, IntSumScheme, MpiOp, Scheme,
    UnsupportedOp,
};
use hear::hfp::PackedHfp;
use hear::layer::{EngineCfg, SecureComm, SecureP2p, TypedSlice, TypedVec};
use hear::mpi::{Communicator, SimConfig, Simulator};

fn secure(comm: &Communicator, seed: u64) -> SecureComm {
    let keys = CommKeys::generate(comm.world(), seed, Backend::best_available())
        .into_iter()
        .nth(comm.rank())
        .unwrap();
    SecureComm::new(comm.clone(), keys)
}

#[test]
fn min_max_rejected_with_rationale() {
    assert!(matches!(
        SecureComm::check_op(MpiOp::Min),
        Err(UnsupportedOp::MinMax)
    ));
    assert!(SecureComm::check_op(MpiOp::Sum).is_ok());
    assert!(SecureComm::check_op(MpiOp::Lor).is_ok());
}

#[test]
fn logical_reduction_over_switch_tree() {
    let cfg = SimConfig::default().with_switch(4);
    let results = Simulator::with_config(8, cfg).run(|comm| {
        let mut sc = secure(comm, 1);
        // Element k true on ranks < k (so AND false for k < 8, OR true for k > 0).
        let bits: Vec<bool> = (0..10).map(|k| comm.rank() < k).collect();
        let cfg = EngineCfg::sync().with_algo(hear::layer::ReduceAlgo::Switch);
        match sc.pmpi_allreduce(TypedSlice::Bool(&bits), MpiOp::Land, cfg) {
            Ok(TypedVec::Logical(v)) => v,
            other => panic!("{other:?}"),
        }
    });
    for r in &results {
        assert_eq!(r[0], (false, false), "k=0: nobody true");
        for (k, v) in r.iter().enumerate().take(8).skip(1) {
            assert_eq!(*v, (true, false), "k={k}: some true");
        }
        assert_eq!(r[8], (true, true), "k=8: everyone true");
        assert_eq!(r[9], (true, true));
    }
}

#[test]
fn logical_growth_matches_formula() {
    // 8 ranks need 4 bits of indicator headroom.
    assert_eq!(derived::logical_growth_bits(8), 4);
}

#[test]
fn distributed_variance_matches_sequential() {
    let results = Simulator::new(4).run(|comm| {
        let mut sc = secure(comm, 2);
        let samples: Vec<f64> = (0..50)
            .map(|i| ((comm.rank() * 50 + i) as f64 * 0.11).sin())
            .collect();
        sc.allreduce_variance(&samples).unwrap()
    });
    // Sequential reference.
    let all: Vec<f64> = (0..200).map(|i| (i as f64 * 0.11).sin()).collect();
    let mean: f64 = all.iter().sum::<f64>() / 200.0;
    let var: f64 = all.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / 200.0;
    for (m, v, n) in &results {
        assert_eq!(*n, 200);
        assert!((m - mean).abs() < 1e-4, "mean {m} vs {mean}");
        assert!((v - var).abs() < 1e-3, "var {v} vs {var}");
    }
}

#[test]
fn complex_sum_accumulates_rotations() {
    // Sum of unit vectors at angles 2πr/P — the classic phase-accumulation
    // kernel; total should be ~0 for a full circle.
    let world = 8;
    let results = Simulator::new(world).run(move |comm| {
        let mut sc = secure(comm, 3);
        let theta = comm.rank() as f64 * std::f64::consts::TAU / world as f64;
        sc.allreduce_complex_sum(HfpFormat::fp32(2, 2), &[(theta.cos(), theta.sin())])
            .unwrap()
    });
    for r in &results {
        assert!(r[0].0.abs() < 1e-3 && r[0].1.abs() < 1e-3, "{:?}", r[0]);
    }
}

#[test]
fn secure_collectives_compose_in_one_program() {
    // A realistic control-flow mix: broadcast config, reduce partials to a
    // coordinator, gather diagnostics — all encrypted, interleaved with
    // allreduce, on one communicator.
    let results = Simulator::new(3).run(|comm| {
        let mut sc = secure(comm, 4);
        let config = sc
            .bcast_encrypted(
                0,
                if comm.rank() == 0 {
                    vec![7, 13]
                } else {
                    vec![]
                },
            )
            .unwrap();
        let partial = sc
            .reduce_sum_u32(2, &[config[0] * (comm.rank() as u32 + 1)])
            .unwrap();
        let all = sc
            .allreduce_with(
                &mut IntSumScheme::default(),
                &[config[1]],
                EngineCfg::sync(),
            )
            .unwrap();
        let diag = sc.gather_encrypted(0, vec![comm.rank() as u32]).unwrap();
        (config, partial, all, diag)
    });
    for (rank, (config, partial, all, diag)) in results.iter().enumerate() {
        assert_eq!(*config, vec![7, 13]);
        if rank == 2 {
            assert_eq!(partial.as_ref().unwrap(), &vec![7 * (1 + 2 + 3)]);
        } else {
            assert!(partial.is_none());
        }
        assert_eq!(*all, vec![39]);
        if rank == 0 {
            assert_eq!(*diag, vec![vec![0], vec![1], vec![2]]);
        }
    }
}

#[test]
fn p2p_matrix_full_mesh() {
    // Every pair exchanges encrypted messages; all arrive intact and no
    // wire carries plaintext.
    let world = 4;
    let results = Simulator::new(world).run(move |comm| {
        let mut p2p = SecureP2p::new(comm.clone(), 0x4D45_5348, Backend::best_available());
        let me = comm.rank();
        for dst in 0..world {
            if dst != me {
                p2p.send(dst, 9, &[(me * 100 + dst) as u32]);
            }
        }
        let mut got = Vec::new();
        for src in 0..world {
            if src != me {
                got.push(p2p.recv(src, 9)[0]);
            }
        }
        got
    });
    for (me, got) in results.iter().enumerate() {
        let expect: Vec<u32> = (0..world)
            .filter(|s| *s != me)
            .map(|s| (s * 100 + me) as u32)
            .collect();
        assert_eq!(*got, expect);
    }
}

#[test]
fn packed_wire_roundtrip_through_network() {
    // Encrypt, bit-pack, ship the packed words through the runtime,
    // unpack, reduce, decrypt — the full hardware-path simulation.
    let results = Simulator::new(2).run(|comm| {
        let keys = CommKeys::generate(2, 5, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let fmt = HfpFormat::fp32(2, 2);
        let mut scheme = FloatSumScheme::new(fmt);
        let mut ct = Vec::new();
        let vals = vec![1.5 + comm.rank() as f64, -2.25];
        scheme.mask_slice(&keys, 0, &vals, &mut ct).unwrap();
        let packed = PackedHfp::pack(&ct);
        // Ship raw words to the peer; rebuild the peer's pack on arrival.
        let peer = 1 - comm.rank();
        comm.send(peer, 1, packed.words().to_vec());
        let incoming = comm.recv::<u64>(peer, 1);
        let their_ct = PackedHfp::from_words(10, 23, 2, incoming).unpack();
        // Network op: add ciphertexts element-wise.
        let agg: Vec<_> = ct
            .iter()
            .zip(&their_ct)
            .map(|(a, b)| FloatSumScheme::op(a, b))
            .collect();
        let mut out = Vec::new();
        scheme.unmask_slice(&keys, 0, &agg, &mut out);
        out
    });
    for r in &results {
        assert!((r[0] - 4.0).abs() < 1e-4, "1.5 + 2.5 = {r:?}");
        assert!((r[1] + 4.5).abs() < 1e-4);
    }
}

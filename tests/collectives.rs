//! The factored collective set, end to end: reduce-scatter ∘ allgather
//! *is* the ring allreduce (bit for bit), and the three engine-routed
//! collectives — reduce-scatter, allgather, alltoall — run verified and
//! unverified over both the in-memory fabric and real TCP sockets.

use hear::core::{
    Backend, CommKeys, FixedCodec, FixedSumScheme, FloatProdScheme, FloatSumExpScheme,
    FloatSumScheme, HfpFormat, Homac, IntProdScheme, IntSumScheme, IntXorScheme, Scheme,
};
use hear::layer::{EngineCfg, EngineError, ReduceAlgo, RetryPolicy, SecureComm};
use hear::mpi::{Communicator, FaultPlan, SimConfig, Simulator, TransportKind};
use std::sync::Arc;

fn secure(comm: &Communicator, seed: u64) -> SecureComm {
    let keys = CommKeys::generate(comm.world(), seed, Backend::best_available())
        .into_iter()
        .nth(comm.rank())
        .unwrap();
    let homac = Homac::generate(seed ^ 0x5a5a, Backend::best_available());
    SecureComm::new(comm.clone(), keys).with_homac(homac)
}

// ---- the composition law (satellite: RS ∘ AG ≡ fused ring) --------------

/// Run the fused ring allreduce on one communicator and the explicit
/// reduce-scatter → allgather composition on a second communicator with
/// *identical* keys, and require the two outputs to be bit-identical.
/// `bits` canonicalizes an element for exact comparison (`to_bits` for
/// floats, identity widening for integers).
fn assert_composition_law<S, MS, B>(
    world: usize,
    seed: u64,
    mk_scheme: MS,
    inputs: Vec<Vec<S::Input>>,
    verified: bool,
    bits: B,
) where
    S: Scheme + 'static,
    S::Input: std::fmt::Debug + Sync,
    MS: Fn() -> S + Send + Sync,
    B: Fn(&S::Input) -> u64,
{
    let inputs = &inputs;
    let mk_scheme = &mk_scheme;
    let results = Simulator::new(world).run(move |comm| {
        // Same seed ⇒ same key schedule on both communicators: the fused
        // call advances to epoch 1; the composition spends epoch 1 on the
        // reduce-scatter (identical ciphertexts to the fused reduce
        // phase) and epoch 2 on the lossless allgather.
        let mut fused_comm = secure(comm, seed);
        let mut phased_comm = secure(comm, seed);
        let data = inputs[comm.rank()].clone();
        let cfg = if verified {
            EngineCfg::sync().verified().with_algo(ReduceAlgo::Ring)
        } else {
            EngineCfg::sync().with_algo(ReduceAlgo::Ring)
        };
        let fused = fused_comm
            .allreduce_with(&mut mk_scheme(), &data, cfg)
            .expect("fused ring allreduce");
        let shard = phased_comm
            .reduce_scatter_with(&mut mk_scheme(), &data, cfg)
            .expect("reduce-scatter phase");
        let full = phased_comm
            .allgather_with(&mut mk_scheme(), &shard, cfg)
            .expect("allgather phase");
        (fused, shard, full)
    });
    for (rank, (fused, shard, full)) in results.iter().enumerate() {
        assert_eq!(
            fused.len(),
            full.len(),
            "rank {rank}: composition changed the length"
        );
        for (j, (f, c)) in fused.iter().zip(full).enumerate() {
            assert_eq!(
                bits(f),
                bits(c),
                "rank {rank} elem {j}: fused {f:?} != composed {c:?} (world={world}, \
                 verified={verified})"
            );
        }
        // The shard itself must be the rank's exact slice of the fused
        // result — offset composability, not just end-to-end agreement.
        let lo: usize = (0..rank).map(|r| results[r].1.len()).sum();
        for (j, (s, f)) in shard.iter().zip(&fused[lo..lo + shard.len()]).enumerate() {
            assert_eq!(
                bits(s),
                bits(f),
                "rank {rank} shard elem {j} disagrees with fused slice"
            );
        }
    }
}

#[test]
fn ring_allreduce_is_reduce_scatter_then_allgather_int() {
    for (world, len) in [(4, 23), (4, 3), (3, 10), (2, 1), (1, 7)] {
        let inputs: Vec<Vec<u32>> = (0..world)
            .map(|r| {
                (0..len)
                    .map(|j| (j as u32).wrapping_mul(0x9E37_79B9).wrapping_add(r as u32))
                    .collect()
            })
            .collect();
        for verified in [false, true] {
            assert_composition_law(
                world,
                0xC0DE + len as u64,
                IntSumScheme::<u32>::default,
                inputs.clone(),
                verified,
                |x: &u32| u64::from(*x),
            );
        }
    }
}

#[test]
fn ring_allreduce_is_reduce_scatter_then_allgather_xor() {
    let world = 4;
    let inputs: Vec<Vec<u64>> = (0..world)
        .map(|r| {
            (0..29)
                .map(|j| (j as u64).wrapping_mul(0xDEAD_BEEF_1234_5677) ^ (r as u64) << 47)
                .collect()
        })
        .collect();
    assert_composition_law(
        world,
        0xB17,
        IntXorScheme::<u64>::default,
        inputs,
        true,
        |x: &u64| *x,
    );
}

#[test]
fn ring_allreduce_is_reduce_scatter_then_allgather_floats() {
    // Bit-for-bit even for the lossy float schemes: the composition's
    // reduce phase produces the same bits as the fused reduce phase at
    // the same epoch, and the allgather transports exact bit patterns.
    let world = 4;
    let sums: Vec<Vec<f64>> = (0..world)
        .map(|r| {
            (0..21)
                .map(|j| ((r * 21 + j) as f64 * 0.17).cos() * 3.0 + 4.0)
                .collect()
        })
        .collect();
    for verified in [false, true] {
        assert_composition_law(
            world,
            0xF10,
            || FloatSumScheme::new(HfpFormat::fp32(2, 2)),
            sums.clone(),
            verified,
            |x: &f64| x.to_bits(),
        );
    }
    let prods: Vec<Vec<f64>> = (0..world)
        .map(|r| {
            (0..9)
                .map(|j| 0.6 + ((r * 9 + j) as f64 * 0.41).cos().abs())
                .collect()
        })
        .collect();
    assert_composition_law(
        world,
        0xF11,
        || FloatProdScheme::new(HfpFormat::fp64(0, 0)),
        prods,
        false,
        |x: &f64| x.to_bits(),
    );
}

mod random_compositions {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// Random (world, length, seed, verified): the composition law
        /// must hold at every shape, including len < world, len = 0, and
        /// every non-divisible remainder.
        #[test]
        fn composition_law_holds_for_random_shapes(
            world in 1usize..5,
            len in 0usize..40,
            seed in any::<u64>(),
            verified in any::<bool>(),
        ) {
            let inputs: Vec<Vec<u32>> = (0..world)
                .map(|r| {
                    (0..len)
                        .map(|j| (j as u32).wrapping_mul(seed as u32 | 1).wrapping_add(r as u32))
                        .collect()
                })
                .collect();
            assert_composition_law(
                world,
                seed,
                IntSumScheme::<u32>::default,
                inputs,
                verified,
                |x: &u32| u64::from(*x),
            );
        }
    }
}

// ---- chunked phases still agree with the plaintext reference -------------

#[test]
fn chunked_phases_match_references() {
    const WORLD: usize = 4;
    const LEN: usize = 37; // not divisible by world or by the block sizes
    let results = Simulator::new(WORLD).run(|comm| {
        let mut sc = secure(comm, 0xCAFE);
        let r = comm.rank();
        let data: Vec<u32> = (0..LEN as u32).map(|j| j * 100 + r as u32).collect();
        let mut out = Vec::new();
        for cfg in [
            EngineCfg::blocked(5),
            EngineCfg::pipelined(5),
            EngineCfg::blocked(5).verified(),
            EngineCfg::pipelined(5).verified(),
        ] {
            let mut s = IntSumScheme::<u32>::default();
            // Blocked/pipelined reduce-scatter appends one share per
            // block; re-derive the expected layout from the block split.
            let shares = sc.reduce_scatter_with(&mut s, &data, cfg).unwrap();
            let mut expect = Vec::new();
            let mut offset = 0;
            while offset < LEN {
                let end = (offset + 5).min(LEN);
                let bounds = hear::mpi::ring_chunk_bounds(end - offset, WORLD);
                let (lo, hi) = bounds[r];
                for j in offset + lo..offset + hi {
                    expect.push((0..WORLD as u32).map(|rr| j as u32 * 100 + rr).sum::<u32>());
                }
                offset = end;
            }
            assert_eq!(shares, expect, "reduce-scatter {cfg:?}");

            // Allgather layout is rank-contiguous in every chunk mode.
            let mine: Vec<u32> = (0..(r as u32 + 3)).map(|j| r as u32 * 1000 + j).collect();
            let gathered = sc.allgather_with(&mut s, &mine, cfg).unwrap();
            let expect: Vec<u32> = (0..WORLD as u32)
                .flat_map(|rr| (0..(rr + 3)).map(move |j| rr * 1000 + j))
                .collect();
            assert_eq!(gathered, expect, "allgather {cfg:?}");

            // Alltoall transposes chunk (me→dst) into slot src on dst.
            let chunks: Vec<u32> = (0..WORLD as u32)
                .flat_map(|dst| (0..7).map(move |j| r as u32 * 10_000 + dst * 100 + j))
                .collect();
            let transposed = sc.alltoall_with(&mut s, &chunks, cfg).unwrap();
            let expect: Vec<u32> = (0..WORLD as u32)
                .flat_map(|src| (0..7).map(move |j| src * 10_000 + r as u32 * 100 + j))
                .collect();
            assert_eq!(transposed, expect, "alltoall {cfg:?}");
            out.push(transposed.len());
        }
        out
    });
    assert!(results.iter().all(|lens| lens.iter().all(|l| *l == 28)));
}

// ---- the same stack over real sockets ------------------------------------

fn tcp_sim(world: usize) -> Simulator {
    Simulator::with_config(
        world,
        SimConfig::default().with_transport(TransportKind::Tcp),
    )
}

/// All three engine collectives, verified and unverified, over TCP: pins
/// that the `Vec<u64>` cell payloads, the `Vec<Tagged<u64>>` verified
/// cells, and the reduce-scatter packet payloads all have registered
/// socket codecs.
#[test]
fn tcp_mesh_runs_the_factored_collective_set() {
    const WORLD: usize = 3;
    let results = tcp_sim(WORLD).run(|comm| {
        assert_eq!(comm.transport_name(), "tcp");
        let mut sc = secure(comm, 0x7C9);
        let r = comm.rank();
        let mut s = IntSumScheme::<u32>::default();
        let mut out = Vec::new();
        for (cfg, block) in [
            (EngineCfg::sync(), 10),
            (EngineCfg::sync().verified(), 10),
            (EngineCfg::blocked(4).verified(), 4),
        ] {
            let data: Vec<u32> = (0..10u32).map(|j| j + r as u32).collect();
            let shard = sc.reduce_scatter_with(&mut s, &data, cfg).unwrap();
            let gathered = sc.allgather_with(&mut s, &shard, cfg).unwrap();
            // Blocked reduce-scatter appends one share per block, so the
            // gathered (rank-contiguous) layout walks ranks then blocks.
            let sum_at = |j: u32| (0..WORLD as u32).map(|rr| j + rr).sum::<u32>();
            let mut expect = Vec::new();
            for rr in 0..WORLD {
                let mut offset = 0usize;
                while offset < 10 {
                    let end = (offset + block).min(10);
                    let (lo, hi) = hear::mpi::ring_chunk_bounds(end - offset, WORLD)[rr];
                    expect.extend((offset + lo..offset + hi).map(|j| sum_at(j as u32)));
                    offset = end;
                }
            }
            assert_eq!(gathered, expect, "RS∘AG over tcp {cfg:?}");

            let chunks: Vec<u32> = (0..WORLD as u32)
                .flat_map(|dst| (0..2).map(move |j| r as u32 * 100 + dst * 10 + j))
                .collect();
            let transposed = sc.alltoall_with(&mut s, &chunks, cfg).unwrap();
            let expect: Vec<u32> = (0..WORLD as u32)
                .flat_map(|src| (0..2).map(move |j| src * 100 + r as u32 * 10 + j))
                .collect();
            assert_eq!(transposed, expect, "alltoall over tcp {cfg:?}");
            out.push(gathered.len());
        }
        out
    });
    assert!(results.iter().all(|lens| lens.iter().all(|l| *l == 10)));
}

/// Float cells over TCP are bit-exact: `f64::to_bits` in, the same bits
/// out, NaN payloads and negative zero included.
#[test]
fn tcp_allgather_float_cells_are_bit_exact() {
    const WORLD: usize = 2;
    let results = tcp_sim(WORLD).run(|comm| {
        let mut sc = secure(comm, 0x7CA);
        let specials = [
            -0.0f64,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7FF8_0000_0000_1234), // NaN with payload
            1.5e-300,
            comm.rank() as f64,
        ];
        let mut s = FloatSumScheme::new(HfpFormat::fp64(2, 2));
        sc.allgather_with(&mut s, &specials, EngineCfg::sync().verified())
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<u64>>()
    });
    for got in &results {
        let expect: Vec<u64> = (0..WORLD)
            .flat_map(|r| {
                [
                    (-0.0f64).to_bits(),
                    f64::INFINITY.to_bits(),
                    f64::NEG_INFINITY.to_bits(),
                    0x7FF8_0000_0000_1234,
                    1.5e-300f64.to_bits(),
                    (r as f64).to_bits(),
                ]
            })
            .collect();
        assert_eq!(*got, expect);
    }
}

// ---- the allgather's own piece -------------------------------------------

/// The allgather copies a rank's own piece from its input instead of
/// opening the cells it sealed: every scheme's gathered vector — the own
/// piece included — is the inputs bit for bit, blocking (`sync`) and
/// posted (`pipelined`), bare and verified, with uneven counts.
fn assert_gathered_bit_for_bit<S, MS, B>(mk_scheme: MS, inputs: &[Vec<S::Input>], bits: B)
where
    S: Scheme + 'static,
    S::Input: Sync,
    MS: Fn() -> S + Sync,
    B: Fn(&S::Input) -> u64 + Sync,
{
    let want: Vec<u64> = inputs.iter().flatten().map(&bits).collect();
    for cfg in [EngineCfg::sync(), EngineCfg::pipelined(3)] {
        for cfg in [cfg, cfg.verified()] {
            let results = Simulator::new(inputs.len()).run(|comm| {
                let mut sc = secure(comm, 0x0E11);
                let out = sc.allgather_with(&mut mk_scheme(), &inputs[comm.rank()], cfg);
                out.expect("allgather")
                    .iter()
                    .map(&bits)
                    .collect::<Vec<u64>>()
            });
            for (rank, got) in results.iter().enumerate() {
                assert_eq!(*got, want, "{} {cfg:?} rank {rank}", S::NAME);
            }
        }
    }
}

#[test]
fn allgather_own_piece_is_the_input_bit_for_bit() {
    const WORLD: usize = 3;
    let specials = [
        -0.0f64,
        f64::from_bits(0x7FF8_0000_0000_1234), // NaN with payload
        f64::from_bits(0xFFF0_0000_0000_0001), // signalling NaN, sign set
        f64::INFINITY,
        5e-324,
        -1.5e300,
        0.25,
    ];
    let floats: Vec<Vec<f64>> = (0..WORLD)
        .map(|r| {
            (0..8 + r)
                .map(|i| specials[(i + r) % specials.len()] * if i > 6 { -1.0 } else { 1.0 })
                .collect()
        })
        .collect();
    let ints = |mul: u64| -> Vec<Vec<u64>> {
        (0..WORLD)
            .map(|r| {
                (0..8 + r as u64)
                    .map(|i| (i + 1).wrapping_mul(mul) ^ (r as u64) << 60)
                    .collect()
            })
            .collect()
    };
    let fmt = HfpFormat::fp64(2, 2);
    let f = |x: &f64| x.to_bits();
    assert_gathered_bit_for_bit(|| FloatSumScheme::new(fmt), &floats, f);
    let exact = HfpFormat::fp64(0, 0);
    assert_gathered_bit_for_bit(|| FloatProdScheme::new(exact), &floats, f);
    assert_gathered_bit_for_bit(|| FloatSumExpScheme::new(exact), &floats, f);
    assert_gathered_bit_for_bit(|| FixedSumScheme::new(FixedCodec::new(16)), &floats, f);
    let narrow = |v: Vec<Vec<u64>>| -> Vec<Vec<u32>> {
        v.into_iter()
            .map(|r| r.into_iter().map(|x| x as u32 | 1).collect())
            .collect()
    };
    let w = |x: &u32| u64::from(*x);
    assert_gathered_bit_for_bit(IntSumScheme::<u32>::default, &narrow(ints(0x9E37_79B9)), w);
    assert_gathered_bit_for_bit(IntProdScheme::<u32>::default, &narrow(ints(0x85EB_CA6B)), w);
    assert_gathered_bit_for_bit(IntXorScheme::<u32>::default, &narrow(ints(0xC2B2_AE35)), w);
    assert_gathered_bit_for_bit(
        IntSumScheme::<u64>::default,
        &ints(0x9E37_79B9_7F4A_7C15),
        |x| *x,
    );
}

/// Not opening the own piece must not stop a piece tampered on the wire
/// from failing the attempt: every cell message is damaged, every rank
/// receives one, and each call fails typed with `out` left empty.
#[test]
fn a_piece_tampered_on_the_wire_still_fails_the_allgather() {
    // The counts travel bare; damage only the cell pieces.
    let spare_the_counts = |payload: &mut dyn std::any::Any, _: u64| payload.is::<Vec<u64>>();
    for cfg in [EngineCfg::sync(), EngineCfg::pipelined(3)] {
        let plan = FaultPlan::seeded(0x7A3)
            .corrupt_one_in(1)
            .with_corruptor(Arc::new(spare_the_counts));
        let results =
            Simulator::with_config(2, SimConfig::default().with_faults(plan)).run(|comm| {
                let mut sc = secure(comm, 0x7A3);
                let mine: Vec<u32> = (0..7).map(|i| i * 3 + comm.rank() as u32).collect();
                let mut out = Vec::new();
                let cfg = cfg.verified().with_retry(RetryPolicy::retries(0));
                let res = sc.allgather_with_into(
                    &mut IntSumScheme::<u32>::default(),
                    &mine,
                    &mut out,
                    cfg,
                );
                (res, out)
            });
        for (rank, (res, out)) in results.iter().enumerate() {
            assert!(
                matches!(res, Err(EngineError::Verification(_))),
                "{cfg:?} rank {rank}: a tampered piece was accepted: {res:?}"
            );
            assert!(
                out.is_empty(),
                "{cfg:?} rank {rank}: `out` holds {} elements",
                out.len()
            );
        }
    }
}

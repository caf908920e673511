//! The composition matrix test: every cipher scheme × transport algorithm
//! × chunking mode × HoMAC verification, one generic engine call each,
//! checked against the plaintext reference with the per-scheme tolerance
//! implied by Table 2's lossiness column. Before the engine refactor most
//! of these cells were unwritable (e.g. a verified pipelined float sum on
//! the switch tree); now every one is
//! `SecureComm::allreduce_with(scheme, data, cfg)`.

use hear::core::properties::{composition_matrix_markdown, table2_markdown, Lossiness, TABLE2};
use hear::core::{
    Backend, CommKeys, FixedCodec, FixedSumScheme, FloatProdScheme, FloatSumExpScheme,
    FloatSumScheme, HfpFormat, Homac, IntProdScheme, IntSumScheme, IntXorScheme, Scheme,
};
use hear::layer::chaos::{with_packet_hooks, with_wire_recorder};
use hear::layer::{EngineCfg, EngineError, ReduceAlgo, RetryPolicy, SecureComm};
use hear::mpi::{FaultPlan, SimConfig, Simulator, TransportKind};
use std::time::Duration;

const WORLD: usize = 4;
const SEED: u64 = 0xA117;

/// Every (algorithm, pipelined?, verified?) cell the engine must serve.
fn cells() -> Vec<(ReduceAlgo, bool, bool)> {
    let mut v = Vec::new();
    for algo in [
        ReduceAlgo::RecursiveDoubling,
        ReduceAlgo::Ring,
        ReduceAlgo::Switch,
        // Group size 2 at world 4: two leaders, so every stage (intra
        // reduce, inter-leader ring, broadcast) actually runs.
        ReduceAlgo::Hierarchical { group: 2 },
    ] {
        for pipelined in [false, true] {
            for verified in [false, true] {
                v.push((algo, pipelined, verified));
            }
        }
    }
    v
}

fn cfg_for(algo: ReduceAlgo, pipelined: bool, verified: bool) -> EngineCfg {
    let base = if pipelined {
        // A block size that does not divide the test length, so chunk
        // boundaries and the tail block are both exercised.
        EngineCfg::pipelined(5)
    } else {
        EngineCfg::sync()
    };
    let base = base.with_algo(algo);
    if verified {
        base.verified()
    } else {
        base
    }
}

/// Run one scheme through all 16 cells at world = 4 on a switch-enabled
/// simulator and compare every rank's every cell against `expected`.
///
/// `hier_bitwise` pins Hierarchical against the flat ring **bit for bit**;
/// set it for every scheme whose wire op is an exact ring operation
/// (wrapping add/mul, xor — reassociation is invisible). The HFP float
/// schemes round during exponent alignment, so their combine is only
/// approximately associative: for those the pin is the scheme's `close`
/// tolerance instead.
fn sweep<S, MS, CL>(
    mk_scheme: MS,
    inputs: Vec<Vec<S::Input>>,
    expected: Vec<S::Input>,
    close: CL,
    hier_bitwise: bool,
) where
    S: Scheme + 'static,
    S::Input: PartialEq + std::fmt::Debug + Sync,
    MS: Fn() -> S + Send + Sync,
    CL: Fn(&S::Input, &S::Input) -> bool,
{
    let inputs = &inputs;
    let mk_scheme = &mk_scheme;
    let results = Simulator::with_config(WORLD, SimConfig::default().with_switch(4)).run(|comm| {
        let keys = CommKeys::generate(WORLD, SEED, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let homac = Homac::generate(SEED ^ 0x5a5a, Backend::best_available());
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let data = inputs[comm.rank()].clone();
        let mut out = Vec::new();
        for (algo, pipelined, verified) in cells() {
            let mut s = mk_scheme();
            let got = sc
                .allreduce_with(&mut s, &data, cfg_for(algo, pipelined, verified))
                .unwrap_or_else(|e| {
                    panic!(
                        "{} failed on ({algo:?}, pipelined={pipelined}, verified={verified}): {e}",
                        S::NAME
                    )
                });
            out.push((algo, pipelined, verified, got));
        }
        out
    });
    for (rank, cells) in results.iter().enumerate() {
        for (algo, pipelined, verified, got) in cells {
            assert_eq!(
                got.len(),
                expected.len(),
                "{} rank={rank} ({algo:?}, pipelined={pipelined}, verified={verified})",
                S::NAME
            );
            for (j, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert!(
                    close(g, e),
                    "{} rank={rank} ({algo:?}, pipelined={pipelined}, verified={verified}) \
                     elem {j}: got {g:?}, expected {e:?}",
                    S::NAME
                );
            }
        }
        // The hierarchical pin: regrouping the reduction (intra-group →
        // inter-leader ring → broadcast) must match the flat Ring cell of
        // the same (chunking, verification) — bit for bit when the wire op
        // is an exact ring operation, within the scheme tolerance when the
        // HFP combine rounds (see `sweep` docs).
        for pipelined in [false, true] {
            for verified in [false, true] {
                let pick = |want_hier: bool| {
                    cells
                        .iter()
                        .find(|(a, p, v, _)| {
                            *p == pipelined
                                && *v == verified
                                && matches!(a, ReduceAlgo::Hierarchical { .. }) == want_hier
                                && (want_hier || *a == ReduceAlgo::Ring)
                        })
                        .map(|(_, _, _, got)| got)
                        .unwrap()
                };
                let (hier, ring) = (pick(true), pick(false));
                if hier_bitwise {
                    assert_eq!(
                        hier,
                        ring,
                        "{} rank={rank} (pipelined={pipelined}, verified={verified}): \
                         Hierarchical diverged bitwise from the flat ring",
                        S::NAME
                    );
                } else {
                    for (j, (h, r)) in hier.iter().zip(ring).enumerate() {
                        assert!(
                            close(h, r),
                            "{} rank={rank} (pipelined={pipelined}, verified={verified}) \
                             elem {j}: Hierarchical {h:?} vs ring {r:?} outside tolerance",
                            S::NAME
                        );
                    }
                }
            }
        }
    }
}

fn rel_close(tol: f64) -> impl Fn(&f64, &f64) -> bool {
    move |g, e| {
        let scale = e.abs().max(1.0);
        (g - e).abs() / scale < tol
    }
}

/// Table-2-derived tolerance for a scheme's lossiness class.
fn tol_for(row: usize) -> f64 {
    match TABLE2[row].lossiness {
        Lossiness::Lossless => 0.0,
        Lossiness::Minor => 1e-4,
        Lossiness::Medium => 1e-3,
    }
}

#[test]
fn int_sum_full_matrix() {
    let inputs: Vec<Vec<u32>> = (0..WORLD)
        .map(|r| {
            (0..23)
                .map(|j| (j as u32).wrapping_mul(0x9E37_79B9).wrapping_add(r as u32))
                .collect()
        })
        .collect();
    let expected: Vec<u32> = (0..23)
        .map(|j| {
            inputs
                .iter()
                .fold(0u32, |acc, rank| acc.wrapping_add(rank[j]))
        })
        .collect();
    assert_eq!(tol_for(IntSumScheme::<u32>::TABLE2_ROW), 0.0);
    sweep(
        IntSumScheme::<u32>::default,
        inputs,
        expected,
        |g: &u32, e: &u32| g == e,
        true,
    );
}

#[test]
fn int_prod_full_matrix() {
    let inputs: Vec<Vec<u64>> = (0..WORLD)
        .map(|r| (0..17).map(|j| 1 + ((j + r as u64) % 9)).collect())
        .collect();
    let expected: Vec<u64> = (0..17)
        .map(|j| {
            inputs
                .iter()
                .fold(1u64, |acc, rank| acc.wrapping_mul(rank[j as usize]))
        })
        .collect();
    assert_eq!(tol_for(IntProdScheme::<u64>::TABLE2_ROW), 0.0);
    sweep(
        IntProdScheme::<u64>::default,
        inputs,
        expected,
        |g: &u64, e: &u64| g == e,
        true,
    );
}

#[test]
fn int_xor_full_matrix() {
    // XOR digests are sound only up to 15 ranks; world = 4 is inside.
    let inputs: Vec<Vec<u32>> = (0..WORLD)
        .map(|r| {
            (0..19)
                .map(|j| (j as u32).wrapping_mul(0xDEAD_BEEF) ^ (r as u32) << 13)
                .collect()
        })
        .collect();
    let expected: Vec<u32> = (0..19)
        .map(|j| inputs.iter().fold(0u32, |acc, rank| acc ^ rank[j]))
        .collect();
    sweep(
        IntXorScheme::<u32>::default,
        inputs,
        expected,
        |g: &u32, e: &u32| g == e,
        true,
    );
}

#[test]
fn fixed_sum_full_matrix() {
    let inputs: Vec<Vec<f64>> = (0..WORLD)
        .map(|r| {
            (0..13)
                .map(|j| ((r * 13 + j) as f64 * 0.37).sin() * 4.0)
                .collect()
        })
        .collect();
    let expected: Vec<f64> = (0..13)
        .map(|j| inputs.iter().map(|rank| rank[j]).sum())
        .collect();
    // Fixed point with 16 fractional bits: quantisation, not HFP loss.
    sweep(
        || FixedSumScheme::new(FixedCodec::new(16)),
        inputs,
        expected,
        rel_close(1e-3),
        // Fixed-point wires reduce with exact wrapping u64 addition.
        true,
    );
}

#[test]
fn float_sum_v1_full_matrix() {
    let inputs: Vec<Vec<f64>> = (0..WORLD)
        .map(|r| {
            (0..21)
                .map(|j| ((r * 21 + j) as f64 * 0.17).cos() * 3.0 + 4.0)
                .collect()
        })
        .collect();
    let expected: Vec<f64> = (0..21)
        .map(|j| inputs.iter().map(|rank| rank[j]).sum())
        .collect();
    let tol = tol_for(FloatSumScheme::TABLE2_ROW);
    assert!(tol > 0.0);
    sweep(
        // γ=2 is required for the cancelling noise layout (Eq. 7).
        || FloatSumScheme::new(HfpFormat::fp32(2, 2)),
        inputs,
        expected,
        rel_close(tol),
        false,
    );
}

#[test]
fn float_sum_v2_full_matrix() {
    // v2 trades range for global safety: keep inputs small so the shared
    // exponent never overflows (δ must be 0 for the v2 layout).
    let inputs: Vec<Vec<f64>> = (0..WORLD)
        .map(|r| {
            (0..11)
                .map(|j| ((r * 11 + j) as f64 * 0.29).sin() * 0.4)
                .collect()
        })
        .collect();
    let expected: Vec<f64> = (0..11)
        .map(|j| inputs.iter().map(|rank| rank[j]).sum())
        .collect();
    let tol = tol_for(FloatSumExpScheme::TABLE2_ROW);
    sweep(
        || FloatSumExpScheme::new(HfpFormat::fp64(0, 0)),
        inputs,
        expected,
        rel_close(tol),
        false,
    );
}

#[test]
fn float_prod_full_matrix() {
    // Nonzero inputs clustered around 1 so products of 4 ranks stay in
    // range and the multiplicative digest stays well-conditioned.
    let inputs: Vec<Vec<f64>> = (0..WORLD)
        .map(|r| {
            (0..9)
                .map(|j| 0.6 + ((r * 9 + j) as f64 * 0.41).cos().abs())
                .collect()
        })
        .collect();
    let expected: Vec<f64> = (0..9)
        .map(|j| inputs.iter().map(|rank| rank[j]).product())
        .collect();
    let tol = tol_for(FloatProdScheme::TABLE2_ROW);
    sweep(
        // δ must be 0 for the multiplicative layout (Eq. 6).
        || FloatProdScheme::new(HfpFormat::fp64(0, 0)),
        inputs,
        expected,
        rel_close(tol),
        false,
    );
}

// ---- uniform edge cases (satellite #1) ---------------------------------

// ---- tampering, once per packet lane count --------------------------------

/// Verified ring allreduce at world 2 with one message in four corrupted
/// by `hear-layer`'s packet hooks — which flip, as the fault word picks,
/// a payload ciphertext bit, a bit of one *used* digest lane, or a bit of
/// that lane's tag. Over the seed sweep every channel is hit several times
/// (each run corrupts about one of its four messages per attempt), and
/// every run must end in the exact aggregate (a clean attempt, or a
/// healed retry) or in a typed verification/transport error — never in a
/// wrong result.
fn tamper_row<S, MS, CL>(mk: MS, inputs: [Vec<S::Input>; 2], expected: Vec<S::Input>, close: CL)
where
    S: Scheme + 'static,
    S::Input: std::fmt::Debug + Send + Sync,
    MS: Fn() -> S + Send + Sync,
    CL: Fn(&S::Input, &S::Input) -> bool,
{
    const SEEDS: u64 = 16;
    let reg = hear::telemetry::Registry::new_enabled();
    let _g = reg.install(None);
    for seed in 0..SEEDS {
        let plan = with_packet_hooks(FaultPlan::seeded(seed).corrupt_one_in(4));
        let cfg = SimConfig::default().with_faults(plan);
        let results = Simulator::with_config(2, cfg).run(|comm| {
            let keys = CommKeys::generate(2, SEED ^ seed, Backend::best_available())
                .into_iter()
                .nth(comm.rank())
                .unwrap();
            let homac = Homac::generate(SEED ^ 0x7A3, Backend::best_available());
            let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
            // A rank whose peer verified a clean copy and left retries
            // alone until the deadline: keep that wait short.
            let retry = RetryPolicy::retries(2).with_attempt_timeout(Duration::from_millis(150));
            let ecfg = EngineCfg::sync()
                .verified()
                .with_algo(ReduceAlgo::Ring)
                .with_retry(retry);
            sc.allreduce_with(&mut mk(), &inputs[comm.rank()], ecfg)
        });
        for (rank, res) in results.iter().enumerate() {
            match res {
                Ok(got) => {
                    assert_eq!(got.len(), expected.len());
                    for (j, (g, e)) in got.iter().zip(&expected).enumerate() {
                        assert!(
                            close(g, e),
                            "{} seed {seed} rank {rank} elem {j}: {g:?} != {e:?} — tampering \
                             leaked a wrong aggregate past verification",
                            S::NAME
                        );
                    }
                }
                Err(e) => assert!(
                    matches!(e, EngineError::Verification(_) | EngineError::Comm(_)),
                    "{} seed {seed} rank {rank}: wrong error class: {e}",
                    S::NAME
                ),
            }
        }
    }
    // The sweep did tamper, and the verified path did notice.
    assert!(reg.counter(hear::telemetry::Metric::FaultCorrupt) >= SEEDS);
    assert!(reg.counter(hear::telemetry::Metric::HomacVerifyFail) > 0);
    assert!(reg.counter(hear::telemetry::Metric::RetriesTotal) > 0);
}

#[test]
fn tampered_one_lane_packets_never_yield_a_wrong_sum() {
    let inputs = [0u32, 1].map(|r| {
        (0..24u32)
            .map(|j| j.wrapping_mul(0x9E37_79B9) + r)
            .collect::<Vec<u32>>()
    });
    let expected = (0..24)
        .map(|j| inputs[0][j].wrapping_add(inputs[1][j]))
        .collect();
    tamper_row(IntSumScheme::<u32>::default, inputs, expected, |g, e| {
        g == e
    });
}

#[test]
fn tampered_two_lane_packets_never_yield_a_wrong_float_product() {
    // Both signs on both ranks, so the sign-count lane carries weight.
    let inputs = [0usize, 1].map(|r| {
        (0..24)
            .map(|j| (1.25 + 0.125 * j as f64) * [-1.0, 1.0, 1.0][(j + r) % 3])
            .collect::<Vec<f64>>()
    });
    let expected = (0..24).map(|j| inputs[0][j] * inputs[1][j]).collect();
    tamper_row(
        || FloatProdScheme::new(HfpFormat::fp64(0, 0)),
        inputs,
        expected,
        rel_close(tol_for(FloatProdScheme::TABLE2_ROW)),
    );
}

#[test]
fn tampered_three_lane_packets_never_yield_a_wrong_product() {
    let inputs = [0u64, 1].map(|r| (0..24).map(|j| 1 + (j + r) % 9).collect::<Vec<u64>>());
    let expected = (0..24)
        .map(|j| inputs[0][j].wrapping_mul(inputs[1][j]))
        .collect();
    tamper_row(IntProdScheme::<u64>::default, inputs, expected, |g, e| {
        g == e
    });
}

#[test]
fn tampered_four_lane_packets_never_yield_a_wrong_xor() {
    let inputs = [0u64, 1].map(|r| {
        (0..24)
            .map(|j| (j as u64).wrapping_mul(0xDEAD_BEEF_CAFE_F00D) ^ r << 61)
            .collect::<Vec<u64>>()
    });
    let expected = (0..24).map(|j| inputs[0][j] ^ inputs[1][j]).collect();
    tamper_row(IntXorScheme::<u64>::default, inputs, expected, |g, e| {
        g == e
    });
}

#[test]
fn empty_input_is_empty_everywhere() {
    // Zero-length reductions short-circuit inside the engine for every
    // cell — including verified + pipelined, which used to hang or panic
    // depending on the legacy path.
    let results = Simulator::with_config(WORLD, SimConfig::default().with_switch(4)).run(|comm| {
        let keys = CommKeys::generate(WORLD, 77, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let homac = Homac::generate(78, Backend::best_available());
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let mut lens = Vec::new();
        for (algo, pipelined, verified) in cells() {
            let mut s = IntSumScheme::<u32>::default();
            let got = sc
                .allreduce_with(&mut s, &[], cfg_for(algo, pipelined, verified))
                .unwrap();
            lens.push(got.len());
        }
        let mut f = FloatSumScheme::new(HfpFormat::fp32(2, 2));
        lens.push(
            sc.allreduce_with(&mut f, &[], EngineCfg::pipelined(4).verified())
                .unwrap()
                .len(),
        );
        lens
    });
    for lens in &results {
        assert!(lens.iter().all(|l| *l == 0));
    }
}

#[test]
fn world_of_one_runs_every_cell_without_a_fabric() {
    // A single rank has nothing to reduce with: every cell — even Switch
    // (no switch fabric configured here!) and verified + pipelined — must
    // return the input unchanged instead of touching the transport.
    let results = Simulator::new(1).run(|comm| {
        let keys = CommKeys::generate(1, 5, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let homac = Homac::generate(6, Backend::best_available());
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let data: Vec<u32> = (0..7).map(|j| j * 3 + 1).collect();
        let mut outs = Vec::new();
        for (algo, pipelined, verified) in cells() {
            let mut s = IntSumScheme::<u32>::default();
            outs.push(
                sc.allreduce_with(&mut s, &data, cfg_for(algo, pipelined, verified))
                    .unwrap(),
            );
        }
        let mut f = FloatSumScheme::new(HfpFormat::fp32(2, 2));
        let floats = sc
            .allreduce_with(
                &mut f,
                &[1.25, -2.5],
                EngineCfg::pipelined(1)
                    .verified()
                    .with_algo(ReduceAlgo::Switch),
            )
            .unwrap();
        (data, outs, floats)
    });
    let (data, outs, floats) = &results[0];
    for out in outs {
        assert_eq!(out, data);
    }
    assert!((floats[0] - 1.25).abs() < 1e-4);
    assert!((floats[1] + 2.5).abs() < 1e-4);
}

#[test]
fn fewer_elements_than_ranks_on_the_ring() {
    // count < world stresses the ring's empty-segment handling.
    let results = Simulator::new(4).run(|comm| {
        let keys = CommKeys::generate(4, 9, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let mut sc = SecureComm::new(comm.clone(), keys);
        let mut s = IntSumScheme::<u32>::default();
        sc.allreduce_with(
            &mut s,
            &[comm.rank() as u32 + 1, 10],
            EngineCfg::sync().with_algo(ReduceAlgo::Ring),
        )
        .unwrap()
    });
    for r in &results {
        assert_eq!(*r, vec![1 + 2 + 3 + 4, 40]);
    }
}

/// Chunked plain calls unmask each block straight onto the end of `out`
/// as it drains. With a block length that does not divide the vector, on
/// every algorithm, `Blocked(b)` and `Pipelined(b)` must still produce the
/// `Sync` result bit for bit — same elements, same order, same length —
/// into a reused (dirty) output vector. Exact-ring schemes only: an HFP
/// combine's rounding depends on how a block is cut into ring chunks.
fn chunked_rows_equal_sync<S>(mk: impl Fn() -> S + Send + Sync, inputs: Vec<Vec<S::Input>>)
where
    S: Scheme + 'static,
    S::Input: Sync,
{
    let inputs = &inputs;
    let mk = &mk;
    let results = Simulator::with_config(WORLD, SimConfig::default().with_switch(4)).run(|comm| {
        let keys = CommKeys::generate(WORLD, SEED ^ 0xB10C, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let mut sc = SecureComm::new(comm.clone(), keys);
        let data = &inputs[comm.rank()];
        let mut out = data.clone();
        let mut rows = Vec::new();
        for algo in [
            ReduceAlgo::RecursiveDoubling,
            ReduceAlgo::Ring,
            ReduceAlgo::Switch,
            ReduceAlgo::Hierarchical { group: 2 },
        ] {
            let mut row = Vec::new();
            for chunk in [
                EngineCfg::sync(),
                EngineCfg::blocked(5),
                EngineCfg::pipelined(5),
                EngineCfg::blocked(7),
                EngineCfg::pipelined(7),
            ] {
                sc.allreduce_with_into(&mut mk(), data, &mut out, chunk.with_algo(algo))
                    .unwrap();
                row.push(out.iter().map(S::cell_encode).collect::<Vec<u64>>());
            }
            rows.push((algo, row));
        }
        rows
    });
    for (rank, rows) in results.iter().enumerate() {
        for (algo, row) in rows {
            assert_eq!(row[0].len(), inputs[0].len(), "{} {algo:?}", S::NAME);
            for (c, chunked) in row.iter().enumerate().skip(1) {
                assert_eq!(
                    chunked,
                    &row[0],
                    "{} rank={rank} {algo:?} chunk mode #{c} diverged from Sync",
                    S::NAME
                );
            }
        }
    }
}

#[test]
fn chunked_plain_rows_equal_sync_bit_for_bit() {
    let ints = |r: usize, j: u64| (j + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ r as u64;
    let per_rank = |f: &dyn Fn(usize, u64) -> u64| -> Vec<Vec<u64>> {
        (0..WORLD)
            .map(|r| (0..23).map(|j| f(r, j)).collect())
            .collect()
    };
    let narrow = |v: Vec<Vec<u64>>| -> Vec<Vec<u32>> {
        v.into_iter()
            .map(|row| row.into_iter().map(|x| x as u32).collect())
            .collect()
    };
    chunked_rows_equal_sync(IntSumScheme::<u32>::default, narrow(per_rank(&ints)));
    chunked_rows_equal_sync(IntProdScheme::<u64>::default, per_rank(&ints));
    chunked_rows_equal_sync(IntXorScheme::<u64>::default, per_rank(&ints));
    let fixed: Vec<Vec<f64>> = (0..WORLD)
        .map(|r| {
            (0..23)
                .map(|j| (j as f64 - 11.0) * 0.375 + r as f64)
                .collect()
        })
        .collect();
    chunked_rows_equal_sync(|| FixedSumScheme::new(FixedCodec::new(20)), fixed);
}

/// The ring runs on owned chunk vectors that the engine masks into and
/// unmasks out of; recursive doubling exchanges the whole vector. For a
/// scheme whose combine is an exact ring operation the two must agree **bit
/// for bit** — every chunk mode, plain and verified, worlds 2–5 (23
/// elements: uneven chunks at every world, blocks of 5 that leave chunks
/// empty at world 5) — into a reused, dirty output vector.
fn ring_equals_recursive_doubling<S>(
    mk: impl Fn() -> S + Send + Sync,
    input: impl Fn(usize, u64) -> S::Input + Send + Sync,
) where
    S: Scheme + 'static,
{
    let (mk, input) = (&mk, &input);
    for world in 2..=5usize {
        let results = Simulator::new(world).run(|comm| {
            let keys = CommKeys::generate(world, SEED ^ 0x21D6, Backend::best_available())
                .into_iter()
                .nth(comm.rank())
                .unwrap();
            let homac = Homac::generate(SEED ^ 0x21D7, Backend::best_available());
            let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
            let data: Vec<S::Input> = (0..23).map(|j| input(comm.rank(), j)).collect();
            let mut out = data.clone();
            let mut rows = Vec::new();
            for verified in [false, true] {
                for chunk in [
                    EngineCfg::sync(),
                    EngineCfg::blocked(5),
                    EngineCfg::pipelined(5),
                ] {
                    let cfg = if verified { chunk.verified() } else { chunk };
                    let mut run = |algo| {
                        sc.allreduce_with_into(&mut mk(), &data, &mut out, cfg.with_algo(algo))
                            .unwrap();
                        out.iter().map(S::cell_encode).collect::<Vec<u64>>()
                    };
                    let ring = run(ReduceAlgo::Ring);
                    rows.push((format!("{cfg:?}"), ring, run(ReduceAlgo::RecursiveDoubling)));
                }
            }
            rows
        });
        for (rank, rows) in results.iter().enumerate() {
            for (cell, ring, rd) in rows {
                assert_eq!(ring.len(), 23, "{} world={world} {cell}", S::NAME);
                assert_eq!(
                    ring,
                    rd,
                    "{} world={world} rank={rank} {cell}: Ring != RecursiveDoubling",
                    S::NAME
                );
            }
        }
    }
}

#[test]
fn ring_equals_recursive_doubling_bit_for_bit() {
    let ints = |r: usize, j: u64| (j + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (r as u64) << 7;
    ring_equals_recursive_doubling(IntSumScheme::<u32>::default, |r, j| ints(r, j) as u32);
    ring_equals_recursive_doubling(IntProdScheme::<u64>::default, ints);
    ring_equals_recursive_doubling(IntXorScheme::<u64>::default, ints);
    ring_equals_recursive_doubling(
        || FixedSumScheme::new(FixedCodec::new(20)),
        |r, j| (j as f64 - 11.0) * 0.375 + r as f64,
    );
}

/// What crosses the fabric in one ring collective at world 3 under fixed
/// keys, as an eavesdropper's fingerprint: (messages, order-independent sum
/// of per-message FNV-1a hashes of the payload's `Debug` rendering). Every
/// reduction payload is shown to the recorder by the fault injector's
/// corruptor chain, untouched.
fn wire_fingerprint<S>(
    mk: impl Fn() -> S + Send + Sync,
    input: impl Fn(usize, u64) -> S::Input + Send + Sync,
    collective: usize,
    cfg: EngineCfg,
) -> (u64, u64)
where
    S: Scheme + 'static,
{
    use std::sync::{Arc, Mutex};
    const WORLD: usize = 3;
    let seen = Arc::new(Mutex::new((0u64, 0u64)));
    let sink = {
        let seen = Arc::clone(&seen);
        Arc::new(move |payload: String| {
            let hash = payload.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
            let mut seen = seen.lock().unwrap();
            *seen = (seen.0 + 1, seen.1.wrapping_add(hash));
        })
    };
    let plan = with_wire_recorder(FaultPlan::seeded(1).corrupt_one_in(1), sink);
    Simulator::with_config(WORLD, SimConfig::default().with_faults(plan)).run(|comm| {
        let keys = CommKeys::generate(WORLD, 0x0057_A71C, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let homac = Homac::generate(0x0057_A71D, Backend::best_available());
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let data: Vec<S::Input> = (0..23).map(|j| input(comm.rank(), j)).collect();
        let cfg = cfg.with_algo(ReduceAlgo::Ring);
        match collective {
            0 => sc.allreduce_with(&mut mk(), &data, cfg).unwrap(),
            1 => sc.reduce_scatter_with(&mut mk(), &data, cfg).unwrap(),
            // Uneven contributions: rank r gathers 23 − 5 r elements.
            _ => sc
                .allgather_with(&mut mk(), &data[5 * comm.rank()..], cfg)
                .unwrap(),
        }
    });
    let seen = seen.lock().unwrap();
    *seen
}

/// The chunk-owned ring moves the same bytes as the contiguous one did:
/// same number of messages, same ciphertext, for a fixed key. The golden
/// fingerprints were recorded by running this very test on the parent of
/// the commit that introduced it (whose ring copied every chunk through a
/// segment buffer and whose engine masked whole blocks); a change that
/// means to alter the wire re-records them and says so.
#[test]
fn the_ring_ships_the_ciphertext_it_always_did() {
    const GOLDEN: [[(u64, u64); 2]; 3] = WIRE_GOLDEN;
    let ints = |r: usize, j: u64| (j + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (r as u64) << 7;
    let mut got = [[(0u64, 0u64); 2]; 3];
    for (collective, row) in got.iter_mut().enumerate() {
        for (verified, cell) in row.iter_mut().enumerate() {
            let chunks = [
                EngineCfg::sync(),
                EngineCfg::blocked(5),
                EngineCfg::pipelined(7),
            ];
            for (c, chunk) in chunks.into_iter().enumerate() {
                let cfg = if verified == 1 {
                    chunk.verified()
                } else {
                    chunk
                };
                let prints = [
                    wire_fingerprint(
                        IntSumScheme::<u32>::default,
                        |r, j| ints(r, j) as u32,
                        collective,
                        cfg,
                    ),
                    wire_fingerprint(IntXorScheme::<u64>::default, ints, collective, cfg),
                    wire_fingerprint(
                        || FloatSumScheme::new(HfpFormat::fp32(2, 2)),
                        |r, j| (j as f64 - 11.0) * 0.375 + r as f64,
                        collective,
                        cfg,
                    ),
                ];
                for (s, (msgs, hash)) in prints.into_iter().enumerate() {
                    // Salt by row so two rows cannot trade payloads.
                    let salted = hash.rotate_left((3 * c + s) as u32 * 7);
                    *cell = (cell.0 + msgs, cell.1.wrapping_add(salted));
                }
            }
        }
    }
    assert_eq!(
        got, GOLDEN,
        "the wire changed: [allreduce, reduce-scatter, allgather] × [plain, verified]"
    );
}

/// See [`the_ring_ships_the_ciphertext_it_always_did`].
const WIRE_GOLDEN: [[(u64, u64); 2]; 3] = [
    [(360, 586154157334700590), (360, 2184753041571345148)],
    [(180, 12457890671684293508), (180, 2753460644357268465)],
    [(234, 7176228208755082272), (234, 14978471435887031402)],
];

// ---- randomized cell picking (satellite #3) ----------------------------

mod random_cells {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// One random (world, length, block, cell) tuple per case: the
        /// engine must agree with the plaintext wrapping-sum reference in
        /// every corner the deterministic sweep's fixed shape misses.
        #[test]
        fn random_cell_matches_reference(
            world in 1usize..5,
            len in 0usize..60,
            block in 1usize..16,
            seed in any::<u64>(),
            algo_pick in 0u8..4,
            pipelined in any::<bool>(),
            verified in any::<bool>(),
        ) {
            let algo = match algo_pick {
                0 => ReduceAlgo::RecursiveDoubling,
                1 => ReduceAlgo::Ring,
                2 => ReduceAlgo::Switch,
                _ => ReduceAlgo::Hierarchical { group: 2 },
            };
            let results = Simulator::with_config(world, SimConfig::default().with_switch(2))
                .run(move |comm| {
                    let keys = CommKeys::generate(world, seed, Backend::best_available())
                        .into_iter()
                        .nth(comm.rank())
                        .unwrap();
                    let homac = Homac::generate(seed ^ 0x17, Backend::best_available());
                    let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
                    let data: Vec<u32> = (0..len as u32)
                        .map(|j| {
                            j.wrapping_mul(seed as u32 | 1)
                                .wrapping_add(comm.rank() as u32)
                        })
                        .collect();
                    let base = if pipelined {
                        EngineCfg::pipelined(block)
                    } else {
                        EngineCfg::sync()
                    };
                    let cfg = if verified {
                        base.with_algo(algo).verified()
                    } else {
                        base.with_algo(algo)
                    };
                    let mut s = IntSumScheme::<u32>::default();
                    let enc = sc.allreduce_with(&mut s, &data, cfg).unwrap();
                    let reference = comm.allreduce(&data, |a, b| a.wrapping_add(*b));
                    (enc, reference)
                });
            for (enc, reference) in &results {
                prop_assert_eq!(enc, reference);
            }
        }
    }
}

// ---- steady-state allocation accounting (satellite #2) ------------------
//
// The engine claims zero heap allocation after warmup: every staging
// vector is leased from the per-communicator arena, the transport's
// aggregate buffer is recycled as the next block's wire buffer, and
// `allreduce_with_into` reuses the caller's output capacity. A counting
// global allocator makes that claim falsifiable. The counter is
// thread-local so the prefetch worker's (intentional, off-thread)
// keystream allocations never pollute a rank's tally.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

// `try_with`, not `with`: the allocator runs during TLS teardown too,
// where touching a destroyed thread-local would abort the process.
fn count_alloc(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    // `vec![0; n]` comes through here, not through `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

fn alloc_bytes_on_this_thread() -> u64 {
    ALLOC_BYTES.with(Cell::get)
}

/// `(allocations, bytes)` this thread made while `call` ran.
fn allocations_during(call: impl FnOnce()) -> (u64, u64) {
    let before = (allocs_on_this_thread(), alloc_bytes_on_this_thread());
    call();
    (
        allocs_on_this_thread() - before.0,
        alloc_bytes_on_this_thread() - before.1,
    )
}

/// Steady state: per-call allocation counts and bytes do not drift (small
/// slack for a mailbox table rehash).
fn assert_allocations_flat(what: &str, calls: &[(u64, u64)]) {
    const SLACK: u64 = 8;
    const SLACK_BYTES: u64 = 4 << 10;
    let counts = calls.iter().map(|c| c.0);
    let bytes = calls.iter().map(|c| c.1);
    assert!(
        counts.clone().max().unwrap() <= counts.min().unwrap() + SLACK,
        "{what}: allocation counts drift: {calls:?}"
    );
    assert!(
        bytes.clone().max().unwrap() <= bytes.min().unwrap() + SLACK_BYTES,
        "{what}: allocated bytes drift: {calls:?}"
    );
}

/// [`assert_allocations_flat`], and no call allocates anything the size of
/// a ≥ 1 MiB payload on the rank thread.
fn assert_allocations_flat_and_small(what: &str, calls: &[(u64, u64)]) {
    assert_allocations_flat(what, calls);
    assert!(
        calls.iter().all(|c| c.1 < 64 << 10),
        "{what}: payload-sized allocation on the rank thread: {calls:?}"
    );
}

/// Allocations of 8 steady-state calls at world 1, after 3 warm-ups, of
/// `allreduce_with_into` or (`scatter`) `reduce_scatter_with_into`; and the
/// output length.
fn world_one_allocations<S: Scheme + 'static>(
    mk: impl Fn() -> S + Send + Sync + 'static,
    data: Vec<S::Input>,
    scatter: bool,
) -> (u64, usize)
where
    S::Input: Sync,
{
    Simulator::new(1).run(move |comm| {
        let keys = CommKeys::generate(1, 0xA110C, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let mut sc = SecureComm::new(comm.clone(), keys);
        let mut s = mk();
        let mut out = Vec::new();
        let mut call = |sc: &mut SecureComm| {
            if scatter {
                sc.reduce_scatter_with_into(&mut s, &data, &mut out, EngineCfg::sync())
            } else {
                sc.allreduce_with_into(&mut s, &data, &mut out, EngineCfg::sync())
            }
            .unwrap()
        };
        for _ in 0..3 {
            call(&mut sc);
        }
        let before = allocs_on_this_thread();
        for _ in 0..8 {
            call(&mut sc);
        }
        (allocs_on_this_thread() - before, out.len())
    })[0]
}

#[test]
fn steady_state_allreduce_is_allocation_free_at_world_one() {
    // World of one skips the transport entirely, so the mask → unmask
    // round trip through the arena must be *exactly* allocation-free once
    // the scratch buffers have been sized by a few warmup calls — on the
    // integer kernels and on the fused float loop alike (its noise tiles
    // live on the stack; it writes straight into the arena's vectors).
    let ints: Vec<u32> = (0..512u32).map(|j| j.wrapping_mul(0x9E37_79B9)).collect();
    let floats: Vec<f64> = (0..700).map(|j| f64::from(j).sin() * 3.0).collect();
    let float_sum = || FloatSumScheme::new(HfpFormat::fp64(2, 2));
    let runs = [
        (
            "int allreduce",
            world_one_allocations(IntSumScheme::<u32>::default, ints, false),
            512,
        ),
        (
            "float allreduce",
            world_one_allocations(float_sum, floats.clone(), false),
            700,
        ),
        (
            "float reduce-scatter",
            world_one_allocations(float_sum, floats, true),
            700,
        ),
    ];
    for (what, (allocs, out_len), len) in runs {
        assert_eq!(out_len, len, "{what}");
        assert_eq!(
            allocs, 0,
            "steady-state {what} allocated {allocs} times on the rank thread"
        );
    }
}

#[test]
fn steady_state_factored_collectives_are_allocation_free_at_world_one() {
    // The factored collective set inherits the allreduce discipline:
    // reduce-scatter runs the same local mask → unmask path, allgather
    // and alltoall short-circuit into a plain copy. None of them may
    // allocate once warm.
    let per_rank = Simulator::new(1).run(|comm| {
        let keys = CommKeys::generate(1, 0xA110D, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let mut sc = SecureComm::new(comm.clone(), keys);
        let mut s = IntSumScheme::<u32>::default();
        let data: Vec<u32> = (0..384u32).map(|j| j.wrapping_mul(0x85EB_CA6B)).collect();
        let (mut rs, mut ag, mut a2a) = (Vec::new(), Vec::new(), Vec::new());
        let mut round = |sc: &mut SecureComm, s: &mut IntSumScheme<u32>| {
            sc.reduce_scatter_with_into(s, &data, &mut rs, EngineCfg::sync())
                .unwrap();
            sc.allgather_with_into(s, &data, &mut ag, EngineCfg::sync())
                .unwrap();
            sc.alltoall_with_into(s, &data, &mut a2a, EngineCfg::sync())
                .unwrap();
        };
        for _ in 0..3 {
            round(&mut sc, &mut s);
        }
        let before = allocs_on_this_thread();
        for _ in 0..8 {
            round(&mut sc, &mut s);
        }
        let allocs = allocs_on_this_thread() - before;
        (allocs, rs.len(), ag.len(), a2a.len())
    });
    let (allocs, rs_len, ag_len, a2a_len) = per_rank[0];
    assert_eq!((rs_len, ag_len, a2a_len), (384, 384, 384));
    assert_eq!(
        allocs, 0,
        "steady-state factored collectives allocated {allocs} times on the rank thread"
    );
}

#[test]
fn steady_state_allreduce_allocations_stay_flat_across_ranks() {
    // At world > 1 the simulated fabric allocates per message (one boxed
    // envelope per send, one queue buffer per fresh collective tag), so
    // "zero" is not achievable — but the engine's own staging must not
    // add to it. Per-iteration counts therefore have to be *flat* in
    // steady state: a leak of even one staging vector per block would
    // raise every subsequent iteration. A tiny slack absorbs the
    // occasional mailbox HashMap rehash (one table allocation).
    const ITERS: usize = 10;
    const SLACK: u64 = 8;
    let per_rank = Simulator::new(2).run(|comm| {
        let keys = CommKeys::generate(2, 0xF1A7, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let mut sc = SecureComm::new(comm.clone(), keys);
        let mut s = IntSumScheme::<u32>::default();
        let data: Vec<u32> = (0..1024u32)
            .map(|j| j.wrapping_mul(0xDEAD_BEEF).wrapping_add(comm.rank() as u32))
            .collect();
        let cfg = EngineCfg::pipelined(64).with_algo(ReduceAlgo::Ring);
        let mut out = Vec::new();
        for _ in 0..4 {
            sc.allreduce_with_into(&mut s, &data, &mut out, cfg)
                .unwrap();
        }
        let mut counts = Vec::with_capacity(ITERS);
        for _ in 0..ITERS {
            let before = allocs_on_this_thread();
            sc.allreduce_with_into(&mut s, &data, &mut out, cfg)
                .unwrap();
            counts.push(allocs_on_this_thread() - before);
        }
        counts
    });
    for (rank, counts) in per_rank.iter().enumerate() {
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(
            max <= min + SLACK,
            "rank {rank}: per-iteration allocation counts drift in steady state: {counts:?}"
        );
    }
}

#[test]
fn a_cold_ring_allreduce_requests_under_three_payloads_from_the_allocator() {
    // What a rank thread asks the allocator for on its *first* world-2 ring
    // call of `n` payload bytes: `out` (n, unmasked into directly) and the
    // two chunk vectors the block is masked into and travels in (n / 2
    // each) — 2 n measured, gated at 2.25 n. The ring moves those vectors
    // hop to hop instead of copying them through a segment buffer (2.5 n
    // with it, and a full-length wire buffer), there is no pre-filled
    // output and no decrypted staging copy (3.5 n with that). After that,
    // calls stay flat in counts and bytes.
    const ELEMS: usize = 1 << 18;
    const N: u64 = (ELEMS * 4) as u64;
    let per_rank = Simulator::new(2).run(|comm| {
        let keys = CommKeys::generate(2, 0xC01D, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let mut sc = SecureComm::new(comm.clone(), keys);
        let mut s = IntSumScheme::<u32>::default();
        let data: Vec<u32> = (0..ELEMS as u32)
            .map(|j| j.wrapping_mul(0x2545_F491).wrapping_add(comm.rank() as u32))
            .collect();
        let cfg = EngineCfg::sync().with_algo(ReduceAlgo::Ring);
        let mut out = Vec::new();
        let mut call = || {
            allocations_during(|| {
                sc.allreduce_with_into(&mut s, &data, &mut out, cfg)
                    .unwrap()
            })
        };
        let cold = call();
        for _ in 0..3 {
            call();
        }
        let steady: Vec<_> = (0..10).map(|_| call()).collect();
        (cold, steady)
    });
    for (rank, (cold, steady)) in per_rank.iter().enumerate() {
        assert!(
            cold.1 <= N * 9 / 4,
            "rank {rank}: the cold call requested {} bytes, {:.2} payloads",
            cold.1,
            cold.1 as f64 / N as f64
        );
        assert_allocations_flat_and_small(&format!("mem ring rank {rank}, 1 MiB"), steady);
    }
}

#[test]
fn steady_state_encrypted_allgather_allocates_nothing_payload_sized() {
    // The cell allgather seals the own piece into a leased chunk vector,
    // the ring moves chunk vectors hop to hop, and every rank's piece is
    // opened into `out` as it passes. Nothing is gathered first — the
    // substrate used to allocate and default-fill the whole gathered
    // vector on every call (2 MiB here), and the counts exchange a few
    // small ones — so a steady-state call asks the allocator for nothing
    // the size of a payload, plain or verified, on either transport. (Equal
    // contributions: over sockets a received vector is exactly as long as
    // what the peer sent, so a rank that contributes more than its
    // neighbour regrows the one it is dealt.)
    const ELEMS: usize = 1 << 17;
    let per_rank = Simulator::new(2).run(|comm| {
        let keys = CommKeys::generate(2, 0xA6A7, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let homac = Homac::generate(0xA6A8, Backend::best_available());
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let mut s = IntSumScheme::<u32>::default();
        let mine: Vec<u32> = (0..ELEMS as u32)
            .map(|j| j.wrapping_mul(0x2545_F491) ^ comm.rank() as u32)
            .collect();
        let mut out = Vec::new();
        let mut rows = Vec::new();
        for cfg in [EngineCfg::sync(), EngineCfg::sync().verified()] {
            let mut call = || {
                allocations_during(|| {
                    sc.allgather_with_into(&mut s, &mine, &mut out, cfg)
                        .unwrap()
                })
            };
            // Chunk vectors change hands on every hop, so it takes a few
            // calls until every vector a rank can be dealt has been sized.
            for _ in 0..8 {
                call();
            }
            rows.push((0..10).map(|_| call()).collect::<Vec<_>>());
        }
        assert_eq!(out.len(), 2 * ELEMS);
        (rows, comm.transport_name() == "tcp")
    });
    for (rank, (rows, tcp)) in per_rank.iter().enumerate() {
        assert_allocations_flat_and_small(&format!("plain allgather rank {rank}"), &rows[0]);
        // Tagged cells are not a primitive wire type: over sockets they are
        // decoded into a fresh vector on the receiving rank's thread.
        if *tcp {
            assert_allocations_flat(&format!("verified allgather rank {rank}"), &rows[1]);
        } else {
            let what = format!("verified allgather rank {rank}");
            assert_allocations_flat_and_small(&what, &rows[1]);
        }
    }
}

#[test]
fn steady_state_parallel_masking_is_allocation_free_at_world_one() {
    // A buffer past PAR_MIN_BYTES routes the mask → unmask round trip
    // through the worker pool. The submitter's side of the fork-join —
    // publish the job, work shards alongside the pool, join — must stay
    // allocation-free after the lazy worker spawn, or the "no allocation
    // on the submitter path" claim in hear_prf::par is false.
    use hear::prf::{with_pool, WorkerPool, PAR_MIN_BYTES};
    let len = PAR_MIN_BYTES / 4 + 13; // odd u32 count, > 1 MiB
    let zero_after_warmup = Simulator::new(1).run(move |comm| {
        let pool = WorkerPool::new(4);
        with_pool(&pool, || {
            let keys = CommKeys::generate(1, 0xA110E, Backend::best_available())
                .into_iter()
                .nth(comm.rank())
                .unwrap();
            let mut sc = SecureComm::new(comm.clone(), keys);
            let mut s = IntSumScheme::<u32>::default();
            let data: Vec<u32> = (0..len as u32)
                .map(|j| j.wrapping_mul(0x9E37_79B9))
                .collect();
            let mut out = Vec::new();
            for _ in 0..3 {
                sc.allreduce_with_into(&mut s, &data, &mut out, EngineCfg::sync())
                    .unwrap();
            }
            let before = allocs_on_this_thread();
            for _ in 0..4 {
                sc.allreduce_with_into(&mut s, &data, &mut out, EngineCfg::sync())
                    .unwrap();
            }
            (allocs_on_this_thread() - before, out.len())
        })
    });
    let (allocs, out_len) = zero_after_warmup[0];
    assert_eq!(out_len, len);
    assert_eq!(
        allocs, 0,
        "steady-state parallel-masked allreduce allocated {allocs} times on the rank thread"
    );
}

#[test]
fn steady_state_hierarchical_allocations_stay_flat_at_world_four() {
    // Same flatness discipline as the ring test, but at world 4 over the
    // hierarchical cell: the inter-leader ring runs on chunk vectors the
    // leader refills per call (the allocations its members' contributions
    // arrived in first), so per-iteration allocation counts must not drift
    // even though the simulated fabric allocates per message.
    const ITERS: usize = 10;
    const SLACK: u64 = 8;
    let per_rank = Simulator::new(4).run(|comm| {
        let keys = CommKeys::generate(4, 0xF1A8, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let mut sc = SecureComm::new(comm.clone(), keys);
        let mut s = IntSumScheme::<u32>::default();
        let data: Vec<u32> = (0..1024u32)
            .map(|j| j.wrapping_mul(0xC2B2_AE35).wrapping_add(comm.rank() as u32))
            .collect();
        let cfg = EngineCfg::pipelined(64).with_algo(ReduceAlgo::Hierarchical { group: 2 });
        let mut out = Vec::new();
        for _ in 0..4 {
            sc.allreduce_with_into(&mut s, &data, &mut out, cfg)
                .unwrap();
        }
        let mut counts = Vec::with_capacity(ITERS);
        for _ in 0..ITERS {
            let before = allocs_on_this_thread();
            sc.allreduce_with_into(&mut s, &data, &mut out, cfg)
                .unwrap();
            counts.push(allocs_on_this_thread() - before);
        }
        counts
    });
    for (rank, counts) in per_rank.iter().enumerate() {
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(
            max <= min + SLACK,
            "rank {rank}: hierarchical per-iteration allocation counts drift: {counts:?}"
        );
    }
}

#[test]
fn steady_state_allreduce_over_tcp_allocates_flat_and_sends_in_place() {
    // The socket hop holds to the same discipline as the in-memory one.
    // Per call, the rank thread's allocation count *and* bytes are flat
    // (small slack for a mailbox table rehash), and at 1 MiB it allocates
    // nothing the size of the payload: the send borrows the ring segment
    // in place — no encode copy, no frame copy — and the one payload-sized
    // allocation per hop, the received `Vec`, is made by the connection's
    // reader thread, not here. (The large case runs the ring, the
    // large-message algorithm, whose segment buffer is the recycled
    // previous receive; recursive doubling clones its accumulator for
    // every exchange above the transport, on either fabric.)
    const ITERS: usize = 10;
    const MIB_ELEMS: u32 = (1 << 20) / 4;
    let tcp = SimConfig::default().with_transport(TransportKind::Tcp);
    let per_rank = Simulator::with_config(2, tcp).run(|comm| {
        assert_eq!(comm.transport_name(), "tcp");
        let keys = CommKeys::generate(2, 0x7C9A, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let mut sc = SecureComm::new(comm.clone(), keys);
        let mut s = IntSumScheme::<u32>::default();
        let mut out = Vec::new();
        let mut steady = |elems: u32, cfg: EngineCfg| {
            let data: Vec<u32> = (0..elems)
                .map(|j| j.wrapping_mul(0x27D4_EB2F).wrapping_add(comm.rank() as u32))
                .collect();
            for _ in 0..4 {
                sc.allreduce_with_into(&mut s, &data, &mut out, cfg)
                    .unwrap();
            }
            (0..ITERS)
                .map(|_| {
                    allocations_during(|| {
                        sc.allreduce_with_into(&mut s, &data, &mut out, cfg)
                            .unwrap()
                    })
                })
                .collect::<Vec<_>>()
        };
        let small = steady(1024, EngineCfg::sync());
        let large = steady(MIB_ELEMS, EngineCfg::sync().with_algo(ReduceAlgo::Ring));
        (small, large)
    });
    for (rank, (small, large)) in per_rank.iter().enumerate() {
        assert_allocations_flat_and_small(&format!("tcp rank {rank}, 4 KiB"), small);
        assert_allocations_flat_and_small(&format!("tcp rank {rank}, 1 MiB"), large);
    }
}

#[test]
fn steady_state_verified_allreduce_allocations_stay_flat() {
    // The verified path stages through `VerifyScratch`: seven arena
    // vectors, three of them packet-sized, leased per call. They must come
    // back to the arena under their lane-sized packet type, or every call
    // would grow the staging set again: per call, the rank thread's
    // allocation count and bytes are flat, and nothing the size of the
    // 6 MiB packet vector is allocated here (the fabric's per-message
    // envelopes are all that is left — a few hundred bytes).
    const ITERS: usize = 6;
    let mem = SimConfig::default().with_transport(TransportKind::Memory);
    let per_rank = Simulator::with_config(2, mem).run(|comm| {
        let keys = CommKeys::generate(2, 0x7E21, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let homac = Homac::generate(0x7E22, Backend::best_available());
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let mut s = IntSumScheme::<u32>::default();
        let data: Vec<u32> = (0..(1u32 << 18))
            .map(|j| j.wrapping_mul(0x27D4_EB2F).wrapping_add(comm.rank() as u32))
            .collect();
        let cfg = EngineCfg::sync().verified().with_algo(ReduceAlgo::Ring);
        let mut out = Vec::new();
        for _ in 0..3 {
            sc.allreduce_with_into(&mut s, &data, &mut out, cfg)
                .unwrap();
        }
        (0..ITERS)
            .map(|_| {
                allocations_during(|| {
                    sc.allreduce_with_into(&mut s, &data, &mut out, cfg)
                        .unwrap()
                })
            })
            .collect::<Vec<_>>()
    });
    for (rank, calls) in per_rank.iter().enumerate() {
        assert_allocations_flat_and_small(&format!("verified rank {rank}, 1 MiB"), calls);
    }
}

#[test]
fn steady_state_float_ring_allocations_stay_flat() {
    // The float path holds to the integer path's discipline: the fused
    // loop writes ciphertexts straight into the arena's wire vector, the
    // ring recycles its segment buffer, and the reduce-scatter's share
    // comes back as the trimmed accumulator — so `wire` keeps the full
    // block's capacity and never regrows. Per call, the rank thread's
    // allocation count and bytes are flat on whichever transport the run
    // selected (`HEAR_TRANSPORT=tcp` reruns this over sockets). On the
    // in-memory fabric nothing payload-sized (4 MiB of ciphertext here) is
    // allocated at all; over TCP the `Vec<Hfp>` codec decodes each
    // received segment into a fresh vector on this thread, the same one
    // every call.
    const ITERS: usize = 6;
    const ELEMS: usize = 1 << 17;
    let per_rank = Simulator::new(2).run(|comm| {
        let keys = CommKeys::generate(2, 0xF10A, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let mut sc = SecureComm::new(comm.clone(), keys);
        let mut s = FloatSumScheme::new(HfpFormat::fp64(2, 2));
        let data: Vec<f64> = (0..ELEMS)
            .map(|j| ((comm.rank() * 31 + j) as f64 * 0.13).sin() * 0.8)
            .collect();
        let cfg = EngineCfg::sync().with_algo(ReduceAlgo::Ring);
        let mut out = Vec::new();
        let mut steady = |call: &mut dyn FnMut(&mut SecureComm, &mut Vec<f64>)| {
            for _ in 0..3 {
                call(&mut sc, &mut out);
            }
            (0..ITERS)
                .map(|_| allocations_during(|| call(&mut sc, &mut out)))
                .collect::<Vec<_>>()
        };
        let allreduce =
            steady(&mut |sc, out| sc.allreduce_with_into(&mut s, &data, out, cfg).unwrap());
        let reduce_scatter = steady(&mut |sc, out| {
            sc.reduce_scatter_with_into(&mut s, &data, out, cfg)
                .unwrap()
        });
        (comm.transport_name(), allreduce, reduce_scatter)
    });
    for (rank, (transport, allreduce, reduce_scatter)) in per_rank.iter().enumerate() {
        for (what, calls) in [("allreduce", allreduce), ("reduce-scatter", reduce_scatter)] {
            let what = format!("float {what}, {transport} rank {rank}");
            if *transport == "mem" {
                assert_allocations_flat_and_small(&what, calls);
            } else {
                assert_allocations_flat(&what, calls);
            }
        }
    }
}

#[test]
fn mailboxes_are_empty_after_five_thousand_collectives() {
    // Collective tags are unique per call, so a mailbox that kept a
    // drained `(source, tag)` queue would hold one more entry after every
    // call, for the life of the world.
    let mem = SimConfig::default().with_transport(TransportKind::Memory);
    let left_behind = Simulator::with_config(2, mem).run(|comm| {
        let keys = CommKeys::generate(2, 0x1EAC, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let mut sc = SecureComm::new(comm.clone(), keys);
        let mut s = IntSumScheme::<u32>::default();
        let data = [comm.rank() as u32, 7, 11, 13];
        let mut out = Vec::new();
        for _ in 0..5_000 {
            sc.allreduce_with_into(&mut s, &data, &mut out, EngineCfg::sync())
                .unwrap();
        }
        assert_eq!(out, vec![1, 14, 22, 26]);
        // Every message sent to this rank has been received by now: the
        // last call returned only after its receive.
        comm.pending_queues()
    });
    assert_eq!(left_behind, vec![0, 0]);
}

// ---- docs stay in sync with the generators (satellite #4) ---------------

#[test]
fn readme_and_design_embed_the_generated_matrices() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let readme = std::fs::read_to_string(format!("{root}/README.md")).unwrap();
    let design = std::fs::read_to_string(format!("{root}/DESIGN.md")).unwrap();
    for line in composition_matrix_markdown().lines() {
        assert!(
            design.contains(line),
            "DESIGN.md is missing a composition-matrix line:\n{line}\n\
             (regenerate with hear::core::properties::composition_matrix_markdown)"
        );
    }
    for line in table2_markdown().lines() {
        assert!(
            readme.contains(line),
            "README.md is missing a Table 2 line:\n{line}\n\
             (regenerate with hear::core::properties::table2_markdown)"
        );
    }
}

//! Composition-matrix smoke run: every scheme × transport algorithm ×
//! chunking mode × HoMAC verification through the one generic engine
//! call, at small sizes, checked against the plaintext reference. Exits
//! nonzero on the first mismatch — the CI gate that the orthogonality
//! promise (`SecureComm::allreduce_with`) actually holds on this build.

use hear::core::{
    Backend, CommKeys, FixedCodec, FixedSumScheme, FloatProdScheme, FloatSumExpScheme,
    FloatSumScheme, HfpFormat, Homac, IntProdScheme, IntSumScheme, IntXorScheme, Scheme,
};
use hear::layer::{EngineCfg, ReduceAlgo, SecureComm};
use hear::mpi::{SimConfig, Simulator};
use std::process::ExitCode;

const WORLD: usize = 4;
const SEED: u64 = 0x5303e;

fn cells() -> Vec<(ReduceAlgo, bool, bool)> {
    let mut v = Vec::new();
    for algo in [
        ReduceAlgo::RecursiveDoubling,
        ReduceAlgo::Ring,
        ReduceAlgo::Switch,
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
        EngineCfg::pipelined(3)
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

/// Run one scheme through all 12 cells; return the number of failed cells.
fn smoke<S, MS, CL>(
    name: &str,
    mk_scheme: MS,
    inputs: Vec<Vec<S::Input>>,
    expected: Vec<S::Input>,
    close: CL,
) -> u32
where
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
        let homac = Homac::generate(SEED ^ 0x99, Backend::best_available());
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let data = inputs[comm.rank()].clone();
        cells()
            .into_iter()
            .map(|(algo, pipelined, verified)| {
                let mut s = mk_scheme();
                let got = sc
                    .allreduce_with(&mut s, &data, cfg_for(algo, pipelined, verified))
                    .expect("honest network must reduce and verify");
                (algo, pipelined, verified, got)
            })
            .collect::<Vec<_>>()
    });
    let mut failures = 0u32;
    for (algo, pipelined, verified, got) in &results[0] {
        let ok = results.iter().all(|r| {
            r.iter()
                .find(|(a, p, v, _)| a == algo && p == pipelined && v == verified)
                .map(|(_, _, _, g)| {
                    g.len() == expected.len() && g.iter().zip(&expected).all(|(x, e)| close(x, e))
                })
                .unwrap_or(false)
        }) && got.len() == expected.len();
        let tag = format!(
            "{name:<14} {algo:?}{}{}",
            if *pipelined { " +pipelined" } else { "" },
            if *verified { " +verified" } else { "" },
        );
        if ok {
            println!("ok    {tag}");
        } else {
            println!("FAIL  {tag}");
            failures += 1;
        }
    }
    failures
}

fn rel_close(tol: f64) -> impl Fn(&f64, &f64) -> bool {
    move |g, e| (g - e).abs() / e.abs().max(1.0) < tol
}

/// The factored collective sweep: reduce-scatter ∘ allgather must rebuild
/// the allreduce aggregate and alltoall must transpose, in every chunking
/// × verification cell. The phases are ring-native, so there is no
/// algorithm dimension — chunking and HoMAC are the axes that can break.
fn factored_smoke() -> u32 {
    const LEN: usize = 11;
    const A2A_CHUNK: usize = 3;
    let inputs: Vec<Vec<u32>> = (0..WORLD)
        .map(|r| (0..LEN).map(|j| (j as u32) * 7 + r as u32 + 1).collect())
        .collect();
    let expected: Vec<u32> = (0..LEN)
        .map(|j| inputs.iter().fold(0u32, |a, r| a.wrapping_add(r[j])))
        .collect();
    let cells: [(&str, EngineCfg, usize); 3] = [
        ("sync", EngineCfg::sync(), LEN),
        ("blocked", EngineCfg::blocked(3), 3),
        ("pipelined", EngineCfg::pipelined(3), 3),
    ];
    let inputs = &inputs;
    let results = Simulator::with_config(WORLD, SimConfig::default().with_switch(4)).run(|comm| {
        let keys = CommKeys::generate(WORLD, SEED ^ 0xFAC, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let homac = Homac::generate(SEED ^ 0xFAC ^ 0x99, Backend::best_available());
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let mut s = IntSumScheme::<u32>::default();
        let r = comm.rank() as u32;
        let mut out = Vec::new();
        for (name, base, _) in cells {
            for verified in [false, true] {
                let cfg = if verified { base.verified() } else { base };
                let shard = sc
                    .reduce_scatter_with(&mut s, &inputs[comm.rank()], cfg)
                    .expect("honest network must reduce-scatter");
                let full = sc
                    .allgather_with(&mut s, &shard, cfg)
                    .expect("honest network must allgather");
                let a2a_in: Vec<u32> = (0..WORLD as u32)
                    .flat_map(|dst| (0..A2A_CHUNK as u32).map(move |j| r * 1000 + dst * 10 + j))
                    .collect();
                let transposed = sc
                    .alltoall_with(&mut s, &a2a_in, cfg)
                    .expect("honest network must alltoall");
                out.push((name, verified, full, transposed));
            }
        }
        out
    });
    // Blocked reduce-scatter appends per-block shares, so the gathered
    // (rank-contiguous) reference walks ranks then blocks.
    let rs_ag_expect = |block: usize| -> Vec<u32> {
        let mut v = Vec::new();
        for rr in 0..WORLD {
            let mut offset = 0;
            while offset < LEN {
                let end = (offset + block).min(LEN);
                let (lo, hi) = hear::mpi::ring_chunk_bounds(end - offset, WORLD)[rr];
                v.extend_from_slice(&expected[offset + lo..offset + hi]);
                offset = end;
            }
        }
        v
    };
    let mut failures = 0u32;
    for (idx, (name, _, block)) in cells.iter().enumerate() {
        for (vi, verified) in [false, true].into_iter().enumerate() {
            let cell = idx * 2 + vi;
            let want_full = rs_ag_expect(*block);
            let ok = results.iter().enumerate().all(|(rank, per_rank)| {
                let (_, _, full, transposed) = &per_rank[cell];
                let want_a2a: Vec<u32> = (0..WORLD as u32)
                    .flat_map(|src| {
                        (0..A2A_CHUNK as u32).map(move |j| src * 1000 + rank as u32 * 10 + j)
                    })
                    .collect();
                *full == want_full && *transposed == want_a2a
            });
            let tag = format!(
                "rs∘ag+a2a      {name}{}",
                if verified { " +verified" } else { "" },
            );
            if ok {
                println!("ok    {tag}");
            } else {
                println!("FAIL  {tag}");
                failures += 1;
            }
        }
    }
    failures
}

fn main() -> ExitCode {
    let mut failures = 0u32;

    let ints: Vec<Vec<u32>> = (0..WORLD)
        .map(|r| (0..11).map(|j| (j as u32) * 7 + r as u32 + 1).collect())
        .collect();
    let int_sum: Vec<u32> = (0..11)
        .map(|j| ints.iter().fold(0u32, |a, r| a.wrapping_add(r[j])))
        .collect();
    failures += smoke(
        "int-sum",
        IntSumScheme::<u32>::default,
        ints.clone(),
        int_sum,
        |g: &u32, e: &u32| g == e,
    );

    let prods: Vec<Vec<u64>> = (0..WORLD)
        .map(|r| (0..7).map(|j| 1 + ((j + r as u64) % 5)).collect())
        .collect();
    let prod_ref: Vec<u64> = (0..7)
        .map(|j| {
            prods
                .iter()
                .fold(1u64, |a, r| a.wrapping_mul(r[j as usize]))
        })
        .collect();
    failures += smoke(
        "int-prod",
        IntProdScheme::<u64>::default,
        prods,
        prod_ref,
        |g: &u64, e: &u64| g == e,
    );

    let xor_ref: Vec<u32> = (0..11)
        .map(|j| ints.iter().fold(0u32, |a, r| a ^ r[j]))
        .collect();
    failures += smoke(
        "int-xor",
        IntXorScheme::<u32>::default,
        ints,
        xor_ref,
        |g: &u32, e: &u32| g == e,
    );

    let floats: Vec<Vec<f64>> = (0..WORLD)
        .map(|r| {
            (0..9)
                .map(|j| ((r * 9 + j) as f64 * 0.3).cos() + 2.0)
                .collect()
        })
        .collect();
    let fsum: Vec<f64> = (0..9).map(|j| floats.iter().map(|r| r[j]).sum()).collect();
    failures += smoke(
        "fixed-sum",
        || FixedSumScheme::new(FixedCodec::new(16)),
        floats.clone(),
        fsum.clone(),
        rel_close(1e-3),
    );
    failures += smoke(
        "float-sum-v1",
        || FloatSumScheme::new(HfpFormat::fp32(2, 2)),
        floats.clone(),
        fsum,
        rel_close(1e-4),
    );

    let small: Vec<Vec<f64>> = (0..WORLD)
        .map(|r| {
            (0..5)
                .map(|j| ((r * 5 + j) as f64 * 0.7).sin() * 0.3)
                .collect()
        })
        .collect();
    let small_sum: Vec<f64> = (0..5).map(|j| small.iter().map(|r| r[j]).sum()).collect();
    failures += smoke(
        "float-sum-v2",
        || FloatSumExpScheme::new(HfpFormat::fp64(0, 0)),
        small,
        small_sum,
        rel_close(1e-3),
    );

    let mags: Vec<Vec<f64>> = (0..WORLD)
        .map(|r| {
            (0..5)
                .map(|j| 0.7 + ((r * 5 + j) as f64 * 0.5).cos().abs())
                .collect()
        })
        .collect();
    let mag_prod: Vec<f64> = (0..5)
        .map(|j| mags.iter().map(|r| r[j]).product())
        .collect();
    failures += smoke(
        "float-prod",
        || FloatProdScheme::new(HfpFormat::fp64(0, 0)),
        mags,
        mag_prod,
        rel_close(1e-4),
    );

    failures += factored_smoke();

    if failures == 0 {
        println!("matrix smoke: all cells ok");
        ExitCode::SUCCESS
    } else {
        eprintln!("matrix smoke: {failures} cell(s) FAILED");
        ExitCode::FAILURE
    }
}

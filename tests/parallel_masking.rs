//! Satellite pin for the multi-threaded mask kernels: for every one of the
//! seven Table 2 schemes, `mask_slice`/`unmask_slice` under an explicit
//! 2- or 4-thread [`WorkerPool`] must be **bit-for-bit identical** to the
//! 1-thread (serial-degenerate) pool — wires, aggregate, and decoded
//! outputs alike. HEAR pads are pure in `(epoch, offset)`, so cutting a
//! buffer at PRF-block boundaries and masking shards on different cores
//! must not be observable in the ciphertext at all.
//!
//! The pools are pinned with [`hear::prf::with_pool`] rather than
//! `HEAR_THREADS` (the global pool reads the env only once per process);
//! the 1-thread pool *is* the `HEAR_THREADS=1` degeneracy — `WorkerPool`
//! sizes are indistinguishable from the env knob past construction, which
//! `hear_prf`'s own env test pins separately.
//!
//! The suite also holds the engine to its lanes: a rank's collective never
//! waits on a fork-join job some other thread submitted.

use hear::core::{
    noise_at, Backend, CommKeys, FixedCodec, FixedSumScheme, FloatProdScheme, FloatSumExpScheme,
    FloatSumScheme, HfpError, HfpFormat, Homac, IntProdScheme, IntSumScheme, IntXorScheme, Scheme,
    HOMAC_P,
};
use hear::prf::{
    par_block_pass, with_pool, Payload, Prf, PrfCipher, Stream, WorkerPool, PAR_MIN_BYTES,
};
use hear::telemetry::{Metric, Registry};
use proptest::prelude::*;
use proptest::TestRng;
use std::sync::OnceLock;

const SEED: u64 = 0x009A_5CED;
/// Odd element count whose smallest wire encoding (u32) still clears
/// [`PAR_MIN_BYTES`], so the fused schemes really take the sharded path
/// on the multi-thread pools; the odd tail exercises partial blocks.
const LEN: usize = PAR_MIN_BYTES / 4 + 3;
/// Odd stream offset so the leading partial block is non-empty too.
const FIRST: u64 = 3;

/// Whether a row pinned to a pool of two or more threads sharded on it:
/// `fans_out` rows must (a serial pass would make their comparison
/// vacuous), the others must not.
fn assert_fan_out(pool: &WorkerPool, what: &str, fans_out: bool) {
    if pool.threads() > 1 {
        assert_eq!(
            pool.jobs() > 0,
            fans_out,
            "{what}: {} fork-join jobs on the {}-thread pool",
            pool.jobs(),
            pool.threads()
        );
    }
}

/// Both ranks' wires plus the unmasked aggregate from one pool size.
type PinOutcome<S> = (
    Vec<<S as Scheme>::Wire>,
    Vec<<S as Scheme>::Wire>,
    Vec<<S as Scheme>::Input>,
);

/// Mask both ranks' inputs, combine the wires with the scheme's network
/// op, unmask the aggregate with rank 0's keys — once per pool size — and
/// demand every intermediate is identical across pool sizes. `fans_out`
/// says whether the scheme's passes shard ([`assert_fan_out`]).
fn pin_scheme<S, MS>(mk: MS, inputs: [Vec<S::Input>; 2], fans_out: bool)
where
    S: Scheme,
    S::Input: PartialEq + std::fmt::Debug,
    MS: Fn() -> S,
{
    let keys = CommKeys::generate(2, SEED, Backend::best_available());
    let mut reference: Option<PinOutcome<S>> = None;
    for threads in [1usize, 2, 4] {
        let pool = WorkerPool::new(threads);
        let (w0, w1, out) = with_pool(&pool, || {
            let mut w0 = Vec::new();
            mk().mask_slice(&keys[0], FIRST, &inputs[0], &mut w0)
                .unwrap_or_else(|e| panic!("{} mask rank 0: {e:?}", S::NAME));
            let mut w1 = Vec::new();
            mk().mask_slice(&keys[1], FIRST, &inputs[1], &mut w1)
                .unwrap_or_else(|e| panic!("{} mask rank 1: {e:?}", S::NAME));
            let agg: Vec<S::Wire> = w0.iter().zip(&w1).map(|(a, b)| S::op(a, b)).collect();
            let mut out = Vec::new();
            mk().unmask_slice(&keys[0], FIRST, &agg, &mut out);
            (w0, w1, out)
        });
        assert_eq!(out.len(), inputs[0].len(), "{} threads={threads}", S::NAME);
        assert_fan_out(&pool, S::NAME, fans_out);
        match &reference {
            None => reference = Some((w0, w1, out)),
            Some((rw0, rw1, rout)) => {
                assert!(
                    &w0 == rw0,
                    "{}: rank-0 wires diverge from serial at {threads} threads",
                    S::NAME
                );
                assert!(
                    &w1 == rw1,
                    "{}: rank-1 wires diverge from serial at {threads} threads",
                    S::NAME
                );
                assert!(
                    &out == rout,
                    "{}: unmasked output diverges from serial at {threads} threads",
                    S::NAME
                );
            }
        }
    }
}

#[test]
fn int_sum_parallel_masking_is_bit_identical() {
    let inputs: [Vec<u32>; 2] = std::array::from_fn(|r| {
        (0..LEN as u32)
            .map(|j| j.wrapping_mul(0x9E37_79B9).wrapping_add(r as u32))
            .collect()
    });
    pin_scheme(IntSumScheme::<u32>::default, inputs, true);
}

#[test]
fn int_prod_parallel_masking_is_bit_identical() {
    let inputs: [Vec<u64>; 2] =
        std::array::from_fn(|r| (0..LEN as u64).map(|j| 1 + (j + r as u64) % 9).collect());
    pin_scheme(IntProdScheme::<u64>::default, inputs, true);
}

#[test]
fn int_xor_parallel_masking_is_bit_identical() {
    let inputs: [Vec<u32>; 2] = std::array::from_fn(|r| {
        (0..LEN as u32)
            .map(|j| j.wrapping_mul(0xDEAD_BEEF) ^ ((r as u32) << 13))
            .collect()
    });
    pin_scheme(IntXorScheme::<u32>::default, inputs, true);
}

#[test]
fn fixed_sum_parallel_masking_is_bit_identical() {
    let inputs: [Vec<f64>; 2] = std::array::from_fn(|r| {
        (0..LEN)
            .map(|j| (((r * LEN + j) % 8191) as f64 * 0.37).sin() * 4.0)
            .collect()
    });
    pin_scheme(|| FixedSumScheme::new(FixedCodec::new(16)), inputs, true);
}

#[test]
fn float_sum_v1_parallel_masking_is_bit_identical() {
    let inputs: [Vec<f64>; 2] = std::array::from_fn(|r| {
        (0..LEN)
            .map(|j| (((r * LEN + j) % 8191) as f64 * 0.17).cos() * 3.0 + 4.0)
            .collect()
    });
    pin_scheme(|| FloatSumScheme::new(HfpFormat::fp32(2, 2)), inputs, true);
}

#[test]
fn float_sum_v2_parallel_masking_is_bit_identical() {
    let inputs: [Vec<f64>; 2] = std::array::from_fn(|r| {
        (0..LEN)
            .map(|j| (((r * LEN + j) % 8191) as f64 * 0.29).sin() * 0.4)
            .collect()
    });
    pin_scheme(
        || FloatSumExpScheme::new(HfpFormat::fp64(0, 0)),
        inputs,
        true,
    );
}

#[test]
fn float_prod_parallel_masking_is_bit_identical() {
    let inputs: [Vec<f64>; 2] = std::array::from_fn(|r| {
        (0..LEN)
            .map(|j| 0.6 + (((r * LEN + j) % 8191) as f64 * 0.41).cos().abs())
            .collect()
    });
    pin_scheme(|| FloatProdScheme::new(HfpFormat::fp64(0, 0)), inputs, true);
}

/// The HoMAC passes fan out under the rule of every pad pass
/// (`PAR_MIN_BYTES` of keystream per stream): tags and the verify verdict
/// at a length past it must be identical across 1/2/4-thread pools, and a
/// single-rank tag must verify against its own cipher on every pool.
#[test]
fn homac_tags_parallel_match_serial() {
    let keys = CommKeys::generate(1, SEED ^ 0x7A65, Backend::best_available());
    let homac = Homac::generate(SEED ^ 0x1234, Backend::best_available());
    let cipher: Vec<u32> = (0..70_001u32)
        .map(|j| j.wrapping_mul(0x85EB_CA6B))
        .collect();
    let mut reference: Option<Vec<u64>> = None;
    for threads in [1usize, 2, 4] {
        let pool = WorkerPool::new(threads);
        let (tags, ok) = with_pool(&pool, || {
            let mut tags = Vec::new();
            homac.tag_into(&keys[0], FIRST, &cipher, &mut tags);
            let ok = homac.verify(&keys[0], FIRST, &cipher, &tags);
            (tags, ok)
        });
        assert!(ok, "single-rank HoMAC verify failed at {threads} threads");
        assert_fan_out(&pool, "HoMAC tag/verify", true);
        match &reference {
            None => reference = Some(tags),
            Some(r) => assert!(
                &tags == r,
                "HoMAC tags diverge from serial at {threads} threads"
            ),
        }
    }
}

/// The single-origin cell codecs pad on the call's pool like every other
/// integer pass: at world 2, with pieces of `PAR_MIN_BYTES` of `u64` cells
/// and more, an allgather and an alltoall — bare and `verified()` — each
/// add fork-join jobs to a pinned 2-thread pool, and every result equals
/// the 1-thread pool's (and the contributed values, cells being lossless).
#[test]
fn cell_codecs_fan_out_and_match_serial() {
    use hear::layer::{EngineCfg, SecureComm};
    use hear::mpi::Simulator;

    const CELLS: usize = PAR_MIN_BYTES / 8 + 3;
    let contribution = |r: usize, len: usize| -> Vec<u64> {
        (0..len as u64)
            .map(|j| j.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ r as u64)
            .collect()
    };
    let run = |threads: usize| {
        Simulator::new(2).run(move |comm| {
            let r = comm.rank();
            let keys = CommKeys::generate(2, SEED ^ 0xCE11, Backend::best_available())
                .into_iter()
                .nth(r)
                .unwrap();
            let homac = Homac::generate(SEED ^ 0xCE12, Backend::best_available());
            let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
            let (piece, both) = (contribution(r, CELLS), contribution(r, 2 * CELLS));
            let pool = WorkerPool::new(threads);
            let (mut outs, mut jobs) = (Vec::new(), Vec::new());
            with_pool(&pool, || {
                for cfg in [EngineCfg::sync(), EngineCfg::sync().verified()] {
                    let mut scheme = IntSumScheme::<u64>::default();
                    outs.push(sc.allgather_with(&mut scheme, &piece, cfg).unwrap());
                    jobs.push(pool.jobs());
                    outs.push(sc.alltoall_with(&mut scheme, &both, cfg).unwrap());
                    jobs.push(pool.jobs());
                }
            });
            (outs, jobs)
        })
    };
    let serial = run(1);
    for (rank, (outs, _)) in serial.iter().enumerate() {
        let gathered = [contribution(0, CELLS), contribution(1, CELLS)].concat();
        let received: Vec<u64> = (0..2)
            .flat_map(|src| contribution(src, 2 * CELLS)[rank * CELLS..][..CELLS].to_vec())
            .collect();
        for (call, out) in outs.iter().enumerate() {
            let want = if call % 2 == 0 { &gathered } else { &received };
            assert!(out == want, "rank {rank} call {call}: wrong result");
        }
    }
    for (rank, (outs, jobs)) in run(2).iter().enumerate() {
        assert!(
            outs == &serial[rank].0,
            "rank {rank}: results diverge from the 1-thread pool"
        );
        let mut before = 0;
        for (call, &after) in jobs.iter().enumerate() {
            assert!(
                after > before,
                "rank {rank} call {call}: no fork-join job on the 2-thread pool ({jobs:?})"
            );
            before = after;
        }
    }
}

/// An engine call never waits on a fork-join job it did not submit. A
/// thread that is no rank holds the process-wide pool inside a job parked
/// on a flag; a world-2 verified ring allreduce past the HoMAC fan-out
/// threshold must still finish before a deadline, because each rank fans
/// out on its own lane. A watchdog releases the flag at the deadline, so
/// ranks that queue behind the parked job fail the test instead of hanging
/// it. On a one-thread budget the process-wide pool runs every job inline
/// and holds no lock, so there the test passes trivially.
#[test]
fn an_engine_call_never_waits_on_a_job_it_did_not_submit() {
    use hear::layer::{EngineCfg, ReduceAlgo, SecureComm};
    use hear::mpi::Simulator;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const DEADLINE: Duration = Duration::from_secs(20);
    const N: usize = 1 << 17; // 2× the block pass's fan-out threshold of 2^16
    let pause = || std::thread::sleep(Duration::from_millis(1));
    let held = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let holder = {
        let (held, release) = (Arc::clone(&held), Arc::clone(&release));
        std::thread::spawn(move || {
            WorkerPool::global().run(2, &|_| {
                held.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    pause();
                }
            })
        })
    };
    while !held.load(Ordering::SeqCst) {
        pause();
    }
    let start = Instant::now();
    let watchdog = {
        let release = Arc::clone(&release);
        std::thread::spawn(move || {
            while !release.load(Ordering::SeqCst) && start.elapsed() < DEADLINE {
                pause();
            }
            release.store(true, Ordering::SeqCst);
        })
    };
    let results = Simulator::new(2).run(|comm| {
        let keys = CommKeys::generate(2, SEED ^ 0x57A2, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let homac = Homac::generate(SEED ^ 0x57A3, Backend::best_available());
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let data: Vec<u32> = (0..N as u32).map(|j| j + comm.rank() as u32).collect();
        let cfg = EngineCfg::sync().with_algo(ReduceAlgo::Ring).verified();
        sc.allreduce_with(&mut IntSumScheme::default(), &data, cfg)
    });
    let elapsed = start.elapsed();
    release.store(true, Ordering::SeqCst);
    holder.join().unwrap();
    watchdog.join().unwrap();
    let want: Vec<u32> = (0..N as u32).map(|j| 2 * j + 1).collect();
    for got in results {
        assert!(got.unwrap() == want, "wrong aggregate");
    }
    assert!(
        elapsed < DEADLINE,
        "the allreduce took {elapsed:?}: a rank queued behind another thread's job"
    );
}

// ---- the HoMAC kernel against its scalar oracles -------------------------

/// Batch lengths around every boundary the bulk kernel has: empty, one
/// element, a partial run, one run (256) and either side of it, the
/// fan-out threshold (`PAR_MIN_BYTES / 16` = 2^16 elements) and either
/// side of it, and a long odd batch that shards unevenly.
const KERNEL_LENS: [usize; 10] = [0, 1, 7, 255, 256, 257, 65_535, 65_536, 65_537, 100_003];

fn random_words(rng: &mut TestRng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.next_u64()).collect()
}

/// `f` under a 1-, 2- and 4-thread pool.
fn on_every_pool(mut f: impl FnMut(usize)) {
    for threads in [1usize, 2, 4] {
        with_pool(&WorkerPool::new(threads), || f(threads));
    }
}

/// Where a flipped bit must still be caught: the first element, the last
/// (the end of a partial tile for most lengths), and both sides of every
/// cut a 2- or 4-shard fan-out makes.
fn tamper_points(n: usize) -> Vec<usize> {
    let mut at = vec![0, n - 1];
    for shards in [2, 4] {
        let chunk = n.div_ceil(shards);
        at.extend((1..shards).flat_map(|k| [k * chunk - 1, k * chunk]));
    }
    at.retain(|i| *i < n);
    at.sort_unstable();
    at.dedup();
    at
}

/// Bulk `tag_into` equals the scalar per-element path for both kinds of
/// rank. The last rank's cancelling tag *is* its plain tag; any other
/// rank's is `(s_r − s_{r+1} − c)/Z`, i.e. its plain tag minus the next
/// rank's plain tag of an all-zero block (`tag_plain` evaluates one PRF
/// block per key and shares none of the block pass's code).
#[test]
fn bulk_tags_equal_the_scalar_oracle() {
    let keys = CommKeys::generate(3, SEED ^ 0x0AC1, Backend::best_available());
    let homac = Homac::generate(SEED ^ 0x0AC2, Backend::best_available());
    let mut rng = TestRng::new(SEED);
    for n in KERNEL_LENS {
        let first = rng.next_u64() >> 20;
        let cipher = random_words(&mut rng, n);
        let zeros = vec![0u64; n];
        for rank in [0usize, 2] {
            assert_eq!(keys[rank].is_last(), rank == 2);
            let mut oracle = homac.tag_plain(&keys[rank], first, &cipher);
            if rank != 2 {
                let next = homac.tag_plain(&keys[rank + 1], first, &zeros);
                for (o, s) in oracle.iter_mut().zip(next) {
                    *o = Homac::combine(*o, HOMAC_P - s);
                }
            }
            on_every_pool(|threads| {
                let mut tags = vec![0xDEAD; 3];
                homac.tag_into(&keys[rank], first, &cipher, &mut tags);
                assert!(tags == oracle, "n={n} rank={rank} threads={threads}");
            });
        }
        // The shared-stream cell tag, one element per call: no tile or
        // shard boundary to get wrong (its scalar definition is pinned in
        // hear-core's own tests).
        let oracle: Vec<u64> = (0..n)
            .flat_map(|i| {
                let mut one = Vec::new();
                let at = first + i as u64;
                homac.tag_shared(keys[1].base_own(), at, &cipher[i..=i], &mut one);
                one
            })
            .collect();
        on_every_pool(|threads| {
            let mut tags = Vec::new();
            homac.tag_shared(keys[1].base_own(), first, &cipher, &mut tags);
            assert!(tags == oracle, "shared n={n} threads={threads}");
        });
    }
}

/// Tags computed by the parent commit (software AES, `u128 %` arithmetic,
/// one `eval_block` per key): the kernel rewrite changed no bit of them.
#[test]
fn tags_are_bit_identical_to_the_pre_kernel_implementation() {
    let keys = CommKeys::generate(3, 0x601D, Backend::AesSoft);
    let homac = Homac::generate(0x7A65, Backend::AesSoft);
    let c32: Vec<u32> = vec![0xdead_beef, 7, u32::MAX, 0];
    let c64: Vec<u64> = vec![u64::MAX, 1 << 63, 0x0123_4567_89ab_cdef, 0];
    let mut out = Vec::new();
    homac.tag_into(&keys[0], 5, &c32, &mut out);
    let rank0 = [
        0x1f03_32ec_6b68_5f08,
        0x1661_ad5f_60d0_a958,
        0x059f_c16d_93fa_c1ab,
        0x085b_b0e3_d11e_607d,
    ];
    assert_eq!(out, rank0);
    homac.tag_into(&keys[2], 5, &c64, &mut out);
    let last = [
        0x1c36_dc3c_7c02_beef,
        0x0c75_f57b_40ec_2959,
        0x0031_443d_b5e5_f496,
        0x1b0e_6ab3_3882_e1b8,
    ];
    assert_eq!(out, last);
    homac.tag_shared(keys[1].base_collective(), (1 << 48) + 9, &c64, &mut out);
    // Re-recorded when cells became authenticated through their two 32-bit
    // halves (the zero cell's tag is unchanged).
    let shared = [
        0x0ab4_9837_041d_8beb,
        0x0970_13c3_0b54_98e5,
        0x1a7f_5e11_139b_f52c,
        0x1e25_4cf3_5dad_04a5,
    ];
    assert_eq!(out, shared);
}

/// `verify` accepts the honest two-rank aggregate and rejects one flipped
/// bit — in the ciphertext or in the tag — wherever it sits relative to
/// tiles and shards, on every pool; so does `verify_shared`.
#[test]
fn bulk_verify_accepts_honest_batches_and_rejects_one_flipped_bit_anywhere() {
    let keys = CommKeys::generate(2, SEED ^ 0x0AC3, Backend::best_available());
    let homac = Homac::generate(SEED ^ 0x0AC4, Backend::best_available());
    let mut rng = TestRng::new(SEED ^ 1);
    for n in KERNEL_LENS {
        let first = rng.next_u64() >> 20;
        // Summed: two ranks' ciphertexts and cancelling tags.
        let (c0, c1) = (random_words(&mut rng, n), random_words(&mut rng, n));
        let (t0, t1) = (
            homac.tag(&keys[0], first, &c0),
            homac.tag(&keys[1], first, &c1),
        );
        let agg: Vec<u64> = c0
            .iter()
            .zip(&c1)
            .map(|(a, b)| a.wrapping_add(*b))
            .collect();
        let tags: Vec<u64> = (t0.iter().zip(&t1))
            .map(|(a, b)| Homac::combine(*a, *b))
            .collect();
        // Single-origin: one rank's cells on the shared stream.
        let base = keys[1].base_collective();
        let mut shared_tags = Vec::new();
        homac.tag_shared(base, first, &c0, &mut shared_tags);
        let points = if n == 0 { Vec::new() } else { tamper_points(n) };
        on_every_pool(|threads| {
            let ctx = format!("n={n} threads={threads}");
            assert!(homac.verify(&keys[0], first, &agg, &tags), "{ctx}");
            assert!(homac.verify_shared(base, first, &c0, &shared_tags), "{ctx}");
            let (mut agg, mut tags) = (agg.clone(), tags.clone());
            let (mut cells, mut shared_tags) = (c0.clone(), shared_tags.clone());
            for &i in &points {
                // Any bit but 3, because this is the public ring-word
                // `verify`: 2^64 ≡ 8 (mod p), so its overflow test takes ±8
                // on a 64-bit word for one honest wrap more or less. (The
                // engine's field lanes have no such blind spot; see
                // `lane_open_rejects_every_flipped_bit_of_lanes_and_tags`.)
                let bit = 1u64 << (4 + i % 57);
                agg[i] ^= bit;
                assert!(!homac.verify(&keys[0], first, &agg, &tags), "{ctx} c[{i}]");
                agg[i] ^= bit;
                tags[i] ^= bit;
                assert!(!homac.verify(&keys[0], first, &agg, &tags), "{ctx} σ[{i}]");
                tags[i] ^= bit;
                cells[i] ^= bit;
                assert!(
                    !homac.verify_shared(base, first, &cells, &shared_tags),
                    "{ctx} shared c[{i}]"
                );
                cells[i] ^= bit;
                shared_tags[i] ^= bit;
                assert!(
                    !homac.verify_shared(base, first, &cells, &shared_tags),
                    "{ctx} shared σ[{i}]"
                );
                shared_tags[i] ^= bit;
            }
        });
    }
}

/// The lane mode of the kernel, sealed and opened on every pool, against
/// its scalar reference (one `eval_block` per key block) across every tile
/// and shard boundary of `KERNEL_LENS`; then every bit position 0..64 —
/// bit 3 included — flipped in a lane and in a tag, spread over the tamper
/// points. A lane is a field element below p, so a flip moves it by a
/// nonzero residue `±2^b mod p` and the exact open must reject each one.
#[test]
fn lane_open_rejects_every_flipped_bit_of_lanes_and_tags() {
    let keys = CommKeys::generate(2, SEED ^ 0x0AC5, Backend::best_available());
    let homac = Homac::generate(SEED ^ 0x0AC6, Backend::best_available());
    let mut rng = TestRng::new(SEED ^ 2);
    for n in KERNEL_LENS {
        let first = rng.next_u64() >> 20;
        let halves = [0, 1].map(|_| {
            let words = random_words(&mut rng, n);
            words.iter().map(|w| w >> 32).collect::<Vec<u64>>()
        });
        let sealed = [0, 1].map(|r| homac.seal_lanes_scalar(&keys[r], first, &halves[r]));
        let agg: Vec<[u64; 2]> = (sealed[0].iter().zip(&sealed[1]))
            .map(|([d0, s0], [d1, s1])| [Homac::combine(*d0, *d1), Homac::combine(*s0, *s1)])
            .collect();
        let sums: Vec<u64> = (halves[0].iter().zip(&halves[1]))
            .map(|(a, b)| a + b)
            .collect();
        let scalar = homac.open_lanes_scalar(&keys[0], first, &agg);
        assert_eq!(scalar.as_ref(), Some(&sums), "scalar n={n}");
        let points = if n == 0 { Vec::new() } else { tamper_points(n) };
        on_every_pool(|threads| {
            let ctx = format!("n={n} threads={threads}");
            for r in [0, 1] {
                let mut out = vec![[0xDEAD; 2]; 3];
                homac.seal_lanes(&keys[r], first, &halves[r], &mut out);
                assert!(out == sealed[r], "{ctx} seal rank {r}");
            }
            let mut opened = vec![0xDEAD; 3];
            assert!(
                homac.open_lanes(&keys[0], first, &agg, &mut opened),
                "{ctx}"
            );
            assert!(opened == sums, "{ctx} open");
            let mut agg = agg.clone();
            for (b, i) in (0..64).zip(points.iter().cycle()) {
                for (column, name) in [(0, "lane"), (1, "σ")] {
                    agg[*i][column] ^= 1 << b;
                    let ok = homac.open_lanes(&keys[0], first, &agg, &mut opened);
                    assert!(!ok, "{ctx} {name}[{i}] bit {b}");
                    agg[*i][column] ^= 1 << b;
                }
            }
        });
    }
}

// ---- the block pass against its scalar definitions -----------------------

/// Elements at which a block pass starts to shard: [`PAR_MIN_BYTES`] of
/// keystream per stream, one 16-byte block per element.
const BLOCK_SHARD_MIN: usize = PAR_MIN_BYTES / 16;

/// A 1-, a 2- and a 4-thread pool, made once for every case.
fn pools() -> &'static [WorkerPool; 3] {
    static POOLS: OnceLock<[WorkerPool; 3]> = OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 4].map(WorkerPool::new))
}

/// `run`'s result and the PRF blocks it counted (`hear_prf_blocks_total`,
/// every backend) on a registry of its own.
fn counted<R>(run: impl FnOnce() -> R) -> (R, u64) {
    let reg = Registry::new_enabled();
    let r = {
        let _ctx = reg.install(Some(0));
        run()
    };
    let backends = [
        Metric::PrfBlocksAesSoft,
        Metric::PrfBlocksAesNi,
        Metric::PrfBlocksSha1,
        Metric::PrfBlocksSha1Ni,
    ];
    (r, backends.map(|m| reg.counter(m)).iter().sum())
}

/// What the direct pass folds a block into an element with.
fn mix(x: u64, block: u128) -> u64 {
    x.rotate_left(9) ^ (block as u64).wrapping_add((block >> 64) as u64)
}

/// One direct `par_block_pass` of `N` streams over elements `0 .. len` in
/// payload form `form` (appended, into), with an `f` that fails
/// on every element from `fail_at` on, against the scalar definition: one
/// counted `eval_block` per element and stream.
fn check_block_pass<const N: usize>(
    pool: &WorkerPool,
    first: u64,
    len: usize,
    form: usize,
    fail_at: Option<usize>,
) -> Result<(), TestCaseError> {
    let prf = PrfCipher::best(u128::from(SEED));
    let streams: [Stream<'_>; N] = std::array::from_fn(|s| Stream {
        prf: &prf,
        base: (s as u128 + 1) << 90,
    });
    let (want, scalar_blocks) = counted(|| {
        (0..len as u64)
            .map(|i| {
                (streams.iter()).fold(i, |x, s| {
                    mix(x, prf.eval_block(s.base + u128::from(first + i)))
                })
            })
            .collect::<Vec<u64>>()
    });
    let f = move |x: u64, blocks: [u128; N]| match fail_at {
        Some(at) if x >= at as u64 => Err(x),
        _ => Ok(blocks.iter().fold(x, |x, b| mix(x, *b))),
    };
    let src: Vec<u64> = (0..len as u64).collect();
    const PREFIX: u64 = 0xFEED;
    let ((done, out), blocks) = counted(|| match form {
        0 => {
            let mut out = vec![PREFIX];
            let done = par_block_pass(
                pool,
                &streams,
                first,
                Payload::Extend(&src[..], &mut out),
                f,
            );
            (done, out)
        }
        _ => {
            let mut dst = vec![0; len];
            let payload = Payload::<_, _>::Into(&src[..], &mut dst);
            let done = par_block_pass(pool, &streams, first, payload, f);
            (done, dst)
        }
    });
    prop_assert_eq!(blocks, (N * len) as u64, "one block per element and stream");
    let out = match form {
        0 => {
            prop_assert_eq!(out[0], PREFIX, "what the Vec held before");
            out[1..].to_vec()
        }
        _ => out,
    };
    match fail_at {
        None => {
            prop_assert_eq!(done, Ok(()));
            prop_assert!(out == want, "output differs from the scalar definition");
            prop_assert_eq!(blocks, scalar_blocks);
        }
        Some(at) => {
            prop_assert_eq!(done, Err(at as u64), "the first failing element's error");
            match form {
                0 => prop_assert!(out.is_empty(), "a failed Extend appended {}", out.len()),
                _ => prop_assert!(out[..at] == want[..at], "elements before the failure"),
            }
        }
    }
    Ok(())
}

proptest! {
    /// `par_block_pass`, and the ciphers on it, against their scalar
    /// definitions — one `eval_block` per element and stream: the direct
    /// pass (one or two streams, appended or into), the float
    /// unmask ([`noise_at`]), HoMAC's lane seal and open
    /// (`seal_lanes_scalar`, `open_lanes_scalar`). Lengths fall either
    /// side of the fan-out threshold, so shard cuts land at ragged places
    /// on the 2- and 4-thread pools. A failing case makes `f` fail from a
    /// random element on (an unencodable float, a tampered tag): the pass
    /// must return that first element's error. Every pass counts one
    /// block per element and stream, what its scalar definition counts.
    #[test]
    fn block_pass_equals_its_scalar_definitions(
        first in 0u64..1 << 50,
        len in 0usize..2 * BLOCK_SHARD_MIN,
        pool in 0usize..3,
        subject in 0usize..5,
        two in any::<bool>(),
        failing in any::<bool>(),
        at in any::<usize>(),
    ) {
        let pool = &pools()[pool];
        let fail_at = (failing && len > 0).then(|| at % len);
        let seed = SEED ^ first;
        match subject {
            0..2 if two => check_block_pass::<2>(pool, first, len, subject, fail_at)?,
            0..2 => check_block_pass::<1>(pool, first, len, subject, fail_at)?,
            2 => {
                // Each noise element ⊘ itself is exactly one.
                let keys = CommKeys::generate(2, seed, Backend::best_available());
                let fmt = HfpFormat::fp64(2, 2);
                let (ew, mw) = fmt.cipher_widths();
                let (k, base) = (&keys[0], keys[0].base_collective());
                let (noise, scalar_blocks) = counted(|| {
                    (0..len as u64)
                        .map(|i| noise_at(k.prf(), base, first + i, ew, mw))
                        .collect::<Vec<_>>()
                });
                let mut scheme = FloatSumScheme::new(fmt);
                let (out, blocks) = counted(|| with_pool(pool, || {
                    let mut out = vec![f64::NAN];
                    scheme.unmask_slice(k, first, &noise, &mut out);
                    out
                }));
                prop_assert!(out.iter().all(|v| *v == 1.0), "noise ⊘ noise is 1");
                prop_assert_eq!(out.len(), len);
                prop_assert_eq!(blocks, scalar_blocks);
                if let Some(at) = fail_at {
                    let mut x = vec![1.0; len];
                    x[at] = f64::NAN;
                    let mut ct = vec![noise[0]];
                    let (got, blocks) = counted(|| with_pool(pool, || {
                        scheme.mask_slice(k, first, &x, &mut ct)
                    }));
                    prop_assert_eq!(got, Err(HfpError::NonFinite));
                    prop_assert!(ct.is_empty(), "a failed mask left {} elements", ct.len());
                    prop_assert_eq!(blocks, len as u64);
                }
            }
            3 => {
                // Rank 0 seals on its own and next streams, the last rank
                // on its own alone.
                let keys = CommKeys::generate(3, seed, Backend::best_available());
                let homac = Homac::generate(seed, Backend::best_available());
                let k = if two { &keys[0] } else { &keys[2] };
                let halves: Vec<u64> = (0..len as u64).map(|i| (i * 0x9E37_79B9) >> 32).collect();
                let (want, scalar_blocks) = counted(|| homac.seal_lanes_scalar(k, first, &halves));
                let (got, blocks) = counted(|| with_pool(pool, || {
                    let mut out = vec![[1, 2]];
                    homac.seal_lanes(k, first, &halves, &mut out);
                    out
                }));
                prop_assert!(got == want, "sealed lanes differ from the scalar definition");
                prop_assert_eq!(blocks, scalar_blocks);
                prop_assert_eq!(blocks, ((1 + usize::from(two)) * len) as u64);
            }
            _ => {
                // One rank: its sealed lanes are the aggregate.
                let keys = CommKeys::generate(1, seed, Backend::best_available());
                let homac = Homac::generate(seed, Backend::best_available());
                let halves: Vec<u64> = (0..len as u64).map(|i| (i * 0x85EB_CA6B) >> 32).collect();
                let mut sealed = homac.seal_lanes_scalar(&keys[0], first, &halves);
                if let Some(at) = fail_at {
                    sealed[at][1] ^= 1;
                }
                let (want, scalar_blocks) = counted(|| homac.open_lanes_scalar(&keys[0], first, &sealed));
                let ((ok, out), blocks) = counted(|| with_pool(pool, || {
                    let mut out = vec![7];
                    let ok = homac.open_lanes(&keys[0], first, &sealed, &mut out);
                    (ok, out)
                }));
                prop_assert_eq!(ok, fail_at.is_none());
                prop_assert_eq!(blocks, len as u64);
                if ok {
                    prop_assert!(Some(&out) == want.as_ref(), "opened lanes differ from the scalar definition");
                    prop_assert!(out == halves);
                    prop_assert_eq!(blocks, scalar_blocks);
                } else {
                    prop_assert_eq!(want, None);
                }
            }
        }
    }
}

/// A block pass reads a source; an in-place payload is refused before any
/// block is derived.
#[test]
#[should_panic(expected = "a block pass reads a source")]
fn a_block_pass_refuses_an_in_place_payload() {
    let prf = PrfCipher::best(u128::from(SEED));
    let mut buf = vec![0u64; 4];
    let _ = par_block_pass(
        &WorkerPool::new(1),
        &[Stream { prf: &prf, base: 1 }],
        0,
        Payload::<_, &[u64]>::InPlace(&mut buf),
        |x: u64, [b]: [u128; 1]| Ok::<_, ()>(x ^ b as u64),
    );
}

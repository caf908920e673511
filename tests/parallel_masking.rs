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

use hear::core::{
    Backend, CommKeys, FixedCodec, FixedSumScheme, FloatProdScheme, FloatSumExpScheme,
    FloatSumScheme, HfpFormat, Homac, IntProdScheme, IntSumScheme, IntXorScheme, Scheme, HOMAC_P,
};
use hear::prf::{with_pool, WorkerPool, PAR_MIN_BYTES};
use proptest::TestRng;

const SEED: u64 = 0x009A_5CED;
/// Odd element count whose smallest wire encoding (u32) still clears
/// [`PAR_MIN_BYTES`], so the fused schemes really take the sharded path
/// on the multi-thread pools; the odd tail exercises partial blocks.
const LEN: usize = PAR_MIN_BYTES / 4 + 3;
/// Odd stream offset so the leading partial block is non-empty too.
const FIRST: u64 = 3;

/// Both ranks' wires plus the unmasked aggregate from one pool size.
type PinOutcome<S> = (
    Vec<<S as Scheme>::Wire>,
    Vec<<S as Scheme>::Wire>,
    Vec<<S as Scheme>::Input>,
);

/// Mask both ranks' inputs, combine the wires with the scheme's network
/// op, unmask the aggregate with rank 0's keys — once per pool size — and
/// demand every intermediate is identical across pool sizes.
fn pin_scheme<S, MS>(mk: MS, inputs: [Vec<S::Input>; 2])
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
    pin_scheme(IntSumScheme::<u32>::default, inputs);
}

#[test]
fn int_prod_parallel_masking_is_bit_identical() {
    let inputs: [Vec<u64>; 2] =
        std::array::from_fn(|r| (0..LEN as u64).map(|j| 1 + (j + r as u64) % 9).collect());
    pin_scheme(IntProdScheme::<u64>::default, inputs);
}

#[test]
fn int_xor_parallel_masking_is_bit_identical() {
    let inputs: [Vec<u32>; 2] = std::array::from_fn(|r| {
        (0..LEN as u32)
            .map(|j| j.wrapping_mul(0xDEAD_BEEF) ^ ((r as u32) << 13))
            .collect()
    });
    pin_scheme(IntXorScheme::<u32>::default, inputs);
}

#[test]
fn fixed_sum_parallel_masking_is_bit_identical() {
    let inputs: [Vec<f64>; 2] = std::array::from_fn(|r| {
        (0..LEN)
            .map(|j| (((r * LEN + j) % 8191) as f64 * 0.37).sin() * 4.0)
            .collect()
    });
    pin_scheme(|| FixedSumScheme::new(FixedCodec::new(16)), inputs);
}

#[test]
fn float_sum_v1_parallel_masking_is_bit_identical() {
    let inputs: [Vec<f64>; 2] = std::array::from_fn(|r| {
        (0..LEN)
            .map(|j| (((r * LEN + j) % 8191) as f64 * 0.17).cos() * 3.0 + 4.0)
            .collect()
    });
    pin_scheme(|| FloatSumScheme::new(HfpFormat::fp32(2, 2)), inputs);
}

#[test]
fn float_sum_v2_parallel_masking_is_bit_identical() {
    let inputs: [Vec<f64>; 2] = std::array::from_fn(|r| {
        (0..LEN)
            .map(|j| (((r * LEN + j) % 8191) as f64 * 0.29).sin() * 0.4)
            .collect()
    });
    pin_scheme(|| FloatSumExpScheme::new(HfpFormat::fp64(0, 0)), inputs);
}

#[test]
fn float_prod_parallel_masking_is_bit_identical() {
    let inputs: [Vec<f64>; 2] = std::array::from_fn(|r| {
        (0..LEN)
            .map(|j| 0.6 + (((r * LEN + j) % 8191) as f64 * 0.41).cos().abs())
            .collect()
    });
    pin_scheme(|| FloatProdScheme::new(HfpFormat::fp64(0, 0)), inputs);
}

/// The HoMAC digest fan-out has its own parallel threshold
/// (`PAR_MIN_ELEMS` elements, not bytes): tags and the verify verdict at
/// a length past it must be identical across 1/2/4-thread pools, and a
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
        match &reference {
            None => reference = Some(tags),
            Some(r) => assert!(
                &tags == r,
                "HoMAC tags diverge from serial at {threads} threads"
            ),
        }
    }
}

// ---- the tiled HoMAC kernel against its scalar oracles -------------------

/// Batch lengths around every boundary the bulk kernel has: empty, one
/// element, a partial tile, one tile (256) and either side of it, the
/// fan-out threshold (2^15) and either side of it, and a long odd batch
/// that shards unevenly.
const KERNEL_LENS: [usize; 9] = [0, 1, 7, 255, 256, 257, 32_767, 32_768, 100_003];

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
/// block per key and shares none of the tiled kernel's code).
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
        // The shared-stream tag on a rank's own base is its plain tag.
        let oracle = homac.tag_plain(&keys[1], first, &cipher);
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
    let shared = [
        0x1eaa_5a04_ac32_197c,
        0x0827_c7dc_b980_e7f4,
        0x1ad1_a1af_441f_c229,
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
                // Any bit but 3: 2^64 ≡ 8 (mod p), so ±8 on a 64-bit word is
                // one legal wrap of the data channel, by construction.
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

//! The threat-model safety notions of paper §4, as executable properties:
//! temporal safety (same plaintext encrypts differently across calls),
//! local safety (across vector slots), global safety (across ranks), and
//! the documented exception — float SUM v1 trades global safety away.
//! Plus basic ciphertext-distribution sanity (keystream uniformity).

use hear::core::{
    noise_at, Backend, CommKeys, FloatProdScheme, FloatSumScheme, Hfp, HfpFormat, IntProdScheme,
    IntSumScheme, IntXorScheme, Scheme,
};
use hear::prf::{Prf, PrfCipher};

fn keys(world: usize, seed: u64) -> Vec<CommKeys> {
    CommKeys::generate(world, seed, Backend::best_available())
}

/// `plain` masked by `scheme` under `keys`, at element 0.
fn masked<S: Scheme>(mut scheme: S, keys: &CommKeys, plain: &[S::Input]) -> Vec<S::Wire> {
    let mut wire = Vec::new();
    scheme.mask_slice(keys, 0, plain, &mut wire).unwrap();
    wire
}

/// Encrypt the same plaintext with every integer scheme; return ciphers.
fn encrypt_all_int(keys: &CommKeys, plain: &[u32]) -> [Vec<u32>; 3] {
    [
        masked(IntSumScheme::default(), keys, plain),
        masked(IntProdScheme::default(), keys, plain),
        masked(IntXorScheme::default(), keys, plain),
    ]
}

#[test]
fn temporal_safety_all_schemes() {
    let mut ks = keys(3, 0xA);
    let plain = vec![0xDEAD_BEEFu32; 8];
    let first = encrypt_all_int(&ks[0], &plain);
    for k in &mut ks {
        k.advance();
    }
    let second = encrypt_all_int(&ks[0], &plain);
    for (a, b) in first.iter().zip(&second) {
        assert_ne!(a, b, "temporal safety violated");
    }
    // Floats, both schemes.
    let fs = || FloatSumScheme::new(HfpFormat::fp32(2, 2));
    let fp = || FloatProdScheme::new(HfpFormat::fp32(0, 0));
    let (c1, c2) = (masked(fs(), &ks[0], &[1.0]), masked(fp(), &ks[0], &[1.0]));
    for k in &mut ks {
        k.advance();
    }
    assert_ne!(c1, masked(fs(), &ks[0], &[1.0]));
    assert_ne!(c2, masked(fp(), &ks[0], &[1.0]));
}

#[test]
fn local_safety_within_vector() {
    let ks = keys(2, 0xB);
    let plain = vec![42u32; 256];
    for cipher in encrypt_all_int(&ks[0], &plain) {
        let distinct: std::collections::HashSet<u32> = cipher.iter().copied().collect();
        assert!(
            distinct.len() >= 250,
            "local safety: only {} distinct ciphertexts from 256 equal plaintexts",
            distinct.len()
        );
    }
    // Float SUM: equal values in different slots use different noise.
    let ct = masked(
        FloatSumScheme::new(HfpFormat::fp32(2, 2)),
        &ks[0],
        &[3.25; 64],
    );
    let distinct: std::collections::HashSet<u128> = ct.iter().map(Hfp::to_bits).collect();
    assert!(distinct.len() >= 60);
}

#[test]
fn global_safety_across_ranks_except_float_sum_v1() {
    let ks = keys(4, 0xC);
    let plain = vec![7u32; 16];
    // Integer schemes: per-rank keys → distinct wires.
    for pair in [(0usize, 1usize), (1, 2), (0, 3)] {
        let a = encrypt_all_int(&ks[pair.0], &plain);
        let b = encrypt_all_int(&ks[pair.1], &plain);
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x, y, "global safety violated between ranks {pair:?}");
        }
    }
    // Float PROD: per-rank noise → distinct.
    let fp = || FloatProdScheme::new(HfpFormat::fp32(0, 0));
    assert_ne!(masked(fp(), &ks[0], &[2.5]), masked(fp(), &ks[1], &[2.5]));
    // Float SUM v1: the documented exception — all ranks share the noise
    // stream (Eq. 7), so identical plaintexts produce identical wires.
    let fs = || FloatSumScheme::new(HfpFormat::fp32(2, 2));
    assert_eq!(
        masked(fs(), &ks[0], &[2.5]),
        masked(fs(), &ks[1], &[2.5]),
        "Eq. 7 intentionally lacks global safety"
    );
}

#[test]
fn keystream_looks_uniform() {
    // Bit-balance and byte-coverage smoke test over 64 KiB of AES-CTR
    // keystream — the noise that makes ciphertexts IND-CPA.
    let prf = PrfCipher::best(0x1CE);
    let mut ones = 0u64;
    let mut byte_seen = [false; 256];
    let n_blocks = 4096;
    for i in 0..n_blocks {
        let b = prf.eval_block(i);
        ones += b.count_ones() as u64;
        for k in 0..16 {
            byte_seen[((b >> (8 * k)) & 0xff) as usize] = true;
        }
    }
    let total_bits = n_blocks as f64 * 128.0;
    let balance = ones as f64 / total_bits;
    assert!((0.495..0.505).contains(&balance), "bit balance {balance}");
    assert!(byte_seen.iter().all(|&s| s), "all byte values must appear");
}

#[test]
fn ciphertext_sum_differs_from_plaintext_sum_on_the_wire() {
    // What the switch aggregates is NOT the plaintext aggregate: even the
    // network's intermediate results stay masked (rank-0 noise remains).
    let ks = keys(3, 0xD);
    let data = vec![5u32, 10, 15];
    let mut wire_agg = vec![0u32; 3];
    for k in &ks {
        let ct = masked(IntSumScheme::default(), k, &data);
        for (a, c) in wire_agg.iter_mut().zip(&ct) {
            *a = a.wrapping_add(*c);
        }
    }
    let plain_agg: Vec<u32> = data.iter().map(|v| v * 3).collect();
    assert_ne!(wire_agg, plain_agg, "the aggregate itself must stay masked");
    let mut out = Vec::new();
    IntSumScheme::default().unmask_slice(&ks[0], 0, &wire_agg, &mut out);
    assert_eq!(out, plain_agg);
}

#[test]
fn float_noise_exponents_cover_the_ring() {
    // §5.3.5: encrypted exponents must be spread over the whole ring, not
    // clustered — otherwise ring wraparound would be rare and the cap
    // argument moot.
    let ks = keys(2, 0xE);
    let (ew, mw) = HfpFormat::fp32(2, 2).cipher_widths();
    let mut quadrant = [0usize; 4];
    for j in 0..4096 {
        let n = noise_at(ks[0].prf(), ks[0].base_collective(), j, ew, mw);
        quadrant[(n.exp >> (ew - 2)) as usize] += 1;
    }
    for (q, count) in quadrant.iter().enumerate() {
        assert!(
            (824..=1224).contains(count),
            "exponent quadrant {q} has {count}/4096 (expected ≈1024)"
        );
    }
}

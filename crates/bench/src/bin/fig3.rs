//! Figure 3 regenerator: relative precision loss of the HFP float schemes
//! against FP16/FP32/FP64, for addition and multiplication, at
//! γ ∈ {0, 1, 2}, with the native float as baseline and a 1024-bit
//! BigFloat (MPFR-substitute) reference — the paper's exact methodology
//! (§5.3.2–5.3.3, 10k-element sums, exponentially sampled values).
//!
//! `HEAR_SCALE=full` multiplies trials ×10.

use hear::core::{Backend, CommKeys, FloatProdScheme, FloatSumScheme, Hfp, HfpFormat, Scheme};
use hear::hfp::F16;
use hear::num::{BigFloat, REFERENCE_PREC};
use hear_bench::{exp_sampled_values, scale_factor, stats};

struct Dtype {
    name: &'static str,
    le: u32,
    lm: u32,
    /// Exponent sampling range keeping ADD-chain sums inside the type.
    lo: i32,
    hi: i32,
}

const DTYPES: [Dtype; 3] = [
    Dtype {
        name: "FP16",
        le: 5,
        lm: 10,
        lo: -4,
        hi: 4,
    },
    Dtype {
        name: "FP32",
        le: 8,
        lm: 23,
        lo: -16,
        hi: 16,
    },
    Dtype {
        name: "FP64",
        le: 11,
        lm: 52,
        lo: -64,
        hi: 64,
    },
];

fn reference_sum(vals: &[f64]) -> f64 {
    let mut acc = BigFloat::zero(REFERENCE_PREC);
    for v in vals {
        acc = acc.add(&BigFloat::from_f64(*v, REFERENCE_PREC));
    }
    acc.to_f64()
}

/// Native summation in the target precision.
fn native_sum(d: &Dtype, vals: &[f64]) -> f64 {
    match d.name {
        "FP16" => {
            let mut acc = F16::ZERO;
            for v in vals {
                acc = acc.add(F16::from_f64(*v));
            }
            acc.to_f64()
        }
        "FP32" => vals.iter().fold(0.0f32, |a, v| a + *v as f32) as f64,
        _ => vals.iter().sum(),
    }
}

/// Clamp γ so fp64 ciphertext mantissas stay within the u64 significand
/// (ciphertext mantissa = lm − δ + γ ≤ 52).
fn clamp_gamma(d: &Dtype, delta: u32, gamma: u32) -> u32 {
    gamma.min(52 + delta - d.lm)
}

/// HEAR addition: the N summands form one summation chain — as if N ranks
/// reduced element 0 of their vectors — so every ciphertext carries the
/// SAME noise `F(kc + 0)` (Eq. 7 / §5.3.5: "all the numbers within one
/// summation chain need to be scaled with the same random number").
fn hear_sum(d: &Dtype, gamma: u32, vals: &[f64], keys: &CommKeys) -> f64 {
    let fmt = HfpFormat::new(d.le, d.lm, 2, clamp_gamma(d, 2, gamma));
    let mut scheme = FloatSumScheme::new(fmt);
    let (cew, cmw) = fmt.cipher_widths();
    let mut agg = Hfp::zero(cew, cmw);
    let mut ct = Vec::new();
    for v in vals {
        scheme
            .mask_slice(keys, 0, &[*v], &mut ct)
            .expect("in range");
        agg = FloatSumScheme::op(&agg, &ct[0]);
    }
    let mut out = Vec::new();
    scheme.unmask_slice(keys, 0, std::slice::from_ref(&agg), &mut out);
    out[0]
}

/// Multiplication column: values pass encrypt→decrypt through the MUL
/// scheme; the decrypted values are then summed natively so the metric is
/// comparable with the addition column (the paper's pass-through loss).
fn hear_mul_passthrough_sum(d: &Dtype, gamma: u32, vals: &[f64], keys: &CommKeys) -> f64 {
    let fmt = HfpFormat::new(d.le, d.lm, 0, clamp_gamma(d, 0, gamma));
    let mut scheme = FloatProdScheme::new(fmt);
    let (mut ct, mut out) = (Vec::new(), Vec::new());
    scheme.mask_slice(keys, 0, vals, &mut ct).expect("in range");
    scheme.unmask_slice(keys, 0, &ct, &mut out);
    out.iter().sum()
}

fn main() {
    let trials = 8 * scale_factor();
    let n = 10_000;
    println!("# Figure 3: relative precision loss (|result − reference| / |reference|)");
    println!("# {n}-element sums, {trials} trials, 1024-bit BigFloat reference");
    println!(
        "{:<5} {:<14} {:<10} {:>14} {:>14}",
        "type", "operation", "variant", "mean rel err", "std"
    );
    let keys = CommKeys::generate(1, 0xF16, Backend::best_available())
        .into_iter()
        .next()
        .unwrap();
    for d in &DTYPES {
        for op in ["Addition", "Multiplication"] {
            let mut rows: Vec<(&str, Vec<f64>)> = vec![
                ("Native", Vec::new()),
                ("HEAR g=2", Vec::new()),
                ("HEAR g=1", Vec::new()),
                ("HEAR g=0", Vec::new()),
            ];
            for trial in 0..trials {
                let vals = exp_sampled_values(n, d.lo..d.hi, 0xABC0 + trial as u64);
                let reference = reference_sum(&vals);
                let err = |x: f64| ((x - reference) / reference).abs();
                rows[0].1.push(err(native_sum(d, &vals)));
                for (i, gamma) in [2u32, 1, 0].iter().enumerate() {
                    let v = if op == "Addition" {
                        hear_sum(d, *gamma, &vals, &keys)
                    } else {
                        hear_mul_passthrough_sum(d, *gamma, &vals, &keys)
                    };
                    rows[i + 1].1.push(err(v));
                }
            }
            for (variant, errs) in &rows {
                let s = stats(errs);
                println!(
                    "{:<5} {:<14} {:<10} {:>14.3e} {:>14.3e}",
                    d.name, op, variant, s.mean, s.std
                );
            }
        }
    }
    println!("# Paper shape check: HEAR within ~an order of magnitude of native;");
    println!(
        "# gamma=2 best, gamma=0 worst (addition); multiplication gamma-insensitive (delta=0)."
    );
}

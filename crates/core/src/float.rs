//! Floating-point schemes (paper §5.3) on the HFP format.
//!
//! * [`FloatSum`] — Eq. (7): every rank multiplies by the *same* PRF noise
//!   `F_ke(kc + j)` so the untrusted network can add ciphertexts with the
//!   ring-exponent logic (δ = 2). Provides temporal and local safety but —
//!   by construction — not global safety.
//! * [`FloatProd`] — Eq. (6): per-rank noise with the cancelling technique
//!   (δ = 0, no inflation). We implement the telescoping orientation
//!   consistent with the stated Θ(1) decryption (see DESIGN.md).
//! * [`FloatSumExp`] — §5.3.4 alternative addition: values are encoded as
//!   `e^x` and reduced multiplicatively, trading precision and dynamic
//!   range for global safety.

use crate::extend_with;
use crate::keys::CommKeys;
use hear_hfp::format::{Hfp, HfpError, HfpFormat};
use hear_hfp::ops;
use hear_hfp::ringexp::mask;
use hear_prf::{blocks_metric, Prf};
use std::convert::Infallible;
use std::mem::MaybeUninit;

/// Derive an HFP noise value from one PRF block: uniform sign, uniform
/// ring exponent, uniform mantissa (hidden one attached).
#[inline]
fn noise_from_block(block: u128, ew: u32, mw: u32) -> Hfp {
    let frac = (block as u64) & mask(mw);
    let exp = ((block >> mw) as u64) & mask(ew);
    let sign = (block >> (mw + ew)) & 1 == 1;
    Hfp {
        sign,
        exp,
        sig: (1u64 << mw) | frac,
        ew,
        mw,
    }
}

/// Derive an HFP noise value from the PRF: one PRF block per element.
#[inline]
pub fn noise_at(prf: &dyn Prf, base: u128, j: u64, ew: u32, mw: u32) -> Hfp {
    noise_from_block(prf.eval_block(base.wrapping_add(j as u128)), ew, mw)
}

/// PRF blocks per refill of the fused loop's stack tile (4 KiB a stream).
const TILE: usize = 256;

/// The one loop under every float cipher: `dst[i] = f(input[i], noise)`
/// where the noise of element `i` is block `base + first + i` of each
/// stream in `bases` — the coordinates [`noise_at`] uses, so blocks
/// compose across calls. Blocks are generated a tile at a time on the
/// stack and consumed at once; results go straight into `dst`, which need
/// not be initialised and has `input`'s length.
///
/// On `Ok` every element of `dst` is initialised; on an `Err` from `f` the
/// pass stops. PRF blocks are attributed up front, one per element and
/// stream.
fn fused_noise_pass<const STREAMS: usize, I, O>(
    keys: &CommKeys,
    bases: [u128; STREAMS],
    first: u64,
    (ew, mw): (u32, u32),
    input: &[I],
    dst: &mut [MaybeUninit<O>],
    f: impl Fn(&I, [Hfp; STREAMS]) -> Result<O, HfpError>,
) -> Result<(), HfpError> {
    assert_eq!(input.len(), dst.len(), "one result slot per input element");
    let prf = keys.prf();
    hear_telemetry::add(blocks_metric(prf.backend()), (STREAMS * input.len()) as u64);
    let mut tiles = [[0u128; TILE]; STREAMS];
    for (t, (xs, os)) in input.chunks(TILE).zip(dst.chunks_mut(TILE)).enumerate() {
        let j = (first + (t * TILE) as u64) as u128;
        for (tile, base) in tiles.iter_mut().zip(bases) {
            prf.fill_blocks_uncounted(base.wrapping_add(j), &mut tile[..xs.len()]);
        }
        let blocks = tiles.each_ref().map(|tile| &tile[..xs.len()]);
        for (i, (x, o)) in xs.iter().zip(os).enumerate() {
            let noise = std::array::from_fn(|s| noise_from_block(blocks[s][i], ew, mw));
            o.write(f(x, noise)?);
        }
    }
    Ok(())
}

/// [`fused_noise_pass`] appending its results to `out`; on `Err`, `out` is
/// back at its entry length (it never left it).
fn fused_noise_extend<const STREAMS: usize, I, O>(
    keys: &CommKeys,
    bases: [u128; STREAMS],
    first: u64,
    widths: (u32, u32),
    input: &[I],
    out: &mut Vec<O>,
    f: impl Fn(&I, [Hfp; STREAMS]) -> Result<O, HfpError>,
) -> Result<(), HfpError> {
    // SAFETY: `fused_noise_pass` initialises all of `dst` on `Ok`.
    unsafe {
        extend_with(out, input.len(), |dst| {
            fused_noise_pass(keys, bases, first, widths, input, dst, f)
        })
    }
}

/// Homomorphic float summation, Eq. (7).
pub struct FloatSum {
    fmt: HfpFormat,
}

impl FloatSum {
    /// `fmt` must be an addition layout (δ = 2).
    pub fn new(fmt: HfpFormat) -> Self {
        assert_eq!(fmt.delta, 2, "the addition scheme requires δ = 2 (§5.3.5)");
        FloatSum { fmt }
    }

    pub fn format(&self) -> HfpFormat {
        self.fmt
    }

    /// Encrypt: encode each f64 into the plaintext layout, then ⊗ with the
    /// collective noise stream (no per-rank key — Eq. 7). On `Err`, `out`
    /// is empty.
    pub fn encrypt_f64(
        &self,
        keys: &CommKeys,
        first: u64,
        x: &[f64],
        out: &mut Vec<Hfp>,
    ) -> Result<(), HfpError> {
        let _s = hear_telemetry::span!("encrypt", elems = x.len());
        let (le, lm) = self.fmt.plain_widths();
        let (cew, cmw) = self.fmt.cipher_widths();
        let bases = [keys.base_collective()];
        out.clear();
        fused_noise_extend(keys, bases, first, (cew, cmw), x, out, |&v, [n]| {
            Ok(ops::mul(&Hfp::from_f64(v, le, lm)?, &n, cew, cmw))
        })
    }

    /// Decrypt an aggregated vector into `out` (cleared and filled):
    /// divide by the collective noise.
    pub fn decrypt_f64(&self, keys: &CommKeys, first: u64, agg: &[Hfp], out: &mut Vec<f64>) {
        out.clear();
        decrypt_extend(out, agg.len(), |dst| {
            self.decrypt_f64_to(keys, first, agg, dst)
        });
    }

    /// [`FloatSum::decrypt_f64`] into `dst` (same length as `agg`, need not
    /// be initialised; every element of it is on return).
    pub fn decrypt_f64_to(
        &self,
        keys: &CommKeys,
        first: u64,
        agg: &[Hfp],
        dst: &mut [MaybeUninit<f64>],
    ) {
        let _s = hear_telemetry::span!("decrypt", elems = agg.len());
        let widths = self.fmt.cipher_widths();
        strip_noise(keys, keys.base_collective(), first, widths, agg, dst, |v| v);
    }

    /// The operation the network applies: ring-exponent addition.
    #[inline]
    pub fn combine(a: &Hfp, b: &Hfp) -> Hfp {
        ops::add(a, b)
    }
}

/// Shared decryption tail: `dst[i] = post((agg[i] ⊘ noise).to_f64())`,
/// initialising all of `dst`.
fn strip_noise(
    keys: &CommKeys,
    base: u128,
    first: u64,
    (cew, cmw): (u32, u32),
    agg: &[Hfp],
    dst: &mut [MaybeUninit<f64>],
    post: impl Fn(f64) -> f64,
) {
    fused_noise_pass(keys, [base], first, (cew, cmw), agg, dst, |c, [n]| {
        Ok(post(ops::div(c, &n, cew, cmw).to_f64()))
    })
    .expect("stripping noise cannot fail");
}

/// The appending form of a float cipher's `decrypt_f64_to`.
fn decrypt_extend(out: &mut Vec<f64>, n: usize, to: impl FnOnce(&mut [MaybeUninit<f64>])) {
    // SAFETY: every `decrypt_f64_to` initialises all of `dst`
    // ([`strip_noise`] cannot fail part-way).
    let Ok(()) = unsafe {
        extend_with::<_, Infallible>(out, n, |dst| {
            to(dst);
            Ok(())
        })
    };
}

/// Homomorphic float product, Eq. (6) (telescoping orientation).
pub struct FloatProd {
    fmt: HfpFormat,
}

impl FloatProd {
    /// `fmt` must be a multiplication layout (δ = 0).
    pub fn new(fmt: HfpFormat) -> Self {
        assert_eq!(fmt.delta, 0, "the multiplication scheme requires δ = 0");
        FloatProd { fmt }
    }

    pub fn format(&self) -> HfpFormat {
        self.fmt
    }

    /// Encrypt: ⊗ with this rank's noise and, on every rank but the last,
    /// ⊘ by the next rank's (the cancelling pair). On `Err`, `out` is
    /// empty.
    pub fn encrypt_f64(
        &self,
        keys: &CommKeys,
        first: u64,
        x: &[f64],
        out: &mut Vec<Hfp>,
    ) -> Result<(), HfpError> {
        self.encrypt_mapped(keys, first, x, out, Ok)
    }

    /// [`FloatProd::encrypt_f64`] of `pre(x[i])` — the hook through which
    /// [`FloatSumExp`] exponentiates inside the same pass.
    fn encrypt_mapped(
        &self,
        keys: &CommKeys,
        first: u64,
        x: &[f64],
        out: &mut Vec<Hfp>,
        pre: impl Fn(f64) -> Result<f64, HfpError>,
    ) -> Result<(), HfpError> {
        let _s = hear_telemetry::span!("encrypt", elems = x.len());
        let (le, lm) = self.fmt.plain_widths();
        let (cew, cmw) = self.fmt.cipher_widths();
        let own = |v: f64, n: &Hfp| -> Result<Hfp, HfpError> {
            Ok(ops::mul(&Hfp::from_f64(pre(v)?, le, lm)?, n, cew, cmw))
        };
        out.clear();
        if keys.is_last() {
            let bases = [keys.base_own()];
            fused_noise_extend(keys, bases, first, (cew, cmw), x, out, |&v, [n]| own(v, &n))
        } else {
            let bases = [keys.base_own(), keys.base_next()];
            fused_noise_extend(keys, bases, first, (cew, cmw), x, out, |&v, [n, next]| {
                Ok(ops::div(&own(v, &n)?, &next, cew, cmw))
            })
        }
    }

    /// Decrypt an aggregated vector into `out` (cleared and filled).
    pub fn decrypt_f64(&self, keys: &CommKeys, first: u64, agg: &[Hfp], out: &mut Vec<f64>) {
        out.clear();
        decrypt_extend(out, agg.len(), |dst| {
            self.decrypt_f64_to(keys, first, agg, dst)
        });
    }

    /// [`FloatProd::decrypt_f64`] into `dst` (see
    /// [`FloatSum::decrypt_f64_to`]).
    pub fn decrypt_f64_to(
        &self,
        keys: &CommKeys,
        first: u64,
        agg: &[Hfp],
        dst: &mut [MaybeUninit<f64>],
    ) {
        self.decrypt_mapped(keys, first, agg, dst, |v| v);
    }

    /// [`FloatProd::decrypt_f64_to`] of `post(result[i])` — the hook through
    /// which [`FloatSumExp`] takes the logarithm inside the same pass.
    fn decrypt_mapped(
        &self,
        keys: &CommKeys,
        first: u64,
        agg: &[Hfp],
        dst: &mut [MaybeUninit<f64>],
        post: impl Fn(f64) -> f64,
    ) {
        let _s = hear_telemetry::span!("decrypt", elems = agg.len());
        let widths = self.fmt.cipher_widths();
        strip_noise(keys, keys.base_zero(), first, widths, agg, dst, post);
    }

    #[inline]
    pub fn combine(a: &Hfp, b: &Hfp) -> Hfp {
        let (ew, mw) = (a.ew, a.mw);
        ops::mul(a, b, ew, mw)
    }
}

/// Alternative addition (§5.3.4): `x → e^x`, multiplicative reduction,
/// `ln` after decryption. Useful for values in a small range (e.g.
/// normalized ML weights); provides global safety, unlike [`FloatSum`].
pub struct FloatSumExp {
    prod: FloatProd,
}

impl FloatSumExp {
    pub fn new(fmt: HfpFormat) -> Self {
        FloatSumExp {
            prod: FloatProd::new(fmt),
        }
    }

    pub fn format(&self) -> HfpFormat {
        self.prod.format()
    }

    /// On `Err` — including an `exp()` that leaves the scheme's dynamic
    /// range — `out` is empty.
    pub fn encrypt_f64(
        &self,
        keys: &CommKeys,
        first: u64,
        x: &[f64],
        out: &mut Vec<Hfp>,
    ) -> Result<(), HfpError> {
        self.prod.encrypt_mapped(keys, first, x, out, |v| {
            let e = v.exp();
            if e.is_finite() && e != 0.0 {
                Ok(e)
            } else {
                // exp() over/underflowed: the value is outside the
                // scheme's dynamic range.
                Err(HfpError::ExponentOverflow(0))
            }
        })
    }

    /// Decrypt an aggregated vector into `out` (cleared and filled).
    pub fn decrypt_f64(&self, keys: &CommKeys, first: u64, agg: &[Hfp], out: &mut Vec<f64>) {
        out.clear();
        decrypt_extend(out, agg.len(), |dst| {
            self.decrypt_f64_to(keys, first, agg, dst)
        });
    }

    /// [`FloatSumExp::decrypt_f64`] into `dst` (see
    /// [`FloatSum::decrypt_f64_to`]).
    pub fn decrypt_f64_to(
        &self,
        keys: &CommKeys,
        first: u64,
        agg: &[Hfp],
        dst: &mut [MaybeUninit<f64>],
    ) {
        self.prod.decrypt_mapped(keys, first, agg, dst, f64::ln);
    }

    #[inline]
    pub fn combine(a: &Hfp, b: &Hfp) -> Hfp {
        FloatProd::combine(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hear_prf::{Backend, PrfCipher};

    fn keys(world: usize) -> Vec<CommKeys> {
        CommKeys::generate(world, 0xBEEF, Backend::AesSoft)
    }

    #[test]
    fn noise_is_canonical_and_varied() {
        let prf = PrfCipher::new(Backend::AesSoft, 1).unwrap();
        let mut exps = std::collections::HashSet::new();
        for j in 0..256 {
            let n = noise_at(&prf, 7, j, 10, 23);
            assert!(n.is_canonical());
            assert!(!n.is_zero());
            exps.insert(n.exp);
        }
        // 10-bit exponents over 256 draws: expect wide coverage.
        assert!(
            exps.len() > 150,
            "noise exponents must be spread over the ring"
        );
    }

    /// Full encrypted allreduce for float sum: every rank encrypts, the
    /// network adds ciphertexts, one rank decrypts.
    fn float_sum_roundtrip(world: usize, fmt: HfpFormat, data: &[Vec<f64>]) -> Vec<f64> {
        let keys = keys(world);
        let scheme = FloatSum::new(fmt);
        let n = data[0].len();
        let (cew, cmw) = fmt.cipher_widths();
        let mut agg = vec![Hfp::zero(cew, cmw); n];
        let mut ct = Vec::new();
        for (rank, keys) in keys.iter().enumerate() {
            scheme.encrypt_f64(keys, 0, &data[rank], &mut ct).unwrap();
            for (a, c) in agg.iter_mut().zip(ct.iter()) {
                *a = FloatSum::combine(a, c);
            }
        }
        let mut out = Vec::new();
        scheme.decrypt_f64(&keys[0], 0, &agg, &mut out);
        out
    }

    #[test]
    fn float_sum_fp32_gamma2_accuracy() {
        let fmt = HfpFormat::fp32(2, 2);
        let data = vec![
            vec![1.5, -2.25, 3.0e-3, 1000.0],
            vec![0.5, 4.5, 2.0e-3, -500.0],
            vec![-1.0, 1.75, -1.0e-3, 250.0],
        ];
        let got = float_sum_roundtrip(3, fmt, &data);
        for j in 0..4 {
            let expect: f64 = data.iter().map(|v| v[j]).sum();
            let rel = (got[j] - expect).abs() / expect.abs().max(1e-12);
            assert!(rel < 1e-5, "j={j} got={} expect={expect} rel={rel}", got[j]);
        }
    }

    #[test]
    fn float_sum_large_magnitude_spread() {
        // Exponent differences exercise the ring alignment.
        let fmt = HfpFormat::fp32(2, 2);
        let data = vec![vec![1.0e10, 1.0e-10], vec![-1.0e10, 2.0e-10]];
        let got = float_sum_roundtrip(2, fmt, &data);
        // 1e10 - 1e10 = 0 exactly (same noise, same ciphertext magnitudes).
        assert!(
            got[0].abs() < 1.0,
            "cancellation should be near-exact, got {}",
            got[0]
        );
        let rel = (got[1] - 3.0e-10).abs() / 3.0e-10;
        assert!(rel < 1e-5, "rel={rel}");
    }

    #[test]
    fn float_sum_gamma0_loses_more_precision_than_gamma2() {
        let data: Vec<Vec<f64>> = (0..4)
            .map(|r| {
                (0..64)
                    .map(|j| ((r * 64 + j) as f64).sin() * 3.0 + 3.5)
                    .collect()
            })
            .collect();
        let expect: Vec<f64> = (0..64)
            .map(|j| data.iter().map(|v| v[j]).sum::<f64>())
            .collect();
        let err = |gamma: u32| -> f64 {
            let got = float_sum_roundtrip(4, HfpFormat::fp32(2, gamma), &data);
            got.iter()
                .zip(&expect)
                .map(|(g, e)| ((g - e) / e).abs())
                .sum::<f64>()
                / 64.0
        };
        let (e0, e2) = (err(0), err(2));
        assert!(e0 > e2, "γ=0 mean rel err {e0} should exceed γ=2 {e2}");
        assert!(e2 < 1e-5);
    }

    #[test]
    fn float_sum_rejects_nan() {
        let keys = keys(2);
        let scheme = FloatSum::new(HfpFormat::fp32(2, 2));
        let mut out = Vec::new();
        assert_eq!(
            scheme.encrypt_f64(&keys[0], 0, &[f64::NAN], &mut out),
            Err(HfpError::NonFinite)
        );
    }

    #[test]
    fn float_sum_zero_inputs_become_smallest() {
        let fmt = HfpFormat::fp32(2, 2);
        let data = vec![vec![0.0, 5.0], vec![0.0, 0.0]];
        let got = float_sum_roundtrip(2, fmt, &data);
        // Zeros decode to tiny magnitudes, not exact zero.
        assert!(got[0].abs() < 1e-30);
        assert!((got[1] - 5.0).abs() / 5.0 < 1e-5);
    }

    fn float_prod_roundtrip(world: usize, fmt: HfpFormat, data: &[Vec<f64>]) -> Vec<f64> {
        let keys = keys(world);
        let scheme = FloatProd::new(fmt);
        let n = data[0].len();
        let (cew, cmw) = fmt.cipher_widths();
        let mut agg = vec![Hfp::one(cew, cmw); n];
        let mut ct = Vec::new();
        for (rank, keys) in keys.iter().enumerate() {
            scheme.encrypt_f64(keys, 0, &data[rank], &mut ct).unwrap();
            for (a, c) in agg.iter_mut().zip(ct.iter()) {
                *a = FloatProd::combine(a, c);
            }
        }
        let mut out = Vec::new();
        scheme.decrypt_f64(&keys[0], 0, &agg, &mut out);
        out
    }

    #[test]
    fn float_prod_fp32_accuracy() {
        let fmt = HfpFormat::fp32(0, 0);
        let data = vec![
            vec![1.5, -2.0, 0.125],
            vec![2.0, 3.0, -8.0],
            vec![-4.0, 0.5, 2.0],
        ];
        let got = float_prod_roundtrip(3, fmt, &data);
        let expect = [1.5 * 2.0 * -4.0, -2.0 * 3.0 * 0.5, 0.125 * -8.0 * 2.0];
        for j in 0..3 {
            let rel = (got[j] - expect[j]).abs() / expect[j].abs();
            assert!(
                rel < 1e-5,
                "j={j} got={} expect={} rel={rel}",
                got[j],
                expect[j]
            );
        }
    }

    #[test]
    fn float_prod_single_rank() {
        // world=1: the rank is last, no cancellation division at all.
        let got = float_prod_roundtrip(1, HfpFormat::fp32(0, 0), &[vec![3.25, -0.5]]);
        assert!((got[0] - 3.25).abs() < 1e-6);
        assert!((got[1] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn float_prod_fp64_tighter_than_fp16() {
        let data = vec![vec![1.1; 8], vec![0.9; 8]];
        let expect = 1.1 * 0.9;
        let rel = |fmt: HfpFormat| -> f64 {
            let got = float_prod_roundtrip(2, fmt, &data);
            got.iter()
                .map(|g| ((g - expect) / expect).abs())
                .sum::<f64>()
                / 8.0
        };
        let r16 = rel(HfpFormat::fp16(0, 0));
        let r64 = rel(HfpFormat::fp64(0, 0));
        assert!(
            r64 < r16 / 1e6,
            "fp64 {r64} must be far tighter than fp16 {r16}"
        );
    }

    #[test]
    fn float_sum_exp_small_range() {
        let keys = keys(2);
        let scheme = FloatSumExp::new(HfpFormat::fp64(0, 0));
        let data = [vec![0.5, -0.25, 0.01], vec![0.1, 0.05, -0.02]];
        let (cew, cmw) = scheme.format().cipher_widths();
        let mut agg = vec![Hfp::one(cew, cmw); 3];
        let mut ct = Vec::new();
        for (rank, k) in keys.iter().enumerate() {
            scheme.encrypt_f64(k, 0, &data[rank], &mut ct).unwrap();
            for (a, c) in agg.iter_mut().zip(ct.iter()) {
                *a = FloatSumExp::combine(a, c);
            }
        }
        let mut out = Vec::new();
        scheme.decrypt_f64(&keys[0], 0, &agg, &mut out);
        let expect = [0.6, -0.2, -0.01];
        for j in 0..3 {
            assert!(
                (out[j] - expect[j]).abs() < 1e-9,
                "j={j} got={} expect={}",
                out[j],
                expect[j]
            );
        }
    }

    #[test]
    fn float_sum_exp_rejects_out_of_range() {
        let keys = keys(2);
        let scheme = FloatSumExp::new(HfpFormat::fp64(0, 0));
        let mut out = Vec::new();
        // e^1000 overflows f64.
        assert!(scheme
            .encrypt_f64(&keys[0], 0, &[1000.0], &mut out)
            .is_err());
    }

    #[test]
    fn sum_no_global_safety_but_prod_has_it() {
        // Same plaintext on two ranks: Eq. 7 (shared noise) produces equal
        // ciphertexts (no global safety — the paper's documented trade),
        // while Eq. 6 (per-rank noise) produces different ones.
        let keys = keys(3);
        let sum = FloatSum::new(HfpFormat::fp32(2, 2));
        let prod = FloatProd::new(HfpFormat::fp32(0, 0));
        let x = [std::f64::consts::PI];
        let (mut c0, mut c1) = (Vec::new(), Vec::new());
        sum.encrypt_f64(&keys[0], 0, &x, &mut c0).unwrap();
        sum.encrypt_f64(&keys[1], 0, &x, &mut c1).unwrap();
        assert_eq!(c0[0], c1[0], "Eq. 7 shares the noise stream");
        prod.encrypt_f64(&keys[0], 0, &x, &mut c0).unwrap();
        prod.encrypt_f64(&keys[1], 0, &x, &mut c1).unwrap();
        assert_ne!(c0[0], c1[0], "Eq. 6 uses per-rank noise");
    }

    #[test]
    fn temporal_safety_for_floats() {
        let mut ks = keys(2);
        let scheme = FloatSum::new(HfpFormat::fp32(2, 2));
        let x = [42.0];
        let (mut c1, mut c2) = (Vec::new(), Vec::new());
        scheme.encrypt_f64(&ks[0], 0, &x, &mut c1).unwrap();
        ks[0].advance();
        scheme.encrypt_f64(&ks[0], 0, &x, &mut c2).unwrap();
        assert_ne!(c1[0], c2[0]);
    }

    #[test]
    fn block_offsets_compose_for_floats() {
        let ks = keys(2);
        let scheme = FloatSum::new(HfpFormat::fp32(2, 2));
        let x: Vec<f64> = (1..=8).map(|v| v as f64).collect();
        let mut whole = Vec::new();
        scheme.encrypt_f64(&ks[0], 0, &x, &mut whole).unwrap();
        let (mut p1, mut p2) = (Vec::new(), Vec::new());
        scheme.encrypt_f64(&ks[0], 0, &x[..3], &mut p1).unwrap();
        scheme.encrypt_f64(&ks[0], 3, &x[3..], &mut p2).unwrap();
        assert_eq!(&whole[..3], &p1[..]);
        assert_eq!(&whole[3..], &p2[..]);
    }
}

/// The float ciphers as first written — noise staged into a `Vec<Hfp>`,
/// then a second pass over it with the scalar [`ops::reference`] kernels —
/// kept as what the fused loop is tested against, bit for bit.
#[cfg(test)]
mod reference {
    use super::*;
    use hear_hfp::ops::reference::{div, mul};

    fn noise_fill_n(keys: &CommKeys, base: u128, first: u64, n: usize, fmt: HfpFormat) -> Vec<Hfp> {
        let (ew, mw) = fmt.cipher_widths();
        let mut out = Vec::with_capacity(n);
        const BATCH: usize = 256;
        let mut blocks = [0u128; BATCH];
        let mut j = first;
        let mut left = n;
        while left > 0 {
            let take = left.min(BATCH);
            keys.prf()
                .fill_blocks(base.wrapping_add(j as u128), &mut blocks[..take]);
            for b in &blocks[..take] {
                out.push(noise_from_block(*b, ew, mw));
            }
            j += take as u64;
            left -= take;
        }
        out
    }

    pub fn sum_encrypt(
        fmt: HfpFormat,
        keys: &CommKeys,
        first: u64,
        x: &[f64],
    ) -> Result<Vec<Hfp>, HfpError> {
        let (le, lm) = fmt.plain_widths();
        let (cew, cmw) = fmt.cipher_widths();
        let noise = noise_fill_n(keys, keys.base_collective(), first, x.len(), fmt);
        let mut out = Vec::new();
        for (&v, n) in x.iter().zip(&noise) {
            let plain = Hfp::from_f64(v, le, lm)?;
            out.push(mul(&plain, n, cew, cmw));
        }
        Ok(out)
    }

    pub fn prod_encrypt(
        fmt: HfpFormat,
        keys: &CommKeys,
        first: u64,
        x: &[f64],
    ) -> Result<Vec<Hfp>, HfpError> {
        let (le, lm) = fmt.plain_widths();
        let (cew, cmw) = fmt.cipher_widths();
        let own = noise_fill_n(keys, keys.base_own(), first, x.len(), fmt);
        let next = if keys.is_last() {
            Vec::new()
        } else {
            noise_fill_n(keys, keys.base_next(), first, x.len(), fmt)
        };
        let mut out = Vec::new();
        for (i, &v) in x.iter().enumerate() {
            let plain = Hfp::from_f64(v, le, lm)?;
            let c = mul(&plain, &own[i], cew, cmw);
            out.push(if keys.is_last() {
                c
            } else {
                div(&c, &next[i], cew, cmw)
            });
        }
        Ok(out)
    }

    pub fn sum_exp_encrypt(
        fmt: HfpFormat,
        keys: &CommKeys,
        first: u64,
        x: &[f64],
    ) -> Result<Vec<Hfp>, HfpError> {
        let encoded: Vec<f64> = x.iter().map(|v| v.exp()).collect();
        for e in &encoded {
            if !e.is_finite() || *e == 0.0 {
                return Err(HfpError::ExponentOverflow(0));
            }
        }
        prod_encrypt(fmt, keys, first, &encoded)
    }

    /// Decryption of all three: divide by the stream at `base`.
    pub fn decrypt(
        fmt: HfpFormat,
        keys: &CommKeys,
        base: u128,
        first: u64,
        agg: &[Hfp],
    ) -> Vec<f64> {
        let (cew, cmw) = fmt.cipher_widths();
        let noise = noise_fill_n(keys, base, first, agg.len(), fmt);
        agg.iter()
            .zip(&noise)
            .map(|(c, n)| div(c, n, cew, cmw).to_f64_by_scaling())
            .collect()
    }
}

/// The fused loop against [`reference`], over fp16 / fp32 / fp64 × γ ∈
/// {0, 2} at each cipher's δ, every rank position (first, middle, last —
/// the product cipher's one- and two-stream passes), and slice lengths
/// around the 256-block tile.
#[cfg(test)]
mod bit_identity {
    use super::*;
    use hear_prf::Backend;
    use hear_telemetry::Registry;
    use proptest::prelude::*;
    use proptest::TestRng;

    const LENGTHS: [usize; 6] = [0, 1, 255, 256, 257, 600];

    fn formats(delta: u32) -> Vec<HfpFormat> {
        let mut v = Vec::new();
        for gamma in [0, 2] {
            v.push(HfpFormat::fp16(delta, gamma));
            v.push(HfpFormat::fp32(delta, gamma));
            if gamma <= delta {
                // fp64's ciphertext mantissa is capped at 52 bits.
                v.push(HfpFormat::fp64(delta, gamma));
            }
        }
        v
    }

    /// Plaintexts that fit `fmt`'s exponent field, with the encoder's
    /// special inputs mixed in: ±0, f64 subnormals, values that underflow
    /// the layout and clamp to its smallest magnitude.
    fn plaintexts(rng: &mut TestRng, fmt: HfpFormat, n: usize) -> Vec<f64> {
        let max_e = (1i32 << (fmt.le - 1)) - 2;
        (0..n)
            .map(|_| match rng.next_u64() % 16 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::from_bits(rng.next_u64() >> 12), // subnormal
                3 => -f64::MIN_POSITIVE,
                4 => f64::powi(2.0, -max_e - 3),
                _ => {
                    let m = 1.0 + rng.next_f64();
                    let e = rng.gen_range(-max_e..=max_e);
                    let v = m * f64::powi(2.0, e);
                    if rng.gen_bool(0.5) {
                        -v
                    } else {
                        v
                    }
                }
            })
            .collect()
    }

    /// Aggregates as the network would hand them back: any canonical
    /// ciphertext, plus exact zeros (a full cancellation).
    fn aggregates(rng: &mut TestRng, fmt: HfpFormat, n: usize) -> Vec<Hfp> {
        let (ew, mw) = fmt.cipher_widths();
        (0..n)
            .map(|_| {
                if rng.next_u64().is_multiple_of(16) {
                    Hfp::zero(ew, mw)
                } else {
                    noise_from_block(rng.next_u128(), ew, mw)
                }
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn float_sum_equals_reference(seed in any::<u64>(), first in 0u64..1 << 40) {
            let mut rng = TestRng::new(seed);
            let keys = CommKeys::generate(3, seed, Backend::best_available());
            for fmt in formats(2) {
                let cipher = FloatSum::new(fmt);
                for (n, k) in LENGTHS.into_iter().zip(keys.iter().cycle()) {
                    let x = plaintexts(&mut rng, fmt, n);
                    let mut ct = vec![Hfp::zero(1, 1)]; // stale content must go
                    cipher.encrypt_f64(k, first, &x, &mut ct).unwrap();
                    prop_assert_eq!(&ct, &reference::sum_encrypt(fmt, k, first, &x).unwrap());
                    let agg = aggregates(&mut rng, fmt, n);
                    let mut pt = vec![f64::NAN];
                    cipher.decrypt_f64(k, first, &agg, &mut pt);
                    let want = reference::decrypt(fmt, k, k.base_collective(), first, &agg);
                    prop_assert_eq!(bits(&pt), bits(&want));
                }
            }
        }

        #[test]
        fn float_prod_and_sum_exp_equal_reference(seed in any::<u64>(), first in 0u64..1 << 40) {
            let mut rng = TestRng::new(seed);
            let keys = CommKeys::generate(3, seed, Backend::best_available());
            for fmt in formats(0) {
                let (prod, sum_exp) = (FloatProd::new(fmt), FloatSumExp::new(fmt));
                for (n, k) in LENGTHS.into_iter().zip(keys.iter().cycle()) {
                    let x = plaintexts(&mut rng, fmt, n);
                    let mut ct = Vec::new();
                    prod.encrypt_f64(k, first, &x, &mut ct).unwrap();
                    prop_assert_eq!(&ct, &reference::prod_encrypt(fmt, k, first, &x).unwrap());
                    // e^x must stay inside the layout's exponent range.
                    let span = f64::from(1u32 << (fmt.le - 1)) * 0.6;
                    let small: Vec<f64> = (0..n).map(|_| (rng.next_f64() - 0.5) * span).collect();
                    sum_exp.encrypt_f64(k, first, &small, &mut ct).unwrap();
                    prop_assert_eq!(&ct, &reference::sum_exp_encrypt(fmt, k, first, &small).unwrap());
                    let agg = aggregates(&mut rng, fmt, n);
                    let mut pt = Vec::new();
                    prod.decrypt_f64(k, first, &agg, &mut pt);
                    let want = reference::decrypt(fmt, k, k.base_zero(), first, &agg);
                    prop_assert_eq!(bits(&pt), bits(&want));
                    sum_exp.decrypt_f64(k, first, &agg, &mut pt);
                    let want: Vec<f64> = want.iter().map(|v| v.ln()).collect();
                    prop_assert_eq!(bits(&pt), bits(&want));
                }
            }
        }

        #[test]
        fn blocks_compose_at_any_offset(seed in any::<u64>(), first in 1u64..1 << 40, split in 0usize..600) {
            // [a, b] @ first ++ [c] @ first + 2 == [a, b, c] @ first, with
            // the split anywhere relative to the tile.
            let mut rng = TestRng::new(seed);
            let keys = CommKeys::generate(2, seed, Backend::best_available());
            let fmt = HfpFormat::fp64(2, 2);
            let cipher = FloatSum::new(fmt);
            let x = plaintexts(&mut rng, fmt, 600);
            let (mut whole, mut head, mut tail) = (Vec::new(), Vec::new(), Vec::new());
            cipher.encrypt_f64(&keys[0], first, &x, &mut whole).unwrap();
            cipher.encrypt_f64(&keys[0], first, &x[..split], &mut head).unwrap();
            cipher.encrypt_f64(&keys[0], first + split as u64, &x[split..], &mut tail).unwrap();
            head.extend_from_slice(&tail);
            prop_assert_eq!(&whole, &head);
            let (mut whole_pt, mut head_pt, mut tail_pt) = (Vec::new(), Vec::new(), Vec::new());
            cipher.decrypt_f64(&keys[1], first, &whole, &mut whole_pt);
            cipher.decrypt_f64(&keys[1], first, &whole[..split], &mut head_pt);
            cipher.decrypt_f64(&keys[1], first + split as u64, &whole[split..], &mut tail_pt);
            head_pt.extend_from_slice(&tail_pt);
            prop_assert_eq!(bits(&whole_pt), bits(&head_pt));
        }
    }

    #[test]
    fn one_prf_block_per_element_and_stream() {
        // The fused loop fills tiles uncounted and attributes once: the
        // totals must be what the per-block counted fills added up to.
        let keys = CommKeys::generate(2, 0xB10C, Backend::best_available());
        let metric = blocks_metric(keys[0].prf().backend());
        let x = vec![1.5; 777];
        let counted = |run: &dyn Fn()| {
            let reg = Registry::new_enabled();
            let _ctx = reg.install(Some(0));
            run();
            reg.counter(metric)
        };
        let sum = FloatSum::new(HfpFormat::fp64(2, 2));
        let prod = FloatProd::new(HfpFormat::fp64(0, 0));
        let mut ct = Vec::new();
        assert_eq!(
            counted(&|| sum.encrypt_f64(&keys[0], 5, &x, &mut Vec::new()).unwrap()),
            777
        );
        sum.encrypt_f64(&keys[0], 5, &x, &mut ct).unwrap();
        assert_eq!(
            counted(&|| sum.decrypt_f64(&keys[0], 5, &ct, &mut Vec::new())),
            777
        );
        // Own + next stream on rank 0, own alone on the last rank.
        assert_eq!(
            counted(&|| prod.encrypt_f64(&keys[0], 5, &x, &mut Vec::new()).unwrap()),
            2 * 777
        );
        assert_eq!(
            counted(&|| prod.encrypt_f64(&keys[1], 5, &x, &mut Vec::new()).unwrap()),
            777
        );
        prod.encrypt_f64(&keys[1], 5, &x, &mut ct).unwrap();
        assert_eq!(
            counted(&|| prod.decrypt_f64(&keys[1], 5, &ct, &mut Vec::new())),
            777
        );
    }

    #[test]
    fn an_encode_error_leaves_no_partial_ciphertext() {
        let keys = CommKeys::generate(2, 0xE44, Backend::best_available());
        // The offender sits past the first tile, after 300 good elements.
        let mut x = vec![0.25; 400];
        let stale = vec![Hfp::one(4, 4); 3];
        for (bad, err) in [
            (f64::NAN, HfpError::NonFinite),
            (f64::NEG_INFINITY, HfpError::NonFinite),
            (f64::powi(2.0, 200), HfpError::ExponentOverflow(200)),
        ] {
            x[300] = bad;
            for k in &keys {
                let mut out = stale.clone();
                let sum = FloatSum::new(HfpFormat::fp32(2, 2));
                assert_eq!(sum.encrypt_f64(k, 0, &x, &mut out), Err(err));
                assert!(out.is_empty(), "FloatSum left {} elements", out.len());
                let mut out = stale.clone();
                let prod = FloatProd::new(HfpFormat::fp32(0, 0));
                assert_eq!(prod.encrypt_f64(k, 0, &x, &mut out), Err(err));
                assert!(out.is_empty(), "FloatProd left {} elements", out.len());
            }
        }
        // e^1000 overflows f64 before the encoder ever sees it.
        x[300] = 1000.0;
        let mut out = stale.clone();
        let sum_exp = FloatSumExp::new(HfpFormat::fp64(0, 0));
        assert!(sum_exp.encrypt_f64(&keys[0], 0, &x, &mut out).is_err());
        assert!(out.is_empty(), "FloatSumExp left {} elements", out.len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use hear_prf::Backend;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn float_sum_roundtrip_error_bounded(
            world in 1usize..5,
            seed in any::<u64>(),
            vals in proptest::collection::vec(0.1f64..10.0, 1..16),
        ) {
            let keys = CommKeys::generate(world, seed, Backend::AesSoft);
            let fmt = HfpFormat::fp32(2, 2);
            let scheme = FloatSum::new(fmt);
            let (cew, cmw) = fmt.cipher_widths();
            let mut agg = vec![Hfp::zero(cew, cmw); vals.len()];
            let mut ct = Vec::new();
            for k in &keys {
                scheme.encrypt_f64(k, 0, &vals, &mut ct).unwrap();
                for (a, c) in agg.iter_mut().zip(ct.iter()) {
                    *a = FloatSum::combine(a, c);
                }
            }
            let mut out = Vec::new();
            scheme.decrypt_f64(&keys[0], 0, &agg, &mut out);
            for (j, got) in out.iter().enumerate() {
                let expect = vals[j] * world as f64;
                let rel = (got - expect).abs() / expect;
                prop_assert!(rel < 1e-4, "j={} got={} expect={} rel={}", j, got, expect, rel);
            }
        }

        #[test]
        fn float_prod_roundtrip_error_bounded(
            world in 1usize..4,
            seed in any::<u64>(),
            vals in proptest::collection::vec(0.5f64..2.0, 1..12),
        ) {
            let keys = CommKeys::generate(world, seed, Backend::AesSoft);
            let fmt = HfpFormat::fp32(0, 0);
            let scheme = FloatProd::new(fmt);
            let (cew, cmw) = fmt.cipher_widths();
            let mut agg = vec![Hfp::one(cew, cmw); vals.len()];
            let mut ct = Vec::new();
            for k in &keys {
                scheme.encrypt_f64(k, 0, &vals, &mut ct).unwrap();
                for (a, c) in agg.iter_mut().zip(ct.iter()) {
                    *a = FloatProd::combine(a, c);
                }
            }
            let mut out = Vec::new();
            scheme.decrypt_f64(&keys[0], 0, &agg, &mut out);
            for (j, got) in out.iter().enumerate() {
                let expect = vals[j].powi(world as i32);
                let rel = (got - expect).abs() / expect;
                prop_assert!(rel < 1e-4, "j={} rel={}", j, rel);
            }
        }
    }
}

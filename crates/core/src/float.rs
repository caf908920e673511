//! Floating-point schemes (paper §5.3) on the HFP format.
//!
//! * [`FloatSumScheme`] — Eq. (7): every rank multiplies by the *same* PRF
//!   noise `F_ke(kc + j)` so the untrusted network can add ciphertexts with
//!   the ring-exponent logic (δ = 2). Provides temporal and local safety
//!   but — by construction — not global safety.
//! * [`FloatProdScheme`] — Eq. (6): per-rank noise with the cancelling
//!   technique (δ = 0, no inflation). We implement the telescoping
//!   orientation consistent with the stated Θ(1) decryption (see
//!   DESIGN.md).
//! * [`FloatSumExpScheme`] — §5.3.4 alternative addition: values are
//!   encoded as `e^x` and reduced multiplicatively, trading precision and
//!   dynamic range for global safety.

use crate::fixed::FixedCodec;
use crate::keys::CommKeys;
use crate::scheme::{Scheme, DIGEST_LANES};
use hear_hfp::format::{Hfp, HfpError, HfpFormat};
use hear_hfp::ops;
use hear_hfp::ringexp::mask;
use hear_prf::{par_block_pass, Payload, Prf, Stream, WorkerPool};
use std::convert::Infallible;

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

/// The one pass under every float cipher, a [`par_block_pass`] on the
/// rank's pool: `dst[i] ← f(src[i], blocks)`, `blocks[s]` the block
/// `F(bases[s] + first + i)` that [`noise_at`] reads, so blocks compose
/// across calls. A failed mask (`Extend` to a cleared `out`) leaves `out`
/// empty.
fn noise_pass<S, D, E, const N: usize>(
    keys: &CommKeys,
    bases: [u128; N],
    first: u64,
    payload: Payload<'_, D, &[S]>,
    f: impl Fn(S, [u128; N]) -> Result<D, E> + Copy + Sync,
) -> Result<(), E>
where
    S: Copy + Sync,
    D: Send,
    E: Send,
{
    let streams = bases.map(|base| Stream {
        prf: keys.prf(),
        base,
    });
    WorkerPool::with_current(|pool| par_block_pass(pool, &streams, first, payload, f))
}

/// One format's element kernels, its widths read once per pass: the ⊗ and
/// ⊘ of Eq. 5–7 on the significands ([`ops::mul_sig`], [`ops::div_sig`])
/// with the exponents on the ciphertext ring — what `Hfp::from_f64`,
/// [`ops::mul`] and [`ops::div`] compute, without their per-call width
/// handling.
#[derive(Clone, Copy)]
struct Kernels {
    plain: (u32, u32),
    cew: u32,
    cmw: u32,
}

impl Kernels {
    fn new(fmt: HfpFormat) -> Self {
        let (cew, cmw) = fmt.cipher_widths();
        Kernels {
            plain: fmt.plain_widths(),
            cew,
            cmw,
        }
    }

    /// The noise [`noise_from_block`] derives from `block` at the cipher
    /// widths.
    #[inline(always)]
    fn noise(self, block: u128) -> Hfp {
        noise_from_block(block, self.cew, self.cmw)
    }

    /// `v ⊗ n`: `v` encoded into the plaintext layout, times the noise.
    #[inline(always)]
    fn encrypt(self, v: f64, n: &Hfp) -> Result<Hfp, HfpError> {
        let (sign, sig, e) = self.encode(v)?;
        let (sig, k) = ops::mul_sig(sig, n.sig, self.cmw);
        // Eq. 5: the exponents add on the ciphertext ring.
        let shift = e + k - i64::from(self.plain.1) - i64::from(self.cmw);
        Ok(self.cipher(sign ^ n.sign, n.exp.wrapping_add(shift as u64), sig))
    }

    /// `c ⊘ n` for a canonical ciphertext `c` of this format.
    #[inline(always)]
    fn strip(self, c: &Hfp, n: &Hfp) -> Hfp {
        let (sig, k) = ops::div_sig(c.sig, n.sig, self.cmw);
        self.cipher(
            c.sign ^ n.sign,
            c.exp.wrapping_sub(n.exp).wrapping_add(k as u64),
            sig,
        )
    }

    /// `(agg ⊘ n).to_f64()`. An aggregate of another format (a foreign
    /// peer's, or [`ops::FOREIGN`] from a combine) decrypts to NaN; a zero
    /// or a tampered significand takes [`ops::div`], which sends it to the
    /// reference kernel.
    #[inline(always)]
    fn decrypt(self, agg: &Hfp, n: &Hfp) -> f64 {
        if (agg.ew, agg.mw) != (self.cew, self.cmw) {
            f64::NAN
        } else if agg.sig >> self.cmw == 1 {
            self.strip(agg, n).to_f64()
        } else {
            ops::div(agg, n, self.cew, self.cmw).to_f64()
        }
    }

    /// `Hfp::from_f64(v, le, lm)` as (sign, significand, signed exponent).
    /// A normal `v` under a layout that holds every `f64` exponent and all
    /// 53 significand bits is read straight off its bits.
    #[inline(always)]
    fn encode(self, v: f64) -> Result<(bool, u64, i64), HfpError> {
        let (le, lm) = self.plain;
        let bits = v.to_bits();
        let biased = (bits >> 52) & 0x7ff;
        if lm == 52 && le >= 11 && biased.wrapping_sub(1) < 0x7fe {
            return Ok((
                bits >> 63 == 1,
                bits & mask(52) | 1 << 52,
                biased as i64 - 1023,
            ));
        }
        let h = Hfp::from_f64(v, le, lm)?;
        Ok((h.sign, h.sig, h.exponent()))
    }

    #[inline(always)]
    fn cipher(self, sign: bool, exp: u64, sig: u64) -> Hfp {
        Hfp {
            sign,
            exp: exp & mask(self.cew),
            sig,
            ew: self.cew,
            mw: self.cmw,
        }
    }
}

/// Shared decryption tail: `dst[i] = post((agg[i] ⊘ noise).to_f64())` for
/// a `dst` of `agg`'s length. An element of another format decrypts to
/// NaN.
fn strip_noise(
    keys: &CommKeys,
    base: u128,
    first: u64,
    fmt: HfpFormat,
    agg: &[Hfp],
    dst: &mut [f64],
    post: impl Fn(f64) -> f64 + Copy + Sync,
) {
    let (_s, k) = (
        hear_telemetry::span!("decrypt", elems = agg.len()),
        Kernels::new(fmt),
    );
    let decrypt = move |c, [b]: [u128; 1]| Ok::<_, Infallible>(post(k.decrypt(&c, &k.noise(b))));
    let Ok(()) = noise_pass(keys, [base], first, Payload::Into(agg, dst), decrypt);
}

/// Quantized-digest tolerance: `world` quantization steps plus the
/// scheme's Table 2 relative loss plus an absolute floor.
#[inline]
fn float_digest_ok(result: f64, decoded: f64, world: usize, res: f64, rel: f64, abs: f64) -> bool {
    (decoded - result).abs() <= world as f64 * res + result.abs() * rel + abs
}

/// Homomorphic float summation (Eq. 7, v1) as a [`Scheme`]; minor loss,
/// quantized digest.
pub struct FloatSumScheme {
    fmt: HfpFormat,
    digest_codec: FixedCodec,
}

impl FloatSumScheme {
    /// `fmt` must be an addition layout (δ = 2).
    pub fn new(fmt: HfpFormat) -> Self {
        assert_eq!(fmt.delta, 2, "the addition scheme requires δ = 2 (§5.3.5)");
        FloatSumScheme {
            fmt,
            digest_codec: FixedCodec::new(24),
        }
    }

    pub fn format(&self) -> HfpFormat {
        self.fmt
    }
}

impl Scheme for FloatSumScheme {
    type Input = f64;
    type Wire = Hfp;
    type Lanes = [u64; 2];

    const NAME: &'static str = "float-sum-v1";
    const TABLE2_ROW: usize = 3;

    /// Encode each f64 into the plaintext layout, then ⊗ with the
    /// collective noise stream (no per-rank key — Eq. 7).
    fn mask_slice(
        &mut self,
        keys: &CommKeys,
        first: u64,
        input: &[f64],
        out: &mut Vec<Hfp>,
    ) -> Result<(), HfpError> {
        let _s = hear_telemetry::span!("encrypt", elems = input.len());
        let (k, base) = (Kernels::new(self.fmt), keys.base_collective());
        out.clear();
        noise_pass(
            keys,
            [base],
            first,
            Payload::Extend(input, out),
            move |v, [n]| k.encrypt(v, &k.noise(n)),
        )
    }

    /// ⊘ the collective noise.
    fn unmask_into(&mut self, keys: &CommKeys, first: u64, agg: &[Hfp], dst: &mut [f64]) {
        strip_noise(
            keys,
            keys.base_collective(),
            first,
            self.fmt,
            agg,
            dst,
            |v| v,
        );
    }

    /// Ring-exponent addition. Operands of different widths give
    /// [`ops::FOREIGN`].
    #[inline(always)]
    fn op(a: &Hfp, b: &Hfp) -> Hfp {
        ops::add(a, b)
    }

    fn digest(&self, x: &f64, out: &mut [u64; DIGEST_LANES]) {
        *out = [self.digest_codec.encode(*x), 0, 0, 0];
    }

    fn digest_check(&self, result: &f64, lane_sums: &[u64; DIGEST_LANES], world: usize) -> bool {
        let decoded = self.digest_codec.decode(lane_sums[0]);
        float_digest_ok(
            *result,
            decoded,
            world,
            self.digest_codec.resolution(),
            1e-4,
            1e-9,
        )
    }

    fn cell_encode(x: &f64) -> u64 {
        x.to_bits()
    }

    fn cell_decode(cell: u64) -> f64 {
        f64::from_bits(cell)
    }
}

/// Eq. (6)'s encryption of `pre(x[i])`: ⊗ with this rank's noise and, on
/// every rank but the last, ⊘ by the next rank's (the cancelling pair) —
/// one pass over both streams. [`FloatSumExpScheme`] exponentiates
/// through `pre`.
fn prod_mask(
    fmt: HfpFormat,
    keys: &CommKeys,
    first: u64,
    x: &[f64],
    out: &mut Vec<Hfp>,
    pre: impl Fn(f64) -> Result<f64, HfpError> + Copy + Sync,
) -> Result<(), HfpError> {
    let _s = hear_telemetry::span!("encrypt", elems = x.len());
    let (k, own) = (Kernels::new(fmt), keys.base_own());
    out.clear();
    let payload = Payload::Extend(x, out);
    if keys.is_last() {
        noise_pass(keys, [own], first, payload, move |v, [o]| {
            k.encrypt(pre(v)?, &k.noise(o))
        })
    } else {
        noise_pass(
            keys,
            [own, keys.base_next()],
            first,
            payload,
            move |v, [o, n]| Ok(k.strip(&k.encrypt(pre(v)?, &k.noise(o))?, &k.noise(n))),
        )
    }
}

/// Homomorphic float product (Eq. 6, telescoping orientation) as a
/// [`Scheme`]; minor loss. The digest carries the log-magnitude (products
/// become sums) plus sign and zero counters.
pub struct FloatProdScheme {
    fmt: HfpFormat,
    digest_codec: FixedCodec,
}

impl FloatProdScheme {
    /// `fmt` must be a multiplication layout (δ = 0).
    pub fn new(fmt: HfpFormat) -> Self {
        assert_eq!(fmt.delta, 0, "the multiplication scheme requires δ = 0");
        FloatProdScheme {
            fmt,
            digest_codec: FixedCodec::new(32),
        }
    }

    pub fn format(&self) -> HfpFormat {
        self.fmt
    }
}

impl Scheme for FloatProdScheme {
    type Input = f64;
    type Wire = Hfp;
    type Lanes = [u64; 4];

    const NAME: &'static str = "float-prod";
    const TABLE2_ROW: usize = 5;

    fn mask_slice(
        &mut self,
        keys: &CommKeys,
        first: u64,
        input: &[f64],
        out: &mut Vec<Hfp>,
    ) -> Result<(), HfpError> {
        prod_mask(self.fmt, keys, first, input, out, Ok)
    }

    /// ⊘ rank 0's noise, all that survives the telescoping product.
    fn unmask_into(&mut self, keys: &CommKeys, first: u64, agg: &[Hfp], dst: &mut [f64]) {
        strip_noise(keys, keys.base_zero(), first, self.fmt, agg, dst, |v| v);
    }

    /// ⊗ on the ciphertext ring. Operands of different widths give
    /// [`ops::FOREIGN`], as [`FloatSumScheme`]'s do.
    #[inline(always)]
    fn op(a: &Hfp, b: &Hfp) -> Hfp {
        if (a.ew, a.mw) != (b.ew, b.mw) {
            return ops::FOREIGN;
        }
        ops::mul(a, b, a.ew, a.mw)
    }

    fn digest(&self, x: &f64, out: &mut [u64; DIGEST_LANES]) {
        let is_zero = *x == 0.0;
        let log_mag = if is_zero {
            0
        } else {
            self.digest_codec.encode(x.abs().ln())
        };
        *out = [
            log_mag,
            (x.is_sign_negative() && !is_zero) as u64 | ((is_zero as u64) << 32),
            0,
            0,
        ];
    }

    fn digest_check(&self, result: &f64, lane_sums: &[u64; DIGEST_LANES], world: usize) -> bool {
        let zero_count = lane_sums[1] >> 32;
        if zero_count > 0 {
            // A zero factor annihilates the product; the cipher only
            // approximates zero, so accept any tiny magnitude.
            return result.abs() < 1e-6;
        }
        if *result == 0.0 {
            return false;
        }
        let neg_count = lane_sums[1] & 0xFFFF_FFFF;
        if (*result < 0.0) != (neg_count & 1 == 1) {
            return false;
        }
        let decoded = self.digest_codec.decode(lane_sums[0]);
        float_digest_ok(
            result.abs().ln(),
            decoded,
            world,
            2.0 * self.digest_codec.resolution(),
            0.0,
            1e-4,
        )
    }

    fn cell_encode(x: &f64) -> u64 {
        x.to_bits()
    }

    fn cell_decode(cell: u64) -> f64 {
        f64::from_bits(cell)
    }
}

/// Alternative addition (§5.3.4, v2) as a [`Scheme`]: `x → e^x`,
/// [`FloatProdScheme`]'s multiplicative reduction, `ln` after decryption.
/// Useful for values in a small range (e.g. normalized ML weights);
/// provides global safety, unlike [`FloatSumScheme`]. Medium loss, so the
/// digest tolerance is looser than v1's.
pub struct FloatSumExpScheme {
    fmt: HfpFormat,
    digest_codec: FixedCodec,
}

impl FloatSumExpScheme {
    /// `fmt` must be a multiplication layout (δ = 0).
    pub fn new(fmt: HfpFormat) -> Self {
        assert_eq!(fmt.delta, 0, "the multiplication scheme requires δ = 0");
        FloatSumExpScheme {
            fmt,
            digest_codec: FixedCodec::new(24),
        }
    }

    pub fn format(&self) -> HfpFormat {
        self.fmt
    }
}

impl Scheme for FloatSumExpScheme {
    type Input = f64;
    type Wire = Hfp;
    type Lanes = [u64; 2];

    const NAME: &'static str = "float-sum-v2";
    const TABLE2_ROW: usize = 4;

    /// On `Err` — including an `exp()` that leaves the scheme's dynamic
    /// range — `out` is empty.
    fn mask_slice(
        &mut self,
        keys: &CommKeys,
        first: u64,
        input: &[f64],
        out: &mut Vec<Hfp>,
    ) -> Result<(), HfpError> {
        prod_mask(self.fmt, keys, first, input, out, |v| {
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

    fn unmask_into(&mut self, keys: &CommKeys, first: u64, agg: &[Hfp], dst: &mut [f64]) {
        strip_noise(keys, keys.base_zero(), first, self.fmt, agg, dst, f64::ln);
    }

    #[inline(always)]
    fn op(a: &Hfp, b: &Hfp) -> Hfp {
        FloatProdScheme::op(a, b)
    }

    fn digest(&self, x: &f64, out: &mut [u64; DIGEST_LANES]) {
        *out = [self.digest_codec.encode(*x), 0, 0, 0];
    }

    fn digest_check(&self, result: &f64, lane_sums: &[u64; DIGEST_LANES], world: usize) -> bool {
        let decoded = self.digest_codec.decode(lane_sums[0]);
        float_digest_ok(
            *result,
            decoded,
            world,
            self.digest_codec.resolution(),
            1e-3,
            1e-6,
        )
    }

    fn cell_encode(x: &f64) -> u64 {
        x.to_bits()
    }

    fn cell_decode(cell: u64) -> f64 {
        f64::from_bits(cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::reduce_in_process;
    use hear_prf::{Backend, PrfCipher};

    fn keys(world: usize) -> Vec<CommKeys> {
        CommKeys::generate(world, 0xBEEF, Backend::AesSoft)
    }

    /// The ciphertext of `x` at element 0.
    fn masked<S: Scheme<Input = f64, Wire = Hfp>>(mut s: S, k: &CommKeys, x: &[f64]) -> Vec<Hfp> {
        let mut ct = Vec::new();
        s.mask_slice(k, 0, x, &mut ct).unwrap();
        ct
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
        reduce_in_process(|| FloatSumScheme::new(fmt), &keys(world), data)
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
        let mut scheme = FloatSumScheme::new(HfpFormat::fp32(2, 2));
        let mut out = Vec::new();
        assert_eq!(
            scheme.mask_slice(&keys[0], 0, &[f64::NAN], &mut out),
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
        reduce_in_process(|| FloatProdScheme::new(fmt), &keys(world), data)
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
        let data = [vec![0.5, -0.25, 0.01], vec![0.1, 0.05, -0.02]];
        let mk = || FloatSumExpScheme::new(HfpFormat::fp64(0, 0));
        let out = reduce_in_process(mk, &keys(2), &data);
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
        let mut scheme = FloatSumExpScheme::new(HfpFormat::fp64(0, 0));
        let mut out = Vec::new();
        // e^1000 overflows f64.
        assert!(scheme.mask_slice(&keys[0], 0, &[1000.0], &mut out).is_err());
    }

    #[test]
    fn sum_no_global_safety_but_prod_has_it() {
        // Same plaintext on two ranks: Eq. 7 (shared noise) produces equal
        // ciphertexts (no global safety — the paper's documented trade),
        // while Eq. 6 (per-rank noise) produces different ones.
        let keys = keys(3);
        let sum = || FloatSumScheme::new(HfpFormat::fp32(2, 2));
        let prod = || FloatProdScheme::new(HfpFormat::fp32(0, 0));
        let x = [std::f64::consts::PI];
        assert_eq!(
            masked(sum(), &keys[0], &x),
            masked(sum(), &keys[1], &x),
            "Eq. 7 shares the noise stream"
        );
        assert_ne!(
            masked(prod(), &keys[0], &x),
            masked(prod(), &keys[1], &x),
            "Eq. 6 uses per-rank noise"
        );
    }

    #[test]
    fn temporal_safety_for_floats() {
        let mut ks = keys(2);
        let sum = || FloatSumScheme::new(HfpFormat::fp32(2, 2));
        let c1 = masked(sum(), &ks[0], &[42.0]);
        ks[0].advance();
        assert_ne!(c1, masked(sum(), &ks[0], &[42.0]));
    }

    #[test]
    fn foreign_widths_combine_to_foreign_and_decrypt_to_nan() {
        let keys = keys(2);
        let (sum, prod) = (HfpFormat::fp64(2, 2), HfpFormat::fp64(0, 0));
        let (c_sum, c_prod) = (Hfp::one(13, 52), Hfp::one(11, 52));
        let other = Hfp::one(10, 23);
        assert_eq!(FloatSumScheme::op(&c_sum, &other), ops::FOREIGN);
        assert_eq!(FloatProdScheme::op(&other, &c_prod), ops::FOREIGN);
        assert_eq!(
            FloatSumExpScheme::op(&ops::FOREIGN, &ops::FOREIGN),
            ops::FOREIGN
        );
        let mut out = Vec::new();
        for agg in [other, ops::FOREIGN] {
            FloatSumScheme::new(sum).unmask_slice(&keys[0], 0, &[c_sum, agg], &mut out);
            assert!(out[0].is_finite() && out[1].is_nan(), "{out:?}");
            FloatProdScheme::new(prod).unmask_slice(&keys[0], 0, &[c_prod, agg], &mut out);
            assert!(out[0].is_finite() && out[1].is_nan(), "{out:?}");
            FloatSumExpScheme::new(prod).unmask_slice(&keys[0], 0, &[agg], &mut out);
            assert!(out[0].is_nan(), "{out:?}");
        }
    }

    #[test]
    fn block_offsets_compose_for_floats() {
        let ks = keys(2);
        let mut scheme = FloatSumScheme::new(HfpFormat::fp32(2, 2));
        let x: Vec<f64> = (1..=8).map(|v| v as f64).collect();
        let mut whole = Vec::new();
        scheme.mask_slice(&ks[0], 0, &x, &mut whole).unwrap();
        let (mut p1, mut p2) = (Vec::new(), Vec::new());
        scheme.mask_slice(&ks[0], 0, &x[..3], &mut p1).unwrap();
        scheme.mask_slice(&ks[0], 3, &x[3..], &mut p2).unwrap();
        assert_eq!(&whole[..3], &p1[..]);
        assert_eq!(&whole[3..], &p2[..]);
    }
}

/// The float ciphers as first written — noise one [`noise_at`] block at a
/// time, the scalar [`ops::reference`] kernels, `to_f64_by_scaling` — kept
/// as what the fused passes are tested against, bit for bit.
#[cfg(test)]
mod reference {
    use super::*;
    use hear_hfp::ops::reference::{div, mul};

    fn noise_fill_n(keys: &CommKeys, base: u128, first: u64, n: usize, fmt: HfpFormat) -> Vec<Hfp> {
        let (ew, mw) = fmt.cipher_widths();
        (first..first + n as u64)
            .map(|j| noise_at(keys.prf(), base, j, ew, mw))
            .collect()
    }

    pub(super) fn sum_encrypt(
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

    pub(super) fn prod_encrypt(
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

    pub(super) fn sum_exp_encrypt(
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
    pub(super) fn decrypt(
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

/// The fused passes against [`reference`], over fp16 / fp32 / fp64 × γ ∈
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
    /// the layout and clamp to its smallest magnitude, and the layout's
    /// largest finite value (`f64::MAX` for fp64).
    fn plaintexts(rng: &mut TestRng, fmt: HfpFormat, n: usize) -> Vec<f64> {
        let max_e = (1i32 << (fmt.le - 1)) - 2;
        let largest = (2.0 - f64::powi(2.0, -(fmt.lm as i32))) * f64::powi(2.0, max_e + 1);
        (0..n)
            .map(|_| match rng.next_u64() % 16 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::from_bits(rng.next_u64() >> 12), // subnormal
                3 => -f64::MIN_POSITIVE,
                4 => f64::powi(2.0, -max_e - 3),
                5 => largest,
                6 => -largest,
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
    /// ciphertext, plus exact zeros (a full cancellation) and tampered
    /// significands (the kernels' cold path).
    fn aggregates(rng: &mut TestRng, fmt: HfpFormat, n: usize) -> Vec<Hfp> {
        let (ew, mw) = fmt.cipher_widths();
        (0..n)
            .map(|_| {
                let mut c = noise_from_block(rng.next_u128(), ew, mw);
                match rng.next_u64() % 16 {
                    0 => c = Hfp::zero(ew, mw),
                    1 => c.sig = rng.next_u64() & mask(mw + 3) | 1,
                    _ => {}
                }
                c
            })
            .collect()
    }

    /// `x` with NaN or ±∞ at a random place: every cipher refuses it with
    /// `NonFinite` and leaves `out` empty, as the reference refuses it.
    fn refuses_non_finite(
        rng: &mut TestRng,
        x: &[f64],
        mut encrypt: impl FnMut(&[f64], &mut Vec<Hfp>) -> Result<(), HfpError>,
        reference: impl Fn(&[f64]) -> Result<Vec<Hfp>, HfpError>,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        if x.is_empty() {
            return Ok(());
        }
        let mut bad = x.to_vec();
        let at = (rng.next_u64() % x.len() as u64) as usize;
        bad[at] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(rng.next_u64() % 3) as usize];
        let mut out = vec![Hfp::one(4, 4)];
        prop_assert_eq!(encrypt(&bad, &mut out), Err(HfpError::NonFinite));
        prop_assert!(out.is_empty(), "{} elements left", out.len());
        prop_assert_eq!(reference(&bad), Err(HfpError::NonFinite));
        Ok(())
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
                let mut cipher = FloatSumScheme::new(fmt);
                for (n, k) in LENGTHS.into_iter().zip(keys.iter().cycle()) {
                    let x = plaintexts(&mut rng, fmt, n);
                    let mut ct = vec![Hfp::zero(1, 1)]; // stale content must go
                    cipher.mask_slice(k, first, &x, &mut ct).unwrap();
                    prop_assert_eq!(&ct, &reference::sum_encrypt(fmt, k, first, &x).unwrap());
                    refuses_non_finite(
                        &mut rng,
                        &x,
                        |x, out| cipher.mask_slice(k, first, x, out),
                        |x| reference::sum_encrypt(fmt, k, first, x),
                    )?;
                    let agg = aggregates(&mut rng, fmt, n);
                    let mut pt = vec![f64::NAN];
                    cipher.unmask_slice(k, first, &agg, &mut pt);
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
                let (mut prod, mut sum_exp) = (FloatProdScheme::new(fmt), FloatSumExpScheme::new(fmt));
                for (n, k) in LENGTHS.into_iter().zip(keys.iter().cycle()) {
                    let x = plaintexts(&mut rng, fmt, n);
                    let mut ct = Vec::new();
                    prod.mask_slice(k, first, &x, &mut ct).unwrap();
                    prop_assert_eq!(&ct, &reference::prod_encrypt(fmt, k, first, &x).unwrap());
                    refuses_non_finite(
                        &mut rng,
                        &x,
                        |x, out| prod.mask_slice(k, first, x, out),
                        |x| reference::prod_encrypt(fmt, k, first, x),
                    )?;
                    // e^x must stay inside the layout's exponent range.
                    let span = f64::from(1u32 << (fmt.le - 1)) * 0.6;
                    let small: Vec<f64> = (0..n).map(|_| (rng.next_f64() - 0.5) * span).collect();
                    sum_exp.mask_slice(k, first, &small, &mut ct).unwrap();
                    prop_assert_eq!(&ct, &reference::sum_exp_encrypt(fmt, k, first, &small).unwrap());
                    // e^NaN is NaN, which the encoder refuses.
                    let mut out = vec![Hfp::one(4, 4)];
                    let bad = [small.as_slice(), &[f64::NAN]].concat();
                    prop_assert!(sum_exp.mask_slice(k, first, &bad, &mut out).is_err());
                    prop_assert!(out.is_empty());
                    let agg = aggregates(&mut rng, fmt, n);
                    let mut pt = Vec::new();
                    prod.unmask_slice(k, first, &agg, &mut pt);
                    let want = reference::decrypt(fmt, k, k.base_zero(), first, &agg);
                    prop_assert_eq!(bits(&pt), bits(&want));
                    sum_exp.unmask_slice(k, first, &agg, &mut pt);
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
            let mut cipher = FloatSumScheme::new(fmt);
            let x = plaintexts(&mut rng, fmt, 600);
            let (mut whole, mut head, mut tail) = (Vec::new(), Vec::new(), Vec::new());
            cipher.mask_slice(&keys[0], first, &x, &mut whole).unwrap();
            cipher.mask_slice(&keys[0], first, &x[..split], &mut head).unwrap();
            cipher.mask_slice(&keys[0], first + split as u64, &x[split..], &mut tail).unwrap();
            head.extend_from_slice(&tail);
            prop_assert_eq!(&whole, &head);
            let (mut whole_pt, mut head_pt, mut tail_pt) = (Vec::new(), Vec::new(), Vec::new());
            cipher.unmask_slice(&keys[1], first, &whole, &mut whole_pt);
            cipher.unmask_slice(&keys[1], first, &whole[..split], &mut head_pt);
            cipher.unmask_slice(&keys[1], first + split as u64, &whole[split..], &mut tail_pt);
            head_pt.extend_from_slice(&tail_pt);
            prop_assert_eq!(bits(&whole_pt), bits(&head_pt));
        }
    }

    #[test]
    fn one_prf_block_per_element_and_stream() {
        // The block pass generates uncounted and attributes once: the
        // totals must be what the per-block counted fills added up to.
        use hear_telemetry::Metric::{
            PrfBlocksAesNi, PrfBlocksAesSoft, PrfBlocksSha1, PrfBlocksSha1Ni,
        };
        let keys = CommKeys::generate(2, 0xB10C, Backend::best_available());
        let x = vec![1.5; 777];
        let counted = |run: &mut dyn FnMut()| {
            let reg = Registry::new_enabled();
            let _ctx = reg.install(Some(0));
            run();
            [
                PrfBlocksAesSoft,
                PrfBlocksAesNi,
                PrfBlocksSha1,
                PrfBlocksSha1Ni,
            ]
            .map(|m| reg.counter(m))
            .iter()
            .sum::<u64>()
        };
        let mut sum = FloatSumScheme::new(HfpFormat::fp64(2, 2));
        let mut prod = FloatProdScheme::new(HfpFormat::fp64(0, 0));
        let (mut ct, mut pt) = (Vec::new(), Vec::new());
        assert_eq!(
            counted(&mut || sum.mask_slice(&keys[0], 5, &x, &mut ct).unwrap()),
            777
        );
        assert_eq!(
            counted(&mut || sum.unmask_slice(&keys[0], 5, &ct, &mut pt)),
            777
        );
        // Own + next stream on rank 0, own alone on the last rank.
        assert_eq!(
            counted(&mut || prod.mask_slice(&keys[0], 5, &x, &mut ct).unwrap()),
            2 * 777
        );
        assert_eq!(
            counted(&mut || prod.mask_slice(&keys[1], 5, &x, &mut ct).unwrap()),
            777
        );
        assert_eq!(
            counted(&mut || prod.unmask_slice(&keys[1], 5, &ct, &mut pt)),
            777
        );
    }

    #[test]
    fn an_encode_error_leaves_no_partial_ciphertext() {
        fn check<S: Scheme<Input = f64, Wire = Hfp>>(
            mut s: S,
            k: &CommKeys,
            x: &[f64],
        ) -> Result<(), HfpError> {
            let mut out = vec![Hfp::one(4, 4); 3];
            let got = s.mask_slice(k, 0, x, &mut out);
            assert!(out.is_empty(), "{} left {} elements", S::NAME, out.len());
            got
        }
        let keys = CommKeys::generate(2, 0xE44, Backend::best_available());
        // The offender sits past the first tile, after 300 good elements.
        let mut x = vec![0.25; 400];
        for (bad, err) in [
            (f64::NAN, HfpError::NonFinite),
            (f64::NEG_INFINITY, HfpError::NonFinite),
            (f64::powi(2.0, 200), HfpError::ExponentOverflow(200)),
        ] {
            x[300] = bad;
            for k in &keys {
                let sum = FloatSumScheme::new(HfpFormat::fp32(2, 2));
                assert_eq!(check(sum, k, &x), Err(err));
                let prod = FloatProdScheme::new(HfpFormat::fp32(0, 0));
                assert_eq!(check(prod, k, &x), Err(err));
            }
        }
        // e^1000 overflows f64 before the encoder ever sees it.
        x[300] = 1000.0;
        let sum_exp = FloatSumExpScheme::new(HfpFormat::fp64(0, 0));
        assert!(check(sum_exp, &keys[0], &x).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::scheme::reduce_in_process;
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
            let mk = || FloatSumScheme::new(HfpFormat::fp32(2, 2));
            let out = reduce_in_process(mk, &keys, &vec![vals.clone(); world]);
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
            let mk = || FloatProdScheme::new(HfpFormat::fp32(0, 0));
            let out = reduce_in_process(mk, &keys, &vec![vals.clone(); world]);
            for (j, got) in out.iter().enumerate() {
                let expect = vals[j].powi(world as i32);
                let rel = (got - expect).abs() / expect;
                prop_assert!(rel < 1e-4, "j={} rel={}", j, rel);
            }
        }
    }
}

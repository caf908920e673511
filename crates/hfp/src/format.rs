//! The HFP number format (paper §5.3, Eq. 4–5).
//!
//! An HFP value is `(-1)^sign × 1.m × 2^e` with
//!
//! * a sign bit,
//! * an exponent `e` stored in two's complement on a ring of width `ew`
//!   bits (no bias, no infinity cap — see [`crate::ringexp`]),
//! * a hidden-one mantissa of `mw` stored bits.
//!
//! Plaintext values use widths `(l_e, l_m)`; ciphertexts use
//! `(l_e + δ, l_m − δ + γ)` so the total ciphertext size is exactly γ bits
//! larger than the plaintext (the paper's inflation knob). `δ = 0` for the
//! multiplicative scheme and `δ = 2` for the additive scheme.

use crate::ringexp::{mask, ring_from_i64, to_signed};

/// Errors raised by HFP encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HfpError {
    /// NaN and ±∞ are unsupported by design (§5.3.6): a special cap would
    /// anchor the exponent ring and break the security argument.
    NonFinite,
    /// The value's exponent does not fit the two's-complement exponent
    /// field (signed value attached for diagnostics).
    ExponentOverflow(i64),
}

impl std::fmt::Display for HfpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HfpError::NonFinite => write!(f, "HFP cannot represent NaN or infinity"),
            HfpError::ExponentOverflow(e) => {
                write!(f, "exponent {e} does not fit the HFP exponent field")
            }
        }
    }
}

impl std::error::Error for HfpError {}

/// Static description of an HFP instantiation: plaintext widths plus the
/// δ (operation-determined) and γ (user inflation/precision trade-off)
/// parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HfpFormat {
    /// Plaintext exponent bits `l_e`.
    pub le: u32,
    /// Plaintext stored mantissa bits `l_m` (hidden one excluded).
    pub lm: u32,
    /// Exponent expansion: 0 for multiplication, 2 for addition (§5.3.5).
    pub delta: u32,
    /// Ciphertext inflation bits recovering mantissa precision (§5.3.1).
    pub gamma: u32,
}

impl HfpFormat {
    pub fn new(le: u32, lm: u32, delta: u32, gamma: u32) -> Self {
        assert!(le >= 2 && le + delta <= 16, "exponent width out of range");
        assert!(lm >= delta, "mantissa must be at least δ bits");
        assert!(
            lm <= 52,
            "plaintext mantissas above 52 bits are unsupported"
        );
        assert!(
            lm - delta + gamma <= 52,
            "ciphertext mantissas above 52 bits are unsupported"
        );
        HfpFormat {
            le,
            lm,
            delta,
            gamma,
        }
    }

    /// IEEE-half-like plaintext layout (l_e = 5, l_m = 10), as in Table 3.
    pub fn fp16(delta: u32, gamma: u32) -> Self {
        Self::new(5, 10, delta, gamma)
    }

    /// IEEE-single-like plaintext layout (l_e = 8, l_m = 23).
    pub fn fp32(delta: u32, gamma: u32) -> Self {
        Self::new(8, 23, delta, gamma)
    }

    /// IEEE-double-like plaintext layout (l_e = 11, l_m = 52). γ is capped
    /// by δ so the ciphertext significand still fits 53 bits.
    pub fn fp64(delta: u32, gamma: u32) -> Self {
        Self::new(11, 52, delta, gamma)
    }

    /// Widths of the plaintext encoding.
    pub fn plain_widths(&self) -> (u32, u32) {
        (self.le, self.lm)
    }

    /// Widths of ciphertexts and of the PRF noise (Eq. 5: `l_ef = l_e + δ`,
    /// `l_mf = l_m − δ + γ`).
    pub fn cipher_widths(&self) -> (u32, u32) {
        (self.le + self.delta, self.lm - self.delta + self.gamma)
    }

    /// Total plaintext size in bits (1 sign + exponent + mantissa).
    pub fn plain_bits(&self) -> u32 {
        1 + self.le + self.lm
    }

    /// Total ciphertext size in bits.
    pub fn cipher_bits(&self) -> u32 {
        let (ew, mw) = self.cipher_widths();
        1 + ew + mw
    }

    /// Ciphertext inflation in bits — always exactly γ.
    pub fn inflation_bits(&self) -> u32 {
        self.cipher_bits() - self.plain_bits()
    }
}

/// One HFP value. `sig` is the full significand *including* the hidden one,
/// so a finite value has `sig` in `[2^mw, 2^{mw+1})`; `sig == 0` denotes
/// exact zero (which can arise transiently from ciphertext cancellation,
/// even though the encoder never produces it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hfp {
    pub sign: bool,
    /// Exponent as a `ew`-bit ring element (two's complement semantics).
    pub exp: u64,
    /// Significand with hidden one, `mw+1` bits; 0 means value zero.
    pub sig: u64,
    pub ew: u32,
    pub mw: u32,
}

impl Hfp {
    pub fn zero(ew: u32, mw: u32) -> Self {
        Hfp {
            sign: false,
            exp: 0,
            sig: 0,
            ew,
            mw,
        }
    }

    pub fn one(ew: u32, mw: u32) -> Self {
        Hfp {
            sign: false,
            exp: 0,
            sig: 1 << mw,
            ew,
            mw,
        }
    }

    /// The smallest positive magnitude: `1.0 × 2^{-2^{ew-1}}`. Input zeros
    /// are encoded as this value (§5.3.6).
    pub fn smallest(ew: u32, mw: u32) -> Self {
        Hfp {
            sign: false,
            exp: ring_from_i64(-(1i64 << (ew - 1)), ew),
            sig: 1 << mw,
            ew,
            mw,
        }
    }

    pub fn is_zero(&self) -> bool {
        self.sig == 0
    }

    /// Check the representation invariants (used by debug assertions and
    /// property tests).
    pub fn is_canonical(&self) -> bool {
        self.exp & !mask(self.ew) == 0
            && (self.sig == 0 || (self.sig >> self.mw == 1 && self.sig >> (self.mw + 1) == 0))
    }

    /// Encode a finite `f64` into the given widths. Zero becomes
    /// [`Hfp::smallest`]; exponent underflow clamps to the smallest
    /// magnitude; exponent overflow is an error.
    #[inline]
    pub fn from_f64(v: f64, ew: u32, mw: u32) -> Result<Self, HfpError> {
        if !v.is_finite() {
            return Err(HfpError::NonFinite);
        }
        if v == 0.0 {
            return Ok(Self::smallest(ew, mw));
        }
        let sign = v < 0.0;
        let bits = v.abs().to_bits();
        let biased = (bits >> 52) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        // Full 53-bit significand and unbiased exponent of the leading one.
        let (sig53, exp) = if biased == 0 {
            // Subnormal: normalize manually.
            let shift = frac.leading_zeros() as i64 - 11;
            (frac << shift, -1022 - 52 - shift + 52)
        } else {
            ((1u64 << 52) | frac, biased - 1023)
        };
        // Round the 53-bit significand to mw+1 bits (RTNE).
        let (sig, exp) = round_sig(sig53, 52, mw, exp);
        let min_e = -(1i64 << (ew - 1));
        let max_e = (1i64 << (ew - 1)) - 1;
        if exp < min_e {
            let mut s = Self::smallest(ew, mw);
            s.sign = sign;
            return Ok(s);
        }
        if exp > max_e {
            return Err(HfpError::ExponentOverflow(exp));
        }
        Ok(Hfp {
            sign,
            exp: ring_from_i64(exp, ew),
            sig,
            ew,
            mw,
        })
    }

    /// Decode to `f64`, interpreting the exponent as two's complement of
    /// width `ew`. Values beyond the f64 range saturate naturally.
    ///
    /// A canonical significand whose exponent lies in f64's normal range
    /// is exactly an f64 (`mw ≤ 52`), so its bits are assembled directly;
    /// everything else — subnormal and saturating results, tampered
    /// significands — goes through [`Hfp::to_f64_by_scaling`].
    #[inline]
    pub fn to_f64(&self) -> f64 {
        let e = to_signed(self.exp, self.ew);
        if self.mw <= 52 && self.sig >> self.mw == 1 && (-1022..=1023).contains(&e) {
            let frac = (self.sig ^ (1u64 << self.mw)) << (52 - self.mw);
            return f64::from_bits((self.sign as u64) << 63 | ((e + 1023) as u64) << 52 | frac);
        }
        self.to_f64_by_scaling()
    }

    /// [`Hfp::to_f64`] for any value: the significand as a float, scaled by
    /// powers of two in steps f64 can represent. Also the reference the
    /// direct bit assembly is tested against.
    #[doc(hidden)]
    pub fn to_f64_by_scaling(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        let e = to_signed(self.exp, self.ew) - self.mw as i64;
        let mut r = self.sig as f64;
        let mut e = e;
        while e > 511 {
            r *= f64::powi(2.0, 511);
            e -= 511;
        }
        while e < -511 {
            r *= f64::powi(2.0, -511);
            e += 511;
        }
        r *= f64::powi(2.0, e as i32);
        if self.sign {
            -r
        } else {
            r
        }
    }

    /// Signed exponent value.
    pub fn exponent(&self) -> i64 {
        to_signed(self.exp, self.ew)
    }

    /// Pack into the on-wire layout `sign | exp | frac` (hidden one
    /// dropped). Panics on zero: the HFP wire format has no zero encoding
    /// by design — encoders map zero to the smallest magnitude first.
    pub fn to_bits(&self) -> u128 {
        assert!(!self.is_zero(), "HFP zero has no wire encoding");
        let frac = (self.sig - (1u64 << self.mw)) as u128;
        ((self.sign as u128) << (self.ew + self.mw)) | ((self.exp as u128) << self.mw) | frac
    }

    /// Unpack from the on-wire layout with the given widths.
    pub fn from_bits(bits: u128, ew: u32, mw: u32) -> Self {
        let frac = (bits & ((1u128 << mw) - 1)) as u64;
        let exp = ((bits >> mw) as u64) & mask(ew);
        let sign = (bits >> (ew + mw)) & 1 == 1;
        Hfp {
            sign,
            exp,
            sig: (1u64 << mw) | frac,
            ew,
            mw,
        }
    }
}

/// Round a significand with `from_mw` stored bits down to `to_mw` stored
/// bits, RTNE, adjusting the exponent on mantissa-carry. Widening shifts
/// left exactly. Returns `(sig, exp)`.
pub(crate) fn round_sig(sig: u64, from_mw: u32, to_mw: u32, exp: i64) -> (u64, i64) {
    if to_mw >= from_mw {
        return (sig << (to_mw - from_mw), exp);
    }
    let drop = from_mw - to_mw;
    let kept = sig >> drop;
    let round = (sig >> (drop - 1)) & 1;
    let sticky = sig & ((1u64 << (drop - 1)) - 1);
    let mut out = kept;
    if round == 1 && (sticky != 0 || kept & 1 == 1) {
        out += 1;
    }
    if out >> (to_mw + 1) != 0 {
        (out >> 1, exp + 1)
    } else {
        (out, exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_widths_match_paper() {
        // Addition on FP32 with γ=2: ciphertext exponent 10 bits,
        // mantissa 23 bits, total inflation 2 bits.
        let f = HfpFormat::fp32(2, 2);
        assert_eq!(f.cipher_widths(), (10, 23));
        assert_eq!(f.inflation_bits(), 2);
        // Multiplication (δ=0, γ=0): zero inflation.
        let f = HfpFormat::fp32(0, 0);
        assert_eq!(f.cipher_widths(), (8, 23));
        assert_eq!(f.inflation_bits(), 0);
        assert_eq!(f.plain_bits(), 32);
        assert_eq!(f.cipher_bits(), 32);
        // Table 3 half precision: l_e = 5, l_m = 10.
        let f = HfpFormat::fp16(2, 0);
        assert_eq!(f.plain_bits(), 16);
        assert_eq!(f.cipher_widths(), (7, 8));
    }

    #[test]
    #[should_panic(expected = "mantissa")]
    fn delta_larger_than_mantissa_rejected() {
        HfpFormat::new(5, 1, 2, 0);
    }

    #[test]
    fn f64_roundtrip_exact_values() {
        for v in [1.0, -1.0, 1.5, -3.25, 0.0078125, 1024.0, 1.75 * 128.0] {
            let h = Hfp::from_f64(v, 8, 23).unwrap();
            assert!(h.is_canonical());
            assert_eq!(h.to_f64(), v, "{v}");
        }
    }

    #[test]
    fn zero_becomes_smallest() {
        let h = Hfp::from_f64(0.0, 8, 23).unwrap();
        assert_eq!(h.exponent(), -128);
        assert_eq!(h.sig, 1 << 23);
        assert!(h.to_f64() > 0.0);
    }

    #[test]
    fn nan_inf_rejected() {
        assert_eq!(Hfp::from_f64(f64::NAN, 8, 23), Err(HfpError::NonFinite));
        assert_eq!(
            Hfp::from_f64(f64::INFINITY, 8, 23),
            Err(HfpError::NonFinite)
        );
    }

    #[test]
    fn exponent_overflow_detected() {
        // 2^200 does not fit an 8-bit exponent (max 127).
        let v = f64::powi(2.0, 200);
        assert_eq!(
            Hfp::from_f64(v, 8, 23),
            Err(HfpError::ExponentOverflow(200))
        );
        // But fits a 11-bit exponent.
        assert!(Hfp::from_f64(v, 11, 52).is_ok());
    }

    #[test]
    fn underflow_clamps_to_smallest() {
        let v = f64::powi(2.0, -300);
        let h = Hfp::from_f64(v, 8, 23).unwrap();
        assert_eq!(h.exponent(), -128);
        let h = Hfp::from_f64(-v, 8, 23).unwrap();
        assert!(h.sign);
    }

    #[test]
    fn subnormal_f64_handled() {
        let v = 5e-324; // smallest positive subnormal
        let h = Hfp::from_f64(v, 12, 52).unwrap();
        assert_eq!(h.to_f64(), v);
    }

    #[test]
    fn mantissa_rounding_to_narrow_format() {
        // 1 + 2^-20 rounds to 1.0 in a 10-bit mantissa.
        let v = 1.0 + f64::powi(2.0, -20);
        let h = Hfp::from_f64(v, 5, 10).unwrap();
        assert_eq!(h.to_f64(), 1.0);
        // 1 + 2^-10 is exactly representable.
        let v = 1.0 + f64::powi(2.0, -10);
        let h = Hfp::from_f64(v, 5, 10).unwrap();
        assert_eq!(h.to_f64(), v);
    }

    #[test]
    fn rounding_carry_bumps_exponent() {
        // 1.9999999 rounds up to 2.0 in a small mantissa.
        let h = Hfp::from_f64(1.999_999_9, 5, 10).unwrap();
        assert_eq!(h.to_f64(), 2.0);
        assert_eq!(h.exponent(), 1);
        assert!(h.is_canonical());
    }

    #[test]
    fn bits_roundtrip() {
        let h = Hfp::from_f64(-13.375, 8, 23).unwrap();
        let packed = h.to_bits();
        let back = Hfp::from_bits(packed, 8, 23);
        assert_eq!(back, h);
        // Bit budget is exactly 1 + ew + mw.
        assert!(packed < 1u128 << 32);
    }

    #[test]
    #[should_panic(expected = "no wire encoding")]
    fn zero_has_no_bits() {
        Hfp::zero(8, 23).to_bits();
    }

    #[test]
    fn negative_exponents_roundtrip() {
        let v = 0.015625; // 2^-6
        let h = Hfp::from_f64(v, 5, 10).unwrap();
        assert_eq!(h.exponent(), -6);
        assert_eq!(h.to_f64(), v);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn roundtrip_fp64_widths(m in 1.0f64..2.0, e in -1000i32..1000, neg in any::<bool>()) {
            let v = if neg { -m } else { m } * f64::powi(2.0, e);
            let h = Hfp::from_f64(v, 12, 52).unwrap();
            prop_assert!(h.is_canonical());
            prop_assert_eq!(h.to_f64(), v);
        }

        #[test]
        fn narrow_roundtrip_error_bounded(m in 1.0f64..2.0, e in -14i32..14) {
            // Encoding into (5,10) and back loses at most half an ulp:
            // 2^{e-11}.
            let v = m * f64::powi(2.0, e);
            let h = Hfp::from_f64(v, 5, 10).unwrap();
            let err = (h.to_f64() - v).abs();
            prop_assert!(err <= f64::powi(2.0, e - 11), "v={} err={}", v, err);
        }

        #[test]
        fn bits_roundtrip_random(m in 1.0f64..2.0, e in -120i32..120, neg in any::<bool>()) {
            let v = if neg { -m } else { m } * f64::powi(2.0, e);
            let h = Hfp::from_f64(v, 8, 23).unwrap();
            prop_assert_eq!(Hfp::from_bits(h.to_bits(), 8, 23), h);
        }
    }
}

//! Arbitrary-precision binary floating point — the MPFR substitute.
//!
//! The paper measures HFP precision loss (Fig. 3) against reference sums
//! computed with MPFR at 1024 bits of precision. `BigFloat` provides the
//! same capability: a sign/magnitude binary float with a configurable
//! mantissa precision, correct round-to-nearest-even on every operation,
//! exact conversions from `f64`, and rounded conversion back.
//!
//! Value represented: `(-1)^sign × mantissa × 2^exp` with
//! `bit_len(mantissa) ≤ prec` after every rounding step.

use crate::biguint::BigUint;
use std::cmp::Ordering;

/// Default reference precision used by the Fig. 3 harness (matches the
/// paper's MPFR setting).
pub const REFERENCE_PREC: u32 = 1024;

#[derive(Clone, Debug)]
pub struct BigFloat {
    negative: bool,
    mant: BigUint,
    exp: i64,
    prec: u32,
}

impl BigFloat {
    pub fn zero(prec: u32) -> Self {
        BigFloat {
            negative: false,
            mant: BigUint::zero(),
            exp: 0,
            prec,
        }
    }

    pub fn is_zero(&self) -> bool {
        self.mant.is_zero()
    }

    fn is_negative(&self) -> bool {
        self.negative && !self.is_zero()
    }

    /// Exact conversion: every finite `f64` is representable.
    /// Panics on NaN/infinity (HEAR itself also excludes them, §5.3.6).
    pub fn from_f64(v: f64, prec: u32) -> Self {
        assert!(v.is_finite(), "BigFloat::from_f64 requires a finite value");
        if v == 0.0 {
            return Self::zero(prec);
        }
        let bits = v.to_bits();
        let negative = bits >> 63 == 1;
        let biased = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mant, exp) = if biased == 0 {
            // Subnormal: value = frac × 2^-1074.
            (frac, -1074)
        } else {
            ((1u64 << 52) | frac, biased - 1075)
        };
        let mut out = BigFloat {
            negative,
            mant: BigUint::from_u64(mant),
            exp,
            prec,
        };
        out.round();
        out
    }

    pub fn from_u64(v: u64, prec: u32) -> Self {
        let mut out = BigFloat {
            negative: false,
            mant: BigUint::from_u64(v),
            exp: 0,
            prec,
        };
        out.round();
        out
    }

    /// Round the mantissa to `prec` bits, RTNE, adjusting the exponent.
    fn round(&mut self) {
        let len = self.mant.bit_len();
        if len <= self.prec as u64 {
            return;
        }
        let drop = len - self.prec as u64;
        let mut kept = self.mant.shr(drop);
        let round_bit = self.mant.bit(drop - 1);
        if round_bit {
            // Sticky: any set bit strictly below the round bit.
            let below_round = self.mant.sub(&self.mant.shr(drop - 1).shl(drop - 1));
            if !below_round.is_zero() || kept.bit(0) {
                kept = kept.add(&BigUint::one());
            }
        }
        self.exp += drop as i64;
        if kept.bit_len() > self.prec as u64 {
            // Carry out of the top bit: 0b111..1 + 1.
            kept = kept.shr(1);
            self.exp += 1;
        }
        self.mant = kept;
    }

    fn neg(&self) -> BigFloat {
        let mut out = self.clone();
        if !out.is_zero() {
            out.negative = !out.negative;
        }
        out
    }

    pub fn abs(&self) -> BigFloat {
        let mut out = self.clone();
        out.negative = false;
        out
    }

    /// Compare magnitudes only.
    fn cmp_mag(&self, other: &BigFloat) -> Ordering {
        if self.is_zero() || other.is_zero() {
            return self
                .is_zero()
                .cmp(&other.is_zero())
                .reverse()
                .then(Ordering::Equal);
        }
        // Compare by the exponent of the leading bit first.
        let top_a = self.exp + self.mant.bit_len() as i64;
        let top_b = other.exp + other.mant.bit_len() as i64;
        top_a.cmp(&top_b).then_with(|| {
            // Align and compare mantissas exactly.
            let shift_a = (self.exp - self.exp.min(other.exp)) as u64;
            let shift_b = (other.exp - self.exp.min(other.exp)) as u64;
            self.mant.shl(shift_a).cmp(&other.mant.shl(shift_b))
        })
    }

    pub fn add(&self, other: &BigFloat) -> BigFloat {
        let prec = self.prec.max(other.prec);
        if self.is_zero() {
            let mut o = other.clone();
            o.prec = prec;
            o.round();
            return o;
        }
        if other.is_zero() {
            let mut s = self.clone();
            s.prec = prec;
            s.round();
            return s;
        }
        let e = self.exp.min(other.exp);
        let ma = self.mant.shl((self.exp - e) as u64);
        let mb = other.mant.shl((other.exp - e) as u64);
        let (negative, mant) = if self.negative == other.negative {
            (self.negative, ma.add(&mb))
        } else {
            match ma.cmp(&mb) {
                Ordering::Greater => (self.negative, ma.sub(&mb)),
                Ordering::Less => (other.negative, mb.sub(&ma)),
                Ordering::Equal => (false, BigUint::zero()),
            }
        };
        let mut out = BigFloat {
            negative,
            mant,
            exp: e,
            prec,
        };
        out.round();
        out
    }

    pub fn sub(&self, other: &BigFloat) -> BigFloat {
        self.add(&other.neg())
    }

    pub fn mul(&self, other: &BigFloat) -> BigFloat {
        let prec = self.prec.max(other.prec);
        if self.is_zero() || other.is_zero() {
            return Self::zero(prec);
        }
        let mut out = BigFloat {
            negative: self.negative ^ other.negative,
            mant: self.mant.mul(&other.mant),
            exp: self.exp + other.exp,
            prec,
        };
        out.round();
        out
    }

    /// Division rounded to `prec` bits. Panics on division by zero.
    pub fn div(&self, other: &BigFloat) -> BigFloat {
        assert!(!other.is_zero(), "BigFloat division by zero");
        let prec = self.prec.max(other.prec);
        if self.is_zero() {
            return Self::zero(prec);
        }
        // Produce prec+2 quotient bits then round.
        let extra = prec as u64 + 2 + other.mant.bit_len();
        let num = self.mant.shl(extra);
        let (q, r) = num.div_rem(&other.mant);
        // Fold the inexact remainder into a sticky bit so RTNE is correct.
        let mut mant = q.shl(1);
        if !r.is_zero() {
            mant = mant.add(&BigUint::one());
        }
        let mut out = BigFloat {
            negative: self.negative ^ other.negative,
            mant,
            exp: self.exp - other.exp - extra as i64 - 1,
            prec,
        };
        out.round();
        out
    }

    /// Convert to `f64` with round-to-nearest (overflow saturates to ±inf).
    pub fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        // Round the mantissa to 53 bits first.
        let mut tmp = self.clone();
        tmp.prec = 53;
        tmp.round();
        let m = tmp.mant.to_u64().expect("53-bit mantissa fits u64") as f64;
        let sign = if tmp.negative { -1.0 } else { 1.0 };
        // Apply 2^exp in safe chunks to avoid intermediate overflow.
        let mut result = sign * m;
        let mut e = tmp.exp;
        while e > 512 {
            result *= f64::powi(2.0, 512);
            e -= 512;
        }
        while e < -512 {
            result *= f64::powi(2.0, -512);
            e += 512;
        }
        result * f64::powi(2.0, e as i32)
    }
}

impl PartialEq for BigFloat {
    fn eq(&self, other: &Self) -> bool {
        self.partial_cmp(other) == Some(Ordering::Equal)
    }
}

impl PartialOrd for BigFloat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        let ord = match (self.is_negative(), other.is_negative()) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => self.cmp_mag(other),
            (true, true) => self.cmp_mag(other).reverse(),
        };
        Some(ord)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bf(v: f64) -> BigFloat {
        BigFloat::from_f64(v, 256)
    }

    #[test]
    fn f64_roundtrip_exact() {
        for v in [
            0.0,
            1.0,
            -1.0,
            0.5,
            1.5,
            std::f64::consts::PI,
            -2.2e-308,
            1.7e308,
            5e-324, // subnormal
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(bf(v).to_f64(), v, "roundtrip of {v}");
        }
    }

    #[test]
    fn add_exact_small() {
        assert_eq!(bf(1.5).add(&bf(2.25)).to_f64(), 3.75);
        assert_eq!(bf(1.0).add(&bf(-1.0)).to_f64(), 0.0);
        assert_eq!(bf(-3.0).add(&bf(-4.0)).to_f64(), -7.0);
        assert_eq!(bf(0.0).add(&bf(42.0)).to_f64(), 42.0);
    }

    #[test]
    fn add_is_exact_beyond_f64() {
        // 1 + 2^-200 is not representable in f64 but must be exact at 256 bits.
        let tiny = BigFloat {
            negative: false,
            mant: BigUint::one(),
            exp: -200,
            prec: 256,
        };
        let s = bf(1.0).add(&tiny);
        assert!(s > bf(1.0));
        assert_eq!(s.sub(&tiny).to_f64(), 1.0);
    }

    #[test]
    fn mul_and_div() {
        assert_eq!(bf(3.0).mul(&bf(4.0)).to_f64(), 12.0);
        assert_eq!(bf(-3.0).mul(&bf(4.0)).to_f64(), -12.0);
        assert_eq!(bf(1.0).div(&bf(4.0)).to_f64(), 0.25);
        assert_eq!(bf(10.0).div(&bf(-2.0)).to_f64(), -5.0);
        // 1/3 rounds to the nearest f64 for 1/3.
        assert_eq!(bf(1.0).div(&bf(3.0)).to_f64(), 1.0 / 3.0);
    }

    #[test]
    fn rounding_to_nearest_even() {
        // At prec=4, 0b10101 (21) rounds to 0b1010 << 1 (ties-to-even: 20... )
        let mut v = BigFloat {
            negative: false,
            mant: BigUint::from_u64(21),
            exp: 0,
            prec: 4,
        };
        v.round();
        // 21 = 10101b; keep 1010b, round bit 1, sticky 0, kept even → stays 1010b=10, exp += 1 → 20.
        assert_eq!(v.mant.to_u64(), Some(10));
        assert_eq!(v.exp, 1);

        // 0b10111 (23) → keep 1011 (11), round bit 1, sticky 1 → 12, exp 1 → 24.
        let mut v = BigFloat {
            negative: false,
            mant: BigUint::from_u64(23),
            exp: 0,
            prec: 4,
        };
        v.round();
        assert_eq!(v.mant.to_u64(), Some(12));
        assert_eq!(v.exp, 1);
    }

    #[test]
    fn rounding_carry_propagates() {
        // 0b11111 at prec 4: keep 1111, round 1, sticky 1 → 10000 → renormalize.
        let mut v = BigFloat {
            negative: false,
            mant: BigUint::from_u64(0b11111),
            exp: 0,
            prec: 4,
        };
        v.round();
        assert_eq!(v.mant.to_u64(), Some(0b1000));
        assert_eq!(v.exp, 2);
        assert_eq!(v.to_f64(), 32.0);
    }

    #[test]
    fn comparisons() {
        assert!(bf(1.0) < bf(2.0));
        assert!(bf(-2.0) < bf(-1.0));
        assert!(bf(-1.0) < bf(1.0));
        assert!(bf(0.0) == bf(-0.0));
        assert!(bf(1e300) > bf(1e299));
        assert!(bf(1.0) == bf(1.0));
    }

    #[test]
    fn long_sum_matches_integer_arithmetic() {
        // Sum of 1..=1000 is exact: 500500.
        let mut acc = BigFloat::zero(REFERENCE_PREC);
        for i in 1..=1000u64 {
            acc = acc.add(&BigFloat::from_u64(i, REFERENCE_PREC));
        }
        assert_eq!(acc.to_f64(), 500_500.0);
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        // (1e16 + 1) - 1e16 == 1 exactly at high precision (f64 would lose it
        // only at 1e16+1 — use a harder case: 2^100 + 1 - 2^100).
        let big = BigFloat {
            negative: false,
            mant: BigUint::one(),
            exp: 100,
            prec: 256,
        };
        let one = bf(1.0);
        let r = big.add(&one).sub(&big);
        assert_eq!(r.to_f64(), 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = BigFloat::from_f64(f64::NAN, 64);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn finite_f64() -> impl Strategy<Value = f64> {
        any::<f64>().prop_filter("finite", |v| v.is_finite())
    }

    proptest! {
        #[test]
        fn roundtrip(v in finite_f64()) {
            prop_assert_eq!(BigFloat::from_f64(v, 64).to_f64(), v);
        }

        #[test]
        fn add_matches_f64_when_exact(a in -1000i64..1000, b in -1000i64..1000) {
            // Integer-valued adds are exact in both systems.
            let r = BigFloat::from_f64(a as f64, 128).add(&BigFloat::from_f64(b as f64, 128));
            prop_assert_eq!(r.to_f64(), (a + b) as f64);
        }

        #[test]
        fn mul_matches_f64_when_exact(a in -1000i64..1000, b in -1000i64..1000) {
            let r = BigFloat::from_f64(a as f64, 128).mul(&BigFloat::from_f64(b as f64, 128));
            prop_assert_eq!(r.to_f64(), (a * b) as f64);
        }

        #[test]
        fn sub_self_is_zero(v in finite_f64()) {
            let b = BigFloat::from_f64(v, 128);
            prop_assert!(b.sub(&b).is_zero());
        }

        #[test]
        fn div_inverts_mul(
            ma in 1.0f64..2.0, ea in -100i32..100, sa in any::<bool>(),
            mb in 1.0f64..2.0, eb in -100i32..100, sb in any::<bool>(),
        ) {
            let a = if sa { -ma } else { ma } * f64::powi(2.0, ea);
            let b = if sb { -mb } else { mb } * f64::powi(2.0, eb);
            let fa = BigFloat::from_f64(a, 256);
            let fb = BigFloat::from_f64(b, 256);
            let back = fa.mul(&fb).div(&fb);
            // Exact product then exact quotient recovers a to f64 precision.
            prop_assert_eq!(back.to_f64(), a);
        }

        #[test]
        fn ordering_matches_f64(a in finite_f64(), b in finite_f64()) {
            let fa = BigFloat::from_f64(a, 64);
            let fb = BigFloat::from_f64(b, 64);
            prop_assert_eq!(fa.partial_cmp(&fb), a.partial_cmp(&b));
        }
    }
}

impl BigFloat {
    /// Square root by Newton iteration (`x ← (x + a/x)/2`), seeded from the
    /// `f64` estimate; precision doubles per step, so ⌈log₂(prec/50)⌉+2
    /// iterations reach full precision. Panics on negative input.
    pub fn sqrt(&self) -> BigFloat {
        assert!(!self.is_negative(), "sqrt of a negative BigFloat");
        if self.is_zero() {
            return Self::zero(self.prec);
        }
        // Seed: sqrt of the f64 image, rescaled when out of f64 range.
        let top = self.exp + self.mant.bit_len() as i64;
        let mut x = if top.abs() < 900 {
            Self::from_f64(self.to_f64().sqrt(), self.prec)
        } else {
            // a ≈ 2^top → sqrt ≈ 2^(top/2).
            BigFloat {
                negative: false,
                mant: BigUint::one(),
                exp: top / 2,
                prec: self.prec,
            }
        };
        let half = BigFloat {
            negative: false,
            mant: BigUint::one(),
            exp: -1,
            prec: self.prec,
        };
        let steps = (self.prec as f64 / 50.0).log2().ceil().max(0.0) as usize + 2;
        for _ in 0..steps {
            x = self.div(&x).add(&x).mul(&half);
        }
        x
    }
}

#[cfg(test)]
mod sqrt_tests {
    use super::*;

    #[test]
    fn perfect_squares() {
        for v in [0.0f64, 1.0, 4.0, 9.0, 1024.0, 0.25] {
            let r = BigFloat::from_f64(v, 256).sqrt();
            assert_eq!(r.to_f64(), v.sqrt(), "sqrt({v})");
        }
    }

    #[test]
    fn agrees_with_f64_sqrt() {
        for v in [2.0f64, 3.0, 1e10, 1e-10, 123.456] {
            let r = BigFloat::from_f64(v, 256).sqrt().to_f64();
            assert_eq!(r, v.sqrt(), "sqrt({v})");
        }
    }

    #[test]
    fn high_precision_identity() {
        // sqrt(a)² must equal a to ~prec bits.
        let a = BigFloat::from_f64(7.0, 512);
        let r = a.sqrt();
        let back = r.mul(&r);
        let err = back.sub(&a).abs();
        // |err| ≤ a × 2^{-500}.
        let bound = a.mul(&BigFloat {
            negative: false,
            mant: BigUint::one(),
            exp: -500,
            prec: 512,
        });
        assert!(err < bound, "sqrt not converged to precision");
    }

    #[test]
    fn extreme_exponent_inputs() {
        // Beyond the f64 range: 2^2000.
        let a = BigFloat {
            negative: false,
            mant: BigUint::one(),
            exp: 2000,
            prec: 128,
        };
        let r = a.sqrt();
        let back = r.mul(&r);
        let rel = back.sub(&a).abs().div(&a);
        assert!(rel.to_f64() < 1e-30);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_rejected() {
        BigFloat::from_f64(-1.0, 64).sqrt();
    }
}

//! Soft IEEE-754 half precision (`binary16`).
//!
//! The paper's Fig. 3 and Table 3 cover FP16 workloads; Rust has no stable
//! `f16`, so this module provides the conversions and the native reference
//! arithmetic (add/mul computed in `f64` and rounded back, which is exact
//! for multiplication and correct to within a double-rounding corner case
//! for addition — far below the precision-loss signal being measured).

/// An IEEE-754 binary16 value stored in its bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct F16(pub u16);

impl F16 {
    pub const ZERO: F16 = F16(0);

    /// Convert from `f64` with round-to-nearest-even, handling subnormals
    /// and overflow-to-infinity.
    pub fn from_f64(v: f64) -> F16 {
        if v.is_nan() {
            return F16(0x7e00);
        }
        let sign = if v.is_sign_negative() { 0x8000u16 } else { 0 };
        let a = v.abs();
        if a.is_infinite() || a >= 65520.0 {
            // Values ≥ 65520 round to +inf in f16.
            return F16(sign | 0x7c00);
        }
        if a == 0.0 {
            return F16(sign);
        }
        if a < f64::powi(2.0, -24) {
            // Below half the smallest subnormal: rounds to zero... except
            // exactly 2^-25 with sticky rounds to 0; values in
            // (2^-25, 2^-24) round to the smallest subnormal.
            if a <= f64::powi(2.0, -25) {
                return F16(sign);
            }
            return F16(sign | 1);
        }
        if a < f64::powi(2.0, -14) {
            // Subnormal range: value = m × 2^-24, m in [1, 1024).
            let scaled = a * f64::powi(2.0, 24);
            let m = scaled.round_ties_even() as u16;
            if m >= 1024 {
                // Rounded up into the normal range.
                return F16(sign | 0x0400);
            }
            return F16(sign | m);
        }
        // Normal range: find the exponent and round the 10-bit mantissa.
        let bits = a.to_bits();
        let e = ((bits >> 52) as i64) - 1023; // a is normal f64 here
        let frac = bits & ((1u64 << 52) - 1);
        // Round 52-bit fraction to 10 bits.
        let keep = (frac >> 42) as u16;
        let round = (frac >> 41) & 1;
        let sticky = frac & ((1u64 << 41) - 1);
        let mut m = keep;
        let mut e16 = e + 15;
        if round == 1 && (sticky != 0 || m & 1 == 1) {
            m += 1;
            if m == 1024 {
                m = 0;
                e16 += 1;
            }
        }
        if e16 >= 31 {
            return F16(sign | 0x7c00);
        }
        F16(sign | ((e16 as u16) << 10) | m)
    }

    pub fn to_f64(self) -> f64 {
        let sign = if self.0 & 0x8000 != 0 { -1.0 } else { 1.0 };
        let e = ((self.0 >> 10) & 0x1f) as i32;
        let m = (self.0 & 0x3ff) as f64;
        match e {
            0 => sign * m * f64::powi(2.0, -24),
            31 => {
                if m == 0.0 {
                    sign * f64::INFINITY
                } else {
                    f64::NAN
                }
            }
            _ => sign * (1024.0 + m) * f64::powi(2.0, e - 15 - 10),
        }
    }

    pub fn is_nan(self) -> bool {
        (self.0 >> 10) & 0x1f == 31 && self.0 & 0x3ff != 0
    }

    pub fn is_finite(self) -> bool {
        (self.0 >> 10) & 0x1f != 31
    }

    /// Native f16 addition (computed exactly in f64, rounded once back).
    #[allow(clippy::should_implement_trait)] // named after the MPI op, not std::ops
    pub fn add(self, other: F16) -> F16 {
        F16::from_f64(self.to_f64() + other.to_f64())
    }

    /// Native f16 multiplication (exact in f64, single rounding back).
    #[allow(clippy::should_implement_trait)] // named after the MPI op, not std::ops
    pub fn mul(self, other: F16) -> F16 {
        F16::from_f64(self.to_f64() * other.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_constants() {
        assert_eq!(F16::from_f64(1.0).0, 0x3c00);
        assert_eq!(F16::from_f64(-2.0).0, 0xc000);
        assert_eq!(F16::from_f64(0.5).0, 0x3800);
        assert_eq!(F16::from_f64(65504.0).0, 0x7bff); // f16::MAX
        assert_eq!(F16::from_f64(f64::powi(2.0, -14)).0, 0x0400); // min normal
        assert_eq!(F16::from_f64(f64::powi(2.0, -24)).0, 0x0001); // min subnormal
        assert_eq!(F16::from_f64(0.0).0, 0x0000);
        assert_eq!(F16::from_f64(-0.0).0, 0x8000);
    }

    #[test]
    fn infinity_and_nan() {
        // ±infinity is the all-ones exponent with a zero mantissa.
        assert_eq!(F16::from_f64(1e10).0 & 0x7fff, 0x7c00);
        assert_eq!(F16::from_f64(f64::INFINITY).0 & 0x7fff, 0x7c00);
        assert!(F16::from_f64(f64::NAN).is_nan());
        assert_eq!(F16::from_f64(65520.0).0 & 0x7fff, 0x7c00);
        assert!(F16::from_f64(65519.9).is_finite());
    }

    #[test]
    fn roundtrip_all_finite_bit_patterns() {
        // Exhaustive: every finite f16 converts to f64 and back unchanged.
        for bits in 0..=0xffffu16 {
            let h = F16(bits);
            if !h.is_finite() {
                continue;
            }
            let back = F16::from_f64(h.to_f64());
            // -0 and +0 both map to themselves.
            assert_eq!(back.0, bits, "bits {bits:#06x}");
        }
    }

    #[test]
    fn rounding_ties_to_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: ties to even → 1.0.
        assert_eq!(F16::from_f64(1.0 + f64::powi(2.0, -11)).0, 0x3c00);
        // 1 + 3×2^-11 is halfway between 1+2^-10 and 1+2^-9: ties to even → 1+2^-9.
        assert_eq!(F16::from_f64(1.0 + 3.0 * f64::powi(2.0, -11)).0, 0x3c02);
        // Slightly above the tie rounds up.
        assert_eq!(F16::from_f64(1.0 + f64::powi(2.0, -11) * 1.001).0, 0x3c01);
    }

    #[test]
    fn mantissa_carry_into_exponent() {
        // Largest value below 2.0 plus a nudge rounds to 2.0.
        assert_eq!(F16::from_f64(1.9999).0, 0x4000);
    }

    #[test]
    fn subnormal_arithmetic() {
        let tiny = F16::from_f64(f64::powi(2.0, -24));
        let sum = tiny.add(tiny);
        assert_eq!(sum.to_f64(), f64::powi(2.0, -23));
    }

    #[test]
    fn add_and_mul_match_expected() {
        let a = F16::from_f64(1.5);
        let b = F16::from_f64(2.25);
        assert_eq!(a.add(b).to_f64(), 3.75);
        assert_eq!(a.mul(b).to_f64(), 3.375);
        // Rounding case: 1/3 is inexact.
        let third = F16::from_f64(1.0 / 3.0);
        assert!((third.to_f64() - 1.0 / 3.0).abs() < f64::powi(2.0, -11));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn from_f64_error_within_half_ulp(m in 1.0f64..2.0, e in -14i32..15) {
            let v = m * f64::powi(2.0, e);
            let h = F16::from_f64(v);
            prop_assert!((h.to_f64() - v).abs() <= f64::powi(2.0, e - 11));
        }

        #[test]
        fn sign_symmetry(m in 1.0f64..2.0, e in -14i32..15) {
            let v = m * f64::powi(2.0, e);
            prop_assert_eq!(F16::from_f64(-v).0, F16::from_f64(v).0 | 0x8000);
        }
    }
}

//! Arithmetic on HFP values: the homomorphic ⊗ operator (Eq. 5), the
//! ciphertext-domain addition executed by the network (§5.3.5), and the
//! division used for decryption (Table 3's "De-noise / Divide" row).
//!
//! All exponent updates happen on the ring; nothing in this module caps or
//! saturates an exponent — that is the security-critical property of HFP.

use crate::format::Hfp;
use crate::ringexp::{mask, ring_add, ring_from_i64, ring_sub, sign_extend};

/// Normalize an exact intermediate significand `r` (an integer, any number
/// of bits up to 128) into an `mw+1`-bit significand with RTNE rounding.
///
/// The value represented is `r × 2^{base_exp} / 2^{mw}` where `base_exp` is
/// an `ew`-bit ring element; the returned `Hfp` preserves that value up to
/// rounding, with the exponent adjusted on the ring.
///
/// Branch-free: which of "widen" and "narrow" applies, and whether the
/// rounding increments, both depend on the data (a coin flip per element
/// under encryption noise), so neither is decided by a jump. `r` is
/// left-aligned; the top `mw+1` bits are kept, the next is the round bit,
/// everything below is sticky. A short `r` (the widen case) left-aligns
/// with zeros there, so the same expression rounds nothing away.
#[inline]
fn normalize_round(r: u128, base_exp: u64, sign: bool, ew: u32, mw: u32) -> Hfp {
    debug_assert!(
        mw <= 62,
        "the significand with its hidden one must fit 63 bits"
    );
    let nz = r != 0;
    let lz = r.leading_zeros();
    let aligned = r << (lz & 127);
    let (hi, lo) = ((aligned >> 64) as u64, aligned as u64);
    let kept = hi >> (63 - mw);
    let round = (hi >> (62 - mw)) & 1;
    let sticky = u64::from((hi & ((1u64 << (62 - mw)) - 1)) | lo != 0);
    let sig = kept + (round & (sticky | (kept & 1)));
    // A round-up out of an all-ones significand leaves exactly 2^{mw+1}.
    let carry = sig >> (mw + 1);
    // The leading one moved from bit `127 − lz` to bit `mw` (+ carry).
    let exp = base_exp
        .wrapping_add(127 + carry)
        .wrapping_sub(u64::from(lz + mw))
        & mask(ew);
    Hfp {
        sign: sign & nz,
        exp: if nz { exp } else { 0 },
        sig: sig >> carry,
        ew,
        mw,
    }
}

/// The ⊗ operator (Eq. 5): signs add mod 2, exponents add on the output
/// ring, mantissas multiply with normalization into `out_mw` stored bits.
///
/// The inputs may have different widths (plaintext ⊗ noise); each input
/// exponent is sign-extended from its own width onto the output ring, which
/// is the identity once a value already lives on the ciphertext ring.
#[inline]
pub fn mul(a: &Hfp, b: &Hfp, out_ew: u32, out_mw: u32) -> Hfp {
    if a.is_zero() || b.is_zero() {
        return Hfp::zero(out_ew, out_mw);
    }
    let ea = sign_extend(a.exp, a.ew, out_ew);
    let eb = sign_extend(b.exp, b.ew, out_ew);
    let p = (a.sig as u128) * (b.sig as u128);
    // Value = p × 2^{ea+eb-mwa-mwb}; normalize_round wants base such that
    // value = p × 2^{base-out_mw}.
    let base = ring_add(
        ring_add(ea, eb, out_ew),
        ring_from_i64(out_mw as i64 - a.mw as i64 - b.mw as i64, out_ew),
        out_ew,
    );
    normalize_round(p, base, a.sign ^ b.sign, out_ew, out_mw)
}

/// `num / d` and whether the remainder is nonzero, `d ≠ 0`.
///
/// `u128 / u128` and `u128 % u128` are two out-of-line software divisions.
/// Whenever the quotient fits 64 bits — exactly when the numerator's high
/// half is below the divisor — x86-64 does both in one `div`.
#[inline]
fn div_rem_nz(num: u128, d: u64) -> (u128, bool) {
    #[cfg(target_arch = "x86_64")]
    if ((num >> 64) as u64) < d {
        let (q, rem): (u64, u64);
        // SAFETY: `div` faults on a zero divisor or a quotient that does
        // not fit `rax`; `high half < d` (checked above) excludes both.
        // It touches no memory and only the named registers and flags.
        unsafe {
            std::arch::asm!(
                "div {d}",
                d = in(reg) d,
                inout("rax") num as u64 => q,
                inout("rdx") (num >> 64) as u64 => rem,
                options(pure, nomem, nostack),
            );
        }
        return (u128::from(q), rem != 0);
    }
    let d = u128::from(d);
    (num / d, !num.is_multiple_of(d))
}

/// Division `a / b` with the same width conventions as [`mul`]; used by
/// decryption to strip the noise.
#[inline]
pub fn div(a: &Hfp, b: &Hfp, out_ew: u32, out_mw: u32) -> Hfp {
    assert!(!b.is_zero(), "HFP division by zero");
    if a.is_zero() {
        return Hfp::zero(out_ew, out_mw);
    }
    let ea = sign_extend(a.exp, a.ew, out_ew);
    let eb = sign_extend(b.exp, b.ew, out_ew);
    // q ≈ (siga/sigb) << k, with the remainder folded into a sticky bit.
    // k guarantees ≥ out_mw+2 quotient bits while keeping the shifted
    // numerator within 128 bits even at fp64 widths (mw ≤ 52). For equal
    // widths q < 2^{mw+3} ≤ 2^55, so the single hardware division always
    // applies; only a narrow divisor under a wide output overflows it.
    let k = out_mw + 2 + b.mw.saturating_sub(a.mw);
    debug_assert!(a.mw + 1 + k < 128);
    let (q, rem_nz) = div_rem_nz((a.sig as u128) << k, b.sig);
    let r = (q << 1) | u128::from(rem_nz);
    // Value = r × 2^{ea-eb-mwa+mwb-k-1}; base = that exponent + out_mw.
    let base = ring_add(
        ring_sub(ea, eb, out_ew),
        ring_from_i64(
            out_mw as i64 - a.mw as i64 + b.mw as i64 - k as i64 - 1,
            out_ew,
        ),
        out_ew,
    );
    normalize_round(r, base, a.sign ^ b.sign, out_ew, out_mw)
}

/// Reciprocal of a noise value (used by Eq. 7 decryption:
/// `F^{-1} = (-1)^{s_f} × 1/m_f × 2^{-e_f}`).
pub fn recip(b: &Hfp, out_ew: u32, out_mw: u32) -> Hfp {
    div(&Hfp::one(b.ew, b.mw), b, out_ew, out_mw)
}

/// Ciphertext-domain addition (§5.3.5) — the operation the untrusted
/// network performs. Both operands must share the same widths. Exponent
/// comparison uses the two-difference ring trick; mantissa alignment,
/// addition/subtraction and renormalization otherwise follow ordinary
/// floating-point addition, with every exponent adjustment on the ring.
///
/// Which operand is larger and whether the signs agree are coin flips on
/// ciphertexts, so both are selected with masks rather than jumps.
#[inline]
pub fn add(a: &Hfp, b: &Hfp) -> Hfp {
    assert_eq!(
        (a.ew, a.mw),
        (b.ew, b.mw),
        "HFP addition requires equal widths"
    );
    let (ew, mw) = (a.ew, a.mw);
    if a.is_zero() {
        return *b;
    }
    if b.is_zero() {
        return *a;
    }
    // Order operands: l has the ring-larger exponent (ties by significand;
    // a tie at half the ring goes to `a`, as in `ring_cmp`).
    let d12 = ring_sub(a.exp, b.exp, ew);
    let d21 = ring_sub(b.exp, a.exp, ew);
    let a_larger = (d12 <= d21) & ((d12 != 0) | (a.sig >= b.sig));
    let pick_b = u64::from(a_larger).wrapping_sub(1); // all ones iff b is l
    let swap_sig = (a.sig ^ b.sig) & pick_b;
    let (l_sig, s_sig) = (a.sig ^ swap_sig, b.sig ^ swap_sig);
    let l_exp = a.exp ^ ((a.exp ^ b.exp) & pick_b);
    let l_sign = (a.sign & a_larger) | (b.sign & !a_larger);
    let s_sign = a.sign ^ b.sign ^ l_sign;
    // Beyond mw+2 bits of misalignment the small operand only contributes
    // a sticky bit; cap the shift so the intermediate fits 128 bits.
    let gap = d12.min(d21).min(mw as u64 + 3) as u32;
    let big = (l_sig as u128) << gap;
    let small = s_sig as u128;
    // `big ≥ small` for canonical operands; a tampered significand can
    // invert it, and then the result takes the small operand's sign. An
    // exact cancellation leaves r = 0, which normalizes to zero.
    let same = u128::from(l_sign == s_sign).wrapping_neg();
    let r = ((big + small) & same) | (big.abs_diff(small) & !same);
    let sign = if (same == 0) & (big < small) {
        s_sign
    } else {
        l_sign
    };
    // Value = r × 2^{el-gap-mw} = r × 2^{base-mw} with base = el - gap.
    let base = ring_sub(l_exp, gap as u64, ew);
    normalize_round(r, base, sign, ew, mw)
}

/// Negation (sign flip; exact).
pub fn neg(a: &Hfp) -> Hfp {
    let mut out = *a;
    if !out.is_zero() {
        out.sign = !out.sign;
    }
    out
}

/// Re-round a value into different widths (e.g. demote a decrypted result
/// from the ciphertext ring back to the plaintext layout). Exponent bits
/// are truncated on the ring, which is only meaningful when the value is
/// known to fit — callers check [`Hfp::exponent`] first.
pub fn round_to(a: &Hfp, out_ew: u32, out_mw: u32) -> Hfp {
    if a.is_zero() {
        return Hfp::zero(out_ew, out_mw);
    }
    normalize_round(
        a.sig as u128,
        ring_add(
            ring_from_i64(a.exponent(), out_ew),
            ring_from_i64(out_mw as i64 - a.mw as i64, out_ew),
            out_ew,
        ),
        a.sign,
        out_ew,
        out_mw,
    )
}

/// The scalar kernels as first written — a jump per rounding decision, a
/// three-way operand ordering, two software divisions. Kept as the
/// reference the branch-free kernels above are property-tested against
/// bit for bit (here and in `hear-core`'s float ciphers) and as the
/// baseline `crypto_throughput`'s float rows time; nothing else calls it.
#[doc(hidden)]
pub mod reference {
    use crate::format::Hfp;
    use crate::ringexp::{ring_add, ring_cmp, ring_from_i64, ring_sub, sign_extend};
    use std::cmp::Ordering;

    #[inline]
    pub fn normalize_round(r: u128, base_exp: u64, sign: bool, ew: u32, mw: u32) -> Hfp {
        if r == 0 {
            return Hfp::zero(ew, mw);
        }
        let len = 128 - r.leading_zeros();
        let target = mw + 1;
        if len <= target {
            // Widen exactly.
            let shift = target - len;
            return Hfp {
                sign,
                exp: ring_sub(base_exp, shift as u64, ew),
                sig: (r << shift) as u64,
                ew,
                mw,
            };
        }
        // Round down to target bits.
        let drop = len - target;
        let kept = (r >> drop) as u64;
        let round = (r >> (drop - 1)) & 1;
        let sticky = r & ((1u128 << (drop - 1)) - 1);
        let mut sig = kept;
        if round == 1 && (sticky != 0 || kept & 1 == 1) {
            sig += 1;
        }
        let mut exp = ring_add(base_exp, drop as u64, ew);
        if sig >> target != 0 {
            sig >>= 1;
            exp = ring_add(exp, 1, ew);
        }
        Hfp {
            sign,
            exp,
            sig,
            ew,
            mw,
        }
    }

    #[inline]
    pub fn mul(a: &Hfp, b: &Hfp, out_ew: u32, out_mw: u32) -> Hfp {
        if a.is_zero() || b.is_zero() {
            return Hfp::zero(out_ew, out_mw);
        }
        let ea = sign_extend(a.exp, a.ew, out_ew);
        let eb = sign_extend(b.exp, b.ew, out_ew);
        let p = (a.sig as u128) * (b.sig as u128);
        // Value = p × 2^{ea+eb-mwa-mwb}; normalize_round wants base such that
        // value = p × 2^{base-out_mw}.
        let base = ring_add(
            ring_add(ea, eb, out_ew),
            ring_from_i64(out_mw as i64 - a.mw as i64 - b.mw as i64, out_ew),
            out_ew,
        );
        normalize_round(p, base, a.sign ^ b.sign, out_ew, out_mw)
    }

    #[inline]
    pub fn div(a: &Hfp, b: &Hfp, out_ew: u32, out_mw: u32) -> Hfp {
        assert!(!b.is_zero(), "HFP division by zero");
        if a.is_zero() {
            return Hfp::zero(out_ew, out_mw);
        }
        let ea = sign_extend(a.exp, a.ew, out_ew);
        let eb = sign_extend(b.exp, b.ew, out_ew);
        // q ≈ (siga/sigb) << k, with the remainder folded into a sticky bit.
        // k guarantees ≥ out_mw+2 quotient bits while keeping the shifted
        // numerator within 128 bits even at fp64 widths (mw ≤ 52).
        let k = out_mw + 2 + b.mw.saturating_sub(a.mw);
        debug_assert!(a.mw + 1 + k < 128);
        let num = (a.sig as u128) << k;
        let q = num / b.sig as u128;
        let rem = num % b.sig as u128;
        let r = (q << 1) | u128::from(rem != 0);
        // Value = r × 2^{ea-eb-mwa+mwb-k-1}; base = that exponent + out_mw.
        let base = ring_add(
            ring_sub(ea, eb, out_ew),
            ring_from_i64(
                out_mw as i64 - a.mw as i64 + b.mw as i64 - k as i64 - 1,
                out_ew,
            ),
            out_ew,
        );
        normalize_round(r, base, a.sign ^ b.sign, out_ew, out_mw)
    }

    #[inline]
    pub fn add(a: &Hfp, b: &Hfp) -> Hfp {
        assert_eq!(
            (a.ew, a.mw),
            (b.ew, b.mw),
            "HFP addition requires equal widths"
        );
        let (ew, mw) = (a.ew, a.mw);
        if a.is_zero() {
            return *b;
        }
        if b.is_zero() {
            return *a;
        }
        // Order operands: l has the ring-larger exponent (ties by significand).
        let (ord, gap) = ring_cmp(a.exp, b.exp, ew);
        let (l, s) = match ord {
            Ordering::Greater => (a, b),
            Ordering::Less => (b, a),
            Ordering::Equal => {
                if a.sig >= b.sig {
                    (a, b)
                } else {
                    (b, a)
                }
            }
        };
        // Beyond mw+2 bits of misalignment the small operand only contributes
        // a sticky bit; cap the shift so the intermediate fits 128 bits.
        let gap = gap.min(mw as u64 + 3) as u32;
        let big = (l.sig as u128) << gap;
        let small = s.sig as u128;
        let (sign, r) = if l.sign == s.sign {
            (l.sign, big + small)
        } else {
            match big.cmp(&small) {
                Ordering::Greater => (l.sign, big - small),
                Ordering::Less => (s.sign, small - big),
                Ordering::Equal => return Hfp::zero(ew, mw),
            }
        };
        // Value = r × 2^{el-gap-mw} = r × 2^{base-mw} with base = el - gap.
        let base = ring_sub(l.exp, gap as u64, ew);
        normalize_round(r, base, sign, ew, mw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(v: f64, ew: u32, mw: u32) -> Hfp {
        Hfp::from_f64(v, ew, mw).unwrap()
    }

    #[test]
    fn mul_exact_values() {
        let a = h(1.5, 8, 23);
        let b = h(2.0, 8, 23);
        assert_eq!(mul(&a, &b, 8, 23).to_f64(), 3.0);
        assert_eq!(mul(&a, &h(-4.0, 8, 23), 8, 23).to_f64(), -6.0);
        assert_eq!(mul(&h(-2.0, 8, 23), &h(-8.0, 8, 23), 8, 23).to_f64(), 16.0);
    }

    #[test]
    fn mul_mantissa_overflow_normalizes() {
        // 1.5 × 1.5 = 2.25: product of mantissas ≥ 2 ⇒ exponent +1.
        let r = mul(&h(1.5, 8, 23), &h(1.5, 8, 23), 8, 23);
        assert_eq!(r.to_f64(), 2.25);
        assert_eq!(r.exponent(), 1);
        assert!(r.is_canonical());
    }

    #[test]
    fn mul_exponent_wraps_on_ring() {
        // 2^100 × 2^100 wraps the 8-bit ring: 200 mod 256 = 200 → signed -56.
        let a = Hfp {
            sign: false,
            exp: ring_from_i64(100, 8),
            sig: 1 << 23,
            ew: 8,
            mw: 23,
        };
        let r = mul(&a, &a, 8, 23);
        assert_eq!(r.exponent(), to_signed_check(200, 8));
        assert!(r.is_canonical());
    }

    fn to_signed_check(v: i64, w: u32) -> i64 {
        crate::ringexp::to_signed(ring_from_i64(v, w), w)
    }

    #[test]
    fn mul_widening_plaintext_times_noise() {
        // Plaintext (8,23) ⊗ noise (10,23) → ciphertext (10,23): the
        // paper's FP32 addition layout with γ=2.
        let x = h(3.75, 8, 23);
        let noise = h(1.25 * f64::powi(2.0, 200), 10, 23);
        let c = mul(&x, &noise, 10, 23);
        assert_eq!((c.ew, c.mw), (10, 23));
        // Decrypting recovers the plaintext.
        let back = div(&c, &noise, 10, 23);
        assert_eq!(back.to_f64(), 3.75);
    }

    #[test]
    fn div_exact() {
        assert_eq!(div(&h(12.0, 8, 23), &h(4.0, 8, 23), 8, 23).to_f64(), 3.0);
        assert_eq!(div(&h(1.0, 8, 23), &h(2.0, 8, 23), 8, 23).to_f64(), 0.5);
        assert_eq!(div(&h(-9.0, 8, 23), &h(3.0, 8, 23), 8, 23).to_f64(), -3.0);
    }

    #[test]
    fn div_rounds_to_nearest() {
        // 1/3 in (8,23): compare against f32 semantics (same mantissa width).
        let r = div(&h(1.0, 8, 23), &h(3.0, 8, 23), 8, 23);
        assert_eq!(r.to_f64(), (1.0f32 / 3.0f32) as f64);
    }

    #[test]
    fn recip_matches_div() {
        let b = h(1.7, 10, 21);
        let r1 = recip(&b, 10, 21);
        let r2 = div(&Hfp::one(10, 21), &b, 10, 21);
        assert_eq!(r1, r2);
        // recip(recip(x)) ≈ x.
        let back = recip(&r1, 10, 21);
        let rel = (back.to_f64() - 1.7).abs() / 1.7;
        assert!(rel < 1e-5, "rel {rel}");
    }

    #[test]
    fn add_basic() {
        assert_eq!(add(&h(1.5, 8, 23), &h(2.25, 8, 23)).to_f64(), 3.75);
        assert_eq!(add(&h(-1.5, 8, 23), &h(1.5, 8, 23)).to_f64(), 0.0);
        assert_eq!(add(&h(-1.5, 8, 23), &h(0.5, 8, 23)).to_f64(), -1.0);
        assert_eq!(add(&h(4.0, 8, 23), &Hfp::zero(8, 23)).to_f64(), 4.0);
        assert_eq!(add(&Hfp::zero(8, 23), &h(4.0, 8, 23)).to_f64(), 4.0);
    }

    #[test]
    fn add_matches_f32_on_random_pairs() {
        // (8,23) addition must agree with IEEE f32 for in-range normals.
        let mut state = 0x12345u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2000 {
            let a = f32::from_bits((next() as u32 & 0x3fff_ffff) | 0x2000_0000);
            let b = f32::from_bits((next() as u32 & 0x3fff_ffff) | 0x2000_0000);
            if !a.is_normal() || !b.is_normal() {
                continue;
            }
            let r = add(&h(a as f64, 8, 23), &h(b as f64, 8, 23));
            let expect = a + b;
            if expect.is_normal() {
                assert_eq!(r.to_f64(), expect as f64, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn add_with_large_gap_keeps_big_operand() {
        let big = h(f64::powi(2.0, 30), 10, 23);
        let tiny = h(f64::powi(2.0, -30), 10, 23);
        let r = add(&big, &tiny);
        assert_eq!(r.to_f64(), f64::powi(2.0, 30));
    }

    #[test]
    fn add_cancellation_normalizes() {
        // 1.0 + (-0.9999999) leaves a tiny result requiring a long left
        // shift; (8,23) mirrors f32.
        let a = 1.0f32;
        let b = -0.999_999_94f32; // 1 - 2^-24 ≈ largest f32 below 1
        let r = add(&h(a as f64, 8, 23), &h(b as f64, 8, 23));
        assert_eq!(r.to_f64(), (a + b) as f64);
    }

    #[test]
    fn add_ring_ordering_across_wrap() {
        // Exponents 130 and -120 on an 8-bit ring: signed values wrap, but
        // the ring comparison still identifies the closer/larger operand as
        // long as the true gap is below half the ring. Gap here: 130-(-120)
        // = 250 > 128 — deliberately ambiguous, so instead test a valid one:
        // exponents 100 and 120 (gap 20).
        let a = Hfp {
            sign: false,
            exp: ring_from_i64(120, 8),
            sig: 1 << 23,
            ew: 8,
            mw: 23,
        };
        let b = Hfp {
            sign: false,
            exp: ring_from_i64(100, 8),
            sig: 1 << 23,
            ew: 8,
            mw: 23,
        };
        let r = add(&a, &b);
        // 2^120 + 2^100 ≈ 2^120 (the 2^100 is far below the mantissa).
        assert_eq!(r.exponent(), 120);
    }

    #[test]
    fn add_commutes() {
        let xs = [1.5, -2.25, 1024.0, 3.0e-5, -7.0];
        for &x in &xs {
            for &y in &xs {
                let a = h(x, 10, 21);
                let b = h(y, 10, 21);
                assert_eq!(add(&a, &b), add(&b, &a), "x={x} y={y}");
            }
        }
    }

    #[test]
    fn neg_flips_sign_only() {
        let a = h(2.5, 8, 23);
        assert_eq!(neg(&a).to_f64(), -2.5);
        assert_eq!(neg(&neg(&a)), a);
        assert_eq!(neg(&Hfp::zero(8, 23)), Hfp::zero(8, 23));
    }

    #[test]
    fn round_to_demotes() {
        let wide = h(1.0 + f64::powi(2.0, -20), 10, 23);
        let narrow = round_to(&wide, 5, 10);
        assert_eq!(narrow.to_f64(), 1.0);
        assert_eq!((narrow.ew, narrow.mw), (5, 10));
    }

    #[test]
    fn table3_mul_example() {
        // Table 3 (MPI_PROD, half precision): rank 1 value 1.125×2^9 with
        // noise 1.75×2^22 encrypts to 1.969×2^31 — but the printed table
        // shows the product path; here verify the core identity
        // enc = x ⊗ n and dec = enc ⊘ n restores x.
        // The noise exponent 22 lives on the 5-bit ring (wraps to signed
        // -10): noise is constructed directly, never via from_f64.
        let x = h(1.125 * f64::powi(2.0, 9), 5, 10);
        let n = Hfp {
            sign: false,
            exp: ring_from_i64(22, 5),
            sig: (1 << 10) | 0b11_0000_0000, // 1.75 in 10 mantissa bits
            ew: 5,
            mw: 10,
        };
        let c = mul(&x, &n, 5, 10);
        assert!(c.is_canonical());
        let back = div(&c, &n, 5, 10);
        assert_eq!(back.to_f64(), 1.125 * f64::powi(2.0, 9));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn hfp32(m: f64, e: i32, neg: bool) -> Hfp {
        let v = if neg { -m } else { m } * f64::powi(2.0, e);
        Hfp::from_f64(v, 8, 23).unwrap()
    }

    proptest! {
        #[test]
        fn mul_matches_f64_within_ulp(
            ma in 1.0f64..2.0, ea in -30i32..30, na in any::<bool>(),
            mb in 1.0f64..2.0, eb in -30i32..30, nb in any::<bool>(),
        ) {
            let a = hfp32(ma, ea, na);
            let b = hfp32(mb, eb, nb);
            let r = mul(&a, &b, 8, 23).to_f64();
            let expect = a.to_f64() * b.to_f64();
            let ulp = expect.abs() * f64::powi(2.0, -23);
            prop_assert!((r - expect).abs() <= ulp, "r={} expect={}", r, expect);
        }

        #[test]
        fn add_matches_f64_within_ulp(
            ma in 1.0f64..2.0, ea in -20i32..20, na in any::<bool>(),
            mb in 1.0f64..2.0, eb in -20i32..20, nb in any::<bool>(),
        ) {
            let a = hfp32(ma, ea, na);
            let b = hfp32(mb, eb, nb);
            let r = add(&a, &b).to_f64();
            let expect = a.to_f64() + b.to_f64();
            let scale = a.to_f64().abs().max(b.to_f64().abs());
            prop_assert!((r - expect).abs() <= scale * f64::powi(2.0, -23));
        }

        #[test]
        fn mul_div_roundtrip(
            ma in 1.0f64..2.0, ea in -30i32..30,
            mb in 1.0f64..2.0, eb in -30i32..30,
        ) {
            let a = hfp32(ma, ea, false);
            let b = hfp32(mb, eb, false);
            let r = div(&mul(&a, &b, 10, 25), &b, 10, 25);
            let rel = (r.to_f64() - a.to_f64()).abs() / a.to_f64();
            // Two roundings at 25-bit mantissa.
            prop_assert!(rel <= f64::powi(2.0, -24), "rel={}", rel);
        }

        #[test]
        fn results_are_canonical(
            ma in 1.0f64..2.0, ea in -30i32..30, na in any::<bool>(),
            mb in 1.0f64..2.0, eb in -30i32..30, nb in any::<bool>(),
        ) {
            let a = hfp32(ma, ea, na);
            let b = hfp32(mb, eb, nb);
            prop_assert!(mul(&a, &b, 8, 23).is_canonical());
            prop_assert!(add(&a, &b).is_canonical());
            prop_assert!(div(&a, &b, 8, 23).is_canonical());
        }
    }
}

/// The branch-free kernels against [`reference`], bit for bit, over every
/// ciphertext layout of fp16 / fp32 / fp64 × δ ∈ {0, 2} × γ ∈ {0, 2}
/// (fp64 with δ = 0, γ = 2 would need a 54-bit mantissa and does not exist).
#[cfg(test)]
mod bit_identity {
    use super::*;
    use crate::format::HfpFormat;
    use crate::ringexp::mask;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// `(plain widths, cipher widths)` of every layout under test.
    fn layouts() -> Vec<((u32, u32), (u32, u32))> {
        let mut v = Vec::new();
        for (le, lm) in [(5, 10), (8, 23), (11, 52)] {
            for delta in [0, 2] {
                for gamma in [0, 2] {
                    if lm - delta + gamma <= 52 {
                        let f = HfpFormat::new(le, lm, delta, gamma);
                        v.push((f.plain_widths(), f.cipher_widths()));
                    }
                }
            }
        }
        assert_eq!(v.len(), 11);
        v
    }

    /// A uniformly random canonical value, as PRF noise would produce it.
    fn any_hfp(rng: &mut TestRng, (ew, mw): (u32, u32)) -> Hfp {
        Hfp {
            sign: rng.gen_bool(0.5),
            exp: rng.next_u64() & mask(ew),
            sig: (1 << mw) | (rng.next_u64() & mask(mw)),
            ew,
            mw,
        }
    }

    /// Significands that stress rounding: all ones (round-up carries into
    /// the exponent), a bare hidden one, odd/even last bits (ties), random.
    fn edgy_sig(rng: &mut TestRng, mw: u32) -> u64 {
        match rng.next_u64() % 5 {
            0 => mask(mw + 1),
            1 => 1 << mw,
            2 => (1 << mw) | 1,
            3 => mask(mw + 1) - 1,
            _ => (1 << mw) | (rng.next_u64() & mask(mw)),
        }
    }

    /// `b` at a chosen exponent distance from `a`: the rounding boundary
    /// cases (0, 1, mw+2, mw+3 — where the shift is capped — and beyond),
    /// the ring's far side, and anything.
    fn at_gap(rng: &mut TestRng, a: &Hfp) -> Hfp {
        let mw = u64::from(a.mw);
        let half = 1u64 << (a.ew - 1);
        let gap = match rng.next_u64() % 10 {
            0 | 1 => 0,
            2 => 1,
            3 => mw + 2,
            4 => mw + 3,
            5 => mw + 4 + rng.next_u64() % 8,
            6 => half,
            7 => half - 1,
            _ => rng.next_u64(),
        };
        let exp = if rng.gen_bool(0.5) {
            ring_add(a.exp, gap, a.ew)
        } else {
            ring_sub(a.exp, gap, a.ew)
        };
        Hfp {
            sign: rng.gen_bool(0.5),
            exp,
            sig: edgy_sig(rng, a.mw),
            ..*a
        }
    }

    proptest! {
        #[test]
        fn normalize_round_equals_reference(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            for (_, (ew, mw)) in layouts() {
                for _ in 0..64 {
                    // Any length from empty to the full 128 bits; the bits
                    // below the kept ones are zero (exact, and a tie when
                    // the round bit is set), all ones, or random.
                    let len = (rng.next_u64() % 129) as u32;
                    let top = if len == 0 { 0 } else { u128::MAX >> (128 - len) };
                    let low = top >> (mw + 1).min(127);
                    let r = match rng.next_u64() % 4 {
                        0 => rng.next_u128() & top & !low,
                        1 => (rng.next_u128() & top & !low) | (low ^ (low >> 1)),
                        2 => (rng.next_u128() & top) | low,
                        _ => rng.next_u128() & top,
                    };
                    let base = rng.next_u64() & mask(ew);
                    let sign = rng.gen_bool(0.5);
                    prop_assert_eq!(
                        normalize_round(r, base, sign, ew, mw),
                        reference::normalize_round(r, base, sign, ew, mw),
                        "r={:#x} base={} ew={} mw={}", r, base, ew, mw
                    );
                }
            }
        }

        #[test]
        fn add_equals_reference(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            for (_, widths) in layouts() {
                for _ in 0..64 {
                    let mut a = any_hfp(&mut rng, widths);
                    a.sig = edgy_sig(&mut rng, a.mw);
                    let mut b = at_gap(&mut rng, &a);
                    match rng.next_u64() % 16 {
                        // Exact cancellation, and its same-sign twin.
                        0 => b = Hfp { sign: !a.sign, ..a },
                        1 => b = a,
                        // Zero operands, either side and both.
                        2 => a = Hfp::zero(a.ew, a.mw),
                        3 => b = Hfp::zero(a.ew, a.mw),
                        4 => (a, b) = (Hfp::zero(a.ew, a.mw), Hfp::zero(a.ew, a.mw)),
                        // A tampered significand: hidden one gone, or bits
                        // above it, so `big < small` becomes reachable.
                        5 => b.sig = rng.next_u64() & mask(a.mw),
                        6 => b.sig = rng.next_u64() & mask(a.mw + 3),
                        _ => {}
                    }
                    prop_assert_eq!(add(&a, &b), reference::add(&a, &b), "a={:?} b={:?}", a, b);
                    prop_assert_eq!(add(&b, &a), reference::add(&b, &a), "a={:?} b={:?}", b, a);
                }
            }
        }

        #[test]
        fn mul_equals_reference(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            for (plain, cipher) in layouts() {
                for _ in 0..64 {
                    // Plaintext ⊗ noise (widening) and ciphertext ⊗
                    // ciphertext (the product scheme's combine).
                    let a_widths = if rng.gen_bool(0.5) { plain } else { cipher };
                    let mut a = any_hfp(&mut rng, a_widths);
                    let mut b = any_hfp(&mut rng, cipher);
                    a.sig = edgy_sig(&mut rng, a.mw);
                    b.sig = edgy_sig(&mut rng, b.mw);
                    match rng.next_u64() % 16 {
                        0 => a = Hfp::zero(a.ew, a.mw),
                        1 => b = Hfp::zero(b.ew, b.mw),
                        _ => {}
                    }
                    let (ew, mw) = cipher;
                    prop_assert_eq!(
                        mul(&a, &b, ew, mw), reference::mul(&a, &b, ew, mw), "a={:?} b={:?}", a, b
                    );
                }
            }
        }

        #[test]
        fn div_equals_reference(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            for (plain, cipher) in layouts() {
                for _ in 0..64 {
                    // Ciphertext ⊘ noise at equal widths (always the single
                    // division), and narrower divisors under the wide output:
                    // the plaintext layout, and fp16's 11-bit significand,
                    // under which an fp64 quotient outgrows 64 bits (the
                    // generic fallback).
                    let mut a = any_hfp(&mut rng, cipher);
                    let b_widths = match rng.next_u64() % 8 {
                        0 => plain,
                        1 => (5, 10),
                        _ => cipher,
                    };
                    let mut b = any_hfp(&mut rng, b_widths);
                    a.sig = edgy_sig(&mut rng, a.mw);
                    b.sig = edgy_sig(&mut rng, b.mw);
                    match rng.next_u64() % 16 {
                        0 => a = Hfp::zero(a.ew, a.mw),
                        // An exact quotient: no sticky bit.
                        1 => b.sig = 1 << b.mw,
                        2 => b = a,
                        _ => {}
                    }
                    let (ew, mw) = cipher;
                    prop_assert_eq!(
                        div(&a, &b, ew, mw), reference::div(&a, &b, ew, mw), "a={:?} b={:?}", a, b
                    );
                }
            }
        }

        #[test]
        fn div_rem_nz_equals_u128_division(num in any::<u128>(), d in 1u64.., shift in 0u32..128) {
            // Both sides of the `high half < d` test, by shrinking the
            // numerator until the quotient fits.
            let num = num >> shift;
            let wide = u128::from(d);
            let q = num / wide;
            prop_assert_eq!(div_rem_nz(num, d), (q, num - q * wide != 0));
        }

        #[test]
        fn to_f64_equals_scaling(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            // The cipher layouts plus a 12-bit ring whose exponents leave
            // f64's range on both sides.
            let mut widths: Vec<(u32, u32)> = layouts().into_iter().map(|l| l.1).collect();
            widths.push((12, 52));
            for w in widths {
                for _ in 0..64 {
                    let mut h = any_hfp(&mut rng, w);
                    match rng.next_u64() % 16 {
                        0 => h = Hfp::zero(h.ew, h.mw),
                        // The edges of the normal range, from inside and out.
                        1 => h.exp = ring_from_i64(-1022 - (rng.next_u64() % 3) as i64, h.ew),
                        2 => h.exp = ring_from_i64(1023 + (rng.next_u64() % 3) as i64, h.ew),
                        3 => h.sig = rng.next_u64() & mask(h.mw + 2),
                        _ => {}
                    }
                    prop_assert_eq!(
                        h.to_f64().to_bits(), h.to_f64_by_scaling().to_bits(), "{:?}", h
                    );
                }
            }
        }
    }

    #[test]
    fn ties_round_to_even_and_carry_into_the_exponent() {
        // Directed twins of the random cases, with the expected values
        // spelled out: kept = odd / even with exactly half an ulp below.
        let (ew, mw) = (7, 8);
        let tie = |kept: u128| (kept << 4) | 0b1000;
        let up = normalize_round(tie(0b1_0000_0001), 0, false, ew, mw);
        let down = normalize_round(tie(0b1_0000_0010), 0, false, ew, mw);
        assert_eq!((up.sig, down.sig), (0b1_0000_0010, 0b1_0000_0010));
        // All ones rounds up to 2^{mw+1}: one more exponent step, and the
        // step wraps the 7-bit ring.
        let carried = normalize_round(tie(0b1_1111_1111), 123, true, ew, mw);
        assert_eq!((carried.sig, carried.exp, carried.sign), (1 << mw, 0, true));
        assert_eq!(
            carried,
            reference::normalize_round(tie(0b1_1111_1111), 123, true, ew, mw)
        );
    }
}

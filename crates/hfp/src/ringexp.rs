//! Ring arithmetic on exponents (paper §5.3.5).
//!
//! HFP exponents are two's-complement integers that live on the ring
//! `Z_{2^w}` so that adding encryption noise wraps instead of saturating
//! (a saturating cap such as IEEE's infinity exponent would let an adversary
//! anchor the ring — §5.3.5's rainbow-table argument). Comparison of two
//! ring exponents is performed with the paper's two-difference trick: of
//! `e1 ⊖ e2` and `e2 ⊖ e1`, the smaller difference is the true gap and the
//! minuend of that difference is the larger exponent.

use std::cmp::Ordering;

/// Mask for a `w`-bit ring (1 ≤ w ≤ 64).
#[inline]
pub fn mask(w: u32) -> u64 {
    debug_assert!((1..=64).contains(&w));
    if w == 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// `a + b` on the `w`-bit ring.
#[inline]
pub fn ring_add(a: u64, b: u64, w: u32) -> u64 {
    a.wrapping_add(b) & mask(w)
}

/// `a - b` on the `w`-bit ring.
#[inline]
pub fn ring_sub(a: u64, b: u64, w: u32) -> u64 {
    a.wrapping_sub(b) & mask(w)
}

/// `-a` on the `w`-bit ring.
#[inline]
pub fn ring_neg(a: u64, w: u32) -> u64 {
    a.wrapping_neg() & mask(w)
}

/// Embed a signed value into the `w`-bit ring (two's complement).
#[inline]
pub fn ring_from_i64(v: i64, w: u32) -> u64 {
    (v as u64) & mask(w)
}

/// Interpret a `w`-bit ring element as a signed (two's complement) value.
#[inline]
pub fn to_signed(v: u64, w: u32) -> i64 {
    debug_assert!((1..=64).contains(&w));
    // Move the ring's sign bit to bit 63 and shift it back arithmetically.
    let unused = 64 - w;
    ((v << unused) as i64) >> unused
}

/// Sign-extend a two's-complement value from width `from_w` to width `to_w`.
#[inline]
pub fn sign_extend(v: u64, from_w: u32, to_w: u32) -> u64 {
    debug_assert!(from_w <= to_w);
    ring_from_i64(to_signed(v, from_w), to_w)
}

/// The paper's ring comparison: returns the ordering of `e1` relative to
/// `e2` and the magnitude gap between them.
///
/// Ties at exactly half the ring (where both differences are equal) are
/// resolved as `e1 ≥ e2`; the δ=2 headroom of the addition scheme ensures
/// honest ciphertexts never reach that point.
#[inline]
pub fn ring_cmp(e1: u64, e2: u64, w: u32) -> (Ordering, u64) {
    let d12 = ring_sub(e1, e2, w);
    if d12 == 0 {
        return (Ordering::Equal, 0);
    }
    let d21 = ring_sub(e2, e1, w);
    if d12 <= d21 {
        (Ordering::Greater, d12)
    } else {
        (Ordering::Less, d21)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks() {
        assert_eq!(mask(1), 1);
        assert_eq!(mask(5), 31);
        assert_eq!(mask(64), u64::MAX);
    }

    #[test]
    fn ring_ops_wrap() {
        assert_eq!(ring_add(30, 5, 5), 3); // 35 mod 32
        assert_eq!(ring_sub(2, 5, 5), 29);
        assert_eq!(ring_neg(1, 5), 31);
        assert_eq!(ring_neg(0, 5), 0);
    }

    #[test]
    fn signed_roundtrip() {
        for w in [4u32, 5, 8, 13, 63, 64] {
            for v in [-3i64, -1, 0, 1, 5] {
                assert_eq!(to_signed(ring_from_i64(v, w), w), v, "w={w} v={v}");
            }
        }
        assert_eq!(to_signed(0b1000, 4), -8);
        assert_eq!(to_signed(0b0111, 4), 7);
    }

    #[test]
    fn sign_extension() {
        // -3 in 4 bits is 1101; in 6 bits it is 111101.
        assert_eq!(sign_extend(0b1101, 4, 6), 0b111101);
        assert_eq!(sign_extend(0b0101, 4, 6), 0b000101);
        assert_eq!(to_signed(sign_extend(0b1000, 4, 8), 8), -8);
    }

    #[test]
    fn paper_example_ring_compare() {
        // §5.3.5: l_e = 4, arithmetic mod 2^5 = 32, e1 = 2, e2 = 21:
        // e1 - e2 = 13, e2 - e1 = 19, so e1 > e2 with gap 13.
        let (ord, gap) = ring_cmp(2, 21, 5);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(gap, 13);
        let (ord, gap) = ring_cmp(21, 2, 5);
        assert_eq!(ord, Ordering::Less);
        assert_eq!(gap, 13);
    }

    #[test]
    fn compare_equal_and_adjacent() {
        assert_eq!(ring_cmp(7, 7, 5), (Ordering::Equal, 0));
        assert_eq!(ring_cmp(0, 31, 5), (Ordering::Greater, 1)); // wraps
        assert_eq!(ring_cmp(31, 0, 5), (Ordering::Less, 1));
    }

    #[test]
    fn compare_is_antisymmetric_off_tie() {
        for e1 in 0u64..32 {
            for e2 in 0u64..32 {
                let (o12, g12) = ring_cmp(e1, e2, 5);
                let (o21, g21) = ring_cmp(e2, e1, 5);
                assert_eq!(g12, g21);
                if g12 != 16 && e1 != e2 {
                    assert_eq!(o12, o21.reverse(), "e1={e1} e2={e2}");
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn add_sub_inverse(a in any::<u64>(), b in any::<u64>(), w in 1u32..=64) {
            let a = a & mask(w);
            let b = b & mask(w);
            prop_assert_eq!(ring_add(ring_sub(a, b, w), b, w), a);
        }

        #[test]
        fn compare_matches_signed_when_close(base in -1000i64..1000, off in -7i64..=7, w in 6u32..=16) {
            // When the true gap is far below the ring size, ring_cmp must
            // agree with ordinary signed comparison.
            let e1 = ring_from_i64(base, w);
            let e2 = ring_from_i64(base + off, w);
            let (ord, gap) = ring_cmp(e1, e2, w);
            prop_assert_eq!(ord, 0i64.cmp(&off), "base={} off={}", base, off);
            prop_assert_eq!(gap, off.unsigned_abs());
        }

        #[test]
        fn sign_extend_preserves_value(v in any::<i32>(), from in 33u32..48, to in 48u32..=64) {
            let r = sign_extend(ring_from_i64(v as i64, from), from, to);
            prop_assert_eq!(to_signed(r, to), v as i64);
        }
    }
}

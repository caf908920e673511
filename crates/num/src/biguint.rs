//! Arbitrary-precision unsigned integers on 64-bit limbs (little-endian).
//!
//! This is the workhorse beneath [`crate::BigFloat`] (exact reference sums
//! for the Fig. 3 precision study) and the classical HE baselines
//! (Paillier/RSA/ElGamal modular exponentiation for Table 1). Only the
//! operations those consumers need are implemented, but each is implemented
//! completely: schoolbook multiplication, Knuth-D division, bit shifts,
//! modular exponentiation and gcd.

use std::cmp::Ordering;

/// An arbitrary-precision unsigned integer. Invariant: no trailing zero
/// limbs (the canonical representation of zero is an empty limb vector).
#[derive(Clone, PartialEq, Eq, Default, Hash)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut b = BigUint {
            limbs: vec![lo, hi],
        };
        b.normalize();
        b
    }

    /// Construct from little-endian limbs (normalizing).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut b = BigUint { limbs };
        b.normalize();
        b
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u64) * 64 - top.leading_zeros() as u64,
        }
    }

    /// Test bit `i` (little-endian bit order).
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / 64) as usize;
        limb < self.limbs.len() && (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    #[cfg(test)]
    fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some((self.limbs[1] as u128) << 64 | self.limbs[0] as u128),
            _ => None,
        }
    }

    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// Subtraction; panics on underflow (callers compare first).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(
            self.cmp(other) != Ordering::Less,
            "BigUint subtraction underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, o1) = self.limbs[i].overflowing_sub(b);
            let (d2, o2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (o1 as u64) + (o2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        BigUint::from_limbs(out)
    }

    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    pub fn mul_u64(&self, m: u64) -> BigUint {
        if m == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &a in &self.limbs {
            let cur = (a as u128) * (m as u128) + carry;
            out.push(cur as u64);
            carry = cur >> 64;
        }
        if carry > 0 {
            out.push(carry as u64);
        }
        BigUint::from_limbs(out)
    }

    pub fn shl(&self, bits: u64) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    pub fn shr(&self, bits: u64) -> BigUint {
        let limb_shift = (bits / 64) as usize;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        BigUint::from_limbs(out)
    }

    /// Knuth algorithm D long division. Returns `(quotient, remainder)`.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self.cmp(divisor) == Ordering::Less {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut q = Vec::with_capacity(self.limbs.len());
            let mut rem = 0u128;
            for &l in self.limbs.iter().rev() {
                let cur = (rem << 64) | l as u128;
                q.push((cur / d as u128) as u64);
                rem = cur % d as u128;
            }
            q.reverse();
            return (BigUint::from_limbs(q), BigUint::from_u64(rem as u64));
        }

        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as u64;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let mut un = u.limbs.clone();
        un.push(0); // u has m+n+1 limbs during the loop
        let vn = &v.limbs;
        let v_top = vn[n - 1];
        let v_next = vn[n - 2];

        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate q̂ from the top two limbs of the current remainder.
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = num / v_top as u128;
            let mut rhat = num % v_top as u128;
            while qhat >= 1 << 64 || qhat * v_next as u128 > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >= 1 << 64 {
                    break;
                }
            }
            // Multiply-subtract qhat * v from un[j..j+n+1].
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[i + j] as i128 - (p as u64) as i128 - borrow;
                un[i + j] = t as u64;
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = un[j + n] as i128 - carry as i128 - borrow;
            un[j + n] = t as u64;
            if t < 0 {
                // q̂ was one too large: add v back.
                qhat -= 1;
                let mut c = 0u128;
                for i in 0..n {
                    let s = un[i + j] as u128 + vn[i] as u128 + c;
                    un[i + j] = s as u64;
                    c = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(c as u64);
            }
            q[j] = qhat as u64;
        }
        let rem = BigUint::from_limbs(un[..n].to_vec()).shr(shift);
        (BigUint::from_limbs(q), rem)
    }

    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// Modular exponentiation by square-and-multiply.
    pub fn modpow(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero());
        if modulus.is_one() {
            return BigUint::zero();
        }
        let mut base = self.rem(modulus);
        let mut result = BigUint::one();
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mul(&base).rem(modulus);
            }
            if i + 1 < exp.bit_len() {
                base = base.mul(&base).rem(modulus);
            }
        }
        result
    }

    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    fn to_dec_string(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        let ten = BigUint::from_u64(10_000_000_000_000_000_000);
        while !cur.is_zero() {
            let (q, r) = cur.div_rem(&ten);
            digits.push(r.to_u64().unwrap());
            cur = q;
        }
        let mut s = digits.pop().unwrap().to_string();
        for d in digits.iter().rev() {
            s.push_str(&format!("{d:019}"));
        }
        s
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.limbs
            .len()
            .cmp(&other.limbs.len())
            .then_with(|| self.limbs.iter().rev().cmp(other.limbs.iter().rev()))
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Debug for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BigUint({})", self.to_dec_string())
    }
}

impl std::fmt::Display for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_dec_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bu(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn basic_roundtrips() {
        assert!(BigUint::zero().is_zero());
        assert_eq!(bu(0).to_u64(), Some(0));
        assert_eq!(bu(u128::MAX).to_u128(), Some(u128::MAX));
        assert_eq!(BigUint::from_u64(5).to_u64(), Some(5));
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(bu(3).add(&bu(4)), bu(7));
        assert_eq!(bu(1 << 70).sub(&bu(1)).to_u128(), Some((1 << 70) - 1));
        let carry = bu(u128::MAX).add(&bu(1));
        assert_eq!(carry.bit_len(), 129);
        assert_eq!(carry.sub(&bu(1)), bu(u128::MAX));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        bu(1).sub(&bu(2));
    }

    #[test]
    fn mul_matches_u128() {
        for (a, b) in [(0u128, 5u128), (3, 4), (1 << 63, 1 << 63), (12345, 67890)] {
            assert_eq!(bu(a).mul(&bu(b)).to_u128().unwrap_or(0), a.wrapping_mul(b));
        }
        // Large: (2^127) * (2^127) = 2^254.
        let big = bu(1 << 127).mul(&bu(1 << 127));
        assert_eq!(big.bit_len(), 255);
    }

    #[test]
    fn shifts() {
        assert_eq!(bu(1).shl(130).shr(130), bu(1));
        assert_eq!(bu(0xff00).shr(8), bu(0xff));
        assert_eq!(bu(1).shl(64).to_u128(), Some(1 << 64));
        assert_eq!(bu(123).shl(0), bu(123));
        assert_eq!(bu(123).shr(0), bu(123));
        assert_eq!(bu(1).shr(1), bu(0));
    }

    #[test]
    fn div_rem_small() {
        let (q, r) = bu(100).div_rem(&bu(7));
        assert_eq!((q, r), (bu(14), bu(2)));
        let (q, r) = bu(5).div_rem(&bu(10));
        assert_eq!((q, r), (bu(0), bu(5)));
    }

    #[test]
    fn div_rem_multi_limb() {
        // a = 2^200 + 12345, b = 2^100 + 7.
        let a = bu(1).shl(200).add(&bu(12345));
        let b = bu(1).shl(100).add(&bu(7));
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r.cmp(&b) == Ordering::Less);
    }

    #[test]
    fn div_rem_knuth_add_back_case() {
        // Stress the rare "add back" branch with adversarial top limbs.
        let a = BigUint::from_limbs(vec![0, 0, 0x8000_0000_0000_0000, 0x7fff_ffff_ffff_ffff]);
        let b = BigUint::from_limbs(vec![1, 0, 0x8000_0000_0000_0000]);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    fn modpow_fermat() {
        // 2^(p-1) ≡ 1 mod p for prime p.
        let p = bu(1_000_000_007);
        let r = bu(2).modpow(&bu(1_000_000_006), &p);
        assert!(r.is_one());
        // mod 1 is always 0.
        assert!(bu(5).modpow(&bu(3), &BigUint::one()).is_zero());
        // 0^0 = 1 by convention of square-and-multiply.
        assert!(bu(0).modpow(&bu(0), &bu(7)).is_one());
    }

    #[test]
    fn modpow_large_modulus() {
        // (2^64)^2 mod (2^100 + 3).
        let m = bu(1).shl(100).add(&bu(3));
        let r = bu(1 << 63).mul_u64(2).modpow(&bu(2), &m);
        let expect = bu(1).shl(128).rem(&m);
        assert_eq!(r, expect);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(bu(12).gcd(&bu(18)), bu(6));
        assert_eq!(bu(17).gcd(&bu(31)), bu(1));
        assert_eq!(bu(0).gcd(&bu(5)), bu(5));
    }

    #[test]
    fn decimal_roundtrip() {
        let s = "123456789012345678901234567890123456789";
        let v = bu(123456789012345678901234567890123456789);
        assert_eq!(v.to_dec_string(), s);
        assert_eq!(BigUint::zero().to_dec_string(), "0");
    }

    #[test]
    fn ordering() {
        assert!(bu(5) < bu(6));
        assert!(bu(1 << 100) > bu(u64::MAX as u128));
        assert_eq!(bu(42).cmp(&bu(42)), Ordering::Equal);
    }

    #[test]
    fn bits() {
        let v = bu(0b1011);
        assert_eq!(v.bit_len(), 4);
        assert!(v.bit(0) && v.bit(1) && !v.bit(2) && v.bit(3) && !v.bit(100));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn bu(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    proptest! {
        #[test]
        fn add_commutes_with_u128(a in any::<u64>(), b in any::<u64>()) {
            let s = bu(a as u128).add(&bu(b as u128));
            prop_assert_eq!(s.to_u128(), Some(a as u128 + b as u128));
        }

        #[test]
        fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let p = bu(a as u128).mul(&bu(b as u128));
            prop_assert_eq!(p.to_u128(), Some(a as u128 * b as u128));
        }

        #[test]
        fn div_rem_invariant(a in any::<u128>(), b in 1u128..) {
            let (q, r) = bu(a).div_rem(&bu(b));
            prop_assert_eq!(q.mul(&bu(b)).add(&r), bu(a));
            prop_assert!(r < bu(b));
        }

        #[test]
        fn div_rem_invariant_multilimb(
            a in proptest::collection::vec(any::<u64>(), 1..8),
            b in proptest::collection::vec(any::<u64>(), 1..5),
        ) {
            let a = BigUint::from_limbs(a);
            let b = BigUint::from_limbs(b);
            prop_assume!(!b.is_zero());
            let (q, r) = a.div_rem(&b);
            prop_assert_eq!(q.mul(&b).add(&r), a);
            prop_assert!(r < b);
        }

        #[test]
        fn shl_shr_roundtrip(a in any::<u128>(), s in 0u64..200) {
            prop_assert_eq!(bu(a).shl(s).shr(s), bu(a));
        }

        #[test]
        fn modpow_matches_naive(b in 0u64..1000, e in 0u64..24, m in 2u64..10_000) {
            let expect = (0..e).fold(1u128, |acc, _| acc * b as u128 % m as u128);
            let got = bu(b as u128).modpow(&bu(e as u128), &bu(m as u128));
            prop_assert_eq!(got.to_u128(), Some(expect % m as u128));
        }
    }
}

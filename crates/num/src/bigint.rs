//! Signed arbitrary-precision integers: a sign wrapper over [`BigUint`]
//! providing exactly what the modular-inverse computation (extended Euclid)
//! and the HoMAC arithmetic need.

use crate::biguint::BigUint;
use std::cmp::Ordering;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BigInt {
    /// `false` = non-negative. Zero is always non-negative.
    negative: bool,
    mag: BigUint,
}

impl BigInt {
    pub fn zero() -> Self {
        BigInt {
            negative: false,
            mag: BigUint::zero(),
        }
    }

    fn from_biguint(mag: BigUint) -> Self {
        BigInt {
            negative: false,
            mag,
        }
    }

    fn from_i128(v: i128) -> Self {
        BigInt {
            negative: v < 0,
            mag: BigUint::from_u128(v.unsigned_abs()),
        }
    }

    pub fn is_zero(&self) -> bool {
        self.mag.is_zero()
    }

    fn is_negative(&self) -> bool {
        self.negative && !self.mag.is_zero()
    }

    fn magnitude(&self) -> &BigUint {
        &self.mag
    }

    fn neg(&self) -> BigInt {
        if self.mag.is_zero() {
            self.clone()
        } else {
            BigInt {
                negative: !self.negative,
                mag: self.mag.clone(),
            }
        }
    }

    pub fn add(&self, other: &BigInt) -> BigInt {
        match (self.is_negative(), other.is_negative()) {
            (false, false) => BigInt {
                negative: false,
                mag: self.mag.add(&other.mag),
            },
            (true, true) => BigInt {
                negative: true,
                mag: self.mag.add(&other.mag),
            },
            (false, true) => match self.mag.cmp(&other.mag) {
                Ordering::Less => BigInt {
                    negative: true,
                    mag: other.mag.sub(&self.mag),
                },
                _ => BigInt {
                    negative: false,
                    mag: self.mag.sub(&other.mag),
                },
            },
            (true, false) => match other.mag.cmp(&self.mag) {
                Ordering::Less => BigInt {
                    negative: true,
                    mag: self.mag.sub(&other.mag),
                },
                _ => BigInt {
                    negative: false,
                    mag: other.mag.sub(&self.mag),
                },
            },
        }
    }

    pub fn sub(&self, other: &BigInt) -> BigInt {
        self.add(&other.neg())
    }

    pub fn mul(&self, other: &BigInt) -> BigInt {
        let mag = self.mag.mul(&other.mag);
        BigInt {
            negative: !mag.is_zero() && (self.negative ^ other.negative),
            mag,
        }
    }

    /// Reduce into `[0, m)`.
    fn rem_euclid(&self, m: &BigUint) -> BigUint {
        let r = self.mag.rem(m);
        if self.is_negative() && !r.is_zero() {
            m.sub(&r)
        } else {
            r
        }
    }
}

/// Modular inverse of `a` modulo `m` via the extended Euclidean algorithm.
/// Returns `None` when `gcd(a, m) != 1`.
pub fn modinv(a: &BigUint, m: &BigUint) -> Option<BigUint> {
    if m.is_zero() || m.is_one() {
        return None;
    }
    let mut r0 = BigInt::from_biguint(m.clone());
    let mut r1 = BigInt::from_biguint(a.rem(m));
    let mut t0 = BigInt::zero();
    let mut t1 = BigInt::from_i128(1);
    while !r1.is_zero() {
        let (q, _) = r0.magnitude().div_rem(r1.magnitude());
        let q = BigInt::from_biguint(q);
        let r2 = r0.sub(&q.mul(&r1));
        let t2 = t0.sub(&q.mul(&t1));
        r0 = r1;
        r1 = r2;
        t0 = t1;
        t1 = t2;
    }
    if r0.magnitude().is_one() {
        Some(t0.rem_euclid(m))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bu(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn signed_arithmetic() {
        let a = BigInt::from_i128(-5);
        let b = BigInt::from_i128(3);
        assert_eq!(a.add(&b), BigInt::from_i128(-2));
        assert_eq!(a.sub(&b), BigInt::from_i128(-8));
        assert_eq!(a.mul(&b), BigInt::from_i128(-15));
        assert_eq!(a.mul(&a), BigInt::from_i128(25));
        assert_eq!(a.neg(), BigInt::from_i128(5));
        assert!(BigInt::zero().neg() == BigInt::zero());
    }

    #[test]
    fn rem_euclid_negative() {
        assert_eq!(BigInt::from_i128(-1).rem_euclid(&bu(7)), bu(6));
        assert_eq!(BigInt::from_i128(-14).rem_euclid(&bu(7)), bu(0));
        assert_eq!(BigInt::from_i128(15).rem_euclid(&bu(7)), bu(1));
    }

    #[test]
    fn modinv_small() {
        // 3 * 5 = 15 ≡ 1 mod 7.
        assert_eq!(modinv(&bu(3), &bu(7)), Some(bu(5)));
        // Even numbers are not invertible mod even modulus.
        assert_eq!(modinv(&bu(4), &bu(8)), None);
        assert_eq!(modinv(&bu(1), &bu(2)), Some(bu(1)));
        assert_eq!(modinv(&bu(5), &BigUint::one()), None);
    }

    #[test]
    fn modinv_large_prime() {
        let p = bu((1u128 << 61) - 1); // Mersenne prime 2^61-1
        for a in [2u128, 3, 12345, (1 << 60) + 7] {
            let inv = modinv(&bu(a), &p).unwrap();
            assert!(bu(a).mul(&inv).rem(&p).is_one());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn add_matches_i128(a in -(1i128<<90)..(1i128<<90), b in -(1i128<<90)..(1i128<<90)) {
            let r = BigInt::from_i128(a).add(&BigInt::from_i128(b));
            prop_assert_eq!(r, BigInt::from_i128(a + b));
        }

        #[test]
        fn mul_matches_i128(a in -(1i128<<60)..(1i128<<60), b in -(1i128<<60)..(1i128<<60)) {
            let r = BigInt::from_i128(a).mul(&BigInt::from_i128(b));
            prop_assert_eq!(r, BigInt::from_i128(a * b));
        }

        #[test]
        fn modinv_is_inverse(a in 1u64.., p in proptest::sample::select(vec![101u64, 65537, 1_000_000_007])) {
            let a = BigUint::from_u64(a % p);
            prop_assume!(!a.is_zero());
            let p = BigUint::from_u64(p);
            let inv = modinv(&a, &p).unwrap();
            prop_assert!(a.mul(&inv).rem(&p).is_one());
        }
    }
}

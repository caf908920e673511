//! The ring word abstraction: integer lanes the HEAR integer schemes
//! operate on.
//!
//! Addition works on `Z_{2^b}` (Eq. 1), multiplication on the subgroup of
//! `Z*_{2^b}` generated by `g = 3` (Eq. 2), XOR on `GF(2)^b` (Eq. 3).
//! Signed datatypes (MPI_INT et al.) ride on the same lanes via two's
//! complement: the bit patterns of a wrapped unsigned sum and a wrapped
//! signed sum coincide, so `i32`/`i64` buffers are encrypted by casting.

use crate::scheme::LaneArray;
use hear_prf::KernelWord;

/// An unsigned machine word with the ring operations the schemes need.
///
/// The [`KernelWord`] supertrait ties every ring word to the fused
/// mask/unmask kernels in `hear-prf`, so the integer schemes can combine
/// keystream and payload in one statically-dispatched pass for any width.
pub trait RingWord:
    KernelWord + Copy + Send + Sync + PartialEq + Eq + std::fmt::Debug + std::fmt::Display + 'static
{
    const BITS: u32;
    /// Generator of the 2^{b-2}-order multiplicative subgroup (always 3).
    const GENERATOR: Self;
    /// The digest lanes one word spans, one per 32-bit half: `[u64; 1]`
    /// up to 32 bits, `[u64; 2]` for 64 ([`crate::scheme::split_lanes`]).
    type Halves: LaneArray;

    fn wmul(self, o: Self) -> Self;
    fn from_u64_trunc(v: u64) -> Self;
    fn to_u64(self) -> u64;

    #[inline]
    fn zero() -> Self {
        Self::from_u64_trunc(0)
    }
    #[inline]
    fn one() -> Self {
        Self::from_u64_trunc(1)
    }
    #[inline]
    fn wadd(self, o: Self) -> Self {
        KernelWord::wrapping_add(self, o)
    }
    #[inline]
    fn wsub(self, o: Self) -> Self {
        KernelWord::wrapping_sub(self, o)
    }

    /// `self^e` on the ring (exponent reduced mod 2^b, which is sound for
    /// elements whose order divides 2^{b-2}).
    fn wpow(self, e: Self) -> Self {
        let mut base = self;
        let mut acc = Self::one();
        let mut e = e.to_u64();
        let mut bits = Self::BITS;
        while e != 0 && bits != 0 {
            if e & 1 == 1 {
                acc = acc.wmul(base);
            }
            base = base.wmul(base);
            e >>= 1;
            bits -= 1;
        }
        acc
    }

    /// 2-adic inverse of an odd element (Newton iteration on the ring):
    /// `self × inv = 1 (mod 2^b)`. Panics on even input.
    fn inv_odd(self) -> Self {
        assert!(
            self.to_u64() & 1 == 1,
            "only odd ring elements are invertible"
        );
        // x_{k+1} = x_k (2 - a x_k); doubling precision each step.
        let mut x = self; // correct to 3 bits already for odd a (a*a ≡ 1 mod 8)
        for _ in 0..6 {
            let two = Self::one().wadd(Self::one());
            x = x.wmul(two.wsub(self.wmul(x)));
        }
        debug_assert_eq!(self.wmul(x), Self::one());
        x
    }
}

macro_rules! ring_word {
    ($($t:ty => $halves:ty),*) => {$(
        impl RingWord for $t {
            type Halves = $halves;
            const BITS: u32 = <$t>::BITS;
            const GENERATOR: $t = 3;

            #[inline]
            fn wmul(self, o: Self) -> Self {
                self.wrapping_mul(o)
            }
            #[inline]
            fn from_u64_trunc(v: u64) -> Self {
                v as $t
            }
            #[inline]
            fn to_u64(self) -> u64 {
                self as u64
            }
        }
    )*};
}

ring_word!(u8 => [u64; 1], u16 => [u64; 1], u32 => [u64; 1], u64 => [u64; 2]);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wpow_matches_naive() {
        for e in [0u32, 1, 2, 3, 17, 255, u32::MAX] {
            let mut expect = 1u32;
            let mut cnt = e;
            while cnt != 0 {
                expect = expect.wrapping_mul(3);
                cnt -= 1;
                if cnt > 1000 {
                    break; // cap naive loop; checked below via identity
                }
            }
            if e <= 1000 {
                assert_eq!(3u32.wpow(e), expect, "e={e}");
            }
        }
        // Identity: g^(a+b) = g^a g^b with wrapping exponents.
        let (a, b) = (0xdead_beefu32, 0x1234_5678u32);
        assert_eq!(3u32.wpow(a.wadd(b)), 3u32.wpow(a).wmul(3u32.wpow(b)));
    }

    #[test]
    fn wpow_exponent_wrap_is_sound() {
        // ord(3) divides 2^{b-2} divides 2^b, so exponents mod 2^b are fine:
        // g^(a-b mod 2^b) must equal g^a * (g^b)^{-1}.
        let (a, b) = (0x0123_4567u32, 0xfedc_ba98u32);
        let lhs = 3u32.wpow(a.wsub(b));
        let rhs = 3u32.wpow(a).wmul(3u32.wpow(b).inv_odd());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn inv_odd_u32_u64() {
        for v in [1u32, 3, 5, 0xdead_beef | 1, u32::MAX] {
            assert_eq!(v.wmul(v.inv_odd()), 1);
        }
        for v in [1u64, 3, 0xdead_beef_cafe_f00d | 1, u64::MAX] {
            assert_eq!(v.wmul(v.inv_odd()), 1);
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn inv_even_panics() {
        4u32.inv_odd();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn pow_homomorphism_u32(a in any::<u32>(), b in any::<u32>()) {
            prop_assert_eq!(3u32.wpow(a.wadd(b)), 3u32.wpow(a).wmul(3u32.wpow(b)));
        }

        #[test]
        fn pow_homomorphism_u64(a in any::<u64>(), b in any::<u64>()) {
            prop_assert_eq!(3u64.wpow(a.wadd(b)), 3u64.wpow(a).wmul(3u64.wpow(b)));
        }

        #[test]
        fn inverse_roundtrip(v in any::<u64>()) {
            let v = v | 1;
            prop_assert_eq!(v.wmul(v.inv_odd()), 1u64);
        }
    }
}

#[cfg(test)]
mod narrow_tests {
    use super::*;
    use crate::keys::CommKeys;
    use crate::scheme::{reduce_in_process, Scheme};
    use crate::{IntProdScheme, IntSumScheme, IntXorScheme};
    use hear_prf::Backend;

    /// Every one of `world` ranks contributes `data`.
    fn roundtrip<S: Scheme + Default>(world: usize, data: &[S::Input]) -> Vec<S::Input> {
        let keys = CommKeys::generate(world, 33, Backend::AesSoft);
        reduce_in_process(S::default, &keys, &vec![data.to_vec(); world])
    }

    #[test]
    fn u16_all_schemes() {
        let data: Vec<u16> = (0..37).map(|j| j * 1000 + 17).collect();
        let sum = roundtrip::<IntSumScheme<u16>>(3, &data);
        let prod = roundtrip::<IntProdScheme<u16>>(2, &data);
        let xor = roundtrip::<IntXorScheme<u16>>(4, &data);
        for (j, d) in data.iter().enumerate() {
            assert_eq!(sum[j], d.wrapping_mul(3));
            assert_eq!(prod[j], d.wrapping_mul(*d));
            assert_eq!(xor[j], 0); // even count cancels
        }
    }

    #[test]
    fn u8_all_schemes() {
        let data: Vec<u8> = (0..33).map(|j| (j * 7 + 3) as u8).collect();
        let sum = roundtrip::<IntSumScheme<u8>>(5, &data);
        let xor = roundtrip::<IntXorScheme<u8>>(3, &data);
        for (j, d) in data.iter().enumerate() {
            assert_eq!(sum[j], d.wrapping_mul(5));
            assert_eq!(xor[j], *d); // odd count leaves one copy
        }
        // 8-bit multiplicative subgroup: generator 3 has order 2^6 = 64;
        // losslessness still holds for any plaintext.
        let prod = roundtrip::<IntProdScheme<u8>>(2, &data);
        for (j, d) in data.iter().enumerate() {
            assert_eq!(prod[j], d.wrapping_mul(*d));
        }
    }

    #[test]
    fn u16_inverse_and_pow_identities() {
        for v in [1u16, 3, 255, 0x7fff | 1, u16::MAX] {
            assert_eq!(v.wmul(v.inv_odd()), 1);
        }
        let (a, b) = (0x1234u16, 0xfedc);
        assert_eq!(3u16.wpow(a.wadd(b)), 3u16.wpow(a).wmul(3u16.wpow(b)));
        assert_eq!(3u8.wpow(200u8.wadd(100)), 3u8.wpow(200).wmul(3u8.wpow(100)));
    }
}

//! ElGamal over `Z_p*` — the second multiplicative PHE baseline of
//! Table 1, with the characteristic ≥2× structural inflation: a ciphertext
//! is a *pair* `(g^r, m·h^r)`, so even for full-width plaintexts the wire
//! size doubles.

use hear_num::{gen_prime, modinv, BigUint, SplitMix64};

pub struct ElGamal {
    pub p: BigUint,
    pub g: BigUint,
    pub h: BigUint, // g^x
    x: BigUint,
    pub key_bits: u64,
}

/// An ElGamal ciphertext pair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ElGamalCt {
    pub c1: BigUint,
    pub c2: BigUint,
}

impl ElGamal {
    /// Generate over a safe prime `p = 2q + 1` so that `g = 4` generates
    /// the order-q quadratic-residue subgroup.
    pub fn generate(key_bits: u64, rng: &mut SplitMix64) -> ElGamal {
        assert!(key_bits >= 32);
        use hear_num::is_probable_prime;
        let p = loop {
            let q = gen_prime(key_bits - 1, rng);
            let p = q.mul_u64(2).add(&BigUint::one());
            if is_probable_prime(&p, 12, rng) {
                break p;
            }
        };
        let g = BigUint::from_u64(4); // a quadratic residue → generates QR_p
        let x = loop {
            let x = rng.below(&p);
            if !x.is_zero() {
                break x;
            }
        };
        let h = g.modpow(&x, &p);
        ElGamal {
            p,
            g,
            h,
            x,
            key_bits,
        }
    }

    pub fn encrypt(&self, m: &BigUint, rng: &mut SplitMix64) -> ElGamalCt {
        assert!(!m.is_zero() && m < &self.p, "plaintext must be in [1, p)");
        let r = loop {
            let r = rng.below(&self.p);
            if !r.is_zero() {
                break r;
            }
        };
        ElGamalCt {
            c1: self.g.modpow(&r, &self.p),
            c2: m.mul(&self.h.modpow(&r, &self.p)).rem(&self.p),
        }
    }

    pub fn decrypt(&self, ct: &ElGamalCt) -> BigUint {
        let s = ct.c1.modpow(&self.x, &self.p);
        let s_inv = modinv(&s, &self.p).expect("p prime, s nonzero");
        ct.c2.mul(&s_inv).rem(&self.p)
    }

    /// Homomorphic multiply: component-wise product.
    pub fn mul_ciphertexts(&self, a: &ElGamalCt, b: &ElGamalCt) -> ElGamalCt {
        ElGamalCt {
            c1: a.c1.mul(&b.c1).rem(&self.p),
            c2: a.c2.mul(&b.c2).rem(&self.p),
        }
    }

    /// Two group elements per ciphertext.
    fn ciphertext_bits(&self) -> u64 {
        2 * self.key_bits
    }

    pub fn inflation(&self, plain_bits: u64) -> f64 {
        self.ciphertext_bits() as f64 / plain_bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> (ElGamal, SplitMix64) {
        let mut rng = SplitMix64::new(3);
        (ElGamal::generate(128, &mut rng), rng)
    }

    #[test]
    fn roundtrip() {
        let (e, mut rng) = scheme();
        for m in [1u64, 2, 42, 99_999_999] {
            let m = BigUint::from_u64(m);
            let ct = e.encrypt(&m, &mut rng);
            assert_eq!(e.decrypt(&ct), m);
        }
    }

    #[test]
    fn multiplicative_homomorphism() {
        let (e, mut rng) = scheme();
        let a = BigUint::from_u64(321);
        let b = BigUint::from_u64(1000);
        let ca = e.encrypt(&a, &mut rng);
        let cb = e.encrypt(&b, &mut rng);
        assert_eq!(
            e.decrypt(&e.mul_ciphertexts(&ca, &cb)),
            BigUint::from_u64(321_000)
        );
    }

    #[test]
    fn probabilistic_encryption() {
        let (e, mut rng) = scheme();
        let m = BigUint::from_u64(5);
        let c1 = e.encrypt(&m, &mut rng);
        let c2 = e.encrypt(&m, &mut rng);
        assert_ne!(c1, c2);
        assert_eq!(e.decrypt(&c1), e.decrypt(&c2));
    }

    #[test]
    fn structural_2x_inflation_minimum() {
        let (e, _) = scheme();
        // Even with plaintexts as wide as the modulus, the pair doubles it.
        assert!(e.inflation(e.key_bits) >= 2.0);
        assert!(e.inflation(32) >= 8.0);
    }

    #[test]
    #[should_panic(expected = "in [1, p)")]
    fn zero_rejected() {
        let (e, mut rng) = scheme();
        e.encrypt(&BigUint::zero(), &mut rng);
    }
}

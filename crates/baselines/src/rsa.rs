//! Textbook (unpadded) RSA — the multiplicatively homomorphic PHE
//! baseline of Table 1.
//!
//! `c = m^e mod n`, `m = c^d mod n`; ciphertext products decrypt to
//! plaintext products. Deterministic textbook RSA is *not* IND-CPA — it is
//! here purely to measure the cost structure (≥2× inflation for machine
//! words, big-modulus exponentiation per operation) that rules the family
//! out for in-network compute.

use hear_num::{gen_prime, modinv, BigUint, SplitMix64};

pub struct Rsa {
    pub n: BigUint,
    pub e: BigUint,
    d: BigUint,
    pub key_bits: u64,
}

impl Rsa {
    pub fn generate(key_bits: u64, rng: &mut SplitMix64) -> Rsa {
        assert!(key_bits >= 32);
        let e = BigUint::from_u64(65_537);
        loop {
            let half = key_bits / 2;
            let p = gen_prime(half, rng);
            let q = gen_prime(key_bits - half, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
            if let Some(d) = modinv(&e, &phi) {
                return Rsa { n, e, d, key_bits };
            }
        }
    }

    pub fn encrypt(&self, m: &BigUint) -> BigUint {
        assert!(m < &self.n, "plaintext must be below the modulus");
        m.modpow(&self.e, &self.n)
    }

    pub fn decrypt(&self, c: &BigUint) -> BigUint {
        c.modpow(&self.d, &self.n)
    }

    /// Homomorphic multiply.
    pub fn mul_ciphertexts(&self, a: &BigUint, b: &BigUint) -> BigUint {
        a.mul(b).rem(&self.n)
    }

    fn ciphertext_bits(&self) -> u64 {
        self.key_bits
    }

    pub fn inflation(&self, plain_bits: u64) -> f64 {
        self.ciphertext_bits() as f64 / plain_bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> (Rsa, SplitMix64) {
        let mut rng = SplitMix64::new(7);
        (Rsa::generate(256, &mut rng), rng)
    }

    #[test]
    fn roundtrip() {
        let (r, _) = scheme();
        for m in [0u64, 1, 2, 99_999, u64::MAX] {
            let m = BigUint::from_u64(m);
            assert_eq!(r.decrypt(&r.encrypt(&m)), m);
        }
    }

    #[test]
    fn multiplicative_homomorphism() {
        let (r, _) = scheme();
        let a = BigUint::from_u64(1234);
        let b = BigUint::from_u64(5678);
        let prod = r.decrypt(&r.mul_ciphertexts(&r.encrypt(&a), &r.encrypt(&b)));
        assert_eq!(prod, BigUint::from_u64(1234 * 5678));
    }

    #[test]
    fn chained_products() {
        let (r, _) = scheme();
        let mut acc = r.encrypt(&BigUint::one());
        for m in [3u64, 5, 7, 11, 13] {
            acc = r.mul_ciphertexts(&acc, &r.encrypt(&BigUint::from_u64(m)));
        }
        assert_eq!(r.decrypt(&acc), BigUint::from_u64(3 * 5 * 7 * 11 * 13));
    }

    #[test]
    fn textbook_rsa_is_deterministic_hence_not_ind_cpa() {
        let (r, _) = scheme();
        let m = BigUint::from_u64(42);
        assert_eq!(r.encrypt(&m), r.encrypt(&m));
    }

    #[test]
    fn inflation_at_least_8x_for_u32() {
        let (r, _) = scheme();
        assert!(r.inflation(32) >= 8.0);
    }
}

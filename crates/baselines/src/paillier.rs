//! Textbook Paillier (additively homomorphic PHE) — a Table 1 baseline.
//!
//! With `g = n + 1`, encryption is `c = (1 + m·n) · r^n mod n²` and
//! decryption `m = L(c^λ mod n²) · μ mod n` with `L(x) = (x−1)/n` and
//! `μ = λ^{-1} mod n`. Ciphertexts live in `Z_{n²}`, so the scheme's
//! inflation is ≥ 2× for full-width plaintexts and far worse for machine
//! words — exactly the R1 failure the paper's Table 1 records.

use hear_num::{gen_prime, modinv, BigUint, SplitMix64};

struct PaillierPublic {
    n: BigUint,
    n_sq: BigUint,
}

struct PaillierSecret {
    lambda: BigUint,
    mu: BigUint,
}

pub struct Paillier {
    public: PaillierPublic,
    secret: PaillierSecret,
    pub key_bits: u64,
}

impl Paillier {
    /// Generate a keypair with an `key_bits`-bit modulus.
    pub fn generate(key_bits: u64, rng: &mut SplitMix64) -> Paillier {
        assert!(key_bits >= 32, "modulus too small to be meaningful");
        let half = key_bits / 2;
        let (p, q) = loop {
            let p = gen_prime(half, rng);
            let q = gen_prime(key_bits - half, rng);
            if p != q {
                break (p, q);
            }
        };
        let n = p.mul(&q);
        let n_sq = n.mul(&n);
        let one = BigUint::one();
        let p1 = p.sub(&one);
        let q1 = q.sub(&one);
        // λ = lcm(p−1, q−1).
        let lambda = p1.mul(&q1).div_rem(&p1.gcd(&q1)).0;
        // μ = λ^{-1} mod n (valid for g = n+1).
        let mu = modinv(&lambda, &n).expect("λ invertible mod n");
        Paillier {
            public: PaillierPublic { n, n_sq },
            secret: PaillierSecret { lambda, mu },
            key_bits,
        }
    }

    /// Encrypt a plaintext `m < n`.
    pub fn encrypt(&self, m: &BigUint, rng: &mut SplitMix64) -> BigUint {
        let n = &self.public.n;
        let n_sq = &self.public.n_sq;
        assert!(m < n, "plaintext must be below the modulus");
        // r uniform in [1, n), coprime to n with overwhelming probability.
        let r = loop {
            let r = rng.below(n);
            if !r.is_zero() && r.gcd(n).is_one() {
                break r;
            }
        };
        // (1 + m·n) · r^n mod n².
        let gm = BigUint::one().add(&m.mul(n)).rem(n_sq);
        gm.mul(&r.modpow(n, n_sq)).rem(n_sq)
    }

    pub fn decrypt(&self, c: &BigUint) -> BigUint {
        let n = &self.public.n;
        let n_sq = &self.public.n_sq;
        let x = c.modpow(&self.secret.lambda, n_sq);
        let l = x.sub(&BigUint::one()).div_rem(n).0;
        l.mul(&self.secret.mu).rem(n)
    }

    /// The homomorphic operation: ciphertext multiplication = plaintext
    /// addition.
    pub fn add_ciphertexts(&self, a: &BigUint, b: &BigUint) -> BigUint {
        a.mul(b).rem(&self.public.n_sq)
    }

    /// Ciphertext size in bits (elements of Z_{n²}).
    fn ciphertext_bits(&self) -> u64 {
        2 * self.key_bits
    }

    /// Inflation factor over a `plain_bits` machine word.
    pub fn inflation(&self, plain_bits: u64) -> f64 {
        self.ciphertext_bits() as f64 / plain_bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> (Paillier, SplitMix64) {
        let mut rng = SplitMix64::new(42);
        (Paillier::generate(256, &mut rng), rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (p, mut rng) = scheme();
        for m in [0u64, 1, 42, u32::MAX as u64, u64::MAX] {
            let m = BigUint::from_u64(m);
            let c = p.encrypt(&m, &mut rng);
            assert_eq!(p.decrypt(&c), m);
        }
    }

    #[test]
    fn additive_homomorphism() {
        let (p, mut rng) = scheme();
        let a = BigUint::from_u64(123_456);
        let b = BigUint::from_u64(654_321);
        let ca = p.encrypt(&a, &mut rng);
        let cb = p.encrypt(&b, &mut rng);
        let sum = p.decrypt(&p.add_ciphertexts(&ca, &cb));
        assert_eq!(sum, BigUint::from_u64(777_777));
    }

    #[test]
    fn many_additions_stay_correct() {
        // Paillier has no operation-count limit (R2 holds); fold 50 values.
        let (p, mut rng) = scheme();
        let mut acc = p.encrypt(&BigUint::zero(), &mut rng);
        for i in 1..=50u64 {
            let c = p.encrypt(&BigUint::from_u64(i), &mut rng);
            acc = p.add_ciphertexts(&acc, &c);
        }
        assert_eq!(p.decrypt(&acc), BigUint::from_u64(1275));
    }

    #[test]
    fn randomized_encryption() {
        let (p, mut rng) = scheme();
        let m = BigUint::from_u64(7);
        let c1 = p.encrypt(&m, &mut rng);
        let c2 = p.encrypt(&m, &mut rng);
        assert_ne!(c1, c2, "Paillier is probabilistic");
        assert_eq!(p.decrypt(&c1), p.decrypt(&c2));
    }

    #[test]
    fn random_sums_roundtrip() {
        // Randomized homomorphic sums, drawn from the testkit PRNG (the
        // in-repo `rand` replacement) so failures replay from the seed.
        let (p, mut enc_rng) = scheme();
        let mut rng = hear_testkit::TestRng::seed_from_u64(0xba5e_11e5);
        for round in 0..16 {
            let a = rng.gen_range(0u64..=u32::MAX as u64);
            let b = rng.gen_range(0u64..=u32::MAX as u64);
            let ca = p.encrypt(&BigUint::from_u64(a), &mut enc_rng);
            let cb = p.encrypt(&BigUint::from_u64(b), &mut enc_rng);
            let sum = p.decrypt(&p.add_ciphertexts(&ca, &cb));
            assert_eq!(sum, BigUint::from_u64(a + b), "round={round} a={a} b={b}");
        }
    }

    #[test]
    fn inflation_violates_r1_for_machine_words() {
        let (p, _) = scheme();
        // A 32-bit plaintext becomes a 512-bit ciphertext: 16×, far beyond
        // the ≤2× budget of requirement R1.
        assert!(p.inflation(32) >= 16.0);
        assert_eq!(p.ciphertext_bits(), 512);
    }
}

//! # hear-num — exact arithmetic substrate
//!
//! The HEAR paper's precision study (Fig. 3) measures HFP against reference
//! results computed with MPFR at 1024-bit precision, and its Table 1
//! baselines (Paillier/RSA/ElGamal) require multi-precision modular
//! arithmetic (GMP in the original ecosystem). Neither library is available
//! offline, so this crate provides from-scratch substitutes:
//!
//! * [`BigUint`] / [`BigInt`] — limb-based integers with Knuth-D division,
//!   modular exponentiation, gcd and modular inverse,
//! * [`BigFloat`] — arbitrary-precision binary floats with correct
//!   round-to-nearest-even (the MPFR substitute),
//! * [`prime`] — Miller–Rabin testing and prime generation for the
//!   baseline cryptosystems.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod bigfloat;
pub mod bigint;
pub mod biguint;
pub mod prime;

pub use bigfloat::{BigFloat, REFERENCE_PREC};
pub use bigint::{modinv, BigInt};
pub use biguint::BigUint;
pub use prime::{gen_prime, is_probable_prime, SplitMix64};

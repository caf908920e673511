//! # hear-hfp — HEAR's homomorphic floating-point format
//!
//! HFP (paper §5.3) re-encodes floating-point numbers so that encryption can
//! shift them along a ring: the exponent becomes a two's-complement value on
//! `Z_{2^{l_e+δ}}` with genuine wraparound (no infinity cap), the mantissa
//! keeps a hidden leading one, and the homomorphic ⊗ operator (Eq. 5)
//! multiplies a plaintext by PRF-derived noise. δ is 0 for the
//! multiplicative scheme and 2 for the additive scheme (§5.3.5); γ trades
//! ciphertext inflation against mantissa precision (§5.3.1).
//!
//! Modules:
//! * [`ringexp`] — modular exponent arithmetic and the two-difference
//!   ring comparison,
//! * [`format`](mod@format) — [`HfpFormat`] / [`Hfp`] encode/decode and
//!   wire layout,
//! * [`ops`] — ⊗ ([`ops::mul`]), ciphertext addition ([`ops::add`]),
//!   division/reciprocal for decryption, all on IEEE `f64` significand
//!   arithmetic,
//! * [`f16`](mod@f16) — soft IEEE binary16 for FP16 workloads.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod f16;
pub mod format;
pub mod ops;
pub mod ringexp;
pub mod wire;

pub use f16::F16;
pub use format::{Hfp, HfpError, HfpFormat};
pub use wire::PackedHfp;

//! # hear-core — the HEAR encryption schemes
//!
//! This crate implements the paper's primary contribution: homomorphic
//! encryption schemes tailored to in-network Allreduce (paper §5).
//!
//! Every scheme follows the shape `E(x) = x ★ noise`, `D(x) = x ★ noise⁻¹`
//! with noise derived from a PRF over Θ(1) per-rank key state. Each cipher
//! is one type, its [`Scheme`] impl, which the layer crate's single
//! allreduce engine drives:
//!
//! | Scheme | Paper | Type | Lossiness | Security |
//! |---|---|---|---|---|
//! | [`IntSumScheme`]   | Eq. 1 | int | lossless | IND-CPA |
//! | [`FixedSumScheme`] | Eq. 1, §5.2 | fixed | lossless | IND-CPA |
//! | [`IntProdScheme`]  | Eq. 2 | int/fixed | lossless | IND-CPA |
//! | [`IntXorScheme`]   | Eq. 3 | int/bool  | lossless | IND-CPA |
//! | [`FloatSumScheme`] (v1) | Eq. 7 | float | minor | COA |
//! | [`FloatSumExpScheme`] (v2) | §5.3.4 | float | medium | COA |
//! | [`FloatProdScheme`] | Eq. 6 | float | minor | COA |
//!
//! Supporting modules: [`keys`] (key generation & `kc ← F_kp(kc)`
//! progression), [`fixed`] (§5.2 fixed-point codec), [`homac`] (§5.5 result
//! verification), [`security`] (§5.3.1 MAP-adversary estimator), [`word`]
//! (ring-word abstraction), [`properties`] (the Table 2 property matrix).

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod derived;
pub mod fixed;
pub mod float;
pub mod homac;
pub mod int;
pub mod keys;
pub mod properties;
pub mod rng;
pub mod scheme;
pub mod security;
pub mod word;

pub use derived::{MpiOp, UnsupportedOp};
pub use fixed::{FixedCodec, FixedSumScheme};
pub use float::{noise_at, FloatProdScheme, FloatSumExpScheme, FloatSumScheme};
pub use homac::{Homac, HOMAC_P};
pub use int::{IntProdScheme, IntSum, IntSumScheme, IntXorScheme, NaiveIntSum, Scratch};
pub use keys::{CommKeys, KeyRegistry};
pub use scheme::{join_lanes, split_lanes, LaneArray, Scheme, DIGEST_BASE, DIGEST_LANES};
pub use security::{map_adversary, MapStats};
pub use word::RingWord;

// Re-export what downstream users need to speak our vocabulary without
// naming every substrate crate.
pub use hear_hfp::{Hfp, HfpError, HfpFormat};
pub use hear_prf::Backend;

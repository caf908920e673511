//! # hear-core — the HEAR encryption schemes
//!
//! This crate implements the paper's primary contribution: homomorphic
//! encryption schemes tailored to in-network Allreduce (paper §5).
//!
//! Every scheme follows the shape `E(x) = x ★ noise`, `D(x) = x ★ noise⁻¹`
//! with noise derived from a PRF over Θ(1) per-rank key state:
//!
//! | Scheme | Paper | Type | Lossiness | Security |
//! |---|---|---|---|---|
//! | [`int::IntSum`]   | Eq. 1 | int/fixed | lossless | IND-CPA |
//! | [`int::IntProd`]  | Eq. 2 | int/fixed | lossless | IND-CPA |
//! | [`int::IntXor`]   | Eq. 3 | int/bool  | lossless | IND-CPA |
//! | [`float::FloatSum`] (v1) | Eq. 7 | float | minor | COA |
//! | [`float::FloatSumExp`] (v2) | §5.3.4 | float | medium | COA |
//! | [`float::FloatProd`] | Eq. 6 | float | minor | COA |
//!
//! Supporting modules: [`keys`] (key generation & `kc ← F_kp(kc)`
//! progression), [`fixed`] (§5.2 fixed-point codec), [`homac`] (§5.5 result
//! verification), [`security`] (§5.3.1 MAP-adversary estimator), [`word`]
//! (ring-word abstraction), [`properties`] (the Table 2 property matrix).

pub mod derived;
pub mod fixed;
pub mod float;
pub mod homac;
pub mod int;
pub mod keys;
pub mod prefetch;
pub mod properties;
pub mod rng;
pub mod scheme;
pub mod security;
pub mod word;

pub use derived::{MpiOp, UnsupportedOp};
pub use fixed::FixedCodec;
pub use float::{noise_at, FloatProd, FloatSum, FloatSumExp};
pub use homac::{Homac, HOMAC_P};
pub use int::{IntProd, IntSum, IntXor, NaiveIntSum, Scratch};
pub use keys::{CommKeys, KeyRegistry};
pub use prefetch::{CacheSlot, KeystreamCache, StreamPlan};
pub use scheme::{
    FixedSumScheme, FloatProdScheme, FloatSumExpScheme, FloatSumScheme, IntProdScheme,
    IntSumScheme, IntXorScheme, LaneArray, Scheme, DIGEST_BASE, DIGEST_LANES,
};
pub use security::{map_adversary, MapStats};
pub use word::RingWord;

// Re-export what downstream users need to speak our vocabulary without
// naming every substrate crate.
pub use hear_hfp::{Hfp, HfpError, HfpFormat};
pub use hear_prf::Backend;

use std::mem::MaybeUninit;

/// Append `n` elements to `out` by letting `fill` write them straight into
/// its spare capacity; on `Err`, `out` keeps its entry length.
///
/// # Safety
///
/// On `Ok`, `fill` must have initialised every element of the slice it was
/// given.
pub(crate) unsafe fn extend_with<T, E>(
    out: &mut Vec<T>,
    n: usize,
    fill: impl FnOnce(&mut [MaybeUninit<T>]) -> Result<(), E>,
) -> Result<(), E> {
    out.reserve(n);
    fill(&mut out.spare_capacity_mut()[..n])?;
    // SAFETY: `fill` initialised these `n` elements (the caller's contract),
    // and `reserve` made room for them.
    unsafe { out.set_len(out.len() + n) };
    Ok(())
}

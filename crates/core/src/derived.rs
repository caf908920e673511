//! Derived operations (paper §5.4): what HEAR can and cannot compute.
//!
//! HEAR's speed comes from invertible noise, so only invertible reductions
//! are direct. This module implements the paper's workarounds and encodes
//! its impossibility results in the API:
//!
//! * `AND`/`OR` have no inverse, but ride on summation: reduce the 0/1
//!   indicator with SUM; `sum == 0` ⇒ both 0, `sum == P` ⇒ both 1,
//!   otherwise OR=1, AND=0. The indicator needs ⌈log₂(P+1)⌉ bits, the
//!   paper's O(log₂ P) ciphertext growth.
//! * Variance of a zero-mean variable: ranks square locally (inside the
//!   secure environment) and SUM-reduce `x²` — the preprocessing pattern.
//! * Mixed-mode reductions: e.g. add even ranks' data and subtract odd
//!   ranks' (negate locally, then SUM).
//! * `MIN`/`MAX` and arbitrary user functions are *rejected*: letting the
//!   network compare ciphertexts would hand an adversary a binary-search
//!   oracle on the plaintext (§5.4). [`UnsupportedOp`] spells this out.

/// Operations HEAR refuses by design, with the security rationale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsupportedOp {
    /// Comparisons let the network binary-search plaintexts.
    MinMax,
    /// Arbitrary functions would need FHE or TEE evaluation.
    UserDefined,
}

impl std::fmt::Display for UnsupportedOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnsupportedOp::MinMax => write!(
                f,
                "MPI_MIN/MPI_MAX are insecure under HEAR: an in-network comparator \
                 gives the adversary a plaintext binary-search oracle (§5.4); \
                 use an FHE scheme or evaluate inside the TEE"
            ),
            UnsupportedOp::UserDefined => write!(
                f,
                "arbitrary MPI_Op user functions are unsupported: only single-operation \
                 reductions (or secure-environment preprocessing thereof) are allowed (§5.4)"
            ),
        }
    }
}

impl std::error::Error for UnsupportedOp {}

/// Guard used by the layer: which MPI reduction operators have a HEAR
/// scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiOp {
    Sum,
    Prod,
    Bxor,
    Lxor,
    Land,
    Lor,
    Min,
    Max,
    UserDefined,
}

impl MpiOp {
    /// Whether the operator can be reduced under HEAR, and how.
    pub fn support(self) -> Result<&'static str, UnsupportedOp> {
        match self {
            MpiOp::Sum => Ok("Eq. 1 (int/fixed) or Eq. 7 (float)"),
            MpiOp::Prod => Ok("Eq. 2 (int/fixed) or Eq. 6 (float)"),
            MpiOp::Bxor | MpiOp::Lxor => Ok("Eq. 3"),
            MpiOp::Land | MpiOp::Lor => Ok("summation encoding (§5.4, O(log P) growth)"),
            MpiOp::Min | MpiOp::Max => Err(UnsupportedOp::MinMax),
            MpiOp::UserDefined => Err(UnsupportedOp::UserDefined),
        }
    }
}

/// Encode a boolean vector for the summation-based AND/OR reduction.
pub fn encode_bools(bits: &[bool], out: &mut Vec<u32>) {
    out.clear();
    out.extend(bits.iter().map(|b| u32::from(*b)));
}

/// Decode a SUM-reduced indicator vector into (OR, AND) pairs (§5.4).
pub fn decode_logical(sums: &[u32], world: usize) -> Vec<(bool, bool)> {
    sums.iter()
        .map(|&s| {
            debug_assert!(s as usize <= world, "indicator sum exceeds world size");
            if s == 0 {
                (false, false)
            } else if s as usize == world {
                (true, true)
            } else {
                (true, false)
            }
        })
        .collect()
}

/// Bits of ciphertext growth the logical encoding costs (the paper's
/// O(log₂ P) remark): the indicator needs ⌈log₂(P+1)⌉ bits instead of 1.
pub fn logical_growth_bits(world: usize) -> u32 {
    usize::BITS - world.leading_zeros()
}

/// Local preprocessing for a variance reduction of a zero-mean variable:
/// returns the per-rank (Σx, Σx²) moment pair to SUM-reduce.
pub fn variance_moments(samples: &[f64]) -> (f64, f64) {
    let s: f64 = samples.iter().sum();
    let s2: f64 = samples.iter().map(|x| x * x).sum();
    (s, s2)
}

/// Combine globally SUM-reduced moments into (mean, variance).
pub fn moments_to_stats(sum: f64, sum_sq: f64, n: u64) -> (f64, f64) {
    let mean = sum / n as f64;
    (mean, sum_sq / n as f64 - mean * mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_support_matrix() {
        assert!(MpiOp::Sum.support().is_ok());
        assert!(MpiOp::Prod.support().is_ok());
        assert!(MpiOp::Bxor.support().is_ok());
        assert!(MpiOp::Land.support().is_ok());
        assert_eq!(MpiOp::Min.support(), Err(UnsupportedOp::MinMax));
        assert_eq!(MpiOp::Max.support(), Err(UnsupportedOp::MinMax));
        assert_eq!(
            MpiOp::UserDefined.support(),
            Err(UnsupportedOp::UserDefined)
        );
        // The error message carries the security rationale.
        assert!(UnsupportedOp::MinMax.to_string().contains("binary-search"));
    }

    #[test]
    fn logical_truth_table() {
        // world = 3: sums 0..=3.
        let got = decode_logical(&[0, 1, 2, 3], 3);
        assert_eq!(
            got,
            vec![(false, false), (true, false), (true, false), (true, true)]
        );
    }

    #[test]
    fn logical_encode_roundtrip_world_1() {
        let mut enc = Vec::new();
        encode_bools(&[true, false], &mut enc);
        assert_eq!(enc, vec![1, 0]);
        let got = decode_logical(&enc, 1);
        assert_eq!(got, vec![(true, true), (false, false)]);
    }

    #[test]
    fn growth_bits_is_log2() {
        assert_eq!(logical_growth_bits(1), 1);
        assert_eq!(logical_growth_bits(2), 2);
        assert_eq!(logical_growth_bits(3), 2);
        assert_eq!(logical_growth_bits(4), 3);
        assert_eq!(logical_growth_bits(1024), 11);
    }

    #[test]
    fn variance_pipeline() {
        let a = [1.0, -1.0, 2.0];
        let b = [0.5, -0.5, -2.0];
        let (sa, sa2) = variance_moments(&a);
        let (sb, sb2) = variance_moments(&b);
        let (mean, var) = moments_to_stats(sa + sb, sa2 + sb2, 6);
        let all = [1.0, -1.0, 2.0, 0.5, -0.5, -2.0];
        let m: f64 = all.iter().sum::<f64>() / 6.0;
        let v: f64 = all.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / 6.0;
        assert!((mean - m).abs() < 1e-12);
        assert!((var - v).abs() < 1e-12);
    }
}

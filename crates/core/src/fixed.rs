//! Fixed-point transmissions (paper §5.2).
//!
//! Fixed-point values ride on the integer schemes: an implicit binary
//! scale factor is agreed before any computation and shared securely with
//! all ranks. Summation needs no scale adjustment; for multiplication the
//! number of involved processes determines the output scale
//! (`P` factors of `2^{-f}` multiply to `2^{-Pf}`).

use crate::int::IntSumScheme;
use crate::keys::CommKeys;
use crate::scheme::{Scheme, DIGEST_LANES};
use hear_hfp::HfpError;

/// Codec between `f64` values and scaled two's-complement integers carried
/// on `u64` ring lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedCodec {
    frac_bits: u32,
}

impl FixedCodec {
    pub fn new(frac_bits: u32) -> Self {
        assert!(frac_bits < 63, "scale must leave room for an integer part");
        FixedCodec { frac_bits }
    }

    /// Quantization step `2^{-f}`.
    pub fn resolution(&self) -> f64 {
        f64::powi(2.0, -(self.frac_bits as i32))
    }

    /// Encode to the ring lane (round-to-nearest).
    pub fn encode(&self, v: f64) -> u64 {
        let scaled = v * f64::powi(2.0, self.frac_bits as i32);
        (scaled.round_ties_even() as i64) as u64
    }

    /// Decode a summed value (scale unchanged under addition).
    pub fn decode(&self, lane: u64) -> f64 {
        (lane as i64) as f64 * self.resolution()
    }

    /// Decode a product of `world` factors: the scale compounds to
    /// `world × frac_bits`.
    pub fn decode_prod(&self, lane: u64, world: usize) -> f64 {
        let total = self.frac_bits as i64 * world as i64;
        let mut v = (lane as i64) as f64;
        let mut t = total;
        while t > 60 {
            v *= f64::powi(2.0, -60);
            t -= 60;
        }
        v * f64::powi(2.0, -(t as i32))
    }

    pub fn encode_slice(&self, vals: &[f64], out: &mut Vec<u64>) {
        out.clear();
        out.extend(vals.iter().map(|v| self.encode(*v)));
    }
}

/// The §5.2 fixed-point codec riding on [`IntSumScheme`]: `f64` in, `u64`
/// lanes on the wire. Bitwise-exact digest (the digest decodes the
/// identical wrapped lane sum the unmask path decodes).
pub struct FixedSumScheme {
    codec: FixedCodec,
    /// Encoded lanes on the way out, decrypted lanes on the way in.
    lanes: Vec<u64>,
}

impl FixedSumScheme {
    pub fn new(codec: FixedCodec) -> Self {
        FixedSumScheme {
            codec,
            lanes: Vec::new(),
        }
    }
}

impl Scheme for FixedSumScheme {
    type Input = f64;
    type Wire = u64;
    type Lanes = [u64; 2];

    const NAME: &'static str = "fixed-sum";
    const TABLE2_ROW: usize = 0;

    fn mask_slice(
        &mut self,
        keys: &CommKeys,
        first: u64,
        input: &[f64],
        out: &mut Vec<u64>,
    ) -> Result<(), HfpError> {
        self.codec.encode_slice(input, &mut self.lanes);
        IntSumScheme::default().mask_slice(keys, first, &self.lanes, out)
    }

    fn unmask_into(&mut self, keys: &CommKeys, first: u64, agg: &[u64], dst: &mut [f64]) {
        assert_eq!(agg.len(), dst.len());
        IntSumScheme::default().unmask_slice(keys, first, agg, &mut self.lanes);
        for (d, l) in dst.iter_mut().zip(&self.lanes) {
            *d = self.codec.decode(*l);
        }
    }

    #[inline(always)]
    fn op(a: &u64, b: &u64) -> u64 {
        a.wrapping_add(*b)
    }

    fn digest(&self, x: &f64, out: &mut [u64; DIGEST_LANES]) {
        *out = [self.codec.encode(*x), 0, 0, 0];
    }

    fn digest_check(&self, result: &f64, lane_sums: &[u64; DIGEST_LANES], _world: usize) -> bool {
        self.codec.decode(lane_sums[0]) == *result
    }

    fn cell_encode(x: &f64) -> u64 {
        x.to_bits()
    }

    fn cell_decode(cell: u64) -> f64 {
        f64::from_bits(cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::int::IntProdScheme;
    use crate::scheme::reduce_in_process;
    use hear_prf::Backend;

    #[test]
    fn encode_decode_roundtrip() {
        let c = FixedCodec::new(16);
        for v in [
            0.0,
            1.0,
            -1.0,
            std::f64::consts::PI,
            -1000.5,
            0.0000152587890625,
        ] {
            let got = c.decode(c.encode(v));
            assert!((got - v).abs() <= c.resolution() / 2.0, "{v} -> {got}");
        }
    }

    #[test]
    fn negative_values_wrap_correctly() {
        let c = FixedCodec::new(8);
        assert_eq!(c.decode(c.encode(-2.5)), -2.5);
        assert_eq!(c.decode(c.encode(-0.00390625)), -0.00390625); // -2^-8
    }

    #[test]
    fn rounding_is_to_nearest() {
        let c = FixedCodec::new(1); // resolution 0.5
        assert_eq!(c.decode(c.encode(0.3)), 0.5);
        assert_eq!(c.decode(c.encode(0.2)), 0.0);
        assert_eq!(c.decode(c.encode(0.25)), 0.0); // tie to even (0)
        assert_eq!(c.decode(c.encode(0.75)), 1.0); // tie to even (2×0.5)
    }

    #[test]
    fn encrypted_fixed_sum_end_to_end() {
        let c = FixedCodec::new(20);
        let keys = CommKeys::generate(3, 13, Backend::AesSoft);
        let data = [
            vec![1.25, -3.5, 0.875],
            vec![2.5, 1.0, -0.125],
            vec![-1.0, 0.5, 4.0],
        ];
        let out = reduce_in_process(|| FixedSumScheme::new(c), &keys, &data);
        let expect = [2.75, -2.0, 4.75];
        for j in 0..3 {
            assert!(
                (out[j] - expect[j]).abs() < 1e-6,
                "j={j}: {} vs {}",
                out[j],
                expect[j]
            );
        }
    }

    #[test]
    fn encrypted_fixed_prod_scales_by_world() {
        // 2 ranks: product scale is 2×frac_bits.
        let c = FixedCodec::new(12);
        let keys = CommKeys::generate(2, 17, Backend::AesSoft);
        let data = [vec![1.5, 2.0], vec![3.0, 0.25]];
        let lanes: Vec<Vec<u64>> = data
            .iter()
            .map(|d| d.iter().map(|v| c.encode(*v)).collect())
            .collect();
        let agg = reduce_in_process(IntProdScheme::default, &keys, &lanes);
        assert!((c.decode_prod(agg[0], 2) - 4.5).abs() < 1e-5);
        assert!((c.decode_prod(agg[1], 2) - 0.5).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn oversized_scale_rejected() {
        FixedCodec::new(63);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn quantization_error_bounded(v in -1.0e6f64..1.0e6, f in 4u32..32) {
            let c = FixedCodec::new(f);
            let err = (c.decode(c.encode(v)) - v).abs();
            prop_assert!(err <= c.resolution() / 2.0 + 1e-12);
        }

        #[test]
        fn addition_homomorphism(a in -1000.0f64..1000.0, b in -1000.0f64..1000.0) {
            let c = FixedCodec::new(24);
            let sum = c.decode(c.encode(a).wrapping_add(c.encode(b)));
            prop_assert!((sum - (a + b)).abs() <= c.resolution() + 1e-12);
        }
    }
}

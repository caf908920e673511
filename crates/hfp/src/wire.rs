//! Bit-exact wire serialization for HFP ciphertext vectors.
//!
//! The R1 requirement is about *bandwidth*: an FP32 γ=2 ciphertext is 34
//! bits and must cost 34 bits on the wire, not a rounded-up 64. This
//! module packs a ciphertext vector into a dense little-endian bitstream
//! (and back), which is also how the harnesses account inflation. Hardware
//! INC implementations would operate on exactly this layout.

use crate::format::Hfp;

/// A densely packed vector of equal-width HFP values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedHfp {
    pub ew: u32,
    pub mw: u32,
    pub len: usize,
    words: Vec<u64>,
}

impl PackedHfp {
    /// Bits per element: sign + exponent + stored mantissa.
    fn bits_per_element(ew: u32, mw: u32) -> u32 {
        1 + ew + mw
    }

    /// Pack a ciphertext slice. All elements must share the pack's widths
    /// and must be nonzero (HFP has no zero wire encoding; encoders map
    /// zero to the smallest magnitude first — see `Hfp::to_bits`).
    pub fn pack(values: &[Hfp]) -> PackedHfp {
        let (ew, mw) = values.first().map_or((8, 23), |v| (v.ew, v.mw));
        let bits = Self::bits_per_element(ew, mw) as usize;
        // fp64 addition ciphertexts (1+13+52 = 66 bits) exceed the u64
        // element path; hardware would use wider lanes there.
        assert!(bits <= 64, "elements wider than 64 bits are not packable");
        let total_bits = bits * values.len();
        let mut words = vec![0u64; total_bits.div_ceil(64)];
        for (i, v) in values.iter().enumerate() {
            assert_eq!((v.ew, v.mw), (ew, mw), "mixed widths in one pack");
            let raw = v.to_bits();
            let raw = raw as u64 & (u64::MAX >> (64 - bits as u32));
            let bit_pos = i * bits;
            let (w, off) = (bit_pos / 64, bit_pos % 64);
            words[w] |= raw << off;
            if off + bits > 64 {
                words[w + 1] |= raw >> (64 - off);
            }
        }
        PackedHfp {
            ew,
            mw,
            len: values.len(),
            words,
        }
    }

    /// Unpack back into ciphertext values.
    pub fn unpack(&self) -> Vec<Hfp> {
        let bits = Self::bits_per_element(self.ew, self.mw) as usize;
        let mask = u64::MAX >> (64 - bits as u32);
        (0..self.len)
            .map(|i| {
                let bit_pos = i * bits;
                let (w, off) = (bit_pos / 64, bit_pos % 64);
                let mut raw = self.words[w] >> off;
                if off + bits > 64 {
                    raw |= self.words[w + 1] << (64 - off);
                }
                Hfp::from_bits((raw & mask) as u128, self.ew, self.mw)
            })
            .collect()
    }

    /// The raw words (e.g. for hashing or transport).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reassemble a pack from transported raw words (the receiving side of
    /// a hardware INC path). `words` must hold at least
    /// `len × bits_per_element` bits.
    pub fn from_words(ew: u32, mw: u32, len: usize, words: Vec<u64>) -> PackedHfp {
        let bits = Self::bits_per_element(ew, mw) as usize;
        assert!(bits <= 64, "elements wider than 64 bits are not packable");
        assert!(
            words.len() * 64 >= len * bits,
            "word buffer too short for {len} elements"
        );
        PackedHfp { ew, mw, len, words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize, ew: u32, mw: u32) -> Vec<Hfp> {
        (0..n)
            .map(|i| {
                let v = (i as f64 * 0.37 + 0.5).sin() * 100.0 + 101.0;
                Hfp::from_f64(v, ew, mw).unwrap()
            })
            .collect()
    }

    #[test]
    fn roundtrip_fp32_gamma2_layout() {
        // 34-bit elements straddle word boundaries constantly.
        let v = vals(100, 10, 23);
        let p = PackedHfp::pack(&v);
        assert_eq!(p.unpack(), v);
        assert_eq!(p.words.len(), (34usize * 100).div_ceil(64));
    }

    #[test]
    fn roundtrip_various_widths() {
        for (ew, mw) in [(5u32, 10u32), (7, 8), (8, 23), (11, 52), (13, 50)] {
            let v = vals(33, ew, mw);
            let p = PackedHfp::pack(&v);
            assert_eq!(p.unpack(), v, "ew={ew} mw={mw}");
        }
    }

    #[test]
    fn empty_and_single() {
        let p = PackedHfp::pack(&[]);
        assert_eq!(p.len, 0);
        assert!(p.words.is_empty());
        assert!(p.unpack().is_empty());
        let v = vals(1, 8, 23);
        assert_eq!(PackedHfp::pack(&v).unpack(), v);
    }

    #[test]
    fn wire_size_shows_gamma_only_inflation() {
        // 1000 FP32 plaintexts: 500 words. γ=2 ciphertexts: 34 bits each
        // → 532 words (4256 bytes) = 2 bits/element of inflation, rounded
        // up to one word.
        let ct = vals(1000, 10, 23);
        let packed = PackedHfp::pack(&ct);
        assert_eq!(packed.words.len(), (34usize * 1000).div_ceil(64));
        // γ=0 (δ=0 multiplicative layout): zero inflation.
        let ct = vals(1000, 8, 23);
        assert_eq!(PackedHfp::pack(&ct).words.len(), 500);
    }

    #[test]
    #[should_panic(expected = "mixed widths")]
    fn mixed_widths_rejected() {
        let a = Hfp::from_f64(1.0, 8, 23).unwrap();
        let b = Hfp::from_f64(1.0, 5, 10).unwrap();
        PackedHfp::pack(&[a, b]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn roundtrip_random(
            n in 0usize..64,
            seeds in proptest::collection::vec((1.0f64..2.0, -60i32..60, any::<bool>()), 64),
        ) {
            let v: Vec<Hfp> = seeds
                .iter()
                .take(n)
                .map(|(m, e, s)| {
                    let x = if *s { -m } else { *m } * f64::powi(2.0, *e);
                    Hfp::from_f64(x, 10, 23).unwrap()
                })
                .collect();
            let p = PackedHfp::pack(&v);
            prop_assert_eq!(p.unpack(), v);
        }
    }
}

//! Hardware-accelerated SHA-1 using the x86 SHA-NI instruction set.
//!
//! The paper's SHA-1 measurements used OpenSSL on Broadwell Xeons, which
//! predate SHA-NI — software SHA-1 was the backend that lost to AES-NI by
//! an order of magnitude. This module adds the counterfactual the paper
//! could not measure: SHA-1 *with* hardware rounds. The `ablation` and
//! `fig5` harnesses show it narrows but does not close the gap (one
//! serial compression per 128-bit PRF output versus ten pipelineable AES
//! rounds), reinforcing the paper's backend choice.
//!
//! Single-block-message compression only (all the PRF needs): the padded
//! `key ‖ input` block is fixed at 64 bytes, as in [`crate::sha1`].
//! Correctness is pinned to the verified software implementation by test.
//!
//! Unlike [`crate::aesni`], there is no byte-swap round trip to remove
//! here: SHA-1's message schedule is defined over big-endian words, so
//! the `to_be_bytes` into the template *is* the message encoding, and
//! `compress_ni` performs exactly one unavoidable `PSHUFB` per 16 message
//! bytes when loading the schedule registers.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::*;

/// Returns true when the CPU supports the SHA new instructions.
pub fn available() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse4.1")
        && std::arch::is_x86_feature_detected!("ssse3")
}

/// SHA-1 PRF with hardware compression; computes the same function as
/// [`crate::sha1::Sha1Prf`] with a different engine.
#[derive(Clone)]
pub struct Sha1NiPrf {
    template: [u8; 64],
}

impl Sha1NiPrf {
    /// Construct when SHA-NI is available.
    pub fn new(key: u128) -> Option<Self> {
        if !available() {
            return None;
        }
        let mut template = [0u8; 64];
        template[..16].copy_from_slice(&key.to_be_bytes());
        template[32] = 0x80;
        template[56..64].copy_from_slice(&256u64.to_be_bytes());
        Some(Sha1NiPrf { template })
    }

    /// Evaluate the PRF, returning the first 128 bits of the digest.
    #[inline]
    pub fn eval_block(&self, x: u128) -> u128 {
        let mut block = self.template;
        block[16..32].copy_from_slice(&x.to_be_bytes());
        // SAFETY: constructor verified the required CPU features.
        // SAFETY: `available()` confirmed the SHA-NI features above.
        let state = unsafe { compress_ni(&block) };
        ((state[0] as u128) << 96)
            | ((state[1] as u128) << 64)
            | ((state[2] as u128) << 32)
            | (state[3] as u128)
    }
}

/// `_mm_sha1rnds4_epu32` needs a const immediate; dispatch the round
/// function index (group/5) through literal arms.
macro_rules! rnds4 {
    ($abcd:expr, $e:expr, $f:expr) => {
        match $f {
            0 => _mm_sha1rnds4_epu32($abcd, $e, 0),
            1 => _mm_sha1rnds4_epu32($abcd, $e, 1),
            2 => _mm_sha1rnds4_epu32($abcd, $e, 2),
            _ => _mm_sha1rnds4_epu32($abcd, $e, 3),
        }
    };
}

/// One SHA-1 compression over a 64-byte block from the fixed initial
/// state, returning the five state words.
#[target_feature(enable = "sha,sse4.1,ssse3")]
unsafe fn compress_ni(block: &[u8; 64]) -> [u32; 5] {
    // Lane layout: A in lane 3 (the Intel flow's convention).
    let abcd_save = _mm_set_epi32(
        0x6745_2301u32 as i32,
        0xefcd_ab89u32 as i32,
        0x98ba_dcfeu32 as i32,
        0x1032_5476u32 as i32,
    );
    let e_save = _mm_set_epi32(0xc3d2_e1f0u32 as i32, 0, 0, 0);
    let mut abcd = abcd_save;

    // Load the four 16-byte message words, byte-swapped to big-endian.
    let mask = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let mut m = [
        _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr() as *const __m128i), mask),
        _mm_shuffle_epi8(
            _mm_loadu_si128(block.as_ptr().add(16) as *const __m128i),
            mask,
        ),
        _mm_shuffle_epi8(
            _mm_loadu_si128(block.as_ptr().add(32) as *const __m128i),
            mask,
        ),
        _mm_shuffle_epi8(
            _mm_loadu_si128(block.as_ptr().add(48) as *const __m128i),
            mask,
        ),
    ];

    // 20 groups of four rounds. Group k consumes m[k % 4]; the message
    // schedule regenerates future words with the canonical cadence:
    //   k ∈ [1, 16]:  m[(k+3)%4] = sha1msg1(m[(k+3)%4], mk)
    //   k ∈ [2, 17]:  m[(k+2)%4] ^= mk
    //   k ∈ [3, 18]:  m[(k+1)%4] = sha1msg2(m[(k+1)%4], mk)
    // The E input of group k+1 is sha1nexte(pre-round ABCD of group k, …).
    let mut e_src = abcd; // pre-round ABCD feeding the next group's E
    let mut e = _mm_add_epi32(e_save, m[0]);
    abcd = rnds4!(abcd, e, 0);
    for k in 1..20usize {
        let mk = m[k % 4];
        e = _mm_sha1nexte_epu32(e_src, mk);
        e_src = abcd;
        abcd = rnds4!(abcd, e, k / 5);
        if (1..=16).contains(&k) {
            m[(k + 3) % 4] = _mm_sha1msg1_epu32(m[(k + 3) % 4], mk);
        }
        if (2..=17).contains(&k) {
            m[(k + 2) % 4] = _mm_xor_si128(m[(k + 2) % 4], mk);
        }
        if (3..=18).contains(&k) {
            m[(k + 1) % 4] = _mm_sha1msg2_epu32(m[(k + 1) % 4], mk);
        }
    }
    // Combine with the initial state.
    let e_final = _mm_sha1nexte_epu32(e_src, e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);

    let mut tmp = [0u32; 4];
    _mm_storeu_si128(tmp.as_mut_ptr() as *mut __m128i, abcd);
    [
        tmp[3],
        tmp[2],
        tmp[1],
        tmp[0],
        _mm_extract_epi32(e_final, 3) as u32,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::{sha1, Sha1Prf};

    #[test]
    fn digest_matches_reference_vector() {
        if !available() {
            eprintln!("SHA-NI not available; skipping");
            return;
        }
        // Single-block "abc" digest through compress_ni must equal the
        // RFC 3174 vector (both implementations share the padding logic,
        // so check the raw compression through the PRF path instead):
        // build the exact padded block for "abc".
        let mut block = [0u8; 64];
        block[..3].copy_from_slice(b"abc");
        block[3] = 0x80;
        block[56..64].copy_from_slice(&24u64.to_be_bytes());
        // SAFETY: `available()` confirmed the SHA-NI features above.
        let state = unsafe { compress_ni(&block) };
        let expect = sha1(b"abc");
        let mut got = [0u8; 20];
        for (i, w) in state.iter().enumerate() {
            got[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn matches_software_sha1_prf() {
        let Some(hw) = Sha1NiPrf::new(0x0123_4567_89ab_cdef) else {
            eprintln!("SHA-NI not available; skipping");
            return;
        };
        let sw = Sha1Prf::new(0x0123_4567_89ab_cdef);
        for x in 0..512u128 {
            let x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(hw.eval_block(x), sw.eval_block(x), "x={x}");
        }
    }

    #[test]
    fn key_sensitivity() {
        let (Some(a), Some(b)) = (Sha1NiPrf::new(1), Sha1NiPrf::new(2)) else {
            eprintln!("SHA-NI not available; skipping");
            return;
        };
        assert_ne!(a.eval_block(0), b.eval_block(0));
    }
}

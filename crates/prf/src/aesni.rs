//! Hardware-accelerated AES-128 using the x86 AES-NI instruction set.
//!
//! This mirrors the `AES-NI + SSE2` backend of libhear (paper §6): key
//! expansion with `AESKEYGENASSIST` and encryption with ten `AESENC` /
//! `AESENCLAST` rounds. An eight-block parallel path keeps the AES unit's
//! pipeline full for bulk keystream generation, which is what gives the
//! backend its large throughput advantage over SHA-1 in Figures 4 and 5.
//!
//! Blocks stay in SSE registers end to end: `u128` values are moved into
//! the big-endian register form AES operates on with one `PSHUFB`
//! (`load_be`/`store_be`) instead of a `to_be_bytes` memory round trip,
//! and the CTR counter blocks for the bulk paths are generated with SIMD
//! adds on the in-register counter ([`AesNi128::encrypt_ctr8`],
//! [`AesNi128::keystream_tile8`]).
//!
//! On CPUs with VAES (+ AVX2) the two bulk entry points run the eight
//! blocks as four 256-bit states — two blocks per `VAESENC` — which doubles
//! the blocks retired per cycle on cores whose AES unit is 256 bits wide or
//! wider. The 128-bit tile stays as the fallback, and serves the rare group
//! whose counter carries out of the low 64 bits. Both tiles compute the
//! same function bit for bit.
//!
//! All functions are gated behind a runtime `is_x86_feature_detected!`
//! check performed once in [`AesNi128::new`]; constructing the type is proof
//! that the features are present, so the `unsafe` intrinsic calls are sound.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::*;

/// Expanded AES-128 key schedule held in SSE registers' memory form.
#[derive(Clone)]
pub struct AesNi128 {
    round_keys: [__m128i; 11],
    /// VAES + AVX2 were detected at construction: the bulk tiles
    /// ([`AesNi128::encrypt_ctr8`], [`AesNi128::keystream_tile8`]) take
    /// the 256-bit path. Private, so `true` is proof of the features.
    wide: bool,
}

// __m128i is plain old data; sharing the expanded schedule across rank
// threads is safe.
unsafe impl Send for AesNi128 {}
unsafe impl Sync for AesNi128 {}

/// Returns true when the CPU supports the AES-NI instructions (plus the
/// SSSE3 `PSHUFB` the register-form load/store relies on; every AES-NI
/// CPU has it).
pub fn available() -> bool {
    std::arch::is_x86_feature_detected!("aes")
        && std::arch::is_x86_feature_detected!("sse2")
        && std::arch::is_x86_feature_detected!("ssse3")
}

/// Returns true when the CPU also has VAES and AVX2, so the bulk tiles of
/// an [`AesNi128`] run two blocks per `VAESENC`.
pub fn vaes_available() -> bool {
    available()
        && std::arch::is_x86_feature_detected!("vaes")
        && std::arch::is_x86_feature_detected!("avx2")
}

/// Shuffle mask reversing all 16 bytes: converts between the native
/// (little-endian) register image of a `u128` and the big-endian byte
/// order the AES state uses.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn bswap_mask() -> __m128i {
    _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
}

/// Load a `u128` into big-endian register form with one shuffle (no
/// `to_be_bytes` memory round trip).
#[inline]
#[target_feature(enable = "sse2,ssse3")]
unsafe fn load_be(x: u128) -> __m128i {
    let v = _mm_set_epi64x((x >> 64) as i64, x as i64);
    _mm_shuffle_epi8(v, bswap_mask())
}

/// Store a big-endian-form register back into a native `u128` (SSE2-only
/// qword extraction, avoiding SSE4.1).
#[inline]
#[target_feature(enable = "sse2,ssse3")]
unsafe fn store_be(v: __m128i) -> u128 {
    let le = _mm_shuffle_epi8(v, bswap_mask());
    let lo = _mm_cvtsi128_si64(le) as u64;
    let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(le, le)) as u64;
    ((hi as u128) << 64) | lo as u128
}

/// Eight consecutive counter blocks `base..base+8` in big-endian register
/// form, generated with SIMD adds on the low qword. Caller must ensure the
/// additions cannot carry out of the low 64 bits (`base as u64 <=
/// u64::MAX - 7`); the carry/wrap boundary takes the scalar fallback.
#[inline]
#[target_feature(enable = "sse2,ssse3")]
unsafe fn ctr8_be(base: u128) -> [__m128i; 8] {
    let m = bswap_mask();
    let b = _mm_set_epi64x((base >> 64) as i64, base as i64);
    let mut out = [_mm_setzero_si128(); 8];
    for (i, o) in out.iter_mut().enumerate() {
        let inc = _mm_set_epi64x(0, i as i64);
        *o = _mm_shuffle_epi8(_mm_add_epi64(b, inc), m);
    }
    out
}

/// Counter blocks near the 64-bit (or 128-bit) carry boundary: plain
/// wrapping adds, loaded one by one. Rare; correctness only.
#[inline]
#[target_feature(enable = "sse2,ssse3")]
unsafe fn ctr8_be_wrapping(base: u128) -> [__m128i; 8] {
    let mut out = [_mm_setzero_si128(); 8];
    for (i, o) in out.iter_mut().enumerate() {
        *o = load_be(base.wrapping_add(i as u128));
    }
    out
}

/// [`ctr8_be`] two blocks to a register: state `k` holds counter blocks
/// `base + 2k` (low lane) and `base + 2k + 1` (high lane). Same no-carry
/// precondition.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn ctr8_be_wide(base: u128) -> [__m256i; 4] {
    let m = _mm256_broadcastsi128_si256(bswap_mask());
    let (hi, lo) = ((base >> 64) as i64, base as i64);
    let b = _mm256_set_epi64x(hi, lo, hi, lo);
    let mut out = [_mm256_setzero_si256(); 4];
    for (k, o) in out.iter_mut().enumerate() {
        let inc = _mm256_set_epi64x(0, 2 * k as i64 + 1, 0, 2 * k as i64);
        *o = _mm256_shuffle_epi8(_mm256_add_epi64(b, inc), m);
    }
    out
}

/// Per-width word swizzle: reverses the bytes within each `width`-byte
/// group, so big-endian keystream words become native-endian words at
/// the same offsets. `width` ∈ {2, 4, 8}; width 1 needs no shuffle.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn word_swizzle(width: usize) -> __m128i {
    match width {
        2 => _mm_set_epi8(14, 15, 12, 13, 10, 11, 8, 9, 6, 7, 4, 5, 2, 3, 0, 1),
        4 => _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3),
        8 => _mm_set_epi8(8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7),
        _ => unreachable!("word widths are 2, 4 or 8 bytes"),
    }
}

macro_rules! expand_round {
    ($rks:expr, $i:expr, $rcon:expr) => {{
        let prev = $rks[$i - 1];
        let mut tmp = _mm_aeskeygenassist_si128(prev, $rcon);
        tmp = _mm_shuffle_epi32(tmp, 0xff);
        let mut key = prev;
        key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
        key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
        key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
        $rks[$i] = _mm_xor_si128(key, tmp);
    }};
}

/// Run the ten AES-128 rounds over `$n` independent state registers,
/// interleaved so the AES unit's pipeline stays full.
macro_rules! aes_rounds {
    ($self:expr, $s:expr) => {{
        let rk0 = $self.round_keys[0];
        for x in $s.iter_mut() {
            *x = _mm_xor_si128(*x, rk0);
        }
        for rk in &$self.round_keys[1..10] {
            for x in $s.iter_mut() {
                *x = _mm_aesenc_si128(*x, *rk);
            }
        }
        let rkl = $self.round_keys[10];
        for x in $s.iter_mut() {
            *x = _mm_aesenclast_si128(*x, rkl);
        }
    }};
}

/// [`aes_rounds!`] over 256-bit states, two blocks each, every round key
/// broadcast to both lanes.
macro_rules! aes_rounds_wide {
    ($self:expr, $s:expr) => {{
        let rk0 = _mm256_broadcastsi128_si256($self.round_keys[0]);
        for x in $s.iter_mut() {
            *x = _mm256_xor_si256(*x, rk0);
        }
        for rk in &$self.round_keys[1..10] {
            let rk = _mm256_broadcastsi128_si256(*rk);
            for x in $s.iter_mut() {
                *x = _mm256_aesenc_epi128(*x, rk);
            }
        }
        let rkl = _mm256_broadcastsi128_si256($self.round_keys[10]);
        for x in $s.iter_mut() {
            *x = _mm256_aesenclast_epi128(*x, rkl);
        }
    }};
}

impl AesNi128 {
    /// Expand the key schedule. Returns `None` when AES-NI is unavailable so
    /// callers can fall back to the portable implementation. The wide
    /// (VAES) bulk tile is chosen here, once, when the CPU has it.
    pub fn new(key: u128) -> Option<Self> {
        let mut aes = Self::new_narrow(key)?;
        aes.wide = vaes_available();
        Some(aes)
    }

    /// [`AesNi128::new`] pinned to the 128-bit bulk tile whatever the CPU
    /// offers: how tests and the throughput bench keep the fallback
    /// covered, and measured, on VAES hosts.
    #[doc(hidden)]
    pub fn new_narrow(key: u128) -> Option<Self> {
        if !available() {
            return None;
        }
        // SAFETY: feature presence checked above.
        Some(unsafe { Self::new_unchecked(key) })
    }

    /// True when the bulk tiles run on VAES.
    pub fn is_wide(&self) -> bool {
        self.wide
    }

    #[target_feature(enable = "aes,sse2,ssse3")]
    unsafe fn new_unchecked(key: u128) -> Self {
        let mut rks = [_mm_setzero_si128(); 11];
        rks[0] = load_be(key);
        expand_round!(rks, 1, 0x01);
        expand_round!(rks, 2, 0x02);
        expand_round!(rks, 3, 0x04);
        expand_round!(rks, 4, 0x08);
        expand_round!(rks, 5, 0x10);
        expand_round!(rks, 6, 0x20);
        expand_round!(rks, 7, 0x40);
        expand_round!(rks, 8, 0x80);
        expand_round!(rks, 9, 0x1b);
        expand_round!(rks, 10, 0x36);
        AesNi128 {
            round_keys: rks,
            wide: false,
        }
    }

    /// Encrypt a single block (big-endian interpretation, matching
    /// [`crate::aes::Aes128::encrypt_block`]).
    #[inline]
    pub fn encrypt_block(&self, block: u128) -> u128 {
        // SAFETY: the type can only be constructed when AES-NI is present.
        unsafe { self.encrypt_block_inner(block) }
    }

    #[target_feature(enable = "aes,sse2,ssse3")]
    unsafe fn encrypt_block_inner(&self, block: u128) -> u128 {
        let mut s = [load_be(block)];
        aes_rounds!(self, s);
        store_be(s[0])
    }

    /// Encrypt four independent blocks, interleaving the rounds so the AES
    /// unit pipeline stays full. `blocks` are big-endian u128s as elsewhere.
    #[inline]
    pub fn encrypt4(&self, blocks: [u128; 4]) -> [u128; 4] {
        // SAFETY: see `encrypt_block`.
        unsafe { self.encrypt4_inner(blocks) }
    }

    #[target_feature(enable = "aes,sse2,ssse3")]
    unsafe fn encrypt4_inner(&self, blocks: [u128; 4]) -> [u128; 4] {
        let mut s = [
            load_be(blocks[0]),
            load_be(blocks[1]),
            load_be(blocks[2]),
            load_be(blocks[3]),
        ];
        aes_rounds!(self, s);
        [
            store_be(s[0]),
            store_be(s[1]),
            store_be(s[2]),
            store_be(s[3]),
        ]
    }

    /// Encrypt eight independent blocks with the rounds interleaved
    /// eight wide — enough in-flight blocks to saturate the AES unit's
    /// latency×throughput product on every core since Haswell.
    #[inline]
    pub fn encrypt8(&self, blocks: [u128; 8]) -> [u128; 8] {
        // SAFETY: see `encrypt_block`.
        unsafe { self.encrypt8_inner(blocks) }
    }

    #[target_feature(enable = "aes,sse2,ssse3")]
    unsafe fn encrypt8_inner(&self, blocks: [u128; 8]) -> [u128; 8] {
        let mut s = [_mm_setzero_si128(); 8];
        for (x, b) in s.iter_mut().zip(blocks.iter()) {
            *x = load_be(*b);
        }
        aes_rounds!(self, s);
        let mut out = [0u128; 8];
        for (o, x) in out.iter_mut().zip(s.iter()) {
            *o = store_be(*x);
        }
        out
    }

    /// CTR batch: encrypt the eight counter blocks `base..base+8`
    /// (wrapping), generating the counters with SIMD adds instead of
    /// per-block `u128` arithmetic + byte-swap round trips.
    #[inline]
    pub fn encrypt_ctr8(&self, base: u128) -> [u128; 8] {
        if self.wide && base as u64 <= u64::MAX - 7 {
            // SAFETY: `wide` is only set after VAES + AVX2 were detected.
            return unsafe { self.encrypt_ctr8_wide(base) };
        }
        // SAFETY: see `encrypt_block`.
        unsafe { self.encrypt_ctr8_inner(base) }
    }

    #[target_feature(enable = "aes,sse2,ssse3,avx2,vaes")]
    unsafe fn encrypt_ctr8_wide(&self, base: u128) -> [u128; 8] {
        let mut s = ctr8_be_wide(base);
        aes_rounds_wide!(self, s);
        let m = _mm256_broadcastsi128_si256(bswap_mask());
        let mut out = [0u128; 8];
        for (k, x) in s.iter().enumerate() {
            // The byte-reversed lane is the native image of the `u128`
            // (what `store_be` assembles from its two qwords).
            let le = _mm256_shuffle_epi8(*x, m);
            _mm256_storeu_si256(out.as_mut_ptr().add(2 * k) as *mut __m256i, le);
        }
        out
    }

    #[target_feature(enable = "aes,sse2,ssse3")]
    unsafe fn encrypt_ctr8_inner(&self, base: u128) -> [u128; 8] {
        let mut s = if base as u64 <= u64::MAX - 7 {
            ctr8_be(base)
        } else {
            ctr8_be_wrapping(base)
        };
        aes_rounds!(self, s);
        let mut out = [0u128; 8];
        for (o, x) in out.iter_mut().zip(s.iter()) {
            *o = store_be(*x);
        }
        out
    }

    /// One fused-kernel keystream tile: the CTR keystream of blocks
    /// `base..base+8`, written as 128 bytes whose native-endian words of
    /// `width` bytes are exactly keystream words `0..128/width` of the
    /// 8-block group (word 0 of a block is its most significant — the
    /// crate-wide convention). The whole tile is produced in registers:
    /// SIMD counter adds, eight-wide AES rounds, then one `PSHUFB` per
    /// block to land the words in native byte order.
    #[inline]
    pub fn keystream_tile8(&self, base: u128, width: usize, out: &mut [u8; 128]) {
        if self.wide && base as u64 <= u64::MAX - 7 {
            // SAFETY: `wide` is only set after VAES + AVX2 were detected.
            return unsafe { self.keystream_tile8_wide(base, width, out) };
        }
        // SAFETY: see `encrypt_block`.
        unsafe { self.keystream_tile8_inner(base, width, out) }
    }

    #[target_feature(enable = "aes,sse2,ssse3,avx2,vaes")]
    unsafe fn keystream_tile8_wide(&self, base: u128, width: usize, out: &mut [u8; 128]) {
        let mut s = ctr8_be_wide(base);
        aes_rounds_wide!(self, s);
        if width > 1 {
            let swz = _mm256_broadcastsi128_si256(word_swizzle(width));
            for x in s.iter_mut() {
                *x = _mm256_shuffle_epi8(*x, swz);
            }
        }
        for (k, x) in s.iter().enumerate() {
            _mm256_storeu_si256(out.as_mut_ptr().add(32 * k) as *mut __m256i, *x);
        }
    }

    #[target_feature(enable = "aes,sse2,ssse3")]
    unsafe fn keystream_tile8_inner(&self, base: u128, width: usize, out: &mut [u8; 128]) {
        let mut s = if base as u64 <= u64::MAX - 7 {
            ctr8_be(base)
        } else {
            ctr8_be_wrapping(base)
        };
        aes_rounds!(self, s);
        // Width-1 words are already in order (big-endian bytes == the
        // byte stream); wider words need the in-group byte reversal.
        if width > 1 {
            let swz = word_swizzle(width);
            for x in s.iter_mut() {
                *x = _mm_shuffle_epi8(*x, swz);
            }
        }
        for (i, x) in s.iter().enumerate() {
            _mm_storeu_si128(out.as_mut_ptr().add(16 * i) as *mut __m128i, *x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128;

    #[test]
    fn matches_fips_vector_when_available() {
        let Some(aes) = AesNi128::new(0x0001_0203_0405_0607_0809_0a0b_0c0d_0e0f) else {
            eprintln!("AES-NI not available; skipping");
            return;
        };
        let ct = aes.encrypt_block(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff);
        assert_eq!(ct, 0x69c4_e0d8_6a7b_0430_d8cd_b780_70b4_c55a);
    }

    #[test]
    fn agrees_with_software_aes() {
        let key = 0x1357_9bdf_0246_8ace_fdb9_7531_eca8_6420_u128;
        let Some(hw) = AesNi128::new(key) else {
            eprintln!("AES-NI not available; skipping");
            return;
        };
        let sw = Aes128::new(key);
        for i in 0..2048u128 {
            let x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835);
            assert_eq!(hw.encrypt_block(x), sw.encrypt_block(x), "block {i}");
        }
    }

    #[test]
    fn encrypt4_matches_scalar() {
        let Some(hw) = AesNi128::new(42) else {
            eprintln!("AES-NI not available; skipping");
            return;
        };
        let blocks = [1u128, u128::MAX, 0xdeadbeef, 1 << 100];
        let out = hw.encrypt4(blocks);
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(out[i], hw.encrypt_block(*b));
        }
    }

    #[test]
    fn encrypt8_matches_scalar_and_software() {
        let key = 0xfeed_c0de_0000_0000_0123_4567_89ab_cdefu128;
        let Some(hw) = AesNi128::new(key) else {
            eprintln!("AES-NI not available; skipping");
            return;
        };
        let sw = Aes128::new(key);
        let blocks: [u128; 8] = core::array::from_fn(|i| {
            (i as u128 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835)
        });
        let out = hw.encrypt8(blocks);
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(out[i], hw.encrypt_block(*b), "vs scalar, block {i}");
            assert_eq!(out[i], sw.encrypt_block(*b), "vs software, block {i}");
        }
    }

    #[test]
    fn ctr8_matches_per_block_including_boundaries() {
        let Some(hw) = AesNi128::new(0xabcdef) else {
            eprintln!("AES-NI not available; skipping");
            return;
        };
        // Plain, low-qword carry, and full 128-bit wrap bases.
        let bases = [
            0u128,
            12345,
            (u64::MAX - 3) as u128, // carries out of the low qword
            ((7u128) << 64) | (u64::MAX - 5) as u128,
            u128::MAX - 2, // wraps past 2^128
        ];
        for base in bases {
            let out = hw.encrypt_ctr8(base);
            for (i, o) in out.iter().enumerate() {
                assert_eq!(
                    *o,
                    hw.encrypt_block(base.wrapping_add(i as u128)),
                    "base={base:#x} i={i}"
                );
            }
        }
    }

    #[test]
    fn keystream_tile8_words_match_block_splitters() {
        let Some(hw) = AesNi128::new(77) else {
            eprintln!("AES-NI not available; skipping");
            return;
        };
        for base in [0u128, 999, (u64::MAX - 2) as u128] {
            let blocks: Vec<u128> = (0..8)
                .map(|i| hw.encrypt_block(base.wrapping_add(i)))
                .collect();
            let mut tile = [0u8; 128];
            // u8: the tile is the big-endian byte stream itself.
            hw.keystream_tile8(base, 1, &mut tile);
            for (b, blk) in blocks.iter().enumerate() {
                assert_eq!(&tile[16 * b..16 * b + 16], &crate::block_words_u8(*blk));
            }
            // u16/u32/u64: native-endian words at their stream offsets.
            hw.keystream_tile8(base, 2, &mut tile);
            for (b, blk) in blocks.iter().enumerate() {
                for (k, w) in crate::block_words_u16(*blk).iter().enumerate() {
                    let off = 16 * b + 2 * k;
                    let got = u16::from_ne_bytes(tile[off..off + 2].try_into().unwrap());
                    assert_eq!(got, *w, "u16 base={base} block={b} word={k}");
                }
            }
            hw.keystream_tile8(base, 4, &mut tile);
            for (b, blk) in blocks.iter().enumerate() {
                for (k, w) in crate::block_words_u32(*blk).iter().enumerate() {
                    let off = 16 * b + 4 * k;
                    let got = u32::from_ne_bytes(tile[off..off + 4].try_into().unwrap());
                    assert_eq!(got, *w, "u32 base={base} block={b} word={k}");
                }
            }
            hw.keystream_tile8(base, 8, &mut tile);
            for (b, blk) in blocks.iter().enumerate() {
                for (k, w) in crate::block_words_u64(*blk).iter().enumerate() {
                    let off = 16 * b + 8 * k;
                    let got = u64::from_ne_bytes(tile[off..off + 8].try_into().unwrap());
                    assert_eq!(got, *w, "u64 base={base} block={b} word={k}");
                }
            }
        }
    }
    /// A wide (VAES) cipher and its narrow twin on the same key, or `None`
    /// with a notice where the CPU lacks VAES.
    fn wide_and_narrow(key: u128) -> Option<(AesNi128, AesNi128)> {
        if !vaes_available() {
            eprintln!("VAES not available; skipping");
            return None;
        }
        let wide = AesNi128::new(key).expect("VAES implies AES-NI");
        let narrow = AesNi128::new_narrow(key).expect("VAES implies AES-NI");
        assert!(wide.is_wide() && !narrow.is_wide());
        Some((wide, narrow))
    }

    /// Plain, low-qword carry, carry with a non-zero high qword, and full
    /// 128-bit wrap bases.
    const CTR_BASES: [u128; 5] = [
        0,
        12345,
        (u64::MAX - 3) as u128,
        (7u128 << 64) | (u64::MAX - 5) as u128,
        u128::MAX - 2,
    ];

    #[test]
    fn wide_tile_matches_fips_vector() {
        // FIPS-197 Appendix C.1, reached through the wide CTR tile: the
        // plaintext block is counter 0 of the group based at it.
        let Some((wide, _)) = wide_and_narrow(0x0001_0203_0405_0607_0809_0a0b_0c0d_0e0f) else {
            return;
        };
        let pt = 0x0011_2233_4455_6677_8899_aabb_ccdd_eeff_u128;
        assert_eq!(
            wide.encrypt_ctr8(pt)[0],
            0x69c4_e0d8_6a7b_0430_d8cd_b780_70b4_c55a
        );
        let mut tile = [0u8; 128];
        wide.keystream_tile8(pt, 1, &mut tile);
        assert_eq!(
            tile[..16],
            0x69c4_e0d8_6a7b_0430_d8cd_b780_70b4_c55a_u128.to_be_bytes()
        );
    }

    #[test]
    fn wide_tile_agrees_with_software_aes_on_random_blocks() {
        let key = 0x1357_9bdf_0246_8ace_fdb9_7531_eca8_6420_u128;
        let Some((wide, _)) = wide_and_narrow(key) else {
            return;
        };
        let sw = Aes128::new(key);
        // 384 random group bases × 8 counters = 3072 blocks.
        for i in 0..384u128 {
            let base = i.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835);
            for (j, o) in wide.encrypt_ctr8(base).iter().enumerate() {
                let x = base.wrapping_add(j as u128);
                assert_eq!(*o, sw.encrypt_block(x), "group {i} block {j}");
            }
        }
    }

    #[test]
    fn wide_ctr8_matches_per_block_including_boundaries() {
        let Some((wide, narrow)) = wide_and_narrow(0xabcdef) else {
            return;
        };
        for base in CTR_BASES {
            let out = wide.encrypt_ctr8(base);
            assert_eq!(out, narrow.encrypt_ctr8(base), "base={base:#x}");
            for (i, o) in out.iter().enumerate() {
                assert_eq!(
                    *o,
                    wide.encrypt_block(base.wrapping_add(i as u128)),
                    "base={base:#x} i={i}"
                );
            }
        }
    }

    #[test]
    fn wide_keystream_tile8_matches_narrow_for_every_width() {
        let Some((wide, narrow)) = wide_and_narrow(77) else {
            return;
        };
        for base in CTR_BASES.into_iter().chain([999, 1 << 70]) {
            let blocks: Vec<u128> = (0..8)
                .map(|i| wide.encrypt_block(base.wrapping_add(i)))
                .collect();
            for width in [1usize, 2, 4, 8] {
                let (mut w, mut n) = ([0u8; 128], [0xffu8; 128]);
                wide.keystream_tile8(base, width, &mut w);
                narrow.keystream_tile8(base, width, &mut n);
                assert_eq!(w, n, "base={base:#x} width={width}");
                // And against the per-block definition: word `k` of block
                // `b` is its `k`-th most significant `width` bytes, stored
                // native-endian.
                for (b, blk) in blocks.iter().enumerate() {
                    let be = blk.to_be_bytes();
                    for (k, word) in be.chunks_exact(width).enumerate() {
                        let off = 16 * b + width * k;
                        let mut native = word.to_vec();
                        if cfg!(target_endian = "little") {
                            native.reverse();
                        }
                        assert_eq!(
                            w[off..off + width],
                            native[..],
                            "base={base:#x} width={width} block={b} word={k}"
                        );
                    }
                }
            }
        }
    }
}

//! Portable software AES-128 (FIPS-197).
//!
//! This is the fallback backend used when the host CPU does not expose
//! AES-NI. It is a straightforward table-driven implementation: the four
//! T-tables are derived from the S-box at compile time, so the crate carries
//! no opaque binary blobs. The implementation encrypts single 128-bit blocks;
//! bulk keystream generation is layered on top in [`crate::kernels`].

/// The AES S-box (FIPS-197 §5.1.1).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for the AES-128 key schedule.
const RCON: [u32; 10] = [
    0x0100_0000,
    0x0200_0000,
    0x0400_0000,
    0x0800_0000,
    0x1000_0000,
    0x2000_0000,
    0x4000_0000,
    0x8000_0000,
    0x1b00_0000,
    0x3600_0000,
];

/// Multiply a byte by `x` (i.e. 2) in GF(2^8) with the AES polynomial.
const fn xtime(b: u8) -> u8 {
    let hi = b >> 7;
    (b << 1) ^ (hi.wrapping_mul(0x1b))
}

/// Build the main encryption T-table `T0`; the other three tables are byte
/// rotations of this one.
const fn build_t0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        // Column layout matches the big-endian word convention used below:
        // T0[x] = (2·S[x], S[x], S[x], 3·S[x]).
        t[i] = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
        i += 1;
    }
    t
}

static T0: [u32; 256] = build_t0();

#[inline(always)]
fn t0(x: u8) -> u32 {
    T0[x as usize]
}
#[inline(always)]
fn t1(x: u8) -> u32 {
    T0[x as usize].rotate_right(8)
}
#[inline(always)]
fn t2(x: u8) -> u32 {
    T0[x as usize].rotate_right(16)
}
#[inline(always)]
fn t3(x: u8) -> u32 {
    T0[x as usize].rotate_right(24)
}

#[inline(always)]
fn sub_word(w: u32) -> u32 {
    ((SBOX[(w >> 24) as usize] as u32) << 24)
        | ((SBOX[((w >> 16) & 0xff) as usize] as u32) << 16)
        | ((SBOX[((w >> 8) & 0xff) as usize] as u32) << 8)
        | (SBOX[(w & 0xff) as usize] as u32)
}

/// An expanded AES-128 key schedule: 11 round keys of four 32-bit words each,
/// stored big-endian word-wise as in FIPS-197.
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [u32; 44],
}

impl Aes128 {
    /// Expand a 128-bit key (FIPS-197 §5.2).
    pub fn new(key: u128) -> Self {
        let kb = key.to_be_bytes();
        let mut w = [0u32; 44];
        for (i, chunk) in kb.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ RCON[i / 4 - 1];
            }
            w[i] = w[i - 4] ^ temp;
        }
        Aes128 { round_keys: w }
    }

    /// Encrypt one 128-bit block. The block is interpreted big-endian, so
    /// `encrypt_block(0x00112233…)` corresponds to the byte sequence
    /// `00 11 22 33 …` of the FIPS-197 test vectors.
    pub fn encrypt_block(&self, block: u128) -> u128 {
        let b = block.to_be_bytes();
        let rk = &self.round_keys;
        let mut s0 = u32::from_be_bytes([b[0], b[1], b[2], b[3]]) ^ rk[0];
        let mut s1 = u32::from_be_bytes([b[4], b[5], b[6], b[7]]) ^ rk[1];
        let mut s2 = u32::from_be_bytes([b[8], b[9], b[10], b[11]]) ^ rk[2];
        let mut s3 = u32::from_be_bytes([b[12], b[13], b[14], b[15]]) ^ rk[3];

        // Nine full rounds of SubBytes+ShiftRows+MixColumns folded into
        // T-table lookups.
        for round in 1..10 {
            let k = 4 * round;
            let t0v = t0((s0 >> 24) as u8)
                ^ t1(((s1 >> 16) & 0xff) as u8)
                ^ t2(((s2 >> 8) & 0xff) as u8)
                ^ t3((s3 & 0xff) as u8)
                ^ rk[k];
            let t1v = t0((s1 >> 24) as u8)
                ^ t1(((s2 >> 16) & 0xff) as u8)
                ^ t2(((s3 >> 8) & 0xff) as u8)
                ^ t3((s0 & 0xff) as u8)
                ^ rk[k + 1];
            let t2v = t0((s2 >> 24) as u8)
                ^ t1(((s3 >> 16) & 0xff) as u8)
                ^ t2(((s0 >> 8) & 0xff) as u8)
                ^ t3((s1 & 0xff) as u8)
                ^ rk[k + 2];
            let t3v = t0((s3 >> 24) as u8)
                ^ t1(((s0 >> 16) & 0xff) as u8)
                ^ t2(((s1 >> 8) & 0xff) as u8)
                ^ t3((s2 & 0xff) as u8)
                ^ rk[k + 3];
            s0 = t0v;
            s1 = t1v;
            s2 = t2v;
            s3 = t3v;
        }

        // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        let f = |a: u32, b: u32, c: u32, d: u32, k: u32| -> u32 {
            (((SBOX[(a >> 24) as usize] as u32) << 24)
                | ((SBOX[((b >> 16) & 0xff) as usize] as u32) << 16)
                | ((SBOX[((c >> 8) & 0xff) as usize] as u32) << 8)
                | (SBOX[(d & 0xff) as usize] as u32))
                ^ k
        };
        let o0 = f(s0, s1, s2, s3, rk[40]);
        let o1 = f(s1, s2, s3, s0, rk[41]);
        let o2 = f(s2, s3, s0, s1, rk[42]);
        let o3 = f(s3, s0, s1, s2, rk[43]);

        let mut out = [0u8; 16];
        out[0..4].copy_from_slice(&o0.to_be_bytes());
        out[4..8].copy_from_slice(&o1.to_be_bytes());
        out[8..12].copy_from_slice(&o2.to_be_bytes());
        out[12..16].copy_from_slice(&o3.to_be_bytes());
        u128::from_be_bytes(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips197_appendix_c_vector() {
        // FIPS-197 Appendix C.1: AES-128.
        let key = 0x0001_0203_0405_0607_0809_0a0b_0c0d_0e0f_u128;
        let pt = 0x0011_2233_4455_6677_8899_aabb_ccdd_eeff_u128;
        let ct = Aes128::new(key).encrypt_block(pt);
        assert_eq!(ct, 0x69c4_e0d8_6a7b_0430_d8cd_b780_70b4_c55a_u128);
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B example.
        let key = 0x2b7e_1516_28ae_d2a6_abf7_1588_09cf_4f3c_u128;
        let pt = 0x3243_f6a8_885a_308d_3131_98a2_e037_0734_u128;
        let ct = Aes128::new(key).encrypt_block(pt);
        assert_eq!(ct, 0x3925_841d_02dc_09fb_dc11_8597_196a_0b32_u128);
    }

    #[test]
    fn distinct_inputs_distinct_outputs() {
        // AES is a permutation: a small injectivity smoke test.
        let aes = Aes128::new(0xdead_beef_cafe_f00d_0123_4567_89ab_cdef);
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u128 {
            assert!(seen.insert(aes.encrypt_block(i)));
        }
    }

    #[test]
    fn key_sensitivity() {
        let a = Aes128::new(1).encrypt_block(42);
        let b = Aes128::new(2).encrypt_block(42);
        assert_ne!(a, b);
    }

    #[test]
    fn xtime_matches_gf256() {
        assert_eq!(xtime(0x57), 0xae);
        assert_eq!(xtime(0xae), 0x47);
        assert_eq!(xtime(0x80), 0x1b);
    }
}

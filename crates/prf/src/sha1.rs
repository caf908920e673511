//! Portable SHA-1 (RFC 3174) and a keyed PRF construction on top of it.
//!
//! The paper's first libhear backend used OpenSSL SHA-1 and found it an
//! order of magnitude too slow for modern line rates (Fig. 5); we reproduce
//! that backend with a from-scratch compression function. The PRF maps a
//! 128-bit input to a 128-bit output by hashing `key || input` — both fit a
//! single 64-byte compression block, so each PRF call costs exactly one
//! compression, which is the same cost structure as the OpenSSL path.

/// SHA-1 initial state (RFC 3174 §6.1).
const H0: [u32; 5] = [
    0x6745_2301,
    0xefcd_ab89,
    0x98ba_dcfe,
    0x1032_5476,
    0xc3d2_e1f0,
];

/// One SHA-1 compression over a 64-byte block.
#[inline]
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }

    let [mut a, mut b, mut c, mut d, mut e] = *state;
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i {
            0..=19 => ((b & c) | ((!b) & d), 0x5a82_7999),
            20..=39 => (b ^ c ^ d, 0x6ed9_eba1),
            40..=59 => ((b & c) | (b & d) | (c & d), 0x8f1b_bcdc),
            _ => (b ^ c ^ d, 0xca62_c1d6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

/// Hash an arbitrary message (multi-block, with RFC 3174 padding). Used by
/// the test vectors; the hot PRF path below avoids this general machinery.
pub fn sha1(msg: &[u8]) -> [u8; 20] {
    let mut state = H0;
    let mut block = [0u8; 64];
    let mut chunks = msg.chunks_exact(64);
    for c in &mut chunks {
        block.copy_from_slice(c);
        compress(&mut state, &block);
    }
    let rem = chunks.remainder();
    let bitlen = (msg.len() as u64) * 8;
    block[..rem.len()].copy_from_slice(rem);
    block[rem.len()] = 0x80;
    for b in &mut block[rem.len() + 1..] {
        *b = 0;
    }
    if rem.len() + 1 + 8 > 64 {
        compress(&mut state, &block);
        block = [0u8; 64];
    }
    block[56..64].copy_from_slice(&bitlen.to_be_bytes());
    compress(&mut state, &block);

    let mut out = [0u8; 20];
    for (i, s) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&s.to_be_bytes());
    }
    out
}

/// SHA-1-based keyed PRF: `F_k(x) = SHA1(k || x)` truncated to 128 bits.
///
/// The padded single block (`16 B key || 16 B input || 0x80 || zeros ||
/// length`) is precomputed except for the input bytes, so each evaluation is
/// one compression plus a 16-byte copy.
#[derive(Clone)]
pub struct Sha1Prf {
    template: [u8; 64],
}

impl Sha1Prf {
    pub fn new(key: u128) -> Self {
        let mut template = [0u8; 64];
        template[..16].copy_from_slice(&key.to_be_bytes());
        template[32] = 0x80;
        // Message length is fixed: 32 bytes = 256 bits.
        template[56..64].copy_from_slice(&256u64.to_be_bytes());
        Sha1Prf { template }
    }

    /// Evaluate the PRF, returning the first 128 bits of the digest.
    #[inline]
    pub fn eval_block(&self, x: u128) -> u128 {
        let mut block = self.template;
        block[16..32].copy_from_slice(&x.to_be_bytes());
        let mut state = H0;
        compress(&mut state, &block);
        ((state[0] as u128) << 96)
            | ((state[1] as u128) << 64)
            | ((state[2] as u128) << 32)
            | (state[3] as u128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc3174_abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn rfc3174_longer() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn empty_message() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(hex(&sha1(&msg)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn boundary_padding_lengths() {
        // Lengths 55, 56, 63, 64, 65 exercise both padding branches.
        for len in [55usize, 56, 63, 64, 65, 119, 120] {
            let msg = vec![0xabu8; len];
            // Compare against a naive two-pass reference: hashing must not
            // panic and must be length-sensitive.
            let d1 = sha1(&msg);
            let mut msg2 = msg.clone();
            msg2.push(0);
            assert_ne!(d1, sha1(&msg2), "len {len}");
        }
    }

    #[test]
    fn prf_matches_direct_hash() {
        let key = 0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978_u128;
        let prf = Sha1Prf::new(key);
        for x in [0u128, 1, 42, u128::MAX, 1 << 77] {
            let mut msg = Vec::new();
            msg.extend_from_slice(&key.to_be_bytes());
            msg.extend_from_slice(&x.to_be_bytes());
            let d = sha1(&msg);
            let expect = u128::from_be_bytes(d[..16].try_into().unwrap());
            assert_eq!(prf.eval_block(x), expect);
        }
    }

    #[test]
    fn prf_key_and_input_sensitivity() {
        let p1 = Sha1Prf::new(1);
        let p2 = Sha1Prf::new(2);
        assert_ne!(p1.eval_block(7), p2.eval_block(7));
        assert_ne!(p1.eval_block(7), p1.eval_block(8));
    }
}

//! # hear-prf — pseudorandom functions for HEAR
//!
//! HEAR derives all encryption noise from a cryptographically secure PRF
//! `F : {0,1}^n × {0,1}^m → Z_d` (paper §5, "Key Generation"). This crate
//! provides that substrate:
//!
//! * [`aes::Aes128`] — portable software AES-128 (FIPS-197, T-tables),
//! * [`aesni::AesNi128`] — hardware AES-NI path with an 8-block pipeline
//!   (the `AES-NI + SSE2` backend of paper §6), two blocks per instruction
//!   where the CPU has VAES,
//! * [`sha1::Sha1Prf`] — the SHA-1 backend the paper measured and rejected,
//! * [`PrfCipher`] — a backend-erased PRF with runtime CPU detection,
//! * counter-mode keystream helpers ([`keystream_u32`], [`keystream_u64`],
//!   [`word_u32`], [`word_u64`]) used by every scheme's hot path.
//!
//! ## Keystream convention
//!
//! Element `j` of an Allreduce vector is masked with noise
//! `F_ke(ks + kc + j)`. The bulk helpers realise this as AES-CTR: for a
//! 32-bit datatype, block `⌊j/4⌋` of the stream `F_ke(base + ⌊j/4⌋)` is
//! split into four words and word `j mod 4` masks element `j`. Encryption,
//! aggregation-cancelling and decryption all use the same convention, so the
//! telescoping in Eq. (1)–(3) holds bit-exactly.

pub mod aes;
#[cfg(target_arch = "x86_64")]
pub mod aesni;
pub mod kernels;
pub mod par;
pub mod sha1;
#[cfg(target_arch = "x86_64")]
pub mod shani;

#[doc(hidden)]
pub use kernels::masked_metric;
pub use kernels::{
    add_blocks_into, add_keystream_into, sub_blocks_into, sub_keystream_into, xor_blocks_into,
    xor_keystream_into, KernelWord, Stream,
};
pub use par::{
    configured_threads, for_each_shard, par_add_keystream_into, par_fused_pass,
    par_sub_keystream_into, par_xor_keystream_into, with_pool, BgTask, Payload, WorkerPool,
    PAR_MIN_BYTES, SHARD_BYTES,
};

/// A keyed pseudorandom function producing 128-bit blocks.
///
/// All HEAR noise derivations go through this trait; the scheme code never
/// names a concrete cipher.
pub trait Prf: Send + Sync {
    /// Evaluate the PRF at input `x`.
    fn eval_block(&self, x: u128) -> u128;

    /// Fill `out[i] = eval_block(base + i)`. Backends may override this with
    /// a pipelined implementation.
    fn fill_blocks(&self, base: u128, out: &mut [u128]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.eval_block(base.wrapping_add(i as u128));
        }
    }
}

/// Which PRF implementation backs a [`PrfCipher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable table-driven AES-128.
    AesSoft,
    /// Hardware AES-NI (requires x86-64 with the `aes` feature).
    AesNi,
    /// SHA-1 compression-function PRF (the slow baseline of Fig. 4–5).
    Sha1,
    /// SHA-1 with hardware SHA-NI rounds (a counterfactual the paper's
    /// Broadwell testbed could not measure; still loses to AES-NI).
    Sha1Ni,
}

impl Backend {
    /// The fastest backend available on this machine: AES-NI when the CPU
    /// supports it, software AES otherwise.
    pub fn best_available() -> Backend {
        #[cfg(target_arch = "x86_64")]
        if aesni::available() {
            return Backend::AesNi;
        }
        Backend::AesSoft
    }

    /// True when this backend can be constructed on the current CPU.
    pub fn is_available(self) -> bool {
        match self {
            Backend::AesSoft | Backend::Sha1 => true,
            Backend::AesNi => {
                #[cfg(target_arch = "x86_64")]
                {
                    aesni::available()
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            Backend::Sha1Ni => {
                #[cfg(target_arch = "x86_64")]
                {
                    shani::available()
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }
}

#[derive(Clone)]
enum PrfImpl {
    Soft(aes::Aes128),
    #[cfg(target_arch = "x86_64")]
    Ni(aesni::AesNi128),
    Sha1(sha1::Sha1Prf),
    #[cfg(target_arch = "x86_64")]
    Sha1Ni(shani::Sha1NiPrf),
}

/// A backend-erased keyed PRF.
///
/// ```
/// use hear_prf::{Backend, PrfCipher, Prf};
/// let prf = PrfCipher::best(0x0123_4567_89ab_cdef);
/// let a = prf.eval_block(1);
/// let b = PrfCipher::new(Backend::AesSoft, 0x0123_4567_89ab_cdef).unwrap().eval_block(1);
/// assert_eq!(a, b); // all AES backends compute the same function
/// ```
#[derive(Clone)]
pub struct PrfCipher {
    backend: Backend,
    inner: PrfImpl,
}

impl PrfCipher {
    /// Construct the requested backend, or `None` if the CPU lacks it.
    pub fn new(backend: Backend, key: u128) -> Option<Self> {
        let inner = match backend {
            Backend::AesSoft => PrfImpl::Soft(aes::Aes128::new(key)),
            Backend::Sha1 => PrfImpl::Sha1(sha1::Sha1Prf::new(key)),
            Backend::AesNi => {
                #[cfg(target_arch = "x86_64")]
                {
                    PrfImpl::Ni(aesni::AesNi128::new(key)?)
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    return None;
                }
            }
            Backend::Sha1Ni => {
                #[cfg(target_arch = "x86_64")]
                {
                    PrfImpl::Sha1Ni(shani::Sha1NiPrf::new(key)?)
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    return None;
                }
            }
        };
        Some(PrfCipher { backend, inner })
    }

    /// [`Backend::AesNi`] pinned to its 128-bit bulk tile even where VAES
    /// would widen it (see [`aesni::AesNi128::new_narrow`]). For tests and
    /// the throughput bench only; deliberately not a [`Backend`].
    #[doc(hidden)]
    pub fn aesni_narrow(key: u128) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        {
            Some(PrfCipher {
                backend: Backend::AesNi,
                inner: PrfImpl::Ni(aesni::AesNi128::new_narrow(key)?),
            })
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = key;
            None
        }
    }

    /// True when this cipher's bulk AES tile runs on VAES (two blocks per
    /// instruction) rather than 128-bit AES-NI.
    pub fn has_wide_tile(&self) -> bool {
        #[cfg(target_arch = "x86_64")]
        if let PrfImpl::Ni(a) = &self.inner {
            return a.is_wide();
        }
        false
    }

    /// Construct the fastest available backend.
    pub fn best(key: u128) -> Self {
        Self::new(Backend::best_available(), key).expect("best_available is always constructible")
    }

    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Backend dispatch without the telemetry counter — the counted entry
    /// points below account for blocks exactly once, whether they come in
    /// one at a time or through the bulk fill.
    #[inline]
    fn eval_uncounted(&self, x: u128) -> u128 {
        match &self.inner {
            PrfImpl::Soft(a) => a.encrypt_block(x),
            #[cfg(target_arch = "x86_64")]
            PrfImpl::Ni(a) => a.encrypt_block(x),
            PrfImpl::Sha1(s) => s.eval_block(x),
            #[cfg(target_arch = "x86_64")]
            PrfImpl::Sha1Ni(s) => s.eval_block(x),
        }
    }

    /// Direct handle to the AES-NI engine when this cipher is backed by
    /// it — lets the fused kernels take the register-resident tile path.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    pub(crate) fn aesni(&self) -> Option<&aesni::AesNi128> {
        match &self.inner {
            PrfImpl::Ni(a) => Some(a),
            _ => None,
        }
    }

    /// Statically dispatched bulk fill shared by the counted [`Prf`]
    /// entry point and the uncounted prefetch-worker entry point.
    fn fill_blocks_impl(&self, base: u128, out: &mut [u128]) {
        match &self.inner {
            #[cfg(target_arch = "x86_64")]
            PrfImpl::Ni(a) => {
                let mut i = 0u128;
                let mut chunks = out.chunks_exact_mut(8);
                for c in &mut chunks {
                    c.copy_from_slice(&a.encrypt_ctr8(base.wrapping_add(i)));
                    i += 8;
                }
                let rem = chunks.into_remainder();
                if rem.len() >= 4 {
                    let (four, rest) = rem.split_at_mut(4);
                    four.copy_from_slice(&a.encrypt4([
                        base.wrapping_add(i),
                        base.wrapping_add(i + 1),
                        base.wrapping_add(i + 2),
                        base.wrapping_add(i + 3),
                    ]));
                    i += 4;
                    for o in rest {
                        *o = a.encrypt_block(base.wrapping_add(i));
                        i += 1;
                    }
                } else {
                    for o in rem {
                        *o = a.encrypt_block(base.wrapping_add(i));
                        i += 1;
                    }
                }
            }
            _ => {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = self.eval_uncounted(base.wrapping_add(i as u128));
                }
            }
        }
    }

    /// PRF evaluation with no telemetry attribution. For the keystream
    /// prefetch worker only: the worker thread must record nothing (it
    /// has no rank lane), and the consuming rank accounts for the blocks
    /// when it takes the cache hit.
    #[doc(hidden)]
    #[inline]
    pub fn eval_block_uncounted(&self, x: u128) -> u128 {
        self.eval_uncounted(x)
    }

    /// Bulk fill with no telemetry attribution; see
    /// [`PrfCipher::eval_block_uncounted`].
    #[doc(hidden)]
    pub fn fill_blocks_uncounted(&self, base: u128, out: &mut [u128]) {
        self.fill_blocks_impl(base, out);
    }
}

/// Telemetry counter for blocks evaluated by `backend`.
/// Per-backend PRF block counter (family `hear_prf_blocks_total`). Public
/// (but hidden) so prefetch consumers can attribute cache-served blocks to
/// the backend that generated them, keeping counter totals identical to
/// the inline path.
#[doc(hidden)]
pub fn blocks_metric(backend: Backend) -> hear_telemetry::Metric {
    match backend {
        Backend::AesSoft => hear_telemetry::Metric::PrfBlocksAesSoft,
        Backend::AesNi => hear_telemetry::Metric::PrfBlocksAesNi,
        Backend::Sha1 => hear_telemetry::Metric::PrfBlocksSha1,
        Backend::Sha1Ni => hear_telemetry::Metric::PrfBlocksSha1Ni,
    }
}

impl Prf for PrfCipher {
    #[inline]
    fn eval_block(&self, x: u128) -> u128 {
        hear_telemetry::add(blocks_metric(self.backend), 1);
        self.eval_uncounted(x)
    }

    fn fill_blocks(&self, base: u128, out: &mut [u128]) {
        hear_telemetry::add(blocks_metric(self.backend), out.len() as u64);
        self.fill_blocks_impl(base, out);
    }
}

/// Split a 128-bit PRF block into four 32-bit noise words (big-endian order:
/// word 0 is the most significant).
#[inline]
pub fn block_words_u32(block: u128) -> [u32; 4] {
    [
        (block >> 96) as u32,
        (block >> 64) as u32,
        (block >> 32) as u32,
        block as u32,
    ]
}

/// Split a 128-bit PRF block into two 64-bit noise words.
#[inline]
pub fn block_words_u64(block: u128) -> [u64; 2] {
    [(block >> 64) as u64, block as u64]
}

/// Noise word for a single 32-bit element `j` of the stream rooted at `base`.
#[inline]
pub fn word_u32<P: Prf + ?Sized>(prf: &P, base: u128, j: u64) -> u32 {
    let block = prf.eval_block(base.wrapping_add((j / 4) as u128));
    block_words_u32(block)[(j % 4) as usize]
}

/// Noise word for a single 64-bit element `j` of the stream rooted at `base`.
#[inline]
pub fn word_u64<P: Prf + ?Sized>(prf: &P, base: u128, j: u64) -> u64 {
    let block = prf.eval_block(base.wrapping_add((j / 2) as u128));
    block_words_u64(block)[(j % 2) as usize]
}

/// Fill `out` with the 32-bit keystream rooted at `base`, starting at element
/// index `first`. `out[i]` equals `word_u32(prf, base, first + i)`.
pub fn keystream_u32<P: Prf + ?Sized>(prf: &P, base: u128, first: u64, out: &mut [u32]) {
    if out.is_empty() {
        return;
    }
    hear_telemetry::add(
        hear_telemetry::Metric::KeystreamBytes,
        std::mem::size_of_val(out) as u64,
    );
    let mut idx = 0usize;
    let mut j = first;
    // Leading partial block.
    while !j.is_multiple_of(4) && idx < out.len() {
        out[idx] = word_u32(prf, base, j);
        idx += 1;
        j += 1;
    }
    // Bulk: whole blocks via fill_blocks in bounded stack batches.
    const BATCH: usize = 256;
    let mut blocks = [0u128; BATCH];
    while out.len() - idx >= 4 {
        let remaining_blocks = (out.len() - idx) / 4;
        let n = remaining_blocks.min(BATCH);
        prf.fill_blocks(base.wrapping_add((j / 4) as u128), &mut blocks[..n]);
        for b in &blocks[..n] {
            let words = block_words_u32(*b);
            out[idx..idx + 4].copy_from_slice(&words);
            idx += 4;
            j += 4;
        }
    }
    // Trailing partial block.
    while idx < out.len() {
        out[idx] = word_u32(prf, base, j);
        idx += 1;
        j += 1;
    }
}

/// Fill `out` with the 64-bit keystream rooted at `base`, starting at element
/// index `first`. `out[i]` equals `word_u64(prf, base, first + i)`.
pub fn keystream_u64<P: Prf + ?Sized>(prf: &P, base: u128, first: u64, out: &mut [u64]) {
    if out.is_empty() {
        return;
    }
    hear_telemetry::add(
        hear_telemetry::Metric::KeystreamBytes,
        std::mem::size_of_val(out) as u64,
    );
    let mut idx = 0usize;
    let mut j = first;
    while !j.is_multiple_of(2) && idx < out.len() {
        out[idx] = word_u64(prf, base, j);
        idx += 1;
        j += 1;
    }
    const BATCH: usize = 256;
    let mut blocks = [0u128; BATCH];
    while out.len() - idx >= 2 {
        let remaining_blocks = (out.len() - idx) / 2;
        let n = remaining_blocks.min(BATCH);
        prf.fill_blocks(base.wrapping_add((j / 2) as u128), &mut blocks[..n]);
        for b in &blocks[..n] {
            let words = block_words_u64(*b);
            out[idx..idx + 2].copy_from_slice(&words);
            idx += 2;
            j += 2;
        }
    }
    while idx < out.len() {
        out[idx] = word_u64(prf, base, j);
        idx += 1;
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backends() -> Vec<PrfCipher> {
        let key = 0xfeed_face_cafe_beef_0123_4567_89ab_cdef_u128;
        let mut v = vec![
            PrfCipher::new(Backend::AesSoft, key).unwrap(),
            PrfCipher::new(Backend::Sha1, key).unwrap(),
        ];
        if let Some(ni) = PrfCipher::new(Backend::AesNi, key) {
            v.push(ni);
        }
        v
    }

    #[test]
    fn aesni_and_soft_agree() {
        let key = 7u128;
        let soft = PrfCipher::new(Backend::AesSoft, key).unwrap();
        if let Some(ni) = PrfCipher::new(Backend::AesNi, key) {
            for x in 0..512u128 {
                assert_eq!(soft.eval_block(x), ni.eval_block(x));
            }
        }
    }

    #[test]
    fn fill_blocks_matches_eval() {
        for prf in backends() {
            let mut out = [0u128; 19];
            prf.fill_blocks(1000, &mut out);
            for (i, o) in out.iter().enumerate() {
                assert_eq!(*o, prf.eval_block(1000 + i as u128), "{:?}", prf.backend());
            }
        }
    }

    #[test]
    fn keystream_u32_matches_words_at_offsets() {
        for prf in backends() {
            for first in [0u64, 1, 2, 3, 4, 5, 7] {
                let mut out = vec![0u32; 41];
                keystream_u32(&prf, 99, first, &mut out);
                for (i, o) in out.iter().enumerate() {
                    assert_eq!(*o, word_u32(&prf, 99, first + i as u64));
                }
            }
        }
    }

    #[test]
    fn keystream_u64_matches_words_at_offsets() {
        for prf in backends() {
            for first in [0u64, 1, 2, 3] {
                let mut out = vec![0u64; 23];
                keystream_u64(&prf, 7, first, &mut out);
                for (i, o) in out.iter().enumerate() {
                    assert_eq!(*o, word_u64(&prf, 7, first + i as u64));
                }
            }
        }
    }

    #[test]
    fn keystream_empty_and_tiny() {
        let prf = PrfCipher::best(1);
        let mut empty: [u32; 0] = [];
        keystream_u32(&prf, 0, 0, &mut empty);
        let mut one = [0u32; 1];
        keystream_u32(&prf, 0, 3, &mut one);
        assert_eq!(one[0], word_u32(&prf, 0, 3));
    }

    #[test]
    fn counter_wraps_at_u128_max() {
        let prf = PrfCipher::best(1);
        let mut out = [0u128; 4];
        prf.fill_blocks(u128::MAX - 1, &mut out);
        assert_eq!(out[0], prf.eval_block(u128::MAX - 1));
        assert_eq!(out[2], prf.eval_block(0));
    }

    #[test]
    fn best_available_constructs() {
        assert!(Backend::best_available().is_available());
        let _ = PrfCipher::best(0);
    }

    #[test]
    fn telemetry_counts_blocks_and_bytes_exactly() {
        use hear_telemetry::{Metric, Registry};
        let reg = Registry::new_enabled();
        let prf = PrfCipher::new(Backend::AesSoft, 0xD1).unwrap();
        {
            let _ctx = reg.install(None);
            let _ = prf.eval_block(1);
            let mut blocks = [0u128; 7];
            prf.fill_blocks(0, &mut blocks); // 7 blocks, counted once (no double count)
            let mut ks = [0u32; 10];
            keystream_u32(&prf, 0, 0, &mut ks); // 40 bytes
        }
        assert_eq!(reg.counter(Metric::KeystreamBytes), 40);
        // 1 (eval) + 7 (fill) + blocks evaluated by the keystream: 2 via
        // the bulk fill_blocks plus one eval_block per trailing word (2).
        assert_eq!(reg.counter(Metric::PrfBlocksAesSoft), 1 + 7 + 2 + 2);
        assert_eq!(reg.counter(Metric::PrfBlocksSha1), 0);
    }

    #[test]
    fn backends_differ_from_each_other() {
        // SHA-1 PRF and AES PRF must not coincide (sanity that the enum
        // dispatch is wired correctly).
        let key = 5u128;
        let aes = PrfCipher::new(Backend::AesSoft, key).unwrap();
        let sha = PrfCipher::new(Backend::Sha1, key).unwrap();
        assert_ne!(aes.eval_block(1), sha.eval_block(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn keystream_u32_equals_per_word(base in any::<u64>(), first in 0u64..64, len in 0usize..200) {
            let prf = PrfCipher::new(Backend::AesSoft, 0xabcd).unwrap();
            let mut out = vec![0u32; len];
            keystream_u32(&prf, base as u128, first, &mut out);
            for (i, o) in out.iter().enumerate() {
                prop_assert_eq!(*o, word_u32(&prf, base as u128, first + i as u64));
            }
        }

        #[test]
        fn keystream_u64_equals_per_word(base in any::<u64>(), first in 0u64..64, len in 0usize..200) {
            let prf = PrfCipher::new(Backend::AesSoft, 0xabcd).unwrap();
            let mut out = vec![0u64; len];
            keystream_u64(&prf, base as u128, first, &mut out);
            for (i, o) in out.iter().enumerate() {
                prop_assert_eq!(*o, word_u64(&prf, base as u128, first + i as u64));
            }
        }

        #[test]
        fn prf_is_deterministic(key in any::<u128>(), x in any::<u128>()) {
            let p1 = PrfCipher::new(Backend::AesSoft, key).unwrap();
            let p2 = PrfCipher::new(Backend::AesSoft, key).unwrap();
            prop_assert_eq!(p1.eval_block(x), p2.eval_block(x));
        }
    }
}

/// Split a 128-bit PRF block into eight 16-bit noise words (big-endian
/// order, matching the u32/u64 splitters).
#[inline]
pub fn block_words_u16(block: u128) -> [u16; 8] {
    let mut out = [0u16; 8];
    for (i, o) in out.iter_mut().enumerate() {
        *o = (block >> (112 - 16 * i)) as u16;
    }
    out
}

/// Split a 128-bit PRF block into sixteen byte-sized noise words.
#[inline]
pub fn block_words_u8(block: u128) -> [u8; 16] {
    block.to_be_bytes()
}

/// Noise word for a single 16-bit element `j` of the stream rooted at `base`.
#[inline]
pub fn word_u16<P: Prf + ?Sized>(prf: &P, base: u128, j: u64) -> u16 {
    let block = prf.eval_block(base.wrapping_add((j / 8) as u128));
    block_words_u16(block)[(j % 8) as usize]
}

/// Noise word for a single byte element `j` of the stream rooted at `base`.
#[inline]
pub fn word_u8<P: Prf + ?Sized>(prf: &P, base: u128, j: u64) -> u8 {
    let block = prf.eval_block(base.wrapping_add((j / 16) as u128));
    block_words_u8(block)[(j % 16) as usize]
}

/// Fill `out` with the 16-bit keystream rooted at `base`, starting at
/// element index `first`.
pub fn keystream_u16<P: Prf + ?Sized>(prf: &P, base: u128, first: u64, out: &mut [u16]) {
    hear_telemetry::add(
        hear_telemetry::Metric::KeystreamBytes,
        std::mem::size_of_val(out) as u64,
    );
    fill_keystream(prf, base, first, out, 8, |block, k| {
        block_words_u16(block)[k]
    });
}

/// Fill `out` with the byte keystream rooted at `base`, starting at
/// element index `first`.
pub fn keystream_u8<P: Prf + ?Sized>(prf: &P, base: u128, first: u64, out: &mut [u8]) {
    hear_telemetry::add(hear_telemetry::Metric::KeystreamBytes, out.len() as u64);
    fill_keystream(prf, base, first, out, 16, |block, k| {
        block_words_u8(block)[k]
    });
}

/// Generic CTR fill: `out[i] = extract(eval_block(base + (first+i)/per), (first+i)%per)`.
fn fill_keystream<W: Copy + Default, P: Prf + ?Sized>(
    prf: &P,
    base: u128,
    first: u64,
    out: &mut [W],
    per: u64,
    extract: impl Fn(u128, usize) -> W,
) {
    if out.is_empty() {
        return;
    }
    let mut idx = 0usize;
    let mut j = first;
    // Leading partial block.
    while !j.is_multiple_of(per) && idx < out.len() {
        out[idx] = extract(
            prf.eval_block(base.wrapping_add((j / per) as u128)),
            (j % per) as usize,
        );
        idx += 1;
        j += 1;
    }
    const BATCH: usize = 256;
    let mut blocks = [0u128; BATCH];
    while (out.len() - idx) as u64 >= per {
        let remaining_blocks = ((out.len() - idx) as u64 / per) as usize;
        let n = remaining_blocks.min(BATCH);
        prf.fill_blocks(base.wrapping_add((j / per) as u128), &mut blocks[..n]);
        for b in &blocks[..n] {
            for k in 0..per as usize {
                out[idx] = extract(*b, k);
                idx += 1;
            }
            j += per;
        }
    }
    while idx < out.len() {
        out[idx] = extract(
            prf.eval_block(base.wrapping_add((j / per) as u128)),
            (j % per) as usize,
        );
        idx += 1;
        j += 1;
    }
}

#[cfg(test)]
mod narrow_lane_tests {
    use super::*;

    #[test]
    fn keystream_u16_matches_words() {
        let prf = PrfCipher::new(Backend::AesSoft, 0xAA).unwrap();
        for first in [0u64, 1, 5, 7, 8, 13] {
            let mut out = vec![0u16; 37];
            keystream_u16(&prf, 3, first, &mut out);
            for (i, o) in out.iter().enumerate() {
                assert_eq!(
                    *o,
                    word_u16(&prf, 3, first + i as u64),
                    "first={first} i={i}"
                );
            }
        }
    }

    #[test]
    fn keystream_u8_matches_words() {
        let prf = PrfCipher::new(Backend::AesSoft, 0xBB).unwrap();
        for first in [0u64, 1, 15, 16, 17] {
            let mut out = vec![0u8; 53];
            keystream_u8(&prf, 9, first, &mut out);
            for (i, o) in out.iter().enumerate() {
                assert_eq!(*o, word_u8(&prf, 9, first + i as u64));
            }
        }
    }

    #[test]
    fn narrow_words_are_consistent_slices_of_the_block() {
        let prf = PrfCipher::new(Backend::AesSoft, 0xCC).unwrap();
        let block = prf.eval_block(0);
        assert_eq!(word_u8(&prf, 0, 0), (block >> 120) as u8);
        assert_eq!(word_u16(&prf, 0, 7), block as u16);
        assert_eq!(block_words_u16(block)[0], (block >> 112) as u16);
    }
}

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
//! * the pad passes ([`kernels`], [`par`]) over [`Stream`]s: the one
//!   generator of bulk PRF output — keystream words folded into integer
//!   payloads, or whole blocks for the float ciphers and HoMAC — on one
//!   sharded driver, on every scheme's hot path.
//!
//! ## Keystream convention
//!
//! Element `j` of an Allreduce vector is masked with noise
//! `F_ke(ks + kc + j)`. The kernels realise this as AES-CTR: for a
//! 32-bit datatype, block `⌊j/4⌋` of the stream `F_ke(base + ⌊j/4⌋)` is
//! split into four words and word `j mod 4` masks element `j`. Encryption,
//! aggregation-cancelling and decryption all use the same convention, so the
//! telescoping in Eq. (1)–(3) holds bit-exactly.

#![deny(clippy::undocumented_unsafe_blocks)]
#![deny(unreachable_pub)]

pub mod aes;
#[cfg(target_arch = "x86_64")]
pub mod aesni;
pub mod kernels;
pub mod par;
pub mod sha1;
#[cfg(target_arch = "x86_64")]
pub mod shani;

pub use kernels::{
    add_keystream_into, as_unsigned_i32, as_unsigned_i64, keystream, sub_keystream_into,
    xor_keystream_into, BlockArray, KernelWord, Stream,
};
pub use par::{
    configured_threads, par_add_keystream_into, par_block_pass, par_fused_pass, pool_scoped,
    with_pool, Append, Payload, Slots, Source, WorkerPool, PAR_MIN_BYTES,
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

    /// PRF evaluation with no telemetry attribution: the counted entry
    /// points account for blocks exactly once, and a caller that must not
    /// count them at all (a peek at the next key epoch) calls this.
    #[doc(hidden)]
    #[inline]
    pub fn eval_block_uncounted(&self, x: u128) -> u128 {
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

    /// Statically dispatched bulk fill behind the counted [`Prf`] entry
    /// point and, uncounted, the pad passes' [`Stream`]s.
    #[inline]
    pub(crate) fn fill_blocks_impl(&self, base: u128, out: &mut [u128]) {
        match &self.inner {
            #[cfg(target_arch = "x86_64")]
            PrfImpl::Ni(a) => {
                let done = out.len() / 8 * 8;
                let mut chunks = out.chunks_exact_mut(8);
                for (k, c) in (&mut chunks).enumerate() {
                    c.copy_from_slice(&a.encrypt_ctr8(base.wrapping_add(8 * k as u128)));
                }
                for (i, o) in chunks.into_remainder().iter_mut().enumerate() {
                    *o = a.encrypt_block(base.wrapping_add((done + i) as u128));
                }
            }
            _ => {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = self.eval_block_uncounted(base.wrapping_add(i as u128));
                }
            }
        }
    }
}

/// Per-backend PRF block counter (family `hear_prf_blocks_total`).
pub(crate) fn blocks_metric(backend: Backend) -> hear_telemetry::Metric {
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
        self.eval_block_uncounted(x)
    }

    fn fill_blocks(&self, base: u128, out: &mut [u128]) {
        hear_telemetry::add(blocks_metric(self.backend), out.len() as u64);
        self.fill_blocks_impl(base, out);
    }
}

/// [`keystream`] of 64-bit words, under the name the standalone `bench/`
/// harness calls.
pub fn keystream_u64(prf: &PrfCipher, base: u128, first: u64, out: &mut [u64]) {
    keystream(prf, base, first, out);
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

    /// The kernel fill of `len` words at `first` against the scalar
    /// definition of word `j`: word `j mod PER` of block `F(base + ⌊j /
    /// PER⌋)`, one block evaluated per word.
    pub(super) fn check_keystream<W: KernelWord>(
        prf: &PrfCipher,
        base: u128,
        first: u64,
        len: usize,
    ) {
        let per = W::PER_BLOCK as u64;
        let mut out = vec![W::extract(0, 0); len];
        keystream(prf, base, first, &mut out);
        for (i, o) in out.iter().enumerate() {
            let j = first + i as u64;
            let block = prf.eval_block(base.wrapping_add((j / per) as u128));
            let want = W::extract(block, (j % per) as usize);
            let backend = prf.backend();
            assert_eq!(*o, want, "{backend:?} per={per} first={first} i={i}");
        }
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
                check_keystream::<u32>(&prf, 99, first, 41);
            }
        }
    }

    #[test]
    fn keystream_u64_matches_words_at_offsets() {
        for prf in backends() {
            for first in [0u64, 1, 2, 3] {
                check_keystream::<u64>(&prf, 7, first, 23);
            }
        }
    }

    #[test]
    fn keystream_empty_and_tiny() {
        let prf = PrfCipher::best(1);
        check_keystream::<u32>(&prf, 0, 0, 0);
        check_keystream::<u32>(&prf, 0, 3, 1);
        check_keystream::<u8>(&prf, 0, 15, 1);
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
            keystream(&prf, 0, 0, &mut ks); // 40 bytes
        }
        assert_eq!(reg.counter(Metric::KeystreamBytes), 40);
        // 1 (eval) + 7 (fill) + the keystream's block span: 10 words of 4
        // per block touch 3 blocks, the partial third counted once.
        assert_eq!(reg.counter(Metric::PrfBlocksAesSoft), 1 + 7 + 3);
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
    use super::tests::check_keystream;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The kernel fill equals the scalar word at every phase `first
        /// mod PER` of every width, for ragged lengths (up to past one
        /// eight-block tile of bytes), on software AES and the best
        /// backend.
        #[test]
        fn keystream_equals_the_scalar_word(
            key in any::<u128>(),
            base in any::<u128>(),
            block in 0u64..1 << 40,
            len in 0usize..300,
        ) {
            fn width<W: KernelWord>(prf: &PrfCipher, base: u128, block: u64, len: usize) {
                let per = W::PER_BLOCK as u64;
                for k in 0..per {
                    check_keystream::<W>(prf, base, block * per + k, len);
                }
            }
            for prf in [PrfCipher::new(Backend::AesSoft, key).unwrap(), PrfCipher::best(key)] {
                width::<u8>(&prf, base, block, len);
                width::<u16>(&prf, base, block, len);
                width::<u32>(&prf, base, block, len);
                width::<u64>(&prf, base, block, len);
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

#[cfg(test)]
mod narrow_lane_tests {
    use super::tests::check_keystream;
    use super::*;

    #[test]
    fn keystream_u16_matches_words() {
        let prf = PrfCipher::new(Backend::AesSoft, 0xAA).unwrap();
        for first in [0u64, 1, 5, 7, 8, 13] {
            check_keystream::<u16>(&prf, 3, first, 37);
        }
    }

    #[test]
    fn keystream_u8_matches_words() {
        let prf = PrfCipher::new(Backend::AesSoft, 0xBB).unwrap();
        for first in [0u64, 1, 15, 16, 17] {
            check_keystream::<u8>(&prf, 9, first, 53);
        }
    }

    /// `KernelWord::extract` splits a block big-endian: word 0 is its most
    /// significant bits, at every width.
    #[test]
    fn narrow_words_are_consistent_slices_of_the_block() {
        let block = u128::from_be_bytes(std::array::from_fn(|i| i as u8));
        let bytes: [u8; 16] = std::array::from_fn(|k| u8::extract(block, k));
        assert_eq!(bytes, block.to_be_bytes());
        assert_eq!([0, 7].map(|k| u16::extract(block, k)), [0x0001, 0x0e0f]);
        assert_eq!(
            [0, 3].map(|k| u32::extract(block, k)),
            [0x0001_0203, 0x0c0d_0e0f]
        );
        let halves = [0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f];
        assert_eq!([0, 1].map(|k| u64::extract(block, k)), halves);
    }
}

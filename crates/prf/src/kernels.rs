//! Fused mask/unmask kernels: keystream generation and word-wise combine
//! in one pass over memory.
//!
//! The split path the schemes used before this module — `keystream_*` into a
//! scratch vector, then a second loop combining scratch with the payload —
//! touches every payload byte twice and every keystream byte three times
//! (write, read, discard). The fused kernel here generates each 128-bit PRF
//! block, splits it into words, and immediately folds the words into the
//! payload, so the keystream never exists in memory. On AES-NI the blocks
//! additionally stay in SSE registers through an 8-wide pipeline
//! ([`crate::aesni::AesNi128::keystream_tile8`]) and only the swizzled
//! native-endian words are stored, once, to a stack tile.
//!
//! There is one kernel body ([`pass_uncounted`]): `dst[i] ← f(src[i],
//! A[first + i] (, B[first + i]))` over one or two noise [`Stream`]s, out of
//! place or with `dst` as its own source. Folding both streams of the
//! §5.1.4 cancelling construction (`+F(own)`, `−F(next)`) in registers and
//! writing straight into the destination is what makes a mask cost one read
//! and one write per payload byte, whatever the stream count. The parallel,
//! `Vec`-appending and N-stream entry points are in [`crate::par`]; the
//! one-stream in-place wrappers here cover every scheme's combine flavour:
//! [`add_keystream_into`] (encrypt for additive schemes, §5.1.1),
//! [`sub_keystream_into`] (decrypt, and the cancelling `-F_{k_{i+1}}` term of
//! §5.1.4), and [`xor_keystream_into`] (the Z_2 schemes, §5.2.3).
//!
//! A stream's blocks come either from the cipher or from **pregenerated**
//! PRF blocks ([`Stream::Blocks`], the `*_blocks_into` wrappers) — the
//! consumption side of the keystream prefetcher in `hear-layer`, where
//! iteration *i+1*'s blocks were produced by a worker thread during
//! iteration *i*'s communication phase. The source is chosen per stream
//! inside the same pass.
//!
//! ## Keystream convention
//!
//! Identical to [`crate::keystream_u32`] and friends: element `j` of a
//! width-`w` stream is word `j mod per` of block `F(base + j/per)` with
//! `per = 16/w`, words split big-endian (word 0 most significant). The
//! property tests at the bottom pin every fused kernel to the split
//! reference bit-for-bit.

#[cfg(test)]
use crate::Prf;
use crate::{block_words_u16, block_words_u32, block_words_u64, block_words_u8};
use crate::{blocks_metric, Backend, PrfCipher};
use hear_telemetry::Metric;
use std::mem::MaybeUninit;

/// Words the fused kernels can mask: the unsigned machine integers whose
/// width divides the 128-bit PRF block.
///
/// The trait captures exactly what [`pass_uncounted`] needs — block splitting,
/// wrapping ring arithmetic and XOR — so `hear-core`'s `RingWord` can bound
/// on it without this crate knowing about schemes.
///
/// # Safety
///
/// Implementors guarantee `Self` is a plain machine integer: no padding,
/// every bit pattern valid, and `size_of::<Self>()` divides 16. The fused
/// kernels rely on this to reinterpret an aligned keystream tile as a
/// `&[Self]` without copying word by word.
pub unsafe trait KernelWord: Copy + Eq + std::fmt::Debug + Send + Sync + 'static {
    /// Words per 128-bit PRF block (`16 / size_of::<Self>()`).
    const PER_BLOCK: usize;
    /// Word `k` of a PRF block under the big-endian splitting convention.
    fn extract(block: u128, k: usize) -> Self;
    /// Wrapping addition in `Z_{2^w}`.
    fn wrapping_add(self, rhs: Self) -> Self;
    /// Wrapping subtraction in `Z_{2^w}`.
    fn wrapping_sub(self, rhs: Self) -> Self;
    /// Bitwise XOR (the `Z_2^w` group operation).
    fn bxor(self, rhs: Self) -> Self;
    /// Reassemble a word from native-endian bytes (the layout
    /// [`crate::aesni::AesNi128::keystream_tile8`] stores).
    fn from_ne(bytes: &[u8]) -> Self;
}

macro_rules! kernel_word {
    ($t:ty, $splitter:ident) => {
        // SAFETY: unsigned machine integers — no padding, all bit
        // patterns valid, widths 1/2/4/8 divide 16.
        unsafe impl KernelWord for $t {
            const PER_BLOCK: usize = 16 / std::mem::size_of::<$t>();
            #[inline(always)]
            fn extract(block: u128, k: usize) -> $t {
                $splitter(block)[k]
            }
            #[inline(always)]
            fn wrapping_add(self, rhs: $t) -> $t {
                <$t>::wrapping_add(self, rhs)
            }
            #[inline(always)]
            fn wrapping_sub(self, rhs: $t) -> $t {
                <$t>::wrapping_sub(self, rhs)
            }
            #[inline(always)]
            fn bxor(self, rhs: $t) -> $t {
                self ^ rhs
            }
            #[inline(always)]
            fn from_ne(bytes: &[u8]) -> $t {
                <$t>::from_ne_bytes(bytes.try_into().expect("width-sized chunk"))
            }
        }
    };
}

kernel_word!(u8, block_words_u8);
kernel_word!(u16, block_words_u16);
kernel_word!(u32, block_words_u32);
kernel_word!(u64, block_words_u64);

/// Bytes-masked counter for a backend (family `hear_masked_bytes_total`).
/// Public (but hidden) for the same reason as [`crate::blocks_metric`].
#[doc(hidden)]
pub fn masked_metric(backend: Backend) -> Metric {
    match backend {
        Backend::AesSoft => Metric::MaskedBytesAesSoft,
        Backend::AesNi => Metric::MaskedBytesAesNi,
        Backend::Sha1 => Metric::MaskedBytesSha1,
        Backend::Sha1Ni => Metric::MaskedBytesSha1Ni,
    }
}

/// Stack tile for one 8-block keystream group. 16-byte aligned so the
/// SSE stores in [`crate::aesni::AesNi128::keystream_tile8`] and the wide
/// reloads in the combine loop never straddle cache lines.
#[repr(align(16))]
struct Tile([u8; 128]);

impl Tile {
    /// The tile reinterpreted as keystream words. One wide load per word
    /// instead of a byte-array round trip per word — this is what the
    /// `unsafe trait` contract on [`KernelWord`] buys.
    #[inline(always)]
    fn words<W: KernelWord>(&self) -> &[W] {
        // SAFETY: `Tile` is 16-byte aligned and 128 bytes long; by the
        // `KernelWord` contract `W` is a padding-free integer whose size
        // divides 16, so every bit pattern in the tile is a valid `W`.
        unsafe {
            std::slice::from_raw_parts(self.0.as_ptr().cast(), 128 / std::mem::size_of::<W>())
        }
    }

    /// Lay `blocks` (at most eight) out as native-endian keystream words,
    /// the layout [`crate::aesni::AesNi128::keystream_tile8`] stores.
    #[inline(always)]
    fn spread<W: KernelWord>(&mut self, blocks: &[u128]) {
        // SAFETY: as in `words`, and `&mut self` makes the view unique.
        let words: &mut [W] = unsafe {
            std::slice::from_raw_parts_mut(
                self.0.as_mut_ptr().cast(),
                128 / std::mem::size_of::<W>(),
            )
        };
        for (group, block) in words.chunks_exact_mut(W::PER_BLOCK).zip(blocks) {
            for (k, w) in group.iter_mut().enumerate() {
                *w = W::extract(*block, k);
            }
        }
    }
}

/// Where one noise stream of a fused pass takes its PRF blocks from. The
/// choice is per stream, so one pass can serve a prefetch-cache hit on one
/// stream and generate the other inline.
#[derive(Clone, Copy)]
pub enum Stream<'a> {
    /// Block `b` of the stream is `F(base + b)`, generated inside the pass.
    /// The pass attributes its bytes and blocks to telemetry.
    Cipher { prf: &'a PrfCipher, base: u128 },
    /// Block `b` of the stream is `blocks[b − first_block]`, pregenerated
    /// (the prefetch cache-hit path). The caller proved the blocks cover
    /// the pass and accounts the telemetry itself: they were generated
    /// uncounted on a worker thread.
    Blocks {
        blocks: &'a [u128],
        first_block: u64,
    },
}

impl Stream<'_> {
    /// Blocks `b .. b + nblk` (`nblk` ∈ {1, 8}) of this stream as the
    /// leading words of `tile`.
    #[inline(always)]
    fn fill_tile<W: KernelWord>(&self, b: u64, nblk: usize, tile: &mut Tile) {
        match *self {
            Stream::Cipher { prf, base } => {
                let at = base.wrapping_add(b as u128);
                #[cfg(target_arch = "x86_64")]
                if let (8, Some(ni)) = (nblk, prf.aesni()) {
                    ni.keystream_tile8(at, std::mem::size_of::<W>(), &mut tile.0);
                    return;
                }
                let mut blocks = [0u128; 8];
                prf.fill_blocks_uncounted(at, &mut blocks[..nblk]);
                tile.spread::<W>(&blocks[..nblk]);
            }
            Stream::Blocks {
                blocks,
                first_block,
            } => {
                let at = (b - first_block) as usize;
                tile.spread::<W>(&blocks[at..at + nblk]);
            }
        }
    }
}

/// PRF blocks a fused pass over `len` words starting at stream index
/// `first` touches: the block span `⌊last/per⌋ − ⌊first/per⌋ + 1`. This is
/// exactly what the serial pass evaluates (leading partial + whole +
/// trailing partial), so counting it up front lets the parallel path in
/// [`crate::par`] attribute identical telemetry from the submitting thread
/// while the workers run uncounted.
#[inline]
pub(crate) fn fused_blocks<W: KernelWord>(first: u64, len: usize) -> u64 {
    if len == 0 {
        return 0;
    }
    let per = W::PER_BLOCK as u64;
    let last = first + len as u64 - 1;
    last / per - first / per + 1
}

/// Telemetry of one pass over `len` words at `first`, per generated
/// stream, matching the split path exactly: `KeystreamBytes` counts the
/// expanded bytes, the per-backend block counter counts each PRF block
/// once, and `hear_masked_bytes_total` records that the bytes went through
/// a fused kernel. Pregenerated streams are the caller's to count.
pub(crate) fn count_pass<W: KernelWord>(streams: &[Stream<'_>], first: u64, len: usize) {
    if len == 0 {
        return;
    }
    let bytes = (len * std::mem::size_of::<W>()) as u64;
    for stream in streams {
        if let Stream::Cipher { prf, .. } = stream {
            hear_telemetry::add(Metric::KeystreamBytes, bytes);
            hear_telemetry::add(masked_metric(prf.backend()), bytes);
            hear_telemetry::add(blocks_metric(prf.backend()), fused_blocks::<W>(first, len));
        }
    }
}

/// The one kernel body: `dst[i] ← f(src[i], [A[first + i], B[first + i]])`
/// in a single pass, where `A`, `B` are the width-`W` word streams of
/// `streams` and `src = None` means `dst` is its own source (the in-place
/// pass). Each payload word is read once and written once however many
/// streams fold into it; the keystreams never exist in memory beyond one
/// stack tile per stream.
///
/// The pass walks *runs* ([`Pass::fold_run`]): up to the next block boundary when
/// `first` lands mid-block, then eight whole blocks at a time (one tile
/// per stream — on AES-NI straight from registers — and one vectorised
/// combine), then block by block through the tail.
///
/// Records **no telemetry** — the worker half of the parallel kernels.
/// Counting lives with the submitter ([`count_pass`]); worker threads have
/// no registry context and must record nothing lest the counts land in the
/// global registry.
///
/// # Safety
///
/// With `src = None`, every element of `dst` must be initialised.
#[inline]
pub(crate) unsafe fn pass_uncounted<W, const N: usize, F>(
    streams: &[Stream<'_>; N],
    first: u64,
    src: Option<&[W]>,
    dst: &mut [MaybeUninit<W>],
    f: F,
) where
    W: KernelWord,
    F: Fn(W, [W; N]) -> W + Copy,
{
    assert!(src.is_none_or(|s| s.len() == dst.len()));
    let (per, len) = (W::PER_BLOCK, dst.len());
    let mut tiles: [Tile; N] = std::array::from_fn(|_| Tile([0u8; 128]));
    let mut pass = Pass {
        streams,
        tiles: &mut tiles,
        first,
        src,
        dst,
        f,
    };
    let k0 = (first % per as u64) as usize;
    let mut idx = if k0 == 0 { 0 } else { (per - k0).min(len) };
    // SAFETY: the forwarded in-place contract covers every sub-range.
    unsafe {
        if idx > 0 {
            pass.fold_run(0, 1, k0, idx);
        }
        while len - idx >= 8 * per {
            pass.fold_run(idx, 8, 0, 8 * per);
            idx += 8 * per;
        }
        while idx < len {
            let n = per.min(len - idx);
            pass.fold_run(idx, 1, 0, n);
            idx += n;
        }
    }
}

/// The loop-invariant state of one [`pass_uncounted`].
struct Pass<'a, 's, W, const N: usize, F> {
    streams: &'a [Stream<'s>; N],
    tiles: &'a mut [Tile; N],
    first: u64,
    src: Option<&'a [W]>,
    dst: &'a mut [MaybeUninit<W>],
    f: F,
}

impl<W: KernelWord, const N: usize, F: Fn(W, [W; N]) -> W + Copy> Pass<'_, '_, W, N, F> {
    /// Fold `n` words at `idx`, which start `k0` words into a run of
    /// `nblk` ∈ {1, 8} whole PRF blocks: one tile per stream, then one
    /// combine. Inlined into its three call sites so the bulk loop sees
    /// constant `nblk`, `k0` and `n`.
    ///
    /// # Safety
    ///
    /// With `src = None`, `dst[idx..idx + n]` must be initialised.
    #[inline(always)]
    unsafe fn fold_run(&mut self, idx: usize, nblk: usize, k0: usize, n: usize) {
        let block = (self.first + idx as u64) / W::PER_BLOCK as u64;
        for (stream, tile) in self.streams.iter().zip(self.tiles.iter_mut()) {
            stream.fill_tile::<W>(block, nblk, tile);
        }
        // Equal-length slices and an indexed loop: no bounds checks are
        // left inside, so the combine vectorises.
        let noise: [&[W]; N] = std::array::from_fn(|s| &self.tiles[s].words::<W>()[k0..k0 + n]);
        let out = &mut self.dst[idx..idx + n];
        let f = self.f;
        match self.src {
            Some(src) => {
                let src = &src[idx..idx + n];
                for i in 0..n {
                    out[i].write(f(src[i], noise.map(|t| t[i])));
                }
            }
            None => {
                for i in 0..n {
                    // SAFETY: the in-place contract — `dst` is initialised.
                    let x = unsafe { out[i].assume_init() };
                    out[i].write(f(x, noise.map(|t| t[i])));
                }
            }
        }
    }
}

/// An initialised buffer viewed as the destination of an in-place pass.
#[inline]
pub(crate) fn as_uninit<W: KernelWord>(buf: &mut [W]) -> &mut [MaybeUninit<W>] {
    // SAFETY: `MaybeUninit<W>` has `W`'s layout, and the kernels only ever
    // write initialised words through the view.
    unsafe { &mut *(buf as *mut [W] as *mut [MaybeUninit<W>]) }
}

/// One-stream in-place pass from the cipher — the body of the three
/// `*_keystream_into` wrappers.
#[inline]
fn keystream_into<W: KernelWord>(
    prf: &PrfCipher,
    base: u128,
    first: u64,
    buf: &mut [W],
    f: impl Fn(W, [W; 1]) -> W + Copy,
) {
    let streams = [Stream::Cipher { prf, base }];
    count_pass::<W>(&streams, first, buf.len());
    // SAFETY: `buf` is initialised.
    unsafe { pass_uncounted(&streams, first, None, as_uninit(buf), f) }
}

/// `buf[i] ^= stream[first + i]` — fused XOR mask/unmask (Z_2 schemes).
pub fn xor_keystream_into<W: KernelWord>(prf: &PrfCipher, base: u128, first: u64, buf: &mut [W]) {
    keystream_into(prf, base, first, buf, |x, [a]| x.bxor(a));
}

/// `buf[i] += stream[first + i]` (wrapping) — fused additive mask.
pub fn add_keystream_into<W: KernelWord>(prf: &PrfCipher, base: u128, first: u64, buf: &mut [W]) {
    keystream_into(prf, base, first, buf, |x, [a]| x.wrapping_add(a));
}

/// `buf[i] -= stream[first + i]` (wrapping) — fused additive unmask and the
/// cancelling term of the §5.1.4 construction.
pub fn sub_keystream_into<W: KernelWord>(prf: &PrfCipher, base: u128, first: u64, buf: &mut [W]) {
    keystream_into(prf, base, first, buf, |x, [a]| x.wrapping_sub(a));
}

/// The stream of `blocks` whose word `skip` lines up with a buffer's first
/// element — how the `*_blocks_into` wrappers name their source.
#[inline]
fn pregenerated(blocks: &[u128]) -> [Stream<'_>; 1] {
    [Stream::Blocks {
        blocks,
        first_block: 0,
    }]
}

/// One-stream in-place pass from pregenerated PRF blocks: `buf[i] ←
/// f(buf[i], words(blocks)[skip + i])`, where `words(blocks)` is the
/// width-`W` word stream of `blocks`. Uncounted: see [`Stream::Blocks`].
#[inline]
fn blocks_into<W: KernelWord>(
    blocks: &[u128],
    skip: u64,
    buf: &mut [W],
    f: impl Fn(W, [W; 1]) -> W + Copy,
) {
    // SAFETY: `buf` is initialised.
    unsafe { pass_uncounted(&pregenerated(blocks), skip, None, as_uninit(buf), f) }
}

/// XOR-combine from pregenerated blocks (see [`Stream::Blocks`]).
pub fn xor_blocks_into<W: KernelWord>(blocks: &[u128], skip: u64, buf: &mut [W]) {
    blocks_into(blocks, skip, buf, |x, [a]| x.bxor(a));
}

/// Wrapping-add-combine from pregenerated blocks (see [`Stream::Blocks`]).
pub fn add_blocks_into<W: KernelWord>(blocks: &[u128], skip: u64, buf: &mut [W]) {
    blocks_into(blocks, skip, buf, |x, [a]| x.wrapping_add(a));
}

/// Wrapping-sub-combine from pregenerated blocks (see [`Stream::Blocks`]).
pub fn sub_blocks_into<W: KernelWord>(blocks: &[u128], skip: u64, buf: &mut [W]) {
    blocks_into(blocks, skip, buf, |x, [a]| x.wrapping_sub(a));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::{par_fused_pass, Payload, WorkerPool};
    use proptest::prelude::*;
    use proptest::TestRng;

    const KEY: u128 = 0x0011_2233_4455_6677_8899_aabb_ccdd_eeff;

    fn backends() -> Vec<PrfCipher> {
        let mut v = vec![PrfCipher::new(Backend::AesSoft, KEY).unwrap()];
        if Backend::AesNi.is_available() {
            v.push(PrfCipher::new(Backend::AesNi, KEY).unwrap());
            // Where `new` picked the VAES tile, keep the 128-bit one covered.
            v.push(PrfCipher::aesni_narrow(KEY).unwrap());
        }
        if Backend::Sha1Ni.is_available() {
            v.push(PrfCipher::new(Backend::Sha1Ni, KEY).unwrap());
        }
        v.push(PrfCipher::new(Backend::Sha1, KEY).unwrap());
        v
    }

    /// Split reference: fill a keystream with the documented convention,
    /// then combine — what the fused kernels must equal bit-for-bit.
    fn reference<W: KernelWord>(
        prf: &PrfCipher,
        base: u128,
        first: u64,
        buf: &mut [W],
        f: impl Fn(W, W) -> W,
    ) {
        let per = W::PER_BLOCK as u64;
        for (i, x) in buf.iter_mut().enumerate() {
            let j = first + i as u64;
            let block = prf.eval_block(base.wrapping_add((j / per) as u128));
            *x = f(*x, W::extract(block, (j % per) as usize));
        }
    }

    fn check_all_ops<W: KernelWord>(prf: &PrfCipher, base: u128, first: u64, data: &[W]) {
        let mut want = data.to_vec();
        let mut got = data.to_vec();
        reference(prf, base, first, &mut want, |a, b| a.wrapping_add(b));
        add_keystream_into(prf, base, first, &mut got);
        assert_eq!(want, got, "add backend={:?}", prf.backend());

        let mut want = data.to_vec();
        let mut got = data.to_vec();
        reference(prf, base, first, &mut want, |a, b| a.wrapping_sub(b));
        sub_keystream_into(prf, base, first, &mut got);
        assert_eq!(want, got, "sub backend={:?}", prf.backend());

        let mut want = data.to_vec();
        let mut got = data.to_vec();
        reference(prf, base, first, &mut want, |a, b| a.bxor(b));
        xor_keystream_into(prf, base, first, &mut got);
        assert_eq!(want, got, "xor backend={:?}", prf.backend());
    }

    #[test]
    fn add_then_sub_roundtrips() {
        for prf in backends() {
            let data: Vec<u32> = (0..300u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
            let mut buf = data.clone();
            add_keystream_into(&prf, 42, 7, &mut buf);
            assert_ne!(buf, data);
            sub_keystream_into(&prf, 42, 7, &mut buf);
            assert_eq!(buf, data);
        }
    }

    #[test]
    fn xor_is_an_involution() {
        for prf in backends() {
            let data: Vec<u16> = (0..777u32).map(|i| (i * 31) as u16).collect();
            let mut buf = data.clone();
            xor_keystream_into(&prf, 9, 3, &mut buf);
            assert_ne!(buf, data);
            xor_keystream_into(&prf, 9, 3, &mut buf);
            assert_eq!(buf, data);
        }
    }

    #[test]
    fn empty_buffers_are_untouched_and_uncounted() {
        let reg = hear_telemetry::Registry::new_enabled();
        let prf = PrfCipher::new(Backend::AesSoft, KEY).unwrap();
        {
            let _ctx = reg.install(None);
            let mut buf: [u64; 0] = [];
            add_keystream_into(&prf, 1, 1, &mut buf);
            // No words, no blocks needed: an empty block run is enough.
            add_blocks_into(&[], 1, &mut buf);
        }
        assert_eq!(reg.counter(Metric::KeystreamBytes), 0);
        assert_eq!(reg.counter(Metric::MaskedBytesAesSoft), 0);
    }

    #[test]
    fn counts_bytes_and_blocks_like_split_path() {
        let reg = hear_telemetry::Registry::new_enabled();
        let prf = PrfCipher::new(Backend::AesSoft, KEY).unwrap();
        {
            let _ctx = reg.install(None);
            // 100 u32 words starting at word 2: 1 leading partial block,
            // 24 whole blocks, 1 trailing partial block = 26 PRF blocks.
            let mut buf = vec![0u32; 100];
            add_keystream_into(&prf, 5, 2, &mut buf);
        }
        assert_eq!(reg.counter(Metric::KeystreamBytes), 400);
        assert_eq!(reg.counter(Metric::MaskedBytesAesSoft), 400);
        assert_eq!(reg.counter(Metric::PrfBlocksAesSoft), 26);

        // Two streams in one pass count like two one-stream passes, and a
        // pregenerated stream is the caller's to count.
        let two = hear_telemetry::Registry::new_enabled();
        let blocks = [0u128; 26];
        {
            let _ctx = two.install(None);
            let src = vec![0u32; 100];
            let mut out = Vec::new();
            let streams = [
                Stream::Cipher { prf: &prf, base: 5 },
                Stream::Cipher { prf: &prf, base: 9 },
            ];
            let pool = WorkerPool::new(1);
            par_fused_pass(
                &pool,
                &streams,
                2,
                Payload::Extend(&src, &mut out),
                sum_fold,
            );
            let streams = [
                Stream::Cipher { prf: &prf, base: 5 },
                Stream::Blocks {
                    blocks: &blocks,
                    first_block: 0,
                },
            ];
            par_fused_pass(&pool, &streams, 2, Payload::InPlace(&mut out), sum_fold);
        }
        assert_eq!(two.counter(Metric::KeystreamBytes), 3 * 400);
        assert_eq!(two.counter(Metric::MaskedBytesAesSoft), 3 * 400);
        assert_eq!(two.counter(Metric::PrfBlocksAesSoft), 3 * 26);
    }

    /// The §5.1.4 fold: `+A − B`.
    fn sum_fold<W: KernelWord>(x: W, [a, b]: [W; 2]) -> W {
        x.wrapping_add(a).wrapping_sub(b)
    }

    /// A combine flavour: the word operation the N-stream pass folds with
    /// and the one-stream in-place kernel it must equal.
    type Flavour<W> = (fn(W, W) -> W, fn(&PrfCipher, u128, u64, &mut [W]));

    fn flavours<W: KernelWord>() -> [Flavour<W>; 3] {
        [
            (W::wrapping_add, add_keystream_into),
            (W::wrapping_sub, sub_keystream_into),
            (W::bxor, xor_keystream_into),
        ]
    }

    const BASE_A: u128 = 0x1111_0000_0000_0000_0000;
    const BASE_B: u128 = 0x2222_0000_0000_0000_0000;

    /// The N-stream `src → dst` pass (appending and in place, N = 1 and 2)
    /// against "copy, then the in-place kernels one stream at a time" for
    /// the first `nflavours` combine flavours and all their pairs.
    fn check_streams<W: KernelWord>(
        pool: &WorkerPool,
        prf: &PrfCipher,
        first: u64,
        data: &[W],
        nflavours: usize,
    ) {
        let ctx = format!(
            "backend={:?} w={} threads={} first={first} len={}",
            prf.backend(),
            std::mem::size_of::<W>(),
            pool.threads(),
            data.len()
        );
        let a = Stream::Cipher { prf, base: BASE_A };
        let b = Stream::Cipher { prf, base: BASE_B };
        let prefix = [W::extract(7, 0); 3];
        let flavours = &flavours::<W>()[..nflavours];
        for &(fa, kernel_a) in flavours {
            let mut want = data.to_vec();
            kernel_a(prf, BASE_A, first, &mut want);

            let mut got = prefix.to_vec();
            let fold = move |x, [a]: [W; 1]| fa(x, a);
            par_fused_pass(pool, &[a], first, Payload::Extend(data, &mut got), fold);
            assert_eq!(got[..3], prefix, "prefix, one stream, {ctx}");
            assert_eq!(got[3..], want, "one stream, {ctx}");
            let mut got = data.to_vec();
            par_fused_pass(pool, &[a], first, Payload::InPlace(&mut got), fold);
            assert_eq!(got, want, "one stream in place, {ctx}");

            for &(fb, kernel_b) in flavours {
                let mut want = want.clone();
                kernel_b(prf, BASE_B, first, &mut want);

                let mut got = prefix.to_vec();
                let fold = move |x, [a, b]: [W; 2]| fb(fa(x, a), b);
                par_fused_pass(pool, &[a, b], first, Payload::Extend(data, &mut got), fold);
                assert_eq!(got[..3], prefix, "prefix, two streams, {ctx}");
                assert_eq!(got[3..], want, "two streams, {ctx}");
                let mut got = data.to_vec();
                par_fused_pass(pool, &[a, b], first, Payload::InPlace(&mut got), fold);
                assert_eq!(got, want, "two streams in place, {ctx}");
            }
        }
    }

    fn random_words<W: KernelWord>(rng: &mut TestRng, len: usize) -> Vec<W> {
        (0..len)
            .map(|_| W::from_ne(&rng.next_u64().to_ne_bytes()[..std::mem::size_of::<W>()]))
            .collect()
    }

    #[test]
    fn n_stream_pass_equals_one_stream_at_a_time() {
        fn width<W: KernelWord>(rng: &mut TestRng) {
            let pools = [1usize, 2, 4].map(WorkerPool::new);
            let firsts = [1u64, 7, 1_000_003];
            let lens = [0, 1, W::PER_BLOCK - 1, 127, 128, 129, 1000];
            for prf in backends() {
                for (fi, first) in firsts.into_iter().enumerate() {
                    for (li, len) in lens.into_iter().enumerate() {
                        // Below the threshold every pool runs the one
                        // inline shard; rotating keeps the debug-build
                        // runtime down while each length still meets
                        // each pool.
                        let pool = &pools[(fi + li) % pools.len()];
                        check_streams(pool, &prf, first, &random_words::<W>(rng, len), 3);
                    }
                }
            }
            // Above the sharding threshold: shards cut mid-vector must
            // honour both streams' coordinates.
            let len = crate::PAR_MIN_BYTES / std::mem::size_of::<W>() + 13;
            let data = random_words::<W>(rng, len);
            let prf = PrfCipher::new(Backend::best_available(), KEY).unwrap();
            for pool in &pools {
                check_streams(pool, &prf, 3, &data, 1);
            }
            check_streams(&pools[2], &prf, 5, &data, 3);
        }
        let mut rng = TestRng::new(0x5eed_0018);
        width::<u8>(&mut rng);
        width::<u16>(&mut rng);
        width::<u32>(&mut rng);
        width::<u64>(&mut rng);
    }

    /// A cache hit on one stream and a miss on the other (and the reverse,
    /// and a double hit) produce the both-miss bits, sharded or not.
    #[test]
    fn mixed_hit_and_miss_streams_equal_both_miss() {
        fn width<W: KernelWord>(len: usize, first: u64, threads: usize) {
            let prf = PrfCipher::new(Backend::best_available(), KEY).unwrap();
            let pool = WorkerPool::new(threads);
            let per = W::PER_BLOCK as u64;
            let first_block = first / per;
            let nblocks = fused_blocks::<W>(first, len) as usize;
            let pregenerate = |base: u128| {
                let mut blocks = vec![0u128; nblocks];
                prf.fill_blocks_uncounted(base.wrapping_add(first_block as u128), &mut blocks);
                blocks
            };
            let (blocks_a, blocks_b) = (pregenerate(BASE_A), pregenerate(BASE_B));
            let miss = [BASE_A, BASE_B].map(|base| Stream::Cipher { prf: &prf, base });
            let hit = [&blocks_a, &blocks_b].map(|blocks| Stream::Blocks {
                blocks,
                first_block,
            });
            let data = random_words::<W>(&mut TestRng::new(len as u64), len);
            let run = |streams: [Stream<'_>; 2]| {
                let mut out = Vec::new();
                par_fused_pass(
                    &pool,
                    &streams,
                    first,
                    Payload::Extend(&data, &mut out),
                    sum_fold,
                );
                out
            };
            let want = run(miss);
            assert_eq!(run([hit[0], miss[1]]), want, "hit A, miss B");
            assert_eq!(run([miss[0], hit[1]]), want, "miss A, hit B");
            assert_eq!(run(hit), want, "both hit");
        }
        width::<u8>(1000, 21, 1);
        width::<u16>(129, 5, 2);
        width::<u32>(1000, 7, 1);
        width::<u64>(127, 3, 4);
        width::<u32>(crate::PAR_MIN_BYTES / 4 + 13, 9, 4);
    }

    #[test]
    fn blocks_into_matches_keystream_into() {
        let prf = PrfCipher::new(Backend::AesSoft, KEY).unwrap();
        let base = 1_000_000u128;
        let first = 5u64;
        let data: Vec<u32> = (0..97u32).map(|i| i ^ 0xdead_beef).collect();

        let mut want = data.clone();
        add_keystream_into(&prf, base, first, &mut want);

        // Pregenerate the covering block range, as the prefetcher would.
        let per = <u32 as KernelWord>::PER_BLOCK as u64;
        let first_block = first / per;
        let last_word = first + data.len() as u64 - 1;
        let nblocks = (last_word / per - first_block + 1) as usize;
        let mut blocks = vec![0u128; nblocks];
        prf.fill_blocks(base.wrapping_add(first_block as u128), &mut blocks);

        let mut got = data.clone();
        add_blocks_into(&blocks, first - first_block * per, &mut got);
        assert_eq!(want, got);
    }

    proptest! {
        /// Every fused kernel equals the split reference for random widths,
        /// offsets and lengths, on every available backend.
        #[test]
        fn fused_equals_reference(
            base in any::<u128>(),
            first in 0u64..10_000,
            len in 0usize..1000,
            seed in any::<u64>(),
        ) {
            let mut rng = TestRng::new(seed);
            for prf in backends() {
                let d8: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                check_all_ops(&prf, base, first, &d8);
                let d16: Vec<u16> = (0..len).map(|_| rng.next_u64() as u16).collect();
                check_all_ops(&prf, base, first, &d16);
                let d32: Vec<u32> = (0..len).map(|_| rng.next_u64() as u32).collect();
                check_all_ops(&prf, base, first, &d32);
                let d64: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
                check_all_ops(&prf, base, first, &d64);
            }
        }

        /// The pregenerated-blocks combine equals the cipher-driven combine
        /// for random coverage windows.
        #[test]
        fn blocks_combine_equals_cipher_combine(
            base in any::<u128>(),
            first in 0u64..5_000,
            len in 1usize..500,
        ) {
            let prf = PrfCipher::new(Backend::AesSoft, KEY).unwrap();
            let per = <u16 as KernelWord>::PER_BLOCK as u64;
            let data: Vec<u16> = (0..len as u32).map(|i| (i * 7) as u16).collect();

            let mut want = data.clone();
            xor_keystream_into(&prf, base, first, &mut want);

            let first_block = first / per;
            let last_word = first + len as u64 - 1;
            let nblocks = (last_word / per - first_block + 1) as usize;
            let mut blocks = vec![0u128; nblocks];
            prf.fill_blocks(base.wrapping_add(first_block as u128), &mut blocks);
            let mut got = data.clone();
            xor_blocks_into(&blocks, first - first_block * per, &mut got);
            prop_assert_eq!(want, got);
        }
    }
}

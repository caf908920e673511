//! Fused mask/unmask kernels: keystream generation and word-wise combine
//! in one pass over memory.
//!
//! A split path — [`keystream`] into a scratch vector, then a second loop
//! combining scratch with the payload — touches every payload byte twice
//! and every keystream byte three times (write, read, discard). The fused
//! kernel here generates each 128-bit PRF block, splits it into words, and
//! immediately folds the words into the payload, so the keystream never
//! exists in memory. On AES-NI the blocks additionally stay in SSE
//! registers through an 8-wide pipeline
//! ([`crate::aesni::AesNi128::keystream_tile8`]) and only the swizzled
//! native-endian words are stored, once, to a stack tile.
//!
//! There are two pass bodies. The word body (`pass_uncounted`): `dst[i] ←
//! f(src[i], A[first + i] (, B[first + i]))` over one or two noise
//! [`Stream`]s, out of place or with `dst` as its own source. Folding both
//! streams of the §5.1.4 cancelling construction (`+F(own)`, `−F(next)`)
//! in registers and writing straight into the destination is what makes a
//! mask cost one read and one write per payload byte, whatever the stream
//! count. The block body hands `f` whole PRF blocks instead, always out of
//! place. The parallel,
//! `Vec`-appending and N-stream entry points are in [`crate::par`]; the
//! one-stream in-place wrappers here cover every scheme's combine flavour:
//! [`add_keystream_into`] (encrypt for additive schemes, §5.1.1),
//! [`sub_keystream_into`] (decrypt, and the cancelling `-F_{k_{i+1}}` term of
//! §5.1.4), and [`xor_keystream_into`] (the Z_2 schemes, §5.2.3).
//!
//! ## Keystream convention
//!
//! Element `j` of a width-`w` stream is word `j mod per` of block
//! `F(base + j/per)` with `per = 16/w`, words split big-endian (word 0
//! most significant; [`KernelWord::extract`]). These kernels are the only
//! generator of such words: [`keystream`] is the plain fill, one pass that
//! keeps the noise word. Element `j` of a block pass meets block
//! `F(base + j)` whole. The property tests at the bottom pin every fused
//! kernel to the split reference bit-for-bit.

use crate::par::{Slots, Source};
#[cfg(test)]
use crate::Prf;
use crate::{blocks_metric, Backend, PrfCipher};
use hear_telemetry::Metric;
use std::mem::MaybeUninit;

/// Words the fused kernels can mask: the unsigned machine integers whose
/// width divides the 128-bit PRF block.
///
/// The trait captures exactly what `pass_uncounted` needs — block splitting,
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
    ($($t:ty),*) => {$(
        // SAFETY: unsigned machine integers — no padding, all bit
        // patterns valid, widths 1/2/4/8 divide 16.
        unsafe impl KernelWord for $t {
            const PER_BLOCK: usize = 16 / std::mem::size_of::<$t>();
            /// Word 0 is the block's most significant `BITS` bits.
            #[inline(always)]
            fn extract(block: u128, k: usize) -> $t {
                (block >> (128 - <$t>::BITS as usize * (k + 1))) as $t
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
    )*};
}

kernel_word!(u8, u16, u32, u64);

/// Reinterpret a signed slice as its unsigned word type (two's complement),
/// so signed data rides the integer ciphers without a copy.
pub fn as_unsigned_i32(data: &[i32]) -> &[u32] {
    // SAFETY: `i32` and `u32` have the same size and alignment, no padding,
    // and every bit pattern is valid in both.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast(), data.len()) }
}

/// [`as_unsigned_i32`] for 64-bit words.
pub fn as_unsigned_i64(data: &[i64]) -> &[u64] {
    // SAFETY: as in `as_unsigned_i32`, for `i64` and `u64`.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast(), data.len()) }
}

/// Bytes-masked counter for a backend (family `hear_masked_bytes_total`).
fn masked_metric(backend: Backend) -> Metric {
    match backend {
        Backend::AesSoft => Metric::MaskedBytesAesSoft,
        Backend::AesNi => Metric::MaskedBytesAesNi,
        Backend::Sha1 => Metric::MaskedBytesSha1,
        Backend::Sha1Ni => Metric::MaskedBytesSha1Ni,
    }
}

/// 16-byte-aligned stack bytes: the keystream [`Tile`] and the
/// [`Stage`] a streaming pass folds into.
#[repr(align(16))]
struct Aligned<const B: usize>([u8; B]);

/// Stack tile for one 8-block keystream group. 16-byte aligned so the
/// SSE stores in [`crate::aesni::AesNi128::keystream_tile8`] and the wide
/// reloads in the combine loop never straddle cache lines.
type Tile = Aligned<128>;

/// A streaming pass's staging tile: one 8-block run of output at byte
/// offset `r` (the destination's phase against 16 bytes), behind the `r`
/// bytes the previous run left over, so that bytes `16c .. 16c + 16` are
/// exactly the `c`-th aligned 16-byte chunk of the destination.
type Stage = Aligned<144>;

impl<const B: usize> Aligned<B> {
    fn new() -> Self {
        Aligned([0u8; B])
    }

    /// The bytes reinterpreted as words. One wide load per word instead
    /// of a byte-array round trip per word — this is what the `unsafe
    /// trait` contract on [`KernelWord`] buys.
    #[inline(always)]
    fn words<W: KernelWord>(&self) -> &[W] {
        // SAFETY: the bytes are 16-byte aligned; by the `KernelWord`
        // contract `W` is a padding-free integer whose size divides 16 (and
        // so `B`), so every bit pattern here is a valid `W`.
        unsafe { std::slice::from_raw_parts(self.0.as_ptr().cast(), B / std::mem::size_of::<W>()) }
    }

    /// [`Aligned::words`], mutably.
    #[inline(always)]
    fn words_mut<W: KernelWord>(&mut self) -> &mut [W] {
        // SAFETY: as in `words`, and `&mut self` makes the view unique.
        unsafe {
            std::slice::from_raw_parts_mut(self.0.as_mut_ptr().cast(), B / std::mem::size_of::<W>())
        }
    }
}

impl Tile {
    /// Lay `blocks` (at most eight) out as native-endian keystream words,
    /// the layout [`crate::aesni::AesNi128::keystream_tile8`] stores.
    #[inline(always)]
    fn spread<W: KernelWord>(&mut self, blocks: &[u128]) {
        let words = self.words_mut::<W>();
        for (group, block) in words.chunks_exact_mut(W::PER_BLOCK).zip(blocks) {
            for (k, w) in group.iter_mut().enumerate() {
                *w = W::extract(*block, k);
            }
        }
    }
}

/// One noise stream of a fused pass: block `b` is `F(base + b)` under
/// `prf`, generated inside the pass, which attributes its bytes and blocks
/// to telemetry.
#[derive(Clone, Copy)]
pub struct Stream<'a> {
    pub prf: &'a PrfCipher,
    pub base: u128,
}

impl Stream<'_> {
    /// Blocks `b .. b + nblk` (`nblk` ∈ {1, 8}) of this stream as the
    /// leading words of `tile`.
    #[inline(always)]
    fn fill_tile<W: KernelWord>(&self, b: u64, nblk: usize, tile: &mut Tile) {
        let at = self.base.wrapping_add(b as u128);
        #[cfg(target_arch = "x86_64")]
        if let (8, Some(ni)) = (nblk, self.prf.aesni()) {
            ni.keystream_tile8(at, std::mem::size_of::<W>(), &mut tile.0);
            return;
        }
        let mut blocks = [0u128; 8];
        self.blocks(b, &mut blocks[..nblk]);
        tile.spread::<W>(&blocks[..nblk]);
    }

    /// `out[i] ← F(base + b + i)`, uncounted.
    #[inline(always)]
    fn blocks(&self, b: u64, out: &mut [u128]) {
        self.prf
            .fill_blocks_impl(self.base.wrapping_add(b as u128), out);
    }
}

/// PRF blocks a pass over `len` elements starting at stream index `first`
/// touches, `per` elements to a block: the block span `⌊last/per⌋ −
/// ⌊first/per⌋ + 1`. This is exactly what the serial pass evaluates
/// (leading partial + whole + trailing partial), so counting it up front
/// lets the parallel path in [`crate::par`] attribute identical telemetry
/// from the submitting thread while the workers run uncounted.
#[inline]
pub(crate) fn block_span(per: usize, first: u64, len: usize) -> u64 {
    if len == 0 {
        return 0;
    }
    let per = per as u64;
    let last = first + len as u64 - 1;
    last / per - first / per + 1
}

/// Telemetry of one pass over `len` elements at `first`, `per` to a PRF
/// block, per stream: the per-backend block counter counts each PRF block
/// once. A word pass (`per > 1`) also counts its expanded bytes on
/// `KeystreamBytes` and `hear_masked_bytes_total`, matching the split path
/// exactly; a block pass hands out whole blocks, which count as blocks.
pub(crate) fn count_pass(streams: &[Stream<'_>], per: usize, first: u64, len: usize) {
    if len == 0 {
        return;
    }
    let bytes = (len * 16 / per) as u64;
    for Stream { prf, .. } in streams {
        hear_telemetry::add(blocks_metric(prf.backend()), block_span(per, first, len));
        if per > 1 {
            hear_telemetry::add(Metric::KeystreamBytes, bytes);
            hear_telemetry::add(masked_metric(prf.backend()), bytes);
        }
    }
}

/// How a pass writes the bulk of its output. [`crate::par`] picks one per
/// pass from its payload form and the size of its whole output, before it
/// shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stores {
    /// Plain stores: the output stays in cache for whoever reads it next.
    Cached,
    /// Every 8-block run goes to memory with non-temporal 16-byte stores,
    /// and the pass ends with `sfence`. An output too large to stay cached
    /// then costs one write per byte instead of a read-for-ownership plus
    /// a write-back. Targets without streaming stores store plainly.
    Streaming,
}

/// How far ahead of the run being folded a pass prefetches its source, in
/// bytes: 16 eight-block runs of `u32`. Sweep of the one-thread 64 MiB
/// one-stream `Extend` mask on a 2-vCPU Xeon, ns per PRF block, median of
/// 9 in each of two runs: none 2.05 / 2.38, 512 B 1.63 / 1.64, 1 KiB
/// 1.71 / 1.79, 2 KiB 1.52 / 1.56, 4 KiB 1.70 / 1.58.
const PREFETCH_BYTES: usize = 2048;

/// Hint the cache to fetch `buf[i]` if it exists: a hint only, it
/// neither faults nor changes what any load returns.
#[inline(always)]
fn prefetch<T>(buf: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if i < buf.len() {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `i` is in bounds, so the pointer is valid; PREFETCHT0
        // (SSE, baseline on x86_64) reads nothing architecturally.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(buf.as_ptr().add(i).cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (buf, i);
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
/// combine), then block by block through the tail. Each eight-block run
/// prefetches the source [`PREFETCH_BYTES`] ahead. With
/// [`Stores::Streaming`] the eight-block runs are written by
/// [`Pass::stream_runs`] instead, and the pass ends with `sfence`, so its
/// stores are globally visible before the caller (or the pool's join)
/// hands `dst` on.
///
/// Records **no telemetry**, like the block body: counting lives with the
/// submitter ([`count_pass`]); worker threads have
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
    stores: Stores,
) where
    W: KernelWord,
    F: Fn(W, [W; N]) -> W + Copy,
{
    assert!(src.is_none_or(|s| s.len() == dst.len()));
    let (per, len) = (W::PER_BLOCK, dst.len());
    let mut tiles: [Tile; N] = std::array::from_fn(|_| Tile::new());
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
        if stores == Stores::Streaming {
            idx = pass.stream_runs(idx);
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
    #[cfg(target_arch = "x86_64")]
    if stores == Stores::Streaming {
        std::arch::x86_64::_mm_sfence();
    }
}

/// `out[i] ← f(src[i], [A[i], B[i]])` over equal-length slices: an indexed
/// loop with no bounds checks left inside, so it vectorises.
#[inline(always)]
fn combine<W: KernelWord, const N: usize>(
    src: &[W],
    noise: [&[W]; N],
    out: &mut [MaybeUninit<W>],
    f: impl Fn(W, [W; N]) -> W,
) {
    let n = out.len();
    let (src, noise) = (&src[..n], noise.map(|t| &t[..n]));
    for i in 0..n {
        out[i].write(f(src[i], noise.map(|t| t[i])));
    }
}

/// The noise words `k0 .. k0 + n` of every stream's tile.
#[inline(always)]
fn noise<W: KernelWord, const N: usize>(tiles: &[Tile; N], k0: usize, n: usize) -> [&[W]; N] {
    std::array::from_fn(|s| &tiles[s].words::<W>()[k0..k0 + n])
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
    /// Fill every stream's tile with the `nblk` ∈ {1, 8} blocks of the
    /// run at `idx`; an eight-block run also prefetches the source
    /// [`PREFETCH_BYTES`] ahead (both cache lines of the run there).
    #[inline(always)]
    fn fill(&mut self, idx: usize, nblk: usize) {
        if nblk == 8 {
            let ahead = idx + PREFETCH_BYTES / std::mem::size_of::<W>();
            let line = 64 / std::mem::size_of::<W>();
            match self.src {
                Some(src) => (prefetch(src, ahead), prefetch(src, ahead + line)),
                None => (prefetch(self.dst, ahead), prefetch(self.dst, ahead + line)),
            };
        }
        let block = (self.first + idx as u64) / W::PER_BLOCK as u64;
        for (stream, tile) in self.streams.iter().zip(self.tiles.iter_mut()) {
            stream.fill_tile::<W>(block, nblk, tile);
        }
    }

    /// Fold `n` words at `idx`, which start `k0` words into a run of
    /// `nblk` ∈ {1, 8} whole PRF blocks, with plain stores: one tile per
    /// stream, then one combine. Inlined into its three call sites so the
    /// bulk loop sees constant `nblk`, `k0` and `n`.
    ///
    /// # Safety
    ///
    /// With `src = None`, `dst[idx..idx + n]` must be initialised.
    #[inline(always)]
    unsafe fn fold_run(&mut self, idx: usize, nblk: usize, k0: usize, n: usize) {
        self.fill(idx, nblk);
        let (f, noise) = (self.f, noise(self.tiles, k0, n));
        let out = &mut self.dst[idx..idx + n];
        match self.src {
            Some(src) => combine(&src[idx..idx + n], noise, out, f),
            None => {
                for i in 0..n {
                    // SAFETY: the in-place contract — `dst` is initialised.
                    let x = unsafe { out[i].assume_init() };
                    out[i].write(f(x, noise.map(|t| t[i])));
                }
            }
        }
    }

    /// Every eight-block run from `idx` on, streamed: each run is folded
    /// into a [`Stage`] behind the bytes the previous run left over, and
    /// the stage's eight aligned 16-byte chunks go to memory with
    /// `MOVNTDQ`. The destination's phase `r` against 16 bytes is the same
    /// for every run (a run is 128 bytes), so chunk `c` of the stage is
    /// always the aligned chunk at byte `16c − r` of the run. Only the
    /// first run's leading chunk (shared with whatever precedes `idx`) and
    /// the last run's `r` trailing bytes are stored plainly. Returns the
    /// index after the last run.
    ///
    /// # Safety
    ///
    /// With `src = None`, `dst[idx..]` must be initialised.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn stream_runs(&mut self, mut idx: usize) -> usize {
        use std::arch::x86_64::{__m128i, _mm_load_si128, _mm_stream_si128};
        let (run, len, w) = (8 * W::PER_BLOCK, self.dst.len(), std::mem::size_of::<W>());
        if len - idx < run {
            return idx;
        }
        // A `W` is aligned to its size, which divides 16, so `r` is a
        // whole number of words.
        let r = self.dst[idx..].as_ptr() as usize % 16;
        let rw = r / w;
        let mut stage = Stage::new();
        let mut lead = true;
        while len - idx >= run {
            self.fill(idx, 8);
            let (f, noise) = (self.f, noise(self.tiles, 0, run));
            let src: &[W] = match self.src {
                Some(src) => &src[idx..idx + run],
                // SAFETY: the in-place contract — `dst` is initialised, and
                // this view is dropped before `dst[idx..]` is written.
                None => unsafe { &*(&self.dst[idx..idx + run] as *const _ as *const [W]) },
            };
            combine(
                src,
                noise,
                as_uninit(&mut stage.words_mut::<W>()[rw..rw + run]),
                f,
            );
            // The leading chunk of the first run starts before `idx` unless
            // `r == 0`: store its words of this run plainly.
            let split_lead = lead && r != 0;
            if split_lead {
                let head = &stage.words::<W>()[rw..16 / w];
                for (d, x) in self.dst[idx..idx + head.len()].iter_mut().zip(head) {
                    d.write(*x);
                }
            }
            // SAFETY: `idx < len`, and the pointer keeps all of `dst` as
            // its provenance (chunk 0 reaches back into the previous run).
            let at = unsafe { self.dst.as_mut_ptr().add(idx).cast::<u8>() };
            for c in 0..8 {
                if c == 0 && split_lead {
                    continue;
                }
                // SAFETY: chunk `c` covers bytes `16c − r .. 16c − r + 16`
                // of this run. For `c ≥ 1` they lie inside the run (`r ≤
                // 15`, `16·7 + 16 − r ≤ 128`); for `c = 0` (not the first
                // run, or `r = 0`) they are the last `r` bytes of the
                // previous run and the first `16 − r` of this one. So the
                // chunk is inside `dst`, 16-byte aligned by the choice of
                // `r`, and the stage read is an aligned 16-byte load.
                unsafe {
                    let chunk = _mm_load_si128(stage.0.as_ptr().add(16 * c).cast::<__m128i>());
                    _mm_stream_si128(at.add(16 * c).sub(r).cast::<__m128i>(), chunk);
                }
            }
            // This run's last `r` bytes lead the next run's first chunk.
            stage.0.copy_within(128..144, 0);
            lead = false;
            idx += run;
        }
        let tail = &stage.words::<W>()[..rw];
        for (d, x) in self.dst[idx - rw..idx].iter_mut().zip(tail) {
            d.write(*x);
        }
        idx
    }

    /// Without streaming stores the runs are left to the plain loop.
    #[cfg(not(target_arch = "x86_64"))]
    #[inline(always)]
    unsafe fn stream_runs(&mut self, idx: usize) -> usize {
        idx
    }
}

/// PRF blocks per run of the block body. Eight-block runs cost the HoMAC
/// lane seal a third of its speed (`crypto_throughput --gate`, 2-vCPU
/// Xeon: 2.06× the scalar reference at 8, 3.20× at 64, 3.16× at 256).
const BLOCK_RUN: usize = 256;

/// The PRF blocks one element of a block pass draws from one stream: one
/// `u128`, or `[u128; B]`, `B` consecutive blocks. A trait rather than a
/// const generic, so that a caller can size it by an associated const of
/// its own (stable Rust cannot write `[u128; T::LANES]`).
pub trait BlockArray: Copy + Send + Sync + 'static {
    /// Blocks per element, `B`.
    const LEN: usize;
    /// Every block zero.
    const ZERO: Self;
    /// `blocks` (a whole number of arrays long) as its arrays.
    fn chunks(blocks: &[u128]) -> &[Self];
}

macro_rules! impl_block_array {
    ($($n:literal),+) => {$(
        impl BlockArray for [u128; $n] {
            const LEN: usize = $n;
            const ZERO: Self = [0; $n];
            #[inline(always)]
            fn chunks(blocks: &[u128]) -> &[Self] {
                blocks.as_chunks::<$n>().0
            }
        }
    )+};
}
impl_block_array!(1, 2, 3, 4, 5, 6, 7, 8);

impl BlockArray for u128 {
    const LEN: usize = 1;
    const ZERO: Self = 0;
    #[inline(always)]
    fn chunks(blocks: &[u128]) -> &[Self] {
        blocks
    }
}

/// The block body: `dst[i] ← f(src[i], [A[i], B[i]])`, where `A[i]` is
/// the array of the `LEN` blocks `F(base + first + i·LEN + b)` of the first
/// stream, `B[i]` the second's. The first `Err` of `f` ends the pass and is
/// returned; so does `stop()`, asked once per run. `f` comes by value, so
/// its captures stay in registers.
#[inline]
pub(crate) fn block_pass_uncounted<S: Source, T: Slots, A: BlockArray, E, const N: usize>(
    streams: &[Stream<'_>; N],
    first: u64,
    src: S,
    dst: T,
    f: impl Fn(S::Item, [A; N]) -> Result<T::Item, E>,
    stop: impl Fn() -> bool,
) -> Result<(), E> {
    let mut blocks = [[0u128; BLOCK_RUN]; N];
    let run = BLOCK_RUN / A::LEN;
    for (k, mut out) in dst.chunks(run).enumerate() {
        if stop() {
            break;
        }
        let (at, n) = (k * run, out.len());
        for (stream, b) in streams.iter().zip(&mut blocks) {
            stream.blocks(first + (at * A::LEN) as u64, &mut b[..n * A::LEN]);
        }
        // Every view `n` long, so the loop keeps no bounds checks.
        let (src, keys) = (src.sub(at..at + n), blocks.each_ref());
        let keys = keys.map(|b| &A::chunks(&b[..n * A::LEN])[..n]);
        for i in 0..n {
            out.put(i, f(src.at(i), keys.map(|k| k[i]))?);
        }
    }
    Ok(())
}

/// An initialised buffer viewed as the destination of an in-place pass.
#[inline]
pub(crate) fn as_uninit<T>(buf: &mut [T]) -> &mut [MaybeUninit<T>] {
    // SAFETY: `MaybeUninit<T>` has `T`'s layout, and the bodies only ever
    // write initialised values through the view.
    unsafe { &mut *(buf as *mut [T] as *mut [MaybeUninit<T>]) }
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
    let streams = [Stream { prf, base }];
    count_pass(&streams, W::PER_BLOCK, first, buf.len());
    // SAFETY: `buf` is initialised.
    unsafe { pass_uncounted(&streams, first, None, as_uninit(buf), f, Stores::Cached) }
}

/// `out[i] = stream[first + i]`: the keystream itself, for a caller that
/// needs the noise words rather than a payload folded with them.
pub fn keystream<W: KernelWord>(prf: &PrfCipher, base: u128, first: u64, out: &mut [W]) {
    keystream_into(prf, base, first, out, |_, [k]| k);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::{drive, par_fused_pass, Payload, WorkerPool};
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::convert::Infallible;

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
        let mut block = None;
        for (i, x) in buf.iter_mut().enumerate() {
            let j = first + i as u64;
            // Each block evaluated once, not once per word.
            let b = match block {
                Some((at, b)) if at == j / per => b,
                _ => prf.eval_block(base.wrapping_add((j / per) as u128)),
            };
            block = Some((j / per, b));
            *x = f(*x, W::extract(b, (j % per) as usize));
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
    fn signed_reinterpretation_sums_correctly() {
        // (-5) + 7 via unsigned wrapping equals the signed sum.
        let (a, b) = ([-5i32, i32::MIN, 100], [7i32, 1, -200]);
        let (ua, ub) = (as_unsigned_i32(&a), as_unsigned_i32(&b));
        for i in 0..3 {
            assert_eq!(ua[i].wrapping_add(ub[i]) as i32, a[i].wrapping_add(b[i]));
        }
        let c = [-1i64, i64::MIN];
        assert_eq!(as_unsigned_i64(&c), [u64::MAX, 1 << 63]);
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

        // Two streams in one pass count like two one-stream passes.
        let two = hear_telemetry::Registry::new_enabled();
        {
            let _ctx = two.install(None);
            let src = vec![0u32; 100];
            let mut out = Vec::new();
            let streams = [5, 9].map(|base| Stream { prf: &prf, base });
            let pool = WorkerPool::new(1);
            par_fused_pass(
                &pool,
                &streams,
                2,
                Payload::Extend(&src, &mut out),
                sum_fold,
            );
        }
        assert_eq!(two.counter(Metric::KeystreamBytes), 2 * 400);
        assert_eq!(two.counter(Metric::MaskedBytesAesSoft), 2 * 400);
        assert_eq!(two.counter(Metric::PrfBlocksAesSoft), 2 * 26);
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
        let a = Stream { prf, base: BASE_A };
        let b = Stream { prf, base: BASE_B };
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

    /// One streaming pass, forced on whatever its size, against the split
    /// reference: `streams` is 1 or 2 (`+A`, then `−B`), `at` the word
    /// offset of the destination in its buffer (so every phase against 16
    /// bytes comes round), and all three payload forms.
    fn check_streaming<W: KernelWord>(
        pool: &WorkerPool,
        prf: &PrfCipher,
        streams: usize,
        first: u64,
        data: &[W],
        at: usize,
    ) {
        let ctx = format!(
            "w={} threads={} streams={streams} first={first} len={} at={at}",
            std::mem::size_of::<W>(),
            pool.threads(),
            data.len()
        );
        let mut want = data.to_vec();
        reference(prf, BASE_A, first, &mut want, W::wrapping_add);
        if streams == 2 {
            reference(prf, BASE_B, first, &mut want, W::wrapping_sub);
        }
        let a = Stream { prf, base: BASE_A };
        let b = Stream { prf, base: BASE_B };
        let prefix = vec![W::extract(7, 0); at];
        let run = |payload: Payload<'_, W>| match streams {
            1 => streaming(pool, &[a], first, payload, |x, [a]| x.wrapping_add(a)),
            _ => streaming(pool, &[a, b], first, payload, sum_fold),
        };

        let mut got = prefix.clone();
        run(Payload::Extend(data, &mut got));
        assert_eq!(got[..at], prefix[..], "extend prefix, {ctx}");
        assert!(got[at..] == want[..], "extend, {ctx}");

        let guard = W::extract(9, 0);
        let mut buf = prefix.clone();
        buf.extend(std::iter::repeat_n(guard, data.len() + 3));
        run(Payload::Into(data, &mut buf[at..at + data.len()]));
        assert_eq!(buf[..at], prefix[..], "into prefix, {ctx}");
        assert!(buf[at..at + data.len()] == want[..], "into, {ctx}");
        assert_eq!(buf[at + data.len()..], [guard; 3], "into suffix, {ctx}");

        let mut buf = prefix.clone();
        buf.extend_from_slice(data);
        buf.extend([guard; 3]);
        run(Payload::InPlace(&mut buf[at..at + data.len()]));
        assert_eq!(buf[..at], prefix[..], "in place prefix, {ctx}");
        assert!(buf[at..at + data.len()] == want[..], "in place, {ctx}");
        assert_eq!(buf[at + data.len()..], [guard; 3], "in place suffix, {ctx}");
    }

    /// [`par_fused_pass`] with streaming stores, whatever its size.
    fn streaming<W: KernelWord, const N: usize>(
        pool: &WorkerPool,
        streams: &[Stream<'_>; N],
        first: u64,
        payload: Payload<'_, W>,
        f: impl Fn(W, [W; N]) -> W + Copy + Sync,
    ) {
        let stores = Some(Stores::Streaming);
        let done = drive(
            pool,
            streams,
            W::PER_BLOCK,
            first,
            payload,
            stores,
            |at, src, dst, s, _| {
                // SAFETY: the driver's in-place contract.
                unsafe { pass_uncounted(streams, at, src, dst, f, s) };
                Ok::<_, Infallible>(())
            },
        );
        let Ok(()) = done;
    }

    #[test]
    fn streaming_stores_equal_the_split_reference() {
        fn width<W: KernelWord>(rng: &mut TestRng) {
            let run = 8 * W::PER_BLOCK;
            let (serial, pair) = (WorkerPool::new(1), WorkerPool::new(2));
            for prf in backends() {
                // Short of one run, exactly one, and odd lengths spanning
                // several runs with partial blocks at both ends.
                for (first, len) in [
                    (0u64, run - 1),
                    (0, run),
                    (3, 3 * run + 5),
                    (1, 5 * run - 1),
                ] {
                    let data = random_words::<W>(rng, len);
                    for at in 0..16 {
                        for streams in [1, 2] {
                            check_streaming(&serial, &prf, streams, first, &data, at);
                        }
                    }
                }
            }
            // Above the sharding threshold: every shard streams its own
            // block-aligned range, each at its own phase.
            let prf = PrfCipher::new(Backend::best_available(), KEY).unwrap();
            let data = random_words::<W>(rng, crate::PAR_MIN_BYTES / std::mem::size_of::<W>() + 13);
            for (at, streams) in [(0, 2), (1, 1), (3, 2)] {
                check_streaming(&pair, &prf, streams, 5, &data, at);
            }
        }
        let mut rng = TestRng::new(0x5eed_0042);
        width::<u8>(&mut rng);
        width::<u16>(&mut rng);
        width::<u32>(&mut rng);
        width::<u64>(&mut rng);
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
    }
}

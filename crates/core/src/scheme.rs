//! The scheme abstraction behind the single allreduce engine.
//!
//! The paper's libhear exposes one interposed `MPI_Allreduce` and picks the
//! cipher internally (§5, Table 2). This module gives that choice a type:
//! a [`Scheme`] turns a plaintext block into wire values (`mask_block`),
//! recovers plaintexts from an aggregated wire block (`unmask_into`) and
//! names the associative operation the untrusted network applies (`op`).
//! Everything else — reduction algorithm, blocked/pipelined chunking,
//! HoMAC verification — composes orthogonally on top in the layer crate's
//! engine, so a cell like "verified pipelined float sum on a switch tree"
//! needs no hand-rolled method.
//!
//! For verified mode every scheme also defines a *digest*: up to four `u64`
//! summation lanes per element that (a) ride the lossless [`IntSum`] cipher
//! regardless of the payload cipher and (b) let the receiver re-check the
//! decrypted result against the HoMAC-authenticated lane sums. Integer and
//! fixed-point digests are exact; float digests are quantized with the
//! scheme's Table 2 lossiness tolerance. Each scheme states how many of the
//! four lanes it fills ([`Scheme::Lanes`]); the engine seals, ships and
//! verifies only those.

use crate::extend_with;
use crate::fixed::FixedCodec;
use crate::float::{FloatProd, FloatSum, FloatSumExp};
use crate::int::{IntProd, IntSum, IntXor, Scratch};
use crate::keys::CommKeys;
use crate::word::RingWord;
use hear_hfp::{Hfp, HfpError, HfpFormat};
use std::convert::Infallible;
use std::mem::MaybeUninit;

/// Number of `u64` digest lanes per element in verified mode.
pub const DIGEST_LANES: usize = 4;

/// PRF index base for the digest side-channel: the `L` used digest lanes
/// of element `j` are encrypted at indices `DIGEST_BASE + j·L + lane`, far
/// above any payload index, so payload and digest keystreams never collide.
pub const DIGEST_BASE: u64 = 1 << 48;

/// The digest lanes a scheme actually fills, as the array the engine's
/// packets carry: `[u64; 1]` … `[u64; DIGEST_LANES]`. (An associated type
/// rather than a const because stable Rust cannot size an array by
/// `S::LANES`.)
pub trait LaneArray:
    Copy + Send + Sync + PartialEq + std::fmt::Debug + AsRef<[u64]> + AsMut<[u64]> + 'static
{
    /// Number of lanes, `1..=DIGEST_LANES`.
    const LANES: usize;
    /// All lanes zero.
    const ZERO: Self;
}

macro_rules! impl_lane_array {
    ($($n:literal),+) => {$(
        impl LaneArray for [u64; $n] {
            const LANES: usize = $n;
            const ZERO: Self = [0; $n];
        }
    )+};
}
impl_lane_array!(1, 2, 3, 4);

/// A HEAR cipher as seen by the generic allreduce engine.
///
/// `mask_block`/`unmask_into` are block-composable: masking `[a, b]` at
/// `first` and `[c]` at `first + 2` must equal masking `[a, b, c]` at
/// `first` (pipelining and the ring's per-chunk masking rely on this, and
/// every underlying cipher already guarantees it).
///
/// # Safety
///
/// [`Scheme::unmask_into`] must initialise **every** element of the `dst`
/// it is given: [`Scheme::unmask_extend`] and the engine commit that memory
/// (`Vec::set_len`) on its return without looking at it again.
pub unsafe trait Scheme {
    /// Caller-facing element type.
    type Input: Clone + Send + 'static;
    /// On-the-wire element type the network reduces.
    type Wire: Clone + Send + PartialEq + std::fmt::Debug + 'static;
    /// The prefix of the digest lanes this scheme uses: [`Scheme::digest`]
    /// must leave every lane at or past `Lanes::LANES` zero, which is what
    /// lets the engine drop them from the verified packet.
    type Lanes: LaneArray;

    /// Stable name for telemetry and the composition matrix.
    const NAME: &'static str;
    /// Row of [`crate::properties::TABLE2`] describing this scheme.
    const TABLE2_ROW: usize;
    /// Largest world size the digest stays sound for (only [`IntXor`]'s
    /// nibble counters saturate; everything else is unbounded).
    const MAX_VERIFIED_WORLD: usize = usize::MAX;

    /// Encrypt one block; element `j` of the global vector is
    /// `input[j - first]`. On `Err` (a value the cipher cannot encode),
    /// `out` is empty — never a prefix of a ciphertext.
    fn mask_block(
        &mut self,
        keys: &CommKeys,
        first: u64,
        input: &[Self::Input],
        out: &mut Vec<Self::Wire>,
    ) -> Result<(), HfpError>;

    /// Decrypt one aggregated block into `dst`, which has `agg`'s length
    /// and need not be initialised — the positional primitive: the engine
    /// points it at the block's place in the spare capacity of the caller's
    /// result vector, so ring chunks can be decrypted as they arrive, in any
    /// order. Initialises every element of `dst` (the trait's safety
    /// contract); panics if the lengths differ.
    fn unmask_into(
        &mut self,
        keys: &CommKeys,
        first: u64,
        agg: &[Self::Wire],
        dst: &mut [MaybeUninit<Self::Input>],
    );

    /// Decrypt one aggregated block, **appending** the plaintexts to `out`
    /// (what is already there stays untouched): reserve,
    /// [`Scheme::unmask_into`] the spare capacity, commit.
    fn unmask_extend(
        &mut self,
        keys: &CommKeys,
        first: u64,
        agg: &[Self::Wire],
        out: &mut Vec<Self::Input>,
    ) {
        // SAFETY: `unmask_into` initialises all of `dst` — the contract an
        // `unsafe impl Scheme` signs.
        let Ok(()) = unsafe {
            extend_with::<_, Infallible>(out, agg.len(), |dst| {
                self.unmask_into(keys, first, agg, dst);
                Ok(())
            })
        };
    }

    /// Decrypt one aggregated block into `out`, cleared and filled.
    fn unmask_block(
        &mut self,
        keys: &CommKeys,
        first: u64,
        agg: &[Self::Wire],
        out: &mut Vec<Self::Input>,
    ) {
        out.clear();
        self.unmask_extend(keys, first, agg, out);
    }

    /// The associative combiner the (untrusted) network applies. An
    /// associated function — `S::op` is a plain `fn` pointer, which every
    /// transport (including the switch tree's service threads) can carry.
    fn op(a: &Self::Wire, b: &Self::Wire) -> Self::Wire;

    /// Fill the four digest lanes for one plaintext element. Lane sums
    /// accumulate with wrapping `u64` addition across ranks.
    fn digest(&self, x: &Self::Input, out: &mut [u64; DIGEST_LANES]);

    /// Check a decrypted result element against the aggregated lane sums.
    fn digest_check(
        &self,
        result: &Self::Input,
        lane_sums: &[u64; DIGEST_LANES],
        world: usize,
    ) -> bool;

    /// Encrypt an arbitrarily long slice in one call. Every cipher here
    /// masks in a single fused pass that allocates nothing beyond `out`'s
    /// growth, so this is [`Scheme::mask_block`] under the name the engine
    /// uses for whole-call buffers; a scheme that needed bounded staging
    /// would override it. On `Err`, `out` is empty.
    fn mask_slice(
        &mut self,
        keys: &CommKeys,
        first: u64,
        input: &[Self::Input],
        out: &mut Vec<Self::Wire>,
    ) -> Result<(), HfpError> {
        self.mask_block(keys, first, input, out)
    }

    /// Decrypt an arbitrarily long aggregated slice in one call into `out`,
    /// cleared and filled; [`Scheme::unmask_block`] under the whole-call
    /// name, like [`Scheme::mask_slice`].
    fn unmask_slice(
        &mut self,
        keys: &CommKeys,
        first: u64,
        agg: &[Self::Wire],
        out: &mut Vec<Self::Input>,
    ) {
        self.unmask_block(keys, first, agg, out);
    }

    /// Byte width of the noise words this scheme draws from the payload
    /// streams (`base_own`/`base_next`/`base_zero`) when masking is a
    /// fused keystream combine — what a keystream prefetcher needs to plan
    /// block generation one epoch ahead. `None` opts the scheme out of
    /// prefetch: its noise is consumed some other way (product exponents,
    /// float codecs).
    fn noise_width(&self) -> Option<usize> {
        None
    }

    /// Encode one element as a raw `u64` cell for single-origin transport
    /// (allgather, alltoall): the data is never combined homomorphically,
    /// so the wire carries the exact bit pattern, XOR-padded on the
    /// *collective* keystream. Must be lossless:
    /// `cell_decode(cell_encode(x))` is bit-for-bit `x` for every scheme,
    /// floats included.
    fn cell_encode(x: &Self::Input) -> u64;

    /// Inverse of [`Scheme::cell_encode`].
    fn cell_decode(cell: u64) -> Self::Input;
}

// ---------------------------------------------------------------------------
// Integer sum
// ---------------------------------------------------------------------------

/// [`IntSum`] (Eq. 1) as a [`Scheme`]; lossless, exact digest.
#[derive(Default)]
pub struct IntSumScheme<W: RingWord> {
    scratch: Scratch<W>,
}

impl<W: RingWord> IntSumScheme<W> {
    /// Wrap an existing noise scratch (the layer crate keeps one per lane
    /// width so the hot path never allocates).
    pub fn with_scratch(scratch: Scratch<W>) -> Self {
        IntSumScheme { scratch }
    }

    /// Hand the scratch back to the owner.
    pub fn into_scratch(self) -> Scratch<W> {
        self.scratch
    }
}

// SAFETY: `unmask_into` initialises all of `dst` (the cipher's `decrypt_to`).
unsafe impl<W: RingWord> Scheme for IntSumScheme<W> {
    type Input = W;
    type Wire = W;
    type Lanes = [u64; 1];

    const NAME: &'static str = "int-sum";
    const TABLE2_ROW: usize = 0;

    fn mask_block(
        &mut self,
        keys: &CommKeys,
        first: u64,
        input: &[W],
        out: &mut Vec<W>,
    ) -> Result<(), HfpError> {
        out.clear();
        IntSum::encrypt_into(keys, first, input, out);
        Ok(())
    }

    fn unmask_into(&mut self, keys: &CommKeys, first: u64, agg: &[W], dst: &mut [MaybeUninit<W>]) {
        IntSum::decrypt_to(keys, first, agg, dst);
    }

    fn op(a: &W, b: &W) -> W {
        IntSum::combine(*a, *b)
    }

    fn digest(&self, x: &W, out: &mut [u64; DIGEST_LANES]) {
        *out = [x.to_u64(), 0, 0, 0];
    }

    fn digest_check(&self, result: &W, lane_sums: &[u64; DIGEST_LANES], _world: usize) -> bool {
        // The wire sum and the lane sum wrap identically mod 2^b.
        W::from_u64_trunc(lane_sums[0]) == *result
    }

    fn noise_width(&self) -> Option<usize> {
        Some(std::mem::size_of::<W>())
    }

    fn cell_encode(x: &W) -> u64 {
        x.to_u64()
    }

    fn cell_decode(cell: u64) -> W {
        W::from_u64_trunc(cell)
    }
}

// ---------------------------------------------------------------------------
// Integer product
// ---------------------------------------------------------------------------

/// [`IntProd`] (Eq. 2) as a [`Scheme`]; lossless, exact digest via the
/// 2-adic decomposition `x = (−1)^s · 3^e · 2^v` in `Z_{2^b}`.
#[derive(Default)]
pub struct IntProdScheme<W: RingWord> {
    scratch: Scratch<W>,
}

impl<W: RingWord> IntProdScheme<W> {
    pub fn with_scratch(scratch: Scratch<W>) -> Self {
        IntProdScheme { scratch }
    }

    pub fn into_scratch(self) -> Scratch<W> {
        self.scratch
    }
}

// SAFETY: `unmask_into` initialises all of `dst` (the cipher's `decrypt_to`).
unsafe impl<W: RingWord> Scheme for IntProdScheme<W> {
    type Input = W;
    type Wire = W;
    type Lanes = [u64; 3];

    const NAME: &'static str = "int-prod";
    const TABLE2_ROW: usize = 1;

    fn mask_block(
        &mut self,
        keys: &CommKeys,
        first: u64,
        input: &[W],
        out: &mut Vec<W>,
    ) -> Result<(), HfpError> {
        out.clear();
        IntProd::encrypt_into(keys, first, input, out, &mut self.scratch);
        Ok(())
    }

    fn unmask_into(&mut self, keys: &CommKeys, first: u64, agg: &[W], dst: &mut [MaybeUninit<W>]) {
        IntProd::decrypt_to(keys, first, agg, dst, &mut self.scratch);
    }

    fn op(a: &W, b: &W) -> W {
        IntProd::combine(*a, *b)
    }

    fn digest(&self, x: &W, out: &mut [u64; DIGEST_LANES]) {
        let (e, v, s) = prod_digest(x.to_u64(), W::BITS);
        *out = [e, v, s, 0];
    }

    fn digest_check(&self, result: &W, lane_sums: &[u64; DIGEST_LANES], _world: usize) -> bool {
        let sum_v = lane_sums[1];
        if sum_v >= W::BITS as u64 {
            // Enough factors of two to annihilate the ring.
            return *result == W::zero();
        }
        // (−1)^{Σs} · 3^{Σe} · 2^{Σv}; Σe mod 2^64 is sound because
        // ord(3) = 2^{b−2} divides 2^64, and the odd part only matters
        // mod 2^{b−Σv}, which the full-width product preserves.
        let mut expect = W::GENERATOR.wpow(W::from_u64_trunc(lane_sums[0]));
        if lane_sums[2] & 1 == 1 {
            expect = W::zero().wsub(expect);
        }
        expect = expect.wmul(W::from_u64_trunc(1u64 << sum_v));
        *result == expect
    }

    fn cell_encode(x: &W) -> u64 {
        x.to_u64()
    }

    fn cell_decode(cell: u64) -> W {
        W::from_u64_trunc(cell)
    }
}

/// Multiply on `Z_{2^b}` represented in the low bits of a `u64`.
#[inline]
fn mul_b(a: u64, c: u64, mask: u64) -> u64 {
    a.wrapping_mul(c) & mask
}

/// Inverse of an odd element of `Z_{2^b}` (Newton, doubling precision:
/// six steps cover 64 bits).
fn inv_odd64(a: u64, mask: u64) -> u64 {
    debug_assert_eq!(a & 1, 1);
    let mut x = a;
    for _ in 0..6 {
        x = mul_b(x, 2u64.wrapping_sub(a.wrapping_mul(x)) & mask, mask);
    }
    debug_assert_eq!(mul_b(a, x, mask), 1);
    x
}

/// Decompose `x ∈ Z_{2^bits}` as `(−1)^s · 3^e · 2^v` (the structure of
/// `(Z/2^k)^* = {±1} × ⟨3⟩`), with `x = 0` encoded as `v = bits`. The
/// exponent `e` is found by 2-adic discrete-log lifting on base 9:
/// `9^{2^i} ≡ 1 + 2^{i+3} (mod 2^{i+4})`, so one squaring chain clears
/// one bit of `u` per step.
pub fn prod_digest(x: u64, bits: u32) -> (u64, u64, u64) {
    if x == 0 {
        return (0, bits as u64, 0);
    }
    let mask = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    let v = x.trailing_zeros() as u64;
    let mut u = (x >> v) & mask;
    let mut e = 0u64;
    let mut s = 0u64;
    // ⟨3⟩ mod 8 = {1, 3}; the −1 coset is {5, 7}.
    if u & 7 == 5 || u & 7 == 7 {
        s = 1;
        u = u.wrapping_neg() & mask;
    }
    if u & 3 == 3 {
        e += 1;
        u = mul_b(u, inv_odd64(3, mask), mask);
    }
    // u ∈ ⟨9⟩ now, i.e. u ≡ 1 (mod 8): lift bit by bit.
    let mut base = 9u64 & mask;
    for i in 0..bits.saturating_sub(3) {
        if u == 1 {
            break;
        }
        if (u >> (i + 3)) & 1 == 1 {
            e += 2u64 << i;
            u = mul_b(u, inv_odd64(base, mask), mask);
        }
        base = mul_b(base, base, mask);
    }
    debug_assert_eq!(u, 1, "2-adic dlog lifting must terminate at 1");
    (e, v, s)
}

// ---------------------------------------------------------------------------
// Integer xor
// ---------------------------------------------------------------------------

/// [`IntXor`] (Eq. 3) as a [`Scheme`]; lossless. The digest spreads each
/// payload bit into its own 4-bit nibble counter, so the additive lane sum
/// counts per-bit multiplicity and the XOR result must equal its parity —
/// sound up to 15 ranks.
#[derive(Default)]
pub struct IntXorScheme<W: RingWord> {
    scratch: Scratch<W>,
}

impl<W: RingWord> IntXorScheme<W> {
    pub fn with_scratch(scratch: Scratch<W>) -> Self {
        IntXorScheme { scratch }
    }

    pub fn into_scratch(self) -> Scratch<W> {
        self.scratch
    }
}

// SAFETY: `unmask_into` initialises all of `dst` (the cipher's `decrypt_to`).
unsafe impl<W: RingWord> Scheme for IntXorScheme<W> {
    type Input = W;
    type Wire = W;
    type Lanes = [u64; 4];

    const NAME: &'static str = "int-xor";
    const TABLE2_ROW: usize = 2;
    /// Nibble counters saturate at 15 contributions per bit.
    const MAX_VERIFIED_WORLD: usize = 15;

    fn mask_block(
        &mut self,
        keys: &CommKeys,
        first: u64,
        input: &[W],
        out: &mut Vec<W>,
    ) -> Result<(), HfpError> {
        out.clear();
        IntXor::encrypt_into(keys, first, input, out);
        Ok(())
    }

    fn unmask_into(&mut self, keys: &CommKeys, first: u64, agg: &[W], dst: &mut [MaybeUninit<W>]) {
        IntXor::decrypt_to(keys, first, agg, dst);
    }

    fn op(a: &W, b: &W) -> W {
        IntXor::combine(*a, *b)
    }

    fn digest(&self, x: &W, out: &mut [u64; DIGEST_LANES]) {
        *out = [0; DIGEST_LANES];
        let bits = x.to_u64();
        for k in 0..W::BITS as usize {
            if (bits >> k) & 1 == 1 {
                out[k / 16] |= 1u64 << (4 * (k % 16));
            }
        }
    }

    fn digest_check(&self, result: &W, lane_sums: &[u64; DIGEST_LANES], _world: usize) -> bool {
        let bits = result.to_u64();
        for k in 0..W::BITS as usize {
            let count = (lane_sums[k / 16] >> (4 * (k % 16))) & 0xF;
            if count & 1 != (bits >> k) & 1 {
                return false;
            }
        }
        true
    }

    fn noise_width(&self) -> Option<usize> {
        Some(std::mem::size_of::<W>())
    }

    fn cell_encode(x: &W) -> u64 {
        x.to_u64()
    }

    fn cell_decode(cell: u64) -> W {
        W::from_u64_trunc(cell)
    }
}

// ---------------------------------------------------------------------------
// Fixed-point sum
// ---------------------------------------------------------------------------

/// The §5.2 fixed-point codec riding on [`IntSum`]: `f64` in, `u64` lanes
/// on the wire. Bitwise-exact digest (the digest decodes the identical
/// wrapped lane sum the unmask path decodes).
pub struct FixedSumScheme {
    codec: FixedCodec,
    scratch: Scratch<u64>,
    lanes: Vec<u64>,
}

impl FixedSumScheme {
    pub fn new(codec: FixedCodec) -> Self {
        FixedSumScheme {
            codec,
            scratch: Scratch::default(),
            lanes: Vec::new(),
        }
    }

    pub fn with_scratch(codec: FixedCodec, scratch: Scratch<u64>) -> Self {
        FixedSumScheme {
            codec,
            scratch,
            lanes: Vec::new(),
        }
    }

    pub fn into_scratch(self) -> Scratch<u64> {
        self.scratch
    }
}

// SAFETY: `unmask_into` writes one decoded lane to each element of `dst`,
// whose length it asserts.
unsafe impl Scheme for FixedSumScheme {
    type Input = f64;
    type Wire = u64;
    type Lanes = [u64; 1];

    const NAME: &'static str = "fixed-sum";
    const TABLE2_ROW: usize = 0;

    fn mask_block(
        &mut self,
        keys: &CommKeys,
        first: u64,
        input: &[f64],
        out: &mut Vec<u64>,
    ) -> Result<(), HfpError> {
        self.codec.encode_slice(input, out);
        IntSum::encrypt_in_place(keys, first, out, &mut self.scratch);
        Ok(())
    }

    fn unmask_into(
        &mut self,
        keys: &CommKeys,
        first: u64,
        agg: &[u64],
        dst: &mut [MaybeUninit<f64>],
    ) {
        assert_eq!(agg.len(), dst.len());
        self.lanes.clear();
        IntSum::decrypt_into(keys, first, agg, &mut self.lanes);
        for (d, l) in dst.iter_mut().zip(&self.lanes) {
            d.write(self.codec.decode(*l));
        }
    }

    fn op(a: &u64, b: &u64) -> u64 {
        a.wrapping_add(*b)
    }

    fn digest(&self, x: &f64, out: &mut [u64; DIGEST_LANES]) {
        *out = [self.codec.encode(*x), 0, 0, 0];
    }

    fn digest_check(&self, result: &f64, lane_sums: &[u64; DIGEST_LANES], _world: usize) -> bool {
        self.codec.decode(lane_sums[0]) == *result
    }

    fn noise_width(&self) -> Option<usize> {
        // Fixed-point lanes ride the u64 IntSum cipher.
        Some(std::mem::size_of::<u64>())
    }

    fn cell_encode(x: &f64) -> u64 {
        x.to_bits()
    }

    fn cell_decode(cell: u64) -> f64 {
        f64::from_bits(cell)
    }
}

// ---------------------------------------------------------------------------
// Float schemes
// ---------------------------------------------------------------------------

/// Quantized-digest tolerance: `world` quantization steps plus the
/// scheme's Table 2 relative loss plus an absolute floor.
#[inline]
fn float_digest_ok(result: f64, decoded: f64, world: usize, res: f64, rel: f64, abs: f64) -> bool {
    (decoded - result).abs() <= world as f64 * res + result.abs() * rel + abs
}

/// [`FloatSum`] (Eq. 7, v1) as a [`Scheme`]; minor loss, quantized digest.
pub struct FloatSumScheme {
    inner: FloatSum,
    digest_codec: FixedCodec,
}

impl FloatSumScheme {
    pub fn new(fmt: HfpFormat) -> Self {
        FloatSumScheme {
            inner: FloatSum::new(fmt),
            digest_codec: FixedCodec::new(24),
        }
    }

    pub fn format(&self) -> HfpFormat {
        self.inner.format()
    }
}

// SAFETY: `unmask_into` initialises all of `dst` (the cipher's
// `decrypt_f64_to`).
unsafe impl Scheme for FloatSumScheme {
    type Input = f64;
    type Wire = Hfp;
    type Lanes = [u64; 1];

    const NAME: &'static str = "float-sum-v1";
    const TABLE2_ROW: usize = 3;

    fn mask_block(
        &mut self,
        keys: &CommKeys,
        first: u64,
        input: &[f64],
        out: &mut Vec<Hfp>,
    ) -> Result<(), HfpError> {
        self.inner.encrypt_f64(keys, first, input, out)
    }

    fn unmask_into(
        &mut self,
        keys: &CommKeys,
        first: u64,
        agg: &[Hfp],
        dst: &mut [MaybeUninit<f64>],
    ) {
        self.inner.decrypt_f64_to(keys, first, agg, dst);
    }

    fn op(a: &Hfp, b: &Hfp) -> Hfp {
        FloatSum::combine(a, b)
    }

    fn digest(&self, x: &f64, out: &mut [u64; DIGEST_LANES]) {
        *out = [self.digest_codec.encode(*x), 0, 0, 0];
    }

    fn digest_check(&self, result: &f64, lane_sums: &[u64; DIGEST_LANES], world: usize) -> bool {
        let decoded = self.digest_codec.decode(lane_sums[0]);
        float_digest_ok(
            *result,
            decoded,
            world,
            self.digest_codec.resolution(),
            1e-4,
            1e-9,
        )
    }

    fn cell_encode(x: &f64) -> u64 {
        x.to_bits()
    }

    fn cell_decode(cell: u64) -> f64 {
        f64::from_bits(cell)
    }
}

/// [`FloatSumExp`] (§5.3.4, v2) as a [`Scheme`]; medium loss, so the
/// digest tolerance is looser than v1's.
pub struct FloatSumExpScheme {
    inner: FloatSumExp,
    digest_codec: FixedCodec,
}

impl FloatSumExpScheme {
    pub fn new(fmt: HfpFormat) -> Self {
        FloatSumExpScheme {
            inner: FloatSumExp::new(fmt),
            digest_codec: FixedCodec::new(24),
        }
    }

    pub fn format(&self) -> HfpFormat {
        self.inner.format()
    }
}

// SAFETY: `unmask_into` initialises all of `dst` (the cipher's
// `decrypt_f64_to`).
unsafe impl Scheme for FloatSumExpScheme {
    type Input = f64;
    type Wire = Hfp;
    type Lanes = [u64; 1];

    const NAME: &'static str = "float-sum-v2";
    const TABLE2_ROW: usize = 4;

    fn mask_block(
        &mut self,
        keys: &CommKeys,
        first: u64,
        input: &[f64],
        out: &mut Vec<Hfp>,
    ) -> Result<(), HfpError> {
        self.inner.encrypt_f64(keys, first, input, out)
    }

    fn unmask_into(
        &mut self,
        keys: &CommKeys,
        first: u64,
        agg: &[Hfp],
        dst: &mut [MaybeUninit<f64>],
    ) {
        self.inner.decrypt_f64_to(keys, first, agg, dst);
    }

    fn op(a: &Hfp, b: &Hfp) -> Hfp {
        FloatSumExp::combine(a, b)
    }

    fn digest(&self, x: &f64, out: &mut [u64; DIGEST_LANES]) {
        *out = [self.digest_codec.encode(*x), 0, 0, 0];
    }

    fn digest_check(&self, result: &f64, lane_sums: &[u64; DIGEST_LANES], world: usize) -> bool {
        let decoded = self.digest_codec.decode(lane_sums[0]);
        float_digest_ok(
            *result,
            decoded,
            world,
            self.digest_codec.resolution(),
            1e-3,
            1e-6,
        )
    }

    fn cell_encode(x: &f64) -> u64 {
        x.to_bits()
    }

    fn cell_decode(cell: u64) -> f64 {
        f64::from_bits(cell)
    }
}

/// [`FloatProd`] (Eq. 6) as a [`Scheme`]; minor loss. The digest carries
/// the log-magnitude (products become sums) plus sign and zero counters.
pub struct FloatProdScheme {
    inner: FloatProd,
    digest_codec: FixedCodec,
}

impl FloatProdScheme {
    pub fn new(fmt: HfpFormat) -> Self {
        FloatProdScheme {
            inner: FloatProd::new(fmt),
            digest_codec: FixedCodec::new(32),
        }
    }

    pub fn format(&self) -> HfpFormat {
        self.inner.format()
    }
}

// SAFETY: `unmask_into` initialises all of `dst` (the cipher's
// `decrypt_f64_to`).
unsafe impl Scheme for FloatProdScheme {
    type Input = f64;
    type Wire = Hfp;
    type Lanes = [u64; 2];

    const NAME: &'static str = "float-prod";
    const TABLE2_ROW: usize = 5;

    fn mask_block(
        &mut self,
        keys: &CommKeys,
        first: u64,
        input: &[f64],
        out: &mut Vec<Hfp>,
    ) -> Result<(), HfpError> {
        self.inner.encrypt_f64(keys, first, input, out)
    }

    fn unmask_into(
        &mut self,
        keys: &CommKeys,
        first: u64,
        agg: &[Hfp],
        dst: &mut [MaybeUninit<f64>],
    ) {
        self.inner.decrypt_f64_to(keys, first, agg, dst);
    }

    fn op(a: &Hfp, b: &Hfp) -> Hfp {
        FloatProd::combine(a, b)
    }

    fn digest(&self, x: &f64, out: &mut [u64; DIGEST_LANES]) {
        let is_zero = *x == 0.0;
        let log_mag = if is_zero {
            0
        } else {
            self.digest_codec.encode(x.abs().ln())
        };
        *out = [
            log_mag,
            (x.is_sign_negative() && !is_zero) as u64 | ((is_zero as u64) << 32),
            0,
            0,
        ];
    }

    fn digest_check(&self, result: &f64, lane_sums: &[u64; DIGEST_LANES], world: usize) -> bool {
        let zero_count = lane_sums[1] >> 32;
        if zero_count > 0 {
            // A zero factor annihilates the product; the cipher only
            // approximates zero, so accept any tiny magnitude.
            return result.abs() < 1e-6;
        }
        if *result == 0.0 {
            return false;
        }
        let neg_count = lane_sums[1] & 0xFFFF_FFFF;
        if (*result < 0.0) != (neg_count & 1 == 1) {
            return false;
        }
        let decoded = self.digest_codec.decode(lane_sums[0]);
        float_digest_ok(
            result.abs().ln(),
            decoded,
            world,
            2.0 * self.digest_codec.resolution(),
            0.0,
            1e-4,
        )
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
    use hear_prf::Backend;

    #[test]
    fn cells_round_trip_bit_for_bit() {
        for x in [0u32, 1, 0xdead_beef, u32::MAX] {
            assert_eq!(
                IntSumScheme::<u32>::cell_decode(IntSumScheme::<u32>::cell_encode(&x)),
                x
            );
            assert_eq!(
                IntProdScheme::<u32>::cell_decode(IntProdScheme::<u32>::cell_encode(&x)),
                x
            );
            assert_eq!(
                IntXorScheme::<u32>::cell_decode(IntXorScheme::<u32>::cell_encode(&x)),
                x
            );
        }
        for x in [0.0f64, -0.0, 1.5, -3.25e-7, f64::INFINITY, f64::NAN] {
            // Compare bit patterns so -0.0 and NaN survive exactly.
            let bits = x.to_bits();
            assert_eq!(
                FixedSumScheme::cell_decode(FixedSumScheme::cell_encode(&x)).to_bits(),
                bits
            );
            assert_eq!(
                FloatSumScheme::cell_decode(FloatSumScheme::cell_encode(&x)).to_bits(),
                bits
            );
            assert_eq!(
                FloatSumExpScheme::cell_decode(FloatSumExpScheme::cell_encode(&x)).to_bits(),
                bits
            );
            assert_eq!(
                FloatProdScheme::cell_decode(FloatProdScheme::cell_encode(&x)).to_bits(),
                bits
            );
        }
    }

    /// In-process encrypted allreduce over a [`Scheme`]: every rank masks,
    /// the "network" folds with `S::op`, rank 0 unmasks.
    fn roundtrip<S: Scheme>(
        mk: impl Fn() -> S,
        world: usize,
        data: &[Vec<S::Input>],
    ) -> Vec<S::Input> {
        let keys = CommKeys::generate(world, 0x5eed, Backend::AesSoft);
        let mut agg: Option<Vec<S::Wire>> = None;
        for (rank, k) in keys.iter().enumerate() {
            let mut scheme = mk();
            let mut wire = Vec::new();
            scheme.mask_block(k, 0, &data[rank], &mut wire).unwrap();
            agg = Some(match agg {
                None => wire,
                Some(a) => a.iter().zip(&wire).map(|(x, y)| S::op(x, y)).collect(),
            });
        }
        let mut out = Vec::new();
        mk().unmask_block(&keys[0], 0, &agg.unwrap(), &mut out);
        out
    }

    /// Aggregate digests the way the engine does: lane-wise wrapping sum.
    fn digest_sums<S: Scheme>(scheme: &S, col: &[S::Input]) -> [u64; DIGEST_LANES] {
        let mut sums = [0u64; DIGEST_LANES];
        let mut lanes = [0u64; DIGEST_LANES];
        for x in col {
            scheme.digest(x, &mut lanes);
            for (s, l) in sums.iter_mut().zip(lanes.iter()) {
                *s = s.wrapping_add(*l);
            }
        }
        sums
    }

    #[test]
    fn int_schemes_roundtrip_and_digest() {
        let world = 3;
        let data: Vec<Vec<u32>> = (0..world)
            .map(|r| (0..17).map(|j| (r as u32 + 1) * 1000 + j * 7).collect())
            .collect();
        let sum = roundtrip(IntSumScheme::<u32>::default, world, &data);
        let prod = roundtrip(IntProdScheme::<u32>::default, world, &data);
        let xor = roundtrip(IntXorScheme::<u32>::default, world, &data);
        let s = IntSumScheme::<u32>::default();
        let p = IntProdScheme::<u32>::default();
        let x = IntXorScheme::<u32>::default();
        for j in 0..17 {
            let col: Vec<u32> = data.iter().map(|v| v[j]).collect();
            assert_eq!(
                sum[j],
                col.iter().fold(0u32, |a, b| a.wrapping_add(*b)),
                "sum j={j}"
            );
            assert_eq!(
                prod[j],
                col.iter().fold(1u32, |a, b| a.wrapping_mul(*b)),
                "prod j={j}"
            );
            assert_eq!(xor[j], col.iter().fold(0u32, |a, b| a ^ b), "xor j={j}");
            assert!(s.digest_check(&sum[j], &digest_sums(&s, &col), world));
            assert!(p.digest_check(&prod[j], &digest_sums(&p, &col), world));
            assert!(x.digest_check(&xor[j], &digest_sums(&x, &col), world));
            // Tamper: a flipped result must fail every digest.
            assert!(!s.digest_check(&sum[j].wrapping_add(1), &digest_sums(&s, &col), world));
            assert!(!p.digest_check(&prod[j].wrapping_add(1), &digest_sums(&p, &col), world));
            assert!(!x.digest_check(&(xor[j] ^ 1), &digest_sums(&x, &col), world));
        }
    }

    #[test]
    fn prod_digest_decomposition_is_exact() {
        // Every x < 2^b must satisfy x ≡ (−1)^s 3^e 2^v.
        for bits in [8u32, 16, 32, 64] {
            let mask = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            let samples = [
                0u64,
                1,
                2,
                3,
                5,
                7,
                9,
                1 << (bits - 1),
                mask,
                mask - 1,
                0xdead_beef_cafe_f00d & mask,
                0x1234_5678_9abc_def1 & mask,
            ];
            for &x in &samples {
                let (e, v, s) = prod_digest(x, bits);
                if x == 0 {
                    assert_eq!(v, bits as u64);
                    continue;
                }
                let mut rebuilt = 1u64;
                // 3^e by square-and-multiply on the masked ring.
                let mut base = 3u64 & mask;
                let mut exp = e;
                while exp > 0 {
                    if exp & 1 == 1 {
                        rebuilt = mul_b(rebuilt, base, mask);
                    }
                    base = mul_b(base, base, mask);
                    exp >>= 1;
                }
                if s == 1 {
                    rebuilt = rebuilt.wrapping_neg() & mask;
                }
                rebuilt = mul_b(rebuilt, 1u64 << v, mask);
                assert_eq!(rebuilt, x, "bits={bits} x={x:#x}");
            }
        }
    }

    #[test]
    fn prod_digest_sums_verify_products() {
        // Multi-rank: sums of (e, v, s) lanes must verify the ring product,
        // including even values and a zero.
        let cases: [&[u64]; 4] = [
            &[2, 6, 10],
            &[0xdead_beef, 3, 1 << 40],
            &[0, 5, 9],
            &[u64::MAX, u64::MAX - 1, 12345],
        ];
        let scheme = IntProdScheme::<u64>::default();
        for col in cases {
            let product = col.iter().fold(1u64, |a, b| a.wrapping_mul(*b));
            let sums = digest_sums(&scheme, col);
            assert!(scheme.digest_check(&product, &sums, col.len()));
            assert!(!scheme.digest_check(&product.wrapping_add(2), &sums, col.len()));
        }
    }

    #[test]
    fn xor_digest_narrow_lanes() {
        let s8 = IntXorScheme::<u8>::default();
        let s64 = IntXorScheme::<u64>::default();
        let col8: Vec<u8> = vec![0xFF, 0x0F, 0xAA];
        let col64: Vec<u64> = vec![u64::MAX, 0x0123_4567_89ab_cdef, 1 << 63];
        let x8 = col8.iter().fold(0u8, |a, b| a ^ b);
        let x64 = col64.iter().fold(0u64, |a, b| a ^ b);
        assert!(s8.digest_check(&x8, &digest_sums(&s8, &col8), 3));
        assert!(s64.digest_check(&x64, &digest_sums(&s64, &col64), 3));
        assert!(!s64.digest_check(&(x64 ^ (1 << 63)), &digest_sums(&s64, &col64), 3));
    }

    #[test]
    fn fixed_sum_roundtrip_and_digest() {
        let codec = FixedCodec::new(20);
        let world = 3;
        let data = vec![
            vec![1.25, -3.5, 0.875],
            vec![2.5, 1.0, -0.125],
            vec![-1.0, 0.5, 4.0],
        ];
        let got = roundtrip(|| FixedSumScheme::new(codec), world, &data);
        let scheme = FixedSumScheme::new(codec);
        let expect = [2.75, -2.0, 4.75];
        for j in 0..3 {
            assert!((got[j] - expect[j]).abs() < 1e-5, "j={j}");
            let col: Vec<f64> = data.iter().map(|v| v[j]).collect();
            let sums = digest_sums(&scheme, &col);
            assert!(scheme.digest_check(&got[j], &sums, world));
            assert!(!scheme.digest_check(&(got[j] + 1.0), &sums, world));
        }
    }

    #[test]
    fn float_schemes_roundtrip_and_digest() {
        let world = 3;
        let data = vec![
            vec![1.5, -2.25, 0.003],
            vec![0.5, 4.5, 0.002],
            vec![-1.0, 1.75, -0.001],
        ];
        let sum = roundtrip(|| FloatSumScheme::new(HfpFormat::fp32(2, 2)), world, &data);
        let v2 = roundtrip(
            || FloatSumExpScheme::new(HfpFormat::fp64(0, 0)),
            world,
            &data,
        );
        let s1 = FloatSumScheme::new(HfpFormat::fp32(2, 2));
        let s2 = FloatSumExpScheme::new(HfpFormat::fp64(0, 0));
        for j in 0..3 {
            let col: Vec<f64> = data.iter().map(|v| v[j]).collect();
            let expect: f64 = col.iter().sum();
            assert!(
                (sum[j] - expect).abs() / expect.abs().max(1e-9) < 1e-4,
                "v1 j={j}"
            );
            assert!((v2[j] - expect).abs() < 1e-6, "v2 j={j}");
            assert!(s1.digest_check(&sum[j], &digest_sums(&s1, &col), world));
            assert!(s2.digest_check(&v2[j], &digest_sums(&s2, &col), world));
            assert!(!s1.digest_check(&(sum[j] + 1.0), &digest_sums(&s1, &col), world));
            assert!(!s2.digest_check(&(v2[j] + 1.0), &digest_sums(&s2, &col), world));
        }
        // Product: nonzero inputs of both signs, plus a zero column.
        let pdata = vec![vec![1.5, -2.0, 0.0], vec![2.0, 3.0, 4.0]];
        let prod = roundtrip(|| FloatProdScheme::new(HfpFormat::fp64(0, 0)), 2, &pdata);
        let sp = FloatProdScheme::new(HfpFormat::fp64(0, 0));
        let expects = [3.0, -6.0, 0.0];
        for j in 0..3 {
            let col: Vec<f64> = pdata.iter().map(|v| v[j]).collect();
            assert!(
                (prod[j] - expects[j]).abs() < 1e-5,
                "prod j={j} got {}",
                prod[j]
            );
            let sums = digest_sums(&sp, &col);
            assert!(sp.digest_check(&prod[j], &sums, 2), "j={j}");
        }
        // Tamper on the nonzero columns: sign flip and magnitude change.
        let col: Vec<f64> = pdata.iter().map(|v| v[1]).collect();
        let sums = digest_sums(&sp, &col);
        assert!(!sp.digest_check(&6.0, &sums, 2), "sign flip must fail");
        assert!(!sp.digest_check(&-12.0, &sums, 2), "magnitude must fail");
    }

    /// The invariant that makes dropping unsent lanes sound: a scheme's
    /// digest never writes past the lane count it declares, and (so the
    /// declaration is not padded) it does use its last declared lane.
    fn lanes_match_declaration<S: Scheme>(scheme: &S, draw: impl Fn(u64) -> S::Input) {
        let mut rng = proptest::TestRng::new(0x1A9E5);
        let mut top_lane_used = false;
        for _ in 0..10_000 {
            let mut lanes = [u64::MAX; DIGEST_LANES];
            scheme.digest(&draw(rng.next_u64()), &mut lanes);
            let (used, rest) = lanes.split_at(S::Lanes::LANES);
            assert!(rest.iter().all(|l| *l == 0), "{}: {lanes:x?}", S::NAME);
            top_lane_used |= used[S::Lanes::LANES - 1] != 0;
        }
        assert!(top_lane_used, "{} declares a lane it never fills", S::NAME);
    }

    #[test]
    fn declared_lane_counts_match_what_digests_write() {
        let float = |bits: u64| (bits as i64 as f64) * 2f64.powi(-40);
        lanes_match_declaration(&IntSumScheme::<u8>::default(), |b| b as u8);
        lanes_match_declaration(&IntSumScheme::<u64>::default(), |b| b);
        lanes_match_declaration(&IntProdScheme::<u16>::default(), |b| b as u16);
        lanes_match_declaration(&IntProdScheme::<u64>::default(), |b| b);
        lanes_match_declaration(&IntXorScheme::<u64>::default(), |b| b);
        lanes_match_declaration(&FixedSumScheme::new(FixedCodec::new(20)), float);
        lanes_match_declaration(&FloatSumScheme::new(HfpFormat::fp32(2, 2)), float);
        lanes_match_declaration(&FloatSumExpScheme::new(HfpFormat::fp64(0, 0)), float);
        lanes_match_declaration(&FloatProdScheme::new(HfpFormat::fp64(0, 0)), float);
        // Narrow XOR words leave high lanes empty but share the 4-lane shape.
        assert_eq!(<IntXorScheme<u8> as Scheme>::Lanes::LANES, DIGEST_LANES);
    }

    #[test]
    fn mask_blocks_compose_across_offsets() {
        // Engine pipelining masks per block; per-block masking at offsets
        // must equal whole-vector masking for a wire-format scheme too.
        let keys = CommKeys::generate(2, 0xabc, Backend::AesSoft);
        let mut scheme = FloatSumScheme::new(HfpFormat::fp32(2, 2));
        let x: Vec<f64> = (1..=8).map(f64::from).collect();
        let mut whole = Vec::new();
        scheme.mask_block(&keys[0], 0, &x, &mut whole).unwrap();
        let (mut p1, mut p2) = (Vec::new(), Vec::new());
        scheme.mask_block(&keys[0], 0, &x[..3], &mut p1).unwrap();
        scheme.mask_block(&keys[0], 3, &x[3..], &mut p2).unwrap();
        assert_eq!(&whole[..3], &p1[..]);
        assert_eq!(&whole[3..], &p2[..]);
    }

    #[test]
    fn slice_forms_equal_block_forms() {
        // The slice forms must mask exactly like the block forms, past a
        // tile boundary of the float loop and for the integer kernels.
        let keys = CommKeys::generate(2, 0x51ce, Backend::AesSoft);

        let mut fscheme = FloatSumScheme::new(HfpFormat::fp32(2, 2));
        let fx: Vec<f64> = (0..300).map(|i| f64::from(i) * 0.25 - 30.0).collect();
        let (mut by_block, mut by_slice) = (Vec::new(), Vec::new());
        fscheme.mask_block(&keys[0], 3, &fx, &mut by_block).unwrap();
        fscheme.mask_slice(&keys[0], 3, &fx, &mut by_slice).unwrap();
        assert_eq!(by_block, by_slice);
        let (mut un_block, mut un_slice) = (Vec::new(), Vec::new());
        fscheme.unmask_block(&keys[0], 3, &by_block, &mut un_block);
        fscheme.unmask_slice(&keys[0], 3, &by_block, &mut un_slice);
        assert_eq!(un_block, un_slice);

        let mut ischeme = IntSumScheme::<u32>::default();
        let ix: Vec<u32> = (0..500u32).map(|i| i.wrapping_mul(977)).collect();
        let (mut by_block, mut by_slice) = (Vec::new(), Vec::new());
        ischeme.mask_block(&keys[1], 7, &ix, &mut by_block).unwrap();
        ischeme.mask_slice(&keys[1], 7, &ix, &mut by_slice).unwrap();
        assert_eq!(by_block, by_slice);
    }

    #[test]
    fn unmask_extend_appends_and_the_block_forms_clear() {
        // The engine appends blocks as they drain: what `out` already holds
        // must survive, bit for bit, for every scheme; the `unmask_block` /
        // `unmask_slice` wrappers keep their cleared-and-filled contract.
        fn check<S: Scheme>(mut scheme: S, data: Vec<S::Input>) {
            let cells = |v: &[S::Input]| v.iter().map(S::cell_encode).collect::<Vec<u64>>();
            let keys = &CommKeys::generate(1, 0xE47, Backend::AesSoft)[0];
            let mut wire = Vec::new();
            scheme.mask_block(keys, 3, &data, &mut wire).unwrap();
            let mut fresh = Vec::new();
            scheme.unmask_block(keys, 3, &wire, &mut fresh);
            assert_eq!(fresh.len(), data.len(), "{}", S::NAME);

            let mut out = data[..2].to_vec();
            scheme.unmask_extend(keys, 3, &wire, &mut out);
            assert_eq!(cells(&out[..2]), cells(&data[..2]), "{} prefix", S::NAME);
            assert_eq!(cells(&out[2..]), cells(&fresh), "{} tail", S::NAME);

            scheme.unmask_block(keys, 3, &wire, &mut out);
            assert_eq!(cells(&out), cells(&fresh), "{} unmask_block", S::NAME);
            out.truncate(1);
            scheme.unmask_slice(keys, 3, &wire, &mut out);
            assert_eq!(cells(&out), cells(&fresh), "{} unmask_slice", S::NAME);

            // The positional primitive, the way the ring engine drives it:
            // uneven chunks of the block, last chunk first, each into its
            // own place in the spare capacity, committed once at the end.
            let mut out = data[..2].to_vec();
            out.reserve(wire.len());
            let cuts = [0, 1, 100, 257, wire.len()];
            for w in cuts.windows(2).rev() {
                let dst = &mut out.spare_capacity_mut()[w[0]..w[1]];
                scheme.unmask_into(keys, 3 + w[0] as u64, &wire[w[0]..w[1]], dst);
            }
            // SAFETY: the chunks above cover `0..wire.len()` of the spare
            // capacity and `unmask_into` initialises all it is given.
            unsafe { out.set_len(2 + wire.len()) };
            assert_eq!(cells(&out[..2]), cells(&data[..2]), "{} prefix", S::NAME);
            assert_eq!(cells(&out[2..]), cells(&fresh), "{} positional", S::NAME);
        }
        let ints: Vec<u32> = (0..300u32).map(|i| i.wrapping_mul(977) | 1).collect();
        let floats: Vec<f64> = (0..300).map(|i| f64::from(i) * 0.125 + 0.5).collect();
        check(IntSumScheme::<u32>::default(), ints.clone());
        check(IntProdScheme::<u32>::default(), ints.clone());
        check(IntXorScheme::<u32>::default(), ints);
        check(FixedSumScheme::new(FixedCodec::new(20)), floats.clone());
        check(FloatSumScheme::new(HfpFormat::fp32(2, 2)), floats.clone());
        check(
            FloatSumExpScheme::new(HfpFormat::fp64(0, 0)),
            floats.clone(),
        );
        check(FloatProdScheme::new(HfpFormat::fp64(0, 0)), floats);
    }

    #[test]
    fn a_failed_mask_leaves_the_wire_buffer_empty() {
        // The engine reuses `wire` across blocks and attempts: an encode
        // error must not leave a prefix of a ciphertext (or the previous
        // block) in it, through either entry point of any float scheme.
        fn check<S: Scheme<Input = f64, Wire = Hfp>>(mut scheme: S, bad: f64) {
            let keys = CommKeys::generate(2, 0xE77, Backend::AesSoft);
            let mut x = vec![0.5; 300];
            let mut wire = Vec::new();
            scheme.mask_slice(&keys[0], 0, &x, &mut wire).unwrap();
            assert_eq!(wire.len(), 300);
            x[280] = bad;
            assert!(scheme.mask_block(&keys[0], 0, &x, &mut wire).is_err());
            assert!(
                wire.is_empty(),
                "{}: mask_block left {}",
                S::NAME,
                wire.len()
            );
            wire.push(Hfp::one(4, 4));
            assert!(scheme.mask_slice(&keys[0], 0, &x, &mut wire).is_err());
            assert!(
                wire.is_empty(),
                "{}: mask_slice left {}",
                S::NAME,
                wire.len()
            );
        }
        check(FloatSumScheme::new(HfpFormat::fp32(2, 2)), f64::NAN);
        check(FloatSumScheme::new(HfpFormat::fp32(2, 2)), 1e300);
        check(FloatProdScheme::new(HfpFormat::fp32(0, 0)), f64::INFINITY);
        check(FloatSumExpScheme::new(HfpFormat::fp64(0, 0)), 1000.0);
    }

    #[test]
    fn noise_width_matches_prefetchability() {
        assert_eq!(IntSumScheme::<u16>::default().noise_width(), Some(2));
        assert_eq!(IntXorScheme::<u64>::default().noise_width(), Some(8));
        assert_eq!(IntProdScheme::<u32>::default().noise_width(), None);
        assert_eq!(
            FixedSumScheme::new(FixedCodec::new(20)).noise_width(),
            Some(8)
        );
        assert_eq!(
            FloatSumScheme::new(HfpFormat::fp32(2, 2)).noise_width(),
            None
        );
    }

    #[test]
    fn scratch_handoff_roundtrips() {
        let scratch = Scratch::<u32>::with_capacity(16);
        let scheme = IntSumScheme::with_scratch(scratch);
        let _back: Scratch<u32> = scheme.into_scratch();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prod_digest_random_u64(x in any::<u64>()) {
            let (e, v, s) = prod_digest(x, 64);
            if x == 0 {
                prop_assert_eq!(v, 64);
            } else {
                let mut rebuilt = 3u64.wpow(e);
                if s == 1 { rebuilt = rebuilt.wrapping_neg(); }
                prop_assert_eq!(rebuilt.wrapping_mul(1u64 << v), x);
            }
        }

        #[test]
        fn prod_digest_random_pairs_multiply(a in any::<u32>(), b in any::<u32>()) {
            let scheme = IntProdScheme::<u32>::default();
            let mut la = [0u64; DIGEST_LANES];
            let mut lb = [0u64; DIGEST_LANES];
            scheme.digest(&a, &mut la);
            scheme.digest(&b, &mut lb);
            let sums = [
                la[0].wrapping_add(lb[0]),
                la[1].wrapping_add(lb[1]),
                la[2].wrapping_add(lb[2]),
                0,
            ];
            prop_assert!(scheme.digest_check(&a.wrapping_mul(b), &sums, 2));
        }

        #[test]
        fn xor_digest_random(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
            let scheme = IntXorScheme::<u64>::default();
            let mut sums = [0u64; DIGEST_LANES];
            let mut lanes = [0u64; DIGEST_LANES];
            for x in [a, b, c] {
                scheme.digest(&x, &mut lanes);
                for (s, l) in sums.iter_mut().zip(lanes.iter()) {
                    *s = s.wrapping_add(*l);
                }
            }
            prop_assert!(scheme.digest_check(&(a ^ b ^ c), &sums, 3));
        }
    }
}

//! The scheme abstraction behind the single allreduce engine.
//!
//! The paper's libhear exposes one interposed `MPI_Allreduce` and picks the
//! cipher internally (§5, Table 2). This module gives that choice a type:
//! a [`Scheme`] turns a plaintext slice into wire values (`mask_slice`),
//! recovers plaintexts from an aggregated wire slice (`unmask_into`,
//! `unmask_slice`) and names the associative operation the untrusted
//! network applies (`op`). Each Table 2 cipher is written once, as its
//! `Scheme` impl next to its kernels: the integer ciphers in [`crate::int`],
//! the fixed-point sum in [`crate::fixed`], the float ciphers in
//! [`crate::float`].
//! Everything else — reduction algorithm, blocked/pipelined chunking,
//! HoMAC verification — composes orthogonally on top in the layer crate's
//! engine, so a cell like "verified pipelined float sum on a switch tree"
//! needs no hand-rolled method.
//!
//! For verified mode every scheme also defines a *digest*: up to four `u64`
//! summation words per element that (a) ride the HoMAC's field lanes
//! regardless of the payload cipher and (b) let the receiver re-check the
//! decrypted result against the authenticated sums. Integer and
//! fixed-point digests are exact; float digests are quantized with the
//! scheme's Table 2 lossiness tolerance. A word travels as its two 32-bit
//! halves ([`split_lanes`]), each a lane of its own, and each scheme
//! states how many of those eight lanes it fills ([`Scheme::Lanes`]); the
//! engine seals, ships and verifies only those.

use crate::keys::CommKeys;
use hear_hfp::HfpError;
use hear_prf::BlockArray;

/// Number of `u64` digest words per element in verified mode.
pub const DIGEST_LANES: usize = 4;

/// PRF index base for the digest side-channel: the `L` used lanes of
/// element `j` are sealed at HoMAC PRF indices `DIGEST_BASE + j·L + lane`,
/// far above any element index, so lane blocks never meet the blocks of
/// ring-word tags a program computes at element indices in the same epoch.
pub const DIGEST_BASE: u64 = 1 << 48;

/// The lanes a scheme actually fills, as the array the engine's packets
/// carry: `[u64; 1]` … `[u64; 2·DIGEST_LANES]`, one field element per
/// 32-bit half of a digest word. (An associated type rather than a const
/// because stable Rust cannot size an array by `S::LANES`.)
pub trait LaneArray:
    Copy + Send + Sync + PartialEq + std::fmt::Debug + AsRef<[u64]> + AsMut<[u64]> + 'static
{
    /// Number of lanes, `1..=2·DIGEST_LANES`.
    const LANES: usize;
    /// All lanes zero.
    const ZERO: Self;
    /// One PRF block per lane, `[u128; LANES]`: what an element of the
    /// HoMAC lane pass draws from each stream.
    type Blocks: BlockArray + AsRef<[u128]>;
}

macro_rules! impl_lane_array {
    ($($n:literal),+) => {$(
        impl LaneArray for [u64; $n] {
            const LANES: usize = $n;
            const ZERO: Self = [0; $n];
            type Blocks = [u128; $n];
        }
    )+};
}
impl_lane_array!(1, 2, 3, 4, 5, 6, 7, 8);

/// A digest's words as lanes: lane `2w` is `lo32(words[w])`, lane `2w + 1`
/// is `hi32(words[w])`. Each lane is below 2³², so `world` ranks' lane
/// sum is an exact integer below `p = 2⁶¹ − 1` for `world < 2²⁹`.
pub fn split_lanes(words: &[u64; DIGEST_LANES]) -> [u64; 2 * DIGEST_LANES] {
    let mut lanes = [0; 2 * DIGEST_LANES];
    for (pair, w) in lanes.chunks_exact_mut(2).zip(words) {
        pair.copy_from_slice(&[w & 0xFFFF_FFFF, w >> 32]);
    }
    lanes
}

/// The inverse of [`split_lanes`] on lane *sums* (a prefix; missing lanes
/// are zero): word `w` is `lanes[2w] + (lanes[2w + 1] ≪ 32)`, wrapping —
/// exactly the wrapping sum of the words the lanes came from.
pub fn join_lanes(lanes: &[u64]) -> [u64; DIGEST_LANES] {
    let mut words = [0; DIGEST_LANES];
    for (w, pair) in words.iter_mut().zip(lanes.chunks(2)) {
        *w = pair[0].wrapping_add(pair.get(1).map_or(0, |hi| hi << 32));
    }
    words
}

/// A HEAR cipher as seen by the generic allreduce engine.
///
/// `mask_slice`/`unmask_into` are block-composable: masking `[a, b]` at
/// `first` and `[c]` at `first + 2` must equal masking `[a, b, c]` at
/// `first` (pipelining and the ring's per-chunk masking rely on this), and
/// likewise for unmasking.
///
/// A pass's worker threads share the scheme and read its elements in place
/// (a [`hear_prf::Source`]): `Sync` all through, the elements `Copy`.
pub trait Scheme: Sync {
    /// Caller-facing element type.
    type Input: Copy + Send + Sync + 'static;
    /// On-the-wire element type the network reduces.
    type Wire: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static;
    /// The prefix of the digest's lanes ([`split_lanes`]) this scheme
    /// uses: [`Scheme::digest`] must leave every lane at or past
    /// `Lanes::LANES` zero, which is what lets the engine drop them from
    /// the verified packet.
    type Lanes: LaneArray;

    /// Stable name for telemetry and the composition matrix.
    const NAME: &'static str;
    /// Row of [`crate::properties::TABLE2`] describing this scheme.
    const TABLE2_ROW: usize;
    /// Largest world size the digest stays sound for: the world whose
    /// honest lane sums stay exact in the HoMAC field (`world·2³² < p`,
    /// `world < 2²⁹`), lower where the digest itself saturates first (only
    /// [`IntXorScheme`](crate::IntXorScheme)'s nibble counters do).
    const MAX_VERIFIED_WORLD: usize = (1 << 29) - 1;

    /// Encrypt a slice of any length into `out`, cleared and filled;
    /// element `j` of the global vector is `input[j - first]`. On `Err` (a
    /// value the cipher cannot encode), `out` is empty — never a prefix of
    /// a ciphertext.
    fn mask_slice(
        &mut self,
        keys: &CommKeys,
        first: u64,
        input: &[Self::Input],
        out: &mut Vec<Self::Wire>,
    ) -> Result<(), HfpError>;

    /// Decrypt one aggregated block into `dst`, which has `agg`'s length
    /// and whose old contents are overwritten unread — the positional
    /// primitive: the engine points it at the block's place in the caller's
    /// result vector, so ring chunks can be decrypted as they arrive, in any
    /// order. Panics if the lengths differ.
    fn unmask_into(
        &mut self,
        keys: &CommKeys,
        first: u64,
        agg: &[Self::Wire],
        dst: &mut [Self::Input],
    );

    /// Decrypt an aggregated slice of any length into `out`, which ends
    /// exactly `agg.len()` long: [`Scheme::unmask_into`] on `out` resized.
    /// An `out` that enters at that length is only overwritten.
    fn unmask_slice(
        &mut self,
        keys: &CommKeys,
        first: u64,
        agg: &[Self::Wire],
        out: &mut Vec<Self::Input>,
    ) {
        out.resize(agg.len(), Self::cell_decode(0));
        self.unmask_into(keys, first, agg, out);
    }

    /// The associative combiner the (untrusted) network applies. An
    /// associated function — `S::op` is a plain `fn` pointer, which every
    /// transport (including the switch tree's service threads) can carry.
    fn op(a: &Self::Wire, b: &Self::Wire) -> Self::Wire;

    /// Fill the four digest words for one plaintext element. The words
    /// reach [`Scheme::digest_check`] summed across ranks with wrapping
    /// `u64` addition.
    fn digest(&self, x: &Self::Input, out: &mut [u64; DIGEST_LANES]);

    /// The lanes of `x`'s digest this scheme fills ([`split_lanes`]).
    #[inline(always)]
    fn digest_lanes(&self, x: &Self::Input) -> Self::Lanes {
        let (mut words, mut lanes) = ([0u64; DIGEST_LANES], Self::Lanes::ZERO);
        self.digest(x, &mut words);
        lanes
            .as_mut()
            .copy_from_slice(&split_lanes(&words)[..Self::Lanes::LANES]);
        lanes
    }

    /// Check a decrypted result element against the aggregated lane sums.
    fn digest_check(
        &self,
        result: &Self::Input,
        lane_sums: &[u64; DIGEST_LANES],
        world: usize,
    ) -> bool;

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

/// In-process encrypted allreduce for the unit tests: rank `r` (holding
/// `keys[r]`) masks `data[r]` with a fresh `mk()`, the "network" folds the
/// wires with `S::op`, rank 0 unmasks.
#[cfg(test)]
pub(crate) fn reduce_in_process<S: Scheme>(
    mk: impl Fn() -> S,
    keys: &[CommKeys],
    data: &[Vec<S::Input>],
) -> Vec<S::Input> {
    let mut agg: Option<Vec<S::Wire>> = None;
    for (k, x) in keys.iter().zip(data) {
        let mut wire = Vec::new();
        mk().mask_slice(k, 0, x, &mut wire).unwrap();
        agg = Some(match agg {
            None => wire,
            Some(a) => a.iter().zip(&wire).map(|(x, y)| S::op(x, y)).collect(),
        });
    }
    let mut out = Vec::new();
    mk().unmask_slice(&keys[0], 0, &agg.unwrap_or_default(), &mut out);
    out
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        FixedCodec, FixedSumScheme, FloatProdScheme, FloatSumExpScheme, FloatSumScheme,
        IntProdScheme, IntSumScheme, IntXorScheme,
    };
    use hear_hfp::{Hfp, HfpFormat};
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

    /// In-process encrypted allreduce over a [`Scheme`] under fixed keys.
    fn roundtrip<S: Scheme>(
        mk: impl Fn() -> S,
        world: usize,
        data: &[Vec<S::Input>],
    ) -> Vec<S::Input> {
        let keys = CommKeys::generate(world, 0x5eed, Backend::AesSoft);
        reduce_in_process(mk, &keys, data)
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
            let mut words = [u64::MAX; DIGEST_LANES];
            scheme.digest(&draw(rng.next_u64()), &mut words);
            let lanes = split_lanes(&words);
            assert_eq!(join_lanes(&lanes), words);
            let (used, rest) = lanes.split_at(S::Lanes::LANES);
            assert!(rest.iter().all(|l| *l == 0), "{}: {lanes:x?}", S::NAME);
            top_lane_used |= used[S::Lanes::LANES - 1] != 0;
        }
        assert!(top_lane_used, "{} declares a lane it never fills", S::NAME);
    }

    #[test]
    fn declared_lane_counts_match_what_digests_write() {
        // Zero one draw in 64: float-prod's zero counter is its top lane.
        let float = |bits: u64| match bits % 64 {
            0 => 0.0,
            _ => (bits as i64 as f64) * 2f64.powi(-40),
        };
        lanes_match_declaration(&IntSumScheme::<u8>::default(), |b| b as u8);
        lanes_match_declaration(&IntSumScheme::<u64>::default(), |b| b);
        lanes_match_declaration(&IntProdScheme::<u16>::default(), |b| b as u16);
        lanes_match_declaration(&IntProdScheme::<u64>::default(), |b| b);
        lanes_match_declaration(&IntXorScheme::<u64>::default(), |b| b);
        lanes_match_declaration(&FixedSumScheme::new(FixedCodec::new(20)), float);
        lanes_match_declaration(&FloatSumScheme::new(HfpFormat::fp32(2, 2)), float);
        lanes_match_declaration(&FloatSumExpScheme::new(HfpFormat::fp64(0, 0)), float);
        lanes_match_declaration(&FloatProdScheme::new(HfpFormat::fp64(0, 0)), float);
        // Narrow XOR words leave high lanes empty but share the 8-lane shape.
        assert_eq!(<IntXorScheme<u8> as Scheme>::Lanes::LANES, 2 * DIGEST_LANES);
        // Narrow sum words fill one lane, 64-bit ones both halves.
        assert_eq!(<IntSumScheme<u32> as Scheme>::Lanes::LANES, 1);
    }

    #[test]
    fn mask_blocks_compose_across_offsets() {
        // Engine pipelining masks per block; per-block masking at offsets
        // must equal whole-vector masking for a wire-format scheme too.
        let keys = CommKeys::generate(2, 0xabc, Backend::AesSoft);
        let mut scheme = FloatSumScheme::new(HfpFormat::fp32(2, 2));
        let x: Vec<f64> = (1..=8).map(f64::from).collect();
        let mut whole = Vec::new();
        scheme.mask_slice(&keys[0], 0, &x, &mut whole).unwrap();
        let (mut p1, mut p2) = (Vec::new(), Vec::new());
        scheme.mask_slice(&keys[0], 0, &x[..3], &mut p1).unwrap();
        scheme.mask_slice(&keys[0], 3, &x[3..], &mut p2).unwrap();
        assert_eq!(&whole[..3], &p1[..]);
        assert_eq!(&whole[3..], &p2[..]);
    }

    #[test]
    fn unmask_extend_appends_and_the_block_forms_clear() {
        // The engine writes blocks into their places as they drain: what
        // `out` holds outside the block must survive, bit for bit, for every
        // scheme; `unmask_slice` leaves exactly the block, whatever `out`
        // held.
        fn check<S: Scheme>(mut scheme: S, data: Vec<S::Input>) {
            let cells = |v: &[S::Input]| v.iter().map(S::cell_encode).collect::<Vec<u64>>();
            let keys = &CommKeys::generate(1, 0xE47, Backend::AesSoft)[0];
            let mut wire = Vec::new();
            scheme.mask_slice(keys, 3, &data, &mut wire).unwrap();
            let mut fresh = Vec::new();
            scheme.unmask_slice(keys, 3, &wire, &mut fresh);
            assert_eq!(fresh.len(), data.len(), "{}", S::NAME);

            let mut out = data[..2].to_vec();
            scheme.unmask_slice(keys, 3, &wire, &mut out);
            assert_eq!(cells(&out), cells(&fresh), "{} unmask_slice", S::NAME);

            // The positional primitive, the way the ring engine drives it:
            // uneven chunks of the block, last chunk first, each into its
            // own place in a sized `out` that holds stale values.
            let mut out = data[..2].to_vec();
            out.resize(2 + wire.len(), data[2]);
            let cuts = [0, 1, 100, 257, wire.len()];
            for w in cuts.windows(2).rev() {
                let dst = &mut out[2 + w[0]..2 + w[1]];
                scheme.unmask_into(keys, 3 + w[0] as u64, &wire[w[0]..w[1]], dst);
            }
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
        // block) in it, for any float scheme.
        fn check<S: Scheme<Input = f64, Wire = Hfp>>(mut scheme: S, bad: f64) {
            let keys = CommKeys::generate(2, 0xE77, Backend::AesSoft);
            let mut x = vec![0.5; 300];
            let mut wire = Vec::new();
            scheme.mask_slice(&keys[0], 0, &x, &mut wire).unwrap();
            assert_eq!(wire.len(), 300);
            x[280] = bad;
            assert!(scheme.mask_slice(&keys[0], 0, &x, &mut wire).is_err());
            assert!(wire.is_empty(), "{}: left {}", S::NAME, wire.len());
        }
        check(FloatSumScheme::new(HfpFormat::fp32(2, 2)), f64::NAN);
        check(FloatSumScheme::new(HfpFormat::fp32(2, 2)), 1e300);
        check(FloatProdScheme::new(HfpFormat::fp32(0, 0)), f64::INFINITY);
        check(FloatSumExpScheme::new(HfpFormat::fp64(0, 0)), 1000.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::word::RingWord;
    use crate::{
        FixedCodec, FixedSumScheme, FloatProdScheme, FloatSumExpScheme, FloatSumScheme,
        IntProdScheme, IntSumScheme, IntXorScheme,
    };
    use hear_hfp::HfpFormat;
    use hear_prf::Backend;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use proptest::TestRng;

    /// Elements per contract check: past two 256-element tiles of the
    /// float and product passes.
    const N: usize = 600;

    /// The block contract of [`Scheme`] for one impl, at every rank
    /// position of a world-3 key set (first, middle, last — the product and
    /// XOR ciphers mask differently on the last rank):
    ///
    /// 1. masking `x[..split]` at `first` and `x[split..]` at
    ///    `first + split` gives the wire of `x` at `first`; unmasking the
    ///    two halves gives the plaintext of the whole, through
    ///    `unmask_slice` and through `unmask_into` on windows of a sized
    ///    `out` filled last window first, as the ring engine drives it;
    /// 2. `unmask_slice` leaves exactly `agg.len()` elements, whatever
    ///    `out` held;
    /// 3. each value of `bad` at `x[split]` fails `mask_slice` and leaves
    ///    `out` empty.
    ///
    /// Plaintexts are compared through `cell_encode`, bit for bit.
    fn keeps_the_contract<S: Scheme>(
        mut scheme: S,
        seed: u64,
        first: u64,
        split: usize,
        draw: impl Fn(u64) -> S::Input,
        bad: &[S::Input],
    ) -> Result<(), TestCaseError> {
        let mut rng = TestRng::new(seed);
        let x: Vec<S::Input> = (0..N).map(|_| draw(rng.next_u64())).collect();
        let cells = |v: &[S::Input]| v.iter().map(S::cell_encode).collect::<Vec<u64>>();
        let name = S::NAME;
        for keys in CommKeys::generate(3, seed, Backend::best_available()) {
            let (mut wire, mut head, mut tail) = (Vec::new(), Vec::new(), Vec::new());
            scheme.mask_slice(&keys, first, &x, &mut wire).unwrap();
            scheme
                .mask_slice(&keys, first, &x[..split], &mut head)
                .unwrap();
            scheme
                .mask_slice(&keys, first + split as u64, &x[split..], &mut tail)
                .unwrap();
            head.extend_from_slice(&tail);
            prop_assert_eq!(&head, &wire, "{} mask split at {}", name, split);

            let mut whole = x[..3].to_vec();
            scheme.unmask_slice(&keys, first, &wire, &mut whole);
            prop_assert_eq!(whole.len(), N, "{} unmask_slice length", name);
            let (mut head, mut tail) = (x[..1].to_vec(), Vec::new());
            scheme.unmask_slice(&keys, first, &wire[..split], &mut head);
            scheme.unmask_slice(&keys, first + split as u64, &wire[split..], &mut tail);
            prop_assert_eq!(head.len(), split, "{} unmask_slice length", name);
            head.extend_from_slice(&tail);
            prop_assert_eq!(
                cells(&head),
                cells(&whole),
                "{} unmask split at {}",
                name,
                split
            );

            let mut out = x[..2].to_vec();
            out.resize(2 + N, x[2]);
            let cuts = [0, split / 2, split, N];
            for w in cuts.windows(2).rev() {
                let dst = &mut out[2 + w[0]..2 + w[1]];
                scheme.unmask_into(&keys, first + w[0] as u64, &wire[w[0]..w[1]], dst);
            }
            prop_assert_eq!(cells(&out[..2]), cells(&x[..2]), "{} prefix", name);
            prop_assert_eq!(cells(&out[2..]), cells(&whole), "{} positional", name);

            for b in bad {
                let mut x = x.clone();
                x[split.min(N - 1)] = *b;
                let mut out = wire.clone();
                prop_assert!(scheme.mask_slice(&keys, first, &x, &mut out).is_err());
                prop_assert!(out.is_empty(), "{}: {} elements left", name, out.len());
            }
        }
        Ok(())
    }

    /// Ring words of every width, zeros and even values included.
    fn word<W: RingWord>(bits: u64) -> W {
        W::from_u64_trunc(bits)
    }

    /// Plaintexts for the fp64 layouts: ±0, f64 subnormals (which clamp to
    /// the layout's smallest magnitude), `f64::MAX` and normal values.
    fn float(bits: u64) -> f64 {
        match bits % 16 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(bits >> 12),
            3 => f64::MAX,
            _ => (bits as i64 as f64) * 2f64.powi(-40),
        }
    }

    const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// [`keeps_the_contract`] over all seven impls (the integer ones
        /// at several widths), any offset and any split.
        #[test]
        fn every_scheme_keeps_the_block_contract(
            seed in any::<u64>(),
            first in 0u64..1 << 40,
            split in 0usize..=N,
        ) {
            keeps_the_contract(IntSumScheme::<u8>::default(), seed, first, split, word, &[])?;
            keeps_the_contract(IntSumScheme::<u64>::default(), seed, first, split, word, &[])?;
            keeps_the_contract(IntProdScheme::<u16>::default(), seed, first, split, word, &[])?;
            keeps_the_contract(IntProdScheme::<u64>::default(), seed, first, split, word, &[])?;
            keeps_the_contract(IntXorScheme::<u32>::default(), seed, first, split, word, &[])?;
            let fixed = FixedSumScheme::new(FixedCodec::new(20));
            let small = |bits: u64| (bits as i64 as f64) * 2f64.powi(-60);
            keeps_the_contract(fixed, seed, first, split, small, &[])?;
            let sum = FloatSumScheme::new(HfpFormat::fp64(2, 2));
            keeps_the_contract(sum, seed, first, split, float, &NON_FINITE)?;
            let prod = FloatProdScheme::new(HfpFormat::fp64(0, 0));
            keeps_the_contract(prod, seed, first, split, float, &NON_FINITE)?;
            // e^x must stay inside the layout: |x| < 8, and e^1000 does not.
            let sum_exp = FloatSumExpScheme::new(HfpFormat::fp64(0, 0));
            keeps_the_contract(sum_exp, seed, first, split, small, &[f64::NAN, 1000.0])?;
        }
    }
}

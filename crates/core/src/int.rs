//! Integer schemes (paper §5.1): SUM on the additive ring (Eq. 1), PROD on
//! the multiplicative subgroup (Eq. 2), XOR (Eq. 3). All three are
//! lossless, have zero ciphertext inflation and are IND-CPA secure given a
//! secure PRF with unique inputs.
//!
//! Each scheme uses the *cancelling technique* (§5.1.4): rank `i < P−1`
//! folds in the inverse of rank `i+1`'s noise so that aggregation
//! telescopes to rank 0's noise alone, making decryption Θ(1). The
//! non-cancelling variant of Fig. 1 is provided as [`NaiveIntSum`] for the
//! ablation benchmark (its decryption is Θ(P)).

use crate::keys::{CommKeys, KeyRegistry};
use crate::scheme::{prod_digest, Scheme, DIGEST_LANES};
use crate::word::RingWord;
use hear_hfp::HfpError;
use hear_prf::{par_fused_pass, Payload, Stream, WorkerPool};
use std::marker::PhantomData;

/// Fold the noise streams at `bases` into a payload — in place, appended
/// to a `Vec`, or into a slice of the payload's length — with **one**
/// fused pass:
/// `dst[i] ← f(src[i], [A[first + i], B[first + i]])`, each payload word
/// read once and written once however many streams fold into it. Every
/// stream is generated inside the pass, and the kernel accounts it.
///
/// The pass goes through `hear-prf::par`: large buffers are cut at
/// PRF-block boundaries and masked across the shared worker pool
/// (bit-identical by pad purity in `(epoch, offset)`), while small buffers
/// and single-thread budgets run the one shard inline.
fn fused_pass<W: RingWord, const N: usize>(
    keys: &CommKeys,
    bases: [u128; N],
    first: u64,
    payload: Payload<'_, W>,
    f: impl Fn(W, [W; N]) -> W + Copy + Send + Sync,
) {
    let streams = bases.map(|base| Stream {
        prf: keys.prf(),
        base,
    });
    WorkerPool::with_current(|pool| par_fused_pass(pool, &streams, first, payload, f));
}

/// An empty placeholder: no cipher stages a keystream. [`IntSum`]'s
/// in-place pair takes a `&mut Scratch` only because the standalone
/// `bench/` harness calls it with one.
pub struct Scratch<W>(PhantomData<W>);

impl<W: RingWord> Default for Scratch<W> {
    fn default() -> Self {
        Scratch(PhantomData)
    }
}

/// Integer summation, Eq. (1): the kernels under [`IntSumScheme`], plus an
/// in-place pair — the one cipher surface left outside a [`Scheme`] impl.
/// The pair stays because the standalone `bench/` package's staged
/// pipeline (`bench/src/staged.rs`) calls it; the ablation and HoMAC
/// benchmarks use it too. Once those run on `IntSumScheme` it can go.
pub struct IntSum;

impl IntSum {
    /// `+F(own) − F(next)` (the §5.1.4 cancelling pair; the last rank has
    /// no successor) folded into `payload` in one pass. The order of the
    /// two terms cannot change a bit: `Z_{2^w}` addition is commutative.
    fn encrypt<W: RingWord>(keys: &CommKeys, first: u64, payload: Payload<'_, W>) {
        if keys.is_last() {
            fused_pass(keys, [keys.base_own()], first, payload, |x, [own]| {
                x.wadd(own)
            });
        } else {
            let bases = [keys.base_own(), keys.base_next()];
            fused_pass(keys, bases, first, payload, |x, [own, next]| {
                x.wadd(own).wsub(next)
            });
        }
    }

    /// `−F(zero)`: what survives the telescoping sum is rank 0's noise.
    fn decrypt<W: RingWord>(keys: &CommKeys, first: u64, payload: Payload<'_, W>) {
        fused_pass(keys, [keys.base_zero()], first, payload, |x, [zero]| {
            x.wsub(zero)
        });
    }

    /// Encrypt `buf` in place for this rank; element `j` of the global
    /// vector is `buf[j - first]`. `scratch` is unused (see [`Scratch`]).
    pub fn encrypt_in_place<W: RingWord>(
        keys: &CommKeys,
        first: u64,
        buf: &mut [W],
        _scratch: &mut Scratch<W>,
    ) {
        let _s = hear_telemetry::span!("encrypt", elems = buf.len());
        Self::encrypt(keys, first, Payload::InPlace(buf));
    }

    /// Decrypt an aggregated vector in place: subtract rank 0's noise.
    /// `scratch` is unused (see [`Scratch`]).
    pub fn decrypt_in_place<W: RingWord>(
        keys: &CommKeys,
        first: u64,
        agg: &mut [W],
        _scratch: &mut Scratch<W>,
    ) {
        let _s = hear_telemetry::span!("decrypt", elems = agg.len());
        Self::decrypt(keys, first, Payload::InPlace(agg));
    }
}

/// Integer summation (Eq. 1) as a [`Scheme`]; lossless, exact digest.
pub struct IntSumScheme<W: RingWord>(PhantomData<W>);

impl<W: RingWord> Default for IntSumScheme<W> {
    fn default() -> Self {
        IntSumScheme(PhantomData)
    }
}

impl<W: RingWord> Scheme for IntSumScheme<W> {
    type Input = W;
    type Wire = W;
    type Lanes = W::Halves;

    const NAME: &'static str = "int-sum";
    const TABLE2_ROW: usize = 0;

    fn mask_slice(
        &mut self,
        keys: &CommKeys,
        first: u64,
        input: &[W],
        out: &mut Vec<W>,
    ) -> Result<(), HfpError> {
        let _s = hear_telemetry::span!("encrypt", elems = input.len());
        out.clear();
        IntSum::encrypt(keys, first, Payload::Extend(input, out));
        Ok(())
    }

    fn unmask_into(&mut self, keys: &CommKeys, first: u64, agg: &[W], dst: &mut [W]) {
        let _s = hear_telemetry::span!("decrypt", elems = agg.len());
        IntSum::decrypt(keys, first, Payload::Into(agg, dst));
    }

    #[inline(always)]
    fn op(a: &W, b: &W) -> W {
        a.wadd(*b)
    }

    fn digest(&self, x: &W, out: &mut [u64; DIGEST_LANES]) {
        *out = [x.to_u64(), 0, 0, 0];
    }

    fn digest_check(&self, result: &W, lane_sums: &[u64; DIGEST_LANES], _world: usize) -> bool {
        // The wire sum and the lane sum wrap identically mod 2^b.
        W::from_u64_trunc(lane_sums[0]) == *result
    }

    fn cell_encode(x: &W) -> u64 {
        x.to_u64()
    }

    fn cell_decode(cell: u64) -> W {
        W::from_u64_trunc(cell)
    }
}

/// Integer product (Eq. 2) as a [`Scheme`]: noise enters as a power of the
/// subgroup generator `g = 3`, whose order divides `2^{b−2}`, so every
/// noise factor is odd and exactly invertible — the scheme stays lossless.
/// Exact digest via the 2-adic decomposition `x = (−1)^s · 3^e · 2^v` in
/// `Z_{2^b}` ([`prod_digest`]).
pub struct IntProdScheme<W: RingWord>(PhantomData<W>);

impl<W: RingWord> Default for IntProdScheme<W> {
    fn default() -> Self {
        IntProdScheme(PhantomData)
    }
}

impl<W: RingWord> Scheme for IntProdScheme<W> {
    type Input = W;
    type Wire = W;
    /// Exponent (both halves), valuation and sign count (low halves).
    type Lanes = [u64; 5];

    const NAME: &'static str = "int-prod";
    const TABLE2_ROW: usize = 1;

    /// `x · g^(own − next)` (`x · g^own` on the last rank) in one pass.
    fn mask_slice(
        &mut self,
        keys: &CommKeys,
        first: u64,
        input: &[W],
        out: &mut Vec<W>,
    ) -> Result<(), HfpError> {
        let _s = hear_telemetry::span!("encrypt", elems = input.len());
        out.clear();
        let payload = Payload::Extend(input, out);
        let g = W::GENERATOR;
        if keys.is_last() {
            fused_pass(keys, [keys.base_own()], first, payload, |x, [own]| {
                x.wmul(g.wpow(own))
            });
        } else {
            let bases = [keys.base_own(), keys.base_next()];
            fused_pass(keys, bases, first, payload, |x, [own, next]| {
                x.wmul(g.wpow(own.wsub(next)))
            });
        }
        Ok(())
    }

    /// `x · g^(−zero)`.
    fn unmask_into(&mut self, keys: &CommKeys, first: u64, agg: &[W], dst: &mut [W]) {
        let _s = hear_telemetry::span!("decrypt", elems = agg.len());
        let payload = Payload::Into(agg, dst);
        fused_pass(keys, [keys.base_zero()], first, payload, |x, [zero]| {
            x.wmul(W::GENERATOR.wpow(zero).inv_odd())
        });
    }

    #[inline(always)]
    fn op(a: &W, b: &W) -> W {
        a.wmul(*b)
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

/// Logical/binary XOR (Eq. 3, structurally AES-CTR) as a [`Scheme`];
/// lossless. The digest spreads each payload bit into its own 4-bit nibble
/// counter, so the additive lane sum counts per-bit multiplicity and the
/// XOR result must equal its parity — sound up to 15 ranks.
pub struct IntXorScheme<W: RingWord>(PhantomData<W>);

impl<W: RingWord> Default for IntXorScheme<W> {
    fn default() -> Self {
        IntXorScheme(PhantomData)
    }
}

impl<W: RingWord> Scheme for IntXorScheme<W> {
    type Input = W;
    type Wire = W;
    type Lanes = [u64; 8];

    const NAME: &'static str = "int-xor";
    const TABLE2_ROW: usize = 2;
    /// Nibble counters saturate at 15 contributions per bit.
    const MAX_VERIFIED_WORLD: usize = 15;

    /// `^F(own) ^F(next)` folded into the input in one pass.
    fn mask_slice(
        &mut self,
        keys: &CommKeys,
        first: u64,
        input: &[W],
        out: &mut Vec<W>,
    ) -> Result<(), HfpError> {
        let _s = hear_telemetry::span!("encrypt", elems = input.len());
        out.clear();
        let payload = Payload::Extend(input, out);
        if keys.is_last() {
            fused_pass(keys, [keys.base_own()], first, payload, |x, [own]| {
                x.bxor(own)
            });
        } else {
            let bases = [keys.base_own(), keys.base_next()];
            fused_pass(keys, bases, first, payload, |x, [own, next]| {
                x.bxor(own).bxor(next)
            });
        }
        Ok(())
    }

    /// `^F(zero)`.
    fn unmask_into(&mut self, keys: &CommKeys, first: u64, agg: &[W], dst: &mut [W]) {
        let _s = hear_telemetry::span!("decrypt", elems = agg.len());
        let payload = Payload::Into(agg, dst);
        fused_pass(keys, [keys.base_zero()], first, payload, |x, [zero]| {
            x.bxor(zero)
        });
    }

    #[inline(always)]
    fn op(a: &W, b: &W) -> W {
        a.bxor(*b)
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

    fn cell_encode(x: &W) -> u64 {
        x.to_u64()
    }

    fn cell_decode(cell: u64) -> W {
        W::from_u64_trunc(cell)
    }
}

/// The intuitive non-cancelling scheme of Fig. 1: every rank adds only its
/// own noise, so encryption saves one PRF stream but decryption must
/// reconstruct and subtract *all* `P` noise streams — Θ(P) work that the
/// cancelling technique eliminates. Kept for the ablation benchmark.
pub struct NaiveIntSum;

impl NaiveIntSum {
    /// `+F(own)` alone: nothing cancels, so no rank folds in its successor's
    /// stream.
    pub fn encrypt_in_place<W: RingWord>(keys: &CommKeys, first: u64, buf: &mut [W]) {
        let _s = hear_telemetry::span!("encrypt", elems = buf.len());
        let bases = [keys.base_own()];
        fused_pass(keys, bases, first, Payload::InPlace(buf), |x, [own]| {
            x.wadd(own)
        });
    }

    /// Θ(P) decryption: needs the full key registry, and subtracts every
    /// rank's stream, one fused pass each.
    pub fn decrypt_in_place<W: RingWord>(registry: &KeyRegistry, first: u64, agg: &mut [W]) {
        let _s = hear_telemetry::span!("decrypt", elems = agg.len());
        WorkerPool::with_current(|pool| {
            for rank in 0..registry.world() {
                let streams = [Stream {
                    prf: registry.prf(),
                    base: registry.base_of(rank),
                }];
                par_fused_pass(pool, &streams, first, Payload::InPlace(agg), |x, [k]| {
                    x.wsub(k)
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::CommKeys;
    use crate::scheme::reduce_in_process;
    use hear_prf::Backend;

    /// A full encrypted allreduce in-process: every rank encrypts, the
    /// "network" folds with `op`, rank 0 decrypts.
    fn roundtrip_sum_u32(world: usize, data: &[Vec<u32>]) -> Vec<u32> {
        let keys = CommKeys::generate(world, 42, Backend::AesSoft);
        reduce_in_process(IntSumScheme::default, &keys, data)
    }

    /// The ciphertext of `plain` under `keys`, at element 0.
    fn masked<S: Scheme>(mut scheme: S, keys: &CommKeys, plain: &[S::Input]) -> Vec<S::Wire> {
        let mut wire = Vec::new();
        scheme.mask_slice(keys, 0, plain, &mut wire).unwrap();
        wire
    }

    #[test]
    fn sum_telescopes_various_world_sizes() {
        for world in [1usize, 2, 3, 5, 8] {
            let data: Vec<Vec<u32>> = (0..world)
                .map(|r| (0..13).map(|j| (r as u32 + 1) * 1000 + j).collect())
                .collect();
            let got = roundtrip_sum_u32(world, &data);
            for j in 0..13 {
                let expect: u32 = data.iter().map(|v| v[j]).fold(0, |a, b| a.wrapping_add(b));
                assert_eq!(got[j], expect, "world={world} j={j}");
            }
        }
    }

    #[test]
    fn sum_is_lossless_on_wrapping_values() {
        // Values near the ring boundary: modulo arithmetic loses nothing.
        let data = vec![vec![u32::MAX, u32::MAX - 5], vec![7u32, 10]];
        let got = roundtrip_sum_u32(2, &data);
        assert_eq!(got, vec![6, 4]); // wrapped sums
    }

    #[test]
    fn sum_signed_via_two_complement() {
        use hear_prf::as_unsigned_i32;
        let keys = CommKeys::generate(2, 9, Backend::AesSoft);
        let a = [-100i32, 50, i32::MIN];
        let b = [30i32, -80, -1];
        let data = [as_unsigned_i32(&a).to_vec(), as_unsigned_i32(&b).to_vec()];
        let agg = reduce_in_process(IntSumScheme::default, &keys, &data);
        let got: Vec<i32> = agg.iter().map(|v| *v as i32).collect();
        assert_eq!(got, vec![-70, -30, i32::MIN.wrapping_add(-1)]);
    }

    /// The in-place pair against [`IntSumScheme`]'s slice forms, and the
    /// wire against Eq. (1) word by word from the scalar PRF: the bits are
    /// `x + F(own) − F(next)` whatever the kernel does.
    #[test]
    fn sum_block_offsets_compose() {
        // Encrypting [0..8) in two blocks with first=0 and first=5 must
        // equal encrypting the whole vector at once (pipelining relies on
        // this).
        let keys = CommKeys::generate(2, 3, Backend::AesSoft);
        let mut scratch = Scratch::default();
        let full: Vec<u32> = (0..8).collect();
        let mut whole = full.clone();
        IntSum::encrypt_in_place(&keys[0], 0, &mut whole, &mut scratch);
        let mut part1 = full[..5].to_vec();
        let mut part2 = full[5..].to_vec();
        IntSum::encrypt_in_place(&keys[0], 0, &mut part1, &mut scratch);
        IntSum::encrypt_in_place(&keys[0], 5, &mut part2, &mut scratch);
        assert_eq!(&whole[..5], &part1[..]);
        assert_eq!(&whole[5..], &part2[..]);
    }

    /// Word `j` of the stream at `base`, by the scalar definition: word
    /// `j mod PER` of block `F(base + ⌊j / PER⌋)`.
    fn noise<W: RingWord>(keys: &CommKeys, base: u128, j: u64) -> W {
        use hear_prf::Prf;
        let per = W::PER_BLOCK as u64;
        let block = keys.prf().eval_block(base.wrapping_add((j / per) as u128));
        W::extract(block, (j % per) as usize)
    }

    #[test]
    fn into_forms_equal_copy_then_in_place_at_every_rank() {
        fn width<W: RingWord>() {
            const FIRST: u64 = 5;
            let input: Vec<W> = (0..37u64)
                .map(|i| W::from_u64_trunc(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7))
                .collect();
            for world in 1..=4usize {
                // The last rank masks with one stream, the others with two.
                for keys in CommKeys::generate(world, 0xC0DE + world as u64, Backend::AesSoft) {
                    let mut scheme = IntSumScheme::<W>::default();
                    let mut in_place = input.clone();
                    IntSum::encrypt_in_place(&keys, FIRST, &mut in_place, &mut Scratch::default());
                    let mut wire = Vec::new();
                    scheme.mask_slice(&keys, FIRST, &input, &mut wire).unwrap();
                    assert_eq!(wire, in_place, "world={world}");
                    for (i, (c, x)) in wire.iter().zip(&input).enumerate() {
                        let j = FIRST + i as u64;
                        let mut want = x.wadd(noise(&keys, keys.base_own(), j));
                        if !keys.is_last() {
                            want = want.wsub(noise(&keys, keys.base_next(), j));
                        }
                        assert_eq!(*c, want, "world={world} j={j}");
                    }
                    IntSum::decrypt_in_place(&keys, FIRST, &mut in_place, &mut Scratch::default());
                    let mut plain = Vec::new();
                    scheme.unmask_slice(&keys, FIRST, &wire, &mut plain);
                    assert_eq!(plain, in_place, "world={world}");
                }
            }
        }
        width::<u8>();
        width::<u16>();
        width::<u32>();
        width::<u64>();
    }

    #[test]
    fn prod_roundtrip_u32_u64() {
        fn run<W: RingWord>(world: usize, vals: &[Vec<W>]) {
            let keys = CommKeys::generate(world, 11, Backend::AesSoft);
            let agg = reduce_in_process(IntProdScheme::default, &keys, vals);
            for (j, got) in agg.iter().enumerate() {
                let expect = vals.iter().map(|v| v[j]).fold(W::one(), |a, b| a.wmul(b));
                assert_eq!(*got, expect, "j={j}");
            }
        }
        run::<u32>(3, &[vec![2, 7, 0], vec![5, 3, 9], vec![4, 1, 6]]);
        run::<u64>(2, &[vec![1 << 40, 12345, u64::MAX], vec![3, 99999, 2]]);
    }

    #[test]
    fn prod_even_and_zero_values_survive() {
        // Even plaintexts are outside the subgroup but noise is always odd,
        // so they still decrypt exactly; zero stays zero.
        let keys = CommKeys::generate(2, 5, Backend::AesSoft);
        let data = [vec![0u32, 8, 1024], vec![6u32, 2, 2]];
        let agg = reduce_in_process(IntProdScheme::default, &keys, &data);
        assert_eq!(agg, vec![0, 16, 2048]);
    }

    #[test]
    fn xor_roundtrip() {
        let keys = CommKeys::generate(4, 6, Backend::AesSoft);
        let data: Vec<Vec<u64>> = (0..4)
            .map(|r| (0..7).map(|j| ((r as u64) << 32) | (j * 77)).collect())
            .collect();
        let agg = reduce_in_process(IntXorScheme::default, &keys, &data);
        for j in 0..7 {
            let expect = data.iter().map(|v| v[j]).fold(0, |a, b| a ^ b);
            assert_eq!(agg[j], expect);
        }
    }

    #[test]
    fn naive_matches_cancelling_result() {
        let world = 3;
        let (keys, reg) = CommKeys::generate_with_registry(world, 77, Backend::AesSoft);
        let data: Vec<Vec<u32>> = (0..world)
            .map(|r| vec![r as u32 * 10 + 1, r as u32 * 10 + 2])
            .collect();
        let mut agg = vec![0u32; 2];
        for (rank, keys) in keys.iter().enumerate() {
            let mut buf = data[rank].clone();
            NaiveIntSum::encrypt_in_place(keys, 0, &mut buf);
            for (a, c) in agg.iter_mut().zip(buf.iter()) {
                *a = a.wrapping_add(*c);
            }
        }
        NaiveIntSum::decrypt_in_place(&reg, 0, &mut agg);
        assert_eq!(agg, vec![1 + 11 + 21, 2 + 12 + 22]);
        assert_eq!(agg, reduce_in_process(IntSumScheme::default, &keys, &data));
    }

    #[test]
    fn temporal_safety_ciphertexts_change_across_epochs() {
        let mut keys = CommKeys::generate(2, 8, Backend::AesSoft);
        let plain = vec![42u32; 16];
        let c1 = masked(IntSumScheme::default(), &keys[0], &plain);
        keys[0].advance();
        let c2 = masked(IntSumScheme::default(), &keys[0], &plain);
        assert_ne!(
            c1, c2,
            "same plaintext must encrypt differently across calls"
        );
    }

    #[test]
    fn local_safety_equal_elements_encrypt_differently() {
        let keys = CommKeys::generate(2, 8, Backend::AesSoft);
        let buf = masked(IntSumScheme::default(), &keys[0], &[7u32; 64]);
        let distinct: std::collections::HashSet<u32> = buf.iter().copied().collect();
        assert!(
            distinct.len() > 60,
            "vector positions must use distinct noise"
        );
    }

    #[test]
    fn global_safety_ranks_encrypt_differently() {
        let keys = CommKeys::generate(3, 8, Backend::AesSoft);
        let plain = vec![7u32; 32];
        let c0 = masked(IntSumScheme::default(), &keys[0], &plain);
        let c1 = masked(IntSumScheme::default(), &keys[1], &plain);
        assert_ne!(
            c0, c1,
            "different ranks must use different noise (global safety)"
        );
    }

    #[test]
    fn empty_vector_is_ok() {
        let keys = CommKeys::generate(2, 8, Backend::AesSoft);
        let mut buf: Vec<u32> = vec![];
        IntSum::encrypt_in_place(&keys[0], 0, &mut buf, &mut Scratch::default());
        IntSum::decrypt_in_place(&keys[0], 0, &mut buf, &mut Scratch::default());
        assert!(buf.is_empty());
        let mut scheme = IntSumScheme::<u32>::default();
        let (mut wire, mut out) = (vec![1], vec![2]);
        scheme.mask_slice(&keys[0], 0, &buf, &mut wire).unwrap();
        scheme.unmask_slice(&keys[0], 0, &wire, &mut out);
        assert!(wire.is_empty() && out.is_empty());
    }

    /// `(ciphertext, decryption)` FNV-1a fingerprints of [`IntProdScheme`]
    /// under fixed keys at world 3 — ranks first, middle and last — over
    /// lengths 0 / 1 / 255 / 256 / 257 / 1000 at `first = 13`.
    fn prod_prints<W: RingWord>() -> [(u64, u64); 3] {
        const FIRST: u64 = 13;
        let fnv = |h: u64, words: &[W]| {
            words.iter().fold(h, |h, w| {
                let bytes = w.to_u64().to_le_bytes();
                bytes[..W::BITS as usize / 8]
                    .iter()
                    .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
            })
        };
        let keys = CommKeys::generate(3, 0x001D_7A11, Backend::AesSoft);
        let mut scheme = IntProdScheme::<W>::default();
        let mut prints = [(0, 0); 3];
        for (k, print) in keys.iter().zip(&mut prints) {
            let (mut hc, mut hp) = (0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
            for len in [0u64, 1, 255, 256, 257, 1000] {
                let input: Vec<W> = (0..len)
                    .map(|i| W::from_u64_trunc((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 5))
                    .collect();
                let (mut ct, mut pt) = (Vec::new(), Vec::new());
                scheme.mask_slice(k, FIRST, &input, &mut ct).unwrap();
                scheme.unmask_slice(k, FIRST, &ct, &mut pt);
                (hc, hp) = (fnv(hc ^ len, &ct), fnv(hp ^ len, &pt));
            }
            *print = (hc, hp);
        }
        prints
    }

    /// The fused product cipher is bit-identical to the ones before it (a
    /// stack-tiled one, and one that staged all `2n` factors on the heap):
    /// the goldens were recorded by running [`prod_prints`] against the
    /// heap-staged implementation.
    #[test]
    fn prod_tiles_match_the_recorded_goldens() {
        assert_eq!(
            prod_prints::<u32>(),
            [
                (11419526959769940327, 15354311552473938738),
                (18290112633902047932, 12922025404096310640),
                (1978585774869364659, 13796693286933069405),
            ]
        );
        assert_eq!(
            prod_prints::<u64>(),
            [
                (14088669604780962443, 10485051877692634855),
                (11686289056458890184, 17873639719362235143),
                (16274473389296095894, 4899193834746465733),
            ]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::keys::CommKeys;
    use crate::scheme::reduce_in_process;
    use hear_prf::Backend;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sum_roundtrip_random(
            world in 1usize..6,
            data in proptest::collection::vec(any::<u64>(), 1..40),
            seed in any::<u64>(),
        ) {
            let keys = CommKeys::generate(world, seed, Backend::AesSoft);
            let agg = reduce_in_process(IntSumScheme::default, &keys, &vec![data.clone(); world]);
            for (j, a) in agg.iter().enumerate() {
                prop_assert_eq!(*a, data[j].wrapping_mul(world as u64));
            }
        }

        #[test]
        fn xor_even_world_cancels(
            data in proptest::collection::vec(any::<u32>(), 1..20),
            seed in any::<u64>(),
        ) {
            // XOR of the same vector an even number of times is zero.
            let keys = CommKeys::generate(4, seed, Backend::AesSoft);
            let agg = reduce_in_process(IntXorScheme::default, &keys, &vec![data; 4]);
            prop_assert!(agg.iter().all(|v| *v == 0));
        }

        #[test]
        fn prod_roundtrip_random(
            world in 1usize..5,
            data in proptest::collection::vec(any::<u32>(), 1..20),
            seed in any::<u64>(),
        ) {
            let keys = CommKeys::generate(world, seed, Backend::AesSoft);
            let agg = reduce_in_process(IntProdScheme::default, &keys, &vec![data.clone(); world]);
            for (j, a) in agg.iter().enumerate() {
                let mut expect = 1u32;
                for _ in 0..world { expect = expect.wrapping_mul(data[j]); }
                prop_assert_eq!(*a, expect);
            }
        }
    }
}

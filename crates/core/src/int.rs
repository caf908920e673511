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

use crate::extend_with;
use crate::keys::{CommKeys, KeyRegistry};
use crate::word::RingWord;
use hear_prf::{par_fused_pass, Payload, Stream, WorkerPool};
use hear_telemetry::Metric;
use std::convert::Infallible;
use std::mem::MaybeUninit;

/// Fold the noise streams at `bases` into a payload — in place, or out of
/// place straight into a `Vec`'s spare capacity or a window of it — with
/// **one** fused pass:
/// `dst[i] ← f(src[i], [A[first + i], B[first + i]])`, each payload word
/// read once and written once however many streams fold into it.
///
/// The prefetch cache is consulted first, once for all streams; a stream
/// it holds is read from those blocks, a stream it misses is generated
/// inline, chosen per stream inside the same pass. Cached blocks were
/// generated uncounted by the producer thread, so this consumer attributes
/// them here — per-backend block count, keystream bytes and masked bytes —
/// which keeps every counter total identical whether or not the prefetcher
/// is running. Inline streams are accounted by the kernel.
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
    let len = match &payload {
        Payload::InPlace(buf) => buf.len(),
        Payload::Extend(src, _) | Payload::Into(src, _) => src.len(),
    };
    if len == 0 {
        return;
    }
    let per = W::PER_BLOCK as u64;
    let first_block = first / per;
    let nblocks = ((first + len as u64 - 1) / per - first_block + 1) as usize;
    let bytes = (len * std::mem::size_of::<W>()) as u64;
    let backend = keys.prf().backend();
    let run = |cached: [Option<&[u128]>; N]| {
        let streams: [Stream<'_>; N] = std::array::from_fn(|s| match cached[s] {
            Some(blocks) => Stream::Blocks {
                blocks,
                first_block,
            },
            None => Stream::Cipher {
                prf: keys.prf(),
                base: bases[s],
            },
        });
        WorkerPool::with_current(|pool| par_fused_pass(pool, &streams, first, payload, f));
        let hits = cached.iter().flatten().count() as u64;
        if hits > 0 {
            hear_telemetry::add(Metric::PrefetchHits, hits);
            hear_telemetry::add(hear_prf::blocks_metric(backend), hits * nblocks as u64);
            hear_telemetry::add(Metric::KeystreamBytes, hits * bytes);
            hear_telemetry::add(hear_prf::masked_metric(backend), hits * bytes);
        }
        hits
    };
    match keys.cache() {
        Some(cache) => {
            let hits = cache.with_streams(keys.epoch(), bases, first_block, nblocks, run);
            hear_telemetry::add(Metric::PrefetchMisses, N as u64 - hits);
        }
        None => {
            run([None; N]);
        }
    }
}

/// Reusable noise scratch so the hot path performs no allocation when the
/// caller (e.g. the libhear memory pool) keeps one around.
pub struct Scratch<W> {
    own: Vec<W>,
    next: Vec<W>,
}

impl<W: RingWord> Default for Scratch<W> {
    fn default() -> Self {
        Scratch {
            own: Vec::new(),
            next: Vec::new(),
        }
    }
}

impl<W: RingWord> Scratch<W> {
    pub fn with_capacity(n: usize) -> Self {
        Scratch {
            own: vec![W::zero(); n],
            next: vec![W::zero(); n],
        }
    }

    fn ensure(&mut self, n: usize) {
        if self.own.len() < n {
            self.own.resize(n, W::zero());
            self.next.resize(n, W::zero());
        }
    }
}

/// Integer summation, Eq. (1).
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
    /// vector is `buf[j - first]` (callers encrypting a pipelined block
    /// pass the block's base index as `first`).
    pub fn encrypt_in_place<W: RingWord>(
        keys: &CommKeys,
        first: u64,
        buf: &mut [W],
        scratch: &mut Scratch<W>,
    ) {
        let _s = hear_telemetry::span!("encrypt", elems = buf.len());
        let _ = scratch; // fused path needs no noise staging
        Self::encrypt(keys, first, Payload::InPlace(buf));
    }

    /// Append the encryption of `input` to `out` — the bits
    /// `extend_from_slice` + [`IntSum::encrypt_in_place`] would leave, with
    /// each byte read once and written once.
    pub fn encrypt_into<W: RingWord>(keys: &CommKeys, first: u64, input: &[W], out: &mut Vec<W>) {
        let _s = hear_telemetry::span!("encrypt", elems = input.len());
        Self::encrypt(keys, first, Payload::Extend(input, out));
    }

    /// Decrypt an aggregated vector in place: subtract rank 0's noise.
    pub fn decrypt_in_place<W: RingWord>(
        keys: &CommKeys,
        first: u64,
        agg: &mut [W],
        scratch: &mut Scratch<W>,
    ) {
        let _s = hear_telemetry::span!("decrypt", elems = agg.len());
        let _ = scratch;
        Self::decrypt(keys, first, Payload::InPlace(agg));
    }

    /// Append the decryption of `agg` to `out` (see
    /// [`IntSum::encrypt_into`]).
    pub fn decrypt_into<W: RingWord>(keys: &CommKeys, first: u64, agg: &[W], out: &mut Vec<W>) {
        let _s = hear_telemetry::span!("decrypt", elems = agg.len());
        Self::decrypt(keys, first, Payload::Extend(agg, out));
    }

    /// Decrypt `agg` into `dst` (same length), initialising every element
    /// of it: the positional form of [`IntSum::decrypt_into`], for a window
    /// of spare capacity the caller commits itself.
    pub fn decrypt_to<W: RingWord>(
        keys: &CommKeys,
        first: u64,
        agg: &[W],
        dst: &mut [MaybeUninit<W>],
    ) {
        let _s = hear_telemetry::span!("decrypt", elems = agg.len());
        Self::decrypt(keys, first, Payload::Into(agg, dst));
    }

    /// The associative operation the (untrusted) network applies.
    #[inline]
    pub fn combine<W: RingWord>(a: W, b: W) -> W {
        a.wadd(b)
    }
}

/// Integer product, Eq. (2): noise enters as a power of the subgroup
/// generator `g = 3`, whose order divides `2^{b−2}`, so every noise factor
/// is odd and exactly invertible — the scheme stays lossless.
pub struct IntProd;

impl IntProd {
    /// The per-element mask factors `g^(own − next)` (`g^own` on the last
    /// rank) for `n` elements at `first`, staged in `scratch`.
    fn mask_factors<'s, W: RingWord>(
        keys: &CommKeys,
        first: u64,
        n: usize,
        scratch: &'s mut Scratch<W>,
    ) -> &'s [W] {
        scratch.ensure(n);
        let (own, next) = (&mut scratch.own[..n], &mut scratch.next[..n]);
        W::fill_noise(keys.prf(), keys.base_own(), first, own);
        if !keys.is_last() {
            W::fill_noise(keys.prf(), keys.base_next(), first, next);
            for (o, m) in own.iter_mut().zip(next.iter()) {
                *o = o.wsub(*m);
            }
        }
        for o in own.iter_mut() {
            *o = W::GENERATOR.wpow(*o);
        }
        own
    }

    /// The per-element unmask factors `g^(−zero)`, staged in `scratch`.
    fn unmask_factors<'s, W: RingWord>(
        keys: &CommKeys,
        first: u64,
        n: usize,
        scratch: &'s mut Scratch<W>,
    ) -> &'s [W] {
        scratch.ensure(n);
        let zero = &mut scratch.own[..n];
        W::fill_noise(keys.prf(), keys.base_zero(), first, zero);
        for z in zero.iter_mut() {
            *z = W::GENERATOR.wpow(*z).inv_odd();
        }
        zero
    }

    pub fn encrypt_in_place<W: RingWord>(
        keys: &CommKeys,
        first: u64,
        buf: &mut [W],
        scratch: &mut Scratch<W>,
    ) {
        let _s = hear_telemetry::span!("encrypt", elems = buf.len());
        let factors = Self::mask_factors(keys, first, buf.len(), scratch);
        for (b, g) in buf.iter_mut().zip(factors) {
            *b = b.wmul(*g);
        }
    }

    /// Append the encryption of `input` to `out`: `out[i] = input[i] ·
    /// g^(own − next)`, without copying `input` first.
    pub fn encrypt_into<W: RingWord>(
        keys: &CommKeys,
        first: u64,
        input: &[W],
        out: &mut Vec<W>,
        scratch: &mut Scratch<W>,
    ) {
        let _s = hear_telemetry::span!("encrypt", elems = input.len());
        let factors = Self::mask_factors(keys, first, input.len(), scratch);
        out.extend(input.iter().zip(factors).map(|(x, g)| x.wmul(*g)));
    }

    pub fn decrypt_in_place<W: RingWord>(
        keys: &CommKeys,
        first: u64,
        agg: &mut [W],
        scratch: &mut Scratch<W>,
    ) {
        let _s = hear_telemetry::span!("decrypt", elems = agg.len());
        let factors = Self::unmask_factors(keys, first, agg.len(), scratch);
        for (a, g) in agg.iter_mut().zip(factors) {
            *a = a.wmul(*g);
        }
    }

    /// Append the decryption of `agg` to `out`.
    pub fn decrypt_into<W: RingWord>(
        keys: &CommKeys,
        first: u64,
        agg: &[W],
        out: &mut Vec<W>,
        scratch: &mut Scratch<W>,
    ) {
        // SAFETY: `decrypt_to` initialises all of `dst`.
        let Ok(()) = unsafe {
            extend_with::<_, Infallible>(out, agg.len(), |dst| {
                Self::decrypt_to(keys, first, agg, dst, scratch);
                Ok(())
            })
        };
    }

    /// Decrypt `agg` into `dst` (same length), initialising every element
    /// of it (see [`IntSum::decrypt_to`]).
    pub fn decrypt_to<W: RingWord>(
        keys: &CommKeys,
        first: u64,
        agg: &[W],
        dst: &mut [MaybeUninit<W>],
        scratch: &mut Scratch<W>,
    ) {
        let _s = hear_telemetry::span!("decrypt", elems = agg.len());
        assert_eq!(agg.len(), dst.len());
        let factors = Self::unmask_factors(keys, first, agg.len(), scratch);
        for ((d, a), g) in dst.iter_mut().zip(agg).zip(factors) {
            d.write(a.wmul(*g));
        }
    }

    #[inline]
    pub fn combine<W: RingWord>(a: W, b: W) -> W {
        a.wmul(b)
    }
}

/// Logical/binary XOR, Eq. (3) — structurally AES-CTR.
pub struct IntXor;

impl IntXor {
    /// `^F(own) ^F(next)` folded into `payload` in one pass.
    fn encrypt<W: RingWord>(keys: &CommKeys, first: u64, payload: Payload<'_, W>) {
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
    }

    /// `^F(zero)`.
    fn decrypt<W: RingWord>(keys: &CommKeys, first: u64, payload: Payload<'_, W>) {
        fused_pass(keys, [keys.base_zero()], first, payload, |x, [zero]| {
            x.bxor(zero)
        });
    }

    pub fn encrypt_in_place<W: RingWord>(
        keys: &CommKeys,
        first: u64,
        buf: &mut [W],
        scratch: &mut Scratch<W>,
    ) {
        let _s = hear_telemetry::span!("encrypt", elems = buf.len());
        let _ = scratch;
        Self::encrypt(keys, first, Payload::InPlace(buf));
    }

    /// Append the encryption of `input` to `out` (see
    /// [`IntSum::encrypt_into`]).
    pub fn encrypt_into<W: RingWord>(keys: &CommKeys, first: u64, input: &[W], out: &mut Vec<W>) {
        let _s = hear_telemetry::span!("encrypt", elems = input.len());
        Self::encrypt(keys, first, Payload::Extend(input, out));
    }

    pub fn decrypt_in_place<W: RingWord>(
        keys: &CommKeys,
        first: u64,
        agg: &mut [W],
        scratch: &mut Scratch<W>,
    ) {
        let _s = hear_telemetry::span!("decrypt", elems = agg.len());
        let _ = scratch;
        Self::decrypt(keys, first, Payload::InPlace(agg));
    }

    /// Append the decryption of `agg` to `out`.
    pub fn decrypt_into<W: RingWord>(keys: &CommKeys, first: u64, agg: &[W], out: &mut Vec<W>) {
        let _s = hear_telemetry::span!("decrypt", elems = agg.len());
        Self::decrypt(keys, first, Payload::Extend(agg, out));
    }

    /// Decrypt `agg` into `dst` (same length), initialising every element
    /// of it (see [`IntSum::decrypt_to`]).
    pub fn decrypt_to<W: RingWord>(
        keys: &CommKeys,
        first: u64,
        agg: &[W],
        dst: &mut [MaybeUninit<W>],
    ) {
        let _s = hear_telemetry::span!("decrypt", elems = agg.len());
        Self::decrypt(keys, first, Payload::Into(agg, dst));
    }

    #[inline]
    pub fn combine<W: RingWord>(a: W, b: W) -> W {
        a.bxor(b)
    }
}

/// The intuitive non-cancelling scheme of Fig. 1: every rank adds only its
/// own noise, so encryption saves one PRF stream but decryption must
/// reconstruct and subtract *all* `P` noise streams — Θ(P) work that the
/// cancelling technique eliminates. Kept for the ablation benchmark.
pub struct NaiveIntSum;

impl NaiveIntSum {
    pub fn encrypt_in_place<W: RingWord>(
        keys: &CommKeys,
        first: u64,
        buf: &mut [W],
        scratch: &mut Scratch<W>,
    ) {
        let _s = hear_telemetry::span!("encrypt", elems = buf.len());
        let _ = scratch;
        let bases = [keys.base_own()];
        fused_pass(keys, bases, first, Payload::InPlace(buf), |x, [own]| {
            x.wadd(own)
        });
    }

    /// Θ(P) decryption: needs the full key registry.
    pub fn decrypt_in_place<W: RingWord>(
        registry: &KeyRegistry,
        first: u64,
        agg: &mut [W],
        scratch: &mut Scratch<W>,
    ) {
        let _s = hear_telemetry::span!("decrypt", elems = agg.len());
        scratch.ensure(agg.len());
        let noise = &mut scratch.own[..agg.len()];
        for rank in 0..registry.world() {
            W::fill_noise(registry.prf(), registry.base_of(rank), first, noise);
            for (a, n) in agg.iter_mut().zip(noise.iter()) {
                *a = a.wsub(*n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::CommKeys;
    use hear_prf::Backend;

    /// Simulate a full encrypted allreduce in-process: every rank encrypts,
    /// the "network" folds with `combine`, one rank decrypts.
    fn roundtrip_sum_u32(world: usize, data: &[Vec<u32>]) -> Vec<u32> {
        let keys = CommKeys::generate(world, 42, Backend::AesSoft);
        let mut scratch = Scratch::default();
        let n = data[0].len();
        let mut agg = vec![0u32; n];
        for (rank, keys) in keys.iter().enumerate() {
            let mut buf = data[rank].clone();
            IntSum::encrypt_in_place(keys, 0, &mut buf, &mut scratch);
            for (a, c) in agg.iter_mut().zip(buf.iter()) {
                *a = IntSum::combine(*a, *c);
            }
        }
        IntSum::decrypt_in_place(&keys[0], 0, &mut agg, &mut scratch);
        agg
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
        use crate::word::{as_unsigned_i32, as_unsigned_i32_mut};
        let keys = CommKeys::generate(2, 9, Backend::AesSoft);
        let mut scratch = Scratch::default();
        let a = [-100i32, 50, i32::MIN];
        let b = [30i32, -80, -1];
        let mut ca = a;
        let mut cb = b;
        IntSum::encrypt_in_place(&keys[0], 0, as_unsigned_i32_mut(&mut ca), &mut scratch);
        IntSum::encrypt_in_place(&keys[1], 0, as_unsigned_i32_mut(&mut cb), &mut scratch);
        let mut agg: Vec<u32> = as_unsigned_i32(&ca)
            .iter()
            .zip(as_unsigned_i32(&cb))
            .map(|(x, y)| x.wrapping_add(*y))
            .collect();
        IntSum::decrypt_in_place(&keys[0], 0, &mut agg, &mut scratch);
        let got: Vec<i32> = agg.iter().map(|v| *v as i32).collect();
        assert_eq!(got, vec![-70, -30, i32::MIN.wrapping_add(-1)]);
    }

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

    /// The appending form against "copy, then the in-place form": same
    /// bits, prefix untouched, and composable at every split of the block.
    fn check_forms<W: RingWord>(
        keys: &CommKeys,
        input: &[W],
        in_place: impl Fn(&CommKeys, u64, &mut [W]),
        into: impl Fn(&CommKeys, u64, &[W], &mut Vec<W>),
    ) -> Vec<W> {
        const FIRST: u64 = 5;
        let mut want = input.to_vec();
        in_place(keys, FIRST, &mut want);

        let sentinel = W::from_u64_trunc(0xA5);
        let mut got = vec![sentinel];
        into(keys, FIRST, input, &mut got);
        assert_eq!(got[0], sentinel, "prefix overwritten");
        assert_eq!(got[1..], want);

        for split in 0..=input.len() {
            let mut parts = Vec::new();
            into(keys, FIRST, &input[..split], &mut parts);
            into(keys, FIRST + split as u64, &input[split..], &mut parts);
            assert_eq!(parts, want, "split at {split}");
        }
        want
    }

    #[test]
    fn into_forms_equal_copy_then_in_place_at_every_rank() {
        fn width<W: RingWord>() {
            let input: Vec<W> = (0..37u64)
                .map(|i| W::from_u64_trunc(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7))
                .collect();
            for world in 1..=4usize {
                // The last rank masks with one stream, the others with two.
                for keys in CommKeys::generate(world, 0xC0DE + world as u64, Backend::AesSoft) {
                    let sum = check_forms(
                        &keys,
                        &input,
                        |k, f, b| IntSum::encrypt_in_place(k, f, b, &mut Scratch::default()),
                        IntSum::encrypt_into,
                    );
                    // Eq. (1) word by word from the scalar PRF: the wire bits
                    // are `x + F(own) − F(next)` whatever the kernel does.
                    for (i, (c, x)) in sum.iter().zip(&input).enumerate() {
                        let j = 5 + i as u64;
                        let mut want = x.wadd(W::noise(keys.prf(), keys.base_own(), j));
                        if !keys.is_last() {
                            want = want.wsub(W::noise(keys.prf(), keys.base_next(), j));
                        }
                        assert_eq!(*c, want, "world={world} j={j}");
                    }
                    check_forms(
                        &keys,
                        &input,
                        |k, f, b| IntSum::decrypt_in_place(k, f, b, &mut Scratch::default()),
                        IntSum::decrypt_into,
                    );
                    check_forms(
                        &keys,
                        &input,
                        |k, f, b| IntXor::encrypt_in_place(k, f, b, &mut Scratch::default()),
                        IntXor::encrypt_into,
                    );
                    check_forms(
                        &keys,
                        &input,
                        |k, f, b| IntXor::decrypt_in_place(k, f, b, &mut Scratch::default()),
                        IntXor::decrypt_into,
                    );
                    check_forms(
                        &keys,
                        &input,
                        |k, f, b| IntProd::encrypt_in_place(k, f, b, &mut Scratch::default()),
                        |k, f, x, out| IntProd::encrypt_into(k, f, x, out, &mut Scratch::default()),
                    );
                    check_forms(
                        &keys,
                        &input,
                        |k, f, b| IntProd::decrypt_in_place(k, f, b, &mut Scratch::default()),
                        |k, f, x, out| IntProd::decrypt_into(k, f, x, out, &mut Scratch::default()),
                    );
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
            let mut scratch = Scratch::default();
            let n = vals[0].len();
            let mut agg = vec![W::one(); n];
            for (rank, keys) in keys.iter().enumerate() {
                let mut buf = vals[rank].clone();
                IntProd::encrypt_in_place(keys, 0, &mut buf, &mut scratch);
                for (a, c) in agg.iter_mut().zip(buf.iter()) {
                    *a = IntProd::combine(*a, *c);
                }
            }
            IntProd::decrypt_in_place(&keys[0], 0, &mut agg, &mut scratch);
            for j in 0..n {
                let expect = vals.iter().map(|v| v[j]).fold(W::one(), |a, b| a.wmul(b));
                assert_eq!(agg[j], expect, "j={j}");
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
        let mut scratch = Scratch::default();
        let mut a = vec![0u32, 8, 1024];
        let mut b = vec![6u32, 2, 2];
        IntProd::encrypt_in_place(&keys[0], 0, &mut a, &mut scratch);
        IntProd::encrypt_in_place(&keys[1], 0, &mut b, &mut scratch);
        let mut agg: Vec<u32> = a.iter().zip(&b).map(|(x, y)| x.wrapping_mul(*y)).collect();
        IntProd::decrypt_in_place(&keys[0], 0, &mut agg, &mut scratch);
        assert_eq!(agg, vec![0, 16, 2048]);
    }

    #[test]
    fn xor_roundtrip() {
        let keys = CommKeys::generate(4, 6, Backend::AesSoft);
        let mut scratch = Scratch::default();
        let data: Vec<Vec<u64>> = (0..4)
            .map(|r| (0..7).map(|j| ((r as u64) << 32) | (j * 77)).collect())
            .collect();
        let mut agg = vec![0u64; 7];
        for (rank, keys) in keys.iter().enumerate() {
            let mut buf = data[rank].clone();
            IntXor::encrypt_in_place(keys, 0, &mut buf, &mut scratch);
            for (a, c) in agg.iter_mut().zip(buf.iter()) {
                *a = IntXor::combine(*a, *c);
            }
        }
        IntXor::decrypt_in_place(&keys[0], 0, &mut agg, &mut scratch);
        for j in 0..7 {
            let expect = data.iter().map(|v| v[j]).fold(0, |a, b| a ^ b);
            assert_eq!(agg[j], expect);
        }
    }

    #[test]
    fn naive_matches_cancelling_result() {
        let world = 3;
        let (keys, reg) = CommKeys::generate_with_registry(world, 77, Backend::AesSoft);
        let mut scratch = Scratch::default();
        let data: Vec<Vec<u32>> = (0..world)
            .map(|r| vec![r as u32 * 10 + 1, r as u32 * 10 + 2])
            .collect();
        let mut agg = vec![0u32; 2];
        for (rank, keys) in keys.iter().enumerate() {
            let mut buf = data[rank].clone();
            NaiveIntSum::encrypt_in_place(keys, 0, &mut buf, &mut scratch);
            for (a, c) in agg.iter_mut().zip(buf.iter()) {
                *a = a.wrapping_add(*c);
            }
        }
        NaiveIntSum::decrypt_in_place(&reg, 0, &mut agg, &mut scratch);
        assert_eq!(agg, vec![1 + 11 + 21, 2 + 12 + 22]);
    }

    #[test]
    fn temporal_safety_ciphertexts_change_across_epochs() {
        let mut keys = CommKeys::generate(2, 8, Backend::AesSoft);
        let mut scratch = Scratch::default();
        let plain = vec![42u32; 16];
        let mut c1 = plain.clone();
        IntSum::encrypt_in_place(&keys[0], 0, &mut c1, &mut scratch);
        keys[0].advance();
        let mut c2 = plain.clone();
        IntSum::encrypt_in_place(&keys[0], 0, &mut c2, &mut scratch);
        assert_ne!(
            c1, c2,
            "same plaintext must encrypt differently across calls"
        );
    }

    #[test]
    fn local_safety_equal_elements_encrypt_differently() {
        let keys = CommKeys::generate(2, 8, Backend::AesSoft);
        let mut scratch = Scratch::default();
        let mut buf = vec![7u32; 64];
        IntSum::encrypt_in_place(&keys[0], 0, &mut buf, &mut scratch);
        let distinct: std::collections::HashSet<u32> = buf.iter().copied().collect();
        assert!(
            distinct.len() > 60,
            "vector positions must use distinct noise"
        );
    }

    #[test]
    fn global_safety_ranks_encrypt_differently() {
        let keys = CommKeys::generate(3, 8, Backend::AesSoft);
        let mut scratch = Scratch::default();
        let plain = vec![7u32; 32];
        let mut c0 = plain.clone();
        let mut c1 = plain.clone();
        IntSum::encrypt_in_place(&keys[0], 0, &mut c0, &mut scratch);
        IntSum::encrypt_in_place(&keys[1], 0, &mut c1, &mut scratch);
        assert_ne!(
            c0, c1,
            "different ranks must use different noise (global safety)"
        );
    }

    #[test]
    fn empty_vector_is_ok() {
        let keys = CommKeys::generate(2, 8, Backend::AesSoft);
        let mut scratch = Scratch::default();
        let mut buf: Vec<u32> = vec![];
        IntSum::encrypt_in_place(&keys[0], 0, &mut buf, &mut scratch);
        IntSum::decrypt_in_place(&keys[0], 0, &mut buf, &mut scratch);
        assert!(buf.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::keys::CommKeys;
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
            let mut scratch = Scratch::default();
            let mut agg = vec![0u64; data.len()];
            for keys in &keys {
                let mut buf = data.clone();
                IntSum::encrypt_in_place(keys, 0, &mut buf, &mut scratch);
                for (a, c) in agg.iter_mut().zip(buf.iter()) {
                    *a = a.wrapping_add(*c);
                }
            }
            IntSum::decrypt_in_place(&keys[0], 0, &mut agg, &mut scratch);
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
            let mut scratch = Scratch::default();
            let mut agg = vec![0u32; data.len()];
            for keys in &keys {
                let mut buf = data.clone();
                IntXor::encrypt_in_place(keys, 0, &mut buf, &mut scratch);
                for (a, c) in agg.iter_mut().zip(buf.iter()) {
                    *a ^= *c;
                }
            }
            IntXor::decrypt_in_place(&keys[0], 0, &mut agg, &mut scratch);
            prop_assert!(agg.iter().all(|v| *v == 0));
        }

        #[test]
        fn prod_roundtrip_random(
            world in 1usize..5,
            data in proptest::collection::vec(any::<u32>(), 1..20),
            seed in any::<u64>(),
        ) {
            let keys = CommKeys::generate(world, seed, Backend::AesSoft);
            let mut scratch = Scratch::default();
            let mut agg = vec![1u32; data.len()];
            for keys in &keys {
                let mut buf = data.clone();
                IntProd::encrypt_in_place(keys, 0, &mut buf, &mut scratch);
                for (a, c) in agg.iter_mut().zip(buf.iter()) {
                    *a = a.wrapping_mul(*c);
                }
            }
            IntProd::decrypt_in_place(&keys[0], 0, &mut agg, &mut scratch);
            for (j, a) in agg.iter().enumerate() {
                let mut expect = 1u32;
                for _ in 0..world { expect = expect.wrapping_mul(data[j]); }
                prop_assert_eq!(*a, expect);
            }
        }
    }
}

//! Homomorphic message authentication codes (paper §5.5).
//!
//! HE is malleable; HoMACs let ranks verify that the network actually
//! computed the requested reduction. Each rank derives a per-ciphertext
//! key `s_i[j]` from the PRF, tags every ciphertext word with
//! `σ = (s_i[j] − c_i[j]) / Z mod p`, and the network sums `(c, σ)` pairs
//! component-wise. After reduction `Σ s_i[j] = c_t[j] + σ_t[j]·Z (mod p)`
//! must hold. The cancelling variant replaces `s_i` with `s_i − s_{i+1}`
//! so verification needs only `s_0` — the same Θ(1) trick as encryption.
//!
//! Two algebras meet in that equation when the tagged word is a ring word:
//! the data channel reduces modulo `2^b`, tags modulo `p`, so the true
//! integer sum `Σ c_i` equals the transported `c_t` plus `k·2^b` for some
//! overflow count `k < P`. Because `p = 2^61 − 1`, `2^b mod p =
//! 2^(b mod 61)`, and the `P` candidates collapse into one test
//! (`overflow_ok`). The public ring-word API ([`Homac::tag`],
//! [`Homac::verify`]) keeps that test; it is exact for words of 32 bits or
//! fewer and blind to `+8·k` and `±p` on 64-bit words.
//!
//! The engine's verified packet does not use it. Its digest lanes are
//! field elements from the start ([`Homac::seal_pass`],
//! [`Homac::open_pass`]; [`Homac::seal_lanes`] and [`Homac::open_lanes`]
//! on bare lanes): a lane carries one 32-bit half of a digest word, its
//! pad is the high half of the PRF block whose low half is the tag key,
//! the network adds lanes and tags alike modulo `p`, and opening demands a
//! zero residual — one algebra, no candidates.
//!
//! Every bulk entry point is one block pass of the pad driver every other
//! cipher uses (8-wide on AES-NI, sharded like the pads) on the rank's
//! pool, with the Mersenne fold for field arithmetic, no division: one
//! block an element for ring words and cells (`tag_batch`, `verify_batch`),
//! one a lane for digest lanes, an element's lanes in one step.
//! [`Homac::tag_plain`] / [`Homac::verify_plain`] and the `*_scalar` lane
//! functions stay scalar, one `eval_block` per key: the references the
//! kernels are tested and gated against.

use crate::keys::{CommKeys, KeyRegistry};
use crate::scheme::LaneArray;
use crate::word::RingWord;
use hear_prf::{
    par_block_pass, Append, Backend, BlockArray, Payload, Prf, PrfCipher, Source, Stream,
    WorkerPool,
};
use hear_telemetry::Metric::{HomacVerifyFail, HomacVerifyPass};
use std::convert::Infallible;

/// The HoMAC field modulus: the Mersenne prime `2^61 − 1` (λ = 61).
pub const HOMAC_P: u64 = (1u64 << 61) - 1;

/// `2^61 ≡ 1`, so the top three bits of any `u64` fold onto the low 61:
/// congruent to `x`, at most `p + 7`. The kernels sum a few of these and
/// let one final [`reduce`] or [`mul_p`] canonicalize.
#[inline]
fn fold(x: u64) -> u64 {
    (x & HOMAC_P) + (x >> 61)
}

/// Canonical residue of any `u64`: the fold and one conditional subtract.
/// The field operations below build on it, so they too take unreduced
/// operands up to 2^64 − 1 and return canonical residues.
#[inline]
fn reduce(x: u64) -> u64 {
    fold(x).checked_sub(HOMAC_P).unwrap_or(fold(x))
}

/// Two folds sum below 2^62 + 14, whose fold one subtract canonicalizes.
#[inline]
fn add_p(a: u64, b: u64) -> u64 {
    reduce(fold(a) + fold(b))
}

#[inline]
fn sub_p(a: u64, b: u64) -> u64 {
    reduce(reduce(a) + (HOMAC_P - reduce(b)))
}

/// `a·b = lo + mid·2^61 + hi·2^122 ≡ lo + mid + hi`, a sum below 2^62 + 64.
#[inline]
fn mul_p(a: u64, b: u64) -> u64 {
    let t = a as u128 * b as u128;
    reduce((t as u64 & HOMAC_P) + ((t >> 61) as u64 & HOMAC_P) + (t >> 122) as u64)
}

fn pow_p(mut base: u64, mut e: u64) -> u64 {
    let mut acc = 1u64;
    while e != 0 {
        if e & 1 == 1 {
            acc = mul_p(acc, base);
        }
        base = mul_p(base, base);
        e >>= 1;
    }
    acc
}

/// The overflow test of the ring-word API: is the canonical residual
/// `d = Σs − (c_t + σ_t·Z)` one of `k·2^b mod p`, `k < world`? With
/// `shift = b mod 61` and `(world − 1)·2^shift < p` (asserted in
/// [`Homac::verify`]) no candidate wraps the field: "the low `shift` bits
/// are clear, the quotient is below `world`". Cells and lanes call it with
/// `(0, 1)`: the residual must be zero.
#[inline]
fn overflow_ok(d: u64, shift: u32, world: u64) -> bool {
    d & ((1 << shift) - 1) == 0 && d >> shift < world
}

/// What the one-block kernels take an element's word for: a summed ring
/// word (the public `tag`/`verify`) or a single-origin cell.
const RING: u8 = 0;
const CELL: u8 = 1;

/// The field element a tag authenticates for word `c`, keyed by its PRF
/// block `k`: the word itself for a ring word; for a cell `lo32(c) +
/// Y·hi32(c)`, `Y` the high half of `k`, whose low half gives `s` (`c` and
/// `c ± p` are one residue, so the bare word would let a cell shifted by
/// `p` keep its tag; two halves below 2³² under a secret `Y` collide only
/// when the cells are equal, or with probability 1/p).
#[inline(always)]
fn message<const MODE: u8>(c: u64, k: u128) -> u64 {
    match MODE {
        CELL => (c & 0xFFFF_FFFF) + mul_p((k >> 64) as u64, c >> 32),
        _ => c,
    }
}

/// The cancelling tag `(lo(s) − lo(n) − m) / Z` of any `u64` message `m`:
/// the difference is `k − 2^64·borrows`, 2^64 ≡ 8, and `mul_p` takes it
/// unreduced.
#[inline(always)]
fn tag_of(m: u64, s: u128, n: u128, z_inv: u64) -> u64 {
    let (k, b1) = (s as u64).overflowing_sub(n as u64);
    let (k, b2) = k.overflowing_sub(m);
    mul_p(fold(k) + HOMAC_P - 8 * (b1 as u64 + b2 as u64), z_inv)
}

/// A lane's pad: the high halves of its own and next PRF blocks (`n` zero
/// without a next stream), as the tag key `s − n` is their low halves.
/// The network's sum of every rank's pad cancels to rank 0's `high64(F(base_zero + j))`. Unreduced, in
/// `[p − 8, 2p + 7]`: the integer difference is the wrapping one less
/// 2^64 on a borrow, and 2^64 ≡ 8.
#[inline(always)]
fn lane_pad(k: u128, n: u128) -> u64 {
    let (t, borrow) = ((k >> 64) as u64).overflowing_sub((n >> 64) as u64);
    fold(t) + HOMAC_P - 8 * borrow as u64
}

fn record_verdict(ok: bool) -> bool {
    hear_telemetry::incr(if ok { HomacVerifyPass } else { HomacVerifyFail });
    ok
}

/// Per-communicator HoMAC state: the verification key `Z` (with its field
/// inverse) and the tag PRF. All ranks hold identical copies, distributed
/// during the secure initialization alongside the encryption keys.
#[derive(Clone)]
pub struct Homac {
    z: u64,
    z_inv: u64,
    prf: PrfCipher,
}

impl Homac {
    pub fn generate(seed: u64, backend: Backend) -> Homac {
        let mut rng = crate::rng::KeyRng::new(seed ^ 0x48_6f_4d_41_43_u64); // "HoMAC"
        let z = rng.next_u64() % (HOMAC_P - 2) + 2;
        let z_inv = pow_p(z, HOMAC_P - 2);
        debug_assert_eq!(mul_p(z, z_inv), 1);
        let khs = rng.next_u128();
        Homac {
            z,
            z_inv,
            prf: PrfCipher::new(backend, khs).expect("backend availability checked by caller"),
        }
    }

    /// Per-ciphertext key `s(base, j) = low64(F(base + j)) mod p`.
    #[inline]
    fn s_at(&self, base: u128, j: u64) -> u64 {
        reduce(self.block_at(base, j) as u64)
    }

    /// The PRF block at index `j` of the stream at `base`, alone.
    fn block_at(&self, base: u128, j: u64) -> u128 {
        self.prf.eval_block(base.wrapping_add(j as u128))
    }

    /// The pass under every bulk entry point: `put(x, blocks)` appended for
    /// each element `x` of `src`, `blocks[k]` its `B` blocks `first + i·B
    /// ..` on the stream at `bases[k]`. One [`par_block_pass`] on the
    /// rank's pool: the first failing element stops it with nothing
    /// appended.
    fn pass<S: Source, O: Append, B: BlockArray, E: Send, const N: usize>(
        &self,
        bases: [u128; N],
        first: u64,
        src: S,
        out: O,
        put: impl Fn(S::Item, [B; N]) -> Result<O::Item, E> + Copy + Sync,
    ) -> Result<(), E> {
        let streams = bases.map(|base| Stream {
            prf: &self.prf,
            base,
        });
        let payload = Payload::Extend(src, out);
        WorkerPool::with_current(|pool| par_block_pass(pool, &streams, first, payload, put))
    }

    /// [`Homac::pass`] on the streams at `own` and `next`: `put(x, s, n)`,
    /// with `n` zero when there is no next stream (the pass then draws from
    /// `own` alone).
    fn cancelling_pass<S: Source, O: Append, B: BlockArray, E: Send>(
        &self,
        (own, next): (u128, Option<u128>),
        first: u64,
        src: S,
        out: O,
        put: impl Fn(S::Item, B, B) -> Result<O::Item, E> + Copy + Sync,
    ) -> Result<(), E> {
        match next {
            None => self.pass([own], first, src, out, move |x, [s]| put(x, s, B::ZERO)),
            Some(next) => self.pass([own, next], first, src, out, move |x, [s, n]| put(x, s, n)),
        }
    }

    /// Tag a batch: `σ[i] = (s(own, j) − s(next, j) − m[i]) / Z` at
    /// `j = first + i`, `m` the [`message`] of `cipher[i]` in `MODE`, the
    /// second stream only for the cancelling variant; `out` is cleared and
    /// filled with the tags.
    fn tag_batch<W: RingWord, const MODE: u8>(
        &self,
        streams: (u128, Option<u128>),
        first: u64,
        cipher: &[W],
        out: &mut Vec<u64>,
    ) {
        let _s = hear_telemetry::span!("homac_tag", elems = cipher.len());
        let z_inv = self.z_inv;
        let tag = move |c: W, s: u128, n: u128| {
            Ok::<_, Infallible>(tag_of(message::<MODE>(c.to_u64(), s), s, n, z_inv))
        };
        out.clear();
        let Ok(()) = self.cancelling_pass(streams, first, cipher, out, tag);
    }

    /// Check a batch against the key stream at `base`: with `(c, σ) =
    /// src[i]`, every residual `s(base, first + i) − (m + σ·Z)` must
    /// pass [`overflow_ok`] (`world = 1` demands it be zero), `m` the
    /// [`message`] of `c` in `MODE`. One block per element is attributed
    /// even when an element fails (failures abort the collective — only
    /// honest totals matter).
    fn verify_batch<W: RingWord, const MODE: u8>(
        &self,
        base: u128,
        first: u64,
        (shift, world): (u32, u64),
        src: (&[W], &[u64]),
    ) -> bool {
        let _s = hear_telemetry::span!("homac_verify", elems = src.count());
        let z = self.z;
        let check = move |(c, sigma): (W, u64), [s]: [u128; 1]| {
            let got = fold(message::<MODE>(c.to_u64(), s)) + mul_p(sigma, z); // < 2p + 7
            match overflow_ok(reduce(fold(s as u64) + 3 * HOMAC_P - got), shift, world) {
                true => Ok(()),
                false => Err(()),
            }
        };
        let verdict = self.pass([base], first, src, &mut Vec::new(), check);
        record_verdict(verdict.is_ok())
    }

    /// Seal the digest lanes of every element of `src`, appending `put(x,
    /// lanes, tags)` to `out`: `halves(x)` gives element `i`'s `L` lanes
    /// (32-bit halves of digest words), and lane `b` becomes the field
    /// element `m + pad` and its cancelling tag at PRF index `first + i·L +
    /// b` of this rank's own and next streams (pad and tag key are the high
    /// and low halves of one block). The network adds lanes and tags with
    /// [`Homac::combine`].
    pub fn seal_pass<S, O, L>(
        &self,
        keys: &CommKeys,
        first: u64,
        src: S,
        out: O,
        halves: impl Fn(&S::Item) -> L + Copy + Sync,
        put: impl Fn(S::Item, L, L) -> O::Item + Copy + Sync,
    ) where
        S: Source,
        O: Append,
        L: LaneArray,
    {
        let _s = hear_telemetry::span!("homac_tag", elems = src.count() * L::LANES);
        let z_inv = self.z_inv;
        // The sealed lane `m + pad` is left unreduced (below 2^63) for its
        // tag, so the tag need not wait for the reduction.
        let seal = move |x: S::Item, own: L::Blocks, next: L::Blocks| {
            let (m, mut lanes, mut tags) = (halves(&x), L::ZERO, L::ZERO);
            for b in 0..L::LANES {
                let (s, n) = (own.as_ref()[b], next.as_ref()[b]);
                debug_assert!(m.as_ref()[b] >> 32 == 0, "a lane carries 32 bits");
                let lane = m.as_ref()[b] + lane_pad(s, n);
                lanes.as_mut()[b] = reduce(lane);
                tags.as_mut()[b] = tag_of(lane, s, n, z_inv);
            }
            Ok::<_, Infallible>(put(x, lanes, tags))
        };
        let streams = (keys.base_own(), (!keys.is_last()).then(|| keys.base_next()));
        let Ok(()) = self.cancelling_pass(streams, first, src, out, seal);
    }

    /// Open the aggregates of lanes sealed by [`Homac::seal_pass`] at
    /// `first`: with `(lanes, tags) = sealed(x)`, every tag must verify
    /// exactly (residual zero), and `put(x, sums)` is appended to `out`,
    /// `sums` the lanes less rank 0's pads — the sums over ranks of the
    /// sealed halves, exact while `world·2³² < p`. On `false` nothing is
    /// appended; one block a lane is attributed even then.
    pub fn open_pass<S, O, L>(
        &self,
        keys: &CommKeys,
        first: u64,
        src: S,
        out: O,
        sealed: impl Fn(&S::Item) -> (L, L) + Copy + Sync,
        put: impl Fn(S::Item, L) -> O::Item + Copy + Sync,
    ) -> bool
    where
        S: Source,
        O: Append,
        L: LaneArray,
    {
        let _s = hear_telemetry::span!("homac_verify", elems = src.count() * L::LANES);
        let z = self.z;
        let open = move |x: S::Item, [k]: [L::Blocks; 1]| {
            let ((lanes, tags), mut sums, mut bad) = (sealed(&x), L::ZERO, 0);
            for b in 0..L::LANES {
                let (s, lane) = (k.as_ref()[b], lanes.as_ref()[b]);
                let got = fold(lane) + mul_p(tags.as_ref()[b], z); // < 2p + 7
                bad |= reduce(fold(s as u64) + 3 * HOMAC_P - got);
                sums.as_mut()[b] = reduce(fold(lane) + 3 * HOMAC_P - lane_pad(s, 0));
            }
            match bad {
                0 => Ok(put(x, sums)),
                _ => Err(()),
            }
        };
        let verdict = self.pass([keys.base_zero()], first, src, out, open);
        record_verdict(verdict.is_ok())
    }

    /// Cancelling tags for this rank's ciphertext block (Θ(1) verification).
    pub fn tag<W: RingWord>(&self, keys: &CommKeys, first: u64, cipher: &[W]) -> Vec<u64> {
        let mut out = Vec::new();
        self.tag_into(keys, first, cipher, &mut out);
        out
    }

    /// [`Homac::tag`] into a caller-owned vector — the engine stages tags
    /// through its pooled arena so verified steady state allocates nothing.
    pub fn tag_into<W: RingWord>(
        &self,
        keys: &CommKeys,
        first: u64,
        cipher: &[W],
        out: &mut Vec<u64>,
    ) {
        let next = (!keys.is_last()).then(|| keys.base_next());
        self.tag_batch::<W, RING>((keys.base_own(), next), first, cipher, out);
    }

    /// Non-cancelling tags (Θ(P) verification via [`Homac::verify_plain`]).
    pub fn tag_plain<W: RingWord>(&self, keys: &CommKeys, first: u64, cipher: &[W]) -> Vec<u64> {
        cipher
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let s = self.s_at(keys.base_own(), first + i as u64);
                mul_p(sub_p(s, c.to_u64()), self.z_inv)
            })
            .collect()
    }

    /// The tag-channel reduction the network applies.
    #[inline]
    pub fn combine(a: u64, b: u64) -> u64 {
        add_p(a, b)
    }

    /// Verify an aggregated block against its aggregated tags (cancelling
    /// variant: only rank 0's key stream is reconstructed), through the
    /// overflow test: the residual must be one of the `world` candidates
    /// `k·2^b mod p`.
    ///
    /// Exact for words of 32 bits or fewer, where every candidate stays
    /// below `p` and a word cannot move by `p`. On 64-bit words it is not:
    /// `2^64 ≡ 8 (mod p)`, so adding `8·k` to the aggregate is
    /// indistinguishable from `k` fewer honest wraps, and `c ± p` is the
    /// same residue as `c` — this check sees neither. Authenticate field
    /// lanes instead ([`Homac::seal_lanes`]) where that matters.
    pub fn verify<W: RingWord>(
        &self,
        keys: &CommKeys,
        first: u64,
        agg: &[W],
        tags: &[u64],
    ) -> bool {
        let (shift, world) = (W::BITS % 61, keys.world() as u64);
        assert!(
            world.saturating_sub(1) <= (HOMAC_P - 1) >> shift,
            "HoMAC overflow test needs (world − 1)·2^{shift} < p; world = {world}"
        );
        self.verify_batch::<W, RING>(keys.base_zero(), first, (shift, world), (agg, tags))
    }

    /// Verify non-cancelling tags: reconstructs all `P` key streams and scans
    /// the `P` overflow candidates one by one — `overflow_ok`'s reference.
    pub fn verify_plain<W: RingWord>(
        &self,
        registry: &KeyRegistry,
        first: u64,
        agg: &[W],
        tags: &[u64],
    ) -> bool {
        assert_eq!(agg.len(), tags.len());
        let _s = hear_telemetry::span!("homac_verify", elems = agg.len());
        let two_b = pow_p(2, W::BITS as u64);
        record_verdict(agg.iter().zip(tags).enumerate().all(|(i, (c, sigma))| {
            let j = first + i as u64;
            let s_sum = (0..registry.world())
                .fold(0u64, |acc, r| add_p(acc, self.s_at(registry.base_of(r), j)));
            let base = add_p(c.to_u64(), mul_p(*sigma, self.z));
            (0..registry.world() as u64).any(|k| add_p(base, mul_p(k, two_b)) == s_sum)
        }))
    }

    /// Tags for single-origin data on the *shared* collective stream
    /// (allgather/alltoall chunks): nothing to cancel — the chunk is never
    /// summed, so every rank derives the same key `s(base, first+i)` and any
    /// rank can verify any chunk. The MAC stream index must be disjoint from
    /// the pad indices (callers offset by `DIGEST_BASE`), or σ leaks pad words.
    /// A cell is authenticated through its two 32-bit halves, so no cell
    /// other than the tagged one verifies (a tag over the bare word would
    /// also accept the cell shifted by `p`).
    pub fn tag_shared(&self, base: u128, first: u64, cipher: &[u64], out: &mut Vec<u64>) {
        self.tag_batch::<u64, CELL>((base, None), first, cipher, out);
    }

    /// Verify single-origin ciphertexts against [`Homac::tag_shared`]
    /// tags. One contributor means no wrap-around: `m + σ·Z ≡ s (mod p)`
    /// must hold exactly for the cell's message `m`.
    pub fn verify_shared(&self, base: u128, first: u64, cipher: &[u64], tags: &[u64]) -> bool {
        self.verify_batch::<u64, CELL>(base, first, (0, 1), (cipher, tags))
    }

    /// Seal a run of digest lanes into `out`, one `[lane, tag]` per half:
    /// `halves[i] < 2³²` (one 32-bit half of a digest word) becomes the
    /// field element `m + pad` and gets the cancelling tag of that lane, at
    /// PRF index `first + i` of this rank's own and next streams — one lane
    /// per element of [`Homac::seal_pass`].
    pub fn seal_lanes(&self, keys: &CommKeys, first: u64, halves: &[u64], out: &mut Vec<[u64; 2]>) {
        assert!(
            halves.iter().all(|h| h >> 32 == 0),
            "a lane carries 32 bits"
        );
        out.clear();
        self.seal_pass(keys, first, halves, out, |h| [*h], |_, [d], [s]| [d, s]);
    }

    /// Open the aggregate of lanes sealed by [`Homac::seal_lanes`] at
    /// `first`, as `[lane, tag]` pairs, into `out` (cleared): one lane per
    /// element of [`Homac::open_pass`]. On `false`, `out` is meaningless.
    pub fn open_lanes(
        &self,
        keys: &CommKeys,
        first: u64,
        sealed: &[[u64; 2]],
        out: &mut Vec<u64>,
    ) -> bool {
        out.clear();
        let lane = |[d, s]: &[u64; 2]| ([*d], [*s]);
        self.open_pass(keys, first, sealed, out, lane, |_, [sum]| sum)
    }

    /// [`Homac::seal_lanes`] by its definition, one `eval_block` per key
    /// block: the scalar reference the kernel is tested and gated against.
    pub fn seal_lanes_scalar(&self, keys: &CommKeys, first: u64, halves: &[u64]) -> Vec<[u64; 2]> {
        (halves.iter().enumerate())
            .map(|(i, m)| {
                let j = first + i as u64;
                let own = self.block_at(keys.base_own(), j);
                let next = match keys.is_last() {
                    true => 0,
                    false => self.block_at(keys.base_next(), j),
                };
                let lane = add_p(*m, sub_p((own >> 64) as u64, (next >> 64) as u64));
                let key = sub_p(own as u64, next as u64);
                [lane, mul_p(sub_p(key, lane), self.z_inv)]
            })
            .collect()
    }

    /// [`Homac::open_lanes`] by its definition, one `eval_block` per lane:
    /// `None` unless `lane + σ·Z ≡ low64(k)` for every pair, else each
    /// `lane − high64(k) mod p`, `k = F(base_zero + first + i)`.
    pub fn open_lanes_scalar(
        &self,
        keys: &CommKeys,
        first: u64,
        sealed: &[[u64; 2]],
    ) -> Option<Vec<u64>> {
        (sealed.iter().enumerate())
            .map(|(i, [d, sigma])| {
                let k = self.block_at(keys.base_zero(), first + i as u64);
                let ok = add_p(*d, mul_p(*sigma, self.z)) == reduce(k as u64);
                ok.then(|| sub_p(*d, (k >> 64) as u64))
            })
            .collect()
    }

    /// Wire overhead of *one tag* relative to one data word, as a fraction
    /// (2.0 = 200% for 32-bit data) — the paper's §5.5 estimate. The
    /// engine's packet also carries the scheme's digest lanes, a tag each;
    /// the `homac` bench binary prints those real per-scheme sizes.
    pub fn inflation_for_width(bits: u32) -> f64 {
        64.0 / bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::int::IntSumScheme;
    use crate::scheme::Scheme;

    type Reduced<W> = (Vec<CommKeys>, KeyRegistry, Homac, Vec<W>, Vec<u64>);

    /// Encrypt and tag one row per rank (cancelling tags, or `plain`), then
    /// fold ciphertexts and tags the way the network would.
    fn reduce_tagged<W: RingWord>(rows: &[Vec<W>], plain: bool) -> Reduced<W> {
        let (keys, reg) = CommKeys::generate_with_registry(rows.len(), 99, Backend::AesSoft);
        let homac = Homac::generate(1234, Backend::AesSoft);
        let mut agg = vec![W::zero(); rows[0].len()];
        let mut tags = vec![0u64; agg.len()];
        for (keys, row) in keys.iter().zip(rows) {
            let mut buf = Vec::new();
            IntSumScheme::default()
                .mask_slice(keys, 0, row, &mut buf)
                .unwrap();
            let tag = if plain { Homac::tag_plain } else { Homac::tag };
            for (i, t) in tag(&homac, keys, 0, &buf).into_iter().enumerate() {
                agg[i] = agg[i].wadd(buf[i]);
                tags[i] = Homac::combine(tags[i], t);
            }
        }
        (keys, reg, homac, agg, tags)
    }

    fn rows(world: u32) -> Vec<Vec<u32>> {
        let row = |r| (0..9).map(|j| r * 100 + j).collect();
        (0..world).map(row).collect()
    }

    /// The cancelling variant's verdict on `rows(world)` after `tamper`.
    fn verdict(world: u32, tamper: impl Fn(&mut Vec<u32>, &mut Vec<u64>)) -> bool {
        let (keys, _, homac, mut agg, mut tags) = reduce_tagged(&rows(world), false);
        tamper(&mut agg, &mut tags);
        homac.verify(&keys[0], 0, &agg, &tags)
    }

    #[test]
    fn honest_reduction_verifies() {
        for world in [1, 2, 3, 7] {
            assert!(verdict(world, |_, _| {}), "world={world}");
        }
    }

    #[test]
    fn tampered_ciphertext_detected() {
        assert!(!verdict(3, |agg, _| agg[4] = agg[4].wrapping_add(1)));
    }

    #[test]
    fn tampered_tag_detected() {
        assert!(!verdict(3, |_, tags| tags[0] = add_p(tags[0], 1)));
    }

    #[test]
    fn swapped_elements_detected() {
        assert!(!verdict(4, |agg, _| agg.swap(0, 1)));
    }

    #[test]
    fn plain_variant_verifies_and_detects() {
        let (_, reg, homac, mut agg, tags) = reduce_tagged(&rows(3), true);
        assert!(homac.verify_plain(&reg, 0, &agg, &tags));
        agg[2] ^= 1;
        assert!(!homac.verify_plain(&reg, 0, &agg, &tags));
    }

    #[test]
    fn u64_words_with_ring_overflow_verify() {
        // Large u64 ciphertexts whose sum wraps 2^64 exercise the overflow test.
        let rows = vec![vec![u64::MAX - 3, 1u64 << 63, 12345]; 4];
        let (keys, _, homac, mut agg, tags) = reduce_tagged(&rows, false);
        assert!(homac.verify(&keys[0], 0, &agg, &tags));
        agg[1] = agg[1].wrapping_sub(1);
        assert!(!homac.verify(&keys[0], 0, &agg, &tags));
    }

    #[test]
    fn shared_stream_tags_verify_across_ranks_and_detect_tampering() {
        let (keys, _, homac, ..) = reduce_tagged(&rows(3), false);
        let base = keys[1].base_collective();
        // Rank 1 tags its chunk; rank 2 (same collective base) verifies.
        let cipher: Vec<u64> = (0..6)
            .map(|j| j * 0x0123_4567_89ab + u64::MAX / 3)
            .collect();
        let mut tags = Vec::new();
        homac.tag_shared(base, 1 << 20, &cipher, &mut tags);
        assert_eq!(keys[2].base_collective(), base);
        assert!(homac.verify_shared(base, 1 << 20, &cipher, &tags));
        // Wrong offset, tampered word, tampered tag all fail.
        assert!(!homac.verify_shared(base, (1 << 20) + 1, &cipher, &tags));
        let mut bad = cipher.clone();
        bad[3] ^= 1 << 40;
        assert!(!homac.verify_shared(base, 1 << 20, &bad, &tags));
        let mut bad_tags = tags.clone();
        bad_tags[0] = add_p(bad_tags[0], 1);
        assert!(!homac.verify_shared(base, 1 << 20, &cipher, &bad_tags));
    }

    /// The bulk cell tag against its definition, one `eval_block` per cell:
    /// `σ = (s − (lo32 + Y·hi32)) / Z` with `s` and `Y` the low and high
    /// halves of the cell's PRF block.
    #[test]
    fn shared_tags_match_the_scalar_definition() {
        let homac = Homac::generate(0x5EED, Backend::AesSoft);
        let (base, first) = (0x0123_4567_89ab_cdef_u128 << 32, 1 << 48);
        let cipher: Vec<u64> = (0..300u64)
            .map(|j| j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut tags = Vec::new();
        homac.tag_shared(base, first, &cipher, &mut tags);
        for (i, (c, sigma)) in cipher.iter().zip(&tags).enumerate() {
            let k = homac.prf.eval_block(base + (first + i as u64) as u128);
            let m = add_p(c & 0xFFFF_FFFF, mul_p((k >> 64) as u64, c >> 32));
            let want = mul_p(sub_p(reduce(k as u64), m), homac.z_inv);
            assert_eq!(*sigma, want, "cell {i}");
        }
    }

    /// The lane mode against its definition, one `eval_block` per key
    /// block: with `k`, `n` the blocks of lane `j` on the own and next
    /// streams (`n = 0` for the last rank), the sealed lane is
    /// `m + hi(k) − hi(n)` and its tag `(lo(k) − lo(n) − lane) / Z`;
    /// opening the aggregate checks `lane + σ·Z ≡ lo(k₀)` and returns
    /// `lane − hi(k₀)`, `k₀` rank 0's block. Three ranks (first, middle,
    /// last), past a tile; the scalar references agree too.
    #[test]
    fn lanes_match_the_scalar_definition() {
        let homac = Homac::generate(0x1A4E, Backend::AesSoft);
        let keys = CommKeys::generate(3, 0x1A4F, Backend::AesSoft);
        let first = (1u64 << 48) + 5;
        let block = |base: u128, j: usize| homac.prf.eval_block(base + (first + j as u64) as u128);
        let (hi, lo) = (|k: u128| (k >> 64) as u64, |k: u128| k as u64);
        let rows: Vec<Vec<u64>> = (0..3u64)
            .map(|r| {
                (0..300u64)
                    .map(|j| (j * 0x9E37_79B9 + r) & 0xFFFF_FFFF)
                    .collect()
            })
            .collect();
        let mut agg = vec![[0u64; 2]; 300];
        for (r, (keys, row)) in keys.iter().zip(&rows).enumerate() {
            let mut sealed = Vec::new();
            homac.seal_lanes(keys, first, row, &mut sealed);
            assert_eq!(
                sealed,
                homac.seal_lanes_scalar(keys, first, row),
                "rank {r}"
            );
            for (j, (m, [d, sigma])) in row.iter().zip(&sealed).enumerate() {
                let k = block(keys.base_own(), j);
                let n = if r == 2 {
                    0
                } else {
                    block(keys.base_next(), j)
                };
                let want = add_p(*m, sub_p(hi(k), hi(n)));
                assert_eq!(*d, want, "rank {r} lane {j}");
                let key = sub_p(lo(k), lo(n));
                assert_eq!(
                    *sigma,
                    mul_p(sub_p(key, want), homac.z_inv),
                    "rank {r} tag {j}"
                );
                let [lane, tag] = agg[j];
                agg[j] = [Homac::combine(lane, *d), Homac::combine(tag, *sigma)];
            }
        }
        let want: Vec<u64> = (0..300)
            .map(|j| {
                let ([lane, tag], k0) = (agg[j], block(keys[0].base_zero(), j));
                assert_eq!(add_p(lane, mul_p(tag, homac.z)), reduce(lo(k0)));
                sub_p(lane, hi(k0))
            })
            .collect();
        assert_eq!(
            want,
            (0..300)
                .map(|j| rows.iter().map(|r| r[j]).sum())
                .collect::<Vec<u64>>()
        );
        let mut opened = Vec::new();
        assert!(homac.open_lanes(&keys[1], first, &agg, &mut opened));
        assert_eq!(opened, want);
        let scalar = homac.open_lanes_scalar(&keys[2], first, &agg);
        assert_eq!(scalar, Some(want));
    }

    /// A pass fans out once it draws `PAR_MIN_BYTES` of PRF output across
    /// all its streams: on a 2-thread pool a lane seal with a next stream
    /// (two blocks a lane) shards at 2^15 lanes and runs inline at 2^14,
    /// and an open (one block a lane) shards at 2^16 and not at 2^15.
    #[test]
    fn lane_passes_fan_out_on_the_blocks_they_draw() {
        use hear_prf::{with_pool, WorkerPool, PAR_MIN_BYTES};
        assert_eq!(PAR_MIN_BYTES, 1 << 20);
        let keys = CommKeys::generate(2, 0xFA, Backend::best_available());
        let homac = Homac::generate(0xFB, Backend::best_available());
        let pool = WorkerPool::new(2);
        let fans_out = |pass: &dyn Fn()| {
            let jobs = pool.jobs();
            with_pool(&pool, pass);
            pool.jobs() > jobs
        };
        let seal =
            |n: usize| fans_out(&|| homac.seal_lanes(&keys[0], 0, &vec![7; n], &mut Vec::new()));
        let open = |n: usize| {
            fans_out(&|| {
                homac.open_lanes(&keys[0], 0, &vec![[0, 0]; n], &mut Vec::new());
            })
        };
        assert!(!keys[0].is_last());
        assert_eq!((seal(1 << 15), seal(1 << 14)), (true, false));
        assert_eq!((open(1 << 16), open(1 << 15)), (true, false));
    }

    /// `c` and `c ± p` are one residue mod p: a tag over the bare word
    /// would verify the shifted cell. Every cell shifted by ±p (whichever
    /// does not wrap the word), and by ±2p, must be rejected.
    #[test]
    fn a_shared_cell_shifted_by_p_is_rejected() {
        let homac = Homac::generate(0x5EED, Backend::AesSoft);
        let base = 0x0123_4567_89ab_cdef_u128 << 32;
        let cipher: Vec<u64> = (0..64u64)
            .map(|j| j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut tags = Vec::new();
        homac.tag_shared(base, 1 << 48, &cipher, &mut tags);
        assert!(homac.verify_shared(base, 1 << 48, &cipher, &tags));
        for i in 0..cipher.len() {
            for k in [1, 2] {
                let c = cipher[i];
                let shifted = c.checked_add(k * HOMAC_P).or(c.checked_sub(k * HOMAC_P));
                let mut bad = cipher.clone();
                bad[i] = shifted.expect("one direction fits");
                assert!(
                    !homac.verify_shared(base, 1 << 48, &bad, &tags),
                    "cell {i} shifted by {k}p verified"
                );
            }
        }
    }

    #[test]
    fn field_arithmetic_sane() {
        assert_eq!(mul_p(HOMAC_P - 1, HOMAC_P - 1), 1); // (-1)^2
        assert_eq!(add_p(HOMAC_P - 1, 1), 0);
        assert_eq!(sub_p(0, 1), HOMAC_P - 1);
        assert_eq!(pow_p(2, 61), 1); // 2^61 ≡ 1 (Mersenne)
        let z = 0x1234_5678_9abc_u64;
        assert_eq!(mul_p(z, pow_p(z, HOMAC_P - 2)), 1);
    }

    /// The folded operations against the `u128 %` they replaced, on
    /// unreduced operands: the edge grid and 10^5 random pairs.
    #[test]
    fn folded_ops_match_the_u128_reference() {
        const P: u64 = HOMAC_P;
        let edges = [0, 1, P - 1, P, P + 1, 1 << 61, 1 << 63, u64::MAX];
        let mut rng = proptest::TestRng::new(0x61);
        let random = (0..100_000).map(|_| (rng.next_u64(), rng.next_u64()));
        let grid = edges.iter().flat_map(|a| edges.iter().map(|b| (*a, *b)));
        for (a, b) in grid.chain(random) {
            let (wa, wb, p) = (a as u128, b as u128, P as u128);
            let want = [(wa + wb) % p, (wa + p - wb % p) % p, wa * wb % p];
            let got = [add_p(a, b), sub_p(a, b), mul_p(a, b)];
            assert_eq!(got.map(u128::from), want, "a={a:#x} b={b:#x}");
        }
    }

    /// `overflow_ok` against the Θ(world) candidate scan it replaced, for
    /// `world` b-bit words whose true sum `c_t + wraps·2^b` wraps every
    /// possible number of times, seen honestly and off by one. (`s0` stands
    /// in for Σs; σZ is whatever makes the honest equation hold.)
    #[test]
    fn overflow_test_agrees_with_the_candidate_scan() {
        for (bits, world) in [8u32, 16, 32, 64]
            .into_iter()
            .flat_map(|b| [1u64, 2, 3, 7, 64].map(|w| (b, w)))
        {
            let (shift, two_b) = (bits % 61, pow_p(2, bits as u64));
            let scan = |d: u64| (0..world).any(|k| mul_p(k, two_b) == d);
            let max = u64::MAX >> (64 - bits);
            for s0 in [0, 5, HOMAC_P - 1, 0x0123_4567_89ab_cdef % HOMAC_P] {
                for (wraps, c_t) in (0..world).flat_map(|k| [0, 1, max - 1, max].map(|c| (k, c))) {
                    let sigma_z = sub_p(s0, add_p(c_t, mul_p(wraps, two_b)));
                    for seen in [c_t, c_t.wrapping_add(1) & max, c_t.wrapping_sub(1) & max] {
                        let d = sub_p(s0, add_p(seen, sigma_z));
                        assert_eq!(overflow_ok(d, shift, world), scan(d), "{bits} {world}");
                        assert!(
                            scan(d) || seen != c_t,
                            "honest sum rejected: {bits} {world}"
                        );
                    }
                }
            }
        }
        assert!(!overflow_ok(1, 32, 64) && !overflow_ok(64 << 32, 32, 64));
        assert!(overflow_ok(63 << 32, 32, 64) && !overflow_ok(HOMAC_P - 1, 32, 64));
    }

    #[test]
    fn inflation_matches_paper_estimate() {
        // "more than 200% inflation for reasonable 64-bit p": one tag per word.
        assert_eq!(Homac::inflation_for_width(32), 2.0);
        assert_eq!(Homac::inflation_for_width(64), 1.0);
    }

    #[test]
    fn epoch_advance_changes_tags() {
        let (mut keys, _, homac, ..) = reduce_tagged(&rows(2), false);
        let cipher = vec![5u32; 4];
        let t1 = homac.tag(&keys[0], 0, &cipher);
        keys[0].advance();
        let t2 = homac.tag(&keys[0], 0, &cipher);
        assert_ne!(t1, t2);
    }
}

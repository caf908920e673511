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
//! One honest bookkeeping detail: the data channel reduces ciphertexts
//! modulo `2^b`, while tags live modulo `p`, so the true integer sum
//! `Σ c_i` equals the transported `c_t` plus `k·2^b` for some overflow
//! count `k < P`. Because `p = 2^61 − 1`, `2^b mod p = 2^(b mod 61)`, and
//! the `P` candidates collapse into one test (`overflow_ok`): the residual
//! `d = s_0 − (c_t + σ_t·Z)` must be a multiple of that power of two with
//! quotient below `P`.
//!
//! The bulk entry points run one kernel per side (`tag_chunk`,
//! `verify_chunk`): keys come a `TILE` at a time through the bulk PRF fill
//! (8-wide on AES-NI) and the field arithmetic is the Mersenne fold, no
//! division. [`Homac::tag_plain`] / [`Homac::verify_plain`] stay scalar, one
//! `eval_block` per key: the reference the kernels are tested against.

use crate::keys::{CommKeys, KeyRegistry};
use crate::word::RingWord;
use hear_prf::{blocks_metric, for_each_shard, Backend, Prf, PrfCipher, WorkerPool};
use hear_telemetry::Metric::{HomacVerifyFail, HomacVerifyPass};
use std::sync::atomic::{AtomicBool, Ordering};

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

#[inline]
fn add_p(a: u64, b: u64) -> u64 {
    reduce(reduce(a) + reduce(b))
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

/// The overflow test: is the canonical residual `d = Σs − (c_t + σ_t·Z)` one
/// of `k·2^b mod p`, `k < world`? With `shift = b mod 61` and
/// `(world − 1)·2^shift < p` (asserted in [`Homac::verify`]) no candidate wraps
/// the field: "the low `shift` bits are clear, the quotient is below `world`".
#[inline]
fn overflow_ok(d: u64, shift: u32, world: u64) -> bool {
    d & ((1 << shift) - 1) == 0 && d >> shift < world
}

fn record_verdict(ok: bool) -> bool {
    hear_telemetry::incr(if ok { HomacVerifyPass } else { HomacVerifyFail });
    ok
}

/// Keys derived per bulk PRF fill: 4 KiB of blocks on the stack.
const TILE: usize = 256;

/// Smallest tag/verify batch worth fanning out. Measured with the tiled
/// kernel on AES-NI, one thread: ≈ 7 ns per element tagging on two key
/// streams, ≈ 6 ns verifying — so 2^15 elements are ≈ 0.2 ms of serial work,
/// the floor the mask kernels' `PAR_MIN_BYTES` sets (1 MiB at ≈ 5 GB/s), and
/// where two threads first beat one here (≈ 160 µs against ≈ 250 µs).
const PAR_MIN_ELEMS: usize = 1 << 15;

/// One shard per half [`PAR_MIN_ELEMS`], capped by the pool; 1 below it.
fn digest_shards(pool: &WorkerPool, n: usize) -> usize {
    match n {
        0..PAR_MIN_ELEMS => 1,
        _ => (n / (PAR_MIN_ELEMS / 2)).clamp(1, pool.threads()),
    }
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
        reduce(self.prf.eval_block(base.wrapping_add(j as u128)) as u64)
    }

    /// Tag a batch into `out`: `out[i] = (s(own, j) − s(next, j) − c[i]) / Z`
    /// at `j = first + i`, the second stream only for the cancelling variant.
    /// Fanned out over the current worker pool above [`PAR_MIN_ELEMS`]: tags
    /// are pure in `(base, j)` like the pads, so index ranges compute
    /// bit-identically on any thread. Workers have no registry context; this
    /// thread attributes the exact block total up front.
    fn tag_batch<W: RingWord>(
        &self,
        own: u128,
        next: Option<u128>,
        first: u64,
        cipher: &[W],
        out: &mut Vec<u64>,
    ) {
        let _s = hear_telemetry::span!("homac_tag", elems = cipher.len());
        let blocks = (1 + next.is_some() as u64) * cipher.len() as u64;
        hear_telemetry::add(blocks_metric(self.prf.backend()), blocks);
        out.resize(cipher.len(), 0); // every slot is overwritten below
                                     // The chunk kernel: one contiguous run, keys a tile at a time.
        let kernel = |start: usize, out: &mut [u64]| {
            let mut ks = [0u128; TILE];
            // Stays zero without a second stream: nothing to subtract below.
            let mut kn = [0u128; TILE];
            let run = &cipher[start..start + out.len()];
            for (t, (cs, os)) in run.chunks(TILE).zip(out.chunks_mut(TILE)).enumerate() {
                let j = (first + (start + t * TILE) as u64) as u128;
                let (ks, kn) = (&mut ks[..cs.len()], &mut kn[..cs.len()]);
                self.prf.fill_blocks_uncounted(own.wrapping_add(j), ks);
                if let Some(next) = next {
                    self.prf.fill_blocks_uncounted(next.wrapping_add(j), kn);
                }
                for (((c, o), s), n) in cs.iter().zip(os).zip(ks).zip(kn) {
                    // s − n − c over the integers is k − 2^64·borrows, and
                    // 2^64 ≡ 8; left unreduced, `mul_p` takes any u64.
                    let (k, b1) = (*s as u64).overflowing_sub(*n as u64);
                    let (k, b2) = k.overflowing_sub(c.to_u64());
                    let diff = fold(k) + HOMAC_P - 8 * (b1 as u64 + b2 as u64);
                    *o = mul_p(diff, self.z_inv);
                }
            }
        };
        WorkerPool::with_current(|pool| {
            for_each_shard(pool, out, digest_shards(pool, cipher.len()), kernel)
        });
    }

    /// Check a batch against the key stream at `base`: every residual
    /// `s(base, first + i) − (c[i] + σ[i]·Z)` must pass [`overflow_ok`]
    /// (`world = 1` demands it be zero). Fans out like [`Homac::tag_batch`];
    /// one block per element is attributed even when a failing shard stops
    /// early (failures abort the collective — only honest totals matter).
    fn verify_batch<W: RingWord>(
        &self,
        base: u128,
        first: u64,
        (shift, world): (u32, u64),
        agg: &[W],
        tags: &[u64],
    ) -> bool {
        assert_eq!(agg.len(), tags.len());
        let _s = hear_telemetry::span!("homac_verify", elems = agg.len());
        hear_telemetry::add(blocks_metric(self.prf.backend()), agg.len() as u64);
        // The chunk kernel: one contiguous run, keys a tile at a time.
        let kernel = |start: usize, end: usize| {
            let mut ks = [0u128; TILE];
            let (cs, sigmas) = (agg[start..end].chunks(TILE), tags[start..end].chunks(TILE));
            cs.zip(sigmas).enumerate().all(|(t, (cs, sigmas))| {
                let j = (first + (start + t * TILE) as u64) as u128;
                let ks = &mut ks[..cs.len()];
                self.prf.fill_blocks_uncounted(base.wrapping_add(j), ks);
                // Branch-free within the tile: a failure costs at most one tile.
                (cs.iter().zip(sigmas).zip(ks)).fold(true, |ok, ((c, sigma), s)| {
                    let got = fold(c.to_u64()) + mul_p(*sigma, self.z); // < 2p + 7
                    ok & overflow_ok(reduce(fold(*s as u64) + 3 * HOMAC_P - got), shift, world)
                })
            })
        };
        let all_ok = AtomicBool::new(true);
        WorkerPool::with_current(|pool| {
            let nshards = digest_shards(pool, agg.len());
            let chunk = agg.len().div_ceil(nshards);
            pool.run(nshards, &|k| {
                let (s, e) = (k * chunk, ((k + 1) * chunk).min(agg.len()));
                if all_ok.load(Ordering::Relaxed) && s < e && !kernel(s, e) {
                    all_ok.store(false, Ordering::Relaxed);
                }
            })
        });
        record_verdict(all_ok.load(Ordering::Relaxed))
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
        self.tag_batch(keys.base_own(), next, first, cipher, out);
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
    /// variant: only rank 0's key stream is reconstructed).
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
        self.verify_batch(keys.base_zero(), first, (shift, world), agg, tags)
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
    pub fn tag_shared(&self, base: u128, first: u64, cipher: &[u64], out: &mut Vec<u64>) {
        self.tag_batch(base, None, first, cipher, out);
    }

    /// Verify single-origin ciphertexts against [`Homac::tag_shared`]
    /// tags. One contributor means no wrap-around: `c + σ·Z ≡ s (mod p)`
    /// must hold exactly.
    pub fn verify_shared(&self, base: u128, first: u64, cipher: &[u64], tags: &[u64]) -> bool {
        self.verify_batch(base, first, (0, 1), cipher, tags)
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
    use crate::int::{IntSum, Scratch};

    type Reduced<W> = (Vec<CommKeys>, KeyRegistry, Homac, Vec<W>, Vec<u64>);

    /// Encrypt and tag one row per rank (cancelling tags, or `plain`), then
    /// fold ciphertexts and tags the way the network would.
    fn reduce_tagged<W: RingWord>(rows: &[Vec<W>], plain: bool) -> Reduced<W> {
        let (keys, reg) = CommKeys::generate_with_registry(rows.len(), 99, Backend::AesSoft);
        let homac = Homac::generate(1234, Backend::AesSoft);
        let mut agg = vec![W::zero(); rows[0].len()];
        let mut tags = vec![0u64; agg.len()];
        for (keys, row) in keys.iter().zip(rows) {
            let mut buf = row.clone();
            IntSum::encrypt_in_place(keys, 0, &mut buf, &mut Scratch::default());
            let tag = if plain { Homac::tag_plain } else { Homac::tag };
            for (i, t) in tag(&homac, keys, 0, &buf).into_iter().enumerate() {
                agg[i] = IntSum::combine(agg[i], buf[i]);
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

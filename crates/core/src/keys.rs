//! Key generation and progression (paper §5, "Key Generation").
//!
//! Per communicator, each rank `i` of `P` draws a local starting key
//! `ks_i`; rank 0 additionally draws the collective key `kc`, the
//! encryption PRF key `ke` and the progression PRF key `kp`, which are
//! broadcast securely. After initialization every rank holds exactly six
//! keys — `ks_i`, `ks_{(i+1) mod P}`, `ks_0`, `kc`, `ke`, `kp` — so key
//! state is Θ(1) in the communicator size.
//!
//! (The paper's prose says ranks store the keys of ranks *i−1* and 0, but
//! its Eq. 1 cancels against rank *i+1*'s noise; we follow the equation —
//! see DESIGN.md.)
//!
//! Before every Allreduce all ranks advance the collective key,
//! `kc ← F_kp(kc)`, which provides temporal safety: the same plaintext
//! encrypts differently across consecutive calls.

use crate::rng::KeyRng;
use hear_prf::{Backend, Prf, PrfCipher};

/// The Θ(1) per-rank key state for one communicator.
pub struct CommKeys {
    rank: usize,
    world: usize,
    ks_own: u64,
    ks_next: u64,
    ks_zero: u64,
    kc: u64,
    ke_prf: PrfCipher,
    kp_prf: PrfCipher,
}

impl CommKeys {
    /// Run the initialization phase for a `world`-rank communicator,
    /// returning each rank's key state. Deterministic in `seed` (the secure
    /// environment's entropy source in the real deployment).
    pub fn generate(world: usize, seed: u64, backend: Backend) -> Vec<CommKeys> {
        let (keys, _) = Self::generate_with_registry(world, seed, backend);
        keys
    }

    /// Like [`CommKeys::generate`] but also returns the full key registry,
    /// needed by the non-cancelling naive scheme (Fig. 1) whose decryption
    /// aggregates all `P` local keys, and by white-box tests.
    pub fn generate_with_registry(
        world: usize,
        seed: u64,
        backend: Backend,
    ) -> (Vec<CommKeys>, KeyRegistry) {
        let _s = hear_telemetry::span!("keygen", world = world);
        assert!(world >= 1, "communicator needs at least one rank");
        assert!(
            backend.is_available(),
            "PRF backend not available on this CPU"
        );
        let mut rng = KeyRng::new(seed);
        let ks: Vec<u64> = (0..world).map(|_| rng.next_u64()).collect();
        let kc = rng.next_u64();
        let ke = rng.next_u128();
        let kp = rng.next_u128();
        let keys = (0..world)
            .map(|rank| CommKeys {
                rank,
                world,
                ks_own: ks[rank],
                ks_next: ks[(rank + 1) % world],
                ks_zero: ks[0],
                kc,
                ke_prf: PrfCipher::new(backend, ke).expect("backend availability checked"),
                kp_prf: PrfCipher::new(backend, kp).expect("backend availability checked"),
            })
            .collect();
        let registry = KeyRegistry {
            ks,
            kc,
            ke_prf: PrfCipher::new(backend, ke).expect("backend availability checked"),
            kp_prf: PrfCipher::new(backend, kp).expect("backend availability checked"),
        };
        (keys, registry)
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn world(&self) -> usize {
        self.world
    }

    /// True for the rank that applies un-cancelled noise (Eq. 1's `i = P−1`
    /// case).
    pub fn is_last(&self) -> bool {
        self.rank == self.world - 1
    }

    /// Advance the collective key: `kc ← F_kp(kc)`. Every rank of the
    /// communicator must call this once per Allreduce, in the same order.
    pub fn advance(&mut self) {
        hear_telemetry::incr(hear_telemetry::Metric::KeyAdvances);
        self.kc = self.kp_prf.eval_block(self.kc as u128) as u64;
    }

    /// Current collective-key epoch (for cross-rank consistency asserts).
    pub fn epoch(&self) -> u64 {
        self.kc
    }

    /// The encryption PRF `F_ke`.
    pub fn prf(&self) -> &PrfCipher {
        &self.ke_prf
    }

    /// PRF input base `ks_i + kc` for this rank's own noise stream.
    pub fn base_own(&self) -> u128 {
        self.ks_own.wrapping_add(self.kc) as u128
    }

    /// PRF input base for the next rank's noise stream (cancellation).
    pub fn base_next(&self) -> u128 {
        self.ks_next.wrapping_add(self.kc) as u128
    }

    /// PRF input base for rank 0's noise stream (decryption).
    pub fn base_zero(&self) -> u128 {
        self.ks_zero.wrapping_add(self.kc) as u128
    }

    /// PRF input base `kc` alone — the shared noise stream of the float
    /// addition scheme (Eq. 7), which deliberately involves no per-rank key.
    pub fn base_collective(&self) -> u128 {
        self.kc as u128
    }

    /// The epoch the *next* [`CommKeys::advance`] will move to, without
    /// advancing and without touching the `KeyAdvances` counter (the real
    /// advance, not the peek, is the accountable event). A rank that
    /// completed a call its peers are about to re-run derives its shrink
    /// salt from this: the peers advanced once more for that call.
    pub fn peek_next_epoch(&self) -> u64 {
        self.kp_prf.eval_block_uncounted(self.kc as u128) as u64
    }

    /// Re-derive the ring keys over a survivor set at a fresh membership
    /// epoch (shrink-and-continue after a `PeerDead` eviction).
    ///
    /// `members` are the *old* ranks of the survivors in ascending order
    /// (must contain this rank); `salt` is the agreed membership-epoch
    /// value every survivor computes identically. Each survivor derives
    /// the new ring from material it already shares — the progression
    /// PRF `F_kp` — so no extra key exchange is needed: old rank `m`'s
    /// new starting key is `F_kp(salt ∥ m+1)` and the new collective key
    /// is `F_kp(salt ∥ 0)` (the low word 0 is reserved for `kc`, so the
    /// domains never collide). Every survivor can evaluate every ring
    /// position, but each keeps only the Θ(1) triple the ring protocol
    /// needs, exactly like initial generation.
    ///
    /// Temporal safety across the shrink: the new `kc'` is drawn from a
    /// PRF domain (`salt ∥ 0`) disjoint from the progression chain
    /// `kc ← F_kp(kc)`, so no pad position of the shrunk ring coincides
    /// with a pre-shrink pad — a resend of the surviving contributions
    /// under the new keys is never a two-time pad (see DESIGN.md §11).
    pub fn rebase(&self, members: &[usize], salt: u64) -> CommKeys {
        assert!(!members.is_empty(), "survivor set cannot be empty");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "survivor set must be strictly ascending"
        );
        assert!(
            members.iter().all(|&m| m < self.world),
            "survivor outside the old world"
        );
        let pos = members
            .iter()
            .position(|&m| m == self.rank)
            .expect("rebase caller must be in the survivor set");
        let world = members.len();
        let key_for = |old_rank: usize| {
            self.kp_prf
                .eval_block(mix_rebase(salt, old_rank as u64 + 1)) as u64
        };
        CommKeys {
            rank: pos,
            world,
            ks_own: key_for(members[pos]),
            ks_next: key_for(members[(pos + 1) % world]),
            ks_zero: key_for(members[0]),
            kc: self.kp_prf.eval_block(mix_rebase(salt, 0)) as u64,
            ke_prf: self.ke_prf.clone(),
            kp_prf: self.kp_prf.clone(),
        }
    }
}

/// Domain-separated PRF input for [`CommKeys::rebase`]: the salt in the
/// high word, the (shifted) old rank in the low word.
fn mix_rebase(salt: u64, slot: u64) -> u128 {
    ((salt as u128) << 64) | slot as u128
}

/// The full key material of a communicator, as known to the trusted
/// initialization context. Required only by the naive (non-cancelling)
/// scheme whose decryption cost is Θ(P), and by tests.
pub struct KeyRegistry {
    ks: Vec<u64>,
    kc: u64,
    ke_prf: PrfCipher,
    kp_prf: PrfCipher,
}

impl KeyRegistry {
    pub fn world(&self) -> usize {
        self.ks.len()
    }

    pub fn advance(&mut self) {
        self.kc = self.kp_prf.eval_block(self.kc as u128) as u64;
    }

    pub fn epoch(&self) -> u64 {
        self.kc
    }

    pub fn prf(&self) -> &PrfCipher {
        &self.ke_prf
    }

    /// PRF base `ks_r + kc` for an arbitrary rank `r`.
    pub fn base_of(&self, rank: usize) -> u128 {
        self.ks[rank].wrapping_add(self.kc) as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(world: usize) -> Vec<CommKeys> {
        CommKeys::generate(world, 0xc0ffee, Backend::AesSoft)
    }

    #[test]
    fn ring_of_keys_is_consistent() {
        let keys = gen(4);
        for i in 0..4 {
            assert_eq!(keys[i].rank(), i);
            assert_eq!(keys[i].world(), 4);
            // ks_next of rank i equals ks_own of rank i+1 (mod P):
            assert_eq!(keys[i].base_next(), keys[(i + 1) % 4].base_own());
            // everyone agrees on rank 0's stream:
            assert_eq!(keys[i].base_zero(), keys[0].base_own());
        }
        assert!(keys[3].is_last());
        assert!(!keys[0].is_last());
    }

    #[test]
    fn single_rank_communicator() {
        let keys = gen(1);
        assert!(keys[0].is_last());
        assert_eq!(keys[0].base_next(), keys[0].base_own());
        assert_eq!(keys[0].base_zero(), keys[0].base_own());
    }

    #[test]
    fn advance_stays_synchronized() {
        let mut keys = gen(3);
        let e0 = keys[0].epoch();
        for k in &mut keys {
            k.advance();
        }
        assert_ne!(keys[0].epoch(), e0, "temporal safety: kc must change");
        assert!(keys.iter().all(|k| k.epoch() == keys[0].epoch()));
        // Bases change with the epoch.
        for k in &mut keys {
            let b = k.base_own();
            k.advance();
            assert_ne!(k.base_own(), b);
        }
    }

    #[test]
    fn registry_matches_rank_views() {
        let (mut keys, mut reg) = CommKeys::generate_with_registry(5, 7, Backend::AesSoft);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(reg.base_of(i), k.base_own());
        }
        // Registry advances in lockstep.
        reg.advance();
        for k in &mut keys {
            k.advance();
        }
        assert_eq!(reg.epoch(), keys[0].epoch());
        assert_eq!(reg.base_of(2), keys[2].base_own());
    }

    #[test]
    fn different_seeds_different_keys() {
        let a = CommKeys::generate(2, 1, Backend::AesSoft);
        let b = CommKeys::generate(2, 2, Backend::AesSoft);
        assert_ne!(a[0].base_own(), b[0].base_own());
    }

    #[test]
    fn prf_streams_agree_across_ranks() {
        use hear_prf::{KernelWord, Prf};
        let keys = gen(3);
        // Word `j` of a 32-bit stream: word `j mod 4` of block `F(base + ⌊j/4⌋)`.
        let word = |k: &CommKeys, base: u128, j: u64| {
            let block = k.prf().eval_block(base.wrapping_add((j / 4) as u128));
            u32::extract(block, (j % 4) as usize)
        };
        // Rank 0's cancellation noise for rank 1 equals rank 1's own noise.
        for j in 0..64 {
            assert_eq!(
                word(&keys[0], keys[0].base_next(), j),
                word(&keys[1], keys[1].base_own(), j)
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_world_rejected() {
        CommKeys::generate(0, 1, Backend::AesSoft);
    }

    #[test]
    fn rebase_survivor_ring_is_consistent() {
        let keys = gen(4);
        // Rank 2 died; survivors re-derive a 3-ring.
        let members = [0usize, 1, 3];
        let salt = 0xdead_beef;
        let shrunk: Vec<CommKeys> = members
            .iter()
            .map(|&m| keys[m].rebase(&members, salt))
            .collect();
        for (pos, k) in shrunk.iter().enumerate() {
            assert_eq!(k.rank(), pos);
            assert_eq!(k.world(), 3);
            assert_eq!(k.base_next(), shrunk[(pos + 1) % 3].base_own());
            assert_eq!(k.base_zero(), shrunk[0].base_own());
        }
        assert!(shrunk[2].is_last());
        // Every survivor lands on the same fresh collective key...
        assert!(shrunk.iter().all(|k| k.epoch() == shrunk[0].epoch()));
        // ...distinct from the pre-shrink epoch (no pad reuse).
        assert_ne!(shrunk[0].epoch(), keys[0].epoch());
        // And the re-derived bases differ from the old ring's.
        for (&m, k) in members.iter().zip(&shrunk) {
            assert_ne!(k.base_own(), keys[m].base_own());
        }
    }

    #[test]
    fn rebase_is_deterministic_and_salt_separated() {
        let keys = gen(3);
        let members = [0usize, 2];
        let a = keys[0].rebase(&members, 7);
        let b = keys[0].rebase(&members, 7);
        assert_eq!(a.base_own(), b.base_own());
        assert_eq!(a.epoch(), b.epoch());
        let c = keys[0].rebase(&members, 8);
        assert_ne!(
            a.epoch(),
            c.epoch(),
            "distinct salts must give distinct epochs"
        );
    }

    #[test]
    fn rebase_to_singleton_world() {
        let keys = gen(2);
        let solo = keys[1].rebase(&[1], 3);
        assert_eq!(solo.rank(), 0);
        assert_eq!(solo.world(), 1);
        assert!(solo.is_last());
        assert_eq!(solo.base_next(), solo.base_own());
        assert_eq!(solo.base_zero(), solo.base_own());
    }

    #[test]
    #[should_panic(expected = "survivor set")]
    fn rebase_rejects_caller_outside_survivors() {
        let keys = gen(3);
        keys[1].rebase(&[0, 2], 1);
    }
}

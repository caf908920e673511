//! Keystream prefetch cache: the hand-off point between a rank-local
//! producer thread and the scheme hot path.
//!
//! Key progression is deterministic (`kc ← F_kp(kc)`), so the PRF blocks
//! an allreduce will consume are computable one epoch ahead. The layer
//! crate runs a worker that fills [`CacheSlot`]s for epoch *i+1* while
//! epoch *i* is in its communication phase and publishes them here; the
//! integer schemes consult [`KeystreamCache::with_blocks`] before falling
//! back to inline generation. A lookup can miss for any reason — cold
//! cache, epoch mismatch after an unexpected extra `advance`, a stream the
//! producer skipped, or a block range the plan did not cover — and a miss
//! is always safe: the consumer regenerates inline and the result is
//! bit-identical.
//!
//! The cache keeps the **two** most recent generations. That matters for
//! overlap: the producer publishes epoch *i+1* while the consumer may
//! still be draining epoch *i* (e.g. the decrypt at the tail of a
//! pipelined call), so evicting on publish would turn the tail of every
//! call into misses. Double buffering falls out of
//! [`KeystreamCache::publish`] returning the evicted generation: the
//! producer keeps recycling generations of block buffers, so the steady
//! state allocates nothing.

use std::sync::{Arc, Mutex};

/// How many epochs of keystream stay live at once (current + prefetched).
const LIVE_GENERATIONS: usize = 2;

/// What the producer should generate for one noise stream of an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPlan {
    /// PRF input base of the stream (`ks_* + kc` for the target epoch).
    pub base: u128,
    /// First 128-bit block index the consumer will touch.
    pub first_block: u64,
    /// Number of consecutive blocks to generate.
    pub nblocks: usize,
}

/// A generated run of PRF blocks for one stream.
#[derive(Debug, Default)]
pub struct CacheSlot {
    /// PRF input base the blocks belong to.
    pub base: u128,
    /// Block index of `blocks[0]` within the stream.
    pub first_block: u64,
    /// `blocks[i] = F_ke(base + first_block + i)`.
    pub blocks: Vec<u128>,
}

struct Generation {
    /// Epoch (`kc` value) the slots were generated for.
    epoch: u64,
    slots: Vec<CacheSlot>,
}

#[derive(Default)]
struct Inner {
    /// Oldest first; at most [`LIVE_GENERATIONS`] entries.
    gens: Vec<Generation>,
    /// Generations ever published.
    published: u64,
}

/// Shared keystream cache (one per communicator and rank) holding the two
/// most recent epochs' streams.
///
/// The mutex is uncontended in steady state: the producer touches it once
/// per epoch, the consumer a handful of times, and lookups against epoch
/// *i* never contend with the producer publishing *i+1* for long — the
/// blocks are generated outside the lock.
#[derive(Default)]
pub struct KeystreamCache {
    inner: Mutex<Inner>,
}

impl KeystreamCache {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Install `slots` as the cached keystream for `epoch`. Once more than
    /// [`LIVE_GENERATIONS`] epochs are live the oldest is evicted and
    /// returned so the producer can reuse its buffers.
    pub fn publish(&self, epoch: u64, slots: Vec<CacheSlot>) -> Vec<CacheSlot> {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.gens.push(Generation { epoch, slots });
        inner.published += 1;
        if inner.gens.len() > LIVE_GENERATIONS {
            inner.gens.remove(0).slots
        } else {
            Vec::new()
        }
    }

    /// How many generations the producer has published so far — what the
    /// background lane has spent on this communicator.
    pub fn generations(&self) -> u64 {
        lock_unpoisoned(&self.inner).published
    }

    /// Look up the block range `[first_block, first_block + nblocks)` of
    /// every stream in `bases` under **one** lock and run `f` over what was
    /// found: `Some(blocks)` where a live generation holds exactly `epoch`
    /// and the stream's full range, `None` (a miss) otherwise — per stream,
    /// so one fused pass can serve a hit on one stream and generate the
    /// other inline. The lock is held across `f` only while some stream
    /// hit; an all-miss pass must not make the producer wait for it. The
    /// caller counts the hit/miss telemetry since only scheme-level callers
    /// know a lookup happened on the hot path.
    pub fn with_streams<const N: usize, R>(
        &self,
        epoch: u64,
        bases: [u128; N],
        first_block: u64,
        nblocks: usize,
        f: impl FnOnce([Option<&[u128]>; N]) -> R,
    ) -> R {
        let inner = lock_unpoisoned(&self.inner);
        // Newest generation first: it is the one a healthy steady state hits.
        let gen = inner.gens.iter().rev().find(|g| g.epoch == epoch);
        let found = bases.map(|base| {
            let slot = gen?.slots.iter().find(|s| s.base == base)?;
            let end = first_block.checked_add(nblocks as u64)?;
            if first_block < slot.first_block || end > slot.first_block + slot.blocks.len() as u64 {
                return None;
            }
            let off = (first_block - slot.first_block) as usize;
            Some(&slot.blocks[off..off + nblocks])
        });
        if found.iter().all(Option::is_none) {
            drop(inner);
            return f([None; N]);
        }
        f(found)
    }

    /// One-stream [`KeystreamCache::with_streams`]: run `f` over the cached
    /// range, or return `None` on a miss.
    pub fn with_blocks<R>(
        &self,
        epoch: u64,
        base: u128,
        first_block: u64,
        nblocks: usize,
        f: impl FnOnce(&[u128]) -> R,
    ) -> Option<R> {
        self.with_streams(epoch, [base], first_block, nblocks, |[blocks]| {
            blocks.map(f)
        })
    }
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(base: u128, first_block: u64, n: usize) -> CacheSlot {
        CacheSlot {
            base,
            first_block,
            blocks: (0..n as u128).map(|i| base * 1000 + i).collect(),
        }
    }

    #[test]
    fn hit_requires_epoch_base_and_full_coverage() {
        let cache = KeystreamCache::new();
        cache.publish(7, vec![slot(100, 2, 10)]);

        // Exact and interior ranges hit.
        assert_eq!(cache.with_blocks(7, 100, 2, 10, <[u128]>::len), Some(10));
        assert_eq!(
            cache.with_blocks(7, 100, 5, 3, |b| b[0]),
            Some(100 * 1000 + 3)
        );
        // Wrong epoch, wrong base, and uncovered ranges miss.
        assert_eq!(cache.with_blocks(8, 100, 2, 10, |_| ()), None);
        assert_eq!(cache.with_blocks(7, 101, 2, 10, |_| ()), None);
        assert_eq!(cache.with_blocks(7, 100, 1, 2, |_| ()), None);
        assert_eq!(cache.with_blocks(7, 100, 11, 2, |_| ()), None);
    }

    #[test]
    fn streams_resolve_independently_under_one_lookup() {
        let cache = KeystreamCache::new();
        cache.publish(7, vec![slot(100, 0, 10), slot(200, 4, 2)]);
        // Stream 100 covers the range, stream 200 does not, 300 is unknown.
        let got = cache.with_streams(7, [100, 200, 300], 2, 5, |found| {
            found.map(|blocks| blocks.map(|b| (b.len(), b[0])))
        });
        assert_eq!(got, [Some((5, 100 * 1000 + 2)), None, None]);
        // An all-miss lookup still runs the pass (with the lock released).
        assert!(cache.with_streams(8, [100, 200], 0, 1, |found| found == [None, None]));
    }

    #[test]
    fn two_generations_stay_live() {
        let cache = KeystreamCache::new();
        assert!(cache.publish(1, vec![slot(1, 0, 4)]).is_empty());
        assert!(cache.publish(2, vec![slot(2, 0, 4)]).is_empty());
        // Publishing epoch 2 must not evict epoch 1: a consumer can still
        // be draining it while the producer runs ahead.
        assert_eq!(cache.with_blocks(1, 1, 0, 4, |_| ()), Some(()));
        assert_eq!(cache.with_blocks(2, 2, 0, 4, |_| ()), Some(()));
    }

    #[test]
    fn publish_evicts_and_returns_the_oldest_generation() {
        let cache = KeystreamCache::new();
        assert!(cache.publish(1, vec![slot(1, 0, 4)]).is_empty());
        assert!(cache.publish(2, vec![slot(2, 0, 4)]).is_empty());
        let old = cache.publish(3, vec![slot(3, 0, 4)]);
        assert_eq!(old.len(), 1);
        assert_eq!(old[0].base, 1);
        assert_eq!(cache.generations(), 3);
        // Epoch 1 is gone; 2 and 3 are live.
        assert_eq!(cache.with_blocks(1, 1, 0, 4, |_| ()), None);
        assert_eq!(cache.with_blocks(2, 2, 0, 4, |_| ()), Some(()));
        assert_eq!(cache.with_blocks(3, 3, 0, 4, |_| ()), Some(()));
    }

    #[test]
    fn empty_cache_always_misses() {
        let cache = KeystreamCache::new();
        assert_eq!(cache.with_blocks(0, 0, 0, 1, |_| ()), None);
        assert_eq!(cache.with_blocks(0, 0, 0, 0, |_| ()), None);
    }
}

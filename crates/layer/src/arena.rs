//! Typed scratch arena (paper §6, "Memory allocation"): libhear
//! pre-allocates its intermediate buffers so no `malloc` sits on the
//! critical path (the `mem_alloc` / `mem_free` phases of Fig. 4).
//!
//! The arena recycles the *typed* staging vectors the engine needs per
//! call — the wire chunk vectors a block travels in, decrypted blocks,
//! digest lanes, HoMAC tags, verified packets. Every lease is a plain
//! `Vec<T>` whose capacity survives round trips, so after a short warmup
//! the allreduce hot path performs no heap allocation for staging.
//!
//! Slots are keyed by element type and created lazily: the first
//! [`ScratchArena::put_vec`] of a type boxes one persistent `Option<Vec<T>>`
//! cell; every later lease just moves the vector in and out of that cell
//! (`Option::take` / write-back), which never touches the allocator.
//! Multiple concurrent leases of the same type are supported — each extra
//! one warms up its own cell.
//!
//! Takes and puts are attributed to the `hear_pool_*` telemetry families
//! (`hear_pool_takes_total` with `source=reuse|fresh`,
//! `hear_pool_puts_total`), so Fig. 4-style breakdowns see buffer
//! recycling.

use hear_telemetry::Metric;
use std::any::{Any, TypeId};

/// A recycling store of typed staging vectors. See the module docs.
#[derive(Default)]
pub struct ScratchArena {
    slots: Vec<(TypeId, Box<dyn Any + Send>)>,
}

impl ScratchArena {
    pub fn new() -> ScratchArena {
        ScratchArena::default()
    }

    /// Lease a vector of `T`: a recycled one (cleared, capacity intact) if
    /// any slot of this type is occupied, a fresh empty one otherwise.
    pub fn take_vec<T: Send + 'static>(&mut self) -> Vec<T> {
        let id = TypeId::of::<T>();
        for (tid, cell) in &mut self.slots {
            if *tid == id {
                let cell = cell
                    .downcast_mut::<Option<Vec<T>>>()
                    .expect("arena slot keyed by its element TypeId");
                if let Some(v) = cell.take() {
                    hear_telemetry::incr(Metric::PoolTakeReuse);
                    return v;
                }
            }
        }
        hear_telemetry::incr(Metric::PoolTakeFresh);
        Vec::new()
    }

    /// Return a leased vector. It is cleared and parked in an empty slot of
    /// its type (one is created on first return — the only allocation this
    /// type will ever cause here).
    pub fn put_vec<T: Send + 'static>(&mut self, mut v: Vec<T>) {
        v.clear();
        hear_telemetry::incr(Metric::PoolPuts);
        let id = TypeId::of::<T>();
        for (tid, cell) in &mut self.slots {
            if *tid == id {
                let cell = cell
                    .downcast_mut::<Option<Vec<T>>>()
                    .expect("arena slot keyed by its element TypeId");
                if cell.is_none() {
                    *cell = Some(v);
                    return;
                }
            }
        }
        self.slots.push((id, Box::new(Some(v))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_capacity_and_clears() {
        let mut arena = ScratchArena::new();
        let mut v: Vec<u32> = arena.take_vec();
        v.extend(0..1000);
        let cap = v.capacity();
        let ptr = v.as_ptr();
        arena.put_vec(v);
        let v2: Vec<u32> = arena.take_vec();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
        assert_eq!(v2.as_ptr(), ptr, "recycled the same buffer");
    }

    #[test]
    fn types_do_not_alias() {
        let mut arena = ScratchArena::new();
        let mut a: Vec<u32> = arena.take_vec();
        a.reserve(64);
        arena.put_vec(a);
        // A u64 take must not hand back the u32 buffer.
        let b: Vec<u64> = arena.take_vec();
        assert_eq!(b.capacity(), 0);
        arena.put_vec(b);
        assert_eq!(arena.slots.len(), 2);
    }

    #[test]
    fn concurrent_leases_of_one_type_get_distinct_buffers() {
        let mut arena = ScratchArena::new();
        let mut a: Vec<u8> = arena.take_vec();
        a.reserve(16);
        let mut b: Vec<u8> = arena.take_vec();
        b.reserve(32);
        assert_ne!(a.as_ptr(), b.as_ptr());
        arena.put_vec(a);
        arena.put_vec(b);
        assert_eq!(arena.slots.len(), 2);
        // Both parked buffers come back; no third slot appears.
        let a2: Vec<u8> = arena.take_vec();
        let b2: Vec<u8> = arena.take_vec();
        arena.put_vec(a2);
        arena.put_vec(b2);
        assert_eq!(arena.slots.len(), 2);
    }

    #[test]
    fn steady_state_take_put_does_not_grow_slots() {
        let mut arena = ScratchArena::new();
        for round in 0..10 {
            let mut v: Vec<u64> = arena.take_vec();
            v.extend(0..128);
            arena.put_vec(v);
            assert_eq!(arena.slots.len(), 1, "round {round}");
        }
    }
}

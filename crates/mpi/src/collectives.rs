//! Blocking collectives over the simulated fabric.
//!
//! Algorithms follow the classical MPICH implementations: binomial trees
//! for broadcast/reduce, recursive doubling for latency-bound allreduce
//! (with the even/odd fold for non-power-of-two communicators), and a
//! reduce-scatter + allgather ring for bandwidth-bound allreduce. HEAR's
//! reduction operators are commutative, which these algorithms require.

use crate::comm::Communicator;

/// Ring chunk boundaries for `n` elements over `world` ranks: the first
/// `n % world` chunks take one extra element. `bounds[c]` is chunk `c`'s
/// half-open `[start, end)` range. Every ring collective — the fused
/// allreduce, reduce-scatter, allgather — partitions with this layout,
/// and the HEAR engine relies on it to place each rank's share at its
/// global offset.
pub fn ring_chunk_bounds(n: usize, world: usize) -> Vec<(usize, usize)> {
    (0..world)
        .map(|c| {
            let base = n / world;
            let extra = n % world;
            let start = c * base + c.min(extra);
            let len = base + usize::from(c < extra);
            (start, start + len)
        })
        .collect()
}

/// `data` copied into one owned vector per [`ring_chunk_bounds`] chunk —
/// how a caller holding one `Vec<T>` enters the chunk-owned ring core.
/// Vectors already in `chunks` are refilled, keeping their allocations.
fn split_chunks<T: Clone>(chunks: &mut Vec<Vec<T>>, data: &[T], bounds: &[(usize, usize)]) {
    chunks.resize_with(bounds.len(), Vec::new);
    for (chunk, &(s, e)) in chunks.iter_mut().zip(bounds) {
        chunk.clear();
        chunk.extend_from_slice(&data[s..e]);
    }
}

/// How a caller that wants one `Vec<T>` back leaves the chunk-owned core:
/// the ring's `visit` hands over each chunk once, in ring order, and
/// [`Assembly::place`] clones it to its bounds in the spare capacity of one
/// allocation — no default-fill, no per-chunk copies to concatenate later.
struct Assembly<T> {
    out: Vec<T>,
    bounds: Vec<(usize, usize)>,
    placed: Vec<bool>,
}

impl<T: Clone> Assembly<T> {
    /// `bounds` must tile `0..total` in order, as [`ring_chunk_bounds`] and
    /// a running sum of counts do.
    fn new(bounds: Vec<(usize, usize)>) -> Assembly<T> {
        debug_assert!(bounds.windows(2).all(|w| w[0].1 == w[1].0) && bounds[0].0 == 0);
        Assembly {
            out: Vec::with_capacity(bounds[bounds.len() - 1].1),
            placed: vec![false; bounds.len()],
            bounds,
        }
    }

    fn place(&mut self, c: usize, chunk: &[T]) {
        let (s, e) = self.bounds[c];
        assert_eq!(chunk.len(), e - s, "chunk {c} has the wrong length");
        assert!(
            !std::mem::replace(&mut self.placed[c], true),
            "chunk {c} placed twice"
        );
        for (slot, x) in self.out.spare_capacity_mut()[s..e].iter_mut().zip(chunk) {
            slot.write(x.clone());
        }
    }

    fn finish(mut self) -> Vec<T> {
        assert!(self.placed.iter().all(|&p| p), "a chunk never arrived");
        // SAFETY: the bounds tile `0..total`, `total ≤ capacity`, and every
        // chunk has been written to its bounds exactly once.
        unsafe { self.out.set_len(self.bounds[self.bounds.len() - 1].1) };
        self.out
    }
}

/// One participant's view of a ring: its position `me` among `npeers`, and
/// the global ranks it sends to (`next`) and receives from (`prev`). The
/// flat ring is all `world` ranks; the hierarchical allreduce runs its
/// inter-leader phase on the sub-ring of group leaders at stride `group`.
#[derive(Clone, Copy)]
struct RingPeers {
    npeers: usize,
    me: usize,
    next: usize,
    prev: usize,
}

/// Element-wise fold of `src` into `dst`.
fn fold_into<T, F: Fn(&T, &T) -> T>(dst: &mut [T], src: &[T], op: &F) {
    assert_eq!(
        dst.len(),
        src.len(),
        "reduction buffers must match in length"
    );
    let _s = hear_telemetry::span!("reduce", elems = dst.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d = op(d, s);
    }
}

impl Communicator {
    /// Dissemination barrier: ⌈log₂ P⌉ rounds.
    pub fn barrier(&self) {
        let tag = self.next_coll_tag();
        let _s = hear_telemetry::span!("barrier", tag = tag);
        let (rank, world) = (self.rank(), self.world());
        let mut dist = 1;
        while dist < world {
            let to = (rank + dist) % world;
            let from = (rank + world - dist) % world;
            self.send_internal(to, tag, vec![0u8]);
            let _ = self.recv_internal::<u8>(from, tag);
            dist *= 2;
        }
    }

    /// Binomial-tree broadcast from `root`. Every rank returns the data.
    pub fn bcast<T: Clone + Send + 'static>(&self, root: usize, data: Vec<T>) -> Vec<T> {
        let tag = self.next_coll_tag();
        let _s = hear_telemetry::span!("bcast", root = root, tag = tag);
        let (world, rank) = (self.world(), self.rank());
        if world == 1 {
            return data;
        }
        // Work in a rotated space where the root is rank 0 (canonical
        // MPICH binomial tree).
        let vrank = (rank + world - root) % world;
        let mut buf = data;
        let mut mask = 1usize;
        while mask < world {
            if vrank & mask != 0 {
                let parent = ((vrank - mask) + root) % world;
                buf = self.recv_internal::<T>(parent, tag);
                break;
            }
            mask <<= 1;
        }
        // `mask` is now the lowest set bit of vrank (or ≥ world for the
        // root); children sit below it.
        mask >>= 1;
        while mask > 0 {
            let child_v = vrank + mask;
            if child_v < world {
                let child = (child_v + root) % world;
                self.send_internal(child, tag, buf.clone());
            }
            mask >>= 1;
        }
        buf
    }

    /// Binomial-tree reduction to `root`; only the root's return value is
    /// the reduced vector, other ranks get their (consumed) input back.
    pub fn reduce<T, F>(&self, root: usize, data: Vec<T>, op: F) -> Vec<T>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        let tag = self.next_coll_tag();
        let (world, rank) = (self.world(), self.rank());
        if world == 1 {
            return data;
        }
        let vrank = (rank + world - root) % world;
        let mut acc = data;
        let mut mask = 1;
        while mask < world {
            if vrank & mask != 0 {
                let parent = ((vrank & !mask) + root) % world;
                self.send_internal(parent, tag, acc.clone());
                break;
            }
            let child_v = vrank | mask;
            if child_v < world {
                let child = (child_v + root) % world;
                let other = self.recv_internal::<T>(child, tag);
                fold_into(&mut acc, &other, &op);
            }
            mask <<= 1;
        }
        acc
    }

    /// Recursive-doubling allreduce (MPICH's latency-optimal algorithm),
    /// with the even/odd fold handling non-power-of-two worlds.
    pub fn allreduce<T, F>(&self, data: &[T], op: F) -> Vec<T>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        let tag = self.next_coll_tag();
        self.allreduce_owned_tagged(tag, data.to_vec(), op)
    }

    pub(crate) fn allreduce_owned_tagged<T, F>(&self, tag: u64, data: Vec<T>, op: F) -> Vec<T>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        self.try_allreduce_owned_tagged(tag, data, op, None)
            .unwrap_or_else(|e| panic!("recursive-doubling allreduce (tag {tag:#x}) failed: {e}"))
    }

    /// Fallible recursive-doubling allreduce: every exchange is bounded by
    /// `deadline` and a dead partner surfaces as a typed error instead of
    /// a hang. The error leaves `acc` in an unspecified intermediate
    /// state; retries must restart from the caller's own input.
    pub fn try_allreduce_owned_tagged<T, F>(
        &self,
        tag: u64,
        data: Vec<T>,
        op: F,
        deadline: Option<std::time::Instant>,
    ) -> Result<Vec<T>, crate::CommError>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        let (world, rank) = (self.world(), self.rank());
        let _s = hear_telemetry::span!("allreduce", elems = data.len(), tag = tag);
        let mut acc: Vec<T> = data;
        if world == 1 || acc.is_empty() {
            return Ok(acc);
        }
        let pof2 = world.next_power_of_two() / if world.is_power_of_two() { 1 } else { 2 };
        let rem = world - pof2;
        // Fold the excess ranks into their even neighbours.
        let newrank: isize = if rank < 2 * rem {
            if rank % 2 == 1 {
                self.try_send_internal(rank - 1, tag, acc.clone())?;
                -1
            } else {
                let other = self.try_recv_internal::<T>(rank + 1, tag, deadline)?;
                fold_into(&mut acc, &other, &op);
                (rank / 2) as isize
            }
        } else {
            (rank - rem) as isize
        };
        // Recursive doubling among the power-of-two subset.
        if newrank >= 0 {
            let to_real = |nr: usize| if nr < rem { nr * 2 } else { nr + rem };
            let nr = newrank as usize;
            let mut mask = 1;
            while mask < pof2 {
                let partner = to_real(nr ^ mask);
                let other =
                    self.try_sendrecv_internal(partner, tag, acc.clone(), partner, tag, deadline)?;
                fold_into(&mut acc, &other, &op);
                mask <<= 1;
            }
        }
        // Unfold: even ranks hand the result back to their odd neighbours.
        if rank < 2 * rem {
            if rank % 2 == 0 {
                self.try_send_internal(rank + 1, tag, acc.clone())?;
            } else {
                acc = self.try_recv_internal::<T>(rank - 1, tag, deadline)?;
            }
        }
        Ok(acc)
    }

    /// Ring allreduce: reduce-scatter followed by allgather — the
    /// bandwidth-optimal algorithm used for large messages. A split/concat
    /// wrapper over the chunk-owned ring core.
    pub fn allreduce_ring<T, F>(&self, data: &[T], op: F) -> Vec<T>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        let tag = self.next_coll_tag();
        self.allreduce_ring_tagged(tag, data, op)
    }

    pub(crate) fn allreduce_ring_tagged<T, F>(&self, tag: u64, data: &[T], op: F) -> Vec<T>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        if self.world() == 1 || data.is_empty() {
            return data.to_vec();
        }
        let bounds = ring_chunk_bounds(data.len(), self.world());
        let mut chunks = Vec::new();
        split_chunks(&mut chunks, data, &bounds);
        let mut out = Assembly::new(bounds);
        let place = |c: usize, chunk: &[T]| out.place(c, chunk);
        self.try_allreduce_ring_chunks(tag, &mut chunks, op, place, None)
            .unwrap_or_else(|e| panic!("ring allreduce (tag {tag:#x}) failed: {e}"));
        out.finish()
    }

    /// This rank's view of the flat ring over all `world` ranks.
    fn flat_ring(&self) -> RingPeers {
        let (world, rank) = (self.world(), self.rank());
        RingPeers {
            npeers: world,
            me: rank,
            next: (rank + 1) % world,
            prev: (rank + world - 1) % world,
        }
    }

    /// One ring circulation — THE ring hop loop, under both phases of the
    /// fused allreduce, the standalone reduce-scatter and allgather, the
    /// hierarchical inter-leader ring and every posted form. The vector is
    /// held as one **owned** `Vec` per chunk, and chunks move, never copy:
    /// at step `s` the participant takes chunk `(start − s) mod n` out of
    /// its slot, sends it by move, and hands the vector that arrives —
    /// chunk `(start − s − 1) mod n` of its predecessor — to `absorb`
    /// together with both slot indices. `absorb` ends by parking some
    /// allocation in the vacated `send` slot, so a participant holds `n`
    /// vectors before and after every hop and a steady-state caller that
    /// recycles its chunk vectors never allocates. `n − 1` hops; the last
    /// chunk received is `start + 1`.
    fn ring_circulate<T, A>(
        &self,
        ring: RingPeers,
        tag: u64,
        chunks: &mut [Vec<T>],
        start: usize,
        mut absorb: A,
        deadline: Option<std::time::Instant>,
    ) -> Result<(), crate::CommError>
    where
        T: Send + 'static,
        A: FnMut(&mut [Vec<T>], usize, usize, Vec<T>),
    {
        let n = ring.npeers;
        assert_eq!(chunks.len(), n, "one chunk vector per ring participant");
        for step in 0..n - 1 {
            let send = (start + n - step) % n;
            let recv = (start + n - step - 1) % n;
            let outgoing = std::mem::take(&mut chunks[send]);
            let incoming =
                self.try_sendrecv_internal(ring.next, tag, outgoing, ring.prev, tag, deadline)?;
            absorb(chunks, send, recv, incoming);
        }
        Ok(())
    }

    /// Reduce-scatter phase: circulating from the chunk one behind its own,
    /// each participant folds the incoming vector into its local chunk and
    /// parks the incoming allocation in the slot it just vacated. After
    /// `n − 1` hops `chunks[me]` is fully reduced; the other slots hold
    /// allocations with stale contents.
    fn ring_reduce_scatter<T, F>(
        &self,
        ring: RingPeers,
        tag: u64,
        chunks: &mut [Vec<T>],
        op: &F,
        deadline: Option<std::time::Instant>,
    ) -> Result<(), crate::CommError>
    where
        T: Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        let start = (ring.me + ring.npeers - 1) % ring.npeers;
        self.ring_circulate(
            ring,
            tag,
            chunks,
            start,
            |chunks, send, recv, incoming| {
                fold_into(&mut chunks[recv], &incoming, op);
                chunks[send] = incoming;
            },
            deadline,
        )
    }

    /// Allgather phase: `chunks[me]` is this participant's contribution.
    /// `visit(c, chunk)` is called exactly once per chunk — the own chunk
    /// first, every received chunk before it is forwarded — and is the only
    /// time this participant sees the chunk: forwarding moves it on. The
    /// allocation a received chunk displaces moves to the slot just
    /// vacated. Afterwards `chunks[me + 1]` holds the chunk that arrived
    /// last (nobody to forward it to); every other slot is stale.
    fn ring_allgather<T, V>(
        &self,
        ring: RingPeers,
        tag: u64,
        chunks: &mut [Vec<T>],
        mut visit: V,
        deadline: Option<std::time::Instant>,
    ) -> Result<(), crate::CommError>
    where
        T: Send + 'static,
        V: FnMut(usize, &[T]),
    {
        visit(ring.me, &chunks[ring.me]);
        self.ring_circulate(
            ring,
            tag,
            chunks,
            ring.me,
            |chunks, send, recv, incoming| {
                visit(recv, &incoming);
                chunks[send] = std::mem::replace(&mut chunks[recv], incoming);
            },
            deadline,
        )
    }

    /// [`Communicator::ring_allgather`] for a caller that wants the chunks
    /// themselves: afterwards every slot holds its chunk. A chunk that is
    /// forwarded has to be copied to be kept, so this costs `n − 1` chunk
    /// copies — made in `visit`, into the allocations the other slots held
    /// on entry, not on the hop.
    fn ring_allgather_kept<T>(
        &self,
        ring: RingPeers,
        tag: u64,
        chunks: &mut [Vec<T>],
        deadline: Option<std::time::Instant>,
    ) -> Result<(), crate::CommError>
    where
        T: Clone + Send + 'static,
    {
        let (n, me) = (ring.npeers, ring.me);
        let last = (me + 1) % n;
        if n == 1 {
            return Ok(());
        }
        let mut kept: Vec<Vec<T>> = chunks.iter_mut().map(std::mem::take).collect();
        chunks[me] = std::mem::take(&mut kept[me]);
        self.ring_allgather(
            ring,
            tag,
            chunks,
            |c, chunk| {
                // Chunk `last` arrives to stay; until then its slot's
                // allocation carries the copy of the own chunk.
                if c != last {
                    let copy = &mut kept[if c == me { last } else { c }];
                    copy.clear();
                    copy.extend_from_slice(chunk);
                }
            },
            deadline,
        )?;
        kept.swap(me, last);
        kept[last] = std::mem::take(&mut chunks[last]);
        for (slot, chunk) in chunks.iter_mut().zip(kept) {
            *slot = chunk;
        }
        Ok(())
    }

    /// Fallible ring reduce-scatter on chunk vectors: `chunks[c]` is this
    /// rank's contribution to chunk `c` of the vector (any partition all
    /// ranks agree on — [`ring_chunk_bounds`] for the engine; empty chunks
    /// travel like any other). On `Ok`, `chunks[rank]` is the fully reduced
    /// chunk `rank` and the other slots hold reusable allocations with
    /// stale contents. Every hop is bounded by `deadline` and a dead
    /// neighbour surfaces as a typed error; on `Err` the chunks are lost
    /// mid-schedule and a retry refills them from the caller's own input.
    pub fn try_reduce_scatter_chunks<T, F>(
        &self,
        tag: u64,
        chunks: &mut [Vec<T>],
        op: F,
        deadline: Option<std::time::Instant>,
    ) -> Result<(), crate::CommError>
    where
        T: Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        let _s = hear_telemetry::span!("reduce_scatter_ring", tag = tag);
        self.ring_reduce_scatter(self.flat_ring(), tag, chunks, &op, deadline)
    }

    /// Fallible ring allgather on chunk vectors: `chunks[rank]` is this
    /// rank's contribution (the other slots' contents are ignored, their
    /// allocations reused). `visit(c, chunk)` sees every rank's chunk
    /// exactly once, the own one first, each received one before it moves
    /// on to the next rank; nothing is gathered into a buffer.
    pub fn try_allgather_chunks<T, V>(
        &self,
        tag: u64,
        chunks: &mut [Vec<T>],
        visit: V,
        deadline: Option<std::time::Instant>,
    ) -> Result<(), crate::CommError>
    where
        T: Send + 'static,
        V: FnMut(usize, &[T]),
    {
        let _s = hear_telemetry::span!("allgather_ring", tag = tag);
        self.ring_allgather(self.flat_ring(), tag, chunks, visit, deadline)
    }

    /// [`Communicator::try_allgather_chunks`] that keeps the chunks: on
    /// `Ok`, `chunks[c]` is rank `c`'s contribution, for every `c`.
    pub fn try_allgather_chunks_kept<T>(
        &self,
        tag: u64,
        chunks: &mut [Vec<T>],
        deadline: Option<std::time::Instant>,
    ) -> Result<(), crate::CommError>
    where
        T: Clone + Send + 'static,
    {
        let _s = hear_telemetry::span!("allgather_ring", tag = tag);
        self.ring_allgather_kept(self.flat_ring(), tag, chunks, deadline)
    }

    /// Fallible ring allreduce on chunk vectors — reduce-scatter, then
    /// allgather, on one tag: `visit(c, chunk)` sees every fully reduced
    /// chunk exactly once (see [`Communicator::try_allgather_chunks`]).
    /// This is what the HEAR engine masks into and unmasks out of.
    pub fn try_allreduce_ring_chunks<T, F, V>(
        &self,
        tag: u64,
        chunks: &mut [Vec<T>],
        op: F,
        visit: V,
        deadline: Option<std::time::Instant>,
    ) -> Result<(), crate::CommError>
    where
        T: Send + 'static,
        F: Fn(&T, &T) -> T,
        V: FnMut(usize, &[T]),
    {
        let _s = hear_telemetry::span!("allreduce_ring", tag = tag);
        let ring = self.flat_ring();
        self.ring_reduce_scatter(ring, tag, chunks, &op, deadline)?;
        self.ring_allgather(ring, tag, chunks, visit, deadline)
    }

    /// [`Communicator::try_allreduce_ring_chunks`] that keeps the chunks:
    /// on `Ok`, `chunks[c]` is the fully reduced chunk `c`, for every `c`
    /// (what a posted ring hands back to the thread that waits on it).
    pub fn try_allreduce_ring_chunks_kept<T, F>(
        &self,
        tag: u64,
        chunks: &mut [Vec<T>],
        op: F,
        deadline: Option<std::time::Instant>,
    ) -> Result<(), crate::CommError>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        let _s = hear_telemetry::span!("allreduce_ring", tag = tag);
        let ring = self.flat_ring();
        self.ring_reduce_scatter(ring, tag, chunks, &op, deadline)?;
        self.ring_allgather_kept(ring, tag, chunks, deadline)
    }

    /// Hierarchical allreduce: ranks are partitioned into leader groups of
    /// `group` consecutive ranks ("nodes"); each group reduces to its
    /// leader, the leaders run a reduce-scatter + allgather ring among
    /// themselves, and each leader broadcasts the result back to its
    /// group. For exactly associative-commutative operators (every HEAR
    /// combine) the regrouped fold is bit-identical to the flat ring.
    ///
    /// The intra-group phases are plain send/recv, which the transport
    /// shapes: in-process channel hops under the `mem` transport (the
    /// shared-memory case), socket hops under `tcp`. Three sub-tags are
    /// used — `tag` (intra reduce), `tag+1` (inter-leader ring), `tag+2`
    /// (intra broadcast) — staying inside one attempt slot of the engine's
    /// retry ladder (attempt tags stride by 8).
    pub fn allreduce_hier<T, F>(&self, data: &[T], group: usize, op: F) -> Vec<T>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        let tag = self.next_coll_tag();
        self.try_allreduce_hier_owned_tagged(tag, data.to_vec(), op, group, None)
            .unwrap_or_else(|e| panic!("hierarchical allreduce (tag {tag:#x}) failed: {e}"))
    }

    /// Fallible hierarchical allreduce on a caller-reserved tag and
    /// deadline — see [`Communicator::allreduce_hier`] for the topology.
    /// On error the accumulator is lost mid-schedule; retries restart
    /// from the caller's own input.
    pub fn try_allreduce_hier_owned_tagged<T, F>(
        &self,
        tag: u64,
        data: Vec<T>,
        op: F,
        group: usize,
        deadline: Option<std::time::Instant>,
    ) -> Result<Vec<T>, crate::CommError>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        let (world, rank) = (self.world(), self.rank());
        let _s = hear_telemetry::span!("allreduce_hier", elems = data.len(), tag = tag);
        let mut acc: Vec<T> = data;
        if world == 1 || acc.is_empty() {
            return Ok(acc);
        }
        let g = group.clamp(1, world);
        let leader = rank - rank % g;
        let members_end = (leader + g).min(world);

        if rank != leader {
            // Phase 1 (member): hand the contribution to the leader, then
            // wait for the reduced vector in phase 3.
            self.try_send_internal(leader, tag, std::mem::take(&mut acc))?;
            return self.try_recv_internal::<T>(leader, tag + 2, deadline);
        }

        // Phase 1 (leader): fold the group members' contributions, keeping
        // their allocations as phase 2's chunk vectors.
        let nleaders = world.div_ceil(g);
        let mut chunks: Vec<Vec<T>> = Vec::with_capacity(nleaders);
        for r in leader + 1..members_end {
            let other = self.try_recv_internal::<T>(r, tag, deadline)?;
            fold_into(&mut acc, &other, &op);
            if nleaders > 1 && chunks.len() < nleaders {
                chunks.push(other);
            }
        }

        // Phase 2: the ring core over the sub-ring of leaders (stride `g`),
        // on the accumulator split into one chunk per leader; the allgather
        // visit copies each reduced chunk back to its place.
        if nleaders > 1 {
            let li = rank / g;
            let ring = RingPeers {
                npeers: nleaders,
                me: li,
                next: ((li + 1) % nleaders) * g,
                prev: ((li + nleaders - 1) % nleaders) * g,
            };
            let bounds = ring_chunk_bounds(acc.len(), nleaders);
            split_chunks(&mut chunks, &acc, &bounds);
            self.ring_reduce_scatter(ring, tag + 1, &mut chunks, &op, deadline)?;
            self.ring_allgather(
                ring,
                tag + 1,
                &mut chunks,
                |c, chunk| acc[bounds[c].0..bounds[c].1].clone_from_slice(chunk),
                deadline,
            )?;
        }

        // Phase 3: broadcast the result back into the group.
        for r in leader + 1..members_end {
            self.try_send_internal(r, tag + 2, acc.clone())?;
        }
        Ok(acc)
    }

    /// Fallible tagged ring reduce-scatter on a deadline: every rank
    /// passes the full vector; rank `r` returns the fully reduced
    /// elements of chunk `r` (the [`ring_chunk_bounds`] layout) — the
    /// ring allreduce's first phase, and the chunk vector it ends owning.
    pub fn try_reduce_scatter_tagged<T, F>(
        &self,
        tag: u64,
        data: &[T],
        op: F,
        deadline: Option<std::time::Instant>,
    ) -> Result<Vec<T>, crate::CommError>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        if self.world() == 1 || data.is_empty() {
            return Ok(data.to_vec());
        }
        let mut chunks = Vec::new();
        split_chunks(
            &mut chunks,
            data,
            &ring_chunk_bounds(data.len(), self.world()),
        );
        self.try_reduce_scatter_chunks(tag, &mut chunks, op, deadline)?;
        Ok(chunks.swap_remove(self.rank()))
    }

    /// Fallible tagged ring allgather with per-rank counts: `mine` is
    /// this rank's `counts[rank]`-element contribution; every rank
    /// returns the rank-ordered concatenation.
    pub fn try_allgather_tagged<T>(
        &self,
        tag: u64,
        mine: Vec<T>,
        counts: &[usize],
        deadline: Option<std::time::Instant>,
    ) -> Result<Vec<T>, crate::CommError>
    where
        T: Clone + Send + 'static,
    {
        let (world, rank) = (self.world(), self.rank());
        assert_eq!(counts.len(), world, "need one count per rank");
        assert_eq!(
            mine.len(),
            counts[rank],
            "contribution must match counts[rank]"
        );
        if world == 1 {
            return Ok(mine);
        }
        let mut chunks: Vec<Vec<T>> = (0..world).map(|_| Vec::new()).collect();
        chunks[rank] = mine;
        let bounds = counts.iter().scan(0, |at, n| {
            let start = *at;
            *at += n;
            Some((start, *at))
        });
        let mut out = Assembly::new(bounds.collect());
        let place = |c: usize, chunk: &[T]| out.place(c, chunk);
        self.try_allgather_chunks(tag, &mut chunks, place, deadline)?;
        Ok(out.finish())
    }

    /// Fallible tagged personalized all-to-all on a deadline:
    /// `chunks[r]` goes to rank `r`; slot `r` of the result is what rank
    /// `r` sent to us. Pairwise exchange — step `d` trades with the
    /// ranks at ring distance `±d`, so every hop is one bounded
    /// sendrecv and a dead peer surfaces as a typed error.
    pub fn try_alltoall_tagged<T>(
        &self,
        tag: u64,
        mut chunks: Vec<Vec<T>>,
        deadline: Option<std::time::Instant>,
    ) -> Result<Vec<Vec<T>>, crate::CommError>
    where
        T: Clone + Send + 'static,
    {
        let (world, rank) = (self.world(), self.rank());
        assert_eq!(chunks.len(), world, "need one chunk per rank");
        let _s = hear_telemetry::span!("alltoall", tag = tag);
        let mut out: Vec<Vec<T>> = vec![Vec::new(); world];
        out[rank] = std::mem::take(&mut chunks[rank]);
        for dist in 1..world {
            let to = (rank + dist) % world;
            let from = (rank + world - dist) % world;
            let payload = std::mem::take(&mut chunks[to]);
            out[from] = self.try_sendrecv_internal(to, tag, payload, from, tag, deadline)?;
        }
        Ok(out)
    }

    /// Ring allgather: every rank contributes `data`, everyone returns the
    /// contributions ordered by rank.
    pub fn allgather<T: Clone + Send + 'static>(&self, data: Vec<T>) -> Vec<Vec<T>> {
        let tag = self.next_coll_tag();
        let mut slots: Vec<Vec<T>> = vec![Vec::new(); self.world()];
        slots[self.rank()] = data;
        self.try_allgather_chunks_kept(tag, &mut slots, None)
            .unwrap_or_else(|e| panic!("allgather (tag {tag:#x}) failed: {e}"));
        slots
    }

    /// Gather to root: root returns all contributions ordered by rank,
    /// non-roots return an empty vec.
    pub fn gather<T: Clone + Send + 'static>(&self, root: usize, data: Vec<T>) -> Vec<Vec<T>> {
        let tag = self.next_coll_tag();
        if self.rank() == root {
            let mut out = vec![Vec::new(); self.world()];
            out[root] = data;
            for (r, slot) in out.iter_mut().enumerate() {
                if r != root {
                    *slot = self.recv_internal::<T>(r, tag);
                }
            }
            out
        } else {
            self.send_internal(root, tag, data);
            Vec::new()
        }
    }

    /// Scatter from root: rank r receives `chunks[r]` (only root's `chunks`
    /// argument is used).
    pub fn scatter<T: Clone + Send + 'static>(&self, root: usize, chunks: Vec<Vec<T>>) -> Vec<T> {
        let tag = self.next_coll_tag();
        if self.rank() == root {
            assert_eq!(chunks.len(), self.world(), "need one chunk per rank");
            let mut own = Vec::new();
            for (r, chunk) in chunks.into_iter().enumerate() {
                if r == root {
                    own = chunk;
                } else {
                    self.send_internal(r, tag, chunk);
                }
            }
            own
        } else {
            self.recv_internal::<T>(root, tag)
        }
    }

    /// Personalized all-to-all: `chunks[r]` goes to rank `r`; the result's
    /// slot `r` is what rank `r` sent to us.
    pub fn alltoall<T: Clone + Send + 'static>(&self, chunks: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let tag = self.next_coll_tag();
        self.try_alltoall_tagged(tag, chunks, None)
            .unwrap_or_else(|e| panic!("alltoall (tag {tag:#x}) failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use crate::simulator::Simulator;

    #[test]
    fn barrier_completes_for_various_sizes() {
        for world in [1, 2, 3, 5, 8] {
            Simulator::new(world).run(|comm| {
                for _ in 0..3 {
                    comm.barrier();
                }
            });
        }
    }

    #[test]
    fn bcast_from_each_root() {
        for world in [1usize, 2, 3, 4, 7] {
            for root in 0..world {
                let results = Simulator::new(world).run(move |comm| {
                    let data = if comm.rank() == root {
                        vec![42u32, 7, root as u32]
                    } else {
                        Vec::new()
                    };
                    comm.bcast(root, data)
                });
                for (r, v) in results.iter().enumerate() {
                    assert_eq!(
                        *v,
                        vec![42, 7, root as u32],
                        "world={world} root={root} r={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        for world in [1usize, 2, 5, 8] {
            for root in [0, world - 1] {
                let results = Simulator::new(world).run(move |comm| {
                    let data: Vec<u64> = vec![comm.rank() as u64 + 1, 10];
                    comm.reduce(root, data, |a, b| a + b)
                });
                let expect_sum: u64 = (1..=world as u64).sum();
                assert_eq!(results[root], vec![expect_sum, 10 * world as u64]);
            }
        }
    }

    #[test]
    fn allreduce_recursive_doubling_all_sizes() {
        for world in [1usize, 2, 3, 4, 5, 6, 7, 8, 9] {
            let results = Simulator::new(world).run(move |comm| {
                let data: Vec<u64> = (0..5).map(|j| (comm.rank() as u64 + 1) * 100 + j).collect();
                comm.allreduce(&data, |a, b| a.wrapping_add(*b))
            });
            for j in 0..5u64 {
                let expect: u64 = (1..=world as u64).map(|r| r * 100 + j).sum();
                for (r, v) in results.iter().enumerate() {
                    assert_eq!(v[j as usize], expect, "world={world} rank={r} j={j}");
                }
            }
        }
    }

    #[test]
    fn allreduce_ring_matches_recursive_doubling() {
        for world in [2usize, 3, 4, 7] {
            for len in [1usize, 3, 7, 16, 33] {
                let results = Simulator::new(world).run(move |comm| {
                    let data: Vec<u64> = (0..len as u64)
                        .map(|j| (comm.rank() as u64) * 1000 + j * j)
                        .collect();
                    let ring = comm.allreduce_ring(&data, |a, b| a + b);
                    let rd = comm.allreduce(&data, |a, b| a + b);
                    (ring, rd)
                });
                for (ring, rd) in &results {
                    assert_eq!(ring, rd, "world={world} len={len}");
                }
            }
        }
    }

    #[test]
    fn allreduce_hier_matches_ring_across_groupings() {
        // Every grouping — degenerate (g=1 and g>=world), even, uneven
        // (last group short) — must be bit-identical to the flat ring for
        // an exactly associative-commutative op.
        for world in [1usize, 2, 3, 4, 5, 6, 8] {
            for group in [1usize, 2, 3, 4, 8] {
                for len in [1usize, 3, 7, 33] {
                    let results = Simulator::new(world).run(move |comm| {
                        let data: Vec<u64> = (0..len as u64)
                            .map(|j| (comm.rank() as u64).wrapping_mul(0x9e37) ^ (j * j))
                            .collect();
                        let hier = comm.allreduce_hier(&data, group, |a, b| a.wrapping_add(*b));
                        let ring = comm.allreduce_ring(&data, |a, b| a.wrapping_add(*b));
                        (hier, ring)
                    });
                    for (r, (hier, ring)) in results.iter().enumerate() {
                        assert_eq!(hier, ring, "world={world} group={group} len={len} rank={r}");
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_hier_nonblocking_matches_blocking() {
        let results = Simulator::new(6).run(|comm| {
            let data: Vec<u32> = (0..17).map(|j| comm.rank() as u32 * 31 + j).collect();
            let tag = comm.next_coll_tag();
            let posted = data.clone();
            let req = comm.post(move |comm| {
                comm.try_allreduce_hier_owned_tagged(tag, posted, |a, b| a ^ b, 2, None)
            });
            let blocking = comm.allreduce_hier(&data, 2, |a, b| a ^ b);
            let nb = req.wait().expect("nonblocking hier allreduce failed");
            (nb, blocking)
        });
        for (nb, blocking) in &results {
            assert_eq!(nb, blocking);
        }
    }

    #[test]
    fn allreduce_ring_short_vectors() {
        // len < world: some ranks own empty chunks.
        let results = Simulator::new(5)
            .run(|comm| comm.allreduce_ring(&[comm.rank() as u32 + 1, 100], |a, b| a + b));
        for v in &results {
            assert_eq!(*v, vec![15, 500]);
        }
    }

    #[test]
    fn allreduce_min_max_ops() {
        // The runtime supports any associative-commutative op (the HEAR
        // layer restricts which ones are *secure*; the substrate doesn't).
        let results = Simulator::new(4).run(|comm| {
            let data = vec![comm.rank() as i64 * 7 % 5, -(comm.rank() as i64)];
            let mx = comm.allreduce(&data, |a, b| *a.max(b));
            let mn = comm.allreduce(&data, |a, b| *a.min(b));
            (mx, mn)
        });
        for (mx, mn) in &results {
            assert_eq!(*mx, vec![4, 0]);
            assert_eq!(*mn, vec![0, -3]);
        }
    }

    #[test]
    fn allgather_orders_by_rank() {
        let results = Simulator::new(4).run(|comm| comm.allgather(vec![comm.rank() as u8; 2]));
        for v in &results {
            assert_eq!(*v, vec![vec![0, 0], vec![1, 1], vec![2, 2], vec![3, 3]]);
        }
    }

    #[test]
    fn gather_and_scatter() {
        let results = Simulator::new(3).run(|comm| {
            let gathered = comm.gather(1, vec![comm.rank() as u32 * 2]);
            let scattered = comm.scatter(
                1,
                if comm.rank() == 1 {
                    vec![vec![10u32], vec![11], vec![12]]
                } else {
                    Vec::new()
                },
            );
            (gathered, scattered)
        });
        assert_eq!(results[1].0, vec![vec![0], vec![2], vec![4]]);
        assert!(results[0].0.is_empty());
        assert_eq!(results[0].1, vec![10]);
        assert_eq!(results[1].1, vec![11]);
        assert_eq!(results[2].1, vec![12]);
    }

    #[test]
    fn alltoall_transposes() {
        let results = Simulator::new(3).run(|comm| {
            let chunks: Vec<Vec<u32>> = (0..3)
                .map(|dst| vec![(comm.rank() * 10 + dst) as u32])
                .collect();
            comm.alltoall(chunks)
        });
        // Rank r's slot s must hold what rank s sent to r: s*10 + r.
        for (r, v) in results.iter().enumerate() {
            for (s, chunk) in v.iter().enumerate() {
                assert_eq!(*chunk, vec![(s * 10 + r) as u32]);
            }
        }
    }

    #[test]
    fn tagged_reduce_scatter_matches_blocking() {
        for world in [2usize, 3, 4] {
            for len in [5usize, 8, 11] {
                let results = Simulator::new(world).run(move |comm| {
                    let data: Vec<u64> = (0..len as u64)
                        .map(|j| comm.rank() as u64 * 100 + j)
                        .collect();
                    let blocking = comm.reduce_scatter(&data, |a, b| a + b);
                    let tag = comm.reserve_coll_tags(1);
                    let tagged = comm
                        .try_reduce_scatter_tagged(tag, &data, |a, b| a + b, None)
                        .unwrap();
                    (blocking, tagged)
                });
                let mut covered = 0usize;
                for (r, (blocking, tagged)) in results.iter().enumerate() {
                    assert_eq!(blocking, tagged, "world={world} len={len} rank={r}");
                    for (i, v) in tagged.iter().enumerate() {
                        let j = (covered + i) as u64;
                        let expect: u64 = (0..world as u64).map(|rk| rk * 100 + j).sum();
                        assert_eq!(*v, expect, "world={world} len={len} rank={r} i={i}");
                    }
                    covered += tagged.len();
                }
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn tagged_allgather_uneven_counts() {
        let results = Simulator::new(4).run(|comm| {
            let counts = [3usize, 0, 2, 1];
            let mine: Vec<u32> = (0..counts[comm.rank()] as u32)
                .map(|j| comm.rank() as u32 * 10 + j)
                .collect();
            let tag = comm.reserve_coll_tags(1);
            comm.try_allgather_tagged(tag, mine, &counts, None).unwrap()
        });
        for v in &results {
            assert_eq!(*v, vec![0, 1, 2, 20, 21, 30]);
        }
    }

    /// The chunk-owned ring core against a scalar reference fold: every
    /// world 1–5 × vector length (empty chunks must travel, so 0, 1 and
    /// `world − 1` are in) × three commutative-associative operators. The
    /// allgather's `visit` must see every chunk exactly once, the own chunk
    /// first, and what it sees must be the reference; the reduce-scatter
    /// alone must leave the own chunk reduced; the kept forms must leave
    /// every slot holding its chunk.
    #[test]
    fn chunk_ring_core_matches_a_scalar_reference_fold() {
        use super::ring_chunk_bounds;
        type Op = fn(&u64, &u64) -> u64;
        let ops: [(&str, Op); 3] = [
            ("wrapping-add", |a, b| a.wrapping_add(*b)),
            ("xor", |a, b| a ^ b),
            ("min", |a, b| *a.min(b)),
        ];
        let input = |rank: usize, j: usize| {
            ((rank as u64 + 1) << 60 | j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        for world in 1usize..=5 {
            for n in [0, 1, world - 1, world, world + 1, 1000] {
                for (name, op) in ops {
                    let reference: Vec<u64> = (0..n)
                        .map(|j| (1..world).fold(input(0, j), |acc, r| op(&acc, &input(r, j))))
                        .collect();
                    let bounds = ring_chunk_bounds(n, world);
                    let split = move |rank: usize| -> Vec<Vec<u64>> {
                        ring_chunk_bounds(n, world)
                            .into_iter()
                            .map(|(s, e)| (s..e).map(|j| input(rank, j)).collect())
                            .collect()
                    };
                    let results = Simulator::new(world).run(move |comm| {
                        let rank = comm.rank();
                        let tag = comm.reserve_coll_tags(4);

                        let mut chunks = split(rank);
                        let mut seen: Vec<(usize, Vec<u64>)> = Vec::new();
                        comm.try_allreduce_ring_chunks(
                            tag,
                            &mut chunks,
                            op,
                            |c, chunk| seen.push((c, chunk.to_vec())),
                            None,
                        )
                        .unwrap();
                        assert_eq!(chunks.len(), world, "vector count is conserved");

                        let mut scattered = split(rank);
                        comm.try_reduce_scatter_chunks(tag + 1, &mut scattered, op, None)
                            .unwrap();
                        let own = std::mem::take(&mut scattered[rank]);

                        let mut kept = split(rank);
                        comm.try_allreduce_ring_chunks_kept(tag + 2, &mut kept, op, None)
                            .unwrap();

                        let mut gathered: Vec<Vec<u64>> = vec![Vec::new(); world];
                        gathered[rank] = own.clone();
                        comm.try_allgather_chunks_kept(tag + 3, &mut gathered, None)
                            .unwrap();
                        (seen, own, kept, gathered)
                    });
                    let what = format!("world={world} n={n} op={name}");
                    for (rank, (seen, own, kept, gathered)) in results.into_iter().enumerate() {
                        // Own chunk first, then the ring's arrival order:
                        // rank − 1, rank − 2, … — each chunk exactly once.
                        let order: Vec<usize> = seen.iter().map(|(c, _)| *c).collect();
                        let expect: Vec<usize> =
                            (0..world).map(|k| (rank + world - k) % world).collect();
                        assert_eq!(order, expect, "{what} rank={rank}: visit order");
                        for (c, chunk) in &seen {
                            let (s, e) = bounds[*c];
                            assert_eq!(chunk[..], reference[s..e], "{what} rank={rank} chunk {c}");
                        }
                        let (s, e) = bounds[rank];
                        assert_eq!(own[..], reference[s..e], "{what} rank={rank}: own chunk");
                        assert_eq!(kept.concat(), reference, "{what} rank={rank}: kept");
                        assert_eq!(gathered.concat(), reference, "{what} rank={rank}: gathered");
                    }
                }
            }
        }
    }

    #[test]
    fn tagged_alltoall_matches_blocking() {
        let results = Simulator::new(3).run(|comm| {
            let chunks: Vec<Vec<u32>> = (0..3)
                .map(|dst| vec![(comm.rank() * 10 + dst) as u32, 7])
                .collect();
            let blocking = comm.alltoall(chunks.clone());
            let tag = comm.reserve_coll_tags(1);
            let tagged = comm.try_alltoall_tagged(tag, chunks, None).unwrap();
            (blocking, tagged)
        });
        for (blocking, tagged) in &results {
            assert_eq!(blocking, tagged);
        }
    }

    #[test]
    fn consecutive_collectives_do_not_cross_talk() {
        let results = Simulator::new(3).run(|comm| {
            let a = comm.allreduce(&[1u32], |a, b| a + b);
            let b = comm.allreduce(&[10u32], |a, b| a + b);
            let c = comm.bcast(0, if comm.rank() == 0 { vec![7u32] } else { vec![] });
            (a[0], b[0], c[0])
        });
        for r in &results {
            assert_eq!(*r, (3, 30, 7));
        }
    }
}

// ---- additional collectives -------------------------------------------

impl Communicator {
    /// Reduce-scatter with even block partitioning (the first `n % P`
    /// blocks take one extra element): rank `r` returns the fully reduced
    /// elements of block `r`. This is the first half of the ring allreduce,
    /// exposed on its own (MPI_Reduce_scatter_block generalized).
    pub fn reduce_scatter<T, F>(&self, data: &[T], op: F) -> Vec<T>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        let tag = self.next_coll_tag();
        self.try_reduce_scatter_tagged(tag, data, op, None)
            .unwrap_or_else(|e| panic!("reduce_scatter (tag {tag:#x}) failed: {e}"))
    }

    /// Inclusive prefix scan (MPI_Scan): rank `r` returns
    /// `op(data_0, …, data_r)` element-wise, via the classical
    /// Hillis–Steele doubling with partial-result separation.
    pub fn scan<T, F>(&self, data: &[T], op: F) -> Vec<T>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        let tag = self.next_coll_tag();
        let (world, rank) = (self.world(), self.rank());
        assert!(
            world <= 128,
            "scan uses the 8-bit sub-tag space (dist <= 128)"
        );
        // `result` carries op over ranks 0..=rank; `partial` carries op
        // over the contiguous window ending at rank (what we forward).
        let mut result: Vec<T> = data.to_vec();
        let mut partial: Vec<T> = data.to_vec();
        let mut dist = 1usize;
        while dist < world {
            if rank + dist < world {
                self.send_internal(rank + dist, tag + dist as u64, partial.clone());
            }
            if rank >= dist {
                let incoming = self.recv_internal::<T>(rank - dist, tag + dist as u64);
                fold_into(&mut result, &incoming, &op);
                fold_into(&mut partial, &incoming, &op);
            }
            dist *= 2;
        }
        result
    }

    /// Exclusive prefix scan (MPI_Exscan): rank 0's result is undefined in
    /// MPI; here it returns `None`, other ranks get op over ranks 0..rank.
    pub fn exscan<T, F>(&self, data: &[T], op: F) -> Option<Vec<T>>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        let tag = self.next_coll_tag();
        let (world, rank) = (self.world(), self.rank());
        assert!(
            world <= 128,
            "exscan uses the 8-bit sub-tag space (dist <= 128)"
        );
        // Shift the inclusive scan down one rank over a ring of sends.
        let inclusive = {
            // Inline inclusive scan with its own tag block offset to avoid
            // re-entering next_coll_tag.
            let mut result: Vec<T> = data.to_vec();
            let mut partial: Vec<T> = data.to_vec();
            let mut dist = 1usize;
            while dist < world {
                if rank + dist < world {
                    self.send_internal(rank + dist, tag + dist as u64, partial.clone());
                }
                if rank >= dist {
                    let incoming = self.recv_internal::<T>(rank - dist, tag + dist as u64);
                    fold_into(&mut result, &incoming, &op);
                    fold_into(&mut partial, &incoming, &op);
                }
                dist *= 2;
            }
            result
        };
        if rank + 1 < world {
            self.send_internal(rank + 1, tag + 255, inclusive);
        }
        if rank == 0 {
            None
        } else {
            Some(self.recv_internal::<T>(rank - 1, tag + 255))
        }
    }
}

#[cfg(test)]
mod more_tests {
    use crate::simulator::Simulator;

    #[test]
    fn reduce_scatter_blocks() {
        for world in [1usize, 2, 3, 4, 5] {
            for len in [world, 2 * world + 1, 17] {
                let results = Simulator::new(world).run(move |comm| {
                    let data: Vec<u64> = (0..len as u64).map(|j| j + comm.rank() as u64).collect();
                    comm.reduce_scatter(&data, |a, b| a + b)
                });
                // Expected: block r of the element-wise total.
                let total: Vec<u64> = (0..len as u64)
                    .map(|j| (0..world as u64).map(|r| j + r).sum())
                    .collect();
                let base = len / world;
                let extra = len % world;
                for (r, got) in results.iter().enumerate() {
                    let start = r * base + r.min(extra);
                    let blen = base + usize::from(r < extra);
                    assert_eq!(
                        got,
                        &total[start..start + blen],
                        "world={world} len={len} rank={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn scan_inclusive_prefixes() {
        for world in [1usize, 2, 3, 5, 8] {
            let results = Simulator::new(world)
                .run(move |comm| comm.scan(&[comm.rank() as u64 + 1, 100], |a, b| a + b));
            for (r, got) in results.iter().enumerate() {
                let expect: u64 = (1..=r as u64 + 1).sum();
                assert_eq!(got[0], expect, "world={world} rank={r}");
                assert_eq!(got[1], 100 * (r as u64 + 1));
            }
        }
    }

    #[test]
    fn scan_with_non_commutative_order() {
        // Scan must respect rank order even for non-commutative ops:
        // string-like concatenation encoded as (first, last) digit pairs —
        // simpler: use subtraction-sensitive op f(a,b) = 2a + b which is
        // associative? It is not; use matrix-like op: f(a,b)=a*10+b won't
        // be associative either. Use min-prefix instead (commutative but
        // order-revealing via distinct values per rank).
        let results = Simulator::new(4)
            .run(|comm| comm.scan(&[10u64 - comm.rank() as u64], |a, b| *a.min(b)));
        for (r, got) in results.iter().enumerate() {
            assert_eq!(
                got[0],
                10 - r as u64,
                "prefix min is the latest rank's value"
            );
        }
    }

    #[test]
    fn exscan_shifts_by_one() {
        let results =
            Simulator::new(4).run(|comm| comm.exscan(&[comm.rank() as u64 + 1], |a, b| a + b));
        assert!(results[0].is_none());
        for (r, res) in results.iter().enumerate().skip(1) {
            let expect: u64 = (1..=r as u64).sum();
            assert_eq!(res.as_ref().unwrap()[0], expect);
        }
    }

    #[test]
    fn scan_interleaves_with_other_collectives() {
        let results = Simulator::new(3).run(|comm| {
            let s = comm.scan(&[1u32], |a, b| a + b);
            let a = comm.allreduce(&[1u32], |a, b| a + b);
            let e = comm.exscan(&[1u32], |a, b| a + b);
            (s[0], a[0], e.map(|v| v[0]))
        });
        assert_eq!(results[0], (1, 3, None));
        assert_eq!(results[1], (2, 3, Some(1)));
        assert_eq!(results[2], (3, 3, Some(2)));
    }

    #[test]
    fn allreduce_matches_reference_on_random_inputs() {
        // Randomized cross-check of both allreduce algorithms against a
        // locally computed reference. Input shapes and payloads come from
        // the testkit PRNG; each rank derives its slice deterministically
        // from (round, rank) so the reference can be rebuilt outside the
        // simulator.
        use hear_testkit::TestRng;
        let mut shape_rng = TestRng::seed_from_u64(0x0c01_1ec7);
        for round in 0..8u64 {
            let world = shape_rng.gen_range(1usize..=5);
            let len = shape_rng.gen_range(1usize..=64);
            let rank_data = |rank: usize| -> Vec<u64> {
                let mut r = TestRng::seed_from_u64((round << 8) | rank as u64);
                let mut v = vec![0u64; len];
                // Bounded so world·max never wraps.
                for x in &mut v {
                    *x = r.gen_range(0u64..1 << 40);
                }
                v
            };
            let expect: Vec<u64> = (0..len)
                .map(|i| (0..world).map(|rank| rank_data(rank)[i]).sum())
                .collect();
            let results = Simulator::new(world).run(move |comm| {
                let mine = rank_data(comm.rank());
                let tree = comm.allreduce(&mine, |a, b| a + b);
                let ring = comm.allreduce_ring(&mine, |a, b| a + b);
                (tree, ring)
            });
            for (rank, (tree, ring)) in results.iter().enumerate() {
                assert_eq!(
                    tree, &expect,
                    "round={round} world={world} rank={rank} (tree)"
                );
                assert_eq!(
                    ring, &expect,
                    "round={round} world={world} rank={rank} (ring)"
                );
            }
        }
    }
}

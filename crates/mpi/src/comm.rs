//! The communicator: rank identity, typed point-to-point messaging and the
//! collective tag discipline.

use crate::error::CommError;
use crate::inc::SwitchTopology;
use crate::transport::{Envelope, Transport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tag space partitioning: user tags live below 2^32; collective-internal
/// tags carry the collective sequence number above that boundary so
/// overlapping collectives (blocking + nonblocking) can never match each
/// other's wires. Bits 48+ carry the communicator context id so split
/// communicators sharing endpoints can never match each other's traffic.
pub(crate) const COLL_TAG_BASE: u64 = 1 << 32;
pub(crate) const CONTEXT_SHIFT: u32 = 48;

/// Tag distance between consecutive collective sequence numbers: each
/// collective owns a block of 256 tags.
pub const COLL_BLOCK_TAG_STRIDE: u64 = 1 << 8;

/// Tag distance between successive *attempts* of the same logical
/// collective: a retry re-runs the schedule on fresh tags so stale wires
/// from the failed attempt can never be matched. Each attempt slot still
/// leaves `tag + 1` free for the INC multicast leg.
pub const ATTEMPT_TAG_STRIDE: u64 = 8;

/// Attempts per collective block: `MAX_TAG_ATTEMPTS × ATTEMPT_TAG_STRIDE`
/// must stay below [`COLL_BLOCK_TAG_STRIDE`].
pub const MAX_TAG_ATTEMPTS: u64 = COLL_BLOCK_TAG_STRIDE / ATTEMPT_TAG_STRIDE;

/// A handle to one rank of a simulated communicator. Cheap to clone; clones
/// share the rank's mailbox and collective sequence (a clone is what a
/// nonblocking request's progress thread holds).
pub struct Communicator {
    rank: usize,
    world: usize,
    pub(crate) transport: Arc<dyn Transport>,
    pub(crate) coll_seq: Arc<AtomicU64>,
    switch: Option<Arc<SwitchTopology>>,
    /// Communicator context id, mixed into every tag (MPI's context_id).
    context: u64,
    /// Global endpoint of each member; `None` = the world communicator
    /// (identity mapping).
    members: Option<Arc<Vec<usize>>>,
}

impl Clone for Communicator {
    fn clone(&self) -> Self {
        Communicator {
            rank: self.rank,
            world: self.world,
            transport: self.transport.clone(),
            coll_seq: self.coll_seq.clone(),
            switch: self.switch.clone(),
            context: self.context,
            members: self.members.clone(),
        }
    }
}

impl Communicator {
    pub(crate) fn new(rank: usize, world: usize, transport: Arc<dyn Transport>) -> Self {
        Communicator {
            rank,
            world,
            transport,
            coll_seq: Arc::new(AtomicU64::new(0)),
            switch: None,
            context: 0,
            members: None,
        }
    }

    /// Global fabric endpoint of a (virtual) rank of this communicator.
    #[inline]
    fn endpoint(&self, rank: usize) -> usize {
        match &self.members {
            None => rank,
            Some(m) => m[rank],
        }
    }

    #[inline]
    fn tag_with_context(&self, tag: u64) -> u64 {
        tag | (self.context << CONTEXT_SHIFT)
    }

    /// Split this communicator MPI_Comm_split-style: ranks with the same
    /// `color` form a new communicator, ordered by `(key, old rank)`.
    /// Collective over the parent communicator. The child has a fresh
    /// collective sequence, its own context id (so its traffic can never
    /// match the parent's), and no INC switch.
    pub fn split(&self, color: u64, key: i64) -> Communicator {
        // Gather every member's (color, key, old_rank).
        let triples = self.allgather(vec![(color, key, self.rank)]);
        let mut mine: Vec<(i64, usize)> = triples
            .iter()
            .map(|v| v[0])
            .filter(|(c, _, _)| *c == color)
            .map(|(_, k, r)| (k, r))
            .collect();
        mine.sort_unstable();
        let members: Vec<usize> = mine.iter().map(|(_, r)| self.endpoint(*r)).collect();
        let new_rank = mine
            .iter()
            .position(|(_, r)| *r == self.rank)
            .expect("caller is a member of its own color group");
        // Context id: derived deterministically from the parent context,
        // the split's program position, and the color — identical on every
        // member, distinct across groups and successive splits. 16 bits.
        let seq = self.coll_seq.load(Ordering::Relaxed);
        let mut ctx = self
            .context
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(seq)
            .wrapping_mul(0x85eb_ca6b)
            .wrapping_add(color);
        ctx = (ctx ^ (ctx >> 13)) & 0xffff;
        Communicator {
            rank: new_rank,
            world: members.len(),
            transport: self.transport.clone(),
            coll_seq: Arc::new(AtomicU64::new(0)),
            switch: None,
            context: ctx.max(1), // 0 is reserved for the world communicator
            members: Some(Arc::new(members)),
        }
    }

    /// Shrink this communicator to a survivor subset after a membership
    /// agreement round. **Non-collective**: unlike [`Communicator::split`]
    /// this exchanges no messages — every survivor must call it with the
    /// *same* `survivors` list (ascending ranks of this communicator, dead
    /// members excluded), which the agreement protocol guarantees. The
    /// child keeps the parent's transport but gets a fresh collective
    /// sequence and a context id derived deterministically from the
    /// parent's context, its sequence position, and the survivor set — so
    /// post-shrink traffic can never match stale wires of the pre-shrink
    /// ring, and successive shrinks stay distinct.
    pub fn shrink(&self, survivors: &[usize]) -> Communicator {
        assert!(!survivors.is_empty(), "survivor set cannot be empty");
        assert!(
            survivors.windows(2).all(|w| w[0] < w[1]),
            "survivor set must be strictly ascending"
        );
        let new_rank = survivors
            .iter()
            .position(|&r| r == self.rank)
            .expect("caller must be in the survivor set");
        let members: Vec<usize> = survivors.iter().map(|&r| self.endpoint(r)).collect();
        let mask: u64 = survivors.iter().fold(0, |m, &r| m | (1u64 << (r % 64)));
        let seq = self.coll_seq.load(Ordering::Relaxed);
        let mut ctx = self
            .context
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(seq)
            .wrapping_mul(0x85eb_ca6b)
            .wrapping_add(mask);
        ctx = (ctx ^ (ctx >> 13)) & 0xffff;
        Communicator {
            rank: new_rank,
            world: members.len(),
            transport: self.transport.clone(),
            coll_seq: Arc::new(AtomicU64::new(0)),
            switch: None,
            context: ctx.max(1), // 0 is reserved for the world communicator
            members: Some(Arc::new(members)),
        }
    }

    /// Whether the transport has declared `rank`'s endpoint dead (fault
    /// plan kill, heartbeat miss budget exhausted, connection loss). Local
    /// view only — no message exchange.
    pub fn is_peer_dead(&self, rank: usize) -> bool {
        self.transport.is_dead(self.endpoint(rank))
    }

    /// Checked send on an explicit full wire tag (collective tag space
    /// allowed) — the membership-agreement plumbing sends its suspicion
    /// masks on tags reserved via [`Communicator::reserve_coll_tags`].
    pub fn try_send_tagged<T: Send + 'static>(
        &self,
        dst: usize,
        tag: u64,
        data: Vec<T>,
    ) -> Result<(), CommError> {
        self.try_send_internal(dst, tag, data)
    }

    /// Deadline-bounded receive on an explicit full wire tag (collective
    /// tag space allowed) — the receive half of the agreement plumbing.
    pub fn try_recv_tagged<T: Send + 'static>(
        &self,
        src: usize,
        tag: u64,
        deadline: Option<Instant>,
    ) -> Result<Vec<T>, CommError> {
        self.try_recv_internal(src, tag, deadline)
    }

    pub(crate) fn set_switch(&mut self, topo: Option<Arc<SwitchTopology>>) {
        self.switch = topo;
    }

    /// The in-network switch topology, when the simulator enabled one.
    pub fn switch_topology(&self) -> Option<Arc<SwitchTopology>> {
        self.switch.clone()
    }

    /// Launch the per-collective switch service tasks (one thread per
    /// switch node). Exactly one rank does the spawning so each collective
    /// gets one service; rank 0 is the deterministic choice. The deadline
    /// bounds each node's waits so a broken tree sheds its service
    /// threads instead of leaking them; a service that errors out simply
    /// exits (the ranks below see the failure on their own receives).
    pub(crate) fn spawn_switch_service<T, F>(
        &self,
        topo: &Arc<SwitchTopology>,
        tag: u64,
        op: F,
        deadline: Option<std::time::Instant>,
    ) where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T + Send + Sync + Clone + 'static,
    {
        if self.rank != 0 {
            return;
        }
        for node in 0..topo.nodes {
            let transport = self.transport.clone();
            let topo = topo.clone();
            let op = op.clone();
            let tele = hear_telemetry::spawn_context();
            std::thread::spawn(move || {
                // Switch nodes are infrastructure, not ranks: record into
                // the spawning rank's registry but under a rankless lane.
                let _tele = tele.map(|(reg, _)| reg.install(None));
                let _ = crate::inc::switch_node_service::<T, F>(
                    &transport, &topo, node, tag, &op, deadline,
                );
            });
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn world(&self) -> usize {
        self.world
    }

    /// The transport's estimate of one small-message round trip: modeled
    /// for the in-memory fabric, measured during connection establishment
    /// for TCP. Deadline budgets (engine retries, the chaos suite) should
    /// scale from this instead of assuming in-process delivery latency.
    pub fn transport_rtt(&self) -> Duration {
        self.transport.rtt_estimate()
    }

    /// Short name of the transport backend carrying this communicator's
    /// traffic (`"mem"` or `"tcp"`).
    pub fn transport_name(&self) -> &'static str {
        self.transport.name()
    }

    /// How many `(source, tag)` queues this rank's mailbox holds: 0 once
    /// every message sent to it has been received (test hook, see
    /// [`Transport::pending_queues`](crate::Transport::pending_queues)).
    #[doc(hidden)]
    pub fn pending_queues(&self) -> usize {
        self.transport.pending_queues(self.endpoint(self.rank))
    }

    /// Allocate the tag block for the next collective operation. All ranks
    /// call collectives in the same program order, so the per-rank counters
    /// stay aligned without any coordination.
    pub(crate) fn next_coll_tag(&self) -> u64 {
        self.reserve_coll_tags(1)
    }

    /// Reserve `n` consecutive collective tag blocks in one step and
    /// return the first. The engine reserves a whole epoch's blocks up
    /// front so per-block retries (which advance tags *within* a block's
    /// attempt slots) can never desynchronise the shared sequence across
    /// ranks that observe different failures.
    pub fn reserve_coll_tags(&self, n: u64) -> u64 {
        hear_telemetry::add(hear_telemetry::Metric::Collectives, n);
        COLL_TAG_BASE + (self.coll_seq.fetch_add(n, Ordering::Relaxed) << 8)
    }

    /// Send a typed vector to `dst` with a user tag (must be < 2^32).
    pub fn send<T: Send + 'static>(&self, dst: usize, tag: u64, data: Vec<T>) {
        assert!(tag < COLL_TAG_BASE, "user tags must be below 2^32");
        self.send_internal(dst, tag, data);
    }

    pub(crate) fn send_internal<T: Send + 'static>(&self, dst: usize, tag: u64, data: Vec<T>) {
        assert!(dst < self.world, "destination out of range");
        let bytes = std::mem::size_of::<T>() * data.len();
        let _s = hear_telemetry::span!("send", bytes = bytes, dst = dst, tag = tag);
        self.transport.send_boxed(
            self.endpoint(self.rank),
            self.endpoint(dst),
            self.tag_with_context(tag),
            Box::new(data),
            bytes,
        );
    }

    /// Like [`Communicator::send`] but reports a dead destination (or a
    /// dead caller) as [`CommError::PeerDead`] instead of silently
    /// dropping the message on the fabric floor.
    pub fn send_checked<T: Send + 'static>(
        &self,
        dst: usize,
        tag: u64,
        data: Vec<T>,
    ) -> Result<(), CommError> {
        assert!(tag < COLL_TAG_BASE, "user tags must be below 2^32");
        self.try_send_internal(dst, tag, data)
    }

    pub(crate) fn try_send_internal<T: Send + 'static>(
        &self,
        dst: usize,
        tag: u64,
        data: Vec<T>,
    ) -> Result<(), CommError> {
        if self.transport.is_dead(self.endpoint(dst)) {
            return Err(CommError::PeerDead { peer: dst });
        }
        if self.transport.is_dead(self.endpoint(self.rank)) {
            return Err(CommError::PeerDead { peer: self.rank });
        }
        self.send_internal(dst, tag, data);
        Ok(())
    }

    /// Downcast a received envelope, turning a tag collision into a
    /// diagnosable [`CommError::TypeMismatch`] instead of a panic.
    fn open_payload<T: Send + 'static>(
        env: Envelope,
        src: usize,
        tag: u64,
    ) -> Result<Vec<T>, CommError> {
        env.payload
            .downcast::<Vec<T>>()
            .map(|b| *b)
            .map_err(|_| CommError::TypeMismatch {
                source: src,
                tag,
                expected: std::any::type_name::<Vec<T>>(),
            })
    }

    /// Blocking typed receive matching `(src, tag)`.
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: u64) -> Vec<T> {
        assert!(tag < COLL_TAG_BASE, "user tags must be below 2^32");
        self.recv_internal(src, tag)
    }

    /// Deadline-bounded typed receive: returns [`CommError::Timeout`]
    /// when nothing matching `(src, tag)` arrives within `timeout`, and
    /// [`CommError::PeerDead`] if `src` dies while we wait.
    pub fn recv_timeout<T: Send + 'static>(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<T>, CommError> {
        assert!(tag < COLL_TAG_BASE, "user tags must be below 2^32");
        self.try_recv_internal(src, tag, Some(Instant::now() + timeout))
    }

    pub(crate) fn recv_internal<T: Send + 'static>(&self, src: usize, tag: u64) -> Vec<T> {
        self.try_recv_internal(src, tag, None)
            .unwrap_or_else(|e| panic!("recv from rank {src} tag {tag:#x} failed: {e}"))
    }

    pub(crate) fn try_recv_internal<T: Send + 'static>(
        &self,
        src: usize,
        tag: u64,
        deadline: Option<Instant>,
    ) -> Result<Vec<T>, CommError> {
        let _s = hear_telemetry::span!("recv", src = src, tag = tag);
        let env = self.transport.recv_on(
            self.endpoint(self.rank),
            self.endpoint(src),
            self.tag_with_context(tag),
            deadline,
        )?;
        Self::open_payload(env, src, tag)
    }

    /// Combined send+recv (deadlock-free pairwise exchange).
    pub fn sendrecv<T: Send + 'static>(
        &self,
        dst: usize,
        send_tag: u64,
        data: Vec<T>,
        src: usize,
        recv_tag: u64,
    ) -> Vec<T> {
        self.send(dst, send_tag, data);
        self.recv(src, recv_tag)
    }

    pub(crate) fn try_sendrecv_internal<T: Send + 'static>(
        &self,
        dst: usize,
        send_tag: u64,
        data: Vec<T>,
        src: usize,
        recv_tag: u64,
        deadline: Option<Instant>,
    ) -> Result<Vec<T>, CommError> {
        self.try_send_internal(dst, send_tag, data)?;
        self.try_recv_internal(src, recv_tag, deadline)
    }
}

#[cfg(test)]
mod tests {
    use crate::simulator::Simulator;

    #[test]
    fn p2p_ping_pong() {
        let results = Simulator::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, vec![1u64, 2, 3]);
                comm.recv::<u64>(1, 6)
            } else {
                let v = comm.recv::<u64>(0, 5);
                let doubled: Vec<u64> = v.iter().map(|x| x * 2).collect();
                comm.send(0, 6, doubled.clone());
                doubled
            }
        });
        assert_eq!(results[0], vec![2, 4, 6]);
        assert_eq!(results[1], vec![2, 4, 6]);
    }

    #[test]
    fn messages_with_same_tag_keep_order() {
        let results = Simulator::new(2).run(|comm| {
            if comm.rank() == 0 {
                for i in 0..10u32 {
                    comm.send(1, 1, vec![i]);
                }
                vec![]
            } else {
                (0..10).map(|_| comm.recv::<u32>(0, 1)[0]).collect()
            }
        });
        assert_eq!(results[1], (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn different_tags_do_not_interfere() {
        let results = Simulator::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 2, vec![20u8]);
                comm.send(1, 1, vec![10u8]);
                0
            } else {
                // Receive in the opposite order of sending.
                let a = comm.recv::<u8>(0, 1)[0];
                let b = comm.recv::<u8>(0, 2)[0];
                (a as u32) * 100 + b as u32
            }
        });
        assert_eq!(results[1], 1020);
    }

    #[test]
    #[should_panic(expected = "below 2^32")]
    fn oversized_user_tag_rejected() {
        Simulator::new(1).run(|comm| {
            comm.send(0, 1 << 33, vec![0u8]);
        });
    }

    #[test]
    fn tag_collision_is_a_typed_mismatch_not_a_panic() {
        use std::time::Duration;
        let results = Simulator::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, vec![1u64]);
                String::new()
            } else {
                comm.recv_timeout::<u32>(0, 5, Duration::from_secs(1))
                    .expect_err("u64 payload must not downcast to u32")
                    .to_string()
            }
        });
        assert!(
            results[1].contains("Vec<u32>") && results[1].contains("source=0"),
            "{}",
            results[1]
        );
    }

    #[test]
    fn recv_timeout_expires_with_typed_error() {
        use crate::error::CommError;
        use std::time::Duration;
        let results = Simulator::new(2).run(|comm| {
            if comm.rank() == 1 {
                comm.recv_timeout::<u8>(0, 9, Duration::from_millis(20))
                    .err()
            } else {
                None
            }
        });
        assert!(matches!(results[1], Some(CommError::Timeout { .. })));
    }

    #[test]
    fn sendrecv_exchanges_between_pair() {
        let results = Simulator::new(2).run(|comm| {
            let partner = 1 - comm.rank();
            comm.sendrecv(partner, 3, vec![comm.rank() as u32], partner, 3)
        });
        assert_eq!(results[0], vec![1]);
        assert_eq!(results[1], vec![0]);
    }
}

#[cfg(test)]
mod split_tests {
    use crate::simulator::Simulator;

    #[test]
    fn split_by_parity() {
        let results = Simulator::new(6).run(|comm| {
            let sub = comm.split(comm.rank() as u64 % 2, comm.rank() as i64);
            // Each subgroup sums its own ranks' contributions.
            let sum = sub.allreduce(&[comm.rank() as u64], |a, b| a + b)[0];
            (sub.rank(), sub.world(), sum)
        });
        // Evens: 0+2+4 = 6; odds: 1+3+5 = 9.
        for (r, (sub_rank, sub_world, sum)) in results.iter().enumerate() {
            assert_eq!(*sub_world, 3);
            assert_eq!(*sub_rank, r / 2);
            assert_eq!(*sum, if r % 2 == 0 { 6 } else { 9 });
        }
    }

    #[test]
    fn split_key_reorders_ranks() {
        let results = Simulator::new(4).run(|comm| {
            // One group, ranks ordered in reverse.
            let sub = comm.split(0, -(comm.rank() as i64));
            sub.rank()
        });
        assert_eq!(results, vec![3, 2, 1, 0]);
    }

    #[test]
    fn parent_and_child_traffic_do_not_cross() {
        let results = Simulator::new(4).run(|comm| {
            let sub = comm.split(comm.rank() as u64 / 2, 0);
            // Interleave parent and child collectives with identical
            // payload shapes: context ids must keep them separate.
            let a = sub.allreduce(&[1u32], |a, b| a + b)[0];
            let b = comm.allreduce(&[10u32], |a, b| a + b)[0];
            let c = sub.allreduce(&[100u32], |a, b| a + b)[0];
            (a, b, c)
        });
        for r in &results {
            assert_eq!(*r, (2, 40, 200));
        }
    }

    #[test]
    fn nested_splits() {
        let results = Simulator::new(8).run(|comm| {
            let half = comm.split(comm.rank() as u64 / 4, 0); // two groups of 4
            let quarter = half.split(half.rank() as u64 / 2, 0); // pairs
            let s = quarter.allreduce(&[comm.rank() as u32], |a, b| a + b)[0];
            (quarter.world(), s)
        });
        // Pairs: (0,1)=1, (2,3)=5, (4,5)=9, (6,7)=13.
        for (r, (w, s)) in results.iter().enumerate() {
            assert_eq!(*w, 2);
            let pair_base = (r / 2) * 2;
            assert_eq!(*s as usize, pair_base * 2 + 1);
        }
    }

    #[test]
    fn shrink_remaps_ranks_and_collectives_work() {
        let results = Simulator::new(4).run(|comm| {
            if comm.rank() == 2 {
                // The "dead" rank stays out of the shrunk communicator.
                return (usize::MAX, usize::MAX, 0);
            }
            let sub = comm.shrink(&[0, 1, 3]);
            let sum = sub.allreduce(&[comm.rank() as u64], |a, b| a + b)[0];
            (sub.rank(), sub.world(), sum)
        });
        assert_eq!((results[0].0, results[0].1), (0, 3));
        assert_eq!((results[1].0, results[1].1), (1, 3));
        assert_eq!((results[3].0, results[3].1), (2, 3));
        for r in [0, 1, 3] {
            // Survivor contributions: ranks 0 + 1 + 3.
            assert_eq!(results[r].2, 4);
        }
    }

    #[test]
    fn shrink_traffic_does_not_cross_parent() {
        let results = Simulator::new(3).run(|comm| {
            if comm.rank() == 1 {
                return 0;
            }
            let sub = comm.shrink(&[0, 2]);
            // Identical payload shape on parent-compatible tags: the fresh
            // context must keep the shrunk ring's wires separate.
            sub.allreduce(&[comm.rank() as u32 + 1], |a, b| a + b)[0]
        });
        assert_eq!(results[0], 4);
        assert_eq!(results[2], 4);
    }

    #[test]
    #[should_panic(expected = "survivor set")]
    fn shrink_rejects_non_member_caller() {
        Simulator::new(2).run(|comm| {
            if comm.rank() == 1 {
                comm.shrink(&[0]);
            }
        });
    }

    #[test]
    fn p2p_within_split_uses_virtual_ranks() {
        let results = Simulator::new(4).run(|comm| {
            let sub = comm.split(comm.rank() as u64 % 2, 0);
            if sub.rank() == 0 {
                sub.send(1, 5, vec![comm.rank() as u32]);
                0
            } else {
                sub.recv::<u32>(0, 5)[0]
            }
        });
        // Global rank 2 (evens' sub-rank 1) hears from global 0; global 3
        // from global 1.
        assert_eq!(results[2], 0);
        assert_eq!(results[3], 1);
    }
}

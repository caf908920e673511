//! Epoch-boundary membership reconfiguration: the shrink-and-continue
//! loop behind every public collective entry point.
//!
//! When an attempt fails because a member rank died, and the caller opted
//! in via [`PeerDeadPolicy::ShrinkAndContinue`], the survivors:
//!
//! 1. **Agree** on the survivor set — a bounded gossip round of
//!    all-to-all suspicion bitmasks on a reserved tag lane, seeded from
//!    the transport's dead-endpoint flags (heartbeat miss budget on TCP,
//!    fault-plan kills in memory).
//! 2. **Rebase** the HEAR key schedule — [`CommKeys::rebase`] derives a
//!    fresh ring of starting keys and a fresh collective key over the
//!    survivor order from the shared progression PRF, so no extra key
//!    exchange is needed and no pad position collides with pre-shrink
//!    traffic.
//! 3. **Shrink** the communicator — [`Communicator::shrink`] remaps the
//!    survivor ranks onto a fresh context id (ring and hierarchical
//!    neighbor tables, `shard_bounds`, and tag lanes all follow the new
//!    world transparently).
//! 4. **Re-run** the collective over the survivors: the caller gets a
//!    correct aggregate of the survivors' contributions plus a
//!    [`MembershipChange`] report instead of an error.
//!
//! ## Survivors that did not fail
//!
//! A member's death need not fail every survivor's attempt: a rank that
//! already holds everything the victim was going to contribute (the
//! survivor upstream of the victim in a one-round ring allgather, say)
//! *completes* the full-world collective while its peers fail it. Such a
//! rank must not walk away — its peers would wait out the agreement
//! deadline and evict it too. So a rank that completes an attempt while
//! the transport flags another member dead joins the agreement as well,
//! and the gossip carries, next to the suspicion mask, where each rank
//! stands: its collective-call counter and whether it still *needs* that
//! call's result. The round settles the earliest call anyone still needs
//! (`resume`): a rank that completed exactly that call discards its
//! full-world result and re-runs with the others, so every survivor
//! returns the same survivor-set aggregate; a rank whose peers are all
//! already past its completed call (they finished it before the death
//! and failed the next one) keeps its result and reconfigures on its way
//! into that next call (the call that reports a [`MembershipChange`] is
//! always the first to return a survivor-set aggregate). If
//! some rank has *returned* from a call another still needs, nobody can
//! serve the re-run: no one shrinks and the failed ranks surface their
//! original typed error. And if the round shows that *nobody* failed
//! anything — every survivor holds its result; the "corpse" is typically
//! a peer process that finished the job's last collective and exited —
//! the membership is left alone, exactly as if nobody had looked: a
//! clean teardown is not a membership event.
//!
//! ## Failure-detector assumption
//!
//! Agreement is sound for crash-stop failures surfaced through the
//! transport's dead flags, which every rank observes consistently. A
//! slow-but-alive rank that misses the (generous) agreement deadline can
//! be falsely evicted; if suspicion diverges across survivors the
//! re-run's collectives time out and the original error surfaces —
//! safety (no wrong result) is preserved, only liveness of the shrink is
//! lost. See DESIGN.md §11.

use super::cfg::{EngineError, PeerDeadPolicy, RetryPolicy};
use crate::prefetch::Prefetcher;
use crate::secure::SecureComm;
use hear_core::KeystreamCache;
use hear_mpi::{CommError, ATTEMPT_TAG_STRIDE, COLL_BLOCK_TAG_STRIDE};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Gossip stages of the suspicion-bitmask exchange. Two stages propagate
/// any single observation to every survivor; the third absorbs one
/// asymmetric observation made *during* the exchange.
const AGREE_STAGES: u64 = 3;

/// Tag lane for agreement traffic. Sits far above the collective
/// sequence lanes (`COLL_TAG_BASE + seq·256` would need ~2^38
/// collectives to reach it) and below the context bits, so agreement
/// wires can never match collective or user traffic. Successive shrink
/// rounds run on distinct blocks keyed by the membership epoch.
const AGREE_TAG_BASE: u64 = 1 << 46;

/// One completed membership reconfiguration, reported to the caller via
/// [`SecureComm::take_membership_changes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipChange {
    /// Membership epoch this change created (1 = first shrink).
    pub epoch: u64,
    /// Evicted ranks, numbered in the *original* world (what the caller
    /// launched with), not the pre-shrink intermediate numbering.
    pub evicted: Vec<usize>,
    /// World size before the shrink.
    pub old_world: usize,
    /// World size after the shrink.
    pub new_world: usize,
}

/// What one gossip round settles.
struct Agreement {
    /// Agreed survivors (current-communicator numbering, ascending, self
    /// included).
    survivors: Vec<usize>,
    /// The earliest collective call some survivor still lacks a result
    /// for — the call everyone resumes at.
    resume: u64,
    /// The latest call any survivor has entered.
    furthest: u64,
    /// Members given up on because the agreement deadline ran out, not
    /// because the transport flags them dead.
    impatient: u64,
}

impl Agreement {
    /// Every survivor holds the result of every call it has entered (and
    /// all of them answered): there is nothing to repair.
    fn nobody_failed(&self) -> bool {
        self.resume > self.furthest && self.impatient == 0
    }
}

impl SecureComm {
    /// The shrink-and-continue loop shared by every collective entry
    /// point: run `attempt`; if it failed shrink-eligibly — or completed
    /// while another member lies dead — agree on the survivors, rebase
    /// keys and communicator, and re-run unless every survivor already
    /// holds this call's result. The world strictly shrinks per
    /// iteration (and a one-rank world cannot fail on transport), so the
    /// loop is bounded by the initial world size.
    pub(crate) fn with_shrink<F>(
        &mut self,
        policy: RetryPolicy,
        mut attempt: F,
    ) -> Result<(), EngineError>
    where
        F: FnMut(&mut SecureComm) -> Result<(), EngineError>,
    {
        if let Some(survivors) = self.deferred_shrink.take() {
            self.shrink_to(&survivors, true);
        }
        // A permanently-shrunk job keeps announcing itself: operators see
        // the epoch counter move with the traffic, not just once at the
        // eviction (mirroring how sticky INC degradation is counted).
        if !self.evicted.is_empty() {
            hear_telemetry::incr(hear_telemetry::Metric::MembershipEpochs);
        }
        // Every rank enters its collectives in the same order, so this
        // counter names the same call on every member.
        self.calls += 1;
        let call = self.calls;
        loop {
            let res = attempt(self);
            let eligible = match &res {
                Err(e) => self.shrink_eligible(e, policy.on_peer_dead),
                Ok(()) => self.completed_beside_a_corpse(policy.on_peer_dead),
            };
            if !eligible {
                return res;
            }
            // The first call this rank still lacks a result for.
            let need = call + u64::from(res.is_ok());
            let agreed = self.agree_on_survivors(&policy, call, need);
            if agreed.survivors.len() == self.world() {
                // Agreement found no one newly dead: the failure was not
                // a membership problem after all.
                return res;
            }
            if agreed.furthest > agreed.resume {
                // Someone has already returned from a call another rank
                // still needs; its inputs are gone, so that call cannot
                // be re-run over any membership.
                return res;
            }
            if agreed.nobody_failed() {
                // The dead member cost no survivor a result (it died, or
                // simply exited, after contributing everything). Leave
                // the eviction to the first call that trips over it.
                return res;
            }
            if agreed.resume > call {
                // Only a completed rank gets here: every survivor holds
                // this call's full-world result, so it stands. Its peers
                // are re-running the *next* call; reconfigure on the way
                // into that one, so that here too the call that reports
                // the change is the first to return a survivor-set
                // aggregate.
                self.deferred_shrink = Some(agreed.survivors);
                return res;
            }
            self.shrink_to(&agreed.survivors, false);
        }
    }

    /// Whether a failed attempt should trigger membership agreement:
    /// the caller opted in, this rank is itself alive, and some *other*
    /// member is transport-dead (a `PeerDead` hit it directly, or the
    /// retries exhausted on timeouts while the corpse stalled the ring).
    fn shrink_eligible(&self, e: &EngineError, policy: PeerDeadPolicy) -> bool {
        if policy != PeerDeadPolicy::ShrinkAndContinue || self.world() <= 1 {
            return false;
        }
        let me = self.rank();
        if self.comm.is_peer_dead(me) {
            // The dead rank's own call must fail, not shrink the world
            // from inside the corpse.
            return false;
        }
        matches!(
            e,
            EngineError::Comm(CommError::PeerDead { .. })
                | EngineError::Comm(CommError::Timeout { .. })
        ) && (0..self.world()).any(|r| r != me && self.comm.is_peer_dead(r))
    }

    /// Whether a *completed* attempt must still join the agreement: the
    /// caller opted in and another member is transport-dead, so the
    /// peers may have failed the very call this rank finished.
    fn completed_beside_a_corpse(&self, policy: PeerDeadPolicy) -> bool {
        if policy != PeerDeadPolicy::ShrinkAndContinue || self.world() <= 1 {
            return false;
        }
        let me = self.rank();
        !self.comm.is_peer_dead(me)
            && (0..self.world()).any(|r| r != me && self.comm.is_peer_dead(r))
    }

    /// The gossip round: flood suspicion bitmasks — and where each rank
    /// stands (`call`, the collective it is in; `need`, the first call it
    /// lacks a result for) — until every survivor holds the same picture.
    fn agree_on_survivors(&self, policy: &RetryPolicy, call: u64, need: u64) -> Agreement {
        let world = self.world();
        let me = self.rank();
        assert!(
            world <= 64,
            "membership agreement bitmasks support up to 64 ranks"
        );
        let (mut mask, mut impatient) = (0u64, 0u64);
        let (mut resume, mut furthest) = (need, call);
        for r in (0..world).filter(|&r| r != me) {
            if self.comm.is_peer_dead(r) {
                mask |= 1 << r;
            }
        }
        // Peers that saw only timeouts burn their whole retry budget
        // before entering agreement; wait out that worst case (attempt
        // deadline plus capped backoff per attempt) before suspecting.
        let slice = policy
            .attempt_timeout
            .unwrap_or_else(|| (self.comm.transport_rtt() * 1000).max(Duration::from_millis(200)));
        let wait = slice * (2 * policy.max_attempts + 1);
        let base = AGREE_TAG_BASE + self.membership_epoch * COLL_BLOCK_TAG_STRIDE;
        for stage in 0..AGREE_STAGES {
            let tag = base + stage * ATTEMPT_TAG_STRIDE;
            // Who counted as alive when this stage started: sends and
            // receives pair up against the same snapshot on both ends.
            let stage_mask = mask;
            for r in (0..world).filter(|&r| r != me && stage_mask & (1 << r) == 0) {
                let msg = vec![mask, resume, furthest, impatient];
                if self.comm.try_send_tagged(r, tag, msg).is_err() {
                    mask |= 1 << r;
                }
            }
            for r in 0..world {
                if r == me || stage_mask & (1 << r) != 0 || mask & (1 << r) != 0 {
                    continue;
                }
                match self
                    .comm
                    .try_recv_tagged::<u64>(r, tag, Some(Instant::now() + wait))
                    .as_deref()
                {
                    Ok(&[theirs, their_resume, their_furthest, their_impatient]) => {
                        mask |= theirs;
                        resume = resume.min(their_resume);
                        furthest = furthest.max(their_furthest);
                        impatient |= their_impatient;
                    }
                    Err(CommError::PeerDead { .. }) => mask |= 1 << r,
                    _ => {
                        mask |= 1 << r;
                        impatient |= 1 << r;
                    }
                }
            }
        }
        Agreement {
            survivors: (0..world)
                .filter(|&r| r == me || mask & (1 << r) == 0)
                .collect(),
            resume,
            furthest,
            impatient,
        }
    }

    /// Execute one agreed shrink: rebase the key schedule over the
    /// survivors at a fresh membership epoch, shrink the communicator,
    /// reattach a fresh keystream cache and prefetch worker, and record
    /// the change (sticky eviction set, per-epoch counters, caller
    /// report). `deferred` says this rank agreed to the shrink at the end
    /// of a call it had completed and is only now entering the call its
    /// peers re-run: they advanced the pad epoch once more (their failed
    /// attempt of that call) before deriving the salt, which must match.
    fn shrink_to(&mut self, survivors: &[usize], deferred: bool) {
        let old_world = self.world();
        let evicted_now: Vec<usize> = (0..old_world)
            .filter(|r| !survivors.contains(r))
            .map(|r| self.lineage[r])
            .collect();
        self.membership_epoch += 1;
        // Salt: identical on every survivor (shared kc, lockstep epoch
        // counter), distinct per shrink, and fed through the progression
        // PRF's rebase domain — so the post-shrink pads never collide
        // with pre-shrink traffic (DESIGN.md §11).
        let pad_epoch = if deferred {
            self.keys.peek_next_epoch()
        } else {
            self.keys.epoch()
        };
        let salt =
            pad_epoch.wrapping_add(self.membership_epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut keys = self.keys.rebase(survivors, salt);
        let cache = KeystreamCache::new();
        keys.attach_cache(Arc::clone(&cache));
        if self.prefetch.is_some() {
            self.prefetch = Some(Prefetcher::new(keys.prf().clone(), cache));
        }
        if self.comm.switch_topology().is_some() {
            // The shrunk communicator drops the INC tree; route later
            // Switch-algo epochs straight to the host ring.
            self.degraded = true;
        }
        self.comm = self.comm.shrink(survivors);
        self.keys = keys;
        self.lineage = survivors.iter().map(|&r| self.lineage[r]).collect();
        hear_telemetry::incr(hear_telemetry::Metric::MembershipEpochs);
        hear_telemetry::add(
            hear_telemetry::Metric::RanksEvicted,
            evicted_now.len() as u64,
        );
        self.membership_changes.push(MembershipChange {
            epoch: self.membership_epoch,
            evicted: evicted_now.clone(),
            old_world,
            new_world: survivors.len(),
        });
        self.evicted.extend(evicted_now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineCfg;
    use hear_core::{CommKeys, IntSumScheme};
    use hear_mpi::{Communicator, FaultPlan, SimConfig, Simulator};
    use hear_prf::Backend;

    /// World 3 whose rank 2 is dead before the first message: each test
    /// scripts what ranks 0 and 1 see of the call the death interrupted.
    const WORLD: usize = 3;
    const VICTIM: usize = 2;

    fn world_with_a_corpse() -> Simulator {
        let plan = FaultPlan::seeded(7).kill_endpoint_after(VICTIM, 0);
        Simulator::with_config(WORLD, SimConfig::default().with_faults(plan))
    }

    fn secure(comm: &Communicator) -> SecureComm {
        let keys = CommKeys::generate(WORLD, 0x5EED, Backend::AesSoft)
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        // No prefetcher: the pool's one-slot background lane is shared
        // by every test in this binary.
        SecureComm::new(comm.clone(), keys).without_prefetch()
    }

    fn shrink() -> RetryPolicy {
        RetryPolicy::default()
            .with_attempt_timeout(Duration::from_secs(2))
            .on_peer_dead(PeerDeadPolicy::ShrinkAndContinue)
    }

    fn peer_dead() -> Result<(), EngineError> {
        Err(EngineError::Comm(CommError::PeerDead { peer: VICTIM }))
    }

    /// One collective call through the shrink loop whose first `script`
    /// attempts are canned outcomes (each advancing the pad epoch, as a
    /// real attempt does) and whose later attempts are real allreduces
    /// of `[rank + 1]` over whatever membership is current. Returns the
    /// call's result, the attempts made, and the aggregate (if a real
    /// attempt ran).
    fn call(
        sc: &mut SecureComm,
        policy: RetryPolicy,
        script: &[Result<(), EngineError>],
    ) -> (Result<(), EngineError>, usize, Vec<u32>) {
        let mine = [sc.lineage[sc.rank()] as u32 + 1];
        let mut scheme = IntSumScheme::<u32>::default();
        let mut out = Vec::new();
        let mut attempts = 0;
        let res = sc.with_shrink(policy, |sc| {
            attempts += 1;
            match script.get(attempts - 1) {
                Some(canned) => {
                    sc.keys.advance();
                    *canned
                }
                None => sc.allreduce_attempt(&mut scheme, &mine, &mut out, EngineCfg::sync()),
            }
        });
        (res, attempts, out)
    }

    /// Rank 1 *completes* the call rank 0 fails. It must join the
    /// agreement, drop its full-world result and re-run — were it to
    /// return, rank 0 would wait out the deadline and evict it as well.
    #[test]
    fn a_survivor_that_completed_reruns_with_the_others() {
        let results = world_with_a_corpse().run(|comm| {
            if comm.rank() == VICTIM {
                return None;
            }
            let mut sc = secure(comm);
            let first = if comm.rank() == 0 {
                peer_dead()
            } else {
                Ok(())
            };
            let (res, attempts, out) = call(&mut sc, shrink(), &[first]);
            Some((res, attempts, out, sc.world(), sc.take_membership_changes()))
        });
        for (rank, r) in results.iter().enumerate().take(VICTIM) {
            let (res, attempts, out, world, changes) = r.as_ref().unwrap();
            assert!(res.is_ok(), "rank {rank}: {res:?}");
            assert_eq!(*attempts, 2, "rank {rank} must re-run");
            assert_eq!(out, &vec![3], "rank {rank}: survivor-set sum");
            assert_eq!(*world, 2, "rank {rank} world");
            assert_eq!(changes.len(), 1, "rank {rank} report");
            assert_eq!(changes[0].evicted, vec![VICTIM]);
        }
    }

    /// Rank 1 finished call 1 before the death and fails call 2; rank 0
    /// finished call 1 after it. Nobody needs call 1 again: rank 0 keeps
    /// its result, reconfigures on entering call 2, and the two meet
    /// there on identical rebased keys (the sum decrypts).
    #[test]
    fn a_survivor_whose_peers_moved_on_keeps_its_result() {
        let results = world_with_a_corpse().run(|comm| {
            if comm.rank() == VICTIM {
                return None;
            }
            let mut sc = secure(comm);
            let first = if comm.rank() == 0 {
                call(&mut sc, shrink(), &[Ok(())])
            } else {
                // Returned before the victim died: no dead flag to see.
                call(&mut sc, RetryPolicy::default(), &[Ok(())])
            };
            let world_after_first = sc.world() - sc.take_membership_changes().len();
            let script = if comm.rank() == 0 {
                vec![]
            } else {
                vec![peer_dead()]
            };
            let second = call(&mut sc, shrink(), &script);
            Some((
                first,
                world_after_first,
                second,
                sc.take_membership_changes(),
            ))
        });
        for (rank, r) in results.iter().enumerate().take(VICTIM) {
            let (first, world_after_first, second, changes) = r.as_ref().unwrap();
            assert!(
                first.0.is_ok() && first.1 == 1,
                "rank {rank}: call 1 stands"
            );
            assert_eq!(
                *world_after_first, WORLD,
                "rank {rank}: nothing changes, or is reported, before call 2"
            );
            assert!(second.0.is_ok(), "rank {rank}: {:?}", second.0);
            assert_eq!(second.1, if rank == 0 { 1 } else { 2 }, "rank {rank}");
            assert_eq!(second.2, vec![3], "rank {rank}: survivor-set sum");
            assert_eq!(changes.len(), 1, "rank {rank} report");
        }
    }

    /// Both survivors complete beside the corpse — the shape of a job's
    /// teardown over sockets, where a peer that finished the last
    /// collective and exited reads as dead. Nobody failed anything, so
    /// nothing is reconfigured and nothing reported.
    #[test]
    fn a_corpse_that_cost_nobody_a_result_is_left_alone() {
        let results = world_with_a_corpse().run(|comm| {
            if comm.rank() == VICTIM {
                return None;
            }
            let mut sc = secure(comm);
            let (res, attempts, _) = call(&mut sc, shrink(), &[Ok(())]);
            Some((res, attempts, sc.world(), sc.take_membership_changes()))
        });
        for (rank, r) in results.iter().enumerate().take(VICTIM) {
            let (res, attempts, world, changes) = r.as_ref().unwrap();
            assert!(res.is_ok(), "rank {rank}: {res:?}");
            assert_eq!((*attempts, *world), (1, WORLD), "rank {rank}");
            assert!(changes.is_empty(), "rank {rank}: {changes:?}");
        }
    }

    /// Rank 1 has *returned* from the call rank 0 failed, and its inputs
    /// are gone: no membership can re-run it. Nobody shrinks and both
    /// surface their typed error instead of pairing two different calls.
    #[test]
    fn a_call_a_peer_already_left_cannot_be_rerun() {
        let results = world_with_a_corpse().run(|comm| {
            if comm.rank() == VICTIM {
                return None;
            }
            let mut sc = secure(comm);
            let (res, attempts, _) = if comm.rank() == 0 {
                call(&mut sc, shrink(), &[peer_dead()])
            } else {
                assert!(call(&mut sc, RetryPolicy::default(), &[Ok(())]).0.is_ok());
                call(&mut sc, shrink(), &[peer_dead()])
            };
            Some((res, attempts, sc.world()))
        });
        for (rank, r) in results.iter().enumerate().take(VICTIM) {
            let (res, attempts, world) = r.as_ref().unwrap();
            assert!(
                matches!(res, Err(EngineError::Comm(CommError::PeerDead { .. }))),
                "rank {rank}: {res:?}"
            );
            assert_eq!((*attempts, *world), (1, WORLD), "rank {rank}");
        }
    }
}

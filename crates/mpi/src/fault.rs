//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] is a seeded description of what can go wrong: messages
//! dropped, delayed, duplicated, or bit-flipped; endpoints killed after
//! their N-th outbound send. Every per-message decision is derived from a
//! [`TestRng`](hear_testkit::TestRng) seeded by the *identity* of the
//! message — `(plan seed, from, to, tag, per-link sequence number)` — so
//! the same schedule hits the same faults regardless of how the OS
//! interleaves rank threads. Kills are keyed on the victim endpoint's own
//! outbound send count, which is likewise schedule-independent.
//!
//! Payloads cross the fabric as `Box<dyn Any + Send>`, which can neither
//! be cloned nor inspected generically, so a corrupt fault damages and a
//! duplicate fault copies the payload through its entry in the wire-type
//! table ([`crate::payload`]): every type that can cross a transport can
//! be corrupted, duplicated and recorded. A test that needs a sharper
//! fault installs a [`Corruptor`], tried before the table.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::payload;
use hear_testkit::TestRng;

/// In-place payload mutator. Receives the payload and a per-message
/// random word; returns `true` if it recognised the concrete type and
/// applied a corruption.
pub type Corruptor = Arc<dyn Fn(&mut dyn Any, u64) -> bool + Send + Sync>;

/// Where a plan's [`FaultPlan::with_wire_recorder`] observer shows each
/// payload: its `Debug` rendering.
pub type WireSink = Arc<dyn Fn(String) + Send + Sync>;

/// What the plan decided to do with one message (before kills are
/// considered). `Deliver` means "no fault sampled".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    Deliver,
    Drop,
    Delay(Duration),
    Duplicate,
    Corrupt,
}

/// A seeded, declarative description of injected faults.
///
/// All probabilities are expressed as "one in `n`" rates; `0` disables
/// the fault. The plan is immutable once handed to the fabric — per-run
/// mutable state (send counters, link sequence numbers) lives in
/// `FaultState`.
#[derive(Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    drop_one_in: u64,
    delay_one_in: u64,
    delay_by: Duration,
    duplicate_one_in: u64,
    corrupt_one_in: u64,
    /// `(endpoint, after_sends)`: the endpoint dies once it has completed
    /// `after_sends` outbound sends (`0` = dead from the start).
    kills: Vec<(usize, u64)>,
    /// `(endpoint, after_sends, for_sends)`: the endpoint's outbound link
    /// goes dark for sends `after_sends+1 ..= after_sends+for_sends`
    /// (dropped, endpoint marked suspect), then heals — the deterministic
    /// in-memory mirror of a transient TCP disconnect + reconnect.
    disconnects: Vec<(usize, u64, u64)>,
    corruptors: Vec<Corruptor>,
    recorder: Option<WireSink>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("drop_one_in", &self.drop_one_in)
            .field("delay_one_in", &self.delay_one_in)
            .field("delay_by", &self.delay_by)
            .field("duplicate_one_in", &self.duplicate_one_in)
            .field("corrupt_one_in", &self.corrupt_one_in)
            .field("kills", &self.kills)
            .field("disconnects", &self.disconnects)
            .field("corruptors", &self.corruptors.len())
            .field("recorder", &self.recorder.is_some())
            .finish()
    }
}

impl FaultPlan {
    /// A plan with the given seed and no faults armed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Drop one in `n` messages (0 disables).
    pub fn drop_one_in(mut self, n: u64) -> Self {
        self.drop_one_in = n;
        self
    }

    /// Delay one in `n` messages by `by` on top of the α–β model.
    pub fn delay_one_in(mut self, n: u64, by: Duration) -> Self {
        self.delay_one_in = n;
        self.delay_by = by;
        self
    }

    /// Deliver one in `n` messages twice.
    pub fn duplicate_one_in(mut self, n: u64) -> Self {
        self.duplicate_one_in = n;
        self
    }

    /// Damage one in `n` messages (through the wire-type table, or a
    /// [`FaultPlan::with_corruptor`] override).
    pub fn corrupt_one_in(mut self, n: u64) -> Self {
        self.corrupt_one_in = n;
        self
    }

    /// Kill `endpoint` after it has completed `after_sends` outbound
    /// sends. `0` means the endpoint is dead from fabric construction.
    pub fn kill_endpoint_after(mut self, endpoint: usize, after_sends: u64) -> Self {
        self.kills.push((endpoint, after_sends));
        self
    }

    /// Drop `endpoint`'s outbound sends `after_sends+1 ..= after_sends +
    /// for_sends` and mark it suspect for that window; the first send
    /// past the window heals the link (counted as a reconnect). Unlike
    /// [`FaultPlan::kill_endpoint_after`], the endpoint survives —
    /// receivers waiting on it during the window observe
    /// `Disconnected` (retryable) rather than `PeerDead`.
    pub fn disconnect_endpoint_after(
        mut self,
        endpoint: usize,
        after_sends: u64,
        for_sends: u64,
    ) -> Self {
        self.disconnects.push((endpoint, after_sends, for_sends));
        self
    }

    /// Register a payload corruptor, tried before the wire-type table (and
    /// before corruptors registered earlier).
    pub fn with_corruptor(mut self, c: Corruptor) -> Self {
        self.corruptors.insert(0, c);
        self
    }

    /// Show `sink` every payload the plan sees, before any fault is
    /// decided and untouched: what an eavesdropper on the wire reads. Types
    /// with no wire-type entry are not shown.
    pub fn with_wire_recorder(mut self, sink: WireSink) -> Self {
        self.recorder = Some(sink);
        self
    }

    /// Endpoints scheduled to die immediately (before any send).
    pub(crate) fn dead_on_arrival(&self) -> impl Iterator<Item = usize> + '_ {
        self.kills
            .iter()
            .filter(|(_, after)| *after == 0)
            .map(|(ep, _)| *ep)
    }

    /// If `endpoint` finishing its `sends_done`-th send triggers a kill,
    /// returns true.
    pub(crate) fn kill_triggered(&self, endpoint: usize, sends_done: u64) -> bool {
        self.kills
            .iter()
            .any(|&(ep, after)| ep == endpoint && after != 0 && sends_done >= after)
    }

    /// Where `endpoint`'s `ordinal`-th outbound send falls relative to
    /// its transient-disconnect windows.
    pub(crate) fn disconnect_phase(&self, endpoint: usize, ordinal: u64) -> DisconnectPhase {
        for &(ep, after, for_sends) in &self.disconnects {
            if ep != endpoint {
                continue;
            }
            if ordinal > after && ordinal <= after + for_sends {
                return DisconnectPhase::Dropping {
                    entering: ordinal == after + 1,
                };
            }
            if ordinal == after + for_sends + 1 {
                return DisconnectPhase::Healing;
            }
        }
        DisconnectPhase::Clear
    }

    /// Sample the fault decision for one message. Pure in the message
    /// identity: `(seed, from, to, tag, link_seq)` always yields the same
    /// action. At most one fault fires per message; the categories are
    /// tried in a fixed order (drop, corrupt, duplicate, delay) so rates
    /// compose predictably.
    pub(crate) fn action_for(
        &self,
        from: usize,
        to: usize,
        tag: u64,
        link_seq: u64,
    ) -> FaultAction {
        if self.drop_one_in == 0
            && self.delay_one_in == 0
            && self.duplicate_one_in == 0
            && self.corrupt_one_in == 0
        {
            return FaultAction::Deliver;
        }
        let mut rng = TestRng::seed_from_u64(mix_identity(
            self.seed,
            from as u64,
            to as u64,
            tag,
            link_seq,
        ));
        if self.drop_one_in != 0 && rng.next_u64().is_multiple_of(self.drop_one_in) {
            return FaultAction::Drop;
        }
        if self.corrupt_one_in != 0 && rng.next_u64().is_multiple_of(self.corrupt_one_in) {
            return FaultAction::Corrupt;
        }
        if self.duplicate_one_in != 0 && rng.next_u64().is_multiple_of(self.duplicate_one_in) {
            return FaultAction::Duplicate;
        }
        if self.delay_one_in != 0 && rng.next_u64().is_multiple_of(self.delay_one_in) {
            return FaultAction::Delay(self.delay_by);
        }
        FaultAction::Deliver
    }

    /// The per-message random word handed to corruptors (independent of
    /// the action sampling stream).
    pub(crate) fn corruption_word(&self, from: usize, to: usize, tag: u64, link_seq: u64) -> u64 {
        let mut rng = TestRng::seed_from_u64(
            mix_identity(self.seed, from as u64, to as u64, tag, link_seq) ^ 0x9e3779b97f4a7c15,
        );
        rng.next_u64()
    }

    /// Run the payload through the corruptors, then the wire-type table;
    /// returns true if one of them handled the concrete type.
    pub(crate) fn corrupt_payload(&self, payload: &mut dyn Any, word: u64) -> bool {
        self.corruptors.iter().any(|c| c(payload, word)) || payload::corrupt(payload, word)
    }
}

/// Per-run mutable fault bookkeeping, owned by the fabric: outbound send
/// counters per endpoint (for kill triggers) and a per-directed-link
/// sequence number (so per-message sampling is independent of thread
/// scheduling across links).
pub(crate) struct FaultState {
    endpoints: usize,
    sends_by: Vec<AtomicU64>,
    link_seq: Vec<AtomicU64>,
}

impl FaultState {
    pub(crate) fn new(endpoints: usize) -> Self {
        FaultState {
            endpoints,
            sends_by: (0..endpoints).map(|_| AtomicU64::new(0)).collect(),
            link_seq: (0..endpoints * endpoints)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Count one outbound send by `from`; returns the ordinal (1-based)
    /// of the send just completed.
    pub(crate) fn count_send(&self, from: usize) -> u64 {
        self.sends_by[from].fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Next sequence number on the directed link `from → to` (0-based).
    pub(crate) fn next_link_seq(&self, from: usize, to: usize) -> u64 {
        self.link_seq[from * self.endpoints + to].fetch_add(1, Ordering::Relaxed)
    }
}

/// The transport-independent verdict of [`filter_send`] for one message:
/// deliver (with an optional duplicate copy and extra injected delay), or
/// drop it. The payload passed in may have been corrupted in place.
pub(crate) enum SendDecision {
    Deliver {
        dup: Option<Box<dyn Any + Send>>,
        extra_delay: Duration,
    },
    Drop,
}

/// A send ordinal's relation to the sender's transient-disconnect
/// windows, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DisconnectPhase {
    /// No window is active for this send.
    Clear,
    /// Inside a window: the send is dropped and the sender is suspect.
    /// `entering` is true on the window's first dropped send.
    Dropping { entering: bool },
    /// First send past a window: the link healed.
    Healing,
}

/// Everything a transport backend needs to act on one outbound message:
/// the delivery decision, whether this send triggers the sender's kill,
/// and the sender's suspect-state transition (`Some(true)` = entered a
/// disconnect window, `Some(false)` = healed, `None` = unchanged).
pub(crate) struct SendVerdict {
    pub(crate) decision: SendDecision,
    pub(crate) kill_after: bool,
    pub(crate) suspect: Option<bool>,
}

/// Apply an (optional) armed fault plan to one outbound message. This is
/// the single fault-decision point shared by every transport backend: the
/// in-memory fabric applies it just before mailbox deposit, the TCP
/// backend just before wire encoding (while the payload is still typed, so
/// the table's corruptor and cloner work unchanged over sockets).
///
/// Returns the decision plus whether this send triggers the sender's
/// kill. When `to` is already dead the message is dropped without
/// counting a fault (a corpse receives nothing), but the sender's send
/// ordinal still advances — kill triggers stay schedule-independent.
pub(crate) fn filter_send(
    faults: Option<&(FaultPlan, FaultState)>,
    to_is_dead: bool,
    from: usize,
    to: usize,
    tag: u64,
    payload: &mut Box<dyn Any + Send>,
) -> SendVerdict {
    let Some((plan, state)) = faults else {
        return SendVerdict {
            decision: SendDecision::Deliver {
                dup: None,
                extra_delay: Duration::ZERO,
            },
            kill_after: false,
            suspect: None,
        };
    };
    if let Some(sink) = &plan.recorder {
        if let Some(seen) = payload::show(payload.as_ref()) {
            sink(seen);
        }
    }
    // The send ordinal is the victim's own outbound count, so kill
    // triggers are independent of cross-thread scheduling. The
    // triggering send itself still completes ("dies after N sends").
    let ordinal = state.count_send(from);
    let kill_after = plan.kill_triggered(from, ordinal);
    let mut suspect = None;
    match plan.disconnect_phase(from, ordinal) {
        DisconnectPhase::Dropping { entering } => {
            if entering {
                hear_telemetry::incr(hear_telemetry::Metric::FaultDisconnect);
            }
            return SendVerdict {
                decision: SendDecision::Drop,
                kill_after,
                suspect: Some(true),
            };
        }
        DisconnectPhase::Healing => {
            hear_telemetry::incr(hear_telemetry::Metric::ReconnectsTotal);
            suspect = Some(false);
        }
        DisconnectPhase::Clear => {}
    }
    if to_is_dead {
        return SendVerdict {
            decision: SendDecision::Drop,
            kill_after,
            suspect,
        };
    }
    let link_seq = state.next_link_seq(from, to);
    let decision = match plan.action_for(from, to, tag, link_seq) {
        FaultAction::Deliver => SendDecision::Deliver {
            dup: None,
            extra_delay: Duration::ZERO,
        },
        FaultAction::Drop => {
            hear_telemetry::incr(hear_telemetry::Metric::FaultDrop);
            SendDecision::Drop
        }
        FaultAction::Delay(by) => {
            hear_telemetry::incr(hear_telemetry::Metric::FaultDelay);
            SendDecision::Deliver {
                dup: None,
                extra_delay: by,
            }
        }
        FaultAction::Duplicate => {
            let dup = payload::duplicate(payload.as_ref());
            if dup.is_some() {
                hear_telemetry::incr(hear_telemetry::Metric::FaultDuplicate);
            }
            SendDecision::Deliver {
                dup,
                extra_delay: Duration::ZERO,
            }
        }
        FaultAction::Corrupt => {
            let word = plan.corruption_word(from, to, tag, link_seq);
            if plan.corrupt_payload(payload.as_mut(), word) {
                hear_telemetry::incr(hear_telemetry::Metric::FaultCorrupt);
            }
            SendDecision::Deliver {
                dup: None,
                extra_delay: Duration::ZERO,
            }
        }
    };
    SendVerdict {
        decision,
        kill_after,
        suspect,
    }
}

/// SplitMix64-style avalanche over the five identity words.
fn mix_identity(seed: u64, from: u64, to: u64, tag: u64, link_seq: u64) -> u64 {
    let mut h = seed ^ 0x51_7c_c1_b7_27_22_0a_95;
    for w in [from, to, tag, link_seq] {
        h ^= w.wrapping_mul(0x9e3779b97f4a7c15);
        h = h.rotate_left(27).wrapping_mul(0xbf58476d1ce4e5b9);
    }
    h ^= h >> 31;
    h.wrapping_mul(0x94d049bb133111eb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_are_deterministic_in_message_identity() {
        let plan = FaultPlan::seeded(7)
            .drop_one_in(3)
            .corrupt_one_in(3)
            .duplicate_one_in(3)
            .delay_one_in(3, Duration::from_millis(1));
        for link_seq in 0..64 {
            let a = plan.action_for(1, 2, 0x100, link_seq);
            let b = plan.action_for(1, 2, 0x100, link_seq);
            assert_eq!(a, b);
        }
        // Different identities decouple: at one-in-3 rates, 64 messages
        // must not all get the same action.
        let distinct: std::collections::HashSet<_> = (0..64)
            .map(|s| format!("{:?}", plan.action_for(1, 2, 0x100, s)))
            .collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn unarmed_plan_always_delivers() {
        let plan = FaultPlan::seeded(1);
        for s in 0..32 {
            assert_eq!(plan.action_for(0, 1, 5, s), FaultAction::Deliver);
        }
    }

    #[test]
    fn builtin_corruptor_flips_exactly_one_bit() {
        let plan = FaultPlan::seeded(0).corrupt_one_in(1);
        let orig = vec![0u32; 8];
        let mut v: Box<dyn Any> = Box::new(orig.clone());
        assert!(plan.corrupt_payload(v.as_mut(), 0xdead_beef_cafe_f00d));
        let got = v.downcast::<Vec<u32>>().unwrap();
        let flipped: u32 = got
            .iter()
            .zip(&orig)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn builtin_cloner_round_trips() {
        let v: Box<dyn Any + Send> = Box::new(vec![1u64, 2, 3]);
        let copy = payload::duplicate(v.as_ref()).expect("Vec<u64> is cloneable");
        assert_eq!(*copy.downcast::<Vec<u64>>().unwrap(), vec![1u64, 2, 3]);
        let foreign: Box<dyn Any + Send> = Box::new(String::from("nope"));
        assert!(payload::duplicate(foreign.as_ref()).is_none());
    }

    #[test]
    fn kill_bookkeeping() {
        let plan = FaultPlan::seeded(0)
            .kill_endpoint_after(2, 0)
            .kill_endpoint_after(3, 5);
        assert_eq!(plan.dead_on_arrival().collect::<Vec<_>>(), vec![2]);
        assert!(!plan.kill_triggered(3, 4));
        assert!(plan.kill_triggered(3, 5));
        assert!(!plan.kill_triggered(2, 9)); // after == 0 handled at construction
    }

    #[test]
    fn disconnect_window_phases() {
        let plan = FaultPlan::seeded(0).disconnect_endpoint_after(1, 3, 2);
        // Sends 1..=3 are before the window, 4..=5 inside, 6 heals.
        for ordinal in 1..=3 {
            assert_eq!(plan.disconnect_phase(1, ordinal), DisconnectPhase::Clear);
        }
        assert_eq!(
            plan.disconnect_phase(1, 4),
            DisconnectPhase::Dropping { entering: true }
        );
        assert_eq!(
            plan.disconnect_phase(1, 5),
            DisconnectPhase::Dropping { entering: false }
        );
        assert_eq!(plan.disconnect_phase(1, 6), DisconnectPhase::Healing);
        assert_eq!(plan.disconnect_phase(1, 7), DisconnectPhase::Clear);
        // Other endpoints are untouched.
        assert_eq!(plan.disconnect_phase(0, 4), DisconnectPhase::Clear);
    }

    #[test]
    fn fault_state_counters() {
        let st = FaultState::new(4);
        assert_eq!(st.count_send(1), 1);
        assert_eq!(st.count_send(1), 2);
        assert_eq!(st.next_link_seq(1, 2), 0);
        assert_eq!(st.next_link_seq(1, 2), 1);
        assert_eq!(st.next_link_seq(2, 1), 0);
    }
}

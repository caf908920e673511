//! The in-memory message fabric: per-rank mailboxes with MPI-style
//! `(source, tag)` matching, an optional transit-delay model, and
//! deterministic fault injection.
//!
//! Senders deposit messages directly into the destination mailbox and
//! continue (an eager/RDMA-like model); receivers block on a condition
//! variable until a matching message exists. Each message carries an
//! `available_at` timestamp computed from the α–β delay model, so a
//! receiver that arrives early sleeps out the remaining transit time —
//! that is what gives communication a real cost that pipelining (Fig. 6)
//! can hide.
//!
//! Failure semantics: every receive goes through [`Fabric::recv_on`],
//! which takes an optional deadline and returns a typed
//! [`CommError`](crate::CommError) instead of blocking forever. Endpoints
//! can die — by a [`FaultPlan`] kill trigger or because their thread
//! panicked — and `recv_on` reports `PeerDead` to anyone waiting on them.
//! An armed fault plan additionally drops, delays, duplicates, or
//! corrupts messages inside [`Fabric::send_boxed`], deterministically in
//! the message identity.
//!
//! The mailbox matcher ([`Mailbox`], [`recv_on_mailboxes`]) and the link
//! serialization clock ([`LinkClock`]) are shared with the
//! [`tcp`](crate::tcp) backend, which replaces only the wire underneath
//! them with real kernel sockets.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::error::CommError;
use crate::fault::{filter_send, FaultPlan, FaultState, SendDecision, SendVerdict};
use crate::transport::{Envelope, Transport};

/// Lock ignoring poisoning: the fabric must stay usable when a sibling
/// rank's thread panics mid-send (failure-injection tests rely on this,
/// and it matches the `parking_lot` semantics this module started with).
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Upper bound on one condvar park: bounded so a receiver re-checks the
/// peer's death flag and its deadline even if a wakeup is missed.
const WAIT_SLICE: Duration = Duration::from_millis(1);

thread_local! {
    static TRANSIT_WAIT_NANOS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Nanoseconds *this thread* has spent sleeping out modeled transit time
/// (the α–β delay between a message's deposit and its `available_at`).
///
/// Unlike the global `hear_transit_wait_nanos_total` counter this is
/// per-thread, which is what makes pipelining measurable without wall
/// clocks: a main thread whose receives are serviced by progress threads
/// accumulates zero transit wait, while a blocked-sync main thread eats
/// the full α per block.
pub fn thread_transit_wait_nanos() -> u64 {
    TRANSIT_WAIT_NANOS.with(|c| c.get())
}

fn record_transit_wait(wait: Duration) {
    let n = wait.as_nanos() as u64;
    TRANSIT_WAIT_NANOS.with(|c| c.set(c.get() + n));
    hear_telemetry::add(hear_telemetry::Metric::TransitWaitNanos, n);
}

/// Transit-cost model: `delay = alpha + beta_ns_per_byte × bytes`.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    pub alpha: Duration,
    pub beta_ns_per_byte: f64,
}

impl NetConfig {
    /// Zero-cost fabric (unit tests, functional runs).
    pub fn instant() -> Self {
        NetConfig {
            alpha: Duration::ZERO,
            beta_ns_per_byte: 0.0,
        }
    }

    /// A per-rank share of a saturated Aries NIC at full PPN, matching the
    /// paper's Fig. 6 setting: 0.347 GB/s/rank and a ~1.4 µs small-message
    /// latency.
    pub fn aries_per_rank() -> Self {
        NetConfig {
            alpha: Duration::from_nanos(1_400),
            // 0.347 GB/s  →  1 / 0.347 ≈ 2.88 ns per byte.
            beta_ns_per_byte: 1.0 / 0.347,
        }
    }

    pub fn delay_for(&self, bytes: usize) -> Duration {
        self.alpha + Duration::from_nanos((self.beta_ns_per_byte * bytes as f64) as u64)
    }

    pub fn is_instant(&self) -> bool {
        self.alpha.is_zero() && self.beta_ns_per_byte == 0.0
    }
}

/// Per-directed-link serialization clock for the α–β model: a message
/// starts its transit only after the previous message on the same
/// `(from, to)` link has fully left the wire, so concurrent sends share
/// the link's finite rate instead of overlapping for free. (Latency α
/// still pipelines across links.)
pub(crate) struct LinkClock {
    net: NetConfig,
    busy_until: Mutex<HashMap<(usize, usize), Instant>>,
}

impl LinkClock {
    pub fn new(net: NetConfig) -> Self {
        LinkClock {
            net,
            busy_until: Mutex::new(HashMap::new()),
        }
    }

    pub fn net(&self) -> &NetConfig {
        &self.net
    }

    /// When a `bytes`-sized message sent now on `from → to` becomes
    /// consumable, including any injected extra delay.
    pub fn available_at(&self, from: usize, to: usize, bytes: usize, extra: Duration) -> Instant {
        let now = Instant::now();
        if self.net.is_instant() {
            return now + extra;
        }
        let serialization = Duration::from_nanos((self.net.beta_ns_per_byte * bytes as f64) as u64);
        let mut links = lock_unpoisoned(&self.busy_until);
        let busy = links.entry((from, to)).or_insert(now);
        let start = (*busy).max(now);
        let done = start + serialization;
        *busy = done;
        done + self.net.alpha + extra
    }
}

#[derive(Default)]
struct MailboxState {
    // (source, tag) → FIFO of envelopes: MPI's non-overtaking rule per
    // matched pair.
    queues: HashMap<(usize, u64), VecDeque<Envelope>>,
}

impl MailboxState {
    /// Take the oldest envelope of `(source, tag)`. A drained queue is
    /// removed with it: collective tags are unique per call, so an empty
    /// queue left behind is never used again and the map would grow by one
    /// entry per call for the life of the world.
    fn pop_match(&mut self, source: usize, tag: u64) -> Option<Envelope> {
        let queue = self.queues.get_mut(&(source, tag))?;
        let env = queue.pop_front();
        if queue.is_empty() {
            self.queues.remove(&(source, tag));
        }
        env
    }

    fn push_front(&mut self, source: usize, tag: u64, env: Envelope) {
        self.queues
            .entry((source, tag))
            .or_default()
            .push_front(env);
    }
}

/// One rank's inbound mailbox: MPMC with `(source, tag)` matching.
#[derive(Default)]
pub(crate) struct Mailbox {
    state: Mutex<MailboxState>,
    signal: Condvar,
}

impl Mailbox {
    pub fn deposit(&self, source: usize, tag: u64, env: Envelope) {
        let mut st = lock_unpoisoned(&self.state);
        st.queues.entry((source, tag)).or_default().push_back(env);
        self.signal.notify_all();
    }

    /// Wake every parked receiver (used when an endpoint dies, so waits
    /// re-check death flags instead of sleeping out their slice).
    pub fn wake(&self) {
        self.signal.notify_all();
    }

    /// Number of `(source, tag)` queues currently held (each non-empty).
    pub fn pending_queues(&self) -> usize {
        lock_unpoisoned(&self.state).queues.len()
    }

    /// Block until a message matching `(source, tag)` is present, then take
    /// it, sleeping out any remaining modeled transit time.
    ///
    /// Production receives go through [`Fabric::recv_on`] (deadline- and
    /// death-aware); this infallible form survives for mailbox unit tests.
    #[cfg(test)]
    pub fn take(&self, source: usize, tag: u64) -> Envelope {
        let mut early = None;
        for _ in 0..128 {
            if let Some(env) = lock_unpoisoned(&self.state).pop_match(source, tag) {
                early = Some(env);
                break;
            }
            std::thread::yield_now();
        }
        let env = early.unwrap_or_else(|| {
            let mut st = lock_unpoisoned(&self.state);
            loop {
                if let Some(env) = st.pop_match(source, tag) {
                    break env;
                }
                st = self.signal.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        });
        let now = Instant::now();
        if env.available_at > now {
            std::thread::sleep(env.available_at - now);
        }
        env
    }

    /// Non-blocking probe.
    #[cfg(test)]
    pub fn try_take(&self, source: usize, tag: u64) -> Option<Envelope> {
        let env = lock_unpoisoned(&self.state).pop_match(source, tag)?;
        let now = Instant::now();
        if env.available_at > now {
            std::thread::sleep(env.available_at - now);
        }
        Some(env)
    }
}

/// The backend-independent receive loop over a mailbox array: bounded
/// spin, then bounded condvar parks, with the check order every pass being
/// matching message → `source` dead → `me` dead → deadline expired.
///
/// Arrival is polled with a bounded spin (yielding the core each miss)
/// before parking: the pipelined allreduce path counts on that fast wake
/// for back-to-back block handoffs. Parks are bounded `wait_timeout`
/// slices so a missed wakeup (or a kill racing the dead-flag check)
/// delays the verdict by at most [`WAIT_SLICE`].
///
/// A message still in modeled transit past the deadline is pushed back to
/// the *front* of its queue (preserving FIFO) and reported as `Timeout` —
/// the message is late, not lost.
///
/// `is_suspect` reports whether an endpoint's link is in a known
/// transient-disconnect window (a fault plan's injected window, or a TCP
/// write stalled on a full socket buffer): a deadline that expires with no
/// message *and* a suspect source is reported as `Disconnected` — the
/// retryable "resend once the link heals" verdict — instead of a bare
/// `Timeout`.
pub(crate) fn recv_on_mailboxes(
    mailboxes: &[Mailbox],
    is_dead: &dyn Fn(usize) -> bool,
    is_suspect: &dyn Fn(usize) -> bool,
    me: usize,
    source: usize,
    tag: u64,
    deadline: Option<Instant>,
) -> Result<Envelope, CommError> {
    let started = Instant::now();
    let mb = &mailboxes[me];
    let mut early = None;
    for _ in 0..128 {
        if let Some(env) = lock_unpoisoned(&mb.state).pop_match(source, tag) {
            early = Some(env);
            break;
        }
        std::thread::yield_now();
    }
    if early.is_some() {
        hear_telemetry::incr(hear_telemetry::Metric::MailboxSpinHits);
    }
    let env = match early {
        Some(env) => env,
        None => {
            hear_telemetry::incr(hear_telemetry::Metric::MailboxParks);
            let mut st = lock_unpoisoned(&mb.state);
            loop {
                if let Some(env) = st.pop_match(source, tag) {
                    break env;
                }
                if is_dead(source) {
                    return Err(CommError::PeerDead { peer: source });
                }
                if is_dead(me) {
                    return Err(CommError::PeerDead { peer: me });
                }
                let now = Instant::now();
                let slice = match deadline {
                    Some(dl) if now >= dl => {
                        if is_suspect(source) {
                            return Err(CommError::Disconnected { peer: source });
                        }
                        return Err(CommError::Timeout {
                            source,
                            tag,
                            waited: started.elapsed(),
                        });
                    }
                    Some(dl) => (dl - now).min(WAIT_SLICE),
                    None => WAIT_SLICE,
                };
                let (guard, _timeout) = mb
                    .signal
                    .wait_timeout(st, slice)
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
            }
        }
    };
    let now = Instant::now();
    if env.available_at > now {
        if let Some(dl) = deadline {
            if env.available_at > dl {
                lock_unpoisoned(&mb.state).push_front(source, tag, env);
                return Err(CommError::Timeout {
                    source,
                    tag,
                    waited: started.elapsed(),
                });
            }
        }
        let wait = env.available_at - now;
        record_transit_wait(wait);
        std::thread::sleep(wait);
    }
    Ok(env)
}

/// Count one delivered message in the calling thread's telemetry registry
/// (shared by every transport backend so dashboards do not care which
/// wire moved the bytes). Both backends call it on the *sending* thread.
pub(crate) fn count_delivery(bytes: usize) {
    hear_telemetry::incr(hear_telemetry::Metric::FabricMsgs);
    hear_telemetry::add(hear_telemetry::Metric::FabricBytes, bytes as u64);
    hear_telemetry::observe(hear_telemetry::Hist::FabricMsgBytes, bytes as u64);
}

/// The shared in-memory fabric: one mailbox per endpoint (ranks first,
/// then any in-network switch nodes), the delay model, per-endpoint death
/// flags, and an optional fault plan.
pub(crate) struct Fabric {
    pub mailboxes: Vec<Mailbox>,
    clock: LinkClock,
    dead: Vec<AtomicBool>,
    /// Endpoints currently inside a transient-disconnect window: their
    /// sends are being dropped but they are expected back, so receivers
    /// report `Disconnected` (retryable) rather than `Timeout`.
    suspect: Vec<AtomicBool>,
    faults: Option<(FaultPlan, FaultState)>,
}

impl Fabric {
    #[cfg(test)]
    pub fn new(endpoints: usize, net: NetConfig) -> Self {
        Fabric::with_faults(endpoints, net, None)
    }

    pub fn with_faults(endpoints: usize, net: NetConfig, faults: Option<FaultPlan>) -> Self {
        let dead: Vec<AtomicBool> = (0..endpoints).map(|_| AtomicBool::new(false)).collect();
        if let Some(plan) = &faults {
            for ep in plan.dead_on_arrival() {
                dead[ep].store(true, Ordering::SeqCst);
            }
        }
        Fabric {
            mailboxes: (0..endpoints).map(|_| Mailbox::default()).collect(),
            clock: LinkClock::new(net),
            dead,
            suspect: (0..endpoints).map(|_| AtomicBool::new(false)).collect(),
            faults: faults.map(|p| {
                let st = FaultState::new(endpoints);
                (p, st)
            }),
        }
    }

    pub fn is_dead(&self, endpoint: usize) -> bool {
        self.dead[endpoint].load(Ordering::SeqCst)
    }

    pub fn is_suspect(&self, endpoint: usize) -> bool {
        self.suspect[endpoint].load(Ordering::SeqCst)
    }

    /// Mark `endpoint` dead and wake every parked receiver so waits on it
    /// resolve to `PeerDead` instead of hanging. Idempotent. Used both by
    /// fault-plan kill triggers and by the simulator when a rank thread
    /// panics.
    pub fn kill(&self, endpoint: usize) {
        if !self.dead[endpoint].swap(true, Ordering::SeqCst) {
            for mb in &self.mailboxes {
                mb.wake();
            }
        }
    }

    fn kill_injected(&self, endpoint: usize) {
        hear_telemetry::incr(hear_telemetry::Metric::FaultKill);
        self.kill(endpoint);
    }

    pub fn send_boxed(
        &self,
        from: usize,
        to: usize,
        tag: u64,
        mut payload: Box<dyn Any + Send>,
        bytes: usize,
    ) {
        if self.is_dead(from) {
            return; // a dead endpoint emits nothing
        }
        let SendVerdict {
            decision,
            kill_after,
            suspect,
        } = filter_send(
            self.faults.as_ref(),
            self.is_dead(to),
            from,
            to,
            tag,
            &mut payload,
        );
        if let Some(flag) = suspect {
            self.suspect[from].store(flag, Ordering::SeqCst);
            if !flag {
                // The window closed: wake parked receivers so they stop
                // reporting `Disconnected` for a healed link.
                for mb in &self.mailboxes {
                    mb.wake();
                }
            }
        }
        if let SendDecision::Deliver { dup, extra_delay } = decision {
            if let Some(copy) = dup {
                self.deliver(from, to, tag, copy, bytes, Duration::ZERO);
            }
            self.deliver(from, to, tag, payload, bytes, extra_delay);
        }
        if kill_after {
            self.kill_injected(from);
        }
    }

    fn deliver(
        &self,
        from: usize,
        to: usize,
        tag: u64,
        payload: Box<dyn Any + Send>,
        bytes: usize,
        extra_delay: Duration,
    ) {
        count_delivery(bytes);
        let available_at = self.clock.available_at(from, to, bytes, extra_delay);
        self.mailboxes[to].deposit(
            from,
            tag,
            Envelope {
                payload,
                available_at,
            },
        );
    }

    /// Receive on endpoint `me` a message matching `(source, tag)`,
    /// optionally bounded by a deadline. See [`recv_on_mailboxes`] for
    /// the matching and failure semantics.
    pub fn recv_on(
        &self,
        me: usize,
        source: usize,
        tag: u64,
        deadline: Option<Instant>,
    ) -> Result<Envelope, CommError> {
        recv_on_mailboxes(
            &self.mailboxes,
            &|ep| self.is_dead(ep),
            &|ep| self.is_suspect(ep),
            me,
            source,
            tag,
            deadline,
        )
    }
}

impl Transport for Fabric {
    fn endpoints(&self) -> usize {
        self.mailboxes.len()
    }

    fn send_boxed(
        &self,
        from: usize,
        to: usize,
        tag: u64,
        payload: Box<dyn Any + Send>,
        bytes: usize,
    ) {
        Fabric::send_boxed(self, from, to, tag, payload, bytes);
    }

    fn recv_on(
        &self,
        me: usize,
        source: usize,
        tag: u64,
        deadline: Option<Instant>,
    ) -> Result<Envelope, CommError> {
        Fabric::recv_on(self, me, source, tag, deadline)
    }

    fn pending_queues(&self, endpoint: usize) -> usize {
        self.mailboxes[endpoint].pending_queues()
    }

    fn is_dead(&self, endpoint: usize) -> bool {
        Fabric::is_dead(self, endpoint)
    }

    fn kill(&self, endpoint: usize) {
        Fabric::kill(self, endpoint);
    }

    fn rtt_estimate(&self) -> Duration {
        // A round trip through two mailboxes is two condvar wakes plus
        // twice the modeled α; the floor covers scheduler wake latency.
        (self.clock.net().alpha * 2).max(Duration::from_micros(50))
    }

    fn name(&self) -> &'static str {
        "mem"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deposit_take_roundtrip() {
        let mb = Mailbox::default();
        mb.deposit(
            3,
            7,
            Envelope {
                payload: Box::new(vec![1u32, 2]),
                available_at: Instant::now(),
            },
        );
        let env = mb.take(3, 7);
        let v = env.payload.downcast::<Vec<u32>>().unwrap();
        assert_eq!(*v, vec![1, 2]);
    }

    #[test]
    fn tag_matching_is_selective() {
        let mb = Mailbox::default();
        let now = Instant::now();
        mb.deposit(
            0,
            1,
            Envelope {
                payload: Box::new(10u8),
                available_at: now,
            },
        );
        mb.deposit(
            0,
            2,
            Envelope {
                payload: Box::new(20u8),
                available_at: now,
            },
        );
        assert!(mb.try_take(0, 3).is_none());
        assert_eq!(*mb.take(0, 2).payload.downcast::<u8>().unwrap(), 20);
        assert_eq!(*mb.take(0, 1).payload.downcast::<u8>().unwrap(), 10);
    }

    /// Collective tags are unique per call: a drained `(source, tag)`
    /// queue must leave nothing behind, or the mailbox grows for the life
    /// of the world.
    #[test]
    fn drained_queues_leave_no_entry_behind() {
        let fab = Fabric::new(2, NetConfig::instant());
        for tag in 0..10_000u64 {
            fab.send_boxed(0, 1, tag, Box::new(tag), 8);
            let env = fab.recv_on(1, 0, tag, None).unwrap();
            assert_eq!(*env.payload.downcast::<u64>().unwrap(), tag);
        }
        assert_eq!(fab.mailboxes[1].pending_queues(), 0);
        // A late message pushed back to the front re-creates its queue.
        let late = NetConfig {
            alpha: Duration::from_millis(40),
            beta_ns_per_byte: 0.0,
        };
        let fab = Fabric::new(2, late);
        fab.send_boxed(0, 1, 7, Box::new(1u8), 1);
        let soon = Instant::now() + Duration::from_millis(2);
        assert!(fab.recv_on(1, 0, 7, Some(soon)).is_err());
        assert_eq!(fab.mailboxes[1].pending_queues(), 1);
        fab.recv_on(1, 0, 7, None).unwrap();
        assert_eq!(fab.mailboxes[1].pending_queues(), 0);
    }

    #[test]
    fn fifo_per_matched_pair() {
        let mb = Mailbox::default();
        let now = Instant::now();
        for i in 0..5u8 {
            mb.deposit(
                1,
                9,
                Envelope {
                    payload: Box::new(i),
                    available_at: now,
                },
            );
        }
        for i in 0..5u8 {
            assert_eq!(*mb.take(1, 9).payload.downcast::<u8>().unwrap(), i);
        }
    }

    #[test]
    fn blocking_take_wakes_on_deposit() {
        let mb = std::sync::Arc::new(Mailbox::default());
        let mb2 = mb.clone();
        let h = std::thread::spawn(move || *mb2.take(0, 0).payload.downcast::<u64>().unwrap());
        std::thread::sleep(Duration::from_millis(20));
        mb.deposit(
            0,
            0,
            Envelope {
                payload: Box::new(42u64),
                available_at: Instant::now(),
            },
        );
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn delay_model_enforced_on_take() {
        let net = NetConfig {
            alpha: Duration::from_millis(30),
            beta_ns_per_byte: 0.0,
        };
        let fab = Fabric::new(2, net);
        let t0 = Instant::now();
        fab.send_boxed(0, 1, 0, Box::new(1u8), 1);
        let _ = fab.mailboxes[1].take(0, 0);
        assert!(
            t0.elapsed() >= Duration::from_millis(28),
            "elapsed {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn delay_formula() {
        let net = NetConfig {
            alpha: Duration::from_nanos(1000),
            beta_ns_per_byte: 2.0,
        };
        assert_eq!(net.delay_for(500), Duration::from_nanos(2000));
        assert!(NetConfig::instant().is_instant());
        assert!(!NetConfig::aries_per_rank().is_instant());
    }

    #[test]
    fn recv_on_times_out_with_typed_error() {
        let fab = Fabric::new(2, NetConfig::instant());
        let deadline = Instant::now() + Duration::from_millis(10);
        let err = fab.recv_on(1, 0, 7, Some(deadline)).unwrap_err();
        assert!(
            matches!(
                err,
                CommError::Timeout {
                    source: 0,
                    tag: 7,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn recv_on_reports_dead_peer_even_mid_wait() {
        let fab = std::sync::Arc::new(Fabric::new(2, NetConfig::instant()));
        let fab2 = fab.clone();
        let h = std::thread::spawn(move || fab2.recv_on(1, 0, 0, None));
        std::thread::sleep(Duration::from_millis(10));
        fab.kill(0);
        let err = h.join().unwrap().unwrap_err();
        assert_eq!(err, CommError::PeerDead { peer: 0 });
    }

    #[test]
    fn recv_on_delivers_queued_message_from_dead_peer() {
        // A message already on the wire when the sender dies still arrives.
        let fab = Fabric::new(2, NetConfig::instant());
        fab.send_boxed(0, 1, 3, Box::new(5u8), 1);
        fab.kill(0);
        let env = fab.recv_on(1, 0, 3, None).unwrap();
        assert_eq!(*env.payload.downcast::<u8>().unwrap(), 5);
    }

    #[test]
    fn in_transit_past_deadline_is_late_not_lost() {
        let net = NetConfig {
            alpha: Duration::from_millis(50),
            beta_ns_per_byte: 0.0,
        };
        let fab = Fabric::new(2, net);
        fab.send_boxed(0, 1, 0, Box::new(9u8), 1);
        let err = fab
            .recv_on(1, 0, 0, Some(Instant::now() + Duration::from_millis(5)))
            .unwrap_err();
        assert!(matches!(err, CommError::Timeout { .. }));
        // Without a deadline the same message is delivered intact.
        let env = fab.recv_on(1, 0, 0, None).unwrap();
        assert_eq!(*env.payload.downcast::<u8>().unwrap(), 9);
    }

    #[test]
    fn transit_wait_is_accounted_per_thread() {
        let net = NetConfig {
            alpha: Duration::from_millis(20),
            beta_ns_per_byte: 0.0,
        };
        let fab = std::sync::Arc::new(Fabric::new(2, net));
        fab.send_boxed(0, 1, 0, Box::new(1u8), 1);
        let fab2 = fab.clone();
        let waited_in_thread = std::thread::spawn(move || {
            let before = thread_transit_wait_nanos();
            fab2.recv_on(1, 0, 0, None).unwrap();
            thread_transit_wait_nanos() - before
        })
        .join()
        .unwrap();
        assert!(
            waited_in_thread >= 10_000_000,
            "waited {waited_in_thread}ns"
        );
    }

    #[test]
    fn plan_drop_suppresses_delivery() {
        let plan = FaultPlan::seeded(1).drop_one_in(1); // drop everything
        let fab = Fabric::with_faults(2, NetConfig::instant(), Some(plan));
        fab.send_boxed(0, 1, 0, Box::new(vec![1u32]), 4);
        let err = fab
            .recv_on(1, 0, 0, Some(Instant::now() + Duration::from_millis(10)))
            .unwrap_err();
        assert!(matches!(err, CommError::Timeout { .. }));
    }

    #[test]
    fn plan_duplicate_delivers_twice() {
        let plan = FaultPlan::seeded(1).duplicate_one_in(1);
        let fab = Fabric::with_faults(2, NetConfig::instant(), Some(plan));
        fab.send_boxed(0, 1, 0, Box::new(vec![7u32]), 4);
        for _ in 0..2 {
            let env = fab.recv_on(1, 0, 0, None).unwrap();
            assert_eq!(*env.payload.downcast::<Vec<u32>>().unwrap(), vec![7]);
        }
    }

    #[test]
    fn plan_corrupt_flips_payload() {
        let plan = FaultPlan::seeded(1).corrupt_one_in(1);
        let fab = Fabric::with_faults(2, NetConfig::instant(), Some(plan));
        fab.send_boxed(0, 1, 0, Box::new(vec![0u32; 4]), 16);
        let env = fab.recv_on(1, 0, 0, None).unwrap();
        let got = env.payload.downcast::<Vec<u32>>().unwrap();
        let flipped: u32 = got.iter().map(|w| w.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped: {got:?}");
    }

    #[test]
    fn kill_after_n_sends_completes_the_nth() {
        let plan = FaultPlan::seeded(1).kill_endpoint_after(0, 2);
        let fab = Fabric::with_faults(2, NetConfig::instant(), Some(plan));
        fab.send_boxed(0, 1, 0, Box::new(1u8), 1);
        fab.send_boxed(0, 1, 0, Box::new(2u8), 1); // completes, then kills 0
        fab.send_boxed(0, 1, 0, Box::new(3u8), 1); // from a corpse: dropped
        assert_eq!(
            *fab.recv_on(1, 0, 0, None)
                .unwrap()
                .payload
                .downcast::<u8>()
                .unwrap(),
            1
        );
        assert_eq!(
            *fab.recv_on(1, 0, 0, None)
                .unwrap()
                .payload
                .downcast::<u8>()
                .unwrap(),
            2
        );
        assert!(fab.is_dead(0));
        let err = fab
            .recv_on(1, 0, 0, Some(Instant::now() + Duration::from_millis(5)))
            .unwrap_err();
        assert_eq!(err, CommError::PeerDead { peer: 0 });
    }

    #[test]
    fn disconnect_window_is_transient_and_typed() {
        // Endpoint 0's second and third sends fall into a disconnect
        // window: they vanish, waiters see the retryable `Disconnected`,
        // and the fourth send heals the link.
        let plan = FaultPlan::seeded(1).disconnect_endpoint_after(0, 1, 2);
        let fab = Fabric::with_faults(2, NetConfig::instant(), Some(plan));
        fab.send_boxed(0, 1, 0, Box::new(1u8), 1);
        assert_eq!(
            *fab.recv_on(1, 0, 0, None)
                .unwrap()
                .payload
                .downcast::<u8>()
                .unwrap(),
            1
        );
        fab.send_boxed(0, 1, 0, Box::new(2u8), 1); // dropped, suspect on
        assert!(fab.is_suspect(0));
        let err = fab
            .recv_on(1, 0, 0, Some(Instant::now() + Duration::from_millis(5)))
            .unwrap_err();
        assert_eq!(err, CommError::Disconnected { peer: 0 });
        assert!(err.is_retryable());
        fab.send_boxed(0, 1, 0, Box::new(3u8), 1); // dropped (in window)
        fab.send_boxed(0, 1, 0, Box::new(4u8), 1); // heals + delivers
        assert!(!fab.is_suspect(0));
        assert!(!fab.is_dead(0), "a disconnect is not a death");
        assert_eq!(
            *fab.recv_on(1, 0, 0, None)
                .unwrap()
                .payload
                .downcast::<u8>()
                .unwrap(),
            4
        );
    }

    #[test]
    fn dead_on_arrival_endpoint_never_speaks() {
        let plan = FaultPlan::seeded(1).kill_endpoint_after(0, 0);
        let fab = Fabric::with_faults(2, NetConfig::instant(), Some(plan));
        assert!(fab.is_dead(0));
        fab.send_boxed(0, 1, 0, Box::new(1u8), 1);
        let err = fab.recv_on(1, 0, 0, None).unwrap_err();
        assert_eq!(err, CommError::PeerDead { peer: 0 });
    }

    #[test]
    fn fabric_transport_rtt_floor() {
        let fab = Fabric::new(2, NetConfig::instant());
        let t: &dyn Transport = &fab;
        assert!(t.rtt_estimate() >= Duration::from_micros(50));
        assert_eq!(t.name(), "mem");
        assert_eq!(t.endpoints(), 2);
        let slow = Fabric::new(
            2,
            NetConfig {
                alpha: Duration::from_millis(10),
                beta_ns_per_byte: 0.0,
            },
        );
        assert_eq!(
            Transport::rtt_estimate(&slow),
            Duration::from_millis(20),
            "modeled α dominates the floor"
        );
    }
}

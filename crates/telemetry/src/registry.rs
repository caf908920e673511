//! The metric/span registry and the per-thread recording context.
//!
//! A [`Registry`] owns enum-indexed atomic counter/gauge/histogram arrays
//! plus a list of *lanes* — per-thread span ring buffers, each tagged with
//! the MPI rank that produced it. There is one process-wide
//! [`Registry::global()`] (enabled at first use iff `HEAR_TRACE` is set),
//! and tests or Fig. 4's regenerator can create private registries for
//! isolated, exact-count measurements.
//!
//! Recording goes through a thread-local context stack: `install(rank)`
//! pushes a (registry, lane) pair for the current thread and returns a
//! guard that pops it. Worker threads spawned by the simulator, the
//! nonblocking progress engine and the switch service re-install the
//! parent's context via [`spawn_context`] so spans land in the lane of the
//! logical rank, not of some anonymous OS thread.
//!
//! The disabled fast path is a single branch on the relaxed atomic
//! [`active()`]: when no registry in the process is enabled, `span!` and
//! every counter helper return before touching any thread-local state.

use crate::metrics::{Gauge, Hist, HistCell, Metric};
use crate::span::SpanEvent;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Count of currently-enabled registries in the process. The record fast
/// path is `load(Relaxed) != 0`; with tracing off this is the *only* work
/// the instrumentation does.
static ACTIVE_REGISTRIES: AtomicUsize = AtomicUsize::new(0);

/// True iff at least one registry in the process is enabled. This is the
/// branch the disabled record path reduces to.
#[inline]
pub fn active() -> bool {
    ACTIVE_REGISTRIES.load(Ordering::Relaxed) != 0
}

/// Mutex locking that shrugs off poisoning — a panicking rank thread must
/// not wedge telemetry for the surviving ranks (same policy as hear-mpi).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Default per-lane span ring capacity (overridable via `HEAR_TRACE_BUF`).
const DEFAULT_RING_CAP: usize = 1 << 16;

pub(crate) struct LaneBuf {
    ring: VecDeque<SpanEvent>,
    cap: usize,
    dropped: u64,
}

/// One span ring buffer, owned by (at most) one recording thread at a time
/// and tagged with the rank it represents (`None` for untracked threads,
/// e.g. the main thread or the switch service).
pub(crate) struct Lane {
    pub(crate) rank: Option<usize>,
    buf: Mutex<LaneBuf>,
}

impl Lane {
    fn new(rank: Option<usize>, cap: usize) -> Self {
        Lane {
            rank,
            buf: Mutex::new(LaneBuf {
                ring: VecDeque::new(),
                cap,
                dropped: 0,
            }),
        }
    }

    /// Push an event, evicting the oldest when the ring is full. The lock
    /// is normally uncontended (one writer thread per lane; readers only
    /// at export time), so this is cheap.
    pub(crate) fn push(&self, ev: SpanEvent) {
        let mut b = lock_unpoisoned(&self.buf);
        if b.ring.len() >= b.cap {
            b.ring.pop_front();
            b.dropped += 1;
        }
        b.ring.push_back(ev);
    }
}

pub(crate) struct Inner {
    enabled: AtomicBool,
    epoch: Instant,
    ring_cap: usize,
    lanes: Mutex<Vec<Arc<Lane>>>,
    counters: [AtomicU64; Metric::COUNT],
    gauges: [AtomicI64; Gauge::COUNT],
    hists: [HistCell; Hist::COUNT],
}

impl Drop for Inner {
    fn drop(&mut self) {
        if *self.enabled.get_mut() {
            ACTIVE_REGISTRIES.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Handle to a span/metric store. Cloning is cheap (`Arc`); clones share
/// the same store.
#[derive(Clone)]
pub struct Registry {
    pub(crate) inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    fn new_with(enabled: bool, ring_cap: usize) -> Registry {
        if enabled {
            ACTIVE_REGISTRIES.fetch_add(1, Ordering::SeqCst);
        }
        Registry {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(enabled),
                epoch: Instant::now(),
                ring_cap,
                lanes: Mutex::new(Vec::new()),
                counters: [const { AtomicU64::new(0) }; Metric::COUNT],
                gauges: [const { AtomicI64::new(0) }; Gauge::COUNT],
                hists: [const { HistCell::new() }; Hist::COUNT],
            }),
        }
    }

    /// A fresh, disabled registry.
    pub fn new() -> Registry {
        Registry::new_with(false, DEFAULT_RING_CAP)
    }

    /// A fresh, enabled registry — the usual choice for isolated
    /// measurements (private exact-count tests, Fig. 4's phase fold).
    pub fn new_enabled() -> Registry {
        Registry::new_with(true, DEFAULT_RING_CAP)
    }

    /// The process-wide registry. Enabled at first use iff `HEAR_TRACE`
    /// is set (to anything but `0`/empty); flip later with
    /// [`Registry::set_enabled`].
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cap = std::env::var("HEAR_TRACE_BUF")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&c| c > 0)
                .unwrap_or(DEFAULT_RING_CAP);
            Registry::new_with(crate::env_enabled(), cap)
        })
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable recording into this registry, keeping the global
    /// fast-path count in sync.
    pub fn set_enabled(&self, on: bool) {
        let was = self.inner.enabled.swap(on, Ordering::SeqCst);
        if on && !was {
            ACTIVE_REGISTRIES.fetch_add(1, Ordering::SeqCst);
        } else if !on && was {
            ACTIVE_REGISTRIES.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Instant all span timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.inner.epoch
    }

    /// Make this registry the recording target for the current thread,
    /// writing spans into a fresh lane attributed to `rank`. Returns a
    /// guard; recording reverts to the previous target when it drops.
    /// Contexts nest (innermost wins), which is how Fig. 4's regenerator
    /// captures an isolated span stream even under global tracing.
    pub fn install(&self, rank: Option<usize>) -> CtxGuard {
        let lane = Arc::new(Lane::new(rank, self.inner.ring_cap));
        lock_unpoisoned(&self.inner.lanes).push(lane.clone());
        CTX.with(|c| {
            c.borrow_mut().push(ThreadCtx {
                inner: self.inner.clone(),
                lane,
                epoch: self.inner.epoch,
                depth: 0,
            })
        });
        CtxGuard {
            _not_send: PhantomData,
        }
    }

    pub fn counter(&self, m: Metric) -> u64 {
        self.inner.counters[m as usize].load(Ordering::Relaxed)
    }

    pub fn gauge(&self, g: Gauge) -> i64 {
        self.inner.gauges[g as usize].load(Ordering::Relaxed)
    }

    /// `(count, sum)` of a histogram.
    pub fn hist_totals(&self, h: Hist) -> (u64, u64) {
        self.inner.hists[h as usize].totals()
    }

    /// Count in finite bucket `i` (observations `<= 2^i`).
    pub fn hist_bucket(&self, h: Hist, i: usize) -> u64 {
        self.inner.hists[h as usize].bucket(i)
    }

    /// Span events dropped to ring-buffer eviction, across all lanes.
    pub fn dropped_events(&self) -> u64 {
        lock_unpoisoned(&self.inner.lanes)
            .iter()
            .map(|l| lock_unpoisoned(&l.buf).dropped)
            .sum()
    }

    /// All recorded span events, merged across lanes and sorted by start
    /// time. Non-destructive.
    pub fn span_events(&self) -> Vec<SpanEvent> {
        let lanes = lock_unpoisoned(&self.inner.lanes);
        let mut evs: Vec<SpanEvent> = lanes
            .iter()
            .flat_map(|l| {
                lock_unpoisoned(&l.buf)
                    .ring
                    .iter()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        evs.sort_by_key(|e| e.start_ns);
        evs
    }

    /// Remove and return all recorded span events (merged, sorted by start
    /// time). Lets long loops consume the stream incrementally instead of
    /// overflowing the rings.
    pub fn drain_span_events(&self) -> Vec<SpanEvent> {
        let lanes = lock_unpoisoned(&self.inner.lanes);
        let mut evs: Vec<SpanEvent> = Vec::new();
        for l in lanes.iter() {
            let mut b = lock_unpoisoned(&l.buf);
            evs.extend(b.ring.drain(..));
        }
        evs.sort_by_key(|e| e.start_ns);
        evs
    }

    /// Ranks that own at least one lane (sorted, deduplicated).
    pub fn lane_ranks(&self) -> Vec<Option<usize>> {
        let mut ranks: Vec<Option<usize>> = lock_unpoisoned(&self.inner.lanes)
            .iter()
            .map(|l| l.rank)
            .collect();
        ranks.sort();
        ranks.dedup();
        ranks
    }
}

pub(crate) struct ThreadCtx {
    pub(crate) inner: Arc<Inner>,
    pub(crate) lane: Arc<Lane>,
    pub(crate) epoch: Instant,
    pub(crate) depth: u32,
}

thread_local! {
    pub(crate) static CTX: RefCell<Vec<ThreadCtx>> = const { RefCell::new(Vec::new()) };
}

/// Guard returned by [`Registry::install`]; pops the thread's recording
/// context when dropped. `!Send` — must drop on the installing thread.
pub struct CtxGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Run `f` against the store that should receive a counter/gauge/histogram
/// record from this thread, if any: the innermost installed context wins
/// (even over the global registry — that shadowing is what gives private
/// registries exact counts); otherwise the enabled global registry.
#[inline]
pub(crate) fn with_record_target<R>(f: impl FnOnce(&Inner) -> R) -> Option<R> {
    CTX.with(|c| {
        if let Some(top) = c.borrow().last() {
            if top.inner.enabled.load(Ordering::Relaxed) {
                return Some(f(&top.inner));
            }
            return None;
        }
        let g = Registry::global();
        if g.inner.enabled.load(Ordering::Relaxed) {
            Some(f(&g.inner))
        } else {
            None
        }
    })
}

/// Ensure the current thread has a recording context (auto-installing a
/// rankless lane on the global registry if needed) and run `f` on it.
/// Used by the span path, which needs a lane, not just counters.
pub(crate) fn with_span_ctx<R>(f: impl FnOnce(&mut ThreadCtx) -> R) -> Option<R> {
    CTX.with(|c| {
        let mut stack = c.borrow_mut();
        if stack.is_empty() {
            let g = Registry::global();
            if !g.inner.enabled.load(Ordering::Relaxed) {
                return None;
            }
            // Base context for an untracked thread: lives for the whole
            // thread (never popped), lane rank None.
            let lane = Arc::new(Lane::new(None, g.inner.ring_cap));
            lock_unpoisoned(&g.inner.lanes).push(lane.clone());
            stack.push(ThreadCtx {
                inner: g.inner.clone(),
                lane,
                epoch: g.inner.epoch,
                depth: 0,
            });
        }
        let top = stack.last_mut().expect("just ensured non-empty");
        if !top.inner.enabled.load(Ordering::Relaxed) {
            return None;
        }
        Some(f(top))
    })
}

/// Decrement the span-depth counter if `lane` is still the thread's
/// current lane (guards against non-LIFO guard drops across contexts).
pub(crate) fn depth_dec(lane: &Arc<Lane>) {
    CTX.with(|c| {
        if let Some(top) = c.borrow_mut().last_mut() {
            if Arc::ptr_eq(&top.lane, lane) && top.depth > 0 {
                top.depth -= 1;
            }
        }
    });
}

/// Add `n` to counter `m` on the thread's record target. With tracing
/// disabled this is one relaxed load and a branch.
#[inline]
pub fn add(m: Metric, n: u64) {
    if !active() {
        return;
    }
    record_add(m, n);
}

fn record_add(m: Metric, n: u64) {
    with_record_target(|inn| {
        inn.counters[m as usize].fetch_add(n, Ordering::Relaxed);
    });
}

/// Increment counter `m` by one.
#[inline]
pub fn incr(m: Metric) {
    add(m, 1);
}

/// Move gauge `g` by `delta` (may be negative).
#[inline]
pub fn gauge_add(g: Gauge, delta: i64) {
    if !active() {
        return;
    }
    with_record_target(|inn| {
        inn.gauges[g as usize].fetch_add(delta, Ordering::Relaxed);
    });
}

/// Set gauge `g` to `v`.
#[inline]
pub fn gauge_set(g: Gauge, v: i64) {
    if !active() {
        return;
    }
    with_record_target(|inn| {
        inn.gauges[g as usize].store(v, Ordering::Relaxed);
    });
}

/// Record one observation `v` into histogram `h`.
#[inline]
pub fn observe(h: Hist, v: u64) {
    if !active() {
        return;
    }
    with_record_target(|inn| {
        inn.hists[h as usize].observe(v);
    });
}

/// The (registry, rank) a worker thread spawned from this thread should
/// inherit, or `None` when nothing is recording. Spawn sites capture this
/// before `thread::spawn` and `install` it inside the new thread so spans
/// stay attributed to the logical rank.
pub fn spawn_context() -> Option<(Registry, Option<usize>)> {
    CTX.with(|c| {
        if let Some(top) = c.borrow().last() {
            if top.inner.enabled.load(Ordering::Relaxed) {
                return Some((
                    Registry {
                        inner: top.inner.clone(),
                    },
                    top.lane.rank,
                ));
            }
            return None;
        }
        let g = Registry::global();
        if g.is_enabled() {
            Some((g.clone(), None))
        } else {
            None
        }
    })
}

/// Serialises the unit tests that enable a registry. [`active()`] reads a
/// process-wide count, so a test asserting on it must not overlap another
/// test holding an enabled registry. Take it first in the test, so it is
/// released after the test's registries are dropped.
#[cfg(test)]
pub(crate) fn serial_enabled() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    lock_unpoisoned(&LOCK)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggles_active() {
        let _serial = serial_enabled();
        let before = active();
        let r = Registry::new();
        assert!(!r.is_enabled());
        r.set_enabled(true);
        assert!(active());
        r.set_enabled(false);
        assert_eq!(active(), before);
    }

    #[test]
    fn counters_record_only_under_installed_ctx() {
        let _serial = serial_enabled();
        let r = Registry::new_enabled();
        add(Metric::FabricMsgs, 5); // no ctx, global disabled -> dropped
        {
            let _g = r.install(Some(0));
            add(Metric::FabricMsgs, 2);
            incr(Metric::FabricMsgs);
        }
        add(Metric::FabricMsgs, 9); // ctx popped -> dropped again
        assert_eq!(r.counter(Metric::FabricMsgs), 3);
    }

    #[test]
    fn contexts_nest_and_shadow() {
        let _serial = serial_enabled();
        let outer = Registry::new_enabled();
        let inner = Registry::new_enabled();
        let _go = outer.install(Some(1));
        add(Metric::KeyAdvances, 1);
        {
            let _gi = inner.install(Some(1));
            add(Metric::KeyAdvances, 10);
        }
        add(Metric::KeyAdvances, 1);
        assert_eq!(outer.counter(Metric::KeyAdvances), 2);
        assert_eq!(inner.counter(Metric::KeyAdvances), 10);
    }

    #[test]
    fn gauges_and_histograms_record() {
        let _serial = serial_enabled();
        let r = Registry::new_enabled();
        let _g = r.install(None);
        gauge_add(Gauge::PipelineInFlight, 3);
        gauge_add(Gauge::PipelineInFlight, -1);
        gauge_set(Gauge::PoolAvailable, 7);
        observe(Hist::FabricMsgBytes, 256);
        observe(Hist::FabricMsgBytes, 300);
        assert_eq!(r.gauge(Gauge::PipelineInFlight), 2);
        assert_eq!(r.gauge(Gauge::PoolAvailable), 7);
        assert_eq!(r.hist_totals(Hist::FabricMsgBytes), (2, 556));
        assert_eq!(r.hist_bucket(Hist::FabricMsgBytes, 8), 1); // 256
        assert_eq!(r.hist_bucket(Hist::FabricMsgBytes, 9), 1); // 300
    }

    #[test]
    fn spawn_context_carries_rank() {
        let _serial = serial_enabled();
        let r = Registry::new_enabled();
        let _g = r.install(Some(3));
        let (reg, rank) = spawn_context().expect("ctx installed");
        assert_eq!(rank, Some(3));
        let h = std::thread::spawn(move || {
            let _g = reg.install(rank);
            add(Metric::Collectives, 1);
        });
        h.join().unwrap();
        assert_eq!(r.counter(Metric::Collectives), 1);
    }
}

//! Zero-dependency worker pool and parallel mask kernels.
//!
//! The fused kernels in [`crate::kernels`] are memory-bandwidth-bound: one
//! AES-NI core sustains a few GB/s of keystream-combine, well below the
//! DRAM bandwidth of any multi-core node. Because HEAR pads are pure in
//! `(epoch, offset)` — element `j` is always masked with word `j mod per`
//! of block `F(base + j/per)`, independent of who computes it — a large
//! buffer can be cut at PRF-block boundaries and each contiguous range
//! masked on a different core, bit-identically to the serial pass.
//!
//! The pool here is deliberately minimal:
//!
//! * persistent parked threads, sized by
//!   [`std::thread::available_parallelism`] and overridable with the
//!   `HEAR_THREADS` environment variable (read once, at first use);
//! * fork-join [`WorkerPool::run`] with the *submitting* thread working as
//!   shard zero's peer — `threads == 1` degenerates to an inline serial
//!   loop with no synchronization at all;
//! * a single-slot background lane ([`WorkerPool::submit_bg`], newest job
//!   wins) that the keystream [`Prefetcher`](../../hear_layer) rides
//!   instead of owning a bespoke thread;
//! * **no allocation on the submitter path** after the lazy one-time worker
//!   spawn, so the engine's steady state stays allocation-free.
//!
//! Telemetry discipline: worker threads have no installed registry context
//! and must record nothing (recording would land in the *global* registry
//! and diverge from per-rank counts). All parallel entry points therefore
//! run *uncounted* kernels on the workers and attribute the exact serial
//! totals — bytes and the block-span count `last/per − first/per + 1` —
//! from the submitting thread, keeping every counter identical to the
//! serial path.

use crate::kernels::{as_uninit, count_pass, fused_blocks, pass_uncounted, Stream};
use crate::{KernelWord, PrfCipher};
use std::cell::Cell;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Smallest buffer (bytes) worth parallelizing at all. Below this the §4
/// small-message regime applies and synchronization would cost more than
/// the memory pass saves.
pub const PAR_MIN_BYTES: usize = 1 << 20;

/// Target bytes per shard: coarse enough that the per-shard mutex claim is
/// noise, fine enough that 4 shards exist at [`PAR_MIN_BYTES`].
pub const SHARD_BYTES: usize = 1 << 18;

/// Thread budget for this process: `HEAR_THREADS` when set (clamped to at
/// least 1), else [`std::thread::available_parallelism`].
pub fn configured_threads() -> usize {
    match std::env::var("HEAR_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => fallback_threads(),
        },
        Err(_) => fallback_threads(),
    }
}

fn fallback_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

thread_local! {
    /// Scoped pool override for this thread; null means "use the global".
    static POOL_OVERRIDE: Cell<*const WorkerPool> = const { Cell::new(std::ptr::null()) };
}

/// Run `f` with `pool` installed as this thread's masking pool: every
/// [`WorkerPool::with_current`] resolution on this thread uses `pool`
/// instead of the process-wide global for the duration of `f` (restored
/// on unwind). Overrides nest; spawned threads are unaffected.
pub fn with_pool<R>(pool: &WorkerPool, f: impl FnOnce() -> R) -> R {
    struct Reset(*const WorkerPool);
    impl Drop for Reset {
        fn drop(&mut self) {
            POOL_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = POOL_OVERRIDE.with(|c| c.replace(pool));
    let _reset = Reset(prev);
    f()
}

/// A job the background lane can run: the prefetcher's "generate the next
/// epoch's keystream" work. Implementors keep their own state behind a
/// mutex; [`run`](BgTask::run) is re-invoked every time the task is
/// (re)submitted and must return promptly once its work cell is empty.
pub trait BgTask: Send + Sync {
    fn run(&self);
}

/// One claimable fork-join job. The function pointer is lifetime-erased;
/// soundness argument at [`WorkerPool::run`].
#[derive(Clone, Copy)]
struct Job {
    f: &'static (dyn Fn(usize) + Sync),
    nshards: usize,
    /// Next unclaimed shard index.
    next: usize,
    /// Shards currently executing on some thread.
    active: usize,
    /// A shard panicked; the submitter re-raises after the join.
    panicked: bool,
}

struct State {
    job: Option<Job>,
    bg: Option<Arc<dyn BgTask>>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Workers park here waiting for shards or background jobs.
    work_cv: Condvar,
    /// The submitter parks here waiting for the last shard to retire.
    done_cv: Condvar,
}

/// Persistent fork-join pool with a background lane. See the module docs.
pub struct WorkerPool {
    threads: usize,
    inner: Arc<Inner>,
    /// Serializes fork-join jobs from concurrent in-process ranks.
    submit: Mutex<()>,
    /// Lazily spawned worker handles (at most `threads − 1`, but at least
    /// one so the background lane works even on a single-core budget).
    workers: Mutex<Vec<JoinHandle<()>>>,
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl WorkerPool {
    /// A pool with an explicit thread budget (`threads` counts the
    /// submitter; `threads == 1` means fully serial fork-join).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    job: None,
                    bg: None,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
            submit: Mutex::new(()),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// The process-wide pool, sized by [`configured_threads`] on first use.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool::new(configured_threads()))
    }

    /// Resolve the pool masking on this thread should use — the scoped
    /// [`with_pool`] override when inside one, [`WorkerPool::global`]
    /// otherwise — and run `f` on it. The consumers that auto-parallelize
    /// (the integer schemes' stream application, the HoMAC digest
    /// fan-out) route through this so bit-identity suites can pin
    /// explicit 1/2/4-thread pools without touching `HEAR_THREADS`
    /// (which the global pool reads only once per process).
    pub fn with_current<R>(f: impl FnOnce(&WorkerPool) -> R) -> R {
        let p = POOL_OVERRIDE.with(Cell::get);
        if p.is_null() {
            f(WorkerPool::global())
        } else {
            // SAFETY: the pointer was installed by `with_pool`, whose
            // borrow of the pool is held for the whole override scope and
            // restored (via the drop guard) before the borrow ends.
            f(unsafe { &*p })
        }
    }

    /// The configured thread budget (including the submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Shard count for a buffer of `bytes`: one shard per [`SHARD_BYTES`],
    /// capped by the thread budget.
    pub fn shards_for(&self, bytes: usize) -> usize {
        (bytes / SHARD_BYTES).clamp(1, self.threads)
    }

    /// Spawn workers up to `want` total. One-time cost; steady state takes
    /// the length check and returns without allocating.
    fn ensure_workers(&self, want: usize) {
        let mut workers = lock_unpoisoned(&self.workers);
        while workers.len() < want {
            let idx = workers.len();
            let inner = Arc::clone(&self.inner);
            let handle = std::thread::Builder::new()
                .name(format!("hear-worker-{idx}"))
                .spawn(move || worker_loop(&inner))
                .expect("spawn hear worker");
            workers.push(handle);
        }
    }

    /// Run `f(0), f(1), …, f(nshards − 1)` across the pool, returning when
    /// all shards have retired. Shards must touch disjoint data; the
    /// submitter executes shards alongside the workers.
    ///
    /// Serial degeneracies — `threads == 1`, a single shard — run inline
    /// with no locking. Panics in any shard are re-raised here after every
    /// other shard has finished.
    ///
    /// Do not call from a pool worker (the submit lock is not reentrant).
    pub fn run(&self, nshards: usize, f: &(dyn Fn(usize) + Sync)) {
        if nshards == 0 {
            return;
        }
        if self.threads == 1 || nshards == 1 {
            for i in 0..nshards {
                f(i);
            }
            return;
        }
        let _job_turn = lock_unpoisoned(&self.submit);
        self.ensure_workers((self.threads - 1).min(nshards - 1));

        // SAFETY (lifetime erasure): the reference is published to worker
        // threads only through `State.job`, every executing shard is
        // tracked in `Job.active`, and this function does not return until
        // the job is unpublished with `next == nshards && active == 0`. No
        // worker can observe the reference after `run` returns, so the
        // erased lifetime never outlives the real one.
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        {
            let mut st = lock_unpoisoned(&self.inner.state);
            st.job = Some(Job {
                f: f_static,
                nshards,
                next: 0,
                active: 0,
                panicked: false,
            });
            self.inner.work_cv.notify_all();
        }

        // Work alongside the pool until no shard is claimable.
        loop {
            let shard = {
                let mut st = lock_unpoisoned(&self.inner.state);
                let job = st.job.as_mut().expect("job published by this thread");
                if job.next >= job.nshards {
                    break;
                }
                let s = job.next;
                job.next += 1;
                job.active += 1;
                s
            };
            let ok = catch_unwind(AssertUnwindSafe(|| f(shard))).is_ok();
            let mut st = lock_unpoisoned(&self.inner.state);
            let job = st.job.as_mut().expect("job published by this thread");
            job.active -= 1;
            if !ok {
                job.panicked = true;
            }
        }

        // Join: wait for worker-held shards, then unpublish.
        let panicked = {
            let mut st = lock_unpoisoned(&self.inner.state);
            while st
                .job
                .as_ref()
                .is_some_and(|j| j.next < j.nshards || j.active > 0)
            {
                st = self
                    .inner
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
            st.job.take().expect("job unpublished only here").panicked
        };
        if panicked {
            panic!("a parallel mask shard panicked");
        }
    }

    /// Publish `task` on the single-slot background lane (newest submission
    /// wins) and wake a worker to run it. The task's `run` is responsible
    /// for draining its own work cell; resubmitting an already-running task
    /// is harmless.
    pub fn submit_bg(&self, task: Arc<dyn BgTask>) {
        self.ensure_workers(1);
        let mut st = lock_unpoisoned(&self.inner.state);
        st.bg = Some(task);
        self.inner.work_cv.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_unpoisoned(&self.inner.state);
            st.shutdown = true;
            self.inner.work_cv.notify_all();
        }
        for h in lock_unpoisoned(&self.workers).drain(..) {
            let _ = h.join();
        }
    }
}

enum Claim {
    Shard(&'static (dyn Fn(usize) + Sync), usize),
    Bg(Arc<dyn BgTask>),
}

fn worker_loop(inner: &Inner) {
    loop {
        let claim = {
            let mut st = lock_unpoisoned(&inner.state);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = st.job.as_mut() {
                    if job.next < job.nshards {
                        let s = job.next;
                        job.next += 1;
                        job.active += 1;
                        break Claim::Shard(job.f, s);
                    }
                }
                // Fork-join shards outrank the background lane: masking is
                // on the critical path, prefetch rides the slack.
                if let Some(task) = st.bg.take() {
                    break Claim::Bg(task);
                }
                st = inner.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        match claim {
            Claim::Shard(f, s) => {
                let ok = catch_unwind(AssertUnwindSafe(|| f(s))).is_ok();
                let mut st = lock_unpoisoned(&inner.state);
                if let Some(job) = st.job.as_mut() {
                    job.active -= 1;
                    if !ok {
                        job.panicked = true;
                    }
                    if job.next >= job.nshards && job.active == 0 {
                        inner.done_cv.notify_all();
                    }
                }
            }
            // A panicking background task must not take the worker down
            // with it; the next submission simply reruns the task.
            Claim::Bg(task) => {
                let _ = catch_unwind(AssertUnwindSafe(|| task.run()));
            }
        }
    }
}

/// `*mut W` that may cross threads. Each shard reconstructs a slice over
/// its own disjoint index range, so no two threads alias.
struct SendPtr<W>(*mut W);
unsafe impl<W> Send for SendPtr<W> {}
unsafe impl<W> Sync for SendPtr<W> {}

impl<W> SendPtr<W> {
    /// Accessor (rather than field access) so closures capture the
    /// `Sync` wrapper, not the raw pointer field (2021 disjoint capture).
    fn get(&self) -> *mut W {
        self.0
    }
}

/// Word range `[start, end)` of `buf` covered by shard `k` when the block
/// span of `(first, len)` is cut into `nshards` contiguous block runs.
///
/// Cutting at *block* boundaries is what keeps the parallel pass
/// bit-identical: shard `k`'s first element `j` still uses word `j mod
/// per` of block `F(base + j/per)`, exactly as the serial pass would, and
/// no block straddles two shards (so no combine is split mid-block).
fn shard_word_range<W: KernelWord>(
    first: u64,
    len: usize,
    nshards: usize,
    k: usize,
) -> (usize, usize) {
    let per = W::PER_BLOCK as u64;
    let first_block = first / per;
    let nblocks = fused_blocks::<W>(first, len);
    let bps = nblocks.div_ceil(nshards as u64);
    let b0 = first_block + (k as u64 * bps).min(nblocks);
    let b1 = first_block + ((k as u64 + 1) * bps).min(nblocks);
    let start = (b0 * per).max(first) - first;
    let end = (b1 * per).max(first) - first;
    ((start as usize).min(len), (end as usize).min(len))
}

/// Cut `buf` into `nshards` contiguous chunks and run `f(start, chunk)`
/// across the pool, where `start` is the chunk's offset in `buf`. The
/// degenerate cases (one shard, empty buffer) run inline. Used by
/// consumers whose per-element work has no block-boundary constraint
/// (e.g. HoMAC tags, one PRF block per element).
pub fn for_each_shard<T, F>(pool: &WorkerPool, buf: &mut [T], nshards: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = buf.len();
    if nshards <= 1 || pool.threads() == 1 || len == 0 {
        f(0, buf);
        return;
    }
    let chunk = len.div_ceil(nshards);
    let ptr = SendPtr(buf.as_mut_ptr());
    pool.run(nshards, &|k| {
        let s = (k * chunk).min(len);
        let e = ((k + 1) * chunk).min(len);
        if s >= e {
            return;
        }
        // SAFETY: chunks are disjoint, in bounds, and `buf` outlives
        // `run` (which joins before returning).
        let shard = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(s), e - s) };
        f(s, shard);
    });
}

/// What one fused pass reads and where its results land.
pub enum Payload<'a, W> {
    /// `buf[i] ← f(buf[i], …)`.
    InPlace(&'a mut [W]),
    /// `f(src[i], …)` appended to `out`, written straight into its spare
    /// capacity: no copy of `src` first, no zero-fill of `out`.
    Extend(&'a [W], &'a mut Vec<W>),
    /// `dst[i] ← f(src[i], …)` for a destination of `src`'s length that
    /// need not be initialised — a window of some vector's spare capacity
    /// the caller commits (`set_len`) itself. The pass initialises every
    /// element of `dst`.
    Into(&'a [W], &'a mut [MaybeUninit<W>]),
}

/// The N-stream fused pass across the pool: `dst[i] ← f(src[i], [A[first +
/// i], B[first + i]])` for the word streams `A`, `B` of `streams`, each
/// payload word read once and written once. The exact serial telemetry
/// totals are counted on the submitting thread, then uncounted kernels run
/// over disjoint block-aligned shards; below [`PAR_MIN_BYTES`] or on a
/// single-thread budget the one shard runs inline. Output and telemetry are
/// identical to folding the streams one at a time with the serial
/// [`crate::kernels`] wrappers.
pub fn par_fused_pass<W, const N: usize, F>(
    pool: &WorkerPool,
    streams: &[Stream<'_>; N],
    first: u64,
    payload: Payload<'_, W>,
    f: F,
) where
    W: KernelWord,
    F: Fn(W, [W; N]) -> W + Copy + Send + Sync,
{
    match payload {
        // SAFETY: `buf` is initialised.
        Payload::InPlace(buf) => unsafe { par_pass(pool, streams, first, None, as_uninit(buf), f) },
        Payload::Extend(src, out) => {
            out.reserve(src.len());
            let dst = &mut out.spare_capacity_mut()[..src.len()];
            // SAFETY: `src` is given, so `dst` need not be initialised.
            unsafe { par_pass(pool, streams, first, Some(src), dst, f) };
            // SAFETY: the pass above wrote every one of these words.
            unsafe { out.set_len(out.len() + src.len()) };
        }
        // SAFETY: `src` is given, so `dst` need not be initialised.
        Payload::Into(src, dst) => unsafe { par_pass(pool, streams, first, Some(src), dst, f) },
    }
}

/// # Safety
///
/// As [`pass_uncounted`]: with `src = None`, `dst` must be initialised.
unsafe fn par_pass<W, const N: usize, F>(
    pool: &WorkerPool,
    streams: &[Stream<'_>; N],
    first: u64,
    src: Option<&[W]>,
    dst: &mut [MaybeUninit<W>],
    f: F,
) where
    W: KernelWord,
    F: Fn(W, [W; N]) -> W + Copy + Send + Sync,
{
    let len = dst.len();
    let bytes = std::mem::size_of_val(dst);
    let nshards = pool.shards_for(bytes);
    count_pass::<W>(streams, first, len);
    if bytes < PAR_MIN_BYTES || pool.threads() == 1 || nshards == 1 {
        // SAFETY: forwarded contract.
        return unsafe { pass_uncounted(streams, first, src, dst, f) };
    }
    assert!(src.is_none_or(|s| s.len() == len));
    let ptr = SendPtr(dst.as_mut_ptr());
    pool.run(nshards, &|k| {
        let (s, e) = shard_word_range::<W>(first, len, nshards, k);
        if s >= e {
            return;
        }
        // SAFETY: shard ranges are disjoint, within `len`, and `dst`
        // outlives `run` (which joins before returning).
        let shard = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(s), e - s) };
        // SAFETY: forwarded contract, on this shard's sub-range.
        unsafe { pass_uncounted(streams, first + s as u64, src.map(|x| &x[s..e]), shard, f) };
    });
}

/// Parallel [`crate::add_keystream_into`] (identical output and telemetry).
pub fn par_add_keystream_into<W: KernelWord>(
    pool: &WorkerPool,
    prf: &PrfCipher,
    base: u128,
    first: u64,
    buf: &mut [W],
) {
    let streams = [Stream::Cipher { prf, base }];
    par_fused_pass(pool, &streams, first, Payload::InPlace(buf), |x, [a]| {
        x.wrapping_add(a)
    });
}

/// Parallel [`crate::sub_keystream_into`] (identical output and telemetry).
pub fn par_sub_keystream_into<W: KernelWord>(
    pool: &WorkerPool,
    prf: &PrfCipher,
    base: u128,
    first: u64,
    buf: &mut [W],
) {
    let streams = [Stream::Cipher { prf, base }];
    par_fused_pass(pool, &streams, first, Payload::InPlace(buf), |x, [a]| {
        x.wrapping_sub(a)
    });
}

/// Parallel [`crate::xor_keystream_into`] (identical output and telemetry).
pub fn par_xor_keystream_into<W: KernelWord>(
    pool: &WorkerPool,
    prf: &PrfCipher,
    base: u128,
    first: u64,
    buf: &mut [W],
) {
    let streams = [Stream::Cipher { prf, base }];
    par_fused_pass(pool, &streams, first, Payload::InPlace(buf), |x, [a]| {
        x.bxor(a)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{add_keystream_into, sub_keystream_into, xor_keystream_into, Backend};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const KEY: u128 = 0x00aa_bb11_22cc_dd33_44ee_ff55_6677_8899;

    #[test]
    fn run_covers_every_shard_exactly_once() {
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
            pool.run(hits.len(), &|k| {
                hits[k].fetch_add(1, Ordering::Relaxed);
            });
            for (k, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "threads={threads} shard {k}");
            }
        }
    }

    #[test]
    fn run_is_reusable_and_serializes_jobs() {
        let pool = WorkerPool::new(3);
        for round in 0..16 {
            let total = AtomicUsize::new(0);
            pool.run(8, &|k| {
                total.fetch_add(k + 1, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 36, "round {round}");
        }
    }

    #[test]
    fn shard_panic_propagates_to_the_submitter() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, &|k| {
                if k == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err());
        // The pool survives a panicked job.
        let n = AtomicUsize::new(0);
        pool.run(4, &|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn bg_task_runs_and_newest_submission_wins() {
        struct Counter(AtomicUsize);
        impl BgTask for Counter {
            fn run(&self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let pool = WorkerPool::new(1); // even a 1-thread budget serves bg jobs
        let task = Arc::new(Counter(AtomicUsize::new(0)));
        pool.submit_bg(task.clone());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while task.0.load(Ordering::SeqCst) == 0 {
            assert!(std::time::Instant::now() < deadline, "bg task never ran");
            std::thread::yield_now();
        }
    }

    #[test]
    fn shard_ranges_partition_the_buffer() {
        for (first, len, nshards) in [
            (0u64, 1000usize, 4usize),
            (2, 999, 3),
            (7, 64, 16), // more shards than blocks
            (5, 3, 2),   // single-block buffer
            (0, 17, 1),
        ] {
            let mut cursor = 0usize;
            for k in 0..nshards {
                let (s, e) = shard_word_range::<u32>(first, len, nshards, k);
                assert!(s <= e, "inverted range");
                if s < e {
                    assert_eq!(s, cursor, "gap before shard {k}");
                    cursor = e;
                }
            }
            assert_eq!(cursor, len, "first={first} len={len} nshards={nshards}");
        }
    }

    fn check_par_equals_serial<W: KernelWord>(threads: usize, len: usize, first: u64, seed: u64) {
        let prf = PrfCipher::new(Backend::AesSoft, KEY).unwrap();
        let pool = WorkerPool::new(threads);
        let data: Vec<W> = {
            let mut acc = 0x9e37_79b9_7f4a_7c15u64 ^ seed;
            (0..len)
                .map(|_| {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    W::from_ne(&acc.to_ne_bytes()[..std::mem::size_of::<W>()])
                })
                .collect()
        };
        let base = 77u128;

        let mut want = data.clone();
        add_keystream_into(&prf, base, first, &mut want);
        let mut got = data.clone();
        par_add_keystream_into(&pool, &prf, base, first, &mut got);
        assert_eq!(want, got, "add threads={threads} len={len} first={first}");

        let mut want = data.clone();
        sub_keystream_into(&prf, base, first, &mut want);
        let mut got = data.clone();
        par_sub_keystream_into(&pool, &prf, base, first, &mut got);
        assert_eq!(want, got, "sub threads={threads}");

        let mut want = data.clone();
        xor_keystream_into(&prf, base, first, &mut want);
        let mut got = data.clone();
        par_xor_keystream_into(&pool, &prf, base, first, &mut got);
        assert_eq!(want, got, "xor threads={threads}");
    }

    #[test]
    fn parallel_masks_match_serial_above_threshold() {
        // Big enough to clear PAR_MIN_BYTES for u32/u64; odd length and
        // offset so leading/trailing partial blocks land mid-shard-run.
        let len = PAR_MIN_BYTES / 4 + 13;
        for threads in [1usize, 2, 4] {
            check_par_equals_serial::<u32>(threads, len, 3, 1);
            check_par_equals_serial::<u64>(threads, len, 1, 2);
        }
    }

    #[test]
    fn small_buffers_take_the_serial_path_bit_identically() {
        for threads in [1usize, 2, 4] {
            check_par_equals_serial::<u16>(threads, 1021, 5, 3);
            check_par_equals_serial::<u8>(threads, 63, 9, 4);
        }
    }

    #[test]
    fn parallel_blocks_combine_matches_serial() {
        let prf = PrfCipher::new(Backend::AesSoft, KEY).unwrap();
        let pool = WorkerPool::new(4);
        let len = PAR_MIN_BYTES / 4 + 7;
        let first = 2u64;
        let per = <u32 as KernelWord>::PER_BLOCK as u64;
        let first_block = first / per;
        let nblocks = fused_blocks::<u32>(first, len) as usize;
        let mut blocks = vec![0u128; nblocks];
        prf.fill_blocks_uncounted(5u128.wrapping_add(first_block as u128), &mut blocks);
        let skip = first - first_block * per;

        let data: Vec<u32> = (0..len as u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let mut want = data.clone();
        crate::add_blocks_into(&blocks, skip, &mut want);
        let mut got = data.clone();
        let streams = [Stream::Blocks {
            blocks: &blocks,
            first_block: 0,
        }];
        par_fused_pass(
            &pool,
            &streams,
            skip,
            Payload::InPlace(&mut got),
            |x, [a]| x.wrapping_add(a),
        );
        assert_eq!(want, got);
    }

    #[test]
    fn with_pool_override_scopes_and_restores() {
        let outer = WorkerPool::new(2);
        let inner = WorkerPool::new(4);
        let global_threads = WorkerPool::with_current(WorkerPool::threads);
        with_pool(&outer, || {
            assert_eq!(WorkerPool::with_current(WorkerPool::threads), 2);
            // Overrides nest; the inner scope restores the outer one.
            with_pool(&inner, || {
                assert_eq!(WorkerPool::with_current(WorkerPool::threads), 4);
            });
            assert_eq!(WorkerPool::with_current(WorkerPool::threads), 2);
            // Spawned threads see the global, not this thread's override.
            let seen = std::thread::spawn(|| WorkerPool::with_current(WorkerPool::threads))
                .join()
                .unwrap();
            assert_eq!(seen, global_threads);
        });
        assert_eq!(
            WorkerPool::with_current(WorkerPool::threads),
            global_threads
        );
    }

    #[test]
    fn hear_threads_env_is_parsed_and_clamped() {
        // Pin the global pool's size *before* mutating the env so a
        // concurrent first call to `global()` can't observe our values.
        let _ = WorkerPool::global();
        std::env::set_var("HEAR_THREADS", "3");
        assert_eq!(configured_threads(), 3);
        std::env::set_var("HEAR_THREADS", "0"); // clamped to at least 1
        assert_eq!(configured_threads(), 1);
        std::env::set_var("HEAR_THREADS", "nope"); // invalid → hardware fallback
        assert_eq!(configured_threads(), fallback_threads());
        std::env::remove_var("HEAR_THREADS");
        assert_eq!(configured_threads(), fallback_threads());
    }

    #[test]
    fn parallel_telemetry_totals_match_serial() {
        use hear_telemetry::{Metric, Registry};
        let prf = PrfCipher::new(Backend::AesSoft, KEY).unwrap();
        let pool = WorkerPool::new(4);
        let len = PAR_MIN_BYTES / 4 + 5;

        let serial = Registry::new_enabled();
        {
            let _ctx = serial.install(None);
            let mut buf = vec![0u32; len];
            add_keystream_into(&prf, 9, 2, &mut buf);
            // The two-stream pass's serial twin: one stream at a time.
            add_keystream_into(&prf, 9, 2, &mut buf);
            sub_keystream_into(&prf, 11, 2, &mut buf);
        }
        let par = Registry::new_enabled();
        {
            let _ctx = par.install(None);
            let mut buf = vec![0u32; len];
            par_add_keystream_into(&pool, &prf, 9, 2, &mut buf);
            let streams = [9, 11].map(|base| Stream::Cipher { prf: &prf, base });
            let mut out = Vec::new();
            par_fused_pass(
                &pool,
                &streams,
                2,
                Payload::Extend(&buf, &mut out),
                |x, [a, b]| x.wrapping_add(a).wrapping_sub(b),
            );
        }
        for m in [
            Metric::KeystreamBytes,
            Metric::MaskedBytesAesSoft,
            Metric::PrfBlocksAesSoft,
        ] {
            assert_eq!(serial.counter(m), par.counter(m), "{m:?}");
        }
    }
}

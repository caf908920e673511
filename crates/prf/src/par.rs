//! Zero-dependency worker pool and the one driver of every pad pass.
//!
//! The fused kernels in [`crate::kernels`] are memory-bandwidth-bound: one
//! AES-NI core sustains a few GB/s of keystream-combine, well below the
//! DRAM bandwidth of any multi-core node. Because HEAR pads are pure in
//! `(epoch, offset)` — element `j` is always masked with word `j mod per`
//! of block `F(base + j/per)`, independent of who computes it — a large
//! buffer can be cut at PRF-block boundaries and each contiguous range
//! masked on a different core, bit-identically to the serial pass.
//!
//! Both pass bodies — words behind [`par_fused_pass`], whole blocks behind
//! [`par_block_pass`] — run on one driver (`shard`), so every pad a rank
//! derives in bulk is counted and sharded in one place.
//!
//! The pool here is deliberately minimal:
//!
//! * persistent parked threads, spawned on first use; the process budget
//!   is [`std::thread::available_parallelism`], overridable with the
//!   `HEAR_THREADS` environment variable (read once, when the
//!   [`WorkerPool::global`] pool that caches it is first touched);
//! * one pool per submitter: an engine rank runs its fork-join jobs on a
//!   pool of its own (its *lane*, `hear-layer` sizes it to the rank's share
//!   of the budget), so in-process ranks never queue on each other's jobs;
//! * fork-join [`WorkerPool::run`] with the *submitting* thread working as
//!   shard zero's peer — `threads == 1` degenerates to an inline serial
//!   loop with no synchronization at all;
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

use crate::kernels::{
    as_uninit, block_pass_uncounted, block_span, count_pass, pass_uncounted, BlockArray, Stores,
    Stream,
};
use crate::{KernelWord, PrfCipher};
use std::cell::Cell;
use std::convert::Infallible;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Smallest pass (bytes) worth parallelizing at all. Below this the §4
/// small-message regime applies and synchronization would cost more than
/// the pass saves.
///
/// A word pass is sized by its payload, `len · 16 / per` bytes: the
/// keystream of one stream, however many it folds. A block pass is sized by
/// the PRF output it draws on all its streams, `len · B · 16 · N` bytes: its
/// element work is the cipher's (a block element costs about four times
/// what 16 bytes of word pass do), so a two-stream HoMAC lane seal fans out
/// at 2¹⁵ lanes and its one-stream open at 2¹⁶.
pub const PAR_MIN_BYTES: usize = 1 << 20;

/// Smallest whole output (bytes) a `Payload::Into` pass writes with
/// streaming stores ([`Stores::Streaming`]), decided on the whole output
/// before sharding so every shard of one pass stores alike.
///
/// Only `Into` streams: it writes a caller's result (the unmask into `out`),
/// which the collective does not read again, so skipping the
/// read-for-ownership and leaving the cache to the rest of the call wins.
/// An `Extend` pass writes chunk vectors the ring folds and forwards next,
/// and those are better left in cache. `large_mem` (2²⁴ `u32`, world 2, on
/// a 2-vCPU Xeon), alternating 6 s runs: prefetch only 20.6–22.6 ms per
/// call, streaming both passes 21.7–22.6, streaming `Into` only 17.5–19.3.
///
/// One-thread `Into` unmask sweep in isolation, ns per PRF block, plain →
/// streaming: 4 MiB 1.07 → 1.40, 16 MiB 1.09 → 1.40, 32 MiB 1.47 → 1.47,
/// 64 MiB 2.06 → 1.40 while the host's shared L3 was quiet; with busy
/// neighbours streaming already won at 16 MiB (2.34 → 1.96). 32 MiB is
/// where it stops losing in either state.
pub(crate) const STREAM_MIN_BYTES: usize = 32 << 20;

/// Target bytes per shard: coarse enough that the per-shard mutex claim is
/// noise, fine enough that 4 shards exist at [`PAR_MIN_BYTES`].
const SHARD_BYTES: usize = 1 << 18;

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

/// Whether this thread is inside a [`with_pool`] scope. A caller that
/// would install a pool of its own (an engine rank's lane) leaves an
/// enclosing scope in force instead, so explicitly pinned pools win.
pub fn pool_scoped() -> bool {
    POOL_OVERRIDE.with(|c| !c.get().is_null())
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
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Workers park here waiting for shards.
    work_cv: Condvar,
    /// The submitter parks here waiting for the last shard to retire.
    done_cv: Condvar,
}

/// Persistent fork-join pool. See the module docs.
pub struct WorkerPool {
    threads: usize,
    inner: Arc<Inner>,
    /// Serializes fork-join jobs from threads that share this pool. An
    /// engine rank submits only to its own lane, so engine calls never
    /// contend here; threads that share [`WorkerPool::global`] or one
    /// [`with_pool`] pool still take turns.
    submit: Mutex<()>,
    /// Lazily spawned worker handles (at most `threads − 1`).
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Jobs handed to the workers (the inline degeneracies not counted).
    jobs: AtomicU64,
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
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
            submit: Mutex::new(()),
            workers: Mutex::new(Vec::new()),
            jobs: AtomicU64::new(0),
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
    /// (every scheme's mask and unmask, the cell pads, HoMAC's tag and
    /// verify passes) route through this, so an engine rank's collective runs
    /// on the lane it installs, and bit-identity suites can pin explicit
    /// 1/2/4-thread pools without touching `HEAR_THREADS` (which the
    /// global pool reads only once per process).
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

    /// Fork-join jobs this pool has fanned out to its workers so far; a
    /// job that ran inline (one thread, one shard) is not counted. Workers
    /// are spawned only for such a job, so a pool at 0 has spawned none.
    pub fn jobs(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Shard count for a buffer of `bytes`: one shard per [`SHARD_BYTES`],
    /// capped by the thread budget.
    fn shards_for(&self, bytes: usize) -> usize {
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
        self.jobs.fetch_add(1, Ordering::Relaxed);

        // SAFETY: lifetime erasure. The reference is published to worker
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

fn worker_loop(inner: &Inner) {
    loop {
        let (f, s) = {
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
                        break (job.f, s);
                    }
                }
                st = inner.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
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
}

/// Element range of a pass over `(first, len)`, `per` elements to a PRF
/// block, covered by shard `k` when its block span is cut into `nshards`
/// contiguous block runs.
///
/// Cutting at *block* boundaries is what keeps the parallel pass
/// bit-identical: shard `k`'s first element `j` still uses word `j mod
/// per` of block `F(base + j/per)`, exactly as the serial pass would, and
/// no block straddles two shards (so no combine is split mid-block). A
/// block pass (`per = 1`) may cut anywhere.
fn shard_range(per: usize, first: u64, len: usize, nshards: usize, k: usize) -> Range<usize> {
    let per64 = per as u64;
    let first_block = first / per64;
    let nblocks = block_span(per, first, len);
    let bps = nblocks.div_ceil(nshards as u64);
    let b0 = first_block + (k as u64 * bps).min(nblocks);
    let b1 = first_block + ((k as u64 + 1) * bps).min(nblocks);
    let start = (b0 * per64).max(first) - first;
    let end = (b1 * per64).max(first) - first;
    (start as usize).min(len)..(end as usize).min(len)
}

/// What a pass reads: a slice, or two equal-length slices side by side
/// (HoMAC checks ciphertexts against their tags).
pub trait Source: Copy + Send + Sync {
    type Item: Copy;
    fn count(self) -> usize;
    fn at(self, i: usize) -> Self::Item;
    /// Elements `r` alone, renumbered from 0.
    fn sub(self, r: Range<usize>) -> Self;
}

impl<T: Copy + Sync> Source for &[T] {
    type Item = T;
    fn count(self) -> usize {
        self.len()
    }
    fn at(self, i: usize) -> T {
        self[i]
    }
    fn sub(self, r: Range<usize>) -> Self {
        &self[r]
    }
}

impl<A: Copy + Sync, B: Copy + Sync> Source for (&[A], &[B]) {
    type Item = (A, B);
    fn count(self) -> usize {
        assert_eq!(self.0.len(), self.1.len(), "paired sources of one length");
        self.0.len()
    }
    fn at(self, i: usize) -> (A, B) {
        (self.0[i], self.1[i])
    }
    fn sub(self, r: Range<usize>) -> Self {
        (&self.0[r.clone()], &self.1[r])
    }
}

/// Where a pass writes, one slot per element: a slice of uninitialised
/// slots, or two side by side (a pass that yields two columns). The driver
/// hands each shard a view of its own element range.
pub trait Slots: Sized + Send {
    type Item;
    /// The slots as pointers that may cross threads.
    type Raw: Copy + Send + Sync;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The slots in runs of `n`, the last run shorter.
    fn chunks(self, n: usize) -> impl Iterator<Item = Self>;
    /// Write slot `i`.
    fn put(&mut self, i: usize, x: Self::Item);
    fn raw(&mut self) -> Self::Raw;
    /// Slots `r` of `raw`, renumbered from 0.
    ///
    /// # Safety
    ///
    /// `r` lies within the slots `raw` was taken from, which outlive the
    /// view, and no other live view overlaps it.
    unsafe fn view(raw: Self::Raw, r: Range<usize>) -> Self;
}

/// `Raw` is the slots' address, its provenance exposed so that a view on
/// another thread can take it back (`D: Send`, as other threads write
/// `D`s through it).
impl<D: Send> Slots for &mut [MaybeUninit<D>] {
    type Item = D;
    type Raw = usize;
    fn len(&self) -> usize {
        <[_]>::len(self)
    }
    fn chunks(self, n: usize) -> impl Iterator<Item = Self> {
        self.chunks_mut(n)
    }
    #[inline(always)]
    fn put(&mut self, i: usize, x: D) {
        self[i].write(x);
    }
    fn raw(&mut self) -> usize {
        self.as_mut_ptr().expose_provenance()
    }
    unsafe fn view(raw: usize, r: Range<usize>) -> Self {
        let at = std::ptr::with_exposed_provenance_mut::<MaybeUninit<D>>(raw);
        // SAFETY: the caller's contract.
        unsafe { std::slice::from_raw_parts_mut(at.add(r.start), r.len()) }
    }
}

impl<A: Slots, B: Slots> Slots for (A, B) {
    type Item = (A::Item, B::Item);
    type Raw = (A::Raw, B::Raw);
    fn len(&self) -> usize {
        self.0.len()
    }
    fn chunks(self, n: usize) -> impl Iterator<Item = Self> {
        self.0.chunks(n).zip(self.1.chunks(n))
    }
    #[inline(always)]
    fn put(&mut self, i: usize, (a, b): Self::Item) {
        self.0.put(i, a);
        self.1.put(i, b);
    }
    fn raw(&mut self) -> Self::Raw {
        (self.0.raw(), self.1.raw())
    }
    unsafe fn view((a, b): Self::Raw, r: Range<usize>) -> Self {
        // SAFETY: the caller's contract, column by column.
        unsafe { (A::view(a, r.clone()), B::view(b, r)) }
    }
}

/// What a sourced pass appends its results to: a `Vec`, or two side by
/// side (one column each), written straight into their spare capacity.
pub trait Append {
    type Item: Send;
    type Slots: Slots<Item = Self::Item>;
    /// Room for `n` more, as the `n` slots past the end.
    ///
    /// # Safety
    ///
    /// The slots do not borrow `self`: it must not be touched again until
    /// they are dropped.
    unsafe fn spare(&mut self, n: usize) -> Self::Slots;
    /// Take the `n` slots past the end in.
    ///
    /// # Safety
    ///
    /// All `n` were written since [`Append::spare`].
    unsafe fn grow(&mut self, n: usize);
}

impl<'a, D: Send> Append for &'a mut Vec<D> {
    type Item = D;
    type Slots = &'a mut [MaybeUninit<D>];
    unsafe fn spare(&mut self, n: usize) -> Self::Slots {
        self.reserve(n);
        let end = self.as_mut_ptr().wrapping_add(self.len()).cast();
        // SAFETY: the `n` slots past the end are reserved, and the caller
        // leaves the `Vec` alone while they live.
        unsafe { std::slice::from_raw_parts_mut(end, n) }
    }
    unsafe fn grow(&mut self, n: usize) {
        // SAFETY: the caller's contract.
        unsafe { self.set_len(self.len() + n) };
    }
}

impl<A: Append, B: Append> Append for (A, B) {
    type Item = (A::Item, B::Item);
    type Slots = (A::Slots, B::Slots);
    unsafe fn spare(&mut self, n: usize) -> Self::Slots {
        // SAFETY: forwarded, column by column.
        unsafe { (self.0.spare(n), self.1.spare(n)) }
    }
    unsafe fn grow(&mut self, n: usize) {
        // SAFETY: forwarded, column by column.
        unsafe { (self.0.grow(n), self.1.grow(n)) };
    }
}

/// Append `n` results to `out` with `run`, which writes every slot it is
/// handed or fails; a failed run appends nothing.
fn extend<O: Append, E>(
    mut out: O,
    n: usize,
    run: impl FnOnce(O::Slots) -> Result<(), E>,
) -> Result<(), E> {
    // SAFETY: `out` is left alone until `run` has returned, and with it
    // dropped the slots.
    run(unsafe { out.spare(n) })?;
    // SAFETY: the run succeeded, so it wrote every one of these.
    unsafe { out.grow(n) };
    Ok(())
}

/// What one pass reads and where its results land.
pub enum Payload<'a, D, S = &'a [D], O = &'a mut Vec<D>> {
    /// `buf[i] ← f(buf[i], …)`; word passes only.
    InPlace(&'a mut [D]),
    /// `f(src[i], …)` appended to `out`, written straight into its spare
    /// capacity: no copy of `src` first, no zero-fill of `out`. A failing
    /// pass leaves `out` as it was. A block pass may append to any
    /// [`Append`] (two `Vec`s side by side when `f` yields a pair); a word
    /// pass appends to one `Vec`.
    Extend(S, O),
    /// `dst[i] ← f(src[i], …)` for a destination of `src`'s length, whose
    /// old contents are overwritten unread.
    Into(S, &'a mut [D]),
}

/// A word pass, `per` elements to a PRF block: on the submitting thread it
/// decides the stores (an `Into` whose output reaches `STREAM_MIN_BYTES`
/// streams; `stores` overrides) and runs `body(first, src, dst, stores,
/// stop)` on the driver, [`shard`]; `src = None` means in place.
pub(crate) fn drive<D, S, E, const N: usize>(
    pool: &WorkerPool,
    streams: &[Stream<'_>; N],
    per: usize,
    first: u64,
    payload: Payload<'_, D, S>,
    stores: Option<Stores>,
    body: impl Fn(u64, Option<S>, &mut [MaybeUninit<D>], Stores, &dyn Fn() -> bool) -> Result<(), E>
        + Sync,
) -> Result<(), E>
where
    D: Send,
    S: Source,
    E: Send,
{
    let stores = stores.unwrap_or(match &payload {
        Payload::Into(_, dst) if std::mem::size_of_val(*dst) >= STREAM_MIN_BYTES => {
            Stores::Streaming
        }
        _ => Stores::Cached,
    });
    let body = |at, src, dst: &mut [MaybeUninit<D>], stop: &dyn Fn() -> bool| {
        body(at, src, dst, stores, stop)
    };
    let run = |src: Option<S>, dst: &mut [MaybeUninit<D>]| {
        shard(pool, streams, Shape::Words(per), first, src, dst, body)
    };
    match payload {
        Payload::InPlace(buf) => run(None, as_uninit(buf)),
        Payload::Extend(src, out) => extend(out, src.count(), |dst| run(Some(src), dst)),
        Payload::Into(src, dst) => {
            assert_eq!(src.count(), dst.len(), "one destination slot per element");
            run(Some(src), as_uninit(dst))
        }
    }
}

/// How a pass's elements meet the PRF blocks of each stream.
#[derive(Clone, Copy)]
pub(crate) enum Shape {
    /// A word pass: `per` elements to a block.
    Words(usize),
    /// A block pass: `B` consecutive blocks to an element.
    Blocks(usize),
}

/// The one driver: run one pass over the slots `dst`, counting its exact
/// serial telemetry on the submitting thread, then running `body(first,
/// src, dst, stop)` inline or, once the pass reaches [`PAR_MIN_BYTES`]
/// (sized by its [`Shape`], as that constant says), on shards across the
/// pool. Word shards are cut at block boundaries, block shards at element
/// boundaries; a block shard at element `s` starts at stream index
/// `first + s·B`. `stop()` tells a shard that one before it failed, so the
/// error returned is the serial pass's first.
fn shard<T, S, E, const N: usize>(
    pool: &WorkerPool,
    streams: &[Stream<'_>; N],
    shape: Shape,
    first: u64,
    src: Option<S>,
    mut dst: T,
    body: impl Fn(u64, Option<S>, T, &dyn Fn() -> bool) -> Result<(), E> + Sync,
) -> Result<(), E>
where
    T: Slots,
    S: Source,
    E: Send,
{
    let len = dst.len();
    let ((per, blocks), bytes) = match shape {
        Shape::Words(per) => ((per, 1), len * 16 / per),
        Shape::Blocks(b) => ((1, b), len * b * 16 * N),
    };
    count_pass(streams, per, first, len * blocks);
    let nshards = pool.shards_for(bytes);
    if bytes < PAR_MIN_BYTES || nshards == 1 {
        return body(first, src, dst, &|| false);
    }
    // `failed` (the lowest failing shard) publishes nothing, so
    // `Relaxed`: the error itself travels under the mutex.
    let (failed, error) = (AtomicUsize::new(usize::MAX), Mutex::new(None));
    let raw = dst.raw();
    pool.run(nshards, &|k| {
        let r = shard_range(per, first, len, nshards, k);
        let stop = || failed.load(Ordering::Relaxed) < k;
        if r.is_empty() || stop() {
            return;
        }
        let at = first + (r.start * blocks) as u64;
        // SAFETY: shard ranges are disjoint, within `len`, and `dst`
        // outlives `run` (which joins before returning).
        let dst = unsafe { T::view(raw, r.clone()) };
        if let Err(e) = body(at, src.map(|s| s.sub(r)), dst, &stop) {
            failed.fetch_min(k, Ordering::Relaxed);
            let mut slot = lock_unpoisoned(&error);
            if slot.as_ref().is_none_or(|(j, _)| k < *j) {
                *slot = Some((k, e));
            }
        }
    });
    let error = error.into_inner().unwrap_or_else(|e| e.into_inner());
    error.map_or(Ok(()), |(_, e)| Err(e))
}

/// The N-stream fused pass across the pool: `dst[i] ← f(src[i], [A[first +
/// i], B[first + i]])` for the word streams `A`, `B` of `streams`, each
/// payload word read once and written once, run by the driver (`drive`).
/// Output and telemetry are identical to folding the streams one at a
/// time with the serial [`crate::kernels`] wrappers.
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
    let body = |at, src, dst: &mut [MaybeUninit<W>], stores, _: &dyn Fn() -> bool| {
        // SAFETY: the driver's in-place contract. A streaming pass fences
        // before it returns, so before the join.
        unsafe { pass_uncounted(streams, at, src, dst, f, stores) };
        Ok::<_, Infallible>(())
    };
    let Ok(()) = drive(pool, streams, W::PER_BLOCK, first, payload, None, body);
}

/// The block pass across the pool: `dst[i] ← f(src[i], [A_i, B_i])`, where
/// `A_i` holds the `LEN` consecutive whole PRF blocks `F(base + first +
/// i·LEN + b)`, `b < LEN`, of the first of `streams` and `B_i` the
/// second's — a bare `u128` each at one block an element (the float
/// ciphers), a `[u128; LEN]` for more ([`BlockArray`]; HoMAC's digest
/// lanes) — any source and destination types. Run by the driver like every
/// word pass: `N·LEN` blocks an element counted up front, the block-pass
/// fan-out rule, shards cut at element boundaries, and the error of the
/// first element `f` fails on returned (later elements may or may not have
/// run; an `Extend` then appends nothing). A block pass reads a source:
/// `Extend`, to any [`Append`], or `Into`.
///
/// # Panics
///
/// On `Payload::InPlace`.
pub fn par_block_pass<D, S, O, A, E, const N: usize, F>(
    pool: &WorkerPool,
    streams: &[Stream<'_>; N],
    first: u64,
    payload: Payload<'_, D, S, O>,
    f: F,
) -> Result<(), E>
where
    D: Send,
    S: Source,
    O: Append<Item = D>,
    A: BlockArray,
    E: Send,
    F: Fn(S::Item, [A; N]) -> Result<D, E> + Copy + Sync,
{
    fn run<S: Source, T: Slots, A: BlockArray, E: Send, const N: usize>(
        (pool, streams, first): (&WorkerPool, &[Stream<'_>; N], u64),
        src: S,
        dst: T,
        f: impl Fn(S::Item, [A; N]) -> Result<T::Item, E> + Copy + Sync,
    ) -> Result<(), E> {
        let body = |at, src: Option<S>, dst, stop: &dyn Fn() -> bool| {
            block_pass_uncounted(streams, at, src.expect("a source"), dst, f, stop)
        };
        let shape = Shape::Blocks(A::LEN);
        shard(pool, streams, shape, first, Some(src), dst, body)
    }
    let pass = (pool, streams, first);
    match payload {
        Payload::InPlace(_) => panic!("a block pass reads a source: Extend or Into"),
        Payload::Extend(src, out) => extend(out, src.count(), |dst| run(pass, src, dst, f)),
        Payload::Into(src, dst) => {
            assert_eq!(src.count(), dst.len(), "one destination slot per element");
            run(pass, src, as_uninit(dst), f)
        }
    }
}

/// Parallel [`crate::add_keystream_into`] (identical output and telemetry).
pub fn par_add_keystream_into<W: KernelWord>(
    pool: &WorkerPool,
    prf: &PrfCipher,
    base: u128,
    first: u64,
    buf: &mut [W],
) {
    let streams = [Stream { prf, base }];
    par_fused_pass(pool, &streams, first, Payload::InPlace(buf), |x, [a]| {
        x.wrapping_add(a)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{add_keystream_into, sub_keystream_into, Backend, Prf};
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
                let r = shard_range(4, first, len, nshards, k);
                assert!(r.start <= r.end, "inverted range");
                if !r.is_empty() {
                    assert_eq!(r.start, cursor, "gap before shard {k}");
                    cursor = r.end;
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
    fn with_pool_override_scopes_and_restores() {
        let outer = WorkerPool::new(2);
        let inner = WorkerPool::new(4);
        let global_threads = WorkerPool::with_current(WorkerPool::threads);
        assert!(!pool_scoped());
        with_pool(&outer, || {
            assert!(pool_scoped());
            assert_eq!(WorkerPool::with_current(WorkerPool::threads), 2);
            // Overrides nest; the inner scope restores the outer one.
            with_pool(&inner, || {
                assert_eq!(WorkerPool::with_current(WorkerPool::threads), 4);
            });
            assert_eq!(WorkerPool::with_current(WorkerPool::threads), 2);
            // Spawned threads see the global, not this thread's override.
            let seen = std::thread::spawn(|| {
                (pool_scoped(), WorkerPool::with_current(WorkerPool::threads))
            })
            .join()
            .unwrap();
            assert_eq!(seen, (false, global_threads));
        });
        assert!(!pool_scoped());
        assert_eq!(
            WorkerPool::with_current(WorkerPool::threads),
            global_threads
        );
    }

    #[test]
    fn jobs_count_only_fan_outs() {
        let serial = WorkerPool::new(1);
        serial.run(8, &|_| {});
        assert_eq!(serial.jobs(), 0);
        let pool = WorkerPool::new(4);
        pool.run(1, &|_| {}); // one shard runs inline
        assert_eq!(pool.jobs(), 0);
        pool.run(2, &|_| {});
        pool.run(8, &|_| {});
        assert_eq!(pool.jobs(), 2);
    }

    /// The block pass of `B` blocks an element against its definition —
    /// element `i` draws blocks `first + i·B .. first + (i + 1)·B` of each
    /// stream — into two columns, either side of the fan-out point and on
    /// every pool; with telemetry of `N·B` blocks an element, and a failing
    /// element's error returned with nothing appended.
    #[test]
    fn wide_block_pass_draws_consecutive_blocks_per_element() {
        use hear_telemetry::{Metric, Registry};
        fn check<A: BlockArray + AsRef<[u128]>>(pool: &WorkerPool, len: usize, fail: Option<u64>) {
            let prf = PrfCipher::new(Backend::best_available(), KEY).unwrap();
            let streams = [3u128 << 80, 5 << 80].map(|base| Stream { prf: &prf, base });
            let first = 7u64;
            let src: Vec<u64> = (0..len as u64).collect();
            let block = |s: usize, j: u64| prf.eval_block(streams[s].base + u128::from(j));
            let want: Vec<(u64, u128)> = (0..len as u64)
                .map(|i| {
                    let j = first + i * A::LEN as u64;
                    let b = (0..A::LEN as u64).map(|b| block(0, j + b) ^ block(1, j + b));
                    (i, b.fold(0u128, |acc, x| acc.rotate_left(7) ^ x))
                })
                .collect();
            let reg = Registry::new_enabled();
            let (mut ids, mut mix) = (vec![9u64], Vec::new());
            let done = {
                let _ctx = reg.install(None);
                par_block_pass(
                    pool,
                    &streams,
                    first,
                    Payload::Extend(&src[..], (&mut ids, &mut mix)),
                    |i, [a, b]: [A; 2]| match fail {
                        Some(at) if i >= at => Err(i),
                        _ => {
                            let pairs = a.as_ref().iter().zip(b.as_ref());
                            Ok((
                                i,
                                pairs.fold(0u128, |acc, (a, b)| acc.rotate_left(7) ^ a ^ b),
                            ))
                        }
                    },
                )
            };
            let blocks =
                reg.counter(Metric::PrfBlocksAesNi) + reg.counter(Metric::PrfBlocksAesSoft);
            assert_eq!(blocks, (2 * A::LEN * len) as u64, "N·B blocks an element");
            match fail {
                None => {
                    assert_eq!(done, Ok(()));
                    assert_eq!(ids[0], 9, "what the column held before");
                    let got: Vec<(u64, u128)> = ids[1..].iter().copied().zip(mix).collect();
                    assert!(
                        got == want,
                        "B={} len={len} threads={}",
                        A::LEN,
                        pool.threads()
                    );
                }
                Some(at) => {
                    assert_eq!(done, Err(at), "the first failing element's error");
                    assert_eq!((ids.len(), mix.len()), (1, 0), "a failed pass appended");
                }
            }
        }
        for pool in [1, 2, 4].map(WorkerPool::new) {
            for len in [0, 1, 51, 52, 300] {
                check::<[u128; 5]>(&pool, len, None);
                check::<[u128; 2]>(&pool, len, None);
            }
            // Past the fan-out point: 2 streams × B blocks × 16 bytes.
            let len = PAR_MIN_BYTES / (32 * 5) + 3;
            let jobs = pool.jobs();
            check::<[u128; 5]>(&pool, len, None);
            assert_eq!(pool.jobs() > jobs, pool.threads() > 1);
            check::<[u128; 5]>(&pool, len, Some(len as u64 / 2));
            check::<[u128; 1]>(&pool, PAR_MIN_BYTES / 32 + 1, None);
        }
    }

    /// The fan-out rule by pass shape, on a 2-thread pool: a word pass
    /// shards on its payload bytes, however many streams it folds; a block
    /// pass on the blocks it draws on all its streams.
    #[test]
    fn word_passes_fan_out_on_the_payload_block_passes_on_the_blocks_drawn() {
        let prf = PrfCipher::new(Backend::best_available(), KEY).unwrap();
        let streams = [3u128 << 80, 5 << 80].map(|base| Stream { prf: &prf, base });
        let pool = WorkerPool::new(2);
        let fans_out = |pass: &dyn Fn()| {
            let jobs = pool.jobs();
            pass();
            pool.jobs() > jobs
        };
        for (len, want) in [(PAR_MIN_BYTES / 4 - 4, false), (PAR_MIN_BYTES / 4, true)] {
            let src = vec![0u32; len];
            let word = || {
                let mut out = Vec::new();
                let payload = Payload::Extend(&src[..], &mut out);
                par_fused_pass(&pool, &streams, 0, payload, |x, [a, b]| {
                    x.wrapping_add(a).wrapping_sub(b)
                });
            };
            assert_eq!(fans_out(&word), want, "two-stream word pass of {len} u32");
        }
        for (len, want) in [(PAR_MIN_BYTES / 32 - 1, false), (PAR_MIN_BYTES / 32, true)] {
            let src = vec![0u64; len];
            let block = || {
                let mut out = Vec::new();
                let payload = Payload::Extend(&src[..], &mut out);
                let Ok(()) = par_block_pass(&pool, &streams, 0, payload, |x, [a, b]: [u128; 2]| {
                    Ok::<_, Infallible>(x ^ (a ^ b) as u64)
                });
            };
            assert_eq!(fans_out(&block), want, "two-stream block pass of {len}");
        }
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
            let streams = [9, 11].map(|base| Stream { prf: &prf, base });
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

//! # tinypool
//!
//! A persistent work-stealing thread pool for the SPEC Power workspace.
//!
//! An earlier substrate (a `tinyframe` module) spawned a fresh set of scoped
//! threads and an mpsc channel on **every** `parallel_map` call, so group-by
//! aggregation and dataset generation paid thread-spawn latency per
//! invocation. This crate replaces it with a pool that is created once per
//! process (lazily, on first use) and reused by every parallel operation:
//!
//! * **Global instance** — [`global`] initialises from `SPEC_TRENDS_THREADS`
//!   (or [`set_global_threads`], which the CLI's `--threads` flag calls, or
//!   `std::thread::available_parallelism`) behind a `OnceLock`.
//! * **Chunked scheduling with stealing** — each submitted job is split into
//!   fixed chunks whose layout depends only on the input length (never on
//!   the thread count), broadcast to every worker's deque; workers drain
//!   their own deque from the back and steal from other deques' fronts when
//!   idle, and claim chunks from a job via an atomic cursor. The submitting
//!   thread participates too, so a 1-thread pool degenerates to an inline
//!   sequential loop and nested submissions cannot deadlock.
//! * **Order-preserving contract** — [`Pool::parallel_map`] writes results
//!   into their input slots, and [`Pool::run_chunks`] hands out ranges in
//!   input order. Because the chunk layout is a pure function of the input
//!   length, every result is **bitwise identical for any thread count** —
//!   the determinism the filter-cascade and dataset-generation tests
//!   assert.
//!
//! [`Pool::map_tasks`] is the coarse-grained variant: one chunk per item
//! and no inline cutoff, for a handful of items that each cost
//! milliseconds (rendering the export files).
//!
//! **Span parenting** — while tracing is on, a job records the
//! submitter's current `spec-obs` span, and each worker makes it the
//! current span while it runs the job's chunks. A span opened inside a
//! task is therefore a child of the span that submitted it, on whichever
//! thread the task ran.
//!
//! Ambient-pool override for tests: [`Pool::install`] runs a closure with a
//! specific pool as the calling thread's ambient pool, so the free functions
//! ([`parallel_map`] etc.) route to it instead of the global instance.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Inputs below this length run inline: thread handoff costs more than the
/// work (same threshold the old scope-per-call substrate used).
pub(crate) const PARALLEL_THRESHOLD: usize = 64;

/// Chunk size for an input of length `n`.
///
/// Deliberately a function of `n` only — **never** of the thread count —
/// so chunk boundaries (and therefore reduce results and any per-chunk
/// structure) are identical whether the pool has 1 or 64 threads. Targets
/// ~256 chunks per job: fine enough for dynamic balancing across uneven
/// per-item cost, coarse enough that cursor traffic is negligible.
pub fn chunk_for(n: usize) -> usize {
    n.div_ceil(256).max(4)
}

// ---------------------------------------------------------------------------
// Job: one parallel submission, executed chunk-by-chunk via an atomic cursor.
// ---------------------------------------------------------------------------

/// Lifetime-erased pointer to the submitter's chunk closure.
///
/// SAFETY INVARIANT: the pointee must outlive every call through the
/// pointer. `Pool::execute` guarantees this by blocking until
/// `remaining == 0`, which only happens after the last chunk call returns.
struct ErasedFn(*const (dyn Fn(Range<usize>) + Sync + 'static));

// SAFETY: the pointee is `Sync` (shared calls from any thread are fine) and
// the invariant above pins its lifetime across the job.
unsafe impl Send for ErasedFn {}
unsafe impl Sync for ErasedFn {}

struct Job {
    f: ErasedFn,
    n: usize,
    chunk: usize,
    /// Next chunk start index to claim.
    cursor: AtomicUsize,
    /// Chunks not yet finished executing.
    remaining: AtomicUsize,
    /// The submitter's current span (only captured while tracing), made
    /// current on each worker while it runs this job's chunks.
    parent: Option<u64>,
    /// First panic payload observed in any chunk.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Submitter parks here until `remaining` hits zero.
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl Job {
    /// Claim and run chunks until the cursor is exhausted. `worker` is the
    /// helping worker's index (`None` for the submitting thread) — used
    /// only for the per-worker chunk counters, which are batched locally
    /// per job so the registry sees one update per (job, thread), not one
    /// per chunk.
    fn help(&self, worker: Option<usize>) {
        // A worker adopts the submitter's span for this job only; the
        // guard restores the worker's own (the submitter's is already
        // current on its thread).
        let _parent = self.parent.map(spec_obs::enter_parent);
        let mut chunks_run: u64 = 0;
        loop {
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n {
                break;
            }
            let end = (start + self.chunk).min(self.n);
            // SAFETY: `remaining > 0` (this chunk is unfinished), so the
            // submitter is still blocked in `execute` and the closure is
            // alive.
            let call = || unsafe { (*self.f.0)(start..end) };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(call)) {
                let mut slot = self.panic.lock().unwrap();
                slot.get_or_insert(payload);
            }
            chunks_run += 1;
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _guard = self.done_lock.lock().unwrap();
                self.done_cv.notify_all();
            }
        }
        if chunks_run > 0 && spec_obs::enabled() {
            match worker {
                Some(i) => spec_obs::count(&format!("pool.worker.{i}.chunks"), chunks_run),
                None => spec_obs::count("pool.main.chunks", chunks_run),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared pool state and workers.
// ---------------------------------------------------------------------------

struct Shared {
    /// One deque per worker; jobs are broadcast to all of them.
    queues: Vec<Mutex<VecDeque<Arc<Job>>>>,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn take_job(&self, home: usize) -> Option<Arc<Job>> {
        // Own deque from the back (LIFO: best cache affinity for the
        // latest submission), then steal from other fronts.
        if let Some(job) = self.queues[home].lock().unwrap().pop_back() {
            if spec_obs::enabled() {
                spec_obs::count(&format!("pool.worker.{home}.tasks"), 1);
            }
            return Some(job);
        }
        let k = self.queues.len();
        for offset in 1..k {
            let victim = (home + offset) % k;
            if let Some(job) = self.queues[victim].lock().unwrap().pop_front() {
                if spec_obs::enabled() {
                    spec_obs::count(&format!("pool.worker.{home}.tasks"), 1);
                    spec_obs::count(&format!("pool.worker.{home}.steals"), 1);
                }
                return Some(job);
            }
        }
        None
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    loop {
        match shared.take_job(index) {
            Some(job) => job.help(Some(index)),
            None => {
                let guard = shared.sleep_lock.lock().unwrap();
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Re-check under the sleep lock: a push that completed
                // before we acquired it is visible now; a push racing with
                // us must acquire this lock to notify, so the wakeup cannot
                // be lost.
                let has_work = shared
                    .queues
                    .iter()
                    .any(|q| !q.lock().unwrap().is_empty());
                if has_work {
                    continue;
                }
                let _unused = shared.sleep_cv.wait(guard).unwrap();
            }
        }
    }
}

struct PoolInner {
    shared: Arc<Shared>,
    threads: usize,
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let _guard = self.shared.sleep_lock.lock().unwrap();
        self.shared.sleep_cv.notify_all();
    }
}

/// A persistent thread pool handle (cheaply cloneable).
///
/// Most code should use the free functions ([`parallel_map`],
/// [`run_chunks`], …) which route to the process-global pool; explicit
/// `Pool` values exist for tests that need a specific thread count (see
/// [`Pool::install`]).
#[derive(Clone)]
pub struct Pool {
    inner: Arc<PoolInner>,
}

impl Pool {
    /// Create a pool with the given total parallelism (clamped to ≥ 1).
    ///
    /// `threads` counts the submitting thread: `Pool::new(1)` spawns no
    /// workers and runs everything inline; `Pool::new(8)` spawns 7 workers
    /// and the submitter participates as the 8th.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let workers = threads - 1;
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        for index in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("tinypool-{index}"))
                .spawn(move || worker_loop(shared, index))
                .expect("spawn pool worker");
        }
        Pool {
            inner: Arc::new(PoolInner { shared, threads }),
        }
    }

    /// Total parallelism of this pool (including the submitting thread).
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Run `f(range)` for disjoint chunks covering `0..n`, in parallel,
    /// returning when every chunk has finished. Panics in any chunk are
    /// propagated to the caller after all chunks complete or unwind.
    fn execute(&self, n: usize, chunk: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
        if n == 0 {
            return;
        }
        let chunks = n.div_ceil(chunk);
        if self.inner.threads == 1 || chunks == 1 {
            // Inline path: same chunk walk, no handoff.
            let mut start = 0;
            while start < n {
                f(start..(start + chunk).min(n));
                start += chunk;
            }
            return;
        }

        // SAFETY: erasing the closure's lifetime is sound because this
        // function blocks until `remaining == 0` below, i.e. until the last
        // use of the pointer has returned.
        let erased: *const (dyn Fn(Range<usize>) + Sync) = f;
        let erased: *const (dyn Fn(Range<usize>) + Sync + 'static) =
            unsafe { std::mem::transmute(erased) };
        let job = Arc::new(Job {
            f: ErasedFn(erased),
            n,
            chunk,
            cursor: AtomicUsize::new(0),
            remaining: AtomicUsize::new(chunks),
            parent: if spec_obs::enabled() {
                spec_obs::current_span()
            } else {
                None
            },
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        });

        // Broadcast the job handle to every worker, then wake them.
        for queue in &self.inner.shared.queues {
            queue.lock().unwrap().push_back(Arc::clone(&job));
        }
        {
            let _guard = self.inner.shared.sleep_lock.lock().unwrap();
            self.inner.shared.sleep_cv.notify_all();
        }

        // The submitter helps until the cursor runs dry, then parks until
        // straggler chunks on other threads finish.
        job.help(None);
        let mut guard = job.done_lock.lock().unwrap();
        while job.remaining.load(Ordering::Acquire) > 0 {
            guard = job.done_cv.wait(guard).unwrap();
        }
        drop(guard);

        let payload = job.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Order-preserving parallel map: semantically identical to
    /// `items.iter().map(f).collect()` for any thread count.
    pub fn parallel_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.parallel_map_indexed(items, |_, item| f(item))
    }

    /// Order-preserving parallel map with the item index.
    pub(crate) fn parallel_map_indexed<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let n = items.len();
        if n < PARALLEL_THRESHOLD {
            return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }
        self.map_chunked(items, chunk_for(n), f)
    }

    /// Order-preserving map over a few coarse tasks: one chunk per item
    /// and no `PARALLEL_THRESHOLD` cutoff, so even two items can run on
    /// two threads. For work where each item costs milliseconds (rendering
    /// one export file) rather than nanoseconds. Results come back in item
    /// order, the submitting thread runs tasks too, a 1-thread pool runs
    /// them inline, and a panicking task re-panics here once every task
    /// has finished.
    pub fn map_tasks<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.map_chunked(items, 1, |_, item| f(item))
    }

    /// Map `items` through `f` in chunks of `chunk` items, writing each
    /// result into its input's slot.
    fn map_chunked<T, U, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let n = items.len();
        if n <= chunk || self.inner.threads == 1 {
            return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }

        let mut out: Vec<MaybeUninit<U>> = Vec::with_capacity(n);
        // SAFETY: `MaybeUninit` needs no initialisation.
        unsafe { out.set_len(n) };
        let base = SendPtr(out.as_mut_ptr());
        self.execute(n, chunk, &|range| {
            // Rebind so the closure captures the whole `SendPtr` (which is
            // Sync) — edition-2021 disjoint capture would otherwise capture
            // the raw-pointer field itself, which is not.
            #[allow(clippy::redundant_locals)]
            let base = base;
            for i in range {
                // SAFETY: chunk ranges are disjoint, so every slot is
                // written exactly once, with no concurrent access.
                unsafe { base.0.add(i).write(MaybeUninit::new(f(i, &items[i]))) };
            }
        });
        // All slots written (execute returned without panicking): convert
        // in place. On a panic above, `out` drops as `MaybeUninit` and the
        // initialised elements leak — safe, and only on the unwind path.
        let (ptr, len, cap) = (out.as_mut_ptr(), out.len(), out.capacity());
        std::mem::forget(out);
        // SAFETY: `MaybeUninit<U>` has the same layout as `U` and every
        // element is initialised.
        unsafe { Vec::from_raw_parts(ptr as *mut U, len, cap) }
    }

    /// Run `f` for disjoint index ranges covering `0..n`, returning the
    /// ranges used; callers that shard a slice by these ranges get a layout
    /// that depends only on `n`.
    pub fn run_chunks<F>(&self, n: usize, f: F) -> Vec<Range<usize>>
    where
        F: Fn(Range<usize>) + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let chunk = chunk_for(n);
        self.execute(n, chunk, &f);
        chunk_ranges(n, chunk)
    }

    /// Run `f` with this pool as the calling thread's ambient pool: the
    /// free functions ([`parallel_map`] …) route to it instead of the
    /// global instance. Used by tests that pin a thread count.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        AMBIENT.with(|ambient| ambient.borrow_mut().push(self.clone()));
        struct PopGuard;
        impl Drop for PopGuard {
            fn drop(&mut self) {
                AMBIENT.with(|ambient| {
                    ambient.borrow_mut().pop();
                });
            }
        }
        let _guard = PopGuard;
        f()
    }
}

/// The chunk ranges `execute` walks for an input of length `n`.
fn chunk_ranges(n: usize, chunk: usize) -> Vec<Range<usize>> {
    (0..n)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(n))
        .collect()
}

/// Raw pointer that may cross threads (used for disjoint slot writes).
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: access discipline (disjoint ranges) is enforced by the callers
// inside this crate.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

// ---------------------------------------------------------------------------
// Global instance + ambient override.
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Pool> = OnceLock::new();
static REQUESTED_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    static AMBIENT: RefCell<Vec<Pool>> = const { RefCell::new(Vec::new()) };
}

/// Thread-count resolution order: [`set_global_threads`] (the CLI's
/// `--threads` flag) > `SPEC_TRENDS_THREADS` env var >
/// `available_parallelism`, clamped to `1..=512`.
fn default_threads() -> usize {
    REQUESTED_THREADS
        .get()
        .copied()
        .or_else(|| {
            std::env::var("SPEC_TRENDS_THREADS")
                .ok()
                .and_then(|s| s.trim().parse().ok())
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
        .clamp(1, 512)
}

/// Error from [`set_global_threads`]: the global pool (or an earlier
/// request) already fixed the thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalPoolInitialized;

impl std::fmt::Display for GlobalPoolInitialized {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "global thread pool already initialized")
    }
}

impl std::error::Error for GlobalPoolInitialized {}

/// Request a thread count for the global pool, overriding
/// `SPEC_TRENDS_THREADS`. Must be called before the first parallel
/// operation (the CLI does this while parsing arguments).
pub fn set_global_threads(threads: usize) -> Result<(), GlobalPoolInitialized> {
    if GLOBAL.get().is_some() {
        return Err(GlobalPoolInitialized);
    }
    REQUESTED_THREADS
        .set(threads.max(1))
        .map_err(|_| GlobalPoolInitialized)
}

/// The lazily-created process-global pool.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(default_threads()))
}

fn with_current<R>(f: impl FnOnce(&Pool) -> R) -> R {
    let ambient = AMBIENT.with(|a| a.borrow().last().cloned());
    match ambient {
        Some(pool) => f(&pool),
        None => f(global()),
    }
}

/// Parallelism of the ambient pool (installed override or global).
pub fn current_threads() -> usize {
    with_current(|pool| pool.threads())
}

/// Order-preserving parallel map on the ambient pool.
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    with_current(|pool| pool.parallel_map(items, f))
}

/// Order-preserving map over coarse tasks on the ambient pool (see
/// [`Pool::map_tasks`]).
pub fn map_tasks<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    with_current(|pool| pool.map_tasks(items, f))
}

/// Chunked parallel for-each on the ambient pool; returns the ranges used.
pub fn run_chunks<F>(n: usize, f: F) -> Vec<Range<usize>>
where
    F: Fn(Range<usize>) + Sync,
{
    with_current(|pool| pool.run_chunks(n, f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_order_all_thread_counts() {
        let items: Vec<u64> = (0..10_000).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            assert_eq!(pool.parallel_map(&items, |&x| x * x), expected);
        }
    }

    #[test]
    fn map_indexed_sees_correct_indices() {
        let items: Vec<u64> = (0..5_000).collect();
        let pool = Pool::new(4);
        let out = pool.parallel_map_indexed(&items, |i, &x| (i as u64, x));
        for (i, (idx, x)) in out.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn uneven_work_balances() {
        let items: Vec<u64> = (0..500).collect();
        let pool = Pool::new(4);
        let out = pool.parallel_map(&items, |&x| {
            let mut acc = 0u64;
            for i in 0..(x % 97) * 1000 {
                acc = acc.wrapping_add(i);
            }
            let _ = acc;
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn small_input_sequential_path() {
        let items: Vec<u32> = (0..10).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..10).map(|x| x * 2).collect::<Vec<u32>>());
    }

    #[test]
    fn chunk_layout_is_thread_count_independent() {
        // The same n must produce the same ranges under any installed pool.
        let baseline = run_chunks(5000, |_| {});
        for threads in [1, 2, 8] {
            let ranges = Pool::new(threads).install(|| run_chunks(5000, |_| {}));
            assert_eq!(ranges, baseline);
        }
    }

    #[test]
    fn run_chunks_covers_everything_in_order() {
        let pool = Pool::new(4);
        let touched = AtomicU64::new(0);
        let ranges = pool.run_chunks(1000, |range| {
            touched.fetch_add(range.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(touched.load(Ordering::Relaxed), 1000);
        let mut expected_start = 0;
        for r in &ranges {
            assert_eq!(r.start, expected_start);
            expected_start = r.end;
        }
        assert_eq!(expected_start, 1000);
    }

    #[test]
    fn empty_inputs() {
        let pool = Pool::new(4);
        assert!(pool.parallel_map(&[] as &[u32], |&x| x).is_empty());
        assert!(pool.run_chunks(0, |_| {}).is_empty());
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = Pool::new(4);
        let items: Vec<u32> = (0..1000).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map(&items, |&x| {
                if x == 443 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        assert!(result.is_err());
        // The pool keeps working after a propagated panic.
        let ok = pool.parallel_map(&items, |&x| x + 1);
        assert_eq!(ok[999], 1000);
    }

    #[test]
    fn install_overrides_ambient_pool() {
        let pool = Pool::new(3);
        let outside = current_threads();
        let inside = pool.install(current_threads);
        assert_eq!(inside, 3);
        // Restored afterwards.
        assert_eq!(current_threads(), outside);
        // Nested installs stack.
        let inner = Pool::new(2);
        let got = pool.install(|| inner.install(current_threads));
        assert_eq!(got, 2);
    }

    #[test]
    fn nested_submission_does_not_deadlock() {
        let pool = Pool::new(2);
        let outer: Vec<u64> = (0..300).collect();
        let out = pool.parallel_map(&outer, |&x| {
            let inner: Vec<u64> = (0..100).collect();
            pool.parallel_map(&inner, |&y| y + x).iter().sum::<u64>()
        });
        assert_eq!(out.len(), 300);
        assert_eq!(out[0], (0..100).sum::<u64>());
    }

    #[test]
    fn map_tasks_preserves_order_and_runs_inline_on_one_thread() {
        let items: Vec<u64> = (0..21).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            assert_eq!(
                pool.map_tasks(&items, |&x| x * 3 + 1),
                expected,
                "threads={threads}"
            );
        }
        let me = std::thread::current().id();
        let ran_on = Pool::new(1).map_tasks(&items, |_| std::thread::current().id());
        assert!(
            ran_on.iter().all(|&id| id == me),
            "1-thread pool runs inline"
        );
        assert!(Pool::new(2).map_tasks(&[] as &[u8], |&x| x).is_empty());
    }

    #[test]
    fn map_tasks_panic_propagates_after_every_task_finished() {
        use std::sync::mpsc;
        use std::time::Duration;
        for threads in [2, 8] {
            let pool = Pool::new(threads);
            let items: Vec<usize> = (0..8).collect();
            let finished = AtomicUsize::new(0);
            let (panicked_tx, panicked_rx) = mpsc::channel::<()>();
            let (panicked_tx, panicked_rx) = (Mutex::new(panicked_tx), Mutex::new(panicked_rx));
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.map_tasks(&items, |&i| {
                    if i == 0 {
                        panicked_tx.lock().unwrap().send(()).unwrap();
                        panic!("task {i} fails");
                    }
                    if i == 1 {
                        // Still running after the panic has happened.
                        let rx = panicked_rx.lock().unwrap();
                        rx.recv_timeout(Duration::from_secs(10)).unwrap();
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    i
                })
            }));
            assert!(result.is_err(), "threads={threads}");
            assert_eq!(finished.load(Ordering::SeqCst), 7, "threads={threads}");
            assert_eq!(pool.map_tasks(&items, |&i| i + 1)[7], 8, "pool survives");
        }
    }

    #[test]
    fn map_tasks_allows_nested_parallel_map() {
        let pool = Pool::new(2);
        let inner: Vec<u64> = (0..1_000).collect();
        let out = pool.map_tasks(&[1u64, 2, 3], |&k| {
            pool.parallel_map(&inner, |&y| y * k).iter().sum::<u64>()
        });
        let base: u64 = inner.iter().sum();
        assert_eq!(out, vec![base, 2 * base, 3 * base]);
    }

    #[test]
    fn map_tasks_runs_two_tasks_concurrently() {
        use std::sync::mpsc;
        use std::time::Duration;
        // Each task signals the other and waits for the other's signal:
        // only two tasks running at once can both receive.
        let pool = Pool::new(2);
        let (tx0, rx0) = mpsc::channel::<()>();
        let (tx1, rx1) = mpsc::channel::<()>();
        let ends = [Mutex::new((tx0, rx1)), Mutex::new((tx1, rx0))];
        let met = pool.map_tasks(&ends, |end| {
            let end = end.lock().unwrap();
            end.0.send(()).unwrap();
            end.1.recv_timeout(Duration::from_secs(10)).is_ok()
        });
        assert_eq!(met, vec![true, true]);
    }

    /// Tracing is process-global: the span tests serialise on this gate
    /// and leave tracing off and the collector empty.
    fn traced<R>(f: impl FnOnce() -> R) -> (R, Vec<spec_obs::SpanRecord>) {
        static GATE: Mutex<()> = Mutex::new(());
        let _gate = GATE.lock().unwrap_or_else(|p| p.into_inner());
        spec_obs::set_enabled(false);
        spec_obs::reset();
        spec_obs::set_enabled(true);
        let out = f();
        spec_obs::set_enabled(false);
        let spans = spec_obs::take_spans();
        spec_obs::reset();
        (out, spans)
    }

    /// Two tasks that can only finish while both run at once, so one runs
    /// on the worker of a 2-thread pool; each opens a span named `name`.
    fn rendezvous(pool: &Pool, name: &'static str) {
        use std::sync::mpsc;
        use std::time::Duration;
        let (tx0, rx0) = mpsc::channel::<()>();
        let (tx1, rx1) = mpsc::channel::<()>();
        let ends = [Mutex::new((tx0, rx1)), Mutex::new((tx1, rx0))];
        let met = pool.map_tasks(&ends, |end| {
            let _span = spec_obs::span(name);
            let end = end.lock().unwrap();
            end.0.send(()).unwrap();
            end.1.recv_timeout(Duration::from_secs(10)).is_ok()
        });
        assert_eq!(met, vec![true, true]);
    }

    #[test]
    fn task_spans_nest_under_the_submitting_span_on_any_thread() {
        let pool = Pool::new(2);
        let items: Vec<u64> = (0..1_000).collect();
        let ((), spans) = traced(|| {
            {
                let _outer = spec_obs::span("outer");
                rendezvous(&pool, "task");
                pool.parallel_map(&items, |&x| {
                    let _span = spec_obs::span("item");
                    x
                });
            }
            // A later job submitted with no open span: whichever thread
            // runs its tasks, nothing inherits the earlier parent.
            rendezvous(&pool, "top");
        });
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let of = |name: &str| -> Vec<&spec_obs::SpanRecord> {
            spans.iter().filter(|s| s.name == name).collect()
        };
        let tasks = of("task");
        assert_eq!(tasks.len(), 2);
        assert_ne!(tasks[0].tid, tasks[1].tid, "the tasks ran on two threads");
        let items_spans = of("item");
        assert_eq!(items_spans.len(), items.len());
        for span in tasks.iter().chain(&items_spans) {
            assert_eq!(span.parent, Some(outer.id), "{} on tid {}", span.name, span.tid);
        }
        let tops = of("top");
        assert_eq!(tops.len(), 2);
        assert_ne!(tops[0].tid, tops[1].tid);
        assert!(tops.iter().all(|s| s.parent.is_none()), "stale parent on a worker");
    }

    #[test]
    fn global_pool_initializes_once() {
        let threads = global().threads();
        assert!(threads >= 1);
        assert!(std::ptr::eq(global(), global()));
    }
}

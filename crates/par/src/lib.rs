//! `hector-par`: a vendored, zero-dependency chunked threadpool.
//!
//! The build environment has no crates.io access, so the rayon-style
//! work splitting the parallel real-mode executor needs is vendored here,
//! like the `rand`/`proptest` stand-ins under `crates/vendor/`.
//! The API surface is the small slice Hector uses:
//!
//! * [`ThreadPool::for_each_chunk`] — the pool's only way to run work:
//!   a closure over contiguous index chunks of `0..n`, claimed by index
//!   with a `fetch_add`, so a warm parallel run performs zero heap
//!   allocations (callers keep per-chunk state in slots indexed by the
//!   chunk index). A fan-out of `k` jobs is `for_each_chunk(k, 1, ..)`;
//! * [`ParallelConfig`] — `num_threads` / `min_chunk_rows`, defaulted
//!   from the `HECTOR_THREADS` / `HECTOR_MIN_CHUNK_ROWS` variables;
//! * [`Prefetcher`] — a bounded background producer for pipelines that
//!   must keep work in flight *across* the caller's returns (mini-batch
//!   prefetch), which the structured `for_each_chunk` cannot express.
//!
//! # Scheduling
//!
//! A pool of `num_threads` means `num_threads - 1` background workers
//! plus the caller, which claims chunks too while it waits for a job to
//! drain — `ThreadPool::new(1)` is a valid pool with zero workers where
//! every chunk runs inline on the caller. One chunk job is live per pool
//! at a time; a nested or concurrent call runs its chunks inline on its
//! own caller. Chunk counts ([`ThreadPool::stats`]) surface per-kernel
//! through the runtime's device counters.
//!
//! # Determinism
//!
//! The pool makes no ordering promises — chunks run whenever a thread
//! claims them. Deterministic numerics are the *callers'* contract: chunk
//! boundaries are a pure function of `(n, min_chunk, parallelism)` via
//! [`chunk_ranges`], and every call gets its chunk index, so callers keep
//! partial results in per-chunk slots and merge them in chunk order.

#![warn(missing_docs)]

mod pipeline;

pub use pipeline::Prefetcher;

use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Type-erased chunk entry point `(closure, chunk_index, row_range)`,
/// monomorphized per closure type by [`chunk_harness`].
type ChunkHarness = unsafe fn(*const (), usize, Range<usize>);

/// Calls the published `Fn(usize, Range<usize>)` closure through its
/// type-erased pointer.
///
/// # Safety
///
/// `ctx` must point to a live `F` for the duration of the call — upheld
/// by [`ThreadPool::for_each_chunk`], which does not return until every
/// claimed chunk has finished.
unsafe fn chunk_harness<F: Fn(usize, Range<usize>) + Sync>(
    ctx: *const (),
    i: usize,
    range: Range<usize>,
) {
    let f = &*(ctx as *const F);
    f(i, range);
}

/// Low half of the packed chunk-claim word (the next unclaimed index);
/// the high half holds the active job's total chunk count.
const CHUNK_IDX_MASK: u64 = 0xffff_ffff;

/// Parallel-execution settings of an engine (`EngineBuilder::parallel`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Total parallelism (caller + workers). `1` means strictly
    /// sequential execution — the runtime takes the exact sequential
    /// code path, no pool is created at all.
    pub num_threads: usize,
    /// Minimum rows per chunk when splitting a row domain; domains
    /// smaller than `2 * min_chunk_rows` run as a single inline chunk.
    pub min_chunk_rows: usize,
}

impl ParallelConfig {
    /// Strictly sequential execution.
    #[must_use]
    pub fn sequential() -> ParallelConfig {
        ParallelConfig {
            num_threads: 1,
            min_chunk_rows: 128,
        }
    }

    /// Reads `HECTOR_THREADS` (default 1) and `HECTOR_MIN_CHUNK_ROWS`
    /// (default 128). Invalid or zero values fall back to the defaults.
    #[must_use]
    pub fn from_env() -> ParallelConfig {
        let threads = std::env::var("HECTOR_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or(1);
        let min_chunk = std::env::var("HECTOR_MIN_CHUNK_ROWS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&c| c >= 1)
            .unwrap_or(128);
        ParallelConfig {
            num_threads: threads,
            min_chunk_rows: min_chunk,
        }
    }

    /// Returns a copy with `num_threads` replaced.
    #[must_use]
    pub fn with_threads(mut self, n: usize) -> ParallelConfig {
        self.num_threads = n.max(1);
        self
    }

    /// Returns a copy with `min_chunk_rows` replaced.
    #[must_use]
    pub fn with_min_chunk_rows(mut self, rows: usize) -> ParallelConfig {
        self.min_chunk_rows = rows.max(1);
        self
    }

    /// Whether this configuration ever runs anything in parallel.
    #[must_use]
    pub fn is_parallel(&self) -> bool {
        self.num_threads > 1
    }
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig::from_env()
    }
}

/// Snapshot of pool activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Chunks executed (by workers, the helping caller, or inline on a
    /// caller that found the dispatcher busy or had one chunk).
    pub executed: u64,
    /// Background worker threads the pool was built with.
    pub workers: usize,
    /// Worker threads currently alive (0 after drop — the no-leak
    /// invariant the unit tests pin).
    pub live_workers: usize,
}

struct Shared {
    idle_lock: Mutex<()>,
    work_cv: Condvar,
    /// Workers that have reached their run loop. [`ThreadPool::new`]
    /// waits for all of them, so warm-path allocation accounting never
    /// sees a straggling worker's startup (per-thread runtime state).
    started: Mutex<usize>,
    started_cv: Condvar,
    shutdown: AtomicBool,
    executed: AtomicU64,
    live_workers: AtomicUsize,

    /// Packed claim word: `(total_chunks << 32) | next_index`. Zero when
    /// idle; claimed by `fetch_add(1)`, so each index is handed out once.
    chunk_claim: AtomicU64,
    /// Chunks published but not yet finished. The publisher blocks until
    /// this reaches zero, which pins the closure `chunk_ctx` points to.
    chunk_pending: AtomicUsize,
    /// Domain size `n` of the active job (for `chunk_range`).
    chunk_n: AtomicUsize,
    /// Type-erased pointer to the publisher's `Fn(usize, Range<usize>)`.
    chunk_ctx: AtomicPtr<()>,
    /// Monomorphized [`ChunkHarness`] for `chunk_ctx`'s concrete type.
    chunk_harness: AtomicPtr<()>,
    /// Publisher exclusivity flag: one chunk job is live at a time, and a
    /// nested or concurrent publisher runs its chunks inline.
    chunk_active: AtomicBool,
    chunk_done_lock: Mutex<()>,
    chunk_done_cv: Condvar,
    /// First panic payload from a chunk (allocates only when panicking).
    chunk_panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Shared {
    /// Whether the active chunk job (if any) still has unclaimed chunks.
    fn chunk_work_available(&self) -> bool {
        let w = self.chunk_claim.load(Ordering::Acquire);
        (w >> 32) > (w & CHUNK_IDX_MASK)
    }

    /// Claims and runs chunks of the active chunk job until none remain.
    /// Safe to call at any time — an idle dispatcher hands out a claim
    /// index past the (zero) total.
    fn run_chunk_jobs(&self) {
        loop {
            let word = self.chunk_claim.fetch_add(1, Ordering::AcqRel);
            let total = (word >> 32) as usize;
            let i = (word & CHUNK_IDX_MASK) as usize;
            if i >= total {
                return;
            }
            // SAFETY: a successful claim (`i < total`) pins the
            // publishing `for_each_chunk` frame: `chunk_pending` cannot
            // reach zero before this chunk's decrement below, and the
            // publisher does not return (or rewrite these fields) until
            // `chunk_pending == 0`. The `AcqRel` claim synchronizes with
            // the publisher's `Release` store of `chunk_claim` (release
            // sequences survive intervening RMWs), so the relaxed loads
            // below observe the published ctx/harness/n.
            let harness: ChunkHarness =
                unsafe { std::mem::transmute(self.chunk_harness.load(Ordering::Relaxed)) };
            let ctx = self.chunk_ctx.load(Ordering::Relaxed) as *const ();
            let n = self.chunk_n.load(Ordering::Relaxed);
            self.executed.fetch_add(1, Ordering::Relaxed);
            let result = panic::catch_unwind(AssertUnwindSafe(|| unsafe {
                harness(ctx, i, chunk_range(n, total, i))
            }));
            if let Err(p) = result {
                self.chunk_panic.lock().unwrap().get_or_insert(p);
            }
            if self.chunk_pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _g = self.chunk_done_lock.lock().unwrap();
                self.chunk_done_cv.notify_all();
            }
        }
    }

    /// Runs every chunk of the split on the calling thread, in chunk
    /// order, with [`ThreadPool::for_each_chunk`]'s panic semantics.
    fn run_inline<F: Fn(usize, Range<usize>)>(&self, n: usize, chunks: usize, f: &F) {
        let mut first_panic = None;
        for i in 0..chunks {
            self.executed.fetch_add(1, Ordering::Relaxed);
            let range = chunk_range(n, chunks, i);
            if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| f(i, range))) {
                first_panic.get_or_insert(p);
            }
        }
        if let Some(p) = first_panic {
            panic::resume_unwind(p);
        }
    }
}

fn worker_loop(shared: &Shared) {
    {
        let mut started = shared.started.lock().unwrap();
        *started += 1;
        shared.started_cv.notify_one();
    }
    while !shared.shutdown.load(Ordering::Acquire) {
        shared.run_chunk_jobs();
        let guard = shared.idle_lock.lock().unwrap();
        if shared.chunk_work_available() || shared.shutdown.load(Ordering::Acquire) {
            continue;
        }
        // Timeout bounds the cost of any wakeup race to one tick.
        let _ = shared
            .work_cv
            .wait_timeout(guard, Duration::from_millis(5))
            .unwrap();
    }
    shared.live_workers.fetch_sub(1, Ordering::AcqRel);
}

/// A chunked threadpool: [`ThreadPool::for_each_chunk`] is the one way
/// to run work on it.
///
/// Dropping the pool shuts the workers down and joins them — no worker
/// threads outlive the pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("parallelism", &self.parallelism())
            .field("stats", &self.stats())
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with total parallelism `num_threads` (the caller
    /// plus `num_threads - 1` background workers).
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is zero.
    #[must_use]
    pub fn new(num_threads: usize) -> ThreadPool {
        assert!(num_threads >= 1, "a pool needs at least one thread");
        let n_workers = num_threads - 1;
        let shared = Arc::new(Shared {
            idle_lock: Mutex::new(()),
            work_cv: Condvar::new(),
            started: Mutex::new(0),
            started_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            executed: AtomicU64::new(0),
            live_workers: AtomicUsize::new(n_workers),
            chunk_claim: AtomicU64::new(0),
            chunk_pending: AtomicUsize::new(0),
            chunk_n: AtomicUsize::new(0),
            chunk_ctx: AtomicPtr::new(std::ptr::null_mut()),
            chunk_harness: AtomicPtr::new(std::ptr::null_mut()),
            chunk_active: AtomicBool::new(false),
            chunk_done_lock: Mutex::new(()),
            chunk_done_cv: Condvar::new(),
            chunk_panic: Mutex::new(None),
        });
        let workers = (0..n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hector-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning pool worker")
            })
            .collect();
        // Rendezvous: wait for every worker to reach its run loop (see
        // `Shared::started`).
        let mut started = shared.started.lock().unwrap();
        while *started < n_workers {
            started = shared.started_cv.wait(started).unwrap();
        }
        drop(started);
        ThreadPool { shared, workers }
    }

    /// Creates a pool for `config`, or `None` when the configuration is
    /// sequential (callers take the exact sequential code path).
    #[must_use]
    pub fn from_config(config: &ParallelConfig) -> Option<ThreadPool> {
        config
            .is_parallel()
            .then(|| ThreadPool::new(config.num_threads))
    }

    /// Total parallelism: background workers plus the helping caller.
    #[must_use]
    pub fn parallelism(&self) -> usize {
        self.workers.len() + 1
    }

    /// Activity counters (cumulative over the pool's lifetime).
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            executed: self.shared.executed.load(Ordering::Relaxed),
            workers: self.workers.len(),
            live_workers: self.shared.live_workers.load(Ordering::Acquire),
        }
    }

    /// Splits `0..n` into the chunks of [`chunk_ranges`] and runs
    /// `f(chunk_index, range)` for each, in parallel, **without
    /// allocating**: the job is published through pool-owned atomics,
    /// workers claim indices with a `fetch_add`, and the caller helps
    /// until every chunk has run. Returns the chunk count (what
    /// [`chunk_count`] predicts), so callers can index per-chunk slots;
    /// `n == 0` is a no-op returning 0.
    ///
    /// A single-chunk split runs inline on the caller, and so does a
    /// nested or concurrent call (the dispatcher is busy): in chunk order,
    /// same split, each chunk counted in [`PoolStats::executed`]. Results
    /// cannot differ, because callers key determinism on the chunk index.
    ///
    /// # Panics
    ///
    /// A panic in `f` stops the rest of *its own* chunk's range only; the
    /// first payload resumes on the caller once every chunk has finished.
    /// (A fan-out of ≤ `4 × parallelism` jobs at `min_chunk = 1` has one
    /// job per chunk, so no job skips another.)
    pub fn for_each_chunk<F>(&self, n: usize, min_chunk: usize, f: F) -> usize
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        let chunks = chunk_count(n, min_chunk, self.parallelism());
        if chunks == 0 {
            return 0;
        }
        let s = &*self.shared;
        if chunks == 1
            || s.chunk_active
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            s.run_inline(n, chunks, &f);
            return chunks;
        }
        s.chunk_ctx
            .store(&f as *const F as *const () as *mut (), Ordering::Relaxed);
        s.chunk_harness
            .store(chunk_harness::<F> as *mut (), Ordering::Relaxed);
        s.chunk_n.store(n, Ordering::Relaxed);
        s.chunk_pending.store(chunks, Ordering::Relaxed);
        // Publish: the Release store pairs with the AcqRel claims in
        // `run_chunk_jobs`, making the stores above visible to claimers.
        s.chunk_claim
            .store((chunks as u64) << 32, Ordering::Release);
        {
            let _g = s.idle_lock.lock().unwrap();
            s.work_cv.notify_all();
        }
        // The caller is one of the pool's threads: claim chunks too.
        s.run_chunk_jobs();
        // Wait for straggler workers still running claimed chunks.
        {
            let mut guard = s.chunk_done_lock.lock().unwrap();
            while s.chunk_pending.load(Ordering::Acquire) != 0 {
                guard = s
                    .chunk_done_cv
                    .wait_timeout(guard, Duration::from_millis(5))
                    .unwrap()
                    .0;
            }
        }
        // Retire the job before releasing publisher exclusivity.
        s.chunk_claim.store(0, Ordering::Release);
        s.chunk_ctx.store(std::ptr::null_mut(), Ordering::Relaxed);
        s.chunk_active.store(false, Ordering::Release);
        // Bind before unwinding so the guard drops first (an `if let`
        // scrutinee guard would stay held across `resume_unwind` and
        // poison the mutex).
        let chunk_panic = s.chunk_panic.lock().unwrap().take();
        if let Some(p) = chunk_panic {
            panic::resume_unwind(p);
        }
        chunks
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = self.shared.idle_lock.lock().unwrap();
            self.shared.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Splits `0..n` into contiguous, balanced chunks of at least
/// `min_chunk` items (except when `n < min_chunk`, which yields one
/// undersized chunk). At most `4 × parallelism` chunks are produced so
/// per-chunk overhead stays bounded while uneven chunks still balance
/// across threads. Pure function of its arguments — chunk boundaries
/// never depend on scheduling, which the determinism tests rely on.
#[must_use]
pub fn chunk_ranges(n: usize, min_chunk: usize, parallelism: usize) -> Vec<Range<usize>> {
    let chunks = chunk_count(n, min_chunk, parallelism);
    (0..chunks).map(|i| chunk_range(n, chunks, i)).collect()
}

/// Number of chunks [`chunk_ranges`] splits `0..n` into — O(1), for
/// callers that size per-chunk state without materialising the ranges.
/// Zero for an empty domain.
#[must_use]
pub fn chunk_count(n: usize, min_chunk: usize, parallelism: usize) -> usize {
    if n == 0 {
        return 0;
    }
    (n / min_chunk.max(1)).clamp(1, parallelism.max(1) * 4)
}

/// The `i`-th of `chunks` balanced contiguous ranges over `0..n` — O(1),
/// identical to `chunk_ranges(..)[i]` when `chunks` came from
/// [`chunk_count`] with the same `n`. Requires `i < chunks` and
/// `chunks >= 1`.
#[must_use]
pub fn chunk_range(n: usize, chunks: usize, i: usize) -> Range<usize> {
    debug_assert!(i < chunks);
    let base = n / chunks;
    let rem = n % chunks;
    let start = i * base + i.min(rem);
    start..start + base + usize::from(i < rem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for n in [0usize, 1, 7, 128, 1000, 1001] {
            for min_chunk in [1usize, 16, 128, 4096] {
                for par in [1usize, 2, 4, 8] {
                    let ranges = chunk_ranges(n, min_chunk, par);
                    let mut seen = vec![0u8; n];
                    for r in &ranges {
                        for i in r.clone() {
                            seen[i] += 1;
                        }
                    }
                    assert!(seen.iter().all(|&c| c == 1), "n={n} min={min_chunk}");
                    assert!(ranges.len() <= par * 4);
                    if n > 0 {
                        assert!(!ranges.is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_for_empty_and_single_item() {
        let pool = ThreadPool::new(4);
        let calls = AtomicU32::new(0);
        pool.for_each_chunk(0, 8, |_c, _r| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 0, "empty domain: no calls");
        pool.for_each_chunk(1, 8, |c, r| {
            assert_eq!((c, r), (0, 0..1));
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "single item: one inline call"
        );
    }

    #[test]
    fn zero_worker_pool_runs_everything_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.stats().workers, 0);
        let sum = AtomicU64::new(0);
        let chunks = pool.for_each_chunk(100, 1, |_c, range| {
            sum.fetch_add(range.map(|i| i as u64).sum::<u64>(), Ordering::Relaxed);
        });
        assert_eq!(chunks, 4, "a zero-worker pool still splits");
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = ThreadPool::new(6);
        assert_eq!(pool.stats().workers, 5);
        // Give the workers something to chew on before shutdown.
        pool.for_each_chunk(500, 1, |_c, _r| {});
        let shared = Arc::clone(&pool.shared);
        drop(pool);
        assert_eq!(
            shared.live_workers.load(Ordering::Acquire),
            0,
            "drop must join every worker (no leaked threads)"
        );
    }

    #[test]
    fn executed_counter_tracks_chunks() {
        let pool = ThreadPool::new(2);
        let before = pool.stats().executed;
        pool.for_each_chunk(1000, 10, |_c, _r| {});
        let after = pool.stats().executed;
        let chunks = chunk_ranges(1000, 10, pool.parallelism()).len() as u64;
        assert_eq!(after - before, chunks);
    }

    #[test]
    fn chunk_count_and_range_agree_with_chunk_ranges() {
        for n in [0usize, 1, 7, 128, 1000, 1001] {
            for min_chunk in [1usize, 16, 128, 4096] {
                for par in [1usize, 2, 4, 8] {
                    let ranges = chunk_ranges(n, min_chunk, par);
                    let count = chunk_count(n, min_chunk, par);
                    assert_eq!(ranges.len(), count, "n={n} min={min_chunk} par={par}");
                    for (i, r) in ranges.iter().enumerate() {
                        assert_eq!(*r, chunk_range(n, count, i));
                    }
                }
            }
        }
    }

    #[test]
    fn for_each_chunk_visits_every_index_once() {
        let pool = ThreadPool::new(4);
        let chunks = visit_each_once(&pool, 1000, 16);
        assert!(chunks > 1, "1000 rows at min_chunk 16 must split");
    }

    /// Runs one `for_each_chunk` over `0..n` and checks that it visited
    /// every index exactly once, in the predicted number of chunks.
    fn visit_each_once(pool: &ThreadPool, n: usize, min_chunk: usize) -> usize {
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let chunks = pool.for_each_chunk(n, min_chunk, |_c, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(chunks, chunk_count(n, min_chunk, pool.parallelism()));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "n={n}");
        chunks
    }

    #[test]
    fn for_each_chunk_counts_executed_per_chunk() {
        let pool = ThreadPool::new(2);
        let before = pool.stats().executed;
        let chunks = pool.for_each_chunk(1000, 10, |_c, _r| {}) as u64;
        assert_eq!(pool.stats().executed - before, chunks);
        // Single-chunk inline fast path still counts one job.
        let before = pool.stats().executed;
        assert_eq!(pool.for_each_chunk(5, 128, |_c, _r| {}), 1);
        assert_eq!(pool.stats().executed - before, 1);
        // Empty domain: nothing runs, nothing counted.
        let before = pool.stats().executed;
        assert_eq!(pool.for_each_chunk(0, 128, |_c, _r| {}), 0);
        assert_eq!(pool.stats().executed - before, 0);
    }

    #[test]
    fn for_each_chunk_repeated_runs_stay_correct() {
        // The dispatcher state is pool-owned and reused; stale claim
        // attempts from a previous job must never corrupt the next one.
        let pool = ThreadPool::new(4);
        for round in 0..50usize {
            let n = 64 + round;
            let sum = AtomicU64::new(0);
            pool.for_each_chunk(n, 4, |_c, range| {
                sum.fetch_add(range.map(|i| i as u64).sum::<u64>(), Ordering::Relaxed);
            });
            let expect = (n as u64 * (n as u64 - 1)) / 2;
            assert_eq!(sum.load(Ordering::Relaxed), expect, "round {round}");
        }
    }

    #[test]
    fn nested_for_each_chunk_falls_back_and_completes() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicU32> = (0..256).map(|_| AtomicU32::new(0)).collect();
        pool.for_each_chunk(4, 1, |outer, _r| {
            // Nested call while the dispatcher is busy: runs inline.
            pool.for_each_chunk(64, 8, |_c, range| {
                for i in range {
                    hits[outer * 64 + i].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn for_each_chunk_panic_propagates_after_drain() {
        let pool = ThreadPool::new(4);
        let completed = AtomicU32::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_chunk(64, 1, |c, _r| {
                if c == 3 {
                    panic!("chunk 3 exploded");
                }
                completed.fetch_add(1, Ordering::Relaxed);
            });
        }));
        let p = result.expect_err("panic must reach the publisher");
        let msg = p
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("chunk 3 exploded"), "payload preserved: {msg}");
        // Every other chunk still ran: the job drained fully.
        assert_eq!(
            completed.load(Ordering::Relaxed) as usize,
            chunk_count(64, 1, pool.parallelism()) - 1
        );
        // The pool stays usable after a panicked chunk job.
        let sum = AtomicU64::new(0);
        pool.for_each_chunk(100, 1, |_c, range| {
            sum.fetch_add(range.count() as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn concurrent_publishers_each_visit_every_index_once() {
        // Two threads start together and race for the dispatcher over 50
        // calls each; a loser runs inline. No index is lost or repeated.
        let pool = ThreadPool::new(4);
        let before = pool.stats().executed;
        let total = AtomicU64::new(0);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|t| {
            for publisher in 0..2usize {
                let (pool, total, start) = (&pool, &total, &start);
                t.spawn(move || {
                    start.wait();
                    for round in 0..50usize {
                        let chunks = visit_each_once(pool, 100 + 37 * publisher + round, 4);
                        total.fetch_add(chunks as u64, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(
            pool.stats().executed - before,
            total.load(Ordering::Relaxed)
        );
    }
}

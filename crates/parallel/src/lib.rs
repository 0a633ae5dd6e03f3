//! Scoped work-stealing thread pool for the GENIEx workspace.
//!
//! The stack's cost is dominated by embarrassingly parallel loops:
//! independent Newton–Raphson crossbar solves during dataset/sweep
//! generation, per-tile/per-bit-slice MVMs in the functional
//! simulator, and per-sample gradient work during training. This crate
//! parallelizes those loops with plain `std::thread` primitives — the
//! build environment is offline, so like the in-tree `rand`/`proptest`
//! stand-ins it depends on nothing outside std (plus `telemetry` for
//! counters).
//!
//! # Determinism contract
//!
//! Every combinator here is *bit-identical across thread counts*:
//!
//! * [`par_map`]/[`ThreadPool::par_map`] evaluate a pure function per
//!   element and collect results **by index**, so the output is the
//!   same `Vec` the serial `map` would produce.
//! * [`par_reduce`] folds chunk results **in chunk order** (a strict
//!   left fold), so even non-associative reductions (f32/f64 sums)
//!   give one answer for any `GENIEX_THREADS`. The answer depends on
//!   the `grain` (chunk size) — callers must pass a fixed grain, never
//!   one derived from the thread count.
//! * [`ThreadPool::scope`]/[`par_chunks_mut`] write disjoint output
//!   regions; any schedule produces the same memory contents.
//!
//! Callers keep RNG streams deterministic by drawing all random inputs
//! serially *before* fanning out (see `xbar::sweep`), so parallel
//! results are byte-identical to the historical serial code, not just
//! internally consistent.
//!
//! # Pool architecture
//!
//! One queue per worker ([`Mutex<VecDeque>`]); submissions are
//! distributed round-robin; an idle worker pops its own queue from the
//! front and steals from the *back* of other queues. Workers park on a
//! condvar guarded by a pending-job count. A thread that blocks in
//! [`ThreadPool::scope`] waiting for its tasks *helps* — it runs queued
//! jobs (from any scope) while it waits — which makes nested
//! scopes/`par_map`-inside-`par_map` deadlock-free: the bottom of any
//! nesting chain is a plain task that runs to completion.
//!
//! Because the waiting caller runs tasks too, a pool of width `n`
//! spawns `n − 1` workers, so a fan-out from one caller runs on
//! exactly `n` threads. (`n` workers plus the helping caller would keep
//! `n + 1` threads runnable on `n` CPUs; on a two-vCPU host that
//! oversubscription slowed single-image inference for seconds at a
//! time, at about 1.5× the per-image CPU time.)
//!
//! A task panic is caught on the worker, carried to the owning scope,
//! and resumed on the caller once all of the scope's tasks finished —
//! the same contract as `std::thread::scope`.
//!
//! # Example
//!
//! ```
//! let squares = parallel::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Parses a thread-count override the way `GENIEX_THREADS` is parsed:
/// a positive integer wins, anything else falls back.
fn parse_threads(value: Option<&str>, fallback: usize) -> usize {
    value
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(fallback)
}

/// The pool size the `GENIEX_THREADS` environment variable requests:
/// the variable's value if it is a positive integer, otherwise the
/// machine's available parallelism.
pub fn default_threads() -> usize {
    let fallback = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    parse_threads(std::env::var("GENIEX_THREADS").ok().as_deref(), fallback)
}

/// Per-pool telemetry handles (resolved once at pool construction).
struct PoolMetrics {
    tasks: Arc<telemetry::Counter>,
    steals: Arc<telemetry::Counter>,
    queue_depth: Arc<telemetry::Gauge>,
    task_seconds: Arc<telemetry::Histogram>,
    /// Number of tasks executing right now (busy workers + helping
    /// callers) — the pool-utilization gauge.
    active: Arc<telemetry::Gauge>,
    /// Per-worker accounting, indexed by the worker's home queue.
    worker_tasks: Vec<Arc<telemetry::Counter>>,
    worker_steals: Vec<Arc<telemetry::Counter>>,
    worker_idle_waits: Vec<Arc<telemetry::Counter>>,
    /// Trace event names, preformatted so the per-task trace hooks
    /// never allocate.
    task_trace_name: String,
    active_trace_name: String,
    steal_trace_name: String,
}

impl PoolMetrics {
    fn new(name: &str, workers: usize) -> Self {
        let per_worker = |what: &str| {
            (0..workers)
                .map(|w| telemetry::counter(&format!("parallel.{name}.worker{w}.{what}")))
                .collect()
        };
        PoolMetrics {
            tasks: telemetry::counter(&format!("parallel.{name}.tasks")),
            steals: telemetry::counter(&format!("parallel.{name}.steals")),
            queue_depth: telemetry::gauge(&format!("parallel.{name}.queue_depth")),
            task_seconds: telemetry::histogram(
                &format!("parallel.{name}.task_seconds"),
                &telemetry::exponential_buckets(1e-6, 4.0, 12),
            ),
            active: telemetry::gauge(&format!("parallel.{name}.active_workers")),
            worker_tasks: per_worker("tasks"),
            worker_steals: per_worker("steals"),
            worker_idle_waits: per_worker("idle_waits"),
            task_trace_name: format!("parallel.{name}.task"),
            active_trace_name: format!("parallel.{name}.active_workers"),
            steal_trace_name: format!("parallel.{name}.steal"),
        }
    }
}

/// State shared between the pool handle and its workers.
struct Shared {
    /// One deque per worker; owners pop the front, thieves the back.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Queued-but-not-yet-taken job count, guarded by the mutex the
    /// idle workers park on.
    pending_jobs: Mutex<usize>,
    work_available: Condvar,
    shutdown: AtomicBool,
    next_queue: AtomicUsize,
    metrics: PoolMetrics,
}

impl Shared {
    fn push(&self, job: Job) {
        let idx = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[idx].lock().unwrap().push_back(job);
        {
            let mut pending = self.pending_jobs.lock().unwrap();
            *pending += 1;
        }
        self.work_available.notify_one();
        if telemetry::enabled() {
            self.metrics.queue_depth.add(1.0);
        }
    }

    /// Takes one queued job: the caller's own queue first (FIFO), then
    /// steals the coldest job (back of the deque) from the others.
    /// `worker` identifies a pool worker for per-worker accounting;
    /// `None` marks a caller helping from [`ThreadPool::wait_scope`].
    fn take(&self, home: usize, worker: Option<usize>) -> Option<Job> {
        let n = self.queues.len();
        for k in 0..n {
            let idx = (home + k) % n;
            let job = {
                let mut q = self.queues[idx].lock().unwrap();
                if k == 0 {
                    q.pop_front()
                } else {
                    q.pop_back()
                }
            };
            if let Some(job) = job {
                {
                    let mut pending = self.pending_jobs.lock().unwrap();
                    *pending = pending.saturating_sub(1);
                }
                if telemetry::enabled() {
                    self.metrics.queue_depth.add(-1.0);
                    if k != 0 {
                        self.metrics.steals.inc();
                        if let Some(w) = worker {
                            self.metrics.worker_steals[w].inc();
                        }
                    }
                }
                if k != 0 && telemetry::trace_active() {
                    telemetry::trace_instant(
                        &self.metrics.steal_trace_name,
                        vec![
                            ("from".to_string(), telemetry::Json::from(idx)),
                            (
                                "by".to_string(),
                                worker.map_or(telemetry::Json::Str("caller".into()), |w| {
                                    telemetry::Json::from(w)
                                }),
                            ),
                        ],
                    );
                }
                return Some(job);
            }
        }
        None
    }

    /// Runs one job. Scope-spawned jobs catch their own panics; the
    /// extra guard here keeps a worker alive even if bookkeeping in a
    /// foreign job unwinds.
    fn run(&self, job: Job, worker: Option<usize>) {
        let enabled = telemetry::enabled();
        let tracing = telemetry::trace_active();
        if !enabled && !tracing {
            let _ = catch_unwind(AssertUnwindSafe(job));
            return;
        }
        if enabled {
            self.metrics.tasks.inc();
            if let Some(w) = worker {
                self.metrics.worker_tasks[w].inc();
            }
            self.metrics.active.add(1.0);
        }
        if tracing {
            telemetry::trace_counter(&self.metrics.active_trace_name, self.metrics.active.get());
            telemetry::trace_begin(&self.metrics.task_trace_name, Vec::new());
        }
        let start = Instant::now();
        let _ = catch_unwind(AssertUnwindSafe(job));
        if enabled {
            self.metrics
                .task_seconds
                .observe(start.elapsed().as_secs_f64());
            self.metrics.active.add(-1.0);
        }
        if tracing {
            telemetry::trace_end(&self.metrics.task_trace_name, Vec::new());
            telemetry::trace_counter(&self.metrics.active_trace_name, self.metrics.active.get());
        }
    }

    fn worker_loop(self: Arc<Self>, home: usize) {
        loop {
            if let Some(job) = self.take(home, Some(home)) {
                self.run(job, Some(home));
                continue;
            }
            let mut pending = self.pending_jobs.lock().unwrap();
            loop {
                if self.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if *pending > 0 {
                    break;
                }
                if telemetry::enabled() {
                    self.metrics.worker_idle_waits[home].inc();
                }
                pending = self.work_available.wait(pending).unwrap();
            }
        }
    }
}

/// Completion state of one [`ThreadPool::scope`].
struct ScopeState {
    /// Spawned-but-unfinished task count.
    pending_tasks: Mutex<usize>,
    all_done: Condvar,
    /// First panic payload captured from a task, if any.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            pending_tasks: Mutex::new(0),
            all_done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }
}

/// A scope in which borrowed tasks can be spawned; created by
/// [`ThreadPool::scope`]. Mirrors `std::thread::Scope`.
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope ThreadPool,
    state: Arc<ScopeState>,
    /// Invariance over `'scope`, exactly as in `std::thread::scope`.
    scope_marker: PhantomData<&'scope mut &'scope ()>,
    env_marker: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task that may borrow from the enclosing scope. On a
    /// one-thread pool the task runs inline, giving exactly the serial
    /// execution order.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        if self.pool.workers.is_empty() {
            f();
            return;
        }
        {
            let mut pending = self.state.pending_tasks.lock().unwrap();
            *pending += 1;
        }
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().unwrap();
                slot.get_or_insert(payload);
            }
            let mut pending = state.pending_tasks.lock().unwrap();
            *pending -= 1;
            if *pending == 0 {
                state.all_done.notify_all();
            }
        });
        // SAFETY: the job borrows data alive for `'scope`. It is only
        // ever run before `ThreadPool::scope` returns: `scope` waits
        // (in `wait_scope`) until `pending_tasks` reaches zero — also
        // on the panic path — and each job decrements that count only
        // after the user closure finished. Erasing the lifetime to
        // `'static` therefore never lets the closure outlive its
        // borrows.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.shared.push(job);
    }
}

/// A fixed-size work-stealing thread pool.
///
/// Most code uses the process-wide [`global`] pool (sized by
/// `GENIEX_THREADS`); dedicated pools exist so benchmarks can compare
/// thread counts within one process.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Creates a pool of width `threads` (0 is treated as 1): `threads
    /// − 1` workers plus the caller, which runs queued tasks while it
    /// waits in [`ThreadPool::scope`]. A one-thread pool spawns no
    /// workers at all: every combinator runs inline on the caller.
    pub fn new(threads: usize) -> Self {
        Self::with_name(threads, "pool")
    }

    /// Like [`ThreadPool::new`] with a telemetry prefix: metrics are
    /// registered as `parallel.<name>.{tasks,steals,queue_depth,
    /// task_seconds,active_workers}` plus per-worker
    /// `parallel.<name>.worker<i>.{tasks,steals,idle_waits}`; while a
    /// trace records, each task contributes a begin/end pair and an
    /// `active_workers` counter track.
    pub fn with_name(threads: usize, name: &str) -> Self {
        let threads = threads.max(1);
        let worker_count = threads - 1;
        let shared = Arc::new(Shared {
            queues: (0..worker_count.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            pending_jobs: Mutex::new(0),
            work_available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_queue: AtomicUsize::new(0),
            metrics: PoolMetrics::new(name, worker_count.max(1)),
        });
        let workers = (0..worker_count)
            .map(|home| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("geniex-{name}-{home}"))
                    .spawn(move || shared.worker_loop(home))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            threads,
        }
    }

    /// The configured pool size.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` with a [`Scope`] that can spawn borrowed tasks, and
    /// returns once every spawned task finished. While waiting, the
    /// calling thread runs queued jobs itself (so nested scopes cannot
    /// deadlock). If `f` or any task panicked, the panic is resumed
    /// here — but only after all tasks completed, so borrows stay
    /// sound.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let state = Arc::new(ScopeState::new());
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            scope_marker: PhantomData,
            env_marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.wait_scope(&state);
        if let Some(payload) = state.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Blocks until the scope's tasks are done, running queued jobs
    /// (from any scope) in the meantime.
    fn wait_scope(&self, state: &ScopeState) {
        loop {
            if *state.pending_tasks.lock().unwrap() == 0 {
                return;
            }
            if let Some(job) = self.shared.take(0, None) {
                self.shared.run(job, None);
                continue;
            }
            let pending = state.pending_tasks.lock().unwrap();
            if *pending == 0 {
                return;
            }
            // The remaining tasks are running on other threads. Wake on
            // completion; the timeout lets us resume helping if more
            // work lands in the queues while we sleep.
            let _ = state
                .all_done
                .wait_timeout(pending, Duration::from_millis(1))
                .unwrap();
        }
    }

    /// The chunk size [`ThreadPool::par_map`] uses: a few tasks per
    /// worker so stealing can balance uneven costs. Only valid for
    /// order-insensitive combinators (`par_map` collects by index);
    /// ordered reductions need a caller-fixed grain.
    fn auto_grain(&self, n: usize) -> usize {
        n.div_ceil(self.threads * 4).max(1)
    }

    /// Maps `f` over `items` in parallel, collecting results by index.
    /// Bit-identical to `items.iter().map(f).collect()` for pure `f`.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_grained(items, self.auto_grain(items.len()), f)
    }

    /// [`ThreadPool::par_map`] with an explicit chunk size (`grain`
    /// consecutive items per task).
    pub fn par_map_grained<T, R, F>(&self, items: &[T], grain: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        let grain = grain.max(1);
        if self.threads <= 1 || n <= grain {
            return items.iter().map(f).collect();
        }
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let f = &f;
        self.scope(|s| {
            for (chunk_in, chunk_out) in items.chunks(grain).zip(out.chunks_mut(grain)) {
                s.spawn(move || {
                    for (item, slot) in chunk_in.iter().zip(chunk_out.iter_mut()) {
                        *slot = Some(f(item));
                    }
                });
            }
        });
        out.into_iter()
            .map(|slot| slot.expect("scope waits for every task"))
            .collect()
    }

    /// Calls `f(i)` for every `i in 0..n` in parallel, `grain` indices
    /// per task. `f` must only touch disjoint or synchronized state.
    pub fn par_for<F>(&self, n: usize, grain: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let grain = grain.max(1);
        if self.threads <= 1 || n <= grain {
            for i in 0..n {
                f(i);
            }
            return;
        }
        let f = &f;
        self.scope(|s| {
            let mut start = 0;
            while start < n {
                let end = (start + grain).min(n);
                s.spawn(move || {
                    for i in start..end {
                        f(i);
                    }
                });
                start = end;
            }
        });
    }

    /// Splits `data` into `chunk`-sized pieces and calls
    /// `f(chunk_index, piece)` for each in parallel. The pieces are
    /// disjoint `&mut` slices, so any schedule writes the same bytes.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk = chunk.max(1);
        if self.threads <= 1 || data.len() <= chunk {
            for (i, piece) in data.chunks_mut(chunk).enumerate() {
                f(i, piece);
            }
            return;
        }
        let f = &f;
        self.scope(|s| {
            for (i, piece) in data.chunks_mut(chunk).enumerate() {
                s.spawn(move || f(i, piece));
            }
        });
    }

    /// Ordered deterministic reduction: maps `grain`-sized chunks of
    /// `items` in parallel, then left-folds the chunk results **in
    /// chunk order** on the calling thread. Returns `None` for empty
    /// input.
    ///
    /// The result is independent of the thread count and of task
    /// scheduling — it depends only on `items` and `grain` — which
    /// makes non-associative folds (floating-point sums) reproducible.
    pub fn par_reduce<T, A, M, O>(
        &self,
        items: &[T],
        grain: usize,
        map_chunk: M,
        fold: O,
    ) -> Option<A>
    where
        T: Sync,
        A: Send,
        M: Fn(&[T]) -> A + Sync,
        O: FnMut(A, A) -> A,
    {
        let grain = grain.max(1);
        let chunks: Vec<&[T]> = items.chunks(grain).collect();
        let partials = self.par_map_grained(&chunks, 1, |chunk| map_chunk(chunk));
        partials.into_iter().reduce(fold)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            // Pair the flag with the parked workers' mutex so none can
            // re-sleep past the notification.
            let _pending = self.shared.pending_jobs.lock().unwrap();
            self.shared.work_available.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

/// The process-wide pool, created on first use with width
/// [`default_threads`] (i.e. `GENIEX_THREADS` or the machine's
/// available parallelism).
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::with_name(default_threads(), "global"))
}

/// [`ThreadPool::scope`] on the [`global`] pool.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
{
    global().scope(f)
}

/// [`ThreadPool::par_map`] on the [`global`] pool.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    global().par_map(items, f)
}

/// [`ThreadPool::par_map_grained`] on the [`global`] pool.
pub fn par_map_grained<T, R, F>(items: &[T], grain: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    global().par_map_grained(items, grain, f)
}

/// [`ThreadPool::par_for`] on the [`global`] pool.
pub fn par_for<F>(n: usize, grain: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    global().par_for(n, grain, f);
}

/// [`ThreadPool::par_chunks_mut`] on the [`global`] pool.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    global().par_chunks_mut(data, chunk, f);
}

/// [`ThreadPool::par_reduce`] on the [`global`] pool.
pub fn par_reduce<T, A, M, O>(items: &[T], grain: usize, map_chunk: M, fold: O) -> Option<A>
where
    T: Sync,
    A: Send,
    M: Fn(&[T]) -> A + Sync,
    O: FnMut(A, A) -> A,
{
    global().par_reduce(items, grain, map_chunk, fold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn threads_env_parsing() {
        assert_eq!(parse_threads(Some("4"), 2), 4);
        assert_eq!(parse_threads(Some(" 8 "), 2), 8);
        assert_eq!(parse_threads(Some("0"), 2), 2);
        assert_eq!(parse_threads(Some("-3"), 2), 2);
        assert_eq!(parse_threads(Some("lots"), 2), 2);
        assert_eq!(parse_threads(None, 3), 3);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn par_map_matches_serial_across_pool_sizes() {
        let items: Vec<u64> = (0..137).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            assert_eq!(pool.par_map(&items, |&x| x * x + 1), expect);
            assert_eq!(pool.par_map_grained(&items, 5, |&x| x * x + 1), expect);
        }
        assert_eq!(par_map(&items, |&x| x * x + 1), expect);
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(pool.par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn scoped_tasks_borrow_stack_data() {
        // Tasks read a stack slice and write disjoint chunks of a
        // stack buffer — the scoped-borrow soundness contract.
        let input: Vec<u64> = (0..64).collect();
        let mut out = vec![0u64; 64];
        let pool = ThreadPool::new(4);
        pool.scope(|s| {
            for (i, chunk) in out.chunks_mut(8).enumerate() {
                let input = &input;
                s.spawn(move || {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        *slot = input[i * 8 + j] * 3;
                    }
                });
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
    }

    #[test]
    fn par_chunks_mut_covers_all_elements() {
        let mut data = vec![1u32; 100];
        let pool = ThreadPool::new(3);
        pool.par_chunks_mut(&mut data, 7, |idx, chunk| {
            for v in chunk.iter_mut() {
                *v += idx as u32;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, 1 + (i / 7) as u32);
        }
    }

    #[test]
    fn par_for_visits_every_index_once() {
        let hits: Vec<AtomicU64> = (0..53).map(|_| AtomicU64::new(0)).collect();
        let pool = ThreadPool::new(4);
        pool.par_for(hits.len(), 4, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn panic_propagates_from_worker_task() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..16 {
                    s.spawn(move || {
                        if i == 11 {
                            panic!("boom from task {i}");
                        }
                    });
                }
            });
        }));
        let payload = result.expect_err("task panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("boom from task 11"), "got {msg:?}");
        // The pool stays usable after a propagated panic.
        assert_eq!(pool.par_map(&[1, 2, 3], |&x: &i32| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn panic_propagates_inline_on_one_thread_pool() {
        let pool = ThreadPool::new(1);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| s.spawn(|| panic!("inline boom")));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn par_map_panic_resumes_after_all_tasks_finish() {
        // Even with a panicking element, every other task completes
        // before the panic resumes (the drop guard ran), so no borrow
        // outlives the call.
        let done = AtomicU64::new(0);
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_grained(&(0..32).collect::<Vec<u64>>(), 1, |&x| {
                if x == 13 {
                    panic!("unlucky");
                }
                done.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        assert!(result.is_err());
        assert_eq!(done.load(Ordering::Relaxed), 31);
    }

    /// A deliberately non-associative f64 fold: chunk sums mix huge and
    /// tiny magnitudes, so any reordering changes the result bits.
    fn adversarial_reduce(pool: &ThreadPool, items: &[f64], grain: usize) -> u64 {
        let sum = pool
            .par_reduce(
                items,
                grain,
                |chunk| {
                    // Adversarial durations: later chunks finish first,
                    // so an unordered fold would combine out of order.
                    let d = u64::from(chunk[0] < 64.0);
                    std::thread::sleep(Duration::from_millis(d));
                    chunk
                        .iter()
                        .fold(0.0f64, |a, &x| a + x * 1e10 + 1.0 / (x + 1.0))
                },
                |a, b| a + b,
            )
            .unwrap();
        sum.to_bits()
    }

    #[test]
    fn ordered_reduction_is_thread_count_invariant() {
        let items: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let serial = ThreadPool::new(1);
        let expect = adversarial_reduce(&serial, &items, 8);
        for threads in [2, 4, 8] {
            let pool = ThreadPool::new(threads);
            for _ in 0..3 {
                assert_eq!(
                    adversarial_reduce(&pool, &items, 8),
                    expect,
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn par_reduce_empty_and_singleton() {
        let pool = ThreadPool::new(2);
        assert_eq!(
            pool.par_reduce(&[] as &[f64], 4, |c| c.len(), |a, b| a + b),
            None
        );
        assert_eq!(
            pool.par_reduce(&[5.0], 4, |c| c.len(), |a, b| a + b),
            Some(1)
        );
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // Inner par_map calls run on pool workers that are themselves
        // inside an outer par_map task; the caller-helps wait keeps
        // everything moving even on a 2-thread pool.
        let pool = ThreadPool::new(2);
        let outer: Vec<u64> = (0..8).collect();
        let result = pool.par_map_grained(&outer, 1, |&i| {
            let inner: Vec<u64> = (0..8).map(|j| i * 8 + j).collect();
            pool.par_map_grained(&inner, 1, |&x| x * 2)
                .iter()
                .sum::<u64>()
        });
        let expect: Vec<u64> = (0..8u64)
            .map(|i| (0..8).map(|j| (i * 8 + j) * 2).sum())
            .collect();
        assert_eq!(result, expect);
    }

    #[test]
    fn fan_out_runs_on_at_most_width_threads() {
        // The caller helps, so a width-3 pool fans out over itself and
        // two workers, never more.
        let pool = ThreadPool::new(3);
        let items: Vec<u64> = (0..24).collect();
        let runners = Mutex::new(std::collections::HashSet::new());
        let _ = pool.par_map_grained(&items, 1, |&x| {
            runners.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(Duration::from_micros(500));
            x
        });
        let runners = runners.into_inner().unwrap();
        assert!(runners.len() <= 3, "{} threads ran tasks", runners.len());
        assert!(runners.contains(&std::thread::current().id()));
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = ThreadPool::new(2);
        let v = pool.scope(|s| {
            s.spawn(|| {});
            42
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn per_worker_accounting_sums_to_pool_totals() {
        let _guard = telemetry::test_lock();
        telemetry::set_enabled(true);
        let pool = ThreadPool::with_name(4, "acct_test");
        let items: Vec<u64> = (0..64).collect();
        let _ = pool.par_map_grained(&items, 1, |&x| x * 2);
        telemetry::set_enabled(false);
        let m = &pool.shared.metrics;
        let total = m.tasks.get();
        assert!(total >= items.len() as u64 / 2, "tasks counted: {total}");
        let by_worker: u64 = m.worker_tasks.iter().map(|c| c.get()).sum();
        // Helper (caller) tasks have no worker index, so per-worker
        // counts never exceed the pool total.
        assert!(by_worker <= total, "{by_worker} > {total}");
        let steals_by_worker: u64 = m.worker_steals.iter().map(|c| c.get()).sum();
        assert!(steals_by_worker <= m.steals.get());
        // No task still running: the utilization gauge returned to 0.
        assert_eq!(m.active.get(), 0.0);
    }

    #[test]
    fn trace_records_pool_task_spans() {
        let _guard = telemetry::test_lock();
        let path = std::env::temp_dir().join(format!(
            "geniex-parallel-trace-{}.trace.json",
            std::process::id()
        ));
        telemetry::start_trace(&path).expect("start trace");
        let pool = ThreadPool::with_name(3, "trace_test");
        let items: Vec<u64> = (0..32).collect();
        // A small sleep keeps tasks in flight long enough that the
        // workers (not just the helping caller) participate.
        let _ = pool.par_map_grained(&items, 1, |&x| {
            std::thread::sleep(Duration::from_micros(300));
            x + 1
        });
        let written = telemetry::finish_trace().expect("finish").expect("path");
        let text = std::fs::read_to_string(&written).expect("read");
        let trace = telemetry::json::parse(&text).expect("valid JSON");
        let events = trace
            .get("traceEvents")
            .and_then(telemetry::Json::as_arr)
            .expect("traceEvents");
        let task_begins = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(telemetry::Json::as_str) == Some("B")
                    && e.get("name").and_then(telemetry::Json::as_str)
                        == Some("parallel.trace_test.task")
            })
            .count();
        assert_eq!(task_begins, 32, "every task contributes one span");
        // The utilization counter track is present alongside the task
        // spans.
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(telemetry::Json::as_str) == Some("C")
                && e.get("name").and_then(telemetry::Json::as_str)
                    == Some("parallel.trace_test.active_workers")
        }));
        std::fs::remove_file(&written).ok();
    }

    proptest! {
        #[test]
        fn par_map_equals_serial_map(
            values in proptest::collection::vec(-1e6f64..1e6, 0..200),
            grain in 1usize..32,
            threads in 1usize..9,
        ) {
            let pool = ThreadPool::new(threads);
            let expect: Vec<u64> = values
                .iter()
                .map(|&x| (x * 1.5 - 3.0).to_bits())
                .collect();
            let got = pool.par_map_grained(&values, grain, |&x| (x * 1.5 - 3.0).to_bits());
            prop_assert_eq!(got, expect);
        }
    }
}

//! Scoped thread pool for the Aergia workspace.
//!
//! The build containers are offline, so this crate is the vendored stand-in
//! for [rayon](https://docs.rs/rayon): it implements the small API subset the
//! workspace uses — [`scope`]/[`Scope::spawn`] and the slice helpers
//! [`ThreadPool::par_chunks_mut`] / [`ThreadPool::par_for_each_mut`] —
//! with compatible semantics, so `[workspace.dependencies]` stays the swap
//! point for the real crate.
//!
//! # Design
//!
//! *Work is claimed, never nested.*
//!
//! **Who participates.** A pool of `n` threads spawns `n - 1` workers; the
//! thread that opens a scope is the `n`-th participant for as long as it is
//! inside that scope, so `n` threads compute on `n` cores.
//!
//! **Slice helpers claim indices.** [`ThreadPool::par_chunks_mut`] and
//! [`ThreadPool::par_for_each_mut`] publish one cursor over the chunk
//! indices, queue at most `min(threads, chunks) - 1` helper jobs and run the
//! same claim loop on the caller: every participant takes the next index
//! with one `fetch_add` until none is left. A call therefore costs a
//! handful of queue operations however many chunks it has, and a helper
//! that nobody picked up finds the cursor exhausted and returns at once.
//!
//! **What a waiter may run.** Every scope has a *depth*: 0 when opened
//! outside any scope, `d + 1` when opened from the body or a job of a
//! depth-`d` scope. Jobs queue by the depth of their scope. A thread that
//! waits for a depth-`d` scope runs only jobs of depth `d` or deeper — its
//! own scope's jobs and finer-grained work such as the tile helpers of
//! other tasks' GEMMs — and never a job of a shallower scope. A client task
//! blocked in a parallel GEMM thus cannot start a second client task
//! underneath itself: the depths of the jobs on any thread's stack strictly
//! increase, which bounds the stack and means a lock held by an outer task
//! is never re-entered by a same-level task on the same thread. Workers and
//! the outermost waiter (depth 0) take anything, coarsest first, so the
//! tail of a stage is still balanced by tile-level helping. A waiter can
//! always run its own scope's queued jobs, so nested scopes cannot deadlock.
//!
//! **Sleeping.** Threads with nothing eligible to run sleep on one condition
//! variable; a push or a finished scope wakes them only when the sleeper
//! count is non-zero, so a busy pool makes no system calls. Nothing spins.
//!
//! # Determinism
//!
//! The pool schedules *where* and *when* independent pieces run, never
//! *what* they compute: chunk boundaries and indices depend only on the
//! input (`chunk_len`, item order), and each index is claimed exactly once.
//! Which thread claims which index, and in what order, varies from run to
//! run; callers that keep pieces free of shared mutable state (all workspace
//! callers do) therefore get results that are bit-identical across pool
//! sizes, including the single-threaded inline pool.
//!
//! # Sizing
//!
//! [`ThreadPool::global`] sizes itself from `AERGIA_THREADS` when set and
//! from [`std::thread::available_parallelism`] otherwise. A size of 1 spawns
//! no workers at all: every operation degenerates to an inline loop on the
//! calling thread.
//!
//! # Examples
//!
//! Chunk boundaries depend only on `chunk_len`, never on the pool size,
//! so the result below is identical on a 1-thread and a 16-thread pool:
//!
//! ```
//! use aergia_runtime::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let mut data = vec![1.0f32; 1000];
//! pool.par_chunks_mut(&mut data, 256, |chunk_index, chunk| {
//!     for value in chunk {
//!         *value += chunk_index as f32;
//!     }
//! });
//! assert_eq!(data[0], 1.0); // chunk 0
//! assert_eq!(data[999], 4.0); // chunk 3
//! ```

#![warn(missing_docs)]

pub mod alloc_count;

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A queued job; the thread that runs it passes its own handle on the pool.
type Job = Box<dyn FnOnce(&Shared) + Send + 'static>;
type PanicPayload = Box<dyn Any + Send + 'static>;

thread_local! {
    /// The depth a scope opened on this thread right now would get: 0
    /// outside any scope, `d + 1` inside the body or a job of a depth-`d`
    /// scope.
    static LEVEL: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` (which must not unwind) with [`LEVEL`] set to `level`.
fn at_level<R>(level: usize, f: impl FnOnce() -> R) -> R {
    let outer = LEVEL.replace(level);
    let result = f();
    LEVEL.set(outer);
    result
}

/// State shared between the workers, the spawners and the waiters.
struct Shared {
    /// Queued jobs, one FIFO per scope depth.
    queues: Mutex<Vec<VecDeque<Job>>>,
    /// Waited on with the `queues` lock; signalled after a push, a finished
    /// scope or shutdown, but only while `sleepers` is non-zero.
    wake: Condvar,
    /// Threads inside, or committed to entering, `wake.wait`.
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
}

impl Shared {
    fn lock_queues(&self) -> std::sync::MutexGuard<'_, Vec<VecDeque<Job>>> {
        self.queues.lock().expect("a pool thread panicked while holding the job queues")
    }

    fn push(&self, depth: usize, job: Job) {
        let mut queues = self.lock_queues();
        if queues.len() <= depth {
            queues.resize_with(depth + 1, VecDeque::new);
        }
        queues[depth].push_back(job);
        drop(queues);
        // A thread about to sleep raised `sleepers` under the queue lock
        // before releasing it in `wait`, so it is either counted here or it
        // locked after this push and saw the job.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // All of them: a sleeper may be barred from this job's depth.
            self.wake.notify_all();
        }
    }

    /// Wakes the sleepers after `done` flipped outside the queue lock.
    /// Pairs with [`Shared::run_until`]: the sleeper raises `sleepers`
    /// and then reads `done`, the caller sets `done` and then reads
    /// `sleepers` (all `SeqCst`), so at least one sees the other.
    fn wake_sleepers(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Taking the lock orders this after a sleeper's check-then-wait.
            drop(self.lock_queues());
            self.wake.notify_all();
        }
    }

    /// Runs queued jobs of depth `min_depth` or deeper, shallowest first,
    /// until `done()`; sleeps while there is nothing eligible.
    fn run_until(&self, min_depth: usize, done: impl Fn() -> bool) {
        let mut queues = self.lock_queues();
        while !done() {
            let job = queues.iter_mut().skip(min_depth).find_map(VecDeque::pop_front);
            if let Some(job) = job {
                drop(queues);
                job(self);
                queues = self.lock_queues();
                continue;
            }
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            if !done() {
                queues = self.wake.wait(queues).expect("job queues poisoned while sleeping");
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// A scoped thread pool (see the crate docs for the scheduling rules).
///
/// Construct explicitly with [`ThreadPool::new`] (tests, custom sizing) or
/// use the process-wide [`ThreadPool::global`].
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("threads", &self.threads).finish()
    }
}

impl ThreadPool {
    /// Creates a pool with a parallelism of `threads`: `threads - 1`
    /// workers plus the thread that opens a scope. `threads <= 1` creates
    /// an *inline* pool: no threads are spawned and every spawn runs
    /// immediately on the caller.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queues: Mutex::new(Vec::new()),
            wake: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("aergia-rt-{index}"))
                    .spawn(move || {
                        shared.run_until(0, || shared.shutdown.load(Ordering::SeqCst));
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers, threads: threads.max(1) }
    }

    /// The process-wide pool, created on first use. Sized by the
    /// `AERGIA_THREADS` environment variable when set (and ≥ 1), otherwise
    /// by [`std::thread::available_parallelism`].
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ThreadPool::new(default_threads()))
    }

    /// The pool's parallelism (1 for an inline pool).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn is_inline(&self) -> bool {
        self.workers.is_empty()
    }

    /// Runs `op` with a [`Scope`] on which tasks borrowing local state can
    /// be spawned; returns only after every spawned task has completed.
    /// While it waits, the caller runs queued jobs of this scope's depth or
    /// deeper (see the crate docs).
    ///
    /// # Panics
    ///
    /// If `op` or any spawned task panics, the panic is resumed on the
    /// caller after all tasks have finished (the first task payload wins).
    pub fn scope<'scope, R>(&'scope self, op: impl FnOnce(&Scope<'scope>) -> R) -> R {
        let depth = LEVEL.get();
        let scope = Scope {
            pool: self,
            depth,
            state: ScopeState { pending: AtomicUsize::new(0), panic: Mutex::new(None) },
            _marker: PhantomData,
        };
        let result = at_level(depth + 1, || panic::catch_unwind(AssertUnwindSafe(|| op(&scope))));
        // Wait even when `op` panicked: spawned jobs hold borrows into the
        // caller's stack (and into `scope.state`) and must finish first.
        let pending = &scope.state.pending;
        self.shared.run_until(depth, || pending.load(Ordering::SeqCst) == 0);
        let payload = scope.state.panic.into_inner().expect("panic slot is never poisoned");
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Splits `data` into chunks of `chunk_len` elements and runs
    /// `f(chunk_index, chunk)` exactly once for each, in parallel. Chunk
    /// boundaries depend only on `chunk_len`, never on the pool size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero, or propagates the first panic raised
    /// inside `f` after the remaining chunks have run.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "par_chunks_mut: chunk_len must be positive");
        self.claim_chunks(data, chunk_len, self.threads, &f);
    }

    /// Runs `f` on every item, in parallel, on at most `max_tasks` threads
    /// at a time (`0` = no cap beyond the pool size). Threads claim items
    /// one at a time in slice order.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised inside `f`.
    pub fn par_for_each_mut<T, F>(&self, items: &mut [T], max_tasks: usize, f: F)
    where
        T: Send,
        F: Fn(&mut T) + Sync,
    {
        let tasks = if max_tasks == 0 { self.threads } else { max_tasks.min(self.threads) };
        self.claim_chunks(items, 1, tasks, &|_, item: &mut [T]| f(&mut item[0]));
    }

    /// The claim loop behind both slice helpers: `tasks` participants (the
    /// caller and `tasks - 1` queued helpers, never more than there are
    /// chunks) take chunk indices off one shared cursor.
    fn claim_chunks<T, F>(&self, data: &mut [T], chunk_len: usize, tasks: usize, f: &F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let len = data.len();
        let chunks = len.div_ceil(chunk_len);
        let tasks = tasks.min(chunks);
        if tasks <= 1 {
            for (index, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(index, chunk);
            }
            return;
        }
        let base = SendPtr(data.as_mut_ptr());
        let cursor = AtomicUsize::new(0);
        let claim = || loop {
            // Relaxed: the cursor only hands out indices; the scope's
            // completion count publishes what the chunks wrote.
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= chunks {
                break;
            }
            let start = index * chunk_len;
            // SAFETY: `fetch_add` hands every index below `chunks` to
            // exactly one participant, so the ranges `start .. start +
            // chunk_len` (the last one cut at `len`) are disjoint parts of
            // `data`, which stays mutably borrowed until the scope below
            // has seen every participant finish.
            let chunk = unsafe {
                std::slice::from_raw_parts_mut(base.get().add(start), chunk_len.min(len - start))
            };
            f(index, chunk);
        };
        // A participant whose chunk panics stops claiming; the others —
        // at the latest the caller's own wait, which runs any helper still
        // queued — take the remaining chunks before the panic is resumed.
        self.scope(|s| {
            for _ in 1..tasks {
                s.spawn(claim);
            }
            claim();
        });
    }
}

/// A raw pointer that may cross threads. It is only an address: each site
/// that dereferences it argues its own safety.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// By-value accessor, so closures capture the wrapper, not the field.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: holding the wrapper gives no access to a `T`. The dereference
// sites hand other threads either disjoint `&mut [T]` chunks, which is
// sending `T`s, or a shared `ScopeState`, which is `Sync`.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_sleepers();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// What the jobs of one scope share with its waiter.
struct ScopeState {
    /// Spawned jobs that have not finished yet.
    pending: AtomicUsize,
    /// The first panic payload raised by a job.
    panic: Mutex<Option<PanicPayload>>,
}

impl ScopeState {
    fn record_panic(&self, payload: PanicPayload) {
        self.panic.lock().expect("panic slot is never poisoned").get_or_insert(payload);
    }
}

/// A spawn handle tied to one [`ThreadPool::scope`] invocation.
///
/// Mirrors `rayon::Scope`: tasks may borrow anything that outlives the
/// `scope` call.
pub struct Scope<'scope> {
    pool: &'scope ThreadPool,
    /// Nesting depth: the queue this scope's jobs wait in.
    depth: usize,
    state: ScopeState,
    /// Invariant over `'scope` and `!Sync`, like `std::thread::Scope`.
    _marker: PhantomData<Cell<&'scope mut &'scope ()>>,
}

impl<'scope> Scope<'scope> {
    /// Queues `f` on the pool. On an inline pool, runs it immediately.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        if self.pool.is_inline() {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
                self.state.record_panic(payload);
            }
            return;
        }
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let state = SendPtr(std::ptr::from_ref(&self.state).cast_mut());
        let level = self.depth + 1;
        let job: Box<dyn FnOnce(&Shared) + Send + 'scope> = Box::new(move |shared| {
            // SAFETY: `ThreadPool::scope` keeps `self.state` alive until
            // `pending` reaches zero, which the decrement below — this
            // job's last access to it — is what allows; `ScopeState` is
            // `Sync` (an atomic and a mutex), so sharing it is sound.
            let state = unsafe { &*state.get() };
            if let Err(payload) = at_level(level, || panic::catch_unwind(AssertUnwindSafe(f))) {
                state.record_panic(payload);
            }
            if state.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                shared.wake_sleepers();
            }
        });
        // SAFETY: `ThreadPool::scope` does not return before this job has
        // run to completion (it waits for `pending` to reach zero), so
        // every `'scope` borrow captured by the job strictly outlives its
        // execution; erasing the lifetime is sound.
        let job: Job =
            unsafe { mem::transmute::<Box<dyn FnOnce(&Shared) + Send + 'scope>, Job>(job) };
        self.pool.shared.push(self.depth, job);
    }
}

fn default_threads() -> usize {
    match std::env::var("AERGIA_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// [`ThreadPool::scope`] on the global pool.
pub fn scope<'scope, R>(op: impl FnOnce(&Scope<'scope>) -> R) -> R {
    ThreadPool::global().scope(op)
}

/// The global pool's parallelism (1 when parallelism is unavailable or
/// disabled via `AERGIA_THREADS=1`).
#[must_use]
pub fn parallelism() -> usize {
    ThreadPool::global().threads()
}

/// [`ThreadPool::par_chunks_mut`] on the global pool.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    ThreadPool::global().par_chunks_mut(data, chunk_len, f);
}

/// [`ThreadPool::par_for_each_mut`] on the global pool.
pub fn par_for_each_mut<T, F>(items: &mut [T], max_tasks: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    ThreadPool::global().par_for_each_mut(items, max_tasks, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::time::Duration;

    #[test]
    fn scoped_tasks_borrow_and_mutate_local_state() {
        let pool = ThreadPool::new(4);
        let mut values = vec![0u64; 100];
        pool.scope(|s| {
            for (i, v) in values.iter_mut().enumerate() {
                s.spawn(move || *v = (i as u64) * 3);
            }
        });
        assert!(values.iter().enumerate().all(|(i, &v)| v == (i as u64) * 3));
    }

    #[test]
    fn a_pool_of_n_spawns_n_minus_one_workers() {
        for (threads, workers) in [(0, 0), (1, 0), (2, 1), (5, 4)] {
            let pool = ThreadPool::new(threads);
            assert_eq!(pool.workers.len(), workers);
            assert_eq!(pool.threads(), threads.max(1));
        }
    }

    /// `f(index, chunk)` runs exactly once per chunk, with the index and
    /// range `chunks_mut` would give, whatever the pool size.
    #[test]
    fn par_chunks_mut_visits_every_chunk_once_at_fixed_boundaries() {
        const LEN: usize = 1003;
        const CHUNK: usize = 64;
        let expected: Vec<(usize, usize, usize)> =
            (0..LEN.div_ceil(CHUNK)).map(|i| (i, i * CHUNK, CHUNK.min(LEN - i * CHUNK))).collect();
        assert_eq!(expected.last(), Some(&(15, 960, 43)), "ragged tail");
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let mut data = vec![0u32; LEN];
            let base = data.as_ptr() as usize;
            let seen = Mutex::new(Vec::new());
            pool.par_chunks_mut(&mut data, CHUNK, |index, chunk| {
                let offset = (chunk.as_ptr() as usize - base) / mem::size_of::<u32>();
                seen.lock().unwrap().push((index, offset, chunk.len()));
                for x in chunk {
                    *x += index as u32 + 1;
                }
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, expected, "{threads} threads");
            assert!(data.iter().enumerate().all(|(i, &x)| x == (i / CHUNK) as u32 + 1));
        }
    }

    #[test]
    fn work_actually_distributes_across_threads() {
        let pool = ThreadPool::new(4);
        let ids = Mutex::new(HashSet::new());
        pool.scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(20));
                    ids.lock().unwrap().insert(std::thread::current().id());
                });
            }
        });
        assert!(ids.lock().unwrap().len() >= 2, "all 16 sleeps ran on one thread");
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // The engine's shape: parallel clients, each running parallel
        // matmul tiles, with more outer tasks than threads.
        let pool = ThreadPool::new(2);
        let mut totals = vec![0usize; 8];
        pool.par_for_each_mut(&mut totals, 0, |slot| {
            let mut inner = vec![1usize; 64];
            pool.par_chunks_mut(&mut inner, 8, |ci, chunk| {
                for x in chunk {
                    *x += ci;
                }
            });
            *slot = inner.iter().sum();
        });
        let expected: usize = (0..8).map(|ci| 8 * (1 + ci)).sum();
        assert!(totals.iter().all(|&t| t == expected));
    }

    thread_local! {
        /// Outer tasks currently on this thread's stack.
        static LIVE_OUTER: Cell<usize> = const { Cell::new(0) };
    }

    /// One outer task: counts itself live on this thread for as long as it
    /// runs an inner parallel loop, and reports the most it ever saw.
    fn outer_task(pool: &ThreadPool, most_live: &AtomicUsize) {
        let live = LIVE_OUTER.get() + 1;
        LIVE_OUTER.set(live);
        most_live.fetch_max(live, Ordering::SeqCst);
        let mut inner = vec![0u64; 4096];
        pool.par_chunks_mut(&mut inner, 64, |ci, chunk| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = (ci * 64 + j) as u64;
            }
        });
        assert!(inner.iter().enumerate().all(|(i, &x)| x == i as u64));
        LIVE_OUTER.set(live - 1);
    }

    /// A thread waiting in an outer task's inner loop must not start
    /// another outer task underneath it — whether the outer tasks are
    /// queued jobs (31 of them are eligible-looking work every time the
    /// caller waits for its own inner helper) or claimed items.
    #[test]
    fn no_thread_ever_stacks_two_outer_tasks() {
        for threads in [2, 3] {
            let pool = ThreadPool::new(threads);
            let most_live = AtomicUsize::new(0);
            pool.scope(|s| {
                for _ in 0..32 {
                    s.spawn(|| outer_task(&pool, &most_live));
                }
            });
            let mut items = [(); 32];
            pool.par_for_each_mut(&mut items, 0, |()| outer_task(&pool, &most_live));
            assert_eq!(most_live.load(Ordering::SeqCst), 1, "{threads} threads");
        }
    }

    #[test]
    fn panics_propagate_to_the_scope_caller() {
        let pool = ThreadPool::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom in task"));
                s.spawn(|| std::thread::sleep(Duration::from_millis(5)));
            });
        }));
        let payload = caught.expect_err("scope must re-raise the task panic");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "boom in task");
    }

    #[test]
    fn a_panicking_chunk_reaches_the_caller_after_the_others_ran() {
        for threads in [2, 3] {
            let pool = ThreadPool::new(threads);
            let ran = AtomicUsize::new(0);
            let mut data = vec![0u8; 16 * 4];
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.par_chunks_mut(&mut data, 4, |index, _| {
                    assert!(index != 5, "boom in chunk");
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }));
            let payload = caught.expect_err("par_chunks_mut must re-raise the chunk panic");
            assert_eq!(payload.downcast_ref::<&str>().copied(), Some("boom in chunk"));
            assert_eq!(ran.load(Ordering::SeqCst), 15, "{threads} threads");
        }
    }

    #[test]
    fn par_for_each_mut_respects_the_task_cap() {
        let pool = ThreadPool::new(4);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let mut items = vec![0u8; 12];
        pool.par_for_each_mut(&mut items, 2, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(5));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "cap of 2 concurrent tasks exceeded");
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pool = ThreadPool::new(3);
        let mut hits = [false; 32];
        pool.scope(|s| {
            for hit in hits.iter_mut() {
                s.spawn(move || *hit = true);
            }
        });
        drop(pool);
        assert!(hits.iter().all(|&h| h));
    }
}

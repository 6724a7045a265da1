//! The persistent work-stealing runtime.
//!
//! Every parallel subsystem — fragment translation, CEGIS candidate
//! screening, verification obligations, and the data-plane shuffle —
//! runs on one long-lived executor, so no verify and no shuffle pays
//! thread spawn/teardown:
//!
//! - **Per-worker deques + global injectors + stealing.** Tasks
//!   submitted from outside the pool land in one of three global
//!   injector queues (one per [`Priority`]); tasks spawned from inside
//!   a worker land on that worker's own deque. Idle workers drain their
//!   own deque first (newest-first, for locality), then the injectors
//!   in priority order, then steal oldest-first from siblings.
//! - **Explicit priorities.** Verification obligations ([`Priority::High`])
//!   never starve behind shuffle buckets ([`Priority::Low`]); candidate
//!   screening and fragment translation ride in between
//!   ([`Priority::Normal`]).
//! - **Park/unpark.** Workers with nothing to run park on a condvar and
//!   are woken by the next submission; an idle executor burns no CPU.
//!
//! # Determinism
//!
//! [`Executor::parallel_for`] deals indices through an atomic cursor.
//! Callers write to indexed slots and adjudicate lowest-index-wins, so
//! *which thread*
//! runs an index never affects the outcome: results are bit-identical
//! at any worker count, including the serial path (see
//! `tests/parallel_consistency.rs` at the workspace root).
//!
//! # Deadlock freedom
//!
//! The submitting thread is always a participant: [`Executor::parallel_for`]
//! drains the job's cursor on the calling thread and only waits for
//! indices another worker already claimed. A job therefore completes
//! even if every pool worker is busy or parked — helpers only ever
//! *accelerate* a job, they are never required for progress. Nested
//! `parallel_for` calls (a translating fragment screening candidates,
//! a screen verifying a candidate) wait only on strictly-younger jobs,
//! so waits cannot cycle.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Survives only as the label `benchmark/` reads through
/// `CasperConfig::runtime`; goes at the next benchmark re-baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeMode {
    /// The persistent work-stealing executor (this crate).
    #[default]
    Persistent,
}

impl RuntimeMode {
    pub fn name(self) -> &'static str {
        "persistent"
    }
}

/// Task priority class. Lower-numbered classes are drained first from
/// the global injectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Verification obligations — latency-critical, never queued behind
    /// bulk work.
    High = 0,
    /// Candidate screening and fragment translation.
    Normal = 1,
    /// Data-plane work: shuffle bucketing, partition maps.
    Low = 2,
}

const PRIORITIES: usize = 3;

/// A monotonically-increasing snapshot of the executor's counters.
/// Subtract two snapshots ([`ExecutorStats::since`]) to attribute work
/// to a region, e.g. one suite translation or one service request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Helper tasks pushed to the injectors or a worker deque.
    pub submitted: u64,
    /// Tasks a pool worker picked up and ran (stale helpers included).
    pub executed: u64,
    /// Tasks taken from a sibling worker's deque.
    pub steals: u64,
    /// Times a worker went to sleep with nothing to run.
    pub parks: u64,
    /// High-water mark of tasks queued at once.
    pub max_queue_depth: u64,
    /// Nanoseconds pool workers spent running tasks (excludes the
    /// submitting thread's own participation).
    pub worker_busy_ns: u64,
}

impl ExecutorStats {
    /// Counter deltas since an earlier snapshot. `max_queue_depth` is a
    /// high-water mark, not a counter, so the later absolute value is
    /// kept.
    pub fn since(&self, earlier: &ExecutorStats) -> ExecutorStats {
        ExecutorStats {
            submitted: self.submitted - earlier.submitted,
            executed: self.executed - earlier.executed,
            steals: self.steals - earlier.steals,
            parks: self.parks - earlier.parks,
            max_queue_depth: self.max_queue_depth,
            worker_busy_ns: self.worker_busy_ns - earlier.worker_busy_ns,
        }
    }
}

/// One `parallel_for` job: an atomic cursor dealing indices `0..n`, a
/// completion count, a type-erased pointer to the caller's closure, and
/// the first panic any index raised.
///
/// # Safety
///
/// `func` borrows from the submitting thread's stack, but the cursor is
/// monotone: once it passes `n`, no participant ever dereferences
/// `func` again. The submitting thread returns from `parallel_for` only
/// after `completed == n`, which requires every claimed index `< n` to
/// have *finished* running — so `func` is dereferenced only while the
/// borrow it was created from is still live. An index that panics still
/// finishes: its panic is caught and it is counted, so neither a pool
/// worker nor the submitter unwinds past a live claim. Stale tasks
/// drained later observe `cursor >= n` and drop their `Arc<Job>` without
/// touching it.
struct Job {
    cursor: AtomicUsize,
    n: usize,
    completed: AtomicUsize,
    func: &'static (dyn Fn(usize) + Sync),
    /// The first panic payload, re-raised on the submitting thread once
    /// every index has finished.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Job {
    /// Claim and run indices until the cursor is exhausted. Shared by
    /// the submitting thread and every helper task.
    fn drain(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            // i < n, so the job is not yet complete and the closure
            // borrow is live (see the struct docs).
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.func)(i))) {
                self.panic
                    .lock()
                    .expect("job panic slot")
                    .get_or_insert(payload);
            }
            // AcqRel chains every finisher's writes into the release
            // sequence the waiting submitter acquires through the mutex.
            if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
                *self.done.lock().expect("job latch") = true;
                self.done_cv.notify_all();
            }
        }
    }

    /// Block until every index has finished running.
    fn wait(&self) {
        let mut done = self.done.lock().expect("job latch");
        while !*done {
            done = self.done_cv.wait(done).expect("job latch");
        }
    }
}

struct Counters {
    submitted: AtomicU64,
    executed: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
    max_queue_depth: AtomicU64,
    worker_busy_ns: AtomicU64,
    /// Tasks currently queued (injectors + worker deques), maintained
    /// for cheap park decisions and the queue-depth high-water mark.
    pending: AtomicUsize,
}

struct Inner {
    injectors: [Mutex<VecDeque<Arc<Job>>>; PRIORITIES],
    deques: Vec<Mutex<VecDeque<Arc<Job>>>>,
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
}

thread_local! {
    /// `(executor identity, worker index)` for pool threads, so nested
    /// submissions land on the running worker's own deque.
    static WORKER: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, usize::MAX)) };
}

impl Inner {
    fn id(self: &Arc<Inner>) -> usize {
        Arc::as_ptr(self) as usize
    }

    /// Queue a helper task and wake a parked worker.
    fn inject(self: &Arc<Inner>, job: Arc<Job>, prio: Priority) {
        // Count the task before publishing it: a worker that pops it
        // the instant it lands must never decrement `pending` below the
        // increment that announced it.
        let depth = self.counters.pending.fetch_add(1, Ordering::Relaxed) as u64 + 1;
        self.counters
            .max_queue_depth
            .fetch_max(depth, Ordering::Relaxed);
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let (exec_id, me) = WORKER.get();
        if exec_id == self.id() && me < self.deques.len() {
            self.deques[me].lock().expect("deque").push_back(job);
        } else {
            self.injectors[prio as usize]
                .lock()
                .expect("injector")
                .push_back(job);
        }
        // Pair the queue write with the wakeup under the sleep lock so a
        // worker that just re-checked empty queues cannot miss it.
        drop(self.sleep.lock().expect("sleep lock"));
        self.wake.notify_one();
    }

    /// Next task for worker `me`: own deque newest-first, injectors in
    /// priority order, then steal oldest-first from siblings.
    fn find_task(&self, me: usize) -> Option<Arc<Job>> {
        if let Some(job) = self.deques[me].lock().expect("deque").pop_back() {
            self.counters.pending.fetch_sub(1, Ordering::Relaxed);
            return Some(job);
        }
        for injector in &self.injectors {
            if let Some(job) = injector.lock().expect("injector").pop_front() {
                self.counters.pending.fetch_sub(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        for offset in 1..self.deques.len() {
            let victim = (me + offset) % self.deques.len();
            if let Some(job) = self.deques[victim].lock().expect("deque").pop_front() {
                self.counters.pending.fetch_sub(1, Ordering::Relaxed);
                self.counters.steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    fn worker_loop(self: Arc<Inner>, me: usize) {
        WORKER.set((self.id(), me));
        loop {
            if let Some(job) = self.find_task(me) {
                let started = Instant::now();
                job.drain();
                self.counters
                    .worker_busy_ns
                    .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                self.counters.executed.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let guard = self.sleep.lock().expect("sleep lock");
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            if self.counters.pending.load(Ordering::Relaxed) > 0 {
                continue; // a task arrived between the scan and the lock
            }
            self.counters.parks.fetch_add(1, Ordering::Relaxed);
            drop(self.wake.wait(guard).expect("sleep lock"));
        }
    }
}

/// A long-lived pool of worker threads. Most callers use the
/// process-wide [`global`] instance; tests build private pools with
/// [`Executor::new`] (joined on drop).
pub struct Executor {
    inner: Arc<Inner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Spawn a pool of `workers` threads (at least one).
    pub fn new(workers: usize) -> Executor {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            injectors: std::array::from_fn(|_| Mutex::new(VecDeque::new())),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Counters {
                submitted: AtomicU64::new(0),
                executed: AtomicU64::new(0),
                steals: AtomicU64::new(0),
                parks: AtomicU64::new(0),
                max_queue_depth: AtomicU64::new(0),
                worker_busy_ns: AtomicU64::new(0),
                pending: AtomicUsize::new(0),
            },
        });
        let handles = (0..workers)
            .map(|me| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("casper-worker-{me}"))
                    .spawn(move || inner.worker_loop(me))
                    .expect("spawn pool worker")
            })
            .collect();
        Executor { inner, handles }
    }

    /// Number of pool worker threads.
    pub fn workers(&self) -> usize {
        self.inner.deques.len()
    }

    /// Run `f(i)` for every `i in 0..n` with up to `width` threads
    /// working at once (the submitting thread included), at the given
    /// priority. Returns after every index has finished. `width <= 1`
    /// is the serial golden path: a plain in-order loop on the calling
    /// thread.
    ///
    /// If `f` panics on any thread, the remaining indices still run, and
    /// the first panic is then re-raised on the calling thread; pool
    /// workers survive it.
    pub fn parallel_for(&self, n: usize, width: usize, prio: Priority, f: &(dyn Fn(usize) + Sync)) {
        let width = width.max(1).min(n);
        if width <= 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        // SAFETY: lifetime erasure only. The borrow outlives every use:
        // `parallel_for` returns only after `completed == n`, and stale
        // tasks see `cursor >= n` and never call the closure (see the
        // `Job` docs).
        let func: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        let job = Arc::new(Job {
            cursor: AtomicUsize::new(0),
            n,
            completed: AtomicUsize::new(0),
            func,
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        // More helpers than pool workers (or than indices beyond the
        // caller's own) would only queue stale tasks.
        let helpers = (width - 1).min(self.workers());
        for _ in 0..helpers {
            self.inner.inject(job.clone(), prio);
        }
        job.drain();
        job.wait();
        let payload = job.panic.lock().expect("job panic slot").take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }

    /// Snapshot the executor counters.
    pub fn stats(&self) -> ExecutorStats {
        let c = &self.inner.counters;
        ExecutorStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            executed: c.executed.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            parks: c.parks.load(Ordering::Relaxed),
            max_queue_depth: c.max_queue_depth.load(Ordering::Relaxed),
            worker_busy_ns: c.worker_busy_ns.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.inner.sleep.lock().expect("sleep lock");
        }
        self.inner.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The process-wide executor, sized to the host's core count (minimum
/// two workers so stealing is exercised even on single-core hosts).
/// Spawned on first use and alive for the life of the process.
pub fn global() -> &'static Executor {
    static GLOBAL: OnceLock<Executor> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Executor::new(cores.max(2))
    })
}

/// The shared dispatch point every parallel site routes through: run
/// `f(i)` for `i in 0..n` on the [`global`] executor with up to `width`
/// threads. `width <= 1` (or `n <= 1`) is the serial golden reference: a
/// plain in-order loop that never touches the pool. Outcomes are
/// identical on both paths for the index-slot/lowest-index-wins callers
/// this crate serves — only scheduling differs.
pub fn run_indexed(width: usize, prio: Priority, n: usize, f: &(dyn Fn(usize) + Sync)) {
    let width = width.max(1).min(n);
    if width <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    global().parallel_for(n, width, prio, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_index_exactly_once() {
        let exec = Executor::new(4);
        for n in [0usize, 1, 2, 7, 64, 1000] {
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            exec.parallel_for(n, 4, Priority::Normal, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} of {n}");
            }
        }
    }

    #[test]
    fn indexed_slots_match_serial_at_any_width() {
        let exec = Executor::new(3);
        let n = 257;
        let expect: Vec<u64> = (0..n as u64).map(|i| i * i + 1).collect();
        for width in [1, 2, 4, 8, 16] {
            let mut out = vec![0u64; n];
            let slots: Vec<Mutex<&mut u64>> = out.iter_mut().map(Mutex::new).collect();
            exec.parallel_for(n, width, Priority::High, &|i| {
                **slots[i].lock().unwrap() = (i as u64) * (i as u64) + 1;
            });
            drop(slots);
            assert_eq!(out, expect, "width {width}");
        }
    }

    #[test]
    fn nested_parallel_for_completes() {
        let exec = Executor::new(2);
        let total = AtomicU64::new(0);
        exec.parallel_for(8, 4, Priority::Normal, &|_| {
            // Nested jobs submitted from pool workers land on their own
            // deques; the outer caller participates so the job finishes
            // even with every worker occupied.
            let inner_total = AtomicU64::new(0);
            exec.parallel_for(16, 4, Priority::High, &|j| {
                inner_total.fetch_add(j as u64, Ordering::Relaxed);
            });
            total.fetch_add(inner_total.load(Ordering::Relaxed), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * (0..16u64).sum::<u64>());
    }

    #[test]
    fn counters_move() {
        let exec = Executor::new(2);
        let before = exec.stats();
        exec.parallel_for(64, 4, Priority::Low, &|_| {
            std::thread::yield_now();
        });
        let delta = exec.stats().since(&before);
        assert!(delta.submitted >= 1, "{delta:?}");
        assert!(delta.max_queue_depth >= 1, "{delta:?}");
    }

    #[test]
    fn run_indexed_modes_agree() {
        // Width 1 is the serial loop, 2/4/8 the persistent pool.
        for width in [1, 2, 4, 8] {
            let n = 100;
            let mut out = vec![0u32; n];
            let slots: Vec<Mutex<&mut u32>> = out.iter_mut().map(Mutex::new).collect();
            run_indexed(width, Priority::Normal, n, &|i| {
                **slots[i].lock().unwrap() = i as u32 * 3;
            });
            drop(slots);
            assert_eq!(out, (0..n as u32).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn global_pool_is_shared_and_persistent() {
        let a = global() as *const Executor;
        let b = global() as *const Executor;
        assert_eq!(a, b);
        assert!(global().workers() >= 2);
        let before = global().stats();
        global().parallel_for(32, 4, Priority::Normal, &|_| {});
        let after = global().stats();
        assert!(after.submitted >= before.submitted);
    }

    /// Run `f` on a fresh thread and return its result, failing the test
    /// if none arrives within 10 s.
    fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        // A hung `f` leaves its thread detached; the test fails here.
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("watchdog: no result within 10 s");
        handle.join().expect("watchdog thread");
        result
    }

    fn on_pool_worker() -> bool {
        std::thread::current()
            .name()
            .is_some_and(|name| name.starts_with("casper-worker-"))
    }

    /// Panic in one index of a 1000-index job, on the side `on_worker`
    /// selects, and check that the panic surfaces from `parallel_for` and
    /// the pool is left whole.
    fn panic_surfaces_and_pool_survives(on_worker: bool) {
        let exec = Arc::new(Executor::new(2));
        let pool = Arc::clone(&exec);
        let outcome = within_watchdog(move || {
            let fired = AtomicBool::new(false);
            panic::catch_unwind(AssertUnwindSafe(|| {
                pool.parallel_for(1000, 3, Priority::Normal, &|_| {
                    if on_pool_worker() == on_worker {
                        if !fired.swap(true, Ordering::SeqCst) {
                            panic!("task panic");
                        }
                    } else {
                        // Hold this side back until the other has
                        // panicked, so both sides run indices.
                        while !fired.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                    }
                });
            }))
        });
        let payload = outcome.expect_err("the task panic surfaces from parallel_for");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task panic"));

        let pool = Arc::clone(&exec);
        within_watchdog(move || {
            for n in 0..100 {
                let sum = AtomicU64::new(0);
                pool.parallel_for(n, 3, Priority::Normal, &|i| {
                    sum.fetch_add(i as u64, Ordering::Relaxed);
                });
                assert_eq!(sum.load(Ordering::Relaxed), (0..n as u64).sum::<u64>());
            }
            // Three indices that wait for each other finish only if the
            // submitter and both workers each take one.
            let all_three = std::sync::Barrier::new(3);
            pool.parallel_for(3, 3, Priority::Normal, &|_| {
                all_three.wait();
            });
        });
        assert_eq!(exec.workers(), 2);
    }

    #[test]
    fn worker_side_panic_surfaces_and_pool_survives() {
        panic_surfaces_and_pool_survives(true);
    }

    #[test]
    fn submitter_side_panic_surfaces_and_pool_survives() {
        panic_surfaces_and_pool_survives(false);
    }

    #[test]
    fn drop_joins_workers() {
        let exec = Executor::new(3);
        exec.parallel_for(10, 3, Priority::Normal, &|_| {});
        drop(exec); // must not hang
    }
}

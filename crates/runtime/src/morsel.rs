//! The per-site morsel worker pool: a shared parallel-for over the
//! columnar kernels' morsel tasks.
//!
//! One [`MorselPool`] is created per site per run when
//! [`RuntimeConfig::workers_per_site`](crate::RuntimeConfig) exceeds 1.
//! Every fragment the runtime runs at that site dispatches its kernels'
//! morsels into the pool, so a site's fragments share one set of CPU
//! workers instead of each being capped at the caller's thread.
//!
//! Scheduling is an atomic cursor per dispatch: a dispatch of `n` tasks
//! opens one job on the pool's list of open jobs, and every thread
//! working on that job claims the next unclaimed index with a
//! `fetch_add` until the cursor passes `n` — so no index is ever parked
//! behind a slow one. The dispatching thread is itself a worker for the
//! duration of the dispatch (it drains its own job, then blocks until
//! the indices claimed by other workers finish), so `workers_per_site`
//! counts the dispatching thread plus
//! `workers_per_site - 1` pool threads — and task execution can never
//! deadlock on pool capacity.
//!
//! **Determinism**: which worker runs which morsel is scheduling noise,
//! by design. The kernels in `geoqp-exec` merge morsel results by morsel
//! sequence number, so rows, bytes, transfer logs, and fault-clock
//! replay are bit-identical across worker counts and schedules. The
//! pool's one counter — morsels dispatched — is a pure function of the
//! workload and the morsel size.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use geoqp_exec::MorselRunner;

/// One dispatched batch of morsel tasks sharing a task closure.
struct Job {
    /// The dispatcher's task closure with its lifetime erased. Valid
    /// because `PoolCore::dispatch` does not return until `remaining`
    /// hits zero, and no worker dereferences the pointer after its final
    /// decrement.
    task: *const (dyn Fn(usize) + Sync),
    /// Task count: indices `0..n` each run exactly once.
    n: usize,
    /// The cursor: the next unclaimed index. A claim is valid iff the
    /// value `fetch_add` returned is `< n`. `Relaxed` suffices — the
    /// job's fields reach a worker through the open-list mutex, and the
    /// tasks' results reach the dispatcher through `remaining`.
    next: AtomicUsize,
    /// Tasks not yet finished.
    remaining: AtomicUsize,
    /// A task panicked; the dispatcher re-raises.
    panicked: AtomicBool,
}

// SAFETY: the raw closure pointer is only dereferenced while the
// dispatching stack frame is alive (see `Job::task`), and the closure
// itself is `Sync`; every other field is an atomic or immutable.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

/// What the pool's one mutex guards.
#[derive(Default)]
struct Open {
    /// Jobs whose dispatcher has not yet seen their cursor run out.
    jobs: Vec<Arc<Job>>,
    /// Pool is shutting down; workers exit.
    shutdown: bool,
}

/// The shared interior of a pool. Worker threads and [`PoolRunner`]s
/// hold `Arc`s of this — never of [`MorselPool`] itself, which owns the
/// join handles (an `Arc` cycle there would keep workers alive forever).
struct PoolCore {
    open: Mutex<Open>,
    /// Signals workers that a job was opened (or shutdown).
    work_cv: Condvar,
    /// Signals dispatchers that a job's last task finished.
    done_cv: Condvar,
    workers: usize,
    morsels: AtomicU64,
}

/// A morsel pool for one site. Dropping the pool shuts the workers down
/// and joins them (no thread leaks across runs).
pub struct MorselPool {
    core: Arc<PoolCore>,
    handles: Vec<JoinHandle<()>>,
}

impl MorselPool {
    /// Build a pool with `workers` total workers (the dispatching thread
    /// plus `workers - 1` spawned pool threads). `workers` is clamped to
    /// at least 1; a 1-worker pool spawns nothing and runs dispatches
    /// inline.
    pub fn new(workers: usize) -> MorselPool {
        let workers = workers.max(1);
        let core = Arc::new(PoolCore {
            open: Mutex::new(Open::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            workers,
            morsels: AtomicU64::new(0),
        });
        let handles = (0..workers - 1)
            .map(|me| {
                let c = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("geoqp-morsel-{me}"))
                    .spawn(move || c.worker_loop())
                    .expect("spawn morsel worker")
            })
            .collect();
        MorselPool { core, handles }
    }

    /// Total workers participating in dispatches (caller included).
    pub fn workers(&self) -> usize {
        self.core.workers
    }

    /// Run `task(t)` for every `t in 0..n_tasks`, blocking until all
    /// have completed. Reentrant across dispatching threads: concurrent
    /// dispatches are open side by side and idle workers help whichever
    /// still has unclaimed tasks.
    pub fn dispatch(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        self.core.dispatch(n_tasks, task);
    }

    /// Total morsel tasks dispatched so far. Deterministic for a given
    /// workload and morsel size.
    pub fn morsels(&self) -> u64 {
        self.core.morsels.load(Ordering::Relaxed)
    }

    /// A [`MorselRunner`] over this pool with the run's morsel size. The
    /// runner owns an `Arc` of the pool's interior, so it stays valid
    /// for as long as a fragment holds it (the pool's `Drop` still joins
    /// the worker threads regardless).
    pub fn runner(&self, morsel_rows: usize) -> PoolRunner {
        PoolRunner {
            core: Arc::clone(&self.core),
            morsel_rows,
        }
    }
}

impl Drop for MorselPool {
    fn drop(&mut self) {
        self.core.lock().shutdown = true;
        self.core.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl PoolCore {
    /// Tasks run outside the lock and every update under it (push,
    /// retain, set a flag) leaves `Open` valid at each step, so a
    /// poisoned guard is still good — and `Drop` must not panic.
    fn lock(&self) -> MutexGuard<'_, Open> {
        self.open.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sleep on `cv`, giving the lock up meanwhile (poison: see `lock`).
    fn wait<'a>(&self, cv: &Condvar, open: MutexGuard<'a, Open>) -> MutexGuard<'a, Open> {
        cv.wait(open).unwrap_or_else(PoisonError::into_inner)
    }

    fn dispatch(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        if n_tasks == 0 {
            return;
        }
        self.morsels.fetch_add(n_tasks as u64, Ordering::Relaxed);
        if self.workers == 1 {
            for t in 0..n_tasks {
                task(t);
            }
            return;
        }
        // SAFETY: only the closure's lifetime is erased; `Job::task`
        // documents why the pointer cannot dangle.
        let raw: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                task,
            )
        };
        let job = Arc::new(Job {
            task: raw,
            n: n_tasks,
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(n_tasks),
            panicked: AtomicBool::new(false),
        });
        self.lock().jobs.push(Arc::clone(&job));
        self.work_cv.notify_all();

        // Help: the dispatcher claims indices of its own job until the
        // cursor runs out, then closes the job and waits for the
        // stragglers other workers claimed.
        self.drain(&job);
        let mut open = self.lock();
        open.jobs.retain(|j| !Arc::ptr_eq(j, &job));
        while job.remaining.load(Ordering::Acquire) > 0 {
            open = self.wait(&self.done_cv, open);
        }
        drop(open);
        if job.panicked.load(Ordering::Relaxed) {
            resume_unwind(Box::new("morsel task panicked"));
        }
    }

    /// Claim and run indices of `job` until its cursor passes `n`.
    fn drain(&self, job: &Job) {
        loop {
            let idx = job.next.fetch_add(1, Ordering::Relaxed);
            if idx >= job.n {
                return;
            }
            // SAFETY: `idx < n` is a claimed task still counted in
            // `remaining`, and the dispatcher's stack frame is alive
            // until `remaining` reaches zero, which happens strictly
            // after this call returns.
            let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.task)(idx) }));
            if result.is_err() {
                job.panicked.store(true, Ordering::Relaxed);
            }
            if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Taking the lock orders this wakeup after the
                // dispatcher's check-then-wait, so it cannot be lost.
                let _open = self.lock();
                self.done_cv.notify_all();
            }
        }
    }

    fn worker_loop(&self) {
        let mut open = self.lock();
        while !open.shutdown {
            let job = open
                .jobs
                .iter()
                .find(|j| j.next.load(Ordering::Relaxed) < j.n)
                .cloned();
            open = match job {
                Some(job) => {
                    drop(open);
                    self.drain(&job);
                    self.lock()
                }
                None => self.wait(&self.work_cv, open),
            };
        }
    }
}

/// A [`MorselRunner`] view over a shared site pool, carrying the run's
/// configured morsel size. Fragment threads hand this to the columnar
/// kernels via the exchange source.
pub struct PoolRunner {
    core: Arc<PoolCore>,
    morsel_rows: usize,
}

impl MorselRunner for PoolRunner {
    fn workers(&self) -> usize {
        self.core.workers
    }
    fn morsel_rows(&self) -> usize {
        self.morsel_rows.max(1)
    }
    fn dispatch(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        self.core.dispatch(n_tasks, task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_exec::parallel::parallel_map;

    #[test]
    fn pool_runs_every_task_exactly_once_and_joins_on_drop() {
        let before = count_threads();
        {
            let pool = MorselPool::new(4);
            let runner = pool.runner(8);
            for round in 0..20 {
                let n = 1 + (round * 7) % 40;
                let out = parallel_map(&runner, n, |t| t * 2);
                assert_eq!(out, (0..n).map(|t| t * 2).collect::<Vec<_>>());
            }
            assert!(pool.morsels() > 0);
        }
        // All pool threads joined after drop. Other tests may be
        // spawning concurrently, so poll for quiescence instead of
        // asserting a single instantaneous snapshot.
        for _ in 0..50 {
            if count_threads() <= before + 1 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(count_threads() <= before + 1, "pool threads leaked");
    }

    #[test]
    fn concurrent_dispatchers_share_the_pool() {
        let pool = MorselPool::new(3);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let runner = pool.runner(4);
                s.spawn(move || {
                    for _ in 0..50 {
                        let sum: usize = parallel_map(&runner, 16, |t| t).iter().sum();
                        assert_eq!(sum, (0..16).sum::<usize>());
                    }
                });
            }
        });
    }

    /// Per-index execution counts for a job of `n` tasks.
    fn counters(n: usize) -> Vec<AtomicUsize> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    fn assert_each_ran_once(ran: &[AtomicUsize]) {
        for (t, c) in ran.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "task {t}");
        }
    }

    #[test]
    fn task_panic_reraises_after_the_job_completes_and_the_pool_survives() {
        let pool = MorselPool::new(3);
        let ran = counters(24);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(24, &|t| {
                ran[t].fetch_add(1, Ordering::Relaxed);
                if t == 5 {
                    panic!("task 5 fails");
                }
            })
        }));
        assert!(outcome.is_err(), "the dispatcher must re-raise");
        assert_each_ran_once(&ran);

        let runner = pool.runner(8);
        assert_eq!(
            parallel_map(&runner, 10, |t| t + 1),
            (1..=10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn degenerate_task_counts_run_each_index_once() {
        let pool = MorselPool::new(4);
        for n in [0, 1, pool.workers() - 1] {
            let ran = counters(n);
            pool.dispatch(n, &|t| {
                ran[t].fetch_add(1, Ordering::Relaxed);
            });
            assert_each_ran_once(&ran);
        }
        assert_eq!(pool.morsels(), 4);
    }

    /// Task 0 cannot finish before every other index has: whichever
    /// thread claims it is stuck, so the other must be able to reach all
    /// the rest. A static split of the index range deadlocks here.
    #[test]
    fn no_index_is_parked_behind_a_blocked_one() {
        const N: usize = 9;
        let pool = MorselPool::new(2);
        let others_done = Mutex::new(0usize);
        let all_others = Condvar::new();
        pool.dispatch(N, &|t| {
            let mut done = others_done.lock().unwrap();
            if t == 0 {
                while *done < N - 1 {
                    done = all_others.wait(done).unwrap();
                }
            } else {
                *done += 1;
                all_others.notify_all();
            }
        });
        assert_eq!(*others_done.lock().unwrap(), N - 1);
    }

    #[test]
    fn more_dispatchers_than_workers_each_complete_their_own_job() {
        const DISPATCHERS: usize = 8;
        let pool = MorselPool::new(2);
        let start = std::sync::Barrier::new(DISPATCHERS);
        std::thread::scope(|s| {
            for d in 0..DISPATCHERS {
                let (pool, start) = (&pool, &start);
                s.spawn(move || {
                    start.wait();
                    for round in 0..25 {
                        let ran = counters(1 + (d + round) % 7);
                        pool.dispatch(ran.len(), &|t| {
                            ran[t].fetch_add(1, Ordering::Relaxed);
                        });
                        assert_each_ran_once(&ran);
                    }
                });
            }
        });
    }

    /// Each worker thread owns one `Arc` of the pool's interior for as
    /// long as it lives, so a count of one after `drop` means every
    /// thread was joined.
    #[test]
    fn no_thread_outlives_drop() {
        let pool = MorselPool::new(4);
        pool.dispatch(32, &|_| {});
        let core = Arc::clone(&pool.core);
        assert_eq!(Arc::strong_count(&core), 5);
        drop(pool);
        assert_eq!(Arc::strong_count(&core), 1);
    }

    fn count_threads() -> usize {
        std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
    }
}

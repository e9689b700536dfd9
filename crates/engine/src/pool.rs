//! The engine's thread pool: one shared FIFO run queue under one lock
//! (std-only, no external deps).
//!
//! The scheduler runs a fixed batch of jobs — identified by their index into
//! the caller's job slice — on `workers` workers that share one
//! `Mutex<VecDeque<usize>>`, seeded with `0..count` in submission order, and
//! one `Condvar`. The calling thread is worker 0 and `workers - 1` scoped
//! threads are the rest, so a one-worker batch spawns no thread at all:
//!
//! * **Pop the front.** Every idle worker takes the oldest queued job, so
//!   execution starts in submission order and with `workers = 1` it *is*
//!   submission order. Whichever worker frees up first takes the next job:
//!   the greedy balance that work stealing buys, with no per-worker queues
//!   to rebalance.
//! * **Push to the back.** Work created *during* the run — the retry of a
//!   panicked job — joins the back of the queue, so a repeatedly failing job
//!   cannot starve the rest of the batch.
//! * **Wait on the condvar.** A worker that finds the queue empty waits
//!   until a push or the final retire notifies it. The outstanding-job count
//!   sits under the same lock as the queue, so "empty but not done" and
//!   "done" are one consistent read and no wait needs a timeout.
//!
//! Jobs here are whole experiments or serve session ops (milliseconds to
//! minutes), so queue traffic is a few lock acquisitions per job and one
//! lock is nowhere near contended. The pool is *scoped* — built on
//! [`std::thread::scope`] — so jobs may borrow from the caller's stack.
//!
//! Determinism contract: the pool guarantees nothing about *execution
//! order* across workers; callers get reproducibility by making each job's
//! output a pure function of the job value (see `crate::job`), never of
//! schedule, worker id, or completion order.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use faction_linalg::rng::splitmix64;
use faction_telemetry::Handle;

/// Deterministic schedule-chaos mode (the dynamic tier of the determinism
/// sanitizer, DESIGN.md §12): a seed for reproducible perturbation of every
/// scheduling decision the pool makes.
///
/// Under chaos the pool deterministically varies the *schedule* — which end
/// of the run queue every pop takes, and bounded forced requeues that send a
/// popped job to the back of the queue before it runs — while leaving the
/// execution contract untouched: every job still runs to retirement exactly
/// once (a forced requeue happens before the body starts, and is bounded per
/// job). Because the determinism contract says results are a pure function
/// of the job value, **any** schedule must produce byte-identical canonical
/// output; chaos exists to hunt schedules that falsify that claim, and the
/// seed makes a found counterexample replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSchedule(pub u64);

/// Forced requeues per job index under chaos. Bounded so a batch always
/// drains: after the bound each pop proceeds to execution.
const CHAOS_MAX_FORCED_REQUEUES: u32 = 2;

/// Per-batch chaos state shared by the workers.
struct ChaosState {
    seed: u64,
    /// Forced-requeue count per job index.
    forced: Vec<AtomicU32>,
}

/// One worker's deterministic chaos decision stream: every draw is a pure
/// function of `(seed, worker, draw counter)`, never of wall clock or
/// schedule.
struct ChaosRng<'a> {
    state: &'a ChaosState,
    worker: u64,
    draws: u64,
}

impl ChaosRng<'_> {
    fn next(&mut self) -> u64 {
        self.draws += 1;
        splitmix64(self.state.seed ^ (self.worker << 40) ^ self.draws)
    }

    /// Books one forced requeue of `idx`; `false` once its bound is spent.
    fn may_force(&self, idx: usize) -> bool {
        self.state.forced[idx].fetch_add(1, Ordering::Relaxed) < CHAOS_MAX_FORCED_REQUEUES
    }
}

/// Locks a mutex, tolerating poisoning: a panicking job is isolated by
/// `catch_unwind` in the executor, but if a panic ever does fly through a
/// critical section the queue state itself (a plain `VecDeque` and
/// counters) is still consistent, so the pool keeps draining instead of
/// deadlocking.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Resolves a `--jobs` request to a worker count: `None` or `Some(0)` mean
/// auto-detect via [`std::thread::available_parallelism`] (falling back to 1
/// when the platform cannot say).
pub fn resolve_workers(requested: Option<usize>) -> usize {
    match requested {
        Some(n) if n > 0 => n,
        _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// The run queue and the counts that change atomically with it.
struct RunQueue {
    /// Job indices waiting for a worker, oldest first.
    queue: VecDeque<usize>,
    /// Jobs submitted and not yet retired. The batch drains at zero.
    outstanding: usize,
    /// High-water mark of `queue.len()` over the batch.
    high_water: usize,
}

impl RunQueue {
    fn push_back(&mut self, idx: usize) {
        self.queue.push_back(idx);
        self.high_water = self.high_water.max(self.queue.len());
    }
}

/// Shared scheduler state for one batch.
struct Scheduler {
    state: Mutex<RunQueue>,
    cv: Condvar,
    /// Telemetry sink for scheduling events (requeues, waits, queue
    /// high-water). Write-only: scheduling decisions never read it back.
    recorder: Handle,
}

impl Scheduler {
    /// Pushes a retry to the back of the queue and wakes a waiting worker.
    /// `outstanding` is unchanged: the job was never retired.
    fn requeue(&self, idx: usize) {
        lock(&self.state).push_back(idx);
        self.recorder.counter_add("engine.pool.requeues", 1);
        self.cv.notify_one();
    }

    /// Retires one job; wakes everyone when the batch is drained.
    fn retire(&self) {
        let mut q = lock(&self.state);
        q.outstanding -= 1;
        if q.outstanding == 0 {
            self.cv.notify_all();
        }
    }

    /// Pops the next job to run, waiting while the queue is empty; `None`
    /// once every job has retired and the worker should exit.
    ///
    /// Under chaos every pop draws which end of the queue it takes, and may
    /// send the popped job to the back instead of running it (bounded per
    /// index): both are schedules the plain pool reaches under some timing,
    /// forced instead of accidental.
    fn next(&self, chaos: &mut Option<ChaosRng<'_>>) -> Option<usize> {
        let mut q = lock(&self.state);
        loop {
            if q.outstanding == 0 {
                return None;
            }
            let draw = match chaos.as_mut() {
                Some(rng) if !q.queue.is_empty() => Some(rng.next()),
                _ => None,
            };
            let popped = match draw {
                Some(d) if d & 1 == 1 => q.queue.pop_back(),
                _ => q.queue.pop_front(),
            };
            let Some(idx) = popped else {
                // Count the wait *before* taking it: the queue lock is held,
                // so the counter must be an independent sink, never this lock.
                self.recorder.counter_add("engine.pool.park_waits", 1);
                q = self.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let forced = match (draw, chaos.as_ref()) {
                (Some(d), Some(rng)) => d & 6 == 0 && rng.may_force(idx),
                _ => false,
            };
            if !forced {
                return Some(idx);
            }
            self.recorder.counter_add("engine.pool.chaos_forced_requeues", 1);
            self.recorder.counter_add("engine.pool.requeues", 1);
            q.push_back(idx);
        }
    }
}

/// Pool statistics for one batch, reported into the run journal.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Worker threads used.
    pub workers: usize,
    /// High-water mark of the number of queued (not yet running) jobs.
    pub queue_high_water: usize,
}

/// Per-invocation handle a job body receives; lets the executor requeue the
/// job it is currently running (bounded retry after a panic). Dropping it
/// retires the job unless it was requeued, so a body that panics still
/// retires its index during unwinding: the other workers drain the batch
/// instead of waiting for it forever, and the scope re-raises the panic.
pub(crate) struct WorkerCtx<'a> {
    scheduler: &'a Scheduler,
    /// Id of the worker running this job (journal detail only).
    pub worker: usize,
    requeued: Cell<bool>,
}

impl WorkerCtx<'_> {
    /// Requeues the *current* job at the back of the run queue; the pool
    /// will hand it to some worker again instead of retiring it.
    pub fn requeue_current(&self, idx: usize) {
        self.requeued.set(true);
        self.scheduler.requeue(idx);
    }
}

impl Drop for WorkerCtx<'_> {
    fn drop(&mut self) {
        if !self.requeued.get() {
            self.scheduler.retire();
        }
    }
}

/// Runs job indices `0..count` on `workers` workers (the calling thread
/// and `workers - 1` scoped threads), under `chaos` when set. `body` is
/// invoked once per scheduled execution (so a requeued index runs again)
/// and may borrow from the caller's stack. Scheduling events are recorded
/// to `recorder` (requeues, waits, queue high-water); pass
/// `Handle::noop()` to record nothing. Returns pool statistics.
pub(crate) fn run_indexed<F>(
    workers: usize,
    count: usize,
    recorder: &Handle,
    chaos: Option<ChaosSchedule>,
    body: F,
) -> PoolStats
where
    F: Fn(&WorkerCtx<'_>, usize) + Sync,
{
    let workers = workers.max(1);
    if count == 0 {
        return PoolStats { workers, queue_high_water: 0 };
    }
    let scheduler = Scheduler {
        state: Mutex::new(RunQueue {
            queue: (0..count).collect(),
            outstanding: count,
            high_water: count,
        }),
        cv: Condvar::new(),
        recorder: recorder.clone(),
    };
    let chaos_state = chaos.map(|ChaosSchedule(seed)| ChaosState {
        seed: splitmix64(seed ^ 0xC4A0_55C4_EDB1_E001),
        forced: (0..count).map(|_| AtomicU32::new(0)).collect(),
    });
    let work = |worker: usize| {
        let mut rng =
            chaos_state.as_ref().map(|state| ChaosRng { state, worker: worker as u64, draws: 0 });
        while let Some(idx) = scheduler.next(&mut rng) {
            let ctx = WorkerCtx { scheduler: &scheduler, worker, requeued: Cell::new(false) };
            body(&ctx, idx);
        }
    };
    // The caller is worker 0: it runs the same loop as the spawned workers
    // instead of sleeping in the join, so a batch costs `workers - 1` thread
    // spawns and a one-worker batch none.
    std::thread::scope(|scope| {
        for worker in 1..workers {
            let work = &work;
            scope.spawn(move || work(worker));
        }
        work(0);
    });
    let high_water = lock(&scheduler.state).high_water;
    recorder.counter_add("engine.pool.batches", 1);
    recorder.gauge_set("engine.pool.workers", workers as u64);
    recorder.gauge_set("engine.pool.queue_high_water", high_water as u64);
    PoolStats { workers, queue_high_water: high_water }
}

/// Runs `f(index, item)` for every item of `items` on `workers` threads and
/// blocks until all complete. The primitive behind the bench crate's
/// `run_lineup` and the serve layer's wave fan-out: items may borrow from
/// the caller, results are typically written into a locked slot table so
/// output order is submission order regardless of schedule.
pub fn scoped_for_each<T, F>(workers: usize, items: &[T], f: F) -> PoolStats
where
    T: Sync,
    F: Fn(usize, &T) + Sync,
{
    run_indexed(workers, items.len(), &Handle::noop(), None, |_, idx| f(idx, &items[idx]))
}

/// [`scoped_for_each`] under a [`ChaosSchedule`] — the sanitizer harness's
/// way to subject any indexed batch to deterministic schedule perturbation.
/// Forced requeues re-offer an index to the pool *before* `f` starts, never
/// after, so `f` still executes exactly once per item. Scheduling events go
/// to `recorder`, so callers that assert "the schedule really was perturbed"
/// can read `engine.pool.chaos_forced_requeues` from their own registry.
pub fn scoped_for_each_chaos<T, F>(
    workers: usize,
    items: &[T],
    chaos: ChaosSchedule,
    recorder: &Handle,
    f: F,
) -> PoolStats
where
    T: Sync,
    F: Fn(usize, &T) + Sync,
{
    run_indexed(workers, items.len(), recorder, Some(chaos), |_, idx| f(idx, &items[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_item_runs_exactly_once() {
        for workers in [1, 2, 8] {
            let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
            let stats = scoped_for_each(workers, &hits, |_, slot| {
                slot.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(stats.workers, workers);
            assert_eq!(stats.queue_high_water, 97);
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "item {i} with {workers} workers");
            }
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let items: [u8; 0] = [];
        let stats = scoped_for_each(4, &items, |_, _| panic!("must not run"));
        assert_eq!(stats.queue_high_water, 0);
    }

    #[test]
    fn more_workers_than_items() {
        let sum = AtomicUsize::new(0);
        let items = [1usize, 2, 3];
        scoped_for_each(16, &items, |_, &v| {
            sum.fetch_add(v, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn single_worker_runs_in_submission_order() {
        let order = Mutex::new(Vec::new());
        let items: Vec<usize> = (0..20).collect();
        scoped_for_each(1, &items, |idx, _| lock(&order).push(idx));
        assert_eq!(*lock(&order), items);
    }

    #[test]
    fn panicking_body_re_raises_instead_of_hanging() {
        // The batch runs on a helper thread so a pool that never drains
        // fails this test on the timeout instead of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            let outcome = std::panic::catch_unwind(|| {
                scoped_for_each(2, &hits, |idx, slot| {
                    assert_ne!(idx, 1, "body panics on item 1");
                    slot.fetch_add(1, Ordering::SeqCst);
                });
            });
            let ran: usize = hits.iter().map(|h| h.load(Ordering::SeqCst)).sum();
            let _ = tx.send((outcome.is_err(), ran));
        });
        let (panicked, ran) = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("a batch whose body panics must drain, not hang");
        assert!(panicked, "the body's panic must propagate out of the scope");
        assert_eq!(ran, 3, "the other items still run once each");
    }

    #[test]
    fn one_worker_runs_every_body_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let threads = Mutex::new(Vec::new());
        let items: Vec<usize> = (0..10).collect();
        scoped_for_each(1, &items, |_, _| lock(&threads).push(std::thread::current().id()));
        let threads = threads.into_inner().unwrap();
        assert_eq!(threads.len(), items.len());
        assert!(threads.iter().all(|&id| id == caller), "a one-worker batch spawns no thread");
    }

    #[test]
    fn three_workers_are_the_caller_and_at_most_two_other_threads() {
        let caller = std::thread::current().id();
        let threads = Mutex::new(Vec::new());
        let items: Vec<usize> = (0..64).collect();
        scoped_for_each(3, &items, |_, _| lock(&threads).push(std::thread::current().id()));
        let threads = threads.into_inner().unwrap();
        assert_eq!(threads.len(), items.len());
        let mut others = Vec::new();
        for id in threads {
            if id != caller && !others.contains(&id) {
                others.push(id);
            }
        }
        assert!(others.len() <= 2, "{} threads besides the caller", others.len());
    }

    #[test]
    fn panic_on_the_callers_share_still_drains_and_re_raises() {
        // The other worker holds its first item until the caller has taken
        // one, so the panic deterministically lands on the caller's share;
        // the other worker must then drain everything that is left.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let caller = std::thread::current().id();
            let caller_took = std::sync::atomic::AtomicBool::new(false);
            let hits: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                scoped_for_each(2, &hits, |_, slot| {
                    if std::thread::current().id() == caller {
                        caller_took.store(true, Ordering::SeqCst);
                        panic!("body panics on the caller's share");
                    }
                    while !caller_took.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    slot.fetch_add(1, Ordering::SeqCst);
                });
            }));
            let ran: usize = hits.iter().map(|h| h.load(Ordering::SeqCst)).sum();
            let _ = tx.send((outcome.is_err(), ran));
        });
        let (panicked, ran) = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("a batch whose caller share panics must drain, not hang");
        assert!(panicked, "the caller's panic must propagate out of the batch");
        assert_eq!(ran, 5, "the other worker runs every remaining item once");
    }

    #[test]
    fn resolve_workers_auto_and_explicit() {
        assert!(resolve_workers(None) >= 1);
        assert!(resolve_workers(Some(0)) >= 1);
        assert_eq!(resolve_workers(Some(5)), 5);
    }

    #[test]
    fn chaos_runs_every_item_exactly_once() {
        // The chaos contract: scheduling is perturbed, execution is not —
        // every index runs exactly once for any seed and worker count.
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            for workers in [1, 2, 4] {
                let hits: Vec<AtomicUsize> = (0..61).map(|_| AtomicUsize::new(0)).collect();
                let noop = Handle::noop();
                scoped_for_each_chaos(workers, &hits, ChaosSchedule(seed), &noop, |_, slot| {
                    slot.fetch_add(1, Ordering::SeqCst);
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::SeqCst),
                        1,
                        "item {i}, seed {seed}, {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn chaos_reorders_one_worker_and_still_retires_every_index_once() {
        // With one worker the plain pool runs in submission order, so any
        // other order is the chaos pops at work; the retire count is the
        // batch draining, which needs every index retired exactly once.
        let registry = std::sync::Arc::new(faction_telemetry::Registry::new());
        let items: Vec<usize> = (0..20).collect();
        let order = Mutex::new(Vec::new());
        let handle = Handle::from(registry.clone());
        scoped_for_each_chaos(1, &items, ChaosSchedule(5), &handle, |idx, _| lock(&order).push(idx));
        let order = order.into_inner().unwrap();
        assert_ne!(order, items, "chaos must reorder a one-worker batch");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, items, "every index runs exactly once");
        assert_eq!(registry.snapshot().counter("engine.pool.batches"), Some(1));
    }

    #[test]
    fn chaos_slot_table_results_match_baseline() {
        let items: Vec<u64> = (0..40).collect();
        let collect = |chaos: Option<ChaosSchedule>, workers: usize| -> Vec<u64> {
            let slots: Vec<Mutex<u64>> = items.iter().map(|_| Mutex::new(0)).collect();
            match chaos {
                Some(c) => scoped_for_each_chaos(workers, &items, c, &Handle::noop(), |idx, &v| {
                    *lock(&slots[idx]) = v.wrapping_mul(v) ^ 7;
                }),
                None => scoped_for_each(workers, &items, |idx, &v| {
                    *lock(&slots[idx]) = v.wrapping_mul(v) ^ 7;
                }),
            };
            slots.iter().map(|s| *lock(s)).collect()
        };
        let baseline = collect(None, 1);
        for seed in [3u64, 9, 27] {
            assert_eq!(collect(Some(ChaosSchedule(seed)), 4), baseline, "seed {seed}");
        }
    }

    #[test]
    fn chaos_forced_requeues_are_bounded_and_recorded() {
        // With one worker and many items, forced requeues must neither
        // livelock nor lose work; the counter proves chaos actually bit.
        let registry = std::sync::Arc::new(faction_telemetry::Registry::new());
        let handle = Handle::from(registry.clone());
        let ran = AtomicUsize::new(0);
        run_indexed(1, 200, &handle, Some(ChaosSchedule(11)), |_, _| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 200);
        let forced = registry
            .snapshot()
            .counter("engine.pool.chaos_forced_requeues")
            .unwrap_or(0);
        assert!(forced > 0, "a 200-job batch under chaos must force some requeues");
        assert!(
            forced <= 200 * CHAOS_MAX_FORCED_REQUEUES as u64,
            "forced requeues must respect the per-job bound (got {forced})"
        );
    }

    #[test]
    fn results_are_order_independent_of_worker_count() {
        // The slot-table pattern: writes land at the submission index, so
        // the collected output is identical for any worker count.
        let items: Vec<u64> = (0..50).collect();
        let collect = |workers: usize| -> Vec<u64> {
            let slots: Vec<Mutex<u64>> = items.iter().map(|_| Mutex::new(0)).collect();
            scoped_for_each(workers, &items, |idx, &v| {
                *lock(&slots[idx]) = v * v;
            });
            slots.iter().map(|s| *lock(s)).collect()
        };
        assert_eq!(collect(1), collect(8));
    }
}

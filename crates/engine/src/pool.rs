//! Hand-rolled work-stealing thread pool (std-only, no external deps).
//!
//! The scheduler runs a fixed batch of jobs — identified by their index into
//! the caller's job slice — on `workers` OS threads:
//!
//! * **Per-worker deques.** Submission round-robins job indices across the
//!   workers' own deques, so with `workers = 1` execution is exactly
//!   submission order. Owners pop from the *front* (FIFO: experiment jobs
//!   are coarse, so submission-order execution beats the classic Chase-Lev
//!   LIFO locality argument), thieves steal from the *back* (the work the
//!   owner would reach last).
//! * **Global injector.** Work created *during* the run — retries of
//!   panicked jobs — lands in a shared FIFO injector rather than the
//!   submitting worker's deque, so a repeatedly failing job cannot pin one
//!   worker while its siblings idle.
//! * **Park / unpark.** A worker that finds every queue empty parks on a
//!   condvar; every push notifies one sleeper, and the worker that retires
//!   the final job notifies all so the pool drains and joins.
//!
//! Queues are `Mutex<VecDeque<usize>>`: jobs here are whole experiments
//! (milliseconds to minutes), so queue traffic is a few dozen operations per
//! run and lock-free deques would buy nothing. The pool is *scoped* — built
//! on [`std::thread::scope`] — so jobs may borrow from the caller's stack.
//!
//! Determinism contract: the pool guarantees nothing about *execution
//! order* across workers; callers get reproducibility by making each job's
//! output a pure function of the job value (see `crate::job`), never of
//! schedule, worker id, or completion order.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use faction_telemetry::Handle;

/// Deterministic schedule-chaos mode (the dynamic tier of the determinism
/// sanitizer, DESIGN.md §12): a seed for reproducible perturbation of every
/// scheduling decision the pool makes.
///
/// Under chaos the pool deterministically varies the *schedule* — work-source
/// search order, steal victims and which end of their deque is robbed, park
/// timing, and bounded forced requeues that make jobs migrate workers — while
/// leaving the execution contract untouched: every job still runs to
/// retirement exactly once (forced requeues re-run the body, like panic
/// retries, and are bounded per job). Because the determinism contract says
/// results are a pure function of the job value, **any** schedule must
/// produce byte-identical canonical output; chaos exists to hunt schedules
/// that falsify that claim, and the seed makes a found counterexample
/// replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSchedule(pub u64);

/// Forced requeues per job index under chaos. Bounded so a batch always
/// drains: after the bound each pop proceeds to execution.
const CHAOS_MAX_FORCED_REQUEUES: u32 = 2;

/// SplitMix64 finalizer — the same stateless mixer the labeled pool uses for
/// reservoir draws; every chaos decision is a pure function of
/// `(seed, worker, decision counter)`, never of wall clock or schedule.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-batch chaos state shared by the workers.
struct ChaosState {
    seed: u64,
    /// Forced-requeue count per job index.
    forced: Vec<AtomicU32>,
}

/// One worker's deterministic chaos decision stream.
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
}

/// Locks a mutex, tolerating poisoning: a panicking job is isolated by
/// `catch_unwind` in the executor, but if a panic ever does fly through a
/// critical section the queue state itself (plain `VecDeque`s and counters)
/// is still consistent, so the pool keeps draining instead of deadlocking.
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

/// Counters guarded by the park lock.
struct ParkState {
    /// Job indices sitting in some queue (injector or deque), not yet
    /// picked up by a worker.
    queued: usize,
    /// Jobs submitted or requeued and not yet retired. The pool drains when
    /// this reaches zero.
    outstanding: usize,
    /// High-water mark of `queued` over the batch lifetime.
    high_water: usize,
}

/// Shared scheduler state for one batch.
struct Scheduler {
    injector: Mutex<VecDeque<usize>>,
    deques: Vec<Mutex<VecDeque<usize>>>,
    park: Mutex<ParkState>,
    cv: Condvar,
    /// Telemetry sink for scheduling events (steals, parks, injector
    /// depth). Write-only: scheduling decisions never read it back.
    recorder: Handle,
}

impl Scheduler {
    fn new(workers: usize, jobs: usize, recorder: Handle) -> Scheduler {
        let mut deques = Vec::with_capacity(workers);
        for _ in 0..workers {
            deques.push(Mutex::new(VecDeque::new()));
        }
        let s = Scheduler {
            injector: Mutex::new(VecDeque::new()),
            deques,
            park: Mutex::new(ParkState { queued: 0, outstanding: 0, high_water: 0 }),
            cv: Condvar::new(),
            recorder,
        };
        // Seed round-robin across the worker deques: deterministic layout,
        // and with one worker it degenerates to pure submission order.
        for idx in 0..jobs {
            lock(&s.deques[idx % workers]).push_back(idx);
        }
        let mut p = lock(&s.park);
        p.queued = jobs;
        p.outstanding = jobs;
        p.high_water = jobs;
        drop(p);
        s
    }

    /// Books one popped job out of the queued count.
    fn note_popped(&self) {
        lock(&self.park).queued -= 1;
    }

    /// Pushes a requeued job (a retry) onto the global injector and wakes a
    /// parked worker. `outstanding` is unchanged: the job was never retired.
    fn requeue(&self, idx: usize) {
        // Book the job as queued before it becomes visible in the injector:
        // another worker may pop it (and book it out) the instant it is
        // pushed, so counting after the push can underflow `queued` and
        // leave the other workers spinning on a job that is not there.
        let mut p = lock(&self.park);
        p.queued += 1;
        p.high_water = p.high_water.max(p.queued);
        drop(p);
        let depth = {
            let mut inj = lock(&self.injector);
            inj.push_back(idx);
            inj.len()
        };
        self.recorder.counter_add("engine.pool.requeues", 1);
        self.recorder.gauge_set("engine.pool.injector_depth", depth as u64);
        self.cv.notify_one();
    }

    /// Retires one job; wakes everyone when the batch is drained.
    fn retire(&self) {
        let mut p = lock(&self.park);
        p.outstanding -= 1;
        let done = p.outstanding == 0;
        drop(p);
        if done {
            self.cv.notify_all();
        }
    }

    /// Finds the next job for `worker`: own deque front, then injector
    /// front, then steal from siblings' backs (scanning from the next
    /// worker id so thieves spread out).
    ///
    /// Under chaos the search order, the steal scan's starting victim, and
    /// the robbed end of a victim's deque are all drawn from the worker's
    /// chaos stream — every combination is a schedule the no-chaos pool
    /// could reach under some timing, just forced instead of accidental.
    fn find_work(&self, worker: usize, chaos: &mut Option<ChaosRng<'_>>) -> Option<usize> {
        let draw = chaos.as_mut().map(|c| c.next());
        if let Some(d) = draw {
            // Half the time, drain the injector before the own deque.
            if d & 1 == 1 {
                if let Some(idx) = lock(&self.injector).pop_front() {
                    self.note_popped();
                    return Some(idx);
                }
            }
        }
        if let Some(idx) = lock(&self.deques[worker]).pop_front() {
            self.note_popped();
            return Some(idx);
        }
        if let Some(idx) = lock(&self.injector).pop_front() {
            self.note_popped();
            return Some(idx);
        }
        let n = self.deques.len();
        // Chaos rotates the steal scan's starting offset and robs the
        // victim's *front* half the time (the job the owner would run next —
        // maximally adversarial to accidental order dependence).
        let (start, steal_front) = match draw {
            Some(d) if n > 1 => ((d >> 1) as usize % (n - 1), d & 2 == 2),
            _ => (0, false),
        };
        for scan in 0..n.saturating_sub(1) {
            let victim = (worker + 1 + (start + scan) % (n - 1)) % n;
            let stolen = if steal_front {
                lock(&self.deques[victim]).pop_front()
            } else {
                lock(&self.deques[victim]).pop_back()
            };
            if let Some(idx) = stolen {
                self.note_popped();
                self.recorder.counter_add("engine.pool.steals", 1);
                return Some(idx);
            }
        }
        None
    }

    /// Parks until work might exist or the batch is drained. Returns
    /// `false` when the batch is fully retired and the worker should exit.
    ///
    /// Under chaos the park timeout is drawn from the worker's chaos stream
    /// (1–16 ms instead of a fixed 50 ms), so wake order and re-scan timing
    /// vary deterministically between seeds.
    fn park_or_exit(&self, chaos: &mut Option<ChaosRng<'_>>) -> bool {
        let mut p = lock(&self.park);
        loop {
            if p.outstanding == 0 {
                return false;
            }
            if p.queued > 0 {
                return true;
            }
            // Count the wait *before* taking it: the park lock is held, so
            // the counter must be an independent sink, never this lock.
            self.recorder.counter_add("engine.pool.park_waits", 1);
            let millis = match chaos.as_mut() {
                Some(c) => 1 + c.next() % 16,
                None => 50,
            };
            let (guard, _timeout) = self
                .cv
                .wait_timeout(p, std::time::Duration::from_millis(millis))
                .unwrap_or_else(PoisonError::into_inner);
            p = guard;
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
/// job it is currently running (bounded retry after a panic).
pub(crate) struct WorkerCtx<'a> {
    scheduler: &'a Scheduler,
    /// Id of the worker running this job (journal detail only).
    pub worker: usize,
    requeued: std::cell::Cell<bool>,
}

impl WorkerCtx<'_> {
    /// Requeues the *current* job onto the global injector; the pool will
    /// hand it to some worker again instead of retiring it.
    pub fn requeue_current(&self, idx: usize) {
        self.requeued.set(true);
        self.scheduler.requeue(idx);
    }
}

/// Runs job indices `0..count` on `workers` threads. `body` is invoked once
/// per scheduled execution (so a requeued index runs again) and may borrow
/// from the caller's stack. Scheduling events are recorded to `recorder`
/// (steals, park waits, injector depth, queue high-water); pass
/// `Handle::noop()` to record nothing. Returns pool statistics.
pub(crate) fn run_indexed<F>(workers: usize, count: usize, recorder: &Handle, body: F) -> PoolStats
where
    F: Fn(&WorkerCtx<'_>, usize) + Sync,
{
    run_indexed_chaos(workers, count, recorder, None, body)
}

/// [`run_indexed`] with an optional [`ChaosSchedule`]: the execution
/// contract (every index retires exactly once, results are slot-addressed)
/// is identical; only the schedule is perturbed.
pub(crate) fn run_indexed_chaos<F>(
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
    let scheduler = Scheduler::new(workers, count, recorder.clone());
    let chaos_state = chaos.map(|ChaosSchedule(seed)| ChaosState {
        seed: splitmix64(seed ^ 0xC4A0_55C4_EDB1_E001),
        forced: (0..count).map(|_| AtomicU32::new(0)).collect(),
    });
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let scheduler = &scheduler;
            let body = &body;
            let chaos_state = chaos_state.as_ref();
            scope.spawn(move || {
                let mut rng = chaos_state
                    .map(|state| ChaosRng { state, worker: worker as u64, draws: 0 });
                loop {
                    match scheduler.find_work(worker, &mut rng) {
                        Some(idx) => {
                            // Forced requeue: before executing, chaos may
                            // bounce the job back through the injector so a
                            // different worker (and queue interleaving) runs
                            // it. Bounded per index so the batch drains.
                            if let (Some(rng), Some(state)) = (rng.as_mut(), chaos_state) {
                                if rng.next() & 3 == 0
                                    && state.forced[idx].fetch_add(1, Ordering::SeqCst)
                                        < CHAOS_MAX_FORCED_REQUEUES
                                {
                                    scheduler
                                        .recorder
                                        .counter_add("engine.pool.chaos_forced_requeues", 1);
                                    scheduler.requeue(idx);
                                    continue;
                                }
                            }
                            let ctx = WorkerCtx {
                                scheduler,
                                worker,
                                requeued: std::cell::Cell::new(false),
                            };
                            body(&ctx, idx);
                            if !ctx.requeued.get() {
                                scheduler.retire();
                            }
                        }
                        None => {
                            if !scheduler.park_or_exit(&mut rng) {
                                break;
                            }
                        }
                    }
                }
            });
        }
    });
    let p = lock(&scheduler.park);
    recorder.counter_add("engine.pool.batches", 1);
    recorder.gauge_set("engine.pool.workers", workers as u64);
    recorder.gauge_set("engine.pool.queue_high_water", p.high_water as u64);
    PoolStats { workers, queue_high_water: p.high_water }
}

/// Runs `f(index, item)` for every item of `items` on `workers` threads and
/// blocks until all complete. The primitive behind the engine's batch
/// executor and the bench crate's `run_lineup`: items may borrow from the
/// caller, results are typically written into a locked slot table so output
/// order is submission order regardless of schedule.
pub fn scoped_for_each<T, F>(workers: usize, items: &[T], f: F) -> PoolStats
where
    T: Sync,
    F: Fn(usize, &T) + Sync,
{
    run_indexed(workers, items.len(), &Handle::noop(), |_, idx| f(idx, &items[idx]))
}

/// [`scoped_for_each`] under a [`ChaosSchedule`] — the sanitizer harness's
/// way to subject any indexed batch to deterministic schedule perturbation.
/// Forced requeues re-offer an index to the pool *before* `f` starts, never
/// after, so `f` still executes exactly once per item.
pub fn scoped_for_each_chaos<T, F>(
    workers: usize,
    items: &[T],
    chaos: ChaosSchedule,
    f: F,
) -> PoolStats
where
    T: Sync,
    F: Fn(usize, &T) + Sync,
{
    scoped_for_each_chaos_recorded(workers, items, chaos, &Handle::noop(), f)
}

/// [`scoped_for_each_chaos`] with a telemetry recorder, so callers that
/// assert "the schedule really was perturbed" (the serve determinism suite)
/// can read `engine.pool.chaos_forced_requeues` from their own registry.
pub fn scoped_for_each_chaos_recorded<T, F>(
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
    run_indexed_chaos(workers, items.len(), recorder, Some(chaos), |_, idx| f(idx, &items[idx]))
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
                scoped_for_each_chaos(workers, &hits, ChaosSchedule(seed), |_, slot| {
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
    fn chaos_slot_table_results_match_baseline() {
        let items: Vec<u64> = (0..40).collect();
        let collect = |chaos: Option<ChaosSchedule>, workers: usize| -> Vec<u64> {
            let slots: Vec<Mutex<u64>> = items.iter().map(|_| Mutex::new(0)).collect();
            match chaos {
                Some(c) => scoped_for_each_chaos(workers, &items, c, |idx, &v| {
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
        run_indexed_chaos(1, 200, &handle, Some(ChaosSchedule(11)), |_, _| {
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

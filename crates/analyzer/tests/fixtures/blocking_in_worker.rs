//! Fixture: `blocking-in-worker` (scanned with `engine_crate: true`,
//! `worker_pool: false`). The same source scanned with `worker_pool: true`
//! is the sanctioned-pool-internals negative: the rule is off entirely.

pub fn run_jobs(jobs: &[Job], results: &Mutex<Vec<Out>>, cv: &Condvar, recorder: &Handle) {
    run_indexed(4, jobs.len(), recorder, None, |ctx, idx| {
        let out = execute(&jobs[idx]);
        results.lock().unwrap().push(out); //~ blocking-in-worker
        let dump = std::fs::read_to_string("state.json"); //~ blocking-in-worker
        let mut guard = acquire(ctx);
        while !ready(&guard) {
            guard = cv.wait(guard).unwrap(); //~ blocking-in-worker
        }
        drop(dump);
    });
}

pub fn run_with_waiver(jobs: &[Job], slots: &[Mutex<Out>]) {
    scoped_for_each(4, jobs, |idx, job| {
        let out = execute(job);
        // analyzer:allow(blocking-in-worker): fixture: per-job slot mutex, one writer per index, zero contention
        *slots[idx].lock().unwrap() = out;
    });
}

pub fn run_under_chaos(jobs: &[Job], log: &Mutex<Vec<usize>>, recorder: &Handle) {
    scoped_for_each_chaos(4, jobs, ChaosSchedule(7), recorder, |idx, job| {
        execute(job);
        log.lock().unwrap().push(idx); //~ blocking-in-worker
    });
}

pub fn collect_results(results: &Mutex<Vec<Out>>) -> Vec<Out> {
    // Outside any worker closure: locking on the coordinator thread is the
    // normal join path, not a finding.
    results.lock().unwrap().drain(..).collect()
}

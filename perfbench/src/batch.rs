//! The batch workloads (`batch_paper`, `bounded_window`): job lists through
//! `Engine::run_grid`, and the traced pass that makes the same public
//! calls `run_experiment` makes, one span per call.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use faction_core::{OnlineSession, RunRecord, SessionSnapshot, TaskRecord};
use faction_data::Oracle;
use faction_engine::{
    build_strategy, ArchPreset, Engine, EngineConfig, ExperimentJob, GridOutcome,
};
use faction_telemetry::{Handle, Registry};

use crate::report::{counter, registry_layers, Run};
use crate::stats::{busy_share, fnv1a, median, ratio, tail};
use crate::trace::{self, call, Span, Tracer};

/// Set-up is sampled before each grid pass until this much time is spent
/// (at least [`MIN_SETUP_REPS`] samples); `setup_s` is the median of all
/// samples, so set-up is sampled across the whole run like `wall_s`.
const SETUP_BUDGET: Duration = Duration::from_millis(400);
const MIN_SETUP_REPS: usize = 3;
/// Grid passes measured at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Pool-size buckets of the growth measurement.
const SMALL_POOL: usize = 1000;
const LARGE_POOL: usize = 2000;

/// Generates every (dataset, seed) stream the jobs use. Returns the
/// seconds it took and the task count of each job's stream, by job key.
fn setup(jobs: &[ExperimentJob]) -> (f64, BTreeMap<String, usize>) {
    let start = Instant::now();
    let tasks = jobs
        .iter()
        .map(|job| {
            let stream = std::hint::black_box(job.dataset.stream(job.seed, job.scale));
            (job.key(), stream.tasks.len())
        })
        .collect();
    (start.elapsed().as_secs_f64(), tasks)
}

/// One pass of the job list through `Engine::run_grid`, with the journal
/// and checkpoints in a fresh directory so nothing resumes.
fn grid_pass(jobs: &[ExperimentJob], workers: usize, dir: &Path) -> (f64, GridOutcome) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::create_dir_all(dir);
    let engine = Engine::new(EngineConfig {
        workers,
        checkpoint_dir: Some(dir.join("checkpoints")),
        journal_path: Some(dir.join("grid.journal")),
        ..EngineConfig::default()
    });
    let start = Instant::now();
    let outcome = engine.run_grid(jobs);
    let wall = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);
    (wall, outcome)
}

/// Canonical digest of a set of run records (timings and backend cleared).
fn digest(records: &[RunRecord]) -> u64 {
    let canonical: Vec<RunRecord> = records.iter().map(RunRecord::canonicalized).collect();
    fnv1a(
        serde_json::to_string(&canonical)
            .expect("run records serialize")
            .as_bytes(),
    )
}

/// Checks a finished grid: every job completed, every task spent exactly
/// its budget, every metric is finite. Counts jobs and rounds as
/// operations. Returns the completed records.
fn check_grid(
    run: &mut Run,
    jobs: &[ExperimentJob],
    expected: &BTreeMap<String, usize>,
    outcome: &GridOutcome,
) -> Vec<RunRecord> {
    run.ops += jobs.len() as u64;
    run.ops_failed += outcome.failures.len() as u64;
    for f in &outcome.failures {
        run.note(format!("job failed: {f}"));
    }
    run.check(outcome.summary.retries == 0, || {
        format!("{} job retries", outcome.summary.retries)
    });
    let mut records = Vec::new();
    for (job, record) in jobs.iter().zip(&outcome.records) {
        let Some(record) = record else { continue };
        check_record(run, job, expected, record);
        records.push(record.clone());
    }
    run.check(records.len() == jobs.len(), || {
        format!("{} of {} jobs completed", records.len(), jobs.len())
    });
    records
}

fn check_record(
    run: &mut Run,
    job: &ExperimentJob,
    expected: &BTreeMap<String, usize>,
    record: &RunRecord,
) {
    let key = job.key();
    run.check(record.records.len() == expected[&key], || {
        format!(
            "{key}: {} task records, stream has {}",
            record.records.len(),
            expected[&key]
        )
    });
    for t in &record.records {
        run.ops += rounds_of(t, job) as u64;
        run.check(t.queries == job.cfg.budget, || {
            format!(
                "{key} task {}: spent {} of budget {}",
                t.task_id, t.queries, job.cfg.budget
            )
        });
        let unit = [t.accuracy, t.ddp, t.eod];
        run.check(
            unit.iter().all(|v| (0.0..=1.0).contains(v))
                && t.mi.is_finite()
                && t.calibration_gap.is_finite(),
            || {
                format!(
                    "{key} task {}: metric out of range {:?}",
                    t.task_id,
                    (t.accuracy, t.ddp, t.eod, t.mi)
                )
            },
        );
    }
}

/// Acquisition rounds a task took: each round asks for the acquisition
/// batch (the last one for the rest of the budget), and every query of the
/// batch protocol is granted.
fn rounds_of(t: &TaskRecord, job: &ExperimentJob) -> usize {
    t.queries.div_ceil(job.cfg.acquisition_batch.max(1))
}

fn quality(run: &mut Run, records: &[RunRecord]) {
    let tasks: Vec<&TaskRecord> = records.iter().flat_map(|r| &r.records).collect();
    let mean =
        |f: fn(&TaskRecord) -> f64| ratio(tasks.iter().map(|t| f(t)).sum(), tasks.len() as f64);
    run.set("acc_mean", mean(|t| t.accuracy));
    run.set("ddp_mean", mean(|t| t.ddp));
    run.set("eod_mean", mean(|t| t.eod));
}

/// The end-to-end run: set-up samples and a grid pass, repeated until
/// `seconds` is spent (at least [`MIN_PASSES`] passes). Task latencies are
/// summarized per pass (each pass runs the same tasks), so the reported
/// percentile depends on the workload alone, not on how many passes fit.
pub fn measure(
    run: &mut Run,
    jobs: &[ExperimentJob],
    workers: usize,
    seconds: f64,
    scratch: &Path,
) {
    let started = Instant::now();
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    let mut rounds: usize;
    let mut first_digest = None;
    loop {
        let setup_start = Instant::now();
        let (took, expected) = setup(jobs);
        setups.push(took);
        let mut reps = 1;
        while reps < MIN_SETUP_REPS || setup_start.elapsed() < SETUP_BUDGET {
            setups.push(setup(jobs).0);
            reps += 1;
        }
        let (wall, outcome) =
            grid_pass(jobs, workers, &scratch.join(format!("pass{}", walls.len())));
        let records = check_grid(run, jobs, &expected, &outcome);
        let d = digest(&records);
        run.check(*first_digest.get_or_insert(d) == d, || {
            "canonical records differ between passes".to_string()
        });
        if walls.is_empty() {
            quality(run, &records);
            run.note(format!("digest: {d:016x} (canonical RunRecords)"));
        }
        rounds = records
            .iter()
            .flat_map(|r| &r.records)
            .map(|t| rounds_of(t, &jobs[0]))
            .sum();
        let task_ms: Vec<f64> = records
            .iter()
            .flat_map(|r| r.records.iter().map(|t| t.seconds * 1e3))
            .collect();
        p50s.push(median(&task_ms));
        tails.extend(tail(&task_ms, 99.0));
        walls.push(wall);
        let elapsed = started.elapsed().as_secs_f64();
        if walls.len() >= MIN_PASSES && elapsed + median(&walls) > seconds {
            break;
        }
    }
    run.set("setup_s", median(&setups));
    let wall_s = median(&walls);
    run.set("wall_s", wall_s);
    run.set("rounds_per_s", ratio(rounds as f64, wall_s));
    run.set("request_p50_ms", median(&p50s));
    if let Some(t) = tails.first() {
        let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
        run.set("request_p99_ms", median(&values));
        run.note(format!(
            "request = one task (evaluate, then spend its budget): p{:.2} over {} samples per pass \
             ({} beyond); median over {} passes",
            t.percentile,
            t.samples,
            t.beyond,
            tails.len()
        ));
    }
    run.note(format!(
        "passes: {} grid passes, wall_s per pass {:?}",
        walls.len(),
        walls
    ));
    run.note(format!(
        "set-up: {} samples, min {:.4} s, median {:.4} s, max {:.4} s",
        setups.len(),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        median(&setups),
        setups.iter().copied().fold(0.0, f64::max)
    ));
}

/// What the traced pass observed for one job.
struct Driven {
    record: RunRecord,
    /// (labels ingested so far, seconds) per `apply_labels` call.
    apply: Vec<(usize, f64)>,
    degraded: u64,
    wire_bytes: u64,
    pool_ok: bool,
}

/// Runs one job through the same public calls as `run_experiment`, with a
/// span around each. At every task boundary the live session's snapshot is
/// encoded to wire bytes, decoded, and the session restored from it.
fn drive(job: &ExperimentJob, tracer: &Tracer, parent: u64) -> Result<Driven, String> {
    let key = job.key();
    let cfg = &job.cfg;
    if job.arch != ArchPreset::Standard
        || job.truncate_tasks.is_some()
        || job.truncate_samples.is_some()
    {
        return Err(format!(
            "{key}: the traced pass covers standard, untruncated jobs"
        ));
    }
    let mut strategy = build_strategy(&job.strategy, cfg.loss, job.lambda, job.quick_knobs)
        .ok_or_else(|| format!("unknown strategy '{}'", job.strategy))?;
    let tracer = Some(tracer);
    call(tracer, "job", Some(parent), &key, |jid| {
        let started = Instant::now();
        let stream = call(tracer, "data.stream", jid, &key, |_| {
            job.dataset.stream(job.seed, job.scale)
        });
        let arch = faction_nn::presets::standard(stream.input_dim, stream.num_classes, job.seed);
        let mut session = OnlineSession::new(
            &arch,
            cfg,
            job.seed,
            stream.num_classes,
            strategy.training_loss(),
        );
        if let Some(first) = stream.tasks.first() {
            call(tracer, "core.warm_start", jid, &key, |_| {
                session.warm_start(first)
            });
        }
        let mut ingested = session.pool().len();
        let mut records = Vec::with_capacity(stream.tasks.len());
        let (mut apply, mut degraded, mut wire_bytes, mut pool_ok) = (Vec::new(), 0, 0, true);
        for task in &stream.tasks {
            let task_start = Instant::now();
            let eval = call(tracer, "core.begin_task", jid, &key, |_| {
                session.begin_task(task)
            });
            let mut oracle = Oracle::new(task, cfg.budget);
            while oracle.remaining() > 0 && session.has_candidates() {
                let decisions = call(tracer, "core.feed", jid, &key, |_| {
                    session.feed(task, strategy.as_mut())
                });
                degraded += u64::from(decisions.degraded);
                let labels: Vec<Option<usize>> = call(tracer, "data.oracle", jid, &key, |_| {
                    decisions.picked.iter().map(|&g| oracle.query(g)).collect()
                });
                let call_start = Instant::now();
                let outcome = call(tracer, "core.apply_labels", jid, &key, |_| {
                    session.apply_labels(task, &labels)
                });
                apply.push((ingested, call_start.elapsed().as_secs_f64()));
                // The bucket key is labels ingested so far: the pool size
                // under the unbounded policy, capped by a window.
                ingested += outcome.granted;
                let retained = cfg
                    .pool_policy
                    .capacity()
                    .map_or(ingested, |cap| ingested.min(cap));
                pool_ok &= session.pool().len() == retained;
            }
            records.push(TaskRecord {
                task_id: task.id,
                env_name: task.env_name.clone(),
                accuracy: eval.accuracy,
                ddp: eval.ddp,
                eod: eval.eod,
                mi: eval.mi,
                calibration_gap: eval.calibration_gap,
                queries: oracle.queries_made(),
                seconds: task_start.elapsed().as_secs_f64(),
                selection_seconds: session.selection_seconds(),
                training_seconds: session.training_seconds(),
            });
            let snapshot = call(tracer, "core.snapshot", jid, &key, |_| {
                session.snapshot(strategy.as_ref())
            });
            let bytes = call(tracer, "wire.encode", jid, &key, |_| {
                snapshot.to_wire_bytes()
            });
            wire_bytes += bytes.len() as u64;
            let decoded = call(tracer, "wire.decode", jid, &key, |_| {
                SessionSnapshot::from_wire_bytes(&bytes)
            })
            .map_err(|e| format!("{key}: snapshot decode failed: {e}"))?;
            session = call(tracer, "core.restore", jid, &key, |_| {
                OnlineSession::restore(&decoded, cfg, strategy.as_mut())
            })
            .map_err(|e| format!("{key}: restore failed: {e}"))?;
        }
        let record = RunRecord {
            strategy: strategy.name(),
            dataset: stream.name.clone(),
            seed: job.seed,
            records,
            total_seconds: started.elapsed().as_secs_f64(),
            kernel_backend: faction_linalg::dispatch::active_backend()
                .as_str()
                .to_string(),
        };
        Ok(Driven {
            record,
            apply,
            degraded,
            wire_bytes,
            pool_ok,
        })
    })
}

/// The traced run: one untraced reference pass through `run_grid`, then
/// the traced pass over the same jobs on the same engine pool. The two
/// canonical digests must match.
pub fn traced(run: &mut Run, jobs: &[ExperimentJob], workers: usize, scratch: &Path) -> Vec<Span> {
    let (_, expected) = setup(jobs);
    let (untraced_wall, outcome) = grid_pass(jobs, workers, &scratch.join("reference"));
    let reference = check_grid(run, jobs, &expected, &outcome);
    let untraced_digest = digest(&reference);

    let registry = Arc::new(Registry::new());
    let engine = Engine::new(EngineConfig {
        workers,
        recorder: Handle::from(registry.clone()),
        ..EngineConfig::default()
    });
    let tracer = Tracer::new();
    let started = Instant::now();
    let batch = tracer.span("engine.run_batch", None, "batch", |root| {
        engine.run_batch_labeled(jobs, |i| jobs[i].key(), |job| drive(job, &tracer, root))
    });
    let traced_wall = started.elapsed().as_secs_f64();
    let spans = tracer.finish();
    let snap = registry.snapshot();

    run.ops += jobs.len() as u64;
    run.ops_failed += batch.failures.len() as u64;
    for f in &batch.failures {
        run.note(format!("traced job failed: {f}"));
    }
    let driven: Vec<(&ExperimentJob, Driven)> = jobs
        .iter()
        .zip(batch.results)
        .filter_map(|(job, d)| Some((job, d?)))
        .collect();
    let records: Vec<RunRecord> = driven.iter().map(|(_, d)| d.record.clone()).collect();
    for (job, d) in &driven {
        check_record(run, job, &expected, &d.record);
        run.check(d.pool_ok, || {
            format!(
                "{}: pool size disagrees with its {} policy",
                job.key(),
                job.cfg.pool_policy
            )
        });
        run.ops_failed += d.degraded;
    }
    let traced_digest = digest(&records);
    run.check(
        records.len() == jobs.len() && traced_digest == untraced_digest,
        || format!("traced digest {traced_digest:016x} != untraced {untraced_digest:016x}"),
    );
    run.note(format!(
        "digest: untraced {untraced_digest:016x}, traced {traced_digest:016x}"
    ));

    let totals = trace::by_name(&spans);
    run.set("data.stream_gen_ms", trace::self_ms(&totals, "data.stream"));
    run.set(
        "core.warm_start_ms",
        trace::self_ms(&totals, "core.warm_start"),
    );
    run.set(
        "core.begin_task_ms",
        trace::self_ms(&totals, "core.begin_task"),
    );
    run.set("core.feed_ms", trace::self_ms(&totals, "core.feed"));
    run.set(
        "core.apply_labels_ms",
        trace::self_ms(&totals, "core.apply_labels"),
    );
    let apply: Vec<(usize, f64)> = driven
        .iter()
        .flat_map(|(_, d)| d.apply.iter().copied())
        .collect();
    let bucket = |keep: &dyn Fn(usize) -> bool| {
        let v: Vec<f64> = apply
            .iter()
            .filter(|(n, _)| keep(*n))
            .map(|(_, s)| s * 1e3)
            .collect();
        ratio(v.iter().sum(), v.len() as f64)
    };
    let (small, large) = (bucket(&|n| n < SMALL_POOL), bucket(&|n| n >= LARGE_POOL));
    run.set("core.apply_labels_ms.pool_lt_1000", small);
    run.set("core.apply_labels_ms.pool_ge_2000", large);
    run.set("core.train_growth", ratio(large, small));
    registry_layers(run, &snap);

    run.set(
        "engine.busy_share",
        busy_share(
            totals.get("job").map_or(0.0, |t| t.total),
            workers,
            traced_wall,
        ),
    );
    run.set(
        "engine.job_run_s.max",
        totals.get("job").map_or(0.0, |t| t.max),
    );
    run.set("engine.steals", counter(&snap, "engine.pool.steals"));
    run.set(
        "engine.park_waits",
        counter(&snap, "engine.pool.park_waits"),
    );
    run.set(
        "wire.snapshot_bytes",
        driven.iter().map(|(_, d)| d.wire_bytes as f64).sum(),
    );
    run.set("wire.encode_us", trace::mean_us(&totals, "wire.encode"));
    run.set("wire.decode_us", trace::mean_us(&totals, "wire.decode"));
    // The traced pass also round-trips every task-boundary snapshot; that
    // work is not tracing overhead.
    let round_trips: f64 = [
        "core.snapshot",
        "wire.encode",
        "wire.decode",
        "core.restore",
    ]
    .iter()
    .map(|name| totals.get(name).map_or(0.0, |t| t.total))
    .sum();
    run.set(
        "telemetry.overhead_pct",
        100.0 * (traced_wall - round_trips / workers as f64 - untraced_wall) / untraced_wall,
    );
    let (share, uncovered) = trace::coverage(&spans, &["job"]);
    run.set("trace.coverage", share);
    run.set("trace.uncovered_ms", uncovered * 1e3);
    run.note(format!(
        "trace: coverage {share:.4} of job time; uncovered {:.1} ms is the benchmark loop between calls \
         (label vectors, record assembly); engine.run_batch self time {:.1} ms is worker idle at the makespan tail",
        uncovered * 1e3,
        trace::self_ms(&totals, "engine.run_batch")
    ));
    run.note(trace::shares_line(&spans, &["job"]));
    run.note(format!(
        "walls: untraced {untraced_wall:.3} s, traced {traced_wall:.3} s"
    ));
    spans
}

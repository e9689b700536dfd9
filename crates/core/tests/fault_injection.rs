//! Fault-injection suite: the no-poison contract of DESIGN.md §10.
//!
//! Every strategy in the paper lineup must survive a deliberately poisoned
//! stream — NaN/Inf feature entries, a vanishing sensitive group, a
//! constant-feature task, a single-class task, all at once — and still
//! behave like a correct protocol: the full label budget is spent, every
//! reported metric is finite, results are byte-identical across worker
//! counts, and degradation is visible in telemetry rather than silently
//! absorbed. A clean stream, conversely, must report *zero* degradation
//! and reproduce itself byte for byte.

use std::sync::{Arc, Mutex};

use faction_core::strategies::{Faction, FactionParams, RefitMode, SelectionContext, Strategy};
use faction_core::{run_experiment, AcquisitionMode, ExperimentConfig, PoolPolicy, RunRecord};
use faction_data::{datasets, poison, PoisonSpec, Scale, TaskStream};
use faction_engine::job::build_strategy;
use faction_engine::pool::scoped_for_each;
use faction_linalg::SeedRng;
use faction_telemetry::{Handle, Registry};

/// The eight-method paper lineup (FACTION + seven baselines).
const LINEUP: &[&str] =
    &["faction", "fal", "fal-cur", "decoupled", "qufur", "ddu", "entropy", "random"];

const BUDGET: usize = 16;

fn base_stream() -> TaskStream {
    let mut stream = datasets::rcmnist(1, Scale::Quick);
    stream.tasks.truncate(3);
    for (i, t) in stream.tasks.iter_mut().enumerate() {
        t.samples.truncate(70);
        t.id = i;
    }
    stream
}

fn poisoned_stream() -> TaskStream {
    poison(&base_stream(), &PoisonSpec::havoc(5))
}

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        budget: BUDGET,
        acquisition_batch: 6,
        warm_start: 16,
        epochs_per_iteration: 2,
        train_batch_size: 32,
        learning_rate: 0.05,
        ..ExperimentConfig::quick()
    }
}

fn run_one(name: &str, stream: &TaskStream, seed: u64) -> RunRecord {
    let mut strategy =
        build_strategy(name, Default::default(), 1.0, true).expect("known strategy name");
    let arch = faction_nn::presets::tiny(stream.input_dim, stream.num_classes, 0);
    run_experiment(stream, strategy.as_mut(), &arch, &cfg(), seed)
}

fn canonical_json(record: &RunRecord) -> String {
    serde_json::to_string(&record.canonicalized()).expect("serializable record")
}

#[test]
fn every_strategy_survives_the_poisoned_stream() {
    let stream = poisoned_stream();
    for &name in LINEUP {
        let record = run_one(name, &stream, 42);
        assert_eq!(record.records.len(), stream.len(), "{name}: all tasks recorded");
        for r in &record.records {
            assert_eq!(
                r.queries, BUDGET,
                "{name}: task {} spent {} of {BUDGET} despite poison",
                r.task_id, r.queries
            );
            for (metric, v) in [
                ("accuracy", r.accuracy),
                ("ddp", r.ddp),
                ("eod", r.eod),
                ("mi", r.mi),
                ("calibration_gap", r.calibration_gap),
            ] {
                assert!(v.is_finite(), "{name}: task {} {metric} = {v}", r.task_id);
            }
        }
    }
}

#[test]
fn poisoned_results_are_byte_identical_across_worker_counts() {
    let stream = poisoned_stream();
    let serial: Vec<String> =
        LINEUP.iter().map(|name| canonical_json(&run_one(name, &stream, 7))).collect();
    let parallel = Arc::new(Mutex::new(vec![None::<String>; LINEUP.len()]));
    scoped_for_each(8, LINEUP, |i, name| {
        let json = canonical_json(&run_one(name, &stream, 7));
        parallel.lock().expect("no poisoned lock")[i] = Some(json);
    });
    let parallel = parallel.lock().expect("no poisoned lock");
    for (i, name) in LINEUP.iter().enumerate() {
        assert_eq!(
            Some(&serial[i]),
            parallel[i].as_ref(),
            "{name}: jobs=1 vs jobs=8 diverged on a poisoned stream"
        );
    }
}

/// A strategy that emits pure NaN scores every round.
struct NanScores;
impl Strategy for NanScores {
    fn name(&self) -> String {
        "NaNScores".into()
    }
    fn desirability(&mut self, ctx: &SelectionContext<'_>, _rng: &mut SeedRng) -> Vec<f64> {
        vec![f64::NAN; ctx.candidates.rows()]
    }
    fn mode(&self) -> AcquisitionMode {
        AcquisitionMode::TopK
    }
}

/// A strategy that returns the wrong number of scores.
struct WrongLength;
impl Strategy for WrongLength {
    fn name(&self) -> String {
        "WrongLength".into()
    }
    fn desirability(&mut self, ctx: &SelectionContext<'_>, _rng: &mut SeedRng) -> Vec<f64> {
        vec![0.5; ctx.candidates.rows() / 2]
    }
    fn mode(&self) -> AcquisitionMode {
        AcquisitionMode::TopK
    }
}

/// A strategy that panics on every scoring call.
struct Panicky;
impl Strategy for Panicky {
    fn name(&self) -> String {
        "Panicky".into()
    }
    fn desirability(&mut self, _ctx: &SelectionContext<'_>, _rng: &mut SeedRng) -> Vec<f64> {
        panic!("injected strategy failure");
    }
    fn mode(&self) -> AcquisitionMode {
        AcquisitionMode::TopK
    }
}

#[test]
fn failing_strategies_degrade_to_uniform_random_rounds() {
    // Panics are expected inside this test (the runner contains them);
    // silence the default hook so the test log stays readable.
    let prior_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let stream = base_stream();
    let arch = faction_nn::presets::tiny(stream.input_dim, stream.num_classes, 0);
    let mut faulty: Vec<Box<dyn Strategy>> =
        vec![Box::new(NanScores), Box::new(WrongLength), Box::new(Panicky)];
    for strategy in &mut faulty {
        let name = strategy.name();
        let registry = Arc::new(Registry::new());
        let record = {
            let handle = Handle::from(registry.clone());
            let _scope = handle.enter();
            run_experiment(&stream, strategy.as_mut(), &arch, &cfg(), 3)
        };
        for r in &record.records {
            assert_eq!(r.queries, BUDGET, "{name}: task {} must still spend the budget", r.task_id);
        }
        let degraded = registry.snapshot().counter("core.runner.degraded_rounds").unwrap_or(0);
        let rounds = registry.snapshot().counter("core.runner.rounds").unwrap_or(0);
        assert_eq!(
            degraded, rounds,
            "{name}: every scored round must be counted as degraded"
        );
        assert!(degraded > 0, "{name}: degradation must be visible in telemetry");
    }
    std::panic::set_hook(prior_hook);
}

#[test]
fn clean_runs_report_zero_degradation_and_reproduce_exactly() {
    let stream = base_stream();
    for &name in ["faction", "entropy"].iter() {
        let registry = Arc::new(Registry::new());
        let record = {
            let handle = Handle::from(registry.clone());
            let _scope = handle.enter();
            run_one(name, &stream, 11)
        };
        let snapshot = registry.snapshot();
        for key in [
            "core.runner.degraded_rounds",
            "core.runner.sanitized_values",
            "core.strategy.sanitized_scores",
            "density.ridge_escalations",
            "density.fallback_components",
            "density.gda.nonfinite_rows_skipped",
        ] {
            assert_eq!(
                snapshot.counter(key),
                None,
                "{name}: clean stream must not trip the {key} containment path"
            );
        }
        // The guards are pass-through on clean data: a second identically
        // seeded run (recording off) is byte-identical.
        assert_eq!(canonical_json(&record), canonical_json(&run_one(name, &stream, 11)));
    }
}

#[test]
fn poisoned_runs_surface_containment_in_telemetry() {
    let stream = poisoned_stream();
    let registry = Arc::new(Registry::new());
    {
        let handle = Handle::from(registry.clone());
        let _scope = handle.enter();
        run_one("faction", &stream, 42);
    }
    let snapshot = registry.snapshot();
    // NaN/Inf entries reach the runner's data boundary every round, so the
    // scrub counter must be hot; the 2%/1% entry rates make hits certain at
    // this stream size.
    assert!(
        snapshot.counter("core.runner.sanitized_values").unwrap_or(0) > 0,
        "feature scrubbing must be visible in telemetry"
    );
}

#[test]
fn bounded_pools_survive_poison_under_incremental_refit() {
    // The §10 no-poison contract extended to the PR 6 machinery: a poisoned
    // stream driven through the incremental-refit path with an evicting
    // pool must still spend the budget with finite metrics, and the
    // containment must be visible — evictions counted, and at least one
    // re-anchor of the rank-1 state (forced here via a tiny period).
    let stream = poisoned_stream();
    let policy = PoolPolicy::SlidingWindow(40);
    let registry = Arc::new(Registry::new());
    let record = {
        let handle = Handle::from(registry.clone());
        let _scope = handle.enter();
        let mut strategy = Faction::new(FactionParams {
            refit: RefitMode::Incremental { reanchor_every: 2 },
            ..FactionParams::default()
        });
        let arch = faction_nn::presets::tiny(stream.input_dim, stream.num_classes, 0);
        let mut config = cfg();
        config.pool_policy = policy;
        run_experiment(&stream, &mut strategy, &arch, &config, 42)
    };
    assert_eq!(record.records.len(), stream.len(), "{policy}: all tasks recorded");
    for r in &record.records {
        assert_eq!(r.queries, BUDGET, "{policy}: task {} must spend the budget", r.task_id);
        for (metric, v) in [
            ("accuracy", r.accuracy),
            ("ddp", r.ddp),
            ("eod", r.eod),
            ("mi", r.mi),
            ("calibration_gap", r.calibration_gap),
        ] {
            assert!(v.is_finite(), "{policy}: task {} {metric} = {v}", r.task_id);
        }
    }
    let snapshot = registry.snapshot();
    assert!(
        snapshot.counter("core.pool.evictions").unwrap_or(0) > 0,
        "{policy}: a 40-cap pool over 64 labels must evict"
    );
    assert!(
        snapshot.counter("density.incremental.reanchors").unwrap_or(0) > 0,
        "{policy}: the re-anchor path must fire and be visible in telemetry"
    );
}

#[test]
fn three_class_stream_reports_finite_calibration_gap() {
    // Hand-built 3-class stream: the calibration gap must generalize past
    // the binary positive-class reduction (confidence calibration) and stay
    // finite.
    use faction_data::{Sample, Task};
    let mut rng = SeedRng::new(77);
    let tasks: Vec<Task> = (0..2)
        .map(|t| Task {
            id: t,
            env: 0,
            env_name: "tri".into(),
            samples: (0..60)
                .map(|i| {
                    let label = i % 3;
                    let c = label as f64 * 3.0;
                    Sample {
                        x: vec![rng.normal(c, 0.5), rng.normal(-c, 0.5)],
                        sensitive: if i % 2 == 0 { 1 } else { -1 },
                        label,
                        env: 0,
                    }
                })
                .collect(),
        })
        .collect();
    let stream = TaskStream {
        name: "TriClass".into(),
        input_dim: 2,
        num_classes: 3,
        tasks,
    };
    let arch = faction_nn::presets::tiny(stream.input_dim, 3, 0);
    let mut strategies: Vec<Box<dyn Strategy>> = vec![
        Box::new(faction_core::strategies::EntropyAl),
        Box::new(faction_core::strategies::Random),
    ];
    for strategy in &mut strategies {
        let record = run_experiment(&stream, strategy.as_mut(), &arch, &cfg(), 13);
        for r in &record.records {
            assert!(
                r.calibration_gap.is_finite(),
                "task {}: calibration gap {} must be finite with 3 classes",
                r.task_id,
                r.calibration_gap
            );
            assert!(r.accuracy.is_finite());
        }
    }
}

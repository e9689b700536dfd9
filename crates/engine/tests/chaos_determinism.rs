//! Schedule-chaos sanitizer: the determinism contract must survive an
//! adversarial scheduler, not just the friendly one.
//!
//! `ChaosSchedule(seed)` deterministically perturbs every scheduling choice
//! the pool makes — injector-first polling, steal-scan origin and side,
//! shortened park timeouts, and bounded forced requeues — so these tests
//! explore interleavings a quiet CI box would never produce on its own.
//! The contract under test is DESIGN.md §12: canonicalized results are a
//! pure function of (stream, seed, config) and must stay byte-identical to
//! the `jobs=1` no-chaos baseline under every chaos seed.
//!
//! `check.sh` runs this suite as the blocking `chaos-determinism` stage.

use std::sync::{Arc, Mutex};

use faction_core::{run_experiment, ExperimentConfig, RunRecord};
use faction_data::datasets::Dataset;
use faction_data::{poison, PoisonSpec, Scale, TaskStream};
use faction_engine::job::{build_strategy, ArchPreset};
use faction_engine::{
    scoped_for_each, scoped_for_each_chaos, ChaosSchedule, Engine, EngineConfig, ExperimentJob,
};
use faction_telemetry::{Handle, Registry};

/// Chaos seeds the sanitizer sweeps. Three is the contract minimum; the
/// values are arbitrary but fixed so failures reproduce.
const CHAOS_SEEDS: [u64; 3] = [1, 2, 3];

/// The 24-job sanitizer grid: 2 datasets × 3 strategies × 4 seeds, with
/// tasks truncated hard so the sweep (1 baseline + 3 chaos runs) stays in
/// test-suite budget.
fn sanitizer_grid() -> Vec<ExperimentJob> {
    let cfg = ExperimentConfig {
        budget: 20,
        acquisition_batch: 10,
        warm_start: 20,
        epochs_per_iteration: 2,
        train_batch_size: 32,
        learning_rate: 0.05,
        ..ExperimentConfig::quick()
    };
    let mut jobs = faction_engine::grid(
        &[Dataset::Rcmnist, Dataset::Nysf],
        &["entropy", "random", "qufur"],
        4,
        &cfg,
        Scale::Quick,
    );
    for job in &mut jobs {
        job.arch = ArchPreset::Tiny;
        job.truncate_tasks = Some(2);
        job.truncate_samples = Some(80);
    }
    assert_eq!(jobs.len(), 24, "the sanitizer contract names a 24-job grid");
    jobs
}

fn engine(workers: usize, chaos: Option<ChaosSchedule>, recorder: Handle) -> Engine {
    Engine::new(EngineConfig { workers, max_retries: 0, recorder, chaos, ..EngineConfig::default() })
}

#[test]
fn chaos_grid_is_byte_identical_to_the_jobs1_baseline() {
    let grid = sanitizer_grid();
    let baseline = engine(1, None, Handle::noop()).run_grid(&grid);
    assert!(baseline.failures.is_empty(), "{:?}", baseline.failures);
    let expected = baseline.canonical_json().unwrap();
    assert!(!expected.is_empty());

    let mut forced_total = 0u64;
    for seed in CHAOS_SEEDS {
        let registry = Arc::new(Registry::new());
        let chaotic =
            engine(4, Some(ChaosSchedule(seed)), Handle::from(registry.clone())).run_grid(&grid);
        assert!(chaotic.failures.is_empty(), "chaos seed {seed}: {:?}", chaotic.failures);
        assert_eq!(
            expected,
            chaotic.canonical_json().unwrap(),
            "chaos seed {seed}: grid output diverged from the jobs=1 baseline"
        );
        forced_total +=
            registry.snapshot().counter("engine.pool.chaos_forced_requeues").unwrap_or(0);
    }
    assert!(forced_total > 0, "chaos never engaged: no forced requeues across 3 seeds × 24 jobs");
}

/// The eight-method paper lineup (FACTION + seven baselines), as run by the
/// fault-injection suite in `faction-core`.
const LINEUP: &[&str] =
    &["faction", "fal", "fal-cur", "decoupled", "qufur", "ddu", "entropy", "random"];

fn poisoned_stream() -> TaskStream {
    let mut stream = faction_data::datasets::rcmnist(1, Scale::Quick);
    stream.tasks.truncate(3);
    for (i, t) in stream.tasks.iter_mut().enumerate() {
        t.samples.truncate(70);
        t.id = i;
    }
    poison(&stream, &PoisonSpec::havoc(5))
}

fn run_one(name: &str, stream: &TaskStream, seed: u64) -> RunRecord {
    let mut strategy =
        build_strategy(name, Default::default(), 1.0, true).expect("known strategy name");
    let cfg = ExperimentConfig {
        budget: 16,
        acquisition_batch: 6,
        warm_start: 16,
        epochs_per_iteration: 2,
        train_batch_size: 32,
        learning_rate: 0.05,
        ..ExperimentConfig::quick()
    };
    let arch = faction_nn::presets::tiny(stream.input_dim, stream.num_classes, 0);
    run_experiment(stream, strategy.as_mut(), &arch, &cfg, seed)
}

fn canonical_json(record: &RunRecord) -> String {
    serde_json::to_string(&record.canonicalized()).expect("serializable record")
}

#[test]
fn chaos_fault_injection_lineup_matches_the_serial_baseline() {
    // The poisoned-stream lineup is the adversarial end of the contract:
    // containment decisions (degraded rounds, sanitized scores) must also
    // be invariant under a hostile scheduler.
    let stream = poisoned_stream();
    let serial: Vec<String> =
        LINEUP.iter().map(|name| canonical_json(&run_one(name, &stream, 7))).collect();

    for seed in CHAOS_SEEDS {
        let parallel = Arc::new(Mutex::new(vec![None::<String>; LINEUP.len()]));
        scoped_for_each_chaos(8, LINEUP, ChaosSchedule(seed), |i, name| {
            let json = canonical_json(&run_one(name, &stream, 7));
            parallel.lock().expect("no poisoned lock")[i] = Some(json);
        });
        let parallel = parallel.lock().expect("no poisoned lock");
        for (i, name) in LINEUP.iter().enumerate() {
            assert_eq!(
                Some(&serial[i]),
                parallel[i].as_ref(),
                "{name}: chaos seed {seed} diverged on the poisoned stream"
            );
        }
    }
}

#[test]
fn chaos_seeds_perturb_scheduling_without_perturbing_results() {
    // Sanity check on the sanitizer itself: different chaos seeds must
    // produce the *same* results — that is the whole point.
    let items: Vec<u64> = (0..97).collect();
    let mut canonicals = Vec::new();
    for seed in CHAOS_SEEDS {
        let slots: Vec<Mutex<u64>> = items.iter().map(|_| Mutex::new(0)).collect();
        scoped_for_each_chaos(4, &items, ChaosSchedule(seed), |idx, &v| {
            *slots[idx].lock().unwrap() = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        });
        canonicals.push(slots.iter().map(|s| *s.lock().unwrap()).collect::<Vec<u64>>());
    }
    assert!(canonicals.windows(2).all(|w| w[0] == w[1]), "chaos seeds changed results");

    // And the plain pool agrees with the chaotic one.
    let slots: Vec<Mutex<u64>> = items.iter().map(|_| Mutex::new(0)).collect();
    scoped_for_each(4, &items, |idx, &v| {
        *slots[idx].lock().unwrap() = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    });
    let plain: Vec<u64> = slots.iter().map(|s| *s.lock().unwrap()).collect();
    assert_eq!(plain, canonicals[0]);
}

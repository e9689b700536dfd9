//! Cross-crate integration tests: the full protocol driven through the
//! public facade, on every simulated dataset.

use faction::core::strategies::faction::{Faction, FactionParams};
use faction::engine::{build_strategy, PAPER_METHODS};
use faction::prelude::*;

fn quick_cfg() -> ExperimentConfig {
    ExperimentConfig {
        budget: 30,
        acquisition_batch: 15,
        warm_start: 30,
        epochs_per_iteration: 3,
        ..ExperimentConfig::quick()
    }
}

fn truncated(dataset: Dataset, tasks: usize, samples: usize, seed: u64) -> TaskStream {
    dataset.stream_prefix(seed, Scale::Quick, Some(tasks), Some(samples))
}

#[test]
fn faction_runs_on_every_dataset() {
    let cfg = quick_cfg();
    for dataset in Dataset::ALL {
        let stream = truncated(dataset, 2, 90, 1);
        let arch = faction::nn::presets::tiny(stream.input_dim, stream.num_classes, 1);
        let mut strategy = Faction::new(FactionParams { loss: cfg.loss, ..Default::default() });
        let record = run_experiment(&stream, &mut strategy, &arch, &cfg, 1);
        assert_eq!(record.records.len(), 2, "{}", dataset.name());
        for r in &record.records {
            assert!(r.queries <= cfg.budget);
            assert!((0.0..=1.0).contains(&r.accuracy), "{} acc {}", dataset.name(), r.accuracy);
            assert!(r.ddp.is_finite() && r.eod.is_finite() && r.mi.is_finite());
        }
    }
}

#[test]
fn every_baseline_completes_the_protocol() {
    let cfg = quick_cfg();
    let stream = truncated(Dataset::Rcmnist, 2, 80, 2);
    let arch = faction::nn::presets::tiny(stream.input_dim, stream.num_classes, 2);
    for method in PAPER_METHODS {
        // Quick cost knobs: FAL at its default l is the slow one.
        let mut strategy = build_strategy(method, cfg.loss, 1.0, true).unwrap();
        let name = strategy.name();
        let record = run_experiment(&stream, strategy.as_mut(), &arch, &cfg, 2);
        assert_eq!(record.records.len(), 2, "{name}");
        assert!(record.records.iter().all(|r| r.queries <= cfg.budget), "{name}");
        assert_eq!(record.strategy, name);
    }
}

#[test]
fn accuracy_improves_across_a_stationary_stream() {
    // On a single-environment stream the learner must improve from its warm
    // start to near the noise ceiling by the last task.
    let cfg = quick_cfg();
    let stream = truncated(Dataset::Rcmnist, 3, 120, 3);
    // Force all tasks into the same (first) environment by regenerating:
    // take tasks 0..3, which share env 0 (3 tasks per environment).
    for t in &stream.tasks {
        assert_eq!(t.env, 0);
    }
    let arch = faction::nn::presets::tiny(stream.input_dim, stream.num_classes, 3);
    let mut strategy = Faction::new(FactionParams { loss: cfg.loss, ..Default::default() });
    let record = run_experiment(&stream, &mut strategy, &arch, &cfg, 3);
    let first = record.records.first().unwrap().accuracy;
    let last = record.records.last().unwrap().accuracy;
    assert!(
        last >= first - 0.05,
        "accuracy should not collapse on a stationary stream: {first} -> {last}"
    );
    assert!(last > 0.6, "final accuracy {last}");
}

#[test]
fn fair_faction_beats_uncertainty_only_on_fairness() {
    // The paper's central claim (Fig. 4 / Table I) at miniature scale:
    // averaged over seeds, full FACTION achieves lower DDP than its
    // non-fairness-aware ablation on the biased NYSF stream.
    let cfg = ExperimentConfig {
        budget: 40,
        acquisition_batch: 20,
        warm_start: 40,
        epochs_per_iteration: 4,
        ..ExperimentConfig::quick()
    };
    let seeds = 3;
    let mean_ddp = |fair: bool| -> f64 {
        (0..seeds)
            .map(|seed| {
                let stream = truncated(Dataset::Nysf, 4, 150, seed);
                let arch =
                    faction::nn::presets::tiny(stream.input_dim, stream.num_classes, seed);
                let params = FactionParams { loss: cfg.loss, ..Default::default() };
                let mut strategy =
                    if fair { Faction::new(params) } else { Faction::uncertainty_only(params) };
                let record = run_experiment(&stream, &mut strategy, &arch, &cfg, seed);
                record.mean_of(|r| r.ddp)
            })
            .sum::<f64>()
            / seeds as f64
    };
    let ddp_fair = mean_ddp(true);
    let ddp_plain = mean_ddp(false);
    assert!(
        ddp_fair < ddp_plain,
        "fair FACTION must reduce DDP: fair {ddp_fair:.3} vs plain {ddp_plain:.3}"
    );
}

#[test]
fn facade_prelude_exposes_the_working_surface() {
    // Compile-and-run sanity of the re-exported API.
    let mut pool = LabeledPool::new();
    pool.push(vec![0.0, 1.0], 0, 1);
    pool.push(vec![1.0, 0.0], 1, -1);
    assert_eq!(pool.len(), 2);
    let m = Matrix::identity(2);
    assert_eq!(m.get(1, 1), 1.0);
    let mut rng = SeedRng::new(0);
    assert!(rng.uniform() < 1.0);
    assert_eq!(accuracy(&[1, 0], &[1, 1]), 0.5);
}

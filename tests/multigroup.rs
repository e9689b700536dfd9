//! Integration tests for the multi-valued sensitive-attribute extension:
//! the same protocol runner + the multi-group loss, end to end.

use faction::core::strategies::{Ddu, Random};
use faction::core::MultiGroupFairLoss;
use faction::data::multigroup::{multi_group_stream, MultiGroupSpec};
use faction::fairness::ddp;
use faction::nn::{CrossEntropyLoss, Mlp, Sgd, TrainOptions};
use faction::prelude::*;

fn small_spec() -> MultiGroupSpec {
    MultiGroupSpec { tasks: 3, samples_per_task: 200, ..Default::default() }
}

#[test]
fn runner_handles_three_group_streams() {
    let stream = multi_group_stream(&small_spec(), 1, Scale::Quick);
    let cfg = ExperimentConfig {
        budget: 20,
        acquisition_batch: 10,
        warm_start: 25,
        epochs_per_iteration: 2,
        ..ExperimentConfig::quick()
    };
    let arch = faction::nn::presets::tiny(stream.input_dim, stream.num_classes, 1);
    for strategy in [&mut Random as &mut dyn Strategy, &mut Ddu::default()] {
        let record = run_experiment(&stream, strategy, &arch, &cfg, 1);
        assert_eq!(record.records.len(), 3);
        for r in &record.records {
            assert!((0.0..=1.0).contains(&r.accuracy));
            assert!((0.0..=1.0).contains(&r.ddp), "multi DDP {}", r.ddp);
            assert!(r.mi >= 0.0);
            assert!(r.queries <= cfg.budget);
        }
    }
}

#[test]
fn density_estimator_builds_six_components_for_three_groups() {
    let stream = multi_group_stream(&small_spec(), 2, Scale::Full);
    let task = &stream.tasks[0];
    let estimator = FairDensityEstimator::fit(
        &task.features(),
        &task.labels(),
        &task.sensitives(),
        2,
        &FairDensityConfig::default(),
    )
    .unwrap();
    assert_eq!(estimator.num_components(), 6, "2 classes × 3 groups");
    // Δg generalizes to max−min over the three groups' log densities.
    let gaps = estimator.delta_g_all(&task.samples[0].x).unwrap();
    assert_eq!(gaps.len(), 2);
    assert!(gaps.iter().all(|&g| g >= 0.0 && g.is_finite()));
}

#[test]
fn multi_group_loss_reduces_multi_ddp() {
    // Train the same architecture with CE vs the multi-group fairness loss
    // on a three-group dataset with unequal base rates; the fair loss must
    // cut the max pairwise DDP materially.
    let stream = multi_group_stream(
        &MultiGroupSpec {
            tasks: 1,
            samples_per_task: 700,
            group_separation: 2.5,
            ..Default::default()
        },
        3,
        Scale::Full,
    );
    let task = &stream.tasks[0];
    let x = task.features();
    let labels = task.labels();
    let sens = task.sensitives();

    let train = |fair: bool| -> f64 {
        let mut mlp = Mlp::new(&faction::nn::presets::tiny(stream.input_dim, 2, 11));
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        let mut rng = SeedRng::new(11);
        let options = TrainOptions { epochs: 25, batch_size: 64 };
        if fair {
            let loss = MultiGroupFairLoss::new(1.5, 0.0);
            mlp.fit(&x, &labels, &sens, &loss, &mut opt, &options, &mut rng);
        } else {
            mlp.fit(&x, &labels, &sens, &CrossEntropyLoss, &mut opt, &options, &mut rng);
        }
        let preds = mlp.predict(&x);
        ddp(&preds, &sens)
    };

    let ddp_plain = train(false);
    let ddp_fair = train(true);
    assert!(
        ddp_fair < ddp_plain - 0.05,
        "multi-group loss must reduce max-pairwise DDP: plain {ddp_plain:.3} fair {ddp_fair:.3}"
    );
}

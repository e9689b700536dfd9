//! A bounded stream is the truncated full stream, bit for bit.
//!
//! `Dataset::stream_prefix` generates only the tasks and samples a caller
//! keeps, and builds only the environments its task bound reaches. This
//! suite pins that the saving is invisible: for every benchmark, three
//! seeds, both scales, every task bound from 0 past the stream's end and a
//! spread of sample bounds, the bounded stream equals `Dataset::stream`
//! truncated to the same prefix in every feature bit and every field.

use faction_data::datasets::Dataset;
use faction_data::{Scale, TaskStream};

fn assert_prefix_of(
    got: &TaskStream,
    full: &TaskStream,
    tasks: usize,
    samples: Option<usize>,
    case: &str,
) {
    assert_eq!(got.name, full.name, "{case}: name");
    assert_eq!(got.input_dim, full.input_dim, "{case}: input_dim");
    assert_eq!(got.num_classes, full.num_classes, "{case}: num_classes");
    assert_eq!(got.tasks.len(), tasks.min(full.len()), "{case}: task count");
    for (g, w) in got.tasks.iter().zip(&full.tasks) {
        let case = format!("{case}, task {}", w.id);
        assert_eq!(g.id, w.id, "{case}: id");
        assert_eq!(g.env, w.env, "{case}: env");
        assert_eq!(g.env_name, w.env_name, "{case}: env_name");
        assert_eq!(
            g.samples.len(),
            w.len().min(samples.unwrap_or(usize::MAX)),
            "{case}: sample count"
        );
        for (i, (gs, ws)) in g.samples.iter().zip(&w.samples).enumerate() {
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&gs.x), bits(&ws.x), "{case}, sample {i}: features");
            assert_eq!(gs.label, ws.label, "{case}, sample {i}: label");
            assert_eq!(gs.sensitive, ws.sensitive, "{case}, sample {i}: sensitive");
            assert_eq!(gs.env, ws.env, "{case}, sample {i}: env");
        }
    }
}

/// Every task bound from 0 past the stream's end, under every sample
/// bound, for three seeds of `dataset` at `scale`.
fn check(dataset: Dataset, scale: Scale) {
    for seed in [0, 7, 1_000_003] {
        let full = dataset.stream(seed, scale);
        let name = format!("{} seed {seed} {scale:?}", dataset.name());
        assert_prefix_of(
            &dataset.stream_prefix(seed, scale, None, None),
            &full,
            usize::MAX,
            None,
            &name,
        );
        let largest_task = full.tasks.iter().map(|t| t.len()).max().unwrap_or(0);
        for samples in [None, Some(0), Some(1), Some(37), Some(largest_task + 1)] {
            for tasks in 0..=full.len() + 1 {
                let bounded = dataset.stream_prefix(seed, scale, Some(tasks), samples);
                let case = format!("{name} tasks={tasks} samples={samples:?}");
                assert_prefix_of(&bounded, &full, tasks, samples, &case);
            }
        }
    }
}

// One test per (dataset, scale) so the harness spreads the grid over cores.
#[test]
fn rcmnist_quick() {
    check(Dataset::Rcmnist, Scale::Quick);
}

#[test]
fn rcmnist_full() {
    check(Dataset::Rcmnist, Scale::Full);
}

#[test]
fn celeba_quick() {
    check(Dataset::CelebA, Scale::Quick);
}

#[test]
fn celeba_full() {
    check(Dataset::CelebA, Scale::Full);
}

#[test]
fn fairface_quick() {
    check(Dataset::FairFace, Scale::Quick);
}

#[test]
fn fairface_full() {
    check(Dataset::FairFace, Scale::Full);
}

#[test]
fn ffhq_quick() {
    check(Dataset::Ffhq, Scale::Quick);
}

#[test]
fn ffhq_full() {
    check(Dataset::Ffhq, Scale::Full);
}

#[test]
fn nysf_quick() {
    check(Dataset::Nysf, Scale::Quick);
}

#[test]
fn nysf_full() {
    check(Dataset::Nysf, Scale::Full);
}

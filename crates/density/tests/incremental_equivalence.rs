//! Blocking gate: incremental GDA vs. batch refit on stationary streams.
//!
//! The determinism contract of DESIGN.md §11: with an `Unbounded` pool on a
//! stationary stream, the incremental estimator's scores (mixture log
//! density and per-class fairness gaps) must stay within **1e-8** of a full
//! batch refit over the same rows, with periodic re-anchoring every K
//! rounds. The same bound must hold under sliding-window eviction driving
//! the rank-1 removal path, also over a long window that never re-anchors,
//! and a freshly anchored state must score bit-identically to the batch fit.

use faction_density::{DensityScratch, FairDensityConfig, FairDensityEstimator, IncrementalGda};
use faction_linalg::{Matrix, SeedRng};

const TOLERANCE: f64 = 1e-8;
const REANCHOR_EVERY: usize = 64;

struct Stream {
    rng: SeedRng,
    dim: usize,
    offset: f64,
    next_uid: u64,
}

impl Stream {
    fn new(seed: u64, dim: usize) -> Self {
        Stream { rng: SeedRng::new(seed), dim, offset: 0.0, next_uid: 0 }
    }

    /// Draws one labeled sample from a fixed four-cluster mixture
    /// (stationary by construction), shifted by `offset` in every feature.
    fn draw(&mut self) -> (u64, Vec<f64>, usize, i8) {
        let class = self.rng.index(2);
        let s: i8 = if self.rng.bernoulli(0.5) { 1 } else { -1 };
        let center = self.offset + class as f64 * 3.0 + f64::from(s) * 0.8;
        let z: Vec<f64> =
            (0..self.dim).map(|_| self.rng.normal(center, 0.7)).collect();
        let uid = self.next_uid;
        self.next_uid += 1;
        (uid, z, class, s)
    }
}

/// Rows retained by the reference side, mirroring the incremental state.
#[derive(Default)]
struct Reference {
    rows: Vec<(u64, Vec<f64>, usize, i8)>,
}

impl Reference {
    fn batch_fit(&self, num_classes: usize, cfg: &FairDensityConfig) -> FairDensityEstimator {
        let features = Matrix::from_rows(
            &self.rows.iter().map(|r| r.1.clone()).collect::<Vec<_>>(),
        )
        .unwrap();
        let labels: Vec<usize> = self.rows.iter().map(|r| r.2).collect();
        let sens: Vec<i8> = self.rows.iter().map(|r| r.3).collect();
        FairDensityEstimator::fit(&features, &labels, &sens, num_classes, cfg).unwrap()
    }

    fn parts(&self) -> (Matrix, Vec<usize>, Vec<i8>, Vec<u64>) {
        let features = Matrix::from_rows(
            &self.rows.iter().map(|r| r.1.clone()).collect::<Vec<_>>(),
        )
        .unwrap();
        let labels = self.rows.iter().map(|r| r.2).collect();
        let sens = self.rows.iter().map(|r| r.3).collect();
        let uids = self.rows.iter().map(|r| r.0).collect();
        (features, labels, sens, uids)
    }
}

fn max_score_gap(
    incremental: &IncrementalGda,
    batch: &FairDensityEstimator,
    probes: &[Vec<f64>],
    num_classes: usize,
) -> f64 {
    let est = incremental.estimator().unwrap();
    let mut worst = 0.0f64;
    for p in probes {
        let a = est.log_density(p).unwrap();
        let b = batch.log_density(p).unwrap();
        assert!(a.is_finite() && b.is_finite());
        worst = worst.max((a - b).abs());
        for c in 0..num_classes {
            worst = worst
                .max((est.delta_g(p, c).unwrap() - batch.delta_g(p, c).unwrap()).abs());
        }
    }
    worst
}

/// Runs `rounds` rounds of `per_round` insertions (optionally evicting down
/// to `window`), comparing scores against the batch refit every round and
/// re-anchoring the incremental state every `REANCHOR_EVERY` rounds.
fn run_stream(seed: u64, rounds: usize, per_round: usize, window: Option<usize>) -> f64 {
    let dim = 6;
    let num_classes = 2;
    let cfg = FairDensityConfig::default();
    let mut stream = Stream::new(seed, dim);
    let mut reference = Reference::default();
    let mut incremental = IncrementalGda::new(dim, num_classes, cfg).unwrap();
    let probes: Vec<Vec<f64>> = (0..8).map(|_| stream.draw().1).collect();
    let mut worst = 0.0f64;
    for round in 0..rounds {
        for _ in 0..per_round {
            let (uid, z, class, s) = stream.draw();
            incremental.insert(uid, &z, class, s).unwrap();
            reference.rows.push((uid, z, class, s));
        }
        if let Some(cap) = window {
            while reference.rows.len() > cap {
                let (uid, ..) = reference.rows.remove(0);
                incremental.remove(uid).unwrap();
            }
        }
        if round > 0 && round % REANCHOR_EVERY == 0 {
            let (features, labels, sens, uids) = reference.parts();
            incremental =
                IncrementalGda::from_rows(&features, &labels, &sens, &uids, num_classes, cfg)
                    .unwrap();
        }
        let batch = reference.batch_fit(num_classes, &cfg);
        worst = worst.max(max_score_gap(&incremental, &batch, &probes, num_classes));
    }
    assert_eq!(incremental.len_used(), reference.rows.len());
    worst
}

#[test]
fn stationary_unbounded_stream_stays_within_tolerance() {
    for seed in [1u64, 2, 3] {
        let worst = run_stream(seed, 150, 4, None);
        assert!(
            worst <= TOLERANCE,
            "seed {seed}: max |Δscore| {worst:e} exceeds {TOLERANCE:e}"
        );
    }
}

#[test]
fn sliding_window_stream_stays_within_tolerance() {
    for seed in [11u64, 12] {
        let worst = run_stream(seed, 150, 4, Some(120));
        assert!(
            worst <= TOLERANCE,
            "seed {seed}: max |Δscore| {worst:e} exceeds {TOLERANCE:e} under eviction"
        );
    }
}

#[test]
fn reanchoring_resets_accumulated_drift() {
    // Without re-anchoring drift grows monotonically in expectation; this
    // checks the anchor actually snaps the state back to the batch fit: the
    // gap right after an anchor must be (numerically) tiny.
    let dim = 5;
    let cfg = FairDensityConfig::default();
    let mut stream = Stream::new(42, dim);
    let mut reference = Reference::default();
    let mut incremental = IncrementalGda::new(dim, 2, cfg).unwrap();
    let probes: Vec<Vec<f64>> = (0..4).map(|_| stream.draw().1).collect();
    for _ in 0..400 {
        let (uid, z, class, s) = stream.draw();
        incremental.insert(uid, &z, class, s).unwrap();
        reference.rows.push((uid, z, class, s));
    }
    let (features, labels, sens, uids) = reference.parts();
    let anchored =
        IncrementalGda::from_rows(&features, &labels, &sens, &uids, 2, cfg).unwrap();
    let batch = reference.batch_fit(2, &cfg);
    let gap = max_score_gap(&anchored, &batch, &probes, 2);
    assert!(gap <= 1e-10, "post-anchor gap {gap:e} should be ~fp noise");
}

#[test]
fn anchored_state_scores_bit_identically_to_the_batch_fit() {
    // The anchor computes each cell's mean and scatter with the batch fit's
    // own statistics and factors the same covariance, so nothing is left to
    // round differently: log-density and gaps agree to the last bit.
    let dim = 32;
    let cfg = FairDensityConfig::default();
    let mut stream = Stream::new(9, dim);
    let mut reference = Reference::default();
    for _ in 0..600 {
        let (uid, mut z, class, s) = stream.draw();
        // ReLU-style exact zeros, as the extractor's features carry.
        z.iter_mut().step_by(3).for_each(|v| *v = v.max(0.0));
        reference.rows.push((uid, z, class, s));
    }
    let (features, labels, sens, uids) = reference.parts();
    let anchored = IncrementalGda::from_rows(&features, &labels, &sens, &uids, 2, cfg)
        .unwrap()
        .estimator()
        .unwrap();
    let batch = reference.batch_fit(2, &cfg);
    let probes =
        Matrix::from_rows(&(0..16).map(|_| stream.draw().1).collect::<Vec<_>>()).unwrap();
    let score = |est: &FairDensityEstimator| {
        let mut log_density = vec![0.0; probes.rows()];
        let mut gaps = Matrix::default();
        est.score_batch_into(&probes, &mut DensityScratch::new(), &mut log_density, &mut gaps)
            .unwrap();
        (log_density, gaps)
    };
    let (ld_anchored, gaps_anchored) = score(&anchored);
    let (ld_batch, gaps_batch) = score(&batch);
    for (a, b) in ld_anchored.iter().zip(&ld_batch) {
        assert_eq!(a.to_bits(), b.to_bits(), "log-density {a} vs {b}");
    }
    assert_eq!(gaps_anchored.shape(), gaps_batch.shape());
    for (a, b) in gaps_anchored.as_slice().iter().zip(gaps_batch.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "gap {a} vs {b}");
    }
}

#[test]
fn long_sliding_window_without_reanchor_stays_within_tolerance() {
    // 20 400 inserts and 20 144 removals through a 256-row window, never
    // re-anchored, with features far from the origin (mean ≈ 10, σ = 0.7):
    // the regime where cancellation in a running scatter would show first.
    let dim = 32;
    let window = 256;
    let cfg = FairDensityConfig::default();
    let mut stream = Stream::new(23, dim);
    stream.offset = 10.0;
    let mut reference = Reference::default();
    let mut incremental = IncrementalGda::new(dim, 2, cfg).unwrap();
    let probes: Vec<Vec<f64>> = (0..8).map(|_| stream.draw().1).collect();
    let (mut inserts, mut removals) = (0usize, 0usize);
    let mut worst = 0.0f64;
    for step in 1..=20_400 {
        let (uid, z, class, s) = stream.draw();
        incremental.insert(uid, &z, class, s).unwrap();
        reference.rows.push((uid, z, class, s));
        inserts += 1;
        if reference.rows.len() > window {
            let (uid, ..) = reference.rows.remove(0);
            incremental.remove(uid).unwrap();
            removals += 1;
        }
        if step % 5_100 == 0 {
            let batch = reference.batch_fit(2, &cfg);
            worst = worst.max(max_score_gap(&incremental, &batch, &probes, 2));
        }
    }
    assert!(inserts + removals >= 40_000, "{inserts} inserts, {removals} removals");
    assert_eq!(incremental.len_used(), window);
    assert!(
        worst <= TOLERANCE,
        "max |Δscore| {worst:e} exceeds {TOLERANCE:e} after {inserts} inserts, {removals} removals"
    );
}

/// Replaces every cell's `scatter` field of a serialized `IncrementalGda`
/// with `name: value`.
fn replace_scatter(state: &mut serde::Value, name: &str, value: &serde::Value) {
    let serde::Value::Object(fields) = state else { panic!("state: not an object") };
    let (_, cells) = fields.iter_mut().find(|(k, _)| k == "cells").unwrap();
    let serde::Value::Array(cells) = cells else { panic!("cells: not an array") };
    for entry in cells {
        let serde::Value::Object(entry) = entry else { panic!("entry: not an object") };
        let (_, cell) = entry.iter_mut().find(|(k, _)| k == "cell").unwrap();
        let serde::Value::Object(cell) = cell else { panic!("cell: not an object") };
        let slot = cell.iter_mut().find(|(k, _)| k == "scatter").unwrap();
        *slot = (name.to_string(), value.clone());
    }
}

#[test]
fn snapshot_with_a_cholesky_cell_fails_to_decode_with_a_named_error() {
    // Snapshots written while cells carried a Cholesky factor (`lambda`)
    // instead of a scatter cannot be continued: decoding must refuse them
    // with an error naming the missing field, not panic or mis-score.
    let mut stream = Stream::new(31, 4);
    let mut incremental = IncrementalGda::new(4, 2, FairDensityConfig::default()).unwrap();
    for _ in 0..40 {
        let (uid, z, class, s) = stream.draw();
        incremental.insert(uid, &z, class, s).unwrap();
    }
    let current = serde::Serialize::to_value(&incremental);
    let decoded: IncrementalGda = serde::Deserialize::from_value(&current).unwrap();
    assert_eq!(serde::Serialize::to_value(&decoded), current);

    let factor = serde::Value::Object(vec![(
        "l".to_string(),
        serde::Serialize::to_value(&Matrix::identity(4)),
    )]);
    let mut legacy = current.clone();
    replace_scatter(&mut legacy, "lambda", &factor);
    let err = <IncrementalGda as serde::Deserialize>::from_value(&legacy).unwrap_err();
    assert!(err.to_string().contains("scatter"), "unnamed decode error: {err}");

    // A scatter whose shape disagrees with the feature dimension is refused
    // at decode time too, before `estimator()` could index past it.
    let mut tampered = current;
    replace_scatter(&mut tampered, "scatter", &serde::Serialize::to_value(&Matrix::identity(3)));
    let err = <IncrementalGda as serde::Deserialize>::from_value(&tampered).unwrap_err();
    assert!(err.to_string().contains("scatter"), "unnamed decode error: {err}");
}

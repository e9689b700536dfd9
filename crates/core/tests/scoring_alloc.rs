//! Allocation gate for candidate scoring.
//!
//! Every acquisition round scores the whole candidate batch with Eq. 6
//! through `Faction::score_into`: candidate features, class probabilities,
//! the GDA panel pass (`FairDensityEstimator::score_batch_into`, or
//! `log_density_batch_into` without the fairness term) and the Eq. 6
//! combination. All of it writes into `Faction`'s long-lived scratch, so
//! once a round has run at the batch shape, scoring must make no heap
//! allocation, under both refit modes. Fitting the round's estimator
//! (`Faction::fit_density`) is outside the gate: the batch fit and the
//! incremental refit both build a new estimator every round. The candidate
//! count, 83, is two full scoring panels of 32 and a partial one.

mod alloc_counter;

use alloc_counter::allocations_during;
use faction_core::strategies::{Faction, FactionParams, RefitMode};
use faction_core::{ExperimentConfig, LabeledPool, OnlineModel, PoolPolicy, SelectionContext};
use faction_linalg::{Matrix, SeedRng};
use faction_nn::{presets, CrossEntropyLoss};

const INPUT_DIM: usize = 16;
const CANDIDATES: usize = 83;

/// Pushes `rows` labeled rows covering all four (class, group) cells.
fn push_rows(pool: &mut LabeledPool, rng: &mut SeedRng, rows: usize) {
    for i in 0..rows {
        let y = i % 2;
        let s: i8 = if (i / 2) % 2 == 0 { 1 } else { -1 };
        let mut x: Vec<f64> = (0..INPUT_DIM).map(|_| rng.normal(0.0, 0.5)).collect();
        x[0] += if y == 1 { 2.0 } else { -2.0 };
        x[1] += f64::from(s);
        pool.push(x, y, s);
    }
}

/// One round's selection context over two classes.
fn context<'a>(
    model: &'a OnlineModel,
    pool: &'a LabeledPool,
    candidates: &'a Matrix,
    candidate_sensitives: &'a [i8],
) -> SelectionContext<'a> {
    SelectionContext { model, pool, candidates, candidate_sensitives, num_classes: 2 }
}

/// One model, pool and candidate batch; scores a warm-up round, then
/// asserts that each of the next rounds, after the pool has moved, scores
/// its candidates without allocating, and exactly as `raw_scores` does.
fn assert_scoring_allocates_nothing(params: FactionParams, policy: PoolPolicy, name: &str) {
    let mut rng = SeedRng::new(9);
    let mut pool = LabeledPool::with_policy(policy);
    push_rows(&mut pool, &mut rng, 120);
    let mut model =
        OnlineModel::new(&presets::standard(INPUT_DIM, 2, 4), &ExperimentConfig::quick(), 4);
    model.retrain(&pool, &CrossEntropyLoss);
    let data = (0..CANDIDATES * INPUT_DIM).map(|_| rng.normal(0.0, 2.0)).collect();
    let candidates = Matrix::from_vec(CANDIDATES, INPUT_DIM, data).expect("candidate shape");
    let candidate_sensitives: Vec<i8> =
        (0..CANDIDATES).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
    let faction = Faction::new(params);
    let mut scores =
        faction.raw_scores(&context(&model, &pool, &candidates, &candidate_sensitives));
    for round in 1..=4 {
        push_rows(&mut pool, &mut rng, 6);
        let ctx = context(&model, &pool, &candidates, &candidate_sensitives);
        let estimator = faction.fit_density(&ctx).expect("the pool has every cell");
        let allocations = allocations_during(|| faction.score_into(&estimator, &ctx, &mut scores));
        assert_eq!(allocations, 0, "{name}: round {round} made {allocations} heap allocations");
        assert_eq!(scores.len(), CANDIDATES, "{name}: round {round}");
        assert!(scores.iter().all(|s| s.is_finite()), "{name}: round {round}");
        let again = faction.raw_scores(&ctx);
        assert!(
            scores.iter().zip(&again).all(|(a, b)| a.to_bits() == b.to_bits()),
            "{name}: round {round} differs from raw_scores"
        );
    }
}

#[test]
fn full_refit_scoring_allocates_nothing_after_warm_up() {
    for fair_select in [true, false] {
        let params = FactionParams { fair_select, ..Default::default() };
        let name = format!("full, fair_select={fair_select}");
        assert_scoring_allocates_nothing(params, PoolPolicy::Unbounded, &name);
    }
}

#[test]
fn incremental_refit_scoring_allocates_nothing_after_warm_up() {
    // The window makes every round's sync insert and evict rows.
    for fair_select in [true, false] {
        let params = FactionParams {
            fair_select,
            refit: RefitMode::Incremental { reanchor_every: 1000 },
            ..Default::default()
        };
        let name = format!("incremental, fair_select={fair_select}");
        assert_scoring_allocates_nothing(params, PoolPolicy::SlidingWindow(100), &name);
    }
}

#[test]
fn the_counter_sees_allocations() {
    // Guards the gate against vacuity: scoring with a cold scratch must
    // register its buffer allocations.
    let mut rng = SeedRng::new(3);
    let mut pool = LabeledPool::new();
    push_rows(&mut pool, &mut rng, 40);
    let model =
        OnlineModel::new(&presets::standard(INPUT_DIM, 2, 3), &ExperimentConfig::quick(), 3);
    let candidates = Matrix::zeros(CANDIDATES, INPUT_DIM);
    let candidate_sensitives = vec![1i8; CANDIDATES];
    let ctx = context(&model, &pool, &candidates, &candidate_sensitives);
    let faction = Faction::new(FactionParams::default());
    let estimator = faction.fit_density(&ctx).expect("the pool has every cell");
    let mut scores = Vec::new();
    let allocations = allocations_during(|| faction.score_into(&estimator, &ctx, &mut scores));
    assert!(allocations > 0, "a cold scratch must allocate its buffers");
}

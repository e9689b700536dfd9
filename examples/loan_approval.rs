//! Loan approval under demographic shift — the paper's Sec. IV-B worked
//! example, end to end.
//!
//! A lender's model has mostly seen *young* applicants. When applications
//! from *older* individuals start arriving (a new environment), the
//! fairness-sensitive density estimator should (a) assign them low density
//! — high epistemic uncertainty — so FACTION queries their labels first,
//! and (b) expose group-specific feature clustering through the Δg gaps.
//!
//! The example builds that scenario directly on the public API: it trains a
//! feature extractor on young-dominated data, fits the density estimator,
//! and contrasts densities, gaps, and FACTION's selection behavior on a
//! mixed incoming batch.
//!
//! ```text
//! cargo run --release --example loan_approval
//! ```

use faction::prelude::*;

/// Generates loan applications. `x[0..2]` is creditworthiness signal,
/// `x[2]` encodes age-related features. `s = +1` means "young".
fn applications(n: usize, frac_young: f64, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>, Vec<i8>) {
    let mut rng = SeedRng::new(seed);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut ss = Vec::new();
    for _ in 0..n {
        let young = rng.bernoulli(frac_young);
        let s: i8 = if young { 1 } else { -1 };
        // Repayment (y=1) depends on creditworthiness, not on age.
        let y = usize::from(rng.bernoulli(0.5));
        let credit = if y == 1 { 1.5 } else { -1.5 };
        xs.push(vec![
            rng.normal(credit, 0.7),
            rng.normal(credit * 0.5, 0.7),
            rng.normal(f64::from(s) * 2.0, 0.5), // age-correlated features
            rng.normal(0.0, 0.7),
        ]);
        ys.push(y);
        ss.push(s);
    }
    (xs, ys, ss)
}

fn main() {
    // ---- Historical data: 90% young applicants. ----
    let (hist_x, hist_y, hist_s) = applications(400, 0.9, 7);
    let mut pool = LabeledPool::new();
    for ((x, y), s) in hist_x.iter().zip(&hist_y).zip(&hist_s) {
        pool.push(x.clone(), *y, *s);
    }
    let cfg = ExperimentConfig::quick();
    let arch = faction::nn::presets::standard(4, 2, 7);
    let mut model = OnlineModel::new(&arch, &cfg, 7);
    for _ in 0..4 {
        model.retrain(&pool, &faction::nn::CrossEntropyLoss);
    }

    // ---- Fit the fairness-sensitive density estimator on features. ----
    let features = model.mlp().features(pool.features());
    let estimator = FairDensityEstimator::fit(
        &features,
        pool.labels(),
        pool.sensitives(),
        2,
        &FairDensityConfig::default(),
    )
    .expect("density estimator fits");

    // ---- An incoming batch: half young, half old. ----
    let (new_x, _, new_s) = applications(200, 0.5, 99);
    let batch = Matrix::from_rows(&new_x).unwrap();
    let z = model.mlp().features(&batch);

    let mut young_density = Vec::new();
    let mut old_density = Vec::new();
    for (i, &s) in new_s.iter().enumerate() {
        let logg = estimator.log_density(z.row(i)).unwrap();
        if s == 1 {
            young_density.push(logg);
        } else {
            old_density.push(logg);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!("mean log-density  young applicants: {:>8.2}", mean(&young_density));
    println!("mean log-density  older applicants: {:>8.2}", mean(&old_density));
    println!("→ older applicants are {} (higher epistemic uncertainty)\n",
        if mean(&old_density) < mean(&young_density) { "less familiar to the model" } else { "unexpectedly familiar" });

    // ---- FACTION's selection on this batch. ----
    let mut strategy = Faction::new(FactionParams { loss: cfg.loss, ..Default::default() });
    let ctx = SelectionContext {
        model: &model,
        pool: &pool,
        candidates: &batch,
        candidate_sensitives: &new_s,
        num_classes: 2,
    };
    let mut rng = SeedRng::new(1);
    let desirability = strategy.desirability(&ctx, &mut rng);
    let picked = faction::core::acquire(&desirability, 40, strategy.mode(), &mut rng);
    let picked_old = picked.iter().filter(|&&i| new_s[i] == -1).count();
    println!("FACTION queried {} labels; {} of them from the under-represented older group", picked.len(), picked_old);
    println!("(older applicants are 50% of the batch but receive {:.0}% of the queries)", 100.0 * picked_old as f64 / picked.len() as f64);
}

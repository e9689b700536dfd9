//! Multi-valued sensitive attributes (paper Sec. III-A's extension):
//! the fairness machinery generalized beyond binary groups.
//!
//! A synthetic three-group population (think: three age brackets) with one
//! systematically disadvantaged group. The example shows (a) the
//! multi-group metrics flagging the disparity, (b) the density estimator
//! building one component per (class, group) cell — six components — and
//! (c) the per-class density gap `Δg` generalized as max − min over groups.
//!
//! ```text
//! cargo run --release --example multi_group_fairness
//! ```

use faction::fairness::multi::{max_one_vs_rest, positive_rates};
use faction::prelude::*;

fn main() {
    let mut rng = SeedRng::new(21);
    let n = 600;
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    let mut groups: Vec<i8> = Vec::new();
    for i in 0..n {
        let g = (i % 3) as i8; // three sensitive groups
        let y = usize::from(rng.bernoulli(0.5));
        // Group 2's features are shifted — a distinct subpopulation the
        // model can (unfairly) key on.
        let group_shift = if g == 2 { 2.5 } else { 0.0 };
        rows.push(vec![
            rng.normal(if y == 1 { 1.5 } else { -1.5 }, 0.8),
            rng.normal(group_shift, 0.6),
            rng.normal(0.0, 0.8),
        ]);
        labels.push(y);
        groups.push(g);
    }
    let x = Matrix::from_rows(&rows).unwrap();

    // A deliberately biased predictor: it partially keys on the group
    // feature, disadvantaging group 2.
    let preds: Vec<usize> = rows
        .iter()
        .map(|r| usize::from(r[0] - 0.8 * (r[1] - 0.0).max(0.0) > 0.0))
        .collect();

    println!("per-group positive-prediction rates:");
    for (g, rate) in positive_rates(&preds, &groups) {
        println!("  group {g}: {rate:.3}");
    }
    println!("\nmulti-group metrics for the biased predictor:");
    println!("  DDP (max pairwise gap): {:.3}", ddp(&preds, &groups));
    println!("  EOD (worst conditional gap): {:.3}", eod(&preds, &labels, &groups));
    println!("  MI(pred; group): {:.4}", mutual_information(&preds, &groups));

    // The density estimator with a 3-valued sensitive attribute: 2 classes
    // × 3 groups = 6 components, and Δg_c generalizes to max−min over the
    // per-group log densities.
    let estimator =
        FairDensityEstimator::fit(&x, &labels, &groups, 2, &FairDensityConfig::default())
            .expect("estimator fits");
    println!("\ndensity estimator components (C×S): {}", estimator.num_components());
    let probe_shifted = vec![1.5, 2.5, 0.0]; // in the disadvantaged group's region
    let probe_neutral = vec![1.5, 0.0, 0.0];
    println!(
        "Δg₁ at a group-2-typical point:   {:.2} (strongly group-identified)",
        estimator.delta_g(&probe_shifted, 1).unwrap()
    );
    println!(
        "Δg₁ at a group-neutral point:     {:.2}",
        estimator.delta_g(&probe_neutral, 1).unwrap()
    );

    // One-vs-rest relaxed fairness on soft outputs.
    let soft: Vec<f64> = preds.iter().map(|&p| p as f64).collect();
    println!(
        "\nmax one-vs-rest relaxed disparity of the predictor: {:.3}",
        max_one_vs_rest(&soft, &groups)
    );
    println!("(a fair predictor scores ≈ 0 on all of the above)");
}

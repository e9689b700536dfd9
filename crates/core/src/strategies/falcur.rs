//! The FAL-CUR baseline (paper Sec. V-A2, \[34]): Fair Active Learning using
//! Clustering, Uncertainty and Representativeness.
//!
//! FAL-CUR clusters the unlabeled batch (fair clustering), then scores each
//! sample by a convex combination of its uncertainty and representativeness
//! (closeness to its cluster center), and selects the best samples *across
//! clusters* so that every cluster — and with it, every region/group of the
//! data — contributes to the labeled set. The `β` knob swept in Fig. 3
//! trades uncertainty against representativeness.

use faction_linalg::{vector, SeedRng};

use crate::kmeans::KMeans;
use crate::selection::AcquisitionMode;
use crate::strategies::{candidate_entropy, SelectionContext, Strategy};

/// FAL-CUR hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct FalCurParams {
    /// Uncertainty weight `β` (representativeness gets `1 − β`);
    /// Fig. 3 sweeps `{0.3, 0.4, 0.5, 0.6, 0.7}`.
    pub beta: f64,
    /// Number of clusters for the fair-clustering step.
    pub clusters: usize,
    /// Lloyd-iteration bound.
    pub max_iters: usize,
}

impl Default for FalCurParams {
    fn default() -> Self {
        FalCurParams { beta: 0.5, clusters: 8, max_iters: 25 }
    }
}

/// Fair clustering + uncertainty + representativeness selection.
#[derive(Debug, Clone, Copy, Default)]
pub struct FalCur {
    /// Strategy hyperparameters.
    pub params: FalCurParams,
}

impl FalCur {
    /// Creates FAL-CUR with explicit parameters.
    pub fn new(params: FalCurParams) -> Self {
        FalCur { params }
    }
}

impl Strategy for FalCur {
    fn name(&self) -> String {
        "FAL-CUR".into()
    }

    fn desirability(&mut self, ctx: &SelectionContext<'_>, rng: &mut SeedRng) -> Vec<f64> {
        let n = ctx.candidates.rows();
        if n == 0 {
            return Vec::new();
        }
        // Cluster in the learned feature space (representations, not raw
        // inputs, as in the original).
        let features = ctx.model.mlp().features(ctx.candidates);
        let km = KMeans::fit(&features, self.params.clusters, self.params.max_iters, rng);

        let uncertainty = vector::min_max_normalize(&candidate_entropy(ctx));
        let dists: Vec<f64> = (0..n).map(|i| km.distance_to_center(&features, i)).collect();
        let representativeness: Vec<f64> =
            vector::min_max_normalize(&dists).into_iter().map(|d| 1.0 - d).collect();
        let base: Vec<f64> = uncertainty
            .iter()
            .zip(&representativeness)
            .map(|(u, r)| self.params.beta * u + (1.0 - self.params.beta) * r)
            .collect();

        // Cross-cluster fairness: rank samples *within* their cluster and
        // interleave ranks globally, so a top-K acquisition takes each
        // cluster's best first (round-robin across clusters), its
        // second-best next, and so on.
        let mut per_cluster: Vec<Vec<usize>> = vec![Vec::new(); km.k()];
        for (i, &c) in km.assignments.iter().enumerate() {
            per_cluster[c].push(i);
        }
        let mut desirability = vec![0.0; n];
        for members in &mut per_cluster {
            // NaN-last total order: a poisoned base score ranks behind
            // every scored member of its cluster instead of landing
            // wherever the candidate happened to sit.
            members.sort_by(|&a, &b| vector::total_order_desc(base[a], base[b]));
            for (rank, &i) in members.iter().enumerate() {
                // Rank dominates; the base score breaks ties inside a rank.
                desirability[i] = -(rank as f64) + 0.5 * base[i];
            }
        }
        crate::strategies::contain_scores(desirability)
    }

    fn mode(&self) -> AcquisitionMode {
        AcquisitionMode::TopK
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::acquire;
    use crate::strategies::testutil::{check_strategy_contract, Fixture};

    #[test]
    fn satisfies_strategy_contract() {
        check_strategy_contract(&mut FalCur::default(), 81);
    }

    #[test]
    fn selection_spreads_across_clusters() {
        // The fixture has two well-separated candidate groups (familiar vs
        // far-OOD). A top-K of 10 must not come exclusively from one group.
        let fixture = Fixture::new(82);
        let ctx = fixture.ctx();
        let mut rng = SeedRng::new(1);
        let mut falcur = FalCur::new(FalCurParams { clusters: 4, ..Default::default() });
        let scores = falcur.desirability(&ctx, &mut rng);
        let picked = acquire(&scores, 10, AcquisitionMode::TopK, &mut rng);
        let near = picked.iter().filter(|&&i| i < 20).count();
        let far = picked.len() - near;
        assert!(near >= 2 && far >= 2, "cluster spread violated: near {near}, far {far}");
    }

    #[test]
    fn beta_one_is_pure_uncertainty_ranking_within_cluster() {
        let fixture = Fixture::new(83);
        let ctx = fixture.ctx();
        let mut rng_a = SeedRng::new(2);
        let mut pure = FalCur::new(FalCurParams { beta: 1.0, clusters: 1, ..Default::default() });
        let scores = pure.desirability(&ctx, &mut rng_a);
        // With one cluster and β = 1, ordering must match entropy ordering.
        let entropy = {
            let probs = ctx.model.mlp().predict_proba(ctx.candidates);
            faction_nn::loss::entropy_per_row(&probs)
        };
        let top_score = faction_linalg::vector::argmax(&scores).unwrap();
        let top_entropy = faction_linalg::vector::argmax(&entropy).unwrap();
        assert_eq!(top_score, top_entropy);
    }
}

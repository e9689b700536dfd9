//! Lloyd's k-means, the clustering substrate for the FAL-CUR baseline
//! (fair clustering + uncertainty + representativeness, Sec. V-A2 / \[34]).

use faction_linalg::{vector, Matrix, SeedRng};

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Cluster centers, one row per cluster.
    pub centers: Matrix,
    /// Cluster assignment per input row.
    pub assignments: Vec<usize>,
}

impl KMeans {
    /// Runs Lloyd's algorithm with k-means++-style seeding (first center
    /// uniform, subsequent centers proportional to squared distance).
    ///
    /// `k` is clamped to the number of points; `max_iters` bounds the Lloyd
    /// loop (it almost always converges much earlier).
    ///
    /// # Panics
    /// Panics if `points` has no rows or `k == 0`.
    pub fn fit(points: &Matrix, k: usize, max_iters: usize, rng: &mut SeedRng) -> KMeans {
        let n = points.rows();
        assert!(n > 0, "kmeans: empty input");
        assert!(k > 0, "kmeans: k must be positive");
        let k = k.min(n);
        let d = points.cols();

        // k-means++ seeding. The most recent center is carried separately
        // (pushed into `center_rows` once the next one is drawn) so no
        // `.last().expect(…)` is needed to read it back.
        let mut center_rows: Vec<Vec<f64>> = Vec::with_capacity(k);
        let mut latest = points.row(rng.index(n)).to_vec();
        let mut dist_sq = vec![f64::INFINITY; n];
        while center_rows.len() + 1 < k {
            for (i, row) in points.iter_rows().enumerate() {
                dist_sq[i] = dist_sq[i].min(vector::dist2(row, &latest));
            }
            let total: f64 = dist_sq.iter().sum();
            let next = if total <= 0.0 {
                rng.index(n)
            } else {
                let mut target = rng.uniform() * total;
                let mut chosen = n - 1;
                for (i, &dsq) in dist_sq.iter().enumerate() {
                    target -= dsq;
                    if target <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                chosen
            };
            center_rows.push(std::mem::replace(&mut latest, points.row(next).to_vec()));
        }
        center_rows.push(latest);

        #[expect(clippy::expect_used, reason = "rows are all `points.cols()` wide by construction")]
        let mut centers = Matrix::from_rows(&center_rows).expect("rectangular centers");
        // Start from a sentinel so the first pass always runs the update
        // step (otherwise an all-zeros initial assignment could terminate
        // Lloyd before centers ever move to their cluster means).
        let mut assignments = vec![usize::MAX; n];
        for _ in 0..max_iters.max(1) {
            // Assignment step.
            let mut changed = false;
            for (i, row) in points.iter_rows().enumerate() {
                let mut best = 0;
                let mut best_d = f64::INFINITY;
                for c in 0..k {
                    let dsq = vector::dist2(row, centers.row(c));
                    if dsq < best_d {
                        best_d = dsq;
                        best = c;
                    }
                }
                if assignments[i] != best {
                    assignments[i] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            // Update step; empty clusters keep their previous center.
            let mut sums = Matrix::zeros(k, d);
            let mut counts = vec![0usize; k];
            for (i, row) in points.iter_rows().enumerate() {
                let c = assignments[i];
                vector::axpy(1.0, row, sums.row_mut(c));
                counts[c] += 1;
            }
            for (c, &count) in counts.iter().enumerate() {
                if count > 0 {
                    let inv = 1.0 / count as f64;
                    let row = sums.row(c).to_vec();
                    for (j, v) in row.iter().enumerate() {
                        centers.set(c, j, v * inv);
                    }
                }
            }
        }
        KMeans { centers, assignments }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centers.rows()
    }

    /// Squared distance of `row` to its assigned center.
    pub fn distance_to_center(&self, points: &Matrix, index: usize) -> f64 {
        vector::dist2(points.row(index), self.centers.row(self.assignments[index]))
    }

    /// Within-cluster sum of squares (inertia) — quality diagnostic.
    pub fn inertia(&self, points: &Matrix) -> f64 {
        (0..points.rows()).map(|i| self.distance_to_center(points, i)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_blobs(n_per: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = SeedRng::new(seed);
        let centers = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]];
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..n_per {
                rows.push(vec![rng.normal(center[0], 0.3), rng.normal(center[1], 0.3)]);
                truth.push(c);
            }
        }
        (Matrix::from_rows(&rows).unwrap(), truth)
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let (x, truth) = three_blobs(40, 1);
        let mut rng = SeedRng::new(2);
        let km = KMeans::fit(&x, 3, 50, &mut rng);
        assert_eq!(km.k(), 3);
        // Every ground-truth blob must map to a single k-means cluster.
        for blob in 0..3 {
            let assigned: Vec<usize> = truth
                .iter()
                .enumerate()
                .filter(|(_, &t)| t == blob)
                .map(|(i, _)| km.assignments[i])
                .collect();
            assert!(
                assigned.iter().all(|&a| a == assigned[0]),
                "blob {blob} split across clusters"
            );
        }
        assert!(km.inertia(&x) < 0.5 * 120.0, "inertia {}", km.inertia(&x));
    }

    #[test]
    fn k_clamped_to_n() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let mut rng = SeedRng::new(3);
        let km = KMeans::fit(&x, 10, 10, &mut rng);
        assert_eq!(km.k(), 2);
    }

    #[test]
    fn single_cluster_center_is_mean() {
        let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![2.0, 4.0]]).unwrap();
        let mut rng = SeedRng::new(4);
        let km = KMeans::fit(&x, 1, 10, &mut rng);
        assert!((km.centers.get(0, 0) - 1.0).abs() < 1e-9);
        assert!((km.centers.get(0, 1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn identical_points_do_not_crash() {
        let x = Matrix::from_rows(&vec![vec![1.0, 1.0]; 5]).unwrap();
        let mut rng = SeedRng::new(5);
        let km = KMeans::fit(&x, 3, 10, &mut rng);
        assert_eq!(km.assignments.len(), 5);
        assert!(km.inertia(&x) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty input")]
    fn empty_input_panics() {
        let x = Matrix::zeros(0, 2);
        let mut rng = SeedRng::new(6);
        KMeans::fit(&x, 2, 10, &mut rng);
    }
}

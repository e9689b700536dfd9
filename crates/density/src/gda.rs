//! The fairness-sensitive GDA mixture estimator (paper Sec. IV-B).
//!
//! One Gaussian component per (class, sensitive) pair, fitted by Gaussian
//! Discriminant Analysis over feature vectors — following the paper's choice
//! of GDA / GMM over Gaussian processes or normalizing flows (\[18], \[46]).

use std::collections::BTreeMap;

use faction_linalg::{vector, Matrix};

use crate::gaussian::Gaussian;
use crate::DensityError;

/// Identifies one mixture component: a class label and a sensitive value.
///
/// `Ord` sorts by class, then sensitive value — the canonical component
/// order used for storage and for every mixture reduction, which keeps
/// log-sum-exp accumulation order (and therefore results) identical across
/// processes and between the scalar and batched scoring paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
pub struct ComponentKey {
    /// Class label `y`.
    pub class: usize,
    /// Sensitive attribute `s ∈ {−1, +1}`.
    pub sensitive: i8,
}

/// Reusable buffers for the batched scoring paths.
///
/// Holds the centered-transpose and triangular-solve scratch plus the
/// per-component log-density matrix. Buffers are resized lazily via
/// [`Matrix::reset_to_zeros`], so a long-lived scratch reaches its
/// high-water size once and then makes **zero allocations per call** — the
/// property `Faction::raw_scores` relies on in the selection hot loop.
#[derive(Debug, Clone)]
pub struct DensityScratch {
    /// `d × N` centered transposed candidates.
    ct: Matrix,
    /// `d × N` forward-substitution workspace.
    solve: Matrix,
    /// `num_components × N` raw per-component log densities (no priors).
    comp_lp: Matrix,
    /// Per-sample mixture terms, one per component.
    terms: Vec<f64>,
}

impl DensityScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        DensityScratch {
            ct: Matrix::zeros(0, 0),
            solve: Matrix::zeros(0, 0),
            comp_lp: Matrix::zeros(0, 0),
            terms: Vec::new(),
        }
    }
}

impl Default for DensityScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Fitting configuration for [`FairDensityEstimator`].
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct FairDensityConfig {
    /// Ridge added to every component covariance. Keeps small components
    /// positive definite (see `Gaussian::fit`).
    pub ridge: f64,
    /// When `true`, all components share the covariance pooled over the
    /// whole training set and differ only in their means — the classic GDA
    /// variant of Lee et al. \[18]. When `false` (default, matching the
    /// paper's description "computing the mean and covariance from the
    /// feature vectors of all labeled training samples with the
    /// corresponding class label and sensitive attribute"), each component
    /// gets its own covariance. This is one of the ablation axes listed in
    /// `DESIGN.md` §5.
    pub shared_covariance: bool,
}

impl Default for FairDensityConfig {
    fn default() -> Self {
        FairDensityConfig { ridge: 1e-3, shared_covariance: false }
    }
}

/// The fitted `C × S` component mixture with empirical priors `p(y, s)`.
///
/// Components are stored sorted by [`ComponentKey`] (class, then sensitive
/// value). A `HashMap` here would make mixture sums follow the map's
/// per-process iteration order, so `log g(z)` could differ in the last bits
/// between two runs of the same experiment; the sorted `Vec` makes every
/// reduction order — and thus every emitted artifact — deterministic.
#[derive(Debug, Clone)]
pub struct FairDensityEstimator {
    dim: usize,
    num_classes: usize,
    sensitive_values: Vec<i8>,
    components: Vec<(ComponentKey, Gaussian, f64)>,
}

impl FairDensityEstimator {
    /// Fits the estimator from a feature matrix (one row per sample), class
    /// labels and sensitive attributes.
    ///
    /// Cells `(y, s)` with no samples simply get no component; their density
    /// contribution to Eq. (3) is zero (prior `p(y,s) = 0`), and the fairness
    /// gap `Δg_y` treats them as "no signal" (see [`Self::delta_g`]).
    ///
    /// # Graceful degradation
    /// Degenerate streams are the expected case for an online learner, not
    /// an error, so the fit contains them instead of failing (DESIGN.md
    /// §10):
    ///
    /// * rows with non-finite features are excluded from every cell (and
    ///   from the priors) — counted in `density.gda.nonfinite_rows_skipped`;
    /// * a cell whose covariance cannot be factored at the configured ridge
    ///   climbs a ridge-escalation ladder (`ridge × 10³/10⁶/10⁹`, counted in
    ///   `density.ridge_escalations`);
    /// * a cell that still cannot factor falls back to a pooled-covariance
    ///   component (cell mean, covariance pooled over all usable rows), and
    ///   as a last resort to an identity covariance — both counted in
    ///   `density.fallback_components`.
    ///
    /// On a fully finite, non-degenerate input none of these paths run and
    /// the fit is bit-identical to the unguarded version.
    ///
    /// # Errors
    /// * [`DensityError::NoData`] if `features` has no rows with fully
    ///   finite features.
    /// * [`DensityError::DimensionMismatch`] if `labels`/`sensitive` lengths
    ///   disagree with the number of rows.
    pub fn fit(
        features: &Matrix,
        labels: &[usize],
        sensitive: &[i8],
        num_classes: usize,
        cfg: &FairDensityConfig,
    ) -> Result<Self, DensityError> {
        let n = features.rows();
        if n == 0 {
            return Err(DensityError::NoData);
        }
        faction_telemetry::counter_add("density.gda.fits", 1);
        faction_telemetry::observe("density.gda.fit_rows", n as u64);
        if labels.len() != n {
            return Err(DensityError::DimensionMismatch { expected: n, got: labels.len() });
        }
        if sensitive.len() != n {
            return Err(DensityError::DimensionMismatch { expected: n, got: sensitive.len() });
        }
        // Keyed by `ComponentKey` in a *sorted* map: with the previous
        // `HashMap`, the pooled-covariance path below accumulated centered
        // rows in per-process hash order, so the covariance's float sums —
        // and every density derived from them — could differ between two
        // runs of the same experiment.
        //
        // Rows with non-finite features carry no usable density signal (a
        // single NaN poisons the mean, the covariance, and every log-pdf
        // derived from them), so they are excluded here — from cell
        // membership and from the priors alike.
        let mut groups: BTreeMap<ComponentKey, Vec<usize>> = BTreeMap::new();
        let mut skipped = 0usize;
        for i in 0..n {
            if !features.row(i).iter().all(|v| v.is_finite()) {
                skipped += 1;
                continue;
            }
            let key = ComponentKey { class: labels[i], sensitive: sensitive[i] };
            groups.entry(key).or_default().push(i);
        }
        let n_used = n - skipped;
        if n_used == 0 {
            return Err(DensityError::NoData);
        }
        if skipped > 0 {
            faction_telemetry::counter_add("density.gda.nonfinite_rows_skipped", skipped as u64);
        }
        let mut sensitive_values: Vec<i8> = groups.keys().map(|k| k.sensitive).collect();
        sensitive_values.sort_unstable();
        sensitive_values.dedup();

        // Optional pooled covariance (per-group-centered, like classic GDA).
        let pooled_cov = if cfg.shared_covariance {
            let mut centered_rows: Vec<Vec<f64>> = Vec::with_capacity(n);
            for indices in groups.values() {
                let rows: Vec<&[f64]> = indices.iter().map(|&i| features.row(i)).collect();
                let mean = faction_linalg::stats::mean_vector(&rows)?;
                for row in rows {
                    centered_rows.push(vector::sub(row, &mean));
                }
            }
            let refs: Vec<&[f64]> = centered_rows.iter().map(|r| r.as_slice()).collect();
            Some(faction_linalg::stats::covariance(&refs, cfg.ridge)?)
        } else {
            None
        };

        // Base ridge for the escalation ladder (a zero configured ridge
        // still needs a positive rung to climb from).
        let ladder_base = if cfg.ridge > 0.0 { cfg.ridge } else { 1e-6 };
        // Covariance pooled over every usable row, built lazily the first
        // time a cell needs the fallback component.
        let mut shared_fallback_cov: Option<Matrix> = None;
        let all_indices: Vec<usize> = groups.values().flatten().copied().collect();
        let mut escalations = 0u64;
        let mut fallbacks = 0u64;

        let mut components = Vec::with_capacity(groups.len());
        for (key, indices) in &groups {
            let rows: Vec<&[f64]> = indices.iter().map(|&i| features.row(i)).collect();
            let first_try = match &pooled_cov {
                Some(cov) => {
                    let mean = faction_linalg::stats::mean_vector(&rows)?;
                    Gaussian::from_mean_cov(mean, cov)
                }
                None => Gaussian::fit(&rows, cfg.ridge),
            };
            let gaussian = match first_try {
                Ok(g) => g,
                Err(_) => {
                    // Ridge-escalation ladder: a singular or ill-conditioned
                    // cell covariance gets progressively heavier
                    // regularization before any structural fallback.
                    let mut escalated = None;
                    for factor in [1e3, 1e6, 1e9] {
                        escalations += 1;
                        if let Ok(g) = Gaussian::fit(&rows, ladder_base * factor) {
                            escalated = Some(g);
                            break;
                        }
                    }
                    match escalated {
                        Some(g) => g,
                        None => {
                            // Structural fallback: keep the cell's mean but
                            // borrow a covariance that is known to factor —
                            // pooled over all usable rows first, identity as
                            // the unconditional last resort.
                            fallbacks += 1;
                            let mean = faction_linalg::stats::mean_vector(&rows)?;
                            if shared_fallback_cov.is_none() {
                                let all_rows: Vec<&[f64]> =
                                    all_indices.iter().map(|&i| features.row(i)).collect();
                                shared_fallback_cov = faction_linalg::stats::covariance(
                                    &all_rows,
                                    ladder_base,
                                )
                                .ok();
                            }
                            let pooled_component = shared_fallback_cov
                                .as_ref()
                                .and_then(|cov| Gaussian::from_mean_cov(mean.clone(), cov).ok());
                            match pooled_component {
                                Some(g) => g,
                                None => Gaussian::from_mean_cov(
                                    mean,
                                    &Matrix::identity(features.cols()),
                                )?,
                            }
                        }
                    }
                }
            };
            let log_prior = (indices.len() as f64 / n_used as f64).ln();
            components.push((*key, gaussian, log_prior));
        }
        if escalations > 0 {
            faction_telemetry::counter_add("density.ridge_escalations", escalations);
        }
        if fallbacks > 0 {
            faction_telemetry::counter_add("density.fallback_components", fallbacks);
        }
        // One Cholesky factorization per component (shared-covariance mode
        // still re-factors per mean).
        faction_telemetry::counter_add("density.gda.cholesky_factors", components.len() as u64);
        // BTreeMap iteration is already key-sorted, which is exactly the
        // component order the struct documents.
        Ok(FairDensityEstimator {
            dim: features.cols(),
            num_classes,
            sensitive_values,
            components,
        })
    }

    /// Fits a **class-only** estimator (the DDU baseline's density): all
    /// sensitive attributes are collapsed so components are keyed by class
    /// alone. `Δg_c` is identically zero for such an estimator.
    ///
    /// # Errors
    /// Same conditions as [`Self::fit`].
    pub fn fit_class_only(
        features: &Matrix,
        labels: &[usize],
        num_classes: usize,
        cfg: &FairDensityConfig,
    ) -> Result<Self, DensityError> {
        let collapsed = vec![1i8; features.rows()];
        Self::fit(features, labels, &collapsed, num_classes, cfg)
    }

    /// Assembles an estimator from pre-built components (the incremental
    /// GDA path, which factors one Gaussian per maintained cell scatter).
    ///
    /// `components` must be sorted by [`ComponentKey`] — the caller
    /// (`IncrementalGda::estimator`) iterates a `BTreeMap`, which guarantees
    /// it; the sorted order is what keeps mixture reductions deterministic
    /// and the binary-search component lookup correct.
    pub(crate) fn from_parts(
        dim: usize,
        num_classes: usize,
        sensitive_values: Vec<i8>,
        components: Vec<(ComponentKey, Gaussian, f64)>,
    ) -> Self {
        debug_assert!(components.windows(2).all(|w| w[0].0 < w[1].0));
        FairDensityEstimator { dim, num_classes, sensitive_values, components }
    }

    /// Feature-space dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes the estimator was fitted for.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of fitted components (≤ `C × S`).
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Whether a component exists for `(class, sensitive)`.
    pub fn has_component(&self, class: usize, sensitive: i8) -> bool {
        self.find_component(class, sensitive).is_some()
    }

    /// Binary search for a component in the sorted store.
    fn find_component(&self, class: usize, sensitive: i8) -> Option<&(ComponentKey, Gaussian, f64)> {
        let key = ComponentKey { class, sensitive };
        self.components
            .binary_search_by_key(&key, |(k, _, _)| *k)
            .ok()
            .map(|i| &self.components[i])
    }

    /// Log conditional density `log g(z | y, s)`, or `None` when the cell had
    /// no training samples.
    ///
    /// # Errors
    /// Returns [`DensityError::DimensionMismatch`] for a wrong-length `z`.
    pub fn log_component_density(
        &self,
        z: &[f64],
        class: usize,
        sensitive: i8,
    ) -> Result<Option<f64>, DensityError> {
        match self.find_component(class, sensitive) {
            Some((_, g, _)) => Ok(Some(g.log_pdf(z)?)),
            None => Ok(None),
        }
    }

    /// The paper's Eq. (3) in log space:
    /// `log g(z) = logsumexp_{y,s} [ log g(z|y,s) + log p(y,s) ]`.
    ///
    /// High values mean the feature vector is familiar (low epistemic
    /// uncertainty); low values flag novel / out-of-distribution samples.
    ///
    /// # Errors
    /// Returns [`DensityError::DimensionMismatch`] for a wrong-length `z`.
    pub fn log_density(&self, z: &[f64]) -> Result<f64, DensityError> {
        let mut terms = Vec::with_capacity(self.components.len());
        for (_, g, log_prior) in &self.components {
            terms.push(g.log_pdf(z)? + log_prior);
        }
        Ok(vector::logsumexp(&terms))
    }

    /// The fair-epistemic-uncertainty gap of Eqs. (4)–(5) in log space:
    /// `Δg_c(z) = |log g(z|c, s=+1) − log g(z|c, s=−1)|`.
    ///
    /// With more than two sensitive values the gap generalizes to
    /// `max − min` over the per-group log densities. If fewer than two
    /// groups have a component for this class there is no cross-group
    /// comparison to make and the gap is `0` (no fairness signal).
    ///
    /// # Errors
    /// Returns [`DensityError::DimensionMismatch`] for a wrong-length `z`.
    pub fn delta_g(&self, z: &[f64], class: usize) -> Result<f64, DensityError> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut count = 0;
        for &s in &self.sensitive_values {
            if let Some(lp) = self.log_component_density(z, class, s)? {
                lo = lo.min(lp);
                hi = hi.max(lp);
                count += 1;
            }
        }
        if count < 2 {
            return Ok(0.0);
        }
        Ok(hi - lo)
    }

    /// All per-class gaps `{Δg_c(z)}_{c=1}^C` as a vector indexed by class.
    ///
    /// # Errors
    /// Returns [`DensityError::DimensionMismatch`] for a wrong-length `z`.
    pub fn delta_g_all(&self, z: &[f64]) -> Result<Vec<f64>, DensityError> {
        (0..self.num_classes).map(|c| self.delta_g(z, c)).collect()
    }

    /// Batch helper: `log g(z)` for every row of `features`.
    ///
    /// Convenience wrapper over [`Self::log_density_batch_into`] that owns
    /// its scratch; results are bit-identical to calling
    /// [`Self::log_density`] per row.
    ///
    /// # Errors
    /// Returns [`DensityError::DimensionMismatch`] if the feature width
    /// disagrees with the fitted dimension.
    pub fn log_density_batch(&self, features: &Matrix) -> Result<Vec<f64>, DensityError> {
        let mut scratch = DensityScratch::new();
        let mut out = vec![0.0; features.rows()];
        self.log_density_batch_into(features, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Fills `scratch.comp_lp` with the raw per-component log densities of
    /// every candidate: row `c` holds `log g(zᵢ | component c)` for all i.
    ///
    /// One centered transpose + one batched triangular solve per component,
    /// instead of `N × num_components` scalar solves.
    fn component_log_pdfs(
        &self,
        features: &Matrix,
        scratch: &mut DensityScratch,
    ) -> Result<(), DensityError> {
        if features.cols() != self.dim {
            return Err(DensityError::DimensionMismatch {
                expected: self.dim,
                got: features.cols(),
            });
        }
        let n = features.rows();
        let DensityScratch { ct, solve, comp_lp, .. } = scratch;
        comp_lp.reset_to_zeros(self.components.len(), n);
        for (c_idx, (_, g, _)) in self.components.iter().enumerate() {
            g.log_pdf_batch_into(features, ct, solve, comp_lp.row_mut(c_idx))?;
        }
        Ok(())
    }

    /// The shared mixture reduction of both batch entry points: fills
    /// `scratch.comp_lp` and writes `log g(zᵢ) = logsumexp_c(log g(zᵢ|c) +
    /// log p_c)` into `out` (one slot per row, length checked by the
    /// caller), in the scalar path's component order.
    fn mixture_log_density(
        &self,
        features: &Matrix,
        scratch: &mut DensityScratch,
        out: &mut [f64],
    ) -> Result<(), DensityError> {
        self.component_log_pdfs(features, scratch)?;
        let DensityScratch { comp_lp, terms, .. } = scratch;
        for (i, o) in out.iter_mut().enumerate() {
            terms.clear();
            for (c_idx, (_, _, log_prior)) in self.components.iter().enumerate() {
                terms.push(comp_lp.get(c_idx, i) + log_prior);
            }
            *o = vector::logsumexp(terms);
        }
        Ok(())
    }

    /// Batched mixture density: writes `log g(zᵢ)` for every row of
    /// `features` into `out`, bit-identical to [`Self::log_density`] per
    /// row (same component order, same log-sum-exp).
    ///
    /// # Errors
    /// Returns [`DensityError::DimensionMismatch`] if the feature width or
    /// `out` length disagree with the inputs.
    // analyzer:hot-path
    pub fn log_density_batch_into(
        &self,
        features: &Matrix,
        scratch: &mut DensityScratch,
        out: &mut [f64],
    ) -> Result<(), DensityError> {
        let n = features.rows();
        if out.len() != n {
            return Err(DensityError::DimensionMismatch { expected: n, got: out.len() });
        }
        faction_telemetry::counter_add("density.gda.log_density_batches", 1);
        faction_telemetry::observe("density.gda.log_density_batch_rows", n as u64);
        self.mixture_log_density(features, scratch, out)
    }

    /// Batched FACTION scoring: one pass that computes **both** per-sample
    /// mixture densities and per-class fairness gaps for a whole candidate
    /// pool, sharing the per-component log-density matrix between the two
    /// reductions (the scalar path recomputes every component density for
    /// `delta_g_all` after already computing it for `log_density`).
    ///
    /// `log_density[i]` receives `log g(zᵢ)`; `gaps` is reshaped to
    /// `num_classes × N` with `gaps[c][i] = Δg_c(zᵢ)`. Both outputs are
    /// bit-identical to the scalar [`Self::log_density`] /
    /// [`Self::delta_g`] per sample.
    ///
    /// # Errors
    /// Returns [`DensityError::DimensionMismatch`] on any shape
    /// disagreement.
    // analyzer:hot-path
    pub fn score_batch_into(
        &self,
        features: &Matrix,
        scratch: &mut DensityScratch,
        log_density: &mut [f64],
        gaps: &mut Matrix,
    ) -> Result<(), DensityError> {
        let n = features.rows();
        if log_density.len() != n {
            return Err(DensityError::DimensionMismatch { expected: n, got: log_density.len() });
        }
        faction_telemetry::counter_add("density.gda.score_batches", 1);
        faction_telemetry::observe("density.gda.score_batch_rows", n as u64);
        self.mixture_log_density(features, scratch, log_density)?;
        let comp_lp = &scratch.comp_lp;
        gaps.reset_to_zeros(self.num_classes, n);
        // Components are sorted by (class, sensitive): each class owns one
        // contiguous run of rows in comp_lp, in ascending-sensitive order —
        // the same visit order as the scalar delta_g.
        let mut idx = 0;
        for c in 0..self.num_classes {
            while idx < self.components.len() && self.components[idx].0.class < c {
                idx += 1;
            }
            let start = idx;
            while idx < self.components.len() && self.components[idx].0.class == c {
                idx += 1;
            }
            if idx - start < 2 {
                continue; // fewer than two groups: no fairness signal, gap 0
            }
            let gap_row = gaps.row_mut(c);
            for (i, gap) in gap_row.iter_mut().enumerate() {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for row in start..idx {
                    let lp = comp_lp.get(row, i);
                    lo = lo.min(lp);
                    hi = hi.max(lp);
                }
                *gap = hi - lo;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faction_linalg::SeedRng;

    /// Builds a feature set with four well-separated (class, sensitive)
    /// clusters in 2d.
    fn four_clusters(n_per: usize, seed: u64) -> (Matrix, Vec<usize>, Vec<i8>) {
        let mut rng = SeedRng::new(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut sens = Vec::new();
        let centers = [
            (0usize, 1i8, [0.0, 0.0]),
            (0usize, -1i8, [6.0, 0.0]),
            (1usize, 1i8, [0.0, 6.0]),
            (1usize, -1i8, [6.0, 6.0]),
        ];
        for &(y, s, c) in &centers {
            for _ in 0..n_per {
                rows.push(vec![rng.normal(c[0], 0.4), rng.normal(c[1], 0.4)]);
                labels.push(y);
                sens.push(s);
            }
        }
        (Matrix::from_rows(&rows).unwrap(), labels, sens)
    }

    #[test]
    fn fits_all_four_components() {
        let (x, y, s) = four_clusters(30, 1);
        let est = FairDensityEstimator::fit(&x, &y, &s, 2, &FairDensityConfig::default()).unwrap();
        assert_eq!(est.num_components(), 4);
        assert_eq!(est.dim(), 2);
        assert!(est.has_component(0, 1) && est.has_component(1, -1));
    }

    #[test]
    fn in_distribution_beats_ood_density() {
        let (x, y, s) = four_clusters(30, 2);
        let est = FairDensityEstimator::fit(&x, &y, &s, 2, &FairDensityConfig::default()).unwrap();
        let familiar = est.log_density(&[0.0, 0.0]).unwrap();
        let ood = est.log_density(&[30.0, -25.0]).unwrap();
        assert!(
            familiar > ood + 10.0,
            "familiar {familiar} should dominate OOD {ood}"
        );
    }

    #[test]
    fn delta_g_flags_group_specific_samples() {
        let (x, y, s) = four_clusters(30, 3);
        let est = FairDensityEstimator::fit(&x, &y, &s, 2, &FairDensityConfig::default()).unwrap();
        // A point at the class-0 s=+1 cluster: strongly tied to one group.
        let unfair = est.delta_g(&[0.0, 0.0], 0).unwrap();
        // A point midway between the two class-0 group clusters.
        let fair = est.delta_g(&[3.0, 0.0], 0).unwrap();
        assert!(unfair > fair, "unfair {unfair} vs fair {fair}");
        assert!(fair >= 0.0);
    }

    #[test]
    fn delta_g_zero_when_one_group_missing() {
        // Only s=+1 samples for class 0.
        let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![0.5, 0.1], vec![0.2, -0.3]]).unwrap();
        let est = FairDensityEstimator::fit(
            &x,
            &[0, 0, 0],
            &[1, 1, 1],
            2,
            &FairDensityConfig::default(),
        )
        .unwrap();
        assert_eq!(est.delta_g(&[0.0, 0.0], 0).unwrap(), 0.0);
        assert_eq!(est.delta_g(&[0.0, 0.0], 1).unwrap(), 0.0); // class absent entirely
    }

    #[test]
    fn class_only_estimator_has_zero_gaps() {
        let (x, y, s) = four_clusters(20, 4);
        let _ = s;
        let est =
            FairDensityEstimator::fit_class_only(&x, &y, 2, &FairDensityConfig::default()).unwrap();
        assert_eq!(est.num_components(), 2);
        for z in [[0.0, 0.0], [6.0, 6.0], [3.0, 3.0]] {
            assert_eq!(est.delta_g(&z, 0).unwrap(), 0.0);
            assert_eq!(est.delta_g(&z, 1).unwrap(), 0.0);
        }
    }

    #[test]
    fn shared_covariance_variant_fits_and_scores() {
        let (x, y, s) = four_clusters(25, 5);
        let cfg = FairDensityConfig { shared_covariance: true, ..Default::default() };
        let est = FairDensityEstimator::fit(&x, &y, &s, 2, &cfg).unwrap();
        assert_eq!(est.num_components(), 4);
        let familiar = est.log_density(&[0.0, 0.0]).unwrap();
        let ood = est.log_density(&[40.0, 40.0]).unwrap();
        assert!(familiar > ood);
    }

    #[test]
    fn priors_weight_the_mixture() {
        // 90 samples in one cell, 10 in another; density near the big cell
        // should exceed density near the small cell at equal offsets.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut sens = Vec::new();
        let mut rng = SeedRng::new(6);
        for _ in 0..90 {
            rows.push(vec![rng.normal(0.0, 0.3), rng.normal(0.0, 0.3)]);
            labels.push(0);
            sens.push(1i8);
        }
        for _ in 0..10 {
            rows.push(vec![rng.normal(8.0, 0.3), rng.normal(8.0, 0.3)]);
            labels.push(1);
            sens.push(-1i8);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let est =
            FairDensityEstimator::fit(&x, &labels, &sens, 2, &FairDensityConfig::default())
                .unwrap();
        let near_big = est.log_density(&[0.0, 0.0]).unwrap();
        let near_small = est.log_density(&[8.0, 8.0]).unwrap();
        assert!(near_big > near_small);
    }

    #[test]
    fn batch_matches_pointwise() {
        let (x, y, s) = four_clusters(15, 7);
        let est = FairDensityEstimator::fit(&x, &y, &s, 2, &FairDensityConfig::default()).unwrap();
        let batch = est.log_density_batch(&x).unwrap();
        for (i, row) in x.iter_rows().enumerate() {
            assert_eq!(batch[i], est.log_density(row).unwrap());
        }
    }

    #[test]
    fn score_batch_matches_scalar_bitwise() {
        let (x, y, s) = four_clusters(15, 10);
        let est = FairDensityEstimator::fit(&x, &y, &s, 2, &FairDensityConfig::default()).unwrap();
        let mut scratch = DensityScratch::new();
        let mut dens = vec![0.0; x.rows()];
        let mut gaps = Matrix::zeros(0, 0);
        est.score_batch_into(&x, &mut scratch, &mut dens, &mut gaps).unwrap();
        assert_eq!(gaps.shape(), (2, x.rows()));
        for (i, row) in x.iter_rows().enumerate() {
            assert_eq!(dens[i].to_bits(), est.log_density(row).unwrap().to_bits());
            for c in 0..2 {
                assert_eq!(
                    gaps.get(c, i).to_bits(),
                    est.delta_g(row, c).unwrap().to_bits(),
                    "class {c} sample {i}"
                );
            }
        }
    }

    #[test]
    fn score_batch_scratch_reuse_across_shapes() {
        // Same scratch across pools of different sizes/dimensions must keep
        // producing correct results (buffers reshape internally).
        let mut scratch = DensityScratch::new();
        for (n_per, seed) in [(20usize, 11u64), (8, 12)] {
            let (x, y, s) = four_clusters(n_per, seed);
            let est =
                FairDensityEstimator::fit(&x, &y, &s, 2, &FairDensityConfig::default()).unwrap();
            let mut dens = vec![0.0; x.rows()];
            let mut gaps = Matrix::zeros(0, 0);
            est.score_batch_into(&x, &mut scratch, &mut dens, &mut gaps).unwrap();
            for (i, row) in x.iter_rows().enumerate() {
                assert_eq!(dens[i].to_bits(), est.log_density(row).unwrap().to_bits());
            }
        }
    }

    #[test]
    fn gap_row_zero_when_component_missing() {
        // Class 1 has only one sensitive group: its whole gap row is 0.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut sens = Vec::new();
        let mut rng = SeedRng::new(13);
        for i in 0..30 {
            rows.push(vec![rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)]);
            labels.push(usize::from(i >= 20));
            sens.push(if i >= 20 || i % 2 == 0 { 1i8 } else { -1i8 });
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let est =
            FairDensityEstimator::fit(&x, &labels, &sens, 2, &FairDensityConfig::default())
                .unwrap();
        let mut scratch = DensityScratch::new();
        let mut dens = vec![0.0; x.rows()];
        let mut gaps = Matrix::zeros(0, 0);
        est.score_batch_into(&x, &mut scratch, &mut dens, &mut gaps).unwrap();
        assert!(gaps.row(1).iter().all(|&g| g == 0.0));
        assert!(gaps.row(0).iter().any(|&g| g > 0.0));
    }

    #[test]
    fn errors_on_bad_input() {
        let x = Matrix::zeros(0, 2);
        assert_eq!(
            FairDensityEstimator::fit(&x, &[], &[], 2, &FairDensityConfig::default())
                .unwrap_err(),
            DensityError::NoData
        );
        let x = Matrix::zeros(3, 2);
        assert!(matches!(
            FairDensityEstimator::fit(&x, &[0, 1], &[1, 1, 1], 2, &FairDensityConfig::default()),
            Err(DensityError::DimensionMismatch { .. })
        ));
        let (x, y, s) = four_clusters(10, 8);
        let est = FairDensityEstimator::fit(&x, &y, &s, 2, &FairDensityConfig::default()).unwrap();
        assert!(est.log_density(&[1.0]).is_err());
    }

    #[test]
    fn non_finite_rows_are_excluded_bitwise() {
        // Fitting with poisoned rows interleaved must produce the *same*
        // estimator (bit-for-bit densities) as fitting on the finite subset
        // alone — the skipped rows leave no trace in means, covariances, or
        // priors.
        let (x, y, s) = four_clusters(12, 20);
        let clean = FairDensityEstimator::fit(&x, &y, &s, 2, &FairDensityConfig::default())
            .unwrap();
        let mut rows: Vec<Vec<f64>> = x.iter_rows().map(<[f64]>::to_vec).collect();
        let mut labels = y.clone();
        let mut sens = s.clone();
        for (at, poison) in [(0usize, f64::NAN), (17, f64::INFINITY), (30, f64::NEG_INFINITY)] {
            rows.insert(at, vec![poison, 1.0]);
            labels.insert(at, 0);
            sens.insert(at, 1);
        }
        let px = Matrix::from_rows(&rows).unwrap();
        let poisoned =
            FairDensityEstimator::fit(&px, &labels, &sens, 2, &FairDensityConfig::default())
                .unwrap();
        assert_eq!(poisoned.num_components(), clean.num_components());
        for z in [[0.0, 0.0], [6.0, 6.0], [3.0, 2.0]] {
            assert_eq!(
                poisoned.log_density(&z).unwrap().to_bits(),
                clean.log_density(&z).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn all_non_finite_rows_error_no_data() {
        let x = Matrix::from_rows(&[vec![f64::NAN, 0.0], vec![1.0, f64::INFINITY]]).unwrap();
        assert_eq!(
            FairDensityEstimator::fit(&x, &[0, 1], &[1, -1], 2, &FairDensityConfig::default())
                .unwrap_err(),
            DensityError::NoData
        );
    }

    #[test]
    fn degenerate_cell_degrades_instead_of_erroring() {
        // One cell's features are so large that its covariance overflows to
        // infinity: no ridge can rescue it, so the fit must climb the ladder,
        // fall back, and still return a usable estimator for the healthy
        // cells.
        use std::sync::Arc;
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut sens = Vec::new();
        let mut rng = SeedRng::new(21);
        for _ in 0..20 {
            rows.push(vec![rng.normal(0.0, 0.5), rng.normal(0.0, 0.5)]);
            labels.push(0usize);
            sens.push(1i8);
        }
        for i in 0..6 {
            rows.push(vec![1e200 * (i + 1) as f64, -1e200]);
            labels.push(1);
            sens.push(-1);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let registry = Arc::new(faction_telemetry::Registry::new());
        let est = {
            let handle = faction_telemetry::Handle::from(registry.clone());
            let _scope = handle.enter();
            FairDensityEstimator::fit(&x, &labels, &sens, 2, &FairDensityConfig::default())
                .unwrap()
        };
        assert_eq!(est.num_components(), 2);
        // The healthy cell still scores sensibly...
        let familiar = est.log_density(&[0.0, 0.0]).unwrap();
        assert!(familiar.is_finite());
        // ...and the degraded cell never errors (it may report -inf density).
        assert!(est.log_density(&[5.0, 5.0]).is_ok());
        let snapshot = registry.snapshot();
        assert!(snapshot.counter("density.ridge_escalations").unwrap_or(0) >= 1);
        assert!(snapshot.counter("density.fallback_components").unwrap_or(0) >= 1);
    }

    #[test]
    fn clean_fit_reports_no_degradation() {
        use std::sync::Arc;
        let (x, y, s) = four_clusters(15, 22);
        let registry = Arc::new(faction_telemetry::Registry::new());
        {
            let handle = faction_telemetry::Handle::from(registry.clone());
            let _scope = handle.enter();
            FairDensityEstimator::fit(&x, &y, &s, 2, &FairDensityConfig::default()).unwrap();
        }
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("density.gda.nonfinite_rows_skipped"), None);
        assert_eq!(snapshot.counter("density.ridge_escalations"), None);
        assert_eq!(snapshot.counter("density.fallback_components"), None);
    }

    #[test]
    fn delta_g_all_has_one_entry_per_class() {
        let (x, y, s) = four_clusters(12, 9);
        let est = FairDensityEstimator::fit(&x, &y, &s, 2, &FairDensityConfig::default()).unwrap();
        let gaps = est.delta_g_all(&[1.0, 1.0]).unwrap();
        assert_eq!(gaps.len(), 2);
        assert!(gaps.iter().all(|g| g.is_finite() && *g >= 0.0));
    }
}

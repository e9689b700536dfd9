//! Incremental GDA: streaming per-(class, sensitive) means and centered
//! scatters maintained by exact rank-1 updates.
//!
//! # Why
//!
//! The batch [`FairDensityEstimator::fit`] walks the whole labeled pool every
//! AL round, so per-round cost grows linearly (and total stream cost
//! quadratically) with pool size. This module keeps the same mixture — one
//! Gaussian per (class, sensitive) cell plus empirical priors — but updates
//! it **per sample**: adding or removing one row costs O(d²) in the feature
//! dimension and O(1) in the pool size, and materializing the mixture
//! factors each cell's covariance once.
//!
//! # Representation
//!
//! The batch path fits each cell as `Σ_m = S_m/m + ridge·I`, where
//! `S_m = Σᵢ (zᵢ−μ)(zᵢ−μ)ᵀ` is the centered scatter of the cell's `m`
//! members (ML normalization, see [`faction_linalg::stats::covariance`]).
//! The streaming state keeps `S_m` itself, which changes by one exact
//! rank-1 term per row. Adding a row `z` to a cell with mean `μ_m`:
//!
//! ```text
//! u        = z − μ_m
//! μ_{m+1}  = μ_m + u/(m+1)
//! S_{m+1}  = S_m + (m/(m+1))·u uᵀ
//! ```
//!
//! Removal mirrors it with the *new* mean:
//!
//! ```text
//! μ_{m−1}  = (m·μ_m − z)/(m−1)
//! S_{m−1}  = S_m − ((m−1)/m)·(z−μ_{m−1})(z−μ_{m−1})ᵀ
//! ```
//!
//! Only the lower triangle of `S_m` is updated and read.
//! [`IncrementalGda::estimator`] forms each `Σ_m` from it exactly as the
//! batch fit does ([`faction_linalg::stats::covariance_from_scatter`]) and
//! factors it once through [`Gaussian::from_mean_cov`]. A state anchored by
//! [`IncrementalGda::from_rows`] therefore scores bit-identically to the
//! batch fit; after streamed updates, floating-point drift against a batch
//! refit stays far below the documented **≤ 1e-8** score contract (tested in
//! `tests/incremental_equivalence.rs`, including a 40 000-step sliding
//! window that never re-anchors).
//!
//! # Degradation contract (DESIGN.md §10/§11)
//!
//! An update is an addition, so it cannot fail numerically. A cell whose
//! `Σ_m` does not factor — one the batch fit would send up its
//! ridge-escalation ladder or to a fallback covariance — makes
//! [`IncrementalGda::estimator`] return [`DensityError::Incremental`]; the
//! caller must then invalidate the state and run one clean batch fit (which
//! owns the ladder). The caller is also responsible for scheduled
//! re-anchoring every K rounds when the feature map drifts (the FACTION
//! strategy re-extracts pool features under a retraining network).

use std::collections::BTreeMap;

use faction_linalg::{stats, Matrix};

use crate::gaussian::Gaussian;
use crate::gda::{ComponentKey, FairDensityConfig, FairDensityEstimator};
use crate::DensityError;

/// Streaming state of one (class, sensitive) cell.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct CellState {
    /// Number of member rows `m`.
    count: usize,
    /// Running mean `μ_m`.
    mean: Vec<f64>,
    /// Centered scatter `S_m`; only its lower triangle is maintained.
    scatter: Matrix,
}

impl CellState {
    /// Adds `coef·u uᵀ` to the lower triangle of the scatter.
    // analyzer:ordered: one rank-1 term per row, applied in arrival order (refit contract)
    fn add_outer(&mut self, coef: f64, u: &[f64]) {
        for (i, &ui) in u.iter().enumerate() {
            let cu = coef * ui;
            for (s, &uj) in self.scatter.row_mut(i)[..=i].iter_mut().zip(u) {
                *s += cu * uj;
            }
        }
    }
}

/// What the estimator remembers about one inserted row.
#[derive(Debug, Clone)]
enum RowRecord {
    /// The row participates in a cell; the stored vector is exactly what was
    /// added, so removal subtracts the same bits.
    Used { key: ComponentKey, z: Vec<f64> },
    /// The row had non-finite features and was excluded (mirroring the batch
    /// fit's row skipping); removal is a no-op.
    Skipped,
}

/// Incrementally maintained fairness-sensitive GDA mixture.
///
/// Rows are keyed by caller-supplied `u64` uids (the labeled pool's row
/// uids): [`IncrementalGda::insert`] stores the feature vector it was given,
/// and [`IncrementalGda::remove`] subtracts exactly that stored vector —
/// which is what makes eviction sound even when the caller's feature map has
/// drifted since insertion.
#[derive(Debug, Clone)]
pub struct IncrementalGda {
    dim: usize,
    num_classes: usize,
    cfg: FairDensityConfig,
    cells: BTreeMap<ComponentKey, CellState>,
    rows: BTreeMap<u64, RowRecord>,
    total_used: usize,
}

impl IncrementalGda {
    /// Creates an empty streaming estimator.
    ///
    /// # Errors
    /// Returns [`DensityError::Incremental`] when the configuration cannot
    /// be maintained incrementally: `shared_covariance` couples every cell
    /// to every row (a single insert would be a rank-|cells| change), and a
    /// non-positive ridge leaves single-member cells unfactorable — both
    /// cases belong to the batch path.
    pub fn new(
        dim: usize,
        num_classes: usize,
        cfg: FairDensityConfig,
    ) -> Result<Self, DensityError> {
        if cfg.shared_covariance {
            return Err(DensityError::Incremental {
                what: "shared_covariance requires the batch fit".into(),
            });
        }
        if !(cfg.ridge.is_finite() && cfg.ridge > 0.0) {
            return Err(DensityError::Incremental {
                what: format!("incremental GDA needs a positive ridge, got {}", cfg.ridge),
            });
        }
        Ok(IncrementalGda {
            dim,
            num_classes,
            cfg,
            cells: BTreeMap::new(),
            rows: BTreeMap::new(),
            total_used: 0,
        })
    }

    /// Builds the state from a full row set in one pass (the re-anchor
    /// path): each cell's mean and scatter come from
    /// [`stats::mean_and_scatter`], the same statistics the batch fit uses —
    /// O(n·d²) total, cheaper and tighter than n single-row inserts.
    ///
    /// Non-finite rows are recorded as skipped, exactly like the batch fit.
    ///
    /// # Errors
    /// * The constructor errors of [`IncrementalGda::new`].
    /// * [`DensityError::DimensionMismatch`] on ragged inputs.
    pub fn from_rows(
        features: &Matrix,
        labels: &[usize],
        sensitive: &[i8],
        uids: &[u64],
        num_classes: usize,
        cfg: FairDensityConfig,
    ) -> Result<Self, DensityError> {
        let n = features.rows();
        if labels.len() != n {
            return Err(DensityError::DimensionMismatch { expected: n, got: labels.len() });
        }
        if sensitive.len() != n {
            return Err(DensityError::DimensionMismatch { expected: n, got: sensitive.len() });
        }
        if uids.len() != n {
            return Err(DensityError::DimensionMismatch { expected: n, got: uids.len() });
        }
        let mut state = Self::new(features.cols(), num_classes, cfg)?;
        let mut groups: BTreeMap<ComponentKey, Vec<usize>> = BTreeMap::new();
        for i in 0..n {
            if !features.row(i).iter().all(|v| v.is_finite()) {
                state.rows.insert(uids[i], RowRecord::Skipped);
                continue;
            }
            let key = ComponentKey { class: labels[i], sensitive: sensitive[i] };
            groups.entry(key).or_default().push(i);
            state
                .rows
                .insert(uids[i], RowRecord::Used { key, z: features.row(i).to_vec() });
        }
        for (key, indices) in groups {
            let rows: Vec<&[f64]> = indices.iter().map(|&i| features.row(i)).collect();
            let (mean, scatter) = stats::mean_and_scatter(&rows)?;
            state.total_used += rows.len();
            state.cells.insert(key, CellState { count: rows.len(), mean, scatter });
        }
        Ok(state)
    }

    /// Number of rows currently contributing to the mixture (excludes
    /// skipped non-finite rows).
    pub fn len_used(&self) -> usize {
        self.total_used
    }

    /// Whether a row uid is tracked (used or skipped).
    pub fn contains(&self, uid: u64) -> bool {
        self.rows.contains_key(&uid)
    }

    /// Inserts one labeled row under `uid`.
    ///
    /// Non-finite rows are recorded but excluded from the statistics (the
    /// batch fit's skipping rule). Cost: one O(d²) rank-1 scatter update,
    /// independent of how many rows the estimator holds. Counted in
    /// `density.incremental.updates`.
    ///
    /// # Errors
    /// * [`DensityError::DimensionMismatch`] for a wrong-length `z`.
    /// * [`DensityError::Incremental`] for a duplicate uid.
    pub fn insert(
        &mut self,
        uid: u64,
        z: &[f64],
        class: usize,
        sensitive: i8,
    ) -> Result<(), DensityError> {
        if z.len() != self.dim {
            return Err(DensityError::DimensionMismatch { expected: self.dim, got: z.len() });
        }
        if self.rows.contains_key(&uid) {
            return Err(DensityError::Incremental {
                what: format!("duplicate row uid {uid}"),
            });
        }
        faction_telemetry::counter_add("density.incremental.updates", 1);
        if !z.iter().all(|v| v.is_finite()) {
            faction_telemetry::counter_add("density.gda.nonfinite_rows_skipped", 1);
            self.rows.insert(uid, RowRecord::Skipped);
            return Ok(());
        }
        let key = ComponentKey { class, sensitive };
        match self.cells.get_mut(&key) {
            None => {
                // Bootstrap: a single member has zero scatter, so its
                // covariance is exactly `ridge·I`, as in the batch fit.
                let scatter = Matrix::zeros(z.len(), z.len());
                self.cells.insert(key, CellState { count: 1, mean: z.to_vec(), scatter });
            }
            Some(cell) => {
                let m = cell.count as f64;
                let u: Vec<f64> = z.iter().zip(&cell.mean).map(|(&zi, &mu)| zi - mu).collect();
                cell.add_outer(m / (m + 1.0), &u);
                for (mu, &ui) in cell.mean.iter_mut().zip(&u) {
                    // analyzer:ordered: Welford-style mean update in arrival order (refit contract)
                    *mu += ui / (m + 1.0);
                }
                cell.count += 1;
            }
        }
        self.total_used += 1;
        self.rows.insert(uid, RowRecord::Used { key, z: z.to_vec() });
        Ok(())
    }

    /// Removes the row inserted under `uid`, subtracting exactly the stored
    /// vector (one O(d²) rank-1 scatter update). Skipped rows remove as a
    /// no-op. Counted in `density.incremental.downdates`.
    ///
    /// # Errors
    /// [`DensityError::Incremental`] for an unknown uid.
    pub fn remove(&mut self, uid: u64) -> Result<(), DensityError> {
        let record = self.rows.remove(&uid).ok_or_else(|| DensityError::Incremental {
            what: format!("unknown row uid {uid}"),
        })?;
        let (key, z) = match record {
            RowRecord::Skipped => return Ok(()),
            RowRecord::Used { key, z } => (key, z),
        };
        faction_telemetry::counter_add("density.incremental.downdates", 1);
        self.total_used -= 1;
        let Some(cell) = self.cells.get_mut(&key) else {
            return Err(DensityError::Incremental {
                what: format!("row uid {uid} points at a missing cell"),
            });
        };
        if cell.count == 1 {
            // Last member: the cell vanishes (prior 0, no component) — same
            // as the batch fit seeing no rows for it.
            self.cells.remove(&key);
            return Ok(());
        }
        let m = cell.count as f64;
        for (mu, &zi) in cell.mean.iter_mut().zip(&z) {
            *mu = (m * *mu - zi) / (m - 1.0);
        }
        cell.count -= 1;
        let v: Vec<f64> = z.iter().zip(&cell.mean).map(|(&zi, &mu)| zi - mu).collect();
        cell.add_outer(-((m - 1.0) / m), &v);
        Ok(())
    }

    /// Materializes the current mixture as a scoreable
    /// [`FairDensityEstimator`]: one covariance and one Cholesky
    /// factorization per cell — O(cells·d³), flat in the number of rows —
    /// and the result scores through the same batched paths as the batch
    /// fit.
    ///
    /// # Errors
    /// * [`DensityError::NoData`] when no finite rows are held (the batch
    ///   fit's condition).
    /// * [`DensityError::Incremental`] when a cell covariance cannot be
    ///   factored even with jitter — the caller must fall back to
    ///   [`FairDensityEstimator::fit`], which owns the escalation ladder.
    pub fn estimator(&self) -> Result<FairDensityEstimator, DensityError> {
        if self.total_used == 0 {
            return Err(DensityError::NoData);
        }
        let mut sensitive_values: Vec<i8> = self.cells.keys().map(|k| k.sensitive).collect();
        sensitive_values.sort_unstable();
        sensitive_values.dedup();
        let mut components = Vec::with_capacity(self.cells.len());
        for (key, cell) in &self.cells {
            let cov = stats::covariance_from_scatter(&cell.scatter, cell.count, self.cfg.ridge);
            let gaussian = Gaussian::from_mean_cov(cell.mean.clone(), &cov).map_err(|e| {
                DensityError::Incremental {
                    what: format!(
                        "cell {key:?} covariance not factorable without escalation: {e}"
                    ),
                }
            })?;
            let log_prior = (cell.count as f64 / self.total_used as f64).ln();
            components.push((*key, gaussian, log_prior));
        }
        Ok(FairDensityEstimator::from_parts(
            self.dim,
            self.num_classes,
            sensitive_values,
            components,
        ))
    }
}

/// `RowRecord` is an enum, which the vendored derive cannot handle; the
/// hand-written impl uses an externally tagged object (`{"kind": ...}`).
impl serde::Serialize for RowRecord {
    fn serialize<S: serde::Sink + ?Sized>(&self, sink: &mut S) {
        match self {
            RowRecord::Used { key, z } => {
                sink.begin_object(3);
                serde::field(sink, "kind", "used");
                serde::field(sink, "key", key);
                serde::field(sink, "z", z);
            }
            RowRecord::Skipped => {
                sink.begin_object(1);
                serde::field(sink, "kind", "skipped");
            }
        }
        sink.end();
    }
}

impl serde::Deserialize for RowRecord {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let fields =
            v.as_object().ok_or_else(|| serde::DeError::custom("expected RowRecord object"))?;
        let kind: String = serde::Deserialize::from_value(
            serde::find_field(fields, "kind")
                .ok_or_else(|| serde::DeError::custom("RowRecord missing `kind`"))?,
        )?;
        match kind.as_str() {
            "skipped" => Ok(RowRecord::Skipped),
            "used" => {
                let field = |name: &str| {
                    serde::find_field(fields, name).ok_or_else(|| {
                        serde::DeError::custom(format!("RowRecord missing `{name}`"))
                    })
                };
                Ok(RowRecord::Used {
                    key: serde::Deserialize::from_value(field("key")?)?,
                    z: serde::Deserialize::from_value(field("z")?)?,
                })
            }
            other => Err(serde::DeError::custom(format!("unknown RowRecord kind `{other}`"))),
        }
    }
}

/// Serialization flattens the `BTreeMap`s into sorted `[{k, v}, ...]`
/// arrays (the vendored serde has no map impls); deserialization rebuilds
/// them, preserving the canonical component order `Ord` on the keys gives.
/// Every field — including the cell scatters and stored row vectors —
/// round-trips bit-exactly, which is what lets a restored `OnlineSession`
/// continue the incremental refit stream without a forced re-anchor.
impl serde::Serialize for IncrementalGda {
    fn serialize<S: serde::Sink + ?Sized>(&self, sink: &mut S) {
        /// One `{key_name: k, val_name: v}` map entry.
        fn entry<S: serde::Sink + ?Sized>(
            sink: &mut S,
            (key_name, key): (&str, &impl serde::Serialize),
            (val_name, val): (&str, &impl serde::Serialize),
        ) {
            sink.begin_object(2);
            serde::field(sink, key_name, key);
            serde::field(sink, val_name, val);
            sink.end();
        }
        sink.begin_object(6);
        serde::field(sink, "dim", &self.dim);
        serde::field(sink, "num_classes", &self.num_classes);
        serde::field(sink, "cfg", &self.cfg);
        // Entry objects never pack, so both arrays are generic.
        sink.key("cells");
        sink.begin_array(self.cells.len(), serde::Packing::Generic);
        for (k, c) in &self.cells {
            entry(sink, ("key", k), ("cell", c));
        }
        sink.end();
        sink.key("rows");
        sink.begin_array(self.rows.len(), serde::Packing::Generic);
        for (uid, r) in &self.rows {
            entry(sink, ("uid", uid), ("record", r));
        }
        sink.end();
        serde::field(sink, "total_used", &self.total_used);
        sink.end();
    }
}

impl serde::Deserialize for IncrementalGda {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| serde::DeError::custom("expected IncrementalGda object"))?;
        let field = |name: &str| {
            serde::find_field(fields, name)
                .ok_or_else(|| serde::DeError::custom(format!("IncrementalGda missing `{name}`")))
        };
        let entry = |v: &serde::Value, key_name: &str, val_name: &str| {
            let pair = v
                .as_object()
                .map(|fields| {
                    (
                        serde::find_field(fields, key_name).cloned(),
                        serde::find_field(fields, val_name).cloned(),
                    )
                })
                .ok_or_else(|| serde::DeError::custom("expected map-entry object"))?;
            match pair {
                (Some(k), Some(v)) => Ok((k, v)),
                _ => Err(serde::DeError::custom(format!(
                    "map entry missing `{key_name}`/`{val_name}`"
                ))),
            }
        };
        let dim: usize = serde::Deserialize::from_value(field("dim")?)?;
        let mut cells = BTreeMap::new();
        let serde::Value::Array(cell_entries) = field("cells")? else {
            return Err(serde::DeError::custom("IncrementalGda `cells` must be an array"));
        };
        for e in cell_entries {
            let (k, c) = entry(e, "key", "cell")?;
            let cell: CellState = serde::Deserialize::from_value(&c)?;
            // `estimator()` indexes the scatter by the mean's length; reject a
            // tampered shape here instead of panicking there.
            if cell.count == 0 || cell.mean.len() != dim || cell.scatter.shape() != (dim, dim) {
                return Err(serde::DeError::custom(format!(
                    "IncrementalGda cell has count {}, mean length {} and scatter {:?}; \
                     expected a member, {dim} and ({dim}, {dim})",
                    cell.count,
                    cell.mean.len(),
                    cell.scatter.shape()
                )));
            }
            cells.insert(serde::Deserialize::from_value(&k)?, cell);
        }
        let mut rows = BTreeMap::new();
        let serde::Value::Array(row_entries) = field("rows")? else {
            return Err(serde::DeError::custom("IncrementalGda `rows` must be an array"));
        };
        for e in row_entries {
            let (uid, r) = entry(e, "uid", "record")?;
            rows.insert(
                serde::Deserialize::from_value(&uid)?,
                serde::Deserialize::from_value(&r)?,
            );
        }
        Ok(IncrementalGda {
            dim,
            num_classes: serde::Deserialize::from_value(field("num_classes")?)?,
            cfg: serde::Deserialize::from_value(field("cfg")?)?,
            cells,
            rows,
            total_used: serde::Deserialize::from_value(field("total_used")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faction_linalg::SeedRng;

    fn cfg() -> FairDensityConfig {
        FairDensityConfig::default()
    }

    fn random_row(rng: &mut SeedRng, d: usize, center: f64) -> Vec<f64> {
        (0..d).map(|_| rng.normal(center, 1.0)).collect()
    }

    /// Max |Δ log-density| between the incremental estimator and a batch fit
    /// over the same rows, probed at a few points.
    fn score_gap(
        inc: &IncrementalGda,
        features: &Matrix,
        labels: &[usize],
        sens: &[i8],
        probes: &[Vec<f64>],
    ) -> f64 {
        let batch = FairDensityEstimator::fit(features, labels, sens, 2, &cfg()).unwrap();
        let est = inc.estimator().unwrap();
        let mut worst = 0.0f64;
        for p in probes {
            let a = est.log_density(p).unwrap();
            let b = batch.log_density(p).unwrap();
            worst = worst.max((a - b).abs());
            for c in 0..2 {
                let ga = est.delta_g(p, c).unwrap();
                let gb = batch.delta_g(p, c).unwrap();
                worst = worst.max((ga - gb).abs());
            }
        }
        worst
    }

    #[test]
    fn rejects_unsupported_configs() {
        assert!(matches!(
            IncrementalGda::new(3, 2, FairDensityConfig { shared_covariance: true, ..cfg() }),
            Err(DensityError::Incremental { .. })
        ));
        assert!(matches!(
            IncrementalGda::new(3, 2, FairDensityConfig { ridge: 0.0, ..cfg() }),
            Err(DensityError::Incremental { .. })
        ));
    }

    #[test]
    fn insert_stream_tracks_batch_fit() {
        let d = 4;
        let mut rng = SeedRng::new(7);
        let mut inc = IncrementalGda::new(d, 2, cfg()).unwrap();
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut labels = Vec::new();
        let mut sens = Vec::new();
        let probes: Vec<Vec<f64>> =
            (0..5).map(|_| random_row(&mut rng, d, 0.5)).collect();
        for i in 0..200u64 {
            let class = (i % 2) as usize;
            let s = if i % 3 == 0 { 1i8 } else { -1 };
            let z = random_row(&mut rng, d, class as f64 * 2.0);
            inc.insert(i, &z, class, s).unwrap();
            rows.push(z);
            labels.push(class);
            sens.push(s);
        }
        let features = Matrix::from_rows(&rows).unwrap();
        let gap = score_gap(&inc, &features, &labels, &sens, &probes);
        assert!(gap <= 1e-8, "max score gap {gap}");
    }

    #[test]
    fn removal_matches_batch_fit_of_remaining_rows() {
        let d = 3;
        let mut rng = SeedRng::new(11);
        let mut inc = IncrementalGda::new(d, 2, cfg()).unwrap();
        let mut all: Vec<(u64, Vec<f64>, usize, i8)> = Vec::new();
        for i in 0..120u64 {
            let class = (i % 2) as usize;
            let s = if i % 2 == 0 { 1i8 } else { -1 };
            let z = random_row(&mut rng, d, 0.0);
            inc.insert(i, &z, class, s).unwrap();
            all.push((i, z, class, s));
        }
        // Sliding-window style: evict the oldest 60.
        for i in 0..60u64 {
            inc.remove(i).unwrap();
        }
        let rest: Vec<_> = all.into_iter().skip(60).collect();
        let features =
            Matrix::from_rows(&rest.iter().map(|r| r.1.clone()).collect::<Vec<_>>()).unwrap();
        let labels: Vec<usize> = rest.iter().map(|r| r.2).collect();
        let sens: Vec<i8> = rest.iter().map(|r| r.3).collect();
        let probes: Vec<Vec<f64>> = (0..5).map(|_| random_row(&mut rng, d, 0.0)).collect();
        let gap = score_gap(&inc, &features, &labels, &sens, &probes);
        assert!(gap <= 1e-8, "max score gap after eviction {gap}");
        assert_eq!(inc.len_used(), 60);
    }

    #[test]
    fn from_rows_matches_insert_stream() {
        let d = 3;
        let mut rng = SeedRng::new(13);
        let rows: Vec<Vec<f64>> = (0..40).map(|_| random_row(&mut rng, d, 1.0)).collect();
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let sens: Vec<i8> = (0..40).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        let uids: Vec<u64> = (0..40).collect();
        let features = Matrix::from_rows(&rows).unwrap();
        let anchored =
            IncrementalGda::from_rows(&features, &labels, &sens, &uids, 2, cfg()).unwrap();
        let mut streamed = IncrementalGda::new(d, 2, cfg()).unwrap();
        for (i, z) in rows.iter().enumerate() {
            streamed.insert(uids[i], z, labels[i], sens[i]).unwrap();
        }
        let probe = random_row(&mut rng, d, 1.0);
        let a = anchored.estimator().unwrap().log_density(&probe).unwrap();
        let b = streamed.estimator().unwrap().log_density(&probe).unwrap();
        assert!((a - b).abs() <= 1e-8, "anchored {a} vs streamed {b}");
        assert_eq!(anchored.len_used(), streamed.len_used());
    }

    #[test]
    fn skipped_rows_leave_no_trace() {
        let mut inc = IncrementalGda::new(2, 2, cfg()).unwrap();
        inc.insert(0, &[0.1, 0.2], 0, 1).unwrap();
        inc.insert(1, &[f64::NAN, 0.0], 0, 1).unwrap();
        inc.insert(2, &[0.3, -0.1], 0, 1).unwrap();
        assert_eq!(inc.len_used(), 2);
        assert!(inc.contains(1));
        inc.remove(1).unwrap(); // no-op removal of a skipped row
        assert_eq!(inc.len_used(), 2);
        assert!(!inc.contains(1));
    }

    #[test]
    fn last_member_removal_drops_cell() {
        let mut inc = IncrementalGda::new(2, 2, cfg()).unwrap();
        inc.insert(0, &[0.0, 0.0], 0, 1).unwrap();
        inc.insert(1, &[1.0, 1.0], 1, -1).unwrap();
        inc.remove(1).unwrap();
        let est = inc.estimator().unwrap();
        assert_eq!(est.num_components(), 1);
        assert!(!est.has_component(1, -1));
        inc.remove(0).unwrap();
        assert!(matches!(inc.estimator(), Err(DensityError::NoData)));
    }

    #[test]
    fn duplicate_and_unknown_uids_error() {
        let mut inc = IncrementalGda::new(2, 2, cfg()).unwrap();
        inc.insert(7, &[0.0, 0.0], 0, 1).unwrap();
        assert!(matches!(
            inc.insert(7, &[1.0, 1.0], 0, 1),
            Err(DensityError::Incremental { .. })
        ));
        assert!(matches!(inc.remove(99), Err(DensityError::Incremental { .. })));
    }

    #[test]
    fn serde_round_trip_continues_identical_stream() {
        let d = 3;
        let mut rng = SeedRng::new(17);
        let mut inc = IncrementalGda::new(d, 2, cfg()).unwrap();
        for i in 0..30u64 {
            let class = (i % 2) as usize;
            let z = random_row(&mut rng, d, class as f64);
            inc.insert(i, &z, class, if i % 3 == 0 { 1 } else { -1 }).unwrap();
        }
        inc.insert(30, &[f64::NAN, 0.0, 0.0], 0, 1).unwrap(); // skipped row
        inc.remove(3).unwrap();
        let mut back: IncrementalGda =
            serde::Deserialize::from_value(&serde::Serialize::to_value(&inc)).unwrap();
        assert_eq!(back.len_used(), inc.len_used());
        // Same further mutations produce bit-identical scores.
        let z = random_row(&mut rng, d, 0.5);
        inc.insert(64, &z, 1, -1).unwrap();
        back.insert(64, &z, 1, -1).unwrap();
        inc.remove(5).unwrap();
        back.remove(5).unwrap();
        let probe = random_row(&mut rng, d, 0.5);
        let a = inc.estimator().unwrap().log_density(&probe).unwrap();
        let b = back.estimator().unwrap().log_density(&probe).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn snapshots_with_legacy_precision_field_decode_to_the_same_state() {
        // Configs and estimators serialized before the single-precision
        // scoring path was removed carry `"precision":"f64"` in their
        // density config. The field is ignored on read, so such snapshots
        // decode to exactly the state a current snapshot does.
        let legacy_cfg: FairDensityConfig = serde_json::from_str(
            r#"{"ridge":0.001,"shared_covariance":false,"precision":"f64"}"#,
        )
        .unwrap();
        assert_eq!(
            serde_json::to_string(&legacy_cfg).unwrap(),
            serde_json::to_string(&cfg()).unwrap()
        );

        let d = 3;
        let mut rng = SeedRng::new(19);
        let mut inc = IncrementalGda::new(d, 2, cfg()).unwrap();
        for i in 0..24u64 {
            let class = (i % 2) as usize;
            let z = random_row(&mut rng, d, class as f64);
            inc.insert(i, &z, class, if i % 3 == 0 { 1 } else { -1 }).unwrap();
        }
        let current = serde::Serialize::to_value(&inc);
        let mut legacy = current.clone();
        let serde::Value::Object(fields) = &mut legacy else {
            panic!("IncrementalGda: not an object")
        };
        let (_, cfg_value) = fields.iter_mut().find(|(k, _)| k == "cfg").unwrap();
        let serde::Value::Object(cfg_fields) = cfg_value else { panic!("cfg: not an object") };
        cfg_fields.push(("precision".to_string(), serde::Value::Str("f64".to_string())));

        let back: IncrementalGda = serde::Deserialize::from_value(&legacy).unwrap();
        assert_eq!(serde::Serialize::to_value(&back), current);
        let probe = random_row(&mut rng, d, 0.5);
        let a = inc.estimator().unwrap().log_density(&probe).unwrap();
        let b = back.estimator().unwrap().log_density(&probe).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn single_member_cell_matches_batch_bootstrap() {
        // Batch: single-sample covariance is exactly ridge·I. The incremental
        // bootstrap's zero scatter gives the same matrix, so the same bits.
        let mut inc = IncrementalGda::new(2, 2, cfg()).unwrap();
        inc.insert(0, &[3.0, -1.0], 0, 1).unwrap();
        let features = Matrix::from_rows(&[vec![3.0, -1.0]]).unwrap();
        let batch = FairDensityEstimator::fit(&features, &[0], &[1], 2, &cfg()).unwrap();
        let a = inc.estimator().unwrap().log_density(&[3.1, -0.9]).unwrap();
        let b = batch.log_density(&[3.1, -0.9]).unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
    }
}

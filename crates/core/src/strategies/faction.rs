//! The FACTION selection strategy (paper Sec. IV-C / IV-D, Algorithm 1).
//!
//! Per AL iteration:
//!
//! 1. extract features `z = r(x, θ_{t−1})` for the labeled pool and fit the
//!    fairness-sensitive density estimator `G(z)` with one component per
//!    (class, sensitive) pair (Sec. IV-B);
//! 2. score each unlabeled candidate with Eq. (6),
//!    `u(x) = g(z) − λ Σ_c p_c^x Δg_c(z)` — *low* `u` means high epistemic
//!    uncertainty and/or high unfairness, both reasons to query;
//! 3. convert to desirability `ω(x) = 1 − Normalize(u(x))` (Eq. 7) and let
//!    the runner perform `Bernoulli(min(α·ω, 1))` acquisition trials
//!    (Algorithm 1, line 29).
//!
//! The two ablation switches of Fig. 4 / Table I live here: `fair_select`
//! removes the `λ Σ p_c Δg_c` term from Eq. (6) ("w/o Fair Select") and
//! `fair_reg` swaps the training loss back to plain cross-entropy
//! ("w/o Fair Reg"). Disabling both leaves pure epistemic-uncertainty
//! selection, i.e. the DDU-style variant in the ablation tables.

use std::cell::RefCell;

use faction_density::{
    DensityError, DensityScratch, FairDensityConfig, FairDensityEstimator, IncrementalGda,
};
use faction_fairness::TotalLossConfig;
use faction_linalg::{Matrix, SeedRng};
use faction_nn::{BatchLoss, CrossEntropyLoss, Mlp, MlpWorkspace};

use crate::loss::FairTotalLoss;
use crate::pool::{LabeledPool, PoolDelta};
use crate::selection::{desirability_from_scores, AcquisitionMode};
use crate::strategies::{SelectionContext, Strategy};

/// How FACTION rebuilds its density estimator each round (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefitMode {
    /// Refit `G(z)` from scratch on the whole pool every round (the paper
    /// protocol; cost grows with the pool).
    #[default]
    Full,
    /// Maintain each cell's mean and centered scatter by exact rank-1
    /// updates driven by the pool's delta log, factoring each cell's
    /// covariance once per round, and re-anchor with one clean batch pass
    /// every `reanchor_every` rounds. Per-round cost is flat in pool size;
    /// right after an anchor the scores equal the full refit bit for bit,
    /// and on a stationary stream with a frozen extractor they track it
    /// within 1e-8 between anchors (a blocking CI gate). While the
    /// extractor `θ` is still training, components mix features from
    /// slightly different `θ` snapshots between anchors — the re-anchor
    /// bounds that drift.
    Incremental {
        /// Rounds between clean batch re-anchors (0 anchors every round).
        reanchor_every: usize,
    },
}

/// Hyperparameters for the FACTION strategy.
#[derive(Debug, Clone, Copy)]
pub struct FactionParams {
    /// Trade-off `λ` between epistemic uncertainty and the fairness gaps in
    /// Eq. (6). Paper tuning range `{1e-4, …, 100}`.
    pub lambda: f64,
    /// Query-rate `α` of the Bernoulli trials. Paper range `{0.1, …, 10}`.
    pub alpha: f64,
    /// Density-estimator settings (ridge, covariance sharing).
    pub density: FairDensityConfig,
    /// Fairness-regularized loss settings (μ, ε) used when
    /// `fair_reg` is on.
    pub loss: TotalLossConfig,
    /// Include the fairness term of Eq. (6) in selection.
    pub fair_select: bool,
    /// Train with the fairness-regularized loss of Eq. (9).
    pub fair_reg: bool,
    /// Density refit schedule: full batch refit or incremental updates.
    pub refit: RefitMode,
}

impl Default for FactionParams {
    fn default() -> Self {
        FactionParams {
            lambda: 1.0,
            alpha: 3.0,
            density: FairDensityConfig::default(),
            loss: TotalLossConfig::default(),
            fair_select: true,
            fair_reg: true,
            refit: RefitMode::Full,
        }
    }
}

/// Long-lived buffers for [`Faction::raw_scores`]: MLP forward workspaces,
/// feature/probability matrices, and the density-estimator scratch. Held in
/// a `RefCell` because scoring takes `&self`; all buffers reach their
/// high-water size on the first round and are then reused allocation-free.
#[derive(Debug, Clone, Default)]
struct FactionScratch {
    ws: MlpWorkspace,
    pool_z: Matrix,
    z: Matrix,
    probs: Matrix,
    density: DensityScratch,
    log_density: Vec<f64>,
    gaps: Matrix,
    /// Streaming-GDA mirror of the pool (only under
    /// [`RefitMode::Incremental`]); `None` until the first anchor and after
    /// any invalidation.
    incr: Option<IncrementalState>,
    /// Input rows added to the pool since the last replay.
    added_x: Matrix,
    /// Their features.
    added_z: Matrix,
}

/// The incremental refit state: the streaming estimator plus its position
/// in the pool's delta log.
///
/// Serializable because it is the one piece of FACTION scratch whose loss
/// would change future decisions: dropping it across a session
/// snapshot/restore would force a re-anchor off-schedule, shifting both
/// the `density.incremental.reanchors` count and (at the 1e-8 level that
/// can flip a Bernoulli trial) the scores. See [`Strategy::snapshot_state`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct IncrementalState {
    gda: IncrementalGda,
    /// Pool delta-log cursor up to which `gda` mirrors the pool.
    cursor: u64,
    /// Rounds since the last clean batch anchor.
    rounds_since_anchor: usize,
    /// Set while a mutation is in flight; if a panic (caught at the
    /// runner's degradation boundary) strands it set, the next round
    /// re-anchors instead of trusting half-applied state.
    dirty: bool,
}

/// Rebuilds the streaming estimator from the full pool (the anchor path).
fn anchor_incremental(
    params: &FactionParams,
    mlp: &Mlp,
    pool: &LabeledPool,
    num_classes: usize,
    ws: &mut MlpWorkspace,
    pool_z: &mut Matrix,
    incr: &mut Option<IncrementalState>,
) -> Result<(), DensityError> {
    if incr.is_some() {
        faction_telemetry::counter_add("density.incremental.reanchors", 1);
    }
    mlp.features_into(pool.features(), ws, pool_z);
    let gda = IncrementalGda::from_rows(
        pool_z,
        pool.labels(),
        pool.sensitives(),
        pool.uids(),
        num_classes,
        params.density,
    );
    match gda {
        Ok(gda) => {
            *incr = Some(IncrementalState {
                gda,
                cursor: pool.delta_head(),
                rounds_since_anchor: 0,
                dirty: false,
            });
            Ok(())
        }
        Err(e) => {
            // Unfactorable without the escalation ladder: hand the round to
            // the batch fit (which owns the ladder) and start clean later.
            *incr = None;
            Err(e)
        }
    }
}

/// Applies the pool deltas accumulated since `state.cursor` to the
/// streaming estimator, extracting features for added rows under the
/// current `θ`.
fn replay_deltas(
    state: &mut IncrementalState,
    mlp: &Mlp,
    pool: &LabeledPool,
    ws: &mut MlpWorkspace,
    added_x: &mut Matrix,
    added_z: &mut Matrix,
) -> Result<(), DensityError> {
    let deltas = pool
        .deltas_since(state.cursor)
        .ok_or_else(|| DensityError::Incremental { what: "delta cursor expired".into() })?;
    // A row added and evicted within the same backlog never needs to touch
    // the estimator; collect the backlog's evicted uids to skip such pairs.
    let evicted_later: std::collections::BTreeSet<u64> =
        deltas.iter().filter(|d| d.evicted).map(|d| d.uid).collect();
    let survives = |d: &PoolDelta| !d.evicted && !evicted_later.contains(&d.uid);
    // Extract the surviving added rows' features in one batch: every output
    // row of the forward products is its own ascending-k sum, so this is
    // bit-identical to one call per row.
    let added = deltas
        .iter()
        .filter(|d| survives(d))
        .map(|d| {
            pool.index_of_uid(d.uid).ok_or_else(|| DensityError::Incremental {
                what: format!("added uid {} not found in pool", d.uid),
            })
        })
        .collect::<Result<Vec<usize>, _>>()?;
    if !added.is_empty() {
        faction_nn::mlp::gather_rows_into(pool.features(), &added, added_x);
        mlp.features_into(added_x, ws, added_z);
    }
    state.dirty = true;
    let mut r = 0;
    for delta in deltas {
        if delta.evicted {
            if state.gda.contains(delta.uid) {
                state.gda.remove(delta.uid)?;
            }
        } else if survives(delta) {
            let at = added[r];
            state.gda.insert(
                delta.uid,
                added_z.row(r),
                pool.labels()[at],
                pool.sensitives()[at],
            )?;
            r += 1;
        }
    }
    state.dirty = false;
    state.cursor = pool.delta_head();
    state.rounds_since_anchor += 1;
    Ok(())
}

/// One round of the incremental refit: anchor when due (or when the state
/// is missing, dirty, or behind the bounded delta log), otherwise replay
/// the round's deltas; then materialize the estimator. Returns `None` when
/// this round must fall back to the batch fit — the state is invalidated so
/// the next incremental round starts from a clean anchor.
#[allow(clippy::too_many_arguments)]
fn incremental_estimator(
    params: &FactionParams,
    mlp: &Mlp,
    pool: &LabeledPool,
    num_classes: usize,
    reanchor_every: usize,
    ws: &mut MlpWorkspace,
    pool_z: &mut Matrix,
    added_x: &mut Matrix,
    added_z: &mut Matrix,
    incr: &mut Option<IncrementalState>,
) -> Option<FairDensityEstimator> {
    if pool.is_empty() {
        // Let the batch path produce the canonical degenerate-pool answer.
        *incr = None;
        return None;
    }
    let needs_anchor = match incr.as_ref() {
        None => true,
        Some(s) => {
            s.dirty
                || s.rounds_since_anchor >= reanchor_every
                || pool.deltas_since(s.cursor).is_none()
        }
    };
    let replay_failed = if needs_anchor {
        false
    } else {
        match incr.as_mut() {
            Some(s) => replay_deltas(s, mlp, pool, ws, added_x, added_z).is_err(),
            None => false,
        }
    };
    if (needs_anchor || replay_failed)
        && anchor_incremental(params, mlp, pool, num_classes, ws, pool_z, incr).is_err()
    {
        return None;
    }
    match incr.as_ref() {
        Some(s) => match s.gda.estimator() {
            Ok(e) => Some(e),
            Err(_) => {
                *incr = None;
                None
            }
        },
        None => None,
    }
}

/// The FACTION strategy with ablation switches.
#[derive(Debug, Clone)]
pub struct Faction {
    params: FactionParams,
    scratch: RefCell<FactionScratch>,
}

impl Faction {
    /// Creates FACTION (or one of its ablated variants) from parameters.
    pub fn new(params: FactionParams) -> Self {
        Faction { params, scratch: RefCell::new(FactionScratch::default()) }
    }

    /// The "w/o Fair Select" ablation of Fig. 4.
    pub fn without_fair_select(mut params: FactionParams) -> Self {
        params.fair_select = false;
        Faction::new(params)
    }

    /// The "w/o Fair Reg" ablation of Fig. 4.
    pub fn without_fair_reg(mut params: FactionParams) -> Self {
        params.fair_reg = false;
        Faction::new(params)
    }

    /// The "w/o Fair Select & Fair Reg" ablation (pure epistemic
    /// uncertainty).
    pub fn uncertainty_only(mut params: FactionParams) -> Self {
        params.fair_select = false;
        params.fair_reg = false;
        Faction::new(params)
    }

    /// Current parameters (read-only).
    pub fn params(&self) -> &FactionParams {
        &self.params
    }

    /// Computes the raw Eq. (6) scores `u(x)` (lower = query first) for a
    /// candidate batch.
    ///
    /// The whole candidate batch is scored through the batched density path
    /// ([`FairDensityEstimator::score_batch_into`]) with long-lived scratch
    /// buffers, so after the first round this performs zero per-candidate
    /// allocations; the results are bit-identical to per-sample
    /// `log_density` / `delta_g_all` scoring.
    pub fn raw_scores(&self, ctx: &SelectionContext<'_>) -> Vec<f64> {
        let n = ctx.candidates.rows();
        let mut scratch = self.scratch.borrow_mut();
        let FactionScratch {
            ws,
            pool_z,
            z,
            probs,
            density,
            log_density,
            gaps,
            incr,
            added_x,
            added_z,
        } = &mut *scratch;
        let mlp = ctx.model.mlp();
        // Fit G(z) on the pool's learned features (Algorithm 1, lines 9–18).
        // Under `RefitMode::Incremental` the estimator is maintained by
        // rank-1 scatter updates from the pool's delta log; any round it cannot
        // serve falls through to the batch fit below (which owns the ridge
        // escalation ladder of DESIGN.md §10).
        let estimator = {
            let _fit_span = faction_telemetry::span("core.faction.gda_fit_ns");
            let streamed = match self.params.refit {
                RefitMode::Incremental { reanchor_every } => incremental_estimator(
                    &self.params,
                    mlp,
                    ctx.pool,
                    ctx.num_classes,
                    reanchor_every,
                    ws,
                    pool_z,
                    added_x,
                    added_z,
                    incr,
                ),
                RefitMode::Full => None,
            };
            match streamed {
                Some(e) => e,
                None => {
                    mlp.features_into(ctx.pool.features(), ws, pool_z);
                    let estimator = FairDensityEstimator::fit(
                        pool_z,
                        ctx.pool.labels(),
                        ctx.pool.sensitives(),
                        ctx.num_classes,
                        &self.params.density,
                    );
                    match estimator {
                        Ok(e) => e,
                        // Degenerate pool (e.g. a single sample): no density
                        // signal yet; every candidate is equally desirable.
                        Err(_) => return vec![0.0; n],
                    }
                }
            }
        };
        let feature_span = faction_telemetry::span("core.faction.features_ns");
        mlp.features_into(ctx.candidates, ws, z);
        drop(feature_span);
        let _score_span = faction_telemetry::span("core.faction.gda_score_ns");
        log_density.clear();
        log_density.resize(n, 0.0);
        let mut scores = Vec::with_capacity(n);
        if self.params.fair_select {
            mlp.proba_from_features_into(z, probs);
            if estimator.score_batch_into(z, density, log_density, gaps).is_err() {
                // Unreachable for consistent dimensions; treat like the
                // degenerate-pool case.
                return vec![0.0; n];
            }
            for (i, &ld) in log_density.iter().enumerate() {
                let fairness_term = (0..ctx.num_classes)
                    .map(|c| probs.get(i, c) * gaps.get(c, i))
                    .sum::<f64>();
                scores.push(ld - self.params.lambda * fairness_term);
            }
        } else {
            if estimator.log_density_batch_into(z, density, log_density).is_err() {
                return vec![0.0; n];
            }
            scores.extend_from_slice(log_density);
        }
        scores
    }
}

impl Strategy for Faction {
    fn name(&self) -> String {
        match (self.params.fair_select, self.params.fair_reg) {
            (true, true) => "FACTION".into(),
            (false, true) => "FACTION w/o Fair Select".into(),
            (true, false) => "FACTION w/o Fair Reg".into(),
            (false, false) => "FACTION w/o Fair Select & Fair Reg".into(),
        }
    }

    fn desirability(&mut self, ctx: &SelectionContext<'_>, _rng: &mut SeedRng) -> Vec<f64> {
        desirability_from_scores(&self.raw_scores(ctx))
    }

    fn mode(&self) -> AcquisitionMode {
        AcquisitionMode::Probabilistic { alpha: self.params.alpha }
    }

    fn training_loss(&self) -> Box<dyn BatchLoss> {
        if self.params.fair_reg {
            Box::new(FairTotalLoss::new(self.params.loss))
        } else {
            Box::new(CrossEntropyLoss)
        }
    }

    /// Captures the incremental-refit anchor state, when one exists. The
    /// rest of the scratch (workspaces, feature matrices) is pure cache —
    /// rebuilt identically on demand — so it is deliberately not captured.
    /// Under [`RefitMode::Full`], or before the first anchor, there is
    /// nothing to save and the default `None` applies.
    fn snapshot_state(&self) -> Option<serde::Value> {
        self.scratch.borrow().incr.as_ref().map(serde::Serialize::to_value)
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::DeError> {
        let incr: IncrementalState = serde::Deserialize::from_value(state)?;
        self.scratch.borrow_mut().incr = Some(incr);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::testutil::{check_strategy_contract, Fixture};

    #[test]
    fn satisfies_strategy_contract() {
        check_strategy_contract(&mut Faction::new(FactionParams::default()), 11);
        check_strategy_contract(&mut Faction::uncertainty_only(FactionParams::default()), 12);
        check_strategy_contract(
            &mut Faction::new(FactionParams {
                refit: RefitMode::Incremental { reanchor_every: 4 },
                ..Default::default()
            }),
            13,
        );
    }

    /// Drives `rounds` rounds of pool growth with a frozen extractor and
    /// asserts the incremental scores stay within `tol` of a per-round full
    /// refit (the DESIGN.md §11 contract, here at the strategy layer).
    fn assert_incremental_tracks_full(
        fixture: &mut Fixture,
        reanchor_every: usize,
        rounds: usize,
        tol: f64,
    ) {
        let full = Faction::new(FactionParams::default());
        let incremental = Faction::new(FactionParams {
            refit: RefitMode::Incremental { reanchor_every },
            ..Default::default()
        });
        let mut rng = faction_linalg::SeedRng::new(77);
        for round in 0..rounds {
            for i in 0..3 {
                let y = (round + i) % 2;
                let s: i8 = if i % 2 == 0 { 1 } else { -1 };
                let cx = if y == 1 { 2.0 } else { -2.0 };
                fixture.pool.push(
                    vec![rng.normal(cx, 0.4), rng.normal(f64::from(s), 0.4), rng.normal(0.0, 0.4)],
                    y,
                    s,
                );
            }
            let ctx = fixture.ctx();
            let a = full.raw_scores(&ctx);
            let b = incremental.raw_scores(&ctx);
            for (x, y) in a.iter().zip(&b) {
                assert!(
                    (x - y).abs() <= tol,
                    "round {round}: full {x} vs incremental {y} (gap {:e})",
                    (x - y).abs()
                );
            }
        }
    }

    #[test]
    fn incremental_refit_tracks_full_refit_with_frozen_model() {
        // Re-anchor far beyond the horizon: every round after the first is
        // pure rank-1 updates, and must still match the batch refit.
        let mut fixture = Fixture::new(31);
        assert_incremental_tracks_full(&mut fixture, 1000, 25, 1e-8);
    }

    #[test]
    fn incremental_refit_tracks_full_refit_under_eviction() {
        // A sliding window drives the rank-1 *removal* path every round.
        let mut fixture = Fixture::new(32);
        let mut pool = crate::pool::LabeledPool::with_policy(
            crate::pool::PoolPolicy::SlidingWindow(70),
            5,
        );
        for i in 0..fixture.pool.len() {
            pool.push(
                fixture.pool.features().row(i).to_vec(),
                fixture.pool.labels()[i],
                fixture.pool.sensitives()[i],
            );
        }
        fixture.pool = pool;
        assert_incremental_tracks_full(&mut fixture, 1000, 25, 1e-8);
    }

    #[test]
    fn incremental_refit_tracks_full_refit_under_reservoir() {
        let mut fixture = Fixture::new(33);
        let mut pool = crate::pool::LabeledPool::with_policy(
            crate::pool::PoolPolicy::Reservoir(70, 3),
            5,
        );
        for i in 0..fixture.pool.len() {
            pool.push(
                fixture.pool.features().row(i).to_vec(),
                fixture.pool.labels()[i],
                fixture.pool.sensitives()[i],
            );
        }
        fixture.pool = pool;
        assert_incremental_tracks_full(&mut fixture, 8, 25, 1e-8);
    }

    #[test]
    fn ood_candidates_are_more_desirable() {
        // The fixture's candidates 20..40 are far out-of-distribution; low
        // density → low u → high ω.
        let fixture = Fixture::new(21);
        let ctx = fixture.ctx();
        let mut strategy = Faction::new(FactionParams::default());
        let mut rng = faction_linalg::SeedRng::new(0);
        let w = strategy.desirability(&ctx, &mut rng);
        let familiar: f64 = w[..20].iter().sum::<f64>() / 20.0;
        let ood: f64 = w[20..].iter().sum::<f64>() / 20.0;
        assert!(ood > familiar + 0.2, "ood {ood} vs familiar {familiar}");
    }

    #[test]
    fn lambda_zero_matches_uncertainty_only_selection() {
        let fixture = Fixture::new(22);
        let ctx = fixture.ctx();
        let with_zero_lambda =
            Faction::new(FactionParams { lambda: 0.0, ..Default::default() });
        let no_fair_select = Faction::without_fair_select(FactionParams::default());
        let a = with_zero_lambda.raw_scores(&ctx);
        let b = no_fair_select.raw_scores(&ctx);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn fairness_term_changes_ranking() {
        let fixture = Fixture::new(23);
        let ctx = fixture.ctx();
        let plain = Faction::without_fair_select(FactionParams::default()).raw_scores(&ctx);
        let fair =
            Faction::new(FactionParams { lambda: 50.0, ..Default::default() }).raw_scores(&ctx);
        // With a large λ the fairness gaps must perturb at least one score.
        let changed = plain
            .iter()
            .zip(&fair)
            .any(|(a, b)| (a - b).abs() > 1e-9);
        assert!(changed, "λ = 50 must change Eq. 6 scores");
    }

    #[test]
    fn ablation_names_are_distinct() {
        let p = FactionParams::default();
        let names = [
            Faction::new(p).name(),
            Faction::without_fair_select(p).name(),
            Faction::without_fair_reg(p).name(),
            Faction::uncertainty_only(p).name(),
        ];
        let mut unique = names.to_vec();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn mode_is_probabilistic_with_alpha() {
        let strategy = Faction::new(FactionParams { alpha: 2.5, ..Default::default() });
        assert_eq!(strategy.mode(), AcquisitionMode::Probabilistic { alpha: 2.5 });
    }

    #[test]
    fn training_loss_respects_fair_reg_flag() {
        // Indirect check: the fair loss must differ from CE on a biased
        // batch; the CE-only ablation must not.
        use faction_linalg::Matrix;
        use faction_nn::BatchMeta;
        let logits = Matrix::from_rows(&[vec![-2.0, 2.0], vec![2.0, -2.0]]).unwrap();
        let labels = [1usize, 0];
        let sens = [1i8, -1];
        let meta = BatchMeta { labels: &labels, sensitive: &sens };
        let p = FactionParams::default();
        let (fair_loss, _) = Faction::new(p).training_loss().loss_and_grad(&logits, &meta);
        let (ce_loss, _) =
            Faction::without_fair_reg(p).training_loss().loss_and_grad(&logits, &meta);
        assert!((fair_loss - ce_loss).abs() > 1e-6);
    }
}

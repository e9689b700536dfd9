//! The labeled task pool `D_t` and the online model that retrains on it.

use faction_linalg::{Matrix, SeedRng};
use faction_nn::{BatchLoss, Mlp, MlpConfig, Optimizer, Sgd, TrainOptions};

use crate::config::ExperimentConfig;

/// Retention policy for the labeled pool (DESIGN.md §11).
///
/// `Unbounded` is the paper protocol: every acquired label is kept forever.
/// `SlidingWindow` caps the pool's memory so per-round refit cost stays
/// flat in stream length by keeping the most recent `n` labels (FIFO
/// eviction). Both append at the back and evict at the front, so the
/// retained rows are always one contiguous uid range and eviction order is
/// a pure function of stream order: grid workers produce byte-identical
/// pools regardless of scheduling (`--jobs 1` ≡ `--jobs 8`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PoolPolicy {
    /// Keep every labeled sample (paper protocol).
    #[default]
    Unbounded,
    /// Keep only the `n` most recently labeled samples; older ones are
    /// evicted front-first.
    SlidingWindow(usize),
}

impl PoolPolicy {
    /// Parses a policy spec string: `unbounded` or `window:N`.
    ///
    /// # Errors
    /// Returns a human-readable message when the spec is malformed or the
    /// capacity is zero.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        if spec.eq_ignore_ascii_case("unbounded") {
            return Ok(PoolPolicy::Unbounded);
        }
        let mut parts = spec.split(':');
        if !parts.next().unwrap_or("").eq_ignore_ascii_case("window") {
            return Err(format!("`{spec}`: unknown pool policy (expected unbounded | window:N)"));
        }
        let cap: usize = parts
            .next()
            .ok_or_else(|| format!("`{spec}`: window needs a capacity (window:N)"))?
            .parse()
            .map_err(|_| format!("`{spec}`: window capacity must be an integer"))?;
        if cap == 0 {
            return Err(format!("`{spec}`: window capacity must be positive"));
        }
        if parts.next().is_some() {
            return Err(format!("`{spec}`: too many fields for window policy"));
        }
        Ok(PoolPolicy::SlidingWindow(cap))
    }

    /// The canonical spec string, the inverse of [`PoolPolicy::parse`].
    pub fn spec(&self) -> String {
        match self {
            PoolPolicy::Unbounded => "unbounded".to_string(),
            PoolPolicy::SlidingWindow(n) => format!("window:{n}"),
        }
    }

    /// The retention capacity, if the policy is bounded.
    pub fn capacity(&self) -> Option<usize> {
        match self {
            PoolPolicy::Unbounded => None,
            PoolPolicy::SlidingWindow(n) => Some(*n),
        }
    }
}

impl std::fmt::Display for PoolPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.spec())
    }
}

// The vendored `serde_derive` does not support enums, so the policy
// serializes as its spec string — which also keeps checkpoints readable.
impl serde::Serialize for PoolPolicy {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.spec())
    }
}

impl serde::Deserialize for PoolPolicy {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(s) => PoolPolicy::parse(s).map_err(serde::DeError::custom),
            other => Err(serde::DeError::custom(format!(
                "expected pool policy spec string, got {other:?}"
            ))),
        }
    }
}

/// The pool of labeled samples `D_t = {D_i^labeled}` accumulated across
/// tasks (paper Sec. IV-A), optionally bounded by a [`PoolPolicy`].
/// Sensitive attributes travel with the features (they are inputs, not
/// labels), while class labels are only added once the oracle revealed them.
///
/// Each sample gets a stable uid at push, counting up from 0. The pool
/// appends at the back and evicts at the front, so row `i` holds uid
/// `next_uid − len + i` and [`LabeledPool::uid_range`] is the whole
/// membership: an incremental consumer (the streaming GDA refit) mirrors
/// the pool by comparing that range with the one it saw last.
///
/// Like [`Matrix`], the side vectors carry a *tombstone offset* (`front`):
/// front eviction bumps the offset instead of memmoving every survivor,
/// and the dead prefix is reclaimed in bulk once it outnumbers the live
/// entries, so steady-state sliding-window pushes cost O(d) regardless of
/// pool size. Accessors and serialization expose only the logical view.
#[derive(Debug, Clone, Default)]
pub struct LabeledPool {
    features: Matrix,
    labels: Vec<usize>,
    sensitives: Vec<i8>,
    /// Evicted-but-unreclaimed entries ahead of the side vectors' logical
    /// front. `features` keeps its own equivalent offset internally.
    front: usize,
    next_uid: u64,
    policy: PoolPolicy,
}

// Serialization emits the logical view, so checkpoint bytes are
// independent of eviction history (`front` is never written).
impl serde::Serialize for LabeledPool {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("features".to_string(), serde::Serialize::to_value(&self.features)),
            ("labels".to_string(), serde::Serialize::to_value(self.labels())),
            ("sensitives".to_string(), serde::Serialize::to_value(self.sensitives())),
            ("next_uid".to_string(), serde::Serialize::to_value(&self.next_uid)),
            ("policy".to_string(), serde::Serialize::to_value(&self.policy)),
        ])
    }
}

/// Decoding validates what the accessors and `push` rely on, because
/// snapshot files are untrusted input: one row per label and sensitive
/// value, a window pool within its capacity, and `next_uid ≥ len` (the
/// first retained uid is `next_uid − len`). Fields older formats wrote
/// (`uids`, `log`, `log_base`, `eviction_seed`, `seen`) are ignored; a
/// missing `next_uid` (pre-uid snapshots) or `policy` takes its default.
impl serde::Deserialize for LabeledPool {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let fields =
            v.as_object().ok_or_else(|| serde::DeError::custom("expected LabeledPool object"))?;
        let field = |name: &str| serde::find_field(fields, name);
        let req = |name: &str| {
            field(name)
                .ok_or_else(|| serde::DeError::custom(format!("LabeledPool missing `{name}`")))
        };
        let features: Matrix = serde::Deserialize::from_value(req("features")?)?;
        let labels: Vec<usize> = serde::Deserialize::from_value(req("labels")?)?;
        let sensitives: Vec<i8> = serde::Deserialize::from_value(req("sensitives")?)?;
        let len = labels.len();
        if sensitives.len() != len || features.rows() != len {
            return Err(serde::DeError::custom(format!(
                "LabeledPool has {len} labels, {} sensitives and {} feature rows; \
                 expected one of each per sample",
                sensitives.len(),
                features.rows()
            )));
        }
        let policy: PoolPolicy = match field("policy") {
            Some(v) => serde::Deserialize::from_value(v)
                .map_err(|e| serde::DeError::custom(format!("LabeledPool `policy`: {e}")))?,
            None => PoolPolicy::default(),
        };
        if let Some(cap) = policy.capacity().filter(|&cap| len > cap) {
            return Err(serde::DeError::custom(format!(
                "LabeledPool holds {len} rows under `{policy}`, above its capacity {cap}"
            )));
        }
        let next_uid: u64 = match field("next_uid") {
            Some(v) => serde::Deserialize::from_value(v)?,
            None => len as u64,
        };
        if next_uid < len as u64 {
            return Err(serde::DeError::custom(format!(
                "LabeledPool `next_uid` {next_uid} is below its {len} rows"
            )));
        }
        Ok(LabeledPool { features, labels, sensitives, front: 0, next_uid, policy })
    }
}

impl LabeledPool {
    /// Creates an empty unbounded pool (the paper protocol).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty pool under the given retention policy.
    pub fn with_policy(policy: PoolPolicy) -> Self {
        LabeledPool { policy, ..Self::default() }
    }

    /// The active retention policy.
    pub fn policy(&self) -> PoolPolicy {
        self.policy
    }

    /// Number of labeled samples currently retained.
    pub fn len(&self) -> usize {
        self.labels.len() - self.front
    }

    /// True when no samples are currently retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds one labeled sample under the next uid, then, for a full window,
    /// evicts the oldest.
    ///
    /// # Panics
    /// Panics if the feature dimension disagrees with earlier samples
    /// (programming error in the protocol plumbing).
    pub fn push(&mut self, x: Vec<f64>, label: usize, sensitive: i8) {
        // analyzer:allow(unwrap-in-lib): documented panic contract (see `# Panics` above)
        self.features.push_row(&x).expect("pool rows share one dimension");
        self.labels.push(label);
        self.sensitives.push(sensitive);
        self.next_uid += 1;
        if let Some(cap) = self.policy.capacity() {
            while self.len() > cap {
                self.evict_front();
            }
        }
    }

    fn evict_front(&mut self) {
        // analyzer:allow(unwrap-in-lib): front row exists (len checked by caller)
        self.features.remove_row(0).expect("pool has a front row");
        self.front += 1;
        if self.front * 2 >= self.labels.len() {
            // Dead ≥ live: reclaim the tombstoned prefix in one shot, so the
            // amortized side-vector cost per eviction stays O(1).
            self.labels.drain(..self.front);
            self.sensitives.drain(..self.front);
            self.front = 0;
        }
        faction_telemetry::counter_add("core.pool.evictions", 1);
    }

    /// The uids of the retained samples, `next_uid − len .. next_uid`, in
    /// row order of [`LabeledPool::features`].
    pub fn uid_range(&self) -> std::ops::Range<u64> {
        self.next_uid - self.len() as u64..self.next_uid
    }

    /// Current row index of the sample with the given uid, if retained.
    pub fn index_of_uid(&self, uid: u64) -> Option<usize> {
        let range = self.uid_range();
        range.contains(&uid).then(|| (uid - range.start) as usize)
    }

    /// The pooled features as an `(n, d)` matrix. The matrix is maintained
    /// incrementally as samples arrive, so this is a free borrow — the
    /// selection and retraining hot paths no longer re-stack the pool every
    /// acquisition round.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Labels of the pooled samples.
    pub fn labels(&self) -> &[usize] {
        &self.labels[self.front..]
    }

    /// Sensitive attributes of the pooled samples.
    pub fn sensitives(&self) -> &[i8] {
        &self.sensitives[self.front..]
    }

    /// Count of samples in the sensitive group `s`.
    pub fn group_count(&self, s: i8) -> usize {
        self.sensitives().iter().filter(|&&v| v == s).count()
    }

    /// Count of samples with label `y`.
    pub fn label_count(&self, y: usize) -> usize {
        self.labels().iter().filter(|&&v| v == y).count()
    }
}

/// The learner's model: an MLP retrained from its current parameters on the
/// full pool at every AL iteration (Algorithm 1, lines 7–8 — parameters
/// `θ_temp` warm-start from the previous iteration, matching the online
/// protocol where `θ_t` evolves rather than restarting).
#[derive(Debug, Clone)]
pub struct OnlineModel {
    mlp: Mlp,
    optimizer: Sgd,
    train: TrainOptions,
    rng: SeedRng,
}

impl OnlineModel {
    /// Builds a model from an architecture config and experiment settings.
    pub fn new(arch: &MlpConfig, cfg: &ExperimentConfig, seed: u64) -> Self {
        OnlineModel {
            mlp: Mlp::new(arch),
            optimizer: Sgd::new(cfg.learning_rate).with_momentum(0.9),
            train: TrainOptions {
                epochs: cfg.epochs_per_iteration,
                batch_size: cfg.train_batch_size,
            },
            rng: SeedRng::new(seed ^ 0x0111_11E5_EED0_0001),
        }
    }

    /// Retrains on the pool with the supplied loss. No-op on an empty pool.
    /// Returns the final epoch's mean loss.
    pub fn retrain(&mut self, pool: &LabeledPool, loss: &dyn BatchLoss) -> f64 {
        if pool.is_empty() {
            return 0.0;
        }
        faction_telemetry::counter_add("core.model.retrains", 1);
        faction_telemetry::observe("core.model.retrain_pool_rows", pool.len() as u64);
        let losses = self.mlp.fit(
            pool.features(),
            pool.labels(),
            pool.sensitives(),
            loss,
            &mut self.optimizer,
            &self.train,
            &mut self.rng,
        );
        losses.last().copied().unwrap_or(0.0)
    }

    /// Borrow the underlying network (feature extraction, prediction).
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// Replaces the learning rate (decaying-γ schedules in the theory
    /// harness).
    pub fn set_learning_rate(&mut self, lr: f64) {
        self.optimizer.set_learning_rate(lr);
    }
}

/// Serialization captures the full learner state — network weights,
/// optimizer momentum buffers, training options, and the model's RNG
/// stream position — so a restored model retrains *bit-identically* to one
/// that never left memory. Session snapshots need all four fields, because
/// retrain behavior depends on each of them.
impl serde::Serialize for OnlineModel {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("mlp".to_string(), serde::Serialize::to_value(&self.mlp)),
            ("optimizer".to_string(), serde::Serialize::to_value(&self.optimizer)),
            ("train".to_string(), serde::Serialize::to_value(&self.train)),
            ("rng".to_string(), serde::Serialize::to_value(&self.rng)),
        ])
    }
}

impl serde::Deserialize for OnlineModel {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let fields =
            v.as_object().ok_or_else(|| serde::DeError::custom("expected OnlineModel object"))?;
        let field = |name: &str| {
            serde::find_field(fields, name)
                .ok_or_else(|| serde::DeError::custom(format!("OnlineModel missing `{name}`")))
        };
        Ok(OnlineModel {
            mlp: serde::Deserialize::from_value(field("mlp")?)?,
            optimizer: serde::Deserialize::from_value(field("optimizer")?)?,
            train: serde::Deserialize::from_value(field("train")?)?,
            rng: serde::Deserialize::from_value(field("rng")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faction_nn::CrossEntropyLoss;

    #[test]
    fn pool_accumulates() {
        let mut pool = LabeledPool::new();
        assert!(pool.is_empty());
        pool.push(vec![1.0, 2.0], 1, 1);
        pool.push(vec![3.0, 4.0], 0, -1);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.labels(), &[1, 0]);
        assert_eq!(pool.sensitives(), &[1, -1]);
        assert_eq!(pool.group_count(1), 1);
        assert_eq!(pool.label_count(0), 1);
        assert_eq!(pool.features().shape(), (2, 2));
    }

    #[test]
    fn policy_spec_round_trips() {
        for (spec, policy) in
            [("unbounded", PoolPolicy::Unbounded), ("window:64", PoolPolicy::SlidingWindow(64))]
        {
            let parsed = PoolPolicy::parse(spec).unwrap();
            assert_eq!(parsed, policy);
            assert_eq!(parsed.spec(), spec);
            assert_eq!(PoolPolicy::parse(&parsed.spec()).unwrap(), parsed);
        }
        // Whitespace and case are forgiven.
        assert_eq!(PoolPolicy::parse(" Unbounded ").unwrap(), PoolPolicy::Unbounded);
        assert_eq!(PoolPolicy::parse("Window:3").unwrap(), PoolPolicy::SlidingWindow(3));
        for bad in ["window", "window:0", "window:x", "reservoir:8", "lru:4", "window:4:9"] {
            assert!(PoolPolicy::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn policy_serde_round_trips() {
        use serde::{Deserialize, Serialize};
        for policy in [PoolPolicy::Unbounded, PoolPolicy::SlidingWindow(5)] {
            assert_eq!(PoolPolicy::from_value(&policy.to_value()).unwrap(), policy);
        }
        assert!(PoolPolicy::from_value(&serde::Value::Int(3)).is_err());
    }

    #[test]
    fn sliding_window_evicts_front_and_keeps_one_uid_range() {
        let mut pool = LabeledPool::with_policy(PoolPolicy::SlidingWindow(3));
        for i in 0..5 {
            pool.push(vec![i as f64, 0.0], i % 2, 1);
        }
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.uid_range(), 2..5);
        assert_eq!(pool.features().get(0, 0), 2.0);
        assert_eq!(pool.index_of_uid(3), Some(1));
        assert_eq!(pool.index_of_uid(0), None);
        assert_eq!(pool.index_of_uid(5), None);
    }

    #[test]
    fn pool_state_survives_serde_round_trip() {
        use serde::{Deserialize, Serialize};
        let mut pool = LabeledPool::with_policy(PoolPolicy::SlidingWindow(8));
        for i in 0..40 {
            pool.push(vec![i as f64, -(i as f64)], i % 2, if i % 3 == 0 { -1 } else { 1 });
        }
        let restored = LabeledPool::from_value(&pool.to_value()).unwrap();
        assert_eq!(restored.uid_range(), pool.uid_range());
        assert_eq!(restored.labels(), pool.labels());
        assert_eq!(restored.policy(), pool.policy());
        // The restored pool continues the exact same eviction timeline.
        let mut a = pool.clone();
        let mut b = restored;
        for i in 40..120 {
            a.push(vec![i as f64, 0.0], 0, 1);
            b.push(vec![i as f64, 0.0], 0, 1);
        }
        assert_eq!(a.uid_range(), b.uid_range());
        assert_eq!(a.features().as_slice(), b.features().as_slice());
    }

    #[test]
    fn tombstoned_side_vectors_expose_only_the_logical_view() {
        use serde::{Deserialize, Serialize};
        // Drive a window pool deep into eviction so the side-vector
        // tombstone is live mid-cycle, then compare every observable —
        // accessors, counts, uid lookup, and serialized bytes — against a
        // pool built fresh in the same logical state.
        let mut evicted = LabeledPool::with_policy(PoolPolicy::SlidingWindow(5));
        for i in 0..23 {
            evicted.push(vec![i as f64, 1.0], i % 3, if i % 2 == 0 { 1 } else { -1 });
        }
        assert!(evicted.front > 0, "test must exercise a live tombstone");
        assert_eq!(evicted.len(), 5);
        assert_eq!(evicted.labels().len(), 5);
        assert_eq!(evicted.uid_range(), 18..23);
        assert_eq!(evicted.index_of_uid(20), Some(2));
        assert_eq!(evicted.group_count(1) + evicted.group_count(-1), 5);
        assert_eq!(
            evicted.label_count(0) + evicted.label_count(1) + evicted.label_count(2),
            5
        );
        // Serialization must not leak the dead prefix: byte-compare against
        // a fresh pool holding the same five rows under the same uids.
        let restored = LabeledPool::from_value(&evicted.to_value()).unwrap();
        assert_eq!(restored.front, 0, "deserialize compacts");
        assert_eq!(restored.labels(), evicted.labels());
        assert_eq!(restored.sensitives(), evicted.sensitives());
        assert_eq!(restored.uid_range(), evicted.uid_range());
        assert_eq!(restored.features().as_slice(), evicted.features().as_slice());
        assert_eq!(
            serde_json::to_string(&restored.to_value()),
            serde_json::to_string(&evicted.to_value()),
            "checkpoint bytes must be independent of eviction history"
        );
        // And the timelines stay fused after the round trip.
        let mut a = evicted.clone();
        let mut b = restored;
        for i in 23..60 {
            a.push(vec![i as f64, 2.0], 0, 1);
            b.push(vec![i as f64, 2.0], 0, 1);
        }
        assert_eq!(a.uid_range(), b.uid_range());
        assert_eq!(a.features().as_slice(), b.features().as_slice());
    }

    #[test]
    fn retrain_on_empty_pool_is_noop() {
        let cfg = ExperimentConfig::quick();
        let arch = faction_nn::presets::tiny(2, 2, 0);
        let mut model = OnlineModel::new(&arch, &cfg, 1);
        let before = model.mlp().predict_proba(&Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap());
        assert_eq!(model.retrain(&LabeledPool::new(), &CrossEntropyLoss), 0.0);
        let after = model.mlp().predict_proba(&Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap());
        assert_eq!(before, after);
    }

    #[test]
    fn retrain_improves_fit() {
        let mut pool = LabeledPool::new();
        let mut rng = SeedRng::new(3);
        for _ in 0..60 {
            let y = usize::from(rng.bernoulli(0.5));
            let c = if y == 1 { 2.0 } else { -2.0 };
            pool.push(vec![rng.normal(c, 0.4), rng.normal(c, 0.4)], y, 1);
        }
        let cfg = ExperimentConfig::quick();
        let arch = faction_nn::presets::tiny(2, 2, 0);
        let mut model = OnlineModel::new(&arch, &cfg, 1);
        let mut last = f64::INFINITY;
        for _ in 0..6 {
            last = model.retrain(&pool, &CrossEntropyLoss);
        }
        assert!(last < 0.2, "loss after repeated retraining {last}");
        let preds = model.mlp().predict(pool.features());
        let acc = faction_fairness::accuracy(&preds, pool.labels());
        assert!(acc > 0.9, "accuracy {acc}");
    }
}

//! The labeled task pool `D_t` and the online model that retrains on it.

use faction_linalg::rng::splitmix64;
use faction_linalg::{Matrix, SeedRng};
use faction_nn::{BatchLoss, Mlp, MlpConfig, Optimizer, Sgd, TrainOptions};

use crate::config::ExperimentConfig;

/// Retention policy for the labeled pool (DESIGN.md §11).
///
/// `Unbounded` is the paper protocol: every acquired label is kept forever.
/// The bounded policies cap the pool's memory so per-round refit cost stays
/// flat in stream length: `SlidingWindow` keeps the most recent `n` labels
/// (FIFO eviction), `Reservoir` keeps a uniform sample of the whole stream
/// via counter-based reservoir sampling (Algorithm R), so old environments
/// stay represented under drift.
///
/// Eviction order is a pure function of `(stream order, seed, policy)`: no
/// global RNG is consulted, so grid workers produce byte-identical pools
/// regardless of scheduling (`--jobs 1` ≡ `--jobs 8`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PoolPolicy {
    /// Keep every labeled sample (paper protocol).
    #[default]
    Unbounded,
    /// Keep only the `n` most recently labeled samples; older ones are
    /// evicted front-first.
    SlidingWindow(usize),
    /// Keep a uniform random sample of capacity `n` over the whole label
    /// stream, using the given sampling seed (combined with the run seed).
    Reservoir(usize, u64),
}

impl PoolPolicy {
    /// Parses a policy spec string: `unbounded`, `window:N`, or
    /// `reservoir:N[:SEED]` (seed defaults to 0 and is mixed with the run
    /// seed anyway).
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
        let head = parts.next().unwrap_or("").to_ascii_lowercase();
        match head.as_str() {
            "window" => {
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
            "reservoir" => {
                let cap: usize = parts
                    .next()
                    .ok_or_else(|| {
                        format!("`{spec}`: reservoir needs a capacity (reservoir:N[:SEED])")
                    })?
                    .parse()
                    .map_err(|_| format!("`{spec}`: reservoir capacity must be an integer"))?;
                if cap == 0 {
                    return Err(format!("`{spec}`: reservoir capacity must be positive"));
                }
                let seed: u64 = match parts.next() {
                    None => 0,
                    Some(s) => s
                        .parse()
                        .map_err(|_| format!("`{spec}`: reservoir seed must be an integer"))?,
                };
                if parts.next().is_some() {
                    return Err(format!("`{spec}`: too many fields for reservoir policy"));
                }
                Ok(PoolPolicy::Reservoir(cap, seed))
            }
            _ => Err(format!(
                "`{spec}`: unknown pool policy (expected unbounded | window:N | reservoir:N[:SEED])"
            )),
        }
    }

    /// The canonical spec string, the inverse of [`PoolPolicy::parse`].
    pub fn spec(&self) -> String {
        match self {
            PoolPolicy::Unbounded => "unbounded".to_string(),
            PoolPolicy::SlidingWindow(n) => format!("window:{n}"),
            PoolPolicy::Reservoir(n, seed) => format!("reservoir:{n}:{seed}"),
        }
    }

    /// The retention capacity, if the policy is bounded.
    pub fn capacity(&self) -> Option<usize> {
        match self {
            PoolPolicy::Unbounded => None,
            PoolPolicy::SlidingWindow(n) | PoolPolicy::Reservoir(n, _) => Some(*n),
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

/// One pool membership change, in arrival order. `evicted == false` records
/// a sample entering the pool, `evicted == true` records one leaving it.
///
/// (A struct rather than an enum so the vendored `serde_derive` can handle
/// it — checkpoints serialize the pool, delta log included.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PoolDelta {
    /// Stable identity of the sample (assigned at push, never reused).
    pub uid: u64,
    /// True when this delta removes the sample from the pool.
    pub evicted: bool,
}

/// Bound on the retained delta log. Consumers that fall further behind than
/// this are told to re-anchor (see [`LabeledPool::deltas_since`]); keeping
/// the log bounded makes pool memory O(capacity), not O(stream).
const MAX_LOG: usize = 4096;

/// The pool of labeled samples `D_t = {D_i^labeled}` accumulated across
/// tasks (paper Sec. IV-A), optionally bounded by a [`PoolPolicy`].
/// Sensitive attributes travel with the features (they are inputs, not
/// labels), while class labels are only added once the oracle revealed them.
///
/// Each sample carries a stable `uid`, and every membership change is
/// appended to a bounded delta log so incremental consumers (the streaming
/// GDA refit) can mirror the pool without rescanning it.
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
    uids: Vec<u64>,
    /// Evicted-but-unreclaimed entries ahead of the side vectors' logical
    /// front. `features` keeps its own equivalent offset internally.
    front: usize,
    next_uid: u64,
    policy: PoolPolicy,
    eviction_seed: u64,
    seen: u64,
    log: Vec<PoolDelta>,
    log_base: u64,
}

// Serialization emits the logical view under the same field names the
// pre-tombstone derive produced, so checkpoint bytes are independent of
// eviction history and older checkpoints load unchanged (`front` is never
// written; absent fields fall back to their defaults, as the derive's
// `#[serde(default)]` attributes did).
impl serde::Serialize for LabeledPool {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("features".to_string(), serde::Serialize::to_value(&self.features)),
            ("labels".to_string(), serde::Serialize::to_value(self.labels())),
            ("sensitives".to_string(), serde::Serialize::to_value(self.sensitives())),
            ("uids".to_string(), serde::Serialize::to_value(self.uids())),
            ("next_uid".to_string(), serde::Serialize::to_value(&self.next_uid)),
            ("policy".to_string(), serde::Serialize::to_value(&self.policy)),
            ("eviction_seed".to_string(), serde::Serialize::to_value(&self.eviction_seed)),
            ("seen".to_string(), serde::Serialize::to_value(&self.seen)),
            ("log".to_string(), serde::Serialize::to_value(&self.log)),
            ("log_base".to_string(), serde::Serialize::to_value(&self.log_base)),
        ])
    }
}

impl serde::Deserialize for LabeledPool {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let fields =
            v.as_object().ok_or_else(|| serde::DeError::custom("expected LabeledPool object"))?;
        fn req<T: serde::Deserialize>(
            fields: &[(String, serde::Value)],
            name: &str,
        ) -> Result<T, serde::DeError> {
            let v = serde::find_field(fields, name)
                .ok_or_else(|| serde::DeError::custom(format!("LabeledPool missing `{name}`")))?;
            serde::Deserialize::from_value(v)
        }
        fn opt<T: serde::Deserialize + Default>(
            fields: &[(String, serde::Value)],
            name: &str,
        ) -> Result<T, serde::DeError> {
            match serde::find_field(fields, name) {
                Some(v) => serde::Deserialize::from_value(v),
                None => Ok(T::default()),
            }
        }
        Ok(LabeledPool {
            features: req(fields, "features")?,
            labels: req(fields, "labels")?,
            sensitives: req(fields, "sensitives")?,
            uids: opt(fields, "uids")?,
            front: 0,
            next_uid: opt(fields, "next_uid")?,
            policy: opt(fields, "policy")?,
            eviction_seed: opt(fields, "eviction_seed")?,
            seen: opt(fields, "seen")?,
            log: opt(fields, "log")?,
            log_base: opt(fields, "log_base")?,
        })
    }
}

impl LabeledPool {
    /// Creates an empty unbounded pool (the paper protocol).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty pool under the given retention policy. The run seed
    /// is mixed into the reservoir's sampling seed so replicate runs draw
    /// different samples while staying individually deterministic.
    pub fn with_policy(policy: PoolPolicy, run_seed: u64) -> Self {
        let policy_seed = match policy {
            PoolPolicy::Reservoir(_, s) => s,
            _ => 0,
        };
        LabeledPool {
            policy,
            eviction_seed: splitmix64(run_seed ^ splitmix64(policy_seed ^ 0x5EED_0FE7_1C71_0A01)),
            ..Self::default()
        }
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

    /// Adds one labeled sample, applying the retention policy. Under a
    /// bounded policy this may evict an older sample (or, for a full
    /// reservoir, discard the new one — that is what keeps the retained set
    /// a uniform sample). Every membership change lands in the delta log.
    ///
    /// # Panics
    /// Panics if the feature dimension disagrees with earlier samples
    /// (programming error in the protocol plumbing).
    pub fn push(&mut self, x: Vec<f64>, label: usize, sensitive: i8) {
        let uid = self.next_uid;
        self.next_uid += 1;
        self.seen += 1;
        match self.policy {
            PoolPolicy::Unbounded => self.append(&x, label, sensitive, uid),
            PoolPolicy::SlidingWindow(cap) => {
                self.append(&x, label, sensitive, uid);
                while self.len() > cap {
                    self.evict_front();
                }
            }
            PoolPolicy::Reservoir(cap, _) => {
                if self.len() < cap {
                    self.append(&x, label, sensitive, uid);
                } else {
                    // Algorithm R with a stateless draw: item `seen` replaces
                    // a uniform slot with probability cap/seen.
                    let j = splitmix64(self.eviction_seed ^ self.seen) % self.seen;
                    if (j as usize) < cap {
                        self.replace_at(j as usize, &x, label, sensitive, uid);
                    }
                    // else: the new sample is discarded without ever entering
                    // the pool — no membership change, no delta.
                }
            }
        }
    }

    fn append(&mut self, x: &[f64], label: usize, sensitive: i8, uid: u64) {
        // analyzer:allow(unwrap-in-lib): documented panic contract (see `# Panics` above)
        self.features.push_row(x).expect("pool rows share one dimension");
        self.labels.push(label);
        self.sensitives.push(sensitive);
        self.uids.push(uid);
        self.log_delta(PoolDelta { uid, evicted: false });
    }

    fn evict_front(&mut self) {
        // analyzer:allow(unwrap-in-lib): front row exists (len checked by caller)
        self.features.remove_row(0).expect("pool has a front row");
        let uid = self.uids[self.front];
        self.front += 1;
        if self.front * 2 >= self.labels.len() {
            // Dead ≥ live: reclaim the tombstoned prefix in one shot, so the
            // amortized side-vector cost per eviction stays O(1).
            self.labels.drain(..self.front);
            self.sensitives.drain(..self.front);
            self.uids.drain(..self.front);
            self.front = 0;
        }
        self.log_delta(PoolDelta { uid, evicted: true });
        faction_telemetry::counter_add("core.pool.evictions", 1);
    }

    fn replace_at(&mut self, at: usize, x: &[f64], label: usize, sensitive: i8, uid: u64) {
        let at = self.front + at;
        let old = self.uids[at];
        // `features` tracks its own tombstone, so its row index stays logical.
        self.features.row_mut(at - self.front).copy_from_slice(x);
        self.labels[at] = label;
        self.sensitives[at] = sensitive;
        self.uids[at] = uid;
        self.log_delta(PoolDelta { uid: old, evicted: true });
        self.log_delta(PoolDelta { uid, evicted: false });
        faction_telemetry::counter_add("core.pool.evictions", 1);
    }

    fn log_delta(&mut self, delta: PoolDelta) {
        self.log.push(delta);
        if self.log.len() > MAX_LOG {
            // Chunked trim: drop the older half in one shot so the amortized
            // cost per push stays O(1). Consumers whose cursor predates the
            // new base re-anchor (deltas_since returns None).
            let drop = self.log.len() / 2;
            self.log.drain(..drop);
            self.log_base += drop as u64;
        }
    }

    /// The cursor one past the latest delta. Pass this back to
    /// [`LabeledPool::deltas_since`] next round to receive only what changed
    /// in between.
    pub fn delta_head(&self) -> u64 {
        self.log_base + self.log.len() as u64
    }

    /// The membership changes since `cursor` (a previous
    /// [`LabeledPool::delta_head`]), in arrival order. Returns `None` when
    /// the cursor has fallen off the bounded log (or is from another pool's
    /// timeline) — the consumer must then rebuild from the full pool.
    pub fn deltas_since(&self, cursor: u64) -> Option<&[PoolDelta]> {
        if cursor < self.log_base || cursor > self.delta_head() {
            return None;
        }
        Some(&self.log[(cursor - self.log_base) as usize..])
    }

    /// Stable identities of the retained samples, aligned with
    /// [`LabeledPool::labels`] / row order of [`LabeledPool::features`].
    pub fn uids(&self) -> &[u64] {
        &self.uids[self.front..]
    }

    /// Current row index of the sample with the given uid, if retained.
    pub fn index_of_uid(&self, uid: u64) -> Option<usize> {
        self.uids().iter().position(|&u| u == uid)
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
        for (spec, policy) in [
            ("unbounded", PoolPolicy::Unbounded),
            ("window:64", PoolPolicy::SlidingWindow(64)),
            ("reservoir:128:7", PoolPolicy::Reservoir(128, 7)),
        ] {
            let parsed = PoolPolicy::parse(spec).unwrap();
            assert_eq!(parsed, policy);
            assert_eq!(parsed.spec(), spec);
            assert_eq!(PoolPolicy::parse(&parsed.spec()).unwrap(), parsed);
        }
        // Seed defaults to 0 when omitted; whitespace and case are forgiven.
        assert_eq!(PoolPolicy::parse("reservoir:9").unwrap(), PoolPolicy::Reservoir(9, 0));
        assert_eq!(PoolPolicy::parse(" Unbounded ").unwrap(), PoolPolicy::Unbounded);
        for bad in ["window", "window:0", "window:x", "reservoir:0", "lru:4", "window:4:9"] {
            assert!(PoolPolicy::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn policy_serde_round_trips() {
        use serde::{Deserialize, Serialize};
        for policy in [
            PoolPolicy::Unbounded,
            PoolPolicy::SlidingWindow(5),
            PoolPolicy::Reservoir(3, 11),
        ] {
            assert_eq!(PoolPolicy::from_value(&policy.to_value()).unwrap(), policy);
        }
        assert!(PoolPolicy::from_value(&serde::Value::Int(3)).is_err());
    }

    #[test]
    fn sliding_window_evicts_front_and_logs_deltas() {
        let mut pool = LabeledPool::with_policy(PoolPolicy::SlidingWindow(3), 1);
        for i in 0..5 {
            pool.push(vec![i as f64, 0.0], i % 2, 1);
        }
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.uids(), &[2, 3, 4]);
        assert_eq!(pool.features().get(0, 0), 2.0);
        // Arrival order: 5 adds interleaved with 2 evictions (of uids 0, 1).
        let deltas = pool.deltas_since(0).unwrap();
        assert_eq!(deltas.len(), 7);
        assert_eq!(
            deltas.iter().filter(|d| d.evicted).map(|d| d.uid).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(pool.delta_head(), 7);
        assert_eq!(pool.deltas_since(pool.delta_head()).unwrap(), &[]);
        assert_eq!(pool.index_of_uid(3), Some(1));
        assert_eq!(pool.index_of_uid(0), None);
    }

    #[test]
    fn reservoir_is_capped_uniformish_and_deterministic() {
        let run = |run_seed: u64| {
            let mut pool = LabeledPool::with_policy(PoolPolicy::Reservoir(16, 9), run_seed);
            for i in 0..400 {
                pool.push(vec![i as f64], 0, 1);
            }
            pool
        };
        let a = run(5);
        let b = run(5);
        let c = run(6);
        assert_eq!(a.len(), 16);
        assert_eq!(a.uids(), b.uids(), "same seeds must keep the same sample");
        assert_ne!(a.uids(), c.uids(), "different run seeds should diverge");
        // A uniform sample of 0..400 should not be the most recent items
        // only, and should reach into the early stream.
        assert!(a.uids().iter().any(|&u| u < 200));
        assert!(a.uids().iter().any(|&u| u >= 200));
        // Replayed deltas reproduce the retained uid set.
        let mut mirror: Vec<u64> = Vec::new();
        for d in a.deltas_since(0).unwrap() {
            if d.evicted {
                mirror.retain(|&u| u != d.uid);
            } else {
                mirror.push(d.uid);
            }
        }
        let mut kept = a.uids().to_vec();
        kept.sort_unstable();
        mirror.sort_unstable();
        assert_eq!(mirror, kept);
    }

    #[test]
    fn delta_log_trims_and_invalidates_stale_cursors() {
        let mut pool = LabeledPool::with_policy(PoolPolicy::SlidingWindow(4), 2);
        // Each push past the window logs 2 deltas, so this overflows MAX_LOG.
        for i in 0..3000 {
            pool.push(vec![i as f64], 0, 1);
        }
        assert!(pool.deltas_since(0).is_none(), "ancient cursor must force a re-anchor");
        assert!(pool.deltas_since(pool.delta_head() + 1).is_none());
        let head = pool.delta_head();
        pool.push(vec![0.5], 1, -1);
        let fresh = pool.deltas_since(head).unwrap();
        assert_eq!(fresh.len(), 2); // one add + one evict
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn pool_state_survives_serde_round_trip() {
        use serde::{Deserialize, Serialize};
        let mut pool = LabeledPool::with_policy(PoolPolicy::Reservoir(8, 3), 7);
        for i in 0..40 {
            pool.push(vec![i as f64, -(i as f64)], i % 2, if i % 3 == 0 { -1 } else { 1 });
        }
        let restored = LabeledPool::from_value(&pool.to_value()).unwrap();
        assert_eq!(restored.uids(), pool.uids());
        assert_eq!(restored.labels(), pool.labels());
        assert_eq!(restored.delta_head(), pool.delta_head());
        assert_eq!(restored.policy(), pool.policy());
        // The restored pool continues the exact same eviction timeline.
        let mut a = pool.clone();
        let mut b = restored;
        for i in 40..120 {
            a.push(vec![i as f64, 0.0], 0, 1);
            b.push(vec![i as f64, 0.0], 0, 1);
        }
        assert_eq!(a.uids(), b.uids());
        assert_eq!(a.features().as_slice(), b.features().as_slice());
    }

    #[test]
    fn tombstoned_side_vectors_expose_only_the_logical_view() {
        use serde::{Deserialize, Serialize};
        // Drive a window pool deep into eviction so the side-vector
        // tombstone is live mid-cycle, then compare every observable —
        // accessors, counts, uid lookup, and serialized bytes — against a
        // pool built fresh in the same logical state.
        let mut evicted = LabeledPool::with_policy(PoolPolicy::SlidingWindow(5), 9);
        for i in 0..23 {
            evicted.push(vec![i as f64, 1.0], i % 3, if i % 2 == 0 { 1 } else { -1 });
        }
        assert!(evicted.front > 0, "test must exercise a live tombstone");
        assert_eq!(evicted.len(), 5);
        assert_eq!(evicted.labels().len(), 5);
        assert_eq!(evicted.uids(), &[18, 19, 20, 21, 22]);
        assert_eq!(evicted.index_of_uid(20), Some(2));
        assert_eq!(evicted.group_count(1) + evicted.group_count(-1), 5);
        assert_eq!(
            evicted.label_count(0) + evicted.label_count(1) + evicted.label_count(2),
            5
        );
        // Serialization must not leak the dead prefix: byte-compare against
        // a fresh pool holding the same five rows with the same uids/log.
        let restored = LabeledPool::from_value(&evicted.to_value()).unwrap();
        assert_eq!(restored.front, 0, "deserialize compacts");
        assert_eq!(restored.labels(), evicted.labels());
        assert_eq!(restored.sensitives(), evicted.sensitives());
        assert_eq!(restored.uids(), evicted.uids());
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
        assert_eq!(a.uids(), b.uids());
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

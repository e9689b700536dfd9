//! The thread-safe sharded [`Registry`] and its deterministic [`Snapshot`].
//!
//! Writes go to a per-thread shard (a `Mutex<BTreeMap>` picked by a sticky
//! thread token, so a worker contends with at most the threads that share
//! its slot, and with a shard per worker with none of them). Snapshots lock
//! shards in index order and merge entries by key; because counter merging
//! is saturating addition (associative + commutative) and gauge merging is
//! `max`, the merged report is independent of which thread recorded what —
//! sorted keys then make the JSON rendering byte-stable.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::metrics::{bucket_lower_bound, Histogram, MetricValue};
use crate::recorder::Recorder;

/// Locks a shard, tolerating poisoning: shard state is plain maps of plain
/// integers, always consistent, so a panic elsewhere must not wedge
/// reporting.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Monotonically increasing thread token for shard selection.
///
/// Deliberately *not* `ThreadId`-hash based: std's hashers are seeded per
/// process or unspecified across releases (`clippy::disallowed_types`
/// rejects `RandomState` and `DefaultHasher`), whereas an atomic counter is
/// allocation-order deterministic and cheap.
static NEXT_THREAD_TOKEN: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_TOKEN: usize = NEXT_THREAD_TOKEN.fetch_add(1, Ordering::Relaxed);
}

/// Default shard count: enough for the engine's worker-per-core pools
/// without measurable snapshot cost.
const DEFAULT_SHARDS: usize = 8;

/// Thread-safe metric store implementing [`Recorder`].
#[derive(Debug)]
pub struct Registry {
    shards: Vec<Mutex<BTreeMap<String, MetricValue>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A registry with the default shard count.
    pub fn new() -> Registry {
        Registry::with_shards(DEFAULT_SHARDS)
    }

    /// A registry with `shards` shards (minimum 1).
    pub fn with_shards(shards: usize) -> Registry {
        let shards = shards.max(1);
        Registry { shards: (0..shards).map(|_| Mutex::new(BTreeMap::new())).collect() }
    }

    fn shard(&self) -> &Mutex<BTreeMap<String, MetricValue>> {
        let token = THREAD_TOKEN.with(|t| *t);
        &self.shards[token % self.shards.len()]
    }

    /// Merges all shards into one deterministic, sorted view.
    pub fn snapshot(&self) -> Snapshot {
        let mut entries: BTreeMap<String, MetricValue> = BTreeMap::new();
        for shard in &self.shards {
            for (key, value) in lock(shard).iter() {
                match entries.get_mut(key) {
                    Some(existing) => existing.merge(value),
                    None => {
                        entries.insert(key.clone(), value.clone());
                    }
                }
            }
        }
        Snapshot { entries }
    }
}

impl Recorder for Registry {
    fn counter_add(&self, key: &str, delta: u64) {
        let mut shard = lock(self.shard());
        match shard.get_mut(key) {
            Some(MetricValue::Counter(v)) => *v = v.saturating_add(delta),
            Some(_) => {}
            None => {
                shard.insert(key.to_string(), MetricValue::Counter(delta));
            }
        }
    }

    fn gauge_set(&self, key: &str, value: u64) {
        let mut shard = lock(self.shard());
        match shard.get_mut(key) {
            Some(MetricValue::Gauge { value: v, high_water }) => {
                *v = value;
                *high_water = (*high_water).max(value);
            }
            Some(_) => {}
            None => {
                shard.insert(key.to_string(), MetricValue::Gauge { value, high_water: value });
            }
        }
    }

    fn observe(&self, key: &str, value: u64) {
        let mut shard = lock(self.shard());
        match shard.get_mut(key) {
            Some(MetricValue::Histogram(h)) => h.record(value),
            Some(_) => {}
            None => {
                let mut h = Histogram::new();
                h.record(value);
                shard.insert(key.to_string(), MetricValue::Histogram(Box::new(h)));
            }
        }
    }

    fn enabled(&self) -> bool {
        true
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(Registry::snapshot(self))
    }
}

/// A merged, key-sorted view of a registry at one point in time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    entries: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// Builds a snapshot directly from entries (test/merge-algebra use).
    pub fn from_entries(entries: impl IntoIterator<Item = (String, MetricValue)>) -> Snapshot {
        let mut out = Snapshot::default();
        for (key, value) in entries {
            match out.entries.get_mut(&key) {
                Some(existing) => existing.merge(&value),
                None => {
                    out.entries.insert(key, value);
                }
            }
        }
        out
    }

    /// Merges another snapshot into this one (same semantics as shard
    /// merging: counters add, gauges max, histograms combine).
    pub fn merge(&mut self, other: &Snapshot) {
        for (key, value) in &other.entries {
            match self.entries.get_mut(key) {
                Some(existing) => existing.merge(value),
                None => {
                    self.entries.insert(key.clone(), value.clone());
                }
            }
        }
    }

    /// Number of distinct metric keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up one metric by key.
    pub fn get(&self, key: &str) -> Option<&MetricValue> {
        self.entries.get(key)
    }

    /// Counter value for `key` (`None` when absent or not a counter).
    pub fn counter(&self, key: &str) -> Option<u64> {
        match self.entries.get(key) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge `(value, high_water)` for `key`.
    pub fn gauge(&self, key: &str) -> Option<(u64, u64)> {
        match self.entries.get(key) {
            Some(MetricValue::Gauge { value, high_water }) => Some((*value, *high_water)),
            _ => None,
        }
    }

    /// Histogram for `key`.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        match self.entries.get(key) {
            Some(MetricValue::Histogram(h)) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The subset of metrics whose key starts with `prefix`.
    pub fn filter_prefix(&self, prefix: &str) -> Snapshot {
        Snapshot {
            entries: self
                .entries
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// A copy with every wall-clock-dependent field zeroed, for cross-run
    /// comparison: histograms whose key ends in `_ns` keep their `count`
    /// (how often the phase ran is deterministic) but drop `sum`, `min`,
    /// `max`, and bucket placement (how long it took is not).
    pub fn canonicalized(&self) -> Snapshot {
        let entries = self
            .entries
            .iter()
            .map(|(k, v)| {
                let v = match v {
                    MetricValue::Histogram(h) if k.ends_with("_ns") => {
                        MetricValue::Histogram(Box::new(Histogram {
                            count: h.count,
                            ..Histogram::new()
                        }))
                    }
                    other => other.clone(),
                };
                (k.clone(), v)
            })
            .collect();
        Snapshot { entries }
    }

    /// Compact JSON rendering with keys in sorted order.
    pub fn to_json(&self) -> String {
        self.render(false)
    }

    /// Pretty-printed JSON rendering with keys in sorted order.
    pub fn to_json_pretty(&self) -> String {
        self.render(true)
    }

    fn render(&self, pretty: bool) -> String {
        let (nl, pad, sp) = if pretty { ("\n", "  ", " ") } else { ("", "", "") };
        let mut out = String::from("{");
        for (i, (key, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(nl);
            out.push_str(pad);
            push_json_string(&mut out, key);
            out.push(':');
            out.push_str(sp);
            render_metric(&mut out, value, pretty);
        }
        if !self.entries.is_empty() {
            out.push_str(nl);
        }
        out.push('}');
        out
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render_metric(out: &mut String, value: &MetricValue, pretty: bool) {
    let sp = if pretty { " " } else { "" };
    match value {
        MetricValue::Counter(v) => {
            out.push_str(&format!("{{\"type\":{sp}\"counter\",{sp}\"value\":{sp}{v}}}"));
        }
        MetricValue::Gauge { value, high_water } => {
            out.push_str(&format!(
                "{{\"type\":{sp}\"gauge\",{sp}\"value\":{sp}{value},{sp}\"high_water\":{sp}{high_water}}}"
            ));
        }
        MetricValue::Histogram(h) => {
            out.push_str(&format!(
                "{{\"type\":{sp}\"histogram\",{sp}\"count\":{sp}{},{sp}\"sum\":{sp}{},{sp}\"min\":{sp}{},{sp}\"max\":{sp}{},{sp}\"buckets\":{sp}[",
                h.count,
                h.sum,
                h.display_min(),
                h.max
            ));
            let mut first = true;
            for (i, n) in h.buckets.iter().enumerate() {
                if *n == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                    if pretty {
                        out.push(' ');
                    }
                }
                first = false;
                out.push_str(&format!("[{},{sp}{n}]", bucket_lower_bound(i)));
            }
            out.push_str("]}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_records_and_snapshots() {
        let r = Registry::with_shards(4);
        r.counter_add("a.b.count", 2);
        r.counter_add("a.b.count", 3);
        r.gauge_set("a.b.depth", 7);
        r.gauge_set("a.b.depth", 4);
        r.observe("a.b.lat_ns", 100);
        r.observe("a.b.lat_ns", 900);
        let s = Registry::snapshot(&r);
        assert_eq!(s.counter("a.b.count"), Some(5));
        assert_eq!(s.gauge("a.b.depth"), Some((4, 7)));
        let h = s.histogram("a.b.lat_ns").expect("histogram recorded");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1000);
        assert_eq!((h.min, h.max), (100, 900));
    }

    #[test]
    fn mismatched_kind_is_ignored_not_corrupted() {
        let r = Registry::with_shards(1);
        r.counter_add("k", 1);
        r.observe("k", 50);
        r.gauge_set("k", 9);
        assert_eq!(Registry::snapshot(&r).counter("k"), Some(1));
    }

    #[test]
    fn snapshot_json_is_sorted_and_stable() {
        let r = Registry::with_shards(2);
        r.counter_add("z.last", 1);
        r.counter_add("a.first", 1);
        r.observe("m.mid_ns", 3);
        let s = Registry::snapshot(&r);
        let json = s.to_json();
        let a = json.find("a.first").expect("a.first present");
        let m = json.find("m.mid_ns").expect("m.mid_ns present");
        let z = json.find("z.last").expect("z.last present");
        assert!(a < m && m < z, "keys must render sorted: {json}");
        assert_eq!(json, Registry::snapshot(&r).to_json(), "re-snapshot must be byte-stable");
        assert!(json.contains("\"buckets\":[[2,1]]"), "{json}");
    }

    #[test]
    fn canonicalized_zeroes_only_ns_timings() {
        let r = Registry::with_shards(1);
        r.observe("core.phase_ns", 12345);
        r.observe("density.batch_rows", 512);
        r.counter_add("engine.jobs", 2);
        let c = Registry::snapshot(&r).canonicalized();
        let h = c.histogram("core.phase_ns").expect("timing histogram kept");
        assert_eq!(h.count, 1);
        assert_eq!((h.sum, h.max), (0, 0));
        let rows = c.histogram("density.batch_rows").expect("value histogram kept");
        assert_eq!(rows.sum, 512);
        assert_eq!(c.counter("engine.jobs"), Some(2));
    }

    #[test]
    fn filter_prefix_selects_subtrees() {
        let s = Snapshot::from_entries([
            ("engine.pool.steals".to_string(), MetricValue::Counter(1)),
            ("core.runner.tasks".to_string(), MetricValue::Counter(2)),
        ]);
        let e = s.filter_prefix("engine.");
        assert_eq!(e.len(), 1);
        assert_eq!(e.counter("engine.pool.steals"), Some(1));
    }

    #[test]
    fn empty_snapshot_renders_empty_object() {
        assert_eq!(Snapshot::default().to_json(), "{}");
        assert_eq!(Snapshot::default().to_json_pretty(), "{}");
    }
}

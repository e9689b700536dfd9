//! In-memory span recorder for the traced run, and the self-time arithmetic
//! that attributes wall clock to layers.
//!
//! Spans are recorded by the benchmark around its calls into the program's
//! public functions; nothing here reaches inside the program. A span's
//! *self time* is its duration minus the part of its interval that its
//! child spans cover. Children may overlap one another (the jobs of one
//! engine batch run on several workers at once), so the covered part is the
//! length of the union of the children's intervals, clipped to the parent.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the trace.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `core.feed`; roots are unqualified.
    pub name: &'static str,
    /// Request id: the job key or the session name.
    pub request: String,
    /// Start, seconds since the origin.
    pub start: f64,
    /// End, seconds since the origin.
    pub end: f64,
}

impl Span {
    /// Wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Thread-safe span sink. Spans are kept in memory and written out once,
/// when the run ends.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span; `f` receives the span id to parent children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: &str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.origin.elapsed().as_secs_f64();
        let span = Span {
            id,
            parent,
            name,
            request: request.to_string(),
            start,
            end,
        };
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking span")
            .push(span);
        out
    }

    /// All finished spans, ordered by id.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("span sink poisoned by a panicking span");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Runs `f` inside a span when `tracer` is set, directly otherwise; `f`
/// receives the span id (`None` untraced) to parent children.
pub fn call<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    request: &str,
    f: impl FnOnce(Option<u64>) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, parent, request, |id| f(Some(id))),
        None => f(None),
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_length(lo: f64, hi: f64, intervals: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Seconds of each span's interval covered by its children, by span id.
fn child_cover(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            (s.id, union_length(s.start, s.end, kids))
        })
        .collect()
}

/// Self time of every span, in the order given.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let cover = child_cover(spans);
    spans
        .iter()
        .map(|s| (s.duration() - cover[&s.id]).max(0.0))
        .collect()
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    /// Σ wall duration, seconds.
    pub total: f64,
    /// Σ self time, seconds.
    pub self_time: f64,
    /// Longest single span, seconds.
    pub max: f64,
}

/// Totals per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_time) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total += s.duration();
        t.self_time += self_time;
        t.max = t.max.max(s.duration());
    }
    out
}

/// Σ self time of the spans named `name`, in milliseconds.
pub fn self_ms(totals: &BTreeMap<&'static str, NameTotals>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.self_time * 1e3)
}

/// Mean duration of the spans named `name`, in microseconds.
pub fn mean_us(totals: &BTreeMap<&'static str, NameTotals>, name: &str) -> f64 {
    totals
        .get(name)
        .map_or(0.0, |t| crate::stats::ratio(t.total * 1e6, t.count as f64))
}

/// One line naming where the roots' time went: the self time of each span
/// name directly under a root named one of `roots`, as a share of the
/// roots' total time, largest first.
pub fn shares_line(spans: &[Span], roots: &[&str]) -> String {
    let root_ids: BTreeSet<u64> = spans
        .iter()
        .filter(|s| roots.contains(&s.name))
        .map(|s| s.id)
        .collect();
    let total: f64 = spans
        .iter()
        .filter(|s| root_ids.contains(&s.id))
        .map(Span::duration)
        .sum();
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, self_time) in spans.iter().zip(self_times(spans)) {
        if s.parent.is_some_and(|p| root_ids.contains(&p)) {
            *by_layer.entry(s.name).or_default() += self_time;
        }
    }
    let mut shares: Vec<(&str, f64)> = by_layer.into_iter().collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let parts: Vec<String> = shares
        .iter()
        .map(|(name, t)| format!("{name} {:.1}%", 100.0 * crate::stats::ratio(*t, total)))
        .collect();
    format!(
        "time by layer (self time / {} time): {}",
        roots.join(" + "),
        parts.join(", ")
    )
}

/// Share of the time inside request roots (spans named one of `roots`)
/// that their child spans cover, plus the uncovered seconds. The uncovered
/// remainder is the roots' own self time: benchmark glue between calls.
pub fn coverage(spans: &[Span], roots: &[&str]) -> (f64, f64) {
    let cover = child_cover(spans);
    let (mut total, mut covered) = (0.0, 0.0);
    for s in spans.iter().filter(|s| roots.contains(&s.name)) {
        total += s.duration();
        covered += cover[&s.id];
    }
    (crate::stats::ratio(covered, total), total - covered)
}

/// Writes the trace as tab-separated lines (`id parent name request start
/// end self`), the form the run leaves behind for inspection.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\trequest\tstart_s\tend_s\tself_s")?;
    for (s, self_time) in spans.iter().zip(self_times(spans)) {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{:.9}\t{:.9}\t{:.9}",
            s.id, parent, s.name, s.request, s.start, s.end, self_time
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            request: "r".into(),
            start,
            end,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // root [0,10] ⊃ a [1,4] ⊃ a1 [2,3];  root ⊃ b [5,9]
        let spans = vec![
            span(0, None, "root", 0.0, 10.0),
            span(1, Some(0), "a", 1.0, 4.0),
            span(2, Some(1), "a1", 2.0, 3.0),
            span(3, Some(0), "b", 5.0, 9.0),
        ];
        let st = self_times(&spans);
        assert!(close(st[0], 3.0), "{st:?}");
        assert!(close(st[1], 2.0), "{st:?}");
        assert!(close(st[2], 1.0), "{st:?}");
        assert!(close(st[3], 4.0), "{st:?}");
        let total: f64 = st.iter().sum();
        assert!(close(total, 10.0), "self times partition the root");
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two workers: jobs [0,6] and [1,8] under a batch span [0,10].
        let spans = vec![
            span(0, None, "batch", 0.0, 10.0),
            span(1, Some(0), "job", 0.0, 6.0),
            span(2, Some(0), "job", 1.0, 8.0),
        ];
        let st = self_times(&spans);
        assert!(close(st[0], 2.0), "union [0,8] leaves 2 s: {st:?}");
        assert_eq!(by_name(&spans)["job"].count, 2);
        assert!(close(by_name(&spans)["job"].total, 13.0));
    }

    #[test]
    fn children_poking_outside_the_parent_are_clipped() {
        let spans = vec![
            span(0, None, "root", 2.0, 4.0),
            span(1, Some(0), "c", 1.0, 3.0),
        ];
        let st = self_times(&spans);
        assert!(close(st[0], 1.0), "{st:?}");
    }

    #[test]
    fn union_length_of_disjoint_touching_and_empty_sets() {
        assert!(close(union_length(0.0, 10.0, &[]), 0.0));
        assert!(close(
            union_length(0.0, 10.0, &[(1.0, 2.0), (2.0, 3.0)]),
            2.0
        ));
        assert!(close(
            union_length(0.0, 10.0, &[(5.0, 6.0), (1.0, 2.0)]),
            2.0
        ));
        assert!(close(
            union_length(0.0, 10.0, &[(1.0, 5.0), (2.0, 3.0)]),
            4.0
        ));
    }

    #[test]
    fn coverage_names_the_uncovered_root_time() {
        let spans = vec![
            span(0, None, "job", 0.0, 10.0),
            span(1, Some(0), "core.feed", 0.0, 9.0),
            span(2, None, "job", 20.0, 30.0),
            span(3, Some(2), "core.feed", 20.0, 30.0),
            span(4, None, "other", 40.0, 100.0),
        ];
        let (share, uncovered) = coverage(&spans, &["job"]);
        assert!(close(share, 0.95), "{share}");
        assert!(close(uncovered, 1.0), "{uncovered}");
        assert_eq!(coverage(&spans, &["absent"]), (0.0, 0.0));
    }

    #[test]
    fn shares_line_orders_layers_by_self_time() {
        let spans = vec![
            span(0, None, "job", 0.0, 10.0),
            span(1, Some(0), "core.feed", 6.0, 9.0),
            span(2, Some(0), "core.apply_labels", 0.0, 6.0),
            span(3, None, "other", 0.0, 100.0),
        ];
        assert_eq!(
            shares_line(&spans, &["job"]),
            "time by layer (self time / job time): core.apply_labels 60.0%, core.feed 30.0%"
        );
    }

    #[test]
    fn tracer_records_parents_and_requests() {
        let tracer = Tracer::new();
        tracer.span("root", None, "job-a", |root| {
            tracer.span("core.feed", Some(root), "job-a", |_| ());
        });
        let spans = tracer.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "root");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans
            .iter()
            .all(|s| s.request == "job-a" && s.end >= s.start));
    }

    #[test]
    fn call_spans_only_when_tracing() {
        assert_eq!(call(None, "root", None, "r", |id| id), None);
        let tracer = Tracer::new();
        let child = call(Some(&tracer), "root", None, "r", |root| {
            call(Some(&tracer), "core.feed", root, "r", |id| (root, id))
        });
        let spans = tracer.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(child, (Some(spans[0].id), Some(spans[1].id)));
        assert_eq!(spans[1].parent, Some(spans[0].id));
    }
}

//! The project rule suite: the hazards no compiler lint can see.
//!
//! Every rule is a mechanical pass over the token stream produced by
//! [`crate::lexer`], with test code masked out by [`crate::scope`]. The
//! dataflow rules additionally consume the [`crate::scope::resolve`]
//! symbol table (fn items, bindings, loop bodies). Generic hazards —
//! hash-ordered containers, wall-clock reads, seedless hashers, panics in
//! library code, float equality, truncating casts, unsafe code and missing
//! docs — are rustc and clippy lints configured in the workspace
//! `Cargo.toml`, `clippy.toml` and the crate roots; `DESIGN.md` §7 and §12
//! map each hazard to its enforcer. The rules here:
//!
//! | rule | scope | hazard |
//! |------|-------|--------|
//! | `telemetry-on-hot-path` | library crates (except telemetry) | shard-merging `.snapshot()` calls on instrumented paths |
//! | `hot-path-alloc` | fns reachable from `analyzer:hot-path` entries | per-call allocation on scoring/refit paths |
//! | `float-reduction-order` | linalg + density crates | unattested float reductions pin no evaluation order |
//! | `blocking-in-worker` | engine crate (pool internals waived) | locks/waits/file I/O inside worker closures |
//! | `unsafe-audit` | all non-test code | `unsafe` without an invariant note + test cross-check |
//! | `stale-allow` | every allow site | waivers that no longer suppress anything |
//! | `telemetry-key-registry` | all non-test code | literal telemetry keys missing from `crates/telemetry/keys.txt` |
//!
//! Findings on a line carrying (or directly below) a
//! `// analyzer:allow(<rule>): <reason>` comment are suppressed; the reason
//! is mandatory and a reason-less or unknown-rule allow is itself reported
//! as `bad-allow`.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{LexOutput, Marker, MarkerKind, Tok, TokKind};
use crate::registry::KeyRegistry;
use crate::scope::{resolve, test_mask, ScopeModel};

/// All rule names, in reporting order.
pub const RULE_NAMES: &[&str] = &[
    "telemetry-on-hot-path",
    "hot-path-alloc",
    "float-reduction-order",
    "blocking-in-worker",
    "unsafe-audit",
    "stale-allow",
    "telemetry-key-registry",
];

/// Classification of a scanned file; decides which rules apply.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// File belongs to one of the reusable library crates
    /// (`workspace::LIB_CRATES`) — `telemetry-on-hot-path` applies.
    pub lib_crate: bool,
    /// File belongs to the telemetry crate itself — it owns the snapshot
    /// machinery, so `telemetry-on-hot-path` is waived there.
    pub telemetry_crate: bool,
    /// File belongs to a numeric-reduction crate (`linalg`/`density`) —
    /// `float-reduction-order` applies: reduction order there is the
    /// determinism contract the parallel-GEMM roadmap item must preserve.
    pub reduction_crate: bool,
    /// File belongs to `faction-engine` — `blocking-in-worker` applies.
    pub engine_crate: bool,
    /// File *is* the engine's pool (`engine/src/pool.rs`) — the sanctioned
    /// home of the run-queue lock and its condvar, so
    /// `blocking-in-worker` is waived there.
    pub worker_pool: bool,
}

/// Cross-file context for one [`check_file`] call.
///
/// `analyze_source` runs with the defaults: the file is treated as its own
/// crate (`hot-path-alloc` reachability is computed from the file alone)
/// and the telemetry-key rule is skipped (`registry: None`). The workspace
/// scan supplies a crate-wide hot-fn set and the checked-in registry.
#[derive(Debug, Default)]
pub struct CheckContext<'a> {
    /// Names of fns in this file's crate reachable from an
    /// `analyzer:hot-path` entry; `None` computes the set from this file.
    pub hot_fns: Option<&'a BTreeSet<String>>,
    /// The telemetry key registry; `None` disables `telemetry-key-registry`
    /// (and exempts its allows from staleness, since they cannot be used).
    pub registry: Option<&'a KeyRegistry>,
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as displayed (workspace-relative in CLI runs).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (one of [`RULE_NAMES`] or `bad-allow`).
    pub rule: String,
    /// Human-readable message.
    pub message: String,
}

impl Finding {
    /// The canonical `file:line:rule: message` rendering.
    pub fn render(&self) -> String {
        format!("{}:{}:{}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// Outcome of checking one file.
#[derive(Debug, Default)]
pub struct CheckOutcome {
    /// Surviving findings (after suppression), in line order.
    pub findings: Vec<Finding>,
    /// Number of findings silenced by a valid `analyzer:allow`.
    pub suppressed: usize,
}

/// Runs the full rule suite over one lexed file.
pub fn check_file(
    file: &str,
    lex: &mut LexOutput,
    class: &FileClass,
    ctx: &CheckContext<'_>,
) -> CheckOutcome {
    let mask = test_mask(&lex.tokens);
    let model = resolve(&lex.tokens);
    let mut raw: Vec<Finding> = Vec::new();

    if class.lib_crate && !class.telemetry_crate {
        rule_telemetry_on_hot_path(file, &lex.tokens, &mask, &mut raw);
    }

    // Dataflow rules.
    let single_file_hot;
    let hot_fns = match ctx.hot_fns {
        Some(set) => set,
        None => {
            single_file_hot = hot_fn_set(std::iter::once(&*lex));
            &single_file_hot
        }
    };
    rule_hot_path_alloc(file, &lex.tokens, &mask, &model, hot_fns, &mut raw);
    if class.reduction_crate {
        rule_float_reduction(file, &lex.tokens, &mask, &model, &lex.markers, &mut raw);
    }
    if class.engine_crate && !class.worker_pool {
        rule_blocking_in_worker(file, &lex.tokens, &mask, &mut raw);
    }
    rule_unsafe_audit(file, &lex.tokens, &mask, &lex.markers, &mut raw);
    if let Some(registry) = ctx.registry {
        rule_telemetry_key(file, &lex.tokens, &mask, registry, &mut raw);
    }

    // Suppression: an allow on the finding's line or the line directly
    // above, with a matching rule name and a non-empty reason.
    let mut out = CheckOutcome::default();
    for f in raw {
        let allow = lex.allows.iter_mut().find(|a| {
            a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line)
        });
        match allow {
            Some(a) if !a.reason.is_empty() => {
                a.used = true;
                out.suppressed += 1;
            }
            Some(a) => {
                // Matching allow but the mandatory reason is missing: the
                // finding stands; the malformed allow is reported below.
                a.used = true;
                out.findings.push(f);
            }
            None => out.findings.push(f),
        }
    }
    for a in &lex.allows {
        if a.reason.is_empty() {
            out.findings.push(Finding {
                file: file.into(),
                line: a.line,
                rule: "bad-allow".into(),
                message: "analyzer:allow is missing its mandatory `: <reason>`".into(),
            });
        } else if !RULE_NAMES.contains(&a.rule.as_str()) {
            out.findings.push(Finding {
                file: file.into(),
                line: a.line,
                rule: "bad-allow".into(),
                message: format!("analyzer:allow names unknown rule `{}`", a.rule),
            });
        } else if !(a.used || (ctx.registry.is_none() && a.rule == "telemetry-key-registry")) {
            // A well-formed waiver that silenced nothing is dead weight —
            // either the hazard was fixed (delete the allow) or the allow
            // is aimed at the wrong line. Telemetry-key allows are exempt
            // when the rule itself was skipped for lack of a registry.
            out.findings.push(Finding {
                file: file.into(),
                line: a.line,
                rule: "stale-allow".into(),
                message: format!(
                    "analyzer:allow({}) no longer suppresses anything here; remove the \
                     waiver or move it to the line it covers",
                    a.rule
                ),
            });
        }
    }
    out.findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    out
}

fn push(out: &mut Vec<Finding>, file: &str, line: u32, rule: &str, message: String) {
    out.push(Finding { file: file.into(), line, rule: rule.into(), message });
}

/// Computes the set of function names reachable from `analyzer:hot-path`
/// markers across one crate's lexed files.
///
/// A marker seeds the first `fn` item at or below its line. Edges are
/// same-crate direct calls resolved by name: `callee(…)`,
/// `Path::callee(…)`, and `self.callee(…)` all edge to any crate fn named
/// `callee`. Name-level resolution over-approximates (two fns sharing a
/// name merge), which errs toward *more* hot coverage — the safe direction
/// for an allocation gate. Method calls on non-`self` receivers are not
/// followed; cross-crate hot paths each carry their own entry markers.
pub fn hot_fn_set<'a>(files: impl Iterator<Item = &'a LexOutput>) -> BTreeSet<String> {
    const KEYWORDS: &[&str] =
        &["if", "match", "return", "while", "loop", "for", "in", "move", "as", "let", "fn"];
    let mut known: BTreeSet<String> = BTreeSet::new();
    let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut seeds: BTreeSet<String> = BTreeSet::new();

    for lex in files {
        let model = resolve(&lex.tokens);
        for f in &model.fns {
            known.insert(f.name.clone());
        }
        for m in lex.markers.iter().filter(|m| m.kind == MarkerKind::HotPath) {
            if let Some(f) = model.fns.iter().find(|f| f.line >= m.line) {
                seeds.insert(f.name.clone());
            }
        }
        for f in &model.fns {
            let Some((open, close)) = f.body else { continue };
            let callees = edges.entry(f.name.clone()).or_default();
            for i in open + 1..close {
                let t = &lex.tokens[i];
                if t.kind != TokKind::Ident
                    || KEYWORDS.contains(&t.text.as_str())
                    || !lex.tokens.get(i + 1).map(|n| n.is_punct("(")).unwrap_or(false)
                {
                    continue;
                }
                let prev = &lex.tokens[i - 1];
                if prev.is_ident("fn") {
                    continue; // nested fn declaration, not a call
                }
                let direct = !prev.is_punct(".");
                let self_method = prev.is_punct(".")
                    && i >= 2
                    && lex.tokens[i - 2].is_ident("self");
                if direct || self_method {
                    callees.insert(t.text.clone());
                }
            }
        }
    }

    // BFS over name-resolved edges, restricted to crate-known fns.
    let mut hot: BTreeSet<String> = seeds.intersection(&known).cloned().collect();
    let mut work: Vec<String> = hot.iter().cloned().collect();
    while let Some(name) = work.pop() {
        if let Some(callees) = edges.get(&name) {
            for callee in callees {
                if known.contains(callee) && hot.insert(callee.clone()) {
                    work.push(callee.clone());
                }
            }
        }
    }
    hot
}

/// Rule 2: allocation inside hot-path-reachable functions.
///
/// The scoring/selection/refit paths run once per stream round; a stray
/// `collect()` there turns O(1) scratch reuse into per-round heap churn
/// and is exactly what the SIMD/parallel-kernel roadmap item must not
/// inherit. Flags `Vec::new`, `vec![…]`, `.to_vec(…)`, `.clone(…)`,
/// `.collect(…)`, and `format!` inside any fn in `hot`.
fn rule_hot_path_alloc(
    file: &str,
    toks: &[Tok],
    mask: &[bool],
    model: &ScopeModel,
    hot: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    for f in model.fns.iter().filter(|f| hot.contains(&f.name)) {
        let Some((open, close)) = f.body else { continue };
        for i in open + 1..close {
            if mask[i] {
                continue;
            }
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let next_is = |s: &str| toks.get(i + 1).map(|n| n.is_punct(s)).unwrap_or(false);
            let dotted = i > 0 && toks[i - 1].is_punct(".");
            let what = if t.text == "Vec" && next_is("::")
                && toks.get(i + 2).map(|n| n.is_ident("new")).unwrap_or(false)
            {
                Some("Vec::new()")
            } else if t.text == "vec" && next_is("!") {
                Some("vec![…]")
            } else if dotted && t.text == "to_vec" && next_is("(") {
                Some(".to_vec()")
            } else if dotted && t.text == "clone" && next_is("(") {
                Some(".clone()")
            } else if dotted && t.text == "collect" && (next_is("(") || next_is("::")) {
                Some(".collect()")
            } else if t.text == "format" && next_is("!") {
                Some("format!")
            } else {
                None
            };
            if let Some(what) = what {
                push(
                    out,
                    file,
                    t.line,
                    "hot-path-alloc",
                    format!(
                        "`{what}` in `{}`, which is reachable from an `analyzer:hot-path` \
                         entry; preallocate scratch outside the loop or justify with \
                         analyzer:allow",
                        f.name
                    ),
                );
            }
        }
    }
}

/// Methods whose float application order a reduction pins.
const ORDER_SENSITIVE_CALLS: &[&str] = &["exp", "ln", "sqrt", "powi", "powf", "mul_add"];

/// Rule 3: float reductions in `linalg`/`density` need an
/// `// analyzer:ordered` attestation.
///
/// Float addition does not associate, so the order of a `.sum()`, a
/// `.fold(…)`, or a `+=` accumulation loop *is* the value. The upcoming
/// parallel GEMM keeps the sequential kernels as its bit-reference; every
/// reduction must therefore state that its order is deliberate. A site is
/// attested by a marker on its line or the line above, or by a marker
/// within three lines above the enclosing `fn` (fn-level attestation for
/// kernels that are one big accumulation). `+=` sites are only flagged
/// inside loop bodies with float evidence — a float-typed LHS binding, or
/// an RHS containing a float literal, `*`, `/`, or an order-sensitive call
/// — so integer counters stay exempt.
fn rule_float_reduction(
    file: &str,
    toks: &[Tok],
    mask: &[bool],
    model: &ScopeModel,
    markers: &[Marker],
    out: &mut Vec<Finding>,
) {
    let ordered: Vec<u32> =
        markers.iter().filter(|m| m.kind == MarkerKind::Ordered).map(|m| m.line).collect();
    let site_attested =
        |line: u32| ordered.iter().any(|&m| m == line || m + 1 == line);
    let fn_attested = |i: usize| {
        model
            .enclosing_fn(i)
            .is_some_and(|f| ordered.iter().any(|&m| m <= f.line && f.line - m <= 3))
    };
    let attested = |i: usize, line: u32| site_attested(line) || fn_attested(i);

    for (i, t) in toks.iter().enumerate() {
        if mask[i] {
            continue;
        }
        // `.sum(…)` / `.sum::<…>` / `.fold(…)`.
        let dotted = i > 0 && toks[i - 1].is_punct(".");
        let next_is = |s: &str| toks.get(i + 1).map(|n| n.is_punct(s)).unwrap_or(false);
        if dotted
            && ((t.is_ident("sum") && (next_is("(") || next_is("::")))
                || (t.is_ident("fold") && next_is("(")))
        {
            if !attested(i, t.line) {
                push(
                    out,
                    file,
                    t.line,
                    "float-reduction-order",
                    format!(
                        "`.{}(…)` pins a reduction order that parallel kernels must \
                         reproduce; attest it with `// analyzer:ordered`",
                        t.text
                    ),
                );
            }
            continue;
        }
        // `+=` accumulation in a loop body.
        if t.is_punct("+")
            && toks.get(i + 1).map(|n| n.is_punct("=")).unwrap_or(false)
            && model.in_loop(i)
        {
            // RHS tokens up to the statement end.
            let rhs_start = i + 2;
            let rhs_end = toks[rhs_start..]
                .iter()
                .position(|s| s.is_punct(";"))
                .map(|off| rhs_start + off)
                .unwrap_or(toks.len());
            let rhs = &toks[rhs_start..rhs_end];
            if rhs.len() == 1 && rhs[0].kind == TokKind::Int {
                continue; // integer counter: `idx += 1`, `jb += 4`
            }
            let lhs_float = i > 0
                && toks[i - 1].kind == TokKind::Ident
                && model.binds_float(&toks[i - 1].text);
            let rhs_float = rhs.iter().any(|s| {
                s.kind == TokKind::Float
                    || s.is_punct("*")
                    || s.is_punct("/")
                    || (s.kind == TokKind::Ident && ORDER_SENSITIVE_CALLS.contains(&s.text.as_str()))
            });
            if (lhs_float || rhs_float) && !attested(i, t.line) {
                push(
                    out,
                    file,
                    t.line,
                    "float-reduction-order",
                    "`+=` float accumulation in a loop pins a reduction order that \
                     parallel kernels must reproduce; attest it with `// analyzer:ordered`"
                        .into(),
                );
            }
        }
    }
}

/// Pool entry points whose closure argument runs on worker threads: every
/// function in `engine/src/pool.rs` that takes a worker closure (the golden
/// suite checks the two lists agree).
pub const WORKER_ENTRIES: &[&str] = &["run_indexed", "scoped_for_each", "scoped_for_each_chaos"];

/// Rule 4: blocking calls inside engine worker closures.
///
/// The pool's throughput model assumes worker bodies never block on shared
/// state: the run-queue lock and its condvar live in `pool.rs` (waived via
/// `FileClass::worker_pool`) and everything else must stay lock-free.
/// Scans the paren-matched argument region of every pool entry call for
/// `lock(…)`, condvar waits, and file-system access.
fn rule_blocking_in_worker(file: &str, toks: &[Tok], mask: &[bool], out: &mut Vec<Finding>) {
    let mut regions: Vec<(usize, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && WORKER_ENTRIES.contains(&t.text.as_str())
            && toks.get(i + 1).map(|n| n.is_punct("(")).unwrap_or(false)
        {
            let mut depth = 0i64;
            for (off, s) in toks[i + 1..].iter().enumerate() {
                if s.is_punct("(") {
                    depth += 1;
                } else if s.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        regions.push((i + 1, i + 1 + off));
                        break;
                    }
                }
            }
        }
    }
    for &(open, close) in &regions {
        for i in open + 1..close {
            if mask[i] {
                continue;
            }
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let next_is = |s: &str| toks.get(i + 1).map(|n| n.is_punct(s)).unwrap_or(false);
            let dotted = i > 0 && toks[i - 1].is_punct(".");
            let what = if t.text == "lock" && next_is("(") {
                Some("a mutex lock")
            } else if dotted
                && matches!(t.text.as_str(), "wait" | "wait_timeout" | "wait_while")
                && next_is("(")
            {
                Some("a condvar wait")
            } else if ((t.text == "File" || t.text == "OpenOptions" || t.text == "fs")
                && next_is("::"))
                || (dotted && t.text == "read_to_string" && next_is("("))
            {
                Some("file I/O")
            } else {
                None
            };
            if let Some(what) = what {
                push(
                    out,
                    file,
                    t.line,
                    "blocking-in-worker",
                    format!(
                        "{what} inside a worker closure; workers must not block outside \
                         the pool internals — justify with analyzer:allow naming the \
                         bounded invariant"
                    ),
                );
            }
        }
    }
}

/// Rule 5: every `unsafe` needs a written invariant and a test cross-check.
///
/// The SIMD roadmap item will ship intrinsics under this gate: an `unsafe`
/// block must carry `// analyzer:unsafe(invariant): …` on its line or the
/// line above, and the file must contain a `#[cfg(test)]` region (the
/// scalar cross-check the intrinsics are validated against).
fn rule_unsafe_audit(
    file: &str,
    toks: &[Tok],
    mask: &[bool],
    markers: &[Marker],
    out: &mut Vec<Finding>,
) {
    let has_test_region = mask.iter().any(|&m| m);
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || !t.is_ident("unsafe") {
            continue;
        }
        let justified = markers.iter().any(|m| {
            m.kind == MarkerKind::UnsafeInvariant
                && !m.reason.is_empty()
                && (m.line == t.line || m.line + 1 == t.line)
        });
        if !justified {
            push(
                out,
                file,
                t.line,
                "unsafe-audit",
                "`unsafe` without a `// analyzer:unsafe(invariant): …` note; write down \
                 the invariant the block relies on"
                    .into(),
            );
        }
        if !has_test_region {
            push(
                out,
                file,
                t.line,
                "unsafe-audit",
                "`unsafe` in a module with no `#[cfg(test)]` region; add the scalar \
                 cross-check that validates the unsafe path"
                    .into(),
            );
        }
    }
}

/// Telemetry recording/reading methods whose first argument is a key.
const TELEMETRY_KEY_CALLS: &[&str] = &[
    "counter_add",
    "gauge_set",
    "observe",
    "observe_duration",
    "span",
    "counter",
    "gauge",
    "histogram",
];

/// Rule 6: literal telemetry keys must appear in the checked-in registry.
fn rule_telemetry_key(
    file: &str,
    toks: &[Tok],
    mask: &[bool],
    registry: &KeyRegistry,
    out: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i]
            || t.kind != TokKind::Ident
            || !TELEMETRY_KEY_CALLS.contains(&t.text.as_str())
            || !toks.get(i + 1).map(|n| n.is_punct("(")).unwrap_or(false)
        {
            continue;
        }
        let Some(key_tok) = toks.get(i + 2).filter(|k| k.kind == TokKind::Str) else {
            continue; // dynamically-built key: covered by wildcard entries + review
        };
        if !registry.matches(&key_tok.text) {
            push(
                out,
                file,
                key_tok.line,
                "telemetry-key-registry",
                format!(
                    "telemetry key `{}` is not in crates/telemetry/keys.txt; register \
                     it (or fix the typo) so the DESIGN.md key table cannot drift",
                    key_tok.text
                ),
            );
        }
    }
}

/// Rule 1: no registry snapshot on an instrumented library path.
///
/// A `.snapshot()` call merges every registry shard under locks —
/// report-time work that would serialize workers if it crept into a
/// per-round or per-job path. (Wall-clock reads are
/// `clippy::disallowed_methods`, configured in `clippy.toml`.)
fn rule_telemetry_on_hot_path(file: &str, toks: &[Tok], mask: &[bool], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident || t.text != "snapshot" {
            continue;
        }
        let dotted = i > 0 && toks[i - 1].is_punct(".");
        let called = toks.get(i + 1).map(|n| n.is_punct("(")).unwrap_or(false);
        if dotted && called {
            push(
                out,
                file,
                t.line,
                "telemetry-on-hot-path",
                "`.snapshot()` merges every registry shard under locks; call it at \
                 report time, never on a per-round or per-job path"
                    .into(),
            );
        }
    }
}

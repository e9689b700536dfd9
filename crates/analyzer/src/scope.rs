//! Scope tracking over the token stream: test-code masking plus the v2
//! binding/region resolver.
//!
//! The rule suite exempts test code: anything under an item annotated with a
//! `test`-bearing attribute (`#[cfg(test)]`, `#[cfg(all(test, …))]`,
//! `#[test]`) or inside a `mod tests { … }` / `mod *_tests { … }` block.
//! `#[cfg(not(test))]` does **not** exempt — the `not(…)` group is skipped
//! when looking for the `test` token.
//!
//! Tracking is brace-depth based: the lexer guarantees braces inside
//! strings, chars, and comments never reach us, so a simple counter with a
//! stack of exemption start-depths is exact for well-formed code.
//!
//! [`resolve`] builds the lightweight symbol table the dataflow rules run
//! on: every `fn` item with its signature line and body token range, every
//! `let` binding with a float-type hint, and the body ranges of
//! `for`/`while`/`loop` expressions. It is resolution by token shape, not
//! type checking — the rules that consume it (`hot-path-alloc`,
//! `float-reduction-order`, `blocking-in-worker`, `unsafe-audit`) are
//! calibrated to that precision and lean on attestation markers where
//! syntax alone cannot decide.

use crate::lexer::{Tok, TokKind};

/// Returns, for each token, whether it sits inside test-exempt code.
pub fn test_mask(tokens: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut depth: i64 = 0;
    // Depths at which an exempt scope opened.
    let mut exempt_stack: Vec<i64> = Vec::new();
    // A test-bearing attribute (or `mod tests`) was seen and we are waiting
    // for the item's opening brace (or a `;` that ends a braceless item).
    let mut pending = false;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        // Attributes: `#[…]` (and inner `#![…]`).
        if t.is_punct("#") {
            let mut j = i + 1;
            if j < tokens.len() && tokens[j].is_punct("!") {
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct("[") {
                let (attr_end, has_test) = scan_attr(tokens, j);
                if has_test {
                    pending = true;
                }
                for m in mask.iter_mut().take(attr_end).skip(i) {
                    *m = *m || !exempt_stack.is_empty() || pending;
                }
                i = attr_end;
                continue;
            }
        }
        // `mod tests` / `mod foo_tests`.
        if t.is_ident("mod") {
            if let Some(next) = tokens.get(i + 1) {
                if next.kind == TokKind::Ident
                    && (next.text == "tests" || next.text.ends_with("_tests"))
                {
                    pending = true;
                }
            }
        }
        if t.is_punct("{") {
            depth += 1;
            if pending {
                exempt_stack.push(depth);
                pending = false;
            }
        } else if t.is_punct("}") {
            if exempt_stack.last() == Some(&depth) {
                exempt_stack.pop();
            }
            depth -= 1;
        } else if t.is_punct(";") && pending && exempt_stack.last() != Some(&depth) {
            // `#[cfg(test)] use …;` — braceless item, exemption ends here.
            pending = false;
        }
        mask[i] = !exempt_stack.is_empty() || pending;
        i += 1;
    }
    mask
}

/// Scans an attribute starting at its `[` token; returns the index one past
/// the matching `]` and whether the attribute mentions `test` outside a
/// `not(…)` group.
fn scan_attr(tokens: &[Tok], open: usize) -> (usize, bool) {
    let mut bracket = 0i64;
    let mut paren = 0i64;
    // Paren depths of currently-open `not(…)` groups.
    let mut not_depths: Vec<i64> = Vec::new();
    let mut has_test = false;
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("[") {
            bracket += 1;
        } else if t.is_punct("]") {
            bracket -= 1;
            if bracket == 0 {
                return (i + 1, has_test);
            }
        } else if t.is_punct("(") {
            paren += 1;
        } else if t.is_punct(")") {
            if not_depths.last() == Some(&paren) {
                not_depths.pop();
            }
            paren -= 1;
        } else if t.is_ident("not")
            && tokens.get(i + 1).map(|n| n.is_punct("(")).unwrap_or(false)
        {
            not_depths.push(paren + 1);
        } else if t.is_ident("test") && not_depths.is_empty() {
            has_test = true;
        }
        i += 1;
    }
    (tokens.len(), has_test)
}

/// One `fn` item found in the token stream.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range `(open, close)` of the body's braces, inclusive of both
    /// brace tokens; `None` for bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
}

impl FnItem {
    /// True when token index `i` falls inside this fn's body braces.
    pub fn contains(&self, i: usize) -> bool {
        self.body.is_some_and(|(open, close)| i > open && i < close)
    }
}

/// One `let` binding (or `fn` parameter with an explicit type).
#[derive(Debug, Clone)]
pub struct Binding {
    /// Bound identifier.
    pub name: String,
    /// Whether the binding is visibly floating-point: an explicit
    /// `: f64`/`: f32` annotation or a float-literal initializer.
    pub is_float: bool,
}

/// The per-file symbol table the dataflow rules consume.
#[derive(Debug, Default)]
pub struct ScopeModel {
    /// Every `fn` item in source order.
    pub fns: Vec<FnItem>,
    /// Every `let` binding in source order.
    pub bindings: Vec<Binding>,
    /// Body token ranges `(open, close)` of `for`/`while`/`loop`
    /// expressions, in source order (nested loops each get an entry).
    pub loop_bodies: Vec<(usize, usize)>,
}

impl ScopeModel {
    /// True when token index `i` sits inside any loop body.
    pub fn in_loop(&self, i: usize) -> bool {
        self.loop_bodies.iter().any(|&(open, close)| i > open && i < close)
    }

    /// The innermost `fn` item whose body contains token index `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnItem> {
        // Fn items cannot partially overlap, so the innermost container is
        // the one with the latest body start.
        self.fns
            .iter()
            .filter(|f| f.contains(i))
            .max_by_key(|f| f.body.map(|(open, _)| open).unwrap_or(0))
    }

    /// Whether the file binds `name` with a float-type hint anywhere.
    pub fn binds_float(&self, name: &str) -> bool {
        self.bindings.iter().any(|b| b.is_float && b.name == name)
    }
}

/// Finds the matching `}` for the `{` at token index `open`.
fn matching_brace(tokens: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (off, t) in tokens[open..].iter().enumerate() {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some(open + off);
            }
        }
    }
    None
}

/// Builds the [`ScopeModel`] for one file's token stream.
pub fn resolve(tokens: &[Tok]) -> ScopeModel {
    let mut model = ScopeModel::default();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        // `fn name …` — find the body `{` at paren depth 0, or a `;` that
        // ends a bodiless declaration. Angle brackets never nest braces in
        // a signature, so paren tracking alone is exact here.
        if t.is_ident("fn") {
            if let Some(name_tok) = tokens.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                let mut paren = 0i64;
                let mut j = i + 2;
                let mut body = None;
                while j < tokens.len() {
                    let s = &tokens[j];
                    if s.is_punct("(") {
                        paren += 1;
                    } else if s.is_punct(")") {
                        paren -= 1;
                    } else if paren == 0 && s.is_punct(";") {
                        break;
                    } else if paren == 0 && s.is_punct("{") {
                        body = matching_brace(tokens, j).map(|close| (j, close));
                        break;
                    }
                    j += 1;
                }
                model.fns.push(FnItem { name: name_tok.text.clone(), line: t.line, body });
            }
        }
        // `let [mut] name [: Ty] [= init]` — record a float hint from the
        // annotation or a float-literal initializer.
        if t.is_ident("let") {
            let mut j = i + 1;
            if tokens.get(j).map(|m| m.is_ident("mut")).unwrap_or(false) {
                j += 1;
            }
            if let Some(name_tok) = tokens.get(j).filter(|n| n.kind == TokKind::Ident) {
                let mut is_float = false;
                if tokens.get(j + 1).map(|c| c.is_punct(":")).unwrap_or(false) {
                    if let Some(ty) = tokens.get(j + 2) {
                        is_float = ty.is_ident("f64") || ty.is_ident("f32");
                    }
                }
                // `= <float literal>` (annotated or not).
                let mut k = j + 1;
                while k < tokens.len()
                    && !tokens[k].is_punct("=")
                    && !tokens[k].is_punct(";")
                    && k < j + 6
                {
                    k += 1;
                }
                if tokens.get(k).map(|e| e.is_punct("=")).unwrap_or(false) {
                    let mut v = k + 1;
                    if tokens.get(v).map(|m| m.is_punct("-")).unwrap_or(false) {
                        v += 1;
                    }
                    if tokens.get(v).map(|l| l.kind == TokKind::Float).unwrap_or(false) {
                        is_float = true;
                    }
                }
                model.bindings.push(Binding { name: name_tok.text.clone(), is_float });
            }
        }
        // Loop bodies: first `{` at paren/bracket depth 0 after the keyword.
        if t.is_ident("for") || t.is_ident("while") || t.is_ident("loop") {
            let mut paren = 0i64;
            let mut j = i + 1;
            while j < tokens.len() {
                let s = &tokens[j];
                if s.is_punct("(") || s.is_punct("[") {
                    paren += 1;
                } else if s.is_punct(")") || s.is_punct("]") {
                    paren -= 1;
                } else if paren == 0 && (s.is_punct(";") || s.is_punct("}")) {
                    break; // not a loop head after all (e.g. `for` in a path)
                } else if paren == 0 && s.is_punct("{") {
                    if let Some(close) = matching_brace(tokens, j) {
                        model.loop_bodies.push((j, close));
                    }
                    break;
                }
                j += 1;
            }
        }
        i += 1;
    }
    model
}

#[cfg(test)]
mod unit_tests {
    use super::*;
    use crate::lexer::lex;

    fn mask_of(src: &str) -> (Vec<Tok>, Vec<bool>) {
        let out = lex(src);
        let mask = test_mask(&out.tokens);
        (out.tokens, mask)
    }

    fn ident_exempt(src: &str, ident: &str) -> bool {
        let (toks, mask) = mask_of(src);
        let idx = toks.iter().position(|t| t.is_ident(ident)).expect("ident present");
        mask[idx]
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "fn live() { before(); }\n#[cfg(test)]\nmod tests { fn f() { inside(); } }\nfn after() { outside(); }";
        assert!(!ident_exempt(src, "before"));
        assert!(ident_exempt(src, "inside"));
        assert!(!ident_exempt(src, "outside"));
    }

    #[test]
    fn mod_tests_without_attr_is_exempt() {
        let src = "mod tests { fn f() { inside(); } } fn g() { outside(); }";
        assert!(ident_exempt(src, "inside"));
        assert!(!ident_exempt(src, "outside"));
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn f() { live(); }";
        assert!(!ident_exempt(src, "live"));
    }

    #[test]
    fn cfg_all_test_is_exempt() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nfn f() { inside(); }";
        assert!(ident_exempt(src, "inside"));
    }

    #[test]
    fn test_fn_attribute_is_exempt() {
        let src = "#[test]\nfn f() { inside(); }\nfn g() { outside(); }";
        assert!(ident_exempt(src, "inside"));
        assert!(!ident_exempt(src, "outside"));
    }

    #[test]
    fn braceless_cfg_test_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn g() { outside(); }";
        assert!(!ident_exempt(src, "outside"));
    }

    #[test]
    fn nested_braces_inside_exempt_scope_stay_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn f() { if x { deep(); } } }";
        assert!(ident_exempt(src, "deep"));
    }

    #[test]
    fn resolver_finds_fn_items_and_bodies() {
        let src = "fn alpha(x: usize) -> usize { x + 1 }\n\ntrait T { fn decl(&self); }\n\nfn beta() { let y = alpha(2); }\n";
        let toks = lex(src).tokens;
        let model = resolve(&toks);
        let names: Vec<&str> = model.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["alpha", "decl", "beta"]);
        assert!(model.fns[0].body.is_some());
        assert!(model.fns[1].body.is_none(), "trait declaration has no body");
        let call = toks.iter().position(|t| t.is_ident("alpha")).unwrap();
        // First `alpha` is the item itself; the call site is inside beta.
        let call = toks[call + 1..].iter().position(|t| t.is_ident("alpha")).unwrap() + call + 1;
        assert_eq!(model.enclosing_fn(call).map(|f| f.name.as_str()), Some("beta"));
    }

    #[test]
    fn resolver_tracks_binding_float_hints() {
        let src = "fn f() {\n    let mut acc: f64 = 0.0;\n    let n = 3usize;\n    let lr = 0.05;\n    let neg = -1.5;\n}\n";
        let model = resolve(&lex(src).tokens);
        let get = |name: &str| model.bindings.iter().find(|b| b.name == name).unwrap();
        assert!(get("acc").is_float, "`let mut` with an `f64` annotation hints float");
        assert!(!get("n").is_float);
        assert!(get("lr").is_float, "float-literal initializer hints float");
        assert!(get("neg").is_float, "negated float literal still hints float");
        assert!(model.binds_float("lr") && !model.binds_float("n"));
    }

    #[test]
    fn resolver_records_loop_bodies() {
        let src = "use std::fs::File;\nuse std::sync::{Arc, Mutex};\nfn f() {\n    for i in 0..3 { work(i); }\n    while go() { spin(); }\n    loop { break; }\n}\n";
        let toks = lex(src).tokens;
        let model = resolve(&toks);
        assert_eq!(model.loop_bodies.len(), 3);
        let work = toks.iter().position(|t| t.is_ident("work")).unwrap();
        let spin = toks.iter().position(|t| t.is_ident("spin")).unwrap();
        assert!(model.in_loop(work) && model.in_loop(spin));
        let f_item = toks.iter().position(|t| t.is_ident("f")).unwrap();
        assert!(!model.in_loop(f_item));
    }
}

//! Hand-rolled Rust token scanner.
//!
//! This is *not* a full Rust lexer — it is exactly the subset the rule
//! suite needs: a stream of identifiers, punctuation, and literal markers
//! with correct line numbers, where string/char literals (including raw and
//! byte forms), line comments, and (nested) block comments can never leak
//! tokens. Getting the literal/comment skipping right is the load-bearing
//! part: a rule that greps `thread_rng` must not fire on a doc comment that
//! merely *mentions* `thread_rng`.
//!
//! Line comments are additionally parsed for the suppression syntax
//! `// analyzer:allow(<rule>): <reason>` (see [`Allow`]) and for the v2
//! attestation markers (see [`Marker`]): `// analyzer:hot-path`,
//! `// analyzer:ordered`, and `// analyzer:unsafe(invariant): <reason>`.

/// Kind of a scanned token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`for`, `HashMap`, `unwrap`, …).
    Ident,
    /// Punctuation; multi-character operators that the rules care about
    /// (`==`, `!=`, `::`, `->`, `=>`, `..`, `&&`, `||`, `<=`, `>=`) are
    /// fused into one token, everything else is a single character.
    Punct,
    /// Integer literal (including hex/octal/binary forms).
    Int,
    /// Floating-point literal (has a fractional part, an exponent, or an
    /// explicit `f32`/`f64` suffix).
    Float,
    /// String, raw-string, byte-string, or char literal. Plain and raw
    /// string bodies keep their content (the telemetry-key rule matches
    /// literal keys); char/byte-char literals stay empty.
    Str,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

/// One scanned token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Token text. For [`TokKind::Str`] this is the literal's body (without
    /// quotes/delimiters, escapes left raw); for numeric literals it is the
    /// raw literal text.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// A parsed `// analyzer:allow(<rule>): <reason>` suppression comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// 1-based line the comment sits on.
    pub line: u32,
    /// Rule name inside the parentheses (not yet validated).
    pub rule: String,
    /// Free-text reason after the colon; empty means the mandatory reason
    /// is missing and the suppression is malformed.
    pub reason: String,
    /// Set by the rule engine when a finding consumed this allow.
    pub used: bool,
}

/// Kind of a v2 attestation marker comment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerKind {
    /// `// analyzer:hot-path` — seeds the `hot-path-alloc` reachability
    /// walk at the next `fn` item.
    HotPath,
    /// `// analyzer:ordered` — attests that a float reduction's evaluation
    /// order is part of the determinism contract and deliberate.
    Ordered,
    /// `// analyzer:unsafe(invariant): <reason>` — documents the invariant
    /// an `unsafe` block relies on.
    UnsafeInvariant,
}

/// A parsed attestation marker comment (non-suppressing metadata that the
/// v2 rules consume; contrast with [`Allow`], which silences a finding).
#[derive(Debug, Clone)]
pub struct Marker {
    /// 1-based line the comment sits on.
    pub line: u32,
    /// Which marker this is.
    pub kind: MarkerKind,
    /// Free text after the marker's colon (only `unsafe(invariant)` takes
    /// one; empty means the mandatory invariant text is missing).
    pub reason: String,
}

/// Result of scanning one source file.
#[derive(Debug, Default)]
pub struct LexOutput {
    /// Token stream in source order.
    pub tokens: Vec<Tok>,
    /// Suppression comments in source order.
    pub allows: Vec<Allow>,
    /// Attestation markers in source order.
    pub markers: Vec<Marker>,
}

/// Operators fused into a single [`TokKind::Punct`] token.
const FUSED: &[&str] = &["==", "!=", "<=", ">=", "::", "->", "=>", "..", "&&", "||"];

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scans `src` into tokens and suppression comments.
pub fn lex(src: &str) -> LexOutput {
    let chars: Vec<char> = src.chars().collect();
    let mut out = LexOutput::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let n = chars.len();

    let peek = |chars: &[char], i: usize, off: usize| -> char {
        chars.get(i + off).copied().unwrap_or('\0')
    };

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && peek(&chars, i, 1) == '/' {
            let start = i + 2;
            let mut j = start;
            while j < n && chars[j] != '\n' {
                j += 1;
            }
            let text: String = chars[start..j].iter().collect();
            if let Some(allow) = parse_allow(&text, line) {
                out.allows.push(allow);
            } else if let Some(marker) = parse_marker(&text, line) {
                out.markers.push(marker);
            }
            i = j;
            continue;
        }
        if c == '/' && peek(&chars, i, 1) == '*' {
            // Block comment, nested per Rust semantics.
            let mut depth = 1;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if chars[j] == '\n' {
                    line += 1;
                    j += 1;
                } else if chars[j] == '/' && peek(&chars, j, 1) == '*' {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && peek(&chars, j, 1) == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            i = j;
            continue;
        }
        // String literal.
        if c == '"' {
            let start_line = line;
            let (end, content) = skip_string(&chars, i + 1, &mut line);
            i = end;
            out.tokens.push(Tok { kind: TokKind::Str, text: content, line: start_line });
            continue;
        }
        // Char literal or lifetime.
        if c == '\'' {
            let next = peek(&chars, i, 1);
            if next == '\\' {
                // Escaped char literal: '\n', '\'', '\u{…}'.
                let mut j = i + 2;
                while j < n && chars[j] != '\'' {
                    j += 1;
                }
                out.tokens.push(Tok { kind: TokKind::Str, text: String::new(), line });
                i = j + 1;
                continue;
            }
            if peek(&chars, i, 2) == '\'' && next != '\0' {
                // Plain char literal 'x' (including '{', '}' — which must
                // not confuse brace tracking).
                out.tokens.push(Tok { kind: TokKind::Str, text: String::new(), line });
                i += 3;
                continue;
            }
            // Lifetime.
            let start = i + 1;
            let mut j = start;
            while j < n && is_ident_continue(chars[j]) {
                j += 1;
            }
            out.tokens.push(Tok {
                kind: TokKind::Lifetime,
                text: chars[start..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // Identifier / keyword — with raw/byte string-literal prefixes.
        if is_ident_start(c) {
            let start = i;
            let mut j = i;
            while j < n && is_ident_continue(chars[j]) {
                j += 1;
            }
            let ident: String = chars[start..j].iter().collect();
            // r"…", r#"…"#, b"…", br#"…"#, b'…'
            if matches!(ident.as_str(), "r" | "b" | "br" | "rb") {
                let after = peek(&chars, j, 0);
                if after == '"' || after == '#' {
                    let start_line = line;
                    let (end, content) = skip_raw_string(&chars, j, &mut line);
                    i = end;
                    out.tokens.push(Tok { kind: TokKind::Str, text: content, line: start_line });
                    continue;
                }
                if ident == "b" && after == '\'' {
                    // Byte char literal b'x' / b'\n'.
                    let mut k = j + 1;
                    if peek(&chars, k, 0) == '\\' {
                        k += 1;
                    }
                    while k < n && chars[k] != '\'' {
                        k += 1;
                    }
                    out.tokens.push(Tok { kind: TokKind::Str, text: String::new(), line });
                    i = k + 1;
                    continue;
                }
            }
            out.tokens.push(Tok { kind: TokKind::Ident, text: ident, line });
            i = j;
            continue;
        }
        // Numeric literal.
        if c.is_ascii_digit() {
            let (tok, j) = lex_number(&chars, i, line);
            out.tokens.push(tok);
            i = j;
            continue;
        }
        // Punctuation, fusing the operators the rules distinguish.
        let two: String = [c, peek(&chars, i, 1)].iter().collect();
        if FUSED.contains(&two.as_str()) {
            // `..=` extends `..`; the rules treat them identically.
            let len = if two == ".." && peek(&chars, i, 2) == '=' { 3 } else { 2 };
            out.tokens.push(Tok { kind: TokKind::Punct, text: two, line });
            i += len;
            continue;
        }
        out.tokens.push(Tok { kind: TokKind::Punct, text: c.to_string(), line });
        i += 1;
    }
    out
}

/// Scans a non-raw string body starting *after* the opening quote; returns
/// the index after the closing quote and the body text (escapes left raw,
/// so `"a\\nb"` yields `a\nb` as four characters), tracking newlines.
fn skip_string(chars: &[char], mut i: usize, line: &mut u32) -> (usize, String) {
    let n = chars.len();
    let start = i;
    while i < n {
        match chars[i] {
            '\\' => i += 2,
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => return (i + 1, chars[start..i].iter().collect()),
            _ => i += 1,
        }
    }
    (i, chars[start..i.min(n)].iter().collect())
}

/// Scans a raw string starting at the `#`s/quote (after the `r`/`br`
/// prefix); returns the index after the closing delimiter and the body.
fn skip_raw_string(chars: &[char], mut i: usize, line: &mut u32) -> (usize, String) {
    let n = chars.len();
    let mut hashes = 0usize;
    while i < n && chars[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if i < n && chars[i] == '"' {
        i += 1;
    }
    let start = i;
    while i < n {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if chars[i] == '"' {
            let mut k = 0;
            while k < hashes && chars.get(i + 1 + k) == Some(&'#') {
                k += 1;
            }
            if k == hashes {
                return (i + 1 + hashes, chars[start..i].iter().collect());
            }
        }
        i += 1;
    }
    (i, chars[start..i.min(n)].iter().collect())
}

/// Lexes a numeric literal starting at `chars[i]` (an ASCII digit).
fn lex_number(chars: &[char], i: usize, line: u32) -> (Tok, usize) {
    let n = chars.len();
    let start = i;
    let mut j = i;
    // Radix-prefixed integers never have fractional parts.
    if chars[j] == '0' && matches!(chars.get(j + 1), Some('x' | 'o' | 'b')) {
        j += 2;
        while j < n && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
        return (Tok { kind: TokKind::Int, text: chars[start..j].iter().collect(), line }, j);
    }
    let mut is_float = false;
    while j < n && (chars[j].is_ascii_digit() || chars[j] == '_') {
        j += 1;
    }
    // Fractional part: `.` must be followed by a digit, so `1..n` ranges and
    // `1.max(2)` method calls stay integers.
    if j < n && chars[j] == '.' && chars.get(j + 1).is_some_and(|c| c.is_ascii_digit()) {
        is_float = true;
        j += 1;
        while j < n && (chars[j].is_ascii_digit() || chars[j] == '_') {
            j += 1;
        }
    }
    // Exponent.
    if j < n && matches!(chars[j], 'e' | 'E') {
        let k = if matches!(chars.get(j + 1), Some('+' | '-')) { j + 2 } else { j + 1 };
        if chars.get(k).is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            j = k;
            while j < n && (chars[j].is_ascii_digit() || chars[j] == '_') {
                j += 1;
            }
        }
    }
    // Type suffix (`f64`, `u32`, …) — an `f` suffix forces float.
    if j < n && is_ident_start(chars[j]) {
        if chars[j] == 'f' {
            is_float = true;
        }
        while j < n && is_ident_continue(chars[j]) {
            j += 1;
        }
    }
    let kind = if is_float { TokKind::Float } else { TokKind::Int };
    (Tok { kind, text: chars[start..j].iter().collect(), line }, j)
}

/// Parses a line comment body as a suppression, if it is one.
fn parse_allow(comment: &str, line: u32) -> Option<Allow> {
    let body = comment.trim_start_matches(['/', '!']).trim_start();
    let rest = body.strip_prefix("analyzer:allow(")?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let after = &rest[close + 1..];
    let reason = after.strip_prefix(':').map(|r| r.trim().to_string()).unwrap_or_default();
    Some(Allow { line, rule, reason, used: false })
}

/// Parses a line comment body as an attestation marker, if it is one.
fn parse_marker(comment: &str, line: u32) -> Option<Marker> {
    let body = comment.trim_start_matches(['/', '!']).trim_start();
    if let Some(rest) = body.strip_prefix("analyzer:unsafe(invariant)") {
        let reason = rest.strip_prefix(':').map(|r| r.trim().to_string()).unwrap_or_default();
        return Some(Marker { line, kind: MarkerKind::UnsafeInvariant, reason });
    }
    // The bare markers must end at a word boundary so `analyzer:ordered-x`
    // does not silently attest anything.
    let bare = |prefix: &str| -> bool {
        body.strip_prefix(prefix)
            .is_some_and(|rest| rest.chars().next().is_none_or(|c| !is_ident_continue(c) && c != '-'))
    };
    if bare("analyzer:hot-path") {
        return Some(Marker { line, kind: MarkerKind::HotPath, reason: String::new() });
    }
    if bare("analyzer:ordered") {
        return Some(Marker { line, kind: MarkerKind::Ordered, reason: String::new() });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_emit_no_idents() {
        let src = r###"
            // thread_rng in a comment
            /* HashMap in /* a nested */ block */
            let s = "thread_rng .unwrap()";
            let r = r#"HashMap "quoted" inside"#;
            let c = '{';
            let b = b"SystemTime";
        "###;
        let ids = idents(src);
        assert!(ids.iter().all(|i| i != "thread_rng" && i != "HashMap" && i != "SystemTime"));
    }

    #[test]
    fn char_brace_does_not_break_brace_balance() {
        let toks = lex("fn f() { let c = '{'; }").tokens;
        let opens = toks.iter().filter(|t| t.is_punct("{")).count();
        let closes = toks.iter().filter(|t| t.is_punct("}")).count();
        assert_eq!(opens, 1);
        assert_eq!(closes, 1);
    }

    #[test]
    fn numbers_classify_float_vs_int() {
        let toks = lex("1 1.0 2e5 0x1F 1f64 1..3 7.max(2) 1_000.5").tokens;
        let kinds: Vec<(TokKind, String)> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Int | TokKind::Float))
            .map(|t| (t.kind, t.text.clone()))
            .collect();
        assert_eq!(kinds[0], (TokKind::Int, "1".into()));
        assert_eq!(kinds[1], (TokKind::Float, "1.0".into()));
        assert_eq!(kinds[2], (TokKind::Float, "2e5".into()));
        assert_eq!(kinds[3], (TokKind::Int, "0x1F".into()));
        assert_eq!(kinds[4], (TokKind::Float, "1f64".into()));
        // `1..3` is two ints around a `..`, `7.max` is an int then a call.
        assert_eq!(kinds[5], (TokKind::Int, "1".into()));
        assert_eq!(kinds[6], (TokKind::Int, "3".into()));
        assert_eq!(kinds[7], (TokKind::Int, "7".into()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) {}").tokens;
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        assert!(!toks.iter().any(|t| t.kind == TokKind::Str));
    }

    #[test]
    fn fused_operators() {
        let toks = lex("a == b != c :: d").tokens;
        assert!(toks.iter().any(|t| t.is_punct("==")));
        assert!(toks.iter().any(|t| t.is_punct("!=")));
        assert!(toks.iter().any(|t| t.is_punct("::")));
    }

    #[test]
    fn allow_comments_parse() {
        let out = lex("let v = xs.to_vec(); // analyzer:allow(hot-path-alloc): warm-up buffer\nlet y = 1; // analyzer:allow(blocking-in-worker)\n");
        assert_eq!(out.allows.len(), 2);
        assert_eq!(out.allows[0].rule, "hot-path-alloc");
        assert_eq!(out.allows[0].reason, "warm-up buffer");
        assert_eq!(out.allows[0].line, 1);
        assert!(out.allows[1].reason.is_empty(), "missing reason must parse as empty");
    }

    #[test]
    fn string_tokens_keep_their_content() {
        let toks = lex(r###"let k = "engine.pool.steals"; let r = r#"raw.key"#;"###).tokens;
        let strs: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, ["engine.pool.steals", "raw.key"]);
    }

    #[test]
    fn markers_parse_and_do_not_shadow_allows() {
        let src = "// analyzer:hot-path\nfn score() {}\n// analyzer:ordered\nlet s = 0.0;\n// analyzer:unsafe(invariant): lanes cover the slice exactly\n// analyzer:allow(stale-allow): guard\n// analyzer:ordered-extras must not attest\n";
        let out = lex(src);
        assert_eq!(out.markers.len(), 3);
        assert_eq!(out.markers[0].kind, MarkerKind::HotPath);
        assert_eq!(out.markers[0].line, 1);
        assert_eq!(out.markers[1].kind, MarkerKind::Ordered);
        assert_eq!(out.markers[1].line, 3);
        assert_eq!(out.markers[2].kind, MarkerKind::UnsafeInvariant);
        assert_eq!(out.markers[2].reason, "lanes cover the slice exactly");
        assert_eq!(out.allows.len(), 1, "allow parsing is unchanged");
    }

    #[test]
    fn line_numbers_track_multiline_constructs() {
        let src = "let a = \"two\nlines\";\nlet b = 1;\n";
        let toks = lex(src).tokens;
        let b = toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }
}

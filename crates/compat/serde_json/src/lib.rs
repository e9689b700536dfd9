//! Offline stand-in for `serde_json`, built on the in-tree `serde`
//! value-tree model.
//!
//! Provides the API subset the workspace uses: [`to_string`],
//! [`to_string_pretty`], [`from_str`] and [`Error`]. Output is deterministic
//! for a given value (field order = declaration order, floats via Rust's
//! shortest round-trip formatting, non-finite floats as `null` like
//! upstream), which is what the experiment harnesses rely on for
//! reproducible result files.

pub use serde::Value;
use serde::{DeError, Deserialize, Serialize};

/// Serialization / deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Serializes a value as compact JSON.
///
/// # Errors
/// Infallible for the value-tree model; the `Result` mirrors upstream's
/// signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serializes a value as 2-space-indented JSON.
///
/// # Errors
/// Infallible for the value-tree model; the `Result` mirrors upstream's
/// signature.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses a value from a JSON string.
///
/// # Errors
/// Returns [`Error`] on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    Ok(T::from_value(&value)?)
}

fn write_escaped(s: &str, out: &mut String) {
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

fn write_float(x: f64, out: &mut String) {
    if !x.is_finite() {
        // serde_json serializes non-finite floats as null.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        // Keep a trailing `.0` so the value reads back as a float, matching
        // upstream's formatting of whole floats.
        out.push_str(&format!("{x:.1}"));
    } else {
        out.push_str(&format!("{x}"));
    }
}

fn newline_indent(out: &mut String, indent: usize, depth: usize) {
    out.push('\n');
    for _ in 0..indent * depth {
        out.push(' ');
    }
}

fn write_value(v: &Value, out: &mut String, pretty: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(x) => write_float(*x, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => write_array(items, out, pretty, depth, |item, out| {
            write_value(item, out, pretty, depth + 1);
        }),
        // The packed form renders exactly as the `Array` of its `Float`s.
        Value::FloatArray(xs) => write_array(xs, out, pretty, depth, |&x, out| write_float(x, out)),
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if let Some(ind) = pretty {
                    newline_indent(out, ind, depth + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    write_value(val, out, pretty, depth + 1);
                } else {
                    write_escaped(k, out);
                    out.push(':');
                    write_value(val, out, pretty, depth + 1);
                }
                if i + 1 < fields.len() {
                    out.push(',');
                }
            }
            if let Some(ind) = pretty {
                newline_indent(out, ind, depth);
            }
            out.push('}');
        }
    }
}

/// Writes `[a,b,…]`, one element per indented line when pretty.
fn write_array<T>(
    items: &[T],
    out: &mut String,
    pretty: Option<usize>,
    depth: usize,
    mut write_item: impl FnMut(&T, &mut String),
) {
    if items.is_empty() {
        out.push_str("[]");
        return;
    }
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if let Some(ind) = pretty {
            newline_indent(out, ind, depth + 1);
        }
        write_item(item, out);
        if i + 1 < items.len() {
            out.push(',');
        }
    }
    if let Some(ind) = pretty {
        newline_indent(out, ind, depth);
    }
    out.push(']');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses a complete JSON document into a [`Value`].
///
/// # Errors
/// Returns [`Error`] on malformed JSON or trailing content.
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn literal(&mut self, text: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(Error(format!("expected `{text}` at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                self.literal("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.literal("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.literal("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error(format!("bad array at byte {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(Error(format!("bad object at byte {}", self.pos))),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u code point".into()))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error("bad escape".into())),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (multi-byte safe).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| Error("invalid utf-8 in string".into()))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(Error("unterminated string".into())),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("bad number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error(format!("bad float `{text}`")))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Value::Int(i))
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(Value::UInt(u))
        } else {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error(format!("bad number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_value() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("a \"quoted\" name".into())),
            ("xs".into(), Value::Array(vec![Value::Float(1.5), Value::Int(-2)])),
            ("flag".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
        ]);
        let s = to_string(&v).unwrap();
        let back = parse_value(&s).unwrap();
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(parse_value(&pretty).unwrap(), v);
    }

    #[test]
    fn packed_float_arrays_render_as_their_generic_form() {
        let xs = [1.0, -0.5, f64::NAN, 2.5e-7];
        let packed = Value::FloatArray(xs.to_vec());
        let generic = Value::Array(xs.iter().map(|&x| Value::Float(x)).collect());
        for (a, b) in [(&packed, &generic), (&Value::FloatArray(Vec::new()), &Value::Array(Vec::new()))] {
            assert_eq!(to_string(a).unwrap(), to_string(b).unwrap());
            assert_eq!(to_string_pretty(a).unwrap(), to_string_pretty(b).unwrap());
        }
        assert_eq!(to_string(&packed).unwrap(), "[1.0,-0.5,null,0.00000025]");
    }

    #[test]
    fn whole_floats_keep_decimal_point() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&0.5f64).unwrap(), "0.5");
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    }

    #[test]
    fn typed_from_str() {
        let xs: Vec<f64> = from_str("[1.0, 2.5, -3.0]").unwrap();
        assert_eq!(xs, vec![1.0, 2.5, -3.0]);
        let n: usize = from_str("42").unwrap();
        assert_eq!(n, 42);
        assert!(from_str::<usize>("\"nope\"").is_err());
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_value("{\"a\": }").is_err());
        assert!(parse_value("[1, 2").is_err());
        assert!(parse_value("12 34").is_err());
    }
}

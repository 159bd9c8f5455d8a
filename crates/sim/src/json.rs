//! The workspace's one JSON reader and writer.
//!
//! The build environment cannot fetch serde, so this is a small
//! recursive-descent parser into a dynamic [`Value`], plus the matching
//! serializer [`Value::to_json`]. Every JSON document the workspace
//! writes — reports, certificates, JSONL records, churn traces and the
//! `BENCH_*.json` snapshots — is built as a [`Value`] and rendered here,
//! so one function decides the bytes. Numbers are stored as `f64`; that is
//! exact for every magnitude the tooling writes (counts, nanoseconds,
//! bounds — all well below 2^53). Nesting is bounded by [`MAX_DEPTH`] so
//! adversarial inputs (`[[[[…`) fail with a [`ParseError`] instead of
//! exhausting the stack.

use std::fmt;

/// Maximum container nesting the parser accepts. Everything the
/// workspace writes is < 10 levels deep; the cap exists so malformed or
/// hostile input errors out instead of overflowing the stack.
pub const MAX_DEPTH: usize = 512;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, insertion-ordered.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Parses a complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// A positioned message on malformed input or trailing garbage.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// An object from `(key, value)` members, in order.
    ///
    /// # Examples
    ///
    /// ```
    /// use wcp_sim::json::Value;
    ///
    /// let v = Value::object([("n", 13u16.into()), ("exact", true.into()), ("kind", "node".into())]);
    /// assert_eq!(v.to_json(), r#"{"n": 13, "exact": true, "kind": "node"}"#);
    /// ```
    #[must_use]
    pub fn object<const N: usize>(members: [(&str, Value); N]) -> Value {
        Value::Object(
            members
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        )
    }

    /// Object member lookup (`None` for non-objects or missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer (numbers with a fractional
    /// part or out of `u64` range give `None`).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        let x = self.as_f64()?;
        (x >= 0.0 && x <= u64::MAX as f64 && x.fract() == 0.0).then_some(x as u64)
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders the value as compact JSON that [`Value::parse`] reads back
    /// to an equal value.
    ///
    /// Integral numbers within `±2^53` print without a fractional part;
    /// other finite numbers use Rust's shortest round-trip `f64`
    /// rendering. Non-finite numbers (which no parser output can contain)
    /// degrade to `null`.
    ///
    /// # Examples
    ///
    /// ```
    /// use wcp_sim::json::Value;
    ///
    /// let v = Value::parse(r#"{"a": [1, 2.5, "x\ny"], "b": null}"#)?;
    /// assert_eq!(v.to_json(), "{\"a\": [1, 2.5, \"x\\ny\"], \"b\": null}");
    /// assert_eq!(Value::parse(&v.to_json())?, v);
    /// # Ok::<(), wcp_sim::json::ParseError>(())
    /// ```
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_string()
    }

    /// Renders an object one member per line, with the elements of each
    /// non-empty array member one per line below it, and a trailing
    /// newline: the layout of the committed bench snapshots, where a
    /// re-recorded row is a one-line diff. Anything else renders as
    /// [`Value::to_json`]. Either layout parses back to an equal value.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        use std::fmt::Write as _;
        let Value::Object(members) = self else {
            return self.to_json();
        };
        let mut out = String::from("{");
        for (i, (key, value)) in members.iter().enumerate() {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            let _ = write!(out, "{}: ", Value::Str(key.clone()));
            match value {
                Value::Array(items) if !items.is_empty() => {
                    out.push('[');
                    for (j, item) in items.iter().enumerate() {
                        out.push_str(if j > 0 { ",\n  " } else { "\n  " });
                        let _ = write!(out, "{item}");
                    }
                    out.push_str("\n]");
                }
                _ => {
                    let _ = write!(out, "{value}");
                }
            }
        }
        out.push_str("\n}\n");
        out
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

/// Numbers convert through `f64`, exact for every magnitude below 2^53
/// (see the module docs).
macro_rules! value_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Self {
                Value::Num(x as f64)
            }
        }
    )*};
}

value_from_number!(u16, u32, u64, usize, i64, f64);

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(x) => write_number(f, *x),
            Value::Str(s) => write_string(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Object(members) => {
                f.write_str("{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_string(f, key)?;
                    write!(f, ": {value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes a number so that parsing it back yields the same `f64`:
/// integral magnitudes below 2^53 as integers, everything else through
/// Rust's shortest round-trip rendering.
fn write_number(f: &mut fmt::Formatter<'_>, x: f64) -> fmt::Result {
    if !x.is_finite() {
        // Unreachable through parse(); kept total for hand-built values.
        return f.write_str("null");
    }
    if x == x.trunc() && x.abs() < 9_007_199_254_740_992.0 {
        return write!(f, "{}", x as i64);
    }
    write!(f, "{x}")
}

/// Writes a quoted, escaped JSON string.
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for ch in s.chars() {
        match ch {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            '\u{8}' => f.write_str("\\b")?,
            '\u{c}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_fmt(format_args!("{c}"))?,
        }
    }
    f.write_str("\"")
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by any
                            // workspace writer; reject rather than mangle.
                            let ch = char::from_u32(code)
                                .ok_or_else(|| self.err("unsupported \\u code point"))?;
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = text.chars().next().expect("non-empty by peek");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII span");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("-12.5e1").unwrap(), Value::Num(-125.0));
        assert_eq!(
            Value::parse("\"a\\nb\"").unwrap(),
            Value::Str("a\nb".into())
        );
    }

    #[test]
    fn parses_own_bench_snapshot_shape() {
        let text = r#"{
            "shape": {"n": 13, "b": 260},
            "rows": [
                {"name": "simple(x=0, λ=60)", "median_ns": 498564},
                {"name": "ring", "median_ns": 420637}
            ]
        }"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(
            v.get("shape").and_then(|p| p.get("n")).unwrap().as_u64(),
            Some(13)
        );
        let rows = v.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].get("name").unwrap().as_str(),
            Some("simple(x=0, λ=60)")
        );
        assert_eq!(rows[1].get("median_ns").unwrap().as_u64(), Some(420_637));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{\"a\" 1}").is_err());
        assert!(Value::parse("\"open").is_err());
        assert!(Value::parse("12 34").is_err());
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(Value::parse("\"\\u03bb\"").unwrap(), Value::Str("λ".into()));
    }

    #[test]
    fn serializer_round_trips() {
        for text in [
            "null",
            "true",
            "-12.5",
            "42",
            "\"a\\nb\\\"c\\\\d\"",
            "[1, [2, {\"x\": null}], \"λ\"]",
            "{\"a\": 1, \"a\": 2}",
        ] {
            let v = Value::parse(text).unwrap();
            assert_eq!(Value::parse(&v.to_json()).unwrap(), v, "{text}");
            // Canonical output is a fixed point of serialize ∘ parse.
            let canon = v.to_json();
            assert_eq!(Value::parse(&canon).unwrap().to_json(), canon);
        }
    }

    #[test]
    fn serializer_escapes_control_characters() {
        let v = Value::Str("\u{1}\u{8}\u{c}".into());
        assert_eq!(v.to_json(), "\"\\u0001\\b\\f\"");
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn serializer_keeps_large_integers_exact() {
        let v = Value::Num(9_007_199_254_740_991.0); // 2^53 − 1
        assert_eq!(v.to_json(), "9007199254740991");
        let v = Value::Num(9_007_199_254_740_992.0); // 2^53: float path
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let deep = "[".repeat(100_000);
        let err = Value::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Exactly at the cap still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Value::parse(&over).is_err());
    }

    #[test]
    fn line_layout_puts_each_array_element_on_its_own_line() {
        let v =
            Value::parse(r#"{"shape": {"n": 3}, "rows": [{"a": 1}, {"a": 2}], "e": []}"#).unwrap();
        let text = v.to_json_lines();
        assert_eq!(
            text,
            "{\n\"shape\": {\"n\": 3},\n\"rows\": [\n  {\"a\": 1},\n  {\"a\": 2}\n],\n\"e\": []\n}\n"
        );
        assert_eq!(Value::parse(&text).unwrap(), v);
        assert_eq!(Value::Num(2.5).to_json_lines(), "2.5");
    }

    #[test]
    fn as_u64_guards_fractions_and_sign() {
        assert_eq!(Value::parse("3.5").unwrap().as_u64(), None);
        assert_eq!(Value::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Value::parse("42").unwrap().as_u64(), Some(42));
    }
}

//! Minimal JSON parsing and serialization.
//!
//! The build environment is offline (no serde), and three frontends need to
//! speak JSON — the batch server's request/response bodies, the CLI's
//! `submit`/`poll` client mode, and the bench records — so the workspace
//! carries this small, dependency-free implementation: a [`Value`] tree,
//! a recursive-descent parser, and a compact writer.
//!
//! Numbers are `f64` throughout (JSON has no integer type); serialization
//! uses Rust's shortest-roundtrip `{}` formatting, so any finite `f64`
//! survives a serialize → parse round trip **bit-for-bit** — the property
//! the server's result-identity tests rely on. Non-finite numbers, which
//! bare JSON cannot represent, serialize as `null`.
//!
//! ```
//! use sspc_common::json::Value;
//!
//! let v = Value::parse(r#"{"job": 7, "algorithms": ["sspc", "harp"]}"#).unwrap();
//! assert_eq!(v.get("job").and_then(Value::as_u64), Some(7));
//! assert_eq!(v.get("algorithms").unwrap().as_array().unwrap().len(), 2);
//! let text = v.to_string();
//! assert_eq!(Value::parse(&text).unwrap(), v);
//! ```

use crate::{Error, Result};
use std::collections::BTreeMap;
use std::fmt;

/// A JSON document: the usual six shapes.
///
/// Objects use a [`BTreeMap`] so serialization order is deterministic —
/// equal values always render to equal text.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always an `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys are unique, serialization order is sorted.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] with byte offset and cause on malformed
    /// input, duplicate object keys, or input nested deeper than 128
    /// levels.
    pub fn parse(text: &str) -> Result<Value> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.fail("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Member of an object, when this is an object that has the key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as an exactly-representable unsigned integer.
    /// `None` for non-numbers, negatives, and non-integral values.
    pub fn as_u64(&self) -> Option<u64> {
        let x = self.as_f64()?;
        if x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53) {
            Some(x as u64)
        } else {
            None
        }
    }

    /// The boolean payload, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, when this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// True when this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// An empty object, for builder-style assembly with [`Value::with`].
    pub fn object() -> Value {
        Value::Obj(BTreeMap::new())
    }

    /// Inserts (or replaces) one member, builder-style. Panics if `self`
    /// is not an object — construction-site misuse, not input data.
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Value {
        match &mut self {
            Value::Obj(map) => {
                map.insert(key.into(), value.into());
            }
            _ => panic!("Value::with on a non-object"),
        }
        self
    }

    /// Serializes like `Display`, but **rejects** non-finite numbers
    /// instead of silently degrading them to `null`. Use this where a
    /// lossy serialization must be an error rather than a surprise —
    /// e.g. the bench records that trajectory tooling parses back. (The
    /// server's journal deliberately uses `Display` instead: the wire
    /// response degrades non-finite values to `null` too, so journaling
    /// the same `null` is exactly what keeps restart replay
    /// byte-identical.)
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] naming the offending value when the
    /// tree contains a NaN or infinity.
    pub fn to_string_checked(&self) -> Result<String> {
        fn check(v: &Value) -> Result<()> {
            match v {
                Value::Num(x) if !x.is_finite() => Err(Error::InvalidParameter(format!(
                    "cannot serialize non-finite number {x}"
                ))),
                Value::Arr(items) => items.iter().try_for_each(check),
                Value::Obj(map) => map.values().try_for_each(check),
                _ => Ok(()),
            }
        }
        check(self)?;
        Ok(self.to_string())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Num(x)
    }
}
impl From<u64> for Value {
    fn from(x: u64) -> Value {
        Value::Num(x as f64)
    }
}
impl From<usize> for Value {
    fn from(x: usize) -> Value {
        Value::Num(x as f64)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(true) => f.write_str("true"),
            Value::Bool(false) => f.write_str("false"),
            // Rust's `{}` for f64 is shortest-roundtrip; non-finite values
            // have no JSON spelling and degrade to null.
            Value::Num(x) if x.is_finite() => write!(f, "{x}"),
            Value::Num(_) => f.write_str("null"),
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Value::Obj(map) => {
                f.write_str("{")?;
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    value.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_fmt(format_args!("{c}"))?,
        }
    }
    f.write_str("\"")
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn fail(&self, msg: &str) -> Error {
        Error::InvalidParameter(format!("json at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, token: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.fail(&format!("expected `{token}`")))
        }
    }

    fn value(&mut self) -> Result<Value> {
        if self.depth >= MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat("null").map(|()| Value::Null),
            Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.fail(&format!("unexpected byte `{}`", c as char))),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.pos += 1; // [
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
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
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.fail("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.pos += 1; // {
        self.depth += 1;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.fail("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.fail("expected `:` after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            if map.insert(key.clone(), value).is_some() {
                return Err(self.fail(&format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.fail("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&c) = self.bytes.get(self.pos) {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.fail("invalid UTF-8 in string"))?,
            );
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                self.pos += 1;
                                self.eat("\\u")
                                    .map_err(|_| self.fail("lone high surrogate"))?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.fail("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.fail("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.fail("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.fail("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.fail("unescaped control character in string")),
                None => return Err(self.fail("unterminated string")),
            }
        }
    }

    /// Four hex digits starting at `pos` (the byte after the `u`); leaves
    /// `pos` on the last digit.
    fn hex4(&mut self) -> Result<u32> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.fail("expected 4 hex digits after \\u")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        self.pos -= 1; // leave on the last digit; caller advances
        Ok(code)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(self.fail("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.fail("expected digits after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.fail("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.fail(&format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("-2.5e3").unwrap(), Value::Num(-2500.0));
        assert_eq!(Value::parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a": [1, {"b": null}, "x"], "c": {}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert!(a[1].get("b").unwrap().is_null());
        assert_eq!(v.get("c").unwrap().as_object().unwrap().len(), 0);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "quote \" backslash \\ newline \n tab \t unicode \u{1F600} déjà";
        let rendered = Value::Str(original.into()).to_string();
        assert_eq!(
            Value::parse(&rendered).unwrap(),
            Value::Str(original.into())
        );
        // Explicit escape forms, including a surrogate pair.
        assert_eq!(
            Value::parse(r#""Aé😀\/""#).unwrap(),
            Value::Str("Aé\u{1F600}/".into())
        );
    }

    #[test]
    fn f64_roundtrips_bit_for_bit() {
        for x in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            -1234.5678e-9,
            2f64.powi(53),
            0.30000000000000004,
        ] {
            let text = Value::Num(x).to_string();
            let back = Value::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text} -> {back}");
        }
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn as_u64_is_exact() {
        assert_eq!(Value::Num(7.0).as_u64(), Some(7));
        assert_eq!(Value::Num(0.0).as_u64(), Some(0));
        assert_eq!(Value::Num(7.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Str("7".into()).as_u64(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a:1}",
            "\"unterminated",
            "nul",
            "01x",
            "1 2",
            "{\"a\":1,\"a\":2}",
            "\"bad \\q escape\"",
            "\"\\ud800 lone\"",
            "- 1",
            "[1",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Value::parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Value::parse(&ok).is_ok());
    }

    /// The parser's depth limit is what keeps journal replay safe against
    /// hostile or corrupted state files: no input, however nested and in
    /// whatever mix of shapes, can recurse past `MAX_DEPTH` frames.
    #[test]
    fn hostile_state_files_cannot_overflow_the_parser() {
        // Deep objects, not just arrays.
        let deep_obj = "{\"k\":".repeat(200) + "1" + &"}".repeat(200);
        let err = Value::parse(&deep_obj).unwrap_err().to_string();
        assert!(err.contains("nesting too deep"), "{err}");
        // Alternating object/array nesting counts every level.
        let mixed = "{\"k\":[".repeat(100) + "1" + &"]}".repeat(100);
        assert!(Value::parse(&mixed).is_err());
        // At the limit the error is a clean rejection, never a panic, and
        // one level below it still parses.
        let ok_obj = "{\"k\":".repeat(100) + "1" + &"}".repeat(100);
        assert!(Value::parse(&ok_obj).is_ok());
        // A deep document embedded *inside* a well-formed journal record
        // (the realistic attack shape) is rejected the same way.
        let record = format!("{{\"event\":\"submit\",\"spec\":{deep_obj}}}");
        assert!(Value::parse(&record).is_err());
    }

    /// Every escape the writer emits parses back to the original string,
    /// including the short forms, raw control bytes, and characters that
    /// need surrogate pairs.
    #[test]
    fn escape_sequences_roundtrip_exhaustively() {
        // Every C0 control character forces an escape; the writer's
        // output must parse back identically.
        let controls: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let cases = [
            controls.as_str(),
            "\u{8}\u{c}\n\r\t",    // the named short escapes
            "\\ \" / plain",       // backslash, quote, solidus
            "💯 𝄞 é ñ \u{10FFFF}", // astral plane + combining-free BMP
            "ends with backslash \\",
            "",
        ];
        for original in cases {
            let rendered = Value::Str(original.into()).to_string();
            let back = Value::parse(&rendered).unwrap();
            assert_eq!(back, Value::Str(original.into()), "via `{rendered}`");
        }
        // The explicit \u forms — BMP, surrogate pair, and the escaped
        // short forms — decode to the same characters.
        assert_eq!(
            Value::parse("\"\\u0041\\ud83d\\ude00\\b\\f\"").unwrap(),
            Value::Str("A\u{1F600}\u{8}\u{c}".into())
        );
        // Keys are escaped by the same writer path as values.
        let v = Value::object().with("ta\tb\"", 1u64);
        assert_eq!(Value::parse(&v.to_string()).unwrap(), v);
    }

    /// `Display` degrades non-finite numbers to `null` (documented, keeps
    /// wire/journal identity since the parse-back is `null` on both
    /// sides); `to_string_checked` refuses them loudly, wherever they
    /// hide in the tree.
    #[test]
    fn non_finite_floats_are_rejected_by_checked_serialization() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = Value::Num(bad).to_string_checked().unwrap_err();
            assert!(err.to_string().contains("non-finite"), "{err}");
            // Nested inside arrays and objects.
            let nested = Value::object().with("xs", vec![Value::Num(1.0), Value::Num(bad)]);
            assert!(nested.to_string_checked().is_err());
            // Display still degrades to null, parseable on the other side.
            assert_eq!(nested.to_string(), r#"{"xs":[1,null]}"#);
        }
        let fine = Value::object()
            .with("x", 0.1)
            .with("arr", vec![Value::Num(f64::MAX), Value::Num(f64::MIN)]);
        assert_eq!(fine.to_string_checked().unwrap(), fine.to_string());
    }

    #[test]
    fn builder_and_display_are_deterministic() {
        let v = Value::object()
            .with("b", 2u64)
            .with("a", "x")
            .with("arr", vec![Value::Null, Value::Bool(true)]);
        assert_eq!(v.to_string(), r#"{"a":"x","arr":[null,true],"b":2}"#);
        assert_eq!(Value::parse(&v.to_string()).unwrap(), v);
    }

    /// A random string over what the writer must escape or pass through:
    /// quotes, backslashes, every C0 control, printable ASCII, other BMP
    /// characters and non-BMP (surrogate-pair) characters.
    fn random_string(rng: &mut StdRng) -> String {
        let len = rng.gen_range(0..10);
        (0..len)
            .map(|_| {
                let code = match rng.gen_range(0..6) {
                    0 => u32::from(b'"'),
                    1 => u32::from(b'\\'),
                    2 => rng.gen_range(0..0x20),
                    3 => rng.gen_range(0x20..0x7f),
                    4 => rng.gen_range(0x80..0xD800),
                    _ => rng.gen_range(0x1_0000..0x11_0000),
                };
                char::from_u32(code).expect("no surrogates drawn")
            })
            .collect()
    }

    /// A finite number from random bits, with `-0.0` and subnormals (of
    /// either sign) drawn on purpose.
    fn random_number(rng: &mut StdRng) -> f64 {
        let sign = rng.gen::<u64>() & (1 << 63);
        match rng.gen_range(0..6) {
            0 => -0.0,
            1 => f64::from_bits(sign | (rng.gen::<u64>() & ((1 << 52) - 1))),
            _ => loop {
                let x = f64::from_bits(rng.gen());
                if x.is_finite() {
                    break x;
                }
            },
        }
    }

    /// A random document nested at most `depth` levels; `container`
    /// forces an array or object at the top.
    fn random_value(rng: &mut StdRng, depth: usize, container: bool) -> Value {
        let kind = match (container, depth) {
            (true, _) => rng.gen_range(4..6),
            (false, 0) => rng.gen_range(0..4),
            (false, _) => rng.gen_range(0..6),
        };
        let width = rng.gen_range(0..4);
        let child = |rng: &mut StdRng| random_value(rng, depth.saturating_sub(1), false);
        match kind {
            0 => Value::Null,
            1 => Value::Bool(rng.gen()),
            2 => Value::Num(random_number(rng)),
            3 => Value::Str(random_string(rng)),
            4 => Value::Arr((0..width).map(|_| child(rng)).collect()),
            _ => Value::Obj(
                (0..width)
                    .map(|_| (random_string(rng), child(rng)))
                    .collect(),
            ),
        }
    }

    /// Tree equality with numbers compared by bits (`==` has -0.0 == 0.0).
    fn same_bits(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
            (Value::Arr(xs), Value::Arr(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
            }
            (Value::Obj(xs), Value::Obj(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|((kx, x), (ky, y))| kx == ky && same_bits(x, y))
            }
            _ => a == b,
        }
    }

    proptest! {
        /// Random documents nested up to 6 levels render and parse back to
        /// the same tree, every number bit for bit.
        #[test]
        fn prop_random_documents_roundtrip(seed in 0u64..u64::MAX) {
            let mut rng = seeded_rng(seed);
            let depth = rng.gen_range(0..7);
            let doc = random_value(&mut rng, depth, false);
            let text = doc.to_string();
            let back = Value::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            prop_assert!(same_bits(&back, &doc), "{} parsed back as {}", text, back);
        }

        /// No proper prefix of a rendered array or object is a document,
        /// wherever it is cut between characters.
        #[test]
        fn prop_truncated_containers_are_errors(seed in 0u64..u64::MAX) {
            let mut rng = seeded_rng(seed);
            let depth = rng.gen_range(1..4);
            let text = random_value(&mut rng, depth, true).to_string();
            for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                prop_assert!(Value::parse(&text[..cut]).is_err(), "accepted {:?}", &text[..cut]);
            }
        }

        /// Random strings never make the parser panic: draws over JSON's
        /// own punctuation and keywords, and random edits of a rendered
        /// document.
        #[test]
        fn prop_random_strings_never_panic(seed in 0u64..u64::MAX) {
            const ALPHABET: &[&str] = &[
                "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u", "d83d", "dc00", "-", "0",
                "9", ".", "e", "+", " ", "\n", "null", "true", "fals", "\u{1F600}", "\u{7}",
            ];
            let mut rng = seeded_rng(seed);
            let text: String = if rng.gen() {
                (0..rng.gen_range(0..64))
                    .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                    .collect()
            } else {
                let mut chars: Vec<char> = random_value(&mut rng, 3, true).to_string().chars().collect();
                for _ in 0..rng.gen_range(1..4) {
                    let at = rng.gen_range(0..chars.len() + 1);
                    let c = random_string(&mut rng).chars().next().unwrap_or('[');
                    match rng.gen_range(0..3) {
                        0 if at < chars.len() => chars[at] = c,
                        1 if at < chars.len() => {
                            chars.remove(at);
                        }
                        _ => chars.insert(at, c),
                    }
                }
                chars.into_iter().collect()
            };
            let _ = Value::parse(&text);
        }
    }
}

//! Minimal JSON support: enough to write and re-read the cluster and
//! scope reports with no external dependencies (the workspace builds
//! offline; serde is not available). It is the one JSON implementation
//! in the workspace.
//!
//! [`Writer`] lays out the cluster and scope reports; [`escape`] and
//! [`number`] render single tokens. [`parse`] is a strict recursive-descent
//! reader for the subset of JSON the reports use: malformed input, or
//! nesting deeper than [`MAX_DEPTH`], returns an error and never panics.
//! [`same_shape`] checks a document against what an emitter writes; the
//! report validators emit a zero-valued skeleton with the document's
//! optional sections and row counts, and compare.

use std::fmt::{Display, Write as _};

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// reports nest four levels.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as f64.
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an f64, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value's key/value pairs, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
}

/// Looks up `key` in an object's pairs (first match).
pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The pairs of the object under `key`; empty when there is none.
pub fn get_object<'a>(obj: &'a [(String, Value)], key: &str) -> &'a [(String, Value)] {
    get(obj, key).and_then(Value::as_object).unwrap_or_default()
}

/// The elements of the array under `key`; empty when there is none.
pub fn get_array<'a>(obj: &'a [(String, Value)], key: &str) -> &'a [Value] {
    get(obj, key).and_then(Value::as_array).unwrap_or_default()
}

/// The number under `key` as a count: an integer in `0..=2^53`, so a sum
/// of a few cannot overflow. `ctx` names the object in the error.
pub fn get_count(obj: &[(String, Value)], ctx: &str, key: &str) -> Result<u64, String> {
    let x = get(obj, key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let exact = x.fract() == 0.0 && (0.0..=(1u64 << 53) as f64).contains(&x);
    exact.then_some(x as u64).ok_or_else(|| format!("{ctx}.{key}: expected a count, found {x}"))
}

/// Renders a string as a quoted JSON literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Renders an f64 as a JSON number.
///
/// Rust's `Display` for f64 prints the shortest string that round-trips,
/// so re-parsing yields the bit-identical value. Non-finite values (not
/// representable in JSON) render as `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // Ensure the token stays a valid JSON number (e.g. "1" not "1e0").
        debug_assert!(s.parse::<f64>().is_ok());
        s
    } else {
        "null".to_string()
    }
}

/// Lays out a report as pretty-printed JSON with an object at the root:
/// one key per line, two spaces per level, commas placed by the writer.
/// An inline row keeps its keys on one line and holds no containers.
#[derive(Debug, Default)]
pub struct Writer {
    /// The document inside its root braces.
    out: String,
    /// The closing bracket of each open object or array, innermost last.
    open: Vec<char>,
    /// Whether the innermost container already holds an item.
    started: bool,
    /// Whether the innermost container is an inline row.
    inline: bool,
}

impl Writer {
    /// Starts the next item: a comma after the previous one (and a space
    /// in an inline row), a line break and indent outside inline rows,
    /// then `"key": `.
    fn item(&mut self, key: Option<&str>) {
        if std::mem::replace(&mut self.started, true) {
            self.out.push_str(if self.inline { ", " } else { "," });
        }
        if !self.inline {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n("  ", self.open.len() + 1));
        }
        if let Some(key) = key {
            let _ = write!(self.out, "\"{key}\": ");
        }
    }

    fn open(&mut self, key: Option<&str>, [open, close]: [char; 2], inline: bool) {
        debug_assert!(!self.inline, "an inline row holds no objects or arrays");
        self.item(key);
        self.out.push(open);
        self.open.push(close);
        (self.started, self.inline) = (false, inline);
    }

    /// Writes `"key": value`, the value's `Display` form being its token:
    /// an integer, an [`escape`]d string, or a literal such as `null`.
    pub fn field(&mut self, key: &str, value: impl Display) {
        self.item(Some(key));
        let _ = write!(self.out, "{value}");
    }

    /// Writes a float; a non-finite one writes `0`, since `null` would
    /// fail the report's own validator.
    pub fn float(&mut self, key: &str, x: f64) {
        self.field(key, if x.is_finite() { x } else { 0.0 });
    }

    /// Opens an object under `key`, up to the matching [`Writer::close`].
    pub fn object(&mut self, key: &str) {
        self.open(Some(key), ['{', '}'], false);
    }

    /// Opens an array under `key`, up to the matching [`Writer::close`].
    pub fn array(&mut self, key: &str) {
        self.open(Some(key), ['[', ']'], false);
    }

    /// Opens an object as the next element of the innermost array.
    pub fn row(&mut self) {
        self.open(None, ['{', '}'], false);
    }

    /// Opens an inline row as the next element of the innermost array.
    pub fn inline_row(&mut self) {
        self.open(None, ['{', '}'], true);
    }

    /// Closes the innermost open object or array.
    pub fn close(&mut self) {
        let close = self.open.pop().expect("an open object or array");
        if !std::mem::take(&mut self.inline) {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n("  ", self.open.len() + 1));
        }
        self.out.push(close);
        self.started = true;
    }

    /// Returns the newline-terminated document.
    pub fn finish(self) -> String {
        debug_assert!(self.open.is_empty(), "unclosed object or array");
        format!("{{{}\n}}\n", self.out)
    }
}

/// Checks that `doc` has the shape of `want`: at every path, the same keys
/// in the same order, the same array lengths and the same kind of value.
/// The error names the first path that differs, rooted at `path`.
pub fn same_shape(doc: &Value, want: &Value, path: &str) -> Result<(), String> {
    match (doc, want) {
        (Value::Object(d), Value::Object(w)) => {
            for (i, (key, wv)) in w.iter().enumerate() {
                match d.get(i) {
                    Some((k, dv)) if k == key => same_shape(dv, wv, &format!("{path}.{key}"))?,
                    Some((k, _)) if get(w, k).is_none() => {
                        return Err(format!("{path}: unexpected key '{k}'"))
                    }
                    _ if get(d, key).is_none() => return Err(format!("{path}: missing '{key}'")),
                    _ => return Err(format!("{path}: '{key}' out of order")),
                }
            }
            match d.get(w.len()) {
                Some((k, _)) => Err(format!("{path}: unexpected key '{k}'")),
                None => Ok(()),
            }
        }
        (Value::Array(d), Value::Array(w)) if d.len() == w.len() => {
            let mut items = d.iter().zip(w).enumerate();
            items.try_for_each(|(i, (dv, wv))| same_shape(dv, wv, &format!("{path}[{i}]")))
        }
        (Value::Array(d), Value::Array(w)) => {
            Err(format!("{path}: {} entries, expected {}", d.len(), w.len()))
        }
        _ if kind(doc) == kind(want) => Ok(()),
        _ => Err(format!("{path}: expected {}, found {}", kind(want), kind(doc))),
    }
}

fn kind(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::Number(_) => "a number",
        Value::String(_) => "a string",
        Value::Array(_) => "an array",
        Value::Object(_) => "an object",
    }
}

/// Parses a JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Reads `text` from `pos`, which only ever stops on an ASCII byte and
/// so always sits on a char boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos.saturating_sub(1)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => Ok(Value::Object(self.items(b'}', |p| {
                let key = p.string()?;
                p.skip_ws();
                p.expect(b':')?;
                p.skip_ws();
                Ok((key, p.value()?))
            })?)),
            Some(b'[') => Ok(Value::Array(self.items(b']', Self::value)?)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.num(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Reads the comma-separated items of the object or array opening at
    /// `pos`, through its `close` bracket.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                items.push(item(self)?);
                self.skip_ws();
                match self.bump() {
                    Some(b',') => {}
                    Some(b) if b == close => break,
                    _ => {
                        let close = close as char;
                        return Err(format!("expected ',' or '{close}' at byte {}", self.pos));
                    }
                }
            }
        }
        self.depth -= 1;
        Ok(items)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.bump() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                _ => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex =
                            self.text.get(self.pos..self.pos + 4).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        self.pos += 4;
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    _ => return Err(format!("bad escape at byte {}", self.pos)),
                },
            }
        }
    }

    fn num(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        token
            .parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("bad number '{token}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-2.5e3").unwrap(), Value::Number(-2500.0));
        assert_eq!(parse(r#""a\nb""#).unwrap(), Value::String("a\nb".into()));
    }

    #[test]
    fn parses_nested() {
        let v = parse(r#"{"a": [1, {"b": "x"}], "c": false}"#).unwrap();
        let obj = v.as_object().unwrap();
        let arr = get(obj, "a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(get(arr[1].as_object().unwrap(), "b").unwrap().as_str(), Some("x"));
        assert_eq!(get(obj, "c"), Some(&Value::Bool(false)));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("{\"a\": ", "}", MAX_DEPTH)).is_ok());
        let err = parse(&nested("[", "]", 200_000)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"));
        assert!(parse(&nested("[", "]", MAX_DEPTH + 1)).is_err());
        assert!(parse(&nested("{\"a\": ", "}", MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn writer_places_commas_and_indentation() {
        let mut w = Writer::default();
        w.field("a", 1);
        w.object("b");
        w.float("x", f64::NAN);
        w.float("y", 0.5);
        w.close();
        w.array("rows");
        w.inline_row();
        w.field("i", 0);
        w.field("s", escape("q\""));
        w.close();
        w.row();
        w.field("j", "null");
        w.close();
        w.close();
        w.array("none");
        w.close();
        let want = "{\n  \"a\": 1,\n  \"b\": {\n    \"x\": 0,\n    \"y\": 0.5\n  },\n  \
                    \"rows\": [\n    {\"i\": 0, \"s\": \"q\\\"\"},\n    {\n      \"j\": null\n    }\n  \
                    ],\n  \"none\": [\n  ]\n}\n";
        let text = w.finish();
        assert_eq!(text, want);
        assert!(parse(&text).is_ok());
    }

    #[test]
    fn same_shape_names_the_first_difference() {
        let want = parse(r#"{"a": 1, "b": [{"c": "x"}], "d": null}"#).unwrap();
        let same = parse(r#"{"a": 2, "b": [{"c": "y"}], "d": null}"#).unwrap();
        assert_eq!(same_shape(&same, &want, "r"), Ok(()));
        for (doc, err) in [
            (r#"{"b": [{"c": "x"}], "d": null}"#, "r: missing 'a'"),
            (r#"{"a": 1, "z": 0, "b": [{"c": "x"}], "d": null}"#, "r: unexpected key 'z'"),
            (r#"{"a": 1, "b": [{"c": "x"}], "d": null, "z": 0}"#, "r: unexpected key 'z'"),
            (r#"{"b": [{"c": "x"}], "a": 1, "d": null}"#, "r: 'a' out of order"),
            (
                r#"{"a": "1", "b": [{"c": "x"}], "d": null}"#,
                "r.a: expected a number, found a string",
            ),
            (r#"{"a": 1, "b": [], "d": null}"#, "r.b: 0 entries, expected 1"),
            (
                r#"{"a": 1, "b": [{"c": 1}], "d": null}"#,
                "r.b[0].c: expected a string, found a number",
            ),
            (r#"{"a": 1, "b": [{"c": "x"}], "d": {}}"#, "r.d: expected null, found an object"),
        ] {
            assert_eq!(same_shape(&parse(doc).unwrap(), &want, "r"), Err(err.to_string()), "{doc}");
        }
    }

    #[test]
    fn counts_are_exact_non_negative_integers() {
        let doc = parse(r#"{"a": 3, "b": -1, "c": 1.5, "d": 1e300, "e": "3"}"#).unwrap();
        let obj = doc.as_object().unwrap();
        assert_eq!(get_count(obj, "x", "a"), Ok(3));
        for key in ["b", "c", "d", "e", "missing"] {
            let err = get_count(obj, "x", key).unwrap_err();
            assert!(err.starts_with(&format!("x.{key}: expected a count")), "{err}");
        }
    }

    #[test]
    fn escape_roundtrip() {
        let s = "quote\" slash\\ tab\t newline\n unicode\u{1F600}";
        assert_eq!(parse(&escape(s)).unwrap(), Value::String(s.into()));
    }

    #[test]
    fn number_roundtrips_bit_exact() {
        for x in [0.0, 1.0, -1.5, 0.1, 1e-12, 123456.789, f64::MAX] {
            let s = number(x);
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), x.to_bits());
        }
        assert_eq!(number(f64::NAN), "null");
    }
}

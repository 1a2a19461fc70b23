//! Minimal JSON support: enough to write the cluster and scope reports
//! and read them back into their types, with no external dependencies
//! (the workspace builds offline; serde is not available). It is the one
//! JSON implementation in the workspace.
//!
//! [`Writer`] lays out a report; [`escape`] and [`number`] render single
//! tokens. [`parse`] is a strict recursive-descent reader for the subset
//! of JSON the reports use: malformed input, or nesting deeper than
//! [`MAX_DEPTH`], returns an error and never panics.
//!
//! A report's [`Walker`] walks its sections in document order, listing
//! each record's keys once, in a field table of [`Field`]s, to write the
//! report, to read it back, or to set a gauge for each of its numbers. A
//! value the report derives from others is written but never read, so
//! [`same_doc`], comparing a document with the report written back from
//! what was read, names a key that is missing, mistyped or unknown, and a
//! derived value that disagrees with the values it comes from.

use std::fmt::{Display, Write as _};

use ignite_obs::MetricsRegistry;

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

/// A value of a typed record that a field table writes and reads.
pub trait Scalar {
    /// Writes `"key": value`.
    fn write(&self, w: &mut Writer, key: &str);
    /// Sets the value from `v` when `v` holds one, and leaves it otherwise.
    fn read(&mut self, v: &Value);
    /// The value, if it is a number.
    fn number(&self) -> Option<f64> {
        None
    }
    /// The value, if it is a string.
    fn text(&self) -> Option<&str> {
        None
    }
}

/// A number writes with the writer's `$write`. An integer reads any
/// number, saturating and dropping a fraction.
macro_rules! number_scalar {
    ($($t:ty: $write:ident),*) => {$(
        impl Scalar for $t {
            fn write(&self, w: &mut Writer, key: &str) {
                w.$write(key, *self);
            }

            fn read(&mut self, v: &Value) {
                if let Some(x) = v.as_f64() {
                    *self = x as $t;
                }
            }

            fn number(&self) -> Option<f64> {
                Some(*self as f64)
            }
        }
    )*};
}
number_scalar!(u64: field, u32: field, usize: field, i64: field, f64: float);

impl Scalar for String {
    fn write(&self, w: &mut Writer, key: &str) {
        w.field(key, escape(self));
    }

    fn read(&mut self, v: &Value) {
        if let Some(s) = v.as_str() {
            s.clone_into(self);
        }
    }

    fn text(&self) -> Option<&str> {
        Some(self)
    }
}

/// One entry of a field table: a record's keys in document order, each
/// with its value, listed once for both writing and reading.
pub enum Field<'a> {
    /// A value the document carries: read, then written back.
    Stored(&'a mut dyn Scalar),
    /// A count derived from other values: written, never read.
    Count(u64),
    /// A ratio or mean derived from other values: written, never read.
    Float(f64),
    /// A fixed string, such as a schema tag: written, never read.
    Tag(&'static str),
    /// `null`: written, never read.
    Null,
    /// A key the record leaves out, of a section its run did not have.
    Absent,
}

impl Field<'_> {
    /// This entry if `on`, else [`Field::Absent`].
    pub fn when(self, on: bool) -> Self {
        if on {
            self
        } else {
            Field::Absent
        }
    }

    /// The number the entry writes, if it writes one.
    fn number(&self) -> Option<f64> {
        match self {
            Field::Stored(v) => v.number(),
            Field::Count(n) => Some(*n as f64),
            Field::Float(x) => Some(*x),
            Field::Tag(_) | Field::Null | Field::Absent => None,
        }
    }
}

/// A field table of `N` entries.
pub type Table<'a, const N: usize> = [(&'static str, Field<'a>); N];

/// Row `i` of `rows`, which a reader, walking the rows in order, adds.
pub fn row<T: Default>(rows: &mut Vec<T>, i: usize) -> &mut T {
    if i == rows.len() {
        rows.push(T::default());
    }
    &mut rows[i]
}

/// Writes a report, reads one back into its types, or sets a gauge for
/// each of its numbers, in one walk of its sections in document order, a
/// field table at a time: the walk defines the layout, its reading and
/// its exposition. Reading, a missing value or one of the wrong kind
/// leaves its field as it was, and a section that is no object reads as
/// an empty one; comparing the document with the report written back
/// ([`same_doc`]) then names the first such key by its path. Rows come
/// from the document's arrays, never sized from a number in it.
pub struct Walker<'a> {
    mode: Mode<'a>,
    /// When reading, the object the walk is in.
    pairs: &'a [(String, Value)],
}

enum Mode<'a> {
    /// The document written so far.
    Write(Writer),
    Read,
    Gauges(Gauges<'a>),
}

/// Where a gauge walk is: the name and path of the section it is in, and
/// the labels of the rows it is in.
struct Gauges<'a> {
    reg: &'a mut MetricsRegistry,
    /// `ignite_{report}_`, then each enclosing key and `_`.
    name: String,
    /// Each enclosing key and `.`, with `[]` after an array's.
    path: String,
    /// ` in the {report} report`, which ends each sample's help.
    suffix: String,
    /// The caller's labels, then the label of each enclosing row.
    labels: Vec<(&'a str, String)>,
    /// The lengths of `name`, `path` and `labels` to go back to when the
    /// innermost open section, array or row closes.
    marks: Vec<[usize; 3]>,
    /// Whether the next entry is a row's first, which labels the row.
    row_start: bool,
}

impl Gauges<'_> {
    fn enter(&mut self, key: Option<&str>, array: bool) {
        self.marks.push([self.name.len(), self.path.len(), self.labels.len()]);
        match key {
            Some(key) => {
                self.name.push_str(key);
                self.name.push('_');
                self.path.push_str(key);
                self.path.push_str(if array { "[]." } else { "." });
            }
            None => self.row_start = true,
        }
    }

    fn leave(&mut self) {
        let [name, path, labels] = self.marks.pop().expect("an open section, array or row");
        self.name.truncate(name);
        self.path.truncate(path);
        self.labels.truncate(labels);
        self.row_start = false;
    }

    /// Takes a row's first entry as its label, or sets the gauge of a
    /// number.
    fn entry(&mut self, key: &'static str, field: Field) {
        if std::mem::take(&mut self.row_start) {
            let text = match &field {
                Field::Stored(v) => v.text().map(str::to_string),
                _ => None,
            };
            if let Some(label) = text.or_else(|| field.number().map(|x| x.to_string())) {
                self.labels.push((key, label));
            }
            return;
        }
        let Some(value) = field.number() else { return };
        let (name, path) = (self.name.len(), self.path.len());
        self.name.push_str(key);
        self.path.push_str(key);
        self.path.push_str(&self.suffix);
        let labels: Vec<(&str, &str)> = self.labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        self.reg.set_gauge(&self.name, &self.path, &labels, value);
        self.name.truncate(name);
        self.path.truncate(path);
    }
}

impl<'a> Walker<'a> {
    /// A walker that writes a report.
    pub fn writer() -> Self {
        Walker { mode: Mode::Write(Writer::default()), pairs: &[] }
    }

    /// A walker that reads `doc`.
    pub fn reader(doc: &'a Value) -> Self {
        Walker { mode: Mode::Read, pairs: doc.as_object().unwrap_or_default() }
    }

    /// A walker that sets a gauge in `reg` for every number the report
    /// writes (stored, counted or derived), under `labels`: the number at
    /// path `a.b.c` is the gauge `ignite_{report}_a_b_c`, its help that
    /// path. A row adds its array's key to the path and its first entry
    /// to the labels, keyed by the entry's key, so that entry is a label
    /// and not a sample. Strings, tags, `null` and [`Walker::log`]s are
    /// not exposed.
    pub fn gauges(reg: &'a mut MetricsRegistry, report: &str, labels: &[(&'a str, &str)]) -> Self {
        let gauges = Gauges {
            reg,
            name: format!("ignite_{report}_"),
            path: String::new(),
            suffix: format!(" in the {report} report"),
            labels: labels.iter().map(|&(k, v)| (k, v.to_string())).collect(),
            marks: Vec::new(),
            row_start: false,
        };
        Walker { mode: Mode::Gauges(gauges), pairs: &[] }
    }

    /// The document written.
    pub fn finish(self) -> String {
        match self.mode {
            Mode::Write(w) => w.finish(),
            Mode::Read | Mode::Gauges(_) => String::new(),
        }
    }

    /// The value under `key` in the object being read, if there is one.
    pub fn get(&self, key: &str) -> Option<&'a Value> {
        get(self.pairs, key)
    }

    /// Writes a field table, reads its stored values, or sets the gauges
    /// of its numbers.
    pub fn table<'b>(&mut self, table: impl IntoIterator<Item = (&'static str, Field<'b>)>) {
        for (key, field) in table {
            match &mut self.mode {
                Mode::Write(w) => match field {
                    Field::Stored(v) => v.write(w, key),
                    Field::Count(n) => w.field(key, n),
                    Field::Float(x) => w.float(key, x),
                    Field::Tag(s) => w.field(key, escape(s)),
                    Field::Null => w.field(key, "null"),
                    Field::Absent => {}
                },
                Mode::Read => {
                    if let (Field::Stored(v), Some(x)) = (field, get(self.pairs, key)) {
                        v.read(x);
                    }
                }
                Mode::Gauges(g) => g.entry(key, field),
            }
        }
    }

    /// Walks the object under `key` with `body`.
    pub fn section(&mut self, key: &str, body: impl FnOnce(&mut Self)) {
        let outer = self.enter(Some(key), ['{', '}'], false, self.get(key));
        body(self);
        self.leave(outer);
    }

    /// Walks the object under `key`, which holds a field table.
    pub fn fields<'b>(
        &mut self,
        key: &str,
        table: impl IntoIterator<Item = (&'static str, Field<'b>)>,
    ) {
        self.section(key, |w| w.table(table));
    }

    /// Walks the rows of the array under `key` with `row`, given each
    /// row's index and record: the records of `rows` when writing, and
    /// when reading as many new records as the document's array holds.
    /// An `inline` row is written on one line.
    pub fn rows<T: Default>(
        &mut self,
        key: &str,
        rows: &mut Vec<T>,
        inline: bool,
        mut row: impl FnMut(&mut Self, usize, &mut T),
    ) {
        let items = self.get(key).and_then(Value::as_array).unwrap_or_default();
        if let Mode::Read = self.mode {
            rows.resize_with(items.len(), T::default);
        }
        let outer = self.enter(Some(key), ['[', ']'], false, None);
        for (i, record) in rows.iter_mut().enumerate() {
            self.enter(None, ['{', '}'], inline, items.get(i));
            row(self, i, record);
            self.leave(&[]);
        }
        self.leave(outer);
    }

    /// Walks an event log under `key`: inline rows, several of which may
    /// share a first entry, so a gauge walk skips them.
    pub fn log<T: Default>(
        &mut self,
        key: &str,
        rows: &mut Vec<T>,
        row: impl FnMut(&mut Self, usize, &mut T),
    ) {
        if !matches!(self.mode, Mode::Gauges(_)) {
            self.rows(key, rows, true, row);
        }
    }

    /// Opens an object or array, under `key` when it has one, and reads
    /// `v` as the object inside; returns the object to go back to.
    fn enter(
        &mut self,
        key: Option<&str>,
        brackets: [char; 2],
        inline: bool,
        v: Option<&'a Value>,
    ) -> &'a [(String, Value)] {
        match &mut self.mode {
            Mode::Write(w) => w.open(key, brackets, inline),
            Mode::Read => {}
            Mode::Gauges(g) => g.enter(key, brackets[0] == '['),
        }
        std::mem::replace(&mut self.pairs, v.and_then(Value::as_object).unwrap_or_default())
    }

    /// Closes what [`Walker::enter`] opened, going back to `outer`.
    fn leave(&mut self, outer: &'a [(String, Value)]) {
        match &mut self.mode {
            Mode::Write(w) => w.close(),
            Mode::Read => {}
            Mode::Gauges(g) => g.leave(),
        }
        self.pairs = outer;
    }
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

    /// Closes the innermost open object or array.
    fn close(&mut self) {
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

/// Checks that `doc` has the shape of `want`, and with `values` is
/// `want`, naming the first path that differs, rooted at `path`: at
/// every path, the same keys in the same order, the same array lengths
/// and the same kind of value, and with `values` equal scalars.
pub fn same_doc(doc: &Value, want: &Value, path: &str, values: bool) -> Result<(), String> {
    compare(doc, want, &mut path.to_string(), values)
}

fn compare(doc: &Value, want: &Value, path: &mut String, values: bool) -> Result<(), String> {
    let len = path.len();
    match (doc, want) {
        (Value::Object(d), Value::Object(w)) => {
            for (i, (key, wv)) in w.iter().enumerate() {
                match d.get(i) {
                    Some((k, dv)) if k == key => {
                        let _ = write!(path, ".{key}");
                        compare(dv, wv, path, values)?;
                        path.truncate(len);
                    }
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
            for (i, (dv, wv)) in d.iter().zip(w).enumerate() {
                let _ = write!(path, "[{i}]");
                compare(dv, wv, path, values)?;
                path.truncate(len);
            }
            Ok(())
        }
        (Value::Array(d), Value::Array(w)) => {
            Err(format!("{path}: {} entries, expected {}", d.len(), w.len()))
        }
        _ if kind(doc) != kind(want) => {
            Err(format!("{path}: expected {}, found {}", kind(want), kind(doc)))
        }
        _ if !values || doc == want => Ok(()),
        (Value::Number(d), Value::Number(w)) => {
            Err(format!("{path}: expected {}, found {}", number(*w), number(*d)))
        }
        (Value::String(d), Value::String(w)) => {
            Err(format!("{path}: expected {}, found {}", escape(w), escape(d)))
        }
        _ => Err(format!("{path}: expected {want:?}, found {doc:?}")),
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
    let mut p = Parser { text, pos: 0, depth: 0, pairs: Vec::new(), elements: Vec::new() };
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
    /// The members read so far of every open object, innermost last: a
    /// closed object moves its own into a vector of exactly their number.
    pairs: Vec<(String, Value)>,
    /// The same for the elements of every open array.
    elements: Vec<Value>,
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
            Some(b'{') => {
                let start = self.pairs.len();
                self.items(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    let value = p.value()?;
                    p.pairs.push((key, value));
                    Ok(())
                })?;
                Ok(Value::Object(self.pairs.drain(start..).collect()))
            }
            Some(b'[') => {
                let start = self.elements.len();
                self.items(b']', |p| {
                    let value = p.value()?;
                    p.elements.push(value);
                    Ok(())
                })?;
                Ok(Value::Array(self.elements.drain(start..).collect()))
            }
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
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                item(self)?;
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
        Ok(())
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
        w.open(Some("b"), ['{', '}'], false);
        w.float("x", f64::NAN);
        w.float("y", 0.5);
        w.close();
        w.open(Some("rows"), ['[', ']'], false);
        w.open(None, ['{', '}'], true);
        w.field("i", 0);
        w.field("s", escape("q\""));
        w.close();
        w.open(None, ['{', '}'], false);
        w.field("j", "null");
        w.close();
        w.close();
        w.open(Some("none"), ['[', ']'], false);
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
        let same = parse(r#"{"a": 1.0, "b": [{"c": "x"}], "d": null}"#).unwrap();
        assert_eq!(same_doc(&same, &want, "r", true), Ok(()));
        // Values differ only in the second pass.
        for (doc, err) in [
            (r#"{"a": 2, "b": [{"c": "x"}], "d": null}"#, "r.a: expected 1, found 2"),
            (r#"{"a": 1, "b": [{"c": "y"}], "d": null}"#, r#"r.b[0].c: expected "x", found "y""#),
        ] {
            assert_eq!(same_doc(&parse(doc).unwrap(), &want, "r", false), Ok(()), "{doc}");
            assert_eq!(same_doc(&parse(doc).unwrap(), &want, "r", true), Err(err.to_string()));
        }
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
            let doc = parse(doc).unwrap();
            assert_eq!(same_doc(&doc, &want, "r", false), Err(err.to_string()), "{doc:?}");
        }
    }

    /// A reading walk fills the stored values of the right kind, leaves
    /// the rest as they were, skips derived entries and takes its rows
    /// from the arrays; a writing walk writes back what it read.
    #[test]
    fn a_walk_writes_back_what_it_reads() {
        fn walk(w: &mut Walker, a: &mut u64, b: &mut String, rows: &mut Vec<u64>) {
            w.table([("a", Field::Stored(a)), ("b", Field::Stored(b)), ("c", Field::Count(4))]);
            w.rows("rows", rows, true, |w, _, n| w.table([("n", Field::Stored(n))]));
        }
        let doc = parse(r#"{"a": 3, "b": 1, "c": 9, "rows": [{"n": 1}, {"n": "2"}, 5]}"#).unwrap();
        let (mut a, mut b, mut rows) = (7, "x".to_string(), Vec::new());
        walk(&mut Walker::reader(&doc), &mut a, &mut b, &mut rows);
        assert_eq!((a, b.as_str(), rows.as_slice()), (3, "x", &[1, 0, 0][..]));
        let mut w = Walker::writer();
        walk(&mut w, &mut a, &mut b, &mut rows);
        let want =
            "{\n  \"a\": 3,\n  \"b\": \"x\",\n  \"c\": 4,\n  \"rows\": [\n    {\"n\": 1},\n    \
                    {\"n\": 0},\n    {\"n\": 0}\n  ]\n}\n";
        assert_eq!(w.finish(), want);
    }

    /// A gauge walk sets one gauge per number, named and helped by its
    /// path, with a row's first entry as the row's label, and leaves out
    /// strings, tags, `null` and logs.
    #[test]
    fn a_gauge_walk_names_each_number_by_its_path() {
        let mut reg = MetricsRegistry::new();
        let mut w = Walker::gauges(&mut reg, "t", &[("k", "v")]);
        let mut s = "x".to_string();
        w.table([
            ("schema", Field::Tag("t")),
            ("a", Field::Count(3)),
            ("s", Field::Stored(&mut s)),
        ]);
        w.fields("b", [("c", Field::Float(0.5)), ("n", Field::Null)]);
        let mut rows = vec![("x".to_string(), 1u64), ("y".to_string(), 2)];
        w.rows("rows", &mut rows, false, |w, _, (f, n)| {
            w.table([("f", Field::Stored(f)), ("n", Field::Stored(n))])
        });
        w.log("log", &mut vec![7u64], |w, _, at| w.table([("at", Field::Stored(at))]));
        let want = "# HELP ignite_t_a a in the t report\n# TYPE ignite_t_a gauge\n\
                    ignite_t_a{k=\"v\"} 3\n\
                    # HELP ignite_t_b_c b.c in the t report\n# TYPE ignite_t_b_c gauge\n\
                    ignite_t_b_c{k=\"v\"} 0.5\n\
                    # HELP ignite_t_rows_n rows[].n in the t report\n\
                    # TYPE ignite_t_rows_n gauge\n\
                    ignite_t_rows_n{f=\"x\",k=\"v\"} 1\nignite_t_rows_n{f=\"y\",k=\"v\"} 2\n";
        assert_eq!(reg.expose(), want);
    }

    /// A count reads any number, and only an exact integer in `u64`'s
    /// range is written back as the number the document holds.
    #[test]
    fn counts_are_exact_non_negative_integers() {
        let read_back = |doc: &str| {
            let (doc, mut n) = (parse(doc).unwrap(), 7u64);
            Walker::reader(&doc).table([("n", Field::Stored(&mut n))]);
            let mut w = Walker::writer();
            w.table([("n", Field::Stored(&mut n))]);
            same_doc(&doc, &parse(&w.finish()).unwrap(), "x", true)
        };
        assert_eq!(read_back(r#"{"n": 3}"#), Ok(()));
        assert_eq!(read_back(r#"{"n": 18446744073709551615}"#), Ok(()));
        for (n, err) in [
            ("-1", "x.n: expected 0, found -1"),
            ("1.5", "x.n: expected 1, found 1.5"),
            (r#""3""#, "x.n: expected a number, found a string"),
        ] {
            assert_eq!(read_back(&format!(r#"{{"n": {n}}}"#)), Err(err.to_string()), "{n}");
        }
        assert!(read_back(r#"{"n": 1e300}"#)
            .unwrap_err()
            .starts_with("x.n: expected 18446744073709552000"));
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

//! Dependency-free JSON serialization and parsing, shared by every
//! machine-readable export of the workspace.
//!
//! The [`JsonWriter`] is the single serialization helper behind
//! [`RunReport::to_json`](crate::telemetry::RunReport::to_json), the
//! explanation pipeline's report, the observability exporters
//! ([`chrome`](crate::obs::chrome), [`metrics`](crate::obs::metrics)) and
//! the bench harness. [`parse`] is the inverse: a strict little reader
//! used by the exporter validation tests and the `obs_inspect` trace
//! viewer to load what the writers emitted — it is not a general-purpose
//! JSON library (numbers are `f64`, objects are ordered pairs).

use std::fmt;

/// A tiny dependency-free JSON writer (objects, arrays, strings, u64/f64).
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Stack of "needs a comma before the next element" flags.
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    fn elem(&mut self) {
        if let Some(top) = self.needs_comma.last_mut() {
            if *top {
                self.out.push(',');
            }
            *top = true;
        }
    }

    /// Writes an object key (inside an open object).
    pub fn key(&mut self, key: &str) {
        self.elem();
        self.push_str_escaped(key);
        self.out.push(':');
        // The value that follows is part of this element.
        if let Some(top) = self.needs_comma.last_mut() {
            *top = false;
        }
    }

    /// Opens `{`.
    pub fn open_object(&mut self) {
        self.elem();
        self.out.push('{');
        self.needs_comma.push(false);
    }

    /// Closes `}`.
    pub fn close_object(&mut self) {
        self.needs_comma.pop();
        self.out.push('}');
        if let Some(top) = self.needs_comma.last_mut() {
            *top = true;
        }
    }

    /// Opens `[`.
    pub fn open_array(&mut self) {
        self.elem();
        self.out.push('[');
        self.needs_comma.push(false);
    }

    /// Closes `]`.
    pub fn close_array(&mut self) {
        self.needs_comma.pop();
        self.out.push(']');
        if let Some(top) = self.needs_comma.last_mut() {
            *top = true;
        }
    }

    /// Writes a string value (or, with a preceding [`JsonWriter::key`],
    /// nothing else is needed: use [`JsonWriter::field_str`]).
    pub fn value_str(&mut self, value: &str) {
        self.elem();
        self.push_str_escaped(value);
    }

    /// Writes an unsigned integer value.
    pub fn value_u64(&mut self, value: u64) {
        self.elem();
        self.out.push_str(&value.to_string());
    }

    /// Writes a float value with up to 3 decimal places.
    pub fn value_f64(&mut self, value: f64) {
        self.elem();
        if value.is_finite() {
            self.out.push_str(&format!("{:.3}", value));
        } else {
            self.out.push_str("null");
        }
    }

    /// `"key": "value"`.
    pub fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.value_str(value);
    }

    /// `"key": value` (unsigned).
    pub fn field_u64(&mut self, key: &str, value: u64) {
        self.key(key);
        self.value_u64(value);
    }

    /// `"key": value` (float, 3 decimals).
    pub fn field_f64(&mut self, key: &str, value: f64) {
        self.key(key);
        self.value_f64(value);
    }

    /// Splices pre-rendered JSON as one value (comma handling applies;
    /// the caller guarantees `json` is a complete, valid JSON value).
    /// Lets composite payloads embed documents another exporter already
    /// produced — e.g. a Chrome trace array inside a flight snapshot —
    /// without re-parsing.
    pub fn raw(&mut self, json: &str) {
        self.elem();
        self.out.push_str(json);
    }

    fn push_str_escaped(&mut self, s: &str) {
        self.out.push('"');
        escape_into(&mut self.out, s);
        self.out.push('"');
    }

    /// The accumulated JSON text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Appends `s` to `out` with JSON string escaping (without the
/// surrounding quotes). The one escaping routine every exporter shares.
///
/// Runs of bytes that need no escape are copied whole. Every byte that
/// does is ASCII, so each run ends on a UTF-8 character boundary.
pub fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// A parsed JSON value (numbers are `f64`, object keys keep insertion
/// order).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Why [`parse`] rejected its input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the problem.
    pub offset: usize,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.detail
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Parses one JSON document (rejecting trailing garbage).
pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

/// Nesting ceiling: deeper documents are rejected rather than risking a
/// stack overflow on adversarial input.
const MAX_DEPTH: u32 = 256;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

impl<'a> Parser<'a> {
    fn err(&self, detail: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            detail: detail.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{text}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Arr(items));
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
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not reassembled: the
                            // writers never emit them (escapes cover only
                            // control characters).
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The char-by-char escape the run-copying [`escape_into`] must
    /// reproduce byte for byte.
    fn escape_reference(out: &mut String, s: &str) {
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
    }

    /// One character of a class the escape treats differently: the five
    /// named escapes, other control bytes, printable ASCII, and two-,
    /// three- and four-byte UTF-8.
    fn escape_char(class: u32, pick: u32) -> char {
        let from = |lo: u32, span: u32| {
            char::from_u32(lo + pick % span).expect("no range reaches a surrogate")
        };
        match class {
            0 => '"',
            1 => '\\',
            2 => '\n',
            3 => '\r',
            4 => '\t',
            5 => from(0, 0x20),
            6 => from(0x20, 0x60),
            7 => from(0x80, 0x780),
            8 => from(0xe000, 0x2000),
            _ => from(0x1_0000, 0x10_0000),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn escape_matches_the_char_by_char_reference_and_round_trips(
            picks in prop::collection::vec((0u32..10, any::<u32>()), 0..48),
        ) {
            let text: String = picks.iter().map(|&(class, pick)| escape_char(class, pick)).collect();
            let mut fast = String::from("prefix");
            escape_into(&mut fast, &text);
            let mut reference = String::from("prefix");
            escape_reference(&mut reference, &text);
            prop_assert_eq!(&fast, &reference);
            let quoted = format!("\"{}\"", &fast["prefix".len()..]);
            prop_assert_eq!(parse(&quoted), Ok(JsonValue::Str(text)));
        }
    }

    #[test]
    fn writer_output_parses_back() {
        let mut w = JsonWriter::new();
        w.open_object();
        w.field_str("name", "a\"b\\c\nd");
        w.field_u64("count", u64::MAX);
        w.field_f64("ratio", 1.5);
        w.key("items");
        w.open_array();
        w.value_u64(1);
        w.value_str("two");
        w.close_array();
        w.close_object();
        let text = w.finish();
        let v = parse(&text).expect("writer output is valid JSON");
        assert_eq!(
            v.get("name").and_then(JsonValue::as_str),
            Some("a\"b\\c\nd")
        );
        // u64::MAX exceeds f64's integer precision; the writer emits it
        // exactly, the f64-based parser reads it approximately.
        assert!(v.get("count").and_then(JsonValue::as_f64).unwrap() > 1.8e19);
        assert_eq!(v.get("ratio").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(v.get("items").and_then(JsonValue::as_arr).unwrap().len(), 2);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        let deep = "[".repeat(1000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn parser_reads_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-2.5e2").unwrap(), JsonValue::Num(-250.0));
        assert_eq!(
            parse("\"\\u0041\\n\"").unwrap(),
            JsonValue::Str("A\n".into())
        );
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }
}

//! Serializable metric snapshots and a minimal JSON document model.
//!
//! The simulator's report pipeline needs machine-readable output without
//! pulling in an external serialization framework (the build is fully
//! offline). [`Json`] is a small order-preserving document value with a
//! writer and a parser — enough to emit benchmark reports and read them back
//! in tests. The snapshot methods on the [`stats`](crate::stats) and
//! [`queueing`](crate::queueing) primitives produce `Json` views of their
//! current state; higher-level crates compose these into per-component and
//! cluster-wide snapshots.

use crate::queueing::FifoServer;
use crate::stats::{Counter, LatencyHistogram};
use crate::time::SimTime;
use std::fmt;

/// A JSON document value.
///
/// Objects preserve insertion order so emitted reports are stable and
/// diffable. Numbers are stored as `f64`; integral values within the safe
/// range are written without a fractional part.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Look up a key in an object (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value as an integer, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= MAX_SAFE_INT => Some(*v as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Serialize, appending to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => write_number(*v, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Rejects trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

/// Compact serialization — `doc.to_string()` yields the JSON text.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Largest integer exactly representable in an `f64`.
const MAX_SAFE_INT: f64 = 9_007_199_254_740_991.0; // 2^53 - 1

fn write_number(v: f64, out: &mut String) {
    if !v.is_finite() {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() <= MAX_SAFE_INT {
        let _ = fmt::Write::write_fmt(out, format_args!("{}", v as i64));
    } else {
        let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are not paired here; the writer never
                            // emits them, so map them to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The input is a `&str` and
                    // every other advance is over ASCII, so `pos` is always
                    // on a char boundary — slice the original text instead
                    // of re-validating the whole tail per character (which
                    // made parsing quadratic in document size).
                    let c = self.text[self.pos..].chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ASCII digits are valid UTF-8");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

impl Counter {
    /// Serializable view: just the count.
    pub fn snapshot(&self) -> Json {
        Json::from(self.get())
    }
}

impl LatencyHistogram {
    /// Serializable view: count, mean and key quantiles in nanoseconds.
    pub fn snapshot(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count())),
            ("mean_ns", Json::from(self.mean_ns())),
            ("p50_ns", Json::from(self.quantile_ns(0.50))),
            ("p90_ns", Json::from(self.quantile_ns(0.90))),
            ("p99_ns", Json::from(self.quantile_ns(0.99))),
            ("max_ns", Json::from(self.max_ns())),
        ])
    }
}

impl FifoServer {
    /// Serializable view: throughput and queueing statistics, with
    /// utilization computed against `horizon`.
    pub fn snapshot(&self, horizon: SimTime) -> Json {
        Json::obj([
            ("accepted", Json::from(self.accepted())),
            ("utilization", Json::from(self.utilization(horizon))),
            ("mean_wait_ns", Json::from(self.mean_wait().as_ns_f64())),
            ("max_backlog_ns", Json::from(self.max_backlog().as_ns_f64())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn writes_compact_documents() {
        let doc = Json::obj([
            ("name", Json::from("fig6")),
            ("rows", Json::from(vec![1u64, 2, 3])),
            ("ok", Json::from(true)),
            ("ratio", Json::from(0.5)),
            ("none", Json::Null),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"name":"fig6","rows":[1,2,3],"ok":true,"ratio":0.5,"none":null}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let doc = Json::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(doc.to_string(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn integers_round_trip_exactly() {
        let doc = Json::from(9_007_199_254_740_991u64);
        assert_eq!(doc.to_string(), "9007199254740991");
        assert_eq!(
            Json::parse("9007199254740991").unwrap().as_u64(),
            Some(9_007_199_254_740_991)
        );
    }

    #[test]
    fn parses_nested_documents() {
        let text = r#" { "a" : [ 1 , 2.5 , { "b" : null } ] , "c" : false } "#;
        let doc = Json::parse(text).unwrap();
        assert_eq!(doc.get("c"), Some(&Json::Bool(false)));
        let arr = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn round_trips_its_own_output() {
        let doc = Json::obj([
            ("empty_obj", Json::obj::<String>([])),
            ("empty_arr", Json::Arr(vec![])),
            ("neg", Json::from(-3.25f64)),
            ("big", Json::from(1e300f64)),
            ("unicode", Json::from("héllo ⚙")),
        ]);
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nonfinite_numbers_become_null() {
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
        assert_eq!(Json::from(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn stat_snapshots_have_expected_shape() {
        let mut c = Counter::new();
        c.add(7);
        assert_eq!(c.snapshot().as_u64(), Some(7));

        let mut h = LatencyHistogram::new();
        h.record(SimDuration::ns(100));
        let snap = h.snapshot();
        assert_eq!(snap.get("count").unwrap().as_u64(), Some(1));
        assert!(snap.get("p99_ns").unwrap().as_f64().unwrap() > 0.0);

        let t = |ns| SimTime::ZERO + SimDuration::ns(ns);
        let mut srv = FifoServer::new();
        srv.accept(t(0), SimDuration::ns(10));
        let snap = srv.snapshot(t(100));
        assert_eq!(snap.get("accepted").unwrap().as_u64(), Some(1));
        assert!((snap.get("utilization").unwrap().as_f64().unwrap() - 0.1).abs() < 1e-12);
    }
}

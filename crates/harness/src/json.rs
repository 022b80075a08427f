//! A minimal JSON value, writer, and parser.
//!
//! The build environment is offline, so the harness cannot depend on serde;
//! this module implements the small subset of JSON the artifact schema
//! needs. Objects keep insertion order, which makes serialized artifacts
//! deterministic — the determinism test compares them byte for byte.

use std::fmt::Write as _;

/// A JSON value. Integers are kept separate from floats so 64-bit counters
/// round-trip exactly (an `f64` mantissa would silently truncate them).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (all harness counters are `u64`).
    Int(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` (exact integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array's items.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object's fields.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Compact one-line serialization (JSONL-safe: no raw newlines).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(x) => {
                if x.is_finite() {
                    // `{:?}` prints the shortest representation that
                    // round-trips, and always includes a '.' or 'e'.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Validate `value` against a minimal JSON-Schema subset: `type`,
/// `required`, `properties`, `const`, `enum` and `minimum` — the keywords
/// the checked-in `schemas/log_v1.schema.json` uses, without an external
/// schema library. Appends one message per violation to `errors`, with `at`
/// as the JSONPath-style location prefix (pass `"$"` at the root). Used by
/// `sweepctl check-log`.
pub fn validate(value: &Value, schema: &Value, at: &str, errors: &mut Vec<String>) {
    if let Some(expected) = schema.get("const") {
        let matches = match (expected, value) {
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => match (expected.as_f64(), value.as_f64()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        };
        if !matches {
            errors.push(format!("{at}: expected const {expected:?}"));
        }
    }
    if let Some(allowed) = schema.get("enum").and_then(Value::as_arr) {
        let matches = allowed.iter().any(|e| match (e, value) {
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => match (e.as_f64(), value.as_f64()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        });
        if !matches {
            errors.push(format!("{at}: value not in enum"));
        }
    }
    if let Some(v) = value.as_f64() {
        if let Some(min) = schema.get("minimum").and_then(Value::as_f64) {
            if v < min {
                errors.push(format!("{at}: {v} below minimum {min}"));
            }
        }
    }
    if let Some(t) = schema.get("type").and_then(Value::as_str) {
        let ok = match t {
            "object" => value.as_obj().is_some(),
            "array" => value.as_arr().is_some(),
            "string" => value.as_str().is_some(),
            "number" => value.as_f64().is_some(),
            "integer" => value.as_u64().is_some(),
            "boolean" => value.as_bool().is_some(),
            _ => true,
        };
        if !ok {
            errors.push(format!("{at}: expected type {t}"));
            return;
        }
    }
    if let Some(obj) = value.as_obj() {
        if let Some(required) = schema.get("required").and_then(Value::as_arr) {
            for name in required.iter().filter_map(Value::as_str) {
                if !obj.iter().any(|(k, _)| k == name) {
                    errors.push(format!("{at}: missing required field {name:?}"));
                }
            }
        }
        if let Some(props) = schema.get("properties").and_then(Value::as_obj) {
            for (name, sub) in props {
                if let Some((_, v)) = obj.iter().find(|(k, _)| k == name) {
                    validate(v, sub, &format!("{at}.{name}"), errors);
                }
            }
        }
    }
}

/// Parse one JSON document. Trailing whitespace is allowed; trailing
/// content is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                            // Surrogates are not paired: artifacts never
                            // contain them, so map to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!("bad escape {:?}", other.map(|c| c as char)));
                        }
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    s.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one multi-byte UTF-8 scalar. Decoding only
                    // the scalar's own bytes keeps string parsing O(n) —
                    // validating the whole remaining input per character
                    // is quadratic and never finishes on megabyte traces.
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or("invalid utf-8")?;
                    let c = std::str::from_utf8(chunk)
                        .map_err(|_| "invalid utf-8")?
                        .chars()
                        .next()
                        .unwrap();
                    s.push(c);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let v = Value::Obj(vec![
            ("a".into(), Value::Int(u64::MAX)),
            ("b".into(), Value::Float(1.5)),
            ("c".into(), Value::Str("x\"\\\n\u{1}é".into())),
            (
                "d".into(),
                Value::Arr(vec![Value::Null, Value::Bool(true), Value::Int(0)]),
            ),
            ("e".into(), Value::Obj(vec![])),
        ]);
        let text = v.to_json();
        assert!(!text.contains('\n'), "JSONL lines must be newline-free");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn u64_counters_are_exact() {
        let big = (1u64 << 63) + 12345;
        let text = Value::Int(big).to_json();
        assert_eq!(parse(&text).unwrap().as_u64(), Some(big));
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = parse(" { \"x\" : [ 1 , 2.5 , { \"y\" : null } ] } ").unwrap();
        assert_eq!(v.get("x").unwrap().as_obj(), None);
        let Value::Arr(items) = v.get("x").unwrap() else {
            panic!("not an array");
        };
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(items[2].get("y"), Some(&Value::Null));
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\" 1}", "12 34", "nul", "+5"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn validate_checks_shape_and_reports_paths() {
        let schema = parse(
            r#"{"type":"object","required":["schema","run"],
                "properties":{
                  "schema":{"type":"string","const":"x/v1"},
                  "run":{"type":"object","required":["n","m"],
                         "properties":{"n":{"type":"integer"}}}}}"#,
        )
        .unwrap();
        let good = parse(r#"{"schema":"x/v1","run":{"n":1,"m":2}}"#).unwrap();
        let mut errors = Vec::new();
        validate(&good, &schema, "$", &mut errors);
        assert!(errors.is_empty(), "{errors:?}");

        let bad = parse(r#"{"schema":"x/v2","run":{"n":"one"}}"#).unwrap();
        let mut errors = Vec::new();
        validate(&bad, &schema, "$", &mut errors);
        assert!(
            errors.iter().any(|e| e.starts_with("$.schema")),
            "{errors:?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e == "$.run: missing required field \"m\""),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.starts_with("$.run.n")),
            "{errors:?}"
        );
    }

    #[test]
    fn validate_checks_bounds_and_enums() {
        let schema = parse(
            r#"{"type":"object","properties":{
                  "ratio":{"type":"number","minimum":0.97},
                  "level":{"type":"string","enum":["warn","info"]}}}"#,
        )
        .unwrap();
        let mut errors = Vec::new();
        validate(
            &parse(r#"{"ratio":1.0,"level":"info"}"#).unwrap(),
            &schema,
            "$",
            &mut errors,
        );
        assert!(errors.is_empty(), "{errors:?}");
        validate(
            &parse(r#"{"ratio":0.5,"level":"loud"}"#).unwrap(),
            &schema,
            "$",
            &mut errors,
        );
        assert!(
            errors.iter().any(|e| e.contains("below minimum")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("not in enum")),
            "{errors:?}"
        );
    }

    #[test]
    fn float_roundtrip_shortest() {
        let x = 0.798_123_456_f64;
        let text = Value::Float(x).to_json();
        assert_eq!(parse(&text).unwrap().as_f64(), Some(x));
    }
}

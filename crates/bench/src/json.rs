//! Minimal JSON emission and parsing.
//!
//! The harness writes machine-readable artifacts (`--json`) and the
//! perf-trajectory file `BENCH_baseline.json`. The shapes involved are flat
//! and known at compile time, so a tiny escape-and-format helper replaces
//! the serde/serde_json dependency. The parser half exists for the
//! `perf_gate` binary, which reads those same artifacts back to compare a
//! fresh bench run against the committed baseline.

/// Escape a string for inclusion in a JSON document (adds the quotes).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    fastrak_telemetry::export::json_str(&mut out, s);
    out
}

/// Format an `f64` as a JSON number (JSON has no NaN/Infinity — map to null).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        // Shortest round-trip form, no exponent: 5.0 prints "5", 2.5
        // prints "2.5".
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Format an optional number (`None` → null).
pub fn opt_num(v: Option<f64>) -> String {
    match v {
        Some(v) => num(v),
        None => "null".to_string(),
    }
}

/// Join pre-rendered JSON values into an array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, it) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&it);
    }
    out.push(']');
    out
}

/// Join pre-rendered `(key, value)` pairs into an object.
pub fn object<'a, I: IntoIterator<Item = (&'a str, String)>>(fields: I) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&quote(k));
        out.push(':');
        out.push_str(&v);
    }
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A parsed JSON value. Only what the bench artifacts need — numbers are
/// always `f64`, object keys keep document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Field lookup on an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a complete JSON document. Errors carry a byte offset and message.
pub fn parse(input: &str) -> Result<Value, String> {
    let b = input.as_bytes();
    let mut pos = 0;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Value::Str(s) => s,
                    _ => return Err(format!("object key is not a string at byte {pos}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs don't occur in our artifacts;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // always a valid boundary-to-boundary slice).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xc0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).expect("valid utf8 input"));
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(quote("plain"), "\"plain\"");
    }

    #[test]
    fn numbers_and_nulls() {
        assert_eq!(num(2.5), "2.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(opt_num(None), "null");
    }

    #[test]
    fn composes_objects_and_arrays() {
        let o = object([("x", num(1.0)), ("s", quote("hi"))]);
        assert_eq!(o, "{\"x\":1,\"s\":\"hi\"}");
        assert_eq!(array([num(1.0), num(2.0)]), "[1,2]");
    }

    #[test]
    fn parses_what_it_emits() {
        let doc = object([
            ("suite", quote("scheduler")),
            ("bench", quote("timer \"churn\"\n")),
            ("ns_per_iter", num(33.82)),
            ("skipped", "null".to_string()),
            ("nested", array([num(1.0), quote("x")])),
        ]);
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("suite").unwrap().as_str(), Some("scheduler"));
        assert_eq!(v.get("bench").unwrap().as_str(), Some("timer \"churn\"\n"));
        assert_eq!(v.get("ns_per_iter").unwrap().as_num(), Some(33.82));
        assert_eq!(v.get("skipped"), Some(&Value::Null));
        let nested = v.get("nested").unwrap().as_array().unwrap();
        assert_eq!(nested[0].as_num(), Some(1.0));
        assert_eq!(nested[1].as_str(), Some("x"));
    }

    #[test]
    fn parses_nested_documents_and_unicode_escapes() {
        let v = parse(r#"{"a": {"b": [true, false, null, 1e3]}, "u": "état"}"#).unwrap();
        let inner = v.get("a").unwrap().get("b").unwrap().as_array().unwrap();
        assert_eq!(inner[0], Value::Bool(true));
        assert_eq!(inner[3].as_num(), Some(1000.0));
        assert_eq!(v.get("u").unwrap().as_str(), Some("état"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }
}

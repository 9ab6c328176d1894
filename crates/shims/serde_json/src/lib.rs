//! Offline stand-in for `serde_json`: text rendering and a recursive-descent
//! parser over the serde shim's [`Value`] tree.
//!
//! The parser bounds nesting at [`MAX_DEPTH`] arrays and objects, as real
//! `serde_json` does by default, so hostile input (a protocol line, a disk
//! cache entry, a checkpoint) is an [`Error`], never a stack overflow.

pub use serde::json::Value;
use serde::{DeError, Deserialize, Serialize};

/// Serialization/deserialization failure.
#[derive(Debug, Clone)]
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

/// Renders a value as compact JSON.
///
/// # Errors
///
/// Never fails in this shim; the `Result` mirrors the real API.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(serde::ser_compact(&value.as_value()))
}

/// Renders a value as pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Never fails in this shim; the `Result` mirrors the real API.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(serde::ser_pretty(&value.as_value()))
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Parses JSON text into any deserializable type.
///
/// # Errors
///
/// Malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse_value(s)?;
    Ok(T::from_value(&v)?)
}

/// The deepest nesting of arrays and objects the parser accepts.
pub const MAX_DEPTH: usize = 128;

fn parse_value(s: &str) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    let v = parse(bytes, &mut pos, MAX_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error(format!("trailing input at byte {pos}")));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value at `pos`, entering at most `depth` more arrays or
/// objects.
fn parse(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == 0 {
        return Err(Error(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )));
    }
    match b.get(*pos) {
        None => Err(Error("unexpected end of input".into())),
        Some(b'n') => lit(b, pos, "null", Value::Null),
        Some(b't') => lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => lit(b, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse(b, pos, depth - 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    other => return Err(Error(format!("expected , or ], got {other:?}"))),
                }
            }
        }
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
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(Error("expected ':' in object".into()));
                }
                *pos += 1;
                let val = parse(b, pos, depth - 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    other => return Err(Error(format!("expected , or }}, got {other:?}"))),
                }
            }
        }
        Some(_) => parse_number(b, pos).map(Value::Num),
    }
}

fn lit(b: &[u8], pos: &mut usize, text: &str, v: Value) -> Result<Value, Error> {
    if b[*pos..].starts_with(text.as_bytes()) {
        *pos += text.len();
        Ok(v)
    } else {
        Err(Error(format!("invalid literal at byte {pos}", pos = *pos)))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, Error> {
    if b.get(*pos) != Some(&b'"') {
        return Err(Error("expected string".into()));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(Error("unterminated string".into())),
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
                            .ok_or_else(|| Error("bad \\u escape".into()))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| Error("bad \\u escape".into()))?,
                            16,
                        )
                        .map_err(|_| Error("bad \\u escape".into()))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| Error("bad \\u code point".into()))?,
                        );
                        *pos += 4;
                    }
                    other => return Err(Error(format!("bad escape {other:?}"))),
                }
                *pos += 1;
            }
            Some(_) => {
                // Bulk-consume the run up to the next quote or escape and
                // validate it once. Per-char validation of the remaining
                // buffer would make parsing a long string quadratic.
                let start = *pos;
                while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                    *pos += 1;
                }
                let chunk = std::str::from_utf8(&b[start..*pos])
                    .map_err(|_| Error("invalid utf-8".into()))?;
                out.push_str(chunk);
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, Error> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| Error(format!("invalid number at byte {start}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let src = r#"{"a": [1, 2.5, -3], "b": {"c": "x\"y"}, "d": null, "e": true}"#;
        let v: Value = from_str(src).unwrap();
        assert_eq!(v["a"][1], 2.5);
        assert_eq!(v["b"]["c"], "x\"y");
        assert_eq!(v["d"], Value::Null);
        assert_eq!(v["e"], true);
        let back: Value = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v: Value = from_str(r#"[{"k": 1}, "two"]"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.0.contains("nesting deeper than 128"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(from_str::<Value>(&objects).is_err());
        // Far past any stack: an error, not an abort.
        assert!(from_str::<Value>(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{bad}").is_err());
        assert!(from_str::<Value>("[1,").is_err());
        assert!(from_str::<Value>("").is_err());
    }
}

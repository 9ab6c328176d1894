//! Offline stand-in for `serde`.
//!
//! The real serde's `Serializer`/`Deserializer` visitor machinery is far
//! more than this workspace needs: every use here is `#[derive(Serialize,
//! Deserialize)]` on plain structs/enums followed by `serde_json`
//! to/from-string calls. This shim collapses the data model to a single
//! JSON [`json::Value`] tree; the derive macros (re-exported from the
//! sibling `serde_derive` shim) generate `to_value`/`from_value` impls.

pub use serde_derive::{Deserialize, Serialize};

pub mod json {
    //! The JSON value tree shared with the `serde_json` shim.

    use std::fmt;
    use std::ops::Index;

    /// A parsed or to-be-serialized JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Array(Vec<Value>),
        /// An object; insertion-ordered.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// The object entries, if this is an object.
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Object(m) => Some(m),
                _ => None,
            }
        }

        /// The array elements, if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(a) => Some(a),
                _ => None,
            }
        }

        /// The string contents, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric value, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The boolean, if this is a boolean.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// Object field lookup (`None` when absent or not an object).
        pub fn get(&self, key: &str) -> Option<&Value> {
            self.as_object()
                .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
        }
    }

    /// `value["field"]`, yielding `Null` for absent keys (like serde_json).
    impl Index<&str> for Value {
        type Output = Value;
        fn index(&self, key: &str) -> &Value {
            const NULL: Value = Value::Null;
            self.get(key).unwrap_or(&NULL)
        }
    }

    impl Index<usize> for Value {
        type Output = Value;
        fn index(&self, idx: usize) -> &Value {
            const NULL: Value = Value::Null;
            self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
        }
    }

    impl PartialEq<&str> for Value {
        fn eq(&self, other: &&str) -> bool {
            matches!(self, Value::Str(s) if s == other)
        }
    }

    impl PartialEq<bool> for Value {
        fn eq(&self, other: &bool) -> bool {
            matches!(self, Value::Bool(b) if b == other)
        }
    }

    impl PartialEq<f64> for Value {
        fn eq(&self, other: &f64) -> bool {
            matches!(self, Value::Num(n) if n == other)
        }
    }

    impl fmt::Display for Value {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}", crate::ser_compact(self))
        }
    }
}

use json::Value;
use std::borrow::Cow;

/// Deserialization failure.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl DeError {
    /// Builds an error from any message.
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Conversion into the JSON data model.
pub trait Serialize {
    /// Renders `self` as a JSON value tree.
    fn to_value(&self) -> Value;

    /// The value tree to render: borrowed when `self` already is one, so
    /// rendering a [`Value`] copies nothing.
    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

/// Conversion from the JSON data model.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a JSON value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ------------------------------------------------------------ primitives

macro_rules! impl_num {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Num(*self as f64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Num(n) => Ok(*n as $t),
                    other => Err(DeError::custom(format!(
                        "expected number, got {other:?}"
                    ))),
                }
            }
        }
    )*};
}
impl_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_bool().ok_or_else(|| DeError::custom("expected bool"))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| DeError::custom("expected string"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Serialize for std::rc::Rc<str> {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

// ----------------------------------------------------- derive-impl support

/// Looks up a struct field during derived deserialization. Absent keys
/// deserialize from `Null` so `Option` fields tolerate omission.
pub fn field<T: Deserialize>(obj: &[(String, Value)], name: &str) -> Result<T, DeError> {
    match obj.iter().find(|(k, _)| k == name) {
        Some((_, v)) => {
            T::from_value(v).map_err(|e| DeError::custom(format!("field `{name}`: {}", e.0)))
        }
        None => T::from_value(&Value::Null)
            .map_err(|_| DeError::custom(format!("missing field `{name}`"))),
    }
}

// ------------------------------------------------------------- rendering

/// Compact JSON text for a value (shared with the serde_json shim).
pub fn ser_compact(v: &Value) -> String {
    let mut s = String::new();
    render(v, None, 0, &mut s);
    s
}

/// Pretty-printed JSON text (two-space indent).
pub fn ser_pretty(v: &Value) -> String {
    let mut s = String::new();
    render(v, Some(2), 0, &mut s);
    s
}

fn render(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => out.push_str(&render_num(*n)),
        Value::Str(s) => render_str(s, out),
        Value::Array(items) => {
            render_seq(items.iter(), indent, depth, out, '[', ']', |item, o| {
                render(item, indent, depth + 1, o);
            });
        }
        Value::Object(fields) => {
            render_seq(
                fields.iter(),
                indent,
                depth,
                out,
                '{',
                '}',
                |(k, val), o| {
                    render_str(k, o);
                    o.push(':');
                    if indent.is_some() {
                        o.push(' ');
                    }
                    render(val, indent, depth + 1, o);
                },
            );
        }
    }
}

fn render_seq<I: ExactSizeIterator>(
    items: I,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
    open: char,
    close: char,
    mut each: impl FnMut(I::Item, &mut String),
) {
    out.push(open);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        each(item, out);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
    }
    out.push(close);
}

fn render_num(n: f64) -> String {
    if !n.is_finite() {
        return "null".to_owned();
    }
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn render_str(s: &str, out: &mut String) {
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

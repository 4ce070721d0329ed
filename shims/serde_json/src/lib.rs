//! Std-only offline shim for the subset of `serde_json` this workspace
//! uses: a [`Value`] tree, a strict recursive-descent parser, compact and
//! pretty printers, and a [`json!`] construction macro.
//!
//! Unlike the real crate there is no `Serialize`/`Deserialize` bridge —
//! everything is value-based.  Object keys are kept in a `BTreeMap`, so
//! rendering is deterministic (sorted keys), which the scheduler daemon
//! relies on for reproducible snapshots.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "stands in for an upstream crate; the workspace determinism bans do not apply to it"
)]

use std::fmt;

pub mod value;
pub use value::{Map, Number, Value};

mod parse;

/// A parse or print error with a byte offset when parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    /// Byte offset of the problem in the input (parse errors only).
    pub offset: usize,
}

impl Error {
    pub(crate) fn new(msg: impl Into<String>, offset: usize) -> Self {
        Error {
            msg: msg.into(),
            offset,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for Error {}

/// Types constructible from a parsed [`Value`] (allows the upstream
/// `from_str::<serde_json::Value>(..)` turbofish to keep working).
pub trait FromJson: Sized {
    /// Converts a parsed value into `Self`.
    fn from_json(value: Value) -> Result<Self, Error>;
}

impl FromJson for Value {
    fn from_json(value: Value) -> Result<Self, Error> {
        Ok(value)
    }
}

/// Types printable as JSON (the workspace only ever prints [`Value`]s).
pub trait ToJson {
    /// Borrowed view of the value tree to print.
    fn to_json(&self) -> &Value;
}

impl ToJson for Value {
    fn to_json(&self) -> &Value {
        self
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> &Value {
        (**self).to_json()
    }
}

/// Parses `s` into `T` (in practice: [`Value`]).
pub fn from_str<T: FromJson>(s: &str) -> Result<T, Error> {
    T::from_json(parse::parse(s)?)
}

/// Compact one-line rendering.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, value.to_json(), None, 0);
    Ok(out)
}

/// Indented multi-line rendering (2 spaces, like upstream).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, value.to_json(), Some(2), 0);
    Ok(out)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => write_seq(
            out,
            indent,
            depth,
            '[',
            ']',
            items.iter(),
            |out, item, d| write_value(out, item, indent, d),
        ),
        Value::Object(map) => write_seq(
            out,
            indent,
            depth,
            '{',
            '}',
            map.iter(),
            |out, (k, val), d| {
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, d);
            },
        ),
    }
}

fn write_seq<I: ExactSizeIterator>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: I,
    mut write_item: impl FnMut(&mut String, I::Item, usize),
) {
    out.push(open);
    let len = items.len();
    for (i, item) in items.enumerate() {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        write_item(out, item, depth + 1);
        if i + 1 < len {
            out.push(',');
        }
    }
    if len > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * depth));
        }
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Builds a [`Value`]: `json!(null)`, `json!([a, b])`,
/// `json!({"k": v, ...})`, or `json!(expr)` for any `expr: Into<Value>`.
///
/// Object keys must be string literals and values plain expressions
/// (nest with an inner `json!` call) — the full upstream token grammar is
/// not reproduced.  Every value is taken by value and moved in, so an
/// owned `Value`, `String` or `Vec` is not copied; a caller that keeps
/// its value passes `.clone()` or a `&str`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($value:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::Value::from($value) ),* ])
    };
    ({ $($key:literal : $value:expr),* $(,)? }) => {{
        let mut map = $crate::Map::new();
        $( map.insert(($key).to_string(), $crate::Value::from($value)); )*
        $crate::Value::Object(map)
    }};
    ($other:expr) => { $crate::Value::from($other) };
}

/// Alias so `serde_json::map::Map`-style paths resolve.
pub mod map {
    /// Object representation (sorted keys).
    pub type Map = std::collections::BTreeMap<String, crate::Value>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_nested_values() {
        let v = json!({
            "name": "sbs",
            "n": 3u64,
            "pi": 3.5,
            "ok": true,
            "items": json!([1i64, 2i64]),
            "none": json!(null),
        });
        assert_eq!(v["name"], "sbs");
        assert_eq!(v["n"].as_u64(), Some(3));
        assert!(v["pi"].is_number());
        assert_eq!(v["items"][1].as_i64(), Some(2));
        assert!(v["none"].is_null());
    }

    #[test]
    fn json_macro_moves_its_values() {
        // Each arm must move an owned value in, not deep-copy it: the
        // array's buffer is the same allocation after the macro.
        fn fresh() -> (Value, *const Value) {
            let items = vec![Value::from(1u64), Value::from("two")];
            let ptr = items.as_ptr();
            (Value::Array(items), ptr)
        }
        fn buffer(v: &Value) -> *const Value {
            match v {
                Value::Array(items) => items.as_ptr(),
                other => panic!("not an array: {other:?}"),
            }
        }
        let (v, ptr) = fresh();
        assert_eq!(buffer(&json!(v)), ptr, "bare arm copied");
        let (v, ptr) = fresh();
        assert_eq!(buffer(&json!([v])[0]), ptr, "array arm copied");
        let (v, ptr) = fresh();
        assert_eq!(buffer(&json!({ "k": v })["k"]), ptr, "object arm copied");
    }

    #[test]
    fn round_trips_through_text() {
        let v = json!({
            "a": json!([1i64, 2i64, json!({"b": "x \"quoted\" \n line"})]),
            "f": -1.25,
            "big": u64::MAX,
            "neg": i64::MIN,
        });
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back: Value = from_str(&text).expect("parse back");
            assert_eq!(back, v);
        }
    }

    #[test]
    fn parser_accepts_standard_forms() {
        let v: Value =
            from_str(r#" { "s" : "\u0041\t" , "arr" : [ null , true , false , 1e2 , -0.5 ] } "#)
                .expect("parse");
        assert_eq!(v["s"], "A\t");
        assert_eq!(v["arr"][3].as_f64(), Some(100.0));
        assert_eq!(v["arr"][4].as_f64(), Some(-0.5));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "nul", "1 2", "\"\\q\"", "{'a':1}",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn pretty_printing_is_deterministic() {
        let v = json!({"b": 1i64, "a": 2i64});
        // BTreeMap ordering: keys sorted.
        assert_eq!(to_string(&v).unwrap(), r#"{"a":2,"b":1}"#);
    }
}

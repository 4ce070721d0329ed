//! Std-only offline shim for the subset of `serde_json` this workspace
//! uses: a [`Value`] tree, a strict recursive-descent pull [`Reader`]
//! that [`from_str`] builds its tree on, compact and pretty printers
//! that write bytes ([`to_writer`]), and a [`json!`] construction macro.
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

mod read;
pub use read::{Item, Reader, Seq};

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

/// Parses `s` into `T` (in practice: [`Value`]) through [`Reader`].
pub fn from_str<T: FromJson>(s: &str) -> Result<T, Error> {
    let mut reader = Reader::new(s);
    let value = reader.value()?;
    reader.finish()?;
    T::from_json(value)
}

/// Appends the compact one-line rendering of `value` to `out`.
pub fn to_writer<T: ToJson + ?Sized>(out: &mut Vec<u8>, value: &T) -> Result<(), Error> {
    write_value(out, value.to_json(), None, 0);
    Ok(())
}

/// Compact one-line rendering.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Vec::new();
    to_writer(&mut out, value)?;
    into_string(out)
}

/// Indented multi-line rendering (2 spaces, like upstream).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Vec::new();
    write_value(&mut out, value.to_json(), Some(2), 0);
    into_string(out)
}

fn into_string(out: Vec<u8>) -> Result<String, Error> {
    String::from_utf8(out).map_err(|e| Error::new(format!("printed invalid UTF-8: {e}"), 0))
}

fn write_value(out: &mut Vec<u8>, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => write_seq(
            out,
            indent,
            depth,
            b'[',
            b']',
            items.iter(),
            |out, item, d| write_value(out, item, indent, d),
        ),
        Value::Object(map) => write_seq(
            out,
            indent,
            depth,
            b'{',
            b'}',
            map.iter(),
            |out, (k, val), d| {
                write_escaped(out, k);
                out.push(b':');
                if indent.is_some() {
                    out.push(b' ');
                }
                write_value(out, val, indent, d);
            },
        ),
    }
}

fn write_seq<I: ExactSizeIterator>(
    out: &mut Vec<u8>,
    indent: Option<usize>,
    depth: usize,
    open: u8,
    close: u8,
    items: I,
    mut write_item: impl FnMut(&mut Vec<u8>, I::Item, usize),
) {
    out.push(open);
    let len = items.len();
    for (i, item) in items.enumerate() {
        if let Some(w) = indent {
            out.push(b'\n');
            out.extend(std::iter::repeat_n(b' ', w * (depth + 1)));
        }
        write_item(out, item, depth + 1);
        if i + 1 < len {
            out.push(b',');
        }
    }
    if len > 0 {
        if let Some(w) = indent {
            out.push(b'\n');
            out.extend(std::iter::repeat_n(b' ', w * depth));
        }
    }
    out.push(close);
}

/// Writes a number as [`Number`]'s `Display` spells it; integers are
/// formatted by hand, in place.
fn write_number(out: &mut Vec<u8>, n: Number) {
    match n {
        Number::Int(v) => {
            if v < 0 {
                out.push(b'-');
            }
            write_u64(out, v.unsigned_abs());
        }
        Number::UInt(v) => write_u64(out, v),
        Number::Float(_) => {
            use std::io::Write as _;
            // Writing into a `Vec` cannot fail.
            let _ = write!(out, "{n}");
        }
    }
}

fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Writes `s` quoted; runs of bytes that need no escape go in one move.
fn write_escaped(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let control;
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => {
                control = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(b >> 4)],
                    HEX[usize::from(b & 15)],
                ];
                &control
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        out.extend_from_slice(escape);
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
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

    /// The printer as it was before it wrote bytes: one `String` per
    /// number, one `push` per character.  `to_writer` is held to it.
    mod old_printer {
        use crate::Value;

        pub fn to_string(v: &Value, indent: Option<usize>) -> String {
            let mut out = String::new();
            write_value(&mut out, v, indent, 0);
            out
        }

        fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
            let seq = |out: &mut String, open, close, items: Vec<(Option<&String>, &Value)>| {
                out.push(open);
                let len = items.len();
                for (i, (key, item)) in items.into_iter().enumerate() {
                    if let Some(w) = indent {
                        out.push('\n');
                        out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
                    }
                    if let Some(k) = key {
                        write_escaped(out, k);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                    }
                    write_value(out, item, indent, depth + 1);
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
            };
            match v {
                Value::Null => out.push_str("null"),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Number(n) => out.push_str(&n.to_string()),
                Value::String(s) => write_escaped(out, s),
                Value::Array(items) => {
                    seq(out, '[', ']', items.iter().map(|i| (None, i)).collect())
                }
                Value::Object(map) => seq(
                    out,
                    '{',
                    '}',
                    map.iter().map(|(k, i)| (Some(k), i)).collect(),
                ),
            }
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
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
    }

    #[test]
    fn to_writer_prints_what_the_old_printer_printed() {
        let control: String = (0u8..0x20).map(char::from).collect();
        let corpus = [
            json!(1.0),
            json!(-3.0),
            json!(1e15),
            json!(123456789012345.0),
            json!(0.1),
            json!(-2.5e-7),
            json!(f64::NAN),
            json!(f64::INFINITY),
            json!(f64::NEG_INFINITY),
            json!(control.as_str()),
            json!("tab\tquote\"back\\slash\u{7f}"),
            json!("héllo ✓ \u{1F600} 東京"),
            json!(u64::MAX),
            json!(i64::MIN),
            json!(i64::MAX),
            json!(0u64),
            json!(-1i64),
            json!(""),
            json!([]),
            Value::Object(Map::new()),
            json!({
                "ok": true,
                "id": 7u64,
                "corr": 18_446_744_073_709_551_615u64,
                "started": json!([1u64, 2u64, json!(null), 2.0]),
                "nested": json!({"k\u{1}ey": json!([Value::Object(Map::new()), json!([])]), "f": -0.0}),
                "text": "# HELP sbs_x x\n# TYPE sbs_x counter\nsbs_x 1\n",
            }),
        ];
        for v in &corpus {
            let mut out = b"prefix".to_vec();
            to_writer(&mut out, v).unwrap();
            let printed = std::str::from_utf8(&out).unwrap();
            assert_eq!(
                printed.strip_prefix("prefix"),
                Some(&*old_printer::to_string(v, None))
            );
            assert_eq!(to_string(v).unwrap(), old_printer::to_string(v, None));
            assert_eq!(
                to_string_pretty(v).unwrap(),
                old_printer::to_string(v, Some(2))
            );
        }
        assert_eq!(to_string(&json!(1.0)).unwrap(), "1.0");
        assert_eq!(to_string(&json!(f64::NAN)).unwrap(), "null");
        assert_eq!(to_string(&json!("\u{1}")).unwrap(), "\"\\u0001\"");
    }

    #[test]
    fn syntax_errors_keep_their_text_and_offset() {
        // Each message and offset as the parser gave them before it was
        // split into a pull reader.
        for (input, expected) in [
            ("", "JSON error at byte 0: unexpected end of input"),
            ("{", "JSON error at byte 1: expected '\"'"),
            ("[1,]", "JSON error at byte 3: unexpected character"),
            ("[1 2]", "JSON error at byte 3: expected ',' or ']'"),
            ("{\"a\":}", "JSON error at byte 5: unexpected character"),
            ("{\"a\" 1}", "JSON error at byte 5: expected ':'"),
            (
                "{\"a\":1 \"b\":2}",
                "JSON error at byte 7: expected ',' or '}'",
            ),
            ("{\"a\":1,}", "JSON error at byte 7: expected '\"'"),
            (
                "nul",
                "JSON error at byte 0: invalid literal (expected null)",
            ),
            (
                "1 2",
                "JSON error at byte 2: trailing characters after value",
            ),
            ("\"\\q\"", "JSON error at byte 2: invalid escape"),
            ("{'a':1}", "JSON error at byte 1: expected '\"'"),
            ("\"abc", "JSON error at byte 4: unterminated string"),
            (
                "\"a\u{1}\"",
                "JSON error at byte 2: control character in string",
            ),
            ("\"\\ud800\"", "JSON error at byte 7: lone high surrogate"),
            ("\"\\udc00\"", "JSON error at byte 7: lone low surrogate"),
            (
                "\"\\ud800\\u0041\"",
                "JSON error at byte 13: invalid low surrogate",
            ),
            ("\"\\u12\"", "JSON error at byte 3: truncated \\u escape"),
            ("\"\\u12zz\"", "JSON error at byte 3: bad \\u escape"),
            // A sign is not a hex digit.
            ("\"\\u+041\"", "JSON error at byte 3: bad \\u escape"),
            ("\"\\u-041\"", "JSON error at byte 3: bad \\u escape"),
            ("\"\\ud83d\\u+c00\"", "JSON error at byte 9: bad \\u escape"),
            ("\"\\u1", "JSON error at byte 3: truncated \\u escape"),
            ("007", "JSON error at byte 3: leading zero"),
            ("-", "JSON error at byte 1: expected digit"),
            ("1.", "JSON error at byte 2: expected digit"),
            ("1e+", "JSON error at byte 3: expected digit"),
            ("@", "JSON error at byte 0: unexpected character"),
        ] {
            let err = from_str::<Value>(input).unwrap_err();
            assert_eq!(err.to_string(), expected, "{input:?}");
        }
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&deep(128)).is_ok());
        assert_eq!(
            from_str::<Value>(&deep(129)).unwrap_err().to_string(),
            "JSON error at byte 128: nesting too deep"
        );
    }

    #[test]
    fn reader_borrows_plain_keys_and_skips_what_it_is_not_asked_for() {
        let line = r#" {"op":"submit","\u006eodes":4,"x":[1,{"y":[null]}],"big":18446744073709551615,"f":1.0} "#;
        let mut r = Reader::new(line);
        let Item::Object(mut obj) = r.item().unwrap() else {
            panic!("an object")
        };
        let mut seen = Vec::new();
        while let Some(key) = r.key(&mut obj).unwrap() {
            let borrowed = matches!(key, std::borrow::Cow::Borrowed(_));
            let value = match &*key {
                "x" => {
                    r.skip().unwrap();
                    None
                }
                _ => Some(r.item().unwrap()),
            };
            seen.push((key.into_owned(), borrowed, value));
        }
        r.finish().unwrap();
        assert_eq!(
            seen,
            [
                ("op".into(), true, Some(Item::Str("submit".into()))),
                ("nodes".into(), false, Some(Item::Number(Number::Int(4)))),
                ("x".into(), true, None),
                (
                    "big".into(),
                    true,
                    Some(Item::Number(Number::UInt(u64::MAX)))
                ),
                ("f".into(), true, Some(Item::Number(Number::Float(1.0)))),
            ]
        );
        // Skipping checks syntax and depth like reading does.
        for bad in [
            r#"[1,{"a" 2}]"#,
            &format!("{}{}", "[".repeat(129), "]".repeat(129)),
        ] {
            let mut r = Reader::new(bad);
            assert_eq!(
                r.skip().unwrap_err(),
                from_str::<Value>(bad).unwrap_err(),
                "{bad}"
            );
        }
    }
}

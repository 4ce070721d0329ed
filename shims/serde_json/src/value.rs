//! The JSON value tree.

use std::collections::BTreeMap;
use std::fmt;

/// Object representation; `BTreeMap` keeps rendering deterministic.
pub type Map = BTreeMap<String, Value>;

/// A JSON number: integer-preserving like upstream `serde_json`.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// A signed integer (anything that fits `i64`).
    Int(i64),
    /// An unsigned integer above `i64::MAX`.
    UInt(u64),
    /// A float.
    Float(f64),
}

impl Number {
    /// As `i64` when exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::Int(v) => Some(v),
            Number::UInt(v) => i64::try_from(v).ok(),
            Number::Float(_) => None,
        }
    }

    /// As `u64` when exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::Int(v) => u64::try_from(v).ok(),
            Number::UInt(v) => Some(v),
            Number::Float(_) => None,
        }
    }

    /// As `f64` (lossy for huge integers, like upstream).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Number::Int(v) => Some(v as f64),
            Number::UInt(v) => Some(v as f64),
            Number::Float(v) => Some(v),
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Number::Int(a), Number::Int(b)) => a == b,
            (Number::UInt(a), Number::UInt(b)) => a == b,
            (Number::Int(a), Number::UInt(b)) | (Number::UInt(b), Number::Int(a)) => {
                u64::try_from(*a) == Ok(*b)
            }
            // Mixed int/float compares numerically so parse(print(v)) == v
            // holds for integral floats.
            _ => self.as_f64() == other.as_f64(),
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::Int(v) => write!(f, "{v}"),
            Number::UInt(v) => write!(f, "{v}"),
            Number::Float(v) => {
                if v.is_finite() {
                    if v == v.trunc() && v.abs() < 1e15 {
                        write!(f, "{v:.1}") // keep the ".0" so it re-parses as float
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    // JSON has no Inf/NaN; null mirrors upstream's lossy mode.
                    write!(f, "null")
                }
            }
        }
    }
}

/// Any JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with sorted keys.
    Object(Map),
}

impl Value {
    /// `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// `true` for [`Value::Number`].
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }

    /// `true` for [`Value::String`].
    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    /// Borrowed string content.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean content.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer content.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// Unsigned integer content.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// Float content (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// Borrowed array content.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrowed object content.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object field lookup (None for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::to_string(self).expect("infallible"))
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl PartialEq<i64> for Value {
    fn eq(&self, other: &i64) -> bool {
        self.as_i64() == Some(*other)
    }
}

impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

macro_rules! from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::Number(Number::Int(v as i64)) }
        }
    )*};
}

from_signed!(i8, i16, i32, i64, isize);

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                match i64::try_from(v) {
                    Ok(i) => Value::Number(Number::Int(i)),
                    Err(_) => Value::Number(Number::UInt(v as u64)),
                }
            }
        }
    )*};
}

from_unsigned!(u8, u16, u32, u64, usize);

macro_rules! from_simple {
    ($($t:ty => $variant:expr),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value { ($variant)(v) }
        }
    )*};
}

from_simple!(
    f64 => |v| Value::Number(Number::Float(v)),
    f32 => |v: f32| Value::Number(Number::Float(v as f64)),
    bool => Value::Bool,
    String => Value::String,
    Map => Value::Object
);

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl<T: Into<Value>, const N: usize> From<[T; N]> for Value {
    fn from(items: [T; N]) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(items: &[T]) -> Value {
        Value::Array(items.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

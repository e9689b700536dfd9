//! Offline stand-in for `serde`.
//!
//! The build container cannot reach crates.io, so the workspace vendors a
//! minimal serialization framework under the same crate name. The model is a
//! simple JSON-like value tree ([`Value`]) rather than upstream's
//! visitor-based zero-copy design: every type serializes by building a
//! `Value` and deserializes by reading one. `#[derive(Serialize,
//! Deserialize)]` is provided by the sibling `serde_derive` proc-macro and
//! re-exported here, so `#[derive(serde::Serialize)]` and
//! `use serde::{Serialize, Deserialize}` work unchanged. The only field
//! attribute honored is `#[serde(default)]`.

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-like value tree: the wire model of this stand-in.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (used when the value exceeds `i64::MAX`).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered fields.
    Object(Vec<(String, Value)>),
}

impl Default for Value {
    /// `Null`, matching upstream `serde_json::Value` — lets structs use
    /// `#[serde(default)]` on `Value` fields.
    fn default() -> Value {
        Value::Null
    }
}

impl Value {
    /// Borrow the object fields, if this value is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Looks up a field by name in an object's field list.
pub fn find_field<'a>(fields: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Deserialization error: a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// Builds an error from any displayable message.
    pub fn custom(msg: impl std::fmt::Display) -> Self {
        DeError(msg.to_string())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can serialize themselves into a [`Value`].
pub trait Serialize {
    /// Builds the value-tree representation of `self`.
    fn to_value(&self) -> Value;
}

/// Types that can rebuild themselves from a [`Value`].
pub trait Deserialize: Sized {
    /// Parses `self` out of a value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::custom(format!("expected bool, got {other:?}"))),
        }
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let wide: i64 = match v {
                    Value::Int(i) => *i,
                    Value::UInt(u) => i64::try_from(*u)
                        .map_err(|_| DeError::custom("unsigned value overflows signed target"))?,
                    other => return Err(DeError::custom(format!("expected integer, got {other:?}"))),
                };
                <$t>::try_from(wide).map_err(|_| DeError::custom("integer out of range"))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let wide = *self as u64;
                match i64::try_from(wide) {
                    Ok(i) => Value::Int(i),
                    Err(_) => Value::UInt(wide),
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let wide: u64 = match v {
                    Value::Int(i) => u64::try_from(*i)
                        .map_err(|_| DeError::custom("negative value for unsigned target"))?,
                    Value::UInt(u) => *u,
                    other => return Err(DeError::custom(format!("expected integer, got {other:?}"))),
                };
                <$t>::try_from(wide).map_err(|_| DeError::custom("integer out of range"))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Float(x) => Ok(*x),
            Value::Int(i) => Ok(*i as f64),
            Value::UInt(u) => Ok(*u as f64),
            // serde_json writes non-finite floats as null; accept the
            // round-trip.
            Value::Null => Ok(f64::NAN),
            other => Err(DeError::custom(format!("expected number, got {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::custom(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for &str {
    fn to_value(&self) -> Value {
        Value::Str((*self).to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::custom(format!("expected array, got {other:?}"))),
        }
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

impl<T: Serialize> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(usize::from_value(&7usize.to_value()).unwrap(), 7);
        assert_eq!(i8::from_value(&(-3i8).to_value()).unwrap(), -3);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(
            String::from_value(&String::from("hi").to_value()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1.0f64, 2.0, 3.0];
        assert_eq!(Vec::<f64>::from_value(&v.to_value()).unwrap(), v);
        let o: Option<u32> = None;
        assert_eq!(Option::<u32>::from_value(&o.to_value()).unwrap(), None);
        let o = Some(4u32);
        assert_eq!(Option::<u32>::from_value(&o.to_value()).unwrap(), Some(4));
    }

    #[test]
    fn type_mismatch_errors() {
        assert!(bool::from_value(&Value::Int(1)).is_err());
        assert!(String::from_value(&Value::Null).is_err());
        assert!(u64::from_value(&Value::Int(-1)).is_err());
    }
}

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
///
/// A float array has two forms: the generic [`Value::Array`] of
/// [`Value::Float`]s (what JSON parsing and hand-built trees produce) and
/// the packed [`Value::FloatArray`] (what `Vec<f64>`, `[f64]` and the wire
/// decoder produce, 8 bytes per element instead of a 32-byte `Value`
/// each). The two forms of the same floats compare equal, render to the
/// same JSON and encode to the same wire bytes.
#[derive(Debug, Clone)]
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
    /// Array of floats, packed: the same value as an `Array` of `Float`s.
    FloatArray(Vec<f64>),
}

/// Structural equality in which a `FloatArray` equals the `Array` of the
/// same `Float`s, element by element with `f64`'s `==` (so, as for
/// `Float`, a NaN element compares unequal).
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::UInt(a), Value::UInt(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => a == b,
            (Value::FloatArray(a), Value::FloatArray(b)) => a == b,
            (Value::FloatArray(xs), Value::Array(items))
            | (Value::Array(items), Value::FloatArray(xs)) => {
                xs.len() == items.len()
                    && xs.iter().zip(items).all(|(x, item)| matches!(item, Value::Float(f) if f == x))
            }
            _ => false,
        }
    }
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

    /// Builds the value of a slice of `Self` (what `Vec<Self>` and
    /// `[Self]` serialize through): a generic [`Value::Array`] unless the
    /// element type packs, as `f64` does into [`Value::FloatArray`].
    fn slice_to_value(items: &[Self]) -> Value
    where
        Self: Sized,
    {
        Value::Array(items.iter().map(Serialize::to_value).collect())
    }
}

/// Types that can rebuild themselves from a [`Value`].
pub trait Deserialize: Sized {
    /// Parses `self` out of a value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// Parses a `Vec<Self>` out of either array form; `f64` overrides it
    /// to copy a [`Value::FloatArray`] in one pass.
    fn vec_from_value(v: &Value) -> Result<Vec<Self>, DeError> {
        elements_from_value(v)
    }
}

/// Element by element, from either array form. A packed array reaches
/// element types other than `f64` too: any all-float array (`Vec<f32>`,
/// `Vec<Option<f64>>` with no `None`) decodes from the wire packed.
fn elements_from_value<T: Deserialize>(v: &Value) -> Result<Vec<T>, DeError> {
    match v {
        Value::Array(items) => items.iter().map(T::from_value).collect(),
        Value::FloatArray(xs) => xs.iter().map(|&x| T::from_value(&Value::Float(x))).collect(),
        other => Err(DeError::custom(format!("expected array, got {other:?}"))),
    }
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

    fn slice_to_value(items: &[f64]) -> Value {
        Value::FloatArray(items.to_vec())
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

    fn vec_from_value(v: &Value) -> Result<Vec<f64>, DeError> {
        match v {
            Value::FloatArray(xs) => Ok(xs.clone()),
            other => elements_from_value(other),
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
        T::slice_to_value(self)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::vec_from_value(v)
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
        T::slice_to_value(self)
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
        // Both array forms read back, for f64 and for any other element
        // type a float can parse as.
        let generic = Value::Array(v.iter().map(|&x| Value::Float(x)).collect());
        assert_eq!(Vec::<f64>::from_value(&generic).unwrap(), v);
        let packed = Value::FloatArray(v.clone());
        assert_eq!(Vec::<f32>::from_value(&packed).unwrap(), vec![1.0f32, 2.0, 3.0]);
        assert_eq!(Vec::<Option<f64>>::from_value(&packed).unwrap(), vec![Some(1.0), Some(2.0), Some(3.0)]);
        assert!(Vec::<f64>::from_value(&Value::Int(1)).is_err());
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

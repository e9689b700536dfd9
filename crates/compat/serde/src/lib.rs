//! Offline stand-in for `serde`.
//!
//! The build container cannot reach crates.io, so the workspace vendors a
//! minimal serialization framework under the same crate name. Serializing
//! is one emission walk: [`Serialize::serialize`] describes a value as
//! scalar, array and object calls into a [`Sink`]. [`TreeSink`] turns the
//! walk into a JSON-like [`Value`] tree ([`Serialize::to_value`], what the
//! JSON writer renders); the wire crate's encoder writes, or only counts,
//! the binary bytes from the same walk without building a tree.
//! Deserializing reads a [`Value`]. `#[derive(Serialize, Deserialize)]` is
//! provided by the sibling `serde_derive` proc-macro and re-exported here,
//! so `#[derive(serde::Serialize)]` and `use serde::{Serialize,
//! Deserialize}` work unchanged. The only field attribute honored is
//! `#[serde(default)]`.

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

/// How the elements of an array look, decided before any is emitted: a
/// packed layout needs its kind up front, and only a whole array of one
/// scalar kind packs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Packing {
    /// Elements of any kind (and every empty array).
    Generic,
    /// Every element is an [`Sink::int`].
    Ints,
    /// Every element is a [`Sink::float`].
    Floats,
}

/// The kind of scalar a value emits, which is what [`Packing`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scalar {
    /// A single [`Sink::int`].
    Int,
    /// A single [`Sink::float`].
    Float,
    /// Anything else: `null`, a bool, a `uint`, a string, or a container.
    Other,
}

/// The receiver of one emission walk ([`Serialize::serialize`]).
///
/// A walk is a sequence of scalar calls, arrays and objects. An array is
/// `begin_array(len, packing)`, exactly `len` element walks, then `end`;
/// an object is `begin_object(len)`, exactly `len` pairs of `key` and one
/// value walk, then `end`. [`TreeSink`] builds the [`Value`] tree from a
/// walk; the wire crate's encoder writes or counts its bytes from the same
/// walk, so one schema serves every output.
pub trait Sink {
    /// JSON `null`.
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, v: bool);
    /// A signed integer.
    fn int(&mut self, v: i64);
    /// An unsigned integer.
    fn uint(&mut self, v: u64);
    /// A float.
    fn float(&mut self, v: f64);
    /// A string.
    fn str(&mut self, v: &str);
    /// A packed float array: the value [`Value::FloatArray`] holds.
    fn floats(&mut self, xs: &[f64]);
    /// Opens an array of `len` elements, all of the kind `packing` names.
    fn begin_array(&mut self, len: usize, packing: Packing);
    /// Opens an object of `len` fields.
    fn begin_object(&mut self, len: usize);
    /// The key of the next object field.
    fn key(&mut self, key: &str);
    /// Closes the innermost open array or object.
    fn end(&mut self);
}

/// Emits one object field: its key, then the value's walk.
pub fn field<S: Sink + ?Sized, T: Serialize + ?Sized>(sink: &mut S, key: &str, value: &T) {
    sink.key(key);
    value.serialize(sink);
}

/// The packing an array of `items` takes: [`Packing::Ints`] or
/// [`Packing::Floats`] when it is non-empty and every element is that
/// scalar, [`Packing::Generic`] otherwise.
pub fn packing_of<T: Serialize>(items: &[T]) -> Packing {
    let Some((first, rest)) = items.split_first() else {
        return Packing::Generic;
    };
    let kind = first.scalar();
    if kind == Scalar::Other || rest.iter().any(|item| item.scalar() != kind) {
        return Packing::Generic;
    }
    if kind == Scalar::Int {
        Packing::Ints
    } else {
        Packing::Floats
    }
}

/// Types that describe themselves as one emission walk into a [`Sink`].
pub trait Serialize {
    /// Emits `self` into `sink`.
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S);

    /// The scalar kind [`Serialize::serialize`] emits; containers and
    /// anything else answer [`Scalar::Other`].
    fn scalar(&self) -> Scalar {
        Scalar::Other
    }

    /// Emits a slice of `Self` (what `Vec<Self>` and `[Self]` serialize
    /// through): an array packed as [`packing_of`] decides, unless the
    /// element type has a packed form of its own, as `f64` does in
    /// [`Sink::floats`].
    fn serialize_slice<S: Sink + ?Sized>(items: &[Self], sink: &mut S)
    where
        Self: Sized,
    {
        sink.begin_array(items.len(), packing_of(items));
        for item in items {
            item.serialize(sink);
        }
        sink.end();
    }

    /// Builds the value-tree representation of `self` (the walk into a
    /// [`TreeSink`]).
    fn to_value(&self) -> Value {
        let mut tree = TreeSink::default();
        self.serialize(&mut tree);
        tree.finish()
    }
}

/// An open container in a [`TreeSink`], with the length and packing its
/// `begin_*` call declared.
enum Frame {
    Array(Vec<Value>, usize, Packing),
    Object(Vec<(String, Value)>, usize, Option<String>),
}

/// The sink that builds a [`Value`] tree from a walk: behind
/// [`Serialize::to_value`], and so behind the JSON writer.
///
/// In debug builds it also checks the walk against the [`Sink`] contract
/// (declared lengths and packings, one key per object value, balanced
/// `end`s), which the wire encoder trusts without checking: a walk that
/// broke it would still build a sound tree but write undecodable bytes.
#[derive(Default)]
pub struct TreeSink {
    stack: Vec<Frame>,
    root: Option<Value>,
}

impl TreeSink {
    /// The tree the walk built (`null` if it emitted nothing).
    pub fn finish(self) -> Value {
        debug_assert!(self.stack.is_empty(), "walk left {} container(s) open", self.stack.len());
        self.root.unwrap_or_default()
    }

    fn push(&mut self, value: Value) {
        match self.stack.last_mut() {
            None => {
                debug_assert!(self.root.is_none(), "walk emitted a second root value");
                self.root = Some(value);
            }
            Some(Frame::Array(items, ..)) => items.push(value),
            Some(Frame::Object(fields, _, key)) => {
                debug_assert!(key.is_some(), "object value emitted without a key");
                fields.push((key.take().unwrap_or_default(), value));
            }
        }
    }
}

impl Sink for TreeSink {
    fn null(&mut self) {
        self.push(Value::Null);
    }

    fn bool(&mut self, v: bool) {
        self.push(Value::Bool(v));
    }

    fn int(&mut self, v: i64) {
        self.push(Value::Int(v));
    }

    fn uint(&mut self, v: u64) {
        self.push(Value::UInt(v));
    }

    fn float(&mut self, v: f64) {
        self.push(Value::Float(v));
    }

    fn str(&mut self, v: &str) {
        self.push(Value::Str(v.to_string()));
    }

    fn floats(&mut self, xs: &[f64]) {
        self.push(Value::FloatArray(xs.to_vec()));
    }

    fn begin_array(&mut self, len: usize, packing: Packing) {
        self.stack.push(Frame::Array(Vec::with_capacity(len), len, packing));
    }

    fn begin_object(&mut self, len: usize) {
        self.stack.push(Frame::Object(Vec::with_capacity(len), len, None));
    }

    fn key(&mut self, key: &str) {
        let frame = self.stack.last_mut();
        debug_assert!(
            matches!(frame, Some(Frame::Object(_, _, None))),
            "key `{key}` emitted outside an object or before the previous key's value"
        );
        if let Some(Frame::Object(_, _, pending)) = frame {
            *pending = Some(key.to_string());
        }
    }

    fn end(&mut self) {
        debug_assert!(!self.stack.is_empty(), "`end` with no open container");
        let value = match self.stack.pop() {
            Some(Frame::Array(items, len, packing)) => {
                debug_assert_eq!(items.len(), len, "array declared {len} element(s)");
                debug_assert!(
                    items.iter().all(|item| match packing {
                        Packing::Generic => true,
                        Packing::Ints => matches!(item, Value::Int(_)),
                        Packing::Floats => matches!(item, Value::Float(_)),
                    }),
                    "array declared {packing:?} but emitted another kind"
                );
                Value::Array(items)
            }
            Some(Frame::Object(fields, len, pending)) => {
                debug_assert_eq!(fields.len(), len, "object declared {len} field(s)");
                debug_assert!(pending.is_none(), "object closed with a key but no value");
                Value::Object(fields)
            }
            None => return,
        };
        self.push(value);
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
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.bool(*self);
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
            fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
                sink.int(*self as i64);
            }

            fn scalar(&self) -> Scalar {
                Scalar::Int
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
            fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
                let wide = *self as u64;
                match i64::try_from(wide) {
                    Ok(i) => sink.int(i),
                    Err(_) => sink.uint(wide),
                }
            }

            fn scalar(&self) -> Scalar {
                if i64::try_from(*self as u64).is_ok() {
                    Scalar::Int
                } else {
                    Scalar::Other
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
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.float(*self);
    }

    fn scalar(&self) -> Scalar {
        Scalar::Float
    }

    fn serialize_slice<S: Sink + ?Sized>(items: &[f64], sink: &mut S) {
        sink.floats(items);
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
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.float(f64::from(*self));
    }

    fn scalar(&self) -> Scalar {
        Scalar::Float
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for String {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.str(self);
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

impl Serialize for str {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.str(self);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        T::serialize_slice(self, sink);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::vec_from_value(v)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        match self {
            Some(x) => x.serialize(sink),
            None => sink.null(),
        }
    }

    fn scalar(&self) -> Scalar {
        self.as_ref().map_or(Scalar::Other, Serialize::scalar)
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

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        (**self).serialize(sink);
    }

    fn scalar(&self) -> Scalar {
        (**self).scalar()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        T::serialize_slice(self, sink);
    }
}

/// A tree walks itself: the encoder and the counter see a decoded tree as
/// they see the typed value it came from.
impl Serialize for Value {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        match self {
            Value::Null => sink.null(),
            Value::Bool(b) => sink.bool(*b),
            Value::Int(i) => sink.int(*i),
            Value::UInt(u) => sink.uint(*u),
            Value::Float(f) => sink.float(*f),
            Value::Str(s) => sink.str(s),
            Value::Array(items) => Value::serialize_slice(items, sink),
            Value::FloatArray(xs) => sink.floats(xs),
            Value::Object(fields) => {
                sink.begin_object(fields.len());
                for (key, value) in fields {
                    field(sink, key, value);
                }
                sink.end();
            }
        }
    }

    fn scalar(&self) -> Scalar {
        match self {
            Value::Int(_) => Scalar::Int,
            Value::Float(_) => Scalar::Float,
            _ => Scalar::Other,
        }
    }

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

    /// An object that declares `declared` fields and emits one.
    struct Miscounted {
        declared: usize,
    }

    impl Serialize for Miscounted {
        fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
            sink.begin_object(self.declared);
            field(sink, "a", &1u32);
            sink.end();
        }
    }

    #[test]
    fn a_walk_that_keeps_the_contract_builds_its_tree() {
        let tree = Miscounted { declared: 1 }.to_value();
        assert_eq!(tree, Value::Object(vec![("a".to_string(), Value::Int(1))]));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "object declared 2 field(s)")]
    fn a_miscounted_object_fails_the_walk_check() {
        let _ = Miscounted { declared: 2 }.to_value();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "array declared Ints")]
    fn a_mispacked_array_fails_the_walk_check() {
        let mut tree = TreeSink::default();
        tree.begin_array(1, Packing::Ints);
        tree.float(1.0);
        tree.end();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "object value emitted without a key")]
    fn an_unkeyed_object_value_fails_the_walk_check() {
        let mut tree = TreeSink::default();
        tree.begin_object(1);
        tree.null();
    }
}

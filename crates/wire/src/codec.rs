//! The payload codec: a tagged binary encoding of the `serde::Value` tree.
//!
//! One codec covers every persistent artifact because every artifact
//! serializes through the same `serde::Serialize` walk. The encoder is a
//! sink of that walk, so it writes a typed value without building its
//! tree, and a tree (a `Value` walks itself) encodes to the same bytes as
//! the value it came from. The encoding is deterministic (field order and
//! key-dictionary order follow the walk), self-delimiting,
//! and lossless on that tree — floats are stored as raw IEEE-754 bit
//! patterns, so `-0.0` and NaN payloads survive; only a JSON render of the
//! decoded tree (`faction_cli inspect`) flattens non-finite floats to
//! `null`.
//!
//! ## Wire tags
//!
//! | tag  | meaning                                                     |
//! |------|-------------------------------------------------------------|
//! | 0x00 | null                                                        |
//! | 0x01 | false                                                       |
//! | 0x02 | true                                                        |
//! | 0x03 | int: zigzag LEB128 varint                                   |
//! | 0x04 | uint: LEB128 varint (only values above `i64::MAX`)          |
//! | 0x05 | float: 8 bytes, little-endian IEEE-754 bits                 |
//! | 0x06 | str: varint byte length + UTF-8                             |
//! | 0x07 | array: varint count + elements                              |
//! | 0x08 | object: varint count + (key-ref + value) pairs              |
//! | 0x09 | float array: varint count + packed 8-byte LE doubles        |
//! | 0x0A | int array: varint count + packed zigzag varints             |
//!
//! Homogeneous arrays (the dominant payload mass: feature matrices, label
//! vectors, model weights) take the packed forms 0x09/0x0A; anything mixed
//! or empty falls back to the generic 0x07. The walk declares an array's
//! packing before its elements (`serde::packing_of`). A non-empty float array is
//! written as 0x09 from either tree form — `Value::FloatArray` (what
//! `Vec<f64>` and `Matrix` serialize to) or an `Array` of `Float`s — and an
//! empty one as `0x07 0x00`, so the bytes do not depend on the form.
//! 0x09 decodes to `Value::FloatArray` in one bulk pass (8 bytes per
//! element in the tree instead of a 32-byte `Value::Float` each); 0x0A
//! decodes to an `Array` of `Int`s.
//!
//! ## Key interning
//!
//! Object keys are interned per payload: a key reference is a varint index
//! into the dictionary of keys seen so far; an index equal to the current
//! dictionary size introduces a new key (varint length + UTF-8 bytes) and
//! appends it. A pool of 4000 samples repeats `"features"` once, not 4000
//! times. The dictionary resets per payload, so records stay independently
//! decodable — a salvaged prefix never needs a dropped record's keys.

#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss
)]

use crate::WireError;
use serde::{Packing, Serialize, Sink, Value};

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_INT: u8 = 0x03;
const TAG_UINT: u8 = 0x04;
const TAG_FLOAT: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_OBJECT: u8 = 0x08;
const TAG_FLOAT_ARRAY: u8 = 0x09;
const TAG_INT_ARRAY: u8 = 0x0A;

/// Nesting depth cap: deeper trees are rejected rather than risking a
/// stack overflow on adversarial-but-CRC-valid input.
const MAX_DEPTH: usize = 512;

/// Encodes a value into the tagged binary payload form, straight from its
/// [`Serialize`] walk: a typed value and the tree it converts to encode to
/// the same bytes.
pub fn encode_payload<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    with_keys(|keys| {
        let mut enc = Encoder { out: Vec::new(), keys, packed: Packing::Generic };
        value.serialize(&mut enc);
        enc.out
    })
}

/// The length of [`encode_payload`]`(value)`, counted by the same encoder
/// without writing a byte. On a thread that has encoded or counted before,
/// it allocates nothing: the key table is reused.
pub fn encoded_len<T: Serialize + ?Sized>(value: &T) -> usize {
    with_keys(|keys| {
        let mut enc = Encoder { out: ByteCount(0), keys, packed: Packing::Generic };
        value.serialize(&mut enc);
        enc.out.0
    })
}

/// Decodes a tagged binary payload back into a value tree.
///
/// The entire input must be consumed: trailing bytes after the root value
/// are a codec error (inside a CRC-framed record they can only mean an
/// encoder/decoder mismatch, not line noise).
pub fn decode_payload(bytes: &[u8]) -> Result<Value, WireError> {
    let mut dec = Decoder { bytes, pos: 0, keys: Vec::new() };
    let value = dec.value(0)?;
    if dec.pos != bytes.len() {
        return Err(WireError::Codec(format!(
            "{} trailing byte(s) after the root value",
            bytes.len() - dec.pos
        )));
    }
    Ok(value)
}

/// Zigzag-maps a signed integer so small magnitudes get short varints.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)).cast_unsigned()
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    // Bit-level zigzag inverse; both arms are 64-bit reinterpretations.
    (v >> 1).cast_signed() ^ -(v & 1).cast_signed()
}

/// The double whose little-endian IEEE-754 bits are `bytes` (8 of them).
fn f64_le(bytes: &[u8]) -> f64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(bytes);
    f64::from_bits(u64::from_le_bytes(buf))
}

/// Object keys already written, by their back-reference index: the key
/// bytes back to back, one span per index, and an open-addressing table of
/// `index + 1` (0 = empty) for lookup. Indices follow first use, so the
/// hash decides only where a key is looked up, never a byte written.
#[derive(Default)]
struct KeyTable {
    bytes: Vec<u8>,
    spans: Vec<(usize, usize)>,
    slots: Vec<usize>,
}

impl KeyTable {
    /// Forgets every key and keeps the buffers for the next payload.
    fn clear(&mut self) {
        self.bytes.clear();
        self.spans.clear();
        self.slots.fill(0);
    }

    fn slot_of(&self, key: &[u8]) -> usize {
        // FNV-1a: a fixed hash, so lookups behave the same on every run.
        let hash = key.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        // Truncation keeps the low bits, which the mask selects anyway.
        #[expect(clippy::cast_possible_truncation, reason = "only the masked low bits are used")]
        let start = hash as usize;
        let mask = self.slots.len() - 1;
        let mut slot = start & mask;
        while let Some(index) = self.slots[slot].checked_sub(1) {
            let (from, len) = self.spans[index];
            if &self.bytes[from..from + len] == key {
                break;
            }
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// The index of `key`, and whether this call introduced it.
    fn intern(&mut self, key: &str) -> (usize, bool) {
        // At most half full, so every probe ends at an empty slot.
        if 2 * (self.spans.len() + 1) > self.slots.len() {
            self.grow();
        }
        let slot = self.slot_of(key.as_bytes());
        if let Some(index) = self.slots[slot].checked_sub(1) {
            return (index, false);
        }
        let index = self.spans.len();
        self.spans.push((self.bytes.len(), key.len()));
        self.bytes.extend_from_slice(key.as_bytes());
        self.slots[slot] = index + 1;
        (index, true)
    }

    fn grow(&mut self) {
        self.slots = vec![0; (2 * self.slots.len()).max(64)];
        for index in 0..self.spans.len() {
            let (from, len) = self.spans[index];
            let slot = self.slot_of(&self.bytes[from..from + len]);
            self.slots[slot] = index + 1;
        }
    }
}

thread_local! {
    /// Each thread's key table, cleared per payload and never shrunk.
    static KEYS: std::cell::RefCell<KeyTable> = std::cell::RefCell::default();
}

/// Runs `f` with a cleared key table: the thread's own, or a fresh one
/// when a walk encodes another payload from inside itself.
fn with_keys<R>(f: impl FnOnce(&mut KeyTable) -> R) -> R {
    KEYS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut keys) => {
            keys.clear();
            f(&mut keys)
        }
        Err(_) => f(&mut KeyTable::default()),
    })
}

/// Where the encoder's bytes go: a buffer, or only their count.
trait Out {
    fn put(&mut self, bytes: &[u8]);

    /// Appends packed little-endian doubles.
    fn put_floats(&mut self, xs: &[f64]);

    /// Room for `additional` more bytes; only a buffer needs it.
    fn reserve(&mut self, _additional: usize) {}
}

impl Out for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn put_floats(&mut self, xs: &[f64]) {
        self.reserve(8 * xs.len());
        for x in xs {
            self.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    fn reserve(&mut self, additional: usize) {
        Vec::reserve(self, additional);
    }
}

/// The output behind [`encoded_len`]: counts bytes and keeps none.
struct ByteCount(usize);

impl Out for ByteCount {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn put_floats(&mut self, xs: &[f64]) {
        self.0 += 8 * xs.len();
    }
}

/// The wire encoder: a [`Sink`] that writes each call of a walk as its
/// tagged bytes. Inside a packed array (`packed` is not `Generic`) each
/// element is its bare body; packed arrays hold only scalars, so they
/// never nest and one flag is the whole state.
struct Encoder<'k, O: Out> {
    out: O,
    keys: &'k mut KeyTable,
    packed: Packing,
}

impl<O: Out> Encoder<'_, O> {
    fn byte(&mut self, byte: u8) {
        self.out.put(&[byte]);
    }

    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.byte(byte);
                return;
            }
            self.byte(byte | 0x80);
        }
    }
}

impl<O: Out> Sink for Encoder<'_, O> {
    fn null(&mut self) {
        self.byte(TAG_NULL);
    }

    fn bool(&mut self, v: bool) {
        self.byte(if v { TAG_TRUE } else { TAG_FALSE });
    }

    fn int(&mut self, v: i64) {
        if self.packed != Packing::Ints {
            self.byte(TAG_INT);
        }
        self.varint(zigzag(v));
    }

    fn uint(&mut self, v: u64) {
        self.byte(TAG_UINT);
        self.varint(v);
    }

    fn float(&mut self, v: f64) {
        if self.packed != Packing::Floats {
            self.byte(TAG_FLOAT);
        }
        self.out.put(&v.to_bits().to_le_bytes());
    }

    fn str(&mut self, v: &str) {
        self.byte(TAG_STR);
        self.varint(v.len() as u64);
        self.out.put(v.as_bytes());
    }

    /// Tag 0x09, or the generic empty array: the one layout of a float
    /// array, whichever form holds it.
    fn floats(&mut self, xs: &[f64]) {
        if xs.is_empty() {
            self.begin_array(0, Packing::Generic);
            self.end();
            return;
        }
        self.byte(TAG_FLOAT_ARRAY);
        self.varint(xs.len() as u64);
        self.out.put_floats(xs);
    }

    fn begin_array(&mut self, len: usize, packing: Packing) {
        let packing = if len == 0 { Packing::Generic } else { packing };
        self.byte(match packing {
            Packing::Generic => TAG_ARRAY,
            Packing::Ints => TAG_INT_ARRAY,
            Packing::Floats => TAG_FLOAT_ARRAY,
        });
        self.varint(len as u64);
        if packing == Packing::Floats {
            self.out.reserve(8 * len);
        }
        self.packed = packing;
    }

    fn begin_object(&mut self, len: usize) {
        self.byte(TAG_OBJECT);
        self.varint(len as u64);
    }

    fn key(&mut self, key: &str) {
        let (index, new) = self.keys.intern(key);
        self.varint(index as u64);
        if new {
            self.varint(key.len() as u64);
            self.out.put(key.as_bytes());
        }
    }

    fn end(&mut self) {
        self.packed = Packing::Generic;
    }
}

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    keys: Vec<String>,
}

impl<'a> Decoder<'a> {
    fn err(&self, detail: impl Into<String>) -> WireError {
        WireError::Codec(format!("at byte {}: {}", self.pos, detail.into()))
    }

    fn byte(&mut self) -> Result<u8, WireError> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| self.err("unexpected end of payload"))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| self.err(format!("payload ends inside a {n}-byte run")))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            let low = u64::from(byte & 0x7F);
            if shift >= 64 || (shift == 63 && low > 1) {
                return Err(self.err("varint overflows u64"));
            }
            v |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A collection count, validated against the bytes that remain: every
    /// element costs at least `min_bytes_each`, so a count the input cannot
    /// possibly hold is rejected before any allocation.
    fn count(&mut self, min_bytes_each: usize) -> Result<usize, WireError> {
        let n = self.varint()?;
        let n = usize::try_from(n).map_err(|_| self.err("count exceeds usize"))?;
        let remaining = self.bytes.len() - self.pos;
        // matches! instead of map_or/is_none_or: overflow and too-large are
        // the same rejection, and this form stays inside the 1.75 MSRV.
        let fits = matches!(n.checked_mul(min_bytes_each), Some(need) if need <= remaining);
        if !fits {
            return Err(self.err(format!(
                "count {n} needs more bytes than the {remaining} remaining"
            )));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("invalid UTF-8 in string"))
    }

    fn key(&mut self) -> Result<String, WireError> {
        let idx = self.varint()?;
        let idx = usize::try_from(idx).map_err(|_| self.err("key index exceeds usize"))?;
        match idx.cmp(&self.keys.len()) {
            std::cmp::Ordering::Less => Ok(self.keys[idx].clone()),
            std::cmp::Ordering::Equal => {
                let key = self.string()?;
                self.keys.push(key.clone());
                Ok(key)
            }
            std::cmp::Ordering::Greater => Err(self.err(format!(
                "key index {idx} skips ahead of the {}-entry dictionary",
                self.keys.len()
            ))),
        }
    }

    fn float(&mut self) -> Result<f64, WireError> {
        self.take(8).map(f64_le)
    }

    fn value(&mut self, depth: usize) -> Result<Value, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        let tag = self.byte()?;
        match tag {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_INT => Ok(Value::Int(unzigzag(self.varint()?))),
            TAG_UINT => Ok(Value::UInt(self.varint()?)),
            TAG_FLOAT => Ok(Value::Float(self.float()?)),
            TAG_STR => Ok(Value::Str(self.string()?)),
            TAG_ARRAY => {
                let n = self.count(1)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            TAG_OBJECT => {
                let n = self.count(2)?;
                let mut fields = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = self.key()?;
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                }
                Ok(Value::Object(fields))
            }
            TAG_FLOAT_ARRAY => {
                let n = self.count(8)?;
                // `count(8)` proved `8 * n` fits in the remaining bytes.
                let body = self.take(8 * n)?;
                Ok(Value::FloatArray(body.chunks_exact(8).map(f64_le).collect()))
            }
            TAG_INT_ARRAY => {
                let n = self.count(1)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(Value::Int(unzigzag(self.varint()?)));
                }
                Ok(Value::Array(items))
            }
            other => Err(self.err(format!("unknown value tag 0x{other:02X}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) {
        let bytes = encode_payload(v);
        let back = decode_payload(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&Value::Null);
        roundtrip(&Value::Bool(false));
        roundtrip(&Value::Bool(true));
        for i in [0i64, 1, -1, 63, 64, -64, -65, i64::MAX, i64::MIN, 300, -300] {
            roundtrip(&Value::Int(i));
        }
        for u in [0u64, u64::MAX, (i64::MAX as u64) + 1] {
            roundtrip(&Value::UInt(u));
        }
        for f in [0.0f64, -0.0, 1.5, f64::MAX, f64::MIN_POSITIVE, f64::INFINITY, -1e-300] {
            roundtrip(&Value::Float(f));
        }
        roundtrip(&Value::Str(String::new()));
        roundtrip(&Value::Str("μ-checkpoint \"quoted\"".to_string()));
    }

    #[test]
    fn negative_zero_and_nan_bits_survive() {
        let neg_zero = encode_payload(&Value::Float(-0.0));
        match decode_payload(&neg_zero).unwrap() {
            Value::Float(f) => assert!(f == 0.0 && f.is_sign_negative()),
            other => panic!("expected float, got {other:?}"),
        }
        let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        match decode_payload(&encode_payload(&Value::Float(nan))).unwrap() {
            Value::Float(f) => assert_eq!(f.to_bits(), nan.to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn arrays_pick_packed_forms() {
        let floats = Value::Array((0..100).map(|i| Value::Float(i as f64 * 0.25)).collect());
        let bytes = encode_payload(&floats);
        assert_eq!(bytes[0], TAG_FLOAT_ARRAY);
        // tag + 1-byte varint count (100 < 128) + 100 * 8 bytes.
        assert_eq!(bytes.len(), 1 + 1 + 800);
        assert_eq!(decode_payload(&bytes).unwrap(), floats);

        let ints = Value::Array((-50..50).map(Value::Int).collect());
        let bytes = encode_payload(&ints);
        assert_eq!(bytes[0], TAG_INT_ARRAY);
        assert_eq!(decode_payload(&bytes).unwrap(), ints);

        let mixed = Value::Array(vec![Value::Int(1), Value::Float(2.0)]);
        let bytes = encode_payload(&mixed);
        assert_eq!(bytes[0], TAG_ARRAY);
        assert_eq!(decode_payload(&bytes).unwrap(), mixed);

        let empty = Value::Array(Vec::new());
        assert_eq!(encode_payload(&empty), vec![TAG_ARRAY, 0]);
        roundtrip(&empty);
    }

    #[test]
    fn packed_and_generic_float_arrays_are_one_value_on_the_wire() {
        use serde::Serialize;
        let xs = vec![0.5, -0.0, f64::INFINITY, 1e-300, -3.25];
        let generic = Value::Array(xs.iter().map(|&x| Value::Float(x)).collect());
        let packed = xs.to_value();
        assert!(matches!(packed, Value::FloatArray(_)));
        assert_eq!(packed, generic);
        assert_eq!(generic, packed);
        assert_eq!(encode_payload(&packed), encode_payload(&generic));
        assert_eq!(encode_payload(&xs[..].to_value()), encode_payload(&generic));
        assert!(matches!(decode_payload(&encode_payload(&generic)).unwrap(), Value::FloatArray(_)));

        // A matrix's data is the same float array inside its object.
        let m = faction_linalg::Matrix::from_vec(1, xs.len(), xs.clone()).unwrap();
        let by_hand = Value::Object(vec![
            ("rows".to_string(), Value::Int(1)),
            ("cols".to_string(), Value::Int(5)),
            ("data".to_string(), generic.clone()),
        ]);
        assert_eq!(encode_payload(&m.to_value()), encode_payload(&by_hand));

        // Empty: the generic array tag, whichever form built it.
        assert_eq!(encode_payload(&Vec::<f64>::new().to_value()), vec![TAG_ARRAY, 0]);
        assert_eq!(Vec::<f64>::new().to_value(), Value::Array(Vec::new()));

        // Forms differ only where the floats do.
        let mut other = xs.clone();
        other[4] = 3.25;
        assert_ne!(other.to_value(), generic);
        assert_ne!(xs[..4].to_value(), generic);
        assert_ne!(packed, Value::Array(vec![Value::Int(0); 5]));
    }

    #[test]
    fn object_keys_are_interned() {
        let row = |x: f64| {
            Value::Object(vec![
                ("features".to_string(), Value::Array(vec![Value::Float(x)])),
                ("label".to_string(), Value::Int(1)),
            ])
        };
        let one = encode_payload(&Value::Array(vec![row(1.0)])).len();
        let ten = encode_payload(&Value::Array((0..10).map(|i| row(i as f64)).collect())).len();
        // Ten rows must cost far less than ten times one row: the key bytes
        // ("features", "label") are paid once, later rows pay 1 byte each.
        let per_extra_row = (ten - one) / 9;
        let key_bytes = "features".len() + "label".len();
        assert!(
            per_extra_row < one - key_bytes / 2,
            "interning broken: first row {one} B, later rows {per_extra_row} B each"
        );
        roundtrip(&Value::Array((0..10).map(|i| row(i as f64)).collect()));
    }

    #[test]
    fn key_table_grows_and_forgets_between_payloads() {
        // 300 distinct keys, each used twice, outgrow the table's first
        // size several times; the thread's table is reused afterwards.
        let keyed =
            |n: i64| Value::Object((0..n).map(|i| (format!("k{i}"), Value::Int(i))).collect());
        let small = Value::Array(vec![keyed(3), keyed(3)]);
        let before = encode_payload(&small);
        let big = Value::Array(vec![keyed(300), keyed(300)]);
        roundtrip(&big);
        assert_eq!(encoded_len(&big), encode_payload(&big).len());
        // Indices restart at 0 for every payload, so `small` encodes as it
        // did on the fresh table.
        assert_eq!(encode_payload(&small), before);
    }

    /// An object whose walk encodes an inner payload and emits its length.
    struct SizedInner(Value);

    impl Serialize for SizedInner {
        fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
            sink.begin_object(2);
            serde::field(sink, "outer", &1u32);
            serde::field(sink, "inner_len", &(encoded_len(&self.0) as u64));
            sink.end();
        }
    }

    #[test]
    fn a_walk_may_encode_another_payload_inside_itself() {
        // The thread's table is busy with the outer payload, so the inner
        // one gets a table of its own: the outer key indices are untouched.
        let inner = Value::Object(vec![("inner".to_string(), Value::Int(5))]);
        let nested = SizedInner(inner.clone());
        let plain = Value::Object(vec![
            ("outer".to_string(), Value::Int(1)),
            ("inner_len".to_string(), (encoded_len(&inner) as u64).to_value()),
        ]);
        assert_eq!(encode_payload(&nested), encode_payload(&plain));
        assert_eq!(encoded_len(&nested), encode_payload(&plain).len());
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Value::Object(vec![
            ("version".to_string(), Value::Int(1)),
            (
                "model".to_string(),
                Value::Object(vec![
                    ("weights".to_string(), Value::Array(vec![Value::Float(0.5); 16])),
                    ("bias".to_string(), Value::Float(-0.125)),
                ]),
            ),
            ("tags".to_string(), Value::Array(vec![Value::Str("a".into()), Value::Null])),
            ("empty".to_string(), Value::Object(Vec::new())),
        ]);
        roundtrip(&v);
    }

    #[test]
    fn truncated_payloads_error_not_panic() {
        let v = Value::Object(vec![
            ("xs".to_string(), Value::Array(vec![Value::Float(1.0); 8])),
            ("name".to_string(), Value::Str("abcdef".to_string())),
        ]);
        let bytes = encode_payload(&v);
        for cut in 0..bytes.len() {
            let err = decode_payload(&bytes[..cut]).expect_err("truncation must fail");
            assert!(matches!(err, WireError::Codec(_)), "cut at {cut}: {err:?}");
        }
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocation() {
        // FloatArray claiming u64::MAX/8 elements with a 2-byte body.
        let mut bytes = vec![TAG_FLOAT_ARRAY];
        bytes.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]);
        bytes.extend_from_slice(&[0, 0]);
        assert!(matches!(decode_payload(&bytes), Err(WireError::Codec(_))));

        // Object whose key reference skips ahead of the dictionary.
        let bytes = vec![TAG_OBJECT, 1, 5, TAG_NULL];
        assert!(matches!(decode_payload(&bytes), Err(WireError::Codec(_))));

        // An 11-byte varint (overflow).
        let mut bytes = vec![TAG_UINT];
        bytes.extend_from_slice(&[0x80; 10]);
        bytes.push(0x01);
        assert!(matches!(decode_payload(&bytes), Err(WireError::Codec(_))));

        // Unknown tag.
        assert!(matches!(decode_payload(&[0x7F]), Err(WireError::Codec(_))));

        // Trailing bytes after the root value.
        assert!(matches!(decode_payload(&[TAG_NULL, 0x00]), Err(WireError::Codec(_))));
    }

    /// Keys drawn from a small pool, so they repeat across nested objects
    /// and every later use is a back-reference.
    const KEYS: [&str; 5] = ["features", "label", "w", "μ", ""];

    fn bits(rng: &mut proptest::TestRng) -> u64 {
        rng.below(1 << 32) << 32 | rng.below(1 << 32)
    }

    fn float(rng: &mut proptest::TestRng) -> Value {
        Value::Float(f64::from_bits(bits(rng)))
    }

    /// A random value tree holding every form the encoder tells apart:
    /// scalars (`UInt` only above `i64::MAX`, as decode yields it), packed
    /// and generic float arrays, packed int arrays, empty and mixed arrays,
    /// and objects whose keys repeat.
    fn tree(rng: &mut proptest::TestRng, depth: u32) -> Value {
        let kinds = if depth >= 4 { 9 } else { 11 };
        match rng.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::Int(bits(rng).cast_signed() >> rng.below(64)),
            3 => Value::UInt(1 << 63 | bits(rng)),
            4 => float(rng),
            5 => Value::Str(KEYS[usize::try_from(rng.below(5)).unwrap()].repeat(3)),
            6 => Value::FloatArray((0..rng.below(4)).map(|_| f64::from_bits(bits(rng))).collect()),
            7 => Value::Array((0..rng.below(4)).map(|_| float(rng)).collect()),
            8 => Value::Array(
                (0..rng.below(4)).map(|_| Value::Int(bits(rng).cast_signed() >> 40)).collect(),
            ),
            9 => Value::Array((0..rng.below(5)).map(|_| tree(rng, depth + 1)).collect()),
            _ => Value::Object(
                (0..rng.below(5))
                    .map(|_| {
                        let key = KEYS[usize::try_from(rng.below(5)).unwrap()].to_string();
                        (key, tree(rng, depth + 1))
                    })
                    .collect(),
            ),
        }
    }

    struct Trees;

    impl proptest::strategy::Strategy for Trees {
        type Value = Value;

        fn sample(&self, rng: &mut proptest::TestRng) -> Value {
            // An object root, so most cases nest and repeat keys.
            Value::Object((0..4).map(|i| (KEYS[i].to_string(), tree(rng, 1))).collect())
        }
    }

    proptest::proptest! {
        #[test]
        fn encoded_len_counts_exactly_the_encoded_bytes(v in Trees) {
            proptest::prop_assert_eq!(encoded_len(&v), encode_payload(&v).len());
        }
    }

    #[test]
    fn depth_limit_holds() {
        let mut bytes = Vec::new();
        for _ in 0..(MAX_DEPTH + 8) {
            bytes.push(TAG_ARRAY);
            bytes.push(1);
        }
        bytes.push(TAG_NULL);
        assert!(matches!(decode_payload(&bytes), Err(WireError::Codec(_))));
    }
}

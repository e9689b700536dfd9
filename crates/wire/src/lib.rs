//! faction-wire: the versioned binary persistence container.
//!
//! Every durable artifact in the workspace — per-job run checkpoints, the
//! engine's event journal, session snapshots —
//! used to be JSON through the compat stubs. That is fine for a 24-job
//! grid and wrong for million-session serving: floats render at ~19 bytes
//! each, field names repeat per record, and a half-written JSON file is
//! indistinguishable from a corrupt one. This crate is the replacement and
//! the only persistence format: loaders read nothing else, and
//! `faction_cli inspect <file>` renders any container as JSON for human
//! eyes ([`payload_kind`] tells it which artifact it holds).
//!
//! ## Container layout (all integers little-endian)
//!
//! ```text
//! header   := magic(4 = "FWIR") | format_version(u16) | payload_kind(u16)
//!             | reserved(u32 = 0)
//! record   := payload_len(u32) | crc32(u32, IEEE, over payload) | payload
//! container:= header record*
//! ```
//!
//! * **Versioning**: `format_version` is the *container* version; readers
//!   reject newer versions loudly ([`WireError::UnsupportedVersion`]).
//!   Payload-level schema versions (e.g. `SessionSnapshot.version`) ride inside
//!   the payload, exactly as they did in JSON.
//! * **Integrity**: each record carries a CRC32 of its payload; a single
//!   flipped bit is a [`WireError::BadCrc`], never silently-wrong floats.
//! * **Salvage**: [`read_container_salvage`] returns the longest valid
//!   record prefix of a torn file plus what was dropped — a process killed
//!   mid-append loses at most the record it was writing. Single-payload
//!   artifacts (run checkpoints, session snapshots) use
//!   [`read_container_strict`] instead: a torn one is corrupt, not partially
//!   resumable.
//!
//! ## Payload codec
//!
//! Payloads are a tagged binary encoding of the workspace `serde::Value`
//! tree ([`encode_payload`] / [`decode_payload`]): zigzag varint integers,
//! raw little-endian f64 bit patterns, length-prefixed UTF-8, packed
//! homogeneous float/int arrays, and per-payload object-key interning.
//! The encoder is a `serde::Sink`: it writes the bytes straight from a
//! value's `Serialize` walk, the same walk that builds the tree, so a typed
//! value and its tree encode alike and no tree is built to encode.
//! [`encoded_len`] runs the same encoder into a byte counter, so a caller
//! that needs only the size of a payload neither builds a tree nor writes
//! a byte. Because both this codec and the JSON stub render the *same*
//! walk,
//! a decoded payload renders to the same JSON as the value that was
//! encoded, for every payload type (the engine's `wire_roundtrip` suite
//! pins it with proptests), which is what lets `inspect` print exactly
//! the JSON the typed value would.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp))]

mod codec;
mod container;
mod crc;

pub use codec::{decode_payload, encode_payload, encoded_len};
pub use container::{
    encode_container, from_wire, from_wire_salvage, payload_kind, read_container_salvage,
    read_container_strict, to_wire, ContainerWriter, PayloadKind, Salvage, SalvageDrop,
    FORMAT_VERSION, HEADER_LEN, MAGIC, RECORD_FRAME_LEN,
};
pub use crc::crc32;

/// Errors from container parsing or payload decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The byte stream ends before a complete header.
    TooShort {
        /// Actual length of the input.
        len: usize,
    },
    /// The first four bytes are not [`MAGIC`] — this is not a wire file.
    BadMagic,
    /// The container's format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The header declares a payload kind code this build does not know.
    UnknownKind(u16),
    /// The container holds a different payload kind than the caller
    /// expected (e.g. a journal opened as a checkpoint).
    WrongKind {
        /// Kind the caller asked for.
        expected: u16,
        /// Kind the header declares.
        found: u16,
    },
    /// The stream ends inside a record frame or payload.
    Truncated {
        /// Byte offset where the anomaly starts.
        offset: usize,
        /// Human-readable description of what is missing.
        detail: String,
    },
    /// A record's payload does not match its stored CRC32.
    BadCrc {
        /// Zero-based record index.
        record: usize,
        /// Byte offset of the record's frame.
        offset: usize,
    },
    /// The payload bytes do not decode as a value tree.
    Codec(String),
    /// A strict single-payload read found the wrong number of records.
    RecordCount {
        /// Records the artifact kind requires.
        expected: usize,
        /// Records actually present.
        found: usize,
    },
    /// A record longer than the format allows (`u32::MAX` payload bytes).
    TooLarge {
        /// The oversized payload length.
        len: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::TooShort { len } => {
                write!(f, "{len} byte(s) is too short for a wire container header ({HEADER_LEN})")
            }
            WireError::BadMagic => write!(f, "bad magic: not a faction-wire container"),
            WireError::UnsupportedVersion(v) => write!(
                f,
                "unsupported wire format version {v} (this build supports <= {FORMAT_VERSION})"
            ),
            WireError::UnknownKind(code) => write!(f, "unknown payload kind {code}"),
            WireError::WrongKind { expected, found } => {
                write!(f, "wrong payload kind: expected {expected}, found {found}")
            }
            WireError::Truncated { offset, detail } => {
                write!(f, "truncated at byte {offset}: {detail}")
            }
            WireError::BadCrc { record, offset } => {
                write!(f, "CRC mismatch in record {record} (frame at byte {offset})")
            }
            WireError::Codec(detail) => write!(f, "payload codec error: {detail}"),
            WireError::RecordCount { expected, found } => {
                write!(f, "expected {expected} record(s), found {found} (trailing or missing data)")
            }
            WireError::TooLarge { len } => {
                write!(f, "record payload of {len} bytes exceeds the u32 frame limit")
            }
        }
    }
}

impl std::error::Error for WireError {}

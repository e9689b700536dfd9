//! Container framing: header, CRC-framed records, strict and salvage reads.

use crate::codec::{decode_payload, encode_payload};
use crate::crc::crc32;
use crate::WireError;
use serde::{Deserialize, Serialize};
use std::io::{self, Write};

/// The four-byte file magic.
pub const MAGIC: [u8; 4] = *b"FWIR";

/// The container format version this build writes and the newest it reads.
pub const FORMAT_VERSION: u16 = 1;

/// Header size: magic (4) + version (u16) + payload kind (u16) + reserved (u32).
pub const HEADER_LEN: usize = 12;

/// Per-record frame size: payload length (u32) + CRC32 (u32).
pub const RECORD_FRAME_LEN: usize = 8;

/// What a container holds. The kind is stamped in the header so a journal
/// can never be silently resumed as a checkpoint.
///
/// Code 1 is retired and stays reserved: it was a learner checkpoint
/// (model, pool and task cursor) that `SessionSnapshot` superseded. A
/// kind-1 container is [`WireError::UnknownKind`]`(1)`, and no new kind may
/// reuse the code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// A per-job `RunCheckpoint` inside a grid.
    RunCheckpoint,
    /// The engine's streaming event journal (many records).
    Journal,
    /// A serve-side `SessionSnapshot`.
    SessionSnapshot,
}

impl PayloadKind {
    /// The u16 stored in the header.
    pub fn code(self) -> u16 {
        match self {
            PayloadKind::RunCheckpoint => 2,
            PayloadKind::Journal => 3,
            PayloadKind::SessionSnapshot => 4,
        }
    }
}

/// The valid prefix recovered from a (possibly torn) container.
#[derive(Debug, PartialEq, Eq)]
pub struct Salvage<'a> {
    /// Payload bytes of every record whose frame and CRC check out, in
    /// file order.
    pub records: Vec<&'a [u8]>,
    /// `Some` when a torn or corrupt tail was discarded; `None` when the
    /// container ended cleanly at a record boundary.
    pub dropped: Option<SalvageDrop>,
}

/// Description of the tail a salvage read discarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageDrop {
    /// Byte offset where the bad tail starts (the frame of the first
    /// unusable record).
    pub offset: usize,
    /// How many bytes were discarded.
    pub bytes: usize,
    /// Why: "torn frame", "torn payload", or "CRC mismatch".
    pub detail: String,
}

/// Checks length, magic and format version, and returns the header's
/// payload-kind code.
fn header_kind_code(bytes: &[u8]) -> Result<u16, WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::TooShort { len: bytes.len() });
    }
    if bytes[0..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    // Version 0 never shipped: a zero here is header damage, not an old
    // file, and is rejected the same way as an unknown future version.
    if version == 0 || version > FORMAT_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    Ok(u16::from_le_bytes([bytes[6], bytes[7]]))
}

/// The payload kind a container's header declares, so a reader that
/// accepts any artifact (`faction_cli inspect`) can pick the read mode.
/// Validates the magic and format version on the way; a kind code this
/// build does not know is [`WireError::UnknownKind`].
pub fn payload_kind(bytes: &[u8]) -> Result<PayloadKind, WireError> {
    let code = header_kind_code(bytes)?;
    [PayloadKind::RunCheckpoint, PayloadKind::Journal, PayloadKind::SessionSnapshot]
        .into_iter()
        .find(|kind| kind.code() == code)
        .ok_or(WireError::UnknownKind(code))
}

/// Checks the header and returns the record region.
fn check_header(bytes: &[u8], kind: PayloadKind) -> Result<&[u8], WireError> {
    let found = header_kind_code(bytes)?;
    if found != kind.code() {
        return Err(WireError::WrongKind { expected: kind.code(), found });
    }
    if bytes[8..12] != [0, 0, 0, 0] {
        return Err(WireError::Truncated {
            offset: 8,
            detail: "reserved header bytes must be zero in version 1".to_string(),
        });
    }
    Ok(&bytes[HEADER_LEN..])
}

fn header_bytes(kind: PayloadKind) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&MAGIC);
    h[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[6..8].copy_from_slice(&kind.code().to_le_bytes());
    // Bytes 8..12 are reserved and must be zero in version 1.
    h
}

fn frame_bytes(payload: &[u8]) -> Result<[u8; RECORD_FRAME_LEN], WireError> {
    let len = u32::try_from(payload.len()).map_err(|_| WireError::TooLarge { len: payload.len() })?;
    let mut f = [0u8; RECORD_FRAME_LEN];
    f[0..4].copy_from_slice(&len.to_le_bytes());
    f[4..8].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(f)
}

/// Encodes a complete container holding the given record payloads.
pub fn encode_container(kind: PayloadKind, records: &[&[u8]]) -> Result<Vec<u8>, WireError> {
    let body: usize = records.iter().map(|r| RECORD_FRAME_LEN + r.len()).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + body);
    out.extend_from_slice(&header_bytes(kind));
    for payload in records {
        out.extend_from_slice(&frame_bytes(payload)?);
        out.extend_from_slice(payload);
    }
    Ok(out)
}

/// Strict read: every byte must belong to a well-formed, CRC-valid record.
///
/// This is the right mode for single-artifact files (checkpoints): a torn
/// tail or trailing garbage is corruption, not something to paper over.
pub fn read_container_strict(bytes: &[u8], kind: PayloadKind) -> Result<Vec<&[u8]>, WireError> {
    let mut rest = check_header(bytes, kind)?;
    let mut offset = HEADER_LEN;
    let mut records = Vec::new();
    while !rest.is_empty() {
        if rest.len() < RECORD_FRAME_LEN {
            return Err(WireError::Truncated {
                offset,
                detail: format!(
                    "{} trailing byte(s) where a {RECORD_FRAME_LEN}-byte record frame was expected",
                    rest.len()
                ),
            });
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let stored_crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        let body = &rest[RECORD_FRAME_LEN..];
        if body.len() < len {
            return Err(WireError::Truncated {
                offset,
                detail: format!(
                    "record claims {len} payload byte(s) but only {} remain",
                    body.len()
                ),
            });
        }
        let payload = &body[..len];
        if crc32(payload) != stored_crc {
            return Err(WireError::BadCrc { record: records.len(), offset });
        }
        records.push(payload);
        offset += RECORD_FRAME_LEN + len;
        rest = &body[len..];
    }
    Ok(records)
}

/// Salvage read: returns the longest valid record prefix plus what was
/// dropped. Header problems (too short for a header, bad magic, future
/// version, wrong kind) remain hard errors — there is nothing to salvage
/// from a file we cannot identify.
pub fn read_container_salvage(bytes: &[u8], kind: PayloadKind) -> Result<Salvage<'_>, WireError> {
    let mut rest = check_header(bytes, kind)?;
    let mut offset = HEADER_LEN;
    let mut records = Vec::new();
    while !rest.is_empty() {
        if rest.len() < RECORD_FRAME_LEN {
            return Ok(Salvage {
                records,
                dropped: Some(SalvageDrop {
                    offset,
                    bytes: rest.len(),
                    detail: "torn frame".to_string(),
                }),
            });
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let stored_crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        let body = &rest[RECORD_FRAME_LEN..];
        if body.len() < len {
            return Ok(Salvage {
                records,
                dropped: Some(SalvageDrop {
                    offset,
                    bytes: rest.len(),
                    detail: "torn payload".to_string(),
                }),
            });
        }
        let payload = &body[..len];
        if crc32(payload) != stored_crc {
            // A bad CRC poisons everything after it too: a flipped length
            // byte would make every later frame boundary a guess.
            return Ok(Salvage {
                records,
                dropped: Some(SalvageDrop {
                    offset,
                    bytes: rest.len(),
                    detail: "CRC mismatch".to_string(),
                }),
            });
        }
        records.push(payload);
        offset += RECORD_FRAME_LEN + len;
        rest = &body[len..];
    }
    Ok(Salvage { records, dropped: None })
}

/// Serializes a value as a single-record container.
pub fn to_wire<T: Serialize + ?Sized>(kind: PayloadKind, value: &T) -> Result<Vec<u8>, WireError> {
    let payload = encode_payload(value);
    encode_container(kind, &[&payload])
}

/// Strictly reads a single-record container back into a value.
pub fn from_wire<T: Deserialize>(kind: PayloadKind, bytes: &[u8]) -> Result<T, WireError> {
    let records = read_container_strict(bytes, kind)?;
    if records.len() != 1 {
        return Err(WireError::RecordCount { expected: 1, found: records.len() });
    }
    let value = decode_payload(records[0])?;
    T::from_value(&value).map_err(|e| WireError::Codec(format!("deserialize: {e}")))
}

/// Salvage-reads a multi-record container, deserializing every valid
/// record. A record that passes its CRC but fails to deserialize is a hard
/// error: that is an encoder/decoder mismatch, not disk damage.
pub fn from_wire_salvage<T: Deserialize>(
    kind: PayloadKind,
    bytes: &[u8],
) -> Result<(Vec<T>, Option<SalvageDrop>), WireError> {
    let salvage = read_container_salvage(bytes, kind)?;
    let mut out = Vec::with_capacity(salvage.records.len());
    for (i, payload) in salvage.records.iter().enumerate() {
        let value = decode_payload(payload)?;
        let item =
            T::from_value(&value).map_err(|e| WireError::Codec(format!("record {i}: {e}")))?;
        out.push(item);
    }
    Ok((out, salvage.dropped))
}

/// A streaming appender: header up front, then one CRC-framed record per
/// [`append`](ContainerWriter::append) call. Built for the engine journal —
/// each event is flushed as a complete record, so a killed process leaves a
/// file whose valid prefix is every event appended so far.
pub struct ContainerWriter<W: Write> {
    inner: W,
}

impl<W: Write> ContainerWriter<W> {
    /// Writes the container header and returns the appender.
    pub fn new(mut inner: W, kind: PayloadKind) -> io::Result<Self> {
        inner.write_all(&header_bytes(kind))?;
        Ok(ContainerWriter { inner })
    }

    /// Appends one CRC-framed record and flushes the underlying writer, so
    /// the bytes are in the OS page cache (kill-safe) before this returns.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let frame = frame_bytes(payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.inner.write_all(&frame)?;
        self.inner.write_all(payload)?;
        self.inner.flush()
    }

    /// Serializes a value and appends it as one record.
    pub fn append_value<T: Serialize + ?Sized>(&mut self, value: &T) -> io::Result<()> {
        self.append(&encode_payload(value))
    }

    /// Access to the underlying writer (e.g. to `sync_all` a file).
    pub fn get_ref(&self) -> &W {
        &self.inner
    }

    /// Consumes the appender, returning the underlying writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_record_container() -> Vec<u8> {
        encode_container(
            PayloadKind::Journal,
            &[b"first record".as_slice(), b"2".as_slice(), b"the third, longer record".as_slice()],
        )
        .unwrap()
    }

    #[test]
    fn empty_container_roundtrips() {
        let bytes = encode_container(PayloadKind::Journal, &[]).unwrap();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert!(read_container_strict(&bytes, PayloadKind::Journal).unwrap().is_empty());
        let s = read_container_salvage(&bytes, PayloadKind::Journal).unwrap();
        assert!(s.records.is_empty() && s.dropped.is_none());
    }

    #[test]
    fn strict_roundtrip_and_kind_check() {
        let bytes = three_record_container();
        let records = read_container_strict(&bytes, PayloadKind::Journal).unwrap();
        assert_eq!(records, vec![b"first record".as_slice(), b"2", b"the third, longer record"]);
        assert_eq!(
            read_container_strict(&bytes, PayloadKind::RunCheckpoint),
            Err(WireError::WrongKind { expected: 2, found: 3 })
        );
    }

    #[test]
    fn header_errors_are_hard_in_both_modes() {
        let mut bytes = three_record_container();
        // Too short for a header.
        for cut in 0..HEADER_LEN {
            assert_eq!(
                read_container_salvage(&bytes[..cut], PayloadKind::Journal),
                Err(WireError::TooShort { len: cut })
            );
        }
        // Future version.
        bytes[4] = 0xFF;
        bytes[5] = 0x7F;
        assert_eq!(
            read_container_salvage(&bytes, PayloadKind::Journal),
            Err(WireError::UnsupportedVersion(0x7FFF))
        );
        // Bad magic.
        bytes[0] = b'X';
        assert_eq!(
            read_container_strict(&bytes, PayloadKind::Journal),
            Err(WireError::BadMagic)
        );
    }

    #[test]
    fn payload_kind_reads_every_known_code_and_names_unknown_ones() {
        for kind in [PayloadKind::RunCheckpoint, PayloadKind::Journal, PayloadKind::SessionSnapshot]
        {
            let bytes = encode_container(kind, &[b"x".as_slice()]).unwrap();
            assert_eq!(payload_kind(&bytes), Ok(kind));
        }
        let mut bytes = three_record_container();
        bytes[6] = 0x2A;
        assert_eq!(payload_kind(&bytes), Err(WireError::UnknownKind(0x2A)));
        assert_eq!(payload_kind(b"{}"), Err(WireError::TooShort { len: 2 }));
        assert_eq!(payload_kind(b"{\"version\": 1}"), Err(WireError::BadMagic));
    }

    #[test]
    fn truncation_at_every_byte_salvages_the_valid_prefix() {
        let bytes = three_record_container();
        // Record payload lengths and their end offsets in the file.
        let lens = [12usize, 1, 24];
        let mut boundaries = vec![HEADER_LEN];
        for len in lens {
            boundaries.push(boundaries.last().unwrap() + RECORD_FRAME_LEN + len);
        }
        for cut in HEADER_LEN..=bytes.len() {
            let salvage = read_container_salvage(&bytes[..cut], PayloadKind::Journal).unwrap();
            // Expected: every record whose *end* fits inside the cut.
            let expect = boundaries[1..].iter().filter(|&&end| end <= cut).count();
            assert_eq!(salvage.records.len(), expect, "cut at {cut}");
            let at_boundary = boundaries.contains(&cut);
            assert_eq!(salvage.dropped.is_none(), at_boundary, "cut at {cut}");
            if let Some(drop) = &salvage.dropped {
                assert_eq!(drop.offset, boundaries[expect], "cut at {cut}");
                assert_eq!(drop.bytes, cut - boundaries[expect], "cut at {cut}");
            }
            // Strict mode must reject every non-boundary cut.
            let strict = read_container_strict(&bytes[..cut], PayloadKind::Journal);
            assert_eq!(strict.is_ok(), at_boundary, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flip_in_any_payload_byte_is_rejected() {
        let clean = three_record_container();
        for pos in HEADER_LEN..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[pos] ^= 1 << bit;
                let strict = read_container_strict(&bytes, PayloadKind::Journal);
                assert!(
                    strict.is_err(),
                    "flip at byte {pos} bit {bit} must not read clean"
                );
                // Salvage never returns more records than the clean file,
                // and always reports a drop (a flip is never invisible).
                if let Ok(salvage) = read_container_salvage(&bytes, PayloadKind::Journal) {
                    assert!(salvage.records.len() < 3, "flip at byte {pos} bit {bit}");
                    assert!(salvage.dropped.is_some(), "flip at byte {pos} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn streaming_writer_matches_batch_encoder() {
        let mut w = ContainerWriter::new(Vec::new(), PayloadKind::Journal).unwrap();
        w.append(b"first record").unwrap();
        w.append(b"2").unwrap();
        w.append(b"the third, longer record").unwrap();
        assert_eq!(w.into_inner(), three_record_container());
    }
}

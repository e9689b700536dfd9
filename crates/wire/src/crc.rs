//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`), slicing-by-8.
//!
//! This is the same checksum gzip/zlib/PNG use, chosen for ubiquity: any
//! external tool can re-verify a record with its stock CRC32. The runtime
//! path folds eight input bytes per step through eight 256-entry tables
//! (Intel's slicing-by-8), so the eight lookups of a step are independent
//! loads instead of a chain of eight dependent ones; the tail of fewer than
//! eight bytes takes the classic one-byte step. All eight tables are built
//! at compile time. Table `k` maps a byte to its CRC after `k` further zero
//! bytes, which is what makes the sliced step produce exactly the bytewise
//! result for every input (pinned against a bytewise reference by the
//! tests below).

#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss
)]

/// The slicing tables: `TABLES[0]` is the classic one-byte table, and
/// `TABLES[k][b]` is the CRC register of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        #[expect(clippy::cast_possible_truncation, reason = "i < 256 by the loop bound")]
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One bytewise step of the register.
fn step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize]
}

/// CRC32 of `bytes` (IEEE, reflected, init and final XOR `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    crc = chunks.remainder().iter().fold(crc, |crc, &b| step(crc, b));
    crc ^ 0xFFFF_FFFF
}

/// The one-byte-per-step CRC32 the sliced loop must agree with.
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0xFFFF_FFFFu32, |crc, &b| step(crc, b)) ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::{crc32, crc32_bytewise};
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let base = b"checkpoint payload bytes".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at byte {byte} bit {bit}");
            }
        }
    }

    /// 4096 + 8 bytes of xorshift noise: every case slices the same buffer.
    fn shared_buffer() -> Vec<u8> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        (0..4096 + 8)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s.to_le_bytes()[0]
            })
            .collect()
    }

    #[test]
    fn sliced_matches_bytewise_for_every_short_length_and_offset() {
        // Exhaustive over the cases the random sweep below may miss: every
        // start offset against every length up to three full 8-byte steps
        // plus each remainder.
        let buf = shared_buffer();
        for off in 0..8 {
            for len in 0..32 {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {off} length {len}");
            }
        }
    }

    proptest! {
        #[test]
        fn sliced_matches_bytewise_reference(len in 0usize..4096, off in 0usize..8) {
            let buf = shared_buffer();
            let s = &buf[off..off + len];
            prop_assert_eq!(crc32(s), crc32_bytewise(s));
        }
    }
}

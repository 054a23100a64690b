//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! The frame trailer checksum. Slicing-by-8: eight 256-entry tables built
//! lazily at first use let the main loop fold eight input bytes per step
//! instead of one, which is what lets a `Raw` frame move at memory speed
//! rather than at the pace of a byte-serial table walk. No external
//! crates, byte-order independent.

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// CRC-32 of `data` (init 0xFFFFFFFF, final xor 0xFFFFFFFF — the common
/// zlib/ethernet convention).
pub fn crc32(data: &[u8]) -> u32 {
    let t = tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let lo = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ c;
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time table walk the sliced loop must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let t = &tables()[0];
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    proptest! {
        /// Every length 0..4096 at every start offset 0..8 within an
        /// allocation, so the 8-byte blocks fall on every alignment and
        /// the tail takes every length.
        #[test]
        fn sliced_matches_bytewise(
            bytes in proptest::collection::vec(0u8..=255, 0..4104),
            offset in 0usize..8,
        ) {
            let data = &bytes[offset.min(bytes.len())..];
            prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_every_short_length_and_offset() {
        let bytes: Vec<u8> = (0..96u32).map(|i| (i.wrapping_mul(151) >> 3) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &bytes[offset..offset + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn any_single_byte_flip_changes_the_crc() {
        let data: Vec<u8> = (0u16..256).map(|b| b as u8).collect();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut d = data.clone();
                d[i] ^= 1 << bit;
                assert_ne!(crc32(&d), base, "flip at byte {i} bit {bit} not detected");
            }
        }
    }
}

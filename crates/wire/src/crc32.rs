//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! The checksum of every frame trailer, journal record and snapshot
//! container. One function, [`crc32`], two formulations of the
//! same polynomial division, chosen from the CPU and the buffer length
//! alone; they return the same value for every input (`tests/crc_pins.rs`
//! holds values computed before the second one existed).
//!
//! * **Carry-less-multiply folding** — x86-64 with `pclmulqdq`, buffers of
//!   at least `FOLD_MIN` = 64 bytes. After Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ" (Intel, 2009):
//!   the state is XORed into the first of four 128-bit lanes, each lane is
//!   folded 64 bytes forward per step (two multiplies by `x^(512±32) mod
//!   P`, `K1`/`K2`), the four lanes are folded into one and
//!   that lane 16 bytes forward per step (`x^(128±32) mod P`,
//!   `K3`/`K4`), and the last 128 bits are reduced to 64, to
//!   32 (`K5`) and Barrett-reduced (`P_X`, `MU`) to
//!   the state after the last whole 16-byte block. The four lanes are four
//!   independent multiply chains, so the loop runs at the multiplier's
//!   throughput, not its latency: 20.7 GiB/s on a 920 kB frame on the host
//!   this was measured on (16.3 at 256 bytes, 8.8 at 64), more than the
//!   16 GiB/s frame copy beside it sustains.
//! * **Slicing-by-8** — everything else: the < 16-byte tail the fold
//!   leaves, buffers under `FOLD_MIN` bytes, every other CPU. Eight
//!   256-entry tables built lazily at first use advance the state eight
//!   bytes per step, but each step's table indices depend on the step
//!   before, so it runs at one load-to-use latency per 8 bytes
//!   (1.3 GiB/s on the same host from 1 kB up, 2.6 at 64 bytes).
//!
//! No external crates, byte-order independent.

/// Shortest buffer the folded path takes: four 128-bit lanes.
const FOLD_MIN: usize = 64;

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
    let mut state = 0xFFFF_FFFFu32;
    let mut rest = data;
    #[cfg(target_arch = "x86_64")]
    if rest.len() >= FOLD_MIN && is_x86_feature_detected!("pclmulqdq") {
        let (blocks, tail) = rest.split_at(rest.len() & !15);
        // SAFETY: `fold` needs only the `pclmulqdq` CPU feature, which the
        // (std-cached) detection above just confirmed; its requirement on
        // the length (≥ 64, a multiple of 16) is checked inside it.
        state = unsafe { x86::fold(state, blocks) };
        rest = tail;
    }
    sliced(state, rest) ^ 0xFFFF_FFFF
}

/// Advances the raw (un-inverted) CRC `state` over `data`, eight bytes per
/// table step and then bytewise.
fn sliced(state: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut c = state;
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
    c
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::FOLD_MIN;
    use std::arch::x86_64::*;

    // Folding constants for the reflected polynomial 0xEDB88320 (Gopal et
    // al., table for the bit-reflected IEEE 802.3 CRC): `x^n mod P`,
    // bit-reflected and shifted left by one.
    /// `x^(4·128+32) mod P`: moves a lane's low half 64 bytes forward.
    const K1: i64 = 0x1_5444_2bd4;
    /// `x^(4·128−32) mod P`: moves a lane's high half 64 bytes forward.
    const K2: i64 = 0x1_c6e4_1596;
    /// `x^(128+32) mod P`: moves a lane's low half 16 bytes forward.
    const K3: i64 = 0x1_7519_97d0;
    /// `x^(128−32) mod P`: moves a lane's high half 16 bytes forward, and
    /// reduces 128 bits to 96.
    const K4: i64 = 0x0_ccaa_009e;
    /// `x^64 mod P`: reduces 96 bits to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial itself, 33 bits, reflected.
    const P_X: i64 = 0x1_db71_0641;
    /// `⌊x^64 / P⌋`, reflected: the Barrett constant.
    const MU: i64 = 0x1_f701_1641;

    /// One 128-bit lane from 16 bytes, first byte lowest.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lane(bytes: &[u8]) -> __m128i {
        let lo = i64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let hi = i64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        _mm_set_epi64x(hi, lo)
    }

    /// `lane` moved forward by the distance `keys` encodes (low half times
    /// the low key, high half times the high key), plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_lane(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(lane, keys, 0x00);
        let hi = _mm_clmulepi64_si128(lane, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// The raw CRC state after `blocks`, entered with the raw state
    /// `state`. `blocks` is at least [`FOLD_MIN`] bytes and a whole number
    /// of 16-byte blocks (asserted).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn fold(state: u32, blocks: &[u8]) -> u32 {
        assert!(
            blocks.len() >= FOLD_MIN && blocks.len().is_multiple_of(16),
            "fold over {} bytes",
            blocks.len()
        );
        let (head, blocks) = blocks.split_at(FOLD_MIN);
        let mut x = [lane(&head[..16]), lane(&head[16..32]), lane(&head[32..48]), lane(&head[48..])];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut wide = blocks.chunks_exact(FOLD_MIN);
        for b in &mut wide {
            x[0] = fold_lane(x[0], lane(&b[..16]), k1k2);
            x[1] = fold_lane(x[1], lane(&b[16..32]), k1k2);
            x[2] = fold_lane(x[2], lane(&b[32..48]), k1k2);
            x[3] = fold_lane(x[3], lane(&b[48..]), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let [mut x, rest @ ..] = x;
        for next in rest {
            x = fold_lane(x, next, k3k4);
        }
        for b in wide.remainder().chunks_exact(16) {
            x = fold_lane(x, lane(b), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = ⌊x mod x^32⌋·µ, T2 = ⌊T1 mod x^32⌋·P, and the
        // state is bits 32..64 of x ⊕ T2 (reflected, so the upper word).
        let p_mu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), p_mu, 0x00);
        _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time table walk every other formulation must agree
    /// with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let t = &tables()[0];
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// The folded path alone (fold, then the table loop over the tail), or
    /// `None` where `crc32` would not take it.
    fn crc32_folded(data: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= FOLD_MIN && is_x86_feature_detected!("pclmulqdq") {
            let (blocks, tail) = data.split_at(data.len() & !15);
            // SAFETY: `pclmulqdq` was detected on the line above.
            let state = unsafe { x86::fold(0xFFFF_FFFF, blocks) };
            return Some(sliced(state, tail) ^ 0xFFFF_FFFF);
        }
        let _ = data;
        None
    }

    /// The dispatching function, the table loop alone and (where it runs)
    /// the folded path all equal the bytewise reference.
    fn assert_all_paths_agree(data: &[u8], what: &str) {
        let want = crc32_bytewise(data);
        assert_eq!(crc32(data), want, "crc32, {what}");
        assert_eq!(sliced(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF, want, "slicing-by-8, {what}");
        if let Some(folded) = crc32_folded(data) {
            assert_eq!(folded, want, "folded, {what}");
        }
    }

    fn noise(len: usize, seed: u32) -> Vec<u8> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (s >> 24) as u8
            })
            .collect()
    }

    proptest! {
        /// Random bytes, random length 0..4200 at a random start offset
        /// 0..16 within the allocation.
        #[test]
        fn sliced_matches_bytewise(
            bytes in proptest::collection::vec(0u8..=255, 0..4216),
            offset in 0usize..16,
        ) {
            let data = &bytes[offset.min(bytes.len())..];
            assert_all_paths_agree(data, "random buffer");
        }
    }

    /// Every length 0..4200 (short next to a frame; the next test has
    /// those) at every start offset 0..16, so the 8-, 16- and 64-byte
    /// blocks fall on every alignment, the fold loops run zero, one and
    /// many times, and the tail takes every length.
    #[test]
    fn sliced_matches_bytewise_on_every_short_length_and_offset() {
        let bytes = noise(4200 + 16, 1);
        for offset in 0..16 {
            for len in 0..4200 {
                assert_all_paths_agree(&bytes[offset..offset + len], &format!("offset {offset} len {len}"));
            }
        }
    }

    /// Frame-sized buffers with odd tails.
    #[test]
    fn every_path_matches_bytewise_on_large_buffers() {
        let bytes = noise((1 << 20) + 64, 2);
        for (offset, len) in
            [(0, 1 << 16), (1, (1 << 16) + 1), (5, 300_007), (3, 920_303), (7, (1 << 20) + 15)]
        {
            assert_all_paths_agree(&bytes[offset..offset + len], &format!("offset {offset} len {len}"));
        }
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // The all-zero and all-one 32-byte blocks.
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
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

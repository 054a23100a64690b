//! SipHash-2-4, the striped frame MAC built from it, and the per-device
//! frame-authentication key.
//!
//! CRC32 catches transit *corruption* but not *forgery*: anyone who can
//! flip bytes can also recompute the checksum. Frame authentication
//! closes that gap with a keyed 64-bit MAC appended after the CRC
//! trailer (see [`crate::frame`]). SipHash-2-4 is the standard choice
//! for short-input keyed hashing — no lookup tables, implementable in a
//! leaf crate with zero dependencies — but it is one serial chain: every
//! 8-byte word waits on the two SipRounds before it, ~2 GB/s however wide
//! the machine.
//!
//! [`FrameKey::mac`] therefore runs eight SipHash-2-4 chains side by side
//! and ties them together with a ninth. For `data` of length `n`:
//!
//! * `data` is cut into ⌊n/64⌋ full 64-byte *stripes* and a tail of fewer
//!   than 64 bytes;
//! * lane `i` (0..8) is [`siphash24`] under lane key `k_i` over 8-byte word
//!   `i` of every stripe, in order, giving `tag_i`;
//! * the MAC is `siphash24(k, tag_0‖…‖tag_7‖tail‖n as u64 LE)`.
//!
//! The lane keys are derived once per [`FrameKey`] from that key, under
//! domain tags (`0xD2` / `0xD3`) that [`FrameKey::derive`] never uses. The
//! eight lanes are one loop over `[u64; 8]` state arrays, compiled twice:
//! at the build's baseline, and for `avx512f`, picked at run time where
//! the CPU has it. With AVX-512 each step is one `vpaddq` / `vprolq` /
//! `vpxorq` across all eight lanes. Below it there is no 64-bit vector
//! rotate, and LLVM keeps the lanes as eight independent scalar chains
//! (`rorx` at the repo's `x86-64-v3` floor), which still overlap where one
//! chain cannot. Integer add-rotate-xor is exact, so every build and
//! engine returns the same tag — the tests compare both against an oracle
//! written with nothing but [`siphash24`]. On the host this was measured
//! on, a 920 kB frame MACs at 10.5 GB/s with AVX-512 and 3.5 without it,
//! against 2.0 for one serial chain. Under ~200 bytes the eight
//! finalisations and the final PRF cost more than the lanes save (64
//! bytes: 75–115 ns against ~40); only control frames are that small.
//!
//! Keys are never serialized by this crate; the cloud holds one master
//! key and derives a per-device key with [`FrameKey::derive`], so a
//! device that leaks its key can forge only its own traffic.

/// Parallel SipHash chains in the frame MAC.
const LANES: usize = 8;
/// Bytes one step of the lanes consumes: one word per lane.
const STRIPE: usize = 8 * LANES;

/// One SipRound (the ARX core permutation).
#[inline(always)]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// The SipHash state under the key `(k0, k1)`, before any input.
#[inline(always)]
fn init(k0: u64, k1: u64) -> [u64; 4] {
    [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d,
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ]
}

/// Absorbs one 8-byte word (two SipRounds: the "2" of SipHash-2-4).
#[inline(always)]
fn compress(v: &mut [u64; 4], m: u64) {
    v[3] ^= m;
    sipround(v);
    sipround(v);
    v[0] ^= m;
}

/// Absorbs the last word `b` (length byte on top) and runs the four
/// finalisation SipRounds; the tag is the XOR of the four words.
#[inline(always)]
fn finalize(v: &mut [u64; 4], b: u64) {
    compress(v, b);
    v[2] ^= 0xff;
    for _ in 0..4 {
        sipround(v);
    }
}

/// SipHash-2-4 of `data` under the 128-bit key `(k0, k1)`.
///
/// Matches the reference implementation bit-for-bit (pinned by the
/// published test vectors below), so both ends of the wire agree on MAC
/// values regardless of platform.
pub fn siphash24(k0: u64, k1: u64, data: &[u8]) -> u64 {
    let mut v = init(k0, k1);
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        compress(&mut v, u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes")));
    }
    let mut b = (data.len() as u64) << 56;
    for (i, &byte) in chunks.remainder().iter().enumerate() {
        b |= (byte as u64) << (8 * i);
    }
    finalize(&mut v, b);
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// The eight lane keys of a [`FrameKey`], as `(k0, k1)` columns.
type LaneKeys = [[u64; LANES]; 2];

/// `[tag_0, …, tag_7]` over the whole stripes `stripes` (a multiple of
/// [`STRIPE`] bytes): lane `i` is SipHash-2-4 under `keys[·][i]` of word
/// `i` of every stripe. The lanes are one state per lane, stepped
/// together, and every loop below runs over the lanes, so where the
/// target has a 64-bit vector rotate each step is one vector operation.
#[inline(always)]
fn lane_tags_generic(keys: &LaneKeys, stripes: &[u8]) -> [u64; LANES] {
    // `v[w][i]` is state word `w` of lane `i`: word-major, so each step of
    // `step` reads and writes one contiguous vector per state word.
    let mut v = [[0u64; LANES]; 4];
    step(&mut v, |s, i| *s = init(keys[0][i], keys[1][i]));
    for stripe in stripes.chunks_exact(STRIPE) {
        let mut m = [0u64; LANES];
        for (m, word) in m.iter_mut().zip(stripe.chunks_exact(8)) {
            *m = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes"));
        }
        step(&mut v, |s, i| compress(s, m[i]));
    }
    let b = ((stripes.len() / LANES) as u64) << 56;
    step(&mut v, |s, _| finalize(s, b));
    std::array::from_fn(|i| v[0][i] ^ v[1][i] ^ v[2][i] ^ v[3][i])
}

/// Applies `f` to every lane's state `[v[0][i], …, v[3][i]]`.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `i` indexes four arrays at once
fn step(v: &mut [[u64; LANES]; 4], f: impl Fn(&mut [u64; 4], usize)) {
    for i in 0..LANES {
        let mut s = [v[0][i], v[1][i], v[2][i], v[3][i]];
        f(&mut s, i);
        for (w, x) in s.into_iter().enumerate() {
            v[w][i] = x;
        }
    }
}

/// [`lane_tags_generic`] with 512-bit registers: one `vprolq` / `vpaddq`
/// per step covers all eight lanes. Call only where `avx512f` was
/// detected.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lane_tags_avx512(keys: &LaneKeys, stripes: &[u8]) -> [u64; LANES] {
    lane_tags_generic(keys, stripes)
}

/// The lane tags on the widest engine this CPU runs.
fn lane_tags(keys: &LaneKeys, stripes: &[u8]) -> [u64; LANES] {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") {
        // SAFETY: `lane_tags_avx512` needs only the `avx512f` CPU feature,
        // which the (std-cached) detection above just confirmed.
        return unsafe { lane_tags_avx512(keys, stripes) };
    }
    lane_tags_generic(keys, stripes)
}

/// A 128-bit frame-authentication key.
///
/// The cloud holds a master `FrameKey`; each device gets
/// `master.derive(device_id)`. Both sides MAC the frame header+body with
/// [`FrameKey::mac`] and compare the 64-bit tag.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct FrameKey {
    k0: u64,
    k1: u64,
    /// Derived from `(k0, k1)` at construction, so equal halves mean
    /// equal lanes.
    lanes: LaneKeys,
}

impl FrameKey {
    /// The key `(k0, k1)` with its lane keys: two PRF evaluations per
    /// lane, one per half, under tags `derive` never writes.
    fn new(k0: u64, k1: u64) -> Self {
        let lanes =
            [0xD2, 0xD3].map(|tag| std::array::from_fn(|i| siphash24(k0, k1, &tagged(i as u64, tag))));
        FrameKey { k0, k1, lanes }
    }

    /// Build a key from 16 raw bytes (little-endian halves).
    pub fn from_bytes(bytes: &[u8; 16]) -> Self {
        let k0 = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
        let k1 = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        FrameKey::new(k0, k1)
    }

    /// Derive the per-device key for `device` from this master key.
    ///
    /// Two PRF evaluations with distinct domain-separation tags produce
    /// the two 64-bit halves, so per-device keys are independent and a
    /// compromised device cannot recover the master or a sibling's key.
    pub fn derive(&self, device: u64) -> FrameKey {
        let k0 = siphash24(self.k0, self.k1, &tagged(device, 0xD0));
        let k1 = siphash24(self.k0, self.k1, &tagged(device, 0xD1));
        FrameKey::new(k0, k1)
    }

    /// MAC `data` under this key: the striped construction of the module
    /// doc.
    pub fn mac(&self, data: &[u8]) -> u64 {
        let (stripes, tail) = data.split_at(data.len() - data.len() % STRIPE);
        self.seal(lane_tags(&self.lanes, stripes), tail, data.len())
    }

    /// The final PRF: `siphash24(k, tags‖tail‖n as u64 LE)`.
    fn seal(&self, tags: [u64; LANES], tail: &[u8], n: usize) -> u64 {
        let mut msg = [0u8; 8 * LANES + STRIPE - 1 + 8];
        for (at, tag) in msg.chunks_exact_mut(8).zip(tags) {
            at.copy_from_slice(&tag.to_le_bytes());
        }
        let end = 8 * LANES + tail.len();
        msg[8 * LANES..end].copy_from_slice(tail);
        msg[end..end + 8].copy_from_slice(&(n as u64).to_le_bytes());
        siphash24(self.k0, self.k1, &msg[..end + 8])
    }
}

/// The 9-byte derivation message `id as u64 LE ‖ tag`.
fn tagged(id: u64, tag: u8) -> [u8; 9] {
    let mut msg = [tag; 9];
    msg[..8].copy_from_slice(&id.to_le_bytes());
    msg
}

impl std::fmt::Debug for FrameKey {
    /// Redacted: keys must not leak through logs or panic messages.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FrameKey(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference-implementation key 00 01 .. 0f.
    const K0: u64 = 0x0706_0504_0302_0100;
    const K1: u64 = 0x0f0e_0d0c_0b0a_0908;

    #[test]
    fn reference_vectors() {
        // Published SipHash-2-4 64-bit vectors: input is 00 01 .. (len-1).
        let cases: &[(usize, u64)] = &[
            (0, 0x726f_db47_dd0e_0e31),
            (1, 0x74f8_39c5_93dc_67fd),
            (8, 0x93f5_f579_9a93_2462),
            (15, 0xa129_ca61_49be_45e5),
        ];
        for &(len, want) in cases {
            let data: Vec<u8> = (0..len as u8).collect();
            assert_eq!(siphash24(K0, K1, &data), want, "vector len {len}");
        }
    }

    #[test]
    fn derived_keys_differ_per_device() {
        let master = FrameKey::from_bytes(&[7u8; 16]);
        let a = master.derive(1);
        let b = master.derive(2);
        assert_ne!(a, b);
        assert_ne!(a, master);
        // Deterministic.
        assert_eq!(a, master.derive(1));
        // And the MAC actually depends on the key.
        assert_ne!(a.mac(b"hello"), b.mac(b"hello"));
    }

    #[test]
    fn mac_depends_on_every_byte() {
        let key = FrameKey::from_bytes(&[3u8; 16]);
        let msg = b"nebula wire frame".to_vec();
        let tag = key.mac(&msg);
        for i in 0..msg.len() {
            let mut m = msg.clone();
            m[i] ^= 0x01;
            assert_ne!(key.mac(&m), tag, "flip at {i} left MAC unchanged");
        }
    }

    #[test]
    fn debug_redacts_key_material() {
        let key = FrameKey::from_bytes(&[9u8; 16]);
        assert_eq!(format!("{key:?}"), "FrameKey(..)");
    }

    /// The striped MAC written with nothing but [`siphash24`]: lane keys
    /// from the raw halves, each lane's bytes gathered into a buffer of
    /// their own and hashed, then the tags, the tail and the length.
    fn oracle(k0: u64, k1: u64, data: &[u8]) -> u64 {
        let mut last = Vec::new();
        for i in 0..8u64 {
            let mut msg = i.to_le_bytes().to_vec();
            msg.push(0xD2);
            let lk0 = siphash24(k0, k1, &msg);
            msg[8] = 0xD3;
            let lk1 = siphash24(k0, k1, &msg);
            let lane: Vec<u8> =
                data.chunks_exact(64).flat_map(|s| s[8 * i as usize..8 * i as usize + 8].to_vec()).collect();
            last.extend_from_slice(&siphash24(lk0, lk1, &lane).to_le_bytes());
        }
        last.extend_from_slice(&data[data.len() / 64 * 64..]);
        last.extend_from_slice(&(data.len() as u64).to_le_bytes());
        siphash24(k0, k1, &last)
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

    /// Every length 0..=600 (zero, one and many stripes, every tail) and
    /// four frame-sized ones, at start offset 3 so no word is aligned,
    /// under three keys: the dispatched [`FrameKey::mac`] and the
    /// baseline build of the lanes each equal the oracle. On a CPU with
    /// AVX-512 the first is the 512-bit copy, so both engines are checked.
    #[test]
    fn mac_matches_the_siphash24_oracle_on_every_engine() {
        let bytes = noise(920_303 + 3, 5);
        let keys = [(K0, K1), (0, 0), (0x9e37_79b9_7f4a_7c15, 0xdead_beef_0bad_f00d)];
        for (k0, k1) in keys {
            let key = FrameKey::new(k0, k1);
            for n in (0..=600).chain([4_101, 73_000, 146_371, 920_303]) {
                let data = &bytes[3..3 + n];
                let want = oracle(k0, k1, data);
                assert_eq!(key.mac(data), want, "dispatched, key {k0:#x} len {n}");
                let (stripes, tail) = data.split_at(n / STRIPE * STRIPE);
                let baseline = key.seal(lane_tags_generic(&key.lanes, stripes), tail, n);
                assert_eq!(baseline, want, "baseline, key {k0:#x} len {n}");
            }
        }
    }
}

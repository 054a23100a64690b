//! Bit pins of the symmetric-int8 codec: the exact bytes `encode_q8`
//! writes, the exact residual it leaves behind, and the exact floats
//! `decode_q8` returns, over inputs chosen to hit every branch and every
//! rounding corner — ties at ±½, values past the clamp, subnormal and
//! near-`f32::MAX` scales, signed zeros, NaN and infinities, and error
//! feedback carried over several rounds. Lengths straddle every vector
//! width a build might use, so a lane loop's tail is covered too.
//!
//! The constants were taken from the serial codec. A faster codec must
//! reproduce them bit for bit; a digest that moves means the wire format or
//! the error-feedback stream changed.

use nebula_wire::codec;

/// Lengths around every power-of-two lane count up to 64, plus two long
/// tensors.
const LENS: [usize; 20] = [0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 129, 1000, 4099];

/// splitmix64: a self-contained stream, so the pins depend on nothing but
/// this file.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// Encodes `rounds` successive tensors (`round` → values) through one
/// residual and digests every encoded byte, the residual after each round
/// and the decode of each payload.
fn digest_rounds(len: usize, rounds: usize, mut values: impl FnMut(usize, usize) -> Vec<f32>, h: &mut Fnv) {
    let mut residual = Vec::new();
    for round in 0..rounds {
        let vals = values(round, len);
        assert_eq!(vals.len(), len);
        // The codec appends after what a frame builder already wrote.
        let mut enc = vec![0xA5];
        codec::encode_q8(&vals, &mut residual, &mut enc);
        assert_eq!(enc.len(), 1 + 4 + len, "one scale and one byte per element");
        h.bytes(&enc);
        h.floats(&residual);
        let mut dec = vec![7.0f32; 3];
        codec::decode_q8(&enc[1..], len, &mut dec).expect("own payload decodes");
        h.floats(&dec);
    }
}

fn case(name: &str, rounds: usize, mut values: impl FnMut(&mut Stream, usize, usize) -> Vec<f32>) -> u64 {
    let mut h = Fnv::new();
    let mut s = Stream(name.bytes().fold(0u64, |a, b| a.rotate_left(8) ^ b as u64));
    for len in LENS {
        digest_rounds(len, rounds, |round, len| values(&mut s, round, len), &mut h);
    }
    h.0
}

/// Every case's digest, in the order of [`PINS`].
fn digests() -> Vec<(&'static str, u64)> {
    vec![
        // Plain weights with error feedback over five rounds.
        ("uniform", case("uniform", 5, |s, _, len| (0..len).map(|_| 3.0 * s.unit()).collect())),
        // The scale is exactly 1 (or 2): every other value sits on a
        // rounding tie, which rounds away from zero.
        (
            "ties",
            case("ties", 1, |s, round, len| {
                let step = if round % 2 == 0 { 1.0 } else { 2.0 };
                (0..len)
                    .map(|i| match i {
                        0 => 127.0 * step,
                        1 => -127.0 * step,
                        _ => (s.below(254) as f32 - 127.0 + 0.5) * step,
                    })
                    .collect()
            }),
        ),
        // A few huge values crush the rest to 0 and ±1 codes; the clamp
        // sees the carried residual push past ±127.
        (
            "outliers",
            case("outliers", 4, |s, _, len| {
                (0..len).map(|_| if s.below(9) == 0 { 1e4 * s.unit() } else { 1e-2 * s.unit() }).collect()
            }),
        ),
        // Scales at both ends of the exponent range: subnormal steps, and
        // steps whose products near `f32::MAX`.
        (
            "extremes",
            case("extremes", 3, |s, round, len| {
                let m = [1e-40, 3e-44, 3e38][round];
                (0..len).map(|_| m * s.unit()).collect()
            }),
        ),
        // Signed zeros among small values, and all-zero tensors of either
        // sign (the zero-scale branch).
        (
            "zeros",
            case("zeros", 4, |s, round, len| {
                (0..len)
                    .map(|_| match (round, s.below(3)) {
                        (0, _) => -0.0,
                        (1, _) => 0.0,
                        (_, 0) => -0.0,
                        (_, 1) => 0.0,
                        _ => 0.25 * s.unit(),
                    })
                    .collect()
            }),
        ),
        // A NaN leaves the scale finite and poisons its own residual slot;
        // an infinity makes the scale NaN and clears the residual. Clean
        // rounds follow each.
        (
            "non_finite",
            case("non_finite", 4, |s, round, len| {
                let poison = [f32::NAN, 0.0, f32::INFINITY, f32::NEG_INFINITY][round];
                (0..len)
                    .map(|_| if poison != 0.0 && s.below(5) == 0 { poison } else { 2.0 * s.unit() })
                    .collect()
            }),
        ),
    ]
}

/// `decode_q8` over every byte value under scales of every class.
fn decode_digest() -> u64 {
    let mut h = Fnv::new();
    let scales = [0.5f32, 1.0 / 127.0, 3e-41, 2.6e36, 0.0, -0.0, f32::NAN, f32::INFINITY, -1.5];
    let bytes: Vec<u8> = (0..=255u8).chain((0..=255u8).rev()).collect();
    for scale in scales {
        for len in [0, 1, 17, 65, bytes.len()] {
            let mut payload = scale.to_le_bytes().to_vec();
            payload.extend_from_slice(&bytes[..len]);
            let mut out = Vec::new();
            codec::decode_q8(&payload, len, &mut out).expect("well-formed payload");
            h.floats(&out);
        }
    }
    h.0
}

const PINS: [(&str, u64); 6] = [
    ("uniform", 0xb21982530fd4ec03),
    ("ties", 0x7c0391bbfdf758d1),
    ("outliers", 0xfdeb899b2a15c408),
    ("extremes", 0xe6ef387daa95dcf2),
    ("zeros", 0x59f27b9f0d73ff24),
    ("non_finite", 0xb515a62cd457d2f5),
];

const DECODE_PIN: u64 = 0x360b_ae1e_f9db_0fc3;

#[test]
fn encode_bytes_residuals_and_decodes_are_pinned() {
    let got = digests();
    let table: Vec<String> = got.iter().map(|(n, d)| format!("(\"{n}\", {d:#018x})")).collect();
    assert_eq!(got, PINS.to_vec(), "q8 encode digests moved:\n{}", table.join(",\n"));
}

#[test]
fn decode_is_pinned() {
    assert_eq!(decode_digest(), DECODE_PIN, "q8 decode digest moved: {:#018x}", decode_digest());
}

//! Payload codecs: how one record's f32 tensor becomes bytes.
//!
//! Codecs are deliberately frame-agnostic — they turn a `&[f32]` into
//! bytes appended to a caller-owned buffer and back, so the frame layer
//! can mix codecs per record (e.g. a delta frame that falls back to raw
//! for modules the receiver has no baseline for).
//!
//! * `Raw` — little-endian f32, bit-exact round trip.
//! * `DeltaFp32` — sparse `(u32 index, f32 delta)` pairs versus a
//!   versioned baseline both ends hold; entries with `|delta| <=
//!   threshold` are dropped. The encoder falls back to `Raw` whenever the
//!   sparse form would not actually be smaller, so `DeltaFp32` is never
//!   worse than `Raw` on the wire.
//! * `QuantInt8` — per-tensor symmetric int8: one f32 scale followed by
//!   one signed byte per element. The sender carries an error-feedback
//!   residual so quantization error is re-injected into the next encode
//!   instead of accumulating (1/R average-error decay over R rounds).
//!
//! Non-finite inputs are not laundered: a NaN/Inf tensor yields a NaN
//! scale and decodes to NaNs, which the aggregation sanitize gate rejects
//! exactly like app-level corruption. The residual is zeroed in that case
//! so one poisoned round cannot contaminate later clean rounds.

use crate::frame::ModuleKey;
use crate::WireError;
use std::collections::HashMap;

/// Wire codec identifiers. The `u8` values are the on-wire ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// Little-endian f32, bit-exact.
    Raw,
    /// Sparse delta vs a versioned baseline; raw fallback when dense.
    DeltaFp32,
    /// Symmetric per-tensor int8 with sender-side error feedback.
    QuantInt8,
}

impl CodecKind {
    /// On-wire codec id.
    pub fn id(self) -> u8 {
        match self {
            CodecKind::Raw => 0,
            CodecKind::DeltaFp32 => 1,
            CodecKind::QuantInt8 => 2,
        }
    }

    /// Parse an on-wire codec id.
    pub fn from_id(id: u8) -> Result<Self, WireError> {
        match id {
            0 => Ok(CodecKind::Raw),
            1 => Ok(CodecKind::DeltaFp32),
            2 => Ok(CodecKind::QuantInt8),
            other => Err(WireError::UnknownCodec(other)),
        }
    }

    /// Human-readable name (used in bench JSON and logs).
    pub fn name(self) -> &'static str {
        match self {
            CodecKind::Raw => "raw",
            CodecKind::DeltaFp32 => "delta_fp32",
            CodecKind::QuantInt8 => "quant_int8",
        }
    }
}

/// Append `values` as little-endian f32 bytes.
///
/// The destination is sized once and filled through `chunks_exact_mut`,
/// so the loop carries no per-element capacity check and compiles to a
/// block copy on little-endian targets.
pub fn encode_raw(values: &[f32], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + 4 * values.len(), 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Decode a raw payload of exactly `elems` f32s into `out` (cleared first).
pub fn decode_raw(payload: &[u8], elems: usize, out: &mut Vec<f32>) -> Result<(), WireError> {
    if payload.len() != 4 * elems {
        return Err(WireError::LengthMismatch { expected: 4 * elems, got: payload.len() });
    }
    out.clear();
    out.resize(elems, 0.0);
    for (dst, chunk) in out.iter_mut().zip(payload.chunks_exact(4)) {
        *dst = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    Ok(())
}

/// Encode `values` as a sparse delta against `baseline`, dropping entries
/// with `|delta| <= threshold`. Returns the codec actually written:
/// `DeltaFp32` when the sparse form is smaller, `Raw` otherwise (including
/// a baseline length mismatch, which should not happen with a correct
/// registry but must not corrupt the stream if it does).
pub fn encode_delta(values: &[f32], baseline: &[f32], threshold: f32, out: &mut Vec<u8>) -> CodecKind {
    if baseline.len() != values.len() {
        encode_raw(values, out);
        return CodecKind::Raw;
    }
    let nnz = values.iter().zip(baseline).filter(|(v, b)| !(**v - **b).abs().le(&threshold)).count();
    // 8 bytes per pair vs 4 bytes per dense element.
    if 8 * nnz >= 4 * values.len() {
        encode_raw(values, out);
        return CodecKind::Raw;
    }
    out.reserve(8 * nnz);
    for (i, (v, b)) in values.iter().zip(baseline).enumerate() {
        let d = v - b;
        if !d.abs().le(&threshold) {
            out.extend_from_slice(&(i as u32).to_le_bytes());
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
    CodecKind::DeltaFp32
}

/// Decode a sparse delta payload by applying it to `baseline` into `out`.
/// With the threshold the encoder used, every coordinate of the result is
/// within that threshold of the sender's values (exact when threshold 0).
pub fn decode_delta(
    payload: &[u8],
    elems: usize,
    baseline: &[f32],
    out: &mut Vec<f32>,
) -> Result<(), WireError> {
    if baseline.len() != elems {
        return Err(WireError::LengthMismatch { expected: elems, got: baseline.len() });
    }
    if !payload.len().is_multiple_of(8) {
        return Err(WireError::LengthMismatch { expected: payload.len() / 8 * 8, got: payload.len() });
    }
    out.clear();
    out.extend_from_slice(baseline);
    for pair in payload.chunks_exact(8) {
        let idx = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]) as usize;
        let delta = f32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]);
        if idx >= elems {
            return Err(WireError::LengthMismatch { expected: elems, got: idx });
        }
        out[idx] += delta;
    }
    Ok(())
}

/// Running maxima kept by [`q8_max_abs`]: two AVX2 registers.
const Q8_LANES: usize = 16;

/// Encode `values` as symmetric int8 with error feedback.
///
/// `residual` is the sender-side carry for this tensor; it is resized to
/// match `values` (zero-filled) and updated in place with the new
/// quantization error. Layout: 4-byte f32 scale, then one i8 per element.
///
/// Both passes are loops the compiler vectorises ([`q8_max_abs`],
/// [`q8_quantise`]). Each element goes through the same IEEE operations
/// as a serial loop would, so bytes and residuals do not depend on the
/// vector width. Written the obvious way, pushing each byte through a
/// capacity check and converting through a saturating `as i8`, the loop
/// stays scalar.
pub fn encode_q8(values: &[f32], residual: &mut Vec<f32>, out: &mut Vec<u8>) -> CodecKind {
    residual.resize(values.len(), 0.0);
    let scale = q8_max_abs(values, residual) / 127.0;
    let start = out.len() + 4;
    // Zero codes: the fill the poisoned and all-zero branches keep.
    out.resize(start + values.len(), 0);
    if !scale.is_finite() || scale == 0.0 {
        // A poisoned input emits a NaN scale so the decode is visibly
        // non-finite (sanitize gate territory); either way the residual
        // is dropped, so poison does not leak into later rounds.
        let written = if scale.is_finite() { scale } else { f32::NAN };
        out[start - 4..start].copy_from_slice(&written.to_le_bytes());
        residual.iter_mut().for_each(|r| *r = 0.0);
        return CodecKind::QuantInt8;
    }
    out[start - 4..start].copy_from_slice(&scale.to_le_bytes());
    q8_quantise(values, residual, scale, &mut out[start..]);
    CodecKind::QuantInt8
}

/// `max |v + r|` over the pairs, ignoring NaN, and 0 for an empty tensor.
///
/// The serial fold `m.max(|v + r|)` from `m = 0` keeps the largest
/// non-NaN magnitude whatever the order: magnitudes are never `-0`, so
/// equal maxima are equal bits. Each lane keeps its own running maximum
/// through a `>` compare, which a NaN never wins, and the lanes fold the
/// same way.
fn q8_max_abs(values: &[f32], residual: &[f32]) -> f32 {
    #[inline(always)]
    fn larger(m: f32, a: f32) -> f32 {
        if a > m {
            a
        } else {
            m
        }
    }
    let mut lanes = [0.0f32; Q8_LANES];
    let mut vs = values.chunks_exact(Q8_LANES);
    let mut rs = residual.chunks_exact(Q8_LANES);
    for (v, r) in (&mut vs).zip(&mut rs) {
        for ((m, v), r) in lanes.iter_mut().zip(v).zip(r) {
            *m = larger(*m, (v + r).abs());
        }
    }
    let tail = vs.remainder().iter().zip(rs.remainder()).map(|(v, r)| (v + r).abs());
    lanes.into_iter().chain(tail).fold(0.0, larger)
}

/// Quantises `c = v + r` to `round(c / scale)` clamped to ±127, writes
/// the code to `out` and the new error `c - q·scale` to `r`. Elements are
/// independent, so the loop is written as one pass over the zipped slices
/// for the compiler to vectorise. The division stays a division: a
/// multiply by the reciprocal rounds differently.
fn q8_quantise(values: &[f32], residual: &mut [f32], scale: f32, out: &mut [u8]) {
    /// 1.5·2²³: its float spacing is exactly 1.
    const ROUNDER: f32 = 12_582_912.0;
    for ((v, r), o) in values.iter().zip(residual.iter_mut()).zip(out.iter_mut()) {
        let c = v + *r;
        let x = (c / scale).round().clamp(-127.0, 127.0);
        // `x as i8` maps NaN to 0; past the clamp that is all it does.
        let x = if x.is_nan() { 0.0 } else { x };
        // An integer `x` within ±127 lands exactly in the low mantissa
        // bits of `ROUNDER + x`: the low byte is the two's-complement code,
        // and subtracting `ROUNDER` back gives `q as f32` (+0 for zero of
        // either sign).
        let biased = x + ROUNDER;
        *r = c - (biased - ROUNDER) * scale;
        *o = biased.to_bits() as u8;
    }
}

/// Decode a symmetric-int8 payload of `elems` elements into `out`.
pub fn decode_q8(payload: &[u8], elems: usize, out: &mut Vec<f32>) -> Result<(), WireError> {
    if payload.len() != 4 + elems {
        return Err(WireError::LengthMismatch { expected: 4 + elems, got: payload.len() });
    }
    let scale = f32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]);
    out.clear();
    // One pass: a sized iterator extends without a zero fill first.
    out.extend(payload[4..].iter().map(|&b| (b as i8) as f32 * scale));
    Ok(())
}

/// Sender-side error-feedback residuals, keyed by (sender id, module).
///
/// Residuals belong to the *encoder*: each edge device carries its own
/// upload residuals, the cloud carries per-receiver download residuals.
/// The store resizes entries on demand so module shape changes (sub-model
/// re-derivation) reset the carry rather than mixing shapes.
#[derive(Debug, Default)]
pub struct ResidualStore {
    map: HashMap<(u64, ModuleKey), Vec<f32>>,
}

impl ResidualStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Residual buffer for `(sender, key)`, zero-initialised (or reset)
    /// to `len` elements.
    pub fn residual(&mut self, sender: u64, key: ModuleKey, len: usize) -> &mut Vec<f32> {
        let r = self.map.entry((sender, key)).or_default();
        if r.len() != len {
            r.clear();
            r.resize(len, 0.0);
        }
        r
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_round_trips_every_bit_pattern_class() {
        // Values a numeric copy could launder but a byte copy must not:
        // quiet and signalling NaNs with payloads, both zeros, subnormals,
        // infinities and the extremes.
        let bits: [u32; 12] = [
            0x7FC0_0001,
            0xFFC1_2345,
            0x7F80_0001,
            0xFFBF_FFFF,
            0x0000_0000,
            0x8000_0000,
            0x0000_0001,
            0x807F_FFFF,
            0x7F80_0000,
            0xFF80_0000,
            0x7F7F_FFFF,
            0x0080_0000,
        ];
        let vals: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        // Appends after what the frame builder already wrote.
        let mut enc = vec![0xAB, 0xCD, 0xEF];
        encode_raw(&vals, &mut enc);
        assert_eq!(&enc[..3], &[0xAB, 0xCD, 0xEF]);
        assert_eq!(enc.len(), 3 + 4 * vals.len());
        for (chunk, b) in enc[3..].chunks_exact(4).zip(bits) {
            assert_eq!(chunk, b.to_le_bytes());
        }
        // Decodes over stale contents of a reused buffer.
        let mut back = vec![1.0f32; 40];
        decode_raw(&enc[3..], vals.len(), &mut back).unwrap();
        let back_bits: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
        assert_eq!(back_bits, bits);
    }

    #[test]
    fn raw_and_q8_reject_wrong_lengths_and_handle_empty() {
        let mut out = vec![9.0f32];
        assert!(decode_raw(&[0; 7], 2, &mut out).is_err());
        assert!(decode_q8(&[0; 4], 1, &mut out).is_err());
        decode_raw(&[], 0, &mut out).unwrap();
        assert!(out.is_empty());
        let mut enc = Vec::new();
        encode_raw(&[], &mut enc);
        assert!(enc.is_empty());
    }

    /// The serial codec, written the obvious way: the reference the lane
    /// loops are held to.
    fn encode_q8_serial(values: &[f32], residual: &mut Vec<f32>, out: &mut Vec<u8>) {
        residual.resize(values.len(), 0.0);
        let mut max_abs = 0.0f32;
        for (v, r) in values.iter().zip(residual.iter()) {
            max_abs = max_abs.max((v + r).abs());
        }
        let scale = max_abs / 127.0;
        if !scale.is_finite() || scale == 0.0 {
            let written = if scale.is_finite() { scale } else { f32::NAN };
            out.extend_from_slice(&written.to_le_bytes());
            out.extend(std::iter::repeat_n(0u8, values.len()));
            residual.iter_mut().for_each(|r| *r = 0.0);
            return;
        }
        out.extend_from_slice(&scale.to_le_bytes());
        for (v, r) in values.iter().zip(residual.iter_mut()) {
            let c = v + *r;
            let q = (c / scale).round().clamp(-127.0, 127.0) as i8;
            *r = c - q as f32 * scale;
            out.push(q as u8);
        }
    }

    #[test]
    fn q8_lanes_match_the_serial_codec_bit_for_bit() {
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |m: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % m
        };
        let specials = [0.0, -0.0, f32::NAN, f32::INFINITY, 1e-42, 127.5, -63.5];
        for len in 0..70 {
            let (mut r_lane, mut r_serial) = (Vec::new(), Vec::new());
            // Four rounds through one residual: error feedback carries over.
            for round in 0..4 {
                let values: Vec<f32> = (0..len)
                    .map(|_| match next(25) {
                        0 if round != 1 => specials[next(specials.len() as u64) as usize],
                        _ => (next(2001) as f32 - 1000.0) * 0.01,
                    })
                    .collect();
                let (mut lane, mut serial) = (vec![1u8], vec![1u8]);
                encode_q8(&values, &mut r_lane, &mut lane);
                encode_q8_serial(&values, &mut r_serial, &mut serial);
                assert_eq!(lane, serial, "bytes, len {len} round {round}");
                let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&r_lane), bits(&r_serial), "residual, len {len} round {round}");
            }
        }
    }

    #[test]
    fn q8_decode_scales_signed_bytes() {
        let mut payload = 0.5f32.to_le_bytes().to_vec();
        payload.extend_from_slice(&[0x7F, 0x81, 0x00, 0xFF]);
        let mut out = vec![3.0f32; 9];
        decode_q8(&payload, 4, &mut out).unwrap();
        assert_eq!(out, vec![63.5, -63.5, 0.0, -0.5]);
    }
}

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

/// Encode `values` as symmetric int8 with error feedback.
///
/// `residual` is the sender-side carry for this tensor; it is resized to
/// match `values` (zero-filled) and updated in place with the new
/// quantization error. Layout: 4-byte f32 scale, then one i8 per element.
pub fn encode_q8(values: &[f32], residual: &mut Vec<f32>, out: &mut Vec<u8>) -> CodecKind {
    residual.resize(values.len(), 0.0);
    let mut max_abs = 0.0f32;
    for (v, r) in values.iter().zip(residual.iter()) {
        max_abs = max_abs.max((v + r).abs());
    }
    let scale = max_abs / 127.0;
    out.reserve(4 + values.len());
    if !scale.is_finite() {
        // Poisoned input: emit a NaN scale so the decode is visibly
        // non-finite (sanitize gate territory), and drop the residual so
        // the poison does not leak into later rounds.
        out.extend_from_slice(&f32::NAN.to_le_bytes());
        out.extend(std::iter::repeat_n(0u8, values.len()));
        residual.iter_mut().for_each(|r| *r = 0.0);
        return CodecKind::QuantInt8;
    }
    out.extend_from_slice(&scale.to_le_bytes());
    if scale == 0.0 {
        out.extend(std::iter::repeat_n(0u8, values.len()));
        residual.iter_mut().for_each(|r| *r = 0.0);
        return CodecKind::QuantInt8;
    }
    for (v, r) in values.iter().zip(residual.iter_mut()) {
        let c = v + *r;
        let q = (c / scale).round().clamp(-127.0, 127.0) as i8;
        *r = c - q as f32 * scale;
        out.push(q as u8);
    }
    CodecKind::QuantInt8
}

/// Decode a symmetric-int8 payload of `elems` elements into `out`.
pub fn decode_q8(payload: &[u8], elems: usize, out: &mut Vec<f32>) -> Result<(), WireError> {
    if payload.len() != 4 + elems {
        return Err(WireError::LengthMismatch { expected: 4 + elems, got: payload.len() });
    }
    let scale = f32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]);
    out.clear();
    out.resize(elems, 0.0);
    for (dst, &b) in out.iter_mut().zip(&payload[4..]) {
        *dst = (b as i8) as f32 * scale;
    }
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

    #[test]
    fn q8_decode_scales_signed_bytes() {
        let mut payload = 0.5f32.to_le_bytes().to_vec();
        payload.extend_from_slice(&[0x7F, 0x81, 0x00, 0xFF]);
        let mut out = vec![3.0f32; 9];
        decode_q8(&payload, 4, &mut out).unwrap();
        assert_eq!(out, vec![63.5, -63.5, 0.0, -0.5]);
    }
}

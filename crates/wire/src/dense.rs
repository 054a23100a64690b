//! Dense-blob channel for the flat-model baselines (FedAvg, HeteroFL,
//! AdaptiveNet).
//!
//! Those strategies exchange whole parameter vectors rather than modular
//! records, so the channel abstraction is one sender→receiver link whose
//! shared state (the last-acked baseline) advances only on a successful,
//! CRC-clean decode. A failed decode (transit corruption) leaves the
//! state untouched, so the sender can resend the identical frame and the
//! delta still applies.

use crate::codec::CodecKind;
use crate::frame::{FrameBuilder, FrameKind, FrameView, ModuleKey};
use crate::WireError;

/// One logical point-to-point channel carrying a dense f32 blob.
#[derive(Debug)]
pub struct DenseChannel {
    codec: CodecKind,
    threshold: f32,
    /// Version of `baseline`; bumped on every successful decode.
    version: u64,
    /// What the receiver currently holds (None until the first transfer).
    baseline: Option<Vec<f32>>,
    /// Sender-side error-feedback carry for `QuantInt8`.
    residual: Vec<f32>,
}

impl DenseChannel {
    /// `threshold` only matters for `DeltaFp32` (entries with |delta| ≤
    /// threshold are dropped; 0.0 keeps the channel lossless).
    pub fn new(codec: CodecKind, threshold: f32) -> Self {
        DenseChannel { codec, threshold, version: 0, baseline: None, residual: Vec::new() }
    }

    /// Encode `values` into `out` as one dense frame. Returns the frame
    /// length in bytes (the measured on-wire size). Cold channels (no
    /// baseline yet) and shape changes fall back to a raw record.
    pub fn encode(&mut self, values: &[f32], out: &mut Vec<u8>) -> usize {
        let mut b = FrameBuilder::begin(out, FrameKind::Dense, self.codec);
        let base = self.baseline.as_deref().map(|base| (self.version, base));
        let residual = &mut self.residual;
        b.values(ModuleKey::SHARED, self.codec, values, base, self.threshold, || residual);
        b.finish()
    }

    /// Decode one frame produced by `encode` into `out`. On success the
    /// channel baseline advances to the decoded values; on any error the
    /// state is untouched and the identical frame can be retried.
    pub fn decode(&mut self, bytes: &[u8], out: &mut Vec<f32>) -> Result<(), WireError> {
        let view = FrameView::parse(bytes)?;
        let rec =
            view.find(ModuleKey::SHARED).ok_or(WireError::MissingBaseline { key: ModuleKey::SHARED })?;
        let held = |key, version| {
            let base = self.baseline.as_deref().ok_or(WireError::MissingBaseline { key })?;
            if version != self.version {
                return Err(WireError::StaleBaseline { key, version });
            }
            Ok(base)
        };
        rec.decode(held, out)?;
        let baseline = self.baseline.get_or_insert_with(Vec::new);
        baseline.clear();
        baseline.extend_from_slice(out);
        self.version += 1;
        Ok(())
    }
}

/// Per-device channel pool for a server exchanging dense blobs with many
/// devices: one download and one upload [`DenseChannel`] per device id,
/// plus a reusable frame buffer so steady-state transfers do not
/// allocate.
#[derive(Debug)]
pub struct DensePool {
    codec: CodecKind,
    threshold: f32,
    down: std::collections::HashMap<u64, DenseChannel>,
    up: std::collections::HashMap<u64, DenseChannel>,
    frame: Vec<u8>,
}

impl DensePool {
    pub fn new(codec: CodecKind, threshold: f32) -> Self {
        DensePool {
            codec,
            threshold,
            down: std::collections::HashMap::new(),
            up: std::collections::HashMap::new(),
            frame: Vec::new(),
        }
    }

    fn channel(
        map: &mut std::collections::HashMap<u64, DenseChannel>,
        codec: CodecKind,
        threshold: f32,
        device: u64,
    ) -> &mut DenseChannel {
        map.entry(device).or_insert_with(|| DenseChannel::new(codec, threshold))
    }

    /// Server → device transfer of `values`: encode on the device's
    /// download channel, decode into `out`, return the measured frame
    /// bytes. In-process both ends share the channel state, so a
    /// successful call advances the baseline exactly once.
    pub fn send_down(&mut self, device: u64, values: &[f32], out: &mut Vec<f32>) -> Result<u64, WireError> {
        let ch = Self::channel(&mut self.down, self.codec, self.threshold, device);
        let n = ch.encode(values, &mut self.frame);
        ch.decode(&self.frame, out)?;
        Ok(n as u64)
    }

    /// Device → server transfer of `values` (see [`DensePool::send_down`]).
    pub fn send_up(&mut self, device: u64, values: &[f32], out: &mut Vec<f32>) -> Result<u64, WireError> {
        let ch = Self::channel(&mut self.up, self.codec, self.threshold, device);
        let n = ch.encode(values, &mut self.frame);
        ch.decode(&self.frame, out)?;
        Ok(n as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_tracks_devices_independently() {
        let mut pool = DensePool::new(CodecKind::DeltaFp32, 0.0);
        let vals: Vec<f32> = (0..200).map(|i| i as f32 * 0.1).collect();
        let mut out = Vec::new();
        let cold_a = pool.send_down(1, &vals, &mut out).unwrap();
        assert_eq!(out, vals);
        // Device 1 is warm, device 2 still cold.
        let warm_a = pool.send_down(1, &vals, &mut out).unwrap();
        let cold_b = pool.send_down(2, &vals, &mut out).unwrap();
        assert!(warm_a < cold_a / 4);
        assert_eq!(cold_b, cold_a);
    }

    #[test]
    fn raw_channel_is_bit_exact() {
        let mut ch = DenseChannel::new(CodecKind::Raw, 0.0);
        let vals: Vec<f32> = (0..64).map(|i| (i as f32).sin()).collect();
        let mut frame = Vec::new();
        let n = ch.encode(&vals, &mut frame);
        assert_eq!(n, frame.len());
        let mut back = Vec::new();
        ch.decode(&frame, &mut back).unwrap();
        assert_eq!(back, vals);
    }

    #[test]
    fn delta_channel_warms_up_and_shrinks() {
        let mut ch = DenseChannel::new(CodecKind::DeltaFp32, 0.0);
        let v0: Vec<f32> = (0..256).map(|i| i as f32 * 0.01).collect();
        let mut frame = Vec::new();
        let cold = ch.encode(&v0, &mut frame);
        let mut back = Vec::new();
        ch.decode(&frame, &mut back).unwrap();
        assert_eq!(back, v0);

        // Second round: only a few coordinates move.
        let mut v1 = v0.clone();
        v1[3] += 1.0;
        v1[200] -= 0.5;
        let warm = ch.encode(&v1, &mut frame);
        assert!(warm < cold / 4, "warm delta frame {warm} not much smaller than cold {cold}");
        ch.decode(&frame, &mut back).unwrap();
        assert_eq!(back, v1);
    }

    #[test]
    fn failed_decode_leaves_channel_retryable() {
        let mut ch = DenseChannel::new(CodecKind::DeltaFp32, 0.0);
        let v0: Vec<f32> = vec![1.0; 128];
        let mut frame = Vec::new();
        let mut back = Vec::new();
        ch.encode(&v0, &mut frame);
        ch.decode(&frame, &mut back).unwrap();

        let v1: Vec<f32> = vec![2.0; 128];
        ch.encode(&v1, &mut frame);
        let mut corrupted = frame.clone();
        corrupted[20] ^= 0xFF;
        assert!(ch.decode(&corrupted, &mut back).is_err());
        // Retry with the pristine frame succeeds against the same baseline.
        ch.decode(&frame, &mut back).unwrap();
        assert_eq!(back, v1);
    }

    #[test]
    fn q8_channel_stays_within_quantization_bound() {
        let mut ch = DenseChannel::new(CodecKind::QuantInt8, 0.0);
        let vals: Vec<f32> = (0..1000).map(|i| ((i * 37) % 100) as f32 / 50.0 - 1.0).collect();
        let max_abs = vals.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let scale = max_abs / 127.0;
        let mut frame = Vec::new();
        let mut back = Vec::new();
        ch.encode(&vals, &mut frame);
        ch.decode(&frame, &mut back).unwrap();
        for (v, d) in vals.iter().zip(&back) {
            assert!((v - d).abs() <= scale * 1.0001 + 1e-7);
        }
        // Frame is about 4x smaller than raw.
        assert!(frame.len() < vals.len() * 4 / 3);
    }
    /// Cold, warm, fallback and reshaped frames of one channel per codec,
    /// and what each decodes to, folded into one FNV-1a digest each: a
    /// cold raw frame, a warm frame after a sparse move, a frame after a
    /// move in every value (a delta falls back to raw), a frame of a new
    /// length, then a warm frame against that new length.
    #[test]
    fn frames_keep_their_bytes() {
        let digest = |codec: CodecKind, threshold: f32| {
            let mut ch = DenseChannel::new(codec, threshold);
            let mut v: Vec<f32> = (0..300).map(|i| ((i * 29) % 97) as f32 * 0.02 - 1.0).collect();
            let (mut frame, mut back) = (Vec::new(), Vec::new());
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for step in 0..5 {
                match step {
                    1 | 4 => {
                        v[7] += 0.5;
                        v[150] -= 0.004;
                    }
                    2 => v.iter_mut().for_each(|x| *x += 0.03),
                    3 => v.truncate(280),
                    _ => {}
                }
                ch.encode(&v, &mut frame);
                ch.decode(&frame, &mut back).unwrap();
                let bits = back.iter().flat_map(|x| x.to_bits().to_le_bytes());
                for b in frame.iter().copied().chain(bits) {
                    h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            h
        };
        let got = [
            digest(CodecKind::Raw, 0.0),
            digest(CodecKind::DeltaFp32, 0.0),
            digest(CodecKind::DeltaFp32, 0.01),
            digest(CodecKind::QuantInt8, 0.0),
        ];
        assert_eq!(
            got,
            [0xb720_6994_1902_0b99, 0xcb4f_2536_61a5_71f8, 0x5eff_d9ff_2df8_debb, 0x5463_46e2_af01_dad0],
            "dense frames changed: {got:#018x?}"
        );
    }

    #[test]
    fn stale_and_cold_deltas_are_refused() {
        let mut ch = DenseChannel::new(CodecKind::DeltaFp32, 0.0);
        let mut v = vec![1.0f32; 64];
        let (mut frame, mut back) = (Vec::new(), Vec::new());
        ch.encode(&v, &mut frame);
        ch.decode(&frame, &mut back).unwrap();
        v[3] = 2.0;
        ch.encode(&v, &mut frame);
        // A channel that never decoded holds no baseline.
        let mut cold = DenseChannel::new(CodecKind::DeltaFp32, 0.0);
        assert_eq!(
            cold.decode(&frame, &mut back),
            Err(WireError::MissingBaseline { key: ModuleKey::SHARED })
        );
        // Once decoded, the same frame is a version behind.
        ch.decode(&frame, &mut back).unwrap();
        assert_eq!(
            ch.decode(&frame, &mut back),
            Err(WireError::StaleBaseline { key: ModuleKey::SHARED, version: 1 })
        );
        assert_eq!(back, v);
    }
}

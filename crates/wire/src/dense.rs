//! Dense-blob channels for the flat-model baselines (FedAvg, HeteroFL,
//! AdaptiveNet).
//!
//! Those strategies exchange whole parameter vectors rather than modular
//! records: each transfer is one frame holding one `SHARED` record, cut
//! on the device's [`Channel`] for that direction, so the pool holds only
//! what its codec reads: under `QuantInt8` the sender's error-feedback
//! carry, under `Raw` nothing. Decoding keeps no state, so after a failed
//! decode (transit corruption) the sender can resend the identical frame.

use crate::codec::{Channel, CodecKind};
use crate::frame::{FrameBuilder, FrameKind, FrameView, ModuleKey};
use crate::WireError;
use std::collections::HashMap;

/// Per-device channel pool for a server exchanging dense blobs with many
/// devices: one download and one upload [`Channel`] per device id, plus a
/// reusable frame buffer so steady-state transfers do not allocate.
#[derive(Debug)]
pub struct DensePool {
    codec: CodecKind,
    down: HashMap<u64, Channel>,
    up: HashMap<u64, Channel>,
    frame: Vec<u8>,
}

impl DensePool {
    /// `_threshold` is unread; it stays until the callers that pass it go.
    pub fn new(codec: CodecKind, _threshold: f32) -> Self {
        DensePool { codec, down: HashMap::new(), up: HashMap::new(), frame: Vec::new() }
    }

    /// Server → device transfer of `values`: encode on the device's
    /// download channel, decode into `out`, return the measured frame
    /// bytes.
    pub fn send_down(&mut self, device: u64, values: &[f32], out: &mut Vec<f32>) -> Result<u64, WireError> {
        send(self.codec, self.down.entry(device).or_default(), values, &mut self.frame, out)
    }

    /// Device → server transfer of `values` (see [`DensePool::send_down`]).
    pub fn send_up(&mut self, device: u64, values: &[f32], out: &mut Vec<f32>) -> Result<u64, WireError> {
        send(self.codec, self.up.entry(device).or_default(), values, &mut self.frame, out)
    }
}

/// Cuts `values` into `frame` as one dense frame on `link`, decodes it
/// into `out` and returns the frame's length.
fn send(
    codec: CodecKind,
    link: &mut Channel,
    values: &[f32],
    frame: &mut Vec<u8>,
    out: &mut Vec<f32>,
) -> Result<u64, WireError> {
    let mut b = FrameBuilder::begin(frame, FrameKind::Dense, codec);
    b.values(ModuleKey::SHARED, codec, values, link);
    let n = b.finish();
    decode(frame, out)?;
    Ok(n as u64)
}

/// Decodes a dense frame's `SHARED` record into `out`.
fn decode(bytes: &[u8], out: &mut Vec<f32>) -> Result<(), WireError> {
    let view = FrameView::parse(bytes)?;
    let rec = view.find(ModuleKey::SHARED).ok_or(WireError::Truncated { needed: 1, have: 0 })?;
    rec.decode(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_tracks_devices_independently() {
        let mut pool = DensePool::new(CodecKind::QuantInt8, 0.0);
        let vals: Vec<f32> = (0..200).map(|i| i as f32 * 0.1).collect();
        let (mut first, mut again, mut other) = (Vec::new(), Vec::new(), Vec::new());
        let cold_a = pool.send_down(1, &vals, &mut first).unwrap();
        // Device 1 carries its quantization error, device 2 starts clean.
        let warm_a = pool.send_down(1, &vals, &mut again).unwrap();
        let cold_b = pool.send_down(2, &vals, &mut other).unwrap();
        assert_ne!(again, first);
        assert_eq!(other, first);
        assert_eq!((warm_a, cold_b), (cold_a, cold_a));
    }

    #[test]
    fn raw_channel_is_bit_exact() {
        let mut pool = DensePool::new(CodecKind::Raw, 0.0);
        let vals: Vec<f32> = (0..64).map(|i| (i as f32).sin()).collect();
        let mut back = Vec::new();
        let n = pool.send_down(0, &vals, &mut back).unwrap();
        assert_eq!(n as usize, pool.frame.len());
        assert_eq!(back, vals);
    }

    #[test]
    fn failed_decode_leaves_channel_retryable() {
        let mut pool = DensePool::new(CodecKind::QuantInt8, 0.0);
        let mut back = Vec::new();
        pool.send_up(0, &[1.0; 128], &mut back).unwrap();

        let mut want = Vec::new();
        pool.send_up(0, &[2.0; 128], &mut want).unwrap();
        let frame = pool.frame.clone();
        let mut corrupted = frame.clone();
        corrupted[20] ^= 0xFF;
        assert!(decode(&corrupted, &mut back).is_err());
        // Retry with the pristine frame decodes as it did before.
        decode(&frame, &mut back).unwrap();
        assert_eq!(back, want);
    }

    #[test]
    fn q8_channel_stays_within_quantization_bound() {
        let mut pool = DensePool::new(CodecKind::QuantInt8, 0.0);
        let vals: Vec<f32> = (0..1000).map(|i| ((i * 37) % 100) as f32 / 50.0 - 1.0).collect();
        let max_abs = vals.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let scale = max_abs / 127.0;
        let mut back = Vec::new();
        let n = pool.send_down(0, &vals, &mut back).unwrap();
        for (v, d) in vals.iter().zip(&back) {
            assert!((v - d).abs() <= scale * 1.0001 + 1e-7);
        }
        // Frame is about 4x smaller than raw.
        assert!((n as usize) < vals.len() * 4 / 3);
    }

    /// Five frames of one channel per codec, and what each decodes to,
    /// folded into one FNV-1a digest each: a first frame, a frame after a
    /// sparse move, a frame after a move in every value, a frame of a new
    /// length, then a sparse move at that new length.
    #[test]
    fn frames_keep_their_bytes() {
        let digest = |codec: CodecKind| {
            let mut pool = DensePool::new(codec, 0.0);
            let mut v: Vec<f32> = (0..300).map(|i| ((i * 29) % 97) as f32 * 0.02 - 1.0).collect();
            let mut back = Vec::new();
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
                pool.send_down(0, &v, &mut back).unwrap();
                let bits = back.iter().flat_map(|x| x.to_bits().to_le_bytes());
                for b in pool.frame.iter().copied().chain(bits) {
                    h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            h
        };
        let got = [digest(CodecKind::Raw), digest(CodecKind::QuantInt8)];
        assert_eq!(got, [0xb720_6994_1902_0b99, 0x5463_46e2_af01_dad0], "dense frames changed: {got:#018x?}");
    }

    /// Five rounds to eight devices and back: a `QuantInt8` pool keeps
    /// one carry per device and direction, a `Raw` pool nothing.
    #[test]
    fn pools_hold_only_what_their_codec_reads() {
        for codec in [CodecKind::Raw, CodecKind::QuantInt8] {
            let mut pool = DensePool::new(codec, 0.0);
            let mut v: Vec<f32> = (0..500).map(|i| ((i * 13) % 41) as f32 * 0.05 - 1.0).collect();
            let mut out = Vec::new();
            for round in 0..5 {
                v[round * 7] += 0.25;
                for device in 0..8 {
                    pool.send_down(device, &v, &mut out).unwrap();
                    pool.send_up(device, &out.clone(), &mut out).unwrap();
                }
            }
            for map in [&pool.down, &pool.up] {
                assert_eq!(map.len(), 8, "{codec:?}");
                for ch in map.values() {
                    let carries: Vec<usize> = ch.carries.values().map(Vec::len).collect();
                    let want = if codec == CodecKind::QuantInt8 { vec![v.len()] } else { vec![] };
                    assert_eq!(carries, want, "{codec:?}");
                }
            }
        }
    }
}

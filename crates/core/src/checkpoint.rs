//! Cloud-model checkpointing.
//!
//! A deployed Nebula cloud periodically snapshots its modularized model so
//! it can restart (or roll back a bad aggregation round) without
//! re-running the offline stage. The checkpoint carries the architecture
//! configuration plus the flat parameter vector; loading validates that
//! the architecture matches — and that every weight is finite — before
//! touching the model. All failure modes are reported through
//! [`CheckpointError`]; no input, however corrupted, panics the loader.

use nebula_modular::{ModularConfig, ModularModel};
use nebula_nn::Layer;
use nebula_wire::crc32;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;
use std::path::Path;

/// A serialisable snapshot of a modularized model.
#[derive(Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version (bumped on layout changes).
    pub version: u32,
    /// Architecture at save time.
    pub config: CheckpointConfig,
    /// Flat parameters in `visit_params` order.
    pub params: Vec<f32>,
}

/// The architecture fields that must match at load time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CheckpointConfig {
    pub input_dim: usize,
    pub classes: usize,
    pub width: usize,
    pub num_layers: usize,
    pub modules_per_layer: usize,
    pub module_hidden: usize,
    pub residual_module: bool,
    pub selector_embed: usize,
}

impl From<&ModularConfig> for CheckpointConfig {
    fn from(c: &ModularConfig) -> Self {
        Self {
            input_dim: c.input_dim,
            classes: c.classes,
            width: c.width,
            num_layers: c.num_layers,
            modules_per_layer: c.modules_per_layer,
            module_hidden: c.module_hidden,
            residual_module: c.residual_module,
            selector_embed: c.selector_embed,
        }
    }
}

/// Why a checkpoint could not be decoded or restored.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The payload does not start with the `NBLA` magic / is too short
    /// to hold the fixed header.
    NotACheckpoint,
    /// Format version is not [`CHECKPOINT_VERSION`].
    UnsupportedVersion(u32),
    /// The payload ends before the declared header or parameter data.
    Truncated { expected: usize, available: usize },
    /// The JSON header (or a JSON checkpoint file) failed to parse.
    MalformedHeader(String),
    /// Checkpoint architecture differs from the target model's.
    ArchitectureMismatch { checkpoint: CheckpointConfig, model: CheckpointConfig },
    /// Parameter vector length differs from the model's count.
    ParamCountMismatch { checkpoint: usize, model: usize },
    /// A stored weight is NaN or infinite; restoring it would poison
    /// every subsequent forward pass.
    NonFiniteParam { index: usize, value: f32 },
    /// The CRC32 trailer does not match the file contents — a flipped
    /// bit, a torn write, or any other in-place corruption.
    ChecksumMismatch { stored: u32, computed: u32 },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotACheckpoint => write!(f, "not a Nebula binary checkpoint"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            Self::Truncated { expected, available } => {
                write!(f, "truncated checkpoint: expected {expected} more bytes, found {available}")
            }
            Self::MalformedHeader(e) => write!(f, "malformed checkpoint header: {e}"),
            Self::ArchitectureMismatch { checkpoint, model } => {
                write!(f, "architecture mismatch: checkpoint {checkpoint:?} vs model {model:?}")
            }
            Self::ParamCountMismatch { checkpoint, model } => {
                write!(f, "parameter count mismatch: checkpoint {checkpoint} vs model {model}")
            }
            Self::NonFiniteParam { index, value } => {
                write!(f, "non-finite parameter at index {index}: {value}")
            }
            Self::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CheckpointError> for io::Error {
    fn from(e: CheckpointError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// The current checkpoint format version. Version 2 adds a declared
/// parameter count (explicit truncation detection) and a CRC32 trailer
/// (bit-flip detection). Binary version-1 files had neither and are no
/// longer decoded; a version-1 [`Checkpoint`] struct (the JSON form) still
/// restores.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Oldest [`Checkpoint`] version [`restore`] still accepts.
pub const MIN_CHECKPOINT_VERSION: u32 = 1;

/// Snapshots a model into a [`Checkpoint`].
pub fn snapshot(model: &ModularModel) -> Checkpoint {
    Checkpoint {
        version: CHECKPOINT_VERSION,
        config: CheckpointConfig::from(model.config()),
        params: model.param_vector(),
    }
}

/// Restores a checkpoint into `model`. Fails if the version,
/// architecture, or parameter count differs, or any weight is
/// non-finite; on failure the model is left untouched.
// The mismatch variant carries both configs for diagnostics; restore is not hot.
#[allow(clippy::result_large_err)]
pub fn restore(model: &mut ModularModel, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
    if !(MIN_CHECKPOINT_VERSION..=CHECKPOINT_VERSION).contains(&ckpt.version) {
        return Err(CheckpointError::UnsupportedVersion(ckpt.version));
    }
    let expect = CheckpointConfig::from(model.config());
    if ckpt.config != expect {
        return Err(CheckpointError::ArchitectureMismatch { checkpoint: ckpt.config.clone(), model: expect });
    }
    if ckpt.params.len() != model.param_count() {
        return Err(CheckpointError::ParamCountMismatch {
            checkpoint: ckpt.params.len(),
            model: model.param_count(),
        });
    }
    if let Some((index, &value)) = ckpt.params.iter().enumerate().find(|(_, p)| !p.is_finite()) {
        return Err(CheckpointError::NonFiniteParam { index, value });
    }
    model.load_param_vector(&ckpt.params);
    Ok(())
}

/// Saves a checkpoint as JSON (human-inspectable; ~9 bytes per
/// parameter). Use [`save_binary`] for the compact format.
pub fn save_to_file(model: &ModularModel, path: &Path) -> io::Result<()> {
    let ckpt = snapshot(model);
    let json = serde_json::to_string(&ckpt).map_err(io::Error::other)?;
    std::fs::write(path, json)
}

/// Loads a JSON checkpoint file into `model`.
pub fn load_from_file(model: &mut ModularModel, path: &Path) -> io::Result<()> {
    let json = std::fs::read_to_string(path)?;
    let ckpt: Checkpoint =
        serde_json::from_str(&json).map_err(|e| CheckpointError::MalformedHeader(e.to_string()))?;
    restore(model, &ckpt).map_err(io::Error::from)
}

/// Magic prefix of the binary checkpoint format.
const BINARY_MAGIC: &[u8; 4] = b"NBLA";

/// Encodes a checkpoint in the compact binary format (version 2):
/// `magic ‖ u32 version ‖ u32 json-header-len ‖ u32 param-count ‖
/// json header ‖ f32 params (LE) ‖ u32 crc32` — 4 bytes per parameter
/// plus a small header and an integrity trailer over everything before
/// it. The declared count makes truncation detectable before the CRC is
/// even consulted; the CRC catches bit flips and torn rewrites.
pub fn encode_binary(ckpt: &Checkpoint) -> Vec<u8> {
    let header = serde_json::to_vec(&ckpt.config).expect("config serialises");
    let mut buf = Vec::with_capacity(20 + header.len() + ckpt.params.len() * 4);
    buf.extend_from_slice(BINARY_MAGIC);
    buf.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    buf.extend_from_slice(&(header.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(ckpt.params.len() as u32).to_le_bytes());
    buf.extend_from_slice(&header);
    for &p in &ckpt.params {
        buf.extend_from_slice(&p.to_le_bytes());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Decodes the binary checkpoint format. Any malformed input — wrong
/// magic, truncation anywhere, flipped bytes, garbage header, a version
/// other than [`CHECKPOINT_VERSION`] — returns an error; nothing panics
/// and nothing corrupt decodes silently.
// The mismatch variant carries both configs for diagnostics; decoding is not hot.
#[allow(clippy::result_large_err)]
pub fn decode_binary(data: &[u8]) -> Result<Checkpoint, CheckpointError> {
    if data.len() < 12 || &data[..4] != BINARY_MAGIC {
        return Err(CheckpointError::NotACheckpoint);
    }
    let version = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
    match version {
        CHECKPOINT_VERSION => decode_v2(data),
        other => Err(CheckpointError::UnsupportedVersion(other)),
    }
}

/// Version-2 layout (see [`encode_binary`]). The CRC is verified over
/// the whole body before the JSON header is parsed, so corruption is
/// reported as [`CheckpointError::ChecksumMismatch`] rather than as a
/// confusing downstream parse error.
#[allow(clippy::result_large_err)]
fn decode_v2(data: &[u8]) -> Result<Checkpoint, CheckpointError> {
    const FIXED: usize = 16; // magic + version + header-len + param-count
    if data.len() < FIXED {
        return Err(CheckpointError::Truncated { expected: FIXED - data.len(), available: data.len() });
    }
    let header_len = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes")) as usize;
    let param_count = u32::from_le_bytes(data[12..16].try_into().expect("4 bytes")) as usize;
    let expected_total = FIXED + header_len + param_count * 4 + 4;
    if data.len() < expected_total {
        return Err(CheckpointError::Truncated {
            expected: expected_total - data.len(),
            available: data.len(),
        });
    }
    let body = &data[..expected_total - 4];
    let stored = u32::from_le_bytes(data[expected_total - 4..expected_total].try_into().expect("4 bytes"));
    let computed = crc32(body);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    let config: CheckpointConfig = serde_json::from_slice(&body[FIXED..FIXED + header_len])
        .map_err(|e| CheckpointError::MalformedHeader(e.to_string()))?;
    let params = body[FIXED + header_len..]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    Ok(Checkpoint { version: 2, config, params })
}

/// Saves the compact binary checkpoint.
pub fn save_binary(model: &ModularModel, path: &Path) -> io::Result<()> {
    std::fs::write(path, encode_binary(&snapshot(model)))
}

/// Loads a binary checkpoint file into `model`.
pub fn load_binary(model: &mut ModularModel, path: &Path) -> io::Result<()> {
    let data = std::fs::read(path)?;
    let ckpt = decode_binary(&data)?;
    restore(model, &ckpt).map_err(io::Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_modular::ModularConfig;
    use nebula_nn::Mode;
    use nebula_tensor::Tensor;

    fn model(seed: u64) -> ModularModel {
        let mut cfg = ModularConfig::toy(8, 3);
        cfg.gate_noise_std = 0.0;
        ModularModel::new(cfg, seed)
    }

    #[test]
    fn snapshot_restore_roundtrip_preserves_outputs() {
        let mut a = model(1);
        let ckpt = snapshot(&a);
        let mut b = model(2); // different init
        restore(&mut b, &ckpt).unwrap();
        let x = Tensor::ones(&[2, 8]);
        assert_eq!(a.forward(&x, Mode::Eval).data(), b.forward(&x, Mode::Eval).data());
    }

    #[test]
    fn restore_rejects_architecture_mismatch() {
        let a = model(1);
        let ckpt = snapshot(&a);
        let mut cfg = ModularConfig::toy(8, 3);
        cfg.modules_per_layer = 3;
        cfg.top_k = 2;
        let mut other = ModularModel::new(cfg, 1);
        let err = restore(&mut other, &ckpt).unwrap_err();
        assert!(matches!(err, CheckpointError::ArchitectureMismatch { .. }), "{err}");
    }

    #[test]
    fn restore_rejects_wrong_version() {
        let a = model(1);
        let mut ckpt = snapshot(&a);
        ckpt.version = 999;
        let mut b = model(1);
        assert_eq!(restore(&mut b, &ckpt).unwrap_err(), CheckpointError::UnsupportedVersion(999));
    }

    #[test]
    fn restore_rejects_non_finite_params_and_leaves_model_untouched() {
        let a = model(1);
        let mut ckpt = snapshot(&a);
        ckpt.params[3] = f32::NAN;
        let mut b = model(2);
        let before = b.param_vector();
        let err = restore(&mut b, &ckpt).unwrap_err();
        assert!(matches!(err, CheckpointError::NonFiniteParam { index: 3, .. }), "{err}");
        assert_eq!(b.param_vector(), before, "failed restore must not modify the model");

        ckpt.params[3] = f32::NEG_INFINITY;
        assert!(matches!(
            restore(&mut b, &ckpt).unwrap_err(),
            CheckpointError::NonFiniteParam { index: 3, .. }
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("nebula-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let mut a = model(3);
        save_to_file(&a, &path).unwrap();
        let mut b = model(4);
        load_from_file(&mut b, &path).unwrap();
        let x = Tensor::ones(&[1, 8]);
        assert_eq!(a.forward(&x, Mode::Eval).data(), b.forward(&x, Mode::Eval).data());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_roundtrip_is_bit_exact() {
        let a = model(5);
        let ckpt = snapshot(&a);
        let encoded = encode_binary(&ckpt);
        let decoded = decode_binary(&encoded).unwrap();
        assert_eq!(decoded.version, ckpt.version);
        assert_eq!(decoded.config, ckpt.config);
        assert_eq!(decoded.params, ckpt.params);
        // Compact: 4 bytes/param + small header.
        assert!(encoded.len() < ckpt.params.len() * 4 + 1024);
    }

    #[test]
    fn binary_file_roundtrip_restores_model() {
        let dir = std::env::temp_dir().join("nebula-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.nbla");
        let mut a = model(6);
        save_binary(&a, &path).unwrap();
        let mut b = model(7);
        load_binary(&mut b, &path).unwrap();
        let x = Tensor::ones(&[1, 8]);
        assert_eq!(a.forward(&x, Mode::Eval).data(), b.forward(&x, Mode::Eval).data());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_decoder_rejects_garbage_and_truncation() {
        assert_eq!(decode_binary(b"nope").unwrap_err(), CheckpointError::NotACheckpoint);
        let ckpt = snapshot(&model(8));
        let mut encoded = encode_binary(&ckpt);
        encoded.truncate(encoded.len() - 2); // break f32 alignment
        assert!(matches!(decode_binary(&encoded).unwrap_err(), CheckpointError::Truncated { .. }));
        encoded.truncate(6); // inside the fixed header
        assert_eq!(decode_binary(&encoded).unwrap_err(), CheckpointError::NotACheckpoint);
    }

    #[test]
    fn decoder_survives_arbitrary_garbage_bytes() {
        // Deterministic pseudo-garbage at every length 0..64, plus
        // adversarial variants of a valid checkpoint: every decode must
        // return (not panic), and truncations must error.
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut garbage = Vec::new();
        for len in 0..64usize {
            garbage.clear();
            for _ in 0..len {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                garbage.push((s >> 56) as u8);
            }
            let _ = decode_binary(&garbage);
        }

        let valid = encode_binary(&snapshot(&model(9)));
        for cut in 0..valid.len().min(40) {
            assert!(decode_binary(&valid[..cut]).is_err(), "prefix of {cut} bytes must not decode");
        }
        // Header length field pointing past the end of the payload.
        let mut oversized = valid.clone();
        oversized[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_binary(&oversized).unwrap_err(), CheckpointError::Truncated { .. }));
        // Corrupted JSON header bytes: the CRC is verified before the
        // header parses, so this surfaces as a checksum failure.
        let mut bad_header = valid.clone();
        for b in &mut bad_header[16..24] {
            *b = 0xff;
        }
        assert!(matches!(decode_binary(&bad_header).unwrap_err(), CheckpointError::ChecksumMismatch { .. }));
    }

    /// Builds a version-1 file (no param count, no CRC trailer) the way
    /// the pre-v2 encoder did.
    fn encode_v1(ckpt: &Checkpoint) -> Vec<u8> {
        let header = serde_json::to_vec(&ckpt.config).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(b"NBLA");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(header.len() as u32).to_le_bytes());
        buf.extend_from_slice(&header);
        for &p in &ckpt.params {
            buf.extend_from_slice(&p.to_le_bytes());
        }
        buf
    }

    #[test]
    fn v1_files_are_rejected() {
        // The CRC-less layout has no integrity check to decode under.
        let encoded = encode_v1(&snapshot(&model(10)));
        assert_eq!(decode_binary(&encoded).unwrap_err(), CheckpointError::UnsupportedVersion(1));
    }

    #[test]
    fn binary_version_skew_is_rejected() {
        let mut encoded = encode_binary(&snapshot(&model(12)));
        encoded[4..8].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(decode_binary(&encoded).unwrap_err(), CheckpointError::UnsupportedVersion(3));
    }

    #[test]
    fn single_bit_flip_is_detected() {
        let ckpt = snapshot(&model(13));
        let valid = encode_binary(&ckpt);
        // Flip one bit in every byte position; no variant may decode to
        // the original content, and the parameter region must always
        // fail the checksum.
        for pos in 0..valid.len() {
            let mut flipped = valid.clone();
            flipped[pos] ^= 0x10;
            match decode_binary(&flipped) {
                Ok(decoded) => {
                    // A trailer/length flip can only "succeed" if the
                    // decode reproduces a self-consistent file — which a
                    // single bit flip never does.
                    panic!("flip at {pos} decoded: version {}", decoded.version);
                }
                Err(
                    CheckpointError::ChecksumMismatch { .. }
                    | CheckpointError::Truncated { .. }
                    | CheckpointError::NotACheckpoint
                    | CheckpointError::UnsupportedVersion(_)
                    | CheckpointError::MalformedHeader(_),
                ) => {}
                Err(e) => panic!("flip at {pos}: unexpected error {e}"),
            }
        }
        // A flip in the parameter region specifically is a checksum error.
        let mut flipped = valid.clone();
        let param_pos = valid.len() - 8; // inside the last parameter
        flipped[param_pos] ^= 0x01;
        assert!(matches!(decode_binary(&flipped).unwrap_err(), CheckpointError::ChecksumMismatch { .. }));
    }

    #[test]
    fn truncation_reports_missing_bytes() {
        let valid = encode_binary(&snapshot(&model(14)));
        let cut = &valid[..valid.len() - 10];
        match decode_binary(cut).unwrap_err() {
            CheckpointError::Truncated { expected, available } => {
                assert_eq!(expected, 10);
                assert_eq!(available, cut.len());
            }
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn corrupt_file_is_an_error_not_a_panic() {
        let dir = std::env::temp_dir().join("nebula-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json at all").unwrap();
        let mut m = model(1);
        assert!(load_from_file(&mut m, &path).is_err());
        std::fs::remove_file(&path).ok();
    }
}

//! Error type shared by framing and codecs.

use std::fmt;

/// Everything that can go wrong while parsing or decoding a frame.
///
/// `CrcMismatch` is the variant transit corruption is expected to hit:
/// random byte flips on a frame almost surely break the trailer checksum
/// before they produce a structurally invalid record walk. Callers treat
/// any `WireError` on decode as a failed transfer attempt and route it
/// through their retry path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// First four bytes are not the `NBW1` magic.
    BadMagic,
    /// Protocol version this build does not speak.
    BadVersion(u8),
    /// Unknown frame kind id.
    BadKind(u8),
    /// Unknown codec id in the header or a record.
    UnknownCodec(u8),
    /// Buffer ends before the declared structure does.
    Truncated { needed: usize, have: usize },
    /// A declared length disagrees with the bytes present.
    LengthMismatch { expected: usize, got: usize },
    /// Trailer checksum does not match the frame contents.
    CrcMismatch { expected: u32, got: u32 },
    /// The frame's MAC does not verify under the receiver's key: the
    /// frame was forged or tampered with by someone who could recompute
    /// the CRC but does not hold the key.
    AuthMismatch { expected: u64, got: u64 },
    /// Authentication state disagrees with the receiver's expectation:
    /// either the frame demands a key the receiver does not hold, or the
    /// receiver requires authentication and the frame carries none
    /// (downgrade-stripping protection).
    AuthMissing,
    /// A payload or update frame carries module records above `layer` but
    /// none for it, so its records do not describe a sub-model.
    EmptyLayer { layer: usize },
    /// A byte the format reserves — header flag bits 1–7, or a record's
    /// eleven reserved bytes — is not zero at this frame offset.
    ReservedNonZero { offset: usize },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::UnknownCodec(c) => write!(f, "unknown codec id {c}"),
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            WireError::LengthMismatch { expected, got } => {
                write!(f, "length mismatch: expected {expected}, got {got}")
            }
            WireError::CrcMismatch { expected, got } => {
                write!(f, "crc mismatch: expected {expected:#010x}, got {got:#010x}")
            }
            WireError::AuthMismatch { expected, got } => {
                write!(f, "auth mismatch: frame MAC {expected:#018x}, computed {got:#018x}")
            }
            WireError::AuthMissing => {
                write!(f, "authentication required but frame and key disagree")
            }
            WireError::EmptyLayer { layer } => write!(f, "no module record for layer {layer}"),
            WireError::ReservedNonZero { offset } => write!(f, "reserved byte {offset} is not zero"),
        }
    }
}

impl std::error::Error for WireError {}

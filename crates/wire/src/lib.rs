//! `nebula-wire` — versioned binary wire protocol for Nebula module
//! traffic.
//!
//! Before this crate, the simulator *counted* bytes analytically; nothing
//! was ever serialized. `nebula-wire` makes module exchange real: every
//! sub-model download and module-update upload becomes a framed byte
//! buffer with per-record codecs and a CRC32 trailer, so communication
//! cost is measured (and fault injection can flip bytes on an actual
//! wire).
//!
//! Layering (no dependencies on the rest of the workspace — this is a
//! leaf crate):
//!
//! * [`crc32`] — IEEE CRC32 for the frame trailer (and, through the one
//!   function, journal records, snapshots and checkpoints): buffers of 64
//!   bytes or more are folded with carry-less multiplies on x86-64 CPUs
//!   that have `pclmulqdq`, everything else walks slicing-by-8 tables;
//!   same value either way.
//! * [`codec`] — `Raw` / `DeltaFp32` / `QuantInt8` payload codecs plus
//!   the sender-side [`codec::ResidualStore`] for error feedback.
//! * [`frame`] — the framed format: header, per-module records keyed by
//!   (layer, module), CRC trailer; [`frame::FrameBuilder`] writes into
//!   reusable buffers, [`frame::FrameView`] parses zero-copy.
//! * [`siphash`] — SipHash-2-4 keyed PRF, per-device
//!   [`siphash::FrameKey`] derivation and the striped MAC (eight
//!   SipHash-2-4 lanes side by side, tied by a ninth) of the optional MAC
//!   trailer, so forged frames (tampering plus a recomputed CRC) are
//!   rejected before decode.
//! * [`registry`] — cloud-side versioned baselines with bounded history
//!   and per-device ack tracking, so deltas decode deterministically and
//!   stale uploads are detected by version.
//! * [`dense`] — a point-to-point channel for the flat-model baselines.
//! * [`stream`] — length-delimited frame I/O over TCP/UDS byte streams,
//!   with a pre-allocation cap on hostile length prefixes.
//! * [`hello`] — the serving-plane handshake (worker hello, coordinator
//!   ack) with auth and codec negotiation.

pub mod codec;
pub mod crc32;
pub mod dense;
mod error;
pub mod frame;
pub mod hello;
pub mod registry;
pub mod siphash;
pub mod stream;

pub use codec::{CodecKind, ResidualStore};
pub use crc32::crc32;
pub use dense::{DenseChannel, DensePool};
pub use error::WireError;
pub use frame::{FrameBuilder, FrameKind, FrameView, ModuleKey, Record};
pub use hello::{Hello, HelloAck};
pub use registry::ModuleRegistry;
pub use siphash::{siphash24, FrameKey};
pub use stream::{read_frame, write_frame, DEFAULT_MAX_FRAME_LEN};

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
//! * [`crc32`](mod@crc32) — IEEE CRC32 for the frame trailer (and, through the one
//!   function, journal records and snapshots): buffers of 64
//!   bytes or more are folded with carry-less multiplies on x86-64 CPUs
//!   that have `pclmulqdq`, everything else walks slicing-by-8 tables;
//!   same value either way.
//! * [`codec`] — `Raw` / `QuantInt8` payload codecs plus [`Channel`], a
//!   sender's error-feedback carries for one device link, which module
//!   and dense frames alike are cut on.
//! * [`frame`] — the framed format: header, per-module records keyed by
//!   (layer, module), CRC trailer; [`frame::FrameBuilder`] writes into
//!   reusable buffers, [`frame::FrameView`] parses zero-copy. It holds
//!   the one record path every f32 tensor takes:
//!   [`frame::FrameBuilder::values`] picks a record's codec (int8 for a
//!   non-empty tensor under `QuantInt8`, raw otherwise),
//!   [`frame::Record::decode`] inverts it, and
//!   [`frame::FrameBuilder::finish_keyed`] terminates every frame, with a
//!   MAC when keyed.
//! * [`siphash`] — SipHash-2-4 keyed PRF, per-device
//!   [`siphash::FrameKey`] derivation and the striped MAC (eight
//!   SipHash-2-4 lanes side by side, tied by a ninth) of the optional MAC
//!   trailer, so forged frames (tampering plus a recomputed CRC) are
//!   rejected before decode.
//! * [`dense`] — per-device channels for the flat-model baselines'
//!   blobs, one record per frame through the same record path as module
//!   frames.
//! * [`stream`] — length-delimited frame I/O over TCP/UDS byte streams,
//!   with a pre-allocation cap on hostile length prefixes.
//! * [`hello`] — the serving-plane handshake (worker hello, coordinator
//!   ack) with auth.

pub mod codec;
pub mod crc32;
pub mod dense;
mod error;
pub mod frame;
pub mod hello;
pub mod siphash;
pub mod stream;

pub use codec::{Channel, CodecKind};
pub use crc32::crc32;
pub use dense::DensePool;
pub use error::WireError;
pub use frame::{FrameBuilder, FrameKind, FrameView, ModuleKey, Record};
pub use hello::{Hello, HelloAck};
pub use siphash::{siphash24, FrameKey};
pub use stream::{read_frame, write_frame, MAX_FRAME_LEN};

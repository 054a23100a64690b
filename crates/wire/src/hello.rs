//! Serving-plane handshake frames: hello / hello-ack.
//!
//! The first frame on every worker connection is a [`Hello`] announcing
//! protocol version, requested codec and executor capacity; the
//! coordinator answers with a [`HelloAck`] carrying the accepted codec
//! and an opaque run-configuration JSON blob (the coordinator side owns
//! its schema — this crate only moves the bytes).
//!
//! Authentication reuses the per-device MAC machinery: when the
//! deployment holds a master [`FrameKey`], both hello and ack are
//! finished under the dedicated handshake subkey (`hello_key`), so a
//! connecting worker proves knowledge of the shared secret before any
//! job traffic flows, and [`FrameView::parse_keyed`]'s strict two-way
//! semantics reject both unauthenticated hellos at a keyed coordinator
//! and keyed hellos at an open one.

use crate::codec::CodecKind;
use crate::frame::{FrameBuilder, FrameKind, FrameView, ModuleKey};
use crate::siphash::FrameKey;
use crate::WireError;

/// Handshake protocol revision carried in every [`Hello`].
pub const HELLO_PROTO: u8 = 1;

/// Domain-separation label of the handshake subkey; outside the device
/// id space the simulator uses, so no device key collides with it.
const HELLO_STREAM: u64 = 0x4E42_5748_454C_4C4F; // "NBWHELLO"

/// Control-record slots used by the handshake messages.
const SLOT_HELLO: ModuleKey = ModuleKey { layer: 0xFFFC, module: 0 };
const SLOT_ACK: ModuleKey = ModuleKey { layer: 0xFFFC, module: 1 };

/// Derives the handshake MAC key from a deployment master key.
fn hello_key(master: &FrameKey) -> FrameKey {
    master.derive(HELLO_STREAM)
}

/// Worker → coordinator connection announcement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Handshake revision ([`HELLO_PROTO`]); the coordinator rejects
    /// revisions it does not speak.
    pub proto: u8,
    /// Codec the worker proposes for job traffic.
    pub codec: CodecKind,
    /// Executor threads the worker offers (scheduling hint).
    pub threads: u16,
    /// Human-readable worker name (logs/telemetry only).
    pub name: String,
}

/// Coordinator → worker handshake reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HelloAck {
    /// Whether the worker was admitted; when false `reason` says why and
    /// the coordinator closes the connection after writing the ack.
    pub accepted: bool,
    /// Negotiated codec (may differ from the proposal; the coordinator
    /// decides).
    pub codec: CodecKind,
    /// Coordinator-assigned worker id, unique per run.
    pub worker_id: u64,
    /// Rejection reason (empty on accept).
    pub reason: String,
    /// Opaque run-configuration JSON for the worker's executors (model
    /// architecture, wire config, train hyper-parameters).
    pub config_json: String,
}

/// Encodes `hello` into `buf` (cleared) as an authenticated-when-keyed
/// control frame. Returns the frame length.
pub fn encode_hello(buf: &mut Vec<u8>, hello: &Hello, key: Option<&FrameKey>) -> usize {
    let mut b = FrameBuilder::begin(buf, FrameKind::Control, hello.codec);
    b.record(SLOT_HELLO, CodecKind::Raw, 0, 0, |o| {
        o.push(hello.proto);
        o.push(hello.codec.id());
        o.extend_from_slice(&hello.threads.to_le_bytes());
        let name = hello.name.as_bytes();
        o.extend_from_slice(&(name.len().min(u16::MAX as usize) as u16).to_le_bytes());
        o.extend_from_slice(&name[..name.len().min(u16::MAX as usize)]);
    });
    b.finish_keyed(key.map(hello_key).as_ref())
}

/// Decodes a [`Hello`] frame, verifying its MAC when `key` is set
/// (strict in both directions, like all keyed parsing).
pub fn decode_hello(bytes: &[u8], key: Option<&FrameKey>) -> Result<Hello, WireError> {
    let derived = key.map(hello_key);
    let view = FrameView::parse_keyed(bytes, derived.as_ref())?;
    if view.kind != FrameKind::Control {
        return Err(WireError::BadKind(view.kind.id()));
    }
    let rec = view.find(SLOT_HELLO).ok_or(WireError::Truncated { needed: 1, have: 0 })?;
    let p = rec.payload;
    if p.len() < 6 {
        return Err(WireError::Truncated { needed: 6, have: p.len() });
    }
    let proto = p[0];
    let codec = CodecKind::from_id(p[1])?;
    let threads = u16::from_le_bytes([p[2], p[3]]);
    let name_len = u16::from_le_bytes([p[4], p[5]]) as usize;
    if p.len() < 6 + name_len {
        return Err(WireError::Truncated { needed: 6 + name_len, have: p.len() });
    }
    let name = String::from_utf8_lossy(&p[6..6 + name_len]).into_owned();
    Ok(Hello { proto, codec, threads, name })
}

/// Encodes `ack` into `buf` (cleared). Returns the frame length.
pub fn encode_hello_ack(buf: &mut Vec<u8>, ack: &HelloAck, key: Option<&FrameKey>) -> usize {
    let mut b = FrameBuilder::begin(buf, FrameKind::Control, ack.codec);
    b.record(SLOT_ACK, CodecKind::Raw, 0, 0, |o| {
        o.push(ack.accepted as u8);
        o.push(ack.codec.id());
        o.extend_from_slice(&ack.worker_id.to_le_bytes());
        let reason = ack.reason.as_bytes();
        o.extend_from_slice(&(reason.len().min(u16::MAX as usize) as u16).to_le_bytes());
        o.extend_from_slice(&reason[..reason.len().min(u16::MAX as usize)]);
        let json = ack.config_json.as_bytes();
        o.extend_from_slice(&(json.len() as u32).to_le_bytes());
        o.extend_from_slice(json);
    });
    b.finish_keyed(key.map(hello_key).as_ref())
}

/// Decodes a [`HelloAck`] frame, verifying its MAC when `key` is set.
pub fn decode_hello_ack(bytes: &[u8], key: Option<&FrameKey>) -> Result<HelloAck, WireError> {
    let derived = key.map(hello_key);
    let view = FrameView::parse_keyed(bytes, derived.as_ref())?;
    if view.kind != FrameKind::Control {
        return Err(WireError::BadKind(view.kind.id()));
    }
    let rec = view.find(SLOT_ACK).ok_or(WireError::Truncated { needed: 1, have: 0 })?;
    let p = rec.payload;
    if p.len() < 12 {
        return Err(WireError::Truncated { needed: 12, have: p.len() });
    }
    let accepted = p[0] != 0;
    let codec = CodecKind::from_id(p[1])?;
    let worker_id = u64::from_le_bytes(p[2..10].try_into().expect("8 bytes"));
    let reason_len = u16::from_le_bytes([p[10], p[11]]) as usize;
    if p.len() < 12 + reason_len + 4 {
        return Err(WireError::Truncated { needed: 12 + reason_len + 4, have: p.len() });
    }
    let reason = String::from_utf8_lossy(&p[12..12 + reason_len]).into_owned();
    let at = 12 + reason_len;
    let json_len = u32::from_le_bytes(p[at..at + 4].try_into().expect("4 bytes")) as usize;
    if p.len() < at + 4 + json_len {
        return Err(WireError::Truncated { needed: at + 4 + json_len, have: p.len() });
    }
    let config_json = String::from_utf8_lossy(&p[at + 4..at + 4 + json_len]).into_owned();
    Ok(HelloAck { accepted, codec, worker_id, reason, config_json })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello() -> Hello {
        Hello { proto: HELLO_PROTO, codec: CodecKind::Raw, threads: 4, name: "worker-a".into() }
    }

    fn ack() -> HelloAck {
        HelloAck {
            accepted: true,
            codec: CodecKind::Raw,
            worker_id: 3,
            reason: String::new(),
            config_json: "{\"input_dim\":16}".into(),
        }
    }

    #[test]
    fn hello_round_trip_unauthenticated() {
        let mut buf = Vec::new();
        encode_hello(&mut buf, &hello(), None);
        assert_eq!(decode_hello(&buf, None).unwrap(), hello());
        let mut buf = Vec::new();
        encode_hello_ack(&mut buf, &ack(), None);
        assert_eq!(decode_hello_ack(&buf, None).unwrap(), ack());
    }

    #[test]
    fn hello_auth_negotiation_is_strict_both_ways() {
        let master = FrameKey::from_bytes(&[0x3C; 16]);
        let mut buf = Vec::new();
        encode_hello(&mut buf, &hello(), Some(&master));
        // Keyed encode, keyed decode: accepted.
        assert_eq!(decode_hello(&buf, Some(&master)).unwrap(), hello());
        // A coordinator without the key cannot admit a keyed hello...
        assert!(matches!(decode_hello(&buf, None), Err(WireError::AuthMissing)));
        // ...a keyed coordinator rejects open hellos...
        let mut open = Vec::new();
        encode_hello(&mut open, &hello(), None);
        assert!(matches!(decode_hello(&open, Some(&master)), Err(WireError::AuthMissing)));
        // ...and the wrong master key never verifies.
        let wrong = FrameKey::from_bytes(&[0x11; 16]);
        assert!(matches!(decode_hello(&buf, Some(&wrong)), Err(WireError::AuthMismatch { .. })));
    }

    #[test]
    fn ack_carries_rejection_and_config() {
        let rej = HelloAck {
            accepted: false,
            codec: CodecKind::Raw,
            worker_id: 0,
            reason: "codec not supported over sockets".into(),
            config_json: String::new(),
        };
        let mut buf = Vec::new();
        encode_hello_ack(&mut buf, &rej, None);
        let back = decode_hello_ack(&buf, None).unwrap();
        assert!(!back.accepted);
        assert_eq!(back.reason, rej.reason);
    }

    #[test]
    fn non_control_frames_are_rejected() {
        let mut buf = Vec::new();
        let b = FrameBuilder::begin(&mut buf, FrameKind::Update, CodecKind::Raw);
        b.finish();
        assert!(decode_hello(&buf, None).is_err());
        assert!(decode_hello_ack(&buf, None).is_err());
    }
}

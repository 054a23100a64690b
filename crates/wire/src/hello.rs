//! Serving-plane handshake frames: hello / hello-ack.
//!
//! The first frame on every worker connection is a [`Hello`] announcing
//! protocol version and executor capacity; the coordinator answers with
//! a [`HelloAck`] carrying an opaque run-configuration JSON blob (the
//! coordinator side owns its schema — this crate only moves the bytes).
//! Each record's second byte once named a codec: it is written 0 and a
//! non-zero one is refused as [`WireError::ReservedNonZero`], as the
//! frame's own reserved bytes are.
//!
//! Authentication reuses the per-device MAC machinery: when the
//! deployment holds a master [`FrameKey`], both hello and ack are
//! finished under the dedicated handshake subkey (`hello_key`), so a
//! connecting worker proves knowledge of the shared secret before any
//! job traffic flows, and [`FrameView::parse_keyed`]'s strict two-way
//! semantics reject both unauthenticated hellos at a keyed coordinator
//! and keyed hellos at an open one.

use crate::codec::CodecKind;
use crate::frame::{
    FrameBuilder, FrameKind, FrameView, ModuleKey, HEADER_LEN, MAC_LEN, RECORD_HEADER_LEN, TRAILER_LEN,
};
use crate::siphash::FrameKey;
use crate::stream::read_frame_within;
use crate::WireError;
use std::io::{self, Read};

/// Handshake protocol revision carried in every [`Hello`].
pub const HELLO_PROTO: u8 = 1;

/// Cap on a connection's first frame, where its [`Hello`] belongs: the
/// longest hello [`encode_hello`] cuts (a `u16::MAX`-byte name, MAC'd),
/// 64 KiB and change. A peer that has proven nothing yet is held to this,
/// not to the stream's 64 MiB [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN).
pub const MAX_HELLO_LEN: usize =
    HEADER_LEN + RECORD_HEADER_LEN + HELLO_FIXED_LEN + u16::MAX as usize + TRAILER_LEN + MAC_LEN;

/// A hello record's bytes before its name: proto, a reserved byte,
/// threads, name length.
const HELLO_FIXED_LEN: usize = 6;

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
    /// Executor threads the worker runs. The coordinator gives the worker
    /// up to this many jobs plus one at a time (at least one, so a worker
    /// that announces 0 still gets work).
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
    let mut b = FrameBuilder::begin(buf, FrameKind::Control, CodecKind::Raw);
    b.record(SLOT_HELLO, CodecKind::Raw, 0, |o| {
        o.push(hello.proto);
        o.push(0);
        o.extend_from_slice(&hello.threads.to_le_bytes());
        let name = hello.name.as_bytes();
        o.extend_from_slice(&(name.len().min(u16::MAX as usize) as u16).to_le_bytes());
        o.extend_from_slice(&name[..name.len().min(u16::MAX as usize)]);
    });
    b.finish_keyed(key.map(hello_key).as_ref())
}

/// Reads a connection's first frame into `buf` as
/// [`read_frame`](crate::read_frame) does, under [`MAX_HELLO_LEN`]: a
/// longer declared length is `InvalidData` before any of its body is read
/// or allocated.
pub fn read_hello(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<bool> {
    read_frame_within(r, buf, MAX_HELLO_LEN)
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
    if p.len() < HELLO_FIXED_LEN {
        return Err(WireError::Truncated { needed: HELLO_FIXED_LEN, have: p.len() });
    }
    reserved_zero(bytes, p)?;
    let proto = p[0];
    let threads = u16::from_le_bytes([p[2], p[3]]);
    let name_len = u16::from_le_bytes([p[4], p[5]]) as usize;
    let end = HELLO_FIXED_LEN + name_len;
    if p.len() < end {
        return Err(WireError::Truncated { needed: end, have: p.len() });
    }
    let name = String::from_utf8_lossy(&p[HELLO_FIXED_LEN..end]).into_owned();
    Ok(Hello { proto, threads, name })
}

/// Encodes `ack` into `buf` (cleared). Returns the frame length.
pub fn encode_hello_ack(buf: &mut Vec<u8>, ack: &HelloAck, key: Option<&FrameKey>) -> usize {
    let mut b = FrameBuilder::begin(buf, FrameKind::Control, CodecKind::Raw);
    b.record(SLOT_ACK, CodecKind::Raw, 0, |o| {
        o.push(ack.accepted as u8);
        o.push(0);
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
    reserved_zero(bytes, p)?;
    let accepted = p[0] != 0;
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
    Ok(HelloAck { accepted, worker_id, reason, config_json })
}

/// Refuses a hello or ack record `payload` of frame `bytes` whose second
/// byte, reserved, is not zero.
fn reserved_zero(bytes: &[u8], payload: &[u8]) -> Result<(), WireError> {
    let offset = payload.as_ptr() as usize - bytes.as_ptr() as usize + 1;
    (payload[1] == 0).then_some(()).ok_or(WireError::ReservedNonZero { offset })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello() -> Hello {
        Hello { proto: HELLO_PROTO, threads: 4, name: "worker-a".into() }
    }

    fn ack() -> HelloAck {
        HelloAck {
            accepted: true,
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
    fn the_longest_hello_fits_the_first_frame_cap_exactly() {
        let master = FrameKey::from_bytes(&[0x3C; 16]);
        let longest = Hello { name: "n".repeat(70_000), ..hello() };
        let mut frame = Vec::new();
        assert_eq!(encode_hello(&mut frame, &longest, Some(&master)), MAX_HELLO_LEN);
        let mut wire = Vec::new();
        crate::write_frame(&mut wire, &frame).unwrap();
        let mut buf = Vec::new();
        assert!(read_hello(&mut io::Cursor::new(wire), &mut buf).unwrap());
        assert_eq!(decode_hello(&buf, Some(&master)).unwrap().name.len(), u16::MAX as usize);
    }

    #[test]
    fn a_first_frame_over_the_hello_cap_is_refused_before_its_body() {
        for len in [MAX_HELLO_LEN + 1, crate::MAX_FRAME_LEN - 1] {
            let mut wire = u32::try_from(len).unwrap().to_le_bytes().to_vec();
            wire.extend_from_slice(b"body");
            let mut r = io::Cursor::new(wire);
            let mut buf = Vec::new();
            let err = read_hello(&mut r, &mut buf).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "declared {len}");
            assert_eq!((buf.capacity(), r.position()), (0, 4), "declared {len}: nothing past the prefix");
        }
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
            worker_id: 0,
            reason: "unsupported handshake revision 9".into(),
            config_json: String::new(),
        };
        let mut buf = Vec::new();
        encode_hello_ack(&mut buf, &rej, None);
        let back = decode_hello_ack(&buf, None).unwrap();
        assert!(!back.accepted);
        assert_eq!(back.reason, rej.reason);
    }

    /// The byte that once named a codec is reserved: a hello or ack that
    /// sets it, whatever to, is refused at its frame offset.
    #[test]
    fn a_non_zero_codec_byte_is_refused() {
        let master = FrameKey::from_bytes(&[0x3C; 16]);
        let offset = HEADER_LEN + RECORD_HEADER_LEN + 1;
        for key in [None, Some(&master)] {
            let derived = key.map(hello_key);
            for (slot, payload) in [(SLOT_HELLO, vec![HELLO_PROTO, 2, 1, 0, 0, 0]), (SLOT_ACK, vec![1; 16])] {
                let mut buf = Vec::new();
                let mut b = FrameBuilder::begin(&mut buf, FrameKind::Control, CodecKind::Raw);
                b.record(slot, CodecKind::Raw, 0, |o| o.extend_from_slice(&payload));
                b.finish_keyed(derived.as_ref());
                let err = if slot == SLOT_HELLO {
                    decode_hello(&buf, key).map(drop)
                } else {
                    decode_hello_ack(&buf, key).map(drop)
                };
                assert_eq!(
                    err,
                    Err(WireError::ReservedNonZero { offset }),
                    "{slot:?}, keyed {}",
                    key.is_some()
                );
            }
        }
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

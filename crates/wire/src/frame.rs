//! Framed binary format for module traffic.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     4  magic  b"NBW1"
//!      4     1  wire version (1 unauthenticated, 2 authenticated)
//!      5     1  frame kind   (0 payload, 1 update, 2 dense, 3 control)
//!      6     1  default codec id (hint; records carry their own)
//!      7     1  flags (bit 0: authenticated; rest reserved 0)
//!      8     4  record count            u32 LE
//!     12     4  body length in bytes    u32 LE
//!     16   ...  records (back to back)
//!    end     4  CRC32 (IEEE) over header + body   u32 LE
//!   +opt     8  MAC over header + body   u64 LE
//!                (present iff the auth flag is set, which it is iff the
//!                version is 2)
//!
//! MAC (`FrameKey::mac`, see `crate::siphash`): over the `n` bytes of
//! header + body, eight SipHash-2-4 lanes under derived lane keys, lane
//! i over 8-byte word i of every whole 64-byte stripe, then
//! SipHash-2-4 under the frame key of tag_0‖…‖tag_7‖tail‖n (u64 LE),
//! where the tail is the last n mod 64 bytes.
//!
//! record:
//!      0     2  layer   u16 LE   (0xFFFC..=0xFFFF are sentinels)
//!      2     2  module  u16 LE
//!      4     1  codec id for this record
//!      5     3  reserved (0)
//!      8     8  base version  u64 LE  (0 when codec needs no baseline)
//!     16     4  element count u32 LE  (f32 elements after decode)
//!     20     4  encoded payload length u32 LE
//!     24   ...  encoded payload
//! ```
//!
//! Encoding appends into a caller-owned `Vec<u8>` (the `nn::Workspace`
//! discipline: buffers are reused across rounds, steady-state encode does
//! no allocation). Decoding is zero-copy: `FrameView::parse` validates
//! magic/version/lengths/CRC once and hands out records borrowing the
//! input buffer.

use crate::codec::CodecKind;
use crate::crc32::crc32;
use crate::siphash::FrameKey;
use crate::WireError;

pub const MAGIC: [u8; 4] = *b"NBW1";
/// Wire version of an unauthenticated frame.
pub const WIRE_VERSION: u8 = 1;
/// Wire version of an authenticated frame (the striped MAC; version 1
/// frames with the auth flag came from a build before it and are refused).
pub const WIRE_VERSION_AUTHED: u8 = 2;
pub const HEADER_LEN: usize = 16;
pub const RECORD_HEADER_LEN: usize = 24;
pub const TRAILER_LEN: usize = 4;
/// Length of the optional MAC trailer.
pub const MAC_LEN: usize = 8;
/// Header flag bit (byte 7): frame carries a MAC trailer after the CRC.
pub const FLAG_AUTH: u8 = 0x01;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Cloud → edge sub-model payload (modules + shared params).
    Payload,
    /// Edge → cloud module update (modules + shared + importance + meta).
    Update,
    /// A single dense blob (baseline strategies' full-model exchange).
    Dense,
    /// Serving-plane control traffic (handshake, job dispatch/results,
    /// shutdown). Records use [`ModuleKey::control`] sentinels.
    Control,
}

impl FrameKind {
    pub fn id(self) -> u8 {
        match self {
            FrameKind::Payload => 0,
            FrameKind::Update => 1,
            FrameKind::Dense => 2,
            FrameKind::Control => 3,
        }
    }

    pub fn from_id(id: u8) -> Result<Self, WireError> {
        match id {
            0 => Ok(FrameKind::Payload),
            1 => Ok(FrameKind::Update),
            2 => Ok(FrameKind::Dense),
            3 => Ok(FrameKind::Control),
            other => Err(WireError::BadKind(other)),
        }
    }
}

/// Addresses one tensor inside a frame: a (layer, module) pair for real
/// modules, or one of the sentinel keys for everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleKey {
    pub layer: u16,
    pub module: u16,
}

impl ModuleKey {
    /// Shared (non-modular) parameters, or the whole blob in dense frames.
    pub const SHARED: ModuleKey = ModuleKey { layer: 0xFFFF, module: 0xFFFF };
    /// Update metadata record (currently: data volume as u64 LE, elems 0).
    pub const META: ModuleKey = ModuleKey { layer: 0xFFFD, module: 0 };

    /// A real module at (layer, module).
    pub fn module(layer: usize, module: usize) -> Self {
        debug_assert!(layer < 0xFFFC && module < 0xFFFC, "index collides with sentinel space");
        ModuleKey { layer: layer as u16, module: module as u16 }
    }

    /// Per-layer importance row; the module field carries the layer index.
    pub fn importance(layer: usize) -> Self {
        debug_assert!(layer < 0xFFFC);
        ModuleKey { layer: 0xFFFE, module: layer as u16 }
    }

    /// Serving-plane control record `slot` inside a [`FrameKind::Control`]
    /// frame (slot 0 is the message header by convention; higher slots
    /// carry opaque binary sections).
    pub fn control(slot: usize) -> Self {
        debug_assert!(slot < 0xFFFC);
        ModuleKey { layer: 0xFFFC, module: slot as u16 }
    }

    pub fn is_shared(self) -> bool {
        self == Self::SHARED
    }

    pub fn is_importance(self) -> bool {
        self.layer == 0xFFFE
    }

    pub fn is_meta(self) -> bool {
        self.layer == 0xFFFD
    }

    pub fn is_module(self) -> bool {
        self.layer < 0xFFFC
    }
}

/// One parsed record, borrowing the frame buffer.
#[derive(Debug, Clone, Copy)]
pub struct Record<'a> {
    pub key: ModuleKey,
    pub codec: CodecKind,
    pub base_version: u64,
    pub elems: usize,
    pub payload: &'a [u8],
}

/// Incremental frame writer appending into a caller-owned buffer.
///
/// The buffer is cleared on `begin`; `finish` backpatches the count and
/// body length and appends the CRC trailer. Dropping a builder without
/// calling `finish` leaves an unterminated frame in the buffer — callers
/// own that invariant (the type is linear in practice).
pub struct FrameBuilder<'a> {
    buf: &'a mut Vec<u8>,
    count: u32,
}

impl<'a> FrameBuilder<'a> {
    /// Start a frame of `kind` in `buf` (cleared first). `codec` is the
    /// frame-level default codec hint; individual records may differ.
    pub fn begin(buf: &'a mut Vec<u8>, kind: FrameKind, codec: CodecKind) -> Self {
        buf.clear();
        buf.extend_from_slice(&MAGIC);
        buf.push(WIRE_VERSION);
        buf.push(kind.id());
        buf.push(codec.id());
        buf.push(0);
        buf.extend_from_slice(&0u32.to_le_bytes()); // count, backpatched
        buf.extend_from_slice(&0u32.to_le_bytes()); // body_len, backpatched
        FrameBuilder { buf, count: 0 }
    }

    /// Append one record. `write` appends the encoded payload to the
    /// buffer; its length is measured and backpatched, so codecs whose
    /// output size is data-dependent (delta) need no pre-pass.
    pub fn record(
        &mut self,
        key: ModuleKey,
        codec: CodecKind,
        base_version: u64,
        elems: usize,
        write: impl FnOnce(&mut Vec<u8>),
    ) {
        self.buf.extend_from_slice(&key.layer.to_le_bytes());
        self.buf.extend_from_slice(&key.module.to_le_bytes());
        self.buf.push(codec.id());
        self.buf.extend_from_slice(&[0u8; 3]);
        self.buf.extend_from_slice(&base_version.to_le_bytes());
        self.buf.extend_from_slice(&(elems as u32).to_le_bytes());
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&0u32.to_le_bytes()); // enc_len, backpatched
        let payload_start = self.buf.len();
        write(self.buf);
        let enc_len = (self.buf.len() - payload_start) as u32;
        self.buf[len_at..len_at + 4].copy_from_slice(&enc_len.to_le_bytes());
        self.count += 1;
    }

    /// Terminate the frame: backpatch header fields, append CRC. Returns
    /// the total frame length in bytes (what goes on the wire).
    pub fn finish(self) -> usize {
        let body_len = (self.buf.len() - HEADER_LEN) as u32;
        self.buf[8..12].copy_from_slice(&self.count.to_le_bytes());
        self.buf[12..16].copy_from_slice(&body_len.to_le_bytes());
        let crc = crc32(self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf.len()
    }

    /// Terminate an *authenticated* frame: set the auth flag and version
    /// 2, backpatch header fields, then append the CRC trailer followed by
    /// [`FrameKey::mac`] over header+body. The version and flag bytes are
    /// covered by both CRC and MAC, so neither can be stripped or forged
    /// without the key being caught.
    pub fn finish_authed(self, key: &FrameKey) -> usize {
        self.buf[4] = WIRE_VERSION_AUTHED;
        self.buf[7] |= FLAG_AUTH;
        let body_len = (self.buf.len() - HEADER_LEN) as u32;
        self.buf[8..12].copy_from_slice(&self.count.to_le_bytes());
        self.buf[12..16].copy_from_slice(&body_len.to_le_bytes());
        let mac = key.mac(self.buf);
        let crc = crc32(self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf.extend_from_slice(&mac.to_le_bytes());
        self.buf.len()
    }
}

/// A validated, parsed frame borrowing the input bytes.
pub struct FrameView<'a> {
    pub kind: FrameKind,
    pub codec: CodecKind,
    records: Vec<Record<'a>>,
}

impl<'a> FrameView<'a> {
    /// Validate and index `bytes` as one unauthenticated (v1) frame.
    /// Equivalent to [`FrameView::parse_keyed`] with no key: frames
    /// carrying the auth flag are rejected because the MAC cannot be
    /// verified.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, WireError> {
        Self::parse_keyed(bytes, None)
    }

    /// Validate and index `bytes` as one frame. Checks, in order: minimum
    /// length, magic, version (2 with the auth flag, 1 without), kind,
    /// codec ids, declared body length vs actual, MAC (authenticated
    /// frames only), CRC, then walks every record checking bounds. Any
    /// byte flip that survives all structural checks is caught by the
    /// CRC; any rewrite with a fixed-up CRC is caught by the MAC.
    ///
    /// Key semantics are strict in both directions: a key-holding
    /// receiver rejects unauthenticated frames (stripping the flag is not
    /// a downgrade path), and an authenticated frame is useless to a
    /// receiver without the key. The MAC is verified *before* the CRC so
    /// forgery surfaces as [`WireError::AuthMismatch`] even when the
    /// attacker recomputed the checksum.
    pub fn parse_keyed(bytes: &'a [u8], key: Option<&FrameKey>) -> Result<Self, WireError> {
        let min = HEADER_LEN + TRAILER_LEN;
        if bytes.len() < min {
            return Err(WireError::Truncated { needed: min, have: bytes.len() });
        }
        if bytes[0..4] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let authed = bytes[7] & FLAG_AUTH != 0;
        if bytes[4] != if authed { WIRE_VERSION_AUTHED } else { WIRE_VERSION } {
            return Err(WireError::BadVersion(bytes[4]));
        }
        let kind = FrameKind::from_id(bytes[5])?;
        let codec = CodecKind::from_id(bytes[6])?;
        let count = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
        let body_len = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
        let trailer = TRAILER_LEN + if authed { MAC_LEN } else { 0 };
        let expected_total = HEADER_LEN + body_len + trailer;
        if bytes.len() != expected_total {
            return Err(WireError::LengthMismatch { expected: expected_total, got: bytes.len() });
        }
        let crc_at = HEADER_LEN + body_len;
        if authed {
            let Some(key) = key else { return Err(WireError::AuthMissing) };
            let mac_at = crc_at + TRAILER_LEN;
            let stored =
                u64::from_le_bytes(bytes[mac_at..mac_at + MAC_LEN].try_into().expect("MAC_LEN bytes"));
            let actual = key.mac(&bytes[..crc_at]);
            if stored != actual {
                return Err(WireError::AuthMismatch { expected: stored, got: actual });
            }
        } else if key.is_some() {
            return Err(WireError::AuthMissing);
        }
        let stored =
            u32::from_le_bytes([bytes[crc_at], bytes[crc_at + 1], bytes[crc_at + 2], bytes[crc_at + 3]]);
        let actual = crc32(&bytes[..crc_at]);
        if stored != actual {
            return Err(WireError::CrcMismatch { expected: stored, got: actual });
        }
        // Bound the record-index allocation by what the body can actually
        // hold: a hostile count field (u32) with a small body would
        // otherwise reserve gigabytes before the per-record bounds checks
        // ever ran.
        if count > body_len / RECORD_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: count.saturating_mul(RECORD_HEADER_LEN),
                have: body_len,
            });
        }
        let mut records = Vec::with_capacity(count);
        let mut at = HEADER_LEN;
        for _ in 0..count {
            if crc_at - at < RECORD_HEADER_LEN {
                return Err(WireError::Truncated { needed: RECORD_HEADER_LEN, have: crc_at - at });
            }
            let h = &bytes[at..at + RECORD_HEADER_LEN];
            let key = ModuleKey {
                layer: u16::from_le_bytes([h[0], h[1]]),
                module: u16::from_le_bytes([h[2], h[3]]),
            };
            let rec_codec = CodecKind::from_id(h[4])?;
            let base_version = u64::from_le_bytes([h[8], h[9], h[10], h[11], h[12], h[13], h[14], h[15]]);
            let elems = u32::from_le_bytes([h[16], h[17], h[18], h[19]]) as usize;
            let enc_len = u32::from_le_bytes([h[20], h[21], h[22], h[23]]) as usize;
            at += RECORD_HEADER_LEN;
            if crc_at - at < enc_len {
                return Err(WireError::Truncated { needed: enc_len, have: crc_at - at });
            }
            records.push(Record {
                key,
                codec: rec_codec,
                base_version,
                elems,
                payload: &bytes[at..at + enc_len],
            });
            at += enc_len;
        }
        if at != crc_at {
            return Err(WireError::LengthMismatch { expected: crc_at, got: at });
        }
        Ok(FrameView { kind, codec, records })
    }

    pub fn records(&self) -> impl Iterator<Item = &Record<'a>> {
        self.records.iter()
    }

    /// Find a record by key (frames are small; linear scan).
    pub fn find(&self, key: ModuleKey) -> Option<&Record<'a>> {
        self.records.iter().find(|r| r.key == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;

    #[test]
    fn build_parse_round_trip() {
        let mut buf = Vec::new();
        let mut b = FrameBuilder::begin(&mut buf, FrameKind::Update, CodecKind::Raw);
        let vals = [1.0f32, -2.5, 3.25];
        b.record(ModuleKey::module(0, 3), CodecKind::Raw, 0, vals.len(), |out| codec::encode_raw(&vals, out));
        b.record(ModuleKey::META, CodecKind::Raw, 0, 0, |out| out.extend_from_slice(&42u64.to_le_bytes()));
        let total = b.finish();
        assert_eq!(total, buf.len());

        let view = FrameView::parse(&buf).unwrap();
        assert_eq!(view.kind, FrameKind::Update);
        assert_eq!(view.records().count(), 2);
        let r = view.find(ModuleKey::module(0, 3)).unwrap();
        assert_eq!(r.elems, 3);
        let mut back = Vec::new();
        codec::decode_raw(r.payload, r.elems, &mut back).unwrap();
        assert_eq!(back, vals);
        let meta = view.find(ModuleKey::META).unwrap();
        assert_eq!(meta.payload, 42u64.to_le_bytes());
    }

    #[test]
    fn every_byte_flip_is_rejected() {
        let mut buf = Vec::new();
        let mut b = FrameBuilder::begin(&mut buf, FrameKind::Dense, CodecKind::Raw);
        let vals: Vec<f32> = (0..17).map(|i| i as f32 * 0.5).collect();
        b.record(ModuleKey::SHARED, CodecKind::Raw, 0, vals.len(), |out| codec::encode_raw(&vals, out));
        b.finish();
        assert!(FrameView::parse(&buf).is_ok());
        for i in 0..buf.len() {
            let mut corrupted = buf.clone();
            corrupted[i] ^= 0x40;
            assert!(FrameView::parse(&corrupted).is_err(), "flip at byte {i} not rejected");
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let mut buf = Vec::new();
        let mut b = FrameBuilder::begin(&mut buf, FrameKind::Dense, CodecKind::Raw);
        b.record(ModuleKey::SHARED, CodecKind::Raw, 0, 2, |out| codec::encode_raw(&[1.0, 2.0], out));
        b.finish();
        for cut in 0..buf.len() {
            assert!(FrameView::parse(&buf[..cut]).is_err(), "truncation to {cut} accepted");
        }
    }

    fn test_key() -> FrameKey {
        FrameKey::from_bytes(&[0xA5; 16]).derive(7)
    }

    fn authed_frame() -> Vec<u8> {
        let mut buf = Vec::new();
        let mut b = FrameBuilder::begin(&mut buf, FrameKind::Update, CodecKind::Raw);
        let vals: Vec<f32> = (0..9).map(|i| i as f32 - 4.0).collect();
        b.record(ModuleKey::module(1, 2), CodecKind::Raw, 0, vals.len(), |out| codec::encode_raw(&vals, out));
        b.finish_authed(&test_key());
        buf
    }

    #[test]
    fn authed_round_trip_and_key_checks() {
        let buf = authed_frame();
        let view = FrameView::parse_keyed(&buf, Some(&test_key())).unwrap();
        assert_eq!(view.records().count(), 1);
        // Wrong key: MAC fails.
        let wrong = FrameKey::from_bytes(&[0x5A; 16]).derive(7);
        assert!(matches!(FrameView::parse_keyed(&buf, Some(&wrong)), Err(WireError::AuthMismatch { .. })));
        // Sibling device's key fails too.
        let sibling = FrameKey::from_bytes(&[0xA5; 16]).derive(8);
        assert!(matches!(FrameView::parse_keyed(&buf, Some(&sibling)), Err(WireError::AuthMismatch { .. })));
        // No key: cannot verify, must not decode.
        assert_eq!(FrameView::parse(&buf).err(), Some(WireError::AuthMissing));
    }

    #[test]
    fn authed_every_byte_flip_is_rejected() {
        let buf = authed_frame();
        let key = test_key();
        for i in 0..buf.len() {
            let mut corrupted = buf.clone();
            corrupted[i] ^= 0x40;
            assert!(FrameView::parse_keyed(&corrupted, Some(&key)).is_err(), "flip at byte {i} not rejected");
        }
        // Flips under the MAC's coverage (header+body) surface as auth
        // mismatches, before the CRC is even consulted.
        let mut corrupted = buf.clone();
        corrupted[HEADER_LEN] ^= 0x40;
        assert!(matches!(
            FrameView::parse_keyed(&corrupted, Some(&key)),
            Err(WireError::AuthMismatch { .. })
        ));
    }

    #[test]
    fn crc_fixup_forgery_is_caught_only_with_auth() {
        // The attack frame auth exists for: tamper with a body byte and
        // recompute the CRC. An unauthenticated frame decodes silently.
        let mut buf = Vec::new();
        let mut b = FrameBuilder::begin(&mut buf, FrameKind::Update, CodecKind::Raw);
        b.record(ModuleKey::SHARED, CodecKind::Raw, 0, 2, |out| codec::encode_raw(&[1.0, 2.0], out));
        b.finish();
        let mut forged = buf.clone();
        forged[HEADER_LEN + RECORD_HEADER_LEN] ^= 0x80; // flip a payload sign bit
        let crc_at = forged.len() - TRAILER_LEN;
        let crc = crc32(&forged[..crc_at]);
        forged[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert!(FrameView::parse(&forged).is_ok(), "CRC alone cannot detect forgery");

        // The same forgery against an authenticated frame is rejected.
        let mut abuf = Vec::new();
        let mut b = FrameBuilder::begin(&mut abuf, FrameKind::Update, CodecKind::Raw);
        b.record(ModuleKey::SHARED, CodecKind::Raw, 0, 2, |out| codec::encode_raw(&[1.0, 2.0], out));
        b.finish_authed(&test_key());
        let mut forged = abuf.clone();
        forged[HEADER_LEN + RECORD_HEADER_LEN] ^= 0x80;
        let crc_at = forged.len() - TRAILER_LEN - MAC_LEN;
        let crc = crc32(&forged[..crc_at]);
        forged[crc_at..crc_at + TRAILER_LEN].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            FrameView::parse_keyed(&forged, Some(&test_key())),
            Err(WireError::AuthMismatch { .. })
        ));
    }

    #[test]
    fn stripping_the_auth_flag_is_rejected() {
        // Downgrade attack: clear the flag, drop the MAC, fix the CRC.
        // Left at version 2 the frame is nobody's; rewritten to version 1
        // it is a valid unauthenticated frame, and a key-holding receiver
        // must still refuse it.
        let buf = authed_frame();
        let mut stripped = buf[..buf.len() - MAC_LEN].to_vec();
        stripped[7] &= !FLAG_AUTH;
        let crc_at = stripped.len() - TRAILER_LEN;
        let crc = crc32(&stripped[..crc_at]);
        stripped[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(FrameView::parse(&stripped).err(), Some(WireError::BadVersion(WIRE_VERSION_AUTHED)));
        stripped[4] = WIRE_VERSION;
        let crc = crc32(&stripped[..crc_at]);
        stripped[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert!(FrameView::parse(&stripped).is_ok(), "stripped frame is a valid v1 frame");
        assert_eq!(FrameView::parse_keyed(&stripped, Some(&test_key())).err(), Some(WireError::AuthMissing));
    }

    #[test]
    fn sentinel_keys_do_not_collide() {
        assert!(ModuleKey::SHARED.is_shared());
        assert!(ModuleKey::importance(7).is_importance());
        assert!(ModuleKey::META.is_meta());
        assert!(ModuleKey::module(3, 11).is_module());
        assert!(!ModuleKey::control(2).is_module());
        assert_ne!(ModuleKey::SHARED, ModuleKey::importance(0xFFF));
        assert_ne!(ModuleKey::META, ModuleKey::module(0, 0));
        assert_ne!(ModuleKey::control(0), ModuleKey::META);
    }

    #[test]
    fn control_frame_round_trip() {
        let mut buf = Vec::new();
        let mut b = FrameBuilder::begin(&mut buf, FrameKind::Control, CodecKind::Raw);
        b.record(ModuleKey::control(0), CodecKind::Raw, 0, 0, |o| o.extend_from_slice(b"{\"k\":1}"));
        b.record(ModuleKey::control(1), CodecKind::Raw, 0, 0, |o| o.extend_from_slice(&[9, 8, 7]));
        b.finish();
        let view = FrameView::parse(&buf).unwrap();
        assert_eq!(view.kind, FrameKind::Control);
        assert_eq!(view.find(ModuleKey::control(0)).unwrap().payload, b"{\"k\":1}");
        assert_eq!(view.find(ModuleKey::control(1)).unwrap().payload, &[9, 8, 7]);
    }

    /// Regression: a crafted frame declaring ~4 billion records over a
    /// tiny body (CRC fixed up, so every structural check before the
    /// record walk passes) must be rejected *before* the record index is
    /// allocated. Previously `Vec::with_capacity(count)` ran first — a
    /// hostile length field on a stream drove an unbounded allocation.
    #[test]
    fn hostile_record_count_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        let b = FrameBuilder::begin(&mut buf, FrameKind::Update, CodecKind::Raw);
        b.finish();
        // Forge the record count and restore CRC validity.
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc_at = buf.len() - TRAILER_LEN;
        let crc = crc32(&buf[..crc_at]);
        buf[crc_at..].copy_from_slice(&crc.to_le_bytes());
        let err = FrameView::parse(&buf).err().expect("hostile record count must be rejected");
        assert!(matches!(err, WireError::Truncated { .. }), "unexpected error: {err:?}");
    }
}

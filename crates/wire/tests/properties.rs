//! Property tests for the wire subsystem: codec round trips, quantization
//! error bounds, error-feedback decay, corruption rejection, and keyed
//! frame authentication.

use nebula_wire::codec::{self, CodecKind};
use nebula_wire::frame::{
    FrameBuilder, FrameKind, FrameView, ModuleKey, HEADER_LEN, MAC_LEN, RECORD_HEADER_LEN, TRAILER_LEN,
    WIRE_VERSION,
};
use nebula_wire::{crc32, FrameKey, WireError};
use proptest::prelude::*;

/// Bytes per stripe of the frame MAC: eight lanes of one 8-byte word.
const STRIPE: usize = 64;

fn arb_values(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, 1..=max_len)
}

/// Encode one record through a full frame and hand back (frame bytes,
/// decoded payload) — exercises builder, parser, and codec together.
fn frame_round_trip(vals: &[f32], codec_kind: CodecKind) -> (Vec<u8>, Vec<f32>) {
    let mut buf = Vec::new();
    let mut b = FrameBuilder::begin(&mut buf, FrameKind::Update, codec_kind);
    let key = ModuleKey::module(1, 2);
    match codec_kind {
        CodecKind::Raw => b.record(key, CodecKind::Raw, vals.len(), |o| codec::encode_raw(vals, o)),
        CodecKind::QuantInt8 => {
            let mut residual = Vec::new();
            b.record(key, CodecKind::QuantInt8, vals.len(), |o| {
                codec::encode_q8(vals, &mut residual, o);
            });
        }
    }
    b.finish();

    let view = FrameView::parse(&buf).expect("pristine frame must parse");
    let rec = *view.find(key).expect("record present");
    let mut out = Vec::new();
    match codec_kind {
        CodecKind::Raw => codec::decode_raw(rec.payload, rec.elems, &mut out).unwrap(),
        CodecKind::QuantInt8 => codec::decode_q8(rec.payload, rec.elems, &mut out).unwrap(),
    }
    drop(view);
    (buf, out)
}

/// An authenticated update frame carrying `vals` as one raw record.
fn authed_frame(vals: &[f32], key: &FrameKey) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut b = FrameBuilder::begin(&mut buf, FrameKind::Update, CodecKind::Raw);
    b.record(ModuleKey::module(0, 0), CodecKind::Raw, vals.len(), |o| codec::encode_raw(vals, o));
    b.finish_keyed(Some(key));
    buf
}

/// Recomputes the CRC of an authenticated frame after its covered bytes
/// were rewritten, so only the MAC stands between the forgery and a
/// decode; returns the covered length.
fn fix_crc(frame: &mut [u8]) -> usize {
    let body_end = frame.len() - TRAILER_LEN - MAC_LEN;
    let crc = crc32(&frame[..body_end]).to_le_bytes();
    frame[body_end..body_end + TRAILER_LEN].copy_from_slice(&crc);
    body_end
}

/// `forged` (covered bytes rewritten, CRC not yet fixed) dies at the MAC,
/// and only there: MAC'd afresh under the key, the same bytes decode.
fn rejected_only_by_the_mac(mut forged: Vec<u8>, key: &FrameKey) -> bool {
    let n = fix_crc(&mut forged);
    let rejected = matches!(FrameView::parse_keyed(&forged, Some(key)), Err(WireError::AuthMismatch { .. }));
    let mac = key.mac(&forged[..n]).to_le_bytes();
    forged[n + TRAILER_LEN..].copy_from_slice(&mac);
    rejected && FrameView::parse_keyed(&forged, Some(key)).is_ok()
}

/// Four or more whole stripes of covered bytes, all but the first inside
/// the record's payload.
fn arb_striped_values() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, 64..=256)
}

fn arb_key() -> impl Strategy<Value = FrameKey> {
    proptest::collection::vec(0u8..=255u8, 16..=16)
        .prop_map(|b| FrameKey::from_bytes(&b.as_slice().try_into().unwrap()).derive(5))
}

/// Start of the `pick`-th stripe (mod the count) that lies wholly inside
/// the payload of a frame with `n` covered bytes.
fn payload_stripe(n: usize, pick: usize) -> usize {
    STRIPE * (1 + pick % (n / STRIPE - 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn raw_round_trip_is_bit_exact(vals in arb_values(512)) {
        let (_, out) = frame_round_trip(&vals, CodecKind::Raw);
        prop_assert_eq!(out.len(), vals.len());
        for (a, b) in vals.iter().zip(&out) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "raw codec must be bit-exact");
        }
    }

    #[test]
    fn q8_round_trip_respects_quantization_bound(vals in arb_values(512)) {
        let max_abs = vals.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let scale = max_abs / 127.0;
        let (_, out) = frame_round_trip(&vals, CodecKind::QuantInt8);
        prop_assert_eq!(out.len(), vals.len());
        for (v, o) in vals.iter().zip(&out) {
            // Fresh residual (zero carry): error ≤ scale/2 plus rounding.
            prop_assert!((v - o).abs() <= scale * 0.5 + scale * 1e-3 + 1e-7,
                "|{} - {}| > scale/2 = {}", v, o, scale * 0.5);
        }
    }

    #[test]
    fn q8_error_feedback_shrinks_accumulated_error(vals in arb_values(128), rounds in 2usize..8) {
        // Send the same tensor `rounds` times with error feedback: the
        // accumulated decode must approach `rounds * vals` with total
        // error bounded by a single quantization step, i.e. the average
        // per-round error decays like 1/rounds.
        let mut residual = Vec::new();
        let mut accum = vec![0.0f32; vals.len()];
        let mut first_err = 0.0f32;
        for round in 1..=rounds {
            let mut enc = Vec::new();
            codec::encode_q8(&vals, &mut residual, &mut enc);
            let mut dec = Vec::new();
            codec::decode_q8(&enc, vals.len(), &mut dec).unwrap();
            for (a, d) in accum.iter_mut().zip(&dec) {
                *a += d;
            }
            let avg_err = accum
                .iter()
                .zip(&vals)
                .map(|(a, v)| (a - v * round as f32).abs())
                .fold(0.0f32, f32::max)
                / round as f32;
            if round == 1 {
                first_err = avg_err;
            } else if round == rounds {
                // By the last round the running average error collapsed to
                // at most the single-round error (typically ~1/rounds of it).
                prop_assert!(avg_err <= first_err + 1e-6,
                    "error feedback failed to shrink: round1 {} vs round{} {}",
                    first_err, rounds, avg_err);
                // Residual carry stays bounded by one quantization step.
                let max_abs = vals.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                let scale = max_abs / 127.0;
                for r in &residual {
                    prop_assert!(r.abs() <= scale * 0.5 + 1e-6);
                }
            }
        }
    }

    #[test]
    fn any_corruption_is_rejected(vals in arb_values(256), at in 0usize..10_000, bit in 0u8..8) {
        let (frame, _) = frame_round_trip(&vals, CodecKind::Raw);
        let mut corrupted = frame.clone();
        let idx = at % corrupted.len();
        corrupted[idx] ^= 1 << bit;
        prop_assert!(FrameView::parse(&corrupted).is_err(),
            "byte flip at {} bit {} accepted", idx, bit);
        // And the pristine frame still parses.
        prop_assert!(FrameView::parse(&frame).is_ok());
    }

    #[test]
    fn authed_round_trip_for_any_payload_and_key(
        vals in arb_values(256),
        key_bytes in proptest::collection::vec(0u8..=255u8, 16..=16),
        device in 0u64..1000,
    ) {
        let key_bytes: [u8; 16] = key_bytes.as_slice().try_into().unwrap();
        let key = FrameKey::from_bytes(&key_bytes).derive(device);
        let mut buf = Vec::new();
        let mut b = FrameBuilder::begin(&mut buf, FrameKind::Update, CodecKind::Raw);
        let mk = ModuleKey::module(1, 2);
        b.record(mk, CodecKind::Raw, vals.len(), |o| codec::encode_raw(vals.as_slice(), o));
        b.finish_keyed(Some(&key));

        let view = FrameView::parse_keyed(&buf, Some(&key)).expect("authed frame must parse with its key");
        let rec = *view.find(mk).expect("record present");
        let mut out = Vec::new();
        codec::decode_raw(rec.payload, rec.elems, &mut out).unwrap();
        drop(view);
        prop_assert_eq!(out.len(), vals.len());
        for (a, b) in vals.iter().zip(&out) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // An unkeyed parser rejects the authed frame (no downgrade), and a
        // sibling device's key never verifies it.
        prop_assert!(FrameView::parse(&buf).is_err());
        let sibling = FrameKey::from_bytes(&key_bytes).derive(device + 1);
        prop_assert!(FrameView::parse_keyed(&buf, Some(&sibling)).is_err());
    }

    #[test]
    fn mac_rejects_any_tamper_even_with_fixed_crc(
        vals in arb_values(256),
        key_bytes in proptest::collection::vec(0u8..=255u8, 16..=16),
        at in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let key_bytes: [u8; 16] = key_bytes.as_slice().try_into().unwrap();
        let key = FrameKey::from_bytes(&key_bytes).derive(3);
        let mut buf = Vec::new();
        let mut b = FrameBuilder::begin(&mut buf, FrameKind::Update, CodecKind::Raw);
        let mk = ModuleKey::module(0, 0);
        b.record(mk, CodecKind::Raw, vals.len(), |o| codec::encode_raw(vals.as_slice(), o));
        b.finish_keyed(Some(&key));

        // Forge: flip one covered byte, then recompute the CRC so only the
        // MAC stands between the forgery and a successful decode.
        let body_end = buf.len() - TRAILER_LEN - MAC_LEN;
        let mut forged = buf.clone();
        let idx = at % body_end;
        forged[idx] ^= 1 << bit;
        let crc = crc32(&forged[..body_end]).to_le_bytes();
        forged[body_end..body_end + TRAILER_LEN].copy_from_slice(&crc);
        prop_assert!(FrameView::parse_keyed(&forged, Some(&key)).is_err(),
            "forged byte {} bit {} accepted", idx, bit);
        // The pristine frame still parses.
        prop_assert!(FrameView::parse_keyed(&buf, Some(&key)).is_ok());
    }

    #[test]
    fn v1_frames_still_decode_without_a_key(vals in arb_values(256)) {
        // Backward compatibility: unauthenticated frames keep parsing via
        // both entry points when no key is supplied.
        let (frame, _) = frame_round_trip(&vals, CodecKind::Raw);
        prop_assert!(FrameView::parse(&frame).is_ok());
        prop_assert!(FrameView::parse_keyed(&frame, None).is_ok());
        // But a keyed receiver refuses them (downgrade protection).
        let key = FrameKey::from_bytes(&[7u8; 16]).derive(0);
        prop_assert!(FrameView::parse_keyed(&frame, Some(&key)).is_err());
    }

    /// A record's payload never exceeds what the planner charges for it:
    /// `4 × n` bytes raw (exact), one byte per element plus the f32 scale
    /// under int8.
    #[test]
    fn payload_stays_under_its_codec_bound(vals in arb_values(256)) {
        let mut enc = Vec::new();
        codec::encode_raw(&vals, &mut enc);
        prop_assert!(enc.len() <= 4 * vals.len(), "raw measured {} > {}", enc.len(), 4 * vals.len());
        let (mut residual, mut enc) = (Vec::new(), Vec::new());
        codec::encode_q8(&vals, &mut residual, &mut enc);
        prop_assert!(enc.len() <= vals.len() + 4, "quant_int8 measured {} > {}", enc.len(), vals.len() + 4);
    }
}

// Forgeries aimed at the striped MAC's structure — words traded between
// lanes, stripes reordered, a byte moved between the lanes and the tail,
// a stripe removed — with every length and the CRC fixed up: each must
// die at the MAC, and decode once MAC'd afresh, so the MAC is the only
// thing that stops it.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn swapping_two_words_of_a_stripe_is_rejected(
        vals in arb_striped_values(),
        key in arb_key(),
        pick in 0usize..1000,
        w in 0usize..8,
        d in 1usize..8,
    ) {
        let frame = authed_frame(&vals, &key);
        let stripe = payload_stripe(frame.len() - TRAILER_LEN - MAC_LEN, pick);
        let (a, b) = (stripe + 8 * w, stripe + 8 * ((w + d) % 8));
        prop_assume!(frame[a..a + 8] != frame[b..b + 8]);
        let mut forged = frame.clone();
        forged[a..a + 8].copy_from_slice(&frame[b..b + 8]);
        forged[b..b + 8].copy_from_slice(&frame[a..a + 8]);
        prop_assert!(rejected_only_by_the_mac(forged, &key), "words {} and {} of stripe at {} swapped", w, (w + d) % 8, stripe);
    }

    #[test]
    fn swapping_two_stripes_is_rejected(
        vals in arb_striped_values(),
        key in arb_key(),
        pick in 0usize..1000,
        d in 1usize..1000,
    ) {
        let frame = authed_frame(&vals, &key);
        let n = frame.len() - TRAILER_LEN - MAC_LEN;
        let (a, b) = (payload_stripe(n, pick), payload_stripe(n, pick + 1 + d % (n / STRIPE - 2)));
        prop_assume!(frame[a..a + STRIPE] != frame[b..b + STRIPE]);
        let mut forged = frame.clone();
        forged[a..a + STRIPE].copy_from_slice(&frame[b..b + STRIPE]);
        forged[b..b + STRIPE].copy_from_slice(&frame[a..a + STRIPE]);
        prop_assert!(rejected_only_by_the_mac(forged, &key), "stripes at {} and {} swapped", a, b);
    }

    #[test]
    fn moving_a_byte_across_the_stripe_tail_boundary_is_rejected(
        vals in arb_striped_values(),
        key in arb_key(),
    ) {
        let frame = authed_frame(&vals, &key);
        let n = frame.len() - TRAILER_LEN - MAC_LEN;
        let boundary = n - n % STRIPE;
        prop_assume!(boundary < n);
        // The last stripe's last byte moves to the end of the tail and the
        // tail's first byte into the stripe.
        let mut forged = frame.clone();
        forged[boundary - 1..n].rotate_left(1);
        prop_assume!(forged != frame);
        prop_assert!(rejected_only_by_the_mac(forged, &key), "byte moved across {}", boundary);
    }

    #[test]
    fn dropping_a_whole_stripe_is_rejected(
        vals in arb_striped_values(),
        key in arb_key(),
        pick in 0usize..1000,
    ) {
        let frame = authed_frame(&vals, &key);
        let at = payload_stripe(frame.len() - TRAILER_LEN - MAC_LEN, pick);
        let mut forged = [&frame[..at], &frame[at + STRIPE..]].concat();
        // One record: body length, its element count and its payload
        // length all shrink by one stripe's worth.
        let shrink = |bytes: &mut [u8], by: usize| {
            let v = u32::from_le_bytes(bytes.try_into().unwrap()) - by as u32;
            bytes.copy_from_slice(&v.to_le_bytes());
        };
        let rec = HEADER_LEN;
        shrink(&mut forged[12..16], STRIPE);
        shrink(&mut forged[rec + 16..rec + 20], STRIPE / 4);
        shrink(&mut forged[rec + 20..rec + RECORD_HEADER_LEN], STRIPE);
        prop_assert!(rejected_only_by_the_mac(forged, &key), "stripe at {} dropped", at);
    }

    #[test]
    fn an_authenticated_frame_at_version_1_is_refused_by_name(
        vals in arb_values(256),
        key in arb_key(),
    ) {
        // What a peer built before the striped MAC sends: the auth flag at
        // version 1. Refused before any MAC is computed.
        let mut forged = authed_frame(&vals, &key);
        forged[4] = WIRE_VERSION;
        fix_crc(&mut forged);
        prop_assert_eq!(FrameView::parse_keyed(&forged, Some(&key)).err(), Some(WireError::BadVersion(WIRE_VERSION)));
        prop_assert_eq!(FrameView::parse(&forged).err(), Some(WireError::BadVersion(WIRE_VERSION)));
    }
}

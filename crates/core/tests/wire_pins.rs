//! Pinned bytes of everything that carries a CRC-32.
//!
//! FNV-1a digests of one payload frame and one update frame cut by
//! [`WireContext`] from fixed inputs (with and without
//! [`WireConfig::with_auth`]), of a snapshot container and of a
//! two-record journal file. The constants were captured before `crc32`
//! had a second formulation and before the frame encoders stopped
//! sorting a copy of the module keys: record order, trailer values and
//! therefore compatibility with every frame, journal and snapshot
//! already written are held by numbers, not by an encoder agreeing with
//! the decoder compiled beside it. Every pinned
//! buffer is also decoded back. A third digest per authenticated frame
//! skips its version/kind/codec/flag bytes and its CRC + MAC trailer, so
//! it pins the records whatever authenticates them. Since authenticated
//! frames moved to version 2 (the striped MAC) their pre-change digests
//! are checked against the version 1 frame rebuilt from the new one, and
//! the new bytes have `_V2` pins of their own.
//!
//! The session pins run two devices on different specs through several
//! rounds of downloads and uploads under every codec: raw frames, a
//! round that moves every value, int8 error feedback carried across
//! rounds with and without auth, and a residual module shipped as an
//! empty raw record. The dense pins do the same through a `DensePool`, whose down
//! and up blobs differ in length and whose down blob changes length once.
//! The handshake pins hold the hello and ack frames, keyed and not.

use nebula_core::journal::{decode_snapshot, encode_snapshot, read_journal, JournalWriter};
use nebula_core::{ModuleUpdate, SubModelPayload, WireConfig, WireContext};
use nebula_modular::{ModularConfig, ModularModel, SubModelSpec};
use nebula_wire::hello::{decode_hello, decode_hello_ack, encode_hello, encode_hello_ack, HELLO_PROTO};
use nebula_wire::{crc32, siphash24, CodecKind, DensePool, FrameKey, FrameView, Hello, HelloAck};
use std::collections::BTreeMap;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// `len` floats from a fixed LCG, in `[-1, 1)`.
fn floats(seed: u32, len: usize) -> Vec<f32> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (s >> 8) as f32 / (1u32 << 23) as f32 - 1.0
        })
        .collect()
}

/// Modules inserted out of key order, one of them a residual (empty)
/// module, lengths that leave every tail length after 16- and 64-byte
/// blocks.
fn module_params() -> BTreeMap<(usize, usize), Vec<f32>> {
    let mut m = BTreeMap::new();
    for (n, &(key, len)) in
        [((1, 3), 2_304), ((0, 7), 96), ((2, 0), 0), ((0, 2), 2_305), ((1, 0), 961), ((2, 5), 24)]
            .iter()
            .enumerate()
    {
        m.insert(key, floats(n as u32 + 1, len));
    }
    m
}

fn spec() -> SubModelSpec {
    SubModelSpec::new(vec![vec![2, 7], vec![0, 3], vec![0, 5]])
}

const KEY: [u8; 16] = *b"nebula-wire-pins";
const DEVICE: u64 = 41;

/// `(plain, authenticated)` digests; the authenticated one is of the
/// frame rebuilt as version 1 ([`as_v1`]), the bytes every build before
/// the striped MAC wrote.
const PINNED_PAYLOAD: (u64, u64) = (0x7fbe_0f99_36d8_f01c, 0xaef4_1b4e_29c5_a31f);
const PINNED_UPDATE: (u64, u64) = (0xe5f1_f8f4_863b_30c8, 0x87ec_4922_d802_6de8);
/// `(payload, update)` digests of what an authenticated frame carries
/// apart from its version, kind, codec and flag bytes (4–7) and its CRC
/// and MAC trailer: the magic, the counts and every record byte.
const PINNED_AUTHED_COVERED: (u64, u64) = (0x0a65_0c79_46a2_1c0b, 0x3282_3375_ea6b_bf9e);
/// Authenticated frames as written now: version 2, striped MAC.
const PINNED_PAYLOAD_V2: u64 = 0xe3af_5319_5220_d5a7;
const PINNED_UPDATE_V2: u64 = 0x3fa2_cd0e_bb4d_7c60;
const PINNED_SNAPSHOT: u64 = 0x360e_d4ed_3059_4b41;
const PINNED_JOURNAL: u64 = 0x8d60_7148_7ea5_2820;

/// The fixture payload and update frames cut under `cfg`, each checked to
/// decode back to its input.
fn fixture_frames(cfg: WireConfig) -> (Vec<u8>, Vec<u8>) {
    let payload =
        SubModelPayload { spec: spec(), module_params: module_params(), shared_params: floats(90, 4_619) };
    let update = ModuleUpdate {
        spec: spec(),
        module_params: module_params(),
        shared_params: floats(91, 4_619),
        importance: vec![floats(92, 8), floats(93, 8), floats(94, 8)],
        data_volume: 137,
    };
    let mut wire = WireContext::new(cfg);
    let mut payload_frame = Vec::new();
    wire.encode_payload(DEVICE, &payload, &mut payload_frame);
    let back = wire.decode_payload(DEVICE, &payload_frame).expect("pinned payload frame decodes");
    assert_eq!(back.module_params, payload.module_params);
    assert_eq!(back.shared_params, payload.shared_params);

    let mut update_frame = Vec::new();
    wire.encode_update(DEVICE, &update, &mut update_frame);
    let back = wire.decode_update_from(DEVICE, &update_frame).expect("pinned update frame decodes");
    assert_eq!(back.module_params, update.module_params);
    assert_eq!(back.importance, update.importance);
    assert_eq!(back.data_volume, update.data_volume);
    (payload_frame, update_frame)
}

/// FNV-1a of `frame` without bytes 4–7 and without the 12-byte CRC + MAC
/// trailer of an authenticated frame.
fn covered(frame: &[u8]) -> u64 {
    let body = &frame[8..frame.len() - 12];
    fnv(&[&frame[..4], body].concat())
}

/// An authenticated (version 2) `frame` as a version 1 build cut it:
/// version byte 1, SipHash-2-4 of header + body under the device key
/// (`derive`'s two PRF calls written out), CRC recomputed.
fn as_v1(frame: &[u8]) -> Vec<u8> {
    let n = frame.len() - 12;
    let mut v1 = frame.to_vec();
    v1[4] = 1;
    let master =
        (u64::from_le_bytes(KEY[..8].try_into().unwrap()), u64::from_le_bytes(KEY[8..].try_into().unwrap()));
    let half = |tag: u8| siphash24(master.0, master.1, &[&DEVICE.to_le_bytes()[..], &[tag]].concat());
    let mac = siphash24(half(0xD0), half(0xD1), &v1[..n]);
    let crc = crc32(&v1[..n]);
    v1[n..n + 4].copy_from_slice(&crc.to_le_bytes());
    v1[n + 4..].copy_from_slice(&mac.to_le_bytes());
    v1
}

#[test]
fn frames_keep_their_bytes() {
    let (plain_payload, plain_update) = fixture_frames(WireConfig::raw());
    let (authed_payload, authed_update) = fixture_frames(WireConfig::raw().with_auth(KEY));
    let got_payload = (fnv(&plain_payload), fnv(&as_v1(&authed_payload)));
    let got_update = (fnv(&plain_update), fnv(&as_v1(&authed_update)));
    assert_eq!(
        (got_payload, got_update),
        (PINNED_PAYLOAD, PINNED_UPDATE),
        "frame bytes changed: payload {got_payload:#018x?}, update {got_update:#018x?}"
    );
    let got_v2 = (fnv(&authed_payload), fnv(&authed_update));
    assert_eq!(
        got_v2,
        (PINNED_PAYLOAD_V2, PINNED_UPDATE_V2),
        "authenticated frame bytes changed: {got_v2:#018x?}"
    );
}

/// Holds whatever the MAC trailer is: the records an authenticated frame
/// carries do not depend on how they are authenticated.
#[test]
fn authenticated_frames_keep_their_covered_bytes() {
    let (payload, update) = fixture_frames(WireConfig::raw().with_auth(KEY));
    let got = (covered(&payload), covered(&update));
    assert_eq!(got, PINNED_AUTHED_COVERED, "authenticated records changed: {got:#018x?}");
}

#[test]
fn snapshot_and_journal_keep_their_bytes() {
    let state: Vec<u8> = floats(7, 700).iter().flat_map(|v| v.to_le_bytes()).collect();

    let snapshot = encode_snapshot(12, &state);
    assert_eq!(decode_snapshot(&snapshot).expect("pinned snapshot decodes"), (12, state.clone()));

    let dir = std::env::temp_dir().join(format!("nebula-wire-pins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rounds.journal");
    let mut writer = JournalWriter::create(&path, 0x5EED).unwrap();
    writer.append(&state[..333]).unwrap();
    writer.append(b"short").unwrap();
    drop(writer);
    let journal = std::fs::read(&path).unwrap();
    let contents = read_journal(&path).expect("pinned journal parses");
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(contents.records, vec![state[..333].to_vec(), b"short".to_vec()]);
    assert!(!contents.torn_tail);

    assert_eq!(
        (fnv(&snapshot), fnv(&journal)),
        (PINNED_SNAPSHOT, PINNED_JOURNAL),
        "container bytes changed: snapshot {:#018x}, journal {:#018x}",
        fnv(&snapshot),
        fnv(&journal)
    );
}

/// `(frames, decoded)` digests of [`session`] per codec: every payload
/// and update frame cut, and every value, importance row and volume
/// they decode to.
const PINNED_SESSION_RAW: (u64, u64) = (0x0c32_d66d_7b3e_1622, 0xd2fa_93df_e504_2677);
const PINNED_SESSION_INT8: (u64, u64) = (0x1984_afc8_c4ed_2b77, 0x7a72_2968_b58f_c614);
const PINNED_SESSION_INT8_AUTHED: (u64, u64) = (0x0bbc_af7d_5223_0b54, 0x7a72_2968_b58f_c614);
/// `(bytes, decoded)` digests of [`dense_session`] per codec.
const PINNED_DENSE_RAW: (u64, u64) = (0x97ef_dc4a_392b_a3dd, 0xc6b3_93fc_7976_ebbb);
const PINNED_DENSE_INT8: (u64, u64) = (0xfe33_1c01_68d2_4a55, 0xb237_ff74_8518_231c);

const ROUNDS: usize = 5;
/// The round before which the model moves in every coordinate; device
/// uploads of the same round move densely too.
const DENSE_ROUND: usize = 3;

/// Running FNV-1a over a sequence of byte strings.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&(bytes.len() as u64).to_le_bytes()) {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f32]) {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        self.bytes(&bytes);
    }
}

/// Moves every `stride`-th value of `v` from `offset` on, alternating
/// steps of 0.004 and -0.06; `stride` 1 moves every value.
fn nudge(v: &mut [f32], offset: usize, stride: usize) {
    for (n, x) in v.iter_mut().skip(offset % stride.max(1)).step_by(stride).enumerate() {
        *x += if n % 2 == 0 { 0.004 } else { -0.06 };
    }
}

/// Codec id and element count of each module and `SHARED` record of a
/// frame, in frame order: what the pins below assert about each frame's
/// records.
fn record_codecs(frame: &[u8], key: Option<&FrameKey>) -> Vec<(u8, usize)> {
    let view = FrameView::parse_keyed(frame, key).expect("session frame parses");
    view.records()
        .filter(|r| r.key.is_module() || r.key.is_shared())
        .map(|r| (r.codec.id(), r.elems))
        .collect()
}

/// Asserts that every non-empty record in `codecs` uses codec id `want`.
fn assert_codecs(codecs: &[(u8, usize)], want: u8, what: &str) {
    assert!(codecs.iter().all(|&(c, elems)| elems == 0 || c == want), "{what}: {codecs:?}");
}

/// Two devices on different specs (device 9's holds the residual
/// module) over [`ROUNDS`] rounds against a toy model that is nudged
/// sparsely between rounds and densely before [`DENSE_ROUND`].
/// Each round every device downloads its sub-model, moves a few of the
/// values it decoded and uploads them. Returns the `(frames, decoded)`
/// digests.
fn session(cfg: WireConfig) -> (u64, u64) {
    let mcfg = ModularConfig::toy(16, 4);
    let mut model = ModularModel::new(mcfg.clone(), 5);
    // The last module of each layer is the residual (parameter-free) one.
    assert_eq!(model.module_param_count(1, 3), 0);
    let devices = [
        (3u64, SubModelSpec::new(vec![vec![0, 2], vec![0, 1]]), 0),
        (9u64, SubModelSpec::new(vec![vec![1, 2, 3], vec![0, 3]]), 2),
    ];
    let keyed = cfg.auth_key.map(|k| FrameKey::from_bytes(&k));
    let mut wire = WireContext::new(cfg);
    let (mut frames, mut decoded) = (Fold::new(), Fold::new());
    let mut frame = Vec::new();
    for round in 0..ROUNDS {
        for (device, spec, residuals) in &devices {
            let key = keyed.as_ref().map(|k| k.derive(*device));
            let mut module_params = BTreeMap::new();
            for (l, mods) in spec.layers().iter().enumerate() {
                for &i in mods {
                    module_params.insert((l, i), model.module_param_vector(l, i));
                }
            }
            let payload = SubModelPayload {
                spec: spec.clone(),
                module_params,
                shared_params: model.shared_param_vector(),
            };
            wire.encode_payload(*device, &payload, &mut frame);
            frames.bytes(&frame);
            let codecs = record_codecs(&frame, key.as_ref());
            match cfg.codec {
                CodecKind::Raw => assert_codecs(&codecs, 0, "raw payload"),
                CodecKind::QuantInt8 => {
                    assert_codecs(&codecs, 2, "int8 payload");
                    // Each residual module ships as an empty raw record.
                    assert_eq!(codecs.iter().filter(|&&r| r == (0, 0)).count(), *residuals);
                }
            }
            let back = wire.decode_payload(*device, &frame).expect("session payload decodes");
            assert_eq!(back.spec, payload.spec);
            if cfg.codec != CodecKind::QuantInt8 {
                assert_eq!(back.module_params, payload.module_params, "lossless download");
                assert_eq!(back.shared_params, payload.shared_params, "lossless download");
            }
            for v in back.module_params.values() {
                decoded.floats(v);
            }
            decoded.floats(&back.shared_params);

            let stride = if round == DENSE_ROUND { 1 } else { 37 };
            let mut update = ModuleUpdate {
                spec: back.spec,
                module_params: back.module_params,
                shared_params: back.shared_params,
                importance: (0..mcfg.num_layers)
                    .map(|l| floats(100 + l as u32, mcfg.modules_per_layer))
                    .collect(),
                data_volume: 40 + round + *device as usize,
            };
            for (n, v) in update.module_params.values_mut().enumerate() {
                nudge(v, round + n, stride);
            }
            nudge(&mut update.shared_params, round, stride);
            wire.encode_update(*device, &update, &mut frame);
            frames.bytes(&frame);
            assert_codecs(&record_codecs(&frame, key.as_ref()), cfg.codec.id(), "upload");
            let back = wire.decode_update_from(*device, &frame).expect("session update decodes");
            assert_eq!(back.spec, update.spec);
            assert_eq!(back.importance, update.importance);
            assert_eq!(back.data_volume, update.data_volume);
            if cfg.codec == CodecKind::Raw {
                assert_eq!(back.module_params, update.module_params, "lossless upload");
                assert_eq!(back.shared_params, update.shared_params, "lossless upload");
            }
            for v in back.module_params.values() {
                decoded.floats(v);
            }
            decoded.floats(&back.shared_params);
            for row in &back.importance {
                decoded.floats(row);
            }
            decoded.bytes(&(back.data_volume as u64).to_le_bytes());
        }
        let stride = if round + 1 == DENSE_ROUND { 1 } else { 53 };
        for l in 0..mcfg.num_layers {
            for i in 0..mcfg.modules_per_layer {
                let mut v = model.module_param_vector(l, i);
                nudge(&mut v, round + l + i, stride);
                model.load_module_param_vector(l, i, &v);
            }
        }
        let mut shared = model.shared_param_vector();
        nudge(&mut shared, round, stride);
        model.load_shared_param_vector(&shared);
    }
    (frames.0, decoded.0)
}

#[test]
fn session_frames_keep_their_bytes_and_values() {
    let cases = [
        ("raw", WireConfig::raw(), PINNED_SESSION_RAW),
        ("int8", WireConfig::int8(), PINNED_SESSION_INT8),
        ("int8 authed", WireConfig::int8().with_auth(KEY), PINNED_SESSION_INT8_AUTHED),
    ];
    let got: Vec<_> = cases.iter().map(|&(name, cfg, _)| (name, session(cfg))).collect();
    let pinned: Vec<_> = cases.iter().map(|&(name, _, pinned)| (name, pinned)).collect();
    assert_eq!(got, pinned, "sessions changed: {got:#018x?}");
}

/// One device's dense exchange over [`ROUNDS`] rounds: a 600-value blob
/// down and a 450-value blob up, each moved sparsely between rounds and
/// in every value before [`DENSE_ROUND`]; in the last round the down blob
/// shrinks, so a warm channel meets a new shape. A second device joins
/// cold in round 2. Returns the `(bytes, decoded)` digests.
fn dense_session(codec: CodecKind) -> (u64, u64) {
    let mut pool = DensePool::new(codec, 0.0);
    let (mut down, mut up) = (floats(200, 600), floats(201, 450));
    let (mut sizes, mut decoded) = (Fold::new(), Fold::new());
    let mut out = Vec::new();
    for round in 0..ROUNDS {
        let stride = if round == DENSE_ROUND { 1 } else { 41 };
        nudge(&mut down, round, stride);
        nudge(&mut up, round + 1, stride);
        if round + 1 == ROUNDS {
            down.truncate(520);
        }
        for device in [1u64, 2].into_iter().take(if round < 2 { 1 } else { 2 }) {
            let n = pool.send_down(device, &down, &mut out).expect("dense download decodes");
            sizes.bytes(&n.to_le_bytes());
            decoded.floats(&out);
            let n = pool.send_up(device, &up, &mut out).expect("dense upload decodes");
            sizes.bytes(&n.to_le_bytes());
            decoded.floats(&out);
            if codec == CodecKind::Raw {
                assert_eq!(out, up, "lossless dense upload");
            }
        }
    }
    (sizes.0, decoded.0)
}

#[test]
fn dense_pool_keeps_its_sizes_and_values() {
    let cases =
        [("raw", CodecKind::Raw, PINNED_DENSE_RAW), ("int8", CodecKind::QuantInt8, PINNED_DENSE_INT8)];
    let got: Vec<_> = cases.iter().map(|&(name, codec, _)| (name, dense_session(codec))).collect();
    let pinned: Vec<_> = cases.iter().map(|&(name, _, pinned)| (name, pinned)).collect();
    assert_eq!(got, pinned, "dense sessions changed: {got:#018x?}");
}

/// Digests of the handshake frames, `[unkeyed, keyed]`: a hello, an ack
/// that admits its worker with a run config, and one that refuses it
/// with a reason.
const PINNED_HELLO: [u64; 2] = [0x6662_6a27_a296_9e2d, 0x681d_b90f_6dac_d59c];
const PINNED_ACK_ACCEPT: [u64; 2] = [0x9abe_044f_4f69_7052, 0x0ec3_b59f_d41b_4e8c];
const PINNED_ACK_REFUSE: [u64; 2] = [0xdac4_0fcc_7524_b584, 0xd225_60b5_d5f0_8fa2];

#[test]
fn handshake_frames_keep_their_bytes() {
    let master = FrameKey::from_bytes(&KEY);
    let hello = Hello { proto: HELLO_PROTO, threads: 3, name: "edge-7".into() };
    let ack = |accepted: bool| HelloAck {
        accepted,
        worker_id: if accepted { 5 } else { 0 },
        reason: if accepted { String::new() } else { "unsupported handshake revision 9".into() },
        config_json: if accepted { "{\"input_dim\":16}".into() } else { String::new() },
    };
    let mut buf = Vec::new();
    let mut got = [[0u64; 2]; 3];
    for (i, key) in [None, Some(&master)].into_iter().enumerate() {
        encode_hello(&mut buf, &hello, key);
        assert_eq!(decode_hello(&buf, key).expect("pinned hello decodes"), hello);
        got[0][i] = fnv(&buf);
        for (row, accepted) in [(1, true), (2, false)] {
            encode_hello_ack(&mut buf, &ack(accepted), key);
            assert_eq!(decode_hello_ack(&buf, key).expect("pinned ack decodes"), ack(accepted));
            got[row][i] = fnv(&buf);
        }
    }
    assert_eq!(
        got,
        [PINNED_HELLO, PINNED_ACK_ACCEPT, PINNED_ACK_REFUSE],
        "handshake frames changed: {got:#018x?}"
    );
}

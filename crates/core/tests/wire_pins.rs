//! Pinned bytes of everything that carries a CRC-32.
//!
//! FNV-1a digests of one payload frame and one update frame cut by
//! [`WireContext`] from fixed inputs (with and without
//! [`WireConfig::with_auth`]), of a snapshot container, of a two-record
//! journal file and of a binary checkpoint. The constants were captured
//! before `crc32` had a second formulation and before the frame encoders
//! stopped sorting a copy of the module keys: record order, trailer
//! values and therefore compatibility with every frame, journal,
//! snapshot and checkpoint already written are held by numbers, not by
//! an encoder agreeing with the decoder compiled beside it. Every pinned
//! buffer is also decoded back. A third digest per authenticated frame
//! skips its version/kind/codec/flag bytes and its CRC + MAC trailer, so
//! it pins the records whatever authenticates them. Since authenticated
//! frames moved to version 2 (the striped MAC) their pre-change digests
//! are checked against the version 1 frame rebuilt from the new one, and
//! the new bytes have `_V2` pins of their own.

use nebula_core::checkpoint::{decode_binary, encode_binary, Checkpoint, CheckpointConfig};
use nebula_core::journal::{decode_snapshot, encode_snapshot, read_journal, JournalWriter};
use nebula_core::{ModuleUpdate, SubModelPayload, WireConfig, WireContext};
use nebula_modular::SubModelSpec;
use nebula_wire::{crc32, siphash24};
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
const PINNED_CHECKPOINT: u64 = 0x7621_edec_d6f7_37fc;

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
fn snapshot_journal_and_checkpoint_keep_their_bytes() {
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

    let ckpt = Checkpoint {
        version: 2,
        config: CheckpointConfig {
            input_dim: 48,
            classes: 10,
            width: 24,
            num_layers: 3,
            modules_per_layer: 8,
            module_hidden: 96,
            residual_module: true,
            selector_embed: 16,
        },
        params: floats(8, 5_003),
    };
    let checkpoint = encode_binary(&ckpt);
    let back = decode_binary(&checkpoint).expect("pinned checkpoint decodes");
    assert_eq!(back.config, ckpt.config);
    assert_eq!(back.params, ckpt.params);

    assert_eq!(
        (fnv(&snapshot), fnv(&journal), fnv(&checkpoint)),
        (PINNED_SNAPSHOT, PINNED_JOURNAL, PINNED_CHECKPOINT),
        "container bytes changed: snapshot {:#018x}, journal {:#018x}, checkpoint {:#018x}",
        fnv(&snapshot),
        fnv(&journal),
        fnv(&checkpoint)
    );
}

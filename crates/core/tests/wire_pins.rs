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
//! buffer is also decoded back.

use nebula_core::checkpoint::{decode_binary, encode_binary, Checkpoint, CheckpointConfig};
use nebula_core::journal::{decode_snapshot, encode_snapshot, read_journal, JournalWriter};
use nebula_core::{ModuleUpdate, SubModelPayload, WireConfig, WireContext};
use nebula_modular::SubModelSpec;
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

/// `(plain, authenticated)` digests.
const PINNED_PAYLOAD: (u64, u64) = (0x7fbe_0f99_36d8_f01c, 0xaef4_1b4e_29c5_a31f);
const PINNED_UPDATE: (u64, u64) = (0xe5f1_f8f4_863b_30c8, 0x87ec_4922_d802_6de8);
const PINNED_SNAPSHOT: u64 = 0x360e_d4ed_3059_4b41;
const PINNED_JOURNAL: u64 = 0x8d60_7148_7ea5_2820;
const PINNED_CHECKPOINT: u64 = 0x7621_edec_d6f7_37fc;

#[test]
fn frames_keep_their_bytes() {
    let payload =
        SubModelPayload { spec: spec(), module_params: module_params(), shared_params: floats(90, 4_619) };
    let update = ModuleUpdate {
        spec: spec(),
        module_params: module_params(),
        shared_params: floats(91, 4_619),
        importance: vec![floats(92, 8), floats(93, 8), floats(94, 8)],
        data_volume: 137,
    };
    let mut got_payload = Vec::new();
    let mut got_update = Vec::new();
    for cfg in [WireConfig::raw(), WireConfig::raw().with_auth(KEY)] {
        let mut wire = WireContext::new(cfg);
        let mut frame = Vec::new();
        wire.encode_payload(DEVICE, &payload, &mut frame);
        got_payload.push(fnv(&frame));
        let back = wire.decode_payload(DEVICE, &frame).expect("pinned payload frame decodes");
        assert_eq!(back.module_params, payload.module_params);
        assert_eq!(back.shared_params, payload.shared_params);

        wire.encode_update(DEVICE, &update, &mut frame);
        got_update.push(fnv(&frame));
        let back = wire.decode_update_from(DEVICE, &frame).expect("pinned update frame decodes");
        assert_eq!(back.module_params, update.module_params);
        assert_eq!(back.importance, update.importance);
        assert_eq!(back.data_volume, update.data_volume);
    }
    assert_eq!(
        ((got_payload[0], got_payload[1]), (got_update[0], got_update[1])),
        (PINNED_PAYLOAD, PINNED_UPDATE),
        "frame bytes changed: payload {got_payload:#018x?}, update {got_update:#018x?}"
    );
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

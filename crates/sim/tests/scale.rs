//! Integration tests of the sharded million-device round engine
//! (DESIGN.md §14): every field of a round pinned per shard count, and
//! large virtual populations on small memory.

use nebula_modular::ModularConfig;
use nebula_nn::Layer;
use nebula_sim::{ShardConfig, ShardRound, ShardedWorld};

fn sharded(population: usize, k: usize, shards: usize) -> ShardedWorld {
    let mut modular = ModularConfig::toy(16, 4);
    modular.gate_noise_std = 0.0;
    let mut cfg = ShardConfig::new(population, k, shards);
    cfg.spec.cell_size = 64;
    ShardedWorld::new(modular, cfg, 42).expect("valid shard config")
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x1000_0000_01b3))
}

/// Every field of a round's record, floats as bit patterns. The
/// exhaustive destructure makes a new field a compile error here.
fn round_bits(r: &ShardRound) -> Vec<u64> {
    let ShardRound {
        round,
        population,
        shards,
        sampled,
        accepted,
        rejected,
        outlier_check_skipped,
        touched,
        sim_round_ms,
        sim_max_device_ms,
        sim_ingress_ms,
        sim_backhaul_ms,
        device_upload_bytes,
        partial_upload_bytes,
    } = *r;
    vec![
        round,
        population as u64,
        shards as u64,
        sampled as u64,
        accepted as u64,
        rejected as u64,
        outlier_check_skipped as u64,
        touched as u64,
        sim_round_ms.to_bits(),
        sim_max_device_ms.to_bits(),
        sim_ingress_ms.to_bits(),
        sim_backhaul_ms.to_bits(),
        device_upload_bytes,
        partial_upload_bytes,
    ]
}

#[test]
fn shard_rounds_keep_their_bits() {
    // FNV-1a over every `ShardRound` field of three rounds, then the
    // cloud's parameter bits: flat, on shards of uneven cell counts (8
    // cells over 3 shards) and one cell per shard. Pins the backhaul
    // billing and the simulated clocks, which the shard-count invariance
    // test does not compare.
    let pins: [(usize, u64); 3] =
        [(1, 0x4f50_0002_cb84_9b83), (3, 0x8fb1_595e_aa41_a72a), (8, 0xfb59_9cc0_4444_07e1)];
    let digest = |shards: usize| {
        let mut w = sharded(512, 48, shards);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..3 {
            for v in round_bits(&w.run_round()) {
                h = fnv1a(h, &v.to_le_bytes());
            }
        }
        for p in w.cloud().model().param_vector() {
            h = fnv1a(h, &p.to_bits().to_le_bytes());
        }
        h
    };
    let got: Vec<(usize, u64)> = pins.iter().map(|&(shards, _)| (shards, digest(shards))).collect();
    assert_eq!(got, pins);
}

#[test]
fn large_virtual_population_round_completes() {
    // 10^5 virtual devices: only the sampled cohort ever materializes, so
    // this runs in seconds and flat memory. The `scale_sweep` experiment
    // of `nebula-bench` measures the RSS claim; this test pins the functional behaviour.
    let mut w = sharded(100_000, 200, 8);
    let r = w.run_round();
    assert_eq!(r.population, 100_000);
    assert_eq!(r.sampled, 200);
    assert_eq!(r.accepted, 200, "clean synthetic round must accept everything");
    assert!(r.touched > 0);
    assert!(r.sim_round_ms > 0.0);
    assert!(r.devices_per_sec() > 0.0);
    // Hierarchical accounting is populated.
    assert!(r.device_upload_bytes > 0);
    assert!(r.partial_upload_bytes > 0);
}

//! Integration tests of the sharded million-device round engine
//! (DESIGN.md §14): shard-count-invariant trajectories, robust shard
//! merging, hierarchical-vs-flat strategy equivalence, and large virtual
//! populations on small memory.

use nebula_core::RobustAggregator;
use nebula_data::{PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use nebula_modular::ModularConfig;
use nebula_nn::Layer;
use nebula_sim::strategy::StrategyConfig;
use nebula_sim::{
    FaultPlan, NebulaStrategy, ResourceSampler, ShardConfig, ShardRound, ShardedWorld, SimWorld,
};
use nebula_tensor::NebulaRng;

fn sharded(population: usize, k: usize, shards: usize, aggregator: RobustAggregator) -> ShardedWorld {
    let mut modular = ModularConfig::toy(16, 4);
    modular.gate_noise_std = 0.0;
    let mut cfg = ShardConfig::new(population, k, shards);
    cfg.spec.cell_size = 64;
    cfg.aggregator = aggregator;
    ShardedWorld::new(modular, cfg, 42).expect("valid shard config")
}

fn trajectory(w: &mut ShardedWorld, rounds: usize) -> Vec<f32> {
    for _ in 0..rounds {
        let r = w.run_round();
        assert!(r.sampled > 0);
    }
    w.cloud().model().param_vector()
}

fn assert_bit_identical(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: param {i} diverged ({x} vs {y})");
    }
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
    // cloud's parameter bits: the streamed and the buffered hierarchy,
    // flat, on shards of uneven cell counts (8 cells over 3 shards) and
    // one cell per shard. Pins the backhaul billing and the simulated
    // clocks, which the shard-count invariance tests do not compare.
    let pins: [(usize, RobustAggregator, u64); 6] = [
        (1, RobustAggregator::WeightedMean, 0x4f50_0002_cb84_9b83),
        (3, RobustAggregator::WeightedMean, 0x8fb1_595e_aa41_a72a),
        (8, RobustAggregator::WeightedMean, 0xfb59_9cc0_4444_07e1),
        (1, RobustAggregator::CoordinateMedian, 0xcf77_74e8_c10f_2783),
        (3, RobustAggregator::CoordinateMedian, 0x086c_7c68_f636_f1ea),
        (8, RobustAggregator::CoordinateMedian, 0xf7ed_8b63_5223_465f),
    ];
    let digest = |shards: usize, agg: RobustAggregator| {
        let mut w = sharded(512, 48, shards, agg);
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
    let got: Vec<(usize, RobustAggregator, u64)> =
        pins.iter().map(|&(shards, agg, _)| (shards, agg, digest(shards, agg))).collect();
    assert_eq!(got, pins);
}

#[test]
fn robust_rules_buffer_and_stay_shard_count_invariant() {
    // Robust combine rules cannot stream, so shards buffer raw updates
    // and the cloud concatenates them in shard order — which is cell
    // order — before the full sanitize gate + combine rule. The
    // trajectory is therefore exactly the flat one, for any shard count.
    let agg = RobustAggregator::CoordinateMedian;
    let mut one = sharded(512, 48, 1, agg);
    let mut eight = sharded(512, 48, 8, agg);
    let pa = trajectory(&mut one, 2);
    let pb = trajectory(&mut eight, 2);
    assert_bit_identical(&pa, &pb, "CoordinateMedian S=1 vs S=8");
}

#[test]
fn large_virtual_population_round_completes() {
    // 10^5 virtual devices: only the sampled cohort ever materializes, so
    // this runs in seconds and flat memory. The `scale_sweep` experiment
    // of `nebula-bench` measures the RSS claim; this test pins the functional behaviour.
    let mut w = sharded(100_000, 200, 8, RobustAggregator::WeightedMean);
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

#[test]
fn hierarchical_strategy_matches_flat_on_clean_rounds() {
    // NebulaStrategy with edge_groups = Some(g): clean-run WeightedMean
    // trajectories are bit-identical to the flat path for g = 1 (same
    // fold order, and the cross-cohort outlier check never fires on a
    // clean cohort), and the robust path is identical for any g (the
    // edges buffer).
    let run = |edge_groups: Option<usize>, aggregator: RobustAggregator| {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let spec = PartitionSpec::new(8, Partitioner::LabelSkew { m: 2 });
        let mut world = SimWorld::new(synth, spec, 9, None, &ResourceSampler::default(), 5);
        world.set_fault_plan(FaultPlan::none());
        let mut modular = ModularConfig::toy(16, 4);
        modular.gate_noise_std = 0.3;
        let mut cfg = StrategyConfig::new(modular);
        cfg.devices_per_round = 4;
        cfg.pretrain_epochs = 1;
        cfg.proxy_samples = 100;
        cfg.edge_groups = edge_groups;
        cfg.aggregator = aggregator;
        let mut s = NebulaStrategy::new(cfg, 1);
        let mut rng = NebulaRng::seed(3);
        for _ in 0..2 {
            let out = s.single_round(&mut world, &mut rng);
            assert_eq!(out.stats.faults.lost(), 0);
        }
        s.cloud().model().param_vector()
    };
    let flat = run(None, RobustAggregator::WeightedMean);
    let hier = run(Some(1), RobustAggregator::WeightedMean);
    assert_bit_identical(&flat, &hier, "edge_groups=1 vs flat (WeightedMean)");

    let flat = run(None, RobustAggregator::CoordinateMedian);
    let hier = run(Some(3), RobustAggregator::CoordinateMedian);
    assert_bit_identical(&flat, &hier, "edge_groups=3 vs flat (CoordinateMedian)");
}

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
    FaultPlan, FoldPlan, NebulaStrategy, ResourceSampler, RoundMode, ShardConfig, ShardedWorld, SimWorld,
};
use nebula_tensor::NebulaRng;

fn sharded(
    population: usize,
    k: usize,
    shards: usize,
    fold: FoldPlan,
    mode: RoundMode,
    aggregator: RobustAggregator,
) -> ShardedWorld {
    // Input width must match SynthSpec::toy()'s feature dim for Train mode.
    let mut modular = ModularConfig::toy(16, 4);
    modular.gate_noise_std = 0.0;
    let mut cfg = ShardConfig::new(population, k, shards);
    cfg.spec.cell_size = 64;
    cfg.fold = fold;
    cfg.mode = mode;
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

#[test]
fn train_mode_trajectory_is_shard_count_invariant() {
    // Real local SGD end-to-end: which devices are sampled, their
    // materialized hardware/data, and the PerCell fold order are all pure
    // functions of (seed, round, id) — so shard topology cannot leak into
    // the learned model's bits.
    let mut one = sharded(256, 24, 1, FoldPlan::PerCell, RoundMode::Train, RobustAggregator::WeightedMean);
    let mut four = sharded(256, 24, 4, FoldPlan::PerCell, RoundMode::Train, RobustAggregator::WeightedMean);
    let pa = trajectory(&mut one, 2);
    let pb = trajectory(&mut four, 2);
    assert_bit_identical(&pa, &pb, "Train-mode S=1 vs S=4");
}

#[test]
fn robust_rules_buffer_and_stay_shard_count_invariant() {
    // Robust combine rules cannot stream, so shards buffer raw updates
    // and the cloud concatenates them in shard order — which is cell
    // order — before the full sanitize gate + combine rule. The
    // trajectory is therefore exactly the flat one, for any shard count.
    let agg = RobustAggregator::CoordinateMedian;
    let mut one = sharded(512, 48, 1, FoldPlan::PerShard, RoundMode::Synthetic, agg);
    let mut eight = sharded(512, 48, 8, FoldPlan::PerShard, RoundMode::Synthetic, agg);
    let pa = trajectory(&mut one, 2);
    let pb = trajectory(&mut eight, 2);
    assert_bit_identical(&pa, &pb, "CoordinateMedian S=1 vs S=8");
}

#[test]
fn per_shard_fold_is_deterministic_for_fixed_shard_count() {
    // The low-memory plan re-runs to the same bits when the topology is
    // unchanged (its documented, weaker contract).
    let mk = || sharded(512, 48, 4, FoldPlan::PerShard, RoundMode::Synthetic, RobustAggregator::WeightedMean);
    let pa = trajectory(&mut mk(), 2);
    let pb = trajectory(&mut mk(), 2);
    assert_bit_identical(&pa, &pb, "PerShard rerun at S=4");
}

#[test]
fn large_virtual_population_round_completes() {
    // 10^5 virtual devices: only the sampled cohort ever materializes, so
    // this runs in seconds and flat memory. The `scale_sweep` experiment
    // of `nebula-bench` measures the RSS claim; this test pins the functional behaviour.
    let mut w =
        sharded(100_000, 200, 8, FoldPlan::PerCell, RoundMode::Synthetic, RobustAggregator::WeightedMean);
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

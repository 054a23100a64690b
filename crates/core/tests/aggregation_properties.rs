//! Property-based tests of module-wise aggregation (§5.2): idempotence,
//! convexity and isolation must hold for arbitrary update sets.

use nebula_core::{
    aggregate_module_wise, aggregate_module_wise_robust, ModuleUpdate, RobustAggregator, StreamingAccumulator,
};
use nebula_modular::{ModularConfig, ModularModel, SubModelSpec};
use nebula_nn::Layer;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn cloud(seed: u64) -> ModularModel {
    let mut cfg = ModularConfig::toy(8, 3);
    cfg.gate_noise_std = 0.0;
    cfg.residual_module = false; // every module has parameters
    ModularModel::new(cfg, seed)
}

/// Builds an update whose module params are the cloud's plus `offset`,
/// with the given per-module importance value.
fn offset_update(
    cloud: &ModularModel,
    spec: &SubModelSpec,
    offset: f32,
    importance: f32,
    volume: usize,
) -> ModuleUpdate {
    let mut module_params = BTreeMap::new();
    for (l, layer) in spec.layers().iter().enumerate() {
        for &i in layer {
            let p: Vec<f32> = cloud.module_param_vector(l, i).iter().map(|v| v + offset).collect();
            module_params.insert((l, i), p);
        }
    }
    let shared: Vec<f32> = cloud.shared_param_vector().iter().map(|v| v + offset).collect();
    let n = cloud.config().modules_per_layer;
    ModuleUpdate {
        spec: spec.clone(),
        module_params,
        shared_params: shared,
        importance: vec![vec![importance; n]; cloud.num_layers()],
        data_volume: volume,
    }
}

/// The §5.2 weighted mean written out as a second, independent
/// implementation for the bit-for-bit properties below: per module,
/// `Σ w_k·p_k / Σ w_k` over the updates whose spec holds it and that
/// carry a non-empty record for it, taken in update order; the shared
/// part weighted by data volume, `Σ vol_k·p_k / Σ vol_k`. Returns the
/// number of modules it loaded.
fn reference_module_wise(cloud: &mut ModularModel, updates: &[ModuleUpdate], use_importance: bool) -> usize {
    let mut touched = 0;
    for l in 0..cloud.num_layers() {
        for i in 0..cloud.config().modules_per_layer {
            let mut acc: Vec<f32> = Vec::new();
            let mut weight = 0.0f32;
            for u in updates.iter().filter(|u| u.spec.contains(l, i)) {
                let Some(params) = u.module_params.get(&(l, i)).filter(|p| !p.is_empty()) else {
                    continue;
                };
                let w = if use_importance { u.importance[l][i].max(1e-8) } else { 1.0 };
                if acc.is_empty() {
                    acc = params.iter().map(|&p| p * w).collect();
                } else {
                    acc.iter_mut().zip(params).for_each(|(a, &p)| *a += w * p);
                }
                weight += w;
            }
            if !acc.is_empty() && weight > 0.0 {
                acc.iter_mut().for_each(|a| *a /= weight);
                cloud.load_module_param_vector(l, i, &acc);
                touched += 1;
            }
        }
    }
    let volume: f32 = updates.iter().map(|u| u.data_volume as f32).sum();
    if volume > 0.0 {
        let mut shared = vec![0.0f32; updates[0].shared_params.len()];
        for u in updates {
            let w = u.data_volume as f32;
            shared.iter_mut().zip(&u.shared_params).for_each(|(s, &p)| *s += w * p);
        }
        shared.iter_mut().for_each(|s| *s /= volume);
        cloud.load_shared_param_vector(&shared);
    }
    touched
}

/// Punches a hole into update `u` as a device can ship one: `hole % 3`
/// is 1 to make the `hole / 3`-th spec module (modulo the spec's size) a
/// residual (an empty record), 2 to tear it off (no record at all), 0 to
/// leave the update whole.
fn punch(u: &mut ModuleUpdate, hole: usize) {
    let keys: Vec<(usize, usize)> = u.module_params.keys().copied().collect();
    let key = keys[hole / 3 % keys.len()];
    match hole % 3 {
        1 => {
            u.module_params.insert(key, Vec::new());
        }
        2 => {
            u.module_params.remove(&key);
        }
        _ => {}
    }
}

/// A cohort of `offsets.len()` updates over `spec`, the `k`-th with
/// importance `0.1 + 0.9·k`, volume `5 + 7·k` and the hole `holes[k]`.
fn holed_cohort(
    c: &ModularModel,
    spec: &SubModelSpec,
    offsets: &[f32],
    holes: &[usize],
) -> Vec<ModuleUpdate> {
    offsets
        .iter()
        .zip(holes)
        .enumerate()
        .map(|(k, (&o, &hole))| {
            let mut u = offset_update(c, spec, o, 0.1 + 0.9 * k as f32, 5 + 7 * k);
            punch(&mut u, hole);
            u
        })
        .collect()
}

/// A random valid spec over 2 layers × 4 modules.
fn arb_spec() -> impl Strategy<Value = SubModelSpec> {
    proptest::collection::vec(proptest::collection::btree_set(0usize..4, 1..=4), 2..=2)
        .prop_map(|layers| SubModelSpec::new(layers.into_iter().map(|s| s.into_iter().collect()).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn identical_updates_are_idempotent(
        spec in arb_spec(), k in 1usize..5, offset in -2.0f32..2.0, seed in 0u64..100
    ) {
        // k copies of the same update must land exactly on that update.
        let mut c = cloud(seed);
        let u = offset_update(&c, &spec, offset, 0.7, 100);
        let updates: Vec<ModuleUpdate> = (0..k).map(|_| u.clone()).collect();
        aggregate_module_wise(&mut c, &updates, true);
        for (l, layer) in spec.layers().iter().enumerate() {
            for &i in layer {
                let got = c.module_param_vector(l, i);
                let want = &u.module_params[&(l, i)];
                for (g, w) in got.iter().zip(want) {
                    prop_assert!((g - w).abs() < 1e-4, "{g} vs {w}");
                }
            }
        }
    }

    #[test]
    fn aggregate_lies_in_the_convex_hull(
        spec in arb_spec(), o1 in -2.0f32..2.0, o2 in -2.0f32..2.0,
        w1 in 0.1f32..5.0, w2 in 0.1f32..5.0, seed in 0u64..100
    ) {
        let mut c = cloud(seed);
        let before = |c: &ModularModel, l: usize, i: usize| c.module_param_vector(l, i);
        let u1 = offset_update(&c, &spec, o1, w1, 50);
        let u2 = offset_update(&c, &spec, o2, w2, 150);
        let originals: Vec<Vec<f32>> = spec
            .layers()
            .iter()
            .enumerate()
            .flat_map(|(l, layer)| layer.iter().map(move |&i| (l, i)))
            .map(|(l, i)| before(&c, l, i))
            .collect();
        aggregate_module_wise(&mut c, &[u1, u2], true);
        let (lo, hi) = (o1.min(o2), o1.max(o2));
        let mut idx = 0;
        for (l, layer) in spec.layers().iter().enumerate() {
            for &i in layer {
                let got = c.module_param_vector(l, i);
                for (g, orig) in got.iter().zip(&originals[idx]) {
                    let delta = g - orig;
                    prop_assert!(
                        delta >= lo - 1e-4 && delta <= hi + 1e-4,
                        "aggregate left the convex hull: delta {delta}, hull [{lo}, {hi}]"
                    );
                }
                idx += 1;
            }
        }
    }

    #[test]
    fn modules_outside_every_spec_never_move(
        spec in arb_spec(), offset in -2.0f32..2.0, seed in 0u64..100
    ) {
        let mut c = cloud(seed);
        let u = offset_update(&c, &spec, offset, 1.0, 100);
        // Record untouched modules.
        let mut untouched = Vec::new();
        for l in 0..2 {
            for i in 0..4 {
                if !spec.contains(l, i) {
                    untouched.push(((l, i), c.module_param_vector(l, i)));
                }
            }
        }
        aggregate_module_wise(&mut c, &[u], true);
        for ((l, i), before) in untouched {
            prop_assert_eq!(c.module_param_vector(l, i), before, "untouched module ({}, {}) moved", l, i);
        }
    }

    #[test]
    fn robust_aggregators_are_permutation_invariant(
        spec in arb_spec(),
        offsets in proptest::collection::vec(-3.0f32..3.0, 3..=7),
        rot in 0usize..7,
        seed in 0u64..100,
    ) {
        // The combine rule must not care which device reported first: any
        // rotation + reversal of the update list lands on identical params.
        let c = cloud(seed);
        let ups: Vec<ModuleUpdate> = offsets
            .iter()
            .enumerate()
            .map(|(k, &o)| offset_update(&c, &spec, o, 0.5 + k as f32, 10 + k))
            .collect();
        let mut shuffled = ups.clone();
        let rot = rot % shuffled.len();
        shuffled.rotate_left(rot);
        shuffled.reverse();
        for agg in [
            RobustAggregator::CoordinateMedian,
            RobustAggregator::TrimmedMean { frac: 0.25 },
            RobustAggregator::Krum { f: 1 },
        ] {
            let mut a = cloud(seed);
            let mut b = cloud(seed);
            let ra: Vec<&ModuleUpdate> = ups.iter().collect();
            let rb: Vec<&ModuleUpdate> = shuffled.iter().collect();
            aggregate_module_wise_robust(&mut a, &ra, agg, true);
            aggregate_module_wise_robust(&mut b, &rb, agg, true);
            prop_assert_eq!(
                a.param_vector(), b.param_vector(),
                "{} changed under permutation", agg
            );
        }
    }

    #[test]
    fn breakdown_point_keeps_median_inside_honest_envelope(
        spec in arb_spec(),
        f in 1usize..4,
        honest in proptest::collection::vec(-1.0f32..1.0, 8),
        evil_scale in 10.0f32..1e4,
        seed in 0u64..100,
    ) {
        // 2f+1 contributions, f of them adversarial and arbitrarily far
        // out: every aggregated coordinate must stay within the honest
        // coordinate envelope [min honest offset, max honest offset].
        let c = cloud(seed);
        let honest = &honest[..f + 1];
        let mut ups: Vec<ModuleUpdate> =
            honest.iter().map(|&o| offset_update(&c, &spec, o, 1.0, 10)).collect();
        for k in 0..f {
            // Adversaries also claim enormous importance and volume.
            ups.push(offset_update(
                &c,
                &spec,
                evil_scale * if k % 2 == 0 { 1.0 } else { -1.0 },
                1e6,
                1_000_000,
            ));
        }
        let (lo, hi) = honest
            .iter()
            .fold((f32::MAX, f32::MIN), |(lo, hi), &o| (lo.min(o), hi.max(o)));
        for agg in [
            RobustAggregator::CoordinateMedian,
            RobustAggregator::TrimmedMean { frac: f as f32 / ups.len() as f32 },
        ] {
            let mut after = cloud(seed);
            let refs: Vec<&ModuleUpdate> = ups.iter().collect();
            aggregate_module_wise_robust(&mut after, &refs, agg, true);
            for (l, layer) in spec.layers().iter().enumerate() {
                for &i in layer {
                    let got = after.module_param_vector(l, i);
                    let orig = c.module_param_vector(l, i);
                    for (g, o) in got.iter().zip(&orig) {
                        let delta = g - o;
                        prop_assert!(
                            delta >= lo - 1e-3 && delta <= hi + 1e-3,
                            "{agg}: coordinate left honest envelope: {delta} outside [{lo}, {hi}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_mean_matches_reference_bit_for_bit(
        spec in arb_spec(),
        offsets in proptest::collection::vec(-3.0f32..3.0, 1..=6),
        holes in proptest::collection::vec(0usize..24, 6),
        weighting in 0u8..2,
        seed in 0u64..100,
    ) {
        // RobustAggregator::WeightedMean is the §5.2 weighted mean:
        // bit-identical params and identical touched count to the
        // reference above, for arbitrary update sets with residual and
        // torn records, under either weighting.
        let use_importance = weighting == 1;
        let c = cloud(seed);
        let ups = holed_cohort(&c, &spec, &offsets, &holes);
        let refs: Vec<&ModuleUpdate> = ups.iter().collect();
        let mut a = cloud(seed);
        let mut b = cloud(seed);
        let ta = reference_module_wise(&mut a, &ups, use_importance);
        let tb = aggregate_module_wise_robust(&mut b, &refs, RobustAggregator::WeightedMean, use_importance);
        prop_assert_eq!(ta, tb);
        let (pa, pb) = (a.param_vector(), b.param_vector());
        prop_assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(&pb) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "WeightedMean diverged from reference");
        }
    }

    #[test]
    fn streaming_fold_matches_materialized_bit_for_bit(
        spec in arb_spec(),
        offsets in proptest::collection::vec(-3.0f32..3.0, 1..=8),
        holes in proptest::collection::vec(0usize..24, 8),
        weighting in 0u8..2,
        seed in 0u64..100,
    ) {
        // Folding updates one at a time must be indistinguishable — not
        // just close — from materializing the whole cohort: same touched
        // count, bit-identical parameters, for arbitrary specs, importance
        // values, volumes, residual and torn records, under either
        // weighting.
        let use_importance = weighting == 1;
        let c = cloud(seed);
        let ups = holed_cohort(&c, &spec, &offsets, &holes);
        let mut materialized = cloud(seed);
        let tm = reference_module_wise(&mut materialized, &ups, use_importance);
        let mut streamed = cloud(seed);
        let mut acc = StreamingAccumulator::new(use_importance);
        for u in &ups {
            acc.fold(u);
        }
        let ts = acc.apply(&mut streamed);
        prop_assert_eq!(tm, ts, "touched counts diverged");
        for (x, y) in materialized.param_vector().iter().zip(&streamed.param_vector()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "streaming diverged from materialized");
        }
    }

    #[test]
    fn merged_shard_accumulators_stay_close_to_single_fold(
        spec in arb_spec(),
        offsets in proptest::collection::vec(-3.0f32..3.0, 2..=9),
        cut in 1usize..8,
        seed in 0u64..100,
    ) {
        // Shard-merge equivalence: folding the cohort in two shard
        // accumulators and merging is the same sum in a different
        // association order, so results agree to fp tolerance (the
        // sharded engine's one partial per cell exists precisely to make
        // this *bit*-stable across shard counts).
        let c = cloud(seed);
        let ups: Vec<ModuleUpdate> = offsets
            .iter()
            .enumerate()
            .map(|(k, &o)| offset_update(&c, &spec, o, 0.3 + k as f32, 10 + k))
            .collect();
        let cut = cut.min(ups.len() - 1).max(1);
        let mut single = StreamingAccumulator::new(true);
        for u in &ups {
            single.fold(u);
        }
        let (mut left, mut right) = (StreamingAccumulator::new(true), StreamingAccumulator::new(true));
        for u in &ups[..cut] {
            left.fold(u);
        }
        for u in &ups[cut..] {
            right.fold(u);
        }
        left.merge(&right);
        let mut a = cloud(seed);
        let mut b = cloud(seed);
        prop_assert_eq!(single.apply(&mut a), left.apply(&mut b));
        for (x, y) in a.param_vector().iter().zip(&b.param_vector()) {
            prop_assert!((x - y).abs() <= 1e-4 * x.abs().max(1.0), "merge drifted: {x} vs {y}");
        }
    }

    #[test]
    fn higher_importance_pulls_harder(
        spec in arb_spec(), seed in 0u64..100
    ) {
        // Update A (offset +1, importance wa) vs B (offset −1, importance
        // wb): the aggregate's sign must follow the heavier importance.
        let mut c = cloud(seed);
        let ua = offset_update(&c, &spec, 1.0, 3.0, 100);
        let ub = offset_update(&c, &spec, -1.0, 1.0, 100);
        let l = 0;
        let i = spec.layer(0)[0];
        let before = c.module_param_vector(l, i);
        aggregate_module_wise(&mut c, &[ua, ub], true);
        let after = c.module_param_vector(l, i);
        // Expected delta: (3·1 + 1·(−1))/4 = 0.5.
        for (a, b) in after.iter().zip(&before) {
            prop_assert!((a - b - 0.5).abs() < 1e-4, "delta {} != 0.5", a - b);
        }
    }
}

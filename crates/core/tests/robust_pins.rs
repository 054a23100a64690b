//! Bit pins of the coordinate-wise robust combine rules (median, trimmed
//! mean, Krum and its median fallback) through the public
//! [`aggregate_module_wise_robust`] path.
//!
//! Cohorts of 1 to 27 contributions per module are built from value
//! classes that stress the sort: continuous weights, int8-style grids with
//! many exact ties, signed zeros that compare equal but differ in bits,
//! infinities, and NaN. Module and shared vector lengths are odd, so any
//! blocked loop ends in a partial block. The digest covers every
//! parameter of the resulting model.
//!
//! The constants were taken from the per-coordinate sort. A faster combine
//! must reproduce them bit for bit.

use nebula_core::{aggregate_module_wise_robust, ModuleUpdate, RobustAggregator};
use nebula_modular::{ModularConfig, ModularModel, SubModelSpec};
use std::collections::BTreeMap;

/// splitmix64: a self-contained stream, so the pins depend on nothing but
/// this file and the model's seeded initialisation.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// FNV-1a over the bits of `values`, folded into `h`.
fn fnv(h: &mut u64, values: &[f32]) {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Two layers of six modules whose parameter counts are not multiples of
/// any power-of-two lane count.
fn config() -> ModularConfig {
    ModularConfig {
        width: 21,
        module_hidden: 11,
        modules_per_layer: 6,
        residual_module: false,
        gate_noise_std: 0.0,
        ..ModularConfig::toy(13, 3)
    }
}

/// The value classes a contribution's coordinates are drawn from.
#[derive(Clone, Copy)]
enum Class {
    /// Continuous weights around the cloud's.
    Smooth,
    /// `q · scale` for an int8 code `q` and a per-update scale shared by
    /// a few updates: many exactly equal values per column.
    Grid,
    /// Mostly zeros of both signs, a few small grid values.
    Zeros,
    /// Grid values with some ±∞.
    Infinite,
    /// Grid values with some NaN.
    Nan,
}

fn value(s: &mut Stream, class: Class, scale: f32) -> f32 {
    let grid = |s: &mut Stream| (s.below(9) as f32 - 4.0) * scale;
    match class {
        Class::Smooth => 0.1 * s.unit(),
        Class::Grid => grid(s),
        Class::Zeros => match s.below(4) {
            0 => -0.0,
            1 => 0.0,
            2 => grid(s) * 0.0,
            _ => grid(s),
        },
        Class::Infinite => match s.below(12) {
            0 => f32::INFINITY,
            1 => f32::NEG_INFINITY,
            _ => grid(s),
        },
        Class::Nan => match s.below(12) {
            0 => f32::NAN,
            _ => grid(s),
        },
    }
}

/// `count` updates over `cfg`: update `u` trains a spec drawn from the
/// stream (modules 0 and 1 of layer 0 always, so some columns are as tall
/// as the cohort), and every coordinate is drawn from `class`.
fn cohort(
    cfg: &ModularConfig,
    model: &ModularModel,
    count: usize,
    class: Class,
    s: &mut Stream,
) -> Vec<ModuleUpdate> {
    let n = cfg.modules_per_layer;
    (0..count)
        .map(|u| {
            let scale = 0.01 * (1 + u % 3) as f32;
            let layers: Vec<Vec<usize>> = (0..cfg.num_layers)
                .map(|l| {
                    let mut layer: Vec<usize> = (0..n).filter(|_| s.below(2) == 0).collect();
                    if l == 0 {
                        layer.extend([0, 1]);
                    }
                    if layer.is_empty() {
                        layer.push(s.below(n));
                    }
                    layer
                })
                .collect();
            let spec = SubModelSpec::new(layers);
            let mut module_params = BTreeMap::new();
            for (l, layer) in spec.layers().iter().enumerate() {
                for &i in layer {
                    let len = model.module_param_count(l, i);
                    module_params.insert((l, i), (0..len).map(|_| value(s, class, scale)).collect());
                }
            }
            let shared_len = model.shared_param_vector().len();
            ModuleUpdate {
                spec,
                module_params,
                shared_params: (0..shared_len).map(|_| value(s, class, scale)).collect(),
                importance: vec![vec![1.0; n]; cfg.num_layers],
                data_volume: 1 + u,
            }
        })
        .collect()
}

/// Digest of every parameter after one robust aggregation of each cohort
/// size in `sizes` under each rule.
fn digest(class: Class, sizes: &[usize], seed: u64) -> u64 {
    let cfg = config();
    let rules = [
        RobustAggregator::CoordinateMedian,
        RobustAggregator::TrimmedMean { frac: 0.1 },
        RobustAggregator::TrimmedMean { frac: 0.2 },
        RobustAggregator::TrimmedMean { frac: 0.25 },
        RobustAggregator::TrimmedMean { frac: 0.34 },
        RobustAggregator::TrimmedMean { frac: 0.5 },
        RobustAggregator::Krum { f: 1 },
    ];
    let mut s = Stream(seed);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &count in sizes {
        let updates = cohort(&cfg, &ModularModel::new(cfg.clone(), 5), count, class, &mut s);
        let refs: Vec<&ModuleUpdate> = updates.iter().collect();
        for rule in rules {
            let mut model = ModularModel::new(cfg.clone(), 5);
            let touched = aggregate_module_wise_robust(&mut model, &refs, rule, true);
            h ^= touched as u64;
            for l in 0..model.num_layers() {
                for i in 0..cfg.modules_per_layer {
                    fnv(&mut h, &model.module_param_vector(l, i));
                }
            }
            fnv(&mut h, &model.shared_param_vector());
        }
    }
    h
}

/// Every cohort size from 1 to 27.
const ALL: [usize; 27] =
    [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27];

#[test]
fn smooth_cohorts_are_pinned() {
    assert_eq!(
        digest(Class::Smooth, &ALL, 1),
        0xeafadefe9c844509,
        "{:#018x}",
        digest(Class::Smooth, &ALL, 1)
    );
}

#[test]
fn grid_cohorts_with_ties_are_pinned() {
    assert_eq!(digest(Class::Grid, &ALL, 2), 0x552081220ee32880, "{:#018x}", digest(Class::Grid, &ALL, 2));
}

#[test]
fn signed_zero_cohorts_are_pinned() {
    assert_eq!(digest(Class::Zeros, &ALL, 3), 0x7300e5c083f75bf9, "{:#018x}", digest(Class::Zeros, &ALL, 3));
}

#[test]
fn infinite_cohorts_are_pinned() {
    assert_eq!(
        digest(Class::Infinite, &ALL, 4),
        0xf8fbe650d0952591,
        "{:#018x}",
        digest(Class::Infinite, &ALL, 4)
    );
}

/// NaN makes the per-coordinate comparison partial, so what is pinned is
/// the order the sort happens to leave; cohorts stay small.
#[test]
fn nan_cohorts_are_pinned() {
    let sizes = [1, 2, 3, 5, 8, 13, 17];
    assert_eq!(digest(Class::Nan, &sizes, 5), 0x9806f924bafb7971, "{:#018x}", digest(Class::Nan, &sizes, 5));
}

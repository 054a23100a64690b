//! Non-IID partitioners: how the global task is split across edge devices.
//!
//! The paper tests two heterogeneity types (§6.1):
//! * **label skew** — each device holds only `m` of the `n` classes, with
//!   sub-tasks defined as "classes that usually appear together": classes
//!   are chunked into co-occurrence groups and each device draws one group;
//! * **feature skew** — each device observes one subject/context (HAR).
//!
//! Data volumes are unbalanced across devices (50–150 samples, as in the
//! paper). IID and Dirichlet partitioners are provided for ablations.

use crate::dataset::Dataset;
use crate::synth::Synthesizer;
use nebula_tensor::NebulaRng;

/// Strategy for assigning data distributions to devices.
#[derive(Clone, Debug)]
pub enum Partitioner {
    /// Every device samples from the full class set uniformly.
    Iid,
    /// Each device holds `m` classes drawn as one co-occurrence group.
    LabelSkew { m: usize },
    /// Each device observes exactly one sensing context (subject).
    FeatureSkew,
    /// Per-device class weights drawn from a symmetric Dirichlet(α).
    Dirichlet { alpha: f32 },
    /// Classes IID but volumes drawn from a heavy-tailed distribution:
    /// a few data-rich devices dominate (quantity skew). `shape` is the
    /// Pareto-like tail exponent — smaller means heavier tail.
    QuantitySkew { shape: f32 },
}

/// Full description of a device population.
#[derive(Clone, Debug)]
pub struct PartitionSpec {
    /// Number of edge devices.
    pub devices: usize,
    /// Minimum local samples per device.
    pub min_samples: usize,
    /// Maximum local samples per device (inclusive).
    pub max_samples: usize,
    /// Distribution-assignment strategy.
    pub partitioner: Partitioner,
}

impl PartitionSpec {
    /// Paper defaults: unbalanced volumes in 50–150.
    pub fn new(devices: usize, partitioner: Partitioner) -> Self {
        Self { devices, min_samples: 50, max_samples: 150, partitioner }
    }
}

/// One device's local data and the sub-task it represents.
#[derive(Clone, Debug)]
pub struct DevicePartition {
    /// The device's local dataset.
    pub data: Dataset,
    /// Classes the device observes (its sub-task under label skew).
    pub classes: Vec<usize>,
    /// Sensing context the device observes.
    pub context: usize,
    /// Index of the co-occurrence group this device drew (label skew), or
    /// the context id (feature skew); used as the device's sub-task id.
    pub subtask: usize,
}

/// Chunks a seeded shuffle of `0..classes` into groups of size `m`
/// (last group may be smaller if `m` does not divide `classes`).
///
/// These groups are the paper's "classes that usually appear together on a
/// device" — the application-specific sub-task definition fed to the
/// module ability-enhancing training (§4.3 step 1).
pub fn cooccurrence_groups(classes: usize, m: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(m >= 1 && m <= classes, "group size {m} invalid for {classes} classes");
    let mut order: Vec<usize> = (0..classes).collect();
    let mut rng = NebulaRng::seed(seed ^ 0xC0_0C_C0_0C);
    rng.shuffle(&mut order);
    order.chunks(m).map(|c| c.to_vec()).collect()
}

/// Samples a device population from the synthesiser's geometry.
///
/// `group_seed` fixes the co-occurrence groups so that the cloud-side
/// sub-task definition and the device population agree (the cloud learns
/// sub-tasks in the offline stage and devices then realise them online).
///
/// Every device is planned in order on `rng`, then all of them are filled
/// in one [`Synthesizer::fill`].
pub fn partition(
    synth: &Synthesizer,
    spec: &PartitionSpec,
    group_seed: u64,
    rng: &mut NebulaRng,
) -> Vec<DevicePartition> {
    let n_classes = synth.spec().classes;
    let n_contexts = synth.spec().contexts;
    let all: Vec<usize> = (0..n_classes).collect();

    let groups = match &spec.partitioner {
        Partitioner::LabelSkew { m } => cooccurrence_groups(n_classes, *m, group_seed),
        _ => Vec::new(),
    };

    // (classes, context, subtask) per device, and its sample plan.
    let mut meta = Vec::with_capacity(spec.devices);
    let mut plans = Vec::with_capacity(spec.devices);
    for _ in 0..spec.devices {
        let volume = match &spec.partitioner {
            Partitioner::QuantitySkew { shape } => {
                // Inverse-CDF Pareto draw truncated to [min, 4·max]: a few
                // devices end up holding several times the typical volume.
                assert!(*shape > 0.0, "quantity-skew shape must be positive");
                let u = rng.uniform_f32(1e-4, 1.0);
                let draw = spec.min_samples as f32 * u.powf(-1.0 / shape);
                (draw as usize).clamp(spec.min_samples, spec.max_samples * 4)
            }
            _ if spec.max_samples > spec.min_samples => {
                spec.min_samples + rng.below(spec.max_samples - spec.min_samples + 1)
            }
            _ => spec.min_samples,
        };
        let (classes, context, subtask, plan) = match &spec.partitioner {
            Partitioner::Iid | Partitioner::QuantitySkew { .. } => {
                let context = rng.below(n_contexts);
                (all.clone(), context, 0, synth.plan_classes(volume, &all, context, rng))
            }
            Partitioner::LabelSkew { .. } => {
                let g = rng.below(groups.len());
                let classes = groups[g].clone();
                let context = rng.below(n_contexts);
                let plan = synth.plan_classes(volume, &classes, context, rng);
                (classes, context, g, plan)
            }
            Partitioner::FeatureSkew => {
                let context = rng.below(n_contexts);
                (all.clone(), context, context, synth.plan_classes(volume, &all, context, rng))
            }
            Partitioner::Dirichlet { alpha } => {
                let weights = rng.dirichlet(*alpha, n_classes);
                let context = rng.below(n_contexts);
                (all.clone(), context, 0, synth.plan_weighted(volume, &all, &weights, context, rng))
            }
        };
        meta.push((classes, context, subtask));
        plans.push(plan);
    }

    let present_only = matches!(spec.partitioner, Partitioner::Dirichlet { .. });
    meta.into_iter()
        .zip(synth.fill(plans))
        .map(|((classes, context, subtask), data)| {
            // A Dirichlet device holds the classes its weights drew.
            let classes = if present_only { data.present_classes() } else { classes };
            DevicePartition { data, classes, context, subtask }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthSpec;

    fn synth() -> Synthesizer {
        Synthesizer::new(SynthSpec::toy(), 3)
    }

    #[test]
    fn cooccurrence_groups_cover_all_classes_once() {
        let groups = cooccurrence_groups(10, 3, 5);
        assert_eq!(groups.len(), 4); // 3+3+3+1
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cooccurrence_groups_deterministic_per_seed() {
        assert_eq!(cooccurrence_groups(8, 2, 1), cooccurrence_groups(8, 2, 1));
        assert_ne!(cooccurrence_groups(8, 2, 1), cooccurrence_groups(8, 2, 2));
    }

    #[test]
    fn volumes_respect_bounds() {
        let s = synth();
        let spec = PartitionSpec::new(20, Partitioner::Iid);
        let mut rng = NebulaRng::seed(1);
        let parts = partition(&s, &spec, 0, &mut rng);
        assert_eq!(parts.len(), 20);
        for p in &parts {
            assert!((50..=150).contains(&p.data.len()), "volume {}", p.data.len());
        }
    }

    #[test]
    fn label_skew_limits_classes_per_device() {
        let s = synth();
        let spec = PartitionSpec::new(30, Partitioner::LabelSkew { m: 2 });
        let mut rng = NebulaRng::seed(2);
        let parts = partition(&s, &spec, 7, &mut rng);
        for p in &parts {
            assert_eq!(p.classes.len(), 2);
            for &label in p.data.labels() {
                assert!(p.classes.contains(&label), "label {label} outside device classes {:?}", p.classes);
            }
        }
        // With 4 classes and m=2 there are exactly 2 groups; both should
        // appear across 30 devices.
        let subtasks: std::collections::HashSet<usize> = parts.iter().map(|p| p.subtask).collect();
        assert_eq!(subtasks.len(), 2);
    }

    #[test]
    fn feature_skew_assigns_single_context() {
        let s = synth();
        let spec = PartitionSpec::new(16, Partitioner::FeatureSkew);
        let mut rng = NebulaRng::seed(3);
        let parts = partition(&s, &spec, 0, &mut rng);
        let contexts: std::collections::HashSet<usize> = parts.iter().map(|p| p.context).collect();
        assert!(contexts.len() > 1, "feature skew should spread devices over contexts");
        for p in &parts {
            assert_eq!(p.subtask, p.context);
        }
    }

    #[test]
    fn dirichlet_skews_class_histograms() {
        let s = synth();
        let spec = PartitionSpec {
            devices: 10,
            min_samples: 200,
            max_samples: 200,
            partitioner: Partitioner::Dirichlet { alpha: 0.1 },
        };
        let mut rng = NebulaRng::seed(4);
        let parts = partition(&s, &spec, 0, &mut rng);
        // With α=0.1 most devices should be dominated by one class.
        let dominated = parts
            .iter()
            .filter(|p| {
                let h = p.data.class_histogram();
                let max = *h.iter().max().unwrap();
                max as f32 / p.data.len() as f32 > 0.5
            })
            .count();
        assert!(dominated >= 5, "only {dominated}/10 devices dominated");
    }

    #[test]
    fn quantity_skew_produces_heavy_tailed_volumes() {
        let s = synth();
        let spec = PartitionSpec {
            devices: 60,
            min_samples: 50,
            max_samples: 150,
            partitioner: Partitioner::QuantitySkew { shape: 1.2 },
        };
        let mut rng = NebulaRng::seed(7);
        let parts = partition(&s, &spec, 0, &mut rng);
        let volumes: Vec<usize> = parts.iter().map(|p| p.data.len()).collect();
        let max = *volumes.iter().max().unwrap();
        let min = *volumes.iter().min().unwrap();
        assert!(min >= 50);
        assert!(max <= 600);
        // The tail must actually be heavy: the biggest device holds
        // several times the smallest.
        assert!(max >= 3 * min, "no heavy tail: min {min}, max {max}");
    }
}

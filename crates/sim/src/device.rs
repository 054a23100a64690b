//! A simulated edge device.

use crate::resources::DeviceResources;
use nebula_core::ResourceProfile;
use nebula_data::partition::DevicePartition;
use nebula_data::{Dataset, Synthesizer};
use nebula_modular::cost::CostModel;
use nebula_tensor::NebulaRng;

/// Held-out test samples per device (drawn from the device's current
/// distribution; regenerated after drift).
pub const TEST_SAMPLES_PER_DEVICE: usize = 100;

/// A device in the simulated population: local data, a matching held-out
/// test set, sampled hardware, and a private RNG stream.
pub struct SimDevice {
    pub id: usize,
    pub partition: DevicePartition,
    pub test: Dataset,
    pub resources: DeviceResources,
    pub rng: NebulaRng,
}

impl SimDevice {
    /// Builds a device, drawing its test set from the same distribution
    /// as its local data.
    pub fn new(
        id: usize,
        partition: DevicePartition,
        resources: DeviceResources,
        mut rng: NebulaRng,
        synth: &Synthesizer,
    ) -> Self {
        let test =
            synth.sample_classes(TEST_SAMPLES_PER_DEVICE, &partition.classes, partition.context, &mut rng);
        Self { id, partition, test, resources, rng }
    }

    /// The Eq. 2 resource limits this device reports: its budget ratio of
    /// the full model's cost in every dimension. (The simulated mapping
    /// from GB-scale hardware to model-scale budgets; DESIGN.md, Fig. 2
    /// substitution.)
    pub fn profile(&self, cost: &CostModel) -> ResourceProfile {
        let full = cost.full_model();
        let r = self.resources.budget_ratio as f64;
        ResourceProfile {
            mem_bytes: ((full.training_mem_bytes as f64) * r) as u64,
            flops: ((full.flops as f64) * r) as u64,
            comm_bytes: ((full.comm_bytes as f64) * r) as u64,
        }
    }

    /// Local training data volume.
    pub fn volume(&self) -> usize {
        self.partition.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceSampler;
    use nebula_data::{partition, PartitionSpec, Partitioner, SynthSpec};
    use nebula_modular::ModularConfig;

    fn device() -> (SimDevice, Synthesizer) {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let mut rng = NebulaRng::seed(3);
        let spec = PartitionSpec::new(1, Partitioner::LabelSkew { m: 2 });
        let parts = partition::partition(&synth, &spec, 9, &mut rng);
        let res = ResourceSampler::default().sample(&mut rng);
        let dev = SimDevice::new(0, parts.into_iter().next().unwrap(), res, rng.fork(0), &synth);
        (dev, synth)
    }

    #[test]
    fn test_set_matches_device_distribution() {
        let (dev, _) = device();
        assert_eq!(dev.test.len(), TEST_SAMPLES_PER_DEVICE);
        for &label in dev.test.labels() {
            assert!(dev.partition.classes.contains(&label));
        }
    }

    #[test]
    fn profile_scales_with_budget_ratio() {
        let (mut dev, _) = device();
        let cost = CostModel::new(ModularConfig::toy(16, 4));
        dev.resources.budget_ratio = 0.5;
        let half = dev.profile(&cost);
        dev.resources.budget_ratio = 0.25;
        let quarter = dev.profile(&cost);
        assert!(half.mem_bytes > quarter.mem_bytes);
        assert!(half.flops > quarter.flops);
        assert!(half.comm_bytes > quarter.comm_bytes);
    }
}

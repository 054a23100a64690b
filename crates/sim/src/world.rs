//! The simulated world: a device population over a synthetic task, plus
//! the drift process that advances it through time slots.

use crate::device::SimDevice;
use crate::durability::RunError;
use crate::faults::{DeviceFate, FaultPlan, RoundPolicy};
use crate::resources::ResourceSampler;
use nebula_data::partition::{cooccurrence_groups, partition, PartitionSpec, Partitioner};
use nebula_data::{Dataset, DriftModel, Synthesizer};
use nebula_tensor::NebulaRng;

/// The full simulation state for one task.
pub struct SimWorld {
    pub synth: Synthesizer,
    pub devices: Vec<SimDevice>,
    pub drift: Option<DriftModel>,
    /// Seed fixing the sub-task (co-occurrence group) structure; shared by
    /// the partitioner, the drift process and the cloud's sub-task
    /// definitions so all three agree on what the sub-tasks are.
    pub group_seed: u64,
    partition_spec: PartitionSpec,
    rng: NebulaRng,
    /// Time slots advanced so far.
    pub slot: usize,
    /// Faults injected into every strategy that runs on this world.
    /// Defaults to [`FaultPlan::none`], which is bit-identical to a
    /// fault-free build.
    pub faults: FaultPlan,
    /// Robust-round orchestration knobs (deadline, retries, staleness).
    pub policy: RoundPolicy,
    /// Communication rounds started on this world (fault-fate key).
    rounds_started: u64,
}

impl SimWorld {
    /// Builds a world: samples hardware, partitions data, draws test sets.
    pub fn new(
        synth: Synthesizer,
        partition_spec: PartitionSpec,
        group_seed: u64,
        drift: Option<DriftModel>,
        sampler: &ResourceSampler,
        seed: u64,
    ) -> Self {
        let mut rng = NebulaRng::seed(seed);
        let parts = partition(&synth, &partition_spec, group_seed, &mut rng);
        let hardware = sampler.sample_population(parts.len(), &mut rng);
        let devices = parts
            .into_iter()
            .zip(hardware)
            .enumerate()
            .map(|(id, (p, h))| {
                let drng = rng.fork(id as u64);
                SimDevice::new(id, p, h, drng, &synth)
            })
            .collect();
        Self {
            synth,
            devices,
            drift,
            group_seed,
            partition_spec,
            rng,
            slot: 0,
            faults: FaultPlan::none(),
            policy: RoundPolicy::default(),
            rounds_started: 0,
        }
    }

    /// Builds the paper's real-world testbed population (Fig. 6): 10
    /// Jetson Nanos and 10 Raspberry Pi 4Bs on a WiFi LAN, with fixed
    /// (non-sampled) hardware per device class.
    ///
    /// Errors with [`RunError::InvalidConfig`] when the partition spec
    /// does not describe the testbed's 20 devices.
    pub fn testbed(
        synth: Synthesizer,
        partition_spec: PartitionSpec,
        group_seed: u64,
        drift: Option<DriftModel>,
        seed: u64,
    ) -> Result<Self, RunError> {
        use crate::resources::{DeviceClass, DeviceResources};
        if partition_spec.devices != 20 {
            return Err(RunError::InvalidConfig(format!(
                "the paper's testbed has 20 devices, partition spec describes {}",
                partition_spec.devices
            )));
        }
        let mut rng = NebulaRng::seed(seed);
        let parts = partition(&synth, &partition_spec, group_seed, &mut rng);
        let hw = |class: DeviceClass| match class {
            DeviceClass::MobileSoc => DeviceResources {
                class,
                ram_bytes: 4_000_000_000, // Jetson Nano: 4 GB
                flops_per_sec: 5.4e9,
                bandwidth_bps: 2e7,
                budget_ratio: 0.5,
                background_procs: 0,
            },
            DeviceClass::Iot => DeviceResources {
                class,
                ram_bytes: 2_000_000_000, // Raspberry Pi 4B: 2 GB
                flops_per_sec: 5.4e8,
                bandwidth_bps: 2e7,
                budget_ratio: 0.25,
                background_procs: 0,
            },
        };
        let devices = parts
            .into_iter()
            .enumerate()
            .map(|(id, p)| {
                let class = if id < 10 { DeviceClass::MobileSoc } else { DeviceClass::Iot };
                let drng = rng.fork(id as u64);
                SimDevice::new(id, p, hw(class), drng, &synth)
            })
            .collect();
        Ok(Self {
            synth,
            devices,
            drift,
            group_seed,
            partition_spec,
            rng,
            slot: 0,
            faults: FaultPlan::none(),
            policy: RoundPolicy::default(),
            rounds_started: 0,
        })
    }

    /// Installs a fault plan; every strategy run on this world afterwards
    /// experiences the same injected faults.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Installs the robust-round policy (deadline, retries, staleness).
    pub fn set_round_policy(&mut self, policy: RoundPolicy) {
        self.policy = policy;
    }

    /// The index of the next communication round, advancing the counter.
    /// Strategies call this once per round so fault fates are keyed by a
    /// stable `(plan seed, round, device)` triple.
    pub fn next_round_index(&mut self) -> u64 {
        let r = self.rounds_started;
        self.rounds_started = self.rounds_started.saturating_add(1);
        r
    }

    /// Rounds started so far (the fault-plan cursor), for run snapshots.
    pub fn rounds_started(&self) -> u64 {
        self.rounds_started
    }

    /// Restores the round counter from a run snapshot.
    pub fn set_rounds_started(&mut self, rounds: u64) {
        self.rounds_started = rounds;
    }

    /// The world RNG's raw state, for run snapshots.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores the world RNG from a captured state. `None` means the
    /// state is not one a seeded generator can hold (corrupt snapshot).
    pub fn restore_rng_state(&mut self, state: [u64; 4]) -> Option<()> {
        self.rng = NebulaRng::from_state(state)?;
        Some(())
    }

    /// The injected fate of `device` in `round` under the current plan.
    pub fn fate(&self, round: u64, device: usize) -> DeviceFate {
        self.faults.fate(round, device)
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Advances one time slot: applies drift to every device's local data
    /// and refreshes the matching test sets.
    pub fn advance_slot(&mut self) {
        self.slot += 1;
        if let Some(drift) = self.drift.clone() {
            for dev in &mut self.devices {
                drift.step(&mut dev.partition, &self.synth, &mut dev.rng);
                dev.refresh_test(&self.synth);
            }
        }
        // Inner runtime dynamic: background process counts fluctuate.
        for dev in &mut self.devices {
            dev.resources.background_procs = dev.rng.below(4);
        }
    }

    /// Samples `k` distinct participant indices for a communication round.
    pub fn sample_participants(&mut self, k: usize) -> Vec<usize> {
        let k = k.min(self.devices.len());
        self.rng.sample_indices(self.devices.len(), k)
    }

    /// The cloud's proxy dataset (IID, canonical context).
    pub fn proxy(&mut self, n: usize) -> Dataset {
        self.synth.sample(n, 0, &mut self.rng)
    }

    /// The application-defined sub-task datasets for the cloud's module
    /// ability-enhancing training — one dataset per sub-task, matching the
    /// structure the partitioner/drift use:
    /// * label skew → one dataset per co-occurrence class group;
    /// * feature skew → one dataset per sensing context;
    /// * IID / Dirichlet → per-class-chunk groups as a generic default.
    pub fn subtask_datasets(&mut self, samples_per_task: usize) -> Vec<Dataset> {
        let classes = self.synth.spec().classes;
        match self.partition_spec.partitioner.clone() {
            Partitioner::LabelSkew { m } => {
                let groups = cooccurrence_groups(classes, m, self.group_seed);
                groups
                    .iter()
                    .map(|g| self.synth.sample_classes(samples_per_task, g, 0, &mut self.rng))
                    .collect()
            }
            Partitioner::FeatureSkew => {
                let contexts = self.synth.spec().contexts;
                (0..contexts).map(|ctx| self.synth.sample(samples_per_task, ctx, &mut self.rng)).collect()
            }
            Partitioner::Iid | Partitioner::Dirichlet { .. } | Partitioner::QuantitySkew { .. } => {
                let m = (classes / 4).max(1);
                let groups = cooccurrence_groups(classes, m, self.group_seed);
                groups
                    .iter()
                    .map(|g| self.synth.sample_classes(samples_per_task, g, 0, &mut self.rng))
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_data::drift::DriftKind;
    use nebula_data::SynthSpec;

    fn world(devices: usize, drift: bool) -> SimWorld {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let spec = PartitionSpec::new(devices, Partitioner::LabelSkew { m: 2 });
        let d = drift.then(|| DriftModel::new(0.5, DriftKind::ClassShift { m: 2, group_seed: 9 }));
        SimWorld::new(synth, spec, 9, d, &ResourceSampler::default(), 5)
    }

    #[test]
    fn world_builds_population() {
        let w = world(12, false);
        assert_eq!(w.num_devices(), 12);
        for dev in &w.devices {
            assert!(!dev.partition.data.is_empty());
            assert!(!dev.test.is_empty());
        }
    }

    #[test]
    fn advance_slot_applies_drift_and_refreshes_tests() {
        let mut w = world(6, true);
        let before: Vec<Vec<usize>> = w.devices.iter().map(|d| d.partition.classes.clone()).collect();
        for _ in 0..3 {
            w.advance_slot();
        }
        assert_eq!(w.slot, 3);
        // At least one device's sub-task should have moved after 3 slots of
        // full-group re-draws (2 groups; P(all 6 stay) ≈ 2^-18).
        let after: Vec<Vec<usize>> = w.devices.iter().map(|d| d.partition.classes.clone()).collect();
        assert_ne!(before, after, "drift changed nothing");
        // Test sets track the new classes.
        for dev in &w.devices {
            for &label in dev.test.labels() {
                assert!(dev.partition.classes.contains(&label));
            }
        }
    }

    #[test]
    fn participants_are_distinct_and_bounded() {
        let mut w = world(10, false);
        let p = w.sample_participants(25);
        assert_eq!(p.len(), 10); // clamped to population size
        let q = w.sample_participants(4);
        assert_eq!(q.len(), 4);
        let mut qq = q.clone();
        qq.sort_unstable();
        qq.dedup();
        assert_eq!(qq.len(), 4);
    }

    #[test]
    fn subtask_datasets_match_group_structure() {
        let mut w = world(4, false);
        let subtasks = w.subtask_datasets(40);
        // toy spec: 4 classes, m = 2 → 2 groups.
        assert_eq!(subtasks.len(), 2);
        let groups = cooccurrence_groups(4, 2, 9);
        for (g, st) in groups.iter().zip(&subtasks) {
            for &label in st.labels() {
                assert!(g.contains(&label));
            }
        }
    }

    #[test]
    fn testbed_has_ten_nanos_and_ten_pis() {
        use crate::resources::DeviceClass;
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let spec = PartitionSpec::new(20, Partitioner::LabelSkew { m: 2 });
        let w = SimWorld::testbed(synth, spec, 9, None, 5).expect("valid 20-device testbed spec");
        let nanos = w.devices.iter().filter(|d| d.resources.class == DeviceClass::MobileSoc).count();
        assert_eq!(nanos, 10);
        assert_eq!(w.num_devices(), 20);
        // Nanos are ~10× faster than Pis, as in the real hardware.
        let nano_speed = w.devices[0].resources.flops_per_sec;
        let pi_speed = w.devices[19].resources.flops_per_sec;
        assert!(nano_speed / pi_speed > 5.0);
    }

    #[test]
    fn testbed_rejects_wrong_population_size() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let spec = PartitionSpec::new(8, Partitioner::Iid);
        match SimWorld::testbed(synth, spec, 9, None, 5) {
            Err(RunError::InvalidConfig(msg)) => {
                assert!(msg.contains("20 devices"), "unhelpful error: {msg}");
                assert!(msg.contains('8'), "error should name the bad count: {msg}");
            }
            Err(e) => panic!("wrong error variant: {e}"),
            Ok(_) => panic!("8-device testbed spec must be rejected"),
        }
    }

    #[test]
    fn background_procs_fluctuate_over_slots() {
        let mut w = world(20, false);
        w.advance_slot();
        let any_busy = w.devices.iter().any(|d| d.resources.background_procs > 0);
        assert!(any_busy, "no device picked up background load");
    }
}

//! The four paper-scale workloads and the settings they share.
//!
//! Every workload simulates 100 devices with 25 sampled per round, 3
//! local epochs at batch 16, one collaborative round per adaptation step,
//! an 8-epoch offline pre-train on 2000 proxy samples and a 5-device
//! evaluation cohort.
//!
//! The population — hardware, data partition, participant schedule — and
//! the hostile workload's fault plan are fixed inputs: they decide how
//! much work a round is (sub-model sizes, data volumes, lost jobs), and
//! the benchmark's contract compares runs *across* seeds. `--seed` seeds
//! what may vary without changing the amount of work: model
//! initialisation, every training stream (batch order) and the harness
//! RNG. One seed is still one exact trajectory.

use nebula_core::{modular_config_for, RobustAggregator, WireConfig};
use nebula_data::{PartitionSpec, Partitioner, Synthesizer, TaskPreset};
use nebula_sim::strategy::StrategyConfig;
use nebula_sim::{FaultPlan, ResourceSampler, RoundPolicy, SimWorld};

pub const DEVICES: usize = 100;
pub const DEVICES_PER_ROUND: usize = 25;
pub const EVAL_DEVICES: usize = 5;
/// Adaptation rounds run before the measured window opens.
pub const WARMUP_ROUNDS: usize = 2;
/// The serving deployment: worker threads × executor threads each.
pub const SERVE_WORKERS: usize = 2;
pub const SERVE_EXECUTORS: usize = 1;
/// Seed of the fixed population and fault plan (see the module docs).
pub const POPULATION_SEED: u64 = 0x4E45_4255;
/// Master key of the serving deployment (frames, handshake, payloads).
pub const AUTH_KEY: [u8; 16] = *b"nebula-benchmark";

/// Which adaptation system a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    Nebula,
    FedAvg,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why this workload exists; must equal the `why` in BENCHMARK.json.
    pub why: &'static str,
    pub system: System,
    pub task: TaskPreset,
    /// Quantising codec + trimmed mean + deadline + seeded fault plan.
    pub hostile: bool,
    /// Real coordinator on a Unix socket, authenticated frames, journal
    /// and snapshots on the real filesystem.
    pub served: bool,
    /// Adaptation rounds this host completes per second, which sizes the
    /// fixed round count of a run from `--seconds`.
    pub nominal_rounds_per_s: f64,
    /// Rounds each phase of a traced run replays.
    pub trace_rounds: usize,
    /// `accuracy_final` below this fails the output check: 0.05 under the
    /// value observed at seed 1 and the default run length (seeds 1..=10
    /// all read within 0.015 of it).
    pub accuracy_floor: f32,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "c10_sim",
        why: "Nebula on the CIFAR-10/ResNet18 preset (4x16 modules), label skew m=2, in-process, Raw codec, no faults: the paper's main simulation; tensor/nn/modular and core::edge do most of the work",
        system: System::Nebula,
        task: TaskPreset::Cifar10,
        hostile: false,
        served: false,
        nominal_rounds_per_s: 1.0,
        trace_rounds: 4,
        accuracy_floor: 0.922,
    },
    Workload {
        name: "har_serve",
        why: "Nebula on the HAR/MLP preset through a real coordinator on a Unix socket, 2 workers, authenticated frames, journal and snapshots on disk: small model, so serve, wire MAC+CRC and fsync weigh most",
        system: System::Nebula,
        task: TaskPreset::Har,
        hostile: false,
        served: true,
        nominal_rounds_per_s: 6.0,
        trace_rounds: 12,
        accuracy_floor: 0.930,
    },
    Workload {
        name: "c10_int8_faulty",
        why: "c10_sim's model with the int8 codec, trimmed-mean aggregation, a round deadline and a fault plan: quantising encode, sorting aggregate and retry/reject paths that a Raw/weighted-mean fast path skips",
        system: System::Nebula,
        task: TaskPreset::Cifar10,
        hostile: true,
        served: false,
        nominal_rounds_per_s: 1.1,
        trace_rounds: 4,
        accuracy_floor: 0.918,
    },
    Workload {
        name: "har_fedavg",
        why: "FedAvg dense baseline on the HAR preset, in-process, Raw, no faults: runs none of the modular, knapsack or module-wise aggregation code, so optimisations there must read no change here",
        system: System::FedAvg,
        task: TaskPreset::Har,
        hostile: false,
        served: false,
        nominal_rounds_per_s: 3.8,
        trace_rounds: 8,
        accuracy_floor: 0.936,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Adaptation rounds of a run: a fixed count (so byte and accuracy
    /// figures repeat exactly for a seed) sized to fill `seconds` on the
    /// reference host after the warm-up rounds.
    pub fn rounds(&self, seconds: u64) -> usize {
        WARMUP_ROUNDS + ((seconds as f64 * self.nominal_rounds_per_s).ceil() as usize).max(2)
    }

    fn partitioner(&self) -> Partitioner {
        match self.task {
            TaskPreset::Har => Partitioner::FeatureSkew,
            _ => Partitioner::LabelSkew { m: 2 },
        }
    }

    /// The simulated population; `faults` arms the hostile workload's
    /// fault plan and deadline (traced replays leave them off).
    pub fn world(&self, faults: bool) -> SimWorld {
        let seed = POPULATION_SEED;
        let synth = Synthesizer::new(self.task.synth_spec(), seed);
        let spec = PartitionSpec::new(DEVICES, self.partitioner());
        let mut world =
            SimWorld::new(synth, spec, seed ^ 0x6E0, None, &ResourceSampler::default(), seed ^ 0x5EED);
        if self.hostile && faults {
            world.set_fault_plan(FaultPlan {
                seed: seed ^ 0xFA17,
                dropout_prob: 0.10,
                crash_prob: 0.05,
                straggler_prob: 0.10,
                straggler_slowdown: 4.0,
                link_flake_prob: 0.10,
                bandwidth_collapse: 4.0,
                corrupt_prob: 0.05,
                frame_corrupt_prob: 0.10,
                ..FaultPlan::none()
            });
            world.set_round_policy(RoundPolicy { deadline_factor: Some(3.0), ..RoundPolicy::default() });
        }
        world
    }

    pub fn wire(&self) -> WireConfig {
        if self.hostile {
            WireConfig::int8()
        } else if self.served {
            WireConfig::raw().with_auth(AUTH_KEY)
        } else {
            WireConfig::raw()
        }
    }

    pub fn aggregator(&self) -> RobustAggregator {
        if self.hostile {
            RobustAggregator::TrimmedMean { frac: 0.1 }
        } else {
            RobustAggregator::WeightedMean
        }
    }

    pub fn strategy_config(&self) -> StrategyConfig {
        let mut cfg = StrategyConfig::new(modular_config_for(self.task));
        cfg.devices_per_round = DEVICES_PER_ROUND;
        cfg.rounds_per_step = 1;
        cfg.local_epochs = 3;
        cfg.batch_size = 16;
        cfg.pretrain_epochs = 8;
        cfg.proxy_samples = 2000;
        cfg.wire = self.wire();
        cfg.aggregator = self.aggregator();
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_count_is_fixed_by_seconds() {
        let w = find("c10_sim").unwrap();
        assert_eq!(w.rounds(10), WARMUP_ROUNDS + 10);
        assert_eq!(w.rounds(1), WARMUP_ROUNDS + 2);
        assert!(find("har_serve").unwrap().rounds(10) > w.rounds(10));
        assert!(find("nope").is_none());
    }
}

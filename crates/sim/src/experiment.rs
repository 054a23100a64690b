//! Experiment drivers shared by the bench binaries.
//!
//! Three shapes cover the paper's evaluation:
//! * [`run_adaptation_step`] — Table 1 / Figs 8–9: offline pre-train, one
//!   adaptation step, per-device evaluation;
//! * `Runner::target(..)` — Fig. 7: communication rounds until a target
//!   accuracy (comm bytes at target);
//! * `Runner::continuous(..)` — Figs 10–11: many drift slots, accuracy per
//!   slot ([`crate::runner::Runner`] is the single driver for both; the
//!   deprecated free-function wrappers were removed after one release).

use crate::faults::RoundReport;
use crate::network::CommTracker;
use crate::strategy::AdaptStrategy;
use crate::world::SimWorld;
use nebula_tensor::NebulaRng;
use serde::Serialize;

/// Shared experiment-scale knobs.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Devices evaluated per measurement.
    pub eval_devices: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self { eval_devices: 20, seed: 1 }
    }
}

/// What one adaptation-step experiment produced.
#[derive(Clone, Debug, Serialize)]
pub struct AdaptationOutcome {
    pub strategy: String,
    /// Mean per-device accuracy before the adaptation step (pre-trained
    /// model only).
    pub accuracy_before: f32,
    /// Mean per-device accuracy after the step.
    pub accuracy_after: f32,
    /// Communication during the step.
    #[serde(skip)]
    pub comm: CommTracker,
    pub comm_total_bytes: u64,
    /// Mean on-device adaptation time, ms.
    pub adapt_time_ms: f64,
    /// Mean footprint across evaluated devices.
    pub mean_params: f64,
    pub mean_train_mem_bytes: f64,
    /// Robustness accounting summed over the step's rounds.
    pub faults: RoundReport,
}

/// Offline pre-train, one adaptation step, evaluate `eval_devices`.
pub fn run_adaptation_step(
    strategy: &mut dyn AdaptStrategy,
    world: &mut SimWorld,
    cfg: &ExperimentConfig,
) -> AdaptationOutcome {
    let mut rng = NebulaRng::seed(cfg.seed ^ 0x57EB);
    let eval_ids: Vec<usize> = pick_eval_ids(world, cfg.eval_devices);
    strategy.track(&eval_ids);
    strategy.offline(world, &mut rng);

    let before = mean_accuracy(strategy, world, &eval_ids);
    let report = strategy.adaptation_step(world, &mut rng);
    let after = mean_accuracy(strategy, world, &eval_ids);

    let (mut params, mut mem) = (0.0f64, 0.0f64);
    for &id in &eval_ids {
        let fp = strategy.footprint(world, id);
        params += fp.params as f64;
        mem += fp.train_mem_bytes as f64;
    }
    let n = eval_ids.len().max(1) as f64;

    AdaptationOutcome {
        strategy: strategy.name().to_string(),
        accuracy_before: before,
        accuracy_after: after,
        comm: report.comm,
        comm_total_bytes: report.comm.total_bytes(),
        adapt_time_ms: report.adapt_time_ms,
        mean_params: params / n,
        mean_train_mem_bytes: mem / n,
        faults: report.faults,
    }
}

/// Evenly-spaced evaluation devices (stable across strategies so every
/// system sees the same local tasks).
pub fn pick_eval_ids(world: &SimWorld, n: usize) -> Vec<usize> {
    let total = world.num_devices();
    let n = n.min(total);
    (0..n).map(|i| i * total / n).collect()
}

/// Mean tracked-device accuracy.
pub fn mean_accuracy(strategy: &mut dyn AdaptStrategy, world: &mut SimWorld, ids: &[usize]) -> f32 {
    let mut sum = 0.0;
    for &id in ids {
        sum += strategy.device_accuracy(world, id);
    }
    sum / ids.len().max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::RunError;
    use crate::resources::ResourceSampler;
    use crate::runner::Runner;
    use crate::strategy::{NebulaStrategy, NoAdaptStrategy, StrategyConfig};
    use nebula_data::drift::DriftKind;
    use nebula_data::{DriftModel, PartitionSpec, Partitioner, SynthSpec, Synthesizer};
    use nebula_modular::ModularConfig;

    fn toy_world(drift: bool) -> SimWorld {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let spec = PartitionSpec::new(8, Partitioner::LabelSkew { m: 2 });
        let d = drift.then(|| DriftModel::new(0.5, DriftKind::ClassShift { m: 2, group_seed: 9 }));
        SimWorld::new(synth, spec, 9, d, &ResourceSampler::default(), 5)
    }

    fn toy_cfg() -> StrategyConfig {
        let mut modular = ModularConfig::toy(16, 4);
        modular.gate_noise_std = 0.3;
        let mut cfg = StrategyConfig::new(modular);
        cfg.devices_per_round = 4;
        cfg.rounds_per_step = 2;
        cfg.pretrain_epochs = 6;
        cfg.proxy_samples = 300;
        cfg
    }

    #[test]
    fn eval_ids_are_stable_and_distinct() {
        let world = toy_world(false);
        let ids = pick_eval_ids(&world, 4);
        assert_eq!(ids, pick_eval_ids(&world, 4));
        let mut sorted = ids.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn adaptation_step_outcome_is_sane() {
        let mut world = toy_world(false);
        let mut s = NebulaStrategy::new(toy_cfg(), 1);
        let cfg = ExperimentConfig { eval_devices: 3, seed: 1 };
        let out = run_adaptation_step(&mut s, &mut world, &cfg);
        assert!(out.accuracy_after > 0.3, "accuracy {out:?}");
        assert!(out.comm_total_bytes > 0);
        assert!(out.mean_params > 0.0);
    }

    #[test]
    fn no_adapt_step_has_no_comm() {
        let mut world = toy_world(false);
        let mut s = NoAdaptStrategy::new(toy_cfg(), 1);
        let cfg = ExperimentConfig { eval_devices: 3, seed: 1 };
        let out = run_adaptation_step(&mut s, &mut world, &cfg);
        assert_eq!(out.comm_total_bytes, 0);
        // NA's accuracy does not change across the step.
        nebula_tensor::assert_close(out.accuracy_before, out.accuracy_after, 1e-6);
    }

    #[test]
    fn continuous_run_covers_all_slots() {
        let mut world = toy_world(true);
        let mut s = NoAdaptStrategy::new(toy_cfg(), 1);
        let cfg = ExperimentConfig { eval_devices: 2, seed: 2 };
        let out = Runner::new(&mut world, &mut s).config(cfg).continuous(4).run().expect("valid config");
        assert_eq!(out.accuracy_per_slot.len(), 4);
        assert!(out.accuracy_per_slot.iter().all(|a| (0.0..=1.0).contains(a)));
    }

    #[test]
    fn invalid_configs_are_structured_errors_not_panics() {
        let mut world = toy_world(false);
        let mut s = NoAdaptStrategy::new(toy_cfg(), 1);
        let no_eval = ExperimentConfig { eval_devices: 0, seed: 1 };
        assert!(matches!(
            Runner::new(&mut world, &mut s).config(no_eval).continuous(2).run(),
            Err(RunError::InvalidConfig(_))
        ));
        let cfg = ExperimentConfig { eval_devices: 2, seed: 1 };
        assert!(matches!(
            Runner::new(&mut world, &mut s).config(cfg).target(f32::NAN, 3, 1).run(),
            Err(RunError::InvalidConfig(_))
        ));
        assert!(matches!(
            Runner::new(&mut world, &mut s).config(cfg).target(0.9, 3, 0).run(),
            Err(RunError::InvalidConfig(_))
        ));
        // A Runner without a mode is itself an invalid configuration.
        assert!(matches!(Runner::new(&mut world, &mut s).config(cfg).run(), Err(RunError::InvalidConfig(_))));
    }

    #[test]
    fn until_target_stops_at_max_rounds() {
        let mut world = toy_world(false);
        let mut cfg_s = toy_cfg();
        cfg_s.rounds_per_step = 1;
        let mut s = NoAdaptStrategy::new(cfg_s, 1);
        let cfg = ExperimentConfig { eval_devices: 2, seed: 3 };
        // NA never reaches 1.01 accuracy → must stop at max_rounds.
        let out = Runner::new(&mut world, &mut s).config(cfg).target(1.01, 3, 1).run().expect("valid config");
        assert!(!out.reached);
        assert_eq!(out.rounds, 3);
    }
}

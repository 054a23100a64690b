//! **Figure 1** — the motivation study: impact of dynamic edge
//! environments.
//!
//! * (a) on-device accuracy per time slot under data drift (30% of local
//!   data replaced per slot) for four approaches: static cloud model,
//!   static edge model, locally-updated edge model, and edge model
//!   updated collaboratively across devices;
//! * (b) inference latency vs number of co-running processes for two
//!   mobile-CNN cost profiles (the paper uses MobileNetV2/ShuffleNetV2).

use crate::{Ctx, TaskRow};
use nebula_data::TaskPreset;
use nebula_sim::contention::contention_multiplier;
use nebula_sim::experiment::ExperimentConfig;
use nebula_sim::strategy::AdaptStrategy;
use nebula_sim::{
    AdaptiveNetStrategy, FedAvgStrategy, LocalAdaptStrategy, NoAdaptStrategy, RoundStats, Runner, SimWorld,
};
use nebula_tensor::NebulaRng;
use serde_json::Value;

/// A frozen AdaptiveNet branch: picks a branch per device but never
/// adapts — the paper's "static edge model".
struct StaticEdge(AdaptiveNetStrategy);

impl AdaptStrategy for StaticEdge {
    fn name(&self) -> &'static str {
        "Static edge model"
    }
    fn offline(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) {
        self.0.offline(world, rng);
    }
    fn track(&mut self, ids: &[usize]) {
        self.0.track(ids);
    }
    fn adaptation_step(&mut self, _world: &mut SimWorld, _rng: &mut NebulaRng) -> RoundStats {
        RoundStats::default() // frozen: never adapts
    }
    fn device_accuracy(&mut self, world: &mut SimWorld, id: usize) -> f32 {
        self.0.device_accuracy(world, id)
    }
    fn footprint(&self, world: &SimWorld, id: usize) -> nebula_sim::strategy::Footprint {
        self.0.footprint(world, id)
    }
}

pub fn run(ctx: &Ctx) -> Vec<Value> {
    let (scale, seed) = (ctx.scale, ctx.seed);
    let slots = if ctx.quick { 4 } else { 8 };
    let row = TaskRow { task: TaskPreset::Cifar100, skew_m: Some(10) };
    let mut rows = Vec::new();

    // ---- (a) accuracy per slot under drift --------------------------------
    let mut cfg = row.strategy_config(scale);
    cfg.rounds_per_step = 2; // light collaboration per slot
    let strategies: Vec<Box<dyn AdaptStrategy>> = vec![
        Box::new(NoAdaptStrategy::new(cfg.clone(), seed)),
        Box::new(StaticEdge(AdaptiveNetStrategy::new(cfg.clone(), seed))),
        Box::new(LocalAdaptStrategy::new(cfg.clone(), seed)),
        Box::new(FedAvgStrategy::new(cfg.clone(), seed)),
    ];
    let names = [
        "Static cloud model",
        "Static edge model",
        "Updated edge model (individual)",
        "Updated edge model (collaborative)",
    ];
    for (mut s, name) in strategies.into_iter().zip(names) {
        let mut world = row.world(scale, Some(0.3), seed);
        let out = Runner::new(&mut world, s.as_mut())
            .config(ExperimentConfig { eval_devices: scale.eval_devices.min(6), seed })
            .continuous(slots)
            .run()
            .expect("continuous run config is valid");
        for (slot, acc) in out.accuracy_per_slot.iter().enumerate() {
            rows.push(
                row! { "panel" => "a_drift", "series" => name, "x" => (slot + 1) as f64, "y" => *acc as f64 },
            );
        }
    }

    // ---- (b) contention ---------------------------------------------------
    // MobileNetV2 (~300 M MACs) and ShuffleNetV2 (~146 M MACs) profiles on
    // a Jetson-class device.
    let device_flops_per_sec = 5.4e9;
    for (model, flops) in [("MobileNetV2", 300_000_000u64), ("ShuffleNetV2", 146_000_000u64)] {
        for procs in 0..4usize {
            let ms = flops as f64 / device_flops_per_sec * 1e3 * contention_multiplier(procs);
            rows.push(
                row! { "panel" => "b_contention", "series" => model, "x" => (procs + 1) as f64, "y" => ms },
            );
        }
    }
    rows
}

//! **Figures 10 & 11** — continuous adaptation over many time slots.
//!
//! Each adaptation step replaces 50% of every device's local data with
//! data from a new environment (class-group or context shift). Five
//! systems are compared on each task: No Adaptation, Local Adaptation,
//! Nebula w/o local training, Nebula w/o cloud, and full Nebula.
//! Fig. 10 is the per-slot accuracy series; Fig. 11 summarises the mean
//! adaptation accuracy and the mean per-step adaptation time.

use crate::{Ctx, TaskRow};
use nebula_data::TaskPreset;
use nebula_sim::experiment::ExperimentConfig;
use nebula_sim::{AdaptStrategy, LocalAdaptStrategy, NebulaStrategy, NebulaVariant, NoAdaptStrategy, Runner};
use serde_json::Value;

pub fn run(ctx: &Ctx) -> Vec<Value> {
    let (scale, seed) = (ctx.scale, ctx.seed);
    let slots = if ctx.quick { 6 } else { 12 };
    let mut rows = Vec::new();
    for row in [
        TaskRow { task: TaskPreset::Har, skew_m: None },
        TaskRow { task: TaskPreset::Cifar10, skew_m: Some(2) },
        TaskRow { task: TaskPreset::Cifar100, skew_m: Some(10) },
        TaskRow { task: TaskPreset::SpeechCommands, skew_m: Some(5) },
    ] {
        let mut cfg = row.strategy_config(scale);
        // Continuous mode: light collaboration per slot, smaller rounds.
        cfg.rounds_per_step = 2;
        cfg.devices_per_round = 10;

        let strategies: Vec<Box<dyn AdaptStrategy>> = vec![
            Box::new(NoAdaptStrategy::new(cfg.clone(), seed)),
            Box::new(LocalAdaptStrategy::new(cfg.clone(), seed)),
            Box::new(NebulaStrategy::with_variant(cfg.clone(), seed, NebulaVariant::NoLocalTraining)),
            Box::new(NebulaStrategy::with_variant(cfg.clone(), seed, NebulaVariant::NoCloud)),
            Box::new(NebulaStrategy::with_variant(cfg.clone(), seed, NebulaVariant::Full)),
        ];
        for mut s in strategies {
            let mut world = row.world(scale, Some(0.5), seed);
            let out = Runner::new(&mut world, s.as_mut())
                .config(ExperimentConfig { eval_devices: 2, seed })
                .continuous(slots)
                .run()
                .expect("continuous run config is valid");
            let mean = out.accuracy_per_slot.iter().sum::<f32>() / out.accuracy_per_slot.len().max(1) as f32;
            rows.push(row! {
                "task" => row.task.name(),
                "strategy" => out.strategy,
                "mean_accuracy" => mean,
                "mean_adapt_time_ms" => out.mean_adapt_time_ms,
                "accuracy_per_slot" => out.accuracy_per_slot,
            });
        }
    }
    rows
}

//! **Table 1** — model accuracy of Nebula and the baselines after one
//! adaptation step, over the paper's seven task rows.
//!
//! Protocol (paper §6.2): 30% of the data acts as the cloud proxy for
//! pre-training (our synthesiser generates the proxy directly), the rest
//! is distributed to devices as newly-collected data; collaborative
//! methods run `rounds_per_step` rounds of 25 devices × 3 local epochs;
//! on-device methods fine-tune 10 epochs; accuracy is the mean per-device
//! top-1 on local test sets.

use crate::{Ctx, TaskRow};
use nebula_sim::experiment::{run_adaptation_step, ExperimentConfig};
use nebula_sim::{
    AdaptStrategy, AdaptiveNetStrategy, FedAvgStrategy, HeteroFlStrategy, LocalAdaptStrategy, NebulaStrategy,
    NoAdaptStrategy,
};
use serde_json::Value;

pub fn run(ctx: &Ctx) -> Vec<Value> {
    let (scale, seed) = (ctx.scale, ctx.seed);
    let mut rows = Vec::new();
    for row in TaskRow::table1_rows() {
        let cfg = row.strategy_config(scale);
        let strategies: Vec<Box<dyn AdaptStrategy>> = vec![
            Box::new(NoAdaptStrategy::new(cfg.clone(), seed)),
            Box::new(LocalAdaptStrategy::new(cfg.clone(), seed)),
            Box::new(AdaptiveNetStrategy::new(cfg.clone(), seed)),
            Box::new(FedAvgStrategy::new(cfg.clone(), seed)),
            Box::new(HeteroFlStrategy::new(cfg.clone(), seed)),
            Box::new(NebulaStrategy::new(cfg.clone(), seed)),
        ];
        for mut s in strategies {
            // Fresh world per strategy: every system sees the same device
            // population (same seeds) and adapts from its own pre-training.
            let mut world = row.world(scale, None, seed);
            let out = run_adaptation_step(
                s.as_mut(),
                &mut world,
                &ExperimentConfig { eval_devices: scale.eval_devices, seed },
            );
            rows.push(row! {
                "task" => row.task.name(),
                "model" => row.task.model_name(),
                "partition" => row.partition_label(),
                "strategy" => out.strategy,
                "accuracy" => out.accuracy_after * 100.0,
                "comm_bytes" => out.comm_total_bytes,
            });
        }
    }
    rows
}

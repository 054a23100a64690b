//! **Figure 13** — sensitivity analysis.
//!
//! * (a) accuracy vs maximum sub-model size ratio (0.2–0.5) on the
//!   CIFAR-10 (m=2, m=5) and CIFAR-100 (m=10, m=20) rows;
//! * (b) accuracy vs module granularity (8/16/32/64 modules per layer at
//!   constant total capacity) on CIFAR-100, for the ResNet18-shaped and
//!   VGG16-shaped configurations;
//! * (c) adaptation time to a target accuracy vs number of participating
//!   devices per round (20–80), FedAvg vs Nebula.

use crate::{Ctx, TaskRow};
use nebula_core::{modular_config_for, EdgeClient, NebulaCloud, NebulaParams, ResourceProfile};
use nebula_data::TaskPreset;
use nebula_modular::cost::CostModel;
use nebula_modular::ModularConfig;
use nebula_nn::Layer;
use nebula_sim::experiment::{mean_accuracy, pick_eval_ids};
use nebula_sim::latency::adaptation_latency_ms;
use nebula_sim::network::transfer_time_ms;
use nebula_sim::strategy::{AdaptStrategy, StrategyConfig};
use nebula_sim::{FedAvgStrategy, NebulaStrategy, SimWorld};
use nebula_tensor::NebulaRng;
use serde_json::Value;

/// Mean tracked-device accuracy when every device derives at budget
/// `ratio` of the full model and fine-tunes locally.
fn accuracy_at_ratio(
    cloud: &NebulaCloud,
    world: &mut SimWorld,
    eval_ids: &[usize],
    ratio: f64,
    cfg: &StrategyConfig,
    rng: &mut NebulaRng,
) -> f32 {
    let cost = CostModel::new(cfg.modular.clone());
    let full = cost.full_model();
    let profile = ResourceProfile {
        mem_bytes: (full.training_mem_bytes as f64 * ratio) as u64,
        flops: (full.flops as f64 * ratio) as u64,
        comm_bytes: (full.comm_bytes as f64 * ratio) as u64,
    };
    let mut sum = 0.0;
    for &id in eval_ids {
        let (local, test);
        {
            let d = &world.devices[id];
            local = d.partition.data.clone();
            test = d.test.clone();
        }
        // Deriving needs &mut for the selector forward; clone the model.
        let mut model = cloud.model().deep_clone();
        let importance = model.importance(local.features());
        let outcome = cloud.derive_for_importance(&importance, &profile, None);
        let payload = cloud.dispatch(&outcome.spec);
        let mut client = EdgeClient::from_payload(cfg.modular.clone(), &payload);
        client.adapt(&local, cfg.local_epochs, cfg.batch_size, cfg.local_lr, rng);
        sum += client.accuracy(&test);
    }
    sum / eval_ids.len().max(1) as f32
}

/// Pre-trains a `modular` cloud on `row`'s proxy and enhances it on its
/// sub-tasks, then derives and fine-tunes at each budget `ratio` for up to
/// `eval` tracked devices: their mean accuracy per ratio.
fn accuracies(ctx: &Ctx, row: TaskRow, modular: ModularConfig, eval: usize, ratios: &[f64]) -> Vec<f32> {
    let mut world = row.world(ctx.scale, None, ctx.seed);
    let mut rng = NebulaRng::seed(ctx.seed);
    let mut params = NebulaParams::default();
    params.pretrain.epochs = ctx.scale.pretrain_epochs;
    let mut cloud = NebulaCloud::new(modular.clone(), params, ctx.seed);
    let proxy = world.proxy(ctx.scale.proxy_samples);
    cloud.pretrain(&proxy, &mut rng);
    let subtasks = world.subtask_datasets(200);
    cloud.enhance(&subtasks, &mut rng);

    let mut cfg = row.strategy_config(ctx.scale);
    cfg.modular = modular;
    let eval_ids = pick_eval_ids(&world, ctx.scale.eval_devices.min(eval));
    ratios.iter().map(|&r| accuracy_at_ratio(&cloud, &mut world, &eval_ids, r, &cfg, &mut rng)).collect()
}

fn panel_a(ctx: &Ctx, rows: &mut Vec<Value>) {
    for row in [
        TaskRow { task: TaskPreset::Cifar10, skew_m: Some(2) },
        TaskRow { task: TaskPreset::Cifar10, skew_m: Some(5) },
        TaskRow { task: TaskPreset::Cifar100, skew_m: Some(10) },
        TaskRow { task: TaskPreset::Cifar100, skew_m: Some(20) },
    ] {
        // Offline once, then evaluate at each ratio from the same cloud.
        let ratios = [0.2f64, 0.3, 0.4, 0.5];
        let accs = accuracies(ctx, row, modular_config_for(row.task), 8, &ratios);
        let series = format!("{}, {}", row.task.name(), row.partition_label());
        for (ratio, acc) in ratios.into_iter().zip(accs) {
            rows.push(
                row! { "panel" => "a_size_ratio", "series" => series, "x" => ratio, "y" => acc as f64 },
            );
        }
    }
}

fn panel_b(ctx: &Ctx, rows: &mut Vec<Value>) {
    for (shape, layers) in [("ResNet18-shaped", 4usize), ("VGG16-shaped", 3usize)] {
        let base = modular_config_for(TaskPreset::Cifar100);
        let capacity = 32 * base.module_hidden; // total hidden units per layer
        for n_modules in [8usize, 16, 32, 64] {
            let mut mcfg = base.clone();
            mcfg.num_layers = layers;
            mcfg.modules_per_layer = n_modules;
            mcfg.module_hidden = (capacity / n_modules).max(4);
            mcfg.top_k = (n_modules / 5).max(2);
            let row = TaskRow { task: TaskPreset::Cifar100, skew_m: Some(10) };
            let acc = accuracies(ctx, row, mcfg, 6, &[0.4])[0];
            rows.push(row! { "panel" => "b_granularity", "series" => shape, "x" => n_modules as f64, "y" => acc as f64 });
        }
    }
}

fn panel_c(ctx: &Ctx, rows: &mut Vec<Value>) {
    // Each system adapts to a 70% environment shift round by round; we
    // report the simulated wall-clock until it reaches 98% of its *own*
    // converged accuracy (self-relative, as in Fig. 7 — FA's global-eval
    // and Nebula's personalized-eval plateaus are not comparable).
    let scale = ctx.scale;
    let row = TaskRow { task: TaskPreset::Cifar10, skew_m: Some(5) };
    let max_rounds = scale.rounds_per_step + scale.rounds_per_step / 2;

    for participants in [20usize, 40, 60, 80] {
        for is_nebula in [false, true] {
            let mut cfg = row.strategy_config(scale);
            cfg.rounds_per_step = 1;
            cfg.devices_per_round = participants;
            let mut world = row.world(scale, Some(0.7), ctx.seed);
            let mut rng = NebulaRng::seed(ctx.seed ^ 0xC13);
            let mut s: Box<dyn AdaptStrategy> = if is_nebula {
                Box::new(NebulaStrategy::new(cfg.clone(), ctx.seed))
            } else {
                Box::new(FedAvgStrategy::new(cfg.clone(), ctx.seed))
            };
            let eval_ids = pick_eval_ids(&world, scale.eval_devices);
            s.track(&eval_ids);
            s.offline(&mut world, &mut rng);
            world.advance_slot();

            let mut trajectory = Vec::with_capacity(max_rounds);
            for _ in 0..max_rounds {
                s.adaptation_step(&mut world, &mut rng);
                trajectory.push(mean_accuracy(s.as_mut(), &mut world, &eval_ids));
            }
            let converged = trajectory.iter().copied().fold(0.0f32, f32::max);
            let target = converged * 0.98;
            let rounds = trajectory.iter().position(|&a| a >= target).map_or(max_rounds, |i| i + 1);

            // Simulated wall-clock per round: participants run in
            // parallel, so a round costs one device's local training plus
            // its transfers.
            let dev = &world.devices[0];
            let flops = if is_nebula {
                CostModel::new(cfg.modular.clone()).full_model().flops / 3 // typical sub-model
            } else {
                cfg.dense_model(1).param_count() as u64
            };
            let bytes = 2 * flops * 4; // down + up ≈ 2 × params ≈ 2 × flops
            let round_ms =
                adaptation_latency_ms(&dev.resources, flops, dev.volume(), cfg.local_epochs, cfg.batch_size)
                    + transfer_time_ms(bytes, dev.resources.bandwidth_bps);
            rows.push(row! {
                "panel" => "c_participants",
                "series" => if is_nebula { "Nebula" } else { "FedAvg" },
                "x" => participants as f64,
                "y" => rounds as f64 * round_ms / 1e3,
            });
        }
    }
}

pub fn run(ctx: &Ctx) -> Vec<Value> {
    let mut rows = Vec::new();
    panel_a(ctx, &mut rows);
    panel_b(ctx, &mut rows);
    panel_c(ctx, &mut rows);
    rows
}

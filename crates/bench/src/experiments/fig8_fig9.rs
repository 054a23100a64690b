//! **Figures 8 & 9** — memory footprint and per-batch training latency
//! during model adaptation, on a Jetson-class and a Pi-class device, for:
//! the full model (FedAvg), HeteroFL's width-scaled sub-model, and
//! Nebula's derived sub-models under the two data partitions (m1 / m2).
//!
//! Memory and latency are cost-model quantities (the paper measures them
//! on hardware); no training is needed, so this experiment is fast and
//! the same under every campaign seed. The parameter footprint is both:
//! `params` is what the cost model budgets, `held_params` is what an
//! instantiated client reports from `param_count()` — for Nebula an
//! [`EdgeClient`] built from the dispatched payload, which holds its
//! sub-model and nothing else. Latency is priced from the held count where
//! one exists.

use crate::{Ctx, Scale, TaskRow};
use nebula_baselines::ratio_for_budget;
use nebula_core::{
    derive_submodel, modular_config_for, EdgeClient, NebulaCloud, NebulaParams, ResourceProfile,
};
use nebula_data::TaskPreset;
use nebula_modular::cost::CostModel;
use nebula_modular::SubModelSpec;
use nebula_nn::Layer;
use nebula_sim::latency::training_batch_latency_ms;
use nebula_sim::{DeviceClass, DeviceResources};
use serde_json::Value;

fn device(class: DeviceClass) -> DeviceResources {
    match class {
        DeviceClass::MobileSoc => DeviceResources {
            class,
            ram_bytes: 4_000_000_000,
            flops_per_sec: 5.4e9,
            bandwidth_bps: 2e7,
            budget_ratio: 0.5,
            background_procs: 0,
        },
        DeviceClass::Iot => DeviceResources {
            class,
            ram_bytes: 2_000_000_000,
            flops_per_sec: 5.4e8,
            bandwidth_bps: 2e7,
            budget_ratio: 0.2,
            background_procs: 0,
        },
    }
}

pub fn run(_: &Ctx) -> Vec<Value> {
    let mut rows = Vec::new();
    for row in [
        TaskRow { task: TaskPreset::Har, skew_m: None },
        TaskRow { task: TaskPreset::Cifar10, skew_m: Some(2) },
        TaskRow { task: TaskPreset::Cifar100, skew_m: Some(10) },
        TaskRow { task: TaskPreset::SpeechCommands, skew_m: Some(5) },
    ] {
        let mcfg = modular_config_for(row.task);
        let cost = CostModel::new(mcfg.clone());
        let full_mod = cost.full_model();
        let cloud = NebulaCloud::new(mcfg.clone(), NebulaParams::default(), 1);
        let held_by_client = |spec: &SubModelSpec| {
            let mut client = EdgeClient::from_payload(mcfg.clone(), &cloud.dispatch(spec));
            client.model_mut().param_count() as u64
        };

        // Dense full model (FedAvg / LA reference).
        let scfg = row.strategy_config(Scale::quick());
        let dense = scfg.dense_model(1);
        let dense_params = dense.param_count() as u64;

        // The two Nebula partitions: m1/m2 drive different importance
        // concentration, which we approximate with the knapsack under the
        // device budget at two cap levels (m1 = tighter sub-task → fewer
        // modules suffice).
        for dev_class in [DeviceClass::MobileSoc, DeviceClass::Iot] {
            let dev = device(dev_class);
            let budget = ResourceProfile {
                mem_bytes: (full_mod.training_mem_bytes as f64 * dev.budget_ratio as f64) as u64,
                flops: (full_mod.flops as f64 * dev.budget_ratio as f64) as u64,
                comm_bytes: (full_mod.comm_bytes as f64 * dev.budget_ratio as f64) as u64,
            };
            let uniform =
                vec![vec![1.0 / mcfg.modules_per_layer as f32; mcfg.modules_per_layer]; mcfg.num_layers];
            let m1_cap = (mcfg.modules_per_layer / 4).max(2);
            let m2_cap = (mcfg.modules_per_layer / 2).max(3);
            let m1_spec = derive_submodel(&cost, &uniform, &budget, Some(m1_cap)).spec;
            let m2_spec = derive_submodel(&cost, &uniform, &budget, Some(m2_cap)).spec;
            let (nebula_m1, nebula_m2) = (cost.submodel(&m1_spec), cost.submodel(&m2_spec));
            let hfl_ratio =
                ratio_for_budget(&dense, (dense_params as f64 * dev.budget_ratio as f64) as usize);
            let hfl_params = dense.active_params(hfl_ratio) as u64;

            let systems: [(&str, u64, Option<u64>, u64); 4] = [
                ("Full model", dense_params, Some(dense_params), 3 * dense_params * 4),
                ("HeteroFL", hfl_params, None, 3 * hfl_params * 4),
                (
                    "Nebula (m1)",
                    nebula_m1.params,
                    Some(held_by_client(&m1_spec)),
                    nebula_m1.training_mem_bytes,
                ),
                (
                    "Nebula (m2)",
                    nebula_m2.params,
                    Some(held_by_client(&m2_spec)),
                    nebula_m2.training_mem_bytes,
                ),
            ];
            for (system, params, held_params, mem) in systems {
                rows.push(row! {
                    "task" => row.task.name(),
                    "device" => dev.class.name(),
                    "system" => system,
                    "params" => params,
                    "held_params" => held_params,
                    "train_mem_bytes" => mem,
                    "train_latency_ms" => training_batch_latency_ms(&dev, held_params.unwrap_or(params), 16),
                });
            }
        }
    }
    rows
}

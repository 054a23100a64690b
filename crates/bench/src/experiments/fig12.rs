//! **Figure 12** — sub-model performance study on the CIFAR-100 / VGG16
//! configuration.
//!
//! Three panels, as in the paper:
//! * sub-models on non-IID data, m = 10;
//! * sub-models on non-IID data, m = 20;
//! * sub-models on IID data.
//!
//! Each panel plots randomly-composed sub-models (size vs accuracy) from
//! a cloud trained **with** and **without** module ability-enhancing
//! training, plus the knapsack-**selected** sub-models at a sweep of
//! resource budgets (the Pareto front).

use crate::{Ctx, TaskRow};
use nebula_core::{derive_submodel, modular_config_for, NebulaCloud, NebulaParams, ResourceProfile};
use nebula_data::{evaluate_accuracy, Dataset, TaskPreset};
use nebula_modular::cost::CostModel;
use nebula_modular::SubModelSpec;
use nebula_tensor::NebulaRng;
use serde_json::Value;

fn random_spec(cfg: &nebula_modular::ModularConfig, rng: &mut NebulaRng) -> SubModelSpec {
    SubModelSpec::new(
        (0..cfg.num_layers)
            .map(|_| {
                let count = 1 + rng.below(cfg.modules_per_layer);
                rng.sample_indices(cfg.modules_per_layer, count)
            })
            .collect(),
    )
}

fn eval_spec(cloud: &mut NebulaCloud, spec: &SubModelSpec, data: &Dataset) -> f32 {
    cloud.model_mut().set_submodel(Some(spec));
    let acc = evaluate_accuracy(cloud.model_mut(), data, 64);
    cloud.model_mut().set_submodel(None);
    acc
}

pub fn run(ctx: &Ctx) -> Vec<Value> {
    let (scale, seed) = (ctx.scale, ctx.seed);
    let n_random = if ctx.quick { 8 } else { 30 };
    let task = TaskPreset::Cifar100;
    let mcfg = modular_config_for(task);
    let cost = CostModel::new(mcfg.clone());

    // Shared proxy/sub-task data from the m=10 world's group structure.
    let row = TaskRow { task, skew_m: Some(10) };
    let mut world = row.world(scale, None, seed);
    let mut rng = NebulaRng::seed(seed);
    let proxy = world.proxy(scale.proxy_samples);
    let subtasks = world.subtask_datasets(200);

    let mut params = NebulaParams::default();
    params.pretrain.epochs = scale.pretrain_epochs;
    let mut plain = NebulaCloud::new(mcfg.clone(), params, seed);
    plain.pretrain(&proxy, &mut rng);
    let mut enhanced = NebulaCloud::new(mcfg.clone(), params, seed);
    enhanced.pretrain(&proxy, &mut rng);
    enhanced.enhance(&subtasks, &mut rng);

    // Panel datasets: a device-local task per panel.
    let m10 = world.devices[0].test.clone();
    let m10_local = world.devices[0].partition.data.clone();
    let world20 = TaskRow { task, skew_m: Some(20) }.world(scale, None, seed);
    let m20 = world20.devices[0].test.clone();
    let m20_local = world20.devices[0].partition.data.clone();
    let iid = world.proxy(300);
    let iid_local = world.proxy(150);

    let panels: Vec<(&str, Dataset, Dataset)> =
        vec![("non-IID m=10", m10, m10_local), ("non-IID m=20", m20, m20_local), ("IID", iid, iid_local)];
    let mut rows = Vec::new();
    for (panel, test, local) in panels {
        // Random sub-models from both clouds.
        for (series, cloud) in [("w/o enhancing", &mut plain), ("w/ enhancing", &mut enhanced)] {
            let mut srng = NebulaRng::seed(seed ^ 0xF16);
            for _ in 0..n_random {
                let spec = random_spec(&mcfg, &mut srng);
                let accuracy = eval_spec(cloud, &spec, &test);
                let params_k = cost.submodel(&spec).params as f64 / 1000.0;
                rows.push(row! { "panel" => panel, "series" => series, "params_k" => params_k, "accuracy" => accuracy });
            }
        }

        // Knapsack-selected sub-models from the enhanced cloud at a budget
        // sweep — the Pareto front the derivation walks.
        let full = cost.full_model();
        let importance = enhanced.model_mut().importance(local.features());
        for ratio in [0.1f64, 0.2, 0.3, 0.45, 0.65, 1.0] {
            let profile = ResourceProfile {
                mem_bytes: (full.training_mem_bytes as f64 * ratio) as u64,
                flops: (full.flops as f64 * ratio) as u64,
                comm_bytes: (full.comm_bytes as f64 * ratio) as u64,
            };
            let outcome = derive_submodel(&cost, &importance, &profile, None);
            let accuracy = eval_spec(&mut enhanced, &outcome.spec, &test);
            let params_k = cost.submodel(&outcome.spec).params as f64 / 1000.0;
            rows.push(row! {
                "panel" => panel,
                "series" => "selected sub-model",
                "params_k" => params_k,
                "accuracy" => accuracy,
            });
        }
    }
    rows
}

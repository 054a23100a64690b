//! **Figure 2** — heterogeneous on-device resources and the cost of
//! on-device training.
//!
//! * (a) RAM-capacity histogram over a sampled device population;
//! * (b) inference-latency distribution (MobileNetV3-class workload),
//!   mobile SoCs vs IoT boards;
//! * (c) the training-vs-inference peak-memory ratio of the three
//!   CNN-scale task models.
//!
//! The population has its own seed, so this figure is the same under
//! every campaign seed.

use crate::Ctx;
use nebula_core::modular_config_for;
use nebula_data::TaskPreset;
use nebula_modular::cost::CostModel;
use nebula_sim::latency::inference_latency_ms;
use nebula_sim::{DeviceClass, ResourceSampler};
use nebula_tensor::NebulaRng;
use serde_json::Value;

/// MobileNetV3-Large forward cost (≈219 M MACs), the workload behind the
/// paper's Fig. 2(b) latency statistics.
const MOBILENET_FLOPS: u64 = 219_000_000;

pub fn run(_: &Ctx) -> Vec<Value> {
    let mut rng = NebulaRng::seed(2024);
    let pop = ResourceSampler::default().sample_population(1000, &mut rng);
    let mut rows = Vec::new();

    // ---- (a) RAM histogram --------------------------------------------
    let buckets = [(0.0, 2.0), (2.0, 4.0), (4.0, 6.0), (6.0, 8.0), (8.0, 10.0), (10.0, 12.0), (12.0, 99.0)];
    let labels = ["<2", "2~4", "4~6", "6~8", "8~10", "10~12", ">12"];
    for ((lo, hi), label) in buckets.iter().zip(labels) {
        let frac = pop
            .iter()
            .filter(|d| {
                let gb = d.ram_bytes as f64 / 1e9;
                gb >= *lo && gb < *hi
            })
            .count() as f64
            / pop.len() as f64;
        rows.push(row! { "panel" => "a_ram", "bucket" => label, "value" => frac });
    }

    // ---- (b) inference latency quantiles --------------------------------
    for (class, name) in [(DeviceClass::MobileSoc, "Mobile SoCs"), (DeviceClass::Iot, "IoT devices")] {
        let mut v: Vec<f64> = pop
            .iter()
            .filter(|d| d.class == class)
            .map(|d| inference_latency_ms(d, MOBILENET_FLOPS))
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |p: f64| v[((v.len() - 1) as f64 * p) as usize];
        for (p, label) in [(0.10, "p10"), (0.50, "p50"), (0.90, "p90"), (0.99, "p99")] {
            rows.push(
                row! { "panel" => "b_latency", "bucket" => format!("{name}/{label}"), "value" => q(p) },
            );
        }
    }

    // ---- (c) training vs inference memory -------------------------------
    for task in [TaskPreset::Cifar10, TaskPreset::Cifar100, TaskPreset::SpeechCommands] {
        let full = CostModel::new(modular_config_for(task)).full_model();
        rows.push(row! {
            "panel" => "c_train_vs_inf_mem_ratio",
            "bucket" => task.model_name(),
            "value" => full.training_mem_bytes as f64 / full.inference_mem_bytes as f64,
        });
    }
    rows
}

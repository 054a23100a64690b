//! Criterion micro-benchmarks for the systems-level costs of Nebula:
//! routing/gating throughput, sub-model derivation latency, module-wise
//! aggregation vs FedAvg-style full averaging, and the tensor kernels
//! everything sits on.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use nebula_core::{aggregate_module_wise, derive_submodel, ModuleUpdate, ResourceProfile};
use nebula_modular::cost::CostModel;
use nebula_modular::{ModularConfig, ModularModel, SubModelSpec};
use nebula_nn::{Layer, Mode};
use nebula_tensor::{NebulaRng, Tensor};
use std::collections::BTreeMap;

fn paper_config() -> ModularConfig {
    // ResNet18-equivalent: 4 layers × 16 modules.
    ModularConfig {
        input_dim: 96,
        classes: 10,
        width: 96,
        num_layers: 4,
        modules_per_layer: 16,
        module_hidden: 24,
        residual_module: true,
        top_k: 4,
        selector_embed: 48,
        gate_noise_std: 0.3,
        load_balance_weight: 0.02,
        conv_stem: None,
    }
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor/matmul_nt");
    let mut rng = NebulaRng::seed(1);
    for &n in &[64usize, 256, 512] {
        let a = Tensor::from_vec((0..16 * n).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[16, n]);
        let b = Tensor::from_vec((0..n * n).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[n, n]);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul_nt(&b)));
        });
    }
    group.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("modular/forward");
    let cfg = paper_config();
    let mut model = ModularModel::new(cfg.clone(), 7);
    let mut rng = NebulaRng::seed(2);
    let x = Tensor::from_vec(
        (0..16 * cfg.input_dim).map(|_| rng.normal_f32(0.0, 1.0)).collect(),
        &[16, cfg.input_dim],
    );
    group.bench_function("full_model_batch16", |b| {
        b.iter(|| black_box(model.forward(&x, Mode::Eval)));
    });
    let small = SubModelSpec::new(vec![vec![0, 1]; 4]);
    model.set_submodel(Some(&small));
    group.bench_function("submodel2_batch16", |b| {
        b.iter(|| black_box(model.forward(&x, Mode::Eval)));
    });
    model.set_submodel(None);
    group.bench_function("train_step_batch16", |b| {
        b.iter(|| {
            model.zero_grad();
            let y = model.forward(&x, Mode::Train);
            let g = Tensor::ones(y.shape());
            black_box(model.backward(&g));
        });
    });
    group.finish();
}

fn bench_derivation(c: &mut Criterion) {
    let mut group = c.benchmark_group("core/derive_submodel");
    let cfg = paper_config();
    let cost = CostModel::new(cfg.clone());
    let mut rng = NebulaRng::seed(3);
    let importance: Vec<Vec<f32>> = (0..cfg.num_layers)
        .map(|_| {
            let mut row: Vec<f32> = (0..cfg.modules_per_layer).map(|_| rng.uniform_f32(0.0, 1.0)).collect();
            let s: f32 = row.iter().sum();
            row.iter_mut().for_each(|v| *v /= s);
            row
        })
        .collect();
    let full = cost.full_model();
    let profile = ResourceProfile {
        mem_bytes: full.training_mem_bytes / 3,
        flops: full.flops / 3,
        comm_bytes: full.comm_bytes / 3,
    };
    group.bench_function("knapsack_64_modules", |b| {
        b.iter(|| black_box(derive_submodel(&cost, &importance, &profile, None)));
    });
    group.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("core/aggregation");
    group.sample_size(20);
    let cfg = paper_config();
    let cloud = ModularModel::new(cfg.clone(), 9);

    // 25 device updates over random 8-module sub-models.
    let mut rng = NebulaRng::seed(4);
    let updates: Vec<ModuleUpdate> = (0..25)
        .map(|_| {
            let spec = SubModelSpec::new(
                (0..cfg.num_layers).map(|_| rng.sample_indices(cfg.modules_per_layer, 8)).collect(),
            );
            let mut module_params = BTreeMap::new();
            for (l, layer) in spec.layers().iter().enumerate() {
                for &i in layer {
                    module_params.insert((l, i), cloud.module_param_vector(l, i));
                }
            }
            let importance =
                vec![vec![1.0 / cfg.modules_per_layer as f32; cfg.modules_per_layer]; cfg.num_layers];
            ModuleUpdate {
                spec,
                module_params,
                shared_params: cloud.shared_param_vector(),
                importance,
                data_volume: 100,
            }
        })
        .collect();

    group.bench_function("module_wise_25_devices", |b| {
        b.iter_batched(
            || cloud.deep_clone(),
            |mut m| black_box(aggregate_module_wise(&mut m, &updates, true)),
            criterion::BatchSize::LargeInput,
        );
    });

    // FedAvg-style full-vector average at the same capacity, for contrast.
    let full_params: Vec<Vec<f32>> = (0..25).map(|_| cloud.param_vector()).collect();
    group.bench_function("full_average_25_devices", |b| {
        b.iter(|| {
            let len = full_params[0].len();
            let mut avg = vec![0.0f32; len];
            for p in &full_params {
                for (a, &v) in avg.iter_mut().zip(p) {
                    *a += v;
                }
            }
            avg.iter_mut().for_each(|v| *v /= 25.0);
            black_box(avg)
        });
    });
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    use nebula_nn::Conv1d;
    let mut group = c.benchmark_group("nn/conv1d");
    let mut rng = NebulaRng::seed(5);
    // Speech-scale: 8 channels × 128 samples, 16 output channels, k=5.
    let mut conv = Conv1d::new(8, 16, 5, 1, 2, 128, &mut rng);
    let x = Tensor::from_vec((0..16 * 8 * 128).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[16, 8 * 128]);
    group.bench_function("forward_batch16", |b| {
        b.iter(|| black_box(conv.forward(&x, Mode::Eval)));
    });
    group.bench_function("train_step_batch16", |b| {
        b.iter(|| {
            conv.zero_grad();
            let y = conv.forward(&x, Mode::Train);
            let g = Tensor::ones(y.shape());
            black_box(conv.backward(&g));
        });
    });
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_routing, bench_derivation, bench_aggregation, bench_conv);
criterion_main!(benches);

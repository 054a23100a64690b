//! Single-layer probes of the traced run that the round ledger cannot
//! give: kernel throughput at the shapes a train step issues, the stages
//! of one local train step, and one job vector replayed through each
//! transport.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use nebula_core::{DispatchJob, Loopback, ModularRunner, Transport, WireConfig};
use nebula_data::Dataset;
use nebula_modular::ModularConfig;
use nebula_nn::{cross_entropy, Layer, Mode, Optimizer, Sgd};
use nebula_tensor::{NebulaRng, Tensor};

use crate::metrics::Metrics;
use crate::stats::{median, percentile};

fn random_matrix(rows: usize, cols: usize, rng: &mut NebulaRng) -> Tensor {
    Tensor::from_vec((0..rows * cols).map(|_| rng.uniform_f32(-1.0, 1.0)).collect(), &[rows, cols])
}

/// GFLOP/s of `x · Wᵀ` over `shapes` (m, n, k), as the median of `reps`
/// samples of at least `sample_s` seconds each.
fn gemm_gflops(shapes: &[(usize, usize, usize)], reps: usize, sample_s: f64, rng: &mut NebulaRng) -> f64 {
    let mut mats: Vec<(Tensor, Tensor, Tensor)> = shapes
        .iter()
        .map(|&(m, n, k)| (random_matrix(m, k, rng), random_matrix(n, k, rng), Tensor::zeros(&[m, n])))
        .collect();
    let flops: f64 = shapes.iter().map(|&(m, n, k)| 2.0 * (m * n * k) as f64).sum();
    let pass = |mats: &mut Vec<(Tensor, Tensor, Tensor)>| {
        for (a, b, out) in mats.iter_mut() {
            black_box(&*a).matmul_nt_into(black_box(&*b), out);
            black_box(&*out);
        }
    };
    let t = Instant::now();
    pass(&mut mats);
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let inner = ((sample_s / once).ceil() as usize).clamp(1, 100_000);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                pass(&mut mats);
            }
            flops * inner as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&samples)
}

/// `tensor.*`: the three GEMMs one batch of a local train step issues on
/// this workload's model (trunk, module in, module out), and the legacy
/// large shape as a ceiling reference.
pub fn gemm(cfg: &ModularConfig, batch: usize, seed: u64, m: &mut Metrics) {
    let mut rng = NebulaRng::seed(seed ^ 0x6E33);
    let (w, h) = (cfg.width, cfg.module_hidden);
    let small = [(batch, w, w), (batch, h, w), (batch, w, h)];
    m.set("tensor.gemm_small_gflops", gemm_gflops(&small, 9, 0.02, &mut rng));
    m.set("tensor.gemm_large_gflops", gemm_gflops(&[(1568, 256, 2304)], 5, 0.02, &mut rng));
}

/// Per-batch stage times of a local train loop, ms.
#[derive(Default)]
pub struct StageTimes {
    batch: Vec<f64>,
    forward: Vec<f64>,
    loss: Vec<f64>,
    backward: Vec<f64>,
    clip: Vec<f64>,
    optim: Vec<f64>,
    step: Vec<f64>,
    samples: usize,
    wall_s: f64,
}

/// The benchmark's copy of `nebula_data::train_epochs` (clip 5.0, SGD
/// momentum 0.9), with the clock read between the public `Layer` and
/// `Optimizer` calls.
pub fn timed_train_loop(
    model: &mut dyn Layer,
    data: &Dataset,
    epochs: usize,
    batch_size: usize,
    lr: f32,
    rng: &mut NebulaRng,
    t: &mut StageTimes,
) {
    let ms = |since: Instant| since.elapsed().as_secs_f64() * 1e3;
    let mut opt = Sgd::with_momentum(lr, 0.9);
    let wall = Instant::now();
    for _ in 0..epochs {
        let t0 = Instant::now();
        let batches = data.batches(batch_size, rng);
        let per_batch = ms(t0) / batches.len().max(1) as f64;
        for (x, y) in batches {
            t.batch.push(per_batch);
            let start = Instant::now();
            model.zero_grad();
            let logits = model.forward(&x, Mode::Train);
            t.forward.push(ms(start));
            let t1 = Instant::now();
            let (_loss, grad) = cross_entropy(&logits, &y);
            t.loss.push(ms(t1));
            let t2 = Instant::now();
            model.backward(&grad);
            t.backward.push(ms(t2));
            let t3 = Instant::now();
            model.clip_grad_norm(5.0);
            t.clip.push(ms(t3));
            let t4 = Instant::now();
            opt.step(model);
            t.optim.push(ms(t4));
            t.step.push(ms(start));
            t.samples += y.len();
        }
    }
    t.wall_s += wall.elapsed().as_secs_f64();
}

impl StageTimes {
    /// `data.*`, `nn.*` and — by the model family that was trained —
    /// `modular.*` or `baselines.dense_*`.
    pub fn report(&self, modular: bool, m: &mut Metrics) {
        m.set("data.batch_ms_per_batch", median(&self.batch));
        m.set("nn.loss_ms_per_batch", median(&self.loss));
        m.set("nn.clip_ms_per_batch", median(&self.clip));
        m.set("nn.optim_step_ms_per_batch", median(&self.optim));
        let per_s = self.samples as f64 / self.wall_s.max(f64::MIN_POSITIVE);
        if modular {
            m.set("modular.forward_ms_per_batch", median(&self.forward));
            m.set("modular.backward_ms_per_batch", median(&self.backward));
            m.set("modular.train_samples_per_s", per_s);
        } else {
            m.set("baselines.dense_train_step_ms_per_batch", median(&self.step));
            m.set("baselines.dense_samples_per_s", per_s);
        }
    }
}

/// Round-trip times of `jobs` replayed `n` times through `transport`, ms.
fn replay(transport: &mut dyn Transport, jobs: &[DispatchJob], n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let batch = jobs.to_vec();
            let t = Instant::now();
            let results = transport.round_trip(batch);
            let took = t.elapsed().as_secs_f64() * 1e3;
            assert!(results.iter().all(Result::is_ok), "a fault-free transport returns every job");
            took
        })
        .collect()
}

/// `serve.*` beyond the real run's own round trips: the identical job
/// vector through the 2-worker deployment (100 replays, so a p90 has ten
/// samples beyond it), a 1-worker × 1-executor deployment, and the
/// in-process loopback executor.
pub fn serve_replay(
    jobs: &[DispatchJob],
    modular: &ModularConfig,
    wire: WireConfig,
    two_workers: &mut dyn Transport,
    one_worker: &mut dyn Transport,
    m: &mut Metrics,
) {
    let two = replay(two_workers, jobs, 100);
    let one = replay(one_worker, jobs, 20);
    let mut loopback = Loopback::new(Arc::new(ModularRunner::new(modular.clone(), wire)));
    let looped = replay(&mut loopback, jobs, 20);
    m.set("serve.round_trip_ms_p90", percentile(&two, 90.0));
    m.set("serve.round_trip_1w_ms_p50", median(&one));
    m.set("serve.loopback_round_trip_ms_p50", median(&looped));
    m.set("serve.job_overhead_ms", (median(&one) - median(&looped)) / jobs.len().max(1) as f64);
    m.set("serve.scaling_2w_x", median(&one) / median(&two));
    println!(
        "serve replay of {} jobs: 2 workers p50 {:.2} ms over {} replays, 1 worker {:.2} ms, loopback {:.2} ms",
        jobs.len(),
        median(&two),
        two.len(),
        median(&one),
        median(&looped)
    );
}

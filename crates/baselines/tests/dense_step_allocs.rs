//! How often a dense baseline train step visits the allocator.
//!
//! A FedAvg round trains its devices on several threads, and every
//! allocation is a chance to queue on a malloc arena, so allocations per
//! step are a cost of their own next to the arithmetic. This counts them —
//! every `alloc`, `alloc_zeroed` and `realloc` the process makes — over
//! one [`local_adapt`] of the HAR preset's dense model, after a first one
//! has warmed every cache and buffer, and holds the per-step mean under a
//! ceiling. The count has no timing in it, so it repeats exactly.
//!
//! A [`DenseJobRunner`] job is held to more: once the runner has run a job,
//! the next one allocates nothing the size of a parameter vector — it
//! trains in a kept model and writes its result over the parameters it
//! shipped, which is where its result must point.
//!
//! One `#[test]`: the counter is process-wide.

use nebula_baselines::{local_adapt, DenseJobRunner, DenseModel};
use nebula_core::net::{DispatchJob, JobResult, JobRunner, JobSpec, TrainParams};
use nebula_data::{Synthesizer, TaskPreset};
use nebula_nn::Layer;
use nebula_tensor::NebulaRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Allocations of at least [`PARAM_BYTES`].
static PARAM_SIZED: AtomicU64 = AtomicU64::new(0);

/// The bytes of the HAR dense model's parameter vector (51 054 `f32`s).
const PARAM_BYTES: usize = 51_054 * 4;

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if bytes >= PARAM_BYTES {
        PARAM_SIZED.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const BATCH: usize = 16;
const EPOCHS: usize = 3;
/// Five full batches per epoch.
const SAMPLES: usize = 5 * BATCH;

/// Mean allocations per train step of a warmed-up HAR dense model at
/// width ratio `ratio`.
fn allocations_per_step(ratio: f32) -> u64 {
    let mut model = DenseModel::new(64, 64, 1, 360, 6, 7);
    model.set_width_ratio(ratio);
    let mut rng = NebulaRng::seed(5);
    let data = Synthesizer::new(TaskPreset::Har.synth_spec(), 1).sample(SAMPLES, 0, &mut rng);

    local_adapt(&mut model, &data, EPOCHS, BATCH, 0.03, &mut rng);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    local_adapt(&mut model, &data, EPOCHS, BATCH, 0.03, &mut rng);
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    spent / (EPOCHS * SAMPLES / BATCH) as u64
}

/// A full-width HAR job over [`SAMPLES`] samples, from the model seeded
/// `seed`.
fn har_job(seed: u64) -> DispatchJob {
    let model = DenseModel::new(64, 64, 1, 360, 6, seed);
    assert_eq!(model.param_count() * 4, PARAM_BYTES);
    DispatchJob {
        round: 0,
        device: seed,
        spec: JobSpec::Dense {
            input: 64,
            width: 64,
            blocks: 1,
            block_hidden: 360,
            classes: 6,
            ratio: 1.0,
            params: model.param_vector(),
        },
        rng_state: NebulaRng::seed(seed).state(),
        train: TrainParams { epochs: EPOCHS, batch_size: BATCH, lr: 0.03 },
        data: Synthesizer::new(TaskPreset::Har.synth_spec(), 1).sample(
            SAMPLES,
            0,
            &mut NebulaRng::seed(seed),
        ),
    }
}

/// Parameter-sized allocations of a second job on one runner, and whether
/// its result is the buffer it shipped.
fn warm_job() -> (u64, bool) {
    let runner = DenseJobRunner::default();
    assert!(matches!(runner.run(har_job(1)), Ok(JobResult::Params(_))));
    let job = har_job(2);
    let JobSpec::Dense { params, .. } = &job.spec else { unreachable!("a dense job") };
    let shipped = params.as_ptr();
    let before = PARAM_SIZED.load(Ordering::Relaxed);
    let result = runner.run(job);
    let spent = PARAM_SIZED.load(Ordering::Relaxed) - before;
    match result {
        Ok(JobResult::Params(trained)) => (spent, trained.as_ptr() == shipped),
        other => panic!("a dense job must return parameters, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn a_warm_dense_step_stays_under_its_allocation_ceiling() {
    // FedAvg trains at full width; 0.5 (a HeteroFL level and an
    // AdaptiveNet branch) is printed for the record.
    let per_step = [1.0, 0.5].map(allocations_per_step);
    println!("allocations per dense train step at width 1.0 / 0.5: {per_step:?}");
    assert!(
        per_step[0] <= CEILING,
        "a full-width dense train step made {} allocations, ceiling {CEILING}",
        per_step[0]
    );

    let (param_sized, in_place) = warm_job();
    println!("parameter-sized allocations of a warm dense job: {param_sized}");
    assert_eq!(param_sized, 0, "a job on a warm runner allocated a parameter-sized buffer");
    assert!(in_place, "a dense job's result must come back in the buffer it shipped");
}

/// Allocations per full-width step. The code this test was first
/// committed against spent 39 at width 1.0 and at 0.5; with every cache
/// and gradient buffer refilled in place and each activation written
/// where backward reads it, it is 8 at both (the same on every kernel
/// backend, debug and release): the batch, the logits and ∂loss/∂input
/// `Layer::forward` / `backward` return by value, the loss's
/// log-probabilities and gradient, clipping's list of gradients, and the
/// per-epoch shuffle and a fresh optimiser's momentum buffers spread over
/// the steps.
const CEILING: u64 = 8;

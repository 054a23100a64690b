//! Absolute pins for what the dense baseline's train step computes.
//!
//! `sim/tests/round_golden.rs` digests whole FedAvg and HeteroFL rounds,
//! where a train step that schedules its products differently hides
//! behind the average and, when it does not, the digest says only
//! "something moved". These cases digest (FNV-1a over `f32::to_bits`) the
//! step itself, on the HAR preset's dense shape (64 → 64, one residual
//! block of 360 hidden units, 6 classes; 51 054 parameters), batch 16:
//!
//! * at width ratios 1.0, 0.5 and 0.125, the parameters after 5
//!   [`local_adapt`] steps and again after 5 more — a cache or buffer left
//!   in the wrong state after a step shows in the second — and the logits
//!   of an Eval forward over 33 rows (more than a train batch holds);
//! * the parameters a [`DenseJobRunner`] returns for a full-width job over
//!   70 samples, so every epoch ends on a 6-row batch.
//!
//! Every constant was computed by the code these pins were first committed
//! against, once per kernel engine (the engines differ by FMA contraction
//! and the reference engine by summation order, so each has its own row);
//! a change to how a step is scheduled must leave all of them untouched.
//! An engine the CPU lacks is skipped.
//!
//! One test function: the backend selection is process-global.

use nebula_baselines::{local_adapt, DenseJobRunner, DenseModel};
use nebula_core::net::{DispatchJob, JobResult, JobRunner, JobSpec, TrainParams};
use nebula_data::{Dataset, Synthesizer, TaskPreset};
use nebula_nn::{Layer, Mode};
use nebula_tensor::{resolved_backend, KernelBackend, NebulaRng};

const BATCH: usize = 16;
const LR: f32 = 0.03;
const RATIOS: [f32; 3] = [1.0, 0.5, 0.125];

/// FNV-1a over 64-bit words.
fn digest(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in std::iter::once(values.len() as u64).chain(values.iter().map(|v| v.to_bits() as u64)) {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The HAR preset's dense model, as `StrategyConfig::dense_model` builds it.
fn har_model(seed: u64) -> DenseModel {
    DenseModel::new(64, 64, 1, 360, 6, seed)
}

fn har_data(samples: usize, seed: u64) -> Dataset {
    Synthesizer::new(TaskPreset::Har.synth_spec(), 1).sample(samples, 0, &mut NebulaRng::seed(seed))
}

/// Per ratio: parameters after 5 and 10 steps, then the Eval logits.
fn step_digests() -> [[u64; 3]; 3] {
    let data = har_data(5 * BATCH, 0xDA7A);
    let probe = har_data(33, 0x9B0E);
    RATIOS.map(|ratio| {
        let mut model = har_model(0x5EED);
        model.set_width_ratio(ratio);
        let mut rng = NebulaRng::seed(0xD1CE);
        local_adapt(&mut model, &data, 1, BATCH, LR, &mut rng);
        let five = digest(&model.param_vector());
        local_adapt(&mut model, &data, 1, BATCH, LR, &mut rng);
        let ten = digest(&model.param_vector());
        let logits = model.forward(probe.features(), Mode::Eval);
        [five, ten, digest(logits.data())]
    })
}

/// The parameters a full-width dense job comes back with.
fn job_digest() -> u64 {
    let params = har_model(0x10B).param_vector();
    let job = DispatchJob {
        round: 3,
        device: 7,
        spec: JobSpec::Dense {
            input: 64,
            width: 64,
            blocks: 1,
            block_hidden: 360,
            classes: 6,
            ratio: 1.0,
            params,
        },
        rng_state: NebulaRng::seed(0xF0CC).state(),
        train: TrainParams { epochs: 2, batch_size: BATCH, lr: LR },
        data: har_data(70, 0x70),
    };
    match DenseJobRunner.run(&job) {
        Ok(JobResult::Params(trained)) => digest(&trained),
        other => panic!("a dense job must return parameters, got {:?}", other.map(|_| ())),
    }
}

/// `(engine, per-ratio step digests, job digest)` as the parent code
/// computed them.
const PINS: [(KernelBackend, [[u64; 3]; 3], u64); 4] = [
    (
        KernelBackend::Reference,
        [
            [0xa4222072f09a6ae6, 0x291f5a6741b0ed71, 0x2998d7585a1c548e],
            [0x231cd473cfff376d, 0x5e3feef1ef6274fc, 0xcaad6db75f7d8a87],
            [0x3cd166fba734fdbb, 0xf83e7332d0018965, 0x3aa504a0c38c6356],
        ],
        0xea8ceca0504807c7,
    ),
    (
        KernelBackend::Blocked,
        [
            [0x62a8e27a1b83741d, 0x6364c5ee08b247c3, 0xa8d9c2d6e32210f3],
            [0x7a9edd66be05298e, 0x263571272c050316, 0xe84f4749bd170f77],
            [0x5e50b9bed1a726c9, 0x25e4dcc7a0d5518a, 0x7b45bf50f1d0df4b],
        ],
        0x5cefe25ead3f4e20,
    ),
    (
        KernelBackend::Avx2,
        [
            [0x866906ba5e432ab2, 0xb6aa9d0d609ecbef, 0x8314ed3ef21b2eb8],
            [0x66e9f17a8b9f3a37, 0xa5d8e9ded0e2e861, 0xb1b4c76955b38748],
            [0x391810523e5a0418, 0xff734bdf6a585956, 0x31a1ec66ed059057],
        ],
        0x47708757c0ff3b75,
    ),
    (
        KernelBackend::Avx512,
        [
            [0x866906ba5e432ab2, 0xb6aa9d0d609ecbef, 0x8314ed3ef21b2eb8],
            [0x66e9f17a8b9f3a37, 0xa5d8e9ded0e2e861, 0xb1b4c76955b38748],
            [0x391810523e5a0418, 0xff734bdf6a585956, 0x31a1ec66ed059057],
        ],
        0x47708757c0ff3b75,
    ),
];

#[test]
fn a_dense_train_step_keeps_its_bits_on_every_engine() {
    // Every supported engine is computed and printed before anything is
    // asserted, so one run shows the whole table.
    let (mut checked, mut moved) = (0, Vec::new());
    for (backend, steps_want, job_want) in PINS {
        let _guard = backend.scoped();
        if resolved_backend() != backend {
            println!("{backend}: not supported by this CPU, skipped");
            continue;
        }
        let (steps_got, job_got) = (step_digests(), job_digest());
        println!("(KernelBackend::{backend:?}, {steps_got:#018x?}, {job_got:#018x}),");
        for ((ratio, got), want) in RATIOS.iter().zip(steps_got).zip(steps_want) {
            if got != want {
                moved.push(format!("{backend}: ratio {ratio} parameters after 5 / 10 steps, Eval logits"));
            }
        }
        if job_got != job_want {
            moved.push(format!("{backend}: dense job result"));
        }
        checked += 1;
    }
    assert!(checked >= 2, "reference and blocked run on every CPU");
    assert!(moved.is_empty(), "moved: {moved:#?}");
}

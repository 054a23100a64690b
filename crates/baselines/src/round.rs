//! The dense baselines' communication round — FedAvg (McMahan et al.,
//! AISTATS'17) and HeteroFL (Diao et al., ICLR'21) — and the executor
//! that runs its jobs on the far side of a [`Transport`].
//!
//! There is one round, [`dense_round`]. Each participant trains the
//! prefix sub-model of its width ratio; the server averages every
//! coordinate over the participants whose sub-model contains it and
//! keeps its own value elsewhere. FedAvg is the all-ratios-1.0 case.
//!
//! Every parameter moves through real `nebula-wire` frames on the
//! participant's [`DensePool`] channels: it trains from what it
//! *decoded*, the server averages what it *decoded*, and the returned
//! [`CommTracker`] holds the measured frame bytes. Channel state
//! (quantizer residuals) stays on the calling side — only the
//! already-decoded vector rides inside the job — so every codec gives
//! the same bits whether the [`Transport`] is a [`Loopback`] or a socket
//! to worker processes.
//!
//! [`Loopback`]: nebula_core::net::Loopback

use crate::dense::{active_slice, splice_active, DenseDims, DenseModel};
use crate::local_adapt::{adapt_with, MOMENTUM};
use nebula_core::net::{DispatchJob, JobResult, JobRunner, JobSpec, TrainParams, Transport, TransportError};
use nebula_core::stats::CommTracker;
use nebula_data::Dataset;
use nebula_nn::{Layer, Sgd};
use nebula_tensor::NebulaRng;
use nebula_wire::DensePool;
use std::sync::Mutex;

/// Executes [`JobSpec::Dense`] jobs: load the shipped parameters into a
/// model of the shipped dimensions, train at the job's width ratio, and
/// write the trained vector over the shipped one.
///
/// Jobs train in models the runner keeps: a free list of `(model,
/// optimiser)` pairs, at most one per job that has run at once. A job
/// takes a pair of its dimensions (or builds one), trains and hands it
/// back, so a round neither builds a model per participant nor returns a
/// vector its executor thread allocated. Nothing a job leaves in a pair
/// reaches the next one: every parameter is loaded, the width ratio set,
/// the optimiser restarted from zero momentum, and every train step
/// zeroes the gradients and overwrites the caches it reads
/// (`dense_pins` holds a warm runner's results to a fresh one's bits).
#[derive(Default)]
pub struct DenseJobRunner {
    idle: Mutex<Vec<(DenseModel, Sgd)>>,
}

impl DenseJobRunner {
    /// A kept pair of shape `dims`, or a new one. A miss drops a kept pair
    /// of another shape, so the list never outgrows the jobs run at once.
    fn take(&self, dims: DenseDims, lr: f32) -> (DenseModel, Sgd) {
        let mut idle = self.idle.lock().expect("no job holds the free list while it trains");
        if let Some(at) = idle.iter().position(|(model, _)| model.dims() == dims) {
            return idle.swap_remove(at);
        }
        idle.pop();
        (dims.build(), Sgd::with_momentum(lr, MOMENTUM))
    }
}

impl JobRunner for DenseJobRunner {
    fn run(&self, job: DispatchJob) -> Result<JobResult, TransportError> {
        let JobSpec::Dense { input, width, blocks, block_hidden, classes, ratio, mut params } = job.spec
        else {
            return Err(TransportError::Rejected("dense runner cannot execute modular jobs".into()));
        };
        let mut pair = self.take(DenseDims { input, width, blocks, block_hidden, classes }, job.train.lr);
        let trained = train_in(&mut pair, &mut params, ratio, &job.data, job.train, job.rng_state);
        self.idle.lock().expect("no job holds the free list while it trains").push(pair);
        trained.map(|()| JobResult::Params(params))
    }
}

/// A dense job's work once it has a model: trains `params` in place at
/// width `ratio` on `data`, from the stream saved in `rng_state`.
fn train_in(
    (model, opt): &mut (DenseModel, Sgd),
    params: &mut Vec<f32>,
    ratio: f32,
    data: &Dataset,
    train: TrainParams,
    rng_state: [u64; 4],
) -> Result<(), TransportError> {
    if params.len() != model.param_count() {
        return Err(TransportError::Rejected(format!(
            "dense job ships {} params, model wants {}",
            params.len(),
            model.param_count()
        )));
    }
    if !(ratio > 0.0 && ratio <= 1.0) {
        return Err(TransportError::Rejected(format!("dense job width ratio {ratio} out of (0, 1]")));
    }
    let mut rng = NebulaRng::from_state(rng_state)
        .ok_or_else(|| TransportError::Rejected("degenerate rng state".into()))?;
    model.load_param_vector(params);
    model.set_width_ratio(ratio);
    opt.restart(train.lr);
    adapt_with(model, opt, data, train.epochs, train.batch_size, &mut rng);
    params.clear();
    model.visit_params_ref(&mut |p| params.extend_from_slice(p.data()));
    Ok(())
}

/// FedAvg's combine step, one upload at a time: `acc += (vᵢ/V)·pᵢ`.
fn add_volume_share(acc: &mut [f32], upload: &[f32], share: f32) {
    for (a, &p) in acc.iter_mut().zip(upload) {
        *a += share * p;
    }
}

/// HeteroFL's combine step, one upload at a time: `acc += vᵢ·pᵢ` and
/// `weight += vᵢ` on the coordinates the participant's sub-model covers
/// (the quotient is taken once every upload is in). Not the same float
/// order as [`add_volume_share`], which is why both exist.
fn add_covered(acc: &mut [f32], weight: &mut [f32], mask: &[bool], upload: &[f32], volume: f32) {
    let mut it = upload.iter();
    for ((a, w), &m) in acc.iter_mut().zip(weight).zip(mask) {
        if m {
            *a += volume * it.next().expect("decoded slice shorter than mask");
            *w += volume;
        }
    }
}

/// A width level in play in a round: its ratio, its mask over the flat
/// parameter vector, whether that mask covers every coordinate, and the
/// server's active slice.
struct Level {
    ratio: f32,
    mask: Vec<bool>,
    whole: bool,
    slice: Vec<f32>,
}

/// One communication round of the dense baselines.
///
/// `cohort[k]` is `(id, data, ratio)`: the participant's stable channel
/// identity (an int8 channel carries its error feedback per device, so
/// ids must be stable across rounds), its local shard and its width
/// ratio. Only the active slice of that ratio travels, in both
/// directions. Local training runs wherever `transport` puts it; `round`
/// only tags the dispatched jobs (training never reads it).
///
/// Returns the round's measured traffic. A job the transport loses
/// (worker crash, deadline) drops that participant from the average —
/// degrade, not hang — so `uploads` counts the participants that were
/// averaged and `cohort.len() - uploads` jobs were lost. When every job
/// is lost the server is left untouched.
///
/// A cohort that trains the full model everywhere combines as FedAvg's
/// volume-weighted mean `Σ(vᵢ/V)·pᵢ`; any narrower participant switches
/// to HeteroFL's coordinate-wise `Σvᵢpᵢ/Σvᵢ` over covering participants.
/// The two agree up to float rounding; both orders are kept so neither
/// baseline's trajectory moves.
pub fn dense_round(
    server: &mut DenseModel,
    cohort: &[(u64, &Dataset, f32)],
    pool: &mut DensePool,
    train: TrainParams,
    rng: &mut NebulaRng,
    round: usize,
    transport: &mut dyn Transport,
) -> CommTracker {
    assert!(!cohort.is_empty(), "dense round with no participants");
    let base = server.param_vector();
    let dims = server.dims();
    let mut comm = CommTracker::new();

    // One mask and one download slice per width level in play, not per
    // participant.
    let mut levels: Vec<Level> = Vec::new();
    for &(_, _, ratio) in cohort {
        if !levels.iter().any(|l| l.ratio == ratio) {
            let mask = server.mask_for_ratio(ratio);
            let whole = mask.iter().all(|&m| m);
            let slice = active_slice(&base, &mask);
            levels.push(Level { ratio, mask, whole, slice });
        }
    }
    let level_for = |ratio: f32| -> &Level {
        levels.iter().find(|l| l.ratio == ratio).expect("every cohort ratio has a level")
    };

    // Downloads: ship the active slice, splice what the channel decoded
    // into a full-length vector, and hand that to the job (a whole level's
    // decoded slice already is that vector). A device whose width level
    // changed since last round changes its slice length; under `QuantInt8`
    // its channel's carry is then resized to the new length, keeping its
    // prefix, as every int8 carry is.
    // Per-device RNG streams are forked sequentially by participant index,
    // so the result is identical wherever and however parallel the jobs
    // run.
    let mut decoded = Vec::new();
    let jobs: Vec<DispatchJob> = cohort
        .iter()
        .enumerate()
        .map(|(k, &(id, data, ratio))| {
            let level = level_for(ratio);
            let bytes = pool
                .send_down(id, &level.slice, &mut decoded)
                .expect("pristine in-process frame must decode");
            comm.record_download(bytes);
            let params = if level.whole {
                std::mem::take(&mut decoded)
            } else {
                let mut params = base.clone();
                splice_active(&mut params, &level.mask, &decoded);
                params
            };
            DispatchJob {
                round,
                device: id,
                spec: JobSpec::Dense {
                    input: dims.input,
                    width: dims.width,
                    blocks: dims.blocks,
                    block_hidden: dims.block_hidden,
                    classes: dims.classes,
                    ratio,
                    params,
                },
                rng_state: rng.fork(k as u64).state(),
                train,
                data: data.clone(),
            }
        })
        .collect();

    let trained: Vec<(usize, Vec<f32>)> = transport
        .round_trip(jobs)
        .into_iter()
        .enumerate()
        .filter_map(|(k, res)| match res {
            Ok(JobResult::Params(params)) if params.len() == base.len() => Some((k, params)),
            // A modular or wrong-length result to a dense job is a
            // protocol violation; the participant degrades like a lost job.
            Ok(_) | Err(_) => None,
        })
        .collect();
    if trained.is_empty() {
        return comm;
    }

    // Uploads: active slice only; the server averages what it decoded,
    // not what was sent.
    let full_width = cohort.iter().all(|&(_, _, ratio)| ratio == 1.0);
    let total: f32 = trained.iter().map(|&(k, _)| cohort[k].1.len() as f32).sum();
    let mut acc = vec![0.0f32; base.len()];
    // HeteroFL's per-coordinate divisor; FedAvg's shares already sum to one.
    let mut weight = if full_width { Vec::new() } else { vec![0.0f32; base.len()] };
    for (k, mut params) in trained {
        let (id, data, ratio) = cohort[k];
        let level = level_for(ratio);
        if !level.whole {
            let mut active = level.mask.iter();
            params.retain(|_| *active.next().expect("mask covers every parameter"));
        }
        let bytes = pool.send_up(id, &params, &mut decoded).expect("pristine in-process frame must decode");
        comm.record_upload(bytes);
        let volume = data.len() as f32;
        if full_width {
            add_volume_share(&mut acc, &decoded, volume / total);
        } else {
            add_covered(&mut acc, &mut weight, &level.mask, &decoded, volume);
        }
    }
    if !full_width {
        for ((a, &w), &b) in acc.iter_mut().zip(&weight).zip(&base) {
            *a = if w > 0.0 { *a / w } else { b };
        }
    }
    server.load_param_vector(&acc);
    comm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_adapt;
    use nebula_core::net::Loopback;
    use nebula_data::{SynthSpec, Synthesizer};
    use nebula_wire::CodecKind;
    use std::sync::Arc;

    /// What a scripted far side does with one participant's job.
    #[derive(Clone, Copy)]
    enum Reply {
        /// The shipped parameters, every coordinate shifted by this much.
        Shift(f32),
        /// A vector of the wrong length.
        Short,
        Lost,
    }
    use Reply::{Lost, Shift, Short};

    /// A far side that trains nothing and answers participant `k` with
    /// `self.0[k]` — exact inputs for the combine step and the loss path.
    struct Scripted(Vec<Reply>);

    impl Transport for Scripted {
        fn kind(&self) -> &'static str {
            "scripted"
        }

        fn round_trip(&mut self, jobs: Vec<DispatchJob>) -> Vec<Result<JobResult, TransportError>> {
            jobs.into_iter()
                .zip(&self.0)
                .map(|(job, reply)| match (job.spec, reply) {
                    (JobSpec::Dense { params, .. }, Shift(s)) => {
                        Ok(JobResult::Params(params.iter().map(|v| v + s).collect()))
                    }
                    (_, Short) => Ok(JobResult::Params(vec![0.0; 3])),
                    _ => Err(TransportError::Closed("worker died".into())),
                })
                .collect()
        }
    }

    const ALL: &[usize] = &[0, 1, 2, 3];
    const ROUND_SEED: u64 = 11;

    #[derive(Clone)]
    struct Setup {
        codec: CodecKind,
        /// Per participant: width ratio, local samples, classes held.
        cohort: Vec<(f32, usize, &'static [usize])>,
        epochs: usize,
        lr: f32,
        rounds: usize,
        /// `None` trains over a loopback; `Some` scripts the far side.
        script: Option<Vec<Reply>>,
    }

    fn setup(cohort: &[(f32, usize, &'static [usize])]) -> Setup {
        Setup { codec: CodecKind::Raw, cohort: cohort.to_vec(), epochs: 1, lr: 0.03, rounds: 1, script: None }
    }

    struct Run {
        data: Vec<Dataset>,
        before: Vec<f32>,
        after: Vec<f32>,
        acc_gain: f32,
        /// Measured traffic, one entry per round.
        comm: Vec<CommTracker>,
    }

    impl Run {
        fn bytes(&self, round: usize) -> u64 {
            self.comm[round].down_bytes + self.comm[round].up_bytes
        }
    }

    fn server() -> DenseModel {
        DenseModel::new(16, 24, 2, 32, 4, 7)
    }

    fn run(s: &Setup) -> Run {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let data: Vec<Dataset> = s
            .cohort
            .iter()
            .enumerate()
            .map(|(k, &(_, n, classes))| {
                synth.sample_classes(n, classes, 0, &mut NebulaRng::seed(5 + k as u64))
            })
            .collect();
        let test = synth.sample(200, 0, &mut NebulaRng::seed(4));
        let cohort: Vec<(u64, &Dataset, f32)> =
            s.cohort.iter().zip(&data).enumerate().map(|(k, (c, d))| (k as u64, d, c.0)).collect();
        let mut transport: Box<dyn Transport> = match &s.script {
            Some(script) => Box::new(Scripted(script.clone())),
            None => Box::new(Loopback::new(Arc::new(DenseJobRunner::default()))),
        };
        let mut server = server();
        let mut pool = DensePool::new(s.codec, 0.0);
        let mut rng = NebulaRng::seed(ROUND_SEED);
        let train = TrainParams { epochs: s.epochs, batch_size: 16, lr: s.lr };
        let before = server.param_vector();
        let acc_before = nebula_data::evaluate_accuracy(&mut server, &test, 64);
        // A nonzero, moving round tag must not perturb anything.
        let comm = (0..s.rounds)
            .map(|r| dense_round(&mut server, &cohort, &mut pool, train, &mut rng, 3 + r, transport.as_mut()))
            .collect();
        let acc_gain = nebula_data::evaluate_accuracy(&mut server, &test, 64) - acc_before;
        let after = server.param_vector();
        Run { data, before, after, acc_gain, comm }
    }

    /// Every behaviour the six former round flavours were tested for,
    /// as inputs to the one round.
    #[test]
    fn dense_round_behaviours() {
        type Check = fn(&Run);
        let cases: Vec<(&str, Setup, Check)> = vec![
            (
                "fedavg: label-skewed devices learn the global task",
                Setup { epochs: 3, rounds: 8, ..setup(&[(1.0, 150, &[0, 1]), (1.0, 150, &[2, 3])]) },
                |r| assert!(r.acc_gain > 0.2, "gain {}", r.acc_gain),
            ),
            (
                // Label-skewed participants make HeteroFL converge slowly
                // (the paper's 1.83× extra rounds) — progress, not mastery.
                "heterofl: mixed widths learn the global task",
                Setup { epochs: 3, rounds: 15, ..setup(&[(1.0, 150, &[0, 1]), (0.5, 150, &[2, 3])]) },
                |r| assert!(r.acc_gain > 0.1, "gain {}", r.acc_gain),
            ),
            ("a single-device round equals local training", setup(&[(1.0, 100, ALL)]), |r| {
                let mut local = server();
                local_adapt(&mut local, &r.data[0], 1, 16, 0.03, &mut NebulaRng::seed(ROUND_SEED).fork(0));
                assert_eq!(local.param_vector(), r.after);
                assert_ne!(r.before, r.after);
            }),
            (
                "bytes are one download and one upload per participant",
                setup(&[(1.0, 50, ALL), (1.0, 50, ALL), (1.0, 50, ALL)]),
                |r| {
                    let c = r.comm[0];
                    assert_eq!((c.downloads, c.uploads), (3, 3));
                    assert_eq!(c.down_bytes, c.up_bytes);
                    // Payload plus a bounded framing overhead per frame.
                    let payload = 2 * 3 * 4 * r.before.len() as u64;
                    assert!(
                        r.bytes(0) > payload && r.bytes(0) < payload + 6 * 128,
                        "{} vs {payload}",
                        r.bytes(0)
                    );
                },
            ),
            (
                "fedavg weights follow volume",
                Setup {
                    script: Some(vec![Shift(1.0), Shift(5.0)]),
                    ..setup(&[(1.0, 3, ALL), (1.0, 1, ALL)])
                },
                |r| {
                    for (b, a) in r.before.iter().zip(&r.after) {
                        nebula_tensor::assert_close(*a, b + 2.0, 1e-5);
                    }
                },
            ),
            (
                "heterofl weights follow volume where sub-models overlap",
                Setup {
                    script: Some(vec![Shift(1.0), Shift(5.0)]),
                    ..setup(&[(1.0, 3, ALL), (0.5, 1, ALL)])
                },
                |r| {
                    let narrow = server().mask_for_ratio(0.5);
                    for ((b, a), &both) in r.before.iter().zip(&r.after).zip(&narrow) {
                        nebula_tensor::assert_close(*a, b + if both { 2.0 } else { 1.0 }, 1e-5);
                    }
                },
            ),
            (
                "uncovered coordinates keep the server's values",
                Setup { epochs: 2, lr: 0.05, ..setup(&[(0.125, 60, ALL)]) },
                |r| {
                    let mask = server().mask_for_ratio(0.125);
                    let moved = |i: usize| r.before[i] != r.after[i];
                    assert!((0..mask.len()).all(|i| mask[i] || !moved(i)), "an uncovered coordinate changed");
                    assert!((0..mask.len()).any(|i| mask[i] && moved(i)), "no covered coordinate moved");
                },
            ),
            ("narrow devices move fewer bytes", setup(&[(0.125, 50, ALL)]), |r| {
                let full = run(&setup(&[(1.0, 50, ALL)]));
                assert!(r.bytes(0) < full.bytes(0) / 3, "narrow {} vs full {}", r.bytes(0), full.bytes(0));
            }),
            (
                "int8 rounds move fewer bytes",
                Setup { codec: CodecKind::QuantInt8, ..setup(&[(1.0, 60, ALL)]) },
                |r| {
                    let raw = run(&setup(&[(1.0, 60, ALL)]));
                    assert!(r.bytes(0) * 3 < raw.bytes(0), "int8 {} vs raw {}", r.bytes(0), raw.bytes(0));
                },
            ),
            (
                "a lost job or a wrong-length reply drops its device from the average",
                Setup {
                    script: Some(vec![Lost, Shift(1.0), Short]),
                    ..setup(&[(1.0, 40, ALL), (1.0, 40, ALL), (1.0, 40, ALL)])
                },
                |r| {
                    assert_eq!((r.comm[0].downloads, r.comm[0].uploads), (3, 1));
                    for (b, a) in r.before.iter().zip(&r.after) {
                        nebula_tensor::assert_close(*a, b + 1.0, 1e-5);
                    }
                },
            ),
            (
                "a round that loses every job degrades to a no-op",
                Setup { script: Some(vec![Lost, Lost]), ..setup(&[(1.0, 40, ALL), (0.5, 40, ALL)]) },
                |r| {
                    assert_eq!((r.comm[0].downloads, r.comm[0].uploads, r.comm[0].up_bytes), (2, 0, 0));
                    assert_eq!(r.before, r.after, "an all-lost round must leave the server untouched");
                },
            ),
        ];
        for (name, setup, check) in cases {
            eprintln!("dense_round: {name}");
            check(&run(&setup));
        }
    }

    #[test]
    fn the_runner_keeps_a_pair_per_job_at_once_and_refuses_malformed_jobs() {
        let runner = DenseJobRunner::default();
        let data = Synthesizer::new(SynthSpec::toy(), 1).sample(20, 0, &mut NebulaRng::seed(2));
        let job = |model: DenseModel, ratio: f32, cut: usize| {
            let DenseDims { input, width, blocks, block_hidden, classes } = model.dims();
            let mut params = model.param_vector();
            params.truncate(params.len() - cut);
            DispatchJob {
                round: 0,
                device: 1,
                spec: JobSpec::Dense { input, width, blocks, block_hidden, classes, ratio, params },
                rng_state: NebulaRng::seed(3).state(),
                train: TrainParams { epochs: 1, batch_size: 8, lr: 0.03 },
                data: data.clone(),
            }
        };
        let kept = || runner.idle.lock().unwrap().iter().map(|(m, _)| m.dims()).collect::<Vec<_>>();
        // One job at a time keeps one pair, of the last job's shape.
        let narrow = DenseModel::new(16, 12, 1, 8, 4, 1);
        for model in [server(), narrow, server()] {
            let dims = model.dims();
            assert!(matches!(runner.run(job(model, 0.5, 0)), Ok(JobResult::Params(_))));
            assert_eq!(kept(), vec![dims]);
        }
        for (ratio, cut) in [(1.0, 1), (0.0, 0), (1.5, 0), (f32::NAN, 0)] {
            let got = runner.run(job(server(), ratio, cut));
            assert!(matches!(got, Err(TransportError::Rejected(_))), "ratio {ratio}, {cut} short: {got:?}");
        }
        assert_eq!(kept(), vec![server().dims()], "a refused job hands its pair back");
    }
}

//! The dispatch transport: how a round's training jobs reach their
//! executors.
//!
//! Every collaborative round trains its cohort through a [`Transport`]:
//! the coordinator hands a batch of [`DispatchJob`]s to the transport and
//! gets back one [`JobResult`] (or [`TransportError`]) per job,
//! order-preserving.
//!
//! Two families of implementation exist:
//!
//! * [`Loopback`] — in-process execution over a [`JobRunner`], what a
//!   strategy trains through until a socket transport replaces it.
//! * `Socket` (in `nebula-serve`) — the same jobs serialized as wire
//!   control frames to separate worker processes over TCP or
//!   Unix-domain sockets.
//!
//! A [`DispatchJob`] is *self-contained*: it carries the encoded
//! sub-model frame (or dense parameter vector), the device's local
//! dataset shard, the training hyper-parameters and the exact RNG
//! state the device would have used in-process. That is what makes a
//! remote worker reproduce the loopback trajectory bit-for-bit under
//! every codec: decoding reads no state, and the one step that does —
//! the upload's encode, with the sender's error-feedback carry — stays
//! on the coordinator.

use crate::edge::{EdgeClient, EdgeUpdate};
use crate::transport::{WireConfig, WireContext};
use nebula_data::Dataset;
use nebula_modular::ModularConfig;
use nebula_tensor::NebulaRng;
use std::fmt;
use std::sync::Arc;

/// Why a dispatched job failed to come back.
#[derive(Clone, Debug, PartialEq)]
pub enum TransportError {
    /// The executor's connection closed (worker crash / clean shutdown
    /// mid-round). The round treats the device like a dropped link.
    Closed(String),
    /// The job missed the transport's wall-clock deadline.
    Timeout {
        /// How long the coordinator waited, milliseconds.
        waited_ms: u64,
    },
    /// Socket-level I/O failure.
    Io(String),
    /// The frame came back undecodable (CRC/MAC/codec error).
    Wire(String),
    /// The executor refused the job (unsupported spec, codec, proto).
    Rejected(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed(why) => write!(f, "connection closed: {why}"),
            TransportError::Timeout { waited_ms } => write!(f, "deadline missed after {waited_ms} ms"),
            TransportError::Io(why) => write!(f, "io error: {why}"),
            TransportError::Wire(why) => write!(f, "wire error: {why}"),
            TransportError::Rejected(why) => write!(f, "job rejected: {why}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Local-training hyper-parameters shipped with every job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainParams {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
}

/// What kind of model the job trains. Kept free of `nebula-baselines`
/// types on purpose: dense jobs describe their architecture with plain
/// dimensions so the executor (which does depend on the baselines
/// crate) can rebuild the model.
#[derive(Clone, Debug)]
pub enum JobSpec {
    /// A Nebula modular job: the encoded sub-model payload frame,
    /// exactly the bytes the cloud's [`WireContext::encode_payload`]
    /// produced for this device.
    Modular { frame: Vec<u8> },
    /// A dense-baseline job (FedAvg / HeteroFL): full architecture plus
    /// the already-decoded parameter vector for the device's width
    /// ratio. Channel state (quantizer residuals) stays
    /// coordinator-side, which is what keeps every dense codec
    /// transport-invariant.
    Dense {
        input: usize,
        width: usize,
        blocks: usize,
        block_hidden: usize,
        classes: usize,
        /// HeteroFL width ratio (1.0 = full model / FedAvg).
        ratio: f32,
        params: Vec<f32>,
    },
}

/// One device's training assignment for a round.
#[derive(Clone, Debug)]
pub struct DispatchJob {
    pub round: usize,
    /// Device id — the MAC-key derivation label and telemetry key.
    pub device: u64,
    pub spec: JobSpec,
    /// Captured [`NebulaRng`] state for the device's training stream;
    /// the executor restores it so remote training consumes the exact
    /// random sequence in-process training would have.
    pub rng_state: [u64; 4],
    pub train: TrainParams,
    /// The device's local shard.
    pub data: Dataset,
}

impl DispatchJob {
    /// A job's length grows with the model it trains — the frame it ships,
    /// or the dense parameters its width ratio makes active — and with the
    /// data it trains on. Both transports queue a round's jobs by it,
    /// longest first.
    pub fn cost(&self) -> u64 {
        let model = match &self.spec {
            JobSpec::Modular { frame } => frame.len() as f64,
            JobSpec::Dense { params, ratio, .. } => params.len() as f64 * f64::from(*ratio),
        };
        (model * self.data.len() as f64) as u64
    }
}

/// What comes back from an executor.
#[derive(Clone, Debug)]
pub enum JobResult {
    /// Encoded module-update frame (modular jobs).
    Frame(Vec<u8>),
    /// Trained parameter vector (dense jobs).
    Params(Vec<f32>),
}

/// Executes one job. Implementations must be callable from many threads
/// at once — both [`Loopback`] and the serve worker pool fan jobs out.
///
/// The job comes by value and its result goes back in the job's own
/// buffer: a dense job's trained parameters over its shipped `params`, a
/// modular job's update frame over its spent payload `frame`. The caller
/// allocated those, so nothing an executor thread allocates outlives the
/// job (DESIGN §9's recycling rule).
pub trait JobRunner: Send + Sync {
    fn run(&self, job: DispatchJob) -> Result<JobResult, TransportError>;
}

/// Moves a round's jobs to executors and returns their results in job
/// order. `round_trip` is a *barrier*: it returns when every job has
/// either a result or an error (deadline expiry counts as an error, so
/// a dead worker degrades the round instead of hanging it).
pub trait Transport: Send {
    /// Short label for telemetry/benchmarks ("loopback", "uds", "tcp").
    fn kind(&self) -> &'static str;

    fn round_trip(&mut self, jobs: Vec<DispatchJob>) -> Vec<Result<JobResult, TransportError>>;
}

/// The modular-job executor: decode payload → validate → adapt → encode
/// update, using a *fresh* [`WireContext`] per job.
///
/// A fresh context is all a job needs: a frame's records name their own
/// codecs and decoding keeps no state, so it decodes a payload frame to
/// the bits the cloud's context would. The update always goes back as a
/// `Raw` frame under the job's key; the coordinator re-cuts it under the
/// run's codec ([`WireContext::upload_frame`]).
pub struct ModularRunner {
    modular: ModularConfig,
    /// `Raw`, under the run's master key.
    wire: WireConfig,
}

impl ModularRunner {
    /// Builds the executor for jobs of the `modular` architecture. Of
    /// `wire` only the master key is read.
    pub fn new(modular: ModularConfig, wire: WireConfig) -> Self {
        ModularRunner { modular, wire: WireConfig { auth_key: wire.auth_key, ..WireConfig::raw() } }
    }
}

impl JobRunner for ModularRunner {
    fn run(&self, job: DispatchJob) -> Result<JobResult, TransportError> {
        let JobSpec::Modular { mut frame } = job.spec else {
            return Err(TransportError::Rejected("modular runner cannot execute dense jobs".into()));
        };
        let mut wire = WireContext::new(self.wire);
        let payload =
            wire.decode_payload(job.device, &frame).map_err(|e| TransportError::Wire(e.to_string()))?;
        // A CRC-clean frame is only well-formed: it may still describe a
        // sub-model of some other architecture.
        payload.validate(&self.modular).map_err(TransportError::Rejected)?;
        let mut rng = NebulaRng::from_state(job.rng_state)
            .ok_or_else(|| TransportError::Rejected("degenerate rng state".into()))?;
        let mut client = EdgeClient::from_payload(self.modular.clone(), &payload);
        client.adapt(&job.data, job.train.epochs, job.train.batch_size, job.train.lr, &mut rng);
        let update: EdgeUpdate = client.make_update_reusing(&job.data, payload);
        wire.encode_update(job.device, &update, &mut frame);
        Ok(JobResult::Frame(frame))
    }
}

/// In-process transport: run the round's jobs on this process's threads,
/// longest first ([`nebula_tensor::par::map_longest_first`]), results in
/// job order.
pub struct Loopback {
    runner: Arc<dyn JobRunner>,
}

impl Loopback {
    pub fn new(runner: Arc<dyn JobRunner>) -> Self {
        Loopback { runner }
    }
}

impl Transport for Loopback {
    fn kind(&self) -> &'static str {
        "loopback"
    }

    fn round_trip(&mut self, jobs: Vec<DispatchJob>) -> Vec<Result<JobResult, TransportError>> {
        let runner = &self.runner;
        nebula_tensor::par::map_longest_first(jobs, DispatchJob::cost, |job| runner.run(job))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::{NebulaCloud, NebulaParams};
    use nebula_data::{SynthSpec, Synthesizer};
    use nebula_modular::SubModelSpec;

    fn cloud() -> NebulaCloud {
        let cfg = ModularConfig::toy(16, 4);
        NebulaCloud::new(cfg, NebulaParams::default(), 11)
    }

    fn spec() -> SubModelSpec {
        SubModelSpec::new(vec![vec![0, 2, 3], vec![1]])
    }

    fn tiny_dataset(seed: u64) -> Dataset {
        let synth = Synthesizer::new(SynthSpec::toy(), seed);
        let mut rng = NebulaRng::seed(seed ^ 0x5EED);
        synth.sample(24, 0, &mut rng)
    }

    fn frame_of(result: Result<JobResult, TransportError>) -> Vec<u8> {
        match result.expect("job runs") {
            JobResult::Frame(f) => f,
            JobResult::Params(_) => panic!("expected a frame result, got dense params"),
        }
    }

    fn job_for(c: &NebulaCloud, wire_cfg: WireConfig, device: u64) -> DispatchJob {
        let mut rng = NebulaRng::seed(7);
        let payload = c.dispatch(&spec());
        let mut wire = WireContext::new(wire_cfg);
        let mut frame = Vec::new();
        wire.encode_payload(device, &payload, &mut frame);
        DispatchJob {
            round: 0,
            device,
            spec: JobSpec::Modular { frame },
            rng_state: rng.fork(device ^ 0xEB).state(),
            train: TrainParams { epochs: 1, batch_size: 8, lr: 0.05 },
            data: tiny_dataset(device),
        }
    }

    #[test]
    fn loopback_runs_modular_jobs_deterministically() {
        let c = cloud();
        let cfg = c.model().config().clone();
        let wire_cfg = WireConfig::raw();
        let runner = Arc::new(ModularRunner::new(cfg, wire_cfg));
        let mut t1 = Loopback::new(runner.clone());
        let mut t2 = Loopback::new(runner);
        let jobs: Vec<DispatchJob> = (0..3).map(|d| job_for(&c, wire_cfg, d)).collect();
        let a = t1.round_trip(jobs.clone());
        let b = t2.round_trip(jobs);
        assert_eq!(a.len(), 3);
        for (ra, rb) in a.into_iter().zip(b) {
            let (fa, fb) = (frame_of(ra), frame_of(rb));
            assert!(!fa.is_empty());
            assert_eq!(fa, fb, "loopback execution must be deterministic");
        }
    }

    #[test]
    fn loopback_runs_the_longest_job_first_and_answers_in_job_order() {
        /// Answers each job with its device id and notes the run order.
        struct Echo(std::sync::Mutex<Vec<u64>>);
        impl JobRunner for Echo {
            fn run(&self, job: DispatchJob) -> Result<JobResult, TransportError> {
                self.0.lock().unwrap().push(job.device);
                Ok(JobResult::Params(vec![job.device as f32]))
            }
        }
        let c = cloud();
        // Every job trains on 24 samples. Costs: 3, 9, 30 at half width (so
        // 15, not 30: behind the 27 full-width floats), 27 floats, and a
        // 40-byte frame.
        let specs = [(3, 1.0), (9, 1.0), (30, 0.5), (27, 1.0)].map(|(n, ratio)| JobSpec::Dense {
            input: 1,
            width: 1,
            blocks: 0,
            block_hidden: 0,
            classes: 1,
            ratio,
            params: vec![0.0; n],
        });
        let mut jobs: Vec<DispatchJob> = specs
            .into_iter()
            .chain([JobSpec::Modular { frame: vec![0; 40] }])
            .enumerate()
            .map(|(d, spec)| DispatchJob { device: d as u64, spec, ..job_for(&c, WireConfig::raw(), 0) })
            .collect();
        jobs.iter_mut().for_each(|j| j.data = tiny_dataset(1));
        let echo = Arc::new(Echo(Default::default()));
        let results = nebula_tensor::par::sequential(|| Loopback::new(echo.clone()).round_trip(jobs));
        assert_eq!(*echo.0.lock().unwrap(), [4, 3, 2, 1, 0], "longest first");
        let answered: Vec<f32> = results
            .into_iter()
            .map(|r| match r {
                Ok(JobResult::Params(p)) => p[0],
                other => panic!("echo answers every job, got {other:?}"),
            })
            .collect();
        assert_eq!(answered, [0.0, 1.0, 2.0, 3.0, 4.0], "results come back in job order");
    }

    #[test]
    fn fresh_context_matches_shared_context_under_raw() {
        // The invariant every job rests on: decoding and re-encoding
        // through a fresh WireContext yields the exact bytes a shared
        // cloud-side context produces, for Raw (± auth).
        for wire_cfg in [WireConfig::raw(), WireConfig::raw().with_auth([9u8; 16])] {
            let c = cloud();
            let cfg = c.model().config().clone();
            let job = job_for(&c, wire_cfg, 5);
            let runner = ModularRunner::new(cfg.clone(), wire_cfg);
            let remote = frame_of(runner.run(job.clone()));

            // Shared-context path: same decode/train/encode through one
            // long-lived context.
            let mut shared = WireContext::new(wire_cfg);
            let frame = match &job.spec {
                JobSpec::Modular { frame } => frame,
                _ => unreachable!(),
            };
            let payload = shared.decode_payload(job.device, frame).unwrap();
            let mut rng = NebulaRng::from_state(job.rng_state).unwrap();
            let mut client = EdgeClient::from_payload(cfg, &payload);
            client.adapt(&job.data, job.train.epochs, job.train.batch_size, job.train.lr, &mut rng);
            let update = client.make_update(&job.data);
            let mut out = Vec::new();
            shared.encode_update(job.device, &update, &mut out);
            assert_eq!(remote, out, "fresh context must be bit-identical under Raw");
        }
    }

    #[test]
    fn mismatched_payload_frames_are_rejected_not_panicked_on() {
        // CRC-clean frames cut for some other architecture, through the
        // same Loopback a round uses: every one must come back as an
        // error, and the executor must keep serving afterwards.
        let c = cloud();
        let cfg = c.model().config().clone();
        let wire_cfg = WireConfig::raw();
        let mut transport = Loopback::new(Arc::new(ModularRunner::new(cfg.clone(), wire_cfg)));

        let frame_from = |other: ModularConfig, spec: SubModelSpec| {
            let foreign = NebulaCloud::new(other, NebulaParams::default(), 3);
            let mut frame = Vec::new();
            WireContext::new(wire_cfg).encode_payload(1, &foreign.dispatch(&spec), &mut frame);
            frame
        };
        let mut wider = cfg.clone();
        wider.modules_per_layer = 8; // module keys beyond this executor's range
        let mut deeper = cfg.clone();
        deeper.num_layers = 3; // one layer too many
        let mut fatter = cfg.clone();
        fatter.module_hidden += 4; // right keys, wrong record lengths
        let mut frames = vec![
            frame_from(wider, SubModelSpec::new(vec![vec![0, 6], vec![7]])),
            frame_from(deeper, SubModelSpec::new(vec![vec![0], vec![1], vec![2]])),
            frame_from(fatter, spec()),
        ];
        // A frame whose records skip layer 0 describes no sub-model at all.
        let mut gap = Vec::new();
        let mut b = nebula_wire::frame::FrameBuilder::begin(
            &mut gap,
            nebula_wire::frame::FrameKind::Payload,
            nebula_wire::CodecKind::Raw,
        );
        b.record(nebula_wire::frame::ModuleKey::module(1, 0), nebula_wire::CodecKind::Raw, 0, |_| {});
        b.finish();
        frames.push(gap);

        let mut jobs: Vec<DispatchJob> = frames
            .into_iter()
            .map(|frame| DispatchJob { spec: JobSpec::Modular { frame }, ..job_for(&c, wire_cfg, 1) })
            .collect();
        jobs.push(job_for(&c, wire_cfg, 1));
        let results = transport.round_trip(jobs);
        assert_eq!(results.len(), 5);
        for r in &results[..3] {
            assert!(matches!(r, Err(TransportError::Rejected(_))), "got {r:?}");
        }
        assert!(matches!(&results[3], Err(TransportError::Wire(_))), "got {:?}", results[3]);
        assert!(results[4].is_ok(), "an honest job after the hostile ones must still run");
    }

    #[test]
    fn fresh_context_decodes_int8_payloads_as_the_shared_one_does() {
        // The cloud's context, with a download carry from an earlier
        // frame, cuts an int8 payload into a buffer of the answer's
        // length; the executor decodes it fresh and answers in that
        // buffer with a Raw frame holding the update the shared context's
        // decode trains to.
        let c = cloud();
        let cfg = c.model().config().clone();
        let mut shared = WireContext::new(WireConfig::int8());
        let sent = c.dispatch(&spec());
        let mut frame = Vec::with_capacity(shared.result_len(&sent, &cfg));
        shared.encode_payload(5, &sent, &mut frame);
        shared.encode_payload(5, &sent, &mut frame);
        let (sent_frame, buffer) = (frame.clone(), frame.as_ptr());
        let job = DispatchJob { spec: JobSpec::Modular { frame }, ..job_for(&c, WireConfig::raw(), 5) };
        let (device, rng_state, data, train) = (job.device, job.rng_state, job.data.clone(), job.train);
        let remote = frame_of(ModularRunner::new(cfg.clone(), WireConfig::int8()).run(job));
        assert_eq!(remote.as_ptr(), buffer, "the answer must fit the job's buffer");

        let payload = shared.decode_payload(device, &sent_frame).unwrap();
        let mut rng = NebulaRng::from_state(rng_state).unwrap();
        let mut client = EdgeClient::from_payload(cfg, &payload);
        client.adapt(&data, train.epochs, train.batch_size, train.lr, &mut rng);
        let mut out = Vec::new();
        WireContext::new(WireConfig::raw()).encode_update(device, &client.make_update(&data), &mut out);
        assert_eq!(remote, out, "an int8 payload must train to the same Raw update frame");
    }

    #[test]
    fn modular_runner_rejects_dense_jobs() {
        let c = cloud();
        let cfg = c.model().config().clone();
        let runner = ModularRunner::new(cfg, WireConfig::raw());
        let mut job = job_for(&c, WireConfig::raw(), 1);
        job.spec = JobSpec::Dense {
            input: 8,
            width: 4,
            blocks: 1,
            block_hidden: 4,
            classes: 3,
            ratio: 1.0,
            params: vec![0.0; 8],
        };
        assert!(matches!(runner.run(job), Err(TransportError::Rejected(_))));
    }
}

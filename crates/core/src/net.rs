//! The dispatch transport: how a round's training jobs reach their
//! executors.
//!
//! Historically every strategy trained its cohort in-process with a
//! loop inlined into the round body. The serving plane generalizes that
//! into a [`Transport`]: the coordinator hands a batch of
//! [`DispatchJob`]s to the transport and gets back one [`JobResult`] (or
//! [`TransportError`]) per job, order-preserving.
//!
//! Two families of implementation exist:
//!
//! * [`Loopback`] — in-process execution over a [`JobRunner`], the
//!   refactoring of the historical inline loop. Bit-identical to the
//!   pre-transport round paths (test-pinned).
//! * `Socket` (in `nebula-serve`) — the same jobs serialized as wire
//!   control frames to separate worker processes over TCP or
//!   Unix-domain sockets.
//!
//! A [`DispatchJob`] is *self-contained*: it carries the encoded
//! sub-model frame (or dense parameter vector), the device's local
//! dataset shard, the training hyper-parameters and the exact RNG
//! state the device would have used in-process. That is what makes a
//! remote worker reproduce the loopback trajectory bit-for-bit under
//! the `Raw` codec: a fresh decoder has no state to diverge on.

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
    /// ratio. Channel state (delta baselines, quantizer residuals)
    /// stays coordinator-side, which is what keeps every dense codec
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
pub trait JobRunner: Send + Sync {
    fn run(&self, job: &DispatchJob) -> Result<JobResult, TransportError>;
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

/// The modular-job executor: decode payload → adapt → encode update,
/// using a *fresh* [`WireContext`] per job.
///
/// Freshness is the point, not an optimization shortcut: a remote
/// worker cannot share the cloud's context, so the executor here uses
/// the same stateless setup the worker would, and the loopback/socket
/// bit-identity tests pin that equivalence. It is only sound for the
/// stateless `Raw` codec (delta and int8 need cloud-side registry or
/// residual state); [`ModularRunner::new`] enforces that.
pub struct ModularRunner {
    modular: ModularConfig,
    wire: WireConfig,
}

impl ModularRunner {
    /// Builds the executor. Panics on a stateful codec — socket/loopback
    /// job execution is `Raw`-only (the handshake rejects others too).
    pub fn new(modular: ModularConfig, wire: WireConfig) -> Self {
        assert!(
            wire.codec == nebula_wire::CodecKind::Raw,
            "transport job execution requires the stateless Raw codec, got {:?}",
            wire.codec
        );
        ModularRunner { modular, wire }
    }
}

impl JobRunner for ModularRunner {
    fn run(&self, job: &DispatchJob) -> Result<JobResult, TransportError> {
        let frame = match &job.spec {
            JobSpec::Modular { frame } => frame,
            JobSpec::Dense { .. } => {
                return Err(TransportError::Rejected("modular runner cannot execute dense jobs".into()))
            }
        };
        let mut wire = WireContext::new(self.wire);
        let payload =
            wire.decode_payload(job.device, frame).map_err(|e| TransportError::Wire(e.to_string()))?;
        // A CRC-clean frame is only well-formed: it may still describe a
        // sub-model of some other architecture.
        payload.validate(&self.modular).map_err(TransportError::Rejected)?;
        let mut rng = NebulaRng::from_state(job.rng_state)
            .ok_or_else(|| TransportError::Rejected("degenerate rng state".into()))?;
        let mut client = EdgeClient::from_payload(self.modular.clone(), &payload);
        client.adapt(&job.data, job.train.epochs, job.train.batch_size, job.train.lr, &mut rng);
        let update: EdgeUpdate = client.make_update_reusing(&job.data, payload);
        let mut out = Vec::new();
        wire.encode_update(job.device, &update, &mut out);
        Ok(JobResult::Frame(out))
    }
}

/// In-process transport: run the round's jobs on this process's threads
/// ([`nebula_tensor::par::map`]), results in job order.
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
        nebula_tensor::par::map(jobs, |job| runner.run(&job))
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
    fn fresh_context_matches_shared_context_under_raw() {
        // The invariant the whole remote path rests on: decoding and
        // re-encoding through a fresh WireContext yields the exact bytes
        // a shared cloud-side context produces, for Raw (± auth).
        for wire_cfg in [WireConfig::raw(), WireConfig::raw().with_auth([9u8; 16])] {
            let c = cloud();
            let cfg = c.model().config().clone();
            let job = job_for(&c, wire_cfg, 5);
            let runner = ModularRunner::new(cfg.clone(), wire_cfg);
            let remote = frame_of(runner.run(&job));

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
        b.record(nebula_wire::frame::ModuleKey::module(1, 0), nebula_wire::CodecKind::Raw, 0, 0, |_| {});
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
    fn modular_runner_rejects_dense_jobs_and_stateful_codecs() {
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
        assert!(matches!(runner.run(&job), Err(TransportError::Rejected(_))));
        assert!(std::panic::catch_unwind(|| {
            ModularRunner::new(ModularConfig::toy(16, 4), WireConfig::delta(0.01));
        })
        .is_err());
    }
}

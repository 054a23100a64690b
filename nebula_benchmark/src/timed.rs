//! Benchmark-owned wrappers that stamp the clock at the public seams the
//! driver crosses: every [`AdaptStrategy`] call and every
//! [`Transport::round_trip`]. They delegate everything and change
//! nothing, so a wrapped run computes exactly what a bare one does.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nebula_core::{
    DispatchJob, JobResult, RobustAggregator, RoundStats, SanitizePolicy, Transport, TransportError,
};
use nebula_nn::Layer;
use nebula_sim::strategy::{Footprint, StrategyState};
use nebula_sim::{AdaptStrategy, FedAvgStrategy, NebulaStrategy, SimWorld};
use nebula_telemetry::Telemetry;
use nebula_tensor::NebulaRng;

/// A strategy whose global model the benchmark can read from outside, to
/// check the outputs (finite, digest) and to seed the traced replay.
pub trait Benched: AdaptStrategy {
    fn global_params(&self) -> Vec<f32>;
}

impl Benched for NebulaStrategy {
    fn global_params(&self) -> Vec<f32> {
        self.cloud().model().param_vector()
    }
}

impl Benched for FedAvgStrategy {
    fn global_params(&self) -> Vec<f32> {
        match self.export_state() {
            Some(StrategyState::Dense(d)) => d.param_bits.iter().map(|&b| f32::from_bits(b)).collect(),
            _ => panic!("FedAvg under the Raw codec always exports dense state"),
        }
    }
}

/// Everything the traced replay needs to start from the exact state the
/// real run held when its first adaptation step began.
#[derive(Clone, Debug)]
pub struct StartState {
    pub params: Vec<f32>,
    pub harness_rng: [u64; 4],
    pub world_rng: [u64; 4],
    pub rounds_started: u64,
}

/// Work the traced run interleaves with the real steps, so that slow
/// drift of the machine hits every replica alike: called after each
/// step's end stamp with the step's index and the state the first step
/// started from. Its time is in no stamp.
pub type AfterStep = Box<dyn FnMut(usize, &StartState)>;

/// Clock stamps of one adaptation step.
#[derive(Clone, Copy, Debug)]
pub struct StepStamp {
    pub start: Instant,
    pub end: Instant,
    /// When control went back to the driver (after any [`AfterStep`]).
    pub returned: Instant,
}

pub struct Timed<S> {
    pub inner: S,
    /// Every adaptation step, in call order.
    pub steps: Vec<StepStamp>,
    pub offline: Option<Duration>,
    /// Time inside `device_accuracy`, and the number of calls.
    pub probe: (Duration, usize),
    /// When set, the state at the first step is captured and the hook
    /// runs after every step.
    pub after_step: Option<AfterStep>,
    start: Option<StartState>,
}

impl<S> Timed<S> {
    pub fn new(inner: S) -> Self {
        Timed {
            inner,
            steps: Vec::new(),
            offline: None,
            probe: (Duration::ZERO, 0),
            after_step: None,
            start: None,
        }
    }
}

impl<S: Benched> AdaptStrategy for Timed<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn offline(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) {
        let t = Instant::now();
        self.inner.offline(world, rng);
        self.offline = Some(t.elapsed());
    }

    fn track(&mut self, ids: &[usize]) {
        self.inner.track(ids)
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.inner.set_telemetry(telemetry)
    }

    fn set_sanitize_policy(&mut self, policy: SanitizePolicy) {
        AdaptStrategy::set_sanitize_policy(&mut self.inner, policy)
    }

    fn set_aggregator(&mut self, aggregator: RobustAggregator) {
        AdaptStrategy::set_aggregator(&mut self.inner, aggregator)
    }

    fn set_transport(&mut self, transport: Box<dyn Transport>) {
        self.inner.set_transport(transport)
    }

    fn adaptation_step(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) -> RoundStats {
        if self.after_step.is_some() && self.start.is_none() {
            self.start = Some(StartState {
                params: self.inner.global_params(),
                harness_rng: rng.state(),
                world_rng: world.rng_state(),
                rounds_started: world.rounds_started(),
            });
        }
        let start = Instant::now();
        let stats = self.inner.adaptation_step(world, rng);
        let end = Instant::now();
        if let (Some(hook), Some(state)) = (self.after_step.as_mut(), self.start.as_ref()) {
            hook(self.steps.len(), state);
        }
        self.steps.push(StepStamp { start, end, returned: Instant::now() });
        stats
    }

    fn device_accuracy(&mut self, world: &mut SimWorld, id: usize) -> f32 {
        let t = Instant::now();
        let acc = self.inner.device_accuracy(world, id);
        self.probe.0 += t.elapsed();
        self.probe.1 += 1;
        acc
    }

    fn footprint(&self, world: &SimWorld, id: usize) -> Footprint {
        self.inner.footprint(world, id)
    }

    fn export_state(&self) -> Option<StrategyState> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &StrategyState) -> Result<(), String> {
        self.inner.import_state(state)
    }
}

/// What a [`TimedTransport`] saw, shared with the code that installed it.
#[derive(Default)]
pub struct TransportLog {
    pub round_trips: Vec<Duration>,
    pub jobs_sent: u64,
    pub jobs_lost: u64,
    /// The first round's job vector, kept for replay through other
    /// transports.
    pub first_jobs: Option<Vec<DispatchJob>>,
}

pub struct TimedTransport {
    inner: Box<dyn Transport>,
    log: Arc<Mutex<TransportLog>>,
}

impl TimedTransport {
    pub fn new(inner: Box<dyn Transport>) -> (Self, Arc<Mutex<TransportLog>>) {
        let log = Arc::new(Mutex::new(TransportLog::default()));
        (TimedTransport { inner, log: Arc::clone(&log) }, log)
    }
}

impl Transport for TimedTransport {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn round_trip(&mut self, jobs: Vec<DispatchJob>) -> Vec<Result<JobResult, TransportError>> {
        let keep = {
            let log = self.log.lock().expect("transport log poisoned by a panicking round");
            log.first_jobs.is_none().then(|| jobs.clone())
        };
        let sent = jobs.len() as u64;
        let t = Instant::now();
        let results = self.inner.round_trip(jobs);
        let took = t.elapsed();
        let mut log = self.log.lock().expect("transport log poisoned by a panicking round");
        log.round_trips.push(took);
        log.jobs_sent += sent;
        log.jobs_lost += results.iter().filter(|r| r.is_err()).count() as u64;
        if let Some(jobs) = keep {
            log.first_jobs = Some(jobs);
        }
        results
    }
}

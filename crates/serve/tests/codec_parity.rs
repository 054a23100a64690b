//! Codec parity across transports: Nebula, FedAvg and HeteroFL, under
//! `Raw` with frame auth and under the int8 codec, run the same faulty
//! rounds on their default in-process transport and over a Unix-domain
//! socket with one worker and with two. Every run must land on the same
//! parameters and the same per-round bytes and fate trail.
//!
//! Under int8 this holds because no executor keeps codec state: a worker
//! decodes the payload frame as the cloud would and answers `Raw`, and
//! the coordinator re-cuts each upload with the sender's error-feedback
//! carry.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use nebula_baselines::DenseJobRunner;
use nebula_core::{DispatchJob, JobResult, JobSpec, Loopback, Transport, TransportError, WireConfig};
use nebula_data::{PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use nebula_modular::ModularConfig;
use nebula_nn::Layer;
use nebula_serve::worker::{run_worker, WorkerConfig};
use nebula_serve::{Coordinator, Endpoint, ServeConfig, WorkerRunConfig};
use nebula_sim::strategy::{DenseFlStrategy, RoundOutcome, StrategyConfig, StrategyState};
use nebula_sim::{
    AdaptStrategy, AdversaryPlan, AttackPersona, CorruptionKind, FaultPlan, FedAvgStrategy, HeteroFlStrategy,
    NebulaStrategy, ResourceSampler, RoundStats, SimWorld,
};
use nebula_tensor::NebulaRng;

const ROUNDS: usize = 3;

fn toy_cfg(wire: WireConfig) -> StrategyConfig {
    let mut modular = ModularConfig::toy(16, 4);
    modular.gate_noise_std = 0.3;
    let mut cfg = StrategyConfig::new(modular);
    cfg.devices_per_round = 6;
    cfg.local_epochs = 1;
    cfg.wire = wire;
    cfg
}

/// Corruption, a colluding adversary, transit tamper and stragglers.
/// The dense baselines have no gate, so their corruption must keep the
/// mean finite; Nebula's gate rejects a NaN poison.
fn toy_world(corruption: CorruptionKind) -> SimWorld {
    let synth = Synthesizer::new(SynthSpec::toy(), 1);
    let spec = PartitionSpec::new(12, Partitioner::LabelSkew { m: 2 });
    let mut world = SimWorld::new(synth, spec, 9, None, &ResourceSampler::default(), 5);
    world.set_fault_plan(FaultPlan {
        seed: 41,
        straggler_prob: 0.3,
        straggler_slowdown: 2.0,
        corrupt_prob: 0.25,
        corruption,
        explode_scale: 1.25,
        frame_corrupt_prob: 0.35,
        adversary: AdversaryPlan {
            seed: 7,
            frac: 0.25,
            persona: AttackPersona::GaussianNoise,
            collude: true,
            noise_std: 0.05,
            ..AdversaryPlan::none()
        },
        ..FaultPlan::none()
    });
    world
}

/// What a run leaves behind: each round's stats and simulated time, and
/// the parameters as bits.
#[derive(Debug, PartialEq)]
struct Run {
    trail: Vec<(RoundStats, u64)>,
    params: Vec<u32>,
}

fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|p| p.to_bits()).collect()
}

/// `ROUNDS` rounds of `s` through `transport` (`None`: its default), then
/// what `params` reads off the strategy.
fn run<S: AdaptStrategy>(
    mut s: S,
    corruption: CorruptionKind,
    transport: Option<Box<dyn Transport>>,
    round: fn(&mut S, &mut SimWorld, &mut NebulaRng) -> RoundOutcome,
    params: fn(S, &mut SimWorld, &mut NebulaRng) -> Vec<u32>,
) -> Run {
    let mut world = toy_world(corruption);
    let mut rng = NebulaRng::seed(3);
    if let Some(t) = transport {
        s.set_transport(t);
    }
    let trail = (0..ROUNDS)
        .map(|_| {
            let out = round(&mut s, &mut world, &mut rng);
            (out.stats, out.round_time_ms.to_bits())
        })
        .collect();
    Run { trail, params: params(s, &mut world, &mut rng) }
}

/// Loopback over the dense executor that keeps every job's shipped
/// parameters.
struct Tap {
    inner: Loopback,
    seen: Arc<Mutex<Vec<u32>>>,
}

impl Transport for Tap {
    fn kind(&self) -> &'static str {
        "tap"
    }

    fn round_trip(&mut self, jobs: Vec<DispatchJob>) -> Vec<Result<JobResult, TransportError>> {
        let mut seen = self.seen.lock().expect("tap lock");
        for job in &jobs {
            if let JobSpec::Dense { params, .. } = &job.spec {
                seen.push(job.device as u32);
                seen.extend(bits(params));
            }
        }
        drop(seen);
        self.inner.round_trip(jobs)
    }
}

/// A dense server's parameters: the exported bits where the codec allows
/// an export, then every vector one more round ships, through a tap.
fn dense_params<const HETERO: bool>(
    mut s: DenseFlStrategy<HETERO>,
    world: &mut SimWorld,
    rng: &mut NebulaRng,
) -> Vec<u32> {
    let mut params = match s.export_state() {
        Some(StrategyState::Dense(d)) => d.param_bits,
        _ => Vec::new(),
    };
    let seen = Arc::new(Mutex::new(Vec::new()));
    let tap = Tap { inner: Loopback::new(Arc::new(DenseJobRunner::default())), seen: seen.clone() };
    s.set_transport(Box::new(tap));
    s.single_round(world, rng);
    params.extend(seen.lock().expect("tap lock").iter());
    params
}

#[derive(Clone, Copy, Debug)]
enum Family {
    Nebula,
    FedAvg,
    HeteroFl,
}

fn run_family(family: Family, wire: WireConfig, transport: Option<Box<dyn Transport>>) -> Run {
    let cfg = toy_cfg(wire);
    match family {
        Family::Nebula => run(
            NebulaStrategy::new(cfg, 1),
            CorruptionKind::NanPoison,
            transport,
            NebulaStrategy::single_round,
            |s, _, _| bits(&s.cloud().model().param_vector()),
        ),
        Family::FedAvg => run(
            FedAvgStrategy::new(cfg, 1),
            CorruptionKind::Exploding,
            transport,
            FedAvgStrategy::single_round,
            dense_params,
        ),
        Family::HeteroFl => run(
            HeteroFlStrategy::new(cfg, 1),
            CorruptionKind::Exploding,
            transport,
            HeteroFlStrategy::single_round,
            dense_params,
        ),
    }
}

/// A coordinator on a Unix-domain socket and `n` worker threads.
struct Deployment {
    coordinator: Coordinator,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Deployment {
    fn start(tag: &str, n: usize, auth: Option<[u8; 16]>) -> Self {
        let path: PathBuf =
            std::env::temp_dir().join(format!("nebula-parity-{tag}-{}.sock", std::process::id()));
        let run_cfg = WorkerRunConfig {
            modular: Some(toy_cfg(WireConfig::raw()).modular),
            delta_threshold: 0.0,
            payload_auth: auth.is_some(),
        };
        let mut cfg = ServeConfig::new(run_cfg);
        cfg.auth_key = auth;
        cfg.deadline_ms = 60_000;
        cfg.uds = Some(path.clone());
        let coordinator = Coordinator::bind(cfg).expect("bind coordinator");
        let workers = (0..n)
            .map(|i| {
                let mut wc = WorkerConfig::new(Endpoint::Uds(path.clone()));
                wc.auth_key = auth;
                wc.name = format!("w{i}");
                thread::spawn(move || {
                    run_worker(wc).expect("worker runs to clean shutdown");
                })
            })
            .collect();
        assert!(coordinator.wait_for_workers(n, Duration::from_secs(20)), "workers must register within 20s");
        Deployment { coordinator, workers }
    }

    fn teardown(self) {
        self.coordinator.shutdown();
        for w in self.workers {
            w.join().expect("worker thread");
        }
    }
}

fn parity(wire: WireConfig, tag: &str) {
    let families = [Family::Nebula, Family::FedAvg, Family::HeteroFl];
    let local: Vec<Run> = families.iter().map(|&f| run_family(f, wire, None)).collect();
    // The plan must bite: tampered frames in every family, and (only
    // Nebula discounts late updates) stragglers accepted stale.
    for (family, base) in families.iter().zip(&local) {
        let mut all = RoundStats::default();
        base.trail.iter().for_each(|(stats, _)| all.merge(stats));
        let f = all.faults;
        let stale = matches!(family, Family::Nebula).then_some(f.stale > 0);
        assert!(f.corrupt_frames > 0 && f.participated > 0 && stale != Some(false), "{family:?}: {f:?}");
    }
    for workers in [1, 2] {
        let deployment = Deployment::start(&format!("{tag}-{workers}"), workers, wire.auth_key);
        for (&family, want) in families.iter().zip(&local) {
            let got = run_family(family, wire, Some(Box::new(deployment.coordinator.transport())));
            let case = format!("{family:?} under {:?} over UDS with {workers} worker(s)", wire.codec);
            assert_eq!(got.trail, want.trail, "{case}: per-round bytes and fates");
            assert!(got.params == want.params, "{case}: parameters differ");
        }
        deployment.teardown();
    }
}

#[test]
fn raw_auth_rounds_match_across_transports() {
    parity(WireConfig::raw().with_auth([0x3Cu8; 16]), "raw-auth");
}

#[test]
fn int8_rounds_match_across_transports() {
    parity(WireConfig::int8(), "int8");
}

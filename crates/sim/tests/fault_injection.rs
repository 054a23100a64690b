//! End-to-end fault-injection tests: the robust round loop under dropout,
//! corruption, stragglers and flaky links, plus the bit-identity guarantee
//! of `FaultPlan::none()`.

use nebula_core::{DispatchJob, JobResult, Loopback, ModularRunner, Transport, TransportError};
use nebula_data::{PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use nebula_modular::ModularConfig;
use nebula_nn::Layer;
use nebula_sim::strategy::StrategyConfig;
use nebula_sim::{
    AdaptStrategy, CorruptionKind, FaultPlan, FedAvgStrategy, NebulaStrategy, ResourceSampler, RoundPolicy,
    RoundReport, SimWorld,
};
use nebula_telemetry::{MemorySink, Telemetry};
use nebula_tensor::NebulaRng;
use std::sync::{Arc, Mutex};

fn toy_world(devices: usize, seed: u64) -> SimWorld {
    let synth = Synthesizer::new(SynthSpec::toy(), 1);
    let spec = PartitionSpec::new(devices, Partitioner::LabelSkew { m: 2 });
    SimWorld::new(synth, spec, 9, None, &ResourceSampler::default(), seed)
}

fn toy_cfg(devices_per_round: usize) -> StrategyConfig {
    let mut modular = ModularConfig::toy(16, 4);
    modular.gate_noise_std = 0.3;
    let mut cfg = StrategyConfig::new(modular);
    cfg.devices_per_round = devices_per_round;
    cfg.rounds_per_step = 2;
    cfg.pretrain_epochs = 2;
    cfg.proxy_samples = 200;
    cfg
}

fn faulty_plan() -> FaultPlan {
    FaultPlan {
        seed: 41,
        dropout_prob: 0.3,
        corrupt_prob: 0.3,
        corruption: CorruptionKind::NanPoison,
        ..FaultPlan::none()
    }
}

/// `sampled` must be fully accounted for by the participation/loss counters.
fn assert_conserved(r: &RoundReport) {
    assert_eq!(
        r.sampled,
        r.participated + r.dropped + r.crashed + r.deadline_dropped + r.link_dropped,
        "unaccounted devices: {r:?}"
    );
}

/// Installing `FaultPlan::none()` + the default policy must be bit-for-bit
/// identical to never touching the fault APIs at all.
#[test]
fn none_plan_is_bit_identical_to_untouched_world() {
    let run = |install: bool| {
        let mut world = toy_world(8, 5);
        if install {
            world.set_fault_plan(FaultPlan::none());
            world.set_round_policy(RoundPolicy::default());
        }
        let mut s = NebulaStrategy::new(toy_cfg(4), 1);
        let mut rng = NebulaRng::seed(3);
        let mut comms = Vec::new();
        for _ in 0..3 {
            let out = s.single_round(&mut world, &mut rng);
            assert_eq!(out.stats.faults.lost(), 0);
            assert_eq!(out.stats.faults.rejected, 0);
            comms.push(out.stats.comm);
        }
        (s.cloud().model().param_vector(), comms)
    };
    let (params_a, comms_a) = run(false);
    let (params_b, comms_b) = run(true);
    assert_eq!(comms_a, comms_b);
    assert_eq!(params_a.len(), params_b.len());
    for (i, (a, b)) in params_a.iter().zip(&params_b).enumerate() {
        assert!(a.to_bits() == b.to_bits(), "param {i} differs: {a} vs {b}");
    }
}

/// Under 30% dropout + NaN-corrupted updates every round still completes,
/// every corrupted update is rejected, and the cloud model stays finite.
#[test]
fn nebula_survives_dropout_and_corruption() {
    let mut world = toy_world(16, 5);
    world.set_fault_plan(faulty_plan());
    let mut s = NebulaStrategy::new(toy_cfg(8), 1);
    let mut rng = NebulaRng::seed(3);
    let mut total = RoundReport::default();
    for _ in 0..6 {
        let out = s.single_round(&mut world, &mut rng);
        assert_conserved(&out.stats.faults);
        total.merge(&out.stats.faults);
    }
    assert!(total.dropped > 0, "30% dropout never fired: {total:?}");
    assert!(total.rejected > 0, "corrupted updates never rejected: {total:?}");
    assert!(total.participated > 0, "nobody ever participated: {total:?}");
    assert!(
        s.cloud().model().param_vector().iter().all(|p| p.is_finite()),
        "NaN leaked through the sanitize gate"
    );
}

/// The same corruption poisons FedAvg's global model: the baselines have
/// no per-update gate, which is exactly the contrast the sweep measures.
#[test]
fn fedavg_has_no_gate_and_gets_poisoned() {
    let mut world = toy_world(16, 5);
    world.set_fault_plan(FaultPlan { corrupt_prob: 1.0, ..faulty_plan() });
    let mut s = FedAvgStrategy::new(toy_cfg(8), 1);
    let mut rng = NebulaRng::seed(3);
    let out = s.single_round(&mut world, &mut rng);
    assert!(out.stats.faults.participated > 0);
    // The poisoned server is what every device now evaluates.
    let acc = s.device_accuracy(&mut world, 0);
    assert!(acc.is_nan() || acc <= 0.5, "poisoned FedAvg still accurate: {acc}");
}

/// A deadline derived from the latency model drops extreme stragglers.
#[test]
fn deadline_drops_stragglers() {
    let mut world = toy_world(20, 5);
    world.set_fault_plan(FaultPlan {
        seed: 7,
        straggler_prob: 0.4,
        straggler_slowdown: 200.0,
        ..FaultPlan::none()
    });
    world.set_round_policy(RoundPolicy { deadline_factor: Some(3.0), ..RoundPolicy::default() });
    let mut s = NebulaStrategy::new(toy_cfg(10), 1);
    let mut rng = NebulaRng::seed(3);
    let mut total = RoundReport::default();
    let mut capped_rounds = 0;
    for _ in 0..4 {
        let out = s.single_round(&mut world, &mut rng);
        assert_conserved(&out.stats.faults);
        if out.stats.faults.deadline_dropped > 0 {
            capped_rounds += 1;
        }
        assert!(out.round_time_ms.is_finite());
        total.merge(&out.stats.faults);
    }
    assert!(total.deadline_dropped > 0, "no straggler ever hit the deadline: {total:?}");
    assert!(capped_rounds > 0);
    assert!(total.participated > 0, "deadline starved every round: {total:?}");
}

/// Transit corruption on upload frames: every corrupted frame is caught
/// by the wire CRC and re-sent through the retry path — nothing corrupted
/// reaches aggregation, and with a retry budget nobody is lost.
#[test]
fn frame_corruption_is_crc_detected_and_retried() {
    let mut world = toy_world(12, 5);
    world.set_fault_plan(FaultPlan { seed: 17, frame_corrupt_prob: 0.5, ..FaultPlan::none() });
    let mut s = NebulaStrategy::new(toy_cfg(6), 1);
    let mut rng = NebulaRng::seed(3);
    let mut total = RoundReport::default();
    let mut comm = nebula_sim::CommTracker::new();
    for _ in 0..4 {
        let out = s.single_round(&mut world, &mut rng);
        assert_conserved(&out.stats.faults);
        total.merge(&out.stats.faults);
        comm.merge(&out.stats.comm);
    }
    assert!(total.corrupt_frames > 0, "50% frame corruption never fired: {total:?}");
    // Default policy has retries: every corrupted frame is re-sent, so no
    // device is lost and every resend is accounted.
    assert_eq!(total.link_dropped, 0, "{total:?}");
    assert_eq!(total.retried, total.corrupt_frames, "{total:?}");
    assert_eq!(comm.retries, total.retried);
    assert!(comm.retry_bytes > 0, "corrupted attempts must burn bytes");
    assert!(total.participated > 0);
    assert!(
        s.cloud().model().param_vector().iter().all(|p| p.is_finite()),
        "corrupted frame leaked into aggregation"
    );
}

/// Without a retry budget a corrupted frame is fatal for the round: the
/// device is dropped (link_dropped) and its update never aggregates —
/// there is no silent acceptance of a CRC-failed frame.
#[test]
fn frame_corruption_without_retries_drops_devices() {
    let mut world = toy_world(12, 5);
    world.set_fault_plan(FaultPlan { seed: 19, frame_corrupt_prob: 1.0, ..FaultPlan::none() });
    world.set_round_policy(RoundPolicy { max_retries: 0, ..RoundPolicy::default() });
    let mut s = NebulaStrategy::new(toy_cfg(6), 1);
    let mut rng = NebulaRng::seed(3);
    let before = s.cloud().model().param_vector();
    let out = s.single_round(&mut world, &mut rng);
    assert_conserved(&out.stats.faults);
    assert_eq!(out.stats.faults.participated, 0, "{:?}", out.stats.faults);
    assert_eq!(out.stats.faults.link_dropped, out.stats.faults.corrupt_frames, "{:?}", out.stats.faults);
    assert!(out.stats.faults.corrupt_frames > 0);
    // Nothing aggregated → the cloud model is untouched.
    let after = s.cloud().model().param_vector();
    assert_eq!(before.len(), after.len());
    for (a, b) in before.iter().zip(&after) {
        assert_eq!(a.to_bits(), b.to_bits(), "aggregation ran on corrupted frames");
    }
}

/// The dense baselines account frame corruption through the same
/// retry/link-drop bookkeeping.
#[test]
fn baseline_frame_corruption_accounts_retries() {
    let mut world = toy_world(12, 5);
    world.set_fault_plan(FaultPlan { seed: 23, frame_corrupt_prob: 0.6, ..FaultPlan::none() });
    let mut s = FedAvgStrategy::new(toy_cfg(6), 1);
    let mut rng = NebulaRng::seed(3);
    let mut total = RoundReport::default();
    for _ in 0..3 {
        let out = s.single_round(&mut world, &mut rng);
        assert_conserved(&out.stats.faults);
        total.merge(&out.stats.faults);
    }
    assert!(total.corrupt_frames > 0, "{total:?}");
    assert_eq!(total.link_dropped, 0, "retry budget should save every device: {total:?}");
    assert!(total.retried >= total.corrupt_frames, "{total:?}");
}

/// Flaky links cost retries (and wasted retry bytes); links whose retry
/// budget runs out drop the device.
#[test]
fn flaky_links_account_retries() {
    let mut world = toy_world(16, 5);
    world.set_fault_plan(FaultPlan {
        seed: 13,
        link_flake_prob: 0.8,
        bandwidth_collapse: 10.0,
        ..FaultPlan::none()
    });
    let mut s = NebulaStrategy::new(toy_cfg(8), 1);
    let mut rng = NebulaRng::seed(3);
    let mut comm = nebula_sim::CommTracker::new();
    let mut total = RoundReport::default();
    for _ in 0..4 {
        let out = s.single_round(&mut world, &mut rng);
        assert_conserved(&out.stats.faults);
        comm.merge(&out.stats.comm);
        total.merge(&out.stats.faults);
    }
    assert!(comm.retries > 0, "no retries recorded: {comm:?}");
    assert!(comm.retry_bytes > 0);
    assert_eq!(comm.retries, total.retried);
    assert!(comm.total_bytes() > comm.down_bytes + comm.up_bytes, "retry bytes not wasted traffic");
}

/// Loopback over the modular executor that records the device of every
/// job a `round_trip` is handed.
struct JobTap {
    inner: Loopback,
    devices: Arc<Mutex<Vec<u64>>>,
}

impl Transport for JobTap {
    fn kind(&self) -> &'static str {
        "job-tap"
    }

    fn round_trip(&mut self, jobs: Vec<DispatchJob>) -> Vec<Result<JobResult, TransportError>> {
        self.devices.lock().expect("tap lock").extend(jobs.iter().map(|j| j.device));
        self.inner.round_trip(jobs)
    }
}

/// A Nebula strategy training through a [`JobTap`], and the tap's list.
fn tapped_nebula(devices_per_round: usize) -> (NebulaStrategy, Arc<Mutex<Vec<u64>>>) {
    let cfg = toy_cfg(devices_per_round);
    let runner = ModularRunner::new(cfg.modular.clone(), cfg.wire);
    let mut s = NebulaStrategy::new(cfg, 1);
    let devices = Arc::new(Mutex::new(Vec::new()));
    s.set_transport(Box::new(JobTap { inner: Loopback::new(Arc::new(runner)), devices: devices.clone() }));
    (s, devices)
}

/// The round gates before it trains: a device that crashes before its
/// upload is never dispatched. Its download is still paid for, the report
/// still accounts for it, and a round of nothing but crashes leaves the
/// cloud exactly as it was. (The golden digests prove trajectories do not
/// move; only a tap sees how many jobs were trained.)
#[test]
fn crashed_devices_are_never_dispatched() {
    let mut world = toy_world(12, 5);
    world.set_fault_plan(FaultPlan { seed: 19, crash_prob: 1.0, ..FaultPlan::none() });
    let (mut s, dispatched) = tapped_nebula(6);
    let before = s.cloud().model().param_vector();
    let out = s.single_round(&mut world, &mut NebulaRng::seed(3));
    let (r, c) = (out.stats.faults, out.stats.comm);
    assert_eq!(dispatched.lock().unwrap().len(), 0, "a crashed device's job crossed the transport");
    assert_conserved(&r);
    assert_eq!((r.sampled, r.crashed, r.participated), (6, 6, 0), "{r:?}");
    assert_eq!((c.downloads, c.uploads), (6, 0), "every crashed device still got its download: {c:?}");
    assert!(c.down_bytes > 0);
    let after = s.cloud().model().param_vector();
    assert_eq!(before.len(), after.len());
    for (a, b) in before.iter().zip(&after) {
        assert_eq!(a.to_bits(), b.to_bits(), "an all-crashed round must leave the cloud untouched");
    }
}

/// A straggler the deadline cuts is known before anyone trains, so its
/// job is never dispatched either: the transport sees exactly the devices
/// whose upload is due.
#[test]
fn deadline_dropped_devices_are_never_dispatched() {
    let mut world = toy_world(20, 5);
    world.set_fault_plan(FaultPlan {
        seed: 7,
        straggler_prob: 0.4,
        straggler_slowdown: 200.0,
        ..FaultPlan::none()
    });
    world.set_round_policy(RoundPolicy { deadline_factor: Some(3.0), ..RoundPolicy::default() });
    let (mut s, dispatched) = tapped_nebula(10);
    let sink = Arc::new(MemorySink::new());
    s.set_telemetry(Telemetry::new(sink.clone()));
    let mut rng = NebulaRng::seed(3);
    let mut cut = 0;
    for _ in 0..4 {
        dispatched.lock().unwrap().clear();
        let seen = sink.len();
        let r = s.single_round(&mut world, &mut rng).stats.faults;
        assert_conserved(&r);
        // With only stragglers injected, every device the deadline spares
        // reports and is accepted.
        assert_eq!(r.sampled, r.participated + r.deadline_dropped, "{r:?}");
        let late: Vec<u64> = sink.events()[seen..]
            .iter()
            .filter(|e| e.kind == "client" && e.text["outcome"] == "deadline_dropped")
            .map(|e| e.ints["device"])
            .collect();
        assert_eq!(late.len() as u64, r.deadline_dropped);
        let jobs = dispatched.lock().unwrap();
        assert_eq!(jobs.len() as u64, r.participated, "dispatched {jobs:?}, cut {late:?}");
        assert!(late.iter().all(|d| !jobs.contains(d)), "dispatched {jobs:?}, cut {late:?}");
        cut += r.deadline_dropped;
    }
    assert!(cut > 0, "no straggler ever hit the deadline");
}

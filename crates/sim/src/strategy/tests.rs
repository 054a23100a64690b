use super::*;
use crate::resources::ResourceSampler;
use nebula_core::ModularRunner;
use nebula_data::{PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use std::sync::atomic::{AtomicU64, Ordering};

fn toy_world(devices: usize) -> SimWorld {
    let synth = Synthesizer::new(SynthSpec::toy(), 1);
    let spec = PartitionSpec::new(devices, Partitioner::LabelSkew { m: 2 });
    SimWorld::new(synth, spec, 9, None, &ResourceSampler::default(), 5)
}

fn toy_cfg() -> StrategyConfig {
    let mut modular = ModularConfig::toy(16, 4);
    modular.gate_noise_std = 0.3;
    let mut cfg = StrategyConfig::new(modular);
    cfg.devices_per_round = 4;
    cfg.rounds_per_step = 2;
    cfg.pretrain_epochs = 6;
    cfg.proxy_samples = 300;
    cfg.finetune_epochs = 4;
    cfg
}

#[test]
fn all_strategies_run_one_step() {
    let mut rng = NebulaRng::seed(3);
    let mut strategies: Vec<Box<dyn AdaptStrategy>> = vec![
        Box::new(NoAdaptStrategy::new(toy_cfg(), 1)),
        Box::new(LocalAdaptStrategy::new(toy_cfg(), 1)),
        Box::new(AdaptiveNetStrategy::new(toy_cfg(), 1)),
        Box::new(FedAvgStrategy::new(toy_cfg(), 1)),
        Box::new(HeteroFlStrategy::new(toy_cfg(), 1)),
        Box::new(NebulaStrategy::new(toy_cfg(), 1)),
    ];
    for s in &mut strategies {
        let mut world = toy_world(8);
        s.offline(&mut world, &mut rng);
        s.track(&[0, 1]);
        let report = s.adaptation_step(&mut world, &mut rng);
        let acc = s.device_accuracy(&mut world, 0);
        assert!((0.0..=1.0).contains(&acc), "{}: acc {acc}", s.name());
        let fp = s.footprint(&world, 0);
        assert!(fp.params > 0, "{}: zero params", s.name());
        // Strategies that download models must move bytes (AN pays a
        // one-time branch download); purely local ones must not.
        match s.name() {
            "FA" | "HFL" | "Nebula" | "AN" => {
                assert!(report.comm.total_bytes() > 0, "{}", s.name())
            }
            _ => assert_eq!(report.comm.total_bytes(), 0, "{}", s.name()),
        }
    }
}

#[test]
fn nebula_comm_cheaper_than_fedavg() {
    let mut rng = NebulaRng::seed(4);
    let mut world_a = toy_world(8);
    let mut fa = FedAvgStrategy::new(toy_cfg(), 1);
    fa.offline(&mut world_a, &mut rng);
    let fa_report = fa.adaptation_step(&mut world_a, &mut rng);

    let mut world_b = toy_world(8);
    let mut nb = NebulaStrategy::new(toy_cfg(), 1);
    nb.offline(&mut world_b, &mut rng);
    nb.track(&[]);
    let nb_report = nb.adaptation_step(&mut world_b, &mut rng);

    assert!(
        nb_report.comm.total_bytes() < fa_report.comm.total_bytes(),
        "Nebula {} vs FedAvg {}",
        nb_report.comm.total_bytes(),
        fa_report.comm.total_bytes()
    );
}

#[test]
fn nebula_variants_differ_in_behaviour() {
    let mut rng = NebulaRng::seed(5);
    let mut world = toy_world(6);
    let mut no_cloud = NebulaStrategy::with_variant(toy_cfg(), 1, NebulaVariant::NoCloud);
    no_cloud.offline(&mut world, &mut rng);
    no_cloud.track(&[0]);
    let r1 = no_cloud.adaptation_step(&mut world, &mut rng);
    // w/o cloud: no collaborative rounds → only the one-time download.
    assert_eq!(r1.comm.rounds, 0);
    let r2 = no_cloud.adaptation_step(&mut world, &mut rng);
    // Second step: no new download at all.
    assert_eq!(r2.comm.downloads, 0, "w/o-cloud re-downloaded");
}

/// A transport that loses every job.
struct BlackHole;

impl Transport for BlackHole {
    fn kind(&self) -> &'static str {
        "black-hole"
    }

    fn round_trip(
        &mut self,
        jobs: Vec<nebula_core::DispatchJob>,
    ) -> Vec<Result<nebula_core::JobResult, nebula_core::TransportError>> {
        jobs.iter().map(|_| Err(nebula_core::TransportError::Closed("worker died".into()))).collect()
    }
}

#[test]
fn dense_round_that_loses_every_job_is_not_poisoned() {
    let mut world = toy_world(8);
    world.set_fault_plan(crate::FaultPlan {
        corrupt_prob: 1.0,
        adversary: crate::AdversaryPlan { frac: 1.0, ..crate::AdversaryPlan::none() },
        ..crate::FaultPlan::none()
    });
    let mut s = FedAvgStrategy::new(toy_cfg(), 1);
    s.set_transport(Box::new(BlackHole));
    let before = s.export_state();
    let out = s.single_round(&mut world, &mut NebulaRng::seed(3));
    assert_eq!(out.stats.faults.participated, 0);
    assert_eq!(out.stats.faults.link_dropped, 4);
    assert_eq!((out.stats.comm.downloads, out.stats.comm.uploads), (4, 0));
    // Nothing was averaged, so the corrupt and Byzantine clients had
    // no mean to poison: the server is exactly what it was.
    assert_eq!(s.export_state(), before);
}

/// Trains every job honestly, then rewrites the first job's update in
/// one of four shapes the aggregate cannot take and frames it again as an
/// executor would, `Raw` under that device's key: a frame the cloud
/// decodes cleanly. Notes the frame's length in `sent`.
struct Misshapen {
    inner: Loopback,
    wire: WireConfig,
    shape: usize,
    sent: Arc<AtomicU64>,
}

impl Transport for Misshapen {
    fn kind(&self) -> &'static str {
        "misshapen"
    }

    fn round_trip(
        &mut self,
        jobs: Vec<nebula_core::DispatchJob>,
    ) -> Vec<Result<nebula_core::JobResult, nebula_core::TransportError>> {
        let device = jobs[0].device;
        let mut results = self.inner.round_trip(jobs);
        let Ok(JobResult::Frame(frame)) = &mut results[0] else { panic!("honest job failed") };
        let mut wire = WireContext::new(WireConfig { codec: CodecKind::Raw, ..self.wire });
        let mut update = wire.decode_update_from(device, frame).expect("honest update decodes");
        match self.shape {
            0 => drop(update.module_params.values_mut().find(|m| !m.is_empty()).expect("a module").pop()),
            1 => drop(update.shared_params.pop()),
            2 => drop(update.importance.pop()),
            _ => drop(update.importance[0].pop()),
        }
        let n = wire.encode_update(device, &update, frame);
        self.sent.store(n as u64, Ordering::Relaxed);
        results
    }
}

#[test]
fn misshapen_update_is_link_dropped_not_aggregated() {
    // A module record, the shared record or an importance row one element
    // short, or an importance row missing; under Raw with auth and under
    // int8, in a clean round and in one where every device is corrupt and
    // Byzantine, whose update the cloud re-cuts after the sabotage: the
    // cloud must refuse the misshapen update before anything indexes it,
    // and bill the frame as it came, not a re-cut of it.
    let hostile = crate::FaultPlan {
        corrupt_prob: 1.0,
        adversary: crate::AdversaryPlan { frac: 1.0, ..crate::AdversaryPlan::none() },
        ..crate::FaultPlan::none()
    };
    for wire in [WireConfig::raw().with_auth([5u8; 16]), WireConfig::int8()] {
        for plan in [crate::FaultPlan::none(), hostile] {
            for shape in 0..4 {
                let case = format!("{:?}, corrupt {}, shape {shape}", wire.codec, plan.corrupt_prob);
                let cfg = toy_cfg();
                let runner = ModularRunner::new(cfg.modular.clone(), wire);
                let mut s = NebulaStrategy::new(StrategyConfig { wire, ..cfg }, 1);
                let sent = Arc::new(AtomicU64::new(0));
                let inner = Loopback::new(Arc::new(runner));
                s.set_transport(Box::new(Misshapen { inner, wire, shape, sent: sent.clone() }));
                let mut world = toy_world(8);
                world.set_fault_plan(plan);
                let out = s.single_round(&mut world, &mut NebulaRng::seed(3));
                let faults = out.stats.faults;
                assert_eq!((faults.participated, faults.link_dropped), (3, 1), "{case}");
                // The refused frame is billed as a retry and not resent.
                assert_eq!((out.stats.comm.uploads, faults.retried), (3, 0), "{case}");
                assert_eq!(out.stats.comm.retry_bytes, sent.load(Ordering::Relaxed), "{case}");
            }
        }
    }
}

#[test]
fn heterofl_assigns_smaller_ratios_to_weak_devices() {
    let world = toy_world(20);
    let s = HeteroFlStrategy::new(toy_cfg(), 1);
    let mut ratios: Vec<f32> = world.devices.iter().map(|d| s.ratio_for(d)).collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!(ratios[0] < ratios[ratios.len() - 1], "no ratio heterogeneity");
}

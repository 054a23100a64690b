//! Seeded network-chaos harness for the serving plane (DESIGN.md §16):
//! five failure scenarios, each driving the same toy Nebula run the
//! serving-plane tests pin through a live coordinator/worker deployment
//! over Unix-domain sockets while a seeded [`nebula_serve::NetFaultPlan`]
//! breaks the links on purpose:
//!
//! * `kill_worker`      — a worker's link dies mid-run; its jobs
//!   reassign under the retry budget and the worker rejoins.
//! * `stall_worker`     — a worker goes half-open (mute, socket open);
//!   liveness pings evict it well under the round deadline.
//! * `flaky_link`       — a lossy/duplicating link; lost results degrade
//!   to `link_dropped` fates and every job resolves exactly once.
//! * `hedge_slow_worker`— a crawling worker; hedged re-dispatch rescues
//!   the round and the late originals are absorbed as duplicates.
//! * `kill_coordinator` — the coordinator is killed after a round
//!   commits (durable journal); workers rejoin the next incarnation and
//!   the resumed run lands on the uninterrupted bits.
//!
//! Every fault roll derives from the scenario seed (11…15, the harness's
//! own) and the outbound frame index, so the whole grid is deterministic:
//! one row per scenario — scenario, seed, pass, trajectory digest, fate
//! accounting — pinned at quick scale, with the scenario's wall-clock
//! (not deterministic, not gated) riding along. Quick scale drops to 2
//! rounds per scenario.

use std::thread;
use std::time::{Duration, Instant};

use crate::Ctx;
use nebula_data::{PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use nebula_modular::ModularConfig;
use nebula_nn::Layer;
use nebula_serve::worker::{run_worker, WorkerConfig};
use nebula_serve::{Coordinator, Endpoint, NetFaultPlan, ServeConfig, WorkerRunConfig};
use nebula_sim::strategy::StrategyConfig;
use nebula_sim::{
    AdaptStrategy, ChaosControl, DurabilityConfig, ExperimentConfig, KillSpot, NebulaStrategy,
    ResourceSampler, RoundStats, RunError, Runner, SimWorld,
};
use nebula_tensor::NebulaRng;
use serde::Serialize;
use serde_json::Value;

/// One scenario's deterministic outcome.
#[derive(Serialize)]
struct ScenarioRecord {
    scenario: String,
    seed: u64,
    rounds: usize,
    pass: bool,
    digest: String,
    participated: u64,
    link_dropped: u64,
    notes: Vec<String>,
}

impl ScenarioRecord {
    fn new(
        scenario: &str,
        seed: u64,
        rounds: usize,
        digest: u64,
        stats: &RoundStats,
        notes: Vec<String>,
    ) -> Self {
        Self {
            scenario: scenario.into(),
            seed,
            rounds,
            pass: notes.is_empty(),
            digest: format!("{digest:016x}"),
            participated: stats.faults.participated,
            link_dropped: stats.faults.link_dropped,
            notes,
        }
    }
}

/// The serving-plane toy pin (same as the nebula-serve integration
/// tests).
fn toy_cfg() -> StrategyConfig {
    let mut modular = ModularConfig::toy(16, 4);
    modular.gate_noise_std = 0.3;
    let mut cfg = StrategyConfig::new(modular);
    cfg.devices_per_round = 4;
    cfg.rounds_per_step = 1;
    cfg.pretrain_epochs = 1;
    cfg.proxy_samples = 100;
    cfg.local_epochs = 1;
    cfg
}

fn toy_world() -> SimWorld {
    let synth = Synthesizer::new(SynthSpec::toy(), 1);
    let spec = PartitionSpec::new(8, Partitioner::LabelSkew { m: 2 });
    SimWorld::new(synth, spec, 9, None, &ResourceSampler::default(), 5)
}

fn fnv_digest(params: &[f32]) -> u64 {
    params
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, p| (h ^ p.to_bits() as u64).wrapping_mul(0x1000_0000_01b3))
}

/// A run's final parameter digest and its accounting.
type Outcome = (u64, RoundStats);

/// Runs `rounds` rounds of the toy run — through `deployment`'s
/// coordinator when one is given, in process otherwise — and returns the
/// digest of the final cloud parameters with the run's accounting. The
/// in-process run is the undisturbed trajectory the fault-tolerant
/// scenarios must land on.
fn drive(rounds: usize, deployment: Option<&Deployment>) -> Outcome {
    let mut world = toy_world();
    let mut s = NebulaStrategy::new(toy_cfg(), 1);
    if let Some(d) = deployment {
        s.set_transport(Box::new(d.coordinator.transport()));
    }
    let mut rng = NebulaRng::seed(3);
    let mut stats = RoundStats::default();
    for _ in 0..rounds {
        stats.merge(&s.single_round(&mut world, &mut rng).stats);
    }
    (fnv_digest(&s.cloud().model().param_vector()), stats)
}

/// Per-deployment knobs a scenario turns.
struct DeployOpts {
    tag: String,
    /// One worker per entry; `Some` arms that worker's chaos plan.
    workers: Vec<Option<NetFaultPlan>>,
    threads: usize,
    liveness_ms: u64,
    hedge_ms: u64,
    deadline_ms: u64,
}

struct Deployment {
    coordinator: Coordinator,
    path: std::path::PathBuf,
    workers: Vec<thread::JoinHandle<()>>,
}

fn deploy(opts: DeployOpts) -> Deployment {
    let worker_cfg = WorkerRunConfig { modular: Some(toy_cfg().modular), ..WorkerRunConfig::default() };
    let mut cfg = ServeConfig::new(worker_cfg);
    let path = std::env::temp_dir().join(format!("serve-chaos-{}-{}.sock", opts.tag, std::process::id()));
    cfg.uds = Some(path.clone());
    cfg.deadline_ms = opts.deadline_ms;
    cfg.liveness_timeout_ms = opts.liveness_ms;
    cfg.hedge_after_ms = opts.hedge_ms;
    let coordinator = Coordinator::bind(cfg).expect("bind coordinator");
    let n = opts.workers.len();
    let threads = opts.threads;
    let workers = opts
        .workers
        .into_iter()
        .enumerate()
        .map(|(i, chaos)| {
            let ep = Endpoint::Uds(path.clone());
            thread::spawn(move || {
                let mut wc = WorkerConfig::new(ep);
                wc.name = format!("chaos-w{i}");
                wc.threads = threads;
                wc.chaos = chaos;
                let armed = wc.chaos.is_some();
                if armed {
                    // Fail the re-dial fast: a chaos-killed link near the
                    // end of the run leaves this worker mid-rejoin when
                    // the deployment tears down, and the full dial budget
                    // would stall teardown for a minute.
                    wc.connect_attempts = 4;
                }
                match run_worker(wc) {
                    Ok(_) => {}
                    // Expected for a chaos-armed worker racing teardown:
                    // the socket path is already unlinked, the rejoin
                    // loop exhausts its dial budget and reports Io.
                    Err(nebula_serve::ServeError::Io(why)) if armed && why.contains("connect") => {}
                    Err(e) => panic!("chaos worker died: {e}"),
                }
            })
        })
        .collect();
    assert!(coordinator.wait_for_workers(n, Duration::from_secs(30)), "chaos workers must register");
    Deployment { coordinator, path, workers }
}

impl Deployment {
    fn teardown(self) {
        self.coordinator.shutdown();
        for w in self.workers {
            w.join().expect("chaos worker thread");
        }
    }
}

/// Deploys two workers, the second armed with `plan`, and runs `rounds`
/// through them. Every such scenario holds the fault-tolerant
/// invariants: baseline bits, zero dropped fates, full participation.
fn against_baseline(
    scenario: &str,
    plan: NetFaultPlan,
    liveness_ms: u64,
    hedge_ms: u64,
    rounds: usize,
    base: &Outcome,
) -> ScenarioRecord {
    let deadline_ms = 60_000;
    let workers = vec![None, Some(plan)];
    let d =
        deploy(DeployOpts { tag: scenario.into(), workers, threads: 2, liveness_ms, hedge_ms, deadline_ms });
    let start = Instant::now();
    let (digest, stats) = drive(rounds, Some(&d));
    let elapsed = start.elapsed();
    d.teardown();
    let (base_digest, base) = (base.0, &base.1.faults);
    let mut notes = Vec::new();
    if digest != base_digest {
        notes.push(format!("trajectory diverged: digest {digest:016x} != baseline {base_digest:016x}"));
    }
    if stats.faults.link_dropped != base.link_dropped {
        notes.push(format!(
            "{} jobs degraded to link_dropped; baseline has {}",
            stats.faults.link_dropped, base.link_dropped
        ));
    }
    if stats.faults.participated != base.participated {
        notes.push(format!("participation {} != baseline {}", stats.faults.participated, base.participated));
    }
    // With liveness armed, eviction must beat the deadline by a wide
    // margin — a stalled worker costing `deadline_ms` per round is exactly
    // the failure liveness exists to prevent. Wall-clock, but with a 30x
    // margin the bound only trips when liveness is genuinely broken.
    if liveness_ms > 0 && elapsed > Duration::from_millis(deadline_ms / 2) {
        notes.push(format!(
            "{} rounds took {:.1}s against a {}s deadline: eviction is not beating the barrier",
            rounds,
            elapsed.as_secs_f64(),
            deadline_ms / 1000
        ));
    }
    ScenarioRecord::new(scenario, plan.seed, rounds, digest, &stats, notes)
}

/// A lossy, duplicating link on the only worker: dropped results
/// degrade to `link_dropped` fates at the deadline, duplicated frames
/// are absorbed, and every job resolves exactly once. Single worker,
/// one executor thread, liveness and hedging off — the outbound frame
/// sequence (and so every seeded fault roll) is fully deterministic.
fn flaky_link(rounds: usize) -> ScenarioRecord {
    // Quick mode's 2 rounds push only ~8 frames through the lossy link --
    // too few for 25% rolls to reliably engage. Floor the scenario at 4
    // rounds so the dropped-frame invariant stays meaningful at any scale.
    let rounds = rounds.max(4);
    let seed = 13;
    let plan = NetFaultPlan { drop_prob: 0.25, dup_prob: 0.25, ..NetFaultPlan::seeded(seed) };
    let d = deploy(DeployOpts {
        tag: "flaky".into(),
        workers: vec![Some(plan)],
        threads: 1,
        liveness_ms: 0,
        hedge_ms: 0,
        // Wide enough that the only way a job misses the deadline is a
        // dropped result frame — execution time never competes.
        deadline_ms: 2_000,
    });
    let (digest, stats) = drive(rounds, Some(&d));
    let mut notes = Vec::new();
    let jobs = (rounds * 4) as u64;
    // The accounting identity: participation + dropped fates covers the
    // dispatched jobs exactly — no job lost twice, none resolved twice.
    if stats.faults.participated + stats.faults.link_dropped != jobs {
        notes.push(format!(
            "fate accounting leaks: {} participated + {} dropped != {jobs} dispatched",
            stats.faults.participated, stats.faults.link_dropped
        ));
    }
    if stats.faults.link_dropped == 0 {
        notes.push("a 25% lossy link dropped nothing: chaos is not engaging".into());
    }
    d.teardown();
    ScenarioRecord::new("flaky_link", seed, rounds, digest, &stats, notes)
}

/// The coordinator is killed after a round's journal append commits;
/// the workers outlive it, rejoin the next incarnation on the same
/// socket path, and the resumed durable run must land on the exact bits
/// of an uninterrupted in-process run.
fn kill_coordinator(rounds: usize) -> ScenarioRecord {
    let seed = 15;
    let kill_round = (rounds as u64 / 2).max(1);
    let exp = ExperimentConfig { eval_devices: 3, seed: 11 };
    const TARGET: f32 = 1.01; // unreachable: the run is "exactly N rounds"

    let base = {
        let mut world = toy_world();
        let mut s = NebulaStrategy::new(toy_cfg(), 1);
        let out = Runner::new(&mut world, &mut s)
            .config(exp)
            .target(TARGET, rounds, 1)
            .run()
            .expect("in-process baseline");
        (out.rounds, out.final_accuracy.to_bits(), fnv_digest(&s.cloud().model().param_vector()))
    };

    let dir = std::env::temp_dir().join(format!("serve-chaos-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let first = deploy(DeployOpts {
        tag: "crash".into(),
        workers: vec![None, None],
        threads: 2,
        liveness_ms: 0,
        hedge_ms: 0,
        deadline_ms: 60_000,
    });
    let path = first.path.clone();
    {
        let mut world = toy_world();
        let mut s = NebulaStrategy::new(toy_cfg(), 1);
        let err = Runner::new(&mut world, &mut s)
            .config(exp)
            .target(TARGET, rounds, 1)
            .durable(DurabilityConfig::new(&dir))
            .chaos(ChaosControl { kill: Some((kill_round, KillSpot::AfterAppend)) })
            .transport(Box::new(first.coordinator.transport()))
            .run()
            .expect_err("the armed kill must fire");
        assert_eq!(err, RunError::Killed { round: kill_round }, "unexpected run error");
    }
    // Crash semantics: no shutdown notices, connections slammed shut.
    // The workers' rejoin loops now dial the unlinked path until the
    // second incarnation binds it.
    first.coordinator.abort();

    let worker_cfg = WorkerRunConfig { modular: Some(toy_cfg().modular), ..WorkerRunConfig::default() };
    let mut cfg = ServeConfig::new(worker_cfg);
    cfg.uds = Some(path);
    cfg.deadline_ms = 60_000;
    let second = Coordinator::bind(cfg).expect("rebind coordinator");
    assert!(
        second.wait_for_workers(2, Duration::from_secs(30)),
        "workers must rejoin the second incarnation"
    );

    let mut notes = Vec::new();
    let mut world = toy_world();
    let mut s = NebulaStrategy::new(toy_cfg(), 1);
    let resumed = Runner::new(&mut world, &mut s)
        .config(exp)
        .target(TARGET, rounds, 1)
        .durable(DurabilityConfig::new(&dir))
        .transport(Box::new(second.transport()))
        .resume()
        .run()
        .expect("resumed run completes");
    let digest = fnv_digest(&s.cloud().model().param_vector());
    if resumed.rounds != base.0 {
        notes.push(format!("round count diverged: resumed {} != baseline {}", resumed.rounds, base.0));
    }
    if resumed.final_accuracy.to_bits() != base.1 {
        notes.push("final accuracy bits diverged across the crash".into());
    }
    if digest != base.2 {
        notes.push(format!("trajectory diverged: digest {digest:016x} != baseline {:016x}", base.2));
    }

    second.shutdown();
    for w in first.workers {
        w.join().expect("chaos worker thread");
    }
    let _ = std::fs::remove_dir_all(&dir);
    ScenarioRecord::new("kill_coordinator", seed, rounds, digest, &resumed.stats, notes)
}

pub fn run(ctx: &Ctx) -> Vec<Value> {
    let rounds = if ctx.quick { 2 } else { 4 };
    let base = drive(rounds, None);
    let scenarios: [&dyn Fn() -> ScenarioRecord; 5] = [
        // A worker's link dies mid-run (frame-counted kill): its in-flight
        // jobs reassign under the retry budget and it rejoins on a clean
        // link.
        &|| {
            let plan = NetFaultPlan { kill_after: Some(2), once: true, ..NetFaultPlan::seeded(11) };
            against_baseline("kill_worker", plan, 0, 0, rounds, &base)
        },
        // A worker goes half-open (socket up, process mute): liveness pings
        // go unanswered and the coordinator evicts it well under the
        // deadline instead of stalling the round barrier.
        &|| {
            let plan = NetFaultPlan { stall_after: Some(2), once: true, ..NetFaultPlan::seeded(12) };
            against_baseline("stall_worker", plan, 1_000, 0, rounds, &base)
        },
        &|| flaky_link(rounds),
        // A crawling worker (every outbound frame delayed past the hedge
        // trigger): speculative re-dispatch rescues its jobs onto the fast
        // worker and the round resolves early.
        &|| {
            let plan = NetFaultPlan { delay_ms: 1_000, ..NetFaultPlan::seeded(14) };
            against_baseline("hedge_slow_worker", plan, 0, 150, rounds, &base)
        },
        &|| kill_coordinator(rounds),
    ];
    let mut rows = Vec::new();
    for scenario in scenarios {
        let start = Instant::now();
        let mut row = scenario().to_value();
        let wall_ms = (start.elapsed().as_secs_f64() * 1e4).round() / 10.0;
        if let Value::Object(fields) = &mut row {
            fields.push(("wall_ms".into(), wall_ms.to_value()));
        }
        rows.push(row);
    }
    rows
}

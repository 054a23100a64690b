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
//! Every fault roll derives from the scenario seed and the outbound
//! frame index, so the whole grid is deterministic: `--check` runs it
//! twice and fails on any divergence between the two passes (or any
//! scenario failing its own invariants). The deterministic scorecard —
//! scenario, seed, pass, trajectory digest, fate accounting — goes to
//! `results/serve_chaos.jsonl`, one line per scenario, with the
//! scenario's wall-clock (not deterministic, not gated) riding along.
//!
//! Usage: `serve_chaos [--quick] [--check]`.
//! `--quick` drops to 2 rounds per scenario for CI.

use std::thread;
use std::time::{Duration, Instant};

use nebula_data::{PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use nebula_modular::ModularConfig;
use nebula_nn::Layer;
use nebula_serve::worker::{run_worker, WorkerConfig};
use nebula_serve::{Coordinator, Endpoint, NetFaultPlan, ServeConfig, WorkerRunConfig};
use nebula_sim::strategy::StrategyConfig;
use nebula_sim::{
    AdaptStrategy, ChaosControl, DurabilityConfig, ExperimentConfig, KillSpot, NebulaStrategy,
    ResourceSampler, RunError, Runner, SimWorld,
};
use nebula_tensor::NebulaRng;
use serde::Serialize;

/// One scenario's deterministic outcome — everything in here must be
/// identical across two runs of the same grid, which is exactly what
/// `--check` asserts.
#[derive(Clone, Debug, Serialize, PartialEq)]
struct ScenarioRecord {
    scenario: String,
    seed: u64,
    rounds: usize,
    pass: bool,
    /// FNV-1a fold of the final cloud parameter bit patterns.
    digest: String,
    /// Whole-run fate accounting: every dispatched job resolves into
    /// exactly one of these.
    participated: u64,
    link_dropped: u64,
    /// Deterministic invariant failures (empty when `pass`).
    notes: Vec<String>,
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

/// The undisturbed trajectory the fault-tolerant scenarios must land
/// on: digest plus fate accounting of an in-process run.
struct Baseline {
    digest: u64,
    participated: u64,
    link_dropped: u64,
}

fn inproc_baseline(rounds: usize) -> Baseline {
    let mut world = toy_world();
    let mut s = NebulaStrategy::new(toy_cfg(), 1);
    let mut rng = NebulaRng::seed(3);
    let (mut participated, mut link_dropped) = (0u64, 0u64);
    for _ in 0..rounds {
        let out = s.single_round(&mut world, &mut rng);
        participated += out.stats.faults.participated;
        link_dropped += out.stats.faults.link_dropped;
    }
    Baseline { digest: fnv_digest(&s.cloud().model().param_vector()), participated, link_dropped }
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

/// Runs `rounds` through `deployment` and folds the outcome into a
/// record, checking the shared invariants every fault-tolerant scenario
/// holds: baseline bits, zero dropped fates, full participation.
fn run_against(
    scenario: &str,
    seed: u64,
    rounds: usize,
    base: &Baseline,
    deployment: &Deployment,
    extra_notes: impl FnOnce(&nebula_sim::RoundStats) -> Vec<String>,
) -> ScenarioRecord {
    let mut world = toy_world();
    let mut s = NebulaStrategy::new(toy_cfg(), 1);
    s.set_transport(Box::new(deployment.coordinator.transport()));
    let mut rng = NebulaRng::seed(3);
    let mut stats = nebula_sim::RoundStats::default();
    for _ in 0..rounds {
        let out = s.single_round(&mut world, &mut rng);
        stats.merge(&out.stats);
    }
    let digest = fnv_digest(&s.cloud().model().param_vector());
    let mut notes = Vec::new();
    if digest != base.digest {
        notes.push(format!("trajectory diverged: digest {digest:016x} != baseline {:016x}", base.digest));
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
    notes.extend(extra_notes(&stats));
    ScenarioRecord {
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

/// A worker's link dies mid-run (frame-counted kill): its in-flight
/// jobs reassign under the retry budget, it rejoins on a clean link,
/// and the trajectory stays on the baseline bits.
fn kill_worker(rounds: usize, base: &Baseline) -> ScenarioRecord {
    let seed = 11;
    let plan = NetFaultPlan { kill_after: Some(2), once: true, ..NetFaultPlan::seeded(seed) };
    let d = deploy(DeployOpts {
        tag: "kill".into(),
        workers: vec![None, Some(plan)],
        threads: 2,
        liveness_ms: 0,
        hedge_ms: 0,
        deadline_ms: 60_000,
    });
    let rec = run_against("kill_worker", seed, rounds, base, &d, |_| Vec::new());
    d.teardown();
    rec
}

/// A worker goes half-open (socket up, process mute): liveness pings go
/// unanswered and the coordinator evicts it well under the deadline
/// instead of stalling the round barrier.
fn stall_worker(rounds: usize, base: &Baseline) -> ScenarioRecord {
    let seed = 12;
    let plan = NetFaultPlan { stall_after: Some(2), once: true, ..NetFaultPlan::seeded(seed) };
    let deadline_ms = 60_000;
    let d = deploy(DeployOpts {
        tag: "stall".into(),
        workers: vec![None, Some(plan)],
        threads: 2,
        liveness_ms: 1_000,
        hedge_ms: 0,
        deadline_ms,
    });
    let start = Instant::now();
    let mut rec = run_against("stall_worker", seed, rounds, base, &d, |_| Vec::new());
    let elapsed = start.elapsed();
    // Eviction must beat the deadline by a wide margin — a stalled
    // worker costing `deadline_ms` per round is exactly the failure
    // liveness exists to prevent. Wall-clock, but with a 30x margin the
    // bound only trips when liveness is genuinely broken.
    if elapsed > Duration::from_millis(deadline_ms / 2) {
        rec.notes.push(format!(
            "{} rounds took {:.1}s against a {}s deadline: eviction is not beating the barrier",
            rounds,
            elapsed.as_secs_f64(),
            deadline_ms / 1000
        ));
        rec.pass = false;
    }
    d.teardown();
    rec
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
    let mut world = toy_world();
    let mut s = NebulaStrategy::new(toy_cfg(), 1);
    s.set_transport(Box::new(d.coordinator.transport()));
    let mut rng = NebulaRng::seed(3);
    let mut stats = nebula_sim::RoundStats::default();
    for _ in 0..rounds {
        let out = s.single_round(&mut world, &mut rng);
        stats.merge(&out.stats);
    }
    let digest = fnv_digest(&s.cloud().model().param_vector());
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
    ScenarioRecord {
        scenario: "flaky_link".into(),
        seed,
        rounds,
        pass: notes.is_empty(),
        digest: format!("{digest:016x}"),
        participated: stats.faults.participated,
        link_dropped: stats.faults.link_dropped,
        notes,
    }
}

/// A crawling worker (every outbound frame delayed past the hedge
/// trigger): speculative re-dispatch rescues its jobs onto the fast
/// worker and the round resolves early on baseline bits.
fn hedge_slow_worker(rounds: usize, base: &Baseline) -> ScenarioRecord {
    let seed = 14;
    let plan = NetFaultPlan { delay_ms: 1_000, ..NetFaultPlan::seeded(seed) };
    let d = deploy(DeployOpts {
        tag: "hedge".into(),
        workers: vec![None, Some(plan)],
        threads: 2,
        liveness_ms: 0,
        hedge_ms: 150,
        deadline_ms: 60_000,
    });
    let rec = run_against("hedge_slow_worker", seed, rounds, base, &d, |_| Vec::new());
    d.teardown();
    rec
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
    ScenarioRecord {
        scenario: "kill_coordinator".into(),
        seed,
        rounds,
        pass: notes.is_empty(),
        digest: format!("{digest:016x}"),
        participated: resumed.stats.faults.participated,
        link_dropped: resumed.stats.faults.link_dropped,
        notes,
    }
}

/// One full pass over the grid; `--check` runs two and diffs them.
fn run_grid(rounds: usize, walls: &mut Vec<f64>) -> Vec<ScenarioRecord> {
    let base = inproc_baseline(rounds);
    let mut records = Vec::new();
    type Scenario<'a> = (&'a str, Box<dyn Fn() -> ScenarioRecord + 'a>);
    let fns: Vec<Scenario> = vec![
        ("kill_worker", Box::new(|| kill_worker(rounds, &base))),
        ("stall_worker", Box::new(|| stall_worker(rounds, &base))),
        ("flaky_link", Box::new(|| flaky_link(rounds))),
        ("hedge_slow_worker", Box::new(|| hedge_slow_worker(rounds, &base))),
        ("kill_coordinator", Box::new(|| kill_coordinator(rounds))),
    ];
    for (name, f) in fns {
        let start = Instant::now();
        let rec = f();
        let wall = start.elapsed().as_secs_f64() * 1e3;
        walls.push(wall);
        println!(
            "{:>18}  {}  digest {}  participated {:>3}  dropped {:>2}  {:>8.0} ms",
            name,
            if rec.pass { "pass" } else { "FAIL" },
            rec.digest,
            rec.participated,
            rec.link_dropped,
            wall
        );
        for n in &rec.notes {
            eprintln!("{name}: {n}");
        }
        records.push(rec);
    }
    records
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    let rounds = if quick { 2 } else { 4 };

    let mut walls = Vec::new();
    let records = run_grid(rounds, &mut walls);

    let mut failures: Vec<String> = records
        .iter()
        .filter(|r| !r.pass)
        .map(|r| format!("{}: {}", r.scenario, r.notes.join("; ")))
        .collect();
    if check {
        println!("check: re-running the grid to verify determinism");
        let second = run_grid(rounds, &mut Vec::new());
        for (a, b) in records.iter().zip(&second) {
            if a != b {
                failures.push(format!(
                    "{}: two runs of the same seeded grid disagree ({a:?} vs {b:?})",
                    a.scenario
                ));
            }
        }
    }

    let jsonl: String = records
        .iter()
        .zip(&walls)
        .map(|(r, wall)| {
            // Splice the (non-deterministic, ungated) wall-clock into the
            // serialized record by hand — the vendored serde_json has no
            // Value manipulation.
            let body = serde_json::to_string(r).expect("record serializes");
            format!("{},\"wall_ms\":{wall:.1}}}", &body[..body.len() - 1])
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    let dir = nebula_bench::results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let jsonl_path = dir.join("serve_chaos.jsonl");
    std::fs::write(&jsonl_path, jsonl).expect("write serve_chaos.jsonl");
    println!("wrote {}", jsonl_path.display());

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("check FAILED: {f}");
        }
        std::process::exit(1);
    }
    if check {
        println!("check passed: every scenario holds and the grid is deterministic");
    }
}

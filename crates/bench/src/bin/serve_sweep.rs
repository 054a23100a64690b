//! Serving-plane sweep (DESIGN.md §15): the same toy Nebula run driven
//! through every transport — the historical in-process path, the
//! [`nebula_core::Loopback`] transport, and real coordinator/worker
//! deployments over Unix-domain sockets and TCP (two workers each) —
//! comparing wall-clock round latency and comm bytes, written to
//! `results/serve_sweep.jsonl` (one record per transport) and
//! `BENCH_SERVE.json` (summary + gate verdict) at the repo root.
//!
//! The transports are required to be *bit-identical*: under the `Raw`
//! codec a remote worker executes exactly the computation the
//! in-process threads would, so the only thing allowed to differ is
//! wall-clock time. The sweep digests each trajectory (an FNV fold of
//! the final cloud parameter bits) and the per-round comm accounting;
//! `--check` exits nonzero if any transport disagrees with in-process
//! on either, or if socket overhead blows past 25x the loopback round
//! time (a sanity bound, not a perf target — the toy model spends
//! microseconds training, so framing dominates).
//!
//! Usage: `serve_sweep [--quick] [--check]`.
//! `--quick` drops to 2 rounds for CI.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use nebula_core::{Loopback, ModularRunner, Transport};
use nebula_data::{PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use nebula_modular::ModularConfig;
use nebula_nn::Layer;
use nebula_serve::worker::{run_worker, WorkerConfig};
use nebula_serve::{Coordinator, Endpoint, ServeConfig, WorkerRunConfig};
use nebula_sim::strategy::StrategyConfig;
use nebula_sim::{AdaptStrategy, NebulaStrategy, ResourceSampler, SimWorld};
use nebula_tensor::NebulaRng;
use serde::Serialize;

/// One transport's trajectory and timings.
#[derive(Clone, Debug, Serialize)]
struct CaseRecord {
    transport: String,
    rounds: usize,
    workers: usize,
    /// Mean wall-clock per round, ms.
    wall_round_ms: f64,
    /// Whole-run comm totals (identical across transports by design).
    up_bytes: u64,
    down_bytes: u64,
    participated: u64,
    /// FNV-1a fold of the final cloud parameter bit patterns.
    param_digest: u64,
}

#[derive(Serialize)]
struct Summary {
    suite: String,
    mode: String,
    cases: Vec<CaseRecord>,
    /// wall_round_ms(transport) / wall_round_ms(loopback).
    overhead_vs_loopback: Vec<Overhead>,
    check: Option<CheckVerdict>,
}

/// Round-time ratio of one transport against loopback.
#[derive(Clone, Debug, Serialize)]
struct Overhead {
    transport: String,
    x_loopback: f64,
}

#[derive(Serialize)]
struct CheckVerdict {
    passed: bool,
    failures: Vec<String>,
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The serving-plane toy pin: the same world/config the nebula-serve
/// integration tests hold bit-identical across transports.
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

/// Runs `rounds` toy Nebula rounds through `transport` and digests the
/// trajectory.
fn run_case(name: &str, transport: Option<Box<dyn Transport>>, rounds: usize, workers: usize) -> CaseRecord {
    let mut world = toy_world();
    let mut s = NebulaStrategy::new(toy_cfg(), 1);
    if let Some(t) = transport {
        s.set_transport(t);
    }
    let mut rng = NebulaRng::seed(3);
    let (mut up, mut down, mut participated) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    for _ in 0..rounds {
        let out = s.single_round(&mut world, &mut rng);
        up += out.stats.comm.up_bytes;
        down += out.stats.comm.down_bytes;
        participated += out.stats.faults.participated;
    }
    let wall_round_ms = start.elapsed().as_secs_f64() * 1e3 / rounds as f64;
    CaseRecord {
        transport: name.into(),
        rounds,
        workers,
        wall_round_ms,
        up_bytes: up,
        down_bytes: down,
        participated,
        param_digest: fnv_digest(&s.cloud().model().param_vector()),
    }
}

/// A live two-worker deployment over `endpoint` family `tcp`/UDS.
struct Deployment {
    coordinator: Coordinator,
    workers: Vec<thread::JoinHandle<()>>,
}

fn deploy(tcp: bool, tag: &str, n: usize) -> Deployment {
    let worker_cfg = WorkerRunConfig { modular: Some(toy_cfg().modular), ..WorkerRunConfig::default() };
    let mut cfg = ServeConfig::new(worker_cfg);
    let path = std::env::temp_dir().join(format!("serve-sweep-{tag}-{}.sock", std::process::id()));
    if tcp {
        cfg.tcp = Some("127.0.0.1:0".into());
    } else {
        cfg.uds = Some(path.clone());
    }
    let coordinator = Coordinator::bind(cfg).expect("bind coordinator");
    let endpoint = if tcp {
        Endpoint::Tcp(coordinator.tcp_addr().expect("tcp bound").to_string())
    } else {
        Endpoint::Uds(path)
    };
    let workers = (0..n)
        .map(|i| {
            let ep = endpoint.clone();
            thread::spawn(move || {
                let mut wc = WorkerConfig::new(ep);
                wc.name = format!("sweep-w{i}");
                run_worker(wc).expect("sweep worker");
            })
        })
        .collect();
    assert!(coordinator.wait_for_workers(n, Duration::from_secs(30)), "sweep workers must register");
    Deployment { coordinator, workers }
}

impl Deployment {
    fn teardown(self) {
        self.coordinator.shutdown();
        for w in self.workers {
            w.join().expect("sweep worker thread");
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    let mode = if quick { "quick" } else { "full" };
    let rounds = if quick { 2 } else { 5 };
    let workers = 2;

    let mut cases = Vec::new();
    cases.push(run_case("inproc", None, rounds, 0));

    let cfg = toy_cfg();
    let loopback: Box<dyn Transport> =
        Box::new(Loopback::new(Arc::new(ModularRunner::new(cfg.modular, cfg.wire))));
    cases.push(run_case("loopback", Some(loopback), rounds, 0));

    let uds = deploy(false, "uds", workers);
    cases.push(run_case("uds", Some(Box::new(uds.coordinator.transport())), rounds, workers));
    uds.teardown();

    let tcp = deploy(true, "tcp", workers);
    cases.push(run_case("tcp", Some(Box::new(tcp.coordinator.transport())), rounds, workers));
    tcp.teardown();

    for c in &cases {
        println!(
            "{:>8}  {:>8.2} ms/round  up {:>7} B  down {:>7} B  digest {:016x}",
            c.transport, c.wall_round_ms, c.up_bytes, c.down_bytes, c.param_digest
        );
    }

    let loop_ms = cases[1].wall_round_ms.max(1e-9);
    let overhead: Vec<Overhead> = cases
        .iter()
        .map(|c| Overhead { transport: c.transport.clone(), x_loopback: c.wall_round_ms / loop_ms })
        .collect();

    let verdict = if check {
        let mut failures = Vec::new();
        let base = &cases[0];
        for c in &cases[1..] {
            if c.param_digest != base.param_digest {
                failures.push(format!(
                    "{} trajectory diverged from in-process: digest {:016x} != {:016x}",
                    c.transport, c.param_digest, base.param_digest
                ));
            }
            if (c.up_bytes, c.down_bytes, c.participated)
                != (base.up_bytes, base.down_bytes, base.participated)
            {
                failures.push(format!(
                    "{} comm accounting diverged from in-process: up/down/participated {}/{}/{} != {}/{}/{}",
                    c.transport,
                    c.up_bytes,
                    c.down_bytes,
                    c.participated,
                    base.up_bytes,
                    base.down_bytes,
                    base.participated
                ));
            }
        }
        for o in &overhead {
            if o.x_loopback > 25.0 {
                failures.push(format!(
                    "{} round time is {:.1}x loopback (> 25x: socket plane is pathologically slow)",
                    o.transport, o.x_loopback
                ));
            }
        }
        Some(CheckVerdict { passed: failures.is_empty(), failures })
    } else {
        None
    };

    let root = repo_root();
    let jsonl: String = cases
        .iter()
        .map(|c| serde_json::to_string(c).expect("case serializes"))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    let jsonl_path = root.join("results/serve_sweep.jsonl");
    std::fs::write(&jsonl_path, jsonl).expect("write results/serve_sweep.jsonl");
    println!("wrote {}", jsonl_path.display());

    let summary = Summary {
        suite: "serve_sweep".into(),
        mode: mode.into(),
        cases,
        overhead_vs_loopback: overhead,
        check: verdict,
    };
    let json_path = root.join("BENCH_SERVE.json");
    std::fs::write(&json_path, serde_json::to_string(&summary).expect("summary serializes"))
        .expect("write BENCH_SERVE.json");
    println!("wrote {}", json_path.display());

    if let Some(v) = &summary.check {
        if v.passed {
            println!("check passed: every transport reproduces the in-process trajectory bit-for-bit");
        } else {
            for f in &v.failures {
                eprintln!("check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}

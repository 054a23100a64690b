//! `nebula-node` — the serving plane as real processes.
//!
//! Two roles, one binary:
//!
//! * `nebula-node coordinator` binds the listeners, waits for a worker
//!   quorum, then drives a toy Nebula run (the same synthetic world and
//!   modular config the serving-plane tests pin) through
//!   [`nebula_serve::SocketTransport`], printing one JSON line per
//!   round. An optional ops endpoint answers `/healthz`, `/metrics`
//!   and `/round` throughout — and through `--linger-ms` after the last
//!   round, so probes can scrape a finished run.
//! * `nebula-node worker` dials the coordinator and executes dispatched
//!   cohort jobs until told to shut down.
//!
//! Flags are `--key value` pairs, parsed by hand — the workspace takes
//! no CLI dependency. Run either role with `--help` for the list.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use nebula_data::{PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use nebula_modular::ModularConfig;
use nebula_nn::Layer;
use nebula_serve::worker::{run_worker, WorkerConfig};
use nebula_serve::{Coordinator, Endpoint, OpsServer, ServeConfig, WorkerRunConfig};
use nebula_sim::strategy::StrategyConfig;
use nebula_sim::{
    AdaptStrategy, ChaosControl, DurabilityConfig, ExperimentConfig, KillSpot, NebulaStrategy,
    ResourceSampler, RunError, Runner, SimWorld,
};
use nebula_telemetry::{JsonlSink, Telemetry};
use nebula_tensor::NebulaRng;

const USAGE: &str = "\
nebula-node — Nebula serving-plane processes

USAGE:
  nebula-node coordinator [--tcp HOST:PORT] [--uds PATH] [--workers N]
                          [--rounds N] [--devices N] [--seed N]
                          [--deadline-ms MS] [--liveness-ms MS]
                          [--hedge-ms MS] [--auth HEX32]
                          [--ops HOST:PORT] [--telemetry PATH]
                          [--linger-ms MS]
                          [--durable DIR] [--resume 1] [--kill-at N]
                          [--eval-devices N]
  nebula-node worker      --connect ENDPOINT [--name NAME] [--threads N]
                          [--rejoin 0|1] [--auth HEX32]
                          [--telemetry PATH]

A coordinator needs at least one of --tcp/--uds. ENDPOINT is a TCP
host:port or a UDS path (anything containing '/'). --auth takes the
16-byte master key as 32 hex chars; both sides must hold the same key
(it also MACs the inner per-device payload frames).

--liveness-ms evicts workers silent past the timeout (0 = off);
--hedge-ms speculatively re-dispatches jobs still unresolved after the
soft timeout (0 = off).

--threads N sizes the worker's executor pool and caps the process's
fork-join thread budget (par::map regions; NEBULA_THREADS seeds the
same budget). Results are bit-identical at any setting.

--durable DIR drives the run through the crash-safe journal under DIR
instead of the plain round loop; add --resume 1 to continue a journal
left by an interrupted run, and --kill-at N to simulate a coordinator
crash after round N commits (the process prints {\"killed\":...} and
exits with code 3, leaving workers to rejoin the next incarnation).
On success the durable run prints an FNV digest of the final cloud
parameters, so two incarnations of the same run can be compared
bit-for-bit.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("coordinator") => coordinator_cmd(&args[1..]),
        Some("worker") => worker_cmd(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown role {other:?}; try --help")),
    };
    match result {
        Ok(code) => code,
        Err(why) => {
            eprintln!("nebula-node: {why}");
            ExitCode::from(1)
        }
    }
}

/// `--key value` pairs, every key consuming exactly one value.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        if args.iter().any(|a| a == "--help" || a == "-h") {
            print!("{USAGE}");
            std::process::exit(0);
        }
        let mut out = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key =
                args[i].strip_prefix("--").ok_or_else(|| format!("expected a --flag, got {:?}", args[i]))?;
            let value = args.get(i + 1).ok_or_else(|| format!("--{key} needs a value"))?.clone();
            out.push((key.to_string(), value));
            i += 2;
        }
        Ok(Flags(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number {v:?}")),
        }
    }
}

/// 32 hex chars → the 16-byte master key.
fn parse_key(hex: &str) -> Result<[u8; 16], String> {
    let nibble = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(format!("--auth: {:?} is not a hex digit", c as char)),
        }
    };
    let bytes = hex.as_bytes();
    if bytes.len() != 32 {
        return Err(format!("--auth wants 32 hex chars (16 bytes), got {}", bytes.len()));
    }
    let mut key = [0u8; 16];
    for (i, pair) in bytes.chunks_exact(2).enumerate() {
        key[i] = (nibble(pair[0])? << 4) | nibble(pair[1])?;
    }
    Ok(key)
}

fn telemetry_from(flags: &Flags) -> Result<Telemetry, String> {
    match flags.get("telemetry") {
        None => Ok(Telemetry::off()),
        Some(path) => {
            let sink = JsonlSink::create(path).map_err(|e| format!("--telemetry {path}: {e}"))?;
            Ok(Telemetry::new(Arc::new(sink)))
        }
    }
}

/// The same toy run the serving-plane tests pin: small synthetic world,
/// 16-wide modular blocks, 4 devices per round.
fn toy_strategy_cfg() -> StrategyConfig {
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

fn coordinator_cmd(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    let quorum: usize = flags.num("workers", 2)?;
    let rounds: usize = flags.num("rounds", 3)?;
    let devices: usize = flags.num("devices", 8)?;
    let seed: u64 = flags.num("seed", 5)?;
    let deadline_ms: u64 = flags.num("deadline-ms", 60_000)?;
    let liveness_ms: u64 = flags.num("liveness-ms", 0)?;
    let hedge_ms: u64 = flags.num("hedge-ms", 0)?;
    let linger_ms: u64 = flags.num("linger-ms", 0)?;
    let auth = flags.get("auth").map(parse_key).transpose()?;
    let telemetry = telemetry_from(&flags)?;

    let mut strategy_cfg = toy_strategy_cfg();
    if let Some(key) = auth {
        strategy_cfg.wire = strategy_cfg.wire.with_auth(key);
    }
    let worker_config = WorkerRunConfig {
        modular: Some(strategy_cfg.modular.clone()),
        delta_threshold: strategy_cfg.wire.delta_threshold,
        payload_auth: auth.is_some(),
    };
    let mut cfg = ServeConfig::new(worker_config);
    cfg.tcp = flags.get("tcp").map(String::from);
    cfg.uds = flags.get("uds").map(std::path::PathBuf::from);
    if cfg.tcp.is_none() && cfg.uds.is_none() {
        return Err("coordinator needs --tcp and/or --uds".into());
    }
    cfg.auth_key = auth;
    cfg.deadline_ms = deadline_ms;
    cfg.liveness_timeout_ms = liveness_ms;
    cfg.hedge_after_ms = hedge_ms;
    cfg.telemetry = telemetry.clone();

    let coordinator = Coordinator::bind(cfg).map_err(|e| e.to_string())?;
    if let Some(addr) = coordinator.tcp_addr() {
        eprintln!("coordinator: listening on tcp://{addr}");
    }
    if let Some(path) = flags.get("uds") {
        eprintln!("coordinator: listening on uds://{path}");
    }
    let ops = flags
        .get("ops")
        .map(|addr| OpsServer::spawn(addr, coordinator.clone()))
        .transpose()
        .map_err(|e| e.to_string())?;
    if let Some(ops) = &ops {
        eprintln!("coordinator: ops endpoint on http://{}", ops.addr());
    }

    eprintln!("coordinator: waiting for {quorum} worker(s)");
    if !coordinator.wait_for_workers(quorum, Duration::from_secs(120)) {
        return Err(format!(
            "only {} of {quorum} workers registered within 120s",
            coordinator.worker_count()
        ));
    }
    eprintln!("coordinator: quorum up ({:?}), running {rounds} round(s)", coordinator.worker_names());

    let synth = Synthesizer::new(SynthSpec::toy(), 1);
    let spec = PartitionSpec::new(devices, Partitioner::LabelSkew { m: 2 });
    let mut world = SimWorld::new(synth, spec, 9, None, &ResourceSampler::default(), seed);
    let mut strategy = NebulaStrategy::new(strategy_cfg, 1);
    strategy.set_telemetry(telemetry.clone());

    if let Some(dir) = flags.get("durable") {
        // Durable mode: the crash-safe journal drives the rounds, so a
        // coordinator killed mid-run (--kill-at, or a real crash) can be
        // restarted with --resume 1 and land on the uninterrupted bits.
        let eval_devices: usize = flags.num("eval-devices", 3)?;
        let kill_at: Option<u64> = match flags.get("kill-at") {
            None => None,
            Some(v) => Some(v.parse().map_err(|_| format!("--kill-at: bad number {v:?}"))?),
        };
        let resume: u8 = flags.num("resume", 0)?;
        let exp = ExperimentConfig { eval_devices, seed };
        let mut runner = Runner::new(&mut world, &mut strategy)
            .config(exp)
            // An unreachable target turns the run into "exactly N
            // rounds", which is what a digest comparison wants.
            .target(1.01, rounds, 1)
            .durable(DurabilityConfig::new(dir))
            .telemetry(telemetry.clone())
            .transport(Box::new(coordinator.transport()));
        if let Some(round) = kill_at {
            runner = runner.chaos(ChaosControl { kill: Some((round, KillSpot::AfterAppend)) });
        }
        if resume == 1 {
            runner = runner.resume();
        }
        match runner.run() {
            Ok(out) => {
                let digest = fnv_digest(&strategy.cloud().model().param_vector());
                println!(
                    "{{\"done\":true,\"durable\":true,\"rounds\":{},\"final_accuracy\":{},\"param_digest\":\"{digest:016x}\"}}",
                    out.rounds, out.final_accuracy,
                );
            }
            Err(RunError::Killed { round }) => {
                // The armed crash: leave exactly what a killed process
                // leaves (no shutdown notices, journal intact) so the
                // workers' rejoin loops and a --resume 1 incarnation
                // can pick the run back up.
                println!("{{\"killed\":true,\"round\":{round}}}");
                if let Some(ops) = ops {
                    ops.stop();
                }
                coordinator.abort();
                return Ok(ExitCode::from(3));
            }
            Err(e) => return Err(format!("durable run failed: {e:?}")),
        }
    } else {
        strategy.set_transport(Box::new(coordinator.transport()));
        let mut rng = NebulaRng::seed(3);
        for round in 0..rounds {
            let out = strategy.single_round(&mut world, &mut rng);
            println!(
                "{{\"round\":{round},\"participated\":{},\"link_dropped\":{},\"up_bytes\":{},\"down_bytes\":{}}}",
                out.stats.faults.participated,
                out.stats.faults.link_dropped,
                out.stats.comm.up_bytes,
                out.stats.comm.down_bytes,
            );
        }
        let params = strategy.cloud().model().param_vector();
        let l2 = params.iter().map(|p| (*p as f64) * (*p as f64)).sum::<f64>().sqrt();
        println!(
            "{{\"done\":true,\"rounds\":{},\"params\":{},\"param_l2\":{l2}}}",
            coordinator.rounds_completed(),
            params.len(),
        );
    }

    if linger_ms > 0 {
        eprintln!("coordinator: lingering {linger_ms}ms for probes");
        std::thread::sleep(Duration::from_millis(linger_ms));
    }
    if let Some(ops) = ops {
        ops.stop();
    }
    coordinator.shutdown();
    Ok(ExitCode::SUCCESS)
}

/// FNV-1a fold of parameter bit patterns — the digest the `serve_chaos`
/// experiment of `nebula-bench` uses, so CLI runs compare against its
/// scorecard.
fn fnv_digest(params: &[f32]) -> u64 {
    params
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, p| (h ^ p.to_bits() as u64).wrapping_mul(0x1000_0000_01b3))
}

fn worker_cmd(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    let endpoint = Endpoint::parse(flags.get("connect").ok_or("worker needs --connect")?);
    let mut cfg = WorkerConfig::new(endpoint);
    if let Some(name) = flags.get("name") {
        cfg.name = name.to_string();
    }
    cfg.threads = flags.num("threads", 2)?;
    // --threads bounds the whole worker, not just the executor pool: the
    // same budget caps any `par::map` region the process enters.
    nebula_tensor::par::set_max_threads(cfg.threads);
    cfg.rejoin = flags.num("rejoin", 1u8)? == 1;
    cfg.auth_key = flags.get("auth").map(parse_key).transpose()?;
    cfg.telemetry = telemetry_from(&flags)?;
    eprintln!("worker {}: dialing {}", cfg.name, cfg.endpoint);
    let report = run_worker(cfg).map_err(|e| e.to_string())?;
    println!(
        "{{\"worker_id\":{},\"jobs_run\":{},\"sessions\":{}}}",
        report.worker_id, report.jobs_run, report.sessions
    );
    Ok(ExitCode::SUCCESS)
}

//! End-to-end serving-plane tests: the loopback transport and real
//! socket deployments (UDS and TCP, two workers) must reproduce the
//! in-process Nebula trajectory bit-for-bit, and a worker crashing
//! mid-round must degrade the round into dropout fates instead of
//! hanging it.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use nebula_core::{Loopback, ModularRunner, RetryPolicy, Transport};
use nebula_data::{PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use nebula_modular::ModularConfig;
use nebula_nn::Layer;
use nebula_sim::strategy::StrategyConfig;
use nebula_sim::{NebulaStrategy, ResourceSampler, SimWorld};
use nebula_tensor::NebulaRng;

use nebula_serve::worker::{run_worker, WorkerConfig};
use nebula_serve::{Coordinator, Endpoint, OpsServer, ServeConfig, WorkerRunConfig};

fn toy_world(devices: usize, seed: u64) -> SimWorld {
    let synth = Synthesizer::new(SynthSpec::toy(), 1);
    let spec = PartitionSpec::new(devices, Partitioner::LabelSkew { m: 2 });
    SimWorld::new(synth, spec, 9, None, &ResourceSampler::default(), seed)
}

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

/// Per-round (up_bytes, down_bytes, participated, link_dropped).
type Trail = Vec<(u64, u64, u64, u64)>;

/// Runs `rounds` Nebula rounds through `transport` (`None` = the
/// historical in-process path) and digests the trajectory: final cloud
/// parameters plus per-round comm/fault accounting.
fn run_rounds(transport: Option<Box<dyn Transport>>, rounds: usize) -> (Vec<f32>, Trail) {
    run_rounds_with(toy_cfg(), transport, rounds)
}

fn run_rounds_with(
    cfg: StrategyConfig,
    transport: Option<Box<dyn Transport>>,
    rounds: usize,
) -> (Vec<f32>, Trail) {
    let mut world = toy_world(8, 5);
    let mut s = NebulaStrategy::new(cfg, 1);
    if let Some(t) = transport {
        use nebula_sim::AdaptStrategy;
        s.set_transport(t);
    }
    let mut rng = NebulaRng::seed(3);
    let mut trail = Vec::new();
    for _ in 0..rounds {
        let out = s.single_round(&mut world, &mut rng);
        trail.push((
            out.stats.comm.up_bytes,
            out.stats.comm.down_bytes,
            out.stats.faults.participated,
            out.stats.faults.link_dropped,
        ));
    }
    (s.cloud().model().param_vector(), trail)
}

fn loopback() -> Box<dyn Transport> {
    let cfg = toy_cfg();
    Box::new(Loopback::new(Arc::new(ModularRunner::new(cfg.modular, cfg.wire))))
}

fn uds_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nebula-serve-{tag}-{}.sock", std::process::id()))
}

struct Deployment {
    coordinator: Coordinator,
    workers: Vec<thread::JoinHandle<()>>,
}

/// Starts a coordinator and `n` worker threads speaking real sockets.
fn deploy(tcp: bool, tag: &str, n: usize, auth: Option<[u8; 16]>) -> (Deployment, Endpoint) {
    // The same master key protects the serving plane and — when set —
    // the inner per-device payload frames.
    let worker_cfg = WorkerRunConfig {
        modular: Some(toy_cfg().modular),
        delta_threshold: 0.0,
        payload_auth: auth.is_some(),
    };
    let mut cfg = ServeConfig::new(worker_cfg);
    cfg.auth_key = auth;
    cfg.deadline_ms = 60_000;
    let path = uds_path(tag);
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
                wc.auth_key = auth;
                wc.name = format!("w{i}");
                wc.threads = 2;
                run_worker(wc).expect("worker runs to clean shutdown");
            })
        })
        .collect();
    assert!(coordinator.wait_for_workers(n, Duration::from_secs(20)), "workers must register within 20s");
    (Deployment { coordinator, workers }, endpoint)
}

impl Deployment {
    fn teardown(self) {
        self.coordinator.shutdown();
        for w in self.workers {
            w.join().expect("worker thread");
        }
    }
}

/// The tentpole invariant, part 1: routing training through the
/// loopback transport is a pure refactoring — 5 rounds land on exactly
/// the in-process trajectory.
#[test]
fn loopback_transport_is_bit_identical_to_in_process_rounds() {
    let (base_params, base_trail) = run_rounds(None, 5);
    let (loop_params, loop_trail) = run_rounds(Some(loopback()), 5);
    assert_eq!(base_trail, loop_trail, "comm/fault accounting must match");
    assert_eq!(base_params, loop_params, "cloud parameters must be bit-identical");
}

/// Part 2: two real worker processes behind a Unix-domain socket
/// produce the same bits as loopback (hence as in-process).
#[test]
fn uds_deployment_is_bit_identical_to_in_process_rounds() {
    let (base_params, base_trail) = run_rounds(None, 5);
    let (deployment, _) = deploy(false, "identity", 2, None);
    let (uds_params, uds_trail) = run_rounds(Some(Box::new(deployment.coordinator.transport())), 5);
    assert_eq!(deployment.coordinator.rounds_completed(), 5);
    deployment.teardown();
    assert_eq!(base_trail, uds_trail, "comm/fault accounting must match over UDS");
    assert_eq!(base_params, uds_params, "cloud parameters must be bit-identical over UDS");
}

/// Part 3: the same holds over TCP with frame auth on, and the ops
/// endpoint answers while rounds run.
#[test]
fn tcp_deployment_with_auth_matches_and_serves_ops() {
    let key = [0x5Au8; 16];
    let authed_cfg = || {
        let mut cfg = toy_cfg();
        cfg.wire = cfg.wire.with_auth(key);
        cfg
    };
    let (base_params, base_trail) = run_rounds_with(authed_cfg(), None, 3);
    let (deployment, _) = deploy(true, "tcp", 2, Some(key));
    let ops = OpsServer::spawn("127.0.0.1:0", deployment.coordinator.clone()).expect("ops binds");

    let (tcp_params, tcp_trail) =
        run_rounds_with(authed_cfg(), Some(Box::new(deployment.coordinator.transport())), 3);
    assert_eq!(base_trail, tcp_trail, "comm/fault accounting must match over TCP+auth");
    assert_eq!(base_params, tcp_params, "cloud parameters must be bit-identical over TCP+auth");

    let health = http_get(ops.addr(), "/healthz");
    assert!(health.contains("\"ok\":true"), "healthz: {health}");
    assert!(health.contains("\"workers\":2"), "healthz: {health}");
    let round = http_get(ops.addr(), "/round");
    assert!(round.contains("\"rounds_completed\":3"), "round: {round}");
    let metrics = http_get(ops.addr(), "/metrics");
    let body = metrics.split("\r\n\r\n").nth(1).unwrap_or("");
    assert!(body.starts_with('{') && body.ends_with('}'), "metrics must be JSON: {metrics}");
    let missing = http_get(ops.addr(), "/nope");
    assert!(missing.contains("not found"), "404 body: {missing}");

    ops.stop();
    deployment.teardown();
}

/// A worker that dies mid-round degrades the round through the retry
/// budget into dropout fates — the barrier resolves, nothing hangs.
/// With no surviving worker every device lands in `link_dropped`.
#[test]
fn worker_crash_mid_round_degrades_to_dropout_fates() {
    let worker_cfg = WorkerRunConfig { modular: Some(toy_cfg().modular), ..WorkerRunConfig::default() };
    let mut cfg = ServeConfig::new(worker_cfg);
    let path = uds_path("crash");
    cfg.uds = Some(path.clone());
    cfg.deadline_ms = 30_000;
    cfg.retry = RetryPolicy { max_retries: 1, ..RetryPolicy::default() };
    let coordinator = Coordinator::bind(cfg).expect("bind coordinator");

    // A saboteur worker: handshakes, then slams the connection shut the
    // moment the first job frame arrives.
    let ep = Endpoint::Uds(path);
    let saboteur = thread::spawn(move || {
        use nebula_wire::hello::{decode_hello_ack, encode_hello, Hello, HELLO_PROTO};
        use nebula_wire::stream::{read_frame, write_frame, DEFAULT_MAX_FRAME_LEN};
        use nebula_wire::CodecKind;
        let mut conn = nebula_serve::Conn::connect(&ep).expect("dial");
        let mut buf = Vec::new();
        let hello = Hello { proto: HELLO_PROTO, codec: CodecKind::Raw, threads: 1, name: "bad".into() };
        encode_hello(&mut buf, &hello, None);
        write_frame(&mut conn, &buf).expect("hello");
        assert!(read_frame(&mut conn, DEFAULT_MAX_FRAME_LEN, &mut buf).expect("ack"));
        decode_hello_ack(&buf, None).expect("ack decodes");
        // Wait for the first job, then die without answering.
        let _ = read_frame(&mut conn, DEFAULT_MAX_FRAME_LEN, &mut buf);
        conn.shutdown();
    });
    assert!(coordinator.wait_for_workers(1, Duration::from_secs(20)));

    let mut world = toy_world(8, 5);
    let mut s = NebulaStrategy::new(toy_cfg(), 1);
    {
        use nebula_sim::AdaptStrategy;
        s.set_transport(Box::new(coordinator.transport()));
    }
    let mut rng = NebulaRng::seed(3);
    let before = s.cloud().model().param_vector();
    let out = s.single_round(&mut world, &mut rng);
    saboteur.join().expect("saboteur thread");

    assert_eq!(out.stats.faults.participated, 0, "{:?}", out.stats.faults);
    assert!(out.stats.faults.link_dropped > 0, "lost jobs must land as dropouts: {:?}", out.stats.faults);
    assert_eq!(
        before,
        s.cloud().model().param_vector(),
        "a fully-lost round must leave the cloud model untouched"
    );
    assert_eq!(coordinator.worker_count(), 0, "the dead worker must leave the registry");
    coordinator.shutdown();
}

/// A crash with a survivor: jobs on the dead worker are reassigned
/// under the retry budget, so the round still matches the in-process
/// bits exactly.
#[test]
fn crash_with_survivor_reassigns_and_stays_bit_identical() {
    let (base_params, base_trail) = run_rounds(None, 2);

    let worker_cfg = WorkerRunConfig { modular: Some(toy_cfg().modular), ..WorkerRunConfig::default() };
    let mut cfg = ServeConfig::new(worker_cfg);
    let path = uds_path("survivor");
    cfg.uds = Some(path.clone());
    cfg.deadline_ms = 60_000;
    let coordinator = Coordinator::bind(cfg).expect("bind coordinator");

    // One honest worker...
    let ep = Endpoint::Uds(path.clone());
    let honest = thread::spawn(move || {
        let mut wc = WorkerConfig::new(ep);
        wc.name = "honest".into();
        run_worker(wc).expect("honest worker");
    });
    assert!(coordinator.wait_for_workers(1, Duration::from_secs(20)));
    // ...and one saboteur that dies on its first job, forcing a
    // mid-round reassignment to the survivor.
    let ep = Endpoint::Uds(path);
    let saboteur = thread::spawn(move || {
        use nebula_wire::hello::{decode_hello_ack, encode_hello, Hello, HELLO_PROTO};
        use nebula_wire::stream::{read_frame, write_frame, DEFAULT_MAX_FRAME_LEN};
        use nebula_wire::CodecKind;
        let mut conn = nebula_serve::Conn::connect(&ep).expect("dial");
        let mut buf = Vec::new();
        let hello = Hello { proto: HELLO_PROTO, codec: CodecKind::Raw, threads: 1, name: "bad".into() };
        encode_hello(&mut buf, &hello, None);
        write_frame(&mut conn, &buf).expect("hello");
        assert!(read_frame(&mut conn, DEFAULT_MAX_FRAME_LEN, &mut buf).expect("ack"));
        decode_hello_ack(&buf, None).expect("ack decodes");
        let _ = read_frame(&mut conn, DEFAULT_MAX_FRAME_LEN, &mut buf);
        conn.shutdown();
    });
    assert!(coordinator.wait_for_workers(2, Duration::from_secs(20)));

    let mut world = toy_world(8, 5);
    let mut s = NebulaStrategy::new(toy_cfg(), 1);
    {
        use nebula_sim::AdaptStrategy;
        s.set_transport(Box::new(coordinator.transport()));
    }
    let mut rng = NebulaRng::seed(3);
    let mut trail = Vec::new();
    for _ in 0..2 {
        let out = s.single_round(&mut world, &mut rng);
        trail.push((
            out.stats.comm.up_bytes,
            out.stats.comm.down_bytes,
            out.stats.faults.participated,
            out.stats.faults.link_dropped,
        ));
    }
    saboteur.join().expect("saboteur thread");

    assert_eq!(base_trail, trail, "reassigned rounds must keep the in-process accounting");
    assert_eq!(
        base_params,
        s.cloud().model().param_vector(),
        "reassignment must not change a single bit of the trajectory"
    );
    coordinator.shutdown();
    honest.join().expect("honest worker thread");
}

/// An undecodable job frame makes the worker close its connection and
/// report the failure immediately — fail fast so the coordinator's drop
/// path reassigns, instead of the job idling until the round deadline.
#[test]
fn worker_fails_fast_on_corrupt_job_frame() {
    use nebula_wire::hello::{decode_hello, encode_hello_ack, HelloAck};
    use nebula_wire::stream::{read_frame, write_frame, DEFAULT_MAX_FRAME_LEN};
    use nebula_wire::CodecKind;
    use std::os::unix::net::UnixListener;

    let path = uds_path("badframe");
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).expect("bind fake coordinator");
    let ep = Endpoint::Uds(path.clone());

    let fake = thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let mut buf = Vec::new();
        assert!(read_frame(&mut conn, DEFAULT_MAX_FRAME_LEN, &mut buf).expect("hello"));
        decode_hello(&buf, None).expect("hello decodes");
        let ack = HelloAck {
            accepted: true,
            codec: CodecKind::Raw,
            worker_id: 1,
            reason: String::new(),
            config_json: serde_json::to_string(&WorkerRunConfig::default()).expect("config json"),
        };
        encode_hello_ack(&mut buf, &ack, None);
        write_frame(&mut conn, &buf).expect("ack");
        // A well-delimited frame whose body is garbage: the worker's
        // decode_message must reject it and hang up on us.
        write_frame(&mut conn, b"not a nebula-wire frame").expect("garbage frame");
        let closed = matches!(read_frame(&mut conn, DEFAULT_MAX_FRAME_LEN, &mut buf), Ok(false) | Err(_));
        assert!(closed, "worker must close the connection after the bad frame");
    });

    let t0 = std::time::Instant::now();
    let err = run_worker(WorkerConfig::new(ep)).expect_err("a corrupt frame must fail the worker");
    assert!(matches!(err, nebula_serve::ServeError::Proto(_)), "got {err:?}");
    assert!(t0.elapsed() < Duration::from_secs(10), "must fail fast, not sit out a round deadline");
    fake.join().expect("fake coordinator thread");
    let _ = std::fs::remove_file(&path);
}

/// Liveness, the tentpole's first leg: a half-open worker — connected,
/// admitted, silent — is evicted within the liveness timeout and its
/// jobs re-homed, so the round completes bit-identically in seconds
/// instead of idling out the 60 s deadline.
#[test]
fn silent_worker_is_evicted_within_liveness_timeout() {
    use nebula_telemetry::{MemorySink, Telemetry};

    let (base_params, _) = run_rounds(None, 1);

    let worker_cfg = WorkerRunConfig { modular: Some(toy_cfg().modular), ..WorkerRunConfig::default() };
    let mut cfg = ServeConfig::new(worker_cfg);
    let path = uds_path("liveness");
    cfg.uds = Some(path.clone());
    cfg.deadline_ms = 60_000;
    cfg.liveness_timeout_ms = 400;
    let telemetry = Telemetry::new(Arc::new(MemorySink::default()));
    cfg.telemetry = telemetry.clone();
    let coordinator = Coordinator::bind(cfg).expect("bind coordinator");

    // One honest worker (it answers pings from its reader thread)...
    let ep = Endpoint::Uds(path.clone());
    let honest = thread::spawn(move || {
        let mut wc = WorkerConfig::new(ep);
        wc.name = "honest".into();
        run_worker(wc).expect("honest worker");
    });
    assert!(coordinator.wait_for_workers(1, Duration::from_secs(20)));
    // ...and a half-open one: it handshakes, then reads and discards
    // everything without ever writing a byte back. No socket error ever
    // surfaces — only liveness can see it.
    let ep = Endpoint::Uds(path);
    let silent = thread::spawn(move || {
        use nebula_wire::hello::{decode_hello_ack, encode_hello, Hello, HELLO_PROTO};
        use nebula_wire::stream::{read_frame, write_frame, DEFAULT_MAX_FRAME_LEN};
        use nebula_wire::CodecKind;
        let mut conn = nebula_serve::Conn::connect(&ep).expect("dial");
        let mut buf = Vec::new();
        let hello = Hello { proto: HELLO_PROTO, codec: CodecKind::Raw, threads: 1, name: "mute".into() };
        encode_hello(&mut buf, &hello, None);
        write_frame(&mut conn, &buf).expect("hello");
        assert!(read_frame(&mut conn, DEFAULT_MAX_FRAME_LEN, &mut buf).expect("ack"));
        decode_hello_ack(&buf, None).expect("ack decodes");
        // Swallow jobs and pings until the coordinator cuts us off.
        while let Ok(true) = read_frame(&mut conn, DEFAULT_MAX_FRAME_LEN, &mut buf) {}
    });
    assert!(coordinator.wait_for_workers(2, Duration::from_secs(20)));

    let mut world = toy_world(8, 5);
    let mut s = NebulaStrategy::new(toy_cfg(), 1);
    {
        use nebula_sim::AdaptStrategy;
        s.set_transport(Box::new(coordinator.transport()));
    }
    let mut rng = NebulaRng::seed(3);
    let t0 = std::time::Instant::now();
    let out = s.single_round(&mut world, &mut rng);
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "eviction must resolve the round well under the 60s deadline, took {:?}",
        t0.elapsed()
    );
    silent.join().expect("silent worker thread");

    assert_eq!(
        out.stats.faults.link_dropped, 0,
        "reassignment must absorb the eviction: {:?}",
        out.stats.faults
    );
    assert_eq!(coordinator.worker_count(), 1, "the silent worker must be evicted from the registry");
    let counters = telemetry.metrics().expect("telemetry armed").counters;
    assert_eq!(counters.get("serve.workers_evicted").copied().unwrap_or(0), 1, "counters: {counters:?}");
    assert!(counters.get("serve.pings_sent").copied().unwrap_or(0) >= 1, "counters: {counters:?}");
    assert_eq!(base_params, s.cloud().model().param_vector(), "the evicted round must stay bit-identical");

    coordinator.shutdown();
    honest.join().expect("honest worker thread");
}

/// Crash-resume, worker half: a coordinator that dies without shutdown
/// notices gets its fleet back — the worker's rejoin loop re-dials the
/// rebound endpoint, re-handshakes under a fresh id, and training
/// continues on the same bits.
#[test]
fn worker_rejoins_across_coordinator_restart_and_bits_continue() {
    let (base_params, _) = run_rounds(None, 2);

    let worker_cfg = WorkerRunConfig { modular: Some(toy_cfg().modular), ..WorkerRunConfig::default() };
    let path = uds_path("rejoin");
    let bind = |p: &PathBuf| {
        let mut cfg = ServeConfig::new(worker_cfg.clone());
        cfg.uds = Some(p.clone());
        cfg.deadline_ms = 60_000;
        Coordinator::bind(cfg).expect("bind coordinator")
    };
    let first = bind(&path);
    let ep = Endpoint::Uds(path.clone());
    let worker = thread::spawn(move || {
        let mut wc = WorkerConfig::new(ep);
        wc.name = "phoenix".into();
        run_worker(wc).expect("worker survives the restart to a clean shutdown")
    });
    assert!(first.wait_for_workers(1, Duration::from_secs(20)));

    let mut world = toy_world(8, 5);
    let mut s = NebulaStrategy::new(toy_cfg(), 1);
    let mut rng = NebulaRng::seed(3);
    {
        use nebula_sim::AdaptStrategy;
        s.set_transport(Box::new(first.transport()));
    }
    s.single_round(&mut world, &mut rng);

    // The coordinator "crashes": sockets slammed shut, no notices.
    first.abort();
    let second = bind(&path);
    assert!(
        second.wait_for_workers(1, Duration::from_secs(20)),
        "the worker must rejoin the restarted coordinator on its own"
    );
    {
        use nebula_sim::AdaptStrategy;
        s.set_transport(Box::new(second.transport()));
    }
    s.single_round(&mut world, &mut rng);

    second.shutdown();
    let report = worker.join().expect("worker thread");
    assert_eq!(report.sessions, 2, "exactly one rejoin must have happened: {report:?}");
    assert_eq!(
        base_params,
        s.cloud().model().param_vector(),
        "the trajectory must continue bit-identically across the restart"
    );
}

/// Satellite regression: a result write that fails must poison the
/// session and sever the socket, so the worker fails fast with a reason
/// instead of computing results into the void with a silently dead
/// executor pool.
#[test]
fn result_write_failure_poisons_the_session_and_fails_fast() {
    use nebula_core::{DispatchJob, JobSpec, TrainParams};
    use nebula_data::Dataset;
    use nebula_serve::proto::{encode_job, JobTag};
    use nebula_tensor::Tensor;
    use nebula_wire::hello::{decode_hello, encode_hello_ack, HelloAck};
    use nebula_wire::stream::{read_frame, write_frame, DEFAULT_MAX_FRAME_LEN};
    use nebula_wire::CodecKind;
    use std::os::unix::net::UnixListener;

    let path = uds_path("poison");
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).expect("bind fake coordinator");
    let ep = Endpoint::Uds(path.clone());
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();

    let fake = thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let mut buf = Vec::new();
        assert!(read_frame(&mut conn, DEFAULT_MAX_FRAME_LEN, &mut buf).expect("hello"));
        decode_hello(&buf, None).expect("hello decodes");
        let ack = HelloAck {
            accepted: true,
            codec: CodecKind::Raw,
            worker_id: 1,
            reason: String::new(),
            config_json: serde_json::to_string(&WorkerRunConfig::default()).expect("config json"),
        };
        encode_hello_ack(&mut buf, &ack, None);
        write_frame(&mut conn, &buf).expect("ack");
        // Stop reading BEFORE the job goes out: the worker's result
        // write then hits a peer that will never drain it (EPIPE), not
        // an ordinary close.
        conn.shutdown(std::net::Shutdown::Read).expect("shut read half");
        // A modular job against a worker with no modular model: the
        // result (a rejection) is produced instantly, no training.
        let xs: Vec<f32> = (0..12).map(|i| i as f32 * 0.25 - 1.0).collect();
        let job = DispatchJob {
            round: 0,
            device: 42,
            spec: JobSpec::Modular { frame: vec![1, 2, 3] },
            rng_state: NebulaRng::seed(7).state(),
            train: TrainParams { epochs: 1, batch_size: 4, lr: 0.05 },
            data: Dataset::new(Tensor::from_vec(xs, &[3, 4]), vec![0, 2, 1], 3),
        };
        let tag = JobTag { job: 0, attempt: 0, epoch: 1, device: 42 };
        encode_job(&mut buf, &job, tag, None).expect("job encodes");
        write_frame(&mut conn, &buf).expect("job frame");
        // Hold the socket open until the worker has failed: dropping it
        // here would mask the write-failure path behind a plain EOF.
        let _ = done_rx.recv_timeout(Duration::from_secs(30));
    });

    let t0 = std::time::Instant::now();
    let mut wc = WorkerConfig::new(ep);
    wc.rejoin = false;
    let err = run_worker(wc).expect_err("a dead result path must fail the worker");
    assert!(matches!(err, nebula_serve::ServeError::Io(_)), "got {err:?}");
    assert!(format!("{err}").contains("poisoned"), "the reason must name the poisoned session: {err}");
    assert!(t0.elapsed() < Duration::from_secs(10), "must fail fast, took {:?}", t0.elapsed());
    done_tx.send(()).ok();
    fake.join().expect("fake coordinator thread");
    let _ = std::fs::remove_file(&path);
}

/// Crash-resume, coordinator half: a durable serving run killed at
/// round 2 resumes from disk — replaying through the live workers —
/// and lands on the uninterrupted trajectory exactly.
#[test]
fn killed_durable_serving_run_resumes_bit_identically() {
    use nebula_sim::{ChaosControl, DurabilityConfig, ExperimentConfig, KillSpot, RunError, Runner};

    const TARGET: f32 = 1.01; // unreachable: runs always go to max_rounds
    const ROUNDS: usize = 4;
    let cfg = ExperimentConfig { eval_devices: 3, seed: 11 };

    // Uninterrupted in-process baseline (serve == in-process is pinned
    // by the identity tests above).
    let mut world = toy_world(8, 5);
    let mut s = NebulaStrategy::new(toy_cfg(), 1);
    let base =
        Runner::new(&mut world, &mut s).config(cfg).target(TARGET, ROUNDS, 2).run().expect("baseline run");

    let dir = std::env::temp_dir().join(format!("nebula-serve-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("durability dir");

    let (deployment, _) = deploy(false, "resume", 2, None);

    {
        let mut world = toy_world(8, 5);
        let mut s = NebulaStrategy::new(toy_cfg(), 1);
        let err = Runner::new(&mut world, &mut s)
            .config(cfg)
            .target(TARGET, ROUNDS, 2)
            .durable(DurabilityConfig::new(&dir))
            .chaos(ChaosControl { kill: Some((2, KillSpot::AfterAppend)) })
            .transport(Box::new(deployment.coordinator.transport()))
            .run()
            .expect_err("the armed kill must fire");
        assert_eq!(err, RunError::Killed { round: 2 });
    }

    let mut world = toy_world(8, 5);
    let mut s = NebulaStrategy::new(toy_cfg(), 1);
    let resumed = Runner::new(&mut world, &mut s)
        .config(cfg)
        .target(TARGET, ROUNDS, 2)
        .durable(DurabilityConfig::new(&dir))
        .transport(Box::new(deployment.coordinator.transport()))
        .resume()
        .run()
        .expect("resumed serving run completes");

    deployment.teardown();
    assert_eq!(base.rounds, resumed.rounds, "round counts diverge");
    assert_eq!(
        base.final_accuracy.to_bits(),
        resumed.final_accuracy.to_bits(),
        "resume must land on the uninterrupted bits: {} vs {}",
        base.final_accuracy,
        resumed.final_accuracy
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hedged retry, the tentpole's latency leg: a worker whose result
/// frames crawl past the hedge trigger gets its jobs speculatively
/// re-dispatched to the fast worker; the round resolves early, the
/// late originals are absorbed as duplicates, and the bits don't move.
#[test]
fn hedged_dispatch_rescues_a_round_from_a_slow_worker() {
    use nebula_serve::NetFaultPlan;
    use nebula_telemetry::{MemorySink, Telemetry};

    let (base_params, _) = run_rounds(None, 1);

    let worker_cfg = WorkerRunConfig { modular: Some(toy_cfg().modular), ..WorkerRunConfig::default() };
    let mut cfg = ServeConfig::new(worker_cfg);
    let path = uds_path("hedge");
    cfg.uds = Some(path.clone());
    cfg.deadline_ms = 60_000;
    cfg.hedge_after_ms = 250;
    let telemetry = Telemetry::new(Arc::new(MemorySink::default()));
    cfg.telemetry = telemetry.clone();
    let coordinator = Coordinator::bind(cfg).expect("bind coordinator");

    let ep = Endpoint::Uds(path.clone());
    let fast = thread::spawn(move || {
        let mut wc = WorkerConfig::new(ep);
        wc.name = "fast".into();
        run_worker(wc).expect("fast worker");
    });
    assert!(coordinator.wait_for_workers(1, Duration::from_secs(20)));
    let ep = Endpoint::Uds(path);
    let slow = thread::spawn(move || {
        let mut wc = WorkerConfig::new(ep);
        wc.name = "slow".into();
        // Every outbound frame sits on the wire for 1.5 s — an order of
        // magnitude past the hedge trigger, far under the deadline.
        wc.chaos = Some(NetFaultPlan { delay_ms: 1_500, ..NetFaultPlan::seeded(1) });
        run_worker(wc).expect("slow worker");
    });
    assert!(coordinator.wait_for_workers(2, Duration::from_secs(20)));

    let mut world = toy_world(8, 5);
    let mut s = NebulaStrategy::new(toy_cfg(), 1);
    {
        use nebula_sim::AdaptStrategy;
        s.set_transport(Box::new(coordinator.transport()));
    }
    let mut rng = NebulaRng::seed(3);
    let out = s.single_round(&mut world, &mut rng);

    assert_eq!(out.stats.faults.link_dropped, 0, "hedging must not surface faults: {:?}", out.stats.faults);
    let counters = telemetry.metrics().expect("telemetry armed").counters;
    assert!(counters.get("serve.jobs_hedged").copied().unwrap_or(0) >= 1, "counters: {counters:?}");
    assert!(counters.get("serve.hedge_wins").copied().unwrap_or(0) >= 1, "counters: {counters:?}");
    assert_eq!(base_params, s.cloud().model().param_vector(), "a hedged round must stay bit-identical");

    coordinator.shutdown();
    fast.join().expect("fast worker thread");
    slow.join().expect("slow worker thread");
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("ops connect");
    write!(s, "GET {path} HTTP/1.1\r\nHost: ops\r\nConnection: close\r\n\r\n").expect("request");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("response");
    out
}

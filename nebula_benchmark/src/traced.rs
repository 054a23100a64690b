//! The traced run: per-layer numbers for one workload's configuration.
//!
//! Three replicas run the same fault-free rounds from the same state, so
//! round `i` of each does the same computation and they compare pair by
//! pair:
//!
//! * **real** — the workload through `sim::Runner` exactly as the
//!   end-to-end run drives it (codec, auth, aggregator, transport,
//!   journal), with clock stamps only;
//! * **ledger** — the benchmark-owned driver of [`crate::ledger`], one
//!   span per public call;
//! * **armed** — the real strategy again with a `MemorySink` attached.
//!
//! The ledger replica must end on the real replica's parameters bit for
//! bit, or the run reports `correct: false`. Every replica first runs the
//! end-to-end run's warm-up rounds, which no figure below includes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use nebula_core::Transport;
use nebula_nn::Layer;
use nebula_sim::experiment::{mean_accuracy, pick_eval_ids};
use nebula_sim::strategy::{DenseState, StrategyState};
use nebula_sim::{AdaptStrategy, FedAvgStrategy, NebulaStrategy, SimWorld};
use nebula_telemetry::{MemorySink, Telemetry};
use nebula_tensor::NebulaRng;
use serde_json::Value;

use crate::deploy::{output_dir, Deployment, Scratch};
use crate::ledger::{DenseDriver, Durable, NebulaDriver, RoundDriver, WireTally};
use crate::metrics::Metrics;
use crate::probes::{self, StageTimes};
use crate::run::{pass, Observe, Report};
use crate::stats::{median, same_bits, Span};
use crate::timed::{Benched, StartState};
use crate::trace::{Ledger, Tracer, CONTAINERS};
use crate::workloads::{System, Workload, EVAL_DEVICES, SERVE_EXECUTORS, SERVE_WORKERS, WARMUP_ROUNDS};

/// Devices whose sub-models (or dense copies) the train-step probe trains.
const PROBE_DEVICES: usize = 8;

fn restored_world(w: &Workload, start: &StartState) -> (SimWorld, NebulaRng) {
    let mut world = w.world(false);
    world.restore_rng_state(start.world_rng).expect("captured world rng state is valid");
    world.set_rounds_started(start.rounds_started);
    let rng = NebulaRng::from_state(start.harness_rng).expect("captured harness rng state is valid");
    (world, rng)
}

/// Median duration of the spans called `name`, ms (0 if there are none).
fn span_p50_ms(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && s.round as usize >= WARMUP_ROUNDS)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    if d.is_empty() {
        0.0
    } else {
        median(&d)
    }
}

/// The two replicas that shadow the real run, stepped once after each
/// real step.
struct Lockstep {
    driver: Box<dyn RoundDriver>,
    armed: Box<dyn Benched>,
    ledger_world: SimWorld,
    ledger_rng: NebulaRng,
    armed_world: SimWorld,
    armed_rng: NebulaRng,
    tracer: Tracer,
    sink: Arc<MemorySink>,
    /// Step wall times of the armed replica, ms.
    armed_ms: Vec<f64>,
    /// Events the sink held when the warm-up ended.
    events_at_warmup: usize,
}

/// The shadows' handles on their deployment: one per replica.
type Sockets = Option<(Box<dyn Transport>, Box<dyn Transport>)>;

impl Lockstep {
    /// Builds both replicas in the state the real run's first step
    /// started from.
    fn new(w: &Workload, seed: u64, start: &StartState, sockets: Sockets, journal_dir: &Path) -> Lockstep {
        let cfg = w.strategy_config();
        let (ledger_world, ledger_rng) = restored_world(w, start);
        let (mut armed_world, armed_rng) = restored_world(w, start);
        let tracked = pick_eval_ids(&ledger_world, EVAL_DEVICES);
        let (ledger_socket, armed_socket) = sockets.unzip();
        let (driver, mut armed): (Box<dyn RoundDriver>, Box<dyn Benched>) = match w.system {
            System::Nebula => {
                let durable = w.served.then(|| Durable::open(journal_dir));
                let mut driver = NebulaDriver::new(
                    cfg.clone(),
                    seed,
                    &start.params,
                    tracked.clone(),
                    ledger_socket,
                    durable,
                );
                driver.prime_tracked(&ledger_world);
                let mut armed = NebulaStrategy::new(cfg, seed);
                armed.cloud_mut().model_mut().load_param_vector(&start.params);
                if let Some(socket) = armed_socket {
                    armed.set_transport(socket);
                }
                (Box::new(driver), Box::new(armed))
            }
            System::FedAvg => {
                let mut armed = FedAvgStrategy::new(cfg.clone(), seed);
                let state = DenseState {
                    name: "FA".to_string(),
                    param_bits: start.params.iter().map(|p| p.to_bits()).collect(),
                };
                armed.import_state(&StrategyState::Dense(state)).expect("FedAvg imports its own state shape");
                (Box::new(DenseDriver::new(cfg, seed, &start.params)), Box::new(armed))
            }
        };
        let sink = Arc::new(MemorySink::new());
        armed.set_telemetry(Telemetry::new(sink.clone()));
        armed.track(&tracked);
        // The run's first probe, which creates the tracked cohort's clients.
        mean_accuracy(armed.as_mut(), &mut armed_world, &tracked);
        Lockstep {
            driver,
            armed,
            ledger_world,
            ledger_rng,
            armed_world,
            armed_rng,
            // Room for every span of the run, so that recording one never
            // reallocates inside another.
            tracer: Tracer::with_capacity(1 << 14),
            sink,
            armed_ms: Vec::new(),
            events_at_warmup: 0,
        }
    }

    /// Round `round` on the ledger replica, then on the armed one.
    fn round(&mut self, round: usize) {
        if round == WARMUP_ROUNDS {
            self.events_at_warmup = self.sink.len();
            *self.driver.tally() = WireTally::default();
        }
        self.tracer.set_round(round as u32);
        self.driver.step(&mut self.ledger_world, &mut self.ledger_rng, &mut self.tracer);
        let t = Instant::now();
        self.armed.adaptation_step(&mut self.armed_world, &mut self.armed_rng);
        self.armed_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// `data.*`, `nn.*` and `modular.*` or `baselines.dense_*`: the stages
    /// of local train steps on the models this workload trains.
    fn train_step_probe(&mut self, w: &Workload, seed: u64, m: &mut Metrics) {
        let cfg = w.strategy_config();
        let mut stages = StageTimes::default();
        let mut rng = NebulaRng::seed(seed ^ 0x7EA1);
        self.driver.probe_models(&self.ledger_world, PROBE_DEVICES, &mut |model, data| {
            probes::timed_train_loop(
                model,
                data,
                cfg.local_epochs,
                cfg.batch_size,
                cfg.local_lr,
                &mut rng,
                &mut stages,
            )
        });
        stages.report(w.system == System::Nebula, m);
    }
}

pub fn run(w: &'static Workload, seed: u64, scratch: &Scratch) -> Report {
    let rounds = w.trace_rounds;
    let cfg = w.strategy_config();
    let mut m = Metrics::default();

    // The shadow replicas share one deployment of their own when served.
    let replay_dir = scratch.sub("replay").expect("scratch directory");
    let deployment =
        w.served.then(|| Deployment::start(&replay_dir, cfg.modular.clone(), SERVE_WORKERS, SERVE_EXECUTORS));

    // The real replica, through the Runner, with the shadows in lockstep.
    let shadows: Rc<RefCell<Option<Lockstep>>> = Rc::new(RefCell::new(None));
    let after_step = {
        let shadows = Rc::clone(&shadows);
        let mut sockets: Sockets = deployment.as_ref().map(|d| (d.transport(), d.transport()));
        let journal_dir = replay_dir.join("journal");
        Box::new(move |round: usize, start: &StartState| {
            shadows
                .borrow_mut()
                .get_or_insert_with(|| Lockstep::new(w, seed, start, sockets.take(), &journal_dir))
                .round(round);
        })
    };
    let real_dir = scratch.sub("real").expect("scratch directory");
    let observe =
        Observe { after_step: Some(after_step), transport: true, no_faults: true, in_process: false };
    let real = pass(w, seed, WARMUP_ROUNDS + rounds, &real_dir, observe);
    let mut shadows = shadows.borrow_mut().take().expect("a run of at least one round builds its shadows");
    let steps = &real.steps[WARMUP_ROUNDS..];
    let real_ms: Vec<f64> = steps.iter().map(|s| (s.end - s.start).as_secs_f64() * 1e3).collect();
    let gaps_ms: Vec<f64> =
        steps.windows(2).map(|p| (p[1].start - p[0].returned).as_secs_f64() * 1e3).collect();
    let armed_ms = shadows.armed_ms[WARMUP_ROUNDS..].to_vec();
    let events = shadows.sink.len() - shadows.events_at_warmup;
    let (ledger_params, armed_params) = (shadows.driver.params(), shadows.armed.global_params());
    let tally = *shadows.driver.tally();
    shadows.train_step_probe(w, seed, &mut m);
    let tracer = shadows.tracer;

    // Serving-plane probes: the real run's own round trips, then one of
    // its job vectors through each transport.
    if let (Some(d), Some(log)) = (&deployment, &real.transport) {
        let trips: Vec<f64> =
            log.round_trips.iter().skip(WARMUP_ROUNDS).map(|t| t.as_secs_f64() * 1e3).collect();
        m.set("serve.bringup_ms", real.bringup_s * 1e3);
        m.set("serve.round_trip_ms_p50", median(&trips));
        m.set("serve.jobs_sent", log.jobs_sent as f64);
        m.set("serve.jobs_lost", log.jobs_lost as f64);
        let jobs = log.first_jobs.as_deref().expect("the first round's jobs were kept");
        let solo_dir = scratch.sub("solo").expect("scratch directory");
        let solo = Deployment::start(&solo_dir, cfg.modular.clone(), 1, 1);
        probes::serve_replay(
            jobs,
            &cfg.modular,
            cfg.wire,
            &mut *d.transport(),
            &mut *solo.transport(),
            &mut m,
        );
        solo.stop();
    }
    if let Some(d) = deployment {
        d.stop();
    }

    probes::gemm(&cfg.modular, cfg.batch_size, seed, &mut m);

    // Roll the spans up into the per-round ledger.
    let spans = tracer.spans();
    let mut ledger = Ledger::build(spans);
    ledger.skip_rounds(WARMUP_ROUNDS, spans);
    let per_round = |names: &[&str]| -> f64 {
        let sums: Vec<f64> = (0..rounds)
            .map(|r| names.iter().map(|n| ledger.rounds[r].get(n).copied().unwrap_or(0.0)).sum())
            .collect();
        median(&sums)
    };
    m.set("core.derive_ms", per_round(&["modular.importance", "core.derive"]));
    for (metric, span) in [
        ("core.dispatch_ms", "core.dispatch"),
        ("core.edge_install_ms", "core.edge_install"),
        ("core.edge_adapt_ms", "core.edge_adapt"),
        ("core.edge_make_update_ms", "core.edge_make_update"),
        ("core.aggregate_ms", "core.aggregate"),
        ("wire.encode_payload_ms", "wire.encode_payload"),
        ("wire.decode_payload_ms", "wire.decode_payload"),
        ("wire.encode_update_ms", "wire.encode_update"),
        ("wire.decode_update_ms", "wire.decode_update"),
        ("wire.dense_down_ms", "wire.dense_down"),
        ("wire.dense_up_ms", "wire.dense_up"),
        ("baselines.dense_train_ms", "baselines.dense_train"),
        ("baselines.dense_average_ms", "baselines.dense_average"),
    ] {
        m.set(metric, per_round(&[span]));
    }
    m.set("modular.importance_ms", span_p50_ms(spans, "modular.importance"));
    m.set("opt.knapsack_us", span_p50_ms(spans, "core.derive") * 1e3);
    m.set("core.journal_append_ms_p50", span_p50_ms(spans, "core.journal_append"));
    m.set("core.snapshot_save_ms_p50", span_p50_ms(spans, "core.snapshot_save"));

    let total_s =
        |names: &[&str]| -> f64 { names.iter().flat_map(|n| ledger.per_round(n)).sum::<f64>() / 1e3 };
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    let encode_s =
        total_s(&["wire.encode_payload", "wire.encode_update", "wire.dense_down", "wire.dense_up"]);
    let decode_s = total_s(&["wire.decode_payload", "wire.decode_update"]);
    m.set("wire.encode_mib_s", mib(tally.encoded) / encode_s.max(f64::MIN_POSITIVE));
    if decode_s > 0.0 {
        m.set("wire.decode_mib_s", mib(tally.decoded) / decode_s);
    }
    m.set(
        "wire.frame_bytes_per_device",
        tally.down_frames as f64 / tally.downloads.max(1) as f64
            + tally.up_frames as f64 / tally.uploads.max(1) as f64,
    );
    m.set("wire.compression_x", tally.raw_bytes as f64 / (tally.down_frames + tally.up_frames).max(1) as f64);

    m.set("sim.world_build_ms", real.world_build_s * 1e3);
    m.set("sim.offline_ms", real.offline_s * 1e3);
    m.set("sim.eval_probe_ms", real.probe_s * 1e3);
    m.set("sim.step_ms_p50", median(&real_ms));
    m.set("sim.runner_gap_ms_per_round", gaps_ms.iter().sum::<f64>() / gaps_ms.len().max(1) as f64);
    let paired = |f: &dyn Fn(usize) -> f64| median(&(0..rounds).map(f).collect::<Vec<_>>());
    m.set("sim.round_overhead_ms", paired(&|r| real_ms[r] - ledger.step_attributed_ms[r]));
    m.set("telemetry.armed_overhead_pct", paired(&|r| 100.0 * (armed_ms[r] - real_ms[r]) / real_ms[r]));
    m.set("telemetry.events_per_round", events as f64 / rounds as f64);
    m.set("bench.ledger_coverage_pct", ledger.coverage_pct());
    m.set("bench.trace_overhead_pct", paired(&|r| 100.0 * (ledger.step_ms[r] - real_ms[r]) / real_ms[r]));
    m.set("bench.spans_per_round", ledger.spans_per_round);
    m.set("bench.traced_rounds", rounds as f64);

    // The ledger, by layer span, as shares of the traced wall time.
    let wall: f64 = ledger.wall_ms.iter().sum();
    let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
    for (&name, &ms) in ledger.rounds.iter().flatten() {
        *totals.entry(name).or_insert(0.0) += ms;
    }
    let mut rows: Vec<(&str, f64)> = totals.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("{}: ledger of {rounds} traced rounds ({:.1} ms per round)", w.name, wall / rounds as f64);
    for (name, ms) in rows {
        let kind = if CONTAINERS.contains(&name) { " (unattributed)" } else { "" };
        println!("  {name:<26} {:>10.3} ms/round {:>6.2} %{kind}", ms / rounds as f64, 100.0 * ms / wall);
    }

    // Spans leave memory only now, after every measurement.
    let trace_path = output_dir().join(format!("trace-{}-seed{seed}.jsonl", w.name));
    let header = Value::Object(vec![
        ("record".to_string(), Value::String("trace".to_string())),
        ("workload".to_string(), Value::String(w.name.to_string())),
        ("host".to_string(), crate::host::descriptor(&scratch.dir)),
    ]);
    match tracer.write_jsonl(&trace_path, &header) {
        Ok(()) => println!("{}: {} spans written to {}", w.name, spans.len(), trace_path.display()),
        Err(e) => eprintln!("{}: could not write {}: {e}", w.name, trace_path.display()),
    }

    let mut problems = Vec::new();
    if !same_bits(&ledger_params, &real.params) {
        problems.push("the ledger driver did not land on the real run's parameters");
    }
    if !same_bits(&armed_params, &real.params) {
        problems.push("the telemetry-armed run did not land on the real run's parameters");
    }
    if !real.params.iter().all(|v| v.is_finite()) {
        problems.push("global model holds a non-finite parameter");
    }
    for problem in &problems {
        eprintln!("{}: CHECK FAILED: {problem}", w.name);
    }
    Report { correct: problems.is_empty(), attempted: rounds as u64, failed: 0, metrics: m }
}

//! The end-to-end run: one workload driven through the real public entry
//! point (`sim::Runner` → `AdaptStrategy::adaptation_step`) with nothing
//! but clock stamps at the step boundaries. Tracing is never on here.

use std::path::Path;
use std::time::Instant;

use nebula_sim::{
    DurabilityConfig, ExperimentConfig, FedAvgStrategy, NebulaStrategy, RunOutcome, Runner, SimWorld,
};

use crate::deploy::{Deployment, Scratch};
use crate::metrics::Metrics;
use crate::stats::{median, percentile, quartiles, tail_percentile};
use crate::timed::{AfterStep, Benched, StepStamp, Timed, TimedTransport, TransportLog};
use crate::workloads::{
    System, Workload, DEVICES_PER_ROUND, EVAL_DEVICES, SERVE_EXECUTORS, SERVE_WORKERS, WARMUP_ROUNDS,
};

/// Set-ups per run; `setup_s` is their median (the last one carries on
/// into the measured rounds).
const SETUP_PASSES: usize = 3;

/// What the last line of standard output reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// One set-up, optionally followed by `rounds` adaptation rounds.
pub struct Pass {
    /// Start of the pass to the start of the first adaptation step (or to
    /// the end of set-up when no round follows).
    pub setup_s: f64,
    pub world_build_s: f64,
    /// Deployment bring-up (0 when the workload is not served).
    pub bringup_s: f64,
    pub steps: Vec<StepStamp>,
    pub run_end: Instant,
    pub offline_s: f64,
    /// Mean time of one evaluation probe over the cohort.
    pub probe_s: f64,
    pub outcome: RunOutcome,
    pub params: Vec<f32>,
    pub transport: Option<TransportLog>,
}

/// Extra observation a traced run asks of a pass; the end-to-end run
/// asks for none.
#[derive(Default)]
pub struct Observe {
    /// The traced run's replicas, stepped after every real step.
    pub after_step: Option<AfterStep>,
    /// Wrap the transport to time round trips and keep the first jobs.
    pub transport: bool,
    /// Leave the fault plan off (traced replays are fault-free).
    pub no_faults: bool,
    /// Run a served workload's configuration without its deployment and
    /// journal (the parity check's reference).
    pub in_process: bool,
}

pub fn pass(w: &Workload, seed: u64, rounds: usize, dir: &Path, observe: Observe) -> Pass {
    let t0 = Instant::now();
    let world = w.world(!observe.no_faults);
    let world_build_s = t0.elapsed().as_secs_f64();
    let cfg = w.strategy_config();
    let deployment = (w.served && !observe.in_process)
        .then(|| Deployment::start(dir, cfg.modular.clone(), SERVE_WORKERS, SERVE_EXECUTORS));
    let bringup_s = t0.elapsed().as_secs_f64() - world_build_s;
    let setting = Setting { t0, world, world_build_s, bringup_s, seed, rounds, observe };
    let served = deployment.as_ref().map(|d| (d, dir));
    let pass = match w.system {
        System::Nebula => drive(NebulaStrategy::new(cfg, seed), setting, served),
        System::FedAvg => drive(FedAvgStrategy::new(cfg, seed), setting, served),
    };
    if let Some(d) = deployment {
        d.stop();
    }
    pass
}

/// What [`pass`] has prepared by the time the strategy takes over.
struct Setting {
    t0: Instant,
    world: SimWorld,
    world_build_s: f64,
    bringup_s: f64,
    seed: u64,
    rounds: usize,
    observe: Observe,
}

fn drive<S: Benched>(strategy: S, setting: Setting, served: Option<(&Deployment, &Path)>) -> Pass {
    let Setting { t0, mut world, world_build_s, bringup_s, seed, rounds, observe } = setting;
    let mut timed = Timed::new(strategy);
    timed.after_step = observe.after_step;
    let mut log = None;
    // `target(1.01, N, N)`: the accuracy target is out of reach, so the
    // run is exactly N adaptation rounds and one closing probe.
    let mut runner = Runner::new(&mut world, &mut timed)
        .config(ExperimentConfig { eval_devices: EVAL_DEVICES, seed })
        .target(1.01, rounds, rounds.max(1));
    if let Some((deployment, dir)) = served {
        let socket = deployment.transport();
        runner = if observe.transport {
            let (wrapped, shared) = TimedTransport::new(socket);
            log = Some(shared);
            runner.transport(Box::new(wrapped))
        } else {
            runner.transport(socket)
        };
        runner = runner.durable(DurabilityConfig::new(dir.join("journal")));
    }
    let outcome = runner.run().expect("the benchmark's own configuration must run");
    let run_end = Instant::now();
    let first = timed.steps.first().map_or(run_end, |s| s.start);
    Pass {
        setup_s: (first - t0).as_secs_f64(),
        world_build_s,
        bringup_s,
        offline_s: timed.offline.map_or(0.0, |d| d.as_secs_f64()),
        probe_s: timed.probe.0.as_secs_f64() * EVAL_DEVICES as f64 / timed.probe.1.max(1) as f64,
        params: timed.inner.global_params(),
        steps: timed.steps,
        run_end,
        outcome,
        transport: log.map(|l| std::mem::take(&mut *l.lock().expect("transport log poisoned"))),
    }
}

/// Milliseconds between consecutive step starts after the warm-up: what
/// one adaptation round costs including the driver's work between steps
/// (journal, snapshot). The final round is left out: its successor is the
/// closing probe, not a step.
pub fn round_intervals_ms(steps: &[StepStamp]) -> Vec<f64> {
    steps[WARMUP_ROUNDS.min(steps.len())..]
        .windows(2)
        .map(|w| (w[1].start - w[0].start).as_secs_f64() * 1e3)
        .collect()
}

pub fn run(w: &Workload, seed: u64, seconds: u64, scratch: &Scratch) -> Report {
    let rounds = w.rounds(seconds);
    let mut setups = Vec::with_capacity(SETUP_PASSES);
    for i in 1..SETUP_PASSES {
        let dir = scratch.sub(&format!("setup{i}")).expect("scratch directory");
        setups.push(pass(w, seed, 0, &dir, Observe::default()).setup_s);
    }
    let dir = scratch.sub("measured").expect("scratch directory");
    let p = pass(w, seed, rounds, &dir, Observe::default());
    setups.push(p.setup_s);

    let measured = rounds - WARMUP_ROUNDS;
    let window_s = (p.run_end - p.steps[WARMUP_ROUNDS].start).as_secs_f64();
    let intervals = round_intervals_ms(&p.steps);
    let faults = p.outcome.stats.faults;
    let bytes = p.outcome.stats.comm.total_bytes();

    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    m.set("rounds_per_s", measured as f64 / window_s);
    m.set("round_ms_p50", median(&intervals));
    m.set("wire_mib_per_round", bytes as f64 / rounds as f64 / (1024.0 * 1024.0));
    m.set("accuracy_final", p.outcome.final_accuracy as f64);
    m.set("completed_jobs_frac", faults.participated as f64 / faults.sampled.max(1) as f64);
    m.set("peak_rss_mib", crate::host::peak_rss_mib());

    println!(
        "{}: seed {seed}, {rounds} adaptation rounds ({WARMUP_ROUNDS} warm-up), window {window_s:.2} s, \
         set-ups {setups:.3?} s",
        w.name
    );
    let [q1, q2, q3] = quartiles(&intervals);
    println!("{}: round_ms quartiles {q1:.3} / {q2:.3} / {q3:.3} over {} intervals", w.name, intervals.len());
    if let Some(p_tail) = tail_percentile(intervals.len()).filter(|&p| p > 50) {
        println!(
            "{}: round_ms_p{p_tail} {:.3} ms (highest percentile with >= 10 of {} samples beyond it)",
            w.name,
            percentile(&intervals, p_tail as f64),
            intervals.len()
        );
    }

    // Output checks: the run computed what it claims to have timed.
    let mut problems = Vec::new();
    if p.outcome.rounds != rounds as u64 || p.steps.len() != rounds {
        problems.push(format!("ran {} rounds, wanted {rounds}", p.outcome.rounds));
    }
    if !p.params.iter().all(|v| v.is_finite()) {
        problems.push("global model holds a non-finite parameter".to_string());
    }
    if p.outcome.final_accuracy.is_nan() || p.outcome.final_accuracy < w.accuracy_floor {
        problems
            .push(format!("accuracy_final {} below floor {}", p.outcome.final_accuracy, w.accuracy_floor));
    }
    let expected = (DEVICES_PER_ROUND * rounds) as u64;
    if faults.sampled != expected {
        problems.push(format!("sampled {} jobs, wanted {expected}", faults.sampled));
    }
    if !w.hostile && faults.participated != faults.sampled {
        problems.push(format!(
            "fault-free workload lost jobs: {} of {} participated",
            faults.participated, faults.sampled
        ));
    }
    for problem in &problems {
        eprintln!("{}: CHECK FAILED: {problem}", w.name);
    }
    Report { correct: problems.is_empty(), attempted: rounds as u64, failed: 0, metrics: m }
}

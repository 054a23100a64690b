//! Golden trajectory pins for the three collaborative round bodies and
//! for the `Runner` loop that drives them.
//!
//! Each case runs a few `single_round`s and folds the global parameter
//! bits plus every [`RoundStats`] counter (and the simulated round time)
//! into one FNV-1a digest. The constants were captured *before* the
//! dense rounds were collapsed into one path through `Transport`; a
//! refactor of the round bodies must leave them untouched.
//!
//! The dense strategies only export their server parameters under the
//! `Raw` codec, so every dense case additionally runs one more round
//! behind a [`Tap`] transport that digests the parameter vector each
//! device actually trains from — a bit-exact function of the server
//! state (and of the per-device channel state) for any codec.
//!
//! The `runner_*` cases pin what the relative parity tests (plain ≡
//! durable ≡ resumed) cannot see — a change common to both sides, such as
//! swapping the two modes' RNG salts: every [`RunOutcome`] field plus the
//! ordered sequence of event kinds (and span names) a [`MemorySink`]
//! captured.
//!
//! `nebula_events_faulty` pins the *order* of a faulty Nebula round's
//! trace, which no trajectory digest sees: every event's kind, a span's
//! name and — for `client` events — the device and its outcome, so a
//! deadline-dropped or crashed device reported at another position moves
//! the digest.
//!
//! Everything lives in ONE test function under
//! `KernelBackend::Blocked.scoped()`: the constants are then independent
//! of the host's SIMD level, and the process-global backend switch
//! cannot race with a sibling test.

use nebula_baselines::DenseJobRunner;
use nebula_core::{
    DispatchJob, JobResult, JobSpec, Loopback, ModularRunner, RobustAggregator, Transport, TransportError,
    WireConfig,
};
use nebula_data::drift::DriftKind;
use nebula_data::{DriftModel, PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use nebula_modular::ModularConfig;
use nebula_nn::Layer;
use nebula_sim::strategy::{RoundOutcome, StrategyConfig, StrategyState};
use nebula_sim::RoundStats;
use nebula_sim::{
    AdaptStrategy, AdversaryPlan, AttackPersona, CorruptionKind, ExperimentConfig, FaultPlan, FedAvgStrategy,
    HeteroFlStrategy, NebulaStrategy, ResourceSampler, RoundPolicy, RunOutcome, Runner, SimWorld,
};
use nebula_telemetry::{MemorySink, Telemetry};
use nebula_tensor::{KernelBackend, NebulaRng};
use std::sync::{Arc, Mutex};

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, params: &[f32]) {
        self.word(params.len() as u64);
        for p in params {
            self.word(p.to_bits() as u64);
        }
    }

    fn bytes(&mut self, text: &str) {
        self.word(text.len() as u64);
        for b in text.bytes() {
            self.word(b as u64);
        }
    }

    fn outcome(&mut self, out: &RoundOutcome) {
        self.stats(&out.stats);
        self.word(out.round_time_ms.to_bits());
    }

    fn stats(&mut self, stats: &RoundStats) {
        let c = stats.comm;
        let f = stats.faults;
        for w in [
            c.down_bytes,
            c.up_bytes,
            c.downloads,
            c.uploads,
            c.rounds,
            c.retries,
            c.retry_bytes,
            f.sampled,
            f.participated,
            f.dropped,
            f.crashed,
            f.deadline_dropped,
            f.link_dropped,
            f.rejected,
            f.retried,
            f.stale,
            f.rolled_back,
            f.corrupt_frames,
            stats.adapt_time_ms.to_bits(),
        ] {
            self.word(w);
        }
    }

    /// Every [`RunOutcome`] field, then the ordered event kinds of the
    /// run's trace (span events carry their name).
    fn run(&mut self, out: &RunOutcome, sink: &MemorySink) {
        self.bytes(&out.strategy);
        self.bytes(&out.mode);
        self.word(out.reached as u64);
        self.word(out.rounds);
        self.word(out.final_accuracy.to_bits() as u64);
        self.floats(&out.accuracy_per_slot);
        self.word(out.mean_adapt_time_ms.to_bits());
        self.word(out.eval_ids.len() as u64);
        for &id in &out.eval_ids {
            self.word(id as u64);
        }
        self.stats(&out.stats);
        let events = sink.events();
        self.word(events.len() as u64);
        for e in &events {
            self.bytes(&e.kind);
            if e.kind == "span" {
                self.bytes(&e.text["name"]);
            }
        }
    }
}

/// Loopback over the dense executor that digests every job's shipped
/// parameter vector on the way out.
struct Tap {
    inner: Loopback,
    seen: Arc<Mutex<Fnv>>,
}

impl Transport for Tap {
    fn kind(&self) -> &'static str {
        "tap"
    }

    fn round_trip(&mut self, jobs: Vec<DispatchJob>) -> Vec<Result<JobResult, TransportError>> {
        let mut seen = self.seen.lock().expect("tap digest lock");
        for job in &jobs {
            if let JobSpec::Dense { ratio, params, .. } = &job.spec {
                seen.word(job.device);
                seen.word(ratio.to_bits() as u64);
                seen.floats(params);
            }
        }
        drop(seen);
        self.inner.round_trip(jobs)
    }
}

fn toy_world(plan: Option<FaultPlan>) -> SimWorld {
    let synth = Synthesizer::new(SynthSpec::toy(), 1);
    let spec = PartitionSpec::new(16, Partitioner::LabelSkew { m: 2 });
    let mut world = SimWorld::new(synth, spec, 9, None, &ResourceSampler::default(), 5);
    if let Some(plan) = plan {
        world.set_fault_plan(plan);
        world.set_round_policy(RoundPolicy { deadline_factor: Some(1.5), ..RoundPolicy::default() });
    }
    world
}

fn toy_cfg(wire: WireConfig) -> StrategyConfig {
    let mut modular = ModularConfig::toy(16, 4);
    modular.gate_noise_std = 0.3;
    let mut cfg = StrategyConfig::new(modular);
    cfg.devices_per_round = 8;
    cfg.local_epochs = 2;
    cfg.wire = wire;
    cfg
}

/// Every fault kind armed at once. `corruption` differs per family: the
/// dense baselines have no gate, so a NaN poison would turn the rest of
/// their trajectory into a constant; Nebula's gate rejects it.
fn full_plan(corruption: CorruptionKind) -> FaultPlan {
    FaultPlan {
        seed: 41,
        dropout_prob: 0.15,
        crash_prob: 0.15,
        straggler_prob: 0.3,
        straggler_slowdown: 4.0,
        link_flake_prob: 0.35,
        bandwidth_collapse: 4.0,
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
    }
}

const ROUNDS: usize = 3;

/// A dense strategy: `ROUNDS` rounds on its default path, the exported
/// server bits when the codec allows, then one round behind the tap.
fn dense_case<S: AdaptStrategy>(
    mut s: S,
    plan: Option<FaultPlan>,
    round: impl Fn(&mut S, &mut SimWorld, &mut NebulaRng) -> RoundOutcome,
) -> u64 {
    let mut world = toy_world(plan);
    let mut rng = NebulaRng::seed(3);
    let mut h = Fnv::new();
    for _ in 0..ROUNDS {
        h.outcome(&round(&mut s, &mut world, &mut rng));
    }
    if let Some(StrategyState::Dense(d)) = s.export_state() {
        h.word(d.param_bits.len() as u64);
        for b in d.param_bits {
            h.word(b as u64);
        }
    }
    let seen = Arc::new(Mutex::new(Fnv::new()));
    s.set_transport(Box::new(Tap { inner: Loopback::new(Arc::new(DenseJobRunner)), seen: seen.clone() }));
    h.outcome(&round(&mut s, &mut world, &mut rng));
    let tapped = seen.lock().expect("tap digest lock").0;
    assert_ne!(tapped, Fnv::new().0, "{}: the tapped round dispatched no job", s.name());
    h.word(tapped);
    h.0
}

fn nebula_case(mut s: NebulaStrategy, plan: Option<FaultPlan>) -> u64 {
    let mut world = toy_world(plan);
    let mut rng = NebulaRng::seed(3);
    let mut h = Fnv::new();
    for _ in 0..ROUNDS {
        h.outcome(&s.single_round(&mut world, &mut rng));
    }
    h.floats(&s.cloud().model().param_vector());
    h.0
}

/// The tracked cohort's half of `adaptation_step`: three steps of one
/// round each with five tracked devices, then every step's stats
/// (`adapt_time_ms` is a float sum in tracked order) and the tracked
/// clients' parameters, active and installed sets, sorted by id. The
/// cloud-side digests above never see a tracked client.
fn tracked_case() -> u64 {
    let mut cfg = toy_cfg(WireConfig::raw());
    cfg.rounds_per_step = 1;
    let mut s = NebulaStrategy::new(cfg, 1);
    // Not in id order, so a loop that sorted the cohort would move the
    // per-device RNG forks.
    s.track(&[13, 1, 7, 4, 10]);
    let mut world = toy_world(None);
    let mut rng = NebulaRng::seed(3);
    let mut h = Fnv::new();
    for _ in 0..ROUNDS {
        h.stats(&s.adaptation_step(&mut world, &mut rng));
    }
    let Some(StrategyState::Nebula(state)) = s.export_state() else {
        panic!("a Raw Nebula strategy exports its state");
    };
    h.word(state.clients.len() as u64);
    for c in &state.clients {
        h.word(c.id as u64);
        h.word(c.param_bits.len() as u64);
        for &b in &c.param_bits {
            h.word(b as u64);
        }
        for spec in [&c.active, &c.installed] {
            h.word(spec.len() as u64);
            for layer in spec {
                h.word(layer.len() as u64);
                for &m in layer {
                    h.word(m as u64);
                }
            }
        }
    }
    h.0
}

/// `ROUNDS` traced rounds of `s` under the full plan and the 1.5 × median
/// deadline, folded into `h` event by event.
fn traced_rounds(mut s: NebulaStrategy, h: &mut Fnv) {
    let sink = Arc::new(MemorySink::new());
    s.set_telemetry(Telemetry::new(sink.clone()));
    let mut world = toy_world(Some(full_plan(CorruptionKind::NanPoison)));
    let mut rng = NebulaRng::seed(3);
    for _ in 0..ROUNDS {
        s.single_round(&mut world, &mut rng);
    }
    let events = sink.events();
    let outcome = |name: &str| events.iter().any(|e| e.kind == "client" && e.text["outcome"] == name);
    assert!(outcome("deadline_dropped") && outcome("crashed"), "the plan must cut and crash someone");
    h.word(events.len() as u64);
    for e in &events {
        h.bytes(&e.kind);
        match e.kind.as_str() {
            "span" => h.bytes(&e.text["name"]),
            "client" => {
                h.word(e.ints["device"]);
                h.bytes(&e.text["outcome"]);
            }
            _ => {}
        }
    }
}

/// The ordered trace of a faulty round, in-process (int8) and through an
/// authenticated loopback transport.
fn events_case() -> u64 {
    let mut h = Fnv::new();
    traced_rounds(NebulaStrategy::new(toy_cfg(WireConfig::int8()), 1), &mut h);
    let cfg = toy_cfg(WireConfig::raw().with_auth([9u8; 16]));
    let runner = ModularRunner::new(cfg.modular.clone(), cfg.wire);
    let mut s = NebulaStrategy::new(cfg, 1);
    s.set_transport(Box::new(Loopback::new(Arc::new(runner))));
    traced_rounds(s, &mut h);
    h.0
}

/// The runner cases' scale: an offline stage and adaptation steps small
/// enough for a debug-build test.
fn runner_cfg() -> StrategyConfig {
    let mut cfg = toy_cfg(WireConfig::raw());
    cfg.devices_per_round = 4;
    cfg.rounds_per_step = 2;
    cfg.pretrain_epochs = 2;
    cfg.proxy_samples = 100;
    cfg
}

/// A light plan, so the run-level fault counters are not all zero.
fn light_plan() -> FaultPlan {
    FaultPlan { seed: 23, dropout_prob: 0.2, straggler_prob: 0.3, link_flake_prob: 0.3, ..FaultPlan::none() }
}

/// One whole `Runner` run with a [`MemorySink`] attached.
fn runner_case(
    s: &mut dyn AdaptStrategy,
    mut world: SimWorld,
    mode: impl FnOnce(Runner<'_>) -> Runner<'_>,
) -> u64 {
    let sink = Arc::new(MemorySink::new());
    let runner = Runner::new(&mut world, s).config(ExperimentConfig { eval_devices: 3, seed: 11 });
    let out = mode(runner).telemetry(sink.clone()).run().expect("golden run");
    let mut h = Fnv::new();
    h.run(&out, &sink);
    h.0
}

fn run_case(name: &str) -> u64 {
    let dense_plan = Some(full_plan(CorruptionKind::Exploding));
    let nebula_plan = Some(full_plan(CorruptionKind::NanPoison));
    match name {
        "fa_raw_clean" => {
            dense_case(FedAvgStrategy::new(toy_cfg(WireConfig::raw()), 1), None, FedAvgStrategy::single_round)
        }
        "fa_int8_faulty" => dense_case(
            FedAvgStrategy::new(toy_cfg(WireConfig::int8()), 1),
            dense_plan,
            FedAvgStrategy::single_round,
        ),
        "hfl_raw_clean" => dense_case(
            HeteroFlStrategy::new(toy_cfg(WireConfig::raw()), 1),
            None,
            HeteroFlStrategy::single_round,
        ),
        "hfl_delta_faulty" => dense_case(
            HeteroFlStrategy::new(toy_cfg(WireConfig::delta(1e-3)), 1),
            dense_plan,
            HeteroFlStrategy::single_round,
        ),
        "nebula_raw_clean" => nebula_case(NebulaStrategy::new(toy_cfg(WireConfig::raw()), 1), None),
        "nebula_raw_auth_faulty_loopback" => {
            // Authenticated frames, so the transit tamper is the
            // CRC-recomputing forgery only the MAC catches.
            let cfg = toy_cfg(WireConfig::raw().with_auth([9u8; 16]));
            let runner = ModularRunner::new(cfg.modular.clone(), cfg.wire);
            let mut s = NebulaStrategy::new(cfg, 1);
            s.set_transport(Box::new(Loopback::new(Arc::new(runner))));
            nebula_case(s, nebula_plan)
        }
        "nebula_int8_trimmed_faulty" => {
            let mut cfg = toy_cfg(WireConfig::int8());
            cfg.aggregator = RobustAggregator::TrimmedMean { frac: 0.2 };
            nebula_case(NebulaStrategy::new(cfg, 1), nebula_plan)
        }
        "nebula_edges3_raw_clean" => {
            let mut cfg = toy_cfg(WireConfig::raw());
            cfg.edge_groups = Some(3);
            nebula_case(NebulaStrategy::new(cfg, 1), None)
        }
        "nebula_edges3_int8_trimmed_faulty" => {
            let mut cfg = toy_cfg(WireConfig::int8());
            cfg.aggregator = RobustAggregator::TrimmedMean { frac: 0.2 };
            cfg.edge_groups = Some(3);
            nebula_case(NebulaStrategy::new(cfg, 1), nebula_plan)
        }
        "nebula_tracked_raw_clean" => tracked_case(),
        "nebula_events_faulty" => events_case(),
        // The target is out of reach, so the run probes on the cadence
        // (round 2) and at the cap (round 3).
        "runner_target_fa" => {
            let mut world = toy_world(None);
            world.set_fault_plan(light_plan());
            runner_case(&mut FedAvgStrategy::new(runner_cfg(), 1), world, |r| r.target(1.01, 3, 2))
        }
        // A target the cadence probe after round 2 meets.
        "runner_target_nebula" => {
            runner_case(&mut NebulaStrategy::new(runner_cfg(), 1), toy_world(None), |r| r.target(0.97, 6, 2))
        }
        "runner_continuous_nebula_drift" => {
            let synth = Synthesizer::new(SynthSpec::toy(), 1);
            let spec = PartitionSpec::new(16, Partitioner::LabelSkew { m: 2 });
            let drift = Some(DriftModel::new(0.5, DriftKind::ClassShift { m: 2, group_seed: 9 }));
            let mut world = SimWorld::new(synth, spec, 9, drift, &ResourceSampler::default(), 5);
            world.set_fault_plan(light_plan());
            runner_case(&mut NebulaStrategy::new(runner_cfg(), 1), world, |r| r.continuous(3))
        }
        other => panic!("unknown golden case {other}"),
    }
}

/// The first seven were captured at the parent of the one-dense-round
/// refactor; the hierarchy and `runner_*` cases at the parent of the
/// one-Runner-loop / one-guarded-aggregation refactor; the tracked-cohort
/// case at the parent of the change that trains a round's devices on
/// real threads; the ordered-trace case at the parent of the change that
/// gates a Nebula round's cohort before training it.
const GOLDEN: [(&str, u64); 14] = [
    ("fa_raw_clean", 0xf449_a4ce_cd01_c038),
    ("fa_int8_faulty", 0xde47_9568_83e0_4859),
    ("hfl_raw_clean", 0x222f_cb4c_6cb6_e831),
    ("hfl_delta_faulty", 0xdbb9_8555_87e4_7688),
    ("nebula_raw_clean", 0xbbe2_647a_0792_5916),
    ("nebula_raw_auth_faulty_loopback", 0x652b_6d5b_05de_75c3),
    ("nebula_int8_trimmed_faulty", 0xd9cb_e91a_1238_dc6a),
    ("nebula_edges3_raw_clean", 0xdba1_8c1b_436e_7509),
    // Equal to the flat case above by design: a robust rule buffers at
    // the edges and the cloud runs the full gate + rule over the same
    // updates in the same order.
    ("nebula_edges3_int8_trimmed_faulty", 0xd9cb_e91a_1238_dc6a),
    ("nebula_tracked_raw_clean", 0x8873_3294_aafa_bc11),
    ("nebula_events_faulty", 0xa0f3_5a26_b69b_c837),
    ("runner_target_fa", 0x9997_d0da_d51a_458b),
    ("runner_target_nebula", 0x017f_0200_8109_61cb),
    ("runner_continuous_nebula_drift", 0x81d8_bebf_bdb6_9cd4),
];

#[test]
fn round_trajectories_match_the_golden_digests() {
    let _g = KernelBackend::Blocked.scoped();
    let got: Vec<(&str, u64)> = GOLDEN.iter().map(|&(name, _)| (name, run_case(name))).collect();
    let listing: String = got.iter().map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n")).collect();
    assert!(
        got.iter().zip(&GOLDEN).all(|(g, w)| g.1 == w.1),
        "round trajectory digests moved; computed:\n{listing}"
    );
}

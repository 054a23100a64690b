//! Golden trajectory pins for the three collaborative round bodies.
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
//! Everything lives in ONE test function under
//! `KernelBackend::Blocked.scoped()`: the constants are then independent
//! of the host's SIMD level, and the process-global backend switch
//! cannot race with a sibling test.

use nebula_baselines::DenseJobRunner;
use nebula_core::{
    DispatchJob, JobResult, JobSpec, Loopback, ModularRunner, RobustAggregator, Transport, TransportError,
    WireConfig,
};
use nebula_data::{PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use nebula_modular::ModularConfig;
use nebula_nn::Layer;
use nebula_sim::strategy::{RoundOutcome, StrategyConfig, StrategyState};
use nebula_sim::{
    AdaptStrategy, AdversaryPlan, AttackPersona, CorruptionKind, FaultPlan, FedAvgStrategy, HeteroFlStrategy,
    NebulaStrategy, ResourceSampler, RoundPolicy, SimWorld,
};
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

    fn outcome(&mut self, out: &RoundOutcome) {
        let c = out.stats.comm;
        let f = out.stats.faults;
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
            out.stats.adapt_time_ms.to_bits(),
            out.round_time_ms.to_bits(),
        ] {
            self.word(w);
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
        other => panic!("unknown golden case {other}"),
    }
}

/// Captured at the parent of the one-dense-round refactor.
const GOLDEN: [(&str, u64); 7] = [
    ("fa_raw_clean", 0xf449_a4ce_cd01_c038),
    ("fa_int8_faulty", 0xde47_9568_83e0_4859),
    ("hfl_raw_clean", 0x222f_cb4c_6cb6_e831),
    ("hfl_delta_faulty", 0xdbb9_8555_87e4_7688),
    ("nebula_raw_clean", 0xbbe2_647a_0792_5916),
    ("nebula_raw_auth_faulty_loopback", 0x652b_6d5b_05de_75c3),
    ("nebula_int8_trimmed_faulty", 0xd9cb_e91a_1238_dc6a),
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

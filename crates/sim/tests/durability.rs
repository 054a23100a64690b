//! Kill/restart durability: a run killed at any point — including with
//! corrupted durability files — resumes to a bit-identical trajectory.
//!
//! Drives `nebula_sim::Runner` directly (the free-function wrappers were
//! removed); the thin helpers below fix the run shape so every test reads
//! as "run, kill, resume, compare".

use std::fs;
use std::path::{Path, PathBuf};

use nebula_core::read_journal;
use nebula_core::transport::WireConfig;
use nebula_data::drift::DriftKind;
use nebula_data::{DriftModel, PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use nebula_modular::ModularConfig;
use nebula_sim::resources::ResourceSampler;
use nebula_sim::strategy::{NebulaStrategy, StrategyConfig};
use nebula_sim::{
    ChaosControl, CommTracker, DurableOptions, ExperimentConfig, FaultPlan, KillSpot, RoundRecord, RunError,
    RunOutcome, Runner, SimWorld,
};

const TARGET: f32 = 1.01; // unreachable → runs always go to max_rounds
const MAX_ROUNDS: usize = 5;
const PROBE_EVERY: usize = 2;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nebula-durability-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn toy_world(drift: bool) -> SimWorld {
    let synth = Synthesizer::new(SynthSpec::toy(), 1);
    let spec = PartitionSpec::new(8, Partitioner::LabelSkew { m: 2 });
    let d = drift.then(|| DriftModel::new(0.5, DriftKind::ClassShift { m: 2, group_seed: 9 }));
    let mut world = SimWorld::new(synth, spec, 9, d, &ResourceSampler::default(), 5);
    // Active faults so resume must also restore the fault-plan cursor.
    world.set_fault_plan(FaultPlan {
        seed: 7,
        dropout_prob: 0.2,
        straggler_prob: 0.2,
        straggler_slowdown: 4.0,
        ..FaultPlan::none()
    });
    world
}

fn toy_cfg() -> StrategyConfig {
    let mut modular = ModularConfig::toy(16, 4);
    modular.gate_noise_std = 0.3;
    let mut cfg = StrategyConfig::new(modular);
    cfg.devices_per_round = 4;
    cfg.rounds_per_step = 1;
    cfg.pretrain_epochs = 4;
    cfg.proxy_samples = 200;
    cfg
}

fn build(drift: bool) -> (NebulaStrategy, SimWorld) {
    (NebulaStrategy::new(toy_cfg(), 1), toy_world(drift))
}

fn opts(dir: &Path) -> DurableOptions {
    let mut o = DurableOptions::new(dir);
    o.durability.snapshot_every = 2;
    o.durability.keep_snapshots = 2;
    o
}

/// One durable rounds-to-target run through the `Runner` builder.
fn run_target_durable(
    strategy: &mut NebulaStrategy,
    world: &mut SimWorld,
    cfg: &ExperimentConfig,
    target: f32,
    max_rounds: usize,
    probe_every: usize,
    o: &DurableOptions,
) -> Result<RunOutcome, RunError> {
    Runner::new(world, strategy)
        .config(*cfg)
        .target(target, max_rounds, probe_every)
        .durable(o.durability.clone())
        .chaos(o.chaos)
        .run()
}

/// Resumes a durable rounds-to-target run from `o.durability.dir`.
fn resume_target_durable(
    strategy: &mut NebulaStrategy,
    world: &mut SimWorld,
    cfg: &ExperimentConfig,
    target: f32,
    max_rounds: usize,
    probe_every: usize,
    o: &DurableOptions,
) -> Result<RunOutcome, RunError> {
    Runner::new(world, strategy)
        .config(*cfg)
        .target(target, max_rounds, probe_every)
        .durable(o.durability.clone())
        .chaos(o.chaos)
        .resume()
        .run()
}

/// One durable continuous run through the `Runner` builder.
fn run_cont_durable(
    strategy: &mut NebulaStrategy,
    world: &mut SimWorld,
    cfg: &ExperimentConfig,
    slots: usize,
    o: &DurableOptions,
) -> Result<RunOutcome, RunError> {
    Runner::new(world, strategy)
        .config(*cfg)
        .continuous(slots)
        .durable(o.durability.clone())
        .chaos(o.chaos)
        .run()
}

/// Resumes a durable continuous run from `o.durability.dir`.
fn resume_cont_durable(
    strategy: &mut NebulaStrategy,
    world: &mut SimWorld,
    cfg: &ExperimentConfig,
    slots: usize,
    o: &DurableOptions,
) -> Result<RunOutcome, RunError> {
    Runner::new(world, strategy)
        .config(*cfg)
        .continuous(slots)
        .durable(o.durability.clone())
        .chaos(o.chaos)
        .resume()
        .run()
}

fn records_of(dir: &Path) -> Vec<RoundRecord> {
    let contents = read_journal(&dir.join("rounds.nblj")).expect("journal readable");
    contents.records.iter().map(|b| serde_json::from_slice(b).expect("journal record decodes")).collect()
}

fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "nbrs"))
        .collect();
    files.sort();
    files
}

fn flip_byte(path: &Path, offset_from_end: usize) {
    let mut bytes = fs::read(path).unwrap();
    let n = bytes.len();
    assert!(n > offset_from_end);
    bytes[n - 1 - offset_from_end] ^= 0x10;
    fs::write(path, bytes).unwrap();
}

/// Uninterrupted durable run for `seed`, returning (outcome, records).
fn baseline(seed: u64, tag: &str) -> (RunOutcome, Vec<RoundRecord>) {
    let dir = tmp_dir(tag);
    let (mut s, mut world) = build(false);
    let cfg = ExperimentConfig { eval_devices: 3, seed };
    let out = run_target_durable(&mut s, &mut world, &cfg, TARGET, MAX_ROUNDS, PROBE_EVERY, &opts(&dir))
        .expect("uninterrupted durable run");
    let recs = records_of(&dir);
    let _ = fs::remove_dir_all(&dir);
    (out, recs)
}

fn assert_equivalent(
    base: &RunOutcome,
    base_recs: &[RoundRecord],
    resumed: &RunOutcome,
    resumed_recs: &[RoundRecord],
) {
    assert_eq!(base.rounds, resumed.rounds, "round counts diverge");
    assert_eq!(
        base.final_accuracy.to_bits(),
        resumed.final_accuracy.to_bits(),
        "final accuracy diverges: {} vs {}",
        base.final_accuracy,
        resumed.final_accuracy
    );
    assert_eq!(base.stats.comm.total_bytes(), resumed.stats.comm.total_bytes(), "comm totals diverge");
    assert_eq!(base.stats.faults, resumed.stats.faults, "fault accounting diverges");
    // Per-round comm-byte trajectory: every index journalled by the
    // resumed run must match the uninterrupted run exactly.
    for rec in resumed_recs {
        let b = base_recs
            .iter()
            .find(|r| r.index == rec.index)
            .unwrap_or_else(|| panic!("baseline journal missing round {}", rec.index));
        assert_eq!(b, rec, "round {} record diverges", rec.index);
    }
}

#[test]
fn kill_and_resume_is_bit_identical_until_target() {
    let kill_points = [(2, KillSpot::BeforeAppend), (3, KillSpot::AfterAppend), (4, KillSpot::AfterSnapshot)];
    for seed in [11u64, 12, 13] {
        let (base, base_recs) = baseline(seed, &format!("base-{seed}"));
        for (round, spot) in kill_points {
            let dir = tmp_dir(&format!("kill-{seed}-{round}-{spot:?}"));
            let cfg = ExperimentConfig { eval_devices: 3, seed };
            let mut o = opts(&dir);
            o.chaos = ChaosControl { kill: Some((round, spot)) };
            let (mut s, mut world) = build(false);
            let err = run_target_durable(&mut s, &mut world, &cfg, TARGET, MAX_ROUNDS, PROBE_EVERY, &o)
                .expect_err("kill point must fire");
            assert_eq!(err, RunError::Killed { round });

            let (mut s2, mut world2) = build(false);
            let resumed = resume_target_durable(
                &mut s2,
                &mut world2,
                &cfg,
                TARGET,
                MAX_ROUNDS,
                PROBE_EVERY,
                &opts(&dir),
            )
            .expect("resume after kill");
            assert_equivalent(&base, &base_recs, &resumed, &records_of(&dir));
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn kill_and_resume_is_bit_identical_continuous() {
    let slots = 4;
    let cfg = ExperimentConfig { eval_devices: 2, seed: 21 };

    let base_dir = tmp_dir("cont-base");
    let (mut s, mut world) = build(true);
    let base = run_cont_durable(&mut s, &mut world, &cfg, slots, &opts(&base_dir)).expect("baseline");
    let base_recs = records_of(&base_dir);

    let dir = tmp_dir("cont-kill");
    let mut o = opts(&dir);
    o.chaos = ChaosControl { kill: Some((2, KillSpot::AfterAppend)) };
    let (mut s, mut world) = build(true);
    let err = run_cont_durable(&mut s, &mut world, &cfg, slots, &o).expect_err("kill fires");
    assert_eq!(err, RunError::Killed { round: 2 });

    let (mut s, mut world) = build(true);
    let resumed = resume_cont_durable(&mut s, &mut world, &cfg, slots, &opts(&dir)).expect("resume");
    assert_eq!(base.accuracy_per_slot.len(), resumed.accuracy_per_slot.len());
    for (i, (a, b)) in base.accuracy_per_slot.iter().zip(&resumed.accuracy_per_slot).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "slot {i} accuracy diverges");
    }
    assert_eq!(base.mean_adapt_time_ms.to_bits(), resumed.mean_adapt_time_ms.to_bits());
    assert_eq!(base.stats.faults, resumed.stats.faults);
    for rec in records_of(&dir) {
        let b = base_recs.iter().find(|r| r.index == rec.index).expect("baseline has slot");
        assert_eq!(b, &rec, "slot {} record diverges", rec.index);
    }
    let _ = fs::remove_dir_all(&base_dir);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_survives_corrupt_newest_snapshot() {
    let seed = 31u64;
    let (base, base_recs) = baseline(seed, "corrupt-base");
    let dir = tmp_dir("corrupt-snap");
    let cfg = ExperimentConfig { eval_devices: 3, seed };
    let mut o = opts(&dir);
    o.chaos = ChaosControl { kill: Some((4, KillSpot::AfterSnapshot)) };
    let (mut s, mut world) = build(false);
    run_target_durable(&mut s, &mut world, &cfg, TARGET, MAX_ROUNDS, PROBE_EVERY, &o)
        .expect_err("kill fires");

    // A torn snapshot write: flip a byte inside the newest snapshot's
    // payload. Resume must fall back to the previous snapshot and still
    // reproduce the uninterrupted trajectory.
    let snaps = snapshot_files(&dir);
    assert!(snaps.len() >= 2, "need a fallback snapshot, got {snaps:?}");
    flip_byte(snaps.last().unwrap(), 64);

    let (mut s, mut world) = build(false);
    let resumed =
        resume_target_durable(&mut s, &mut world, &cfg, TARGET, MAX_ROUNDS, PROBE_EVERY, &opts(&dir))
            .expect("resume falls back to older snapshot");
    assert_equivalent(&base, &base_recs, &resumed, &records_of(&dir));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_survives_torn_journal_tail() {
    let seed = 32u64;
    let (base, base_recs) = baseline(seed, "torn-base");
    let dir = tmp_dir("torn-journal");
    let cfg = ExperimentConfig { eval_devices: 3, seed };
    let mut o = opts(&dir);
    o.chaos = ChaosControl { kill: Some((3, KillSpot::AfterAppend)) };
    let (mut s, mut world) = build(false);
    run_target_durable(&mut s, &mut world, &cfg, TARGET, MAX_ROUNDS, PROBE_EVERY, &o)
        .expect_err("kill fires");

    // A crash mid-append: garbage half-record at the journal tail.
    let jpath = dir.join("rounds.nblj");
    let mut bytes = fs::read(&jpath).unwrap();
    bytes.extend_from_slice(&[0x42, 0x00, 0x00, 0x00, 0xde, 0xad]);
    fs::write(&jpath, bytes).unwrap();

    let (mut s, mut world) = build(false);
    let resumed =
        resume_target_durable(&mut s, &mut world, &cfg, TARGET, MAX_ROUNDS, PROBE_EVERY, &opts(&dir))
            .expect("resume truncates torn tail");
    assert_equivalent(&base, &base_recs, &resumed, &records_of(&dir));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_fully_corrupt_state_without_panic() {
    let dir = tmp_dir("all-corrupt");
    let cfg = ExperimentConfig { eval_devices: 3, seed: 33 };
    let mut o = opts(&dir);
    o.chaos = ChaosControl { kill: Some((3, KillSpot::AfterAppend)) };
    let (mut s, mut world) = build(false);
    run_target_durable(&mut s, &mut world, &cfg, TARGET, MAX_ROUNDS, PROBE_EVERY, &o)
        .expect_err("kill fires");

    for snap in snapshot_files(&dir) {
        flip_byte(&snap, 8);
    }
    let (mut s, mut world) = build(false);
    let err = resume_target_durable(&mut s, &mut world, &cfg, TARGET, MAX_ROUNDS, PROBE_EVERY, &opts(&dir))
        .expect_err("all snapshots corrupt → structured error, not a silent load");
    assert!(matches!(err, RunError::Durability(_)), "unexpected error: {err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_with_wrong_seed_is_a_state_mismatch() {
    let dir = tmp_dir("wrong-seed");
    let cfg = ExperimentConfig { eval_devices: 3, seed: 34 };
    let mut o = opts(&dir);
    o.chaos = ChaosControl { kill: Some((2, KillSpot::AfterAppend)) };
    let (mut s, mut world) = build(false);
    run_target_durable(&mut s, &mut world, &cfg, TARGET, MAX_ROUNDS, PROBE_EVERY, &o)
        .expect_err("kill fires");

    let other = ExperimentConfig { eval_devices: 3, seed: 35 };
    let (mut s, mut world) = build(false);
    let err = resume_target_durable(&mut s, &mut world, &other, TARGET, MAX_ROUNDS, PROBE_EVERY, &opts(&dir))
        .expect_err("different seed must not resume");
    assert!(matches!(err, RunError::StateMismatch(_)), "unexpected error: {err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn durable_run_refuses_lossy_wire_codec() {
    let dir = tmp_dir("lossy-codec");
    let mut cfg_s = toy_cfg();
    cfg_s.wire = WireConfig::delta(0.0);
    let mut s = NebulaStrategy::new(cfg_s, 1);
    let mut world = toy_world(false);
    let cfg = ExperimentConfig { eval_devices: 3, seed: 36 };
    let err = run_target_durable(&mut s, &mut world, &cfg, TARGET, 2, 1, &opts(&dir))
        .expect_err("delta codec has unexportable cross-round state");
    assert!(matches!(err, RunError::UnsupportedStrategy(_)), "unexpected error: {err}");
    let _ = fs::remove_dir_all(&dir);
}

mod properties {
    use super::*;
    use nebula_sim::strategy::{DenseState, StrategyState};
    use nebula_sim::{RoundPolicy, RoundReport, RunState};
    use proptest::prelude::*;

    fn comm(v: [u64; 7]) -> CommTracker {
        CommTracker {
            down_bytes: v[0],
            up_bytes: v[1],
            downloads: v[2],
            uploads: v[3],
            rounds: v[4],
            retries: v[5],
            retry_bytes: v[6],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn round_record_json_roundtrips(
            index in 0u64..=u64::MAX,
            comm_words in proptest::collection::vec(0u64..=u64::MAX, 7..=7),
            sampled in 0u64..=u64::MAX,
            acc_bits in 0u32..=u32::MAX,
            time_bits in 0u64..=u64::MAX,
        ) {
            let rec = RoundRecord {
                index,
                comm: comm([
                    comm_words[0], comm_words[1], comm_words[2], comm_words[3],
                    comm_words[4], comm_words[5], comm_words[6],
                ]),
                faults: RoundReport { sampled, ..RoundReport::default() },
                acc_bits,
                time_bits,
            };
            let json = serde_json::to_string(&rec).unwrap();
            let back: RoundRecord = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(rec, back);
        }

        #[test]
        fn run_state_json_roundtrips(
            run_id in 0u64..=u64::MAX,
            rounds in 0u64..=u64::MAX,
            harness in proptest::collection::vec(1u64..=u64::MAX, 4..=4),
            world in proptest::collection::vec(1u64..=u64::MAX, 4..=4),
            acc_bits in 0u32..=u32::MAX,
            time_sum_bits in 0u64..=u64::MAX,
            slot_bits in proptest::collection::vec(0u32..=u32::MAX, 0..6),
            param_bits in proptest::collection::vec(0u32..=u32::MAX, 0..32),
            dropout in 0.0f64..1.0,
        ) {
            let state = RunState {
                format: 1,
                run_id,
                mode: "target".into(),
                rounds,
                slot: 0,
                rounds_started: rounds,
                harness_rng: harness.clone(),
                world_rng: world.clone(),
                comm: CommTracker::default(),
                faults: RoundReport::default(),
                acc_bits,
                time_sum_bits,
                acc_per_slot_bits: slot_bits,
                plan: FaultPlan { dropout_prob: dropout, ..FaultPlan::none() },
                policy: RoundPolicy::default(),
                eval_ids: vec![0, 2, 4],
                strategy_name: "Nebula".into(),
                strategy: StrategyState::Dense(DenseState { name: "FA".into(), param_bits }),
            };
            let json = serde_json::to_string(&state).unwrap();
            let back: RunState = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(state, back);
        }
    }
}

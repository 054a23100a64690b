//! Chaos kill/restart harness for the durability layer.
//!
//! For each seed: run a reference (uninterrupted) durable run, then kill
//! durable runs at randomized rounds and kill spots — optionally
//! corrupting the on-disk snapshot/journal files the way a torn write or
//! flaky disk would — resume, and check the resumed trajectory is
//! **bit-identical** to the reference (final accuracy bits, comm totals,
//! fault accounting, and every journalled per-round record).
//!
//! Also drives a poisoned-state case where *every* snapshot is corrupted
//! and checks recovery fails with a structured error — never a panic,
//! never a silent load of bad state.
//!
//! One row per case; `pass` is its verdict, and the claim `report --check`
//! asserts is that every row passes. The harness seeds (41…) are its own,
//! so the rows do not move with the campaign seed.

use std::fs;
use std::path::{Path, PathBuf};

use crate::Ctx;
use nebula_data::drift::DriftKind;
use nebula_data::{DriftModel, PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use nebula_modular::ModularConfig;
use nebula_sim::resources::ResourceSampler;
use nebula_sim::strategy::{NebulaStrategy, StrategyConfig};
use nebula_sim::{
    ChaosControl, DurabilityConfig, ExperimentConfig, FaultPlan, KillSpot, RoundRecord, RunError, Runner,
    SimWorld,
};
use nebula_tensor::NebulaRng;
use serde_json::Value;

const TARGET: f32 = 1.01; // unreachable → every run goes to max_rounds
const PROBE_EVERY: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Corruption {
    /// Kill only; disk state left exactly as the crash left it.
    None,
    /// Bit-flip inside the newest snapshot (torn snapshot write).
    SnapshotBitFlip,
    /// Truncate the journal mid-record (torn append).
    JournalTruncate,
    /// Bit-flip every snapshot — recovery must refuse, not panic.
    AllSnapshotsBitFlip,
}

fn toy_world(world_seed: u64) -> SimWorld {
    let synth = Synthesizer::new(SynthSpec::toy(), 1);
    let spec = PartitionSpec::new(10, Partitioner::LabelSkew { m: 2 });
    let drift = Some(DriftModel::new(0.5, DriftKind::ClassShift { m: 2, group_seed: 9 }));
    let mut world = SimWorld::new(synth, spec, world_seed, drift, &ResourceSampler::default(), 5);
    world.set_fault_plan(FaultPlan {
        seed: 7,
        dropout_prob: 0.15,
        straggler_prob: 0.2,
        straggler_slowdown: 4.0,
        link_flake_prob: 0.1,
        bandwidth_collapse: 4.0,
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

fn build(seed: u64) -> (NebulaStrategy, SimWorld) {
    (NebulaStrategy::new(toy_cfg(), seed), toy_world(9))
}

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig { snapshot_every: 2, keep_snapshots: 2, ..DurabilityConfig::new(dir) }
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nebula-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn journal_records(dir: &Path) -> Result<Vec<RoundRecord>, String> {
    let contents = nebula_core::read_journal(&dir.join("rounds.nblj")).map_err(|e| e.to_string())?;
    contents.records.iter().map(|b| serde_json::from_slice(b).map_err(|e| e.to_string())).collect()
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
    let i = n - 1 - offset_from_end.min(n - 1);
    bytes[i] ^= 0x10;
    fs::write(path, bytes).unwrap();
}

fn corrupt(dir: &Path, kind: Corruption) {
    match kind {
        Corruption::None => {}
        Corruption::SnapshotBitFlip => {
            if let Some(newest) = snapshot_files(dir).last() {
                flip_byte(newest, 64);
            }
        }
        Corruption::JournalTruncate => {
            let jpath = dir.join("rounds.nblj");
            let bytes = fs::read(&jpath).unwrap();
            // Chop mid-record: drop the last 3 bytes (CRC torn off).
            fs::write(&jpath, &bytes[..bytes.len().saturating_sub(3)]).unwrap();
        }
        Corruption::AllSnapshotsBitFlip => {
            for snap in snapshot_files(dir) {
                flip_byte(&snap, 8);
            }
        }
    }
}

struct Reference {
    final_acc_bits: u32,
    rounds: usize,
    comm_total_bytes: u64,
    records: Vec<RoundRecord>,
}

fn reference_run(seed: u64, max_rounds: usize) -> Reference {
    let dir = work_dir(&format!("ref-{seed}"));
    let (mut s, mut world) = build(seed);
    let cfg = ExperimentConfig { eval_devices: 3, seed };
    let out = Runner::new(&mut world, &mut s)
        .config(cfg)
        .target(TARGET, max_rounds, PROBE_EVERY)
        .durable(durability(&dir))
        .run()
        .expect("uninterrupted reference run");
    let records = journal_records(&dir).expect("reference journal");
    let _ = fs::remove_dir_all(&dir);
    Reference {
        final_acc_bits: out.final_accuracy.to_bits(),
        rounds: out.rounds as usize,
        comm_total_bytes: out.stats.comm.total_bytes(),
        records,
    }
}

/// Runs one kill → corrupt → resume case and reports equivalence.
fn run_case(
    seed: u64,
    max_rounds: usize,
    kill_round: u64,
    kill_spot: KillSpot,
    corruption: Corruption,
    reference: &Reference,
) -> Value {
    let tag = format!("case-{seed}-{kill_round}-{kill_spot:?}-{corruption:?}");
    let dir = work_dir(&tag);
    let cfg = ExperimentConfig { eval_devices: 3, seed };

    let report = (|| -> Result<String, String> {
        let (mut s, mut world) = build(seed);
        match Runner::new(&mut world, &mut s)
            .config(cfg)
            .target(TARGET, max_rounds, PROBE_EVERY)
            .durable(durability(&dir))
            .chaos(ChaosControl { kill: Some((kill_round, kill_spot)) })
            .run()
        {
            Err(RunError::Killed { round }) if round == kill_round => {}
            other => return Err(format!("expected kill at round {kill_round}, got {other:?}")),
        }
        corrupt(&dir, corruption);

        let (mut s, mut world) = build(seed);
        let resumed = Runner::new(&mut world, &mut s)
            .config(cfg)
            .target(TARGET, max_rounds, PROBE_EVERY)
            .durable(durability(&dir))
            .resume()
            .run();

        if corruption == Corruption::AllSnapshotsBitFlip {
            return match resumed {
                Err(RunError::Durability(e)) => Ok(format!("recovery refused as expected: {e}")),
                Err(other) => Err(format!("expected a durability error, got {other}")),
                Ok(_) => Err("resume silently loaded corrupt state".into()),
            };
        }

        let out = resumed.map_err(|e| format!("resume failed: {e}"))?;
        if out.final_accuracy.to_bits() != reference.final_acc_bits {
            return Err(format!(
                "final accuracy diverged: {:#010x} vs reference {:#010x}",
                out.final_accuracy.to_bits(),
                reference.final_acc_bits
            ));
        }
        if out.rounds as usize != reference.rounds {
            return Err(format!("round count diverged: {} vs {}", out.rounds, reference.rounds));
        }
        if out.stats.comm.total_bytes() != reference.comm_total_bytes {
            return Err(format!(
                "comm bytes diverged: {} vs {}",
                out.stats.comm.total_bytes(),
                reference.comm_total_bytes
            ));
        }
        let records = journal_records(&dir)?;
        for rec in &records {
            let base = reference
                .records
                .iter()
                .find(|r| r.index == rec.index)
                .ok_or_else(|| format!("reference journal missing round {}", rec.index))?;
            if base != rec {
                return Err(format!("round {} record diverged from reference", rec.index));
            }
        }
        Ok(format!("bit-identical over {} journalled rounds", records.len()))
    })();

    let _ = fs::remove_dir_all(&dir);
    row! {
        "seed" => seed,
        "kill_round" => kill_round,
        "kill_spot" => format!("{kill_spot:?}"),
        "corruption" => format!("{corruption:?}"),
        "pass" => report.is_ok(),
        "detail" => report.unwrap_or_else(|e| e),
    }
}

pub fn run(ctx: &Ctx) -> Vec<Value> {
    let (seeds, max_rounds): (&[u64], usize) =
        if ctx.quick { (&[41, 42, 43], 5) } else { (&[41, 42, 43, 44, 45], 8) };

    let spots = [KillSpot::BeforeAppend, KillSpot::AfterAppend, KillSpot::AfterSnapshot];
    let corruptions = [
        Corruption::None,
        Corruption::SnapshotBitFlip,
        Corruption::JournalTruncate,
        Corruption::AllSnapshotsBitFlip,
    ];
    let mut rows = Vec::new();
    for &seed in seeds {
        let reference = reference_run(seed, max_rounds);
        let mut chaos_rng = NebulaRng::seed(seed ^ 0xCAFE);
        for (i, &corruption) in corruptions.iter().enumerate() {
            // Randomized kill round (≥ 3 so at least one post-offline
            // snapshot predates the kill and bit-flipping the newest
            // still leaves a fallback) and rotating kill spot.
            let kill_round = 3 + chaos_rng.below(max_rounds - 2) as u64;
            let kill_spot = spots[(i + seed as usize) % spots.len()];
            rows.push(run_case(seed, max_rounds, kill_round, kill_spot, corruption, &reference));
        }
    }
    rows
}

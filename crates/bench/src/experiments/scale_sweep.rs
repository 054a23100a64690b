//! Population-scale sweep of the sharded round engine (DESIGN.md §14):
//! populations × shard counts → per-case round timings, throughput and
//! peak RSS, one row per case.
//!
//! Rounds run in [`RoundMode::Synthetic`]: the full derive → dispatch →
//! fold → absorb engine with analytic local steps, so 10^5–10^6-device
//! populations fit a laptop. Numbers are engine throughput, not learning
//! curves. Quick scale shrinks the sweep to the 10^3/10^4 tiers.
//!
//! Two clocks are reported per case:
//!
//! * **Simulated round time** — the synchronous-round model: device
//!   compute in parallel, uploads serialized at each aggregation point's
//!   ingress, partials over the backhaul. This is where hierarchy wins
//!   (each edge serializes 1/S of the cohort), and it is
//!   machine-independent.
//! * **Host wall-clock** — what this machine took; improves with shard
//!   parallelism only when cores are available.
//!
//! The claim `report --check` asserts over these rows is
//! `hierarchy_scales_flat` in `results/campaign.json`. Its memory gate
//! reads `peak_rss_bytes`, the process's VmHWM, which only grows: this
//! experiment must run in a process of its own, smallest population first.

use crate::Ctx;
use nebula_core::RobustAggregator;
use nebula_modular::ModularConfig;
use nebula_sim::{FoldPlan, RoundMode, ShardConfig, ShardedWorld};
use serde_json::Value;
use std::time::Instant;

/// Reads a VmHWM/VmRSS-style line (kB) from /proc/self/status; 0 when the
/// platform has no procfs (the sweep still runs, the RSS gate degrades).
fn proc_status_kb(key: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
}

/// Builds one sweep world. The model is the paper's toy modular config —
/// the sweep tracks engine scaling, not model capacity.
fn world(population: usize, k: usize, shards: usize, seed: u64) -> ShardedWorld {
    let mut modular = ModularConfig::toy(16, 4);
    modular.gate_noise_std = 0.0;
    let mut cfg = ShardConfig::new(population, k, shards);
    // Enough cells that every shard gets real work at the small tiers,
    // without drowning the big tiers in per-cell groups. Cell layout is a
    // per-tier constant, so S=1 vs S=8 at a tier stays comparable (and
    // PerCell keeps them bit-identical).
    cfg.spec.cell_size = (population / 128).clamp(32, 8192);
    cfg.fold = FoldPlan::PerCell;
    cfg.mode = RoundMode::Synthetic;
    cfg.aggregator = RobustAggregator::WeightedMean;
    ShardedWorld::new(modular, cfg, seed).expect("sweep config is valid")
}

/// Sampled cohort per round for a population tier: 1% of the population,
/// clamped so ingress serialization (the term hierarchy attacks) carries
/// the small tiers and the 10^6 tier stays tractable.
fn cohort(population: usize) -> usize {
    (population / 100).clamp(400, 10_000).min(population)
}

fn run_case(population: usize, shards: usize, rounds: usize, seed: u64) -> Value {
    let mut w = world(population, cohort(population), shards, seed);
    let (mut sim_round_ms, mut sim_max_device_ms, mut sim_ingress_ms, mut sim_backhaul_ms) =
        (0.0, 0.0, 0.0, 0.0);
    let (mut device_upload_bytes, mut partial_upload_bytes, mut sampled) = (0u64, 0u64, 0usize);
    let start = Instant::now();
    for _ in 0..rounds {
        let r = w.run_round();
        sim_round_ms += r.sim_round_ms;
        sim_max_device_ms += r.sim_max_device_ms;
        sim_ingress_ms += r.sim_ingress_ms;
        sim_backhaul_ms += r.sim_backhaul_ms;
        device_upload_bytes = r.device_upload_bytes;
        partial_upload_bytes = r.partial_upload_bytes;
        sampled = r.sampled;
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3 / rounds as f64;
    let n = rounds as f64;
    row! {
        "population" => population,
        "shards" => shards,
        "devices_per_round" => sampled,
        "rounds" => rounds,
        "sim_round_ms" => sim_round_ms / n,
        "sim_max_device_ms" => sim_max_device_ms / n,
        "sim_ingress_ms" => sim_ingress_ms / n,
        "sim_backhaul_ms" => sim_backhaul_ms / n,
        "sim_devices_per_sec" => sampled as f64 / (sim_round_ms / n / 1e3),
        "wall_round_ms" => wall_ms,
        "wall_devices_per_sec" => sampled as f64 / (wall_ms / 1e3),
        "device_upload_bytes" => device_upload_bytes,
        "partial_upload_bytes" => partial_upload_bytes,
        "peak_rss_bytes" => proc_status_kb("VmHWM") * 1024,
    }
}

pub fn run(ctx: &Ctx) -> Vec<Value> {
    let quick = ctx.quick;
    // Smallest population first: VmHWM is monotone, so per-tier readings
    // attribute growth to the tier that caused it.
    let populations: &[usize] = if quick { &[1_000, 10_000] } else { &[1_000, 10_000, 100_000, 1_000_000] };
    let shard_counts: &[usize] = if quick { &[1, 8] } else { &[1, 4, 8] };
    let rounds = if quick { 2 } else { 3 };
    let mut rows = Vec::new();
    for &pop in populations {
        for &s in shard_counts {
            rows.push(run_case(pop, s, rounds, ctx.seed));
        }
    }
    rows
}

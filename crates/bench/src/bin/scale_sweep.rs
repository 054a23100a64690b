//! Population-scale sweep of the sharded round engine (DESIGN.md §14):
//! populations × shard counts → per-case round timings, throughput and
//! peak RSS, written to `results/scale_sweep.jsonl` (one record per case).
//!
//! Rounds run in [`RoundMode::Synthetic`]: the full derive → dispatch →
//! fold → absorb engine with analytic local steps, so 10^5–10^6-device
//! populations fit a laptop. Numbers are engine throughput, not learning
//! curves.
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
//! Usage: `scale_sweep [--quick] [--check]`.
//! `--quick` shrinks the sweep to the 10^3/10^4 tiers for CI.
//! `--check` exits nonzero unless (a) the simulated S=8 round beats S=1
//! by ≥3× on every tier, (b) peak RSS stays flat (≤4×) from the smallest
//! to the largest population, and (c) — only when ≥4 cores are available —
//! S=8 also improves host wall-clock by ≥1.5×.

use nebula_bench::emit_record;
use nebula_core::RobustAggregator;
use nebula_modular::ModularConfig;
use nebula_sim::{FoldPlan, RoundMode, ShardConfig, ShardedWorld};
use serde::Serialize;
use std::time::Instant;

/// One (population, shards) case of the sweep.
#[derive(Debug, Serialize)]
struct CaseRecord {
    population: usize,
    shards: usize,
    devices_per_round: usize,
    rounds: usize,
    /// Mean simulated synchronous round time, ms.
    sim_round_ms: f64,
    /// Mean slowest-device compute+link share of the simulated round, ms.
    sim_max_device_ms: f64,
    /// Mean ingress-serialization share, ms.
    sim_ingress_ms: f64,
    /// Mean backhaul + cloud-ingress share, ms (zero when flat).
    sim_backhaul_ms: f64,
    /// Simulated round throughput: sampled devices / simulated second.
    sim_devices_per_sec: f64,
    /// Mean host wall-clock per round, ms.
    wall_round_ms: f64,
    /// Host throughput: sampled devices / wall second.
    wall_devices_per_sec: f64,
    /// Device→edge upload bytes per round.
    device_upload_bytes: u64,
    /// Edge→cloud partial bytes per round (zero when flat).
    partial_upload_bytes: u64,
    /// Process peak RSS (VmHWM) after the case, bytes. Monotone across
    /// the process lifetime — cases run smallest population first, so
    /// growth between tiers is attributable to the tier.
    peak_rss_bytes: u64,
}

/// S-max vs S=1 round-time ratio at one population tier.
#[derive(Clone, Copy, Debug)]
struct Speedup {
    population: usize,
    speedup: f64,
}

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
fn world(population: usize, k: usize, shards: usize) -> ShardedWorld {
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
    ShardedWorld::new(modular, cfg, 42).expect("sweep config is valid")
}

/// Sampled cohort per round for a population tier: 1% of the population,
/// clamped so ingress serialization (the term hierarchy attacks) carries
/// the small tiers and the 10^6 tier stays tractable.
fn cohort(population: usize) -> usize {
    (population / 100).clamp(400, 10_000).min(population)
}

fn run_case(population: usize, shards: usize, rounds: usize) -> CaseRecord {
    let k = cohort(population);
    let mut w = world(population, k, shards);
    let mut sim_round_ms = 0.0;
    let mut sim_max_device_ms = 0.0;
    let mut sim_ingress_ms = 0.0;
    let mut sim_backhaul_ms = 0.0;
    let mut device_upload_bytes = 0;
    let mut partial_upload_bytes = 0;
    let mut sampled = 0usize;
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
    let (sim_round_ms, sim_max_device_ms, sim_ingress_ms, sim_backhaul_ms) =
        (sim_round_ms / n, sim_max_device_ms / n, sim_ingress_ms / n, sim_backhaul_ms / n);
    CaseRecord {
        population,
        shards,
        devices_per_round: sampled,
        rounds,
        sim_round_ms,
        sim_max_device_ms,
        sim_ingress_ms,
        sim_backhaul_ms,
        sim_devices_per_sec: sampled as f64 / (sim_round_ms / 1e3),
        wall_round_ms: wall_ms,
        wall_devices_per_sec: sampled as f64 / (wall_ms / 1e3),
        device_upload_bytes,
        partial_upload_bytes,
        peak_rss_bytes: proc_status_kb("VmHWM") * 1024,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Smallest population first: VmHWM is monotone, so per-tier readings
    // attribute growth to the tier that caused it.
    let populations: &[usize] = if quick { &[1_000, 10_000] } else { &[1_000, 10_000, 100_000, 1_000_000] };
    let shard_counts: &[usize] = if quick { &[1, 8] } else { &[1, 4, 8] };
    let rounds = if quick { 2 } else { 3 };

    let mut cases = Vec::new();
    for &pop in populations {
        for &s in shard_counts {
            let rec = run_case(pop, s, rounds);
            println!(
                "pop {:>9}  S={}  sim {:>10.1} ms/round ({:>9.0} dev/s)  wall {:>8.1} ms  peak RSS {:>5} MB",
                rec.population,
                rec.shards,
                rec.sim_round_ms,
                rec.sim_devices_per_sec,
                rec.wall_round_ms,
                rec.peak_rss_bytes / (1024 * 1024),
            );
            emit_record("scale_sweep", &rec);
            cases.push(rec);
        }
    }

    let smax = *shard_counts.iter().max().unwrap();
    let speedup = |pop: usize, f: fn(&CaseRecord) -> f64| -> Option<f64> {
        let flat = cases.iter().find(|c| c.population == pop && c.shards == 1)?;
        let hier = cases.iter().find(|c| c.population == pop && c.shards == smax)?;
        Some(f(flat) / f(hier))
    };
    let sim_speedups: Vec<Speedup> = populations
        .iter()
        .filter_map(|&p| speedup(p, |c| c.sim_round_ms).map(|s| Speedup { population: p, speedup: s }))
        .collect();
    let wall_speedups: Vec<Speedup> = populations
        .iter()
        .filter_map(|&p| speedup(p, |c| c.wall_round_ms).map(|s| Speedup { population: p, speedup: s }))
        .collect();
    let rss_growth = {
        let lo = cases.iter().filter(|c| c.population == populations[0]).map(|c| c.peak_rss_bytes).max();
        let hi = cases
            .iter()
            .filter(|c| c.population == *populations.last().unwrap())
            .map(|c| c.peak_rss_bytes)
            .max();
        match (lo, hi) {
            (Some(lo), Some(hi)) if lo > 0 => hi as f64 / lo as f64,
            _ => 1.0,
        }
    };

    // Simulated S-max vs S=1 speedup per tier, the host wall-clock one
    // (meaningful only with >1 core), and peak RSS(largest population) /
    // peak RSS(smallest population).
    for (sim, wall) in sim_speedups.iter().zip(&wall_speedups) {
        println!(
            "pop {:>9}  S={smax} vs S=1: simulated {:.2}x, host wall-clock {:.2}x",
            sim.population, sim.speedup, wall.speedup
        );
    }
    println!("peak RSS growth, smallest to largest population: {rss_growth:.2}x");

    if check {
        let mut failures = Vec::new();
        for sp in &sim_speedups {
            if sp.speedup < 3.0 {
                failures.push(format!(
                    "simulated S={smax} vs S=1 speedup at population {} is {:.2}x (< 3x)",
                    sp.population, sp.speedup
                ));
            }
        }
        if rss_growth > 4.0 {
            failures.push(format!(
                "peak RSS grew {rss_growth:.2}x from population {} to {} (> 4x: memory is not flat)",
                populations[0],
                populations.last().unwrap()
            ));
        }
        if cores >= 4 {
            for sp in &wall_speedups {
                if sp.speedup < 1.5 {
                    failures.push(format!(
                        "host wall-clock S={smax} vs S=1 speedup at population {} is {:.2}x (< 1.5x on {cores} cores)",
                        sp.population, sp.speedup
                    ));
                }
            }
        } else {
            println!("note: {cores} core(s) available — wall-clock speedup gate skipped (simulated gate still applies)");
        }
        if failures.is_empty() {
            println!("check passed: hierarchy speeds up simulated rounds, memory stays flat");
        } else {
            for f in &failures {
                eprintln!("check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}

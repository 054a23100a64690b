//! **Fault sweep** — graceful degradation of the collaborative systems
//! under injected edge faults (DESIGN.md "Fault model & robust rounds").
//!
//! Protocol: each grid point installs a seeded [`FaultPlan`] (dropout ×
//! straggler rate, plus a fixed corruption rate) on an otherwise identical
//! world, then runs the standard one-step adaptation experiment per
//! strategy. Nebula's robust round loop (deadline, retry accounting,
//! sanitize gate, staleness discount) faces the same faults as FedAvg and
//! HeteroFL, which have no per-update gate — a corrupted client poisons
//! their averaged weights directly.

use crate::{Ctx, TaskRow};
use nebula_sim::experiment::{run_adaptation_step, ExperimentConfig};
use nebula_sim::{
    AdaptStrategy, AdversaryPlan, CorruptionKind, FaultPlan, FedAvgStrategy, HeteroFlStrategy,
    NebulaStrategy, RoundPolicy,
};
use serde_json::Value;

fn plan(dropout: f64, straggler: f64, corrupt: f64, frame_corrupt: f64) -> FaultPlan {
    FaultPlan {
        seed: 0xFA17,
        dropout_prob: dropout,
        crash_prob: 0.02,
        straggler_prob: straggler,
        straggler_slowdown: 20.0,
        link_flake_prob: 0.1,
        bandwidth_collapse: 8.0,
        corrupt_prob: corrupt,
        corruption: CorruptionKind::NanPoison,
        explode_scale: 1e4,
        frame_corrupt_prob: frame_corrupt,
        adversary: AdversaryPlan::none(),
    }
}

pub fn run(ctx: &Ctx) -> Vec<Value> {
    let (scale, seed) = (ctx.scale, ctx.seed);
    let corrupt = 0.08; // ~2 corrupted updates per 25-device round
    let row = TaskRow::table1_rows()[1]; // CIFAR-10, m=2

    // (dropout, straggler, frame_corrupt): the original dropout/straggler
    // grid plus a transit-corruption sweep exercising the CRC-reject path.
    let grid: [(f64, f64, f64); 9] = [
        (0.0, 0.0, 0.0),
        (0.15, 0.0, 0.0),
        (0.3, 0.0, 0.0),
        (0.5, 0.0, 0.0),
        (0.0, 0.3, 0.0),
        (0.3, 0.3, 0.0),
        (0.0, 0.0, 0.1),
        (0.0, 0.0, 0.3),
        (0.3, 0.3, 0.1),
    ];
    let mut rows = Vec::new();
    for &(dropout, straggler, frame_corrupt) in &grid {
        let strategies: Vec<Box<dyn AdaptStrategy>> = vec![
            Box::new(FedAvgStrategy::new(row.strategy_config(scale), seed)),
            Box::new(HeteroFlStrategy::new(row.strategy_config(scale), seed)),
            Box::new(NebulaStrategy::new(row.strategy_config(scale), seed)),
        ];
        for mut s in strategies {
            let mut world = row.world(scale, None, seed);
            world.set_fault_plan(plan(dropout, straggler, corrupt, frame_corrupt));
            world.set_round_policy(RoundPolicy { deadline_factor: Some(4.0), ..RoundPolicy::default() });
            let exp = ExperimentConfig { eval_devices: scale.eval_devices, seed };
            let out = run_adaptation_step(s.as_mut(), &mut world, &exp);

            let poisoned = !out.accuracy_after.is_finite();
            let f = out.faults;
            rows.push(row! {
                "task" => row.task.name(),
                "strategy" => out.strategy,
                "dropout_prob" => dropout,
                "straggler_prob" => straggler,
                "corrupt_prob" => corrupt,
                "frame_corrupt_prob" => frame_corrupt,
                "accuracy_before" => out.accuracy_before,
                "accuracy_after" => if poisoned { -1.0 } else { out.accuracy_after },
                "poisoned" => poisoned,
                "comm_mib" => out.comm.total_mib(),
                "retry_mib" => out.comm.retry_bytes as f64 / (1024.0 * 1024.0),
                "sampled" => f.sampled,
                "participated" => f.participated,
                "dropped" => f.dropped,
                "deadline_dropped" => f.deadline_dropped,
                "link_dropped" => f.link_dropped,
                "rejected" => f.rejected,
                "retried" => f.retried,
                "stale" => f.stale,
                "corrupt_frames" => f.corrupt_frames,
            });
        }
    }
    rows
}

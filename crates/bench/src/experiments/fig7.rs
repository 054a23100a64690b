//! **Figure 7** — communication cost during model adaptation for the
//! edge-cloud collaborative strategies (FedAvg, HeteroFL, Nebula), over
//! the four tasks × two data partitions.
//!
//! Protocol: every system pre-trains offline, then the environment
//! shifts (70% of every device's data is replaced by a new context /
//! class group — the "newly collected data" of §6.2). The system then
//! adapts round by round; we record accuracy and cumulative bytes per
//! round and report the bytes needed to reach 98% of the system's own
//! converged accuracy. Slow convergence (the paper measures 1.83× extra
//! rounds for HeteroFL) therefore shows up as extra communication.

use crate::{Ctx, TaskRow};
use nebula_sim::experiment::{mean_accuracy, pick_eval_ids, ExperimentConfig};
use nebula_sim::network::CommTracker;
use nebula_sim::{AdaptStrategy, FedAvgStrategy, HeteroFlStrategy, NebulaStrategy};
use nebula_tensor::NebulaRng;
use serde_json::Value;

pub fn run(ctx: &Ctx) -> Vec<Value> {
    let (scale, seed) = (ctx.scale, ctx.seed);
    let max_rounds = scale.rounds_per_step + scale.rounds_per_step / 2;
    let mut rows = Vec::new();
    for row in TaskRow::table1_rows() {
        let mut cfg = row.strategy_config(scale);
        cfg.rounds_per_step = 1; // step one round at a time
        let exp = ExperimentConfig { eval_devices: scale.eval_devices, seed };

        let strategies: Vec<Box<dyn AdaptStrategy>> = vec![
            Box::new(FedAvgStrategy::new(cfg.clone(), seed)),
            Box::new(HeteroFlStrategy::new(cfg.clone(), seed)),
            Box::new(NebulaStrategy::new(cfg.clone(), seed)),
        ];
        for mut s in strategies {
            // Identical world per strategy: offline on the original
            // environments, then a hard shift before adaptation begins.
            let mut world = row.world(scale, Some(0.7), seed);
            let mut rng = NebulaRng::seed(seed ^ 0xF167);
            let eval_ids = pick_eval_ids(&world, exp.eval_devices);
            s.track(&eval_ids);
            s.offline(&mut world, &mut rng);
            world.advance_slot();

            // Round-by-round trajectory.
            let mut comm = CommTracker::new();
            let mut trajectory: Vec<(f32, u64)> = Vec::with_capacity(max_rounds);
            for _ in 0..max_rounds {
                let report = s.adaptation_step(&mut world, &mut rng);
                comm.merge(&report.comm);
                let acc = mean_accuracy(s.as_mut(), &mut world, &eval_ids);
                trajectory.push((acc, comm.total_bytes()));
            }
            let converged = trajectory.iter().map(|&(a, _)| a).fold(0.0f32, f32::max);
            let target = converged * 0.98;
            let (rounds, adapted_acc, bytes) = trajectory
                .iter()
                .enumerate()
                .find(|(_, &(a, _))| a >= target)
                .map(|(i, &(a, b))| (i + 1, a, b))
                .unwrap_or((max_rounds, converged, comm.total_bytes()));

            rows.push(row! {
                "task" => row.task.name(),
                "partition" => row.partition_label(),
                "strategy" => s.name(),
                "rounds_to_adapt" => rounds,
                "comm_mib" => bytes as f64 / (1024.0 * 1024.0),
                "adapted_accuracy" => adapted_acc,
                "converged_accuracy" => converged,
            });
        }
    }
    rows
}

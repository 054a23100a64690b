//! **Poison sweep** — Byzantine robustness of the module-wise aggregators
//! (DESIGN.md §13 "Threat model & Byzantine robustness").
//!
//! Protocol: each grid point plants a seeded malicious cohort (attacker
//! fraction × persona) into an otherwise clean world, then runs the
//! standard one-step adaptation experiment with Nebula under each
//! aggregation rule. The attack scale (×8) deliberately slips under the
//! sanitize gate's 10× RMS-norm cutoff, so whatever survives is decided
//! by the aggregator alone: the importance-weighted mean averages the
//! poison in, while the coordinate median / trimmed mean / Krum bound the
//! cohort's influence. The claim `report --check` asserts over these rows
//! is `robust_aggregators_hold` in `results/campaign.json`.

use crate::{Ctx, TaskRow};
use nebula_core::RobustAggregator;
use nebula_sim::experiment::{run_adaptation_step, ExperimentConfig};
use nebula_sim::{AdaptStrategy, AdversaryPlan, AttackPersona, FaultPlan, NebulaStrategy};
use serde_json::Value;

fn persona_label(p: AttackPersona) -> &'static str {
    match p {
        AttackPersona::SignFlip => "sign_flip",
        AttackPersona::GaussianNoise => "gaussian_noise",
        AttackPersona::ScaledUpdate => "scaled_update",
        AttackPersona::GateGaming => "gate_gaming",
    }
}

pub fn run(ctx: &Ctx) -> Vec<Value> {
    let (scale, seed) = (ctx.scale, ctx.seed);
    let row = TaskRow::table1_rows()[1]; // CIFAR-10, m=2

    // Krum's `f` must cover the worst sweep point: 30% of a 25-device
    // round, rounded up. n = 25 ≥ 2·8 + 3 keeps the guarantee live. The
    // trimmed mean trims 30% per side for the same reason: a module's
    // contributor column can run hotter than the population's 20%
    // attacker fraction, and one surviving ×8-scaled value drags the
    // mean of the survivors.
    let krum_f = (0.3 * row.strategy_config(scale).devices_per_round as f64).ceil() as usize;
    let aggregators = [
        RobustAggregator::WeightedMean,
        RobustAggregator::CoordinateMedian,
        RobustAggregator::TrimmedMean { frac: 0.3 },
        RobustAggregator::Krum { f: krum_f },
    ];

    // (attacker fraction, persona): a fraction ramp under the reference
    // scaled-update attack plus a persona sweep at the reference fraction.
    let grid: [(f64, AttackPersona); 7] = [
        (0.0, AttackPersona::ScaledUpdate), // clean baseline per aggregator
        (0.1, AttackPersona::ScaledUpdate),
        (0.2, AttackPersona::ScaledUpdate),
        (0.3, AttackPersona::ScaledUpdate),
        (0.2, AttackPersona::SignFlip),
        (0.2, AttackPersona::GaussianNoise),
        (0.2, AttackPersona::GateGaming),
    ];
    let attack_scale = AdversaryPlan::none().scale;

    let mut rows = Vec::new();
    for &(frac, persona) in &grid {
        for &agg in &aggregators {
            let mut s = NebulaStrategy::new(row.strategy_config(scale), seed);
            s.set_aggregator(agg);
            let mut world = row.world(scale, None, seed);
            world.set_fault_plan(FaultPlan {
                adversary: AdversaryPlan {
                    seed: seed ^ 0xBAD,
                    frac,
                    persona,
                    collude: true,
                    ..AdversaryPlan::none()
                },
                ..FaultPlan::none()
            });
            let exp = ExperimentConfig { eval_devices: scale.eval_devices, seed };
            let out = run_adaptation_step(&mut s, &mut world, &exp);

            let poisoned = !out.accuracy_after.is_finite();
            rows.push(row! {
                "task" => row.task.name(),
                "aggregator" => agg.to_string(),
                "persona" => persona_label(persona),
                "attack_frac" => frac,
                "collude" => true,
                "attack_scale" => attack_scale,
                "accuracy_before" => out.accuracy_before,
                "accuracy_after" => if poisoned { -1.0 } else { out.accuracy_after },
                "poisoned" => poisoned,
                "comm_mib" => out.comm.total_mib(),
                "participated" => out.faults.participated,
                "rejected" => out.faults.rejected,
            });
        }
    }
    rows
}

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
//! cohort's influence.
//!
//! Emits one JSON record per run to `results/poison_sweep.jsonl`.
//!
//! Run: `cargo run --release -p nebula-bench --bin poison_sweep
//! [--quick] [--check]` — `--check` exits nonzero unless the robust
//! aggregators beat the weighted mean under the 20% scaled-update attack.

use nebula_bench::{emit_record, print_row, Scale, TaskRow};
use nebula_core::RobustAggregator;
use nebula_sim::experiment::{run_adaptation_step, ExperimentConfig};
use nebula_sim::{AdaptStrategy, AdversaryPlan, AttackPersona, FaultPlan, NebulaStrategy};
use serde::Serialize;

#[derive(Serialize)]
struct PoisonRecord {
    experiment: &'static str,
    task: String,
    aggregator: String,
    persona: String,
    attack_frac: f64,
    collude: bool,
    attack_scale: f32,
    accuracy_before: f32,
    /// Accuracy after adapting under attack; -1 when the model was
    /// poisoned to NaN (JSON has no NaN literal).
    accuracy_after: f32,
    poisoned: bool,
    comm_mib: f64,
    participated: u64,
    rejected: u64,
}

struct SummaryRow {
    aggregator: String,
    /// Accuracy with no attackers (frac 0).
    clean_acc: f32,
    /// Accuracy under the 20% scaled-update cohort.
    attacked_acc: f32,
    /// clean − attacked, in accuracy points (negative = improved).
    gap: f32,
}

fn persona_label(p: AttackPersona) -> &'static str {
    match p {
        AttackPersona::SignFlip => "sign_flip",
        AttackPersona::GaussianNoise => "gaussian_noise",
        AttackPersona::ScaledUpdate => "scaled_update",
        AttackPersona::GateGaming => "gate_gaming",
    }
}

fn main() {
    let scale = Scale::from_args();
    let check = std::env::args().any(|a| a == "--check");
    let seed = 42u64;
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

    println!("Poison sweep: adaptation under a seeded Byzantine cohort\n");
    let widths = [16usize, 14, 6, 9, 9, 9, 7, 7];
    print_row(
        ["Aggregator", "Persona", "Frac", "AccBefore", "AccAfter", "Comm(MiB)", "Part", "Rej"]
            .map(String::from)
            .as_ref(),
        &widths,
    );

    let mut rows: Vec<PoisonRecord> = Vec::new();
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
            let acc_after = if poisoned { -1.0 } else { out.accuracy_after };
            print_row(
                &[
                    agg.to_string(),
                    persona_label(persona).to_string(),
                    format!("{frac:.2}"),
                    format!("{:.3}", out.accuracy_before),
                    if poisoned { "NaN".to_string() } else { format!("{acc_after:.3}") },
                    format!("{:.1}", out.comm.total_mib()),
                    format!("{}", out.faults.participated),
                    format!("{}", out.faults.rejected),
                ],
                &widths,
            );
            let rec = PoisonRecord {
                experiment: "poison_sweep",
                task: row.task.name().to_string(),
                aggregator: agg.to_string(),
                persona: persona_label(persona).to_string(),
                attack_frac: frac,
                collude: true,
                attack_scale,
                accuracy_before: out.accuracy_before,
                accuracy_after: acc_after,
                poisoned,
                comm_mib: out.comm.total_mib(),
                participated: out.faults.participated,
                rejected: out.faults.rejected,
            };
            emit_record("poison_sweep", &rec);
            rows.push(rec);
        }
    }

    // Summary: clean vs 20%-scaled-update accuracy per aggregator.
    let acc_at = |agg: &str, frac: f64, persona: &str| {
        rows.iter()
            .find(|r| r.aggregator == agg && r.attack_frac == frac && r.persona == persona)
            .map(|r| r.accuracy_after)
            .expect("grid point present")
    };
    let summary: Vec<SummaryRow> = aggregators
        .iter()
        .map(|agg| {
            let name = agg.to_string();
            let clean_acc = acc_at(&name, 0.0, "scaled_update");
            let attacked_acc = acc_at(&name, 0.2, "scaled_update");
            SummaryRow { aggregator: name, clean_acc, attacked_acc, gap: clean_acc - attacked_acc }
        })
        .collect();

    println!("\n20% scaled-update attack, clean → attacked accuracy:");
    for s in &summary {
        println!("  {:<16} {:.3} → {:.3} (gap {:+.3})", s.aggregator, s.clean_acc, s.attacked_acc, s.gap);
    }

    if check {
        let by = |name: &str| summary.iter().find(|s| s.aggregator.starts_with(name)).unwrap();
        let weighted = by("weighted_mean");
        let median = by("coord_median");
        let trimmed = by("trimmed_mean");
        let mut failures = Vec::new();
        for robust in [median, trimmed] {
            if robust.attacked_acc <= weighted.attacked_acc {
                failures.push(format!(
                    "{} ({:.3}) did not beat weighted_mean ({:.3}) under attack",
                    robust.aggregator, robust.attacked_acc, weighted.attacked_acc
                ));
            }
            if robust.gap > 0.02 {
                failures.push(format!(
                    "{} lost {:.3} accuracy under attack (allowed 0.02)",
                    robust.aggregator, robust.gap
                ));
            }
        }
        if weighted.gap <= 0.02 {
            failures.push(format!(
                "weighted_mean was expected to degrade under attack, gap only {:+.3}",
                weighted.gap
            ));
        }
        if failures.is_empty() {
            println!("check passed: robust aggregators hold, weighted mean degrades");
        } else {
            for f in &failures {
                eprintln!("check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}

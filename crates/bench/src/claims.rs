//! The claims `report --check` asserts over an experiment's rows.
//!
//! `results/campaign.json` names each claim, the experiment whose rows it
//! reads and its tolerances; this module holds the functions and no
//! tolerance. A claim is evaluated once per seed its rows carry.

use crate::{group, Envelope};
use serde::Deserialize;
use std::collections::BTreeMap;

/// One manifest entry: a claim over one experiment's rows.
#[derive(Clone, Debug, Deserialize)]
pub struct ClaimSpec {
    pub experiment: String,
    pub claim: String,
    pub tolerances: BTreeMap<String, f64>,
}

impl ClaimSpec {
    fn tol(&self, key: &str) -> f64 {
        *self
            .tolerances
            .get(key)
            .unwrap_or_else(|| panic!("campaign.json: {} lacks tolerance `{key}`", self.claim))
    }
}

/// A claim's outcome over one seed's rows.
#[derive(Debug)]
pub struct Verdict {
    /// What was measured.
    pub summary: String,
    /// Each condition that does not hold; empty when the claim holds.
    pub failures: Vec<String>,
}

type Claim = fn(&[&Envelope], &ClaimSpec) -> Verdict;

const CLAIMS: &[(&str, Claim)] = &[
    ("robust_aggregators_hold", robust_aggregators_hold),
    ("hierarchy_scales_flat", hierarchy_scales_flat),
    ("every_row_passes", every_row_passes),
];

/// Evaluates `spec` over `envelopes`, once per seed in order of first
/// appearance.
pub fn evaluate(spec: &ClaimSpec, envelopes: &[Envelope]) -> Vec<(u64, Verdict)> {
    let claim = CLAIMS
        .iter()
        .find(|(name, _)| *name == spec.claim)
        .unwrap_or_else(|| panic!("campaign.json names unknown claim `{}`", spec.claim))
        .1;
    group(envelopes, |e| e.seed).into_iter().map(|(seed, rows)| (seed, claim(&rows, spec))).collect()
}

/// Under the 20% scaled-update cohort the coordinate median and the
/// trimmed mean beat the weighted mean and lose at most `max_robust_gap`
/// of their clean accuracy, while the weighted mean loses more than
/// `min_weighted_gap`.
fn robust_aggregators_hold(rows: &[&Envelope], spec: &ClaimSpec) -> Verdict {
    // The sweep records f32 accuracies; the gaps are f32 too, so a gap on
    // a tolerance compares as it did when the sweep checked itself.
    let (max_gap, min_weighted_gap) =
        (spec.tol("max_robust_gap") as f32, spec.tol("min_weighted_gap") as f32);
    let accuracy = |prefix: &str, frac: f64| {
        let r = rows.iter().map(|e| &e.row).find(|r| {
            r["aggregator"].as_str().is_some_and(|a| a.starts_with(prefix))
                && r["persona"].as_str() == Some("scaled_update")
                && r["attack_frac"].as_f64() == Some(frac)
        })?;
        Some((r["aggregator"].as_str()?.to_string(), r["accuracy_after"].as_f64()? as f32))
    };
    // (aggregator, attacked accuracy, clean − attacked)
    let mut points = Vec::new();
    for prefix in ["weighted_mean", "coord_median", "trimmed_mean"] {
        let (Some((_, clean)), Some((name, attacked))) = (accuracy(prefix, 0.0), accuracy(prefix, 0.2))
        else {
            let failure = format!("no clean and 20% scaled-update rows for {prefix}");
            return Verdict { summary: String::new(), failures: vec![failure] };
        };
        points.push((name, attacked, clean - attacked));
    }
    let (weighted, robust) = (&points[0], &points[1..]);
    let mut failures = Vec::new();
    for (name, attacked, gap) in robust {
        if *attacked <= weighted.1 {
            failures.push(format!(
                "{name} ({attacked:.3}) did not beat weighted_mean ({:.3}) under attack",
                weighted.1
            ));
        }
        if *gap > max_gap {
            failures.push(format!("{name} lost {gap:.3} accuracy under attack (allowed {max_gap})"));
        }
    }
    if weighted.2 <= min_weighted_gap {
        failures
            .push(format!("weighted_mean was expected to degrade under attack, gap only {:+.3}", weighted.2));
    }
    let gaps: Vec<String> = points.iter().map(|(name, _, gap)| format!("{name} {gap:.3}")).collect();
    Verdict {
        summary: format!("clean − attacked accuracy at 20% scaled-update: {}", gaps.join(", ")),
        failures,
    }
}

/// Hierarchy speeds up the simulated round by `min_sim_speedup` at every
/// population tier and peak RSS grows at most `max_rss_growth` from the
/// smallest tier to the largest. On a run recorded with at least
/// `wall_gate_min_threads` threads, hierarchy must also speed up the host
/// wall clock by `min_wall_speedup`.
fn hierarchy_scales_flat(envelopes: &[&Envelope], spec: &ClaimSpec) -> Verdict {
    let (min_sim, max_rss, min_wall) =
        (spec.tol("min_sim_speedup"), spec.tol("max_rss_growth"), spec.tol("min_wall_speedup"));
    // Rows recorded before the envelope carry no thread count: no wall gate.
    let threads =
        envelopes.first().and_then(|e| e.threads).filter(|&t| t as f64 >= spec.tol("wall_gate_min_threads"));
    let tiers = group(envelopes, |e| e.row["population"].as_u64().unwrap_or(0));
    let smax = envelopes.iter().filter_map(|e| e.row["shards"].as_u64()).max().unwrap_or(1);
    let peak = |cases: &[&&Envelope]| cases.iter().filter_map(|e| e.row["peak_rss_bytes"].as_u64()).max();
    let rss_growth = match (tiers.first().and_then(|t| peak(&t.1)), tiers.last().and_then(|t| peak(&t.1))) {
        (Some(lo), Some(hi)) if lo > 0 => hi as f64 / lo as f64,
        _ => 1.0,
    };

    let mut failures = Vec::new();
    let mut sims = Vec::new();
    for (pop, cases) in &tiers {
        let case = |shards| cases.iter().map(|e| &e.row).find(|r| r["shards"].as_u64() == Some(shards));
        let speedup = |key: &str| Some(case(1)?[key].as_f64()? / case(smax)?[key].as_f64()?);
        let Some(sim) = speedup("sim_round_ms") else {
            failures.push(format!("population {pop} lacks an S=1 or an S={smax} case"));
            continue;
        };
        sims.push(format!("{sim:.2}x"));
        if sim < min_sim {
            failures.push(format!(
                "simulated S={smax} vs S=1 speedup at population {pop} is {sim:.2}x (< {min_sim}x)"
            ));
        }
        if let (Some(threads), Some(wall)) = (threads, speedup("wall_round_ms")) {
            if wall < min_wall {
                failures.push(format!(
                    "host wall-clock S={smax} vs S=1 speedup at population {pop} is {wall:.2}x (< {min_wall}x on {threads} threads)"
                ));
            }
        }
    }
    if rss_growth > max_rss {
        failures.push(format!(
            "peak RSS grew {rss_growth:.2}x from population {} to {} (> {max_rss}x: memory is not flat)",
            tiers[0].0,
            tiers[tiers.len() - 1].0
        ));
    }
    let wall = if threads.is_some() { "applied" } else { "skipped (too few threads recorded)" };
    let summary = format!(
        "simulated S={smax} vs S=1 speedup {}; peak RSS growth {rss_growth:.2}x; wall-clock gate {wall}",
        sims.join(" / ")
    );
    Verdict { summary, failures }
}

/// Every row's `pass` is true.
fn every_row_passes(rows: &[&Envelope], _: &ClaimSpec) -> Verdict {
    let failures: Vec<String> = rows
        .iter()
        .filter(|e| e.row["pass"].as_bool() != Some(true))
        .map(|e| serde_json::to_string(&e.row).expect("rows serialise"))
        .collect();
    Verdict { summary: format!("{} of {} rows pass", rows.len() - failures.len(), rows.len()), failures }
}

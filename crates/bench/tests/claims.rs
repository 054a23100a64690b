//! The claims of `results/campaign.json`, evaluated the way `report
//! --check` does: each condition flips its verdict on one changed row, the
//! quick poison sweep fails exactly as the sweep's own `--check` failed
//! before the claims moved into the manifest, and the committed full-scale
//! rows hold every claim.

use nebula_bench::claims::evaluate;
use nebula_bench::{read, Envelope, Manifest};
use serde_json::Value;
use std::path::Path;

fn failures(experiment: &str, rows: &[String], threads: Option<u64>) -> Vec<String> {
    let spec = Manifest::committed().claims.into_iter().find(|c| c.experiment == experiment).unwrap();
    let envelopes: Vec<Envelope> = rows
        .iter()
        .map(|row| Envelope {
            experiment: experiment.into(),
            rev: None,
            seed: 42,
            backend: None,
            threads,
            scale: "quick".into(),
            row: serde_json::from_str::<Value>(row).unwrap(),
        })
        .collect();
    let mut verdicts = evaluate(&spec, &envelopes);
    assert_eq!(verdicts.len(), 1, "one seed, one verdict");
    verdicts.remove(0).1.failures
}

/// Clean and 20% scaled-update rows, `(aggregator, clean, attacked)`;
/// the sweep records f32 accuracies.
fn poison(points: [(&str, f64, f64); 3]) -> Vec<String> {
    let row = |agg: &str, frac: f64, acc: f64| {
        let acc = acc as f32 as f64;
        format!(
            r#"{{"aggregator":"{agg}","persona":"scaled_update","attack_frac":{frac:?},"accuracy_after":{acc:?}}}"#
        )
    };
    points
        .iter()
        .flat_map(|&(agg, clean, attacked)| [row(agg, 0.0, clean), row(agg, 0.2, attacked)])
        .collect()
}

#[test]
fn poison_claim_fails_the_quick_sweep_as_the_sweeps_own_check_did() {
    // What `poison_sweep --quick --check` read (avx2, seed 42) and its one
    // failure, before the sweep's check became this claim.
    let quick = poison([
        ("weighted_mean", 0.9266666769981384, 0.28999999165534973),
        ("coord_median", 0.9449999332427979, 0.9249999523162842),
        ("trimmed_mean_0.3", 0.9416666626930237, 0.919999897480011),
    ]);
    let expected = ["trimmed_mean_0.3 lost 0.022 accuracy under attack (allowed 0.02)"];
    assert_eq!(failures("poison_sweep", &quick, None), expected);
}

#[test]
fn one_poison_row_flips_each_condition() {
    let [w, m, t] =
        [("weighted_mean", 0.956, 0.055), ("coord_median", 0.959, 0.948), ("trimmed_mean_0.3", 0.958, 0.939)];
    assert!(failures("poison_sweep", &poison([w, m, t]), None).is_empty());
    let lost = failures("poison_sweep", &poison([w, m, (t.0, t.1, 0.937)]), None);
    assert_eq!(lost, ["trimmed_mean_0.3 lost 0.021 accuracy under attack (allowed 0.02)"]);
    let beaten = failures("poison_sweep", &poison([w, (m.0, 0.06, 0.05), t]), None);
    assert_eq!(beaten, ["coord_median (0.050) did not beat weighted_mean (0.055) under attack"]);
    let held = failures("poison_sweep", &poison([(w.0, w.1, 0.937), m, t]), None);
    assert_eq!(held, ["weighted_mean was expected to degrade under attack, gap only +0.019"]);
}

/// Two tiers at S=1 and S=8: simulated speedups 4x, wall-clock 2x, RSS
/// growth 1.5x, unless the larger tier's S=8 case says otherwise.
fn sweep(big_s8_sim: f64, big_s8_wall: f64, big_rss: u64) -> Vec<String> {
    let case = |population: u64, shards: u64, sim: f64, wall: f64, rss: u64| {
        format!(
            r#"{{"population":{population},"shards":{shards},"sim_round_ms":{sim:?},"wall_round_ms":{wall:?},"peak_rss_bytes":{rss}}}"#
        )
    };
    vec![
        case(1_000, 1, 400.0, 40.0, 4_000_000),
        case(1_000, 8, 100.0, 20.0, 4_000_000),
        case(10_000, 1, 1000.0, 100.0, 6_000_000),
        case(10_000, 8, big_s8_sim, big_s8_wall, big_rss),
    ]
}

#[test]
fn one_scale_row_flips_each_condition() {
    assert!(failures("scale_sweep", &sweep(250.0, 50.0, 6_000_000), Some(4)).is_empty());
    let slow = failures("scale_sweep", &sweep(1000.0 / 2.9, 50.0, 6_000_000), Some(4));
    assert_eq!(slow, ["simulated S=8 vs S=1 speedup at population 10000 is 2.90x (< 3x)"]);
    let fat = failures("scale_sweep", &sweep(250.0, 50.0, 16_400_000), Some(4));
    assert_eq!(fat, ["peak RSS grew 4.10x from population 1000 to 10000 (> 4x: memory is not flat)"]);
    let wall = failures("scale_sweep", &sweep(250.0, 70.0, 6_000_000), Some(4));
    assert_eq!(
        wall,
        ["host wall-clock S=8 vs S=1 speedup at population 10000 is 1.43x (< 1.5x on 4 threads)"]
    );
    // The wall-clock gate applies only to runs with the threads to show it.
    assert!(failures("scale_sweep", &sweep(250.0, 70.0, 6_000_000), Some(2)).is_empty());
    assert!(failures("scale_sweep", &sweep(250.0, 70.0, 6_000_000), None).is_empty());
}

#[test]
fn one_failed_row_fails_every_row_passes() {
    let rows = [r#"{"case":1,"pass":true}"#.to_string(), r#"{"case":2,"pass":false}"#.to_string()];
    assert_eq!(failures("chaos", &rows, None), [r#"{"case":2,"pass":false}"#]);
    assert_eq!(failures("serve_chaos", &rows[..1], None), Vec::<String>::new());
}

#[test]
fn committed_results_hold_every_claim() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for spec in Manifest::committed().claims {
        let envelopes = read(&dir, &spec.experiment).unwrap();
        assert!(!envelopes.is_empty(), "no committed rows for {}", spec.experiment);
        for (_, verdict) in evaluate(&spec, &envelopes) {
            assert!(verdict.failures.is_empty(), "{}: {:?}", spec.claim, verdict.failures);
            if spec.experiment == "poison_sweep" {
                let gaps = "weighted_mean 0.901, coord_median 0.011, trimmed_mean_0.3 0.019";
                assert!(verdict.summary.ends_with(gaps), "{}", verdict.summary);
            }
        }
    }
}

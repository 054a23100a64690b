//! Renders the rows in `results/*.jsonl` as the markdown tables
//! EXPERIMENTS.md embeds, from the envelopes of the manifest's first seed:
//!
//! `cargo run --release -p nebula-bench --bin report > results/report.md`
//!
//! With `--check` it renders nothing and instead evaluates every claim in
//! `results/campaign.json` whose experiment has rows, prints each verdict
//! and names the claims it skipped; it exits 1 when a claim fails.

use nebula_bench::{claims, group, read, results_dir, Manifest};
use serde_json::Value;
use std::path::Path;

fn s<'a>(r: &'a Value, key: &str) -> &'a str {
    r[key].as_str().unwrap_or("?")
}

fn f(r: &Value, key: &str) -> f64 {
    r[key].as_f64().unwrap_or(f64::NAN)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The row of `rows` whose `key` is `value`.
fn pick<'a>(rows: &[&'a Value], key: &str, value: &str) -> Option<&'a Value> {
    rows.iter().copied().find(|r| r[key].as_str() == Some(value))
}

fn table1(rows: &[Value]) {
    println!("### Table 1 (measured)\n");
    println!("| Task | Model | Partition | NA | LA | AN | FA | HFL | Nebula |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for ((task, part), cells) in group(rows, |r| (s(r, "task"), s(r, "partition"))) {
        // Bold the row's actual winner — presenting Nebula as best on rows
        // it did not win would misreport the data.
        let best = cells.iter().map(|r| f(r, "accuracy")).fold(f64::NEG_INFINITY, f64::max);
        let cell = |k: &str| {
            pick(&cells, "strategy", k).map_or("—".into(), |r| {
                let v = f(r, "accuracy");
                if (v - best).abs() < 1e-9 {
                    format!("**{v:.2}**")
                } else {
                    format!("{v:.2}")
                }
            })
        };
        let model = s(cells[0], "model");
        let cols: Vec<String> = ["NA", "LA", "AN", "FA", "HFL", "Nebula"].map(cell).into();
        println!("| {task} | {model} | {part} | {} |", cols.join(" | "));
    }
    println!();
}

fn fig7(rows: &[Value]) {
    println!("### Fig 7 (measured): MiB to adapt, with rounds in parentheses\n");
    println!("| Task | Partition | FA | HFL | Nebula | FA/Nebula | HFL/Nebula |");
    println!("|---|---|---|---|---|---|---|");
    let (mut fa_factors, mut hfl_factors) = (Vec::new(), Vec::new());
    for ((task, part), cells) in group(rows, |r| (s(r, "task"), s(r, "partition"))) {
        let get = |k: &str| {
            pick(&cells, "strategy", k)
                .map_or((f64::NAN, 0), |r| (f(r, "comm_mib"), r["rounds_to_adapt"].as_u64().unwrap_or(0)))
        };
        let ((fa, far), (hfl, hr), (nb, nr)) = (get("FA"), get("HFL"), get("Nebula"));
        let (fa_x, hfl_x) = (fa / nb.max(1e-9), hfl / nb.max(1e-9));
        fa_factors.push(fa_x);
        hfl_factors.push(hfl_x);
        println!(
            "| {task} | {part} | {fa:.1} ({far}) | {hfl:.1} ({hr}) | {nb:.1} ({nr}) | {fa_x:.2}× | {hfl_x:.2}× |"
        );
    }
    println!(
        "\nMean Nebula reduction: {:.2}× vs FedAvg, {:.2}× vs HeteroFL (paper: 4.60× / 2.76×).\n",
        mean(&fa_factors),
        mean(&hfl_factors)
    );
}

fn fig8_fig9(rows: &[Value]) {
    println!("### Figs 8–9 (measured): Nebula(m1) reduction factors vs the full model\n");
    println!("| Task | Device | Mem reduction | Latency reduction |");
    println!("|---|---|---|---|");
    let mut groups = group(rows, |r| (s(r, "task"), s(r, "device")));
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    for ((task, device), systems) in groups {
        let (Some(full), Some(m1)) =
            (pick(&systems, "system", "Full model"), pick(&systems, "system", "Nebula (m1)"))
        else {
            continue;
        };
        let ratio = |k: &str| f(full, k) / f(m1, k);
        println!(
            "| {task} | {device} | {:.2}× | {:.2}× |",
            ratio("train_mem_bytes"),
            ratio("train_latency_ms")
        );
    }
    println!();
}

fn fig10_fig11(rows: &[Value]) {
    println!("### Figs 10–11 (measured): mean accuracy / mean adaptation time over drift slots\n");
    println!("| Task | Strategy | Mean accuracy | Adapt time (ms) |");
    println!("|---|---|---|---|");
    for r in rows {
        let (acc, ms) = (f(r, "mean_accuracy"), f(r, "mean_adapt_time_ms"));
        println!("| {} | {} | {acc:.3} | {ms:.0} |", s(r, "task"), s(r, "strategy"));
    }
    println!();
}

fn fig12(rows: &[Value]) {
    println!("### Fig 12 (measured): mean random-sub-model accuracy by training mode\n");
    println!("| Panel | w/o enhancing | w/ enhancing | best selected |");
    println!("|---|---|---|---|");
    let mut panels = group(rows, |r| s(r, "panel"));
    panels.sort_by(|a, b| a.0.cmp(b.0));
    for (panel, points) in panels {
        let acc = |series: &str| -> Vec<f64> {
            points.iter().filter(|r| s(r, "series") == series).map(|r| f(r, "accuracy")).collect()
        };
        let best = points
            .iter()
            .filter(|r| !matches!(s(r, "series"), "w/o enhancing" | "w/ enhancing"))
            .fold(0.0, |b: f64, r| b.max(f(r, "accuracy")));
        println!(
            "| {panel} | {:.3} | {:.3} | {best:.3} |",
            mean(&acc("w/o enhancing")),
            mean(&acc("w/ enhancing"))
        );
    }
    println!();
}

fn fig13(rows: &[Value]) {
    println!("### Fig 13 (measured)\n");
    for (panel, title) in [
        ("a_size_ratio", "accuracy vs max sub-model size ratio"),
        ("b_granularity", "accuracy vs modules per layer"),
        ("c_participants", "adaptation time (s) vs participants"),
    ] {
        println!("**{title}**\n");
        let in_panel: Vec<Value> =
            rows.iter().filter(|r| r["panel"].as_str() == Some(panel)).cloned().collect();
        let mut series = group(&in_panel, |r| s(r, "series"));
        series.sort_by(|a, b| a.0.cmp(b.0));
        for (name, pts) in series {
            let xy = |r: &Value, k: &str| r[k].as_f64().unwrap_or(0.0);
            let cells: Vec<String> =
                pts.iter().map(|r| format!("{}→{:.3}", xy(r, "x"), xy(r, "y"))).collect();
            println!("- {name}: {}", cells.join(", "));
        }
        println!();
    }
}

fn ablations(rows: &[Value]) {
    println!("### Ablations (measured)\n");
    println!("| Study | Variant | Metric | Value |");
    println!("|---|---|---|---|");
    for r in rows {
        println!("| {} | {} | {} | {:.4} |", s(r, "study"), s(r, "variant"), s(r, "metric"), f(r, "value"));
    }
    println!();
}

type Render = fn(&[Value]);

/// Each rendered experiment, in the order the report shows them.
const TABLES: &[(&str, Render)] = &[
    ("table1", table1),
    ("fig7", fig7),
    ("fig8_fig9", fig8_fig9),
    ("fig10_fig11", fig10_fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("ablations", ablations),
];

/// Prints every claim's verdict; false when one fails.
fn check(manifest: &Manifest, dir: &Path) -> Result<bool, String> {
    let mut ok = true;
    for spec in &manifest.claims {
        let envelopes = read(dir, &spec.experiment)?;
        if envelopes.is_empty() {
            println!("SKIP {} {}: no rows", spec.experiment, spec.claim);
            continue;
        }
        for (seed, verdict) in claims::evaluate(spec, &envelopes) {
            let pass = verdict.failures.is_empty();
            let tag = if pass { "PASS" } else { "FAIL" };
            println!("{tag} {} {} (seed {seed}): {}", spec.experiment, spec.claim, verdict.summary);
            for failure in &verdict.failures {
                println!("  - {failure}");
            }
            ok &= pass;
        }
    }
    Ok(ok)
}

fn run(check_only: bool) -> Result<bool, String> {
    let (manifest, dir) = (Manifest::committed(), results_dir());
    if check_only {
        return check(&manifest, &dir);
    }
    for (experiment, render) in TABLES {
        let rows: Vec<Value> = read(&dir, experiment)?
            .into_iter()
            .filter(|e| e.seed == manifest.seeds[0])
            .map(|e| e.row)
            .collect();
        if !rows.is_empty() {
            render(&rows);
        }
    }
    Ok(true)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check_only = match args.as_slice() {
        [] => false,
        [flag] if flag == "--check" => true,
        _ => {
            eprintln!("usage: report [--check]");
            std::process::exit(2);
        }
    };
    match run(check_only) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("report: {e}");
            std::process::exit(2);
        }
    }
}

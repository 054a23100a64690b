//! Pins of every experiment's quick-scale rows, and of `report`'s
//! markdown over the committed `results/`.
//!
//! Each experiment runs at `--quick` into a temporary results directory of
//! its own, with the kernel backend forced to `avx2`: that is the
//! x86-64-v3 floor `.cargo/config.toml` builds for, so the digests do not
//! depend on the host's widest vector unit. The rows are made canonical —
//! each re-serialised, the `experiment` key dropped, and the only fields
//! that differ between two runs of the same build dropped — and folded
//! into an FNV-1a digest.
//!
//! The experiment pins are release-only (about five minutes):
//! `cargo test --release -p nebula-bench --test quick_pins -- --ignored`.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// `(experiment, row count, digest of the canonical rows)`.
const PINS: &[(&str, usize, u64)] = &[
    ("table1", 42, 0xe80fb52f482e7d29),
    ("fig1", 24, 0xc43eeef96a648dc2),
    ("fig2", 18, 0xd55dd6615cd330b3),
    ("fig7", 21, 0x4cf83b65015a9b46),
    ("fig8_fig9", 32, 0xc3cc9df329503c6a),
    ("fig10_fig11", 20, 0xd1d3e0f48f07930f),
    ("fig12", 66, 0x245c0f8a58cab2b9),
    ("fig13", 32, 0xb45fae6088225085),
    ("ablations", 14, 0x09716c8c19910583),
    ("fault_sweep", 27, 0x78464d32b49dc3fa),
    ("poison_sweep", 28, 0x37b1b33c062f6533),
    ("scale_sweep", 4, 0xbd25a18daf25e325),
    ("chaos", 12, 0x55216bb6ac9de06a),
    ("serve_chaos", 5, 0x05f4f339e0bf189a),
];

/// FNV-1a digest of `report`'s stdout over the committed `results/`.
const REPORT_DIGEST: u64 = 0xf07c7721bc36e21f;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x1000_0000_01b3))
}

/// True for a field whose value is a wall-clock or memory reading: two
/// quick runs of one build agree on every other byte, at any thread count.
fn nondeterministic(experiment: &str, row: &Value, key: &str) -> bool {
    match experiment {
        "ablations" => key == "value" && row["study"].as_str() == Some("unified_selector"),
        "scale_sweep" => matches!(key, "wall_round_ms" | "wall_devices_per_sec" | "peak_rss_bytes"),
        "serve_chaos" => key == "wall_ms",
        _ => false,
    }
}

fn canonical(experiment: &str, rows: &[Value]) -> String {
    let mut out = String::new();
    for row in rows {
        let fields = row.as_object().expect("a row is a JSON object");
        let kept: Vec<(String, Value)> = fields
            .iter()
            .filter(|(k, _)| k != "experiment" && !nondeterministic(experiment, row, k))
            .cloned()
            .collect();
        out.push_str(&serde_json::to_string(&Value::Object(kept)).expect("rows serialise"));
        out.push('\n');
    }
    out
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nebula-quick-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch results dir");
    dir
}

fn read_lines(path: &Path) -> Vec<Value> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    text.lines().map(|l| serde_json::from_str(l).expect("a results line is JSON")).collect()
}

/// Runs one experiment at quick scale into `dir` and returns its rows,
/// out of their envelopes.
fn produce(experiment: &str, dir: &Path) -> Vec<Value> {
    let status = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["--only", experiment, "--quick"])
        .env("NEBULA_RESULTS_DIR", dir)
        .env("NEBULA_KERNEL_BACKEND", "avx2")
        .stdout(Stdio::null())
        .status()
        .expect("spawn campaign");
    assert!(status.success(), "{experiment} exited with {status}");
    let envelopes = read_lines(&dir.join(format!("{experiment}.jsonl")));
    for e in &envelopes {
        assert_eq!(e["experiment"].as_str(), Some(experiment));
        assert_eq!(
            (e["seed"].as_u64(), e["scale"].as_str(), e["backend"].as_str()),
            (Some(42), Some("quick"), Some("avx2"))
        );
    }
    envelopes.iter().map(|e| e["row"].clone()).collect()
}

#[test]
#[ignore = "release-only: runs all fourteen experiments at quick scale (about five minutes)"]
fn every_experiment_reproduces_its_quick_rows() {
    let mut mismatches = Vec::new();
    for &(experiment, rows, digest) in PINS {
        let dir = scratch_dir(experiment);
        let produced = produce(experiment, &dir);
        let got = (produced.len(), fnv1a(canonical(experiment, &produced).as_bytes()));
        if got != (rows, digest) {
            mismatches.push(format!("(\"{experiment}\", {}, {:#018x}),", got.0, got.1));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(mismatches.is_empty(), "quick rows moved:\n{}", mismatches.join("\n"));
}

#[test]
#[ignore = "release-only: runs fig12 and scale_sweep at quick scale"]
fn one_experiments_peak_rss_stays_out_of_the_next_ones_rows() {
    // `scale_sweep` records the process's VmHWM, which only grows: run in
    // one process after `fig12`, its smallest tier would read `fig12`'s.
    let smallest_tier_rss = |only: &str| {
        let dir = scratch_dir(&only.replace(',', "-"));
        let status = Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args(["--only", only, "--quick"])
            .env("NEBULA_RESULTS_DIR", &dir)
            .stdout(Stdio::null())
            .status()
            .expect("spawn campaign");
        assert!(status.success(), "campaign --only {only} exited with {status}");
        let rss = read_lines(&dir.join("scale_sweep.jsonl"))[0]["row"]["peak_rss_bytes"].as_u64();
        let _ = std::fs::remove_dir_all(&dir);
        rss.expect("scale_sweep rows record peak RSS") as f64
    };
    let alone = smallest_tier_rss("scale_sweep");
    let after_fig12 = smallest_tier_rss("fig12,scale_sweep");
    assert!(after_fig12 <= 1.25 * alone, "smallest-tier peak RSS {after_fig12} after fig12 vs {alone} alone");
}

#[test]
fn committed_report_md_is_reports_output() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .env("NEBULA_RESULTS_DIR", &committed)
        .output()
        .expect("spawn report");
    let md = std::fs::read(committed.join("report.md")).expect("results/report.md");
    assert!(md == out.stdout, "results/report.md is stale: regenerate it with `report > results/report.md`");
}

#[test]
fn report_renders_the_committed_results() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .env("NEBULA_RESULTS_DIR", &committed)
        .output()
        .expect("spawn report");
    assert!(out.status.success(), "report exited with {}", out.status);
    assert_eq!(
        fnv1a(&out.stdout),
        REPORT_DIGEST,
        "report output moved:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

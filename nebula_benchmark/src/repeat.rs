//! `nebula_benchmark repeat`: does the benchmark agree with itself? Runs
//! every workload `runs` times in each of `sets` sets — one process per
//! run, like the driver — and holds the gap between set medians to each
//! metric's own bound. Counts must repeat bit for bit.

use std::process::{Command, Stdio};

use serde_json::Value;

use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;

/// Runs one workload end to end in a process of its own (so that
/// `peak_rss_mib` is that workload's alone). Returns what it printed and
/// its end-to-end metric values in `END_TO_END` order; a run that
/// reports incorrect outputs is an error.
pub fn child_run(workload: &str, seed: u64, seconds: u64) -> Result<(String, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().ok_or("a run printed nothing")?;
    let record: Value = serde_json::from_str(last).map_err(|e| format!("result line does not parse: {e}"))?;
    if record.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{workload} reported incorrect outputs"));
    }
    let values = END_TO_END
        .iter()
        .map(|m| {
            record
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("result line lacks {}", m.name))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok((stdout, values))
}

pub fn repeat(sets: usize, runs: usize, seed: u64, seconds: u64) -> bool {
    let mut ok = true;
    println!(
        "{:<16} {:<20} {:>5} {:>50}  {:>8} {:>6}  verdict",
        "workload", "metric", "set", "min / median / max", "gap", "bound"
    );
    for w in &WORKLOADS {
        // values[set][metric] = that metric over the set's runs.
        let mut values = vec![vec![Vec::with_capacity(runs); END_TO_END.len()]; sets];
        for set in values.iter_mut() {
            for _ in 0..runs {
                match child_run(w.name, seed, seconds) {
                    Ok((_, run)) => run.into_iter().zip(set.iter_mut()).for_each(|(v, slot)| slot.push(v)),
                    Err(why) => {
                        eprintln!("repeat: {why}");
                        return false;
                    }
                }
            }
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let medians: Vec<f64> = values.iter().map(|set| median(&set[i])).collect();
            // How much worse the worst set reads than the best, as a share
            // of the best.
            let (lo, hi) = medians.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let gap = match m.better {
                Better::Lower => (hi - lo) / lo,
                Better::Higher => (hi - lo) / hi,
            };
            let all: Vec<u64> = values.iter().flat_map(|set| set[i].iter().map(|v| v.to_bits())).collect();
            let (pass, verdict) = if m.exact {
                let same = all.iter().all(|&b| b == all[0]);
                (same, if same { "exact" } else { "NOT EXACT" })
            } else {
                let within = gap <= m.bound;
                (within, if within { "within bound" } else { "OUT OF BOUND" })
            };
            ok &= pass;
            for (s, set) in values.iter().enumerate() {
                let (min, max) =
                    set[i].iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                let mut range = format!("{min:.4} / {:.4} / {max:.4}", medians[s]);
                if set[i].len() >= 2 && !m.exact {
                    range.push_str(&format!(" (spread {:.1}%)", 100.0 * spread(&set[i])));
                }
                if s + 1 < sets {
                    println!("{:<16} {:<20} {:>5} {range:>50}", w.name, m.name, s + 1);
                } else {
                    println!(
                        "{:<16} {:<20} {:>5} {range:>50}  {:>7.2}% {:>5.0}%  {verdict}",
                        w.name,
                        m.name,
                        s + 1,
                        gap * 100.0,
                        m.bound * 100.0
                    );
                }
            }
        }
    }
    ok
}

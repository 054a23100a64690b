//! The host descriptor printed with every result: a timing means little
//! without the machine, kernel engine and parallelism it was taken on.

use std::path::Path;

use nebula_tensor::resolved_backend;
use serde_json::{Number, Value};

use crate::workloads::{SERVE_EXECUTORS, SERVE_WORKERS};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            out.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            out.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            out.push("avx512f");
        }
    }
    out
}

/// The commit the benchmark ran at, read from `.git` in the working
/// directory without starting a process ("unknown" in a bare checkout).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".to_string() };
    let head = head.trim();
    let full = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => read(name).map(|s| s.trim().to_string()).or_else(|| {
            let packed = read("packed-refs")?;
            packed.lines().find_map(|l| l.strip_suffix(name).map(|sha| sha.trim().to_string()))
        }),
    };
    full.map_or_else(|| "unknown".to_string(), |sha| sha.chars().take(12).collect())
}

/// Filesystem type holding `dir`: the longest mount point in
/// `/proc/mounts` that prefixes its absolute path.
pub fn fs_type(dir: &Path) -> String {
    let abs = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn descriptor(journal_dir: &Path) -> Value {
    let text = |s: &str| Value::String(s.to_string());
    Value::Object(vec![
        ("record".to_string(), text("host")),
        ("nproc".to_string(), Value::Number(Number::U64(nproc() as u64))),
        ("kernel_backend".to_string(), text(resolved_backend().as_str())),
        ("cpu_features".to_string(), Value::Array(cpu_features().into_iter().map(text).collect())),
        ("git_rev".to_string(), text(&git_rev())),
        ("rayon".to_string(), text("rayon shim: sequential")),
        ("serve_workers_x_executors".to_string(), text(&format!("{SERVE_WORKERS}x{SERVE_EXECUTORS}"))),
        ("journal_fs".to_string(), text(&fs_type(journal_dir))),
    ])
}

/// Loud, not fatal: with fewer cores than worker threads the served
/// workload measures the scheduler, not the serving plane.
pub fn warn_if_oversubscribed(workload_is_served: bool) {
    if workload_is_served && nproc() < SERVE_WORKERS {
        eprintln!(
            "WARNING: nproc = {} < {SERVE_WORKERS} worker threads: har_serve is oversubscribed on this \
             host; its timings are not comparable with a {SERVE_WORKERS}-core run",
            nproc()
        );
    }
}

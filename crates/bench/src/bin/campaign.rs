//! Runs experiments and writes their rows:
//!
//! `campaign [--only table1,fig7] [--quick]`
//!
//! Each selected experiment runs once per seed of `results/campaign.json`
//! and replaces `$NEBULA_RESULTS_DIR/<experiment>.jsonl` (default
//! `results/`) with one envelope per row. With several experiments
//! selected, each runs in a child process of its own: peak RSS, which
//! `scale_sweep` records, only grows within a process, and the kernel
//! backend and thread budget are process-wide.

use nebula_bench::experiments::EXPERIMENTS;
use nebula_bench::{results_dir, run, write, Manifest};
use std::process::{exit, Command};

fn usage(why: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!("campaign: {why}\nusage: campaign [--only a,b] [--quick]\nexperiments: {}", names.join(", "));
    exit(2)
}

fn main() {
    let (mut only, mut quick) = (None, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--only" => only = Some(args.next().unwrap_or_else(|| usage("--only needs a list"))),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let names: Vec<String> = only.map_or(Vec::new(), |list| list.split(',').map(str::to_string).collect());
    if let Some(unknown) = names.iter().find(|n| !EXPERIMENTS.iter().any(|(name, _)| name == n)) {
        usage(&format!("no experiment named `{unknown}`"));
    }
    let selected: Vec<_> =
        EXPERIMENTS.iter().filter(|(name, _)| names.is_empty() || names.iter().any(|n| n == name)).collect();

    if let [(name, experiment)] = selected[..] {
        let envelopes = run(name, *experiment, &Manifest::committed(), quick);
        if let Err(e) = write(&results_dir(), name, &envelopes) {
            eprintln!("campaign: writing {name} rows: {e}");
            exit(1);
        }
        return;
    }
    let exe = std::env::current_exe().expect("campaign knows its own path");
    let mut failed = Vec::new();
    for (name, _) in selected {
        let mut child = Command::new(&exe);
        child.args(["--only", name]);
        if quick {
            child.arg("--quick");
        }
        if !child.status().is_ok_and(|s| s.success()) {
            failed.push(*name);
        }
    }
    if !failed.is_empty() {
        eprintln!("campaign: failed: {}", failed.join(", "));
        exit(1);
    }
}

//! Shared experiment harness for the per-table / per-figure binaries in
//! `src/bin/`. See DESIGN.md §4 for the experiment index.
//!
//! Every binary prints the paper's rows/series to stdout and writes a
//! JSON record per measurement to `results/<experiment>.jsonl` (one run
//! per file) so the numbers in EXPERIMENTS.md are regenerable.

use nebula_core::modular_config_for;
use nebula_data::drift::DriftKind;
use nebula_data::{DriftModel, PartitionSpec, Partitioner, Synthesizer, TaskPreset};
use nebula_sim::strategy::StrategyConfig;
use nebula_sim::{ResourceSampler, SimWorld};
use serde::Serialize;
use std::collections::BTreeSet;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;

/// Scale knobs for the experiment binaries. The paper simulates 500
/// devices; `quick` mode shrinks everything for smoke runs, `full` mode
/// is the EXPERIMENTS.md configuration.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub devices: usize,
    pub rounds_per_step: usize,
    pub eval_devices: usize,
    pub pretrain_epochs: usize,
    pub proxy_samples: usize,
}

impl Scale {
    /// EXPERIMENTS.md scale (sized for a single-core CI box; the paper's
    /// 500-device population shrinks to 100 with the same 25-per-round
    /// sampling).
    pub fn full() -> Self {
        Self { devices: 100, rounds_per_step: 10, eval_devices: 10, pretrain_epochs: 12, proxy_samples: 2500 }
    }

    /// Smoke-test scale (CI and `--quick`).
    pub fn quick() -> Self {
        Self { devices: 30, rounds_per_step: 3, eval_devices: 6, pretrain_epochs: 4, proxy_samples: 600 }
    }

    /// Parses `--quick` from argv.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Self::quick()
        } else {
            Self::full()
        }
    }
}

/// One experiment row of a task table: the task plus its label-skew
/// degree (`m` classes per device; `None` = HAR's subject skew).
#[derive(Clone, Copy, Debug)]
pub struct TaskRow {
    pub task: TaskPreset,
    pub skew_m: Option<usize>,
}

impl TaskRow {
    /// The seven rows of Table 1, in paper order.
    pub fn table1_rows() -> Vec<TaskRow> {
        let mut rows = vec![TaskRow { task: TaskPreset::Har, skew_m: None }];
        for task in [TaskPreset::Cifar10, TaskPreset::Cifar100, TaskPreset::SpeechCommands] {
            for m in task.skew_degrees().unwrap() {
                rows.push(TaskRow { task, skew_m: Some(m) });
            }
        }
        rows
    }

    /// Human-readable partition label ("1 subject" / "m=2" …).
    pub fn partition_label(&self) -> String {
        match self.skew_m {
            None => "1 subject".to_string(),
            Some(m) => format!("m={m}"),
        }
    }

    /// The partitioner for this row.
    pub fn partitioner(&self) -> Partitioner {
        match self.skew_m {
            None => Partitioner::FeatureSkew,
            Some(m) => Partitioner::LabelSkew { m },
        }
    }

    /// The drift process used in continuous experiments for this row.
    pub fn drift(&self, replace_frac: f32, group_seed: u64) -> DriftModel {
        match self.skew_m {
            None => DriftModel::new(replace_frac, DriftKind::ContextShift),
            Some(m) => DriftModel::new(replace_frac, DriftKind::ClassShift { m, group_seed }),
        }
    }

    /// Builds the simulated world for this row.
    pub fn world(&self, scale: Scale, drift_replace: Option<f32>, seed: u64) -> SimWorld {
        let group_seed = seed ^ 0x6E0;
        let synth = Synthesizer::new(self.task.synth_spec(), seed);
        let pspec = PartitionSpec::new(scale.devices, self.partitioner());
        let drift = drift_replace.map(|f| self.drift(f, group_seed));
        SimWorld::new(synth, pspec, group_seed, drift, &ResourceSampler::default(), seed ^ 0x5EED)
    }

    /// The strategy configuration for this row at the given scale.
    pub fn strategy_config(&self, scale: Scale) -> StrategyConfig {
        let mut cfg = StrategyConfig::new(modular_config_for(self.task));
        cfg.rounds_per_step = scale.rounds_per_step;
        cfg.pretrain_epochs = scale.pretrain_epochs;
        cfg.proxy_samples = scale.proxy_samples;
        cfg
    }
}

/// Writes a JSON record to `results/<experiment>.jsonl` (creating the
/// directory on first use). The first record a process writes to a file
/// replaces what an earlier run left there; later ones append, so the
/// file always holds exactly one run.
pub fn emit_record<T: Serialize>(experiment: &str, record: &T) {
    static STARTED: Mutex<BTreeSet<PathBuf>> = Mutex::new(BTreeSet::new());
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{experiment}.jsonl"));
    let first = STARTED.lock().expect("results registry lock").insert(path.clone());
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(first)
        .append(!first)
        .open(&path)
        .expect("open results file");
    let line = serde_json::to_string(record).expect("serialize record");
    writeln!(f, "{line}").expect("write record");
}

/// `results/` beside the workspace root (env `NEBULA_RESULTS_DIR`
/// overrides).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("NEBULA_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Pretty-prints a row of fixed-width columns.
pub fn print_row(cols: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        line.push_str(&format!("{:<width$}", c, width = w + 2));
    }
    println!("{}", line.trim_end());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_seven_rows_in_paper_order() {
        let rows = TaskRow::table1_rows();
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[0].task, TaskPreset::Har);
        assert_eq!(rows[1].partition_label(), "m=2");
        assert_eq!(rows[6].partition_label(), "m=10");
    }

    #[test]
    fn worlds_build_for_every_row_at_quick_scale() {
        for row in TaskRow::table1_rows() {
            let world = row.world(Scale::quick(), Some(0.5), 1);
            assert_eq!(world.num_devices(), Scale::quick().devices);
        }
    }

    #[test]
    fn strategy_config_tracks_scale() {
        let row = TaskRow::table1_rows()[1];
        let cfg = row.strategy_config(Scale::quick());
        assert_eq!(cfg.rounds_per_step, Scale::quick().rounds_per_step);
        cfg.modular.validate();
    }

    #[test]
    fn emit_record_appends_jsonl() {
        #[derive(Serialize)]
        struct R {
            x: u32,
        }
        let dir = std::env::temp_dir().join(format!("nebula-results-test-{}", std::process::id()));
        // Env var scoping: this is the only test touching NEBULA_RESULTS_DIR.
        std::env::set_var("NEBULA_RESULTS_DIR", &dir);
        // A previous run's file must be replaced, not extended.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("unit_test.jsonl"), "{\"x\":0}\n").unwrap();
        emit_record("unit_test", &R { x: 1 });
        emit_record("unit_test", &R { x: 2 });
        let text = std::fs::read_to_string(dir.join("unit_test.jsonl")).unwrap();
        std::env::remove_var("NEBULA_RESULTS_DIR");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"x":1}"#);
        assert_eq!(lines[1], r#"{"x":2}"#);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drift_kind_follows_partition_type() {
        let har = TaskRow { task: TaskPreset::Har, skew_m: None };
        assert!(matches!(har.drift(0.5, 1).kind, DriftKind::ContextShift));
        let c10 = TaskRow { task: TaskPreset::Cifar10, skew_m: Some(2) };
        assert!(matches!(c10.drift(0.5, 1).kind, DriftKind::ClassShift { m: 2, .. }));
    }
}

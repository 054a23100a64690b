//! Every table and figure of the Nebula paper, as one experiment each.
//! See DESIGN.md §4 for the experiment index.
//!
//! Each experiment in [`experiments`] is a function from a [`Ctx`] to
//! rows. `campaign` runs the selected experiments once per seed of the
//! committed manifest, `results/campaign.json`, and writes every row inside
//! an [`Envelope`] to `results/<experiment>.jsonl`. `report` renders those
//! rows as the markdown EXPERIMENTS.md embeds and, with `--check`,
//! evaluates the manifest's [`claims`].

/// Builds a row: an ordered JSON object whose values go through
/// `Serialize::to_value`, so its bytes equal those of a derived struct
/// with the same fields.
macro_rules! row {
    ($($key:literal => $value:expr),* $(,)?) => {
        ::serde_json::Value::Object(vec![$(($key.to_string(), ::serde::Serialize::to_value(&$value))),*])
    };
}

pub mod claims;
pub mod experiments;

use nebula_core::modular_config_for;
use nebula_data::drift::DriftKind;
use nebula_data::{DriftModel, PartitionSpec, Partitioner, Synthesizer, TaskPreset};
use nebula_sim::strategy::StrategyConfig;
use nebula_sim::{ResourceSampler, SimWorld};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Scale knobs for the experiments. The paper simulates 500 devices;
/// `quick` shrinks everything for smoke runs, `full` is the EXPERIMENTS.md
/// configuration.
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
}

/// What one experiment run may depend on besides its own constants.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// Every draw the experiment does not seed by a constant of its own
    /// derives from this.
    pub seed: u64,
    pub scale: Scale,
    /// Quick scale: also shrinks the grids and slot counts that are not
    /// fields of [`Scale`].
    pub quick: bool,
}

impl Ctx {
    pub fn new(seed: u64, quick: bool) -> Self {
        Self { seed, scale: if quick { Scale::quick() } else { Scale::full() }, quick }
    }
}

/// One experiment: its rows for one seed at one scale.
pub type Experiment = fn(&Ctx) -> Vec<Value>;

/// The committed campaign manifest, `results/campaign.json`.
#[derive(Clone, Debug, Deserialize)]
pub struct Manifest {
    /// The seeds every experiment runs under; `report` renders the first.
    pub seeds: Vec<u64>,
    /// What `report --check` asserts, with every tolerance.
    pub claims: Vec<claims::ClaimSpec>,
}

impl Manifest {
    pub fn committed() -> Self {
        serde_json::from_str(include_str!("../../../results/campaign.json"))
            .expect("results/campaign.json is a valid manifest")
    }
}

/// One results line: a row and the run that produced it.
#[derive(Debug, Serialize, Deserialize)]
pub struct Envelope {
    pub experiment: String,
    /// `git describe --always --dirty` of the producing checkout.
    pub rev: Option<String>,
    pub seed: u64,
    /// The kernel backend the run resolved to.
    pub backend: Option<String>,
    /// The thread budget, `tensor::par::max_threads()`.
    pub threads: Option<u64>,
    /// `"quick"` or `"full"`.
    pub scale: String,
    pub row: Value,
}

fn git_rev() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Runs `experiment` once per manifest seed, printing each run's row count
/// and seconds, and wraps every row in its envelope.
pub fn run(name: &str, experiment: Experiment, manifest: &Manifest, quick: bool) -> Vec<Envelope> {
    let rev = git_rev();
    let backend = nebula_tensor::resolved_backend().as_str().to_string();
    let threads = nebula_tensor::par::max_threads() as u64;
    let mut envelopes = Vec::new();
    for &seed in &manifest.seeds {
        let start = Instant::now();
        let rows = experiment(&Ctx::new(seed, quick));
        println!("{name} seed {seed}: {} rows in {:.1} s", rows.len(), start.elapsed().as_secs_f64());
        envelopes.extend(rows.into_iter().map(|row| Envelope {
            experiment: name.to_string(),
            rev: rev.clone(),
            seed,
            backend: Some(backend.clone()),
            threads: Some(threads),
            scale: if quick { "quick" } else { "full" }.to_string(),
            row,
        }));
    }
    envelopes
}

/// `results/` beside the workspace root (env `NEBULA_RESULTS_DIR`
/// overrides).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("NEBULA_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Replaces `dir/<experiment>.jsonl` with `envelopes`, one per line.
pub fn write(dir: &Path, experiment: &str, envelopes: &[Envelope]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{experiment}.jsonl"));
    let text: String =
        envelopes.iter().map(|e| serde_json::to_string(e).expect("envelopes serialise") + "\n").collect();
    std::fs::write(&path, text)?;
    Ok(path)
}

/// The envelopes in `dir/<experiment>.jsonl`; none when the file is absent.
pub fn read(dir: &Path, experiment: &str) -> Result<Vec<Envelope>, String> {
    let path = dir.join(format!("{experiment}.jsonl"));
    let Ok(text) = std::fs::read_to_string(&path) else { return Ok(Vec::new()) };
    text.lines()
        .enumerate()
        .map(|(i, line)| serde_json::from_str(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1)))
        .collect()
}

/// `items` grouped by `key`, groups in order of first appearance.
pub fn group<'a, T, K: PartialEq>(items: &'a [T], key: impl Fn(&'a T) -> K) -> Vec<(K, Vec<&'a T>)> {
    let mut groups: Vec<(K, Vec<&T>)> = Vec::new();
    for item in items {
        let k = key(item);
        match groups.iter_mut().find(|(g, _)| *g == k) {
            Some((_, members)) => members.push(item),
            None => groups.push((k, vec![item])),
        }
    }
    groups
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
    fn drift_kind_follows_partition_type() {
        let har = TaskRow { task: TaskPreset::Har, skew_m: None };
        assert!(matches!(har.drift(0.5, 1).kind, DriftKind::ContextShift));
        let c10 = TaskRow { task: TaskPreset::Cifar10, skew_m: Some(2) };
        assert!(matches!(c10.drift(0.5, 1).kind, DriftKind::ClassShift { m: 2, .. }));
    }

    /// A cheap seeded experiment: one draw from the context's seed.
    fn draw(ctx: &Ctx) -> Vec<Value> {
        vec![row! { "draw" => nebula_tensor::NebulaRng::seed(ctx.seed).below(1 << 30) }]
    }

    #[test]
    fn every_manifest_seed_gets_its_own_envelopes() {
        let both = run("draw", draw, &Manifest { seeds: vec![42, 43], claims: Vec::new() }, true);
        let single = run("draw", draw, &Manifest { seeds: vec![42], claims: Vec::new() }, true);
        assert_eq!(both.iter().map(|e| e.seed).collect::<Vec<_>>(), [42, 43]);
        assert_eq!(both[0].row, single[0].row);
        assert_ne!(both[0].row, both[1].row);
        // Written and read back whole; an absent file reads as no rows.
        let dir = std::env::temp_dir().join(format!("nebula-results-test-{}", std::process::id()));
        write(&dir, "draw", &both).unwrap();
        let back = read(&dir, "draw").unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(serde_json::to_string(&back).unwrap(), serde_json::to_string(&both).unwrap());
        assert!(read(&dir, "draw").unwrap().is_empty());
    }
}

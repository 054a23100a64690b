//! Crash-safe experiment drivers: atomic run snapshots, a write-ahead
//! round journal, and deterministic resume.
//!
//! The durability layer underpins `Runner::durable(..)` (and
//! `.resume()`) in [`crate::runner`], so that a run killed at any
//! instant — including mid-write — can be restarted and produce the
//! **bit-identical** accuracy and communication trajectory the
//! uninterrupted run would have produced.
//!
//! ## Protocol
//!
//! * After the offline stage a **snapshot** (sequence 0) is persisted, so
//!   there is always at least one valid recovery point.
//! * Every completed round appends one CRC-framed [`RoundRecord`] to an
//!   append-only **journal** (`rounds.nblj`), fsynced before the round is
//!   considered durable.
//! * Every `snapshot_every` rounds a full [`RunState`] snapshot is written
//!   with write-temp-then-rename atomicity and a CRC trailer; older
//!   snapshots beyond `keep_snapshots` are pruned (always keeping ≥ 2 so a
//!   torn newest file leaves a fallback).
//! * Resume loads the newest *valid* snapshot (torn or bit-flipped files
//!   are detected by CRC and skipped), truncates any torn journal tail,
//!   re-executes the journal tail deterministically — verifying each
//!   re-executed round against its journal record — and continues.
//!
//! ## Determinism contract
//!
//! Bit-identical resume requires every random draw after the recovery
//! point to replay. The snapshot therefore captures the harness RNG, the
//! world RNG, the fault-plan round cursor, all outcome accumulators, and
//! the full strategy state ([`StrategyState`]). Strategies whose wire
//! codec keeps cross-round compression state (int8 residuals)
//! refuse to export ([`AdaptStrategy::export_state`] returns `None`) and
//! the durable drivers report [`RunError::UnsupportedStrategy`] up front
//! rather than silently producing a divergent resume.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::experiment::{mean_accuracy, pick_eval_ids, ExperimentConfig};
use crate::faults::{FaultPlan, RoundPolicy, RoundReport};
use crate::network::CommTracker;
use crate::strategy::{AdaptStrategy, StrategyState};
use crate::world::SimWorld;
use nebula_core::{DurabilityError, JournalWriter, SnapshotStore};
use nebula_telemetry::Telemetry;
use nebula_tensor::NebulaRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Version tag inside every serialized [`RunState`]. Format 2: a Nebula
/// client's `param_bits` cover only what the device holds (stem, installed
/// modules, head, selector) instead of a full model instance.
pub const RUN_STATE_FORMAT: u32 = 2;

/// Journal file name inside the durability directory.
pub const JOURNAL_FILE: &str = "rounds.nblj";

/// Which experiment shape a run drives. Everything the two shapes do not
/// share — label, RNG salt, validation, what resume does to a fresh world,
/// when a step probes and when the run is over — is a method here, so the
/// [`crate::runner::Runner`] loop and [`step`] exist once.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Mode {
    /// Rounds until `target` accuracy (probe every `probe_every`), capped
    /// at `max_rounds`.
    Target { target: f32, max_rounds: usize, probe_every: usize },
    /// `slots` drift slots, adapting and evaluating after each.
    Continuous { slots: usize },
}

impl Mode {
    /// `RunState::mode` / `RunOutcome::mode`.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Mode::Target { .. } => "target",
            Mode::Continuous { .. } => "continuous",
        }
    }

    /// XORed into the experiment seed for the harness RNG.
    pub(crate) fn rng_salt(self) -> u64 {
        match self {
            Mode::Target { .. } => 0x7A6,
            Mode::Continuous { .. } => 0xC0,
        }
    }

    /// Run identity derived from the experiment seed and mode; resume
    /// refuses state from a different run.
    fn run_id(self, seed: u64) -> u64 {
        let salt = match self {
            Mode::Target { .. } => 0x7A6C_E77A_6CE7_0001,
            Mode::Continuous { .. } => 0xC0C0_17D5_C0C0_0002,
        };
        splitmix64(seed ^ salt)
    }

    /// Rejects configurations that cannot produce a meaningful run.
    pub(crate) fn validate(self, world: &SimWorld, cfg: &ExperimentConfig) -> Result<(), RunError> {
        if world.num_devices() == 0 {
            return Err(RunError::InvalidConfig("world has no devices".into()));
        }
        if cfg.eval_devices == 0 {
            return Err(RunError::InvalidConfig("eval_devices must be ≥ 1".into()));
        }
        if let Mode::Target { target, probe_every, .. } = self {
            if !target.is_finite() {
                return Err(RunError::InvalidConfig(format!("target accuracy must be finite, got {target}")));
            }
            if probe_every == 0 {
                return Err(RunError::InvalidConfig("probe_every must be ≥ 1".into()));
            }
        }
        Ok(())
    }

    /// Brings a freshly built world to where the snapshot left it: a
    /// continuous run drifts it forward to the snapshot's slot. Only
    /// per-device RNGs advance here; the world RNG is restored after.
    fn prepare_restored_world(self, world: &mut SimWorld, state: &RunState) {
        if let Mode::Continuous { .. } = self {
            for _ in 0..state.slot {
                world.advance_slot();
            }
        }
    }

    /// Whether the run is over.
    pub(crate) fn done(self, acc: &Accum) -> bool {
        match self {
            Mode::Target { target, max_rounds, .. } => {
                !(acc.acc < target && (acc.rounds as usize) < max_rounds)
            }
            Mode::Continuous { slots } => acc.rounds as usize >= slots,
        }
    }

    /// Whether the run met its goal (a continuous run has none to miss).
    pub(crate) fn reached(self, acc: &Accum) -> bool {
        match self {
            Mode::Target { target, .. } => acc.acc >= target,
            Mode::Continuous { .. } => true,
        }
    }
}

/// Everything that can go wrong while driving a durable run.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// The caller-supplied configuration cannot produce a meaningful run.
    InvalidConfig(String),
    /// Snapshot/journal I/O or integrity failure.
    Durability(DurabilityError),
    /// The strategy cannot export/import deterministic state (e.g. under
    /// the int8 codec, whose error-feedback carries are not snapshotted).
    UnsupportedStrategy(String),
    /// The persisted state disagrees with the caller's reconstruction
    /// (different seed, mode, strategy, or eval set).
    StateMismatch(String),
    /// A re-executed round did not reproduce its journal record.
    ReplayDivergence { round: u64, detail: String },
    /// Chaos harness: the injected kill point was reached.
    Killed { round: u64 },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::InvalidConfig(msg) => write!(f, "invalid experiment config: {msg}"),
            RunError::Durability(e) => write!(f, "durability failure: {e}"),
            RunError::UnsupportedStrategy(msg) => {
                write!(f, "strategy does not support durable runs: {msg}")
            }
            RunError::StateMismatch(msg) => write!(f, "persisted state mismatch: {msg}"),
            RunError::ReplayDivergence { round, detail } => {
                write!(f, "replay diverged at round {round}: {detail}")
            }
            RunError::Killed { round } => write!(f, "injected kill after round {round}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<DurabilityError> for RunError {
    fn from(e: DurabilityError) -> Self {
        RunError::Durability(e)
    }
}

impl From<serde::Error> for RunError {
    fn from(e: serde::Error) -> Self {
        RunError::Durability(DurabilityError::Malformed(format!("state serialization: {e}")))
    }
}

/// Where, relative to a round's durability writes, an injected kill fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillSpot {
    /// Round computed but its journal record not yet appended — resume
    /// must re-execute the round.
    BeforeAppend,
    /// Record appended, snapshot (if due) not yet written — resume
    /// replays from the previous snapshot through the journal tail.
    AfterAppend,
    /// All durability writes for the round finished.
    AfterSnapshot,
}

/// Chaos-harness hooks threaded through the durable drivers.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosControl {
    /// Abort with [`RunError::Killed`] when round `.0` reaches `.1`.
    pub kill: Option<(u64, KillSpot)>,
}

impl ChaosControl {
    fn wants_kill(&self, round: u64, spot: KillSpot) -> bool {
        self.kill == Some((round, spot))
    }

    /// Whether any chaos hook is armed.
    pub fn is_armed(&self) -> bool {
        self.kill.is_some()
    }
}

/// Where and how often durable state is persisted.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding snapshots and the round journal.
    pub dir: PathBuf,
    /// Full snapshot cadence, in completed rounds (≥ 1).
    pub snapshot_every: usize,
    /// Snapshots retained after pruning (≥ 1; ≥ 2 keeps a fallback for a
    /// torn newest file).
    pub keep_snapshots: usize,
}

impl DurabilityConfig {
    /// Snapshot every 5 rounds, keep the 3 newest.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), snapshot_every: 5, keep_snapshots: 3 }
    }

    pub(crate) fn validate(&self) -> Result<(), RunError> {
        if self.snapshot_every == 0 {
            return Err(RunError::InvalidConfig("snapshot_every must be ≥ 1".into()));
        }
        if self.keep_snapshots == 0 {
            return Err(RunError::InvalidConfig("keep_snapshots must be ≥ 1".into()));
        }
        Ok(())
    }

    pub(crate) fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }
}

/// Durable-driver options: persistence knobs plus chaos hooks.
#[derive(Clone, Debug)]
pub(crate) struct DurableOptions {
    pub durability: DurabilityConfig,
    pub chaos: ChaosControl,
}

/// One write-ahead journal record: what a single completed round produced.
///
/// Floats are stored as IEEE-754 bit patterns so the JSON round-trip is
/// exact and replay verification can compare for bit equality.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// 1-based round (or slot) index within the run.
    pub index: u64,
    /// The round's communication.
    pub comm: CommTracker,
    /// The round's robustness accounting.
    pub faults: RoundReport,
    /// Bits of the mean eval accuracy *after* this round (unchanged since
    /// the previous probe on non-probe rounds).
    pub acc_bits: u32,
    /// Bits of the round's mean on-device adaptation time (ms, `f64`).
    pub time_bits: u64,
}

/// Full recovery point: everything needed to continue a run
/// bit-identically from the end of round `rounds`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunState {
    /// [`RUN_STATE_FORMAT`] at write time.
    pub format: u32,
    /// Run identity derived from the experiment seed and mode; resume
    /// refuses state from a different run.
    pub run_id: u64,
    /// `"target"` or `"continuous"`.
    pub mode: String,
    /// Completed rounds (target mode) or slots (continuous mode).
    pub rounds: u64,
    /// World drift slots advanced (continuous mode; 0 for target mode).
    pub slot: u64,
    /// Fault-plan cursor: rounds the world has started.
    pub rounds_started: u64,
    /// xoshiro256** state of the harness RNG (4 words).
    pub harness_rng: Vec<u64>,
    /// xoshiro256** state of the world RNG (4 words).
    pub world_rng: Vec<u64>,
    /// Communication accumulated so far (target mode).
    pub comm: CommTracker,
    /// Fault accounting accumulated so far.
    pub faults: RoundReport,
    /// Bits of the latest probed mean eval accuracy.
    pub acc_bits: u32,
    /// Bits of the accumulated adaptation-time sum (ms, `f64`).
    pub time_sum_bits: u64,
    /// Bits of per-slot accuracies so far (continuous mode).
    pub acc_per_slot_bits: Vec<u32>,
    /// The world's fault plan at capture time.
    pub plan: FaultPlan,
    /// The world's round policy at capture time.
    pub policy: RoundPolicy,
    /// Tracked evaluation devices.
    pub eval_ids: Vec<usize>,
    /// `strategy.name()` at capture time.
    pub strategy_name: String,
    /// Full strategy state (models, clients, selector).
    pub strategy: StrategyState,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn arr4(words: &[u64], what: &str) -> Result<[u64; 4], RunError> {
    if words.len() != 4 {
        return Err(DurabilityError::Malformed(format!(
            "{what}: expected 4 rng state words, got {}",
            words.len()
        ))
        .into());
    }
    Ok([words[0], words[1], words[2], words[3]])
}

fn rng_from_state(words: &[u64], what: &str) -> Result<NebulaRng, RunError> {
    NebulaRng::from_state(arr4(words, what)?)
        .ok_or_else(|| DurabilityError::Malformed(format!("{what}: all-zero rng state")).into())
}

fn encode_state(state: &RunState) -> Result<Vec<u8>, RunError> {
    Ok(serde_json::to_vec(state)?)
}

fn decode_state(bytes: &[u8]) -> Result<RunState, RunError> {
    let state: RunState =
        serde_json::from_slice(bytes).map_err(|e| DurabilityError::Malformed(format!("run state: {e}")))?;
    if state.format != RUN_STATE_FORMAT {
        return Err(DurabilityError::UnsupportedVersion(state.format).into());
    }
    Ok(state)
}

fn encode_record(rec: &RoundRecord) -> Result<Vec<u8>, RunError> {
    Ok(serde_json::to_vec(rec)?)
}

fn decode_record(bytes: &[u8]) -> Result<RoundRecord, RunError> {
    Ok(serde_json::from_slice(bytes).map_err(|e| DurabilityError::Malformed(format!("round record: {e}")))?)
}

/// Mutable accumulators a run threads through execute/replay — the same
/// for plain, durable and resumed runs, so all accumulate (and therefore
/// probe) identically.
pub(crate) struct Accum {
    pub(crate) rng: NebulaRng,
    pub(crate) comm: CommTracker,
    pub(crate) faults: RoundReport,
    pub(crate) rounds: u64,
    pub(crate) slot: u64,
    pub(crate) acc: f32,
    pub(crate) time_sum: f64,
    pub(crate) acc_per_slot: Vec<f32>,
}

impl Accum {
    pub(crate) fn fresh(rng: NebulaRng, acc: f32) -> Self {
        Self {
            rng,
            comm: CommTracker::new(),
            faults: RoundReport::default(),
            rounds: 0,
            slot: 0,
            acc,
            time_sum: 0.0,
            acc_per_slot: Vec::new(),
        }
    }
}

pub(crate) struct Engine {
    store: SnapshotStore,
    journal: JournalWriter,
    opts: DurableOptions,
    run_id: u64,
    mode: &'static str,
    pub(crate) eval_ids: Vec<usize>,
    /// Observes `journal.append_ms` / `snapshot.save_ms` latencies; the
    /// disarmed default costs one branch per durability write.
    telemetry: Telemetry,
}

impl Engine {
    /// A fresh run's engine over an already-opened `store`: starts the
    /// round journal. ([`restore`] builds a resumed run's.)
    pub(crate) fn create(
        store: SnapshotStore,
        opts: DurableOptions,
        mode: Mode,
        seed: u64,
        eval_ids: Vec<usize>,
        telemetry: Telemetry,
    ) -> Result<Self, RunError> {
        let run_id = mode.run_id(seed);
        let journal = JournalWriter::create(&opts.durability.journal_path(), run_id)?;
        Ok(Engine { store, journal, opts, run_id, mode: mode.label(), eval_ids, telemetry })
    }

    fn capture(
        &self,
        strategy: &dyn AdaptStrategy,
        world: &SimWorld,
        acc: &Accum,
    ) -> Result<RunState, RunError> {
        let strategy_state = strategy.export_state().ok_or_else(|| {
            RunError::UnsupportedStrategy(format!(
                "{} cannot export deterministic state (lossy wire codec?)",
                strategy.name()
            ))
        })?;
        Ok(RunState {
            format: RUN_STATE_FORMAT,
            run_id: self.run_id,
            mode: self.mode.to_string(),
            rounds: acc.rounds,
            slot: acc.slot,
            rounds_started: world.rounds_started(),
            harness_rng: acc.rng.state().to_vec(),
            world_rng: world.rng_state().to_vec(),
            comm: acc.comm,
            faults: acc.faults,
            acc_bits: acc.acc.to_bits(),
            time_sum_bits: acc.time_sum.to_bits(),
            acc_per_slot_bits: acc.acc_per_slot.iter().map(|a| a.to_bits()).collect(),
            plan: world.faults,
            policy: world.policy,
            eval_ids: self.eval_ids.clone(),
            strategy_name: strategy.name().to_string(),
            strategy: strategy_state,
        })
    }

    pub(crate) fn save_snapshot(
        &self,
        strategy: &dyn AdaptStrategy,
        world: &SimWorld,
        acc: &Accum,
    ) -> Result<(), RunError> {
        let started = self.telemetry.enabled().then(Instant::now);
        let state = self.capture(strategy, world, acc)?;
        self.store.save(acc.rounds, &encode_state(&state)?)?;
        self.store.prune(self.opts.durability.keep_snapshots)?;
        if let Some(t0) = started {
            self.telemetry.counter_add("snapshot.saves", 1);
            self.telemetry.observe("snapshot.save_ms", t0.elapsed().as_secs_f64() * 1e3);
        }
        Ok(())
    }

    /// Journals a completed round, snapshots when due, and honours
    /// injected kill points. Returns `Err(Killed)` at a chaos kill.
    pub(crate) fn finish_round(
        &mut self,
        rec: &RoundRecord,
        strategy: &dyn AdaptStrategy,
        world: &SimWorld,
        acc: &Accum,
    ) -> Result<(), RunError> {
        let chaos = self.opts.chaos;
        if chaos.wants_kill(rec.index, KillSpot::BeforeAppend) {
            return Err(RunError::Killed { round: rec.index });
        }
        let started = self.telemetry.enabled().then(Instant::now);
        self.journal.append(&encode_record(rec)?)?;
        if let Some(t0) = started {
            self.telemetry.counter_add("journal.appends", 1);
            self.telemetry.observe("journal.append_ms", t0.elapsed().as_secs_f64() * 1e3);
        }
        if chaos.wants_kill(rec.index, KillSpot::AfterAppend) {
            return Err(RunError::Killed { round: rec.index });
        }
        if (acc.rounds as usize).is_multiple_of(self.opts.durability.snapshot_every) {
            self.save_snapshot(strategy, world, acc)?;
        }
        if chaos.wants_kill(rec.index, KillSpot::AfterSnapshot) {
            return Err(RunError::Killed { round: rec.index });
        }
        Ok(())
    }
}

pub(crate) fn verify_replay(rec: &RoundRecord, executed: &RoundRecord) -> Result<(), RunError> {
    if rec != executed {
        return Err(RunError::ReplayDivergence {
            round: rec.index,
            detail: format!("journal {rec:?} vs re-executed {executed:?}"),
        });
    }
    Ok(())
}

fn open_or_create_journal(
    path: &Path,
    run_id: u64,
) -> Result<(JournalWriter, BTreeMap<u64, RoundRecord>), RunError> {
    if path.exists() {
        let (writer, contents) = JournalWriter::open_append(path, run_id)?;
        let mut records = BTreeMap::new();
        for bytes in &contents.records {
            let rec = decode_record(bytes)?;
            records.insert(rec.index, rec);
        }
        Ok((writer, records))
    } else {
        Ok((JournalWriter::create(path, run_id)?, BTreeMap::new()))
    }
}

/// One step of a run — a collaborative round (target mode) or a drift
/// slot (continuous mode): execute, accumulate, probe. Returns the step's
/// journal record.
pub(crate) fn step(
    mode: Mode,
    strategy: &mut dyn AdaptStrategy,
    world: &mut SimWorld,
    eval_ids: &[usize],
    acc: &mut Accum,
) -> RoundRecord {
    if let Mode::Continuous { .. } = mode {
        world.advance_slot();
        acc.slot += 1;
    }
    let report = strategy.adaptation_step(world, &mut acc.rng);
    acc.comm.merge(&report.comm);
    acc.faults.merge(&report.faults);
    acc.time_sum += report.adapt_time_ms;
    acc.rounds += 1;
    match mode {
        Mode::Target { max_rounds, probe_every, .. } => {
            if (acc.rounds as usize).is_multiple_of(probe_every) || acc.rounds as usize == max_rounds {
                acc.acc = mean_accuracy(strategy, world, eval_ids);
            }
        }
        Mode::Continuous { .. } => {
            acc.acc = mean_accuracy(strategy, world, eval_ids);
            acc.acc_per_slot.push(acc.acc);
        }
    }
    RoundRecord {
        index: acc.rounds,
        comm: report.comm,
        faults: report.faults,
        acc_bits: acc.acc.to_bits(),
        time_bits: report.adapt_time_ms.to_bits(),
    }
}

/// Loads the newest valid snapshot, validates it against the caller's
/// reconstruction, restores strategy/world/accumulators, and opens the
/// journal (truncating any torn tail). Returns the resumed engine, the
/// accumulators, and the journal records newer than the snapshot.
pub(crate) fn restore(
    strategy: &mut dyn AdaptStrategy,
    world: &mut SimWorld,
    cfg: &ExperimentConfig,
    mode: Mode,
    opts: DurableOptions,
    telemetry: &Telemetry,
) -> Result<(Engine, Accum, BTreeMap<u64, RoundRecord>), RunError> {
    let run_id = mode.run_id(cfg.seed);
    let store = SnapshotStore::open(&opts.durability.dir)?;
    let loaded = store.load_newest_valid()?;
    let state = decode_state(&loaded.payload)?;

    if state.run_id != run_id {
        return Err(RunError::StateMismatch(format!(
            "snapshot belongs to run {:#x}, caller reconstructs run {:#x} (seed/mode differ?)",
            state.run_id, run_id
        )));
    }
    if state.mode != mode.label() {
        return Err(RunError::StateMismatch(format!(
            "snapshot mode {:?} vs requested {:?}",
            state.mode,
            mode.label()
        )));
    }
    if state.strategy_name != strategy.name() {
        return Err(RunError::StateMismatch(format!(
            "snapshot strategy {:?} vs caller strategy {:?}",
            state.strategy_name,
            strategy.name()
        )));
    }
    let eval_ids = pick_eval_ids(world, cfg.eval_devices);
    if eval_ids != state.eval_ids {
        return Err(RunError::StateMismatch(format!(
            "eval set changed: snapshot {:?} vs reconstruction {:?}",
            state.eval_ids, eval_ids
        )));
    }
    if state.rounds != loaded.seq {
        return Err(RunError::StateMismatch(format!(
            "snapshot file seq {} disagrees with embedded round count {}",
            loaded.seq, state.rounds
        )));
    }

    mode.prepare_restored_world(world, &state);
    strategy.track(&eval_ids);
    strategy.import_state(&state.strategy).map_err(RunError::StateMismatch)?;
    world.set_fault_plan(state.plan);
    world.set_round_policy(state.policy);
    world
        .restore_rng_state(arr4(&state.world_rng, "world rng")?)
        .ok_or_else(|| RunError::from(DurabilityError::Malformed("world rng: all-zero state".into())))?;
    world.set_rounds_started(state.rounds_started);

    let rng = rng_from_state(&state.harness_rng, "harness rng")?;
    let acc = Accum {
        rng,
        comm: state.comm,
        faults: state.faults,
        rounds: state.rounds,
        slot: state.slot,
        acc: f32::from_bits(state.acc_bits),
        time_sum: f64::from_bits(state.time_sum_bits),
        acc_per_slot: state.acc_per_slot_bits.iter().map(|&b| f32::from_bits(b)).collect(),
    };

    let (journal, mut records) = open_or_create_journal(&opts.durability.journal_path(), run_id)?;
    records.retain(|&idx, _| idx > state.rounds);
    let eng =
        Engine { store, journal, opts, run_id, mode: mode.label(), eval_ids, telemetry: telemetry.clone() };
    Ok((eng, acc, records))
}

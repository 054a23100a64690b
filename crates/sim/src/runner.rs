//! The unified experiment driver.
//!
//! [`Runner`] is the single driver for every experiment shape, behind one
//! builder:
//!
//! ```text
//! Runner::new(&mut world, &mut strategy)
//!     .config(cfg)                    // seed, eval cohort size
//!     .target(0.8, 200, 5)            // or .continuous(slots)
//!     .durable(DurabilityConfig::new(dir))   // optional crash safety
//!     .chaos(ChaosControl::default())        // optional kill injection
//!     .telemetry(Telemetry::new(sink))       // optional tracing
//!     .run()?                          // -> RunOutcome
//! ```
//!
//! Every combination — plain / durable / resumed × target / continuous —
//! is the one loop in [`Runner::run`] over `durability::step`;
//! the two experiment shapes differ only in what `Mode` answers. A plain
//! run and a durable run of the same configuration therefore produce
//! **bit-identical** trajectories.
//!
//! ## Determinism contract
//!
//! Telemetry is strictly observational: no instrumentation call consumes
//! simulation RNG or feeds back into round execution, so a run with a
//! [`nebula_telemetry::JsonlSink`] attached produces the same
//! [`RunOutcome`] as one with the disarmed default.

use crate::durability::{
    restore, step, verify_replay, Accum, ChaosControl, DurabilityConfig, DurableOptions, Engine, Mode,
    RunError,
};
use crate::experiment::{mean_accuracy, pick_eval_ids, ExperimentConfig};
use crate::strategy::AdaptStrategy;
use crate::world::SimWorld;
use nebula_core::stats::RoundStats;
use nebula_core::{RobustAggregator, SanitizePolicy, SnapshotStore};
use nebula_telemetry::{Span, Telemetry};
use nebula_tensor::NebulaRng;
use serde::Serialize;

/// Unified result of a [`Runner`] run, covering both experiment shapes.
#[derive(Clone, Debug, Serialize)]
pub struct RunOutcome {
    /// `strategy.name()`.
    pub strategy: String,
    /// `"target"` or `"continuous"`.
    pub mode: String,
    /// Target mode: whether the accuracy target was reached. Always true
    /// in continuous mode (it has no target).
    pub reached: bool,
    /// Completed rounds (target) or slots (continuous).
    pub rounds: u64,
    /// Last probed mean eval accuracy.
    pub final_accuracy: f32,
    /// Per-slot accuracies (continuous mode; empty in target mode).
    pub accuracy_per_slot: Vec<f32>,
    /// Mean on-device adaptation time per round/slot, ms.
    pub mean_adapt_time_ms: f64,
    /// The evaluation cohort the run probed (sampled by the Runner,
    /// stable across resume).
    pub eval_ids: Vec<usize>,
    /// Communication, fault accounting, and total adaptation time summed
    /// over the whole run.
    pub stats: RoundStats,
}

/// Builder-style driver for one experiment run.
///
/// See the [module docs](self) for the full shape. `world` and
/// `strategy` are borrowed mutably for the builder's lifetime and driven
/// by [`Runner::run`].
pub struct Runner<'a> {
    world: &'a mut SimWorld,
    strategy: &'a mut dyn AdaptStrategy,
    cfg: ExperimentConfig,
    mode: Option<Mode>,
    durability: Option<DurabilityConfig>,
    chaos: ChaosControl,
    resume: bool,
    telemetry: Telemetry,
    sanitize: Option<SanitizePolicy>,
    aggregator: Option<RobustAggregator>,
    transport: Option<Box<dyn nebula_core::Transport>>,
}

impl<'a> Runner<'a> {
    /// A runner over `world` driving `strategy`; defaults to
    /// [`ExperimentConfig::default`], no durability, no chaos, and
    /// disarmed telemetry. A mode ([`Runner::target`] or
    /// [`Runner::continuous`]) must be chosen before [`Runner::run`].
    pub fn new(world: &'a mut SimWorld, strategy: &'a mut dyn AdaptStrategy) -> Self {
        Runner {
            world,
            strategy,
            cfg: ExperimentConfig::default(),
            mode: None,
            durability: None,
            chaos: ChaosControl::default(),
            resume: false,
            telemetry: Telemetry::off(),
            sanitize: None,
            aggregator: None,
            transport: None,
        }
    }

    /// Seed and eval-cohort knobs (defaults: seed 1, 20 eval devices).
    pub fn config(mut self, cfg: ExperimentConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Run collaborative rounds until mean eval accuracy reaches
    /// `target` (probing every `probe_every` rounds), stopping at
    /// `max_rounds`.
    pub fn target(mut self, target: f32, max_rounds: usize, probe_every: usize) -> Self {
        self.mode = Some(Mode::Target { target, max_rounds, probe_every });
        self
    }

    /// Run `slots` drift slots: each slot the world drifts, the strategy
    /// adapts, and the eval cohort is probed.
    pub fn continuous(mut self, slots: usize) -> Self {
        self.mode = Some(Mode::Continuous { slots });
        self
    }

    /// Persist crash-safe state (snapshots + round journal) under
    /// `durability.dir`.
    pub fn durable(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Arm chaos-harness kill injection (requires [`Runner::durable`]).
    pub fn chaos(mut self, chaos: ChaosControl) -> Self {
        self.chaos = chaos;
        self
    }

    /// Attach telemetry. Accepts a [`Telemetry`] handle or any
    /// `Arc<impl Collector>` (e.g. `Arc<JsonlSink>`, `Arc<MemorySink>`).
    pub fn telemetry(mut self, telemetry: impl Into<Telemetry>) -> Self {
        self.telemetry = telemetry.into();
        self
    }

    /// Replace the sanitize gate the strategy's cloud applies before
    /// aggregation. Applied via [`AdaptStrategy::set_sanitize_policy`];
    /// strategies without a gate ignore it.
    pub fn sanitize(mut self, policy: SanitizePolicy) -> Self {
        self.sanitize = Some(policy);
        self
    }

    /// Select the module-wise combine rule used at aggregation. Applied
    /// via [`AdaptStrategy::set_aggregator`]; strategies without
    /// module-wise aggregation ignore it.
    pub fn aggregator(mut self, aggregator: RobustAggregator) -> Self {
        self.aggregator = Some(aggregator);
        self
    }

    /// Route the strategy's training dispatch through a
    /// [`nebula_core::Transport`] (e.g. [`nebula_core::Loopback`] or a
    /// serving-plane socket transport) instead of the in-process path.
    /// Applied via [`AdaptStrategy::set_transport`]; strategies without
    /// remote dispatch ignore it.
    pub fn transport(mut self, transport: Box<dyn nebula_core::Transport>) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Restore from the durability directory instead of starting fresh
    /// (requires [`Runner::durable`]); replays the journal tail with
    /// divergence verification, then continues live.
    pub fn resume(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Drives the configured run to completion.
    pub fn run(self) -> Result<RunOutcome, RunError> {
        let mode = self.mode.ok_or_else(|| {
            RunError::InvalidConfig("Runner needs a mode: call .target(..) or .continuous(..)".into())
        })?;
        if self.durability.is_none() {
            if self.resume {
                return Err(RunError::InvalidConfig(".resume() requires .durable(..)".into()));
            }
            if self.chaos.is_armed() {
                return Err(RunError::InvalidConfig("chaos injection requires .durable(..)".into()));
            }
        }
        mode.validate(self.world, &self.cfg)?;
        let Runner {
            world,
            strategy,
            cfg,
            durability,
            chaos,
            resume,
            telemetry,
            sanitize,
            aggregator,
            transport,
            ..
        } = self;
        if let Some(d) = &durability {
            d.validate()?;
        }
        let opts = durability.map(|d| DurableOptions { durability: d, chaos });

        strategy.set_telemetry(telemetry.clone());
        if let Some(policy) = sanitize {
            strategy.set_sanitize_policy(policy);
        }
        if let Some(agg) = aggregator {
            strategy.set_aggregator(agg);
        }
        if let Some(t) = transport {
            strategy.set_transport(t);
        }
        let pool0 = nebula_nn::workspace::pool_stats();
        let run_span = open_run(&telemetry, strategy, mode, &cfg);

        let (eval_ids, mut acc, mut eng) = if resume {
            let opts = opts.expect("resume without durability was rejected above");
            let (eng, mut acc, tail) = restore(strategy, world, &cfg, mode, opts, &telemetry)?;
            let eval_ids = eng.eval_ids.clone();
            note_eval_cohort(&telemetry, &eval_ids, acc.rounds);
            // Deterministically re-execute the journal tail, verifying
            // each step against its record.
            let replay_to = tail.keys().next_back().copied().unwrap_or(0);
            while !mode.done(&acc) && acc.rounds < replay_to {
                let rec = step(mode, strategy, world, &eval_ids, &mut acc);
                if let Some(journaled) = tail.get(&rec.index) {
                    verify_replay(journaled, &rec)?;
                }
            }
            (eval_ids, acc, Some(eng))
        } else {
            // Open the store before any simulation work so I/O problems
            // surface ahead of the (expensive) offline stage.
            let durable = match opts {
                Some(o) => Some((SnapshotStore::open(&o.durability.dir)?, o)),
                None => None,
            };
            let mut rng = NebulaRng::seed(cfg.seed ^ mode.rng_salt());
            let eval_ids = pick_eval_ids(world, cfg.eval_devices);
            note_eval_cohort(&telemetry, &eval_ids, 0);
            strategy.track(&eval_ids);
            {
                let _offline = telemetry.span("offline");
                strategy.offline(world, &mut rng);
            }
            let first_probe = mean_accuracy(strategy, world, &eval_ids);
            let acc = Accum::fresh(rng, first_probe);
            let eng = match durable {
                Some((store, opts)) => {
                    let eng =
                        Engine::create(store, opts, mode, cfg.seed, eval_ids.clone(), telemetry.clone())?;
                    // Guaranteed recovery point (and early
                    // UnsupportedStrategy signal).
                    eng.save_snapshot(&*strategy, world, &acc)?;
                    Some(eng)
                }
                None => None,
            };
            (eval_ids, acc, eng)
        };

        while !mode.done(&acc) {
            let rec = step(mode, strategy, world, &eval_ids, &mut acc);
            if let Some(eng) = &mut eng {
                eng.finish_round(&rec, &*strategy, world, &acc)?;
            }
        }
        Ok(finalize(strategy, &telemetry, run_span, mode, eval_ids, acc, pool0))
    }
}

/// Opens the run-level span and emits the `kind = "run"` header event.
fn open_run(telemetry: &Telemetry, strategy: &dyn AdaptStrategy, mode: Mode, cfg: &ExperimentConfig) -> Span {
    let mut span = telemetry.span("run");
    span.int("seed", cfg.seed);
    telemetry.emit("run", |e| {
        e.text.insert("strategy".into(), strategy.name().to_string());
        e.text.insert("mode".into(), mode.label().to_string());
        e.ints.insert("seed".into(), cfg.seed);
        e.ints.insert("eval_devices".into(), cfg.eval_devices as u64);
        match mode {
            Mode::Target { target, max_rounds, probe_every } => {
                e.num.insert("target".into(), target as f64);
                e.ints.insert("max_rounds".into(), max_rounds as u64);
                e.ints.insert("probe_every".into(), probe_every as u64);
            }
            Mode::Continuous { slots } => {
                e.ints.insert("slots".into(), slots as u64);
            }
        }
    });
    match mode {
        Mode::Target { target, .. } => span.num("target", target as f64),
        Mode::Continuous { slots } => span.int("slots", slots as u64),
    }
    span
}

/// Records the sampled evaluation cohort (once per run/resume).
fn note_eval_cohort(telemetry: &Telemetry, eval_ids: &[usize], resumed_rounds: u64) {
    telemetry.emit("eval_cohort", |e| {
        e.ints.insert("count".into(), eval_ids.len() as u64);
        e.ints.insert("resumed_rounds".into(), resumed_rounds);
        let ids: Vec<String> = eval_ids.iter().map(ToString::to_string).collect();
        e.text.insert("ids".into(), ids.join(","));
    });
}

fn finalize(
    strategy: &dyn AdaptStrategy,
    telemetry: &Telemetry,
    mut run_span: Span,
    mode: Mode,
    eval_ids: Vec<usize>,
    acc: Accum,
    pool0: (u64, u64),
) -> RunOutcome {
    if telemetry.enabled() {
        let (hits, misses) = nebula_nn::workspace::pool_stats();
        telemetry.counter_add("nn.pool_hits", hits.saturating_sub(pool0.0));
        telemetry.counter_add("nn.pool_misses", misses.saturating_sub(pool0.1));
        telemetry.gauge_set("run.final_accuracy", acc.acc as f64);
        run_span.int("rounds", acc.rounds);
        run_span.num("final_accuracy", acc.acc as f64);
    }
    drop(run_span);
    telemetry.finish();
    RunOutcome {
        strategy: strategy.name().to_string(),
        mode: mode.label().to_string(),
        reached: mode.reached(&acc),
        rounds: acc.rounds,
        final_accuracy: acc.acc,
        accuracy_per_slot: acc.acc_per_slot,
        // One probe per slot, so a continuous run's slots are its rounds.
        mean_adapt_time_ms: acc.time_sum / acc.rounds.max(1) as f64,
        eval_ids,
        stats: RoundStats { comm: acc.comm, adapt_time_ms: acc.time_sum, faults: acc.faults },
    }
}

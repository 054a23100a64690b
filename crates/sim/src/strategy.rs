//! The six adaptation systems evaluated in the paper, behind one trait.
//!
//! | Paper name | Type | Impl |
//! |---|---|---|
//! | No Adaptation (NA) | static cloud model | [`NoAdaptStrategy`] |
//! | Local Adaptation (LA) | on-device | [`LocalAdaptStrategy`] |
//! | AdaptiveNet (AN) | on-device, multi-branch | [`AdaptiveNetStrategy`] |
//! | FedAvg (FA) | edge-cloud collaborative | [`FedAvgStrategy`] |
//! | HeteroFL (HFL) | edge-cloud collaborative | [`HeteroFlStrategy`] |
//! | Nebula | edge-cloud collaborative | [`NebulaStrategy`] |
//!
//! A strategy is *tracked-device* oriented: the experiment harness names
//! the devices that will be evaluated (the paper evaluates per-device
//! accuracy on local test sets), and strategies keep persistent per-device
//! state for exactly those — LA's private models, AN's adapted branches,
//! Nebula's edge clients — across time slots.
//!
//! The three on-device baselines live in `on_device`, the exported
//! run-state types in `state`; this file is the trait, the shared
//! configuration and the two collaborative rounds.
//!
//! ## One round order
//!
//! [`DenseFlStrategy::single_round`] and [`NebulaStrategy::single_round`]
//! are written over the same frame (the private `round` module): a `Round`
//! prologue and epilogue, one `Device<T>` record per sampled device whose
//! link delivers, and the stages in one order —
//!
//! ```text
//! plan → [derive + frame] → gate → train → receive → aggregate
//! ```
//!
//! The dense round attaches a width ratio and hands train → receive →
//! aggregate to `nebula_baselines::dense_round`; Nebula attaches the
//! payload frame, its data and a forked stream, and runs each stage as a
//! function of its own. Both train through their `Transport`. Retry
//! billing stays per body: Nebula bills the frame bytes it measured, the
//! dense round bills analytic bytes and plans the corrupt-frame resend up
//! front, before any of its frames exists (DESIGN.md §10).
//!
//! The deadline/crash gate runs *before* training in both, and a device
//! it turns away is not trained. Nothing can observe the difference: fates
//! and predicted times precede training; every device's stream is forked
//! when its record is made, so no later stream moves; the download was
//! framed and billed before the gate; and the wire's upload-side encoder
//! state is touched only for devices whose upload is due. A `Transport`
//! therefore never receives a job whose device is late or crashed.

use crate::device::SimDevice;
use crate::faults::{
    apply_attack, attack_dense_mean, corrupt_frame, corrupt_module_update, forge_frame, poison_dense_mean,
    DeviceFate, DevicePlan, RoundReport,
};
use crate::latency::adaptation_latency_ms;
use crate::network::{transfer_time_ms, CommTracker};
use crate::retry::plan_corrupt_resend;
use crate::round::{gate, predicted_time_ms, Device, Exit, Round};
use crate::world::SimWorld;
use nebula_baselines::{dense_round, local_adapt, ratio_for_budget, DenseJobRunner, DenseModel};
use nebula_core::{
    discount_staleness, DispatchJob, EdgeClient, EdgeClientState, EdgeUpdate, JobResult, JobSpec, Loopback,
    ModularRunner, NebulaCloud, NebulaParams, RobustAggregator, RoundStats, SanitizePolicy, TrainParams,
    Transport, WireConfig, WireContext,
};
use nebula_data::Dataset;
use nebula_modular::ModularConfig;
use nebula_nn::Layer;
use nebula_telemetry::Telemetry;
use nebula_tensor::NebulaRng;
use nebula_wire::{CodecKind, DensePool};
use std::collections::HashMap;
use std::sync::Arc;

mod on_device;
mod state;

pub use on_device::{AdaptiveNetStrategy, LocalAdaptStrategy, NoAdaptStrategy};
use state::{bits_of, dense_export, dense_import, floats_of};
pub use state::{ClientState, DenseState, NebulaState, StrategyState};

/// What one collaborative round produced under the fault plan.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundOutcome {
    /// The round's communication and robustness accounting.
    /// `stats.adapt_time_ms` stays 0 here: per-participant latency is a
    /// step-level estimate, not a per-round quantity.
    pub stats: RoundStats,
    /// Predicted synchronous round wall-clock, ms (capped at the deadline
    /// when one is set).
    pub round_time_ms: f64,
}

/// Static resource footprint of the model a device runs (Figs 8–9).
#[derive(Clone, Copy, Debug, Default)]
pub struct Footprint {
    pub params: u64,
    pub train_mem_bytes: u64,
    pub forward_flops: u64,
}

/// Hyper-parameters shared by all strategies (paper §6.1).
#[derive(Clone, Debug)]
pub struct StrategyConfig {
    pub modular: ModularConfig,
    /// Devices sampled per collaborative round (paper: 25).
    pub devices_per_round: usize,
    /// Collaborative rounds per adaptation step.
    pub rounds_per_step: usize,
    /// Local epochs per collaborative round (paper: 3).
    pub local_epochs: usize,
    /// Local epochs for pure on-device fine-tuning (paper: 10).
    pub finetune_epochs: usize,
    pub batch_size: usize,
    pub local_lr: f32,
    /// Pre-training epochs on the cloud proxy data.
    pub pretrain_epochs: usize,
    /// Proxy dataset size.
    pub proxy_samples: usize,
    /// Wire transport configuration for all module/model traffic. The
    /// default (`Raw`) is bit-identical to the analytic exchange; the
    /// int8 codec shrinks the *measured* bytes.
    pub wire: WireConfig,
    /// Module-wise combine rule applied behind the sanitize gate (Nebula
    /// only). The default `WeightedMean` is the paper's importance-weighted
    /// aggregation, bit-identical to the unparameterized path; the robust
    /// rules trade clean-run fidelity for Byzantine tolerance.
    pub aggregator: RobustAggregator,
}

impl StrategyConfig {
    /// Defaults mirroring §6.1 with a laptop-scale round count.
    pub fn new(modular: ModularConfig) -> Self {
        Self {
            modular,
            devices_per_round: 25,
            rounds_per_step: 15,
            local_epochs: 3,
            finetune_epochs: 10,
            batch_size: 16,
            local_lr: 0.02,
            pretrain_epochs: 15,
            proxy_samples: 3000,
            wire: WireConfig::raw(),
            aggregator: RobustAggregator::WeightedMean,
        }
    }

    /// The local-training hyper-parameters a dispatched job carries.
    fn train_params(&self) -> TrainParams {
        TrainParams { epochs: self.local_epochs, batch_size: self.batch_size, lr: self.local_lr }
    }

    /// Per-device dense channel pool matching the configured wire codec
    /// (used by the flat-model baselines).
    fn dense_pool(&self) -> DensePool {
        DensePool::new(self.wire.codec, 0.0)
    }

    /// Dense model matching the full modular capacity: each block's hidden
    /// width equals the modular layer's total module capacity.
    pub fn dense_model(&self, seed: u64) -> DenseModel {
        let m = &self.modular;
        let shrunk = if m.residual_module { m.modules_per_layer - 1 } else { m.modules_per_layer };
        DenseModel::new(
            m.input_dim,
            m.width,
            m.num_layers,
            (shrunk * m.module_hidden).max(1),
            m.classes,
            seed,
        )
    }
}

/// Offline stage shared by every dense-model strategy: pre-train on the
/// cloud's proxy data.
fn pretrain_dense(model: &mut DenseModel, cfg: &StrategyConfig, world: &mut SimWorld, rng: &mut NebulaRng) {
    let proxy = world.proxy(cfg.proxy_samples);
    local_adapt(model, &proxy, cfg.pretrain_epochs, 32, 0.05, rng);
}

fn dense_footprint(model: &DenseModel, ratio: f32) -> Footprint {
    let params = model.active_params(ratio) as u64;
    Footprint {
        params,
        // params + grads + momentum (matching the modular cost model).
        train_mem_bytes: 3 * params * 4,
        forward_flops: params,
    }
}

/// One adaptation system under test.
pub trait AdaptStrategy {
    /// Display name (matches the paper's table headers).
    fn name(&self) -> &'static str;

    /// Offline stage: pre-train on cloud proxy data.
    fn offline(&mut self, world: &mut SimWorld, rng: &mut NebulaRng);

    /// Registers the devices that will be evaluated; strategies keep
    /// persistent state for exactly these.
    fn track(&mut self, ids: &[usize]);

    /// Attaches a telemetry handle for the run (spans, metrics, event
    /// traces). Instrumentation must never feed back into the simulation:
    /// a disarmed handle and an armed one see identical RNG streams and
    /// identical results. Strategies without seams ignore it.
    fn set_telemetry(&mut self, _telemetry: Telemetry) {}

    /// Replaces the sanitize gate the cloud applies before aggregation.
    /// Strategies without a server-side gate ignore it.
    fn set_sanitize_policy(&mut self, _policy: SanitizePolicy) {}

    /// Selects the module-wise combine rule used at aggregation.
    /// Strategies without module-wise aggregation ignore it.
    fn set_aggregator(&mut self, _aggregator: RobustAggregator) {}

    /// Routes the per-round local training through `transport`
    /// (loopback executors or socket workers). The collaborative
    /// strategies always train through one — a loopback over in-process
    /// executors until this replaces it — under any wire codec.
    /// Strategies without a dispatch seam ignore it.
    fn set_transport(&mut self, _transport: Box<dyn Transport>) {}

    /// One adaptation step (collaborative rounds and/or tracked-device
    /// local updates against the devices' *current* data).
    fn adaptation_step(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) -> RoundStats;

    /// Personalized accuracy of tracked device `id` on its local test set.
    fn device_accuracy(&mut self, world: &mut SimWorld, id: usize) -> f32;

    /// Resource footprint of the model device `id` runs.
    fn footprint(&self, world: &SimWorld, id: usize) -> Footprint;

    /// Exports the strategy's full mutable state for a run snapshot, or
    /// `None` when the strategy cannot support deterministic resume
    /// (per-device state that is not captured, or a stateful wire codec
    /// whose residual/ack history is not reconstructible). The default
    /// opts out; strategies that support durability override it.
    fn export_state(&self) -> Option<StrategyState> {
        None
    }

    /// Restores state produced by [`Self::export_state`] into a freshly
    /// constructed strategy (same config and seed). Errors on any
    /// mismatch; the strategy may be partially modified on failure, so
    /// callers must discard it on error.
    fn import_state(&mut self, _state: &StrategyState) -> Result<(), String> {
        Err(format!("{} does not support state import", self.name()))
    }
}

// ---------------------------------------------------------------------------
// FedAvg and HeteroFL
// ---------------------------------------------------------------------------

/// The dense collaborative baselines: federated rounds over the flat
/// [`DenseModel`] through [`dense_round`]. `HETERO` is all that tells
/// the two apart — HeteroFL trains each device at the widest nested
/// sub-model its budget allows, FedAvg trains the full model everywhere.
/// Name them through [`FedAvgStrategy`] / [`HeteroFlStrategy`].
pub struct DenseFlStrategy<const HETERO: bool> {
    cfg: StrategyConfig,
    server: DenseModel,
    /// Per-device wire channels carrying each device's active slice; all
    /// model traffic moves as real frames.
    pool: DensePool,
    /// Where the round's local training runs: in-process executors until
    /// [`AdaptStrategy::set_transport`] installs socket workers.
    transport: Box<dyn Transport>,
    telemetry: Telemetry,
}

/// Classic federated averaging of the full dense model.
pub type FedAvgStrategy = DenseFlStrategy<false>;

/// Resource-aware FL over nested width-scaled sub-models.
pub type HeteroFlStrategy = DenseFlStrategy<true>;

impl<const HETERO: bool> DenseFlStrategy<HETERO> {
    pub fn new(cfg: StrategyConfig, seed: u64) -> Self {
        let server = cfg.dense_model(seed);
        let pool = cfg.dense_pool();
        let transport = Box::new(Loopback::new(Arc::new(DenseJobRunner::default())));
        Self { cfg, server, pool, transport, telemetry: Telemetry::off() }
    }

    /// The width ratio `dev` trains and serves at.
    fn ratio_for(&self, dev: &SimDevice) -> f32 {
        if !HETERO {
            return 1.0;
        }
        let budget = (self.server.param_count() as f64 * dev.resources.budget_ratio as f64) as usize;
        ratio_for_budget(&self.server, budget)
    }

    /// One communication round (used by the rounds-to-target driver),
    /// under the world's fault plan and round policy, in the order of
    /// the module docs: plan → gate → train → receive → aggregate, the
    /// last three inside [`dense_round`] over the cohort the gate let
    /// through.
    ///
    /// Neither baseline has a per-update gate: a corrupted or Byzantine
    /// client poisons the averaged weights themselves
    /// ([`poison_dense_mean`], [`attack_dense_mean`]) — the contrast the
    /// fault sweep measures against Nebula's sanitize gate.
    pub fn single_round(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) -> RoundOutcome {
        let mut round = Round::begin(&self.telemetry, world, self.cfg.devices_per_round);
        // Read-only from here on: the cohort borrows its devices' data.
        let world = &*world;
        let mut devices = self.plan_devices(&mut round, world);
        let round_time_ms = gate(&round.policy, &mut devices, &mut round.report);

        let mut cohort: Vec<(u64, &Dataset, f32)> = Vec::with_capacity(devices.len());
        let (mut n_corrupt, mut n_malicious) = (0usize, 0usize);
        for d in &devices {
            match d.exit {
                Exit::Late => {}
                Exit::Crashed => self.bill_crashed_download(d.id, d.work, &mut round.comm),
                Exit::Reported => {
                    n_corrupt += d.fate.corruption.is_some() as usize;
                    n_malicious += d.fate.malicious.is_some() as usize;
                    cohort.push((d.id as u64, &world.devices[d.id].partition.data, d.work));
                }
            }
        }
        round.report.participated = cohort.len() as u64;

        if !cohort.is_empty() {
            let moved = dense_round(
                &mut self.server,
                &cohort,
                &mut self.pool,
                self.cfg.train_params(),
                rng,
                round.index as usize,
                self.transport.as_mut(),
            );
            // Jobs the transport lost (worker crash/deadline) degrade the
            // round like dropped links; loopback rounds never lose any.
            let lost = cohort.len() as u64 - moved.uploads;
            round.report.link_dropped += lost;
            round.report.participated -= lost;
            round.comm.merge(&moved);
            // With every job lost nothing was averaged, so there is no
            // mean for the bad clients to have poisoned.
            if moved.uploads > 0 {
                let n = cohort.len() as f32;
                self.poison_mean(&round, n_corrupt as f32 / n, n_malicious as f32 / n);
            }
        }
        round.finish(round_time_ms)
    }

    /// The plan stage: each sampled device's fate, its link's upload
    /// ladder — the corrupt-frame resend planned up front, everything
    /// billed at the analytic size — and its predicted wall-clock. Returns
    /// the devices whose link delivers, each carrying the width ratio it
    /// trains and exchanges its sub-model at.
    fn plan_devices(&self, round: &mut Round, world: &SimWorld) -> Vec<Device<f32>> {
        let mut devices = Vec::with_capacity(round.ids.len());
        for &id in &round.ids {
            let Some(DevicePlan { fate, upload: up }) =
                round.plan.plan_device(&round.policy, round.index, id)
            else {
                round.report.dropped += 1;
                continue;
            };
            let dev = &world.devices[id];
            let ratio = self.ratio_for(dev);
            let active = self.server.active_params(ratio) as u64;
            let payload_bytes = active * 4;
            for _ in 0..up.resends {
                round.comm.record_retry(payload_bytes);
            }
            round.report.retried += up.resends as u64;
            if !up.delivered {
                round.report.link_dropped += 1;
                continue;
            }
            let mut backoff = up.backoff_ms;
            let mut resends = up.resends as u64;
            // Transit corruption on the upload frame: CRC-rejected, one
            // clean resend. Without a retry budget the device is lost.
            if fate.frame_corrupt {
                round.report.corrupt_frames += 1;
                round.comm.record_retry(payload_bytes);
                let Some(wait) = plan_corrupt_resend(up.resends, &round.policy) else {
                    round.report.link_dropped += 1;
                    continue;
                };
                round.report.retried += 1;
                resends += 1;
                backoff += wait;
            }
            let time_ms = predicted_time_ms(&self.cfg, dev, &fate, active, payload_bytes, resends, backoff);
            devices.push(Device::new(id, fate, time_ms, ratio));
        }
        devices
    }

    /// A crashed device received its active slice as a real measured
    /// frame on its download channel before it died; [`dense_round`] only
    /// downloads to the cohort that reports.
    fn bill_crashed_download(&mut self, id: usize, ratio: f32, comm: &mut CommTracker) {
        let mask = self.server.mask_for_ratio(ratio);
        let slice: Vec<f32> =
            self.server.param_vector().iter().zip(&mask).filter_map(|(&v, &m)| m.then_some(v)).collect();
        let bytes = self
            .pool
            .send_down(id as u64, &slice, &mut Vec::new())
            .expect("pristine in-process frame must decode");
        comm.record_download(bytes);
    }

    /// What the round's corrupt and Byzantine fractions of the averaged
    /// cohort did to the mean.
    fn poison_mean(&mut self, round: &Round, corrupt_frac: f32, malicious_frac: f32) {
        if corrupt_frac == 0.0 && malicious_frac == 0.0 {
            return;
        }
        let plan = &round.plan;
        let mut params = self.server.param_vector();
        if corrupt_frac > 0.0 {
            poison_dense_mean(
                &mut params,
                plan.corruption,
                plan.explode_scale,
                corrupt_frac,
                plan.seed ^ (round.index << 20),
            );
        }
        if malicious_frac > 0.0 {
            attack_dense_mean(
                &mut params,
                &plan.adversary,
                malicious_frac,
                plan.adversary.attack_seed(round.index, usize::MAX),
            );
        }
        self.server.load_param_vector(&params);
    }
}

impl<const HETERO: bool> AdaptStrategy for DenseFlStrategy<HETERO> {
    fn name(&self) -> &'static str {
        if HETERO {
            "HFL"
        } else {
            "FA"
        }
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn set_transport(&mut self, transport: Box<dyn Transport>) {
        self.transport = transport;
    }

    fn offline(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) {
        pretrain_dense(&mut self.server, &self.cfg, world, rng);
    }

    fn track(&mut self, _ids: &[usize]) {}

    fn adaptation_step(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) -> RoundStats {
        let mut stats = RoundStats::default();
        for _ in 0..self.cfg.rounds_per_step {
            stats.merge(&self.single_round(world, rng).stats);
        }
        // Per-participant local-training + transfer latency, averaged over
        // an evenly-spaced device sample (a single device's hardware would
        // bias the estimate), each device at its own width level.
        let n = world.num_devices();
        let samples = 8.min(n);
        let mut time_ms = 0.0;
        for i in 0..samples {
            let dev = &world.devices[i * n / samples];
            let active = self.server.active_params(self.ratio_for(dev)) as u64;
            time_ms += adaptation_latency_ms(
                &dev.resources,
                active,
                dev.volume(),
                self.cfg.local_epochs,
                self.cfg.batch_size,
            ) + transfer_time_ms(2 * active * 4, dev.resources.bandwidth_bps);
        }
        RoundStats { adapt_time_ms: time_ms / samples.max(1) as f64, ..stats }
    }

    fn device_accuracy(&mut self, world: &mut SimWorld, id: usize) -> f32 {
        // The device serves the sub-model its resources allow; the server
        // itself always runs at full width.
        let dev = &world.devices[id];
        self.server.set_width_ratio(self.ratio_for(dev));
        let acc = nebula_data::evaluate_accuracy(&mut self.server, &dev.test, 64);
        self.server.set_width_ratio(1.0);
        acc
    }

    fn footprint(&self, world: &SimWorld, id: usize) -> Footprint {
        dense_footprint(&self.server, self.ratio_for(&world.devices[id]))
    }

    fn export_state(&self) -> Option<StrategyState> {
        // Int8 dense channels carry error-feedback history that a
        // snapshot does not capture; only Raw resumes bit-identically.
        (self.cfg.wire.codec == CodecKind::Raw).then(|| dense_export(self.name(), &self.server))
    }

    fn import_state(&mut self, state: &StrategyState) -> Result<(), String> {
        if self.cfg.wire.codec != CodecKind::Raw {
            return Err(format!("{}: state import requires the Raw wire codec", self.name()));
        }
        dense_import(self.name(), &mut self.server, state)
    }
}

/// The cloud's side of one module-update upload: `frame` crosses the
/// link (a `tamper` seed flips bytes in transit, or with `forge` also
/// recomputes the CRC), the cloud `accept`s it, and a rejected tampered
/// frame earns one clean resend when the policy has a `retry` budget.
/// Bills `comm`/`report` exactly as the transfer went; `None` means the
/// update never arrived.
///
/// A forgery only the MAC catches, a frame that fails to decode and an
/// update that does not fit the model ([`accept_upload`]) are refused
/// alike, before aggregation; a pristine frame refused would be refused
/// again, so it is not resent.
fn receive_upload(
    mut accept: impl FnMut(&[u8]) -> Option<EdgeUpdate>,
    forge: bool,
    frame: &[u8],
    tamper: Option<u64>,
    retry: bool,
    comm: &mut CommTracker,
    report: &mut RoundReport,
) -> Option<EdgeUpdate> {
    let bytes = frame.len() as u64;
    let first = match tamper {
        Some(seed) => {
            report.corrupt_frames += 1;
            let mut bad = frame.to_vec();
            if forge {
                forge_frame(&mut bad, seed);
            } else {
                corrupt_frame(&mut bad, seed);
            }
            accept(&bad)
        }
        None => accept(frame),
    };
    let update = match first {
        Some(update) => update,
        None => {
            comm.record_retry(bytes);
            if tamper.is_none() || !retry {
                return None;
            }
            report.retried += 1;
            accept(frame)?
        }
    };
    comm.record_upload(bytes);
    Some(update)
}

/// What the cloud accepts of an upload from `device`: an update the
/// frame decodes to under the device's key that also fits the model.
fn accept_upload(
    wire: &mut WireContext,
    cfg: &ModularConfig,
    device: u64,
    frame: &[u8],
) -> Option<EdgeUpdate> {
    wire.decode_update_from(device, frame).ok().filter(|update| update.validate(cfg).is_ok())
}

// ---------------------------------------------------------------------------
// Nebula
// ---------------------------------------------------------------------------

/// Which parts of the Nebula pipeline run (the Fig. 10 variants).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NebulaVariant {
    /// Full framework: collaborative rounds + per-device derivation +
    /// local fine-tuning.
    Full,
    /// "Nebula w/o local training": devices query the cloud for fresh
    /// sub-models each step but never fine-tune locally.
    NoLocalTraining,
    /// "Nebula w/o cloud": devices query the cloud once, then adapt only
    /// locally.
    NoCloud,
}

/// The full Nebula framework.
pub struct NebulaStrategy {
    cfg: StrategyConfig,
    cloud: NebulaCloud,
    variant: NebulaVariant,
    clients: HashMap<usize, EdgeClient>,
    tracked: Vec<usize>,
    enhanced: bool,
    /// Sanitize gate the cloud applies to every round's updates.
    sanitize: SanitizePolicy,
    /// Module-wise combine rule applied behind the gate.
    aggregator: RobustAggregator,
    /// Rollback guard: probe dataset + max tolerated accuracy
    /// drop per aggregation. Off by default.
    rollback: Option<(Dataset, f32)>,
    /// Module transport: codecs and per-device residual state.
    wire: WireContext,
    /// Reusable buffer the uploads are re-cut into.
    frame_buf: Vec<u8>,
    /// Where the round's local training runs: in-process executors until
    /// [`AdaptStrategy::set_transport`] installs socket workers.
    transport: Box<dyn Transport>,
    telemetry: Telemetry,
}

impl NebulaStrategy {
    pub fn new(cfg: StrategyConfig, seed: u64) -> Self {
        Self::with_variant(cfg, seed, NebulaVariant::Full)
    }

    pub fn with_variant(cfg: StrategyConfig, seed: u64, variant: NebulaVariant) -> Self {
        let mut params = NebulaParams::default();
        params.pretrain.epochs = cfg.pretrain_epochs;
        let cloud = NebulaCloud::new(cfg.modular.clone(), params, seed);
        let wire = WireContext::new(cfg.wire);
        let transport = Box::new(Loopback::new(Arc::new(ModularRunner::new(cfg.modular.clone(), cfg.wire))));
        let aggregator = cfg.aggregator;
        Self {
            cfg,
            cloud,
            variant,
            clients: HashMap::new(),
            tracked: Vec::new(),
            enhanced: false,
            sanitize: SanitizePolicy::default(),
            aggregator,
            rollback: None,
            wire,
            frame_buf: Vec::new(),
            transport,
            telemetry: Telemetry::off(),
        }
    }

    /// Read access to the cloud (diagnostics, sub-model studies).
    pub fn cloud(&self) -> &NebulaCloud {
        &self.cloud
    }

    /// Mutable cloud access.
    pub fn cloud_mut(&mut self) -> &mut NebulaCloud {
        &mut self.cloud
    }

    /// Arms the rollback guard: every aggregation is probed on
    /// `probe` and undone if accuracy regresses by more than `max_drop`.
    pub fn enable_rollback(&mut self, probe: Dataset, max_drop: f32) {
        self.rollback = Some((probe, max_drop));
    }

    /// One collaborative round under the world's fault plan and round
    /// policy, in the order of the module docs: plan → derive + frame →
    /// gate → train → receive → aggregate.
    ///
    /// Derivation and framing happen sequentially (they read the shared
    /// cloud model and the wire's per-device state); the expensive
    /// per-device local training runs through the transport — by default
    /// on the process's threads — with streams forked in the sequential
    /// stage, so results are identical for any thread budget. Fault
    /// fates come from the plan's dedicated RNG, so with
    /// [`crate::faults::FaultPlan::none`] this round is bit-for-bit
    /// identical to a fault-free build.
    pub fn single_round(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) -> RoundOutcome {
        let mut round = Round::begin(&self.telemetry, world, self.cfg.devices_per_round);
        // Read-only from here on: the jobs borrow their devices' data.
        let world = &*world;
        let mut devices = self.derive_and_frame(&mut round, world, rng);
        let round_time_ms = gate(&round.policy, &mut devices, &mut round.report);
        let devices = self.train(&round, devices);
        let (accepted, gate_loads) = self.receive(&mut round, devices);
        self.aggregate(&mut round, &accepted);
        for (layer, counts) in gate_loads.iter().enumerate() {
            round.telemetry.emit("gate_load", |e| {
                e.ints.insert("round".into(), round.index);
                e.ints.insert("layer".into(), layer as u64);
                for (m, &c) in counts.iter().enumerate() {
                    e.ints.insert(format!("b{m:03}"), c);
                }
            });
        }
        round.finish(round_time_ms)
    }

    /// Plan → derive + frame, sequentially in sampling order: fate and
    /// link plan, derivation, dispatch, download. Each download is encoded
    /// into a real frame, which the device's job ships to the executor
    /// that decodes it. The tracker records the measured frame length,
    /// while the latency model keeps the analytic planning size (so `Raw`
    /// rounds stay bit-identical). Returns a record per device whose
    /// download landed, its training stream already forked.
    fn derive_and_frame<'w>(
        &mut self,
        round: &mut Round,
        world: &'w SimWorld,
        rng: &mut NebulaRng,
    ) -> Vec<Device<Job<'w>>> {
        let mut devices = Vec::with_capacity(round.ids.len());
        for &id in &round.ids {
            let mut client_span = round.telemetry.span("client");
            client_span.int("device", id as u64);
            let Some(DevicePlan { fate, upload: up }) =
                round.plan.plan_device(&round.policy, round.index, id)
            else {
                round.report.dropped += 1;
                round.note_client(id, "dropped", None);
                continue;
            };
            let dl = self.download(world, id, up.delivered, &round.telemetry);
            if !up.delivered {
                // Retries exhausted: the device never joins the round (and
                // never receives a frame, so its wire state stays cold).
                for _ in 0..up.resends {
                    round.comm.record_retry(dl.plan_bytes);
                }
                round.report.retried += up.resends as u64;
                round.report.link_dropped += 1;
                round.note_client(id, "link_dropped", None);
                continue;
            }
            let wire_bytes = dl.frame.len() as u64;
            round.comm.record_download(wire_bytes);
            for _ in 0..up.resends {
                round.comm.record_retry(wire_bytes);
            }
            round.report.retried += up.resends as u64;
            let time_ms = predicted_time_ms(
                &self.cfg,
                &world.devices[id],
                &fate,
                dl.flops,
                dl.plan_bytes,
                up.resends as u64,
                up.backoff_ms,
            );
            // The fork happens here, so a device the gate later turns away
            // consumes the same RNG sequence as one that trains.
            let job = Job { frame: dl.frame, data: dl.local, rng: rng.fork(id as u64 ^ 0xEB) };
            devices.push(Device::new(id, fate, time_ms, job));
        }
        devices
    }

    /// Trains the devices whose upload is due through the transport and
    /// attaches what came back for each. A device the gate turned away is
    /// not trained and carries `None`.
    fn train(&mut self, round: &Round, devices: Vec<Device<Job<'_>>>) -> Vec<Device<Option<Arrived>>> {
        let mut train_span = round.telemetry.span("local_train");
        let train = self.cfg.train_params();
        // Only jobs whose upload is due cross the transport; their results
        // come back in dispatch order.
        let mut dispatch = Vec::with_capacity(devices.len());
        let waiting: Vec<Device<Option<()>>> = devices
            .into_iter()
            .map(|d| {
                let device = d.id as u64;
                d.advance(|Job { frame, data, rng }| {
                    dispatch.push(DispatchJob {
                        round: round.index as usize,
                        device,
                        spec: JobSpec::Modular { frame },
                        rng_state: rng.state(),
                        train,
                        data: data.clone(),
                    })
                })
            })
            .collect();
        train_span.int("clients", dispatch.len() as u64);
        let mut results = self.transport.round_trip(dispatch).into_iter();
        waiting
            .into_iter()
            .map(|d| {
                d.advance(|_| match results.next() {
                    Some(Ok(JobResult::Frame(frame))) => Some(frame),
                    // A dense result to a modular job is a protocol
                    // violation; the device degrades like a lost link.
                    _ => None,
                })
            })
            .collect()
    }

    /// The cloud's door, in sampling order. A device the gate turned away
    /// is only reported; one that trained uploads ([`Self::upload`]), and
    /// what the cloud decoded is discounted if stale and accepted. Returns
    /// the accepted updates and their per-layer module-activation counts
    /// (telemetry only; empty when disarmed).
    fn receive(
        &mut self,
        round: &mut Round,
        devices: Vec<Device<Option<Arrived>>>,
    ) -> (Vec<EdgeUpdate>, Vec<Vec<u64>>) {
        let mut gate_loads: Vec<Vec<u64>> = if round.telemetry.enabled() {
            vec![vec![0u64; self.cfg.modular.modules_per_layer]; self.cfg.modular.num_layers]
        } else {
            Vec::new()
        };
        let mut accepted: Vec<EdgeUpdate> = Vec::with_capacity(devices.len());
        for Device { id, fate, time_ms, exit, work } in devices {
            let Some(arrived) = work else {
                let outcome = if exit == Exit::Late { "deadline_dropped" } else { "crashed" };
                round.note_client(id, outcome, Some(time_ms));
                continue;
            };
            let upload_span = round.telemetry.span("wire_tx");
            let decoded = self.upload(round, id, &fate, arrived);
            drop(upload_span);
            let Some(mut update) = decoded else {
                round.report.link_dropped += 1;
                round.note_client(id, "link_dropped", Some(time_ms));
                continue;
            };
            note_gate_load(&round.telemetry, &update, &mut gate_loads);
            if fate.straggler {
                // Late but within the deadline: accepted at a discount
                // (server-side, after decode).
                discount_staleness(&mut update, round.policy.staleness_discount);
                round.report.stale += 1;
                round.note_client(id, "stale", Some(time_ms));
            } else {
                round.note_client(id, "accepted", Some(time_ms));
            }
            accepted.push(update);
        }
        round.report.participated = accepted.len() as u64;
        (accepted, gate_loads)
    }

    /// One device's upload as the cloud sees it: the device does to its
    /// own update what its fate says, the frame crosses the link, and the
    /// cloud decodes it ([`receive_upload`]). `None` when nothing usable
    /// arrived.
    fn upload(
        &mut self,
        round: &mut Round,
        id: usize,
        fate: &DeviceFate,
        arrived: Arrived,
    ) -> Option<EdgeUpdate> {
        let Some(result) = arrived else {
            // The transport failed to bring the job back (worker crash,
            // socket deadline): the device degrades through the same path
            // as a dropped link.
            round.telemetry.counter_add("serve.transport_lost", 1);
            return None;
        };
        let plan = &round.plan;
        let fault_seed = plan.seed ^ (round.index << 20) ^ id as u64;
        // What a faulty or hostile device does to its own update before
        // the frame is cut. App-level corruption garbles the tensors
        // inside a valid frame (the sanitize gate is the defence); a
        // Byzantine persona crafts a well-formed update to poison the
        // aggregate (colluders share one per-round attack seed; the robust
        // combine rule is the defence).
        let sabotage = |update: &mut EdgeUpdate| {
            if let Some(kind) = fate.corruption {
                corrupt_module_update(update, kind, plan.explode_scale, fault_seed);
            }
            if fate.malicious.is_some() {
                apply_attack(update, &plan.adversary, plan.adversary.attack_seed(round.index, id));
            }
        };
        let edit = (fate.corruption.is_some() || fate.malicious.is_some()).then_some(sabotage);
        let frame = self.wire.upload_frame(id as u64, &result, &self.cfg.modular, edit, &mut self.frame_buf);
        let tamper = fate.frame_corrupt.then_some(fault_seed);
        let retry = round.policy.max_retries > 0;
        let forge = self.wire.config().auth_key.is_some();
        let accept = |f: &[u8]| accept_upload(&mut self.wire, &self.cfg.modular, id as u64, f);
        receive_upload(accept, forge, frame, tamper, retry, &mut round.comm, &mut round.report)
    }

    /// Aggregates the accepted updates behind the sanitize gate,
    /// optionally under the rollback guard.
    fn aggregate(&mut self, round: &mut Round, accepted: &[EdgeUpdate]) {
        let telemetry = &round.telemetry;
        let mut agg_span = telemetry.span("aggregate");
        agg_span.int("accepted", accepted.len() as u64);
        let (sanitize, rule) = (self.sanitize, self.aggregator);
        let combine = |cloud: &mut NebulaCloud| cloud.aggregate_robust_with(accepted, &sanitize, rule);
        let s = match &self.rollback {
            Some((probe, max_drop)) => {
                let out =
                    self.cloud.guarded(|m| nebula_data::evaluate_accuracy(m, probe, 64), *max_drop, combine);
                round.report.rolled_back += out.rolled_back as u64;
                out.sanitize
            }
            None => combine(&mut self.cloud).sanitize,
        };
        round.report.rejected += s.rejected() as u64;
        if telemetry.enabled() {
            telemetry.counter_add("sanitize.rejected_non_finite", s.rejected_non_finite as u64);
            telemetry.counter_add("sanitize.rejected_outlier", s.rejected_outlier as u64);
            telemetry.counter_add("sanitize.outlier_check_skipped", s.outlier_check_skipped as u64);
            telemetry.emit("sanitize", |e| {
                e.ints.insert("round".into(), round.index);
                e.ints.insert("accepted".into(), s.accepted as u64);
                e.ints.insert("non_finite".into(), s.rejected_non_finite as u64);
                e.ints.insert("outlier".into(), s.rejected_outlier as u64);
                e.ints.insert("outlier_skipped".into(), s.outlier_check_skipped as u64);
            });
        }
    }

    /// The cloud → device half of an exchange: derive a sub-model for the
    /// device's current data and budget, package it, and — unless the
    /// link never `delivers` — cut the frame, with room for the executor's
    /// answer. The crossing is spanned as `wire_tx` under `trace`.
    fn download<'w>(
        &mut self,
        world: &'w SimWorld,
        id: usize,
        delivers: bool,
        trace: &Telemetry,
    ) -> Download<'w> {
        let dev = &world.devices[id];
        let local = &dev.partition.data;
        let outcome = self.cloud.derive_for_data(local, &dev.profile(self.cloud.cost_model()), None);
        let sent = self.cloud.dispatch(&outcome.spec);
        let flops = self.cloud.cost_model().submodel(&sent.spec).flops;
        let mut dl = Download { local, plan_bytes: sent.bytes(), flops, frame: Vec::new() };
        if delivers {
            let _span = trace.span("wire_tx");
            dl.frame = Vec::with_capacity(self.wire.result_len(&sent, &self.cfg.modular));
            self.wire.encode_payload(id as u64, &sent, &mut dl.frame);
        }
        dl
    }

    /// Refreshes (or creates) the tracked device's client from the cloud,
    /// over the wire. Returns the measured download frame bytes; the
    /// client installs what it decoded. Not part of any round, so not in
    /// a round's trace.
    fn refresh_client(&mut self, world: &SimWorld, id: usize) -> u64 {
        let dl = self.download(world, id, true, &Telemetry::off());
        let payload =
            self.wire.decode_payload(id as u64, &dl.frame).expect("pristine in-process frame must decode");
        match self.clients.get_mut(&id) {
            Some(client) => client.install(&payload),
            None => {
                self.clients.insert(id, EdgeClient::from_payload(self.cfg.modular.clone(), &payload));
            }
        }
        dl.frame.len() as u64
    }
}

/// What [`NebulaStrategy::download`] produced for one device.
struct Download<'w> {
    /// The device's local data the derivation scored.
    local: &'w Dataset,
    /// Analytic payload size — the planning input of the latency model
    /// (so `Raw` rounds stay bit-identical) and what an undelivered
    /// transfer's retries are billed at.
    plan_bytes: u64,
    /// The sub-model's training cost, the latency model's compute input.
    flops: u64,
    /// The payload frame (empty when none was cut); its length is the
    /// measured download size.
    frame: Vec<u8>,
}

/// What a Nebula round attaches to a device's record between its
/// download and its training.
struct Job<'w> {
    /// The encoded payload frame the device downloaded.
    frame: Vec<u8>,
    /// The device's local data.
    data: &'w Dataset,
    /// The device's training stream, forked in sampling order.
    rng: NebulaRng,
}

/// How one device's training came back: the update frame its executor
/// cut, or `None` when the transport lost the job.
type Arrived = Option<Vec<u8>>;

/// Gate-probability and module-load telemetry of what the cloud actually
/// decoded: which modules an accepted client activated (also counted into
/// the round's `gate_loads`), and how spread its per-layer gate
/// distribution is.
fn note_gate_load(telemetry: &Telemetry, update: &EdgeUpdate, gate_loads: &mut [Vec<u64>]) {
    if !telemetry.enabled() {
        return;
    }
    for (layer, modules) in update.spec.layers().iter().enumerate() {
        for &m in modules {
            telemetry.load_add(&format!("gate_load.layer{layer}"), m, 1);
            if let Some(c) = gate_loads.get_mut(layer).and_then(|counts| counts.get_mut(m)) {
                *c += 1;
            }
        }
        if let Some(row) = update.importance.get(layer) {
            telemetry.observe(&format!("gate_entropy.layer{layer}"), nebula_modular::normalized_entropy(row));
        }
    }
}

impl AdaptStrategy for NebulaStrategy {
    fn name(&self) -> &'static str {
        match self.variant {
            NebulaVariant::Full => "Nebula",
            NebulaVariant::NoLocalTraining => "Nebula w/o local",
            NebulaVariant::NoCloud => "Nebula w/o cloud",
        }
    }

    fn offline(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) {
        let proxy = world.proxy(self.cfg.proxy_samples);
        self.cloud.pretrain(&proxy, rng);
        let subtasks = world.subtask_datasets(200);
        self.cloud.enhance(&subtasks, rng);
        self.enhanced = true;
    }

    fn track(&mut self, ids: &[usize]) {
        self.tracked = ids.to_vec();
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        // The wire context shares the handle so frame/CRC telemetry lands
        // in the same trace as the round spans.
        self.wire.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    fn set_sanitize_policy(&mut self, policy: SanitizePolicy) {
        self.sanitize = policy;
    }

    fn set_aggregator(&mut self, aggregator: RobustAggregator) {
        self.aggregator = aggregator;
    }

    fn set_transport(&mut self, transport: Box<dyn Transport>) {
        self.transport = transport;
    }

    fn adaptation_step(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) -> RoundStats {
        let mut stats = RoundStats::default();

        // Edge-cloud collaborative rounds (skipped by the w/o-cloud variant).
        if self.variant != NebulaVariant::NoCloud {
            for _ in 0..self.cfg.rounds_per_step {
                stats.merge(&self.single_round(world, rng).stats);
            }
        }

        // Tracked devices: refresh sub-model from the cloud and/or adapt
        // locally, per variant. Refresh downloads are wire frames cut from
        // the post-aggregation model.
        let mut comm = stats.comm;
        let mut time_ms = 0.0;
        let local_training = self.variant != NebulaVariant::NoLocalTraining;
        // Sequential pass, in tracked order: everything that touches the
        // wire, the step RNG or the float sum. A refresh fixes the client's
        // spec, so its training cost is known before it trains.
        let mut streams = HashMap::with_capacity(self.tracked.len());
        for i in 0..self.tracked.len() {
            let id = self.tracked[i];
            let refresh = match self.variant {
                NebulaVariant::Full | NebulaVariant::NoLocalTraining => true,
                NebulaVariant::NoCloud => !self.clients.contains_key(&id),
            };
            if refresh {
                let bytes = self.refresh_client(world, id);
                comm.record_download(bytes);
                time_ms += transfer_time_ms(bytes, world.devices[id].resources.bandwidth_bps);
            }
            if local_training {
                streams.insert(id, rng.fork(id as u64 ^ 0xF00D));
                let spec_cost = self.cloud.cost_model().submodel(self.clients[&id].spec());
                let dev = &world.devices[id];
                time_ms += adaptation_latency_ms(
                    &dev.resources,
                    spec_cost.flops,
                    dev.volume(),
                    self.cfg.local_epochs,
                    self.cfg.batch_size,
                );
            }
        }
        // Then the trainings themselves, which share nothing.
        let cfg = &self.cfg;
        let jobs: Vec<(&mut EdgeClient, &Dataset, NebulaRng)> = self
            .clients
            .iter_mut()
            .filter_map(|(id, client)| {
                Some((client, &world.devices[*id].partition.data, streams.remove(id)?))
            })
            .collect();
        let cost_model = self.cloud.cost_model();
        let cost = |(client, local, _): &(&mut EdgeClient, &Dataset, _)| {
            cost_model.submodel(client.spec()).comm_bytes * local.len() as u64
        };
        nebula_tensor::par::map_longest_first(jobs, cost, |(client, local, mut drng)| {
            client.adapt(local, cfg.local_epochs, cfg.batch_size, cfg.local_lr, &mut drng);
        });

        RoundStats { comm, adapt_time_ms: time_ms / self.tracked.len().max(1) as f64, faults: stats.faults }
    }

    fn device_accuracy(&mut self, world: &mut SimWorld, id: usize) -> f32 {
        if !self.clients.contains_key(&id) {
            self.refresh_client(world, id);
        }
        let client = self.clients.get_mut(&id).expect("client exists");
        client.accuracy(&world.devices[id].test)
    }

    fn footprint(&self, world: &SimWorld, id: usize) -> Footprint {
        // Footprint of the sub-model the device would be assigned.
        let dev = &world.devices[id];
        let profile = dev.profile(self.cloud.cost_model());
        let spec = match self.clients.get(&id) {
            Some(c) => c.spec().clone(),
            None => {
                // No data-dependent importance available immutably; use a
                // uniform-importance derivation under the device budget.
                let cfg = &self.cfg.modular;
                let uniform =
                    vec![vec![1.0 / cfg.modules_per_layer as f32; cfg.modules_per_layer]; cfg.num_layers];
                self.cloud.derive_for_importance(&uniform, &profile, None).spec
            }
        };
        let c = self.cloud.cost_model().submodel(&spec);
        Footprint { params: c.params, train_mem_bytes: c.training_mem_bytes, forward_flops: c.flops }
    }

    fn export_state(&self) -> Option<StrategyState> {
        // Int8 wire traffic depends on residual history that a snapshot
        // does not capture; only Raw resumes
        // bit-identically (DESIGN.md §11).
        if self.cfg.wire.codec != CodecKind::Raw {
            return None;
        }
        let mut clients: Vec<ClientState> = self
            .clients
            .iter()
            .map(|(&id, client)| {
                let s = client.export_state();
                ClientState { id, param_bits: bits_of(&s.params), active: s.active, installed: s.installed }
            })
            .collect();
        clients.sort_by_key(|c| c.id);
        Some(StrategyState::Nebula(NebulaState {
            cloud_param_bits: bits_of(&self.cloud.model().param_vector()),
            enhanced: self.enhanced,
            tracked: self.tracked.clone(),
            clients,
        }))
    }

    fn import_state(&mut self, state: &StrategyState) -> Result<(), String> {
        if self.cfg.wire.codec != CodecKind::Raw {
            return Err("Nebula: state import requires the Raw wire codec".to_string());
        }
        let StrategyState::Nebula(n) = state else {
            return Err("Nebula: expected Nebula strategy state".to_string());
        };
        let want = self.cloud.model().param_count();
        if n.cloud_param_bits.len() != want {
            return Err(format!(
                "Nebula: state has {} cloud params, model wants {want}",
                n.cloud_param_bits.len()
            ));
        }
        self.cloud.model_mut().load_param_vector(&floats_of(&n.cloud_param_bits));
        self.enhanced = n.enhanced;
        self.tracked = n.tracked.clone();
        self.clients.clear();
        for c in &n.clients {
            let s = EdgeClientState {
                params: floats_of(&c.param_bits),
                active: c.active.clone(),
                installed: c.installed.clone(),
            };
            let client = EdgeClient::from_state(self.cfg.modular.clone(), &s)
                .map_err(|e| format!("Nebula: client {}: {e}", c.id))?;
            self.clients.insert(c.id, client);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;

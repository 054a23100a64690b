//! # nebula-sim
//!
//! The simulation platform the experiments run on — the stand-in for the
//! paper's Linux server + 20-device testbed (10 Jetson Nanos, 10
//! Raspberry Pi 4Bs) and its 500-device simulated population.
//!
//! * [`resources`] — per-device hardware sampled from AI-Benchmark-shaped
//!   distributions (RAM histogram, lognormal inference speed for mobile
//!   SoCs vs IoT boards, bandwidth), reproducing Fig. 2(a)/(b).
//! * [`contention`] — the co-running-process latency multiplier behind
//!   Fig. 1(b) (5.06× with 3 background processes).
//! * [`latency`] — training/inference latency estimates from flops,
//!   device speed and contention.
//! * [`network`] — byte/transfer-time accounting (Fig. 7).
//! * [`device`] — a simulated edge device: local data, held-out local
//!   test set, resources, and the resource profile handed to Nebula's
//!   derivation.
//! * [`faults`] — seeded fault injection (dropout, crashes, stragglers,
//!   flaky links, corrupted updates) and the robust-round policy/report
//!   types every strategy shares.
//! * [`world`] — the device population plus the drift process advancing
//!   it through time slots.
//! * [`shard`] — the sharded round engine for 10^5–10^6-device *virtual*
//!   populations: devices materialized on demand from per-id seeds,
//!   per-shard edge replicas folding streaming partials, simulated
//!   hierarchical round clock.
//! * [`strategy`] — the six adaptation systems behind Table 1 / Figs 7–11
//!   (NA, LA, AN, FA, HFL, Nebula) behind one trait.
//! * [`experiment`] — shared drivers: one adaptation step, rounds-to-
//!   target-accuracy, continuous multi-slot adaptation.
//! * [`durability`] — crash-safe run state: atomic run snapshots, a
//!   write-ahead round journal, deterministic resume, and chaos kill
//!   hooks.
//! * [`runner`] — the unified [`Runner`] builder every experiment shape
//!   (plain/durable × target/continuous) goes through, with optional
//!   [`nebula_telemetry`] tracing.

pub mod contention;
pub mod device;
pub mod durability;
pub mod experiment;
pub mod faults;
pub mod latency;
pub mod network;
pub mod resources;
mod round;
pub mod runner;
pub mod shard;
pub mod strategy;
pub mod world;

pub use contention::contention_multiplier;
pub use device::SimDevice;
pub use durability::{
    ChaosControl, DurabilityConfig, DurableOptions, KillSpot, RoundRecord, RunError, RunState,
};
pub use experiment::{AdaptationOutcome, ExperimentConfig};
pub use faults::{
    AdversaryPlan, AttackPersona, CorruptionKind, DeviceFate, FaultPlan, RoundPolicy, RoundReport,
};
pub use nebula_core::stats::RoundStats;
pub use network::CommTracker;
pub use resources::{DeviceClass, DeviceResources, ResourceSampler};
pub use runner::{RunOutcome, Runner};
pub use shard::{
    FoldPlan, LinkModel, RoundMode, ShardConfig, ShardRound, ShardSpec, ShardedWorld, VirtualDevice,
};
pub use strategy::{
    AdaptStrategy, AdaptiveNetStrategy, FedAvgStrategy, HeteroFlStrategy, LocalAdaptStrategy, NebulaStrategy,
    NebulaVariant, NoAdaptStrategy,
};
pub use world::SimWorld;

// What the round bodies hand to `nebula_tensor::par::map` jobs, by value
// or behind a shared reference. A `Cell`, `RefCell` or `Rc` slipping into
// any of these (or into any `Layer`) fails the build here rather than at a
// call site three crates away.
const _: fn() = || {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<Box<dyn nebula_nn::Layer>>();
    shared_across_threads::<nebula_modular::ModularModel>();
    shared_across_threads::<nebula_core::EdgeClient>();
    shared_across_threads::<nebula_core::NebulaCloud>();
    shared_across_threads::<nebula_baselines::DenseModel>();
    shared_across_threads::<ShardedWorld>();
    shared_across_threads::<nebula_telemetry::Telemetry>();
};

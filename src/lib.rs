//! # Nebula
//!
//! A from-scratch Rust reproduction of *"Nebula: An Edge-Cloud Collaborative
//! Learning Framework for Dynamic Edge Environments"* (ICPP 2024).
//!
//! This facade crate re-exports every workspace crate so downstream users
//! (and the root-level examples/integration tests) can depend on a single
//! `nebula` crate:
//!
//! * [`tensor`] — dense f32 tensors, the multi-backend GEMM engine and the
//!   fork-join `par::map` that trains a round's devices on separate threads.
//! * [`nn`] — layers, losses and optimisers with manual backprop.
//! * [`data`] — synthetic datasets, non-IID partitioners, distribution drift.
//! * [`modular`] — block-level model modularization and the unified module
//!   selector (the paper's §4.1–§4.2).
//! * [`opt`] — the constrained solvers behind Eq. 1 and Eq. 2.
//! * [`core`] — offline training + online edge-cloud adaptation (§4.3, §5).
//! * [`baselines`] — NoAdapt / LocalAdapt / AdaptiveNet / FedAvg / HeteroFL.
//! * [`sim`] — devices, resources, network accounting, time-slot loop, and
//!   the unified [`sim::Runner`] experiment driver.
//! * [`telemetry`] — counters/gauges/histograms, hierarchical spans and
//!   pluggable JSONL / in-memory / null trace sinks.
//!
//! See `examples/quickstart.rs` for the 60-second tour and `DESIGN.md` for
//! the full system inventory.
//!
//! ```
//! use nebula::core::{NebulaCloud, NebulaParams, EdgeClient, ResourceProfile};
//! use nebula::data::{Synthesizer, SynthSpec};
//! use nebula::modular::ModularConfig;
//! use nebula::tensor::NebulaRng;
//!
//! // A tiny task and cloud (toy-scale so this doctest stays fast).
//! let mut rng = NebulaRng::seed(7);
//! let synth = Synthesizer::new(SynthSpec::toy(), 42);
//! let mut params = NebulaParams::default();
//! params.pretrain.epochs = 2;
//! let mut cloud = NebulaCloud::new(ModularConfig::toy(16, 4), params, 1);
//! cloud.pretrain(&synth.sample(100, 0, &mut rng), &mut rng);
//!
//! // Derive a sub-model for a device, adapt it, send knowledge back.
//! let local = synth.sample_classes(40, &[0, 1], 0, &mut rng);
//! let out = cloud.derive_for_data(&local, &ResourceProfile::unconstrained(), Some(2));
//! let payload = cloud.dispatch(&out.spec);
//! let mut client = EdgeClient::from_payload(cloud.model().config().clone(), &payload);
//! client.adapt(&local, 1, 16, 0.02, &mut rng);
//! let touched = cloud.aggregate(&[client.make_update(&local)]);
//! assert!(touched > 0);
//! ```

pub use nebula_baselines as baselines;
pub use nebula_core as core;
pub use nebula_data as data;
pub use nebula_modular as modular;
pub use nebula_nn as nn;
pub use nebula_opt as opt;
pub use nebula_sim as sim;
pub use nebula_telemetry as telemetry;
pub use nebula_tensor as tensor;

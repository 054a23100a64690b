//! # nebula-modular
//!
//! The paper's primary contribution: **block-level model modularization**
//! (§4.1) and the **unified module selector** (§4.2).
//!
//! A large cloud model is decomposed into a stem, `L` *module layers* and a
//! classifier head. Each module layer holds `N(l)` substitutable modules —
//! shrunk bottleneck blocks plus an optional parameter-free residual
//! (bypass) module. A single selector network (an embedding MLP with one
//! gate head per module layer) looks at the raw input once and emits, for
//! every layer, a probability distribution over that layer's modules; the
//! top-k modules per sample are activated and their outputs combined by
//! softmax-renormalised weighted sum (sparsely-gated MoE).
//!
//! Two properties the rest of the framework builds on:
//! * a **sub-model** is just a per-layer subset of module indices
//!   ([`SubModelSpec`]) — deriving one is masking, not retraining;
//! * module parameters are addressable individually
//!   ([`ModularModel::module_param_vector`]), which is what makes the
//!   module-wise aggregation of §5.2 possible.
//!
//! Module layout and deviations from the paper are documented in
//! DESIGN.md; the notable one is that active-set weights are renormalised
//! over the selected modules (softmax over top-k logits, as in
//! Shazeer et al.'s sparely-gated MoE) so sub-models of different sizes
//! keep a stable output scale.

pub mod blockify;
pub mod config;
pub mod cost;
pub mod model;
pub mod module;
pub mod moe_layer;
pub mod selector;
pub mod stats;
pub mod submodel;

pub use blockify::{identify_blocks, Block, BlockPlan, LayerDesc};
pub use config::ModularConfig;
pub use cost::{ModuleCost, SubModelCost};
pub use model::ModularModel;
pub use module::Module;
pub use moe_layer::MoeLayer;
pub use selector::UnifiedSelector;
pub use stats::normalized_entropy;
pub use submodel::SubModelSpec;

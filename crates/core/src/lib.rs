//! # nebula-core
//!
//! The Nebula framework proper, built on the modularized model:
//!
//! **Offline stage — on-cloud model prototyping and training (§4):**
//! * [`offline`] — end-to-end pre-training (cross-entropy +
//!   load-balancing, noisy top-k) and the **module ability-enhancing
//!   training**: build the sub-task load matrix `H`, solve the Eq. 1
//!   assignment for the mask `M`, fine-tune with a KL pull toward
//!   `P = H ⊙ M`.
//!
//! **Online stage — edge-cloud collaborative adaptation (§5):**
//! * [`mod@derive`] — personalized sub-model derivation: mandatory
//!   most-important module per layer, then the Eq. 2 multi-dimensional
//!   knapsack under the device's resource profile.
//! * [`aggregate`] — module-wise weighted aggregation with normalised
//!   importance weights (§5.2).
//! * [`cloud`] / [`edge`] — the cloud orchestrator and the edge client,
//!   exchanging [`cloud::SubModelPayload`] and [`edge::EdgeUpdate`]
//!   messages whose byte sizes drive the communication accounting.
//! * [`profile`] — the resource-constraint triple (memory, compute,
//!   bandwidth) produced by a local profiler.
//! * [`presets`] — per-task modular configurations mirroring the paper's
//!   settings (1×16 modules for MLP, 4×16 for ResNet18, 3×32 for
//!   VGG16/ResNet34).

pub mod aggregate;
pub mod cloud;
pub mod derive;
pub mod edge;
pub mod journal;
pub mod net;
pub mod offline;
pub mod presets;
pub mod profile;
pub mod retry;
pub mod stats;
pub mod transport;

pub use aggregate::{
    aggregate_module_wise, aggregate_module_wise_robust, discount_staleness, sanitize_updates,
    update_is_finite, EdgePartial, ModuleUpdate, RobustAggregator, SanitizePolicy, SanitizeReport,
    StreamingAccumulator,
};
pub use cloud::{AggregateOutcome, GuardedOutcome, NebulaCloud, NebulaParams, SubModelPayload};
pub use derive::{derive_submodel, DeriveOutcome};
pub use edge::{EdgeClient, EdgeClientState, EdgeUpdate};
pub use journal::{
    read_journal, write_atomic, DurabilityError, JournalContents, JournalWriter, LoadedSnapshot,
    SnapshotStore,
};
pub use net::{
    DispatchJob, JobResult, JobRunner, JobSpec, Loopback, ModularRunner, TrainParams, Transport,
    TransportError,
};
pub use offline::{enhance_module_abilities, pretrain, subtask_load_matrices, PretrainConfig};
pub use presets::modular_config_for;
pub use profile::ResourceProfile;
pub use retry::backoff_ms;
pub use stats::{CommTracker, RoundReport, RoundStats};
pub use transport::{WireConfig, WireContext};

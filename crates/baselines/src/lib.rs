//! # nebula-baselines
//!
//! The comparison systems from the paper's evaluation (§6.1):
//!
//! * **No Adaptation (NA)** — devices run the pre-trained cloud model
//!   untouched ([`DenseModel`] + nothing).
//! * **Local Adaptation (LA)** — each device fine-tunes a private copy of
//!   the cloud model on its own data ([`mod@local_adapt`]).
//! * **AdaptiveNet-style (AN)** — a multi-branch supernet pre-trained on
//!   the cloud; a device picks the widest branch its resources allow and
//!   adapts it locally (`adaptivenet`).
//! * **FedAvg (FA)** — classic federated averaging of the full dense
//!   model.
//! * **HeteroFL (HFL)** — resource-aware federated learning over nested
//!   width-scaled sub-models ([`heterofl`] holds the width levels);
//!   overlapping coordinates are averaged.
//!
//! FA and HFL share one communication round, [`dense_round`] in
//! [`round`]: downloads and uploads as real `nebula-wire` frames on
//! per-device channels, local training dispatched through a
//! [`nebula_core::Transport`] to [`DenseJobRunner`] executors. FedAvg is
//! the round with every width ratio 1.0; only the combine step's float
//! order differs between the two rules.
//!
//! All five share [`DenseModel`], a residual-MLP with *width scaling*:
//! every block can run at a hidden-width ratio `r ∈ (0, 1]` using only the
//! first `⌈r·H⌉` hidden units — the nested-sub-model structure HeteroFL
//! and slimmable/branchy networks rely on.

mod adaptivenet;
pub mod dense;
pub mod heterofl;
pub mod local_adapt;
pub mod round;

pub use adaptivenet::{AdaptiveNet, BRANCH_RATIOS};
pub use dense::{DenseDims, DenseModel};
pub use heterofl::{ratio_for_budget, HETEROFL_RATIOS};
pub use local_adapt::local_adapt;
pub use round::{dense_round, DenseJobRunner};

//! # nebula-nn
//!
//! Feed-forward neural-network building blocks with **manual backprop**,
//! replacing PyTorch for the Nebula reproduction.
//!
//! The crate is organised around the [`Layer`] trait: each layer caches what
//! its backward pass needs during `forward`, and `backward` consumes the
//! cache, accumulates parameter gradients, and returns the input gradient.
//! Composite models (the paper's modular model among them) orchestrate
//! layers by hand — there is no tape/autograd, every gradient is written
//! out explicitly and checked against finite differences in the tests.
//!
//! Contents:
//! * [`layer`] — the `Layer` trait, parameter visitors, flat (de)serialisation
//!   of parameters (needed by federated aggregation).
//! * [`linear`] — fully-connected layer (`out×in` row-major weights).
//! * [`activation`] — ReLU / Tanh.
//! * [`sequential`] — ordered container of boxed layers.
//! * [`loss`] — softmax cross-entropy, KL-to-target (gate distillation), MSE.
//! * [`optim`] — SGD (+momentum).
//! * [`gradcheck`] — finite-difference gradient checking used by tests.
//! * [`workspace`] — reusable scratch-buffer pool backing the zero-alloc
//!   forward/backward hot paths of the conv and MoE layers.

pub mod activation;
pub mod conv;
pub mod gradcheck;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod optim;
pub mod sequential;
pub mod workspace;

pub use activation::{Activation, ActivationKind};
pub use conv::{Conv1d, MaxPool1d};
pub use layer::{Layer, Mode};
pub use linear::Linear;
pub use loss::{cross_entropy, mse};
pub use optim::{Optimizer, Sgd};
pub use sequential::Sequential;
pub use workspace::Workspace;

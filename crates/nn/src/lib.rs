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
//! * [`activation`] — ReLU / LeakyReLU / Tanh / Sigmoid.
//! * [`norm`] — BatchNorm1d with running statistics.
//! * [`dropout`] — inverted dropout.
//! * [`sequential`] — ordered container of boxed layers.
//! * [`loss`] — softmax cross-entropy, KL-to-target (gate distillation), MSE.
//! * [`optim`] — SGD (+momentum, +weight-decay) and Adam.
//! * [`gradcheck`] — finite-difference gradient checking used by tests.
//! * [`workspace`] — reusable scratch-buffer pool backing the zero-alloc
//!   forward/backward hot paths of the conv and MoE layers.

pub mod activation;
pub mod conv;
pub mod conv2d;
pub mod dropout;
pub mod gradcheck;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod norm;
pub mod optim;
pub mod schedule;
pub mod sequential;
pub mod workspace;

pub use activation::{Activation, ActivationKind};
pub use conv::{Conv1d, GlobalAvgPool1d, MaxPool1d};
pub use conv2d::{Conv2d, MaxPool2d};
pub use dropout::Dropout;
pub use layer::{Layer, Mode};
pub use linear::Linear;
pub use loss::{cross_entropy, kl_to_target, mse, CrossEntropyLoss};
pub use norm::BatchNorm1d;
pub use optim::{Adam, Optimizer, Sgd};
pub use schedule::LrSchedule;
pub use sequential::Sequential;
pub use workspace::Workspace;

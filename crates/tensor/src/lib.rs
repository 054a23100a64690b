//! # nebula-tensor
//!
//! Dense `f32` tensor substrate used by every other Nebula crate.
//!
//! The Nebula paper runs on PyTorch; this crate is the from-scratch
//! replacement: a row-major dense tensor with the operations a
//! feed-forward / residual-MLP training stack needs, plus the
//! workspace's one fork-join primitive ([`par::map`]) for running
//! independent devices' training on separate threads.
//!
//! Design notes:
//! * Row-major `Vec<f32>` storage, shape carried inline (one allocation
//!   per tensor).
//!   Most of the training stack works on rank-2 tensors (`batch × features`);
//!   rank-1 tensors are used for biases and per-class statistics.
//! * All shape errors panic with a descriptive message: inside a training
//!   loop a shape mismatch is a programming error, not a recoverable
//!   condition (this mirrors ndarray/PyTorch behaviour).
//! * Deterministic: every random initialiser takes an explicit RNG so a
//!   seeded experiment reproduces bit-for-bit. Threads split independent
//!   devices, never a kernel's reduction, so results do not depend on
//!   the thread budget.

pub mod backend;
pub mod gemm;
pub mod init;
pub mod linalg;
pub mod ops;
pub mod par;
pub mod reduce;
pub mod rng;
pub mod tensor;

pub use backend::{active_backend, resolved_backend, set_kernel_backend, BackendGuard, KernelBackend};
pub use init::Init;
pub use rng::NebulaRng;
pub use tensor::Tensor;

/// Absolute tolerance used by test helpers throughout the workspace.
pub const TEST_EPS: f32 = 1e-4;

/// Asserts two `f32` values are close; used across the workspace's tests.
pub fn assert_close(a: f32, b: f32, eps: f32) {
    assert!((a - b).abs() <= eps.max(eps * a.abs().max(b.abs())), "values differ: {a} vs {b} (eps {eps})");
}

/// Asserts two tensors have the same shape and element-wise close values.
pub fn assert_tensor_close(a: &Tensor, b: &Tensor, eps: f32) {
    assert_eq!(a.shape(), b.shape(), "shape mismatch: {:?} vs {:?}", a.shape(), b.shape());
    for (i, (&x, &y)) in a.data().iter().zip(b.data().iter()).enumerate() {
        assert!(
            (x - y).abs() <= eps.max(eps * x.abs().max(y.abs())),
            "element {i} differs: {x} vs {y} (eps {eps})"
        );
    }
}

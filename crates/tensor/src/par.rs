//! Nested-parallelism policy.
//!
//! The simulator parallelises at the *client* level: one task per sampled
//! device inside a collaborative round (the in-process arm of
//! `NebulaStrategy::single_round`, and `core::net::Loopback`, which every
//! dense-baseline round goes through). The tensor kernels also
//! parallelise, at the *row-block* level, once a product is large enough.
//! Letting both fire at once oversubscribes the pool: every client task
//! forks its own kernel tasks, and the fork/join overhead swamps the
//! 16×96×24-sized products a per-device training batch actually runs.
//!
//! The fix is a per-thread depth counter: a round section that is already
//! parallel over clients wraps each client's work in [`sequential`], and
//! the kernels consult [`in_sequential_scope`] before going parallel. The
//! counter is thread-local, so with a real work-stealing pool the guard
//! applies exactly to the worker executing the client closure — other
//! workers (e.g. the cloud thread aggregating between rounds) are
//! unaffected.
//!
//! Determinism is unaffected either way: the blocked GEMM produces
//! bit-identical results on the sequential and parallel paths (see
//! `gemm.rs`), so this policy is purely a scheduling decision.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    static SEQ_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Process-wide kernel-thread budget; `0` means "no explicit budget".
static MAX_KERNEL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Caps kernel-level parallelism process-wide; `0` clears the cap.
///
/// A budget of `1` pins every mat-mul to the sequential path regardless of
/// size — the co-location knob behind `nebula-node worker --threads 1`, so
/// workers sharing a host don't oversubscribe cores. Budgets above `1`
/// currently permit the parallel path and rely on the rayon pool's own
/// sizing (results are bit-identical at any thread count, so the budget is
/// purely a scheduling decision; see the module docs).
pub fn set_max_kernel_threads(n: usize) {
    MAX_KERNEL_THREADS.store(n, Ordering::SeqCst);
}

/// The budget set by [`set_max_kernel_threads`]; `0` when uncapped.
pub fn max_kernel_threads() -> usize {
    MAX_KERNEL_THREADS.load(Ordering::SeqCst)
}

/// True when a kernel may take the rayon path on this thread: not inside
/// a [`sequential`] scope and not pinned by a budget of `1`.
pub fn kernel_parallelism_allowed() -> bool {
    max_kernel_threads() != 1 && !in_sequential_scope()
}

/// RAII guard for a sequential-kernel scope; created by [`sequential`].
pub struct SequentialScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl SequentialScope {
    fn enter() -> Self {
        SEQ_DEPTH.with(|d| d.set(d.get() + 1));
        Self { _not_send: std::marker::PhantomData }
    }
}

impl Drop for SequentialScope {
    fn drop(&mut self) {
        SEQ_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Runs `f` with kernel-level parallelism disabled on this thread.
///
/// Use around per-client work inside a client-parallel round section so
/// inner mat-muls do not nest-fork. Scopes may nest; parallelism resumes
/// when the outermost scope ends.
pub fn sequential<R>(f: impl FnOnce() -> R) -> R {
    let _guard = SequentialScope::enter();
    f()
}

/// True while the current thread is inside a [`sequential`] scope.
pub fn in_sequential_scope() -> bool {
    SEQ_DEPTH.with(|d| d.get() > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_nests_and_unwinds() {
        assert!(!in_sequential_scope());
        sequential(|| {
            assert!(in_sequential_scope());
            sequential(|| assert!(in_sequential_scope()));
            assert!(in_sequential_scope());
        });
        assert!(!in_sequential_scope());
    }

    #[test]
    fn scope_returns_closure_value() {
        assert_eq!(sequential(|| 7), 7);
    }

    #[test]
    fn thread_budget_of_one_pins_sequential() {
        assert_eq!(max_kernel_threads(), 0);
        assert!(kernel_parallelism_allowed());
        set_max_kernel_threads(1);
        assert!(!kernel_parallelism_allowed());
        set_max_kernel_threads(4);
        assert!(kernel_parallelism_allowed());
        set_max_kernel_threads(0);
        assert!(kernel_parallelism_allowed());
    }
}

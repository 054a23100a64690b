//! Kernel-backend selection: which GEMM engine the public
//! [`crate::Tensor`] mat-mul API routes through.
//!
//! A boolean "blocked or not" switch stopped being enough once the
//! engine grew runtime-dispatched SIMD variants. The model is:
//!
//! * [`KernelBackend`] names an engine: the retained pre-blocking
//!   [`Reference`](KernelBackend::Reference) kernels, the scalar
//!   [`Blocked`](KernelBackend::Blocked) BLIS-style engine, the explicit
//!   [`Avx2`](KernelBackend::Avx2)/[`Avx512`](KernelBackend::Avx512)
//!   micro-kernels, or [`Auto`](KernelBackend::Auto) (default) which
//!   resolves to the best engine the CPU supports.
//! * One process-global *selection* ([`set_kernel_backend`]), read by
//!   every mat-mul. [`active_backend`] returns the selection verbatim;
//!   [`resolved_backend`] returns the engine that will actually run
//!   (`Auto` and unsupported requests resolve downward, never upward).
//! * [`BackendGuard`] is a scoped RAII override for tests and benches:
//!   it swaps the selection in and restores the previous one on drop.
//!   The underlying switch stays process-global (devices train on
//!   `par::map` threads, which a thread-local would not reach) — concurrent
//!   guards in one process race exactly like the old boolean did, so test
//!   binaries keep backend-sensitive assertions in a single `#[test]`.
//!
//! The initial selection can be forced from the environment:
//! `NEBULA_KERNEL_BACKEND=reference|blocked|avx2|avx512|auto`, read once
//! on first use. CI's kernel-matrix job runs the tensor/nn suites under
//! each forced backend this way.
//!
//! ## Determinism contract
//!
//! Every backend is run-to-run deterministic: for a fixed backend, shape
//! and inputs, results are bit-identical across calls, thread counts and
//! processes on the same machine. `Reference` and `Blocked` are
//! bit-identical to what they produced before this module existed.
//! The SIMD engines run small products on a direct (pack-free) path and
//! the rest on the packed one; the direct and packed paths of one engine
//! agree bit for bit, so the choice — made from the operand shapes alone
//! — is not part of the contract's inputs. *Across* backends results
//! still differ only by f32 rounding (the SIMD engines contract
//! `a*b + c` into fused multiply-adds; the blocked and reference engines
//! accumulate in the same ascending-`p` order without contraction) —
//! equivalence is pinned by the proptest suites in `crates/tensor/tests/`.

use crate::gemm::simd::{self, SimdLevel};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A GEMM engine the mat-mul entry points can route through.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Pre-blocking naive kernels ([`crate::linalg::reference`]) —
    /// baseline for equivalence tests and speedup measurements.
    Reference,
    /// Cache-blocked, register-tiled scalar engine (auto-vectorised by
    /// the compiler; no FMA contraction).
    Blocked,
    /// Explicit AVX2+FMA 6×16 tiles: packed under the blocked engine's
    /// macro-kernel, direct for small products.
    Avx2,
    /// Explicit AVX-512 8×32 tiles, packed or direct likewise.
    Avx512,
    /// Resolve to the fastest supported engine at first use (default).
    Auto,
}

impl KernelBackend {
    /// Stable lower-case name (used by env/CLI parsing and bench JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            KernelBackend::Reference => "reference",
            KernelBackend::Blocked => "blocked",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
            KernelBackend::Auto => "auto",
        }
    }

    fn from_u8(v: u8) -> KernelBackend {
        match v {
            0 => KernelBackend::Reference,
            1 => KernelBackend::Blocked,
            2 => KernelBackend::Avx2,
            3 => KernelBackend::Avx512,
            _ => KernelBackend::Auto,
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            KernelBackend::Reference => 0,
            KernelBackend::Blocked => 1,
            KernelBackend::Avx2 => 2,
            KernelBackend::Avx512 => 3,
            KernelBackend::Auto => 4,
        }
    }
}

impl std::str::FromStr for KernelBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "reference" => Ok(KernelBackend::Reference),
            "blocked" => Ok(KernelBackend::Blocked),
            "avx2" => Ok(KernelBackend::Avx2),
            "avx512" => Ok(KernelBackend::Avx512),
            "auto" => Ok(KernelBackend::Auto),
            other => {
                Err(format!("unknown kernel backend {other:?} (expected reference|blocked|avx2|avx512|auto)"))
            }
        }
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The process-global selection, lazily seeded from the environment.
fn global() -> &'static AtomicU8 {
    static CELL: OnceLock<AtomicU8> = OnceLock::new();
    CELL.get_or_init(|| {
        let initial = std::env::var("NEBULA_KERNEL_BACKEND")
            .ok()
            .and_then(|v| v.parse::<KernelBackend>().ok())
            .unwrap_or(KernelBackend::Auto);
        AtomicU8::new(initial.to_u8())
    })
}

/// Selects the engine every subsequent mat-mul routes through.
///
/// Prefer [`KernelBackend::scoped`] in tests and benches — it restores
/// the previous selection even on panic.
pub fn set_kernel_backend(backend: KernelBackend) {
    global().store(backend.to_u8(), Ordering::SeqCst);
}

/// The current selection, verbatim (may be `Auto`).
pub fn active_backend() -> KernelBackend {
    KernelBackend::from_u8(global().load(Ordering::SeqCst))
}

/// The engine the current selection actually runs: `Auto` resolves to the
/// best CPU-supported engine, and an explicit SIMD request on hardware
/// without that feature set degrades to the best *supported* engine
/// (never upward — `Blocked` stays `Blocked`). Detection happens once,
/// cached behind a `OnceLock` in [`crate::gemm::simd`].
pub fn resolved_backend() -> KernelBackend {
    resolve(active_backend())
}

/// Resolution rule, exposed for introspection/benches.
pub fn resolve(selection: KernelBackend) -> KernelBackend {
    let best = match simd::detect() {
        SimdLevel::Avx512 => KernelBackend::Avx512,
        SimdLevel::Avx2 => KernelBackend::Avx2,
        SimdLevel::None => KernelBackend::Blocked,
    };
    match selection {
        KernelBackend::Reference => KernelBackend::Reference,
        KernelBackend::Blocked => KernelBackend::Blocked,
        KernelBackend::Auto => best,
        KernelBackend::Avx2 => {
            if simd::detect() >= SimdLevel::Avx2 {
                KernelBackend::Avx2
            } else {
                KernelBackend::Blocked
            }
        }
        KernelBackend::Avx512 => {
            if simd::detect() >= SimdLevel::Avx512 {
                KernelBackend::Avx512
            } else if simd::detect() >= SimdLevel::Avx2 {
                KernelBackend::Avx2
            } else {
                KernelBackend::Blocked
            }
        }
    }
}

/// RAII override created by [`KernelBackend::scoped`]: restores the
/// previously selected backend when dropped.
#[must_use = "dropping the guard immediately restores the previous backend"]
pub struct BackendGuard {
    previous: KernelBackend,
}

impl KernelBackend {
    /// Selects `self` for the whole process and returns a guard that
    /// restores the previous selection on drop (including unwinds).
    pub fn scoped(self) -> BackendGuard {
        let previous = active_backend();
        set_kernel_backend(self);
        BackendGuard { previous }
    }
}

impl Drop for BackendGuard {
    fn drop(&mut self) {
        set_kernel_backend(self.previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One #[test]: the selection is process-global and the test binary
    // runs tests concurrently (same rule as the old boolean switch).
    #[test]
    fn selection_guard_and_resolution_rules() {
        let initial = active_backend();

        // Guard swaps and restores, and nests.
        {
            let _g = KernelBackend::Reference.scoped();
            assert_eq!(active_backend(), KernelBackend::Reference);
            assert_eq!(resolved_backend(), KernelBackend::Reference);
            {
                let _inner = KernelBackend::Blocked.scoped();
                assert_eq!(active_backend(), KernelBackend::Blocked);
            }
            assert_eq!(active_backend(), KernelBackend::Reference);
        }
        assert_eq!(active_backend(), initial);

        // Guard restores across a panic.
        let caught = std::panic::catch_unwind(|| {
            let _g = KernelBackend::Blocked.scoped();
            panic!("unwind through the guard");
        });
        assert!(caught.is_err());
        assert_eq!(active_backend(), initial);

        // Resolution never lands on an unsupported engine, and never
        // resolves upward past the explicit selection.
        for sel in
            [KernelBackend::Reference, KernelBackend::Blocked, KernelBackend::Avx2, KernelBackend::Avx512]
        {
            let r = resolve(sel);
            match sel {
                KernelBackend::Reference => assert_eq!(r, KernelBackend::Reference),
                KernelBackend::Blocked => assert_eq!(r, KernelBackend::Blocked),
                KernelBackend::Avx2 => {
                    assert!(matches!(r, KernelBackend::Avx2 | KernelBackend::Blocked))
                }
                KernelBackend::Avx512 => {
                    assert!(matches!(r, KernelBackend::Avx512 | KernelBackend::Avx2 | KernelBackend::Blocked))
                }
                KernelBackend::Auto => unreachable!(),
            }
        }
        assert_ne!(resolve(KernelBackend::Auto), KernelBackend::Reference);

        // Round-trips.
        for b in [
            KernelBackend::Reference,
            KernelBackend::Blocked,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
            KernelBackend::Auto,
        ] {
            assert_eq!(b.as_str().parse::<KernelBackend>().unwrap(), b);
            assert_eq!(KernelBackend::from_u8(b.to_u8()), b);
        }
        assert!("metal".parse::<KernelBackend>().is_err());
    }
}

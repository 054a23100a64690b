//! Device resource profiles (§5.1's "local resource profiler" output).
//!
//! ## Planning vs measured communication
//!
//! `comm_bytes` here is a **planning** input: the budget `derive` charges
//! candidate modules against at the analytic fp32 size, `4 × params` (an
//! upper bound on the encoded record payload of every codec: exact under
//! `Raw`, the cap of `DeltaFp32`'s raw fallback, and above `QuantInt8`'s
//! `params + 4` — `wire/tests/properties.rs` holds the encoders to it).
//! The bytes the simulator
//! *accounts* (`CommTracker::record_download` / `record_upload`) are the
//! **measured** lengths of the encoded `nebula-wire` frames actually
//! exchanged, which include framing overhead and, for `DeltaFp32`, are
//! usually far below plan. Planning stays analytic so derivation is
//! deterministic and cheap; accounting is measured so reported comm cost
//! is real.

use serde::{Deserialize, Serialize};

/// Resource constraints captured by a device's local profiler — the `L_j`
/// of Eq. 2. All three dimensions bound the *sub-model*, so the shared
/// parts (stem/head/selector) are charged against them before the module
/// knapsack runs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResourceProfile {
    /// Available memory for model training, in bytes.
    pub mem_bytes: u64,
    /// Compute budget per sample, in forward multiply-accumulates
    /// (a device-normalised latency budget).
    pub flops: u64,
    /// Communication budget per exchange, in bytes.
    pub comm_bytes: u64,
}

impl ResourceProfile {
    /// A profile large enough to never constrain derivation (used to get
    /// the accuracy-optimal sub-model).
    pub fn unconstrained() -> Self {
        Self { mem_bytes: u64::MAX / 4, flops: u64::MAX / 4, comm_bytes: u64::MAX / 4 }
    }

    /// Scales every dimension by `f` (resource-fluctuation modelling).
    pub fn scaled(self, f: f64) -> Self {
        assert!(f >= 0.0, "negative scale");
        let s = |v: u64| ((v as f64) * f) as u64;
        Self { mem_bytes: s(self.mem_bytes), flops: s(self.flops), comm_bytes: s(self.comm_bytes) }
    }

    /// Component-wise minimum of two profiles.
    pub fn min(self, other: ResourceProfile) -> Self {
        Self {
            mem_bytes: self.mem_bytes.min(other.mem_bytes),
            flops: self.flops.min(other.flops),
            comm_bytes: self.comm_bytes.min(other.comm_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_halves() {
        let p = ResourceProfile { mem_bytes: 100, flops: 50, comm_bytes: 10 };
        let h = p.scaled(0.5);
        assert_eq!(h, ResourceProfile { mem_bytes: 50, flops: 25, comm_bytes: 5 });
    }

    #[test]
    fn min_is_componentwise() {
        let a = ResourceProfile { mem_bytes: 100, flops: 5, comm_bytes: 10 };
        let b = ResourceProfile { mem_bytes: 50, flops: 50, comm_bytes: 50 };
        assert_eq!(a.min(b), ResourceProfile { mem_bytes: 50, flops: 5, comm_bytes: 10 });
    }

    #[test]
    fn unconstrained_survives_scaling() {
        let p = ResourceProfile::unconstrained().scaled(2.0);
        assert!(p.mem_bytes > u64::MAX / 8);
    }
}

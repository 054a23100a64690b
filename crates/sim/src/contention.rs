//! On-device resource contention (the paper's *inner runtime dynamic*).
//!
//! Fig. 1(b) measures inference latency with 1–4 processes co-running on a
//! Jetson Nano and reports "up to 5.06× inference latency with 3
//! background processes". We model the multiplier as a power law pinned to
//! the paper's two anchors — 1× with no background load, 5.06× with 3
//! background processes:
//!
//! ```text
//! m(b) = (1 + b)^γ,   γ = ln(5.06)/ln(4) ≈ 1.169
//! ```

/// The paper's measured slowdown at 3 background processes.
const SLOWDOWN_AT_3_PROCS: f64 = 5.06;

/// Latency multiplier with `background_procs` co-running processes.
pub fn contention_multiplier(background_procs: usize) -> f64 {
    let gamma = SLOWDOWN_AT_3_PROCS.ln() / 4.0f64.ln();
    ((1 + background_procs) as f64).powf(gamma)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_contention_is_identity() {
        assert!((contention_multiplier(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_paper_anchor_at_three_procs() {
        assert!((contention_multiplier(3) - SLOWDOWN_AT_3_PROCS).abs() < 1e-9);
    }

    #[test]
    fn strictly_increasing() {
        for b in 0..8 {
            assert!(contention_multiplier(b + 1) > contention_multiplier(b));
        }
    }

    #[test]
    fn interpolates_sensibly_between_anchors() {
        let m1 = contention_multiplier(1);
        let m2 = contention_multiplier(2);
        assert!(m1 > 1.5 && m1 < 3.0, "m(1) = {m1}");
        assert!(m2 > m1 && m2 < 5.06, "m(2) = {m2}");
    }
}

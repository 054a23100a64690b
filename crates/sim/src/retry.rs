//! Retry and deadline arithmetic of a collaborative round under its
//! [`RoundPolicy`].
//!
//! The helpers are *pure accounting*: they decide how many re-sends are
//! billed and how much simulated backoff wait accrues. The backoff sum
//! is accumulated lowest attempt first (f64 addition order matters).

use crate::faults::RoundPolicy;
use nebula_core::backoff_ms;

/// What one device's upload costs under a retry policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct UploadPlan {
    /// Whether the transfer lands at all. False means the retry budget
    /// was exhausted: the device never joins the round.
    pub delivered: bool,
    /// Billed re-sends (each one frame's worth of retry bytes).
    pub resends: u32,
    /// Total backoff wait accrued across the re-sends, ms. Zero when the
    /// transfer is abandoned (the sender stops waiting once the budget
    /// is spent).
    pub backoff_ms: f64,
}

/// Plans a transfer that needs `upload_attempts` tries on a link that is
/// flaky when `flaky_link` is set.
///
/// A flaky link whose attempt count exceeds `1 + max_retries` is
/// abandoned after billing `max_retries` re-sends and no backoff;
/// otherwise every extra attempt is billed one re-send plus
/// `backoff_ms(base, attempt)` wait, summed lowest attempt first.
pub(crate) fn plan_upload(upload_attempts: u32, flaky_link: bool, policy: &RoundPolicy) -> UploadPlan {
    let extra = upload_attempts.saturating_sub(1);
    if flaky_link && extra > policy.max_retries {
        return UploadPlan { delivered: false, resends: policy.max_retries, backoff_ms: 0.0 };
    }
    let mut backoff = 0.0;
    for attempt in 0..extra {
        backoff += backoff_ms(policy.retry_backoff_base_ms, attempt);
    }
    UploadPlan { delivered: true, resends: extra, backoff_ms: backoff }
}

/// Plans the clean resend after a CRC/MAC-rejected transit-corrupt
/// frame. `prior_resends` is how many re-sends the transfer already
/// billed (the resend's backoff slot continues the same exponential
/// schedule). Returns the added backoff, or `None` when the policy has
/// no retry budget — the device is lost.
pub(crate) fn plan_corrupt_resend(prior_resends: u32, policy: &RoundPolicy) -> Option<f64> {
    (policy.max_retries > 0).then(|| backoff_ms(policy.retry_backoff_base_ms, prior_resends))
}

/// Deadline for a round: the policy's `deadline_factor` × the median
/// predicted participant time. `None` when no factor is set or nobody
/// started the round (the seed behaviour: wait forever).
pub(crate) fn round_deadline_ms(policy: &RoundPolicy, times: &[f64]) -> Option<f64> {
    let f = policy.deadline_factor?;
    if times.is_empty() {
        return None;
    }
    let mut sorted = times.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite participant times"));
    Some(f * sorted[sorted.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICY: RoundPolicy = RoundPolicy {
        deadline_factor: None,
        max_retries: 2,
        staleness_discount: 0.5,
        retry_backoff_base_ms: 50.0,
    };

    #[test]
    fn clean_link_plans_no_retries() {
        let p = plan_upload(1, false, &POLICY);
        assert_eq!(p, UploadPlan { delivered: true, resends: 0, backoff_ms: 0.0 });
    }

    #[test]
    fn flaky_link_within_budget_accrues_exponential_backoff() {
        let p = plan_upload(3, true, &POLICY);
        assert!(p.delivered);
        assert_eq!(p.resends, 2);
        // attempts 0 and 1: 50 + 100.
        assert_eq!(p.backoff_ms, 150.0);
    }

    #[test]
    fn flaky_link_past_budget_is_abandoned() {
        let p = plan_upload(4, true, &POLICY);
        assert_eq!(p, UploadPlan { delivered: false, resends: 2, backoff_ms: 0.0 });
    }

    #[test]
    fn non_flaky_attempts_never_trigger_abandonment() {
        // The exhaustion drop is a flaky-link behaviour; a non-flaky
        // transfer bills every extra attempt (legacy semantics preserved
        // bit-for-bit).
        let p = plan_upload(5, false, &POLICY);
        assert!(p.delivered);
        assert_eq!(p.resends, 4);
        assert_eq!(p.backoff_ms, 50.0 + 100.0 + 200.0 + 400.0);
    }

    #[test]
    fn corrupt_resend_continues_the_backoff_schedule() {
        assert_eq!(plan_corrupt_resend(0, &POLICY), Some(50.0));
        assert_eq!(plan_corrupt_resend(2, &POLICY), Some(200.0));
        assert_eq!(plan_corrupt_resend(0, &RoundPolicy { max_retries: 0, ..POLICY }), None);
    }

    #[test]
    fn deadline_is_factor_times_median() {
        let factor = |f| RoundPolicy { deadline_factor: f, ..POLICY };
        assert_eq!(round_deadline_ms(&factor(None), &[1.0, 2.0]), None);
        assert_eq!(round_deadline_ms(&factor(Some(2.0)), &[]), None);
        assert_eq!(round_deadline_ms(&factor(Some(2.0)), &[3.0]), Some(6.0));
        // Median of an even count picks the upper middle (index len/2).
        assert_eq!(round_deadline_ms(&factor(Some(1.5)), &[4.0, 1.0, 3.0, 2.0]), Some(4.5));
    }
}

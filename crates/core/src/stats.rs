//! Shared per-round accounting: communication, fault outcomes, and the
//! consolidated [`RoundStats`] every driver and sink consumes.
//!
//! These types used to live in `nebula-sim` (`network::CommTracker`,
//! `faults::RoundReport`) and were duplicated field-by-field across the
//! sim's step report, `RoundOutcome` and the bench bins. They are hoisted
//! here — field names unchanged, so serialized `RunState` / `RoundRecord`
//! payloads from earlier versions still decode — and re-exported from the
//! sim crate for compatibility.

use serde::{Deserialize, Serialize};

/// Byte-level communication tracker for one strategy run.
///
/// All counters use saturating arithmetic: a long-running (or
/// fault-amplified) simulation clamps at `u64::MAX` instead of
/// panicking in debug builds or silently wrapping in release.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommTracker {
    /// Cloud → edge bytes.
    pub down_bytes: u64,
    /// Edge → cloud bytes.
    pub up_bytes: u64,
    /// Number of cloud→edge payloads.
    pub downloads: u64,
    /// Number of edge→cloud updates.
    pub uploads: u64,
    /// Completed communication rounds.
    pub rounds: u64,
    /// Extra transfer attempts over flaky links.
    pub retries: u64,
    /// Bytes re-sent by those retries (wasted traffic).
    pub retry_bytes: u64,
}

impl CommTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a cloud → edge payload.
    pub fn record_download(&mut self, bytes: u64) {
        self.down_bytes = self.down_bytes.saturating_add(bytes);
        self.downloads = self.downloads.saturating_add(1);
    }

    /// Records an edge → cloud update.
    pub fn record_upload(&mut self, bytes: u64) {
        self.up_bytes = self.up_bytes.saturating_add(bytes);
        self.uploads = self.uploads.saturating_add(1);
    }

    /// Records one failed transfer attempt that re-sent `bytes`.
    pub fn record_retry(&mut self, bytes: u64) {
        self.retry_bytes = self.retry_bytes.saturating_add(bytes);
        self.retries = self.retries.saturating_add(1);
    }

    /// Marks the end of a communication round.
    pub fn end_round(&mut self) {
        self.rounds = self.rounds.saturating_add(1);
    }

    /// Total bytes on the wire, including retry re-sends.
    pub fn total_bytes(&self) -> u64 {
        self.down_bytes.saturating_add(self.up_bytes).saturating_add(self.retry_bytes)
    }

    /// Total in mebibytes (Fig. 7's unit for HAR) .
    pub fn total_mib(&self) -> f64 {
        self.total_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// Merges another tracker into this one.
    pub fn merge(&mut self, other: &CommTracker) {
        self.down_bytes = self.down_bytes.saturating_add(other.down_bytes);
        self.up_bytes = self.up_bytes.saturating_add(other.up_bytes);
        self.downloads = self.downloads.saturating_add(other.downloads);
        self.uploads = self.uploads.saturating_add(other.uploads);
        self.rounds = self.rounds.saturating_add(other.rounds);
        self.retries = self.retries.saturating_add(other.retries);
        self.retry_bytes = self.retry_bytes.saturating_add(other.retry_bytes);
    }
}

/// Per-round robustness accounting, summed over a step/run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundReport {
    /// Devices the server sampled.
    pub sampled: u64,
    /// Updates that arrived (before the sanitize gate).
    pub participated: u64,
    /// Never started (dropout).
    pub dropped: u64,
    /// Trained but crashed before uploading.
    pub crashed: u64,
    /// Dropped by the round deadline.
    pub deadline_dropped: u64,
    /// Dropped after exhausting link retries.
    pub link_dropped: u64,
    /// Updates rejected by the sanitize gate.
    pub rejected: u64,
    /// Extra transfer attempts (retries) over flaky links.
    pub retried: u64,
    /// Late arrivals accepted with discounted importance.
    pub stale: u64,
    /// Aggregations undone by the rollback guard.
    pub rolled_back: u64,
    /// Frames rejected by the wire CRC check (transit corruption).
    pub corrupt_frames: u64,
}

impl RoundReport {
    /// Sums another report into this one (saturating).
    pub fn merge(&mut self, other: &RoundReport) {
        self.sampled = self.sampled.saturating_add(other.sampled);
        self.participated = self.participated.saturating_add(other.participated);
        self.dropped = self.dropped.saturating_add(other.dropped);
        self.crashed = self.crashed.saturating_add(other.crashed);
        self.deadline_dropped = self.deadline_dropped.saturating_add(other.deadline_dropped);
        self.link_dropped = self.link_dropped.saturating_add(other.link_dropped);
        self.rejected = self.rejected.saturating_add(other.rejected);
        self.retried = self.retried.saturating_add(other.retried);
        self.stale = self.stale.saturating_add(other.stale);
        self.rolled_back = self.rolled_back.saturating_add(other.rolled_back);
        self.corrupt_frames = self.corrupt_frames.saturating_add(other.corrupt_frames);
    }

    /// All devices that missed the round, whatever the cause.
    pub fn lost(&self) -> u64 {
        self.dropped + self.crashed + self.deadline_dropped + self.link_dropped
    }
}

/// Everything one adaptation step / collaborative round cost — the single
/// shape bench bins, telemetry sinks and the [`RoundStats::merge`]-based
/// accumulators consume.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Communication during the step (including retry re-sends).
    pub comm: CommTracker,
    /// Mean wall-clock of the on-device part per tracked device, ms.
    pub adapt_time_ms: f64,
    /// Robustness accounting summed over the step's rounds.
    pub faults: RoundReport,
}

impl RoundStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds another step's stats into this accumulator: counters merge,
    /// adaptation times add (callers average where a mean is reported).
    pub fn merge(&mut self, other: &RoundStats) {
        self.comm.merge(&other.comm);
        self.faults.merge(&other.faults);
        self.adapt_time_ms += other.adapt_time_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut t = CommTracker::new();
        t.record_download(100);
        t.record_upload(40);
        t.record_upload(60);
        t.end_round();
        assert_eq!(t.total_bytes(), 200);
        assert_eq!(t.downloads, 1);
        assert_eq!(t.uploads, 2);
        assert_eq!(t.rounds, 1);
    }

    #[test]
    fn unit_conversions() {
        let t = CommTracker { down_bytes: 1024 * 1024, up_bytes: 0, ..Default::default() };
        assert!((t.total_mib() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = CommTracker {
            down_bytes: 1,
            up_bytes: 2,
            downloads: 1,
            uploads: 1,
            rounds: 1,
            ..Default::default()
        };
        let b = CommTracker {
            down_bytes: 10,
            up_bytes: 20,
            downloads: 2,
            uploads: 3,
            rounds: 4,
            retries: 2,
            retry_bytes: 7,
        };
        a.merge(&b);
        assert_eq!(a.down_bytes, 11);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.retries, 2);
        assert_eq!(a.retry_bytes, 7);
    }

    #[test]
    fn retries_count_as_wasted_traffic() {
        let mut t = CommTracker::new();
        t.record_download(100);
        t.record_retry(100);
        t.record_retry(100);
        assert_eq!(t.retries, 2);
        assert_eq!(t.retry_bytes, 200);
        assert_eq!(t.total_bytes(), 300);
        // Retries are not successful exchanges.
        assert_eq!(t.downloads, 1);
        assert_eq!(t.uploads, 0);
    }

    #[test]
    fn counters_saturate_instead_of_overflowing() {
        let mut t = CommTracker { down_bytes: u64::MAX - 1, downloads: u64::MAX, ..Default::default() };
        t.record_download(1000);
        assert_eq!(t.down_bytes, u64::MAX);
        assert_eq!(t.downloads, u64::MAX);
        let big = CommTracker { up_bytes: u64::MAX, retry_bytes: u64::MAX, ..Default::default() };
        t.merge(&big);
        assert_eq!(t.up_bytes, u64::MAX);
        assert_eq!(t.total_bytes(), u64::MAX);
        t.end_round();
        t.record_retry(u64::MAX);
        t.record_upload(u64::MAX);
        assert_eq!(t.retry_bytes, u64::MAX);
        assert_eq!(t.up_bytes, u64::MAX);
    }

    #[test]
    fn report_merge_and_lost() {
        let mut a =
            RoundReport { sampled: 10, participated: 7, dropped: 2, crashed: 1, ..Default::default() };
        let b =
            RoundReport { sampled: 10, participated: 9, link_dropped: 1, retried: 3, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.sampled, 20);
        assert_eq!(a.participated, 16);
        assert_eq!(a.retried, 3);
        assert_eq!(a.lost(), 4);
    }

    #[test]
    fn round_stats_merge_folds_all_counters() {
        let mut acc = RoundStats::new();
        let step = RoundStats {
            comm: CommTracker { down_bytes: 100, downloads: 1, ..Default::default() },
            adapt_time_ms: 2.5,
            faults: RoundReport { sampled: 4, dropped: 1, ..Default::default() },
        };
        acc.merge(&step);
        acc.merge(&step);
        assert_eq!(acc.comm.down_bytes, 200);
        assert_eq!(acc.faults.sampled, 8);
        assert!((acc.adapt_time_ms - 5.0).abs() < 1e-12);
    }

    #[test]
    fn round_stats_serde_round_trip() {
        let s = RoundStats {
            comm: CommTracker { up_bytes: 7, uploads: 1, ..Default::default() },
            adapt_time_ms: 1.25,
            faults: RoundReport { sampled: 3, corrupt_frames: 1, ..Default::default() },
        };
        let back: RoundStats = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }
}

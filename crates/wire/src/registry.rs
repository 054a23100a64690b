//! Cloud-side registry of versioned module baselines.
//!
//! Delta decoding needs both ends to agree on the exact baseline a delta
//! was computed against. The registry gives every commit a globally
//! monotonic version, keeps a bounded history per module so slightly
//! stale uploads still decode, and tracks which version each device last
//! acknowledged so downloads to warm devices can be deltas while cold
//! devices transparently get raw records.

use crate::frame::ModuleKey;
use crate::WireError;
use std::collections::{HashMap, VecDeque};

/// Versioned per-module baseline store with per-device ack tracking.
#[derive(Debug)]
pub struct ModuleRegistry {
    version: u64,
    keep: usize,
    history: HashMap<ModuleKey, VecDeque<(u64, Vec<f32>)>>,
    acked: HashMap<u64, HashMap<ModuleKey, u64>>,
}

impl ModuleRegistry {
    /// `keep` is the number of versions retained per module (≥ 1). Four
    /// covers the deepest staleness the round loop's retry/straggler
    /// machinery can produce today with room to spare.
    pub fn new(keep: usize) -> Self {
        ModuleRegistry { version: 0, keep: keep.max(1), history: HashMap::new(), acked: HashMap::new() }
    }

    /// Current (latest committed) global version; 0 before any commit.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Open a new global version for the baselines about to be recorded
    /// and return it. Typically called once per round after aggregation.
    pub fn begin_version(&mut self) -> u64 {
        self.version += 1;
        self.version
    }

    /// Record `values` as the baseline of `key` at `version`, evicting
    /// history beyond the retention bound.
    pub fn put(&mut self, key: ModuleKey, version: u64, values: &[f32]) {
        let h = self.history.entry(key).or_default();
        h.push_back((version, values.to_vec()));
        while h.len() > self.keep {
            h.pop_front();
        }
    }

    /// Baseline of `key` at exactly `version`. `MissingBaseline` when the
    /// module was never recorded, `StaleBaseline` when that version has
    /// been evicted (or never existed): the caller falls back to raw.
    pub fn baseline(&self, key: ModuleKey, version: u64) -> Result<&[f32], WireError> {
        let h = self.history.get(&key).ok_or(WireError::MissingBaseline { key })?;
        h.iter()
            .find(|(v, _)| *v == version)
            .map(|(_, vals)| vals.as_slice())
            .ok_or(WireError::StaleBaseline { key, version })
    }

    /// Mark that `device` now holds `key` at `version` (successful,
    /// CRC-clean decode on the device side).
    pub fn ack(&mut self, device: u64, key: ModuleKey, version: u64) {
        self.acked.entry(device).or_default().insert(key, version);
    }

    /// Version `device` last acknowledged for `key`, if any.
    pub fn acked_version(&self, device: u64, key: ModuleKey) -> Option<u64> {
        self.acked.get(&device).and_then(|m| m.get(&key)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versioned_lookup_and_eviction() {
        let mut reg = ModuleRegistry::new(2);
        let key = ModuleKey::module(1, 2);
        for round in 0..4 {
            let v = reg.begin_version();
            reg.put(key, v, &[round as f32]);
        }
        assert_eq!(reg.version(), 4);
        assert_eq!(reg.baseline(key, 4).unwrap(), &[3.0]);
        assert_eq!(reg.baseline(key, 3).unwrap(), &[2.0]);
        assert_eq!(reg.baseline(key, 1), Err(WireError::StaleBaseline { key, version: 1 }));
        let other = ModuleKey::module(9, 9);
        assert_eq!(reg.baseline(other, 4), Err(WireError::MissingBaseline { key: other }));
    }

    #[test]
    fn ack_tracking() {
        let mut reg = ModuleRegistry::new(4);
        let key = ModuleKey::module(0, 0);
        assert_eq!(reg.acked_version(7, key), None);
        reg.ack(7, key, 3);
        assert_eq!(reg.acked_version(7, key), Some(3));
    }
}

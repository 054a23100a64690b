//! Counters, gauges, value histograms and load histograms.
//!
//! The registry is the *aggregated* half of telemetry: events stream to a
//! sink as they happen, while metrics accumulate in memory and are flushed
//! once (as `kind = "metric"` events) when the run closes. All maps are
//! `BTreeMap` so the flush order — and therefore the trace bytes — is
//! deterministic.

use crate::event::Event;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Summary statistics of one value histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HistSummary {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl HistSummary {
    fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A point-in-time copy of every registered metric.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotone event counts (frames sent, CRC rejects, pool hits…).
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins values (current round index, pool size…).
    pub gauges: BTreeMap<String, f64>,
    /// Value distributions (latencies, frame sizes).
    pub histograms: BTreeMap<String, HistSummary>,
    /// Explicit-bucket count histograms (per-module gate loads): bucket
    /// `i` counts events assigned to index `i`, so the bucket sum equals
    /// the total number of assignments.
    pub loads: BTreeMap<String, Vec<u64>>,
}

/// Thread-safe metric accumulation behind the [`crate::Telemetry`] handle.
///
/// Interior mutability is a plain mutex: the instrumented seams run a few
/// thousand times per round, far from contention territory, and the
/// registry must be `Sync` because rounds fan client work out over
/// threads.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<MetricsSnapshot>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsSnapshot> {
        // A poisoned registry only means a panicking thread mid-update;
        // telemetry keeps going with whatever was recorded.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Adds `v` to counter `name` (creating it at 0).
    pub fn counter_add(&self, name: &str, v: u64) {
        let mut m = self.lock();
        let c = m.counters.entry(name.to_string()).or_insert(0);
        *c = c.saturating_add(v);
    }

    /// Sets gauge `name` to `v` (last write wins).
    pub fn gauge_set(&self, name: &str, v: f64) {
        self.lock().gauges.insert(name.to_string(), v);
    }

    /// Records `v` into value histogram `name`.
    pub fn observe(&self, name: &str, v: f64) {
        self.lock().histograms.entry(name.to_string()).or_default().observe(v);
    }

    /// Adds `count` to bucket `bucket` of load histogram `name`, growing
    /// the bucket vector as needed.
    pub fn load_add(&self, name: &str, bucket: usize, count: u64) {
        let mut m = self.lock();
        let buckets = m.loads.entry(name.to_string()).or_default();
        if buckets.len() <= bucket {
            buckets.resize(bucket + 1, 0);
        }
        buckets[bucket] = buckets[bucket].saturating_add(count);
    }

    /// Copies out every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.lock().clone()
    }

    /// Renders the current metrics as a deterministic stream of
    /// `kind = "metric"` events (one per metric; load-histogram buckets
    /// become zero-padded `b000…` integer fields).
    pub fn flush_events(&self) -> Vec<Event> {
        let snap = self.snapshot();
        let mut out = Vec::new();
        for (name, v) in &snap.counters {
            out.push(
                Event::new("metric").text("name", name.clone()).text("type", "counter").int("value", *v),
            );
        }
        for (name, v) in &snap.gauges {
            out.push(Event::new("metric").text("name", name.clone()).text("type", "gauge").num("value", *v));
        }
        for (name, h) in &snap.histograms {
            out.push(
                Event::new("metric")
                    .text("name", name.clone())
                    .text("type", "histogram")
                    .int("count", h.count)
                    .num("sum", h.sum)
                    .num("min", h.min)
                    .num("max", h.max),
            );
        }
        for (name, buckets) in &snap.loads {
            let mut e = Event::new("metric").text("name", name.clone()).text("type", "load");
            for (i, &c) in buckets.iter().enumerate() {
                e.ints.insert(format!("b{i:03}"), c);
            }
            out.push(e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let m = MetricsRegistry::new();
        m.counter_add("frames", 3);
        m.counter_add("frames", 2);
        m.gauge_set("round", 1.0);
        m.gauge_set("round", 4.0);
        let s = m.snapshot();
        assert_eq!(s.counters["frames"], 5);
        assert_eq!(s.gauges["round"], 4.0);
    }

    #[test]
    fn histogram_summary_tracks_extremes() {
        let m = MetricsRegistry::new();
        for v in [3.0, -1.0, 7.0] {
            m.observe("lat_ms", v);
        }
        let h = m.snapshot().histograms["lat_ms"];
        assert_eq!(h.count, 3);
        assert_eq!(h.min, -1.0);
        assert_eq!(h.max, 7.0);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn load_buckets_grow_and_sum() {
        let m = MetricsRegistry::new();
        m.load_add("gate_load.layer0", 2, 4);
        m.load_add("gate_load.layer0", 0, 1);
        let buckets = m.snapshot().loads["gate_load.layer0"].clone();
        assert_eq!(buckets, vec![1, 0, 4]);
        assert_eq!(buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn flush_events_are_deterministic_and_typed() {
        let m = MetricsRegistry::new();
        m.counter_add("b", 1);
        m.counter_add("a", 1);
        m.load_add("load", 1, 2);
        let events = m.flush_events();
        let names: Vec<&str> = events.iter().map(|e| e.text["name"].as_str()).collect();
        assert_eq!(names, vec!["a", "b", "load"]);
        assert_eq!(events[2].ints["b001"], 2);
    }
}

//! The metric names the benchmark emits, with their units. BENCHMARK.json
//! lists exactly these (a unit test holds the two together), and every
//! performance claim about this repository names one of them.

use serde_json::{Number, Value};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// Computed from counts, so two runs of one seed agree bit for bit.
    pub exact: bool,
}

/// What a user of the system sees; same names on every workload.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25, exact: false },
    EndToEnd { name: "rounds_per_s", unit: "1/s", better: Better::Higher, bound: 0.20, exact: false },
    EndToEnd { name: "round_ms_p50", unit: "ms", better: Better::Lower, bound: 0.20, exact: false },
    EndToEnd { name: "wire_mib_per_round", unit: "MiB", better: Better::Lower, bound: 0.02, exact: true },
    EndToEnd { name: "accuracy_final", unit: "frac", better: Better::Higher, bound: 0.05, exact: true },
    EndToEnd { name: "completed_jobs_frac", unit: "frac", better: Better::Higher, bound: 0.02, exact: true },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.10, exact: false },
];

/// Single-layer metrics (layer = crate), from the traced run only. A
/// metric of a layer that is not on a workload's path reads 0 there.
pub const PER_LAYER: [(&str, &str, Better); 54] = [
    ("tensor.gemm_small_gflops", "GFLOP/s", Better::Higher),
    ("tensor.gemm_large_gflops", "GFLOP/s", Better::Higher),
    ("data.batch_ms_per_batch", "ms", Better::Lower),
    ("modular.forward_ms_per_batch", "ms", Better::Lower),
    ("nn.loss_ms_per_batch", "ms", Better::Lower),
    ("modular.backward_ms_per_batch", "ms", Better::Lower),
    ("nn.clip_ms_per_batch", "ms", Better::Lower),
    ("nn.optim_step_ms_per_batch", "ms", Better::Lower),
    ("modular.train_samples_per_s", "1/s", Better::Higher),
    ("modular.importance_ms", "ms", Better::Lower),
    ("baselines.dense_train_step_ms_per_batch", "ms", Better::Lower),
    ("baselines.dense_samples_per_s", "1/s", Better::Higher),
    ("baselines.dense_train_ms", "ms", Better::Lower),
    ("baselines.dense_average_ms", "ms", Better::Lower),
    ("opt.knapsack_us", "us", Better::Lower),
    ("core.derive_ms", "ms", Better::Lower),
    ("core.dispatch_ms", "ms", Better::Lower),
    ("core.edge_install_ms", "ms", Better::Lower),
    ("core.edge_adapt_ms", "ms", Better::Lower),
    ("core.edge_make_update_ms", "ms", Better::Lower),
    ("core.aggregate_ms", "ms", Better::Lower),
    ("core.journal_append_ms_p50", "ms", Better::Lower),
    ("core.snapshot_save_ms_p50", "ms", Better::Lower),
    ("wire.encode_payload_ms", "ms", Better::Lower),
    ("wire.decode_payload_ms", "ms", Better::Lower),
    ("wire.encode_update_ms", "ms", Better::Lower),
    ("wire.decode_update_ms", "ms", Better::Lower),
    ("wire.dense_down_ms", "ms", Better::Lower),
    ("wire.dense_up_ms", "ms", Better::Lower),
    ("wire.encode_mib_s", "MiB/s", Better::Higher),
    ("wire.decode_mib_s", "MiB/s", Better::Higher),
    ("wire.frame_bytes_per_device", "B", Better::Lower),
    ("wire.compression_x", "x", Better::Higher),
    ("serve.bringup_ms", "ms", Better::Lower),
    ("serve.round_trip_ms_p50", "ms", Better::Lower),
    ("serve.round_trip_ms_p90", "ms", Better::Lower),
    ("serve.round_trip_1w_ms_p50", "ms", Better::Lower),
    ("serve.loopback_round_trip_ms_p50", "ms", Better::Lower),
    ("serve.job_overhead_ms", "ms", Better::Lower),
    ("serve.scaling_2w_x", "x", Better::Higher),
    ("serve.jobs_sent", "count", Better::Higher),
    ("serve.jobs_lost", "count", Better::Lower),
    ("sim.world_build_ms", "ms", Better::Lower),
    ("sim.offline_ms", "ms", Better::Lower),
    ("sim.eval_probe_ms", "ms", Better::Lower),
    ("sim.step_ms_p50", "ms", Better::Lower),
    ("sim.runner_gap_ms_per_round", "ms", Better::Lower),
    ("sim.round_overhead_ms", "ms", Better::Lower),
    ("telemetry.armed_overhead_pct", "%", Better::Lower),
    ("telemetry.events_per_round", "count", Better::Lower),
    ("bench.ledger_coverage_pct", "%", Better::Higher),
    ("bench.trace_overhead_pct", "%", Better::Lower),
    ("bench.spans_per_round", "count", Better::Lower),
    ("bench.traced_rounds", "count", Better::Higher),
];

/// Measured values keyed by metric name, in emission order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The `metrics` object of the result line: every name of `names`,
    /// in that order, with its unit; a layer that never ran reads 0.
    pub fn to_json<'a>(&self, names: impl Iterator<Item = (&'a str, &'a str)>) -> Value {
        Value::Object(
            names
                .map(|(name, unit)| {
                    let value = self.get(name).unwrap_or(0.0);
                    let fields = vec![
                        ("value".to_string(), Value::Number(Number::F64(value))),
                        ("unit".to_string(), Value::String(unit.to_string())),
                    ];
                    (name.to_string(), Value::Object(fields))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;
    use crate::workloads::WORKLOADS;

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_obey_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")));
        for (name, unit) in all {
            assert!(valid_name(name), "{name}");
            assert!(unit_ok(unit), "{name}: unit {unit:?}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// The benchmark's declaration file and the binary must agree on
    /// every workload (and its reason), metric, unit, direction and bound.
    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_emits() {
        let text = include_str!("../../BENCHMARK.json");
        let doc: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let rows =
            |key: &str| doc.get(key).and_then(Value::as_array).unwrap_or_else(|| panic!("{key}")).clone();
        let field = |row: &Value, key: &str| row.get(key).and_then(Value::as_str).map(str::to_string);

        let workloads: Vec<_> =
            rows("workloads").iter().map(|r| (field(r, "name"), field(r, "why"))).collect();
        let ours: Vec<_> =
            WORKLOADS.iter().map(|w| (Some(w.name.to_string()), Some(w.why.to_string()))).collect();
        assert_eq!(workloads, ours);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why is {} chars", w.name, w.why.len());
        }

        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(row, "name").as_deref(), Some(m.name));
            assert_eq!(field(row, "unit").as_deref(), Some(m.unit), "{}", m.name);
            assert_eq!(field(row, "better").as_deref(), Some(m.better.as_str()), "{}", m.name);
            assert_eq!(row.get("bound").and_then(Value::as_f64), Some(m.bound), "{}", m.name);
        }

        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, &(name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(row, "name").as_deref(), Some(name));
            assert_eq!(field(row, "unit").as_deref(), Some(unit), "{name}");
            assert_eq!(field(row, "better").as_deref(), Some(better.as_str()), "{name}");
        }
    }

    #[test]
    fn result_object_carries_every_name_in_order() {
        let mut m = Metrics::default();
        m.set("round_ms_p50", 12.5);
        m.set("round_ms_p50", 13.5);
        let json = serde_json::to_string(&m.to_json(END_TO_END.iter().map(|m| (m.name, m.unit)))).unwrap();
        assert!(json.starts_with(r#"{"setup_s":{"value":0.0,"unit":"s"},"#), "{json}");
        assert!(json.contains(r#""round_ms_p50":{"value":13.5,"unit":"ms"}"#), "{json}");
    }
}

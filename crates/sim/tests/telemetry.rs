//! Integration tests for the telemetry layer behind the unified
//! [`Runner`] API:
//!
//! * span nesting on a real collaborative run (run → round → client →
//!   wire/train/aggregate) captured by a [`MemorySink`];
//! * gate-load histograms: the aggregated metric buckets must equal the
//!   per-round activated-module counts the strategy emitted;
//! * a [`JsonlSink`] trace of a full run parses line-by-line and covers
//!   every event kind the instrumentation produces;
//! * parity: the durable path and telemetry-armed runs are bit-identical
//!   to a plain `Runner` run.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use nebula_data::drift::DriftKind;
use nebula_data::{DriftModel, PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use nebula_modular::ModularConfig;
use nebula_sim::resources::ResourceSampler;
use nebula_sim::strategy::{NebulaStrategy, StrategyConfig};
use nebula_sim::{DurabilityConfig, ExperimentConfig, Runner, SimWorld};
use nebula_telemetry::{Event, JsonlSink, MemorySink};

const TARGET: f32 = 1.01; // unreachable → runs go to max_rounds
const MAX_ROUNDS: usize = 3;
const PROBE_EVERY: usize = 2;

fn toy_world(seed: u64) -> SimWorld {
    let synth = Synthesizer::new(SynthSpec::toy(), 1);
    let spec = PartitionSpec::new(10, Partitioner::LabelSkew { m: 2 });
    let drift = Some(DriftModel::new(0.5, DriftKind::ClassShift { m: 2, group_seed: 9 }));
    SimWorld::new(synth, spec, 9, drift, &ResourceSampler::default(), seed)
}

fn toy_cfg() -> StrategyConfig {
    let mut cfg = StrategyConfig::new(ModularConfig::toy(16, 4));
    cfg.devices_per_round = 4;
    cfg.rounds_per_step = 1;
    cfg.pretrain_epochs = 2;
    cfg.proxy_samples = 100;
    cfg
}

fn build(seed: u64) -> (NebulaStrategy, SimWorld) {
    (NebulaStrategy::new(toy_cfg(), seed), toy_world(5))
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nebula-telemetry-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Sum of a gate-load event's zero-padded `bNNN` bucket fields.
fn bucket_sum(e: &Event) -> u64 {
    e.ints.iter().filter(|(k, _)| k.starts_with('b')).map(|(_, v)| *v).sum()
}

#[test]
fn memory_sink_captures_nested_spans_and_gate_loads() {
    let mem = Arc::new(MemorySink::new());
    let (mut s, mut w) = build(11);
    let num_layers = toy_cfg().modular.num_layers;
    let out = Runner::new(&mut w, &mut s)
        .config(ExperimentConfig { eval_devices: 3, seed: 11 })
        .target(TARGET, MAX_ROUNDS, PROBE_EVERY)
        .telemetry(mem.clone())
        .run()
        .expect("instrumented run");
    let events = mem.events();
    assert!(!events.is_empty());

    // ---- span hierarchy: id → (name, parent) ---------------------------
    let spans: BTreeMap<u64, (String, u64)> = events
        .iter()
        .filter(|e| e.kind == "span")
        .map(|e| (e.span, (e.text["name"].clone(), e.ints["parent"])))
        .collect();
    let ids_of = |name: &str| -> BTreeSet<u64> {
        spans.iter().filter(|(_, (n, _))| n == name).map(|(&id, _)| id).collect()
    };

    let runs = ids_of("run");
    assert_eq!(runs.len(), 1, "exactly one run span");
    let run_id = *runs.iter().next().unwrap();
    assert_eq!(spans[&run_id].1, 0, "run span is the root");

    let offline = ids_of("offline");
    assert_eq!(offline.len(), 1);
    assert_eq!(spans[offline.iter().next().unwrap()].1, run_id, "offline nests under run");

    let rounds = ids_of("round");
    assert_eq!(rounds.len(), MAX_ROUNDS, "one round span per collaborative round");
    for id in &rounds {
        assert_eq!(spans[id].1, run_id, "round spans nest under run");
    }
    let clients = ids_of("client");
    assert!(!clients.is_empty());
    for id in &clients {
        assert!(rounds.contains(&spans[id].1), "client spans nest under a round");
    }
    for id in ids_of("local_train").iter().chain(&ids_of("aggregate")) {
        assert!(rounds.contains(&spans[id].1), "train/aggregate spans nest under a round");
    }
    for id in &ids_of("wire_tx") {
        let parent = spans[id].1;
        assert!(
            clients.contains(&parent) || rounds.contains(&parent),
            "wire_tx spans nest under a client (download) or a round (upload)"
        );
    }

    // ---- gate-load histograms ------------------------------------------
    // The per-round `gate_load` events record the activated-module counts
    // of each round's accepted updates; the aggregated load-histogram
    // metrics must sum to exactly the same counts, layer by layer.
    let mut from_rounds: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == "gate_load") {
        *from_rounds.entry(e.ints["layer"]).or_default() += bucket_sum(e);
    }
    let mut from_metrics: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == "metric" && e.text["type"] == "load") {
        let name = &e.text["name"];
        if let Some(layer) = name.strip_prefix("gate_load.layer") {
            from_metrics.insert(layer.parse().unwrap(), bucket_sum(e));
        }
    }
    assert_eq!(from_metrics, from_rounds, "metric buckets equal per-round activated-module counts");
    assert_eq!(from_metrics.len(), num_layers, "one load histogram per gated layer");
    assert!(from_metrics.values().sum::<u64>() > 0, "accepted updates activated modules");

    // ---- run header and eval cohort ------------------------------------
    let header = events.iter().find(|e| e.kind == "run").expect("run header event");
    assert_eq!(header.text["mode"], "target");
    assert_eq!(header.ints["seed"], 11);
    let cohort = events.iter().find(|e| e.kind == "eval_cohort").expect("eval cohort event");
    assert_eq!(cohort.ints["count"] as usize, out.eval_ids.len());
    let recorded: Vec<usize> = cohort.text["ids"].split(',').map(|s| s.parse().unwrap()).collect();
    assert_eq!(recorded, out.eval_ids, "telemetry records the sampled cohort");

    // ---- round events match the outcome's accounting -------------------
    let round_events: Vec<&Event> = events.iter().filter(|e| e.kind == "round").collect();
    assert_eq!(round_events.len(), MAX_ROUNDS);
    assert_eq!(out.rounds as usize, MAX_ROUNDS);
    let client_events = events.iter().filter(|e| e.kind == "client").count();
    assert!(client_events > 0, "per-device fate events recorded");
}

#[test]
fn jsonl_trace_parses_and_covers_every_kind() {
    let dir = work_dir("jsonl");
    let path = dir.join("trace.jsonl");
    let sink = Arc::new(JsonlSink::create(&path).expect("create sink"));
    let (mut s, mut w) = build(3);
    Runner::new(&mut w, &mut s)
        .config(ExperimentConfig { eval_devices: 2, seed: 3 })
        .continuous(2)
        .telemetry(sink)
        .run()
        .expect("traced continuous run");

    let contents = fs::read_to_string(&path).expect("trace written and flushed");
    let events: Vec<Event> = contents
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("unparseable line {l:?}: {e}")))
        .collect();
    assert!(!events.is_empty());

    let kinds: BTreeSet<&str> = events.iter().map(|e| e.kind.as_str()).collect();
    for kind in ["run", "eval_cohort", "span", "round", "client", "wire", "gate_load", "metric"] {
        assert!(kinds.contains(kind), "trace is missing kind {kind:?} (has {kinds:?})");
    }
    let span_names: BTreeSet<&str> =
        events.iter().filter(|e| e.kind == "span").map(|e| e.text["name"].as_str()).collect();
    for name in ["run", "offline", "round", "client", "wire_tx", "local_train", "aggregate"] {
        assert!(span_names.contains(name), "trace is missing span {name:?} (has {span_names:?})");
    }
    let metric_names: BTreeSet<&str> =
        events.iter().filter(|e| e.kind == "metric").map(|e| e.text["name"].as_str()).collect();
    assert!(metric_names.contains("rounds"));
    assert!(metric_names.iter().any(|n| n.starts_with("wire.")), "wire metrics flushed");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn durable_run_is_bit_identical_to_plain_run() {
    let cfg = ExperimentConfig { eval_devices: 3, seed: 21 };
    let (mut s, mut w) = build(21);
    let plain = Runner::new(&mut w, &mut s)
        .config(cfg)
        .target(TARGET, MAX_ROUNDS, PROBE_EVERY)
        .run()
        .expect("plain run");

    let dir = work_dir("durable-parity");
    let (mut s, mut w) = build(21);
    let durable = Runner::new(&mut w, &mut s)
        .config(cfg)
        .target(TARGET, MAX_ROUNDS, PROBE_EVERY)
        .durable(DurabilityConfig::new(&dir))
        .run()
        .expect("durable run");
    let _ = fs::remove_dir_all(&dir);

    assert_eq!(plain.final_accuracy.to_bits(), durable.final_accuracy.to_bits());
    assert_eq!(plain.rounds, durable.rounds);
    assert_eq!(plain.stats.comm, durable.stats.comm);
    assert_eq!(plain.stats.faults, durable.stats.faults);
    assert_eq!(plain.eval_ids, durable.eval_ids);
}

#[test]
fn telemetry_never_perturbs_the_trajectory() {
    let cfg = ExperimentConfig { eval_devices: 2, seed: 31 };
    let (mut s, mut w) = build(31);
    let silent = Runner::new(&mut w, &mut s).config(cfg).continuous(2).run().expect("silent run");

    let (mut s, mut w) = build(31);
    let mem = Arc::new(MemorySink::new());
    let traced = Runner::new(&mut w, &mut s)
        .config(cfg)
        .continuous(2)
        .telemetry(mem.clone())
        .run()
        .expect("traced run");
    assert!(!mem.events().is_empty(), "the traced run actually recorded events");

    let silent_bits: Vec<u32> = silent.accuracy_per_slot.iter().map(|a| a.to_bits()).collect();
    let traced_bits: Vec<u32> = traced.accuracy_per_slot.iter().map(|a| a.to_bits()).collect();
    assert_eq!(silent_bits, traced_bits, "telemetry is strictly observational");
    assert_eq!(silent.final_accuracy.to_bits(), traced.final_accuracy.to_bits());
    assert_eq!(silent.stats.comm, traced.stats.comm);
    assert_eq!(silent.stats.faults, traced.stats.faults);
    assert_eq!(silent.eval_ids, traced.eval_ids);
}

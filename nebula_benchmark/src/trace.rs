//! In-memory span recorder for the traced run, and the roll-up that
//! turns its spans into a per-round time ledger.
//!
//! Spans are recorded from the benchmark's own code, around the calls
//! into each layer's public functions (round → device → stage). They stay
//! in memory while rounds run and are written out as JSONL at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use serde_json::{Number, Value};

use crate::stats::{self_times_ns, Span};

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    round: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer::with_capacity(0)
    }

    /// Room for `spans` spans up front, so that recording them does not
    /// reallocate inside a measured span.
    pub fn with_capacity(spans: usize) -> Self {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(spans), stack: Vec::new(), round: 0 }
    }

    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            round: self.round,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One header line, then one line per span.
    pub fn write_jsonl(&self, path: &Path, header: &Value) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{}", serde_json::to_string(header).expect("header serializes"))?;
        let num = |v: u64| Value::Number(Number::U64(v));
        for s in &self.spans {
            let line = Value::Object(vec![
                ("name".to_string(), Value::String(s.name.to_string())),
                ("start_ns".to_string(), num(s.start_ns)),
                ("end_ns".to_string(), num(s.end_ns)),
                ("parent".to_string(), s.parent.map_or(Value::Null, |p| num(p as u64))),
                ("round".to_string(), num(s.round as u64)),
            ]);
            writeln!(out, "{}", serde_json::to_string(&line).expect("span serializes"))?;
        }
        out.flush()
    }
}

/// Names of spans that only group others: their self time is what the
/// ledger could not attribute to a layer.
pub const CONTAINERS: [&str; 4] = ["step", "device", "tracked_device", "finish_round"];

/// Spans rolled up per round.
pub struct Ledger {
    /// Per round: self time in ms of every span name.
    pub rounds: Vec<BTreeMap<&'static str, f64>>,
    /// Per round: wall time of the round's root spans, ms.
    pub wall_ms: Vec<f64>,
    /// Per round: wall time of its `step` root alone, ms.
    pub step_ms: Vec<f64>,
    /// Per round: layer time (non-container self time) under `step`, ms.
    pub step_attributed_ms: Vec<f64>,
    pub spans_per_round: f64,
}

impl Ledger {
    pub fn build(spans: &[Span]) -> Ledger {
        let rounds_n = spans.iter().map(|s| s.round as usize + 1).max().unwrap_or(0);
        let mut rounds = vec![BTreeMap::new(); rounds_n];
        let mut wall_ms = vec![0.0; rounds_n];
        let mut step_ms = vec![0.0; rounds_n];
        let mut step_attributed_ms = vec![0.0; rounds_n];
        // A span's root is its parent's root; parents precede children.
        let mut under_step = Vec::with_capacity(spans.len());
        for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
            let r = s.round as usize;
            let self_ms = self_ns as f64 / 1e6;
            *rounds[r].entry(s.name).or_insert(0.0) += self_ms;
            let in_step = match s.parent {
                Some(p) => under_step[p as usize],
                None => {
                    wall_ms[r] += s.duration_ns() as f64 / 1e6;
                    if s.name == "step" {
                        step_ms[r] += s.duration_ns() as f64 / 1e6;
                    }
                    s.name == "step"
                }
            };
            under_step.push(in_step);
            if in_step && !CONTAINERS.contains(&s.name) {
                step_attributed_ms[r] += self_ms;
            }
        }
        let spans_per_round = spans.len() as f64 / rounds_n.max(1) as f64;
        Ledger { rounds, wall_ms, step_ms, step_attributed_ms, spans_per_round }
    }

    /// Forgets the first `n` rounds (the warm-up).
    pub fn skip_rounds(&mut self, n: usize, spans: &[Span]) {
        let n = n.min(self.rounds.len());
        self.rounds.drain(..n);
        self.wall_ms.drain(..n);
        self.step_ms.drain(..n);
        self.step_attributed_ms.drain(..n);
        let kept = spans.iter().filter(|s| s.round as usize >= n).count();
        self.spans_per_round = kept as f64 / self.rounds.len().max(1) as f64;
    }

    /// Self time of `name` in each round, ms (0 where it never ran).
    pub fn per_round(&self, name: &str) -> Vec<f64> {
        self.rounds.iter().map(|r| r.get(name).copied().unwrap_or(0.0)).collect()
    }

    /// Share of the traced wall time that sits in layer spans rather than
    /// in the containers around them, in percent.
    pub fn coverage_pct(&self) -> f64 {
        let wall: f64 = self.wall_ms.iter().sum();
        let unattributed: f64 =
            self.rounds.iter().flat_map(|r| CONTAINERS.iter().filter_map(|c| r.get(c))).sum();
        100.0 * (wall - unattributed) / wall.max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_nests_and_ledger_sums_to_wall() {
        let mut t = Tracer::new();
        for round in 0..2 {
            t.set_round(round);
            let step = t.enter("step");
            let dev = t.enter("device");
            t.span("core.dispatch", || std::hint::black_box((0..2000).sum::<u64>()));
            t.span("core.edge_adapt", || std::hint::black_box((0..4000).sum::<u64>()));
            t.exit(dev);
            t.span("core.aggregate", || ());
            t.exit(step);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 10);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[4].parent, Some(0));
        assert_eq!(spans[5].parent, None);
        assert_eq!(spans[7].round, 1);

        let ledger = Ledger::build(spans);
        assert_eq!(ledger.rounds.len(), 2);
        assert_eq!(ledger.spans_per_round, 5.0);
        for r in 0..2 {
            let total: f64 = ledger.rounds[r].values().sum();
            assert!((total - ledger.wall_ms[r]).abs() < 1e-9, "self times partition the round");
            assert_eq!(ledger.wall_ms[r], ledger.step_ms[r]);
            let containers = ledger.rounds[r]["step"] + ledger.rounds[r]["device"];
            assert!((ledger.step_attributed_ms[r] + containers - ledger.step_ms[r]).abs() < 1e-9);
        }
        assert!(ledger.coverage_pct() > 0.0 && ledger.coverage_pct() <= 100.0);
        assert_eq!(ledger.per_round("nope"), vec![0.0, 0.0]);

        let second = ledger.wall_ms[1];
        let mut ledger = ledger;
        ledger.skip_rounds(1, spans);
        assert_eq!((ledger.rounds.len(), ledger.spans_per_round), (1, 5.0));
        assert_eq!(ledger.wall_ms, vec![second]);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let outer = t.enter("step");
        let _inner = t.enter("device");
        t.exit(outer);
    }
}

//! The [`Telemetry`] handle instrumented code holds.
//!
//! A handle is a cheap, cloneable wrapper around an optional shared
//! collector. With an inactive sink (the [`crate::NullSink`] default) the
//! option is `None` and every instrumentation call is a single branch —
//! no timestamps, no allocation, no locks — which is what lets the
//! instrumented round loop stay within noise of the uninstrumented one.

use crate::event::Event;
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::sink::Collector;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Inner {
    sink: Arc<dyn Collector>,
    start: Instant,
    /// Next span id; 0 is reserved for "no span".
    next_span: AtomicU64,
    /// Ids of currently-open spans, innermost last.
    stack: Mutex<Vec<u64>>,
    metrics: MetricsRegistry,
}

/// Handle to a run's telemetry (or to nothing — see [`Telemetry::off`]).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// Telemetry wired to `sink`. An inactive sink (e.g. [`crate::NullSink`])
    /// yields a disarmed handle identical to [`Telemetry::off`].
    pub fn new(sink: Arc<dyn Collector>) -> Self {
        if !sink.active() {
            return Self::off();
        }
        Telemetry {
            inner: Some(Arc::new(Inner {
                sink,
                start: Instant::now(),
                next_span: AtomicU64::new(1),
                stack: Mutex::new(Vec::new()),
                metrics: MetricsRegistry::new(),
            })),
        }
    }

    /// The disarmed handle: every call is a no-op.
    pub fn off() -> Self {
        Telemetry { inner: None }
    }

    /// Whether events are actually being collected.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits one event. `fill` runs only when telemetry is enabled, so
    /// callers can build fields without guarding on [`Telemetry::enabled`].
    pub fn emit(&self, kind: &str, fill: impl FnOnce(&mut Event)) {
        let Some(inner) = &self.inner else { return };
        let mut e = Event::new(kind);
        fill(&mut e);
        e.t_ns = inner.start.elapsed().as_nanos() as u64;
        e.span = inner.current_span();
        inner.sink.record(&e);
    }

    /// Opens a hierarchical span; the returned guard emits a
    /// `kind = "span"` event (name, duration, parent) when dropped.
    pub fn span(&self, name: &'static str) -> Span {
        let Some(inner) = &self.inner else { return Span { active: None } };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = {
            let mut stack = inner.lock_stack();
            let parent = stack.last().copied().unwrap_or(0);
            stack.push(id);
            parent
        };
        Span {
            active: Some(SpanActive {
                inner: Arc::clone(inner),
                id,
                parent,
                start_ns: inner.start.elapsed().as_nanos() as u64,
                extra: Event::new("span").text("name", name),
            }),
        }
    }

    /// Adds `v` to counter `name`.
    pub fn counter_add(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.counter_add(name, v);
        }
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.gauge_set(name, v);
        }
    }

    /// Records `v` into value histogram `name`.
    pub fn observe(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.observe(name, v);
        }
    }

    /// Adds `count` to bucket `bucket` of load histogram `name`.
    pub fn load_add(&self, name: &str, bucket: usize, count: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.load_add(name, bucket, count);
        }
    }

    /// Copies out the metric registry (None when off).
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|i| i.metrics.snapshot())
    }

    /// Closes out a run: flushes every metric as a `kind = "metric"`
    /// event, then flushes the sink. Safe to call more than once (metrics
    /// are re-emitted with their latest values).
    pub fn finish(&self) {
        let Some(inner) = &self.inner else { return };
        let t_ns = inner.start.elapsed().as_nanos() as u64;
        for mut e in inner.metrics.flush_events() {
            e.t_ns = t_ns;
            inner.sink.record(&e);
        }
        inner.sink.flush();
    }
}

impl<C: Collector + 'static> From<Arc<C>> for Telemetry {
    fn from(sink: Arc<C>) -> Self {
        Telemetry::new(sink)
    }
}

impl From<Arc<dyn Collector>> for Telemetry {
    fn from(sink: Arc<dyn Collector>) -> Self {
        Telemetry::new(sink)
    }
}

impl Inner {
    fn lock_stack(&self) -> std::sync::MutexGuard<'_, Vec<u64>> {
        self.stack.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn current_span(&self) -> u64 {
        self.lock_stack().last().copied().unwrap_or(0)
    }
}

struct SpanActive {
    inner: Arc<Inner>,
    id: u64,
    parent: u64,
    start_ns: u64,
    extra: Event,
}

/// RAII guard for one open span (see [`Telemetry::span`]).
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct Span {
    active: Option<SpanActive>,
}

impl Span {
    /// Attaches an integer field to the span's closing event.
    pub fn int(&mut self, key: &str, v: u64) {
        if let Some(a) = &mut self.active {
            a.extra.ints.insert(key.to_string(), v);
        }
    }

    /// Attaches a float field to the span's closing event.
    pub fn num(&mut self, key: &str, v: f64) {
        if let Some(a) = &mut self.active {
            a.extra.num.insert(key.to_string(), v);
        }
    }

    /// This span's id (0 when telemetry is off).
    pub fn id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        {
            let mut stack = a.inner.lock_stack();
            if let Some(pos) = stack.iter().rposition(|&s| s == a.id) {
                stack.remove(pos);
            }
        }
        let now = a.inner.start.elapsed().as_nanos() as u64;
        let mut e = a.extra;
        e.t_ns = now;
        e.span = a.id;
        e.ints.insert("parent".to_string(), a.parent);
        e.ints.insert("dur_ns".to_string(), now.saturating_sub(a.start_ns));
        a.inner.sink.record(&e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{MemorySink, NullSink};

    #[test]
    fn off_handle_is_free_and_silent() {
        let t = Telemetry::off();
        assert!(!t.enabled());
        let mut ran = false;
        t.emit("x", |_| ran = true);
        assert!(!ran, "fill closure must not run when off");
        let _s = t.span("run");
        t.counter_add("c", 1);
        assert!(t.metrics().is_none());
        t.finish();
    }

    #[test]
    fn null_sink_disarms_the_handle() {
        assert!(!Telemetry::new(Arc::new(NullSink)).enabled());
    }

    #[test]
    fn spans_nest_and_report_parents() {
        let mem = Arc::new(MemorySink::new());
        let t = Telemetry::new(mem.clone());
        {
            let outer = t.span("run");
            let outer_id = outer.id();
            {
                let mut inner = t.span("round");
                inner.int("index", 1);
                t.emit("ping", |_| {});
                assert_ne!(inner.id(), outer_id);
            }
            let events = mem.events();
            // "ping" fired inside "round"; "round" closed with parent "run".
            let ping = events.iter().find(|e| e.kind == "ping").unwrap();
            let round = events.iter().find(|e| e.kind == "span").unwrap();
            assert_eq!(round.text["name"], "round");
            assert_eq!(ping.span, round.span);
            assert_eq!(round.ints["parent"], outer_id);
            assert_eq!(round.ints["index"], 1);
        }
        let run = mem.events().into_iter().rfind(|e| e.kind == "span").unwrap();
        assert_eq!(run.text["name"], "run");
        assert_eq!(run.ints["parent"], 0);
    }

    #[test]
    fn finish_flushes_metrics_as_events() {
        let mem = Arc::new(MemorySink::new());
        let t = Telemetry::new(mem.clone());
        t.counter_add("wire.frames", 3);
        t.observe("round.ms", 12.0);
        t.load_add("gate_load.layer0", 1, 5);
        t.finish();
        let events = mem.events();
        let metric_names: Vec<&str> =
            events.iter().filter(|e| e.kind == "metric").map(|e| e.text["name"].as_str()).collect();
        assert_eq!(metric_names, vec!["wire.frames", "round.ms", "gate_load.layer0"]);
    }

    #[test]
    fn span_timestamps_are_monotonic() {
        let mem = Arc::new(MemorySink::new());
        let t = Telemetry::new(mem.clone());
        {
            let _s = t.span("run");
            std::hint::black_box(0);
        }
        let e = &mem.events()[0];
        assert!(e.t_ns >= e.t_ns.saturating_sub(e.ints["dur_ns"]));
    }
}

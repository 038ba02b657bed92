//! The flight recorder: an always-on, bounded ring of recent spans,
//! structured events and slow queries that snapshots itself atomically
//! the moment something goes wrong.
//!
//! Metrics (`/metrics`) answer "how often does the serving layer shed,
//! trip deadlines, lose workers?"; the flight recorder answers "*which
//! request* did it to us, and what was the system doing around it?".
//! The serving layer reports every notable transition here — sheds,
//! deadline trips, worker panics and crashes — each tagged with the [`TraceContext`] current on
//! the reporting thread. Events rated [`Severity::Failure`] freeze a
//! [`FlightSnapshot`] of the recent span ring and event log, so the
//! evidence survives even as the rings keep rolling; `GET /debug/flight`
//! serves the last snapshot plus the live tail.
//!
//! Slow queries ride the same recorder: when a goal exceeds
//! `ServeConfig::with_slow_query_threshold`, the worker stores the goal
//! text and its full captured span tree as a [`SlowQuery`], retrievable
//! via `GET /debug/slow` and printable by `obs_inspect --slow`.
//!
//! The recorder is independent of the pluggable span collector: events
//! and slow queries flow whether or not a [`SpanSink`] is installed.
//! Installing the recorder *as* the sink (what `finkg-serve` does)
//! additionally fills the span ring, making failure snapshots carry
//! surrounding spans.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use super::context::{self, TraceContext};
use super::json::JsonWriter;
use super::span::{SpanRecord, SpanSink};
use super::{chrome, now_ns};

/// Default span-ring capacity (overridable via
/// [`FlightRecorder::set_span_capacity`] / `finkg-serve --flight-capacity`).
pub const DEFAULT_SPAN_CAPACITY: usize = 2048;
/// Default event-log capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;
/// Default slow-query log capacity.
pub const DEFAULT_SLOW_CAPACITY: usize = 32;

/// How notable an event is: `Failure` events freeze a snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Routine transition (request completed, snapshot published).
    Info,
    /// Something went wrong; the recorder snapshots on these.
    Failure,
}

impl Severity {
    /// The JSON rendering of the severity.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Failure => "failure",
        }
    }
}

/// One structured event, timestamped on the span timebase and tagged
/// with the reporting thread's current [`TraceContext`].
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Nanoseconds since the process trace epoch (same axis as spans).
    pub ts_ns: u64,
    /// Stable machine-readable kind (`shed`, `deadline_trip`,
    /// `worker_panic`, `request`, ...).
    pub kind: &'static str,
    /// Human-readable specifics.
    pub detail: String,
    /// Whether this event froze a snapshot.
    pub severity: Severity,
    /// Trace id of the implicated request, if one was current.
    pub trace_id: Option<Arc<str>>,
    /// Request id paired with `trace_id`.
    pub request_id: Option<u64>,
}

/// One explanation that exceeded the slow-query threshold: the goal
/// text plus the complete span tree captured while serving it.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// Nanoseconds since the process trace epoch at capture.
    pub ts_ns: u64,
    /// The goal text as submitted.
    pub goal: String,
    /// How long the explanation took.
    pub elapsed_ns: u64,
    /// Trace id of the owning request, if one was current.
    pub trace_id: Option<Arc<str>>,
    /// Request id paired with `trace_id`.
    pub request_id: Option<u64>,
    /// The spans closed while serving this goal (innermost first).
    pub spans: Vec<SpanRecord>,
}

/// An atomically frozen copy of the rings, taken on a failure event.
#[derive(Clone, Debug)]
pub struct FlightSnapshot {
    /// When the snapshot was taken (span timebase).
    pub taken_ns: u64,
    /// The `kind` of the failure event that triggered it.
    pub reason: &'static str,
    /// The span ring at freeze time, oldest first.
    pub spans: Vec<SpanRecord>,
    /// The event log at freeze time (includes the triggering event).
    pub events: Vec<FlightEvent>,
}

/// The recorder: three bounded rings plus the last failure snapshot.
/// All operations are cheap and lock-light; rings never grow past
/// their capacity, so an always-on recorder is safe in production.
#[derive(Debug)]
pub struct FlightRecorder {
    spans: Mutex<VecDeque<SpanRecord>>,
    events: Mutex<VecDeque<FlightEvent>>,
    slow: Mutex<VecDeque<SlowQuery>>,
    span_capacity: AtomicUsize,
    event_capacity: AtomicUsize,
    slow_capacity: AtomicUsize,
    last: Mutex<Option<FlightSnapshot>>,
    snapshots_taken: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_SPAN_CAPACITY)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn push_bounded<T>(ring: &Mutex<VecDeque<T>>, capacity: &AtomicUsize, item: T) {
    let capacity = capacity.load(Ordering::Relaxed).max(1);
    let mut ring = lock(ring);
    while ring.len() >= capacity {
        ring.pop_front();
    }
    ring.push_back(item);
}

impl FlightRecorder {
    /// A recorder keeping at most `span_capacity` spans (minimum 1) and
    /// default-sized event and slow-query logs.
    pub fn new(span_capacity: usize) -> FlightRecorder {
        FlightRecorder {
            spans: Mutex::new(VecDeque::new()),
            events: Mutex::new(VecDeque::new()),
            slow: Mutex::new(VecDeque::new()),
            span_capacity: AtomicUsize::new(span_capacity.max(1)),
            event_capacity: AtomicUsize::new(DEFAULT_EVENT_CAPACITY),
            slow_capacity: AtomicUsize::new(DEFAULT_SLOW_CAPACITY),
            last: Mutex::new(None),
            snapshots_taken: AtomicU64::new(0),
        }
    }

    /// Resizes the span ring (existing overflow is trimmed on the next
    /// record). `finkg-serve --flight-capacity` calls this on the
    /// global recorder at startup.
    pub fn set_span_capacity(&self, capacity: usize) {
        self.span_capacity.store(capacity.max(1), Ordering::Relaxed);
    }

    /// The span ring's capacity.
    pub fn span_capacity(&self) -> usize {
        self.span_capacity.load(Ordering::Relaxed)
    }

    /// Records a routine event, tagged with the thread's current
    /// [`TraceContext`]. No snapshot is taken.
    pub fn event(&self, kind: &'static str, detail: impl Into<String>) {
        self.record_event(kind, detail.into(), Severity::Info);
    }

    /// Records a failure event and atomically freezes a
    /// [`FlightSnapshot`] (which includes the event itself).
    pub fn failure(&self, kind: &'static str, detail: impl Into<String>) {
        self.record_event(kind, detail.into(), Severity::Failure);
        self.snapshot(kind);
    }

    fn record_event(&self, kind: &'static str, detail: String, severity: Severity) {
        let trace = context::current();
        push_bounded(
            &self.events,
            &self.event_capacity,
            FlightEvent {
                ts_ns: now_ns(),
                kind,
                detail,
                severity,
                trace_id: trace.as_ref().map(|t| Arc::clone(&t.trace_id)),
                request_id: trace.as_ref().map(|t| t.request_id),
            },
        );
    }

    /// Records one slow query (goal text + captured span tree), tagged
    /// with the given trace context.
    pub fn record_slow(
        &self,
        goal: impl Into<String>,
        elapsed_ns: u64,
        trace: Option<&TraceContext>,
        spans: Vec<SpanRecord>,
    ) {
        push_bounded(
            &self.slow,
            &self.slow_capacity,
            SlowQuery {
                ts_ns: now_ns(),
                goal: goal.into(),
                elapsed_ns,
                trace_id: trace.map(|t| Arc::clone(&t.trace_id)),
                request_id: trace.map(|t| t.request_id),
                spans,
            },
        );
    }

    /// Freezes the current rings into the last-snapshot slot.
    pub fn snapshot(&self, reason: &'static str) {
        let snapshot = FlightSnapshot {
            taken_ns: now_ns(),
            reason,
            spans: lock(&self.spans).iter().cloned().collect(),
            events: lock(&self.events).iter().cloned().collect(),
        };
        *lock(&self.last) = Some(snapshot);
        self.snapshots_taken.fetch_add(1, Ordering::Relaxed);
    }

    /// The last failure snapshot, if any was taken.
    pub fn last_snapshot(&self) -> Option<FlightSnapshot> {
        lock(&self.last).clone()
    }

    /// How many snapshots have been frozen since startup.
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots_taken.load(Ordering::Relaxed)
    }

    /// The live event tail, oldest first.
    pub fn events_tail(&self) -> Vec<FlightEvent> {
        lock(&self.events).iter().cloned().collect()
    }

    /// The live span tail, oldest first.
    pub fn spans_tail(&self) -> Vec<SpanRecord> {
        lock(&self.spans).iter().cloned().collect()
    }

    /// The recorded slow queries, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        lock(&self.slow).iter().cloned().collect()
    }

    /// Renders the `/debug/flight` payload: the last failure snapshot
    /// (or `null`) plus the live tail, spans as Chrome trace arrays.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object();
        w.field_u64("snapshots_taken", self.snapshots_taken());
        w.key("snapshot");
        match self.last_snapshot() {
            Some(snapshot) => write_snapshot(&mut w, &snapshot),
            None => w.raw("null"),
        }
        w.key("tail");
        w.open_object();
        w.key("spans");
        w.raw(&chrome::to_chrome_trace(&self.spans_tail()));
        w.key("events");
        write_events(&mut w, &self.events_tail());
        w.close_object();
        w.close_object();
        w.finish()
    }

    /// Renders the `/debug/slow` payload: every recorded slow query
    /// with its span tree as a Chrome trace array (loadable by
    /// `obs_inspect --slow` and Perfetto alike).
    pub fn slow_to_json(&self) -> String {
        let slow = self.slow_queries();
        let mut w = JsonWriter::new();
        w.open_object();
        w.field_u64("count", slow.len() as u64);
        w.key("slow");
        w.open_array();
        for q in &slow {
            w.open_object();
            w.field_u64("ts_ns", q.ts_ns);
            w.field_str("goal", &q.goal);
            w.field_u64("elapsed_ns", q.elapsed_ns);
            w.field_f64("elapsed_ms", q.elapsed_ns as f64 / 1_000_000.0);
            if let Some(trace_id) = &q.trace_id {
                w.field_str("trace_id", trace_id);
            }
            if let Some(request_id) = q.request_id {
                w.field_u64("request_id", request_id);
            }
            w.key("spans");
            w.raw(&chrome::to_chrome_trace(&q.spans));
            w.close_object();
        }
        w.close_array();
        w.close_object();
        w.finish()
    }
}

fn write_snapshot(w: &mut JsonWriter, snapshot: &FlightSnapshot) {
    w.open_object();
    w.field_u64("taken_ns", snapshot.taken_ns);
    w.field_str("reason", snapshot.reason);
    w.key("spans");
    w.raw(&chrome::to_chrome_trace(&snapshot.spans));
    w.key("events");
    write_events(w, &snapshot.events);
    w.close_object();
}

fn write_events(w: &mut JsonWriter, events: &[FlightEvent]) {
    w.open_array();
    for e in events {
        w.open_object();
        w.field_u64("ts_ns", e.ts_ns);
        w.field_str("kind", e.kind);
        w.field_str("severity", e.severity.as_str());
        w.field_str("detail", &e.detail);
        if let Some(trace_id) = &e.trace_id {
            w.field_str("trace_id", trace_id);
        }
        if let Some(request_id) = e.request_id {
            w.field_u64("request_id", request_id);
        }
        w.close_object();
    }
    w.close_array();
}

impl SpanSink for FlightRecorder {
    fn record(&self, span: SpanRecord) {
        push_bounded(&self.spans, &self.span_capacity, span);
    }
}

/// The process-wide flight recorder the serving layer reports into.
pub fn global() -> &'static Arc<FlightRecorder> {
    static GLOBAL: OnceLock<Arc<FlightRecorder>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(FlightRecorder::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json::{self, JsonValue};

    fn span(id: u64, name: &'static str, trace: Option<&TraceContext>) -> SpanRecord {
        SpanRecord {
            id,
            parent: None,
            name,
            fields: Vec::new(),
            thread: 1,
            start_ns: id * 10,
            duration_ns: 5,
            trace_id: trace.map(|t| Arc::clone(&t.trace_id)),
            request_id: trace.map(|t| t.request_id),
        }
    }

    #[test]
    fn failure_freezes_a_snapshot_containing_the_trigger() {
        let recorder = FlightRecorder::new(8);
        let ctx = TraceContext::with_trace_id("flight-test-1");
        recorder.record(span(1, "serve.request", Some(&ctx)));
        recorder.event("request", "GET /health 200");
        assert!(recorder.last_snapshot().is_none());
        {
            let _ctx = context::set(ctx.clone());
            recorder.failure("worker_panic", "explode");
        }
        let snapshot = recorder.last_snapshot().expect("failure snapshots");
        assert_eq!(snapshot.reason, "worker_panic");
        assert_eq!(snapshot.spans.len(), 1);
        let panic_event = snapshot
            .events
            .iter()
            .find(|e| e.kind == "worker_panic")
            .expect("the triggering event is inside its own snapshot");
        assert_eq!(panic_event.trace_id.as_deref(), Some("flight-test-1"));
        assert_eq!(panic_event.severity, Severity::Failure);
        assert_eq!(recorder.snapshots_taken(), 1);
    }

    #[test]
    fn rings_stay_bounded() {
        let recorder = FlightRecorder::new(2);
        for i in 0..5 {
            recorder.record(span(i + 1, "serve.request", None));
            recorder.event("request", format!("req {i}"));
        }
        assert_eq!(recorder.spans_tail().len(), 2);
        let kept: Vec<u64> = recorder.spans_tail().iter().map(|s| s.id).collect();
        assert_eq!(kept, vec![4, 5]);
        recorder.set_span_capacity(1);
        recorder.record(span(9, "serve.request", None));
        assert_eq!(recorder.spans_tail().len(), 1);
    }

    #[test]
    fn flight_json_parses_back() {
        let recorder = FlightRecorder::new(8);
        let ctx = TraceContext::with_trace_id("flight-json");
        recorder.record(span(1, "serve.request", Some(&ctx)));
        {
            let _ctx = context::set(ctx);
            recorder.failure("shed", "queue full");
        }
        let parsed = json::parse(&recorder.to_json()).expect("valid JSON");
        assert_eq!(
            parsed.get("snapshots_taken").and_then(JsonValue::as_u64),
            Some(1)
        );
        let snapshot = parsed.get("snapshot").expect("snapshot");
        assert_eq!(
            snapshot.get("reason").and_then(JsonValue::as_str),
            Some("shed")
        );
        let spans = snapshot.get("spans").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(
            spans[0]
                .get("args")
                .and_then(|a| a.get("trace_id"))
                .and_then(JsonValue::as_str),
            Some("flight-json")
        );
        let events = snapshot.get("events").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(
            events[0].get("trace_id").and_then(JsonValue::as_str),
            Some("flight-json")
        );
        let tail = parsed.get("tail").expect("tail");
        assert!(tail.get("spans").and_then(JsonValue::as_arr).is_some());
        assert!(tail.get("events").and_then(JsonValue::as_arr).is_some());
    }

    #[test]
    fn slow_json_parses_back() {
        let recorder = FlightRecorder::new(8);
        let ctx = TraceContext::with_trace_id("slow-json");
        recorder.record_slow(
            "control(\"A\", \"B\")",
            2_500_000,
            Some(&ctx),
            vec![span(7, "explain.query", Some(&ctx))],
        );
        let parsed = json::parse(&recorder.slow_to_json()).expect("valid JSON");
        assert_eq!(parsed.get("count").and_then(JsonValue::as_u64), Some(1));
        let slow = parsed.get("slow").and_then(JsonValue::as_arr).unwrap();
        let entry = &slow[0];
        assert_eq!(
            entry.get("goal").and_then(JsonValue::as_str),
            Some("control(\"A\", \"B\")")
        );
        assert_eq!(
            entry.get("trace_id").and_then(JsonValue::as_str),
            Some("slow-json")
        );
        assert_eq!(
            entry.get("elapsed_ms").and_then(JsonValue::as_f64),
            Some(2.5)
        );
        let spans = entry.get("spans").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(
            spans[0].get("name").and_then(JsonValue::as_str),
            Some("explain.query")
        );
    }
}

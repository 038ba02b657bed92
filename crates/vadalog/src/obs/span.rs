//! The structured span collector: always-compiled, pluggable tracing.
//!
//! Every instrumented scope of the engine, the checkpoint layer and the
//! explanation pipeline opens a [`Span`] via the [`span!`](crate::span!)
//! macro. Spans carry a process-unique id, a parent link (the innermost
//! open span of the same thread), typed key=value [fields](FieldValue)
//! and wall-clock extent. On close, the finished [`SpanRecord`] is handed
//! to the installed [`SpanSink`] — by default the bounded, lock-light
//! [`RingCollector`], whose contents export to Chrome `trace_event` JSON
//! ([`crate::obs::chrome`]) for Perfetto / `chrome://tracing`.
//!
//! # Cost model
//!
//! Span compilation is unconditional: there is no feature gate on the
//! instrumentation. Spans are observed only while a collector is
//! installed ([`install`]) or the current thread captures them
//! ([`capture_begin`]). Otherwise entering a span costs one relaxed
//! atomic load and one thread-local flag read and constructs nothing (the
//! field closure is never called).
//!
//! ```
//! use vadalog::obs::span::{install, uninstall, RingCollector};
//! use std::sync::Arc;
//!
//! let ring = Arc::new(RingCollector::new(4096));
//! install(ring.clone());
//! {
//!     let _outer = vadalog::span!("doc.outer", answer = 42u64);
//!     let _inner = vadalog::span!("doc.inner");
//! }
//! uninstall();
//! let spans = ring.drain();
//! assert_eq!(spans.len(), 2); // inner closes (and records) first
//! assert_eq!(spans[0].name, "doc.inner");
//! assert_eq!(spans[0].parent, Some(spans[1].id));
//! ```

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use super::context;

/// A typed span field value.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! field_from {
    ($($ty:ty => $variant:ident as $conv:ty),+ $(,)?) => {
        $(impl From<$ty> for FieldValue {
            fn from(v: $ty) -> FieldValue {
                FieldValue::$variant(v as $conv)
            }
        })+
    };
}

field_from! {
    u64 => U64 as u64, u32 => U64 as u64, u16 => U64 as u64, u8 => U64 as u64,
    usize => U64 as u64, i64 => I64 as i64, i32 => I64 as i64, f64 => F64 as f64,
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_owned())
    }
}

impl From<&String> for FieldValue {
    fn from(v: &String) -> FieldValue {
        FieldValue::Str(v.clone())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// A finished span, as handed to the [`SpanSink`].
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Process-unique span id (monotonic, starts at 1).
    pub id: u64,
    /// Id of the innermost span open on the same thread at entry.
    pub parent: Option<u64>,
    /// The span's static name (e.g. `"chase.round"`).
    pub name: &'static str,
    /// Typed key=value fields captured at entry.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Dense id of the recording thread (process-local, starts at 1).
    pub thread: u64,
    /// Entry time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Wall-clock extent in nanoseconds.
    pub duration_ns: u64,
    /// The trace id of the request this span served, if a
    /// [`TraceContext`](super::context::TraceContext) was current on the
    /// recording thread at entry. Links spans across threads (HTTP
    /// handler → serving worker → pipeline) into one request tree.
    pub trace_id: Option<Arc<str>>,
    /// The process-local request id paired with `trace_id`.
    pub request_id: Option<u64>,
}

/// A span consumer. Implementations must be cheap and non-blocking: the
/// `record` call sits on the instrumented hot path.
pub trait SpanSink: Send + Sync {
    /// Consumes one finished span.
    fn record(&self, span: SpanRecord);
}

/// The default collector: a bounded ring buffer of the most recent
/// spans, behind a single uncontended mutex (spans close on the
/// recording thread; the engine's instrumented scopes are sequential).
///
/// When full, the oldest span is evicted and counted in
/// [`dropped`](RingCollector::dropped) — the collector never grows
/// without bound and never blocks the engine on a slow consumer.
#[derive(Debug)]
pub struct RingCollector {
    buf: Mutex<VecDeque<SpanRecord>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl RingCollector {
    /// A collector keeping at most `capacity` spans (minimum 1).
    pub fn new(capacity: usize) -> RingCollector {
        RingCollector {
            buf: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Removes and returns every collected span, oldest first.
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.buf
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain(..)
            .collect()
    }

    /// Copies every collected span without clearing, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.buf
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Number of spans evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Spans currently held.
    pub fn len(&self) -> usize {
        self.buf
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// True iff no span is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SpanSink for RingCollector {
    fn record(&self, span: SpanRecord) {
        let mut buf = self
            .buf
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if buf.len() >= self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
            dropped_total().inc();
        }
        buf.push_back(span);
    }
}

/// The global eviction counter every [`RingCollector`] reports into, so
/// silent span loss is visible on `/metrics`
/// (`vadalog_obs_spans_dropped_total`). Resolved once.
fn dropped_total() -> &'static Arc<super::metrics::Counter> {
    static DROPPED: OnceLock<Arc<super::metrics::Counter>> = OnceLock::new();
    DROPPED.get_or_init(|| {
        super::metrics::global().counter(
            "vadalog_obs_spans_dropped_total",
            "Span records evicted from bounded ring collectors before export.",
        )
    })
}

/// Fast "is any sink listening" flag: the whole cost of a disabled span.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// The installed collector. Read-locked per span close — uncontended in
/// practice (installation is a test/startup-time event).
static COLLECTOR: RwLock<Option<Arc<dyn SpanSink>>> = RwLock::new(None);
/// Monotonic span-id source.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Monotonic thread-id source (0 = unassigned sentinel in the TLS cell).
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
/// The process trace epoch: all `start_ns` values are relative to this.
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Ids of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's dense trace id (0 until first assigned).
    static THREAD_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Fast flag mirroring `CAPTURE.is_some()` (checked per span entry).
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    /// Spans closed on this thread while a [`Capture`] is active.
    static CAPTURE: RefCell<Option<Vec<SpanRecord>>> = const { RefCell::new(None) };
}

/// Starts capturing every span that closes on *this thread* until
/// [`Capture::finish`] (or drop). Capturing forces spans on for the
/// thread even when no global collector is installed — this is how the
/// serving layer's slow-query log records a full span tree per goal
/// without requiring process-wide tracing. Records still flow to the
/// installed sink as usual; the capture sees a copy.
///
/// Captures do not nest: beginning a new one discards any spans the
/// previous capture had accumulated on this thread.
#[must_use = "spans are captured until the guard is finished or dropped"]
pub fn capture_begin() -> Capture {
    CAPTURE.with(|cell| *cell.borrow_mut() = Some(Vec::new()));
    CAPTURING.with(|cell| cell.set(true));
    Capture {
        _not_send: std::marker::PhantomData,
    }
}

/// An active per-thread span capture (see [`capture_begin`]).
#[derive(Debug)]
pub struct Capture {
    /// Captures are thread-local; keep the guard on the capturing thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Capture {
    /// Ends the capture and returns the spans it collected, in close
    /// order (innermost first, like any sink sees them).
    pub fn finish(self) -> Vec<SpanRecord> {
        CAPTURING.with(|cell| cell.set(false));
        let spans = CAPTURE.with(|cell| cell.borrow_mut().take());
        std::mem::forget(self);
        spans.unwrap_or_default()
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        CAPTURING.with(|cell| cell.set(false));
        CAPTURE.with(|cell| cell.borrow_mut().take());
    }
}

/// Installs `sink` as the process-wide span collector, replacing any
/// previous one. Spans already open keep reporting — to the new sink.
pub fn install(sink: Arc<dyn SpanSink>) {
    *COLLECTOR
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(sink);
    ENABLED.store(true, Ordering::Release);
}

/// Removes the installed collector. Spans stay observed only on threads
/// with an active [`capture_begin`].
pub fn uninstall() {
    *COLLECTOR
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    ENABLED.store(false, Ordering::Release);
}

/// True iff spans are being observed (a collector is installed or a
/// thread-local [`capture_begin`] is active). One relaxed atomic load
/// plus one thread-local flag read; the `span!` macro checks this before
/// constructing anything.
#[inline]
pub fn span_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) || CAPTURING.with(std::cell::Cell::get)
}

/// Nanoseconds since the process trace epoch — the timebase every span
/// (and the flight recorder's events) timestamps against, so exported
/// spans and structured events correlate on one axis.
pub(crate) fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// This thread's dense trace id, assigned on first use.
fn thread_id() -> u64 {
    THREAD_ID.with(|cell| {
        let id = cell.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        cell.set(id);
        id
    })
}

/// An RAII span guard: records entry on construction, reports the
/// finished [`SpanRecord`] to the installed sink when dropped.
///
/// Construct via the [`span!`](crate::span!) macro, which skips all of
/// this (including field evaluation) when no sink is listening.
#[derive(Debug)]
#[must_use = "a span measures the enclosing scope; bind it with `let _span = ...`"]
pub struct Span(Option<ActiveSpan>);

#[derive(Debug)]
struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
    start_ns: u64,
    start: Instant,
    trace: Option<context::TraceContext>,
}

impl Span {
    /// Opens a span, evaluating `fields` only if a sink is listening.
    pub fn enter(
        name: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, FieldValue)>,
    ) -> Span {
        if !span_enabled() {
            return Span(None);
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        Span(Some(ActiveSpan {
            id,
            parent,
            name,
            fields: fields(),
            start_ns: now_ns(),
            start: Instant::now(),
            trace: context::current(),
        }))
    }

    /// An inert span (no sink was listening at entry).
    pub fn disabled() -> Span {
        Span(None)
    }

    /// The span's id, if it is live.
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|a| a.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else {
            return;
        };
        let duration_ns = active.start.elapsed().as_nanos() as u64;
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Scoped drops close in LIFO order; a non-lexical drop order
            // still removes the right entry.
            if let Some(pos) = stack.iter().rposition(|&id| id == active.id) {
                stack.remove(pos);
            }
        });
        let record = SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            fields: active.fields,
            thread: thread_id(),
            start_ns: active.start_ns,
            duration_ns,
            trace_id: active.trace.as_ref().map(|t| Arc::clone(&t.trace_id)),
            request_id: active.trace.as_ref().map(|t| t.request_id),
        };
        if CAPTURING.with(std::cell::Cell::get) {
            CAPTURE.with(|cell| {
                if let Some(spans) = cell.borrow_mut().as_mut() {
                    spans.push(record.clone());
                }
            });
        }
        let sink = COLLECTOR
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        if let Some(sink) = sink {
            sink.record(record);
        }
    }
}

/// Opens a structured telemetry span around the enclosing scope.
///
/// Always compiled; when no collector is installed the expansion costs
/// one atomic load and evaluates none of the field expressions. Bind the
/// result (`let _span = vadalog::span!(...)`) so the span covers the
/// scope:
///
/// ```
/// let _span = vadalog::span!("example.work", items = 3u64, kind = "doc");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(,)?) => {
        $crate::obs::span::Span::enter($name, ::std::vec::Vec::new)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::obs::span::Span::enter($name, || {
            ::std::vec![$((
                stringify!($key),
                $crate::obs::span::FieldValue::from($value),
            )),+]
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collector installation is process-global; every test that installs
    /// one serializes on this lock so parallel test threads don't steal
    /// each other's sink.
    pub(crate) static INSTALL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_cost_nothing_and_collect_nothing() {
        let _guard = INSTALL_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        uninstall();
        let ring = RingCollector::new(8);
        {
            let span = crate::span!("test.disabled", expensive = "ignored");
            assert_eq!(span.id(), None);
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn ring_collector_records_nesting_and_fields() {
        let _guard = INSTALL_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let ring = Arc::new(RingCollector::new(64));
        install(ring.clone());
        {
            let outer = crate::span!("test.outer", label = "o", n = 7u64);
            let outer_id = outer.id().expect("enabled");
            {
                let inner = crate::span!("test.inner", flag = true);
                assert_ne!(inner.id(), Some(outer_id));
            }
        }
        uninstall();
        // Other unit tests in this binary may run chases concurrently;
        // keep only this test's spans.
        let spans: Vec<SpanRecord> = ring
            .drain()
            .into_iter()
            .filter(|s| s.name.starts_with("test."))
            .collect();
        assert_eq!(spans.len(), 2);
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.name, "test.inner");
        assert_eq!(outer.name, "test.outer");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(inner.start_ns >= outer.start_ns);
        assert_eq!(
            outer.fields,
            vec![
                ("label", FieldValue::Str("o".into())),
                ("n", FieldValue::U64(7)),
            ]
        );
        assert_eq!(inner.fields, vec![("flag", FieldValue::Bool(true))]);
        assert_eq!(inner.thread, outer.thread);
    }

    #[test]
    fn ring_collector_bounds_memory_and_counts_drops() {
        let ring = RingCollector::new(2);
        for i in 0..5u64 {
            ring.record(SpanRecord {
                id: i + 1,
                parent: None,
                name: "test.evict",
                fields: Vec::new(),
                thread: 1,
                start_ns: i,
                duration_ns: 1,
                trace_id: None,
                request_id: None,
            });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let kept: Vec<u64> = ring.drain().iter().map(|s| s.id).collect();
        assert_eq!(kept, vec![4, 5]);
    }

    #[test]
    fn spans_carry_the_current_trace_context() {
        let _guard = INSTALL_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let ring = Arc::new(RingCollector::new(16));
        install(ring.clone());
        let ctx = context::TraceContext::with_trace_id("trace-span-test");
        {
            let _outside = crate::span!("test.ctx_outside");
            let _ctx = context::set(ctx.clone());
            let _inside = crate::span!("test.ctx_inside");
        }
        uninstall();
        let spans = ring.drain();
        let inside = spans.iter().find(|s| s.name == "test.ctx_inside").unwrap();
        let outside = spans.iter().find(|s| s.name == "test.ctx_outside").unwrap();
        assert_eq!(inside.trace_id.as_deref(), Some("trace-span-test"));
        assert_eq!(inside.request_id, Some(ctx.request_id));
        assert_eq!(outside.trace_id, None);
        assert_eq!(outside.request_id, None);
    }

    #[test]
    fn capture_collects_spans_without_a_global_collector() {
        let _guard = INSTALL_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        uninstall();
        // No collector installed: spans are normally inert...
        {
            let span = crate::span!("test.capture_off");
            assert_eq!(span.id(), None);
        }
        // ...but a thread-local capture forces them on for this thread.
        let capture = capture_begin();
        {
            let _outer = crate::span!("test.capture_outer");
            let _inner = crate::span!("test.capture_inner");
        }
        let spans = capture.finish();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["test.capture_inner", "test.capture_outer"]);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        // After finish, spans are inert again.
        {
            let span = crate::span!("test.capture_done");
            assert_eq!(span.id(), None);
        }
    }

    #[test]
    fn capture_is_thread_local() {
        let _guard = INSTALL_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        uninstall();
        let capture = capture_begin();
        std::thread::scope(|s| {
            s.spawn(|| {
                // The sibling thread is not capturing: its span is inert.
                let span = crate::span!("test.capture_other_thread");
                assert_eq!(span.id(), None);
            });
        });
        {
            let _mine = crate::span!("test.capture_mine");
        }
        let spans = capture.finish();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "test.capture_mine");
    }

    #[test]
    fn worker_thread_spans_have_own_stack() {
        let _guard = INSTALL_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let ring = Arc::new(RingCollector::new(64));
        install(ring.clone());
        {
            let _outer = crate::span!("test.main");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _w = crate::span!("test.worker");
                });
            });
        }
        uninstall();
        let spans = ring.drain();
        let worker = spans.iter().find(|s| s.name == "test.worker").unwrap();
        let main = spans.iter().find(|s| s.name == "test.main").unwrap();
        // Parent links are per-thread: the worker span is a root on its
        // own thread, not a child of the main thread's open span.
        assert_eq!(worker.parent, None);
        assert_ne!(worker.thread, main.thread);
    }
}

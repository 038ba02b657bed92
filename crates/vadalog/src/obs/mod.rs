//! Dependency-free observability: structured spans, request-scoped
//! trace context, an always-on metrics registry, a flight recorder,
//! and exporters.
//!
//! Five pillars, each cheap enough to stay compiled into release
//! builds:
//!
//! * [`span`] — the structured span collector behind the
//!   [`span!`](crate::span!) macro: thread-local span stacks, parent
//!   links, typed fields, a pluggable [`SpanSink`] with
//!   the bounded [`RingCollector`] as the standard
//!   choice. Disabled cost: one relaxed atomic load per span site.
//! * [`context`] — the per-request [`TraceContext`] minted at the HTTP
//!   front end and carried to every thread that works on the request;
//!   while current, spans record its `trace_id`/`request_id` as
//!   first-class fields, linking handler, worker and pipeline spans
//!   into one exportable tree.
//! * [`metrics`] — named counters, gauges and fixed-bucket histograms
//!   (integer and float) in a [`MetricsRegistry`], exported in
//!   Prometheus text exposition format. Engine-written counters are
//!   derived from deterministic run telemetry, so their values are
//!   bitwise identical at any worker-thread count.
//! * [`flight`] — the always-on bounded [`FlightRecorder`]: recent
//!   spans, structured events (sheds, deadline trips, worker panics)
//!   and slow queries, snapshot
//!   atomically on every failure event and served on `/debug/flight`
//!   and `/debug/slow`.
//! * [`chrome`] — renders collected spans as Chrome `trace_event` JSON
//!   that loads directly in [Perfetto](https://ui.perfetto.dev);
//!   [`chrome::to_chrome_trace_for`] cuts one request's tree out of a
//!   mixed collector by trace id.
//!
//! [`json`] holds the shared dependency-free JSON writer (re-exported
//! as `vadalog::telemetry::JsonWriter` for existing callers) and the
//! parser the exporter tests use to validate emitted documents.
//!
//! # Span taxonomy
//!
//! | span | fields | opened by |
//! |------|--------|-----------|
//! | `chase.run` | `strata`, `threads` | one whole [`run`](crate::engine::ChaseSession) |
//! | `chase.stratum` | `stratum` | each stratum |
//! | `chase.round` | `round` | each chase round |
//! | `chase.rule` | `rule`, `stratum` | each rule's match+commit in a round |
//! | `checkpoint.save` | `path`, `facts` | checkpoint serialization + fsync |
//! | `checkpoint.load` | `path` | checkpoint restore |
//! | `explain.build` | `target` | one whole explanation build |
//! | `explain.analysis` | — | provenance analysis stage |
//! | `explain.template` | — | template instantiation stage |
//! | `explain.fallbacks` | — | fallback synthesis stage |
//! | `explain.query` | `fact` | one governed explanation lookup |
//! | `serve.request` | `endpoint`, `path` | each HTTP request handled |
//! | `serve.goal` | `goal`, `worker` | each goal a serving worker runs |

pub mod chrome;
pub mod context;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod span;

pub use chrome::{to_chrome_trace, to_chrome_trace_for};
pub use context::TraceContext;
pub use flight::FlightRecorder;
pub use json::JsonWriter;
pub use metrics::MetricsRegistry;
pub use span::{RingCollector, SpanRecord, SpanSink};

pub(crate) use span::now_ns;

//! Explanation-as-a-service: concurrent serving of explanation queries
//! over Arc-shared chase snapshots, with program artifacts cached across
//! requests.
//!
//! The paper's applications (Sec. 5) are long-lived: a knowledge graph
//! is chased once (and re-chased as data arrives), while explanation
//! queries from compliance staff and auditors stream in continuously.
//! This crate is that deployment shape:
//!
//! * [`SnapshotHandle`] — a versioned slot holding the current
//!   immutable chase outcome, updated atomically by publishing a
//!   [`SnapshotUpdate`] (a full re-chase or an incrementally maintained
//!   delta, each carrying its metadata). Readers never block writers
//!   and vice versa; in-flight queries finish on the snapshot they
//!   captured.
//! * [`ExplainService`] — a bounded worker pool answering batched
//!   explanation goals concurrently against one snapshot, from shared
//!   [`ProgramArtifacts`](explain::ProgramArtifacts). Answers are
//!   byte-identical at any worker count — including under injected
//!   worker panics, because panicked workers are isolated with
//!   `catch_unwind`, respawned, and lost jobs retried once within the
//!   request deadline.
//! * [`HttpServer`] — a dependency-free HTTP/1.1 front end exposing
//!   `/explain`, `/health`, `/ready`, `/snapshot`, the Prometheus
//!   `/metrics` endpoint and the `/debug/flight` + `/debug/slow`
//!   introspection endpoints; the `finkg-serve` binary wires it to the
//!   finkg applications.
//!
//! # Request tracing and the flight recorder
//!
//! Every routed request runs under a
//! [`TraceContext`](vadalog::obs::TraceContext): the front end honours
//! an inbound `x-vadalog-trace-id` header (minting one when absent),
//! echoes it on the response, and keeps the context installed across
//! the handler thread and the worker pool — so handler, worker and
//! pipeline spans all carry the request's trace id and can be cut out
//! of a mixed span stream with
//! [`to_chrome_trace_for`](vadalog::obs::to_chrome_trace_for). Failure
//! events (sheds, deadline trips, worker panics) land in the always-on
//! [`FlightRecorder`](vadalog::obs::FlightRecorder), which freezes a
//! snapshot of its recent-span/event rings at each failure; goals
//! slower than [`ServeConfig::with_slow_query_threshold`] are captured
//! with their full span tree on `GET /debug/slow`.
//!
//! # Overload and failure behaviour
//!
//! The server is built to *degrade predictably* instead of stalling:
//!
//! * Connections beyond [`ServeConfig::max_connections`] are shed
//!   immediately with `503` + `Retry-After`; slowloris and
//!   byte-dribble clients are dropped once the read deadline lapses.
//! * Each `/explain` batch runs under
//!   [`ServeConfig::with_request_deadline`]: queue submission sheds
//!   with [`ServeError::Overloaded`] when the job queue stays full,
//!   and the remaining budget becomes the run guard of the batch's
//!   [`Explainer`](explain::Explainer) so a slow goal returns a
//!   deterministic resource-exhausted error instead of hanging the
//!   connection.
//! * Publishing a snapshot is an in-memory pointer swap that cannot
//!   fail, so `GET /ready` answers `200` once the server is up.
//!
//! Compile with `--features faultpoints` to enable the deterministic
//! fault-injection points (`serve.worker`, `serve.handler`) used by the
//! chaos test-suite.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod http;
pub mod service;
pub mod snapshot;

pub use http::HttpServer;
pub use service::{ExplainService, ServeConfig, ServeError};
pub use snapshot::{Snapshot, SnapshotHandle, SnapshotUpdate, UpdateKind};

//! A dependency-free, overload-safe HTTP/1.1 front end for the
//! explanation service.
//!
//! Hand-rolled over `std::net::TcpListener` because the build ships no
//! external crates. The accept loop is thin and *never blocks on a
//! client*: accepted connections are handed to a bounded pool of
//! [`max_connections`](crate::ServeConfig::max_connections) handler
//! threads behind an admission counter; when every handler is busy the
//! excess connection is shed immediately with `503` + `Retry-After`
//! instead of queueing unboundedly. Every connection carries socket
//! read/write timeouts plus a whole-request read deadline and bounded
//! head/body parsing, so slowloris and byte-dribble clients are dropped
//! on schedule and can never freeze healthy traffic. Heavy lifting (the
//! actual explanation queries) happens on the [`ExplainService`] worker
//! pool. Admission is a slot counter reserved before a connection is
//! queued, so at most `max_connections` connections are ever
//! queued-or-handled. `Connection: close` semantics.
//!
//! Endpoints:
//!
//! | Method & path   | Behaviour                                          |
//! |-----------------|----------------------------------------------------|
//! | `GET /health`   | liveness + build info (crate version, enabled features) + current snapshot version |
//! | `GET /ready`    | readiness: `200 ready` with the snapshot version and live workers |
//! | `GET /metrics`  | Prometheus text of the process metrics registry    |
//! | `GET /snapshot` | current snapshot version, update kind (`full`/`delta`), delta fact counts, database size |
//! | `POST /explain` | body = goal fact literals (`control("B","D").`), one per line; answers each in order |
//! | `GET /debug/flight` | flight recorder: last failure snapshot + live span/event tail |
//! | `GET /debug/slow`   | slow-query log: goal text + span tree per slow explanation |
//!
//! Hostile-input responses: `413` for a `Content-Length` above the body
//! cap (instead of silently truncating), `431` for an oversized request
//! head, `400` for unparseable requests or goal batches above the
//! per-batch cap, `503` + `Retry-After` when the connection pool or the
//! job queue is saturated.
//!
//! ## Request tracing
//!
//! Every routed request runs under a [`TraceContext`]: the handler
//! honours an inbound `x-vadalog-trace-id` header (minting an id when
//! absent), echoes it on the response, and keeps the context current
//! for the whole dispatch — so the `serve.request` span, the worker
//! pool's `serve.goal` spans and the pipeline's spans all carry the
//! same trace id, and every request lands one
//! `vadalog_serve_request_seconds{endpoint,status,app}` observation
//! plus a `request` event in the flight recorder. The `status` label
//! distinguishes per-goal deadline exhaustion (`exhausted`) from
//! whole-batch sheds (`shed`) — both previously looked like "request
//! done" in the access log.

use crate::service::{ExplainService, ServeConfig, ServeError};
use explain::ExplainError;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vadalog::obs::context::{self, TraceContext};
use vadalog::obs::flight;
use vadalog::obs::json::JsonWriter;

/// A running HTTP server; dropping it (or calling
/// [`stop`](HttpServer::stop)) shuts the accept loop and the handler
/// pool down.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:7878"`, port 0 for ephemeral) and
    /// starts serving `service` from a background accept loop feeding a
    /// pool of [`max_connections`](ServeConfig::max_connections)
    /// connection handlers.
    pub fn bind(addr: &str, service: Arc<ExplainService>) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let config = service.config().clone();

        // In-flight admission counter: a connection is admitted by
        // reserving a slot *before* it is queued, so at most
        // `max_connections` connections are ever queued-or-handled and
        // the accept loop can shed the excess without racing handler
        // wake-ups. (A rendezvous channel can't express this: between
        // one handoff completing and the next handler parking in
        // `recv`, a `try_send` would spuriously fail with idle
        // handlers.)
        let active = Arc::new(AtomicUsize::new(0));
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let handlers = (0..config.max_connections)
            .map(|i| {
                let rx = Arc::clone(&conn_rx);
                let service = Arc::clone(&service);
                let active = Arc::clone(&active);
                std::thread::Builder::new()
                    .name(format!("serve-http-handler-{i}"))
                    .spawn(move || handler_loop(&rx, &active, &service))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        let stop_flag = Arc::clone(&stop);
        let accept_active = Arc::clone(&active);
        let retry_after = config.retry_after;
        let write_timeout = config.write_timeout;
        let read_timeout = config.read_timeout;
        let max_connections = config.max_connections;
        let accept_thread = std::thread::Builder::new()
            .name("serve-http-accept".to_owned())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(mut conn) = conn else { continue };
                    // Socket timeouts bound every read/write syscall; the
                    // handler adds a whole-request deadline on top.
                    let _ = conn.set_read_timeout(Some(read_timeout.max(MIN_TIMEOUT)));
                    let _ = conn.set_write_timeout(Some(write_timeout.max(MIN_TIMEOUT)));
                    if !reserve_slot(&accept_active, max_connections) {
                        reject_metric("connection_pool_full");
                        flight::global().failure(
                            "shed",
                            format!("connection shed: all {max_connections} handler slots busy"),
                        );
                        let _ = respond(
                            &mut conn,
                            "503 Service Unavailable",
                            "application/json",
                            &error_body("connection pool saturated; retry later"),
                            &[("Retry-After", retry_after_secs(retry_after))],
                        );
                        continue;
                    }
                    if conn_tx.send(conn).is_err() {
                        break;
                    }
                }
                // Dropping conn_tx here ends every handler's recv loop.
            })?;
        Ok(HttpServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            handlers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and the handler pool and joins them.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        for handle in self.handlers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Floor for socket timeouts (`set_read_timeout` rejects zero).
const MIN_TIMEOUT: Duration = Duration::from_millis(1);

/// Reserves an admission slot: true if the connection may proceed,
/// false when `active` already holds `max` in-flight connections.
fn reserve_slot(active: &AtomicUsize, max: usize) -> bool {
    let mut current = active.load(Ordering::Acquire);
    loop {
        if current >= max {
            return false;
        }
        match active.compare_exchange_weak(
            current,
            current + 1,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return true,
            Err(observed) => current = observed,
        }
    }
}

/// Pulls connections until the accept loop closes the channel,
/// releasing the admission slot after each one. A poisoned receiver
/// mutex is recovered — one panicking handler must not wedge the pool.
fn handler_loop(rx: &Mutex<Receiver<TcpStream>>, active: &AtomicUsize, service: &ExplainService) {
    loop {
        let conn = {
            let guard = match rx.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv()
        };
        let Ok(mut conn) = conn else { return };
        let outcome = handle_connection(&mut conn, service);
        drop(conn);
        active.fetch_sub(1, Ordering::AcqRel);
        if let Err(e) = outcome {
            vadalog::obs::metrics::global()
                .counter(
                    "vadalog_serve_http_io_errors_total",
                    "HTTP connections dropped on I/O errors (timeouts, disconnects).",
                )
                .inc();
            let _ = e; // connection-level errors are not fatal
        }
    }
}

/// One parsed request line + body.
struct Request {
    method: String,
    path: String,
    body: String,
    /// The inbound `x-vadalog-trace-id` header value, if present.
    trace_id: Option<String>,
}

/// Why a request was refused before routing.
enum RequestError {
    /// Socket-level failure: timeout, disconnect, dribble past the read
    /// deadline. No response is owed; the connection is dropped.
    Io(std::io::Error),
    /// The request head (request line + headers) exceeded the byte cap.
    HeadTooLarge,
    /// `Content-Length` exceeds the body cap (carries the declared length).
    BodyTooLarge(usize),
    /// `Content-Length` was present but not a number.
    BadContentLength,
    /// No parseable request line.
    Malformed,
}

impl From<std::io::Error> for RequestError {
    fn from(e: std::io::Error) -> RequestError {
        RequestError::Io(e)
    }
}

/// Finds the head/body boundary: `(terminator offset, terminator
/// length)`. Accepts `\r\n\r\n` and bare `\n\n`.
fn head_end(buf: &[u8]) -> Option<(usize, usize)> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| (p, 4))
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|p| (p, 2)))
}

/// Reads one HTTP/1.1 request under the configured caps: the whole head
/// within `max_head_bytes` and the body within `max_body_bytes`, all of
/// it within one `read_timeout` budget checked between every socket
/// read — a byte-dribbling client cannot stretch the read beyond
/// roughly twice the budget.
fn read_request(conn: &mut TcpStream, config: &ServeConfig) -> Result<Request, RequestError> {
    let deadline = Instant::now() + config.read_timeout;
    let mut chunk = [0u8; 4096];
    let mut head = Vec::new();
    let (split, terminator) = loop {
        if let Some(found) = head_end(&head) {
            break found;
        }
        if head.len() > config.max_head_bytes {
            return Err(RequestError::HeadTooLarge);
        }
        if Instant::now() >= deadline {
            return Err(RequestError::Io(std::io::Error::from(
                std::io::ErrorKind::TimedOut,
            )));
        }
        match conn.read(&mut chunk) {
            Ok(0) => {
                return Err(RequestError::Io(std::io::Error::from(
                    std::io::ErrorKind::UnexpectedEof,
                )))
            }
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(RequestError::Io(e)),
        }
    };

    let head_text = String::from_utf8_lossy(&head[..split]).into_owned();
    let mut lines = head_text.split('\n').map(|l| l.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_owned();
    let path = parts.next().unwrap_or_default().to_owned();
    if method.is_empty() || path.is_empty() {
        return Err(RequestError::Malformed);
    }
    let mut content_length = 0usize;
    let mut trace_id = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| RequestError::BadContentLength)?;
            } else if name.eq_ignore_ascii_case("x-vadalog-trace-id") {
                trace_id = Some(value.trim().to_owned());
            }
        }
    }
    if content_length > config.max_body_bytes {
        return Err(RequestError::BodyTooLarge(content_length));
    }

    let mut body = head[split + terminator..].to_vec();
    body.truncate(content_length);
    while body.len() < content_length {
        if Instant::now() >= deadline {
            return Err(RequestError::Io(std::io::Error::from(
                std::io::ErrorKind::TimedOut,
            )));
        }
        match conn.read(&mut chunk) {
            Ok(0) => {
                // Mid-body disconnect: the declared length never arrived.
                return Err(RequestError::Io(std::io::Error::from(
                    std::io::ErrorKind::UnexpectedEof,
                )));
            }
            Ok(n) => {
                let take = n.min(content_length - body.len());
                body.extend_from_slice(&chunk[..take]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(RequestError::Io(e)),
        }
    }
    Ok(Request {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
        trace_id,
    })
}

/// Writes a full response (with optional extra headers) and closes.
/// The head and the body go out in one buffer and one `write_all`, so an
/// unbuffered socket sends one segment instead of one per header piece.
fn respond<W: Write>(
    conn: &mut W,
    status: &str,
    content_type: &str,
    body: &str,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    let mut response = String::with_capacity(256 + body.len());
    let _ = write!(
        response,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        response.push_str(name);
        response.push_str(": ");
        response.push_str(value);
        response.push_str("\r\n");
    }
    response.push_str("Connection: close\r\n\r\n");
    response.push_str(body);
    conn.write_all(response.as_bytes())?;
    conn.flush()
}

/// A `{"error": detail}` JSON body.
fn error_body(detail: &str) -> String {
    let mut w = JsonWriter::new();
    w.open_object();
    w.field_str("error", detail);
    w.close_object();
    w.finish()
}

/// Counts a refused request/connection by reason.
fn reject_metric(reason: &'static str) {
    vadalog::obs::metrics::global()
        .counter_with(
            "vadalog_serve_http_rejects_total",
            &[("reason", reason)],
            "HTTP requests refused before evaluation, by reason.",
        )
        .inc();
}

/// `Retry-After` header value in whole seconds (at least 1).
fn retry_after_secs(retry_after: Duration) -> String {
    retry_after.as_secs().max(1).to_string()
}

/// Latency-histogram bounds in seconds (sub-millisecond cache hits up
/// to the 10 s default request deadline).
const REQUEST_SECONDS_BOUNDS: &[f64] = &[
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// Records one request in
/// `vadalog_serve_request_seconds{endpoint,status,app}`.
fn observe_request(app: &str, endpoint: &'static str, status: &'static str, elapsed: Duration) {
    vadalog::obs::metrics::global()
        .float_histogram_with(
            "vadalog_serve_request_seconds",
            &[("endpoint", endpoint), ("status", status), ("app", app)],
            REQUEST_SECONDS_BOUNDS,
            "HTTP request latency in seconds, by endpoint and access-log disposition.",
        )
        .observe(elapsed.as_secs_f64());
}

/// The bounded endpoint label (known routes only, so hostile paths
/// cannot inflate the metric's cardinality).
fn endpoint_label(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("GET", "/health") => "health",
        ("GET", "/ready") => "ready",
        ("GET", "/metrics") => "metrics",
        ("GET", "/snapshot") => "snapshot",
        ("GET", "/debug/flight") => "debug_flight",
        ("GET", "/debug/slow") => "debug_slow",
        ("POST", "/explain") => "explain",
        _ => "other",
    }
}

/// One routed response, written exactly once by [`handle_connection`]
/// with the request's trace id echoed.
struct Response {
    status: &'static str,
    content_type: &'static str,
    body: String,
    /// `Retry-After` hint for shed responses.
    retry_after: Option<Duration>,
    /// Access-log disposition: the `status` label on the latency
    /// histogram and the flight recorder's `request` events. `ok`,
    /// `exhausted` (≥1 goal tripped the per-request deadline — a `200`
    /// with per-goal errors), `error` (≥1 goal failed otherwise),
    /// `shed` (whole batch refused with `503`), `bad_request`,
    /// `not_found`.
    disposition: &'static str,
}

impl Response {
    /// A JSON response with no retry hint.
    fn json(status: &'static str, body: String, disposition: &'static str) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            retry_after: None,
            disposition,
        }
    }
}

/// Routes one connection: parses the request, installs its
/// [`TraceContext`] (inbound `x-vadalog-trace-id` or minted) for the
/// whole dispatch, observes the latency histogram and access-log flight
/// event, and echoes the trace id on the response.
fn handle_connection(conn: &mut TcpStream, service: &ExplainService) -> std::io::Result<()> {
    vadalog::faultpoint::hit("serve.handler");
    let config = service.config();
    let started = Instant::now();
    let request = match read_request(conn, config) {
        Ok(request) => request,
        Err(RequestError::Io(e)) => return Err(e),
        Err(refused) => {
            let (status, reason, detail) = match refused {
                RequestError::HeadTooLarge => (
                    "431 Request Header Fields Too Large",
                    "head_too_large",
                    format!("request head exceeds {} bytes", config.max_head_bytes),
                ),
                RequestError::BodyTooLarge(declared) => (
                    "413 Payload Too Large",
                    "body_too_large",
                    format!(
                        "content-length {declared} exceeds the {}-byte body cap",
                        config.max_body_bytes
                    ),
                ),
                RequestError::BadContentLength => (
                    "400 Bad Request",
                    "bad_content_length",
                    "content-length is not a number".to_owned(),
                ),
                RequestError::Malformed => (
                    "400 Bad Request",
                    "malformed",
                    "unparseable request line".to_owned(),
                ),
                RequestError::Io(_) => unreachable!("handled above"),
            };
            reject_metric(reason);
            observe_request(&config.app, "unparsed", "bad_request", started.elapsed());
            return respond(conn, status, "application/json", &error_body(&detail), &[]);
        }
    };

    let ctx = match &request.trace_id {
        Some(inbound) => TraceContext::with_trace_id(inbound),
        None => TraceContext::mint(),
    };
    let _ctx = context::set(ctx.clone());
    let endpoint = endpoint_label(&request.method, &request.path);
    let response = {
        let _span = vadalog::span!(
            "serve.request",
            endpoint = endpoint,
            path = request.path.as_str()
        );
        route(&request, service, config)
    };
    observe_request(
        &config.app,
        endpoint,
        response.disposition,
        started.elapsed(),
    );
    flight::global().event(
        "request",
        format!(
            "{} {} -> {} [{}]",
            request.method, request.path, response.status, response.disposition
        ),
    );

    let mut headers: Vec<(&str, String)> = vec![("x-vadalog-trace-id", ctx.trace_id.to_string())];
    if let Some(retry_after) = response.retry_after {
        headers.push(("Retry-After", retry_after_secs(retry_after)));
    }
    respond(
        conn,
        response.status,
        response.content_type,
        &response.body,
        &headers,
    )
}

/// Dispatches a parsed request to its endpoint.
fn route(request: &Request, service: &ExplainService, config: &ServeConfig) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => {
            let mut w = JsonWriter::new();
            w.open_object();
            w.field_str("status", "ok");
            w.field_str("version", env!("CARGO_PKG_VERSION"));
            w.key("features");
            w.open_array();
            if cfg!(feature = "faultpoints") {
                w.value_str("faultpoints");
            }
            w.close_array();
            w.field_str("app", &config.app);
            w.field_u64(
                "snapshot_version",
                service.snapshot_handle().current().version(),
            );
            w.close_object();
            Response::json("200 OK", w.finish(), "ok")
        }
        ("GET", "/ready") => {
            let mut w = JsonWriter::new();
            w.open_object();
            w.field_str("status", "ready");
            w.field_u64(
                "snapshot_version",
                service.snapshot_handle().current().version(),
            );
            w.field_u64("workers_alive", service.alive_workers() as u64);
            w.close_object();
            Response::json("200 OK", w.finish(), "ok")
        }
        ("GET", "/metrics") => Response {
            status: "200 OK",
            content_type: "text/plain; version=0.0.4",
            body: vadalog::obs::metrics::global().to_prometheus(),
            retry_after: None,
            disposition: "ok",
        },
        ("GET", "/snapshot") => {
            let snapshot = service.snapshot_handle().current();
            let mut w = JsonWriter::new();
            w.open_object();
            w.field_u64("version", snapshot.version());
            w.field_str("update_kind", snapshot.update_kind().as_str());
            w.field_u64("facts_added", snapshot.facts_added());
            w.field_u64("facts_retracted", snapshot.facts_retracted());
            w.field_u64("facts", snapshot.outcome().database.len() as u64);
            w.field_u64("derived_facts", snapshot.outcome().derived_facts as u64);
            w.field_u64("rounds", snapshot.outcome().rounds as u64);
            w.close_object();
            Response::json("200 OK", w.finish(), "ok")
        }
        ("GET", "/debug/flight") => Response::json("200 OK", flight::global().to_json(), "ok"),
        ("GET", "/debug/slow") => Response::json("200 OK", flight::global().slow_to_json(), "ok"),
        ("POST", "/explain") => explain_route(&request.body, service, config),
        _ => Response {
            status: "404 Not Found",
            content_type: "text/plain",
            body: "unknown endpoint; try /health, /ready, /metrics, /snapshot, \
                   /debug/flight, /debug/slow or POST /explain\n"
                .to_owned(),
            retry_after: None,
            disposition: "not_found",
        },
    }
}

/// `POST /explain`: parses the goal batch, answers it, and classifies
/// the outcome so sheds, deadline exhaustion and per-goal failures stay
/// distinguishable in the access log and metrics.
fn explain_route(body: &str, service: &ExplainService, config: &ServeConfig) -> Response {
    let goals = match parse_goals(body) {
        Err(detail) => {
            reject_metric("bad_request");
            return Response::json("400 Bad Request", error_body(&detail), "bad_request");
        }
        Ok(goals) if goals.len() > config.max_goals_per_batch => {
            reject_metric("too_many_goals");
            return Response::json(
                "400 Bad Request",
                error_body(&format!(
                    "batch of {} goals exceeds the per-request cap of {}",
                    goals.len(),
                    config.max_goals_per_batch
                )),
                "bad_request",
            );
        }
        Ok(goals) => goals,
    };
    let (version, results) = service.explain_batch(&goals);
    // A fully shed batch is a 503 the client should retry, not a 200
    // with per-goal errors.
    if !results.is_empty()
        && results
            .iter()
            .all(|r| matches!(r, Err(ServeError::Overloaded { .. })))
    {
        reject_metric("queue_full");
        return Response {
            status: "503 Service Unavailable",
            content_type: "application/json",
            body: error_body("job queue saturated; retry later"),
            retry_after: Some(config.retry_after),
            disposition: "shed",
        };
    }
    let mut any_error = false;
    let mut any_exhausted = false;
    for result in &results {
        match result {
            Ok(_) => {}
            Err(
                ServeError::Explain {
                    source: ExplainError::ResourceExhausted { .. },
                    ..
                }
                | ServeError::DeadlineExceeded { .. },
            ) => any_exhausted = true,
            Err(_) => any_error = true,
        }
    }
    let disposition = if any_error {
        "error"
    } else if any_exhausted {
        "exhausted"
    } else {
        "ok"
    };
    let mut w = JsonWriter::new();
    w.open_object();
    w.field_u64("snapshot_version", version);
    w.key("answers");
    w.open_array();
    for (goal, result) in goals.iter().zip(&results) {
        w.open_object();
        w.field_str("goal", &goal.to_string());
        match result {
            Ok(e) => {
                w.field_str("text", &e.text);
                w.field_u64("chase_steps", e.chase_steps as u64);
                w.key("paths");
                w.open_array();
                for p in &e.paths {
                    w.value_str(p);
                }
                w.close_array();
            }
            Err(err) => {
                w.field_str("error", &render_error(err));
            }
        }
        w.close_object();
    }
    w.close_array();
    w.close_object();
    Response::json("200 OK", w.finish(), disposition)
}

/// Renders an error with its full `source()` chain.
fn render_error(err: &ServeError) -> String {
    let mut text = err.to_string();
    let mut source = std::error::Error::source(err);
    while let Some(cause) = source {
        text.push_str(": ");
        text.push_str(&cause.to_string());
        source = cause.source();
    }
    text
}

/// Parses an `/explain` body: one goal fact literal per statement, in
/// the engine's surface syntax (e.g. `control("B", "D").`).
fn parse_goals(body: &str) -> Result<Vec<vadalog::Fact>, String> {
    let trimmed = body.trim();
    if trimmed.is_empty() {
        return Err("empty body; send goal fact literals like control(\"B\", \"D\").".to_owned());
    }
    let parsed = vadalog::parse_program(trimmed).map_err(|e| e.to_string())?;
    if !parsed.program.is_empty() {
        return Err("body must contain facts only, no rules".to_owned());
    }
    if parsed.facts.is_empty() {
        return Err("no goal facts in body".to_owned());
    }
    Ok(parsed.facts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` call and the bytes it carried.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn responses_go_out_in_one_write() {
        let mut ok = CountingWriter::default();
        respond(
            &mut ok,
            "200 OK",
            "application/json",
            "{\"status\":\"ok\"}",
            &[("x-vadalog-trace-id", "t-1".to_owned())],
        )
        .unwrap();
        assert_eq!(ok.writes, 1);
        assert_eq!(
            String::from_utf8(ok.bytes).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 15\r\n\
             x-vadalog-trace-id: t-1\r\nConnection: close\r\n\r\n{\"status\":\"ok\"}"
        );

        let mut shed = CountingWriter::default();
        respond(
            &mut shed,
            "503 Service Unavailable",
            "application/json",
            &error_body("connection pool saturated; retry later"),
            &[("Retry-After", retry_after_secs(Duration::from_millis(1500)))],
        )
        .unwrap();
        assert_eq!(shed.writes, 1);
        assert_eq!(
            String::from_utf8(shed.bytes).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: 50\r\nRetry-After: 1\r\nConnection: close\r\n\r\n\
             {\"error\":\"connection pool saturated; retry later\"}"
        );
    }

    #[test]
    fn goal_bodies_parse_and_reject_rules() {
        let goals = parse_goals("control(\"B\", \"D\").\ncontrol(\"B\", \"E\").").unwrap();
        assert_eq!(goals.len(), 2);
        assert!(parse_goals("").is_err());
        assert!(parse_goals("r: a(x) -> b(x).").is_err());
        assert!(parse_goals("not a program").is_err());
    }

    #[test]
    fn head_end_finds_both_terminators() {
        assert_eq!(
            head_end(b"GET / HTTP/1.1\r\nHost: x\r\n\r\nbody"),
            Some((23, 4))
        );
        assert_eq!(head_end(b"GET / HTTP/1.1\nHost: x\n\nbody"), Some((22, 2)));
        assert_eq!(head_end(b"GET / HTTP/1.1\r\nHost: x\r\n"), None);
    }
}

//! The concurrent explanation service: a bounded worker pool answering
//! explanation goals against Arc-shared snapshots and cached artifacts.
//!
//! Every query is a pure function of `(artifacts, snapshot, goal)`, so
//! parallelism needs no coordination beyond handing out work: N workers
//! pull jobs from one bounded queue, each computes against the `Arc` of
//! the snapshot captured when its batch entered, and results are placed
//! back by index. Answers are therefore *byte-identical* at any worker
//! count — the serving-side mirror of the engine's determinism contract —
//! and a batch never observes two different snapshot versions even while
//! a publisher replaces it underneath.
//!
//! ## Overload and fault behaviour
//!
//! The pool is *overload-safe* and *self-healing*:
//!
//! * **Deadlines.** [`ServeConfig::with_request_deadline`] arms a
//!   per-batch deadline. Submission uses a deadline-aware `try_send`
//!   loop — when the job queue stays full past the deadline the
//!   remaining goals are shed with [`ServeError::Overloaded`] instead of
//!   blocking — and each job carries the deadline into the worker, which
//!   hands the *remaining* budget to its [`Explainer`] as a
//!   [`RunGuard`], so a slow goal returns a deterministic
//!   `ResourceExhausted` answer instead of stalling its batch.
//! * **Panic isolation.** Worker bodies run under `catch_unwind`
//!   (mirroring the engine's match-phase isolation): an ordinary panic
//!   is reported as [`ServeError::WorkerPanic`] for that job and retires
//!   the worker; an injected [`FaultCrash`](vadalog::faultpoint::FaultCrash)
//!   kills the worker without reporting, like a real crash would. The
//!   pool respawns retired workers to full width, recovers a poisoned
//!   queue mutex, and [`explain_batch`](ExplainService::explain_batch)
//!   retries panicked/lost jobs once after healing — so answers under an
//!   injected fault stay byte-identical to a fault-free run.
//! * **No hangs.** The batch collection loop ticks against the
//!   completion deadline and re-checks pool health on every tick, so a
//!   batch can never wait forever on a dead pool; past the deadline the
//!   outstanding goals resolve to [`ServeError::DeadlineExceeded`].

use crate::snapshot::SnapshotHandle;
use explain::{ExplainError, Explainer, Explanation, ProgramArtifacts};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vadalog::obs::context::{self, TraceContext};
use vadalog::obs::{flight, span};
use vadalog::telemetry::RunGuard;
use vadalog::Fact;

/// Pause between `try_send` attempts while the job queue is full.
const SUBMIT_TICK: Duration = Duration::from_millis(1);
/// Collection-loop tick: how often a waiting batch re-checks the
/// completion deadline and pool health.
const COLLECT_TICK: Duration = Duration::from_millis(10);

/// Configuration of an [`ExplainService`] (and of the
/// [`HttpServer`](crate::HttpServer) serving it).
///
/// `#[non_exhaustive]`: construct via [`ServeConfig::default`] and the
/// `with_*` setters so new knobs stay additive.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads answering queries (`0` = available parallelism).
    pub workers: usize,
    /// Bound of the job queue; submissions beyond it apply backpressure
    /// and are shed once the request deadline passes.
    pub queue_depth: usize,
    /// Per-batch wall-clock budget: submission sheds
    /// ([`ServeError::Overloaded`]) when the queue stays full past it,
    /// workers hand the remaining budget to the explainer's guard, and
    /// collection stops waiting past it
    /// ([`ServeError::DeadlineExceeded`]). `None` = unbounded.
    pub request_deadline: Option<Duration>,
    /// Concurrent HTTP connection handlers; excess connections are shed
    /// immediately with `503` + `Retry-After` instead of queueing.
    pub max_connections: usize,
    /// Total wall-clock budget for reading one request (head + body) and
    /// the per-syscall socket read timeout, so slowloris and byte-dribble
    /// clients are dropped on schedule.
    pub read_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// Maximum bytes of request head (request line + headers); past it
    /// the connection gets `431 Request Header Fields Too Large`.
    pub max_head_bytes: usize,
    /// Maximum request body bytes; a larger `Content-Length` gets
    /// `413 Payload Too Large` instead of silent truncation.
    pub max_body_bytes: usize,
    /// Maximum goals per `/explain` batch; past it the request gets a
    /// structured `400`.
    pub max_goals_per_batch: usize,
    /// The `Retry-After` hint attached to `503` shed responses.
    pub retry_after: Duration,
    /// Goals slower than this are captured into the flight recorder's
    /// slow-query log with their full span tree (`GET /debug/slow`);
    /// `None` disables the capture (and its per-goal span recording).
    pub slow_query_threshold: Option<Duration>,
    /// The `app` label stamped on `vadalog_serve_request_seconds`, so
    /// one metrics endpoint can distinguish co-hosted applications.
    pub app: String,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            queue_depth: 256,
            request_deadline: Some(Duration::from_secs(10)),
            max_connections: 64,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1 << 20,
            max_goals_per_batch: 256,
            retry_after: Duration::from_secs(1),
            slow_query_threshold: Some(Duration::from_secs(1)),
            app: "default".to_owned(),
        }
    }
}

impl ServeConfig {
    /// Sets the worker-thread count (`0` = available parallelism).
    pub fn with_workers(mut self, workers: usize) -> ServeConfig {
        self.workers = workers;
        self
    }

    /// Sets the job-queue bound.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> ServeConfig {
        self.queue_depth = queue_depth.max(1);
        self
    }

    /// Sets (or with `None`, removes) the per-request deadline.
    pub fn with_request_deadline(mut self, deadline: Option<Duration>) -> ServeConfig {
        self.request_deadline = deadline;
        self
    }

    /// Sets the concurrent HTTP connection-handler bound.
    pub fn with_max_connections(mut self, max_connections: usize) -> ServeConfig {
        self.max_connections = max_connections.max(1);
        self
    }

    /// Sets the socket/request read budget.
    pub fn with_read_timeout(mut self, read_timeout: Duration) -> ServeConfig {
        self.read_timeout = read_timeout;
        self
    }

    /// Sets the socket write timeout.
    pub fn with_write_timeout(mut self, write_timeout: Duration) -> ServeConfig {
        self.write_timeout = write_timeout;
        self
    }

    /// Sets the request-head byte cap (`431` past it).
    pub fn with_max_head_bytes(mut self, max_head_bytes: usize) -> ServeConfig {
        self.max_head_bytes = max_head_bytes.max(64);
        self
    }

    /// Sets the request-body byte cap (`413` past it).
    pub fn with_max_body_bytes(mut self, max_body_bytes: usize) -> ServeConfig {
        self.max_body_bytes = max_body_bytes;
        self
    }

    /// Sets the per-batch goal-count cap (`400` past it).
    pub fn with_max_goals_per_batch(mut self, max_goals: usize) -> ServeConfig {
        self.max_goals_per_batch = max_goals.max(1);
        self
    }

    /// Sets the `Retry-After` hint on shed responses.
    pub fn with_retry_after(mut self, retry_after: Duration) -> ServeConfig {
        self.retry_after = retry_after;
        self
    }

    /// Sets (or with `None`, disables) the slow-query capture threshold.
    pub fn with_slow_query_threshold(mut self, threshold: Option<Duration>) -> ServeConfig {
        self.slow_query_threshold = threshold;
        self
    }

    /// Sets the `app` label on request metrics.
    pub fn with_app_label(mut self, app: impl Into<String>) -> ServeConfig {
        self.app = app.into();
        self
    }

    /// The effective worker count (resolving `0`).
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.workers
        }
    }
}

/// A serving-layer failure.
///
/// `#[non_exhaustive]`: match with a wildcard arm so new variants stay
/// additive.
#[non_exhaustive]
#[derive(Debug)]
pub enum ServeError {
    /// The explanation query itself failed; `source()` yields the
    /// underlying [`ExplainError`].
    Explain {
        /// The queried goal fact, rendered.
        goal: String,
        /// The pipeline failure.
        source: ExplainError,
    },
    /// A request body could not be parsed into goal facts.
    BadRequest {
        /// What was wrong with the request.
        detail: String,
    },
    /// The service shed this goal: the job queue stayed full past the
    /// request deadline. Maps to HTTP `503` with `Retry-After`.
    Overloaded {
        /// Suggested client back-off before resubmitting.
        retry_after: Duration,
    },
    /// The batch's completion deadline passed before this goal was
    /// answered.
    DeadlineExceeded {
        /// The configured per-request budget.
        deadline: Duration,
    },
    /// A worker panicked (or was killed) while answering this goal and
    /// the retry after respawning did not produce an answer either.
    WorkerPanic {
        /// The queried goal fact, rendered.
        goal: String,
        /// The panic payload, stringified.
        message: String,
    },
    /// The service is shutting down and dropped the job.
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Explain { goal, .. } => write!(f, "explanation of {goal} failed"),
            ServeError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ServeError::Overloaded { retry_after } => write!(
                f,
                "service overloaded; retry after {}ms",
                retry_after.as_millis()
            ),
            ServeError::DeadlineExceeded { deadline } => {
                write!(f, "request deadline of {}ms exceeded", deadline.as_millis())
            }
            ServeError::WorkerPanic { goal, message } => {
                write!(f, "worker panicked answering {goal}: {message}")
            }
            ServeError::Shutdown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Explain { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One unit of work: explain `fact` with the batch's explainer (bound to
/// the batch's snapshot) and report the result under `index`.
struct Job {
    fact: Fact,
    explainer: Explainer,
    index: usize,
    deadline: Option<Instant>,
    /// The trace context of the request that submitted this job; the
    /// worker installs it so the goal's spans and flight events carry
    /// the submitting request's trace id across the thread hop.
    trace: Option<TraceContext>,
    done: Sender<(usize, Result<Explanation, ServeError>)>,
}

/// The concurrent explanation service.
///
/// Construction spawns the worker pool; dropping the service closes the
/// queue and joins every worker. The service holds a [`SnapshotHandle`]
/// clone — publishers push new outcomes in through their own clone with
/// [`SnapshotHandle::publish`], and batches submitted after a publish
/// observe the new version while batches in flight finish on the
/// version they captured.
pub struct ExplainService {
    artifacts: Arc<ProgramArtifacts>,
    handle: SnapshotHandle,
    config: ServeConfig,
    jobs: Option<SyncSender<Job>>,
    job_rx: Arc<Mutex<Receiver<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    alive: Arc<AtomicUsize>,
    next_worker: AtomicUsize,
}

impl ExplainService {
    /// Spawns the worker pool over `artifacts` and the snapshot slot.
    pub fn new(
        artifacts: Arc<ProgramArtifacts>,
        handle: SnapshotHandle,
        config: ServeConfig,
    ) -> ExplainService {
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth);
        let service = ExplainService {
            artifacts,
            handle,
            config,
            jobs: Some(tx),
            job_rx: Arc::new(Mutex::new(rx)),
            workers: Mutex::new(Vec::new()),
            alive: Arc::new(AtomicUsize::new(0)),
            next_worker: AtomicUsize::new(0),
        };
        let want = service.config.effective_workers();
        let mut workers = service.workers.lock().expect("fresh worker list");
        for _ in 0..want {
            workers.push(service.spawn_worker());
        }
        drop(workers);
        service
    }

    /// The shared artifacts answers are generated from.
    pub fn artifacts(&self) -> &Arc<ProgramArtifacts> {
        &self.artifacts
    }

    /// The snapshot slot the service serves from.
    pub fn snapshot_handle(&self) -> &SnapshotHandle {
        &self.handle
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Workers currently alive (equals the configured width unless a
    /// panic just retired one and [`heal`](Self::heal) has not run yet).
    pub fn alive_workers(&self) -> usize {
        self.alive.load(Ordering::Acquire)
    }

    /// Respawns retired workers up to the configured width. Called
    /// automatically on batch entry, on every collection tick and before
    /// the panic-retry round; exposed for ops/tests.
    pub fn heal(&self) {
        if self.jobs.is_none() {
            return;
        }
        let want = self.config.effective_workers();
        let mut workers = match self.workers.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        workers.retain(|handle| !handle.is_finished());
        if workers.len() >= want {
            return;
        }
        let respawns = vadalog::obs::metrics::global().counter(
            "vadalog_serve_worker_respawns_total",
            "Explain workers respawned after a panic retired one.",
        );
        while workers.len() < want {
            workers.push(self.spawn_worker());
            respawns.inc();
        }
    }

    fn spawn_worker(&self) -> JoinHandle<()> {
        let id = self.next_worker.fetch_add(1, Ordering::Relaxed);
        let rx = Arc::clone(&self.job_rx);
        // Counted alive from here, not from when the thread first runs:
        // a `heal` that returns has the pool at full width.
        let presence = AlivePresence::enter(Arc::clone(&self.alive));
        let slow_threshold = self.config.slow_query_threshold;
        std::thread::Builder::new()
            .name(format!("explain-worker-{id}"))
            .spawn(move || {
                let _presence = presence;
                worker_loop(&rx, slow_threshold, id)
            })
            .expect("spawning explanation worker")
    }

    /// Answers a batch of explanation goals concurrently, order-preserving.
    ///
    /// The whole batch is answered against the *one* snapshot current at
    /// entry: a concurrent [`SnapshotHandle::publish`] never splits a batch
    /// across versions. Returns one result per goal, in goal order,
    /// together with the snapshot version used.
    ///
    /// Under the configured [`request_deadline`](ServeConfig::request_deadline)
    /// the call is bounded: goals the full queue cannot accept in time
    /// come back [`ServeError::Overloaded`], goals whose evaluation
    /// overruns the remaining budget come back as deterministic
    /// `ResourceExhausted` explain errors, and goals lost to a worker
    /// crash are retried once after the pool respawns — past the
    /// deadline they resolve to [`ServeError::DeadlineExceeded`].
    pub fn explain_batch(&self, goals: &[Fact]) -> (u64, Vec<Result<Explanation, ServeError>>) {
        let snapshot = self.handle.current();
        let version = snapshot.version();
        let explainer =
            Explainer::for_snapshot(Arc::clone(&self.artifacts), Arc::clone(snapshot.outcome()));
        let registry = vadalog::obs::metrics::global();
        registry
            .counter(
                "vadalog_serve_requests_total",
                "Explanation goals submitted to the serving layer.",
            )
            .add(goals.len() as u64);
        let deadline = self.config.request_deadline.map(|d| Instant::now() + d);
        let mut results: Vec<Option<Result<Explanation, ServeError>>> =
            (0..goals.len()).map(|_| None).collect();
        self.heal();
        if self.jobs.is_none() {
            return (
                version,
                goals.iter().map(|_| Err(ServeError::Shutdown)).collect(),
            );
        }

        let all: Vec<usize> = (0..goals.len()).collect();
        let submitted = self.submit(goals, &all, &explainer, deadline, &mut results);
        self.collect(&submitted, &mut results, deadline);

        // One retry round for goals lost to a worker panic/crash: the
        // pool has been healed, the jobs are pure, so a re-run yields
        // the byte-identical answer the fault suppressed.
        let lost: Vec<usize> = results
            .iter()
            .enumerate()
            .filter(|(_, slot)| matches!(slot, None | Some(Err(ServeError::WorkerPanic { .. }))))
            .map(|(index, _)| index)
            .collect();
        if !lost.is_empty() && deadline.is_none_or(|d| Instant::now() < d) {
            self.heal();
            for &index in &lost {
                results[index] = None;
            }
            let resubmitted = self.submit(goals, &lost, &explainer, deadline, &mut results);
            self.collect(&resubmitted, &mut results, deadline);
        }

        // Whatever is still unanswered resolves deterministically.
        let deadline_passed = deadline.is_some_and(|d| Instant::now() >= d);
        let results: Vec<Result<Explanation, ServeError>> = results
            .into_iter()
            .enumerate()
            .map(|(index, slot)| {
                slot.unwrap_or_else(|| {
                    if deadline_passed {
                        Err(ServeError::DeadlineExceeded {
                            deadline: self.config.request_deadline.unwrap_or_default(),
                        })
                    } else {
                        Err(ServeError::WorkerPanic {
                            goal: goals[index].to_string(),
                            message: "worker died before answering".to_owned(),
                        })
                    }
                })
            })
            .collect();
        registry
            .counter(
                "vadalog_serve_errors_total",
                "Explanation goals the serving layer failed to answer.",
            )
            .add(results.iter().filter(|r| r.is_err()).count() as u64);
        (version, results)
    }

    /// Submits `goals[indices]` through the deadline-aware `try_send`
    /// loop. Goals the queue cannot accept in time are shed in place
    /// ([`ServeError::Overloaded`]); returns the indices actually queued
    /// (paired with the `done` channel their results arrive on).
    fn submit(
        &self,
        goals: &[Fact],
        indices: &[usize],
        explainer: &Explainer,
        deadline: Option<Instant>,
        results: &mut [Option<Result<Explanation, ServeError>>],
    ) -> BatchReceiver {
        let (done_tx, done_rx) = mpsc::channel();
        let mut queued = 0usize;
        let mut shed = 0u64;
        let Some(jobs) = &self.jobs else {
            for &index in indices {
                results[index] = Some(Err(ServeError::Shutdown));
            }
            return BatchReceiver {
                rx: done_rx,
                queued,
            };
        };
        let trace = context::current();
        'submit: for (position, &index) in indices.iter().enumerate() {
            let mut job = Job {
                fact: goals[index].clone(),
                explainer: explainer.clone(),
                index,
                deadline,
                trace: trace.clone(),
                done: done_tx.clone(),
            };
            loop {
                match jobs.try_send(job) {
                    Ok(()) => {
                        queued += 1;
                        break;
                    }
                    Err(TrySendError::Full(back)) => {
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            for &rest in &indices[position..] {
                                results[rest] = Some(Err(ServeError::Overloaded {
                                    retry_after: self.config.retry_after,
                                }));
                                shed += 1;
                            }
                            break 'submit;
                        }
                        job = back;
                        // A retired pool would never drain the queue.
                        self.heal();
                        std::thread::sleep(SUBMIT_TICK);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        results[index] = Some(Err(ServeError::Shutdown));
                        break;
                    }
                }
            }
        }
        if shed > 0 {
            vadalog::obs::metrics::global()
                .counter(
                    "vadalog_serve_shed_goals_total",
                    "Explanation goals shed because the job queue stayed full past the deadline.",
                )
                .add(shed);
            flight::global().failure(
                "shed",
                format!("{shed} goals shed: job queue stayed full past the request deadline"),
            );
        }
        BatchReceiver {
            rx: done_rx,
            queued,
        }
    }

    /// Drains `batch.queued` results, ticking against the completion
    /// deadline and healing the pool on every tick so a dead pool can
    /// never hang the batch.
    fn collect(
        &self,
        batch: &BatchReceiver,
        results: &mut [Option<Result<Explanation, ServeError>>],
        deadline: Option<Instant>,
    ) {
        let mut outstanding = batch.queued;
        while outstanding > 0 {
            match batch.rx.recv_timeout(COLLECT_TICK) {
                Ok((index, result)) => {
                    results[index] = Some(result);
                    outstanding -= 1;
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.heal();
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return;
                    }
                }
                // Every outstanding job was dropped mid-unwind: nothing
                // more will arrive on this channel.
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Answers one explanation goal (a single-element batch).
    pub fn explain_one(&self, goal: &Fact) -> (u64, Result<Explanation, ServeError>) {
        let (version, mut results) = self.explain_batch(std::slice::from_ref(goal));
        (version, results.pop().expect("one result per goal"))
    }
}

/// The per-submission result channel plus how many jobs were queued on it.
struct BatchReceiver {
    rx: Receiver<(usize, Result<Explanation, ServeError>)>,
    queued: usize,
}

impl Drop for ExplainService {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop.
        self.jobs = None;
        let mut workers = match self.workers.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Runs one job: installs the submitting request's trace context, opens
/// the `serve.goal` span, hits the `serve.worker` fault point, then runs
/// the job's explainer under the remaining per-request budget. Goals
/// slower than `slow_threshold` are captured (goal text + full span
/// tree) into the flight recorder's slow-query log.
fn run_job(
    job: &Job,
    slow_threshold: Option<Duration>,
    worker: usize,
) -> Result<Explanation, ServeError> {
    let _ctx = job.trace.clone().map(context::set);
    // The capture is per-thread and cheap relative to an explanation;
    // a goal's slowness is only known once it finishes, so every goal
    // records while the threshold is armed and fast ones discard.
    let capture = slow_threshold.map(|_| span::capture_begin());
    let started = Instant::now();
    let result = {
        let _span = vadalog::span!(
            "serve.goal",
            goal = job.fact.to_string(),
            worker = worker as u64
        );
        vadalog::faultpoint::hit("serve.worker");
        match job.deadline {
            Some(deadline) => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                job.explainer
                    .clone()
                    .with_guard(RunGuard::new().with_timeout(remaining))
                    .explain(&job.fact)
            }
            None => job.explainer.explain(&job.fact),
        }
    };
    let elapsed = started.elapsed();
    if let Some(capture) = capture {
        let spans = capture.finish();
        if slow_threshold.is_some_and(|t| elapsed >= t) {
            flight::global().record_slow(
                job.fact.to_string(),
                elapsed.as_nanos() as u64,
                job.trace.as_ref(),
                spans,
            );
        }
    }
    result.map_err(|source| {
        if matches!(source, ExplainError::ResourceExhausted { .. }) {
            vadalog::obs::metrics::global()
                .counter(
                    "vadalog_serve_deadline_trips_total",
                    "Explanation goals that tripped the per-request deadline mid-evaluation.",
                )
                .inc();
            flight::global().failure(
                "deadline_trip",
                format!("goal {} tripped the per-request deadline", job.fact),
            );
        }
        ServeError::Explain {
            goal: job.fact.to_string(),
            source,
        }
    })
}

/// Pulls jobs until the queue closes. Workers steal from one shared
/// receiver (poisoning is recovered: a panicking peer must not wedge the
/// pool); fairness does not matter because results carry their index.
/// Job bodies run under `catch_unwind`: an ordinary panic reports
/// [`ServeError::WorkerPanic`] for the job and retires this worker (the
/// pool respawns it); an injected crash kills the worker unreported,
/// like real process death would.
fn worker_loop(rx: &Mutex<Receiver<Job>>, slow_threshold: Option<Duration>, worker: usize) {
    loop {
        let job = {
            let guard = match rx.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv()
        };
        let Ok(job) = job else { return };
        match panic::catch_unwind(AssertUnwindSafe(|| run_job(&job, slow_threshold, worker))) {
            Ok(result) => {
                // A dropped batch receiver just discards the answer.
                let _ = job.done.send((job.index, result));
            }
            Err(payload) => {
                vadalog::obs::metrics::global()
                    .counter(
                        "vadalog_serve_worker_panics_total",
                        "Explain-worker panics caught by the serving layer's isolation.",
                    )
                    .inc();
                if payload
                    .downcast_ref::<vadalog::faultpoint::FaultCrash>()
                    .is_some()
                {
                    // Simulated process death: the job's answer is lost,
                    // exactly like a kill -9 — the batch's completion
                    // tick heals the pool and retries.
                    drop(job);
                    return;
                }
                let message = panic_message(payload.as_ref());
                {
                    // Re-install the job's context (the unwind dropped
                    // run_job's guard) so the flight event carries the
                    // panicking request's trace id.
                    let _ctx = job.trace.clone().map(context::set);
                    flight::global().failure(
                        "worker_panic",
                        format!("worker {worker} panicked answering {}: {message}", job.fact),
                    );
                }
                let _ = job.done.send((
                    job.index,
                    Err(ServeError::WorkerPanic {
                        goal: job.fact.to_string(),
                        message,
                    }),
                ));
                // The worker retires after a panic — its state is
                // suspect; the pool respawns a fresh one.
                return;
            }
        }
    }
}

/// Tracks a worker's liveness, decrementing on any exit (including
/// unwind).
struct AlivePresence(Arc<AtomicUsize>);

impl AlivePresence {
    fn enter(alive: Arc<AtomicUsize>) -> AlivePresence {
        alive.fetch_add(1, Ordering::AcqRel);
        AlivePresence(alive)
    }
}

impl Drop for AlivePresence {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Stringifies a panic payload (the common `&str`/`String` cases).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog::{parse_program, ChaseSession, Database};

    fn service(workers: usize) -> (ExplainService, Vec<Fact>) {
        let parsed = parse_program(
            r#"
            alpha: edge(x, y) -> reach(x, y).
            beta: reach(x, y), edge(y, z) -> reach(x, z).
            edge("a", "b").
            edge("b", "c").
            edge("c", "d").
        "#,
        )
        .unwrap();
        let artifacts = ProgramArtifacts::builder(parsed.program.clone(), "reach")
            .build_cached()
            .unwrap();
        let db: Database = parsed.facts.into_iter().collect();
        let outcome = ChaseSession::new(&parsed.program).run(db).unwrap();
        let handle = SnapshotHandle::new(outcome);
        let goals = vec![
            Fact::new("reach", vec!["a".into(), "d".into()]),
            Fact::new("reach", vec!["b".into(), "d".into()]),
            Fact::new("reach", vec!["a".into(), "c".into()]),
        ];
        (
            ExplainService::new(
                artifacts,
                handle,
                ServeConfig::default().with_workers(workers),
            ),
            goals,
        )
    }

    #[test]
    fn batches_preserve_goal_order() {
        let (service, goals) = service(2);
        let (version, results) = service.explain_batch(&goals);
        assert_eq!(version, 1);
        assert_eq!(results.len(), goals.len());
        for (goal, result) in goals.iter().zip(&results) {
            let e = result.as_ref().unwrap();
            assert_eq!(&e.fact, goal);
        }
    }

    #[test]
    fn pruned_snapshot_serves_byte_identical_goal_explanations() {
        // `audit` lives outside reach's relevance cone; a service booted
        // from a goal-directed chase must answer goal queries exactly
        // like one booted from the full chase.
        let parsed = parse_program(
            r#"
            alpha: edge(x, y) -> reach(x, y).
            beta: reach(x, y), edge(y, z) -> reach(x, z).
            gamma: edge(x, y), not flagged(x) -> audit(x, y).
            edge("a", "b").
            edge("b", "c").
            flagged("b").
        "#,
        )
        .unwrap();
        let artifacts = ProgramArtifacts::builder(parsed.program.clone(), "reach")
            .build_cached()
            .unwrap();
        let db: Database = parsed.facts.into_iter().collect();
        let full = ChaseSession::new(&parsed.program).run(db.clone()).unwrap();
        let pruned = ChaseSession::new(&parsed.program)
            .with_config(artifacts.pruned_chase_config())
            .run(db)
            .unwrap();
        // The cone leaves out `gamma`, so the pruned snapshot is smaller.
        assert!(pruned.derived_facts < full.derived_facts);
        let goals = vec![
            Fact::new("reach", vec!["a".into(), "c".into()]),
            Fact::new("reach", vec!["a".into(), "b".into()]),
        ];
        let config = || ServeConfig::default().with_workers(1);
        let full_svc = ExplainService::new(artifacts.clone(), SnapshotHandle::new(full), config());
        let pruned_svc = ExplainService::new(artifacts, SnapshotHandle::new(pruned), config());
        let (_, full_results) = full_svc.explain_batch(&goals);
        let (_, pruned_results) = pruned_svc.explain_batch(&goals);
        for (f, p) in full_results.iter().zip(&pruned_results) {
            let (f, p) = (f.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(f.text, p.text);
            assert_eq!(f.paths, p.paths);
            assert_eq!(f.chase_steps, p.chase_steps);
            assert_eq!(f.support, p.support);
        }
    }

    #[test]
    fn unknown_goals_fail_with_chained_source() {
        let (service, _) = service(1);
        let bogus = Fact::new("reach", vec!["z".into(), "q".into()]);
        let (_, result) = service.explain_one(&bogus);
        let err = result.unwrap_err();
        assert!(matches!(err, ServeError::Explain { .. }));
        let source = std::error::Error::source(&err).expect("source must chain");
        assert!(source.downcast_ref::<ExplainError>().is_some());
    }

    #[test]
    fn config_setters_follow_builder_conventions() {
        let config = ServeConfig::default()
            .with_workers(3)
            .with_queue_depth(7)
            .with_request_deadline(Some(Duration::from_millis(250)))
            .with_max_connections(5)
            .with_read_timeout(Duration::from_millis(100))
            .with_write_timeout(Duration::from_millis(100))
            .with_max_head_bytes(1024)
            .with_max_body_bytes(2048)
            .with_max_goals_per_batch(9)
            .with_retry_after(Duration::from_secs(2))
            .with_slow_query_threshold(Some(Duration::from_millis(50)))
            .with_app_label("audit");
        assert_eq!(config.workers, 3);
        assert_eq!(config.effective_workers(), 3);
        assert_eq!(config.queue_depth, 7);
        assert_eq!(config.request_deadline, Some(Duration::from_millis(250)));
        assert_eq!(config.max_connections, 5);
        assert_eq!(config.max_head_bytes, 1024);
        assert_eq!(config.max_body_bytes, 2048);
        assert_eq!(config.max_goals_per_batch, 9);
        assert_eq!(config.retry_after, Duration::from_secs(2));
        assert_eq!(config.slow_query_threshold, Some(Duration::from_millis(50)));
        assert_eq!(config.app, "audit");
    }

    #[test]
    fn slow_goals_land_in_the_flight_recorder_with_their_trace() {
        let (reference, goals) = service(1);
        let service = ExplainService::new(
            Arc::clone(reference.artifacts()),
            reference.snapshot_handle().clone(),
            ServeConfig::default()
                .with_workers(1)
                // Zero threshold: every goal is "slow".
                .with_slow_query_threshold(Some(Duration::ZERO)),
        );
        let ctx = TraceContext::with_trace_id("slow-capture-test");
        let _ctx = context::set(ctx.clone());
        let (_, results) = service.explain_batch(&goals[..1]);
        assert!(results[0].is_ok());
        let slow = flight::global().slow_queries();
        let entry = slow
            .iter()
            .find(|q| q.trace_id.as_deref() == Some("slow-capture-test"))
            .expect("the slow goal must be captured with its trace id");
        assert_eq!(entry.goal, goals[0].to_string());
        assert!(
            entry.spans.iter().any(|s| s.name == "serve.goal"),
            "captured tree must include the serve.goal span: {:?}",
            entry.spans.iter().map(|s| s.name).collect::<Vec<_>>()
        );
        assert!(entry
            .spans
            .iter()
            .all(|s| s.trace_id.as_deref() == Some("slow-capture-test")));
    }

    #[test]
    fn zero_deadline_sheds_or_exhausts_instead_of_hanging() {
        let (service, goals) = service(1);
        let service = ExplainService::new(
            Arc::clone(service.artifacts()),
            service.snapshot_handle().clone(),
            ServeConfig::default()
                .with_workers(1)
                .with_request_deadline(Some(Duration::ZERO)),
        );
        let start = Instant::now();
        let (_, results) = service.explain_batch(&goals);
        assert!(start.elapsed() < Duration::from_secs(5));
        for result in results {
            match result.unwrap_err() {
                ServeError::Overloaded { .. } | ServeError::DeadlineExceeded { .. } => {}
                ServeError::Explain { source, .. } => {
                    assert!(matches!(source, ExplainError::ResourceExhausted { .. }))
                }
                other => panic!("unexpected error under a zero deadline: {other}"),
            }
        }
    }

    #[test]
    fn pool_reports_full_width() {
        let (service, goals) = service(3);
        let _ = service.explain_batch(&goals);
        service.heal();
        assert_eq!(service.alive_workers(), 3);
    }
}

//! The server under test, booted as `finkg-serve`'s `main` boots it, and
//! one load phase against it: closed-loop clients beside the open-loop
//! writer.

use crate::client;
use crate::load::{self, judge, Tally, Tick, Window};
use crate::workload::{self, App, Op, Workload, PERIOD};
use explain::{ArtifactCache, Explainer, ProgramArtifacts};
use serve::{ExplainService, HttpServer, ServeConfig, SnapshotHandle, SnapshotUpdate};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vadalog::obs::span::{self, SpanSink};
use vadalog::{ChaseConfig, ChaseOutcome, ChaseSession, Database, DeltaStrategy, Fact};

/// A booted server and what its boot produced.
pub struct Server {
    pub artifacts: Arc<ProgramArtifacts>,
    /// The boot snapshot (version 1).
    pub outcome: Arc<ChaseOutcome>,
    pub handle: SnapshotHandle,
    pub http: HttpServer,
    /// From the start of the artifact build to the first `GET /ready` 200.
    pub setup: Duration,
}

/// The serving configuration `finkg-serve --workers W` uses.
pub fn config(app: &App, workers: usize) -> ServeConfig {
    ServeConfig::default()
        .with_workers(workers)
        .with_app_label(app.label)
}

/// Boots the server in-process on loopback: artifacts (through a cold
/// process cache), the boot chase, then `sink` installed as the span
/// sink, the service and the HTTP front end. With `trace_boot` the sink
/// is installed before the artifact build, so the build and the chase
/// are traced too.
pub fn boot(
    app: &App,
    db: Database,
    workers: usize,
    sink: Arc<dyn SpanSink>,
    trace_boot: bool,
) -> Result<Server, String> {
    span::uninstall();
    ArtifactCache::global().clear();
    if trace_boot {
        span::install(Arc::clone(&sink));
    }
    let started = Instant::now();
    let artifacts = {
        let _span = vadalog::span!("bench.artifacts.build", app = app.label);
        ProgramArtifacts::builder(app.program.clone(), app.goal)
            .with_glossary(&app.glossary)
            .build_cached()
            .map_err(|e| format!("artifact build failed: {e}"))?
    };
    let outcome = {
        let _span = vadalog::span!("bench.chase.run", facts = db.len());
        ChaseSession::new(&app.program)
            .with_config(ChaseConfig::default())
            .run(db)
            .map_err(|e| format!("boot chase failed: {e}"))?
    };
    let outcome = Arc::new(outcome);
    span::install(sink);
    let handle = SnapshotHandle::new(Arc::clone(&outcome));
    let service = Arc::new(ExplainService::new(
        Arc::clone(&artifacts),
        handle.clone(),
        config(app, workers),
    ));
    let http = HttpServer::bind("127.0.0.1:0", service).map_err(|e| format!("bind: {e}"))?;
    wait_ready(http.addr())?;
    Ok(Server {
        artifacts,
        outcome,
        handle,
        http,
        setup: started.elapsed(),
    })
}

fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        match client::request(addr, "GET", "/ready", "") {
            Ok(r) if r.status == 200 => return Ok(()),
            _ if Instant::now() < give_up => std::thread::sleep(Duration::from_millis(1)),
            other => {
                return Err(format!(
                    "server never became ready: {:?}",
                    other.map(|r| r.status).map_err(|e| e.to_string())
                ))
            }
        }
    }
}

/// The reference answers are checked against.
pub enum Reference {
    /// Every published version carries the boot outcome: the expected
    /// `answers` of each client's batches, computed once and compared as
    /// each response arrives.
    Fixed(Vec<Vec<String>>),
    /// Versions change the model: answers are recorded and checked after
    /// the phase, each against a sequential explainer on the version it
    /// reports, rebuilt by replaying the writer's deltas. Checking later
    /// keeps the reference's explain work off the cores under test.
    Replay,
}

impl Reference {
    /// The reference for `batches` on the boot snapshot.
    pub fn new(w: &Workload, server: &Server, batches: &[Vec<Vec<Fact>>]) -> Reference {
        if w.live.is_some() {
            return Reference::Replay;
        }
        let explainer =
            Explainer::for_snapshot(Arc::clone(&server.artifacts), Arc::clone(&server.outcome));
        Reference::Fixed(
            batches
                .iter()
                .map(|client| {
                    client
                        .iter()
                        .map(|goals| workload::expected_answers(&explainer, goals))
                        .collect()
                })
                .collect(),
        )
    }
}

/// An answer kept for checking after the phase.
pub struct Recorded {
    version: u64,
    client: usize,
    batch: usize,
    answers: Digest,
}

/// The length and 64-bit SipHash of an `answers` array. A run records
/// tens of thousands of answers; keeping digests instead of the bytes
/// keeps them out of the process's memory while it is measured.
type Digest = (usize, u64);

fn digest(bytes: &[u8]) -> Digest {
    use std::hash::{DefaultHasher, Hasher};
    let mut h = DefaultHasher::new();
    h.write(bytes);
    (bytes.len(), h.finish())
}

/// Rebuilds every published version of the live workload, in order, by
/// replaying the writer's publishes over the boot snapshot.
pub struct Replay<'p> {
    session: ChaseSession<'p>,
    deltas: &'p [Vec<Op>],
    /// Planned deltas the session has applied.
    applied: usize,
    /// The version the session's live store is.
    version: u64,
    artifacts: Arc<ProgramArtifacts>,
}

impl<'p> Replay<'p> {
    pub fn new(w: &'p Workload, server: &Server) -> Replay<'p> {
        let mut session = ChaseSession::new(&w.app.program);
        session.load(Arc::clone(&server.outcome));
        Replay {
            session,
            deltas: w.live.as_ref().map_or(&[], |l| &l.deltas),
            applied: 0,
            version: 1,
            artifacts: Arc::clone(&server.artifacts),
        }
    }

    /// A reference explainer on `version`, which must not precede the
    /// last version asked for. `published[v]` is the number of planned
    /// deltas version `v + 2` applied.
    fn explainer(&mut self, version: u64, published: &[usize]) -> Result<Explainer, String> {
        if version < self.version {
            return Err(format!("version {version} reported after {}", self.version));
        }
        while self.version < version {
            let n = *published
                .get(self.version as usize - 1)
                .ok_or_else(|| format!("version {version} was never published"))?;
            let delta = workload::delta(&self.deltas[self.applied..self.applied + n]);
            self.session
                .apply_delta(delta)
                .map_err(|e| format!("replaying a delta failed: {e}"))?;
            self.applied += n;
            self.version += 1;
        }
        let live = self.session.live().expect("the replay session is loaded");
        Ok(Explainer::for_snapshot(
            Arc::clone(&self.artifacts),
            Arc::clone(live),
        ))
    }

    /// Checks the answers `phase` recorded, version by version, each
    /// version's answers split over `threads` threads (the load is over,
    /// so the checks compete with nothing), and demotes every mismatch in
    /// its tally. `published` is the writer's [`Writer::published`].
    pub fn check(
        &mut self,
        phase: &mut Phase,
        batches: &[Vec<Vec<Fact>>],
        published: &[usize],
        threads: usize,
    ) -> Result<(), String> {
        let mut recorded = std::mem::take(&mut phase.recorded);
        recorded.sort_by_key(|r| r.version);
        for group in recorded.chunk_by(|a, b| a.version == b.version) {
            let explainer = self.explainer(group[0].version, published)?;
            let wrong: Vec<usize> = std::thread::scope(|s| {
                let checkers: Vec<_> = group
                    .chunks(group.len().div_ceil(threads.max(1)))
                    .map(|part| {
                        let explainer = &explainer;
                        s.spawn(move || {
                            part.iter()
                                .map(|r| (&batches[r.client][r.batch], r.answers))
                                .filter(|(goals, answers)| {
                                    let expected = workload::expected_answers(explainer, goals);
                                    digest(expected.as_bytes()) != *answers
                                })
                                .map(|(goals, _)| goals.len())
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                checkers
                    .into_iter()
                    .flat_map(|h| h.join().expect("checker thread panicked"))
                    .collect()
            });
            for goals in wrong {
                phase.tally.demote(goals);
            }
        }
        Ok(())
    }
}

/// The open-loop writer of the live workload: applies its deltas and
/// publishes each maintained version.
pub struct Writer<'p> {
    session: ChaseSession<'p>,
    deltas: &'p [Vec<Op>],
    /// Planned deltas each published version applied, in version order.
    published: Vec<usize>,
    handle: SnapshotHandle,
}

impl<'p> Writer<'p> {
    /// The writer over the boot snapshot; `None` on a read-only workload.
    pub fn new(w: &'p Workload, server: &Server) -> Option<Writer<'p>> {
        let live = w.live.as_ref()?;
        let mut session = ChaseSession::new(&w.app.program);
        session.load(Arc::clone(&server.outcome));
        Some(Writer {
            session,
            deltas: &live.deltas,
            published: Vec::new(),
            handle: server.handle.clone(),
        })
    }

    /// The live store after every delta applied so far.
    pub fn live(&self) -> &Arc<ChaseOutcome> {
        self.session.live().expect("the writer session is loaded")
    }

    /// Planned deltas each published version applied, in version order.
    pub fn published(&self) -> &[usize] {
        &self.published
    }

    /// Serves `ticks` due ticks with one publish of a merged delta of as
    /// many planned deltas. Returns whether the publish needed a full
    /// re-chase.
    fn tick(&mut self, ticks: usize, traced: bool) -> Result<bool, String> {
        let offset: usize = self.published.iter().sum();
        let planned = self
            .deltas
            .get(offset..offset + ticks)
            .ok_or("the writer ran out of planned deltas")?;
        let delta = workload::delta(planned);
        let applied = {
            let _span = traced.then(|| vadalog::span!("bench.delta.apply", ops = delta.len()));
            self.session
                .apply_delta(delta)
                .map_err(|e| format!("apply_delta failed: {e}"))?
        };
        {
            let _span = traced.then(|| vadalog::span!("bench.snapshot.publish", kind = "delta"));
            self.handle.publish(SnapshotUpdate::delta(&applied));
        }
        self.published.push(ticks);
        Ok(applied.strategy != DeltaStrategy::Incremental)
    }
}

/// The outcome of one load phase.
pub struct Phase {
    pub tally: Tally,
    /// One tick per writer tick; `value` tells whether the publish that
    /// served it needed a full re-chase.
    pub writes: Vec<Tick<bool>>,
    pub seconds: f64,
    /// Answers still to be checked by [`Replay::check`].
    recorded: Vec<Recorded>,
}

impl Phase {
    /// Each writer tick's publish latency, from its due time to the
    /// return of the publish that made it visible, in ms.
    pub fn publish_ms(&self) -> Vec<f64> {
        self.writes
            .iter()
            .map(|t| t.latency.as_secs_f64() * 1e3)
            .collect()
    }
}

/// Writer ticks in a phase of `seconds`.
pub fn ticks_in(seconds: u64) -> usize {
    (Duration::from_secs(seconds).as_millis() / PERIOD.as_millis()) as usize
}

/// Runs one load phase: the clients warm the server up for `warmup`,
/// then are measured for `seconds` while this thread runs the writer, if
/// any, on its schedule from the start of the measured window. Answers
/// the reference could not check on arrival are left for
/// [`Replay::check`].
pub fn phase(
    server: &Server,
    writer: Option<&mut Writer<'_>>,
    reference: &Reference,
    batches: &[Vec<Vec<Fact>>],
    warmup: Duration,
    seconds: u64,
    traced: bool,
) -> Result<Phase, String> {
    let addr = server.http.addr();
    let bodies: Vec<Vec<(String, usize)>> = batches
        .iter()
        .map(|c| c.iter().map(|g| (workload::body(g), g.len())).collect())
        .collect();
    let start = Instant::now() + warmup;
    let window = Window {
        start,
        end: start + Duration::from_secs(seconds),
    };
    let (clients, writes) = std::thread::scope(|s| {
        let clients: Vec<_> = bodies
            .iter()
            .enumerate()
            .map(|(c, bodies)| {
                s.spawn(move || {
                    let mut recorded = Vec::new();
                    let tally = load::closed_loop(addr, bodies, window, |batch, response| {
                        let _span = traced.then(|| vadalog::span!("bench.http.check"));
                        match reference {
                            Reference::Fixed(expected) => judge(&response, |_, answers| {
                                answers == expected[c][batch].as_bytes()
                            }),
                            Reference::Replay => judge(&response, |version, answers| {
                                recorded.push(Recorded {
                                    version,
                                    client: c,
                                    batch,
                                    answers: digest(answers),
                                });
                                true
                            }),
                        }
                    });
                    (tally, recorded)
                })
            })
            .collect();
        let writes = match writer {
            Some(writer) => load::open_loop(start, PERIOD, ticks_in(seconds), |ticks| {
                writer.tick(ticks.len(), traced)
            }),
            None => Vec::new(),
        };
        let clients: Vec<(Tally, Vec<Recorded>)> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (clients, writes)
    });
    let mut tally = Tally::default();
    let mut recorded = Vec::new();
    for (t, r) in clients {
        tally.merge(t);
        recorded.extend(r);
    }
    let writes = writes
        .into_iter()
        .map(|t| {
            t.value.map(|value| Tick {
                late: t.late,
                latency: t.latency,
                value,
                first: t.first,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Phase {
        tally,
        writes,
        seconds: seconds as f64,
        recorded,
    })
}

/// Every fact (with its id, liveness and EDB flag) and every derivation
/// of `outcome`: equal fingerprints mean interchangeable stores.
pub fn structural(outcome: &ChaseOutcome) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for (id, fact) in outcome.database.iter() {
        let _ = writeln!(
            s,
            "{id} {fact} active={} edb={}",
            outcome.database.is_active(id),
            outcome.graph.is_extensional(id)
        );
    }
    for d in outcome.graph.derivations() {
        // Bindings are a hash map: render them in a fixed order.
        let mut bindings: Vec<String> =
            d.bindings.iter().map(|(k, v)| format!("{k}={v}")).collect();
        bindings.sort_unstable();
        let _ = writeln!(
            s,
            "r{} {:?} -> {} round={} contrib={} {}",
            d.rule.0,
            d.premises,
            d.conclusion,
            d.round,
            d.contributors,
            bindings.join(",")
        );
    }
    let _ = write!(
        s,
        "rounds={} violations={:?}",
        outcome.rounds, outcome.violations
    );
    s
}

//! Chaos suite: deterministic fault injection against the serving
//! layer (compile with `--features faultpoints`). Worker panics and
//! crashes must stay isolated — batches complete, the pool respawns to
//! full width, and answers stay byte-identical to an uninjected run at
//! any worker count. A saturated job queue must shed whole batches
//! with `503` + `Retry-After` instead of stalling.
#![cfg(feature = "faultpoints")]

use explain::{Explainer, ProgramArtifacts};
use serve::{ExplainService, HttpServer, ServeConfig, SnapshotHandle};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vadalog::faultpoint::{arm, FaultPlan};
use vadalog::{ChaseOutcome, ChaseSession, Fact};

fn control_outcome(entities: usize, seed: u64) -> ChaseOutcome {
    let program = finkg::apps::control::program();
    let db = finkg::generator::random_ownership(entities, 3, seed);
    ChaseSession::new(&program).run(db).unwrap()
}

fn control_artifacts() -> Arc<ProgramArtifacts> {
    ProgramArtifacts::builder(finkg::apps::control::program(), finkg::apps::control::GOAL)
        .with_glossary(&finkg::apps::control::glossary())
        .build_cached()
        .unwrap()
}

fn derived_goals(outcome: &ChaseOutcome) -> Vec<Fact> {
    outcome
        .facts_of(finkg::apps::control::GOAL)
        .into_iter()
        .filter(|(id, _)| outcome.graph.is_derived(*id))
        .map(|(_, fact)| fact.clone())
        .collect()
}

/// Sequential, fault-free reference answers.
fn reference_texts(artifacts: &Arc<ProgramArtifacts>, outcome: &Arc<ChaseOutcome>) -> Vec<String> {
    let goals = derived_goals(outcome);
    let explainer = Explainer::for_snapshot(Arc::clone(artifacts), Arc::clone(outcome));
    goals
        .iter()
        .map(|goal| explainer.explain(goal).unwrap().text)
        .collect()
}

/// Polls until the pool reports `want` live workers (respawn is async).
fn await_pool_width(service: &ExplainService, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        service.heal();
        if service.alive_workers() == want {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!(
        "pool never respawned to {want} workers (alive: {})",
        service.alive_workers()
    );
}

#[test]
fn injected_worker_panic_keeps_answers_byte_identical() {
    let artifacts = control_artifacts();
    let outcome = Arc::new(control_outcome(30, 7));
    let goals = derived_goals(&outcome);
    assert!(goals.len() >= 4, "workload too small: {}", goals.len());
    let reference = reference_texts(&artifacts, &outcome);

    for workers in [1usize, 2, 8] {
        let service = ExplainService::new(
            Arc::clone(&artifacts),
            SnapshotHandle::new(Arc::clone(&outcome)),
            ServeConfig::default().with_workers(workers),
        );
        let _faults = arm(FaultPlan::new().panic_at("serve.worker", 1));
        let (_, results) = service.explain_batch(&goals);
        let texts: Vec<String> = results
            .into_iter()
            .map(|r| {
                r.expect("batch must complete despite the injected panic")
                    .text
            })
            .collect();
        assert_eq!(
            texts, reference,
            "answers at {workers} workers diverged under an injected worker panic"
        );
        await_pool_width(&service, workers);
    }
}

#[test]
fn crashed_worker_loses_its_job_but_the_batch_recovers() {
    let artifacts = control_artifacts();
    let outcome = Arc::new(control_outcome(30, 11));
    let goals = derived_goals(&outcome);
    let reference = reference_texts(&artifacts, &outcome);
    let service = ExplainService::new(
        Arc::clone(&artifacts),
        SnapshotHandle::new(Arc::clone(&outcome)),
        ServeConfig::default().with_workers(2),
    );
    // A crash drops the job on the floor without reporting: the batch
    // must notice the hole, heal the pool, and retry to the identical
    // answer.
    let _faults = arm(FaultPlan::new().crash_at("serve.worker", 1));
    let (_, results) = service.explain_batch(&goals);
    let texts: Vec<String> = results
        .into_iter()
        .map(|r| {
            r.expect("batch must complete despite the injected crash")
                .text
        })
        .collect();
    assert_eq!(texts, reference);
    await_pool_width(&service, 2);
}

/// One-shot HTTP request; returns (status line, head, body).
fn http(addr: std::net::SocketAddr, request: &str) -> (String, String, String) {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(request.as_bytes()).unwrap();
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match conn.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status = text.lines().next().unwrap_or_default().to_owned();
    let (head, body) = text
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_owned(), b.to_owned()))
        .unwrap_or((text.clone(), String::new()));
    (status, head, body)
}

fn boot_scenario(config: ServeConfig) -> HttpServer {
    let program = finkg::apps::control::program();
    let outcome = ChaseSession::new(&program)
        .run(finkg::scenario::database())
        .unwrap();
    let service = Arc::new(ExplainService::new(
        control_artifacts(),
        SnapshotHandle::new(outcome),
        config,
    ));
    HttpServer::bind("127.0.0.1:0", service).unwrap()
}

#[test]
fn saturated_job_queue_sheds_batches_with_503_retry_after() {
    let mut server = boot_scenario(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_depth(1)
            .with_request_deadline(Some(Duration::from_millis(250)))
            .with_retry_after(Duration::from_secs(3)),
    );
    let addr = server.addr();
    // Every job the one worker takes stalls 800 ms, so the depth-1
    // queue stays full for far longer than any request deadline.
    let _faults = arm(FaultPlan::new().sleep_from("serve.worker", 1, 50, 800));

    let occupier = std::thread::spawn(move || {
        let body = "control(\"B\", \"D\").\ncontrol(\"B\", \"E\").\ncontrol(\"A\", \"B\").";
        let request = format!(
            "POST /explain HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        http(addr, &request)
    });
    std::thread::sleep(Duration::from_millis(120));

    let body = "control(\"B\", \"D\").";
    let request = format!(
        "POST /explain HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let (status, head, body) = http(addr, &request);
    assert!(status.contains("503"), "{status}");
    assert!(
        head.to_ascii_lowercase().contains("retry-after: 3"),
        "{head}"
    );
    assert!(body.contains("queue"), "{body}");

    let (status, _, _) = occupier.join().unwrap();
    assert!(
        status.contains("200"),
        "the occupying batch must still get its (deadline-limited) answer: {status}"
    );
    server.stop();
}

#[test]
fn slow_handler_injection_delays_but_does_not_break_requests() {
    let mut server = boot_scenario(ServeConfig::default().with_workers(1));
    let _faults = arm(FaultPlan::new().sleep_at("serve.handler", 1, 200));
    let started = Instant::now();
    let (status, _, body) = http(server.addr(), "GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(
        started.elapsed() >= Duration::from_millis(200),
        "the injected stall did not fire: {:?}",
        started.elapsed()
    );
    server.stop();
}

#[test]
fn injected_worker_panic_lands_in_the_flight_recorder_with_the_request_trace() {
    let mut server = boot_scenario(ServeConfig::default().with_workers(2));
    let addr = server.addr();
    let _faults = arm(FaultPlan::new().panic_at("serve.worker", 1));

    let goal = "control(\"B\", \"D\").";
    let request = format!(
        "POST /explain HTTP/1.1\r\nHost: x\r\nx-vadalog-trace-id: chaos-flight-7\r\nContent-Length: {}\r\n\r\n{}",
        goal.len(),
        goal
    );
    let (status, head, body) = http(addr, &request);
    // The panic is isolated and retried: the client still gets its
    // answer, with its trace id echoed.
    assert!(status.contains("200"), "{status}");
    assert!(
        head.contains("x-vadalog-trace-id: chaos-flight-7"),
        "{head}"
    );
    assert!(body.contains("\"text\":"), "{body}");

    // The panic froze a flight snapshot; the worker_panic event carries
    // the panicking request's trace id. Search the snapshot and the
    // live tail (a later failure from a parallel test may have taken a
    // newer snapshot).
    let (status, _, flight) = http(addr, "GET /debug/flight HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(status.contains("200"), "{status}");
    let doc = vadalog::obs::json::parse(&flight).expect("/debug/flight is valid JSON");
    let mut events = Vec::new();
    if let Some(snapshot) = doc.get("snapshot") {
        if let Some(list) = snapshot.get("events").and_then(|e| e.as_arr()) {
            events.extend(list.iter());
        }
    }
    if let Some(list) = doc
        .get("tail")
        .and_then(|t| t.get("events"))
        .and_then(|e| e.as_arr())
    {
        events.extend(list.iter());
    }
    assert!(
        events.iter().any(|e| {
            e.get("kind").and_then(|v| v.as_str()) == Some("worker_panic")
                && e.get("trace_id").and_then(|v| v.as_str()) == Some("chaos-flight-7")
        }),
        "no worker_panic event with the request's trace id in {flight}"
    );
    server.stop();
}

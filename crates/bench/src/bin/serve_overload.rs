//! Regenerates `results/BENCH_serve_overload.json`: serving-layer
//! behaviour under queue oversubscription.
//!
//! Concurrent clients submit explanation batches whose combined goal
//! count oversubscribes the bounded job queue by 1x / 4x / 16x, all
//! under a tight per-request deadline. Recorded per level: answered
//! throughput, shed rate ([`ServeError::Overloaded`]), deadline rate
//! (deadline-exceeded or resource-exhausted), and wall time. The load
//! shedder's contract — every submitted goal resolves to a structured
//! outcome, nothing hangs — is asserted at every level; the actual
//! rates are reported, not pretended, since they depend on host speed.
//!
//! Usage: `cargo run --release -p bench --bin serve_overload [-- DATE]`.

use bench::measure;
use explain::ProgramArtifacts;
use serve::{ExplainService, ServeConfig, ServeError, SnapshotHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vadalog::{ChaseOutcome, ChaseSession, Fact};

const ENTITIES: usize = 220;
const EDGES_PER_ENTITY: usize = 3;
const SEED: u64 = 7;
const WORKERS: usize = 2;
const QUEUE_DEPTH: usize = 32;
/// Goals per client batch — sized to the queue, so client count alone
/// sets the oversubscription factor.
const BATCH_GOALS: usize = 32;
const ROUNDS: usize = 30;
const DEADLINE: Duration = Duration::from_millis(5);
const OVERSUBSCRIPTION: [usize; 3] = [1, 4, 16];
/// The whole bench must finish far below this; a hang means the load
/// shedder lost a goal.
const WALL_LIMIT: Duration = Duration::from_secs(120);

fn derived_goals(outcome: &ChaseOutcome) -> Vec<Fact> {
    outcome
        .facts_of(finkg::apps::control::GOAL)
        .into_iter()
        .filter(|(id, _)| outcome.graph.is_derived(*id))
        .map(|(_, fact)| fact.clone())
        .collect()
}

#[derive(Default)]
struct Tally {
    submitted: u64,
    answered: u64,
    shed: u64,
    deadline: u64,
    other_errors: u64,
}

struct Level {
    clients: usize,
    tally: Tally,
    total_ms: f64,
    answered_qps: f64,
    shed_rate: f64,
    deadline_rate: f64,
}

fn main() {
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let program = finkg::apps::control::program();
    let db = finkg::generator::random_ownership(ENTITIES, EDGES_PER_ENTITY, SEED);
    let outcome = Arc::new(ChaseSession::new(&program).run(db).unwrap());
    let goals = derived_goals(&outcome);
    assert!(
        goals.len() >= BATCH_GOALS,
        "workload too small: {} goals",
        goals.len()
    );
    let artifacts = ProgramArtifacts::builder(program, finkg::apps::control::GOAL)
        .with_glossary(&finkg::apps::control::glossary())
        .build_cached()
        .unwrap();
    let handle = SnapshotHandle::new(Arc::clone(&outcome));

    let bench_start = Instant::now();
    let mut levels = Vec::new();
    for clients in OVERSUBSCRIPTION {
        let service = Arc::new(ExplainService::new(
            Arc::clone(&artifacts),
            handle.clone(),
            ServeConfig::default()
                .with_workers(WORKERS)
                .with_queue_depth(QUEUE_DEPTH)
                .with_request_deadline(Some(DEADLINE)),
        ));
        let batch: Vec<Fact> = goals.iter().cycle().take(BATCH_GOALS).cloned().collect();

        let start = Instant::now();
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let service = Arc::clone(&service);
                    let batch = &batch;
                    scope.spawn(move || {
                        let mut tally = Tally::default();
                        for _ in 0..ROUNDS {
                            let (_, results) = service.explain_batch(batch);
                            tally.submitted += results.len() as u64;
                            for result in results {
                                match result {
                                    Ok(_) => tally.answered += 1,
                                    Err(ServeError::Overloaded { .. }) => tally.shed += 1,
                                    Err(ServeError::DeadlineExceeded { .. }) => tally.deadline += 1,
                                    // All goals are valid derived facts, so an
                                    // Explain error here is the governed
                                    // ResourceExhausted deadline trip.
                                    Err(ServeError::Explain { .. }) => tally.deadline += 1,
                                    Err(_) => tally.other_errors += 1,
                                }
                            }
                        }
                        tally
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut tally = Tally::default();
        for t in tallies {
            tally.submitted += t.submitted;
            tally.answered += t.answered;
            tally.shed += t.shed;
            tally.deadline += t.deadline;
            tally.other_errors += t.other_errors;
        }
        assert_eq!(
            tally.submitted,
            (clients * ROUNDS * BATCH_GOALS) as u64,
            "every goal must resolve to a structured outcome"
        );
        assert_eq!(
            tally.other_errors, 0,
            "overload must map to Overloaded/DeadlineExceeded/Explain, nothing else"
        );
        let level = Level {
            clients,
            answered_qps: tally.answered as f64 / (total_ms / 1e3).max(1e-9),
            shed_rate: tally.shed as f64 / tally.submitted as f64,
            deadline_rate: tally.deadline as f64 / tally.submitted as f64,
            tally,
            total_ms,
        };
        println!(
            "{}x oversubscription ({} clients): {:.0} answered/s, {:.1}% shed, {:.1}% deadline, {:.0} ms",
            clients, clients, level.answered_qps, level.shed_rate * 1e2,
            level.deadline_rate * 1e2, level.total_ms
        );
        levels.push(level);
    }
    assert!(
        bench_start.elapsed() < WALL_LIMIT,
        "overload bench exceeded its wall limit — the shedder is stalling"
    );

    measure::write_result(
        "serve_overload",
        "Serving-layer load shedding under queue oversubscription. N \
         concurrent clients each submit 32-goal explanation batches \
         (30 rounds) against a 2-worker service with a 32-deep job \
         queue and a 5 ms request deadline, so N = the oversubscription \
         factor. Per level: answered throughput, shed rate (structured \
         Overloaded), deadline rate (DeadlineExceeded or governed \
         ResourceExhausted). Asserted: every goal resolves to a \
         structured outcome and the bench never stalls; the rates \
         themselves are host-dependent and recorded as observed. \
         Regenerate with `cargo run --release -p bench --bin \
         serve_overload -- $(date +%F)`.",
        |jw| {
            jw.field_u64("host_parallelism", host_parallelism as u64);
            jw.key("workload");
            jw.open_object();
            jw.field_str("app", "control");
            jw.field_u64("entities", ENTITIES as u64);
            jw.field_u64("edges_per_entity", EDGES_PER_ENTITY as u64);
            jw.field_u64("seed", SEED);
            jw.field_u64("workers", WORKERS as u64);
            jw.field_u64("queue_depth", QUEUE_DEPTH as u64);
            jw.field_u64("batch_goals", BATCH_GOALS as u64);
            jw.field_u64("rounds_per_client", ROUNDS as u64);
            jw.field_f64("request_deadline_ms", DEADLINE.as_secs_f64() * 1e3);
            jw.close_object();
            jw.key("levels");
            jw.open_array();
            for level in &levels {
                jw.open_object();
                jw.field_u64("oversubscription", level.clients as u64);
                jw.field_u64("clients", level.clients as u64);
                jw.field_u64("goals_submitted", level.tally.submitted);
                jw.field_u64("answered", level.tally.answered);
                jw.field_u64("shed", level.tally.shed);
                jw.field_u64("deadline_exceeded", level.tally.deadline);
                jw.field_f64("total_ms", level.total_ms);
                jw.field_f64("answered_qps", level.answered_qps);
                jw.field_f64("shed_rate", level.shed_rate);
                jw.field_f64("deadline_rate", level.deadline_rate);
                jw.close_object();
            }
            jw.close_array();
        },
    );
}

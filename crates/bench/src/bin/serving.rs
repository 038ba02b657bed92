//! Regenerates `results/BENCH_serving.json`: explanation-serving
//! throughput over an Arc-shared chase snapshot.
//!
//! Three paired measurements ([`bench::measure::paired`]) isolate what
//! the serving layer buys:
//!
//! * *cold* — every request rebuilds the program artifacts from scratch
//!   (structural analysis + both template catalogs), the price every
//!   caller paid per pipeline before artifacts became cacheable;
//! * *cached* — every request takes its `ProgramArtifacts` edition out
//!   of the process-wide cache and pays only the per-goal explanation;
//! * *concurrent* — the `ExplainService` worker pool at 1 and 2 workers
//!   answering batched goals, after every answer at 1/2/8 workers is
//!   asserted byte-identical to the sequential baseline.
//!
//! Gates: `vadalog_explain_analysis_runs_total` grows by exactly one per
//! cold request and not at all over the cached ones; the median paired
//! cold/cached ratio reaches [`REQUIRED_CACHED_SPEEDUP`]; and the median
//! paired 1/2-worker ratio reaches [`REQUIRED_SCALING`] when the host
//! has a second core (on one core, wall-clock scaling is unobservable
//! and the ratio is recorded without asserting).
//!
//! Usage: `cargo run --release -p bench --bin serving [-- DATE]`.

use bench::measure;
use explain::{Explainer, ProgramArtifacts};
use finkg::apps::control;
use serve::{ExplainService, ServeConfig, SnapshotHandle};
use std::sync::Arc;
use vadalog::{ChaseOutcome, ChaseSession, Fact};

const ENTITIES: usize = 220;
const EDGES_PER_ENTITY: usize = 3;
const SEED: u64 = 7;
const WORKERS: [usize; 3] = [1, 2, 8];
/// Sharing cached artifacts must be at least this much faster than
/// rebuilding them per request.
const REQUIRED_CACHED_SPEEDUP: f64 = 5.0;
/// Minimum 1 -> 2 worker throughput ratio, asserted only when the host
/// actually has a second core to scale onto.
const REQUIRED_SCALING: f64 = 1.3;

/// All derived goal facts of `outcome`, in derivation order.
fn derived_goals(outcome: &ChaseOutcome) -> Vec<Fact> {
    outcome
        .facts_of(control::GOAL)
        .into_iter()
        .filter(|(id, _)| outcome.graph.is_derived(*id))
        .map(|(_, fact)| fact.clone())
        .collect()
}

/// The requests one side of the cold/cached measurement answered, and
/// the structural analyses they ran.
#[derive(Default)]
struct Tally {
    requests: u64,
    analysis_runs: u64,
}

fn main() {
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let program = control::program();
    let glossary = control::glossary();
    let db = finkg::generator::random_ownership(ENTITIES, EDGES_PER_ENTITY, SEED);
    let outcome = Arc::new(ChaseSession::new(&program).run(db).unwrap());
    let goals = derived_goals(&outcome);
    assert!(goals.len() >= 10, "workload too small: {}", goals.len());

    let analysis_counter = vadalog::obs::metrics::global().counter(
        "vadalog_explain_analysis_runs_total",
        "Structural analyses executed while building program artifacts.",
    );
    // The one analysis of the cached edition, before any request.
    let artifacts = ProgramArtifacts::builder(program.clone(), control::GOAL)
        .with_glossary(&glossary)
        .build_cached()
        .unwrap();

    // One request: build the artifacts (plainly when cold, through the
    // process-wide cache otherwise), then explain one goal.
    let request = |cached: bool, goal: &Fact, tally: &mut Tally| {
        let before = analysis_counter.get();
        let builder =
            ProgramArtifacts::builder(program.clone(), control::GOAL).with_glossary(&glossary);
        let artifacts = if cached {
            builder.build_cached().unwrap()
        } else {
            Arc::new(builder.build().unwrap())
        };
        let text = Explainer::for_snapshot(artifacts, Arc::clone(&outcome))
            .explain(goal)
            .unwrap()
            .text;
        assert!(!text.is_empty(), "request for {goal} produced no text");
        tally.requests += 1;
        tally.analysis_runs += analysis_counter.get() - before;
        text
    };
    let (mut cold, mut cached) = (Tally::default(), Tally::default());
    let (mut cold_goals, mut cached_goals) = (goals.iter().cycle(), goals.iter().cycle());
    let requests = measure::paired(
        || request(false, cold_goals.next().unwrap(), &mut cold),
        || request(true, cached_goals.next().unwrap(), &mut cached),
    );

    // Concurrent: the worker pool over one shared snapshot. Answers are
    // compared byte-for-byte against the sequential reference at every
    // worker count before any number is trusted.
    let explainer = Explainer::for_snapshot(Arc::clone(&artifacts), Arc::clone(&outcome));
    let reference: Vec<String> = goals
        .iter()
        .map(|goal| explainer.explain(goal).unwrap().text)
        .collect();
    let handle = SnapshotHandle::new(Arc::clone(&outcome));
    let service = |workers: usize| {
        ExplainService::new(
            Arc::clone(&artifacts),
            handle.clone(),
            ServeConfig::default().with_workers(workers),
        )
    };
    for workers in WORKERS {
        let (_, results) = service(workers).explain_batch(&goals);
        let texts: Vec<String> = results.into_iter().map(|r| r.unwrap().text).collect();
        assert_eq!(
            texts, reference,
            "answers at {workers} workers diverge from the sequential baseline"
        );
    }
    let services = [service(1), service(2)];
    let batch = |service: &ExplainService| {
        let (_, results) = service.explain_batch(&goals);
        assert!(results.iter().all(Result::is_ok));
        results
    };
    let scaling = measure::paired(|| batch(&services[0]), || batch(&services[1]));

    let cached_speedup = requests.ratio().median;
    let scaling_1_to_2 = scaling.ratio().median;
    let scaling_asserted = host_parallelism >= 2;
    let per_goal = 1e6 / goals.len() as f64;
    println!(
        "cold {:.0} us/req, cached {:.1} us/req, paired ratio x{:.1} \
         ({} cold requests ran {} analyses, {} cached requests ran {})",
        measure::summary(&requests.a).median * 1e6,
        measure::summary(&requests.b).median * 1e6,
        cached_speedup,
        cold.requests,
        cold.analysis_runs,
        cached.requests,
        cached.analysis_runs,
    );
    println!(
        "1 worker {:.1} us/goal, 2 workers {:.1} us/goal, paired ratio x{scaling_1_to_2:.2} \
         on a {host_parallelism}-core host",
        measure::summary(&scaling.a).median * per_goal,
        measure::summary(&scaling.b).median * per_goal,
    );
    assert_eq!(
        cold.analysis_runs, cold.requests,
        "cold requests must re-analyze once each"
    );
    assert_eq!(
        cached.analysis_runs, 0,
        "cached requests must never re-run analysis"
    );
    assert!(
        cached_speedup >= REQUIRED_CACHED_SPEEDUP,
        "cached artifacts only x{cached_speedup:.2} over cold (need x{REQUIRED_CACHED_SPEEDUP})"
    );
    assert!(
        !scaling_asserted || scaling_1_to_2 >= REQUIRED_SCALING,
        "1 -> 2 workers only scaled x{scaling_1_to_2:.2} on a \
         {host_parallelism}-core host (need x{REQUIRED_SCALING})"
    );

    measure::write_result(
        "serving",
        "Serving-layer throughput over an Arc-shared chase snapshot. \
         'cold' requests rebuild ProgramArtifacts (structural analysis + \
         both template catalogs); 'cached' requests take one edition out \
         of the process-wide ArtifactCache; 'concurrent' drives the \
         ExplainService worker pool at 1 and 2 workers over batched \
         goals, after every answer at 1/2/8 workers is asserted \
         byte-identical to the sequential baseline. Gates: the analysis \
         counter grows once per cold request and never for a cached \
         one; the median paired cold/cached ratio reaches \
         required_cached_speedup; the median paired 1/2-worker ratio \
         reaches required_scaling when host_parallelism >= 2. Times are \
         median [q1, q3] of paired samples. Regenerate with `cargo run \
         --release -p bench --bin serving -- $(date +%F)`.",
        |jw| {
            jw.field_u64("host_parallelism", host_parallelism as u64);
            jw.field_u64("pairs", measure::PAIRS as u64);
            jw.key("workload");
            jw.open_object();
            jw.field_str("app", "control");
            jw.field_u64("entities", ENTITIES as u64);
            jw.field_u64("edges_per_entity", EDGES_PER_ENTITY as u64);
            jw.field_u64("seed", SEED);
            jw.field_u64("derived_goals", goals.len() as u64);
            jw.field_u64("derived_facts", outcome.derived_facts as u64);
            jw.close_object();
            for (key, tally, samples) in [
                ("cold", &cold, &requests.a),
                ("cached", &cached, &requests.b),
            ] {
                jw.key(key);
                jw.open_object();
                jw.field_u64("requests", tally.requests);
                jw.field_u64("analysis_runs", tally.analysis_runs);
                measure::write_quartiles(jw, "request_us", samples, 1e6);
                jw.close_object();
            }
            jw.field_f64("required_cached_speedup", REQUIRED_CACHED_SPEEDUP);
            measure::write_quartiles(jw, "cold_over_cached", &requests.ratios, 1.0);
            jw.key("concurrent");
            jw.open_object();
            jw.field_str("byte_identical_at_workers", "1, 2, 8");
            measure::write_quartiles(jw, "one_worker_goal_us", &scaling.a, per_goal);
            measure::write_quartiles(jw, "two_workers_goal_us", &scaling.b, per_goal);
            measure::write_quartiles(jw, "one_over_two_workers", &scaling.ratios, 1.0);
            jw.close_object();
            jw.field_f64("required_scaling", REQUIRED_SCALING);
            jw.field_str(
                "scaling_asserted",
                if scaling_asserted { "true" } else { "false" },
            );
        },
    );
}

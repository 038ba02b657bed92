//! The traced run's per-layer numbers, each taken by timing calls into
//! one layer's public functions from here, under the benchmark's own
//! `bench.*` spans.

use crate::serving::{self, Phase, Server};
use crate::stats::{median, tail};
use crate::workload;
use crate::workload::Workload;
use crate::Metric;
use explain::{Explainer, ProgramArtifacts};
use serve::{ExplainService, ServeError, SnapshotHandle, SnapshotUpdate};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vadalog::{ChaseSession, DeltaStrategy, Fact};

/// Per-layer metric names, in report order. `BENCHMARK.json` lists the
/// same names under `per_layer`.
pub const NAMES: [&str; 48] = [
    "http.overhead_us",
    "http.bytes_per_goal",
    "http.refused",
    "service.batch_us_p50",
    "service.hop_us",
    "service.scaling_2w",
    "service.errors_explain",
    "service.errors_overloaded",
    "service.errors_deadline",
    "service.errors_worker_panic",
    "service.errors_other",
    "explain.goal_us_p50",
    "explain.goal_us_p99",
    "explain.us_per_step",
    "explain.scaling_2t",
    "explain.steps_per_goal",
    "explain.paths_per_goal",
    "explain.support_per_goal",
    "explain.text_bytes_per_goal",
    "artifacts.build_ms",
    "artifacts.analysis_ms",
    "artifacts.template_ms",
    "artifacts.paths",
    "artifacts.templates",
    "chase.run_ms",
    "chase.match_ms",
    "chase.merge_ms",
    "chase.commit_ms",
    "chase.aggregate_ms",
    "chase.index_build_ms",
    "chase.rounds",
    "chase.matches",
    "chase.commits",
    "chase.index_probes",
    "chase.scans",
    "chase.facts",
    "chase.peak_bytes",
    "delta.apply_ms_p50",
    "delta.apply_ms_p90",
    "delta.incremental_ratio",
    "delta.facts_added",
    "delta.facts_removed",
    "delta.facts_rederived",
    "snapshot.publish_us_p50",
    "load.late_ms_max",
    "tracing.overhead_pct",
    "writer.publish_p50_ms",
    "writer.publish_p90_ms",
];

/// Goals the explain and service layers are timed on.
const LAYER_GOALS: usize = 4096;
/// Repetitions of each scaling measurement (the median is reported).
const SCALING_REPS: usize = 3;
/// Artifact builds timed (the median is reported).
const BUILDS: usize = 5;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Measures every layer. `untraced` and `traced` are the two load
/// phases of the traced run, identical but for the span sink.
pub fn measure(
    w: &Workload,
    server: &Server,
    batches: &[Vec<Vec<Fact>>],
    nproc: usize,
    deltas: usize,
    untraced: &Phase,
    traced: &Phase,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let service = service_layer(w, server, batches, nproc, &mut out)?;
    http_layer(untraced, traced, service, &mut out)?;
    explain_layer(server, batches, &mut out)?;
    artifacts_layer(w, &mut out)?;
    chase_layer(server, &mut out);
    delta_layer(w, server, deltas, &mut out)?;
    out.sort_by_key(|m| NAMES.iter().position(|n| *n == m.name));
    Ok(out)
}

/// The first goals of the clients' batches, interleaved batch by batch.
fn layer_batches(batches: &[Vec<Vec<Fact>>]) -> Vec<Vec<Vec<Fact>>> {
    let goals_per_batch = batches[0][0].len();
    let per_client = (LAYER_GOALS / goals_per_batch / batches.len()).max(1);
    batches
        .iter()
        .map(|c| c.iter().take(per_client).cloned().collect())
        .collect()
}

fn explain_layer(
    server: &Server,
    batches: &[Vec<Vec<Fact>>],
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let goals: Vec<Fact> = layer_batches(batches)
        .into_iter()
        .flatten()
        .flatten()
        .collect();
    let explainer =
        Explainer::for_snapshot(Arc::clone(&server.artifacts), Arc::clone(&server.outcome));
    let mut times = Vec::with_capacity(goals.len());
    let (mut steps, mut paths, mut support, mut text) = (0usize, 0usize, 0usize, 0usize);
    for goal in &goals {
        let t = Instant::now();
        let e = {
            let _span = vadalog::span!("bench.explain", goal = goal.to_string());
            explainer.explain(goal)
        };
        times.push(us(t.elapsed()));
        let e = e.map_err(|e| format!("reference explain of {goal} failed: {e}"))?;
        steps += e.chase_steps;
        paths += e.paths.len();
        support += e.support.len();
        text += e.text.len();
    }
    let n = goals.len() as f64;
    let total: f64 = times.iter().sum();
    let scaling: Vec<f64> = (0..SCALING_REPS)
        .map(|_| {
            let one = timed(|| explain_all(&explainer, &goals));
            let two = timed(|| {
                std::thread::scope(|s| {
                    for half in goals.chunks(goals.len().div_ceil(2)) {
                        let explainer = &explainer;
                        s.spawn(move || explain_all(explainer, half));
                    }
                })
            });
            one.as_secs_f64() / two.as_secs_f64()
        })
        .collect();
    out.extend([
        Metric::new(
            "explain.goal_us_p50",
            tail(&times, 50.0)?,
            "us",
            times.len(),
        ),
        Metric::new(
            "explain.goal_us_p99",
            tail(&times, 99.0)?,
            "us",
            times.len(),
        ),
        Metric::new(
            "explain.us_per_step",
            total / steps.max(1) as f64,
            "us",
            times.len(),
        ),
        Metric::new(
            "explain.scaling_2t",
            median(&scaling),
            "ratio",
            SCALING_REPS,
        ),
        Metric::new(
            "explain.steps_per_goal",
            steps as f64 / n,
            "count",
            goals.len(),
        ),
        Metric::new(
            "explain.paths_per_goal",
            paths as f64 / n,
            "count",
            goals.len(),
        ),
        Metric::new(
            "explain.support_per_goal",
            support as f64 / n,
            "count",
            goals.len(),
        ),
        Metric::new(
            "explain.text_bytes_per_goal",
            text as f64 / n,
            "bytes",
            goals.len(),
        ),
    ]);
    Ok(())
}

fn explain_all(explainer: &Explainer, goals: &[Fact]) {
    for goal in goals {
        let _span = vadalog::span!("bench.explain", goal = goal.to_string());
        std::hint::black_box(explainer.explain(goal).ok());
    }
}

fn timed(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

/// `ServeError` kinds counted by the service layer.
#[derive(Default)]
struct Errors {
    explain: u64,
    overloaded: u64,
    deadline: u64,
    worker_panic: u64,
    other: u64,
}

impl Errors {
    fn count(&mut self, e: &ServeError) {
        match e {
            ServeError::Explain { .. } => self.explain += 1,
            ServeError::Overloaded { .. } => self.overloaded += 1,
            ServeError::DeadlineExceeded { .. } => self.deadline += 1,
            ServeError::WorkerPanic { .. } => self.worker_panic += 1,
            _ => self.other += 1,
        }
    }
}

/// Calls `explain_batch` on `batches` from one thread per batch list,
/// concurrently; returns the wall time and each call's time in µs.
fn run_batches(
    service: &ExplainService,
    callers: &[&[Vec<Fact>]],
    errors: &mut Errors,
) -> (Duration, Vec<f64>) {
    let t = Instant::now();
    let results: Vec<(Vec<f64>, Vec<ServeError>)> = std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .iter()
            .map(|batches| {
                s.spawn(move || {
                    let mut times = Vec::with_capacity(batches.len());
                    let mut errors = Vec::new();
                    for goals in batches.iter() {
                        let t = Instant::now();
                        let (_, results) = {
                            let _span = vadalog::span!("bench.service.batch", goals = goals.len());
                            service.explain_batch(goals)
                        };
                        times.push(us(t.elapsed()));
                        errors.extend(results.into_iter().filter_map(Result::err));
                    }
                    (times, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("service caller panicked"))
            .collect()
    });
    let wall = t.elapsed();
    let mut times = Vec::new();
    for (t, e) in results {
        times.extend(t);
        e.iter().for_each(|e| errors.count(e));
    }
    (wall, times)
}

/// Returns the `explain_batch` p50 at the workload's concurrency, in µs.
fn service_layer(
    w: &Workload,
    server: &Server,
    batches: &[Vec<Vec<Fact>>],
    nproc: usize,
    out: &mut Vec<Metric>,
) -> Result<f64, String> {
    let batches = layer_batches(batches);
    let all: Vec<Vec<Fact>> = batches.iter().flatten().cloned().collect();
    let goals: usize = all.iter().map(Vec::len).sum();
    // Every service here answers on the boot snapshot, as the explain
    // layer does, whatever the writer has published since.
    let service = |workers| {
        ExplainService::new(
            Arc::clone(&server.artifacts),
            SnapshotHandle::new(Arc::clone(&server.outcome)),
            serving::config(&w.app, workers),
        )
    };
    let mut errors = Errors::default();
    let callers: Vec<&[Vec<Fact>]> = batches.iter().map(Vec::as_slice).collect();
    let (_, times) = run_batches(&service(nproc), &callers, &mut errors);
    let batch_p50 = tail(&times, 50.0)?;

    let explainer =
        Explainer::for_snapshot(Arc::clone(&server.artifacts), Arc::clone(&server.outcome));
    let halves: Vec<&[Vec<Fact>]> = all.chunks(all.len().div_ceil(2)).collect();
    let (one, two) = (service(1), service(2));
    let mut hops = Vec::new();
    let mut scaling = Vec::new();
    for _ in 0..SCALING_REPS {
        let sequential = timed(|| explain_all(&explainer, &all.concat()));
        let (t11, _) = run_batches(&one, &[&all], &mut errors);
        let (t22, _) = run_batches(&two, &halves, &mut errors);
        hops.push((us(t11) - us(sequential)) / goals as f64);
        scaling.push(t11.as_secs_f64() / t22.as_secs_f64());
    }
    out.extend([
        Metric::new("service.batch_us_p50", batch_p50, "us", times.len()),
        Metric::new("service.hop_us", median(&hops), "us", SCALING_REPS),
        Metric::new(
            "service.scaling_2w",
            median(&scaling),
            "ratio",
            SCALING_REPS,
        ),
        Metric::new("service.errors_explain", errors.explain as f64, "count", 1),
        Metric::new(
            "service.errors_overloaded",
            errors.overloaded as f64,
            "count",
            1,
        ),
        Metric::new(
            "service.errors_deadline",
            errors.deadline as f64,
            "count",
            1,
        ),
        Metric::new(
            "service.errors_worker_panic",
            errors.worker_panic as f64,
            "count",
            1,
        ),
        Metric::new("service.errors_other", errors.other as f64, "count", 1),
    ]);
    Ok(batch_p50)
}

fn http_layer(
    untraced: &Phase,
    traced: &Phase,
    service_p50_us: f64,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let t = &traced.tally;
    let goals_per_s = |p: &Phase| {
        p.tally
            .samples
            .iter()
            .map(|s| f64::from(s.goals_correct))
            .sum::<f64>()
            / p.seconds
    };
    let (plain, with_spans) = (goals_per_s(untraced), goals_per_s(traced));
    out.extend([
        Metric::new(
            "http.overhead_us",
            tail(&t.latencies_ms(), 50.0)? * 1e3 - service_p50_us,
            "us",
            t.samples.len(),
        ),
        Metric::new(
            "http.bytes_per_goal",
            t.response_bytes as f64 / t.window_goals.max(1) as f64,
            "bytes",
            t.samples.len(),
        ),
        Metric::new(
            "http.refused",
            (untraced.tally.requests_refused + t.requests_refused) as f64,
            "count",
            untraced.tally.samples.len() + t.samples.len(),
        ),
        Metric::new(
            "tracing.overhead_pct",
            (plain - with_spans) / plain.max(f64::MIN_POSITIVE) * 100.0,
            "%",
            2,
        ),
        Metric::new(
            "load.late_ms_max",
            traced
                .writes
                .iter()
                .map(|t| t.late)
                .max()
                .unwrap_or_default()
                .as_secs_f64()
                * 1e3,
            "ms",
            traced.writes.len(),
        ),
    ]);
    // The live workload's publish latency, from the untraced load as the
    // end-to-end run measures it.
    let publish = untraced.publish_ms();
    let (p50, p90) = if publish.is_empty() {
        (0.0, 0.0)
    } else {
        (tail(&publish, 50.0)?, tail(&publish, 90.0)?)
    };
    out.extend([
        Metric::new("writer.publish_p50_ms", p50, "ms", publish.len()),
        Metric::new("writer.publish_p90_ms", p90, "ms", publish.len()),
    ]);
    Ok(())
}

fn artifacts_layer(w: &Workload, out: &mut Vec<Metric>) -> Result<(), String> {
    let (mut build, mut analysis, mut template) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = (0, 0);
    for _ in 0..BUILDS {
        let t = Instant::now();
        let artifacts = {
            let _span = vadalog::span!("bench.artifacts.build", app = w.app.label);
            ProgramArtifacts::builder(w.app.program.clone(), w.app.goal)
                .with_glossary(&w.app.glossary)
                .build()
                .map_err(|e| format!("artifact build failed: {e}"))?
        };
        build.push(t.elapsed().as_secs_f64() * 1e3);
        let report = artifacts.telemetry();
        analysis.push(ms(report.analysis_ns));
        template.push(ms(report.template_ns));
        counts = (report.paths, report.templates);
    }
    out.extend([
        Metric::new("artifacts.build_ms", median(&build), "ms", BUILDS),
        Metric::new("artifacts.analysis_ms", median(&analysis), "ms", BUILDS),
        Metric::new("artifacts.template_ms", median(&template), "ms", BUILDS),
        Metric::new("artifacts.paths", counts.0 as f64, "count", 1),
        Metric::new("artifacts.templates", counts.1 as f64, "count", 1),
    ]);
    Ok(())
}

/// The boot chase, from the `RunReport` it returned.
fn chase_layer(server: &Server, out: &mut Vec<Metric>) {
    let r = &server.outcome.report;
    let t = &r.timings;
    out.extend([
        Metric::new("chase.run_ms", ms(t.total_ns), "ms", 1),
        Metric::new("chase.match_ms", ms(t.match_ns), "ms", 1),
        Metric::new("chase.merge_ms", ms(t.merge_ns), "ms", 1),
        Metric::new("chase.commit_ms", ms(t.commit_ns), "ms", 1),
        Metric::new("chase.aggregate_ms", ms(t.aggregate_ns), "ms", 1),
        Metric::new("chase.index_build_ms", ms(t.index_build_ns), "ms", 1),
        Metric::new("chase.rounds", f64::from(r.rounds), "count", 1),
        Metric::new("chase.matches", r.total_matches() as f64, "count", 1),
        Metric::new("chase.commits", r.total_commits() as f64, "count", 1),
        Metric::new(
            "chase.index_probes",
            r.total_index_probes() as f64,
            "count",
            1,
        ),
        Metric::new("chase.scans", r.total_scans() as f64, "count", 1),
        Metric::new("chase.facts", r.peak.facts as f64, "count", 1),
        Metric::new("chase.peak_bytes", r.peak.approx_bytes as f64, "bytes", 1),
    ]);
}

/// `apply_delta` and `publish`, called directly: the first `count`
/// planned deltas one at a time over the boot snapshot, each published
/// to a private snapshot slot, so the counts repeat exactly whatever the
/// load phases merged. On the read-only workloads `count` refreshes of
/// the boot snapshot are published instead.
fn delta_layer(
    w: &Workload,
    server: &Server,
    count: usize,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let planned = w.live.as_ref().map_or(&[][..], |l| &l.deltas[..count]);
    let handle = SnapshotHandle::new(Arc::clone(&server.outcome));
    let mut session = ChaseSession::new(&w.app.program);
    session.load(Arc::clone(&server.outcome));
    let (mut apply, mut publish) = (Vec::new(), Vec::new());
    let (mut incremental, mut added, mut removed, mut rederived) = (0, 0, 0, 0);
    for ops in planned {
        let delta = workload::delta(std::slice::from_ref(ops));
        let t = Instant::now();
        let applied = {
            let _span = vadalog::span!("bench.delta.apply", ops = delta.len());
            session
                .apply_delta(delta)
                .map_err(|e| format!("apply_delta failed: {e}"))?
        };
        apply.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        {
            let _span = vadalog::span!("bench.snapshot.publish", kind = "delta");
            handle.publish(SnapshotUpdate::delta(&applied));
        }
        publish.push(us(t.elapsed()));
        incremental += usize::from(applied.strategy == DeltaStrategy::Incremental);
        added += applied.facts_added;
        removed += applied.facts_removed;
        rederived += applied.facts_rederived;
    }
    if planned.is_empty() {
        for _ in 0..count {
            let t = Instant::now();
            let _span = vadalog::span!("bench.snapshot.publish", kind = "full");
            handle.publish(SnapshotUpdate::full(Arc::clone(&server.outcome)));
            publish.push(us(t.elapsed()));
        }
    }
    let n = apply.len();
    let (apply_p50, apply_p90) = if n == 0 {
        (0.0, 0.0)
    } else {
        (tail(&apply, 50.0)?, tail(&apply, 90.0)?)
    };
    out.extend([
        Metric::new("delta.apply_ms_p50", apply_p50, "ms", n),
        Metric::new("delta.apply_ms_p90", apply_p90, "ms", n),
        Metric::new(
            "delta.incremental_ratio",
            incremental as f64 / n.max(1) as f64,
            "ratio",
            n,
        ),
        Metric::new("delta.facts_added", added as f64, "count", n),
        Metric::new("delta.facts_removed", removed as f64, "count", n),
        Metric::new("delta.facts_rederived", rederived as f64, "count", n),
        Metric::new(
            "snapshot.publish_us_p50",
            tail(&publish, 50.0)?,
            "us",
            publish.len(),
        ),
    ]);
    Ok(())
}

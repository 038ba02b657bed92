//! Criterion benchmarks of explanation generation (the Fig. 18 quantity):
//! per-query latency of `Explainer::explain_id` at several proof
//! lengths, for both applications, plus the cost of an artifact build
//! through the process-wide cache.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use explain::{Explainer, ProgramArtifacts};
use finkg::apps::{control, stress};
use vadalog::ChaseSession;

fn bench_control(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig18a_company_control");
    for steps in [1usize, 5, 9, 15, 21] {
        let bundle = finkg::control_bundle(steps, 1, 18 + steps as u64);
        let artifacts = ProgramArtifacts::builder(control::program(), control::GOAL)
            .with_glossary(&control::glossary())
            .build_cached()
            .expect("artifacts");
        let outcome = ChaseSession::new(&control::program())
            .run(bundle.database.clone())
            .expect("chase");
        let id = outcome.lookup(&bundle.targets[0]).expect("derived");
        let explainer = Explainer::for_snapshot(artifacts, outcome);
        group.bench_with_input(BenchmarkId::from_parameter(steps), &steps, |b, _| {
            b.iter(|| explainer.explain_id(id).expect("explainable"))
        });
    }
    group.finish();
}

fn bench_stress(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig18b_stress_test");
    for steps in [1usize, 7, 13, 21] {
        let bundle = finkg::stress_bundle(steps, 1, 18 + steps as u64);
        let goal = bundle.targets[0].predicate.as_str();
        let artifacts = ProgramArtifacts::builder(stress::program(), goal)
            .with_glossary(&stress::glossary())
            .build_cached()
            .expect("artifacts");
        let outcome = ChaseSession::new(&stress::program())
            .run(bundle.database.clone())
            .expect("chase");
        let id = outcome.lookup(&bundle.targets[0]).expect("derived");
        let explainer = Explainer::for_snapshot(artifacts, outcome);
        group.bench_with_input(BenchmarkId::from_parameter(steps), &steps, |b, _| {
            b.iter(|| explainer.explain_id(id).expect("explainable"))
        });
    }
    group.finish();
}

fn bench_pipeline_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_construction");
    group.bench_function("company_control", |b| {
        b.iter(|| {
            ProgramArtifacts::builder(control::program(), control::GOAL)
                .with_glossary(&control::glossary())
                .build_cached()
                .expect("artifacts")
        })
    });
    group.bench_function("stress_test", |b| {
        b.iter(|| {
            ProgramArtifacts::builder(stress::program(), stress::GOAL)
                .with_glossary(&stress::glossary())
                .build_cached()
                .expect("artifacts")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_control,
    bench_stress,
    bench_pipeline_construction
);
criterion_main!(benches);

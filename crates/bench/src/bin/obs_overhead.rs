//! Regenerates `results/BENCH_obs.json`: the observability overhead
//! measurement.
//!
//! Runs the Fig. 18 workload (seeded control bundle: chase to fixpoint,
//! build the explanation pipeline, explain every target) with span
//! observation fully off (the default: one relaxed atomic load per span
//! site) against the same pass with the ring collector installed, in
//! the alternating pairs of [`bench::measure::paired`]: each pair runs
//! back-to-back under the same ambient load, and the median of the
//! per-pair ratios discards the burst-hit pairs. The always-on metrics
//! registry is active in both modes, and every pass runs under a minted
//! [`TraceContext`] so the collector-on mode also pays for stamping
//! `trace_id`/`request_id` onto every span, matching what the serving
//! layer does per request. The ratio therefore isolates the cost of
//! *collecting (trace-stamped) spans*, the knob a deployment actually
//! toggles.
//!
//! Gates: one collected pass records exactly [`SPANS_PER_PASS`] spans,
//! and the median paired on/off ratio stays below [`OVERHEAD_BAR`] (the
//! acceptance bar stated in ARCHITECTURE.md; no counter stands in for
//! the CPU time of a span).
//!
//! Usage: `cargo run --release -p bench --bin obs_overhead [-- DATE]`.

use bench::measure;
use explain::{Explainer, ProgramArtifacts};
use finkg::apps::control;
use std::sync::Arc;
use vadalog::obs::context::{self, TraceContext};
use vadalog::obs::span::{self, RingCollector};
use vadalog::ChaseSession;

const BUNDLE_LEN: usize = 16;
const BUNDLE_PROOFS: usize = 8;
const SEED: u64 = 42;
const OVERHEAD_BAR: f64 = 1.05;
/// Spans one pass records: the chase's run, stratum, round and rule
/// spans plus one `explain.query` per target.
const SPANS_PER_PASS: usize = 74;

fn main() {
    let program = control::program();
    let glossary = control::glossary();
    let bundle = finkg::control_bundle(BUNDLE_LEN, BUNDLE_PROOFS, SEED);
    // One Fig. 18-style pass, under a minted trace context as the
    // serving layer would run it.
    let pass = || {
        let _ctx = context::set(TraceContext::mint());
        let outcome = ChaseSession::new(&program)
            .run(bundle.database.clone())
            .expect("chase");
        let artifacts =
            ProgramArtifacts::builder(program.clone(), bundle.targets[0].predicate.as_str())
                .with_glossary(&glossary)
                .build_cached()
                .expect("artifacts");
        let explainer = Explainer::for_snapshot(artifacts, outcome);
        for target in &bundle.targets {
            let id = explainer.outcome().lookup(target).expect("target derived");
            explainer.explain_id(id).expect("explainable");
        }
        explainer
    };
    let ring = Arc::new(RingCollector::new(1 << 20));
    let collected = || {
        span::install(ring.clone());
        let out = pass();
        span::uninstall();
        out
    };

    let times = measure::paired(collected, pass);
    ring.drain();
    collected();
    let spans_per_pass = ring.drain().len();
    let ratio = times.ratio().median;
    println!(
        "collector off {:.2} ms, on {:.2} ms -> median paired overhead x{ratio:.4} \
         ({spans_per_pass} spans/pass)",
        measure::summary(&times.b).median * 1e3,
        measure::summary(&times.a).median * 1e3,
    );
    assert_eq!(
        spans_per_pass, SPANS_PER_PASS,
        "spans per collected pass differ from the committed count"
    );
    assert!(
        ratio < OVERHEAD_BAR,
        "span collection overhead x{ratio:.4} exceeds the {OVERHEAD_BAR} bar"
    );

    measure::write_result(
        "obs",
        "Observability overhead on the Fig. 18 workload (seeded control \
         bundle: chase + explanation pipeline + per-target explanations, \
         run under a minted trace context as the serving layer would). \
         The overhead ratio is the median of paired wall-clock ratios \
         (collector installed vs. span observation off, back-to-back \
         with alternating order so ambient load cancels). The always-on \
         metrics registry is active in both modes and collected spans \
         carry trace_id/request_id. Gates: spans per collected pass \
         equal the committed count; the ratio stays below \
         acceptance_bar. Times are median [q1, q3] of paired samples. \
         Regenerate with `cargo run --release -p bench --bin \
         obs_overhead -- $(date +%F)`.",
        |w| {
            w.key("workload");
            w.open_object();
            w.field_str("bundle", "control_bundle");
            w.field_u64("proof_length", BUNDLE_LEN as u64);
            w.field_u64("proofs", BUNDLE_PROOFS as u64);
            w.field_u64("seed", SEED);
            w.field_u64("spans_per_pass", spans_per_pass as u64);
            w.close_object();
            w.field_u64("pairs", measure::PAIRS as u64);
            measure::write_quartiles(w, "collector_off_ms", &times.b, 1e3);
            measure::write_quartiles(w, "collector_on_ms", &times.a, 1e3);
            measure::write_quartiles(w, "on_over_off", &times.ratios, 1.0);
            w.field_f64("acceptance_bar", OVERHEAD_BAR);
        },
    );
}

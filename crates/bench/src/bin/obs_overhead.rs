//! Regenerates `results/BENCH_obs.json`: the observability overhead
//! measurement.
//!
//! Runs the Fig. 18 workload (seeded control bundle: chase to fixpoint,
//! build the explanation pipeline, explain every target) twice per
//! repetition — once with span observation fully off (the default: one
//! relaxed atomic load per span site) and once with the ring collector
//! installed — interleaved so container load drift hits both modes
//! equally, and takes the *median of the per-repetition paired ratios*:
//! each pair runs back-to-back under the same ambient load, so a load
//! burst inflates both members instead of skewing the comparison, and
//! the median discards the burst-hit pairs entirely. (Comparing
//! best-of-N times across all reps is measurably flakier on shared
//! containers: one quiet baseline rep against nine noisy collector reps
//! reads as phantom overhead.) The always-on metrics
//! registry is active in both modes, and the whole workload runs under
//! a minted [`TraceContext`] so the collector-on mode also pays for
//! stamping `trace_id`/`request_id` onto every span, matching what the
//! serving layer does per request. The ratio therefore isolates the
//! cost of *collecting (trace-stamped) spans*, the knob a deployment
//! actually toggles.
//!
//! The run asserts the collector-on mode stays within 5% of baseline —
//! the acceptance bar stated in ARCHITECTURE.md.
//!
//! Usage: `cargo run --release -p bench --bin obs_overhead [-- DATE]`.

use explain::{Explainer, ProgramArtifacts};
use finkg::apps::control;
use std::sync::Arc;
use vadalog::obs::context::{self, TraceContext};
use vadalog::obs::span::{self, RingCollector};
use vadalog::telemetry::JsonWriter;
use vadalog::ChaseSession;

const REPS: usize = 9;
const BUNDLE_LEN: usize = 16;
const BUNDLE_PROOFS: usize = 8;
const SEED: u64 = 42;
const OVERHEAD_BAR: f64 = 1.05;

/// One full Fig. 18-style pass: chase, artifacts, explain every target,
/// all under a minted trace context (as the serving layer would run
/// it). Returns wall-clock seconds.
fn workload() -> f64 {
    let program = control::program();
    let glossary = control::glossary();
    let bundle = finkg::control_bundle(BUNDLE_LEN, BUNDLE_PROOFS, SEED);
    let _ctx = context::set(TraceContext::mint());
    let t0 = std::time::Instant::now();
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
    t0.elapsed().as_secs_f64()
}

fn main() {
    let date = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "unreported".into());

    let ring = Arc::new(RingCollector::new(1 << 20));
    let mut collector_off = f64::INFINITY;
    let mut collector_on = f64::INFINITY;
    let mut ratios = Vec::with_capacity(REPS);
    let mut spans_per_pass = 0u64;
    // Warm-up pass so index/bundle construction cold-start hits neither
    // measured mode.
    let _ = workload();
    for _ in 0..REPS {
        span::uninstall();
        let off = workload();
        collector_off = collector_off.min(off);

        span::install(ring.clone());
        let on = workload();
        collector_on = collector_on.min(on);
        span::uninstall();
        spans_per_pass = ring.drain().len() as u64 + ring.dropped();
        if off > 0.0 {
            ratios.push(on / off);
        }
    }
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios.get(ratios.len() / 2).copied().unwrap_or(1.0);

    let mut w = JsonWriter::new();
    w.open_object();
    w.field_str("name", "obs_overhead");
    w.field_str("date", &date);
    w.field_str(
        "description",
        "Observability overhead on the Fig. 18 workload (seeded control \
         bundle: chase + explanation pipeline + per-target explanations, \
         run under a minted trace context as the serving layer would). \
         The overhead ratio is the median of per-repetition paired \
         wall-clock ratios (collector installed vs. span observation \
         off, run back-to-back so ambient load cancels); best-of-N \
         times per mode are reported alongside. The always-on metrics \
         registry is active in both modes and collected spans carry \
         trace_id/request_id. The acceptance bar is a ratio below 1.05. \
         Regenerate with `cargo run --release -p bench --bin \
         obs_overhead -- $(date +%F)`.",
    );
    w.key("workload");
    w.open_object();
    w.field_str("bundle", "control_bundle");
    w.field_u64("proof_length", BUNDLE_LEN as u64);
    w.field_u64("proofs", BUNDLE_PROOFS as u64);
    w.field_u64("seed", SEED);
    w.field_u64("spans_per_pass", spans_per_pass);
    w.close_object();
    w.field_u64("repetitions", REPS as u64);
    w.field_f64("best_collector_off_ms", collector_off * 1e3);
    w.field_f64("best_collector_on_ms", collector_on * 1e3);
    w.field_f64("median_paired_overhead_ratio", ratio);
    w.field_f64("acceptance_bar", OVERHEAD_BAR);
    w.close_object();

    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_obs.json", pretty(&w.finish())).expect("write results");
    println!(
        "collector off {:.2}ms, on {:.2}ms -> median paired overhead x{ratio:.4} ({spans_per_pass} spans/pass)",
        collector_off * 1e3,
        collector_on * 1e3,
    );
    println!("wrote results/BENCH_obs.json");
    assert!(
        ratio < OVERHEAD_BAR,
        "span collection overhead x{ratio:.4} exceeds the {OVERHEAD_BAR} bar"
    );
}

/// Minimal JSON pretty-printer (2-space indent) so the checked-in result
/// diffs cleanly; input is the trusted output of [`JsonWriter`].
fn pretty(json: &str) -> String {
    let mut out = String::with_capacity(json.len() * 2);
    let mut indent = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for c in json.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                indent += 1;
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            '}' | ']' => {
                indent = indent.saturating_sub(1);
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(c);
            }
            ',' => {
                out.push(c);
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            ':' => {
                out.push(c);
                out.push(' ');
            }
            c => out.push(c),
        }
    }
    out.push('\n');
    out
}

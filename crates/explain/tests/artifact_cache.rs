//! The artifact cache's exactly-once analysis guarantee. It reads the
//! process-wide `vadalog_explain_analysis_runs_total` counter, so it lives
//! in its own test binary: no other test shares its process, its counter
//! or its cache.

use explain::ProgramArtifacts;
use std::sync::Arc;
use vadalog::parse_program;

#[test]
fn cached_builds_share_one_edition_and_run_analysis_once() {
    let parsed = parse_program(
        r#"
        alpha: edge(x, y) -> reach(x, y).
        beta: reach(x, y), edge(y, z) -> reach(x, z).
        edge("a", "b").
        edge("b", "c").
    "#,
    )
    .unwrap();
    let runs = vadalog::obs::metrics::global().counter(
        "vadalog_explain_analysis_runs_total",
        "Structural analyses actually executed (cache misses and uncached builds).",
    );
    let before = runs.get();
    let a = ProgramArtifacts::builder(parsed.program.clone(), "reach")
        .build_cached()
        .unwrap();
    let b = ProgramArtifacts::builder(parsed.program.clone(), "reach")
        .build_cached()
        .unwrap();
    assert!(Arc::ptr_eq(&a, &b), "cache hit must share the edition");
    assert_eq!(runs.get() - before, 1, "analysis must run exactly once");
    // A different program is a different deployment.
    let other = parse_program("alpha: edge(x, y) -> reach(x, y).")
        .unwrap()
        .program;
    let c = ProgramArtifacts::builder(other, "reach")
        .build_cached()
        .unwrap();
    assert!(!Arc::ptr_eq(&a, &c));
}

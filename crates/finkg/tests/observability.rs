//! End-to-end observability: runs a small finkg scenario with the ring
//! collector installed, exports the collected spans as Chrome
//! `trace_event` JSON and the run's metrics as Prometheus text, and
//! validates both exports by parsing them back.
//!
//! The whole flow lives in one test because the span collector is
//! process-global; the remaining tests here only touch per-run metric
//! registries. Set `OBS_EXPORT_DIR` to also write both exports to disk
//! (the CI observability job does, as a smoke artifact).

use finkg::apps::control;
use finkg::scenario;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The span collector is process-global, so tests in this binary run one
/// at a time: a chase in a parallel test would interleave its spans into
/// the installed ring.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
use vadalog::obs::json::{self, JsonValue};
use vadalog::obs::span::{self, SpanRecord};
use vadalog::obs::{to_chrome_trace, MetricsRegistry, RingCollector};
use vadalog::{ChaseConfig, ChaseSession};

/// Asserts every span whose name is `child` has a parent named `parent`,
/// and that the parent's interval contains the child's.
fn assert_nested(spans: &[SpanRecord], child: &str, parent: &str) {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut seen = 0;
    for s in spans.iter().filter(|s| s.name == child) {
        let pid = s
            .parent
            .unwrap_or_else(|| panic!("{child} span {} has no parent", s.id));
        let p = by_id
            .get(&pid)
            .unwrap_or_else(|| panic!("{child} span {} has unknown parent {pid}", s.id));
        assert_eq!(
            p.name, parent,
            "{child} span {} nested under {} instead of {parent}",
            s.id, p.name
        );
        assert!(
            p.start_ns <= s.start_ns && s.start_ns + s.duration_ns <= p.start_ns + p.duration_ns,
            "{child} span {} extends outside its parent {parent}",
            s.id
        );
        seen += 1;
    }
    assert!(seen > 0, "no {child} span was collected");
}

/// One line of Prometheus text exposition, split into its three parts.
fn parse_sample(line: &str) -> (String, String, f64) {
    let (series, value) = line.rsplit_once(' ').expect("sample has a value");
    let value: f64 = value.parse().unwrap_or_else(|_| {
        panic!("unparseable sample value in line: {line}");
    });
    match series.split_once('{') {
        Some((name, labels)) => {
            let labels = labels.strip_suffix('}').expect("closed label set");
            (name.to_string(), labels.to_string(), value)
        }
        None => (series.to_string(), String::new(), value),
    }
}

#[test]
fn finkg_scenario_exports_valid_chrome_trace_and_prometheus_text() {
    let _serial = serial();
    let ring = Arc::new(RingCollector::new(65_536));
    span::install(ring.clone());
    let registry = Arc::new(MetricsRegistry::new());

    let out = ChaseSession::new(&control::program())
        .with_config(
            ChaseConfig::default()
                .with_threads(2)
                .with_metrics(registry.clone()),
        )
        .run(scenario::database())
        .expect("chase");
    assert!(out.derived_facts > 0, "scenario derived nothing");
    let artifacts = explain::ProgramArtifacts::builder(control::program(), control::GOAL)
        .build_cached()
        .expect("artifacts");
    assert!(artifacts.telemetry().paths > 0, "no reasoning paths");

    span::uninstall();
    let spans = ring.drain();
    assert_eq!(ring.dropped(), 0, "ring evicted spans; raise its capacity");

    // The engine taxonomy nests run -> stratum -> round -> rule; the
    // explanation pipeline nests its stages under explain.build.
    assert_nested(&spans, "chase.stratum", "chase.run");
    assert_nested(&spans, "chase.round", "chase.stratum");
    assert_nested(&spans, "chase.rule", "chase.round");
    assert_nested(&spans, "explain.analysis", "explain.build");
    assert_nested(&spans, "explain.template", "explain.build");
    assert_nested(&spans, "explain.fallbacks", "explain.build");

    // Chrome trace: parse the emitted JSON back and check every event is
    // a well-formed complete event whose parent link matches the records.
    let trace = to_chrome_trace(&spans);
    let parsed = json::parse(&trace).expect("chrome trace is valid JSON");
    let events = parsed.as_arr().expect("chrome trace is a JSON array");
    assert_eq!(events.len(), spans.len());
    let records: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    for event in events {
        assert_eq!(event.get("ph").and_then(JsonValue::as_str), Some("X"));
        let name = event
            .get("name")
            .and_then(JsonValue::as_str)
            .expect("event name");
        assert!(event.get("ts").and_then(JsonValue::as_f64).is_some());
        assert!(event.get("dur").and_then(JsonValue::as_f64).is_some());
        let args = event.get("args").expect("event args");
        let id = args
            .get("span_id")
            .and_then(JsonValue::as_u64)
            .expect("span_id");
        let record = records[&id];
        assert_eq!(record.name, name);
        assert_eq!(
            args.get("parent_id").and_then(JsonValue::as_u64),
            record.parent
        );
    }

    // Prometheus text: every non-comment line must parse as
    // `name{labels} value`, and the catalog must include the chase
    // counters and the rule-latency histogram with its +Inf bucket.
    let text = registry.to_prometheus();
    let mut names = Vec::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (_, kind) = rest.split_once(' ').expect("TYPE has a kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown metric type in: {line}"
            );
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name, _, _) = parse_sample(line);
        names.push(name);
    }
    for expected in [
        "vadalog_chase_runs_total",
        "vadalog_chase_rounds_total",
        "vadalog_index_probes_total",
        "vadalog_rule_commit_ns_bucket",
        "vadalog_rule_commit_ns_count",
        "vadalog_commit_batch_facts_bucket",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "missing {expected} in:\n{text}"
        );
    }
    assert!(
        text.contains("le=\"+Inf\""),
        "histograms must end with an +Inf bucket:\n{text}"
    );

    if let Some(dir) = std::env::var_os("OBS_EXPORT_DIR") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create export dir");
        std::fs::write(dir.join("finkg_trace.json"), &trace).expect("write trace");
        std::fs::write(dir.join("finkg_metrics.prom"), &text).expect("write metrics");
    }
}

#[test]
fn guard_trips_are_counted_by_budget_kind() {
    let _serial = serial();
    let registry = Arc::new(MetricsRegistry::new());
    let result = ChaseSession::new(&control::program())
        .with_config(
            ChaseConfig::default()
                .with_metrics(registry.clone())
                .with_guard(vadalog::RunGuard::new().with_max_facts(20)),
        )
        .run(finkg::random_ownership(60, 3, 7));
    assert!(
        matches!(result, Err(vadalog::ChaseError::ResourceExhausted { .. })),
        "the fact budget should trip on this input"
    );
    let text = registry.to_prometheus();
    assert!(
        text.contains("vadalog_guard_trips_total{budget=\"facts\"} 1"),
        "missing trip counter in:\n{text}"
    );
    assert!(
        text.contains("vadalog_chase_runs_total{status=\"exhausted\"} 1"),
        "missing exhausted run in:\n{text}"
    );
}

#[test]
fn checkpoint_saves_report_bytes_and_fsync_time() {
    let _serial = serial();
    let registry = Arc::new(MetricsRegistry::new());
    let dir = std::env::temp_dir().join(format!(
        "vadalog-obs-ckpt-{}-{}",
        std::process::id(),
        std::thread::current().name().unwrap_or("t").len()
    ));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let path = dir.join("snap.vck");
    let program = control::program();
    let out = ChaseSession::new(&program)
        .with_config(ChaseConfig::default().with_metrics(registry.clone()))
        .run(scenario::database())
        .expect("chase");
    vadalog::checkpoint::save(
        &path,
        &program,
        &ChaseConfig::default().with_metrics(registry.clone()),
        &out,
    )
    .expect("checkpoint save");
    vadalog::checkpoint::load(
        &path,
        &program,
        &ChaseConfig::default().with_metrics(registry.clone()),
    )
    .expect("checkpoint load");
    let on_disk = std::fs::metadata(&path).expect("snapshot exists").len();
    let _ = std::fs::remove_dir_all(&dir);
    let text = registry.to_prometheus();
    assert!(text.contains("vadalog_checkpoint_saves_total 1"), "{text}");
    assert!(text.contains("vadalog_checkpoint_loads_total 1"), "{text}");
    assert!(
        text.contains("vadalog_checkpoint_fsync_ns_count 1"),
        "{text}"
    );
    let bytes_line = text
        .lines()
        .find(|l| l.starts_with("vadalog_checkpoint_bytes_total "))
        .expect("bytes counter");
    let bytes: u64 = bytes_line
        .rsplit_once(' ')
        .and_then(|(_, v)| v.parse().ok())
        .expect("numeric bytes");
    assert_eq!(bytes, on_disk, "bytes counter disagrees with the file");
}

//! Span-profile viewer: a self-time flamegraph table and the top-K hot
//! rules, from a Chrome trace file, a freshly collected run, or a
//! slow-query log.
//!
//! With a path argument, loads a `trace_event` JSON file (as exported by
//! `vadalog::obs::chrome::to_chrome_trace`, e.g. the CI artifact or the
//! file `fig18_performance --trace` writes). With `--slow PATH`, loads a
//! `/debug/slow` document (as served by `finkg-serve`, e.g. `curl -s
//! localhost:7878/debug/slow > slow.json`) and profiles each captured
//! slow goal's span tree separately. Without arguments, runs the finkg
//! control scenario with the ring collector installed and profiles that.
//!
//! Usage:
//! `cargo run --release -p bench --bin obs_inspect [-- TRACE.json]`
//! `cargo run --release -p bench --bin obs_inspect -- --slow SLOW.json`

use std::collections::HashMap;
use std::sync::Arc;
use vadalog::obs::json::{self, JsonValue};
use vadalog::obs::span::{self, RingCollector};
use vadalog::ChaseSession;

const TOP_K: usize = 10;

/// One span, reduced to what the profile needs.
struct Node {
    id: u64,
    parent: Option<u64>,
    name: String,
    /// The `rule` field, when the span carries one.
    rule: Option<String>,
    dur_ns: u64,
}

/// Per-name aggregate of the profile table.
#[derive(Default)]
struct Row {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

fn collect_live() -> Vec<Node> {
    let ring = Arc::new(RingCollector::new(1 << 20));
    span::install(ring.clone());
    let out = ChaseSession::new(&finkg::apps::control::program())
        .run(finkg::scenario::database())
        .expect("chase");
    let artifacts = explain::ProgramArtifacts::builder(
        finkg::apps::control::program(),
        finkg::apps::control::GOAL,
    )
    .build_cached()
    .expect("artifacts");
    drop((out, artifacts));
    span::uninstall();
    ring.drain()
        .into_iter()
        .map(|s| Node {
            id: s.id,
            parent: s.parent,
            name: s.name.to_string(),
            rule: s
                .fields
                .iter()
                .find_map(|(k, v)| (*k == "rule").then(|| v.to_string())),
            dur_ns: s.duration_ns,
        })
        .collect()
}

/// Parses one Chrome `trace_event` complete event (`"ph":"X"`) into a
/// [`Node`].
fn node_from_event(e: &JsonValue) -> Node {
    let args = e.get("args");
    Node {
        id: args
            .and_then(|a| a.get("span_id"))
            .and_then(JsonValue::as_u64)
            .expect("complete event without args.span_id"),
        parent: args
            .and_then(|a| a.get("parent_id"))
            .and_then(JsonValue::as_u64),
        name: e
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_string(),
        rule: args
            .and_then(|a| a.get("rule"))
            .and_then(JsonValue::as_str)
            .map(str::to_string),
        // dur is microseconds with fractional precision.
        dur_ns: (e.get("dur").and_then(JsonValue::as_f64).unwrap_or(0.0) * 1e3) as u64,
    }
}

fn load_trace(path: &str) -> Vec<Node> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"));
    let events = doc
        .as_arr()
        .unwrap_or_else(|| panic!("{path}: expected a trace_event array"));
    events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .map(node_from_event)
        .collect()
}

/// One captured slow goal from a `/debug/slow` document.
struct SlowEntry {
    goal: String,
    elapsed_ms: f64,
    trace_id: Option<String>,
    nodes: Vec<Node>,
}

fn load_slow(path: &str) -> Vec<SlowEntry> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"));
    let slow = doc
        .get("slow")
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("{path}: expected a /debug/slow document with a 'slow' array"));
    slow.iter()
        .map(|entry| SlowEntry {
            goal: entry
                .get("goal")
                .and_then(JsonValue::as_str)
                .unwrap_or("?")
                .to_string(),
            elapsed_ms: entry
                .get("elapsed_ms")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
            trace_id: entry
                .get("trace_id")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            nodes: entry
                .get("spans")
                .and_then(JsonValue::as_arr)
                .map(|events| {
                    events
                        .iter()
                        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
                        .map(node_from_event)
                        .collect()
                })
                .unwrap_or_default(),
        })
        .collect()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Prints the self-time profile table for one span set.
fn profile(nodes: &[Node]) {
    // Self time = a span's duration minus its direct children's. A child
    // can outlive its parent only through a leaked guard, which the
    // engine's scoped spans never do; clamp anyway.
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for n in nodes {
        if let Some(p) = n.parent {
            *child_ns.entry(p).or_default() += n.dur_ns;
        }
    }
    let mut by_name: HashMap<&str, Row> = HashMap::new();
    let mut total_self = 0u64;
    for n in nodes {
        let row = by_name.entry(&n.name).or_default();
        let self_ns = n
            .dur_ns
            .saturating_sub(child_ns.get(&n.id).copied().unwrap_or(0));
        row.count += 1;
        row.total_ns += n.dur_ns;
        row.self_ns += self_ns;
        total_self += self_ns;
    }
    let mut rows: Vec<(&str, Row)> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));

    println!("self-time profile ({} spans)", nodes.len());
    println!(
        "{:<24} {:>8} {:>12} {:>12} {:>7}",
        "span", "count", "total_ms", "self_ms", "self%"
    );
    for (name, row) in &rows {
        println!(
            "{:<24} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
            name,
            row.count,
            ms(row.total_ns),
            ms(row.self_ns),
            if total_self > 0 {
                row.self_ns as f64 * 100.0 / total_self as f64
            } else {
                0.0
            },
        );
    }
}

/// Prints the top-K hot rules (`chase.rule` spans aggregated by their
/// `rule` field).
fn hot_rules(nodes: &[Node]) {
    let mut by_rule: HashMap<&str, Row> = HashMap::new();
    for n in nodes.iter().filter(|n| n.name == "chase.rule") {
        let Some(rule) = n.rule.as_deref() else {
            continue;
        };
        let row = by_rule.entry(rule).or_default();
        row.count += 1;
        row.total_ns += n.dur_ns;
    }
    if by_rule.is_empty() {
        println!("\nno chase.rule spans with a rule field");
        return;
    }
    let mut rules: Vec<(&str, Row)> = by_rule.into_iter().collect();
    rules.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
    println!(
        "\ntop {} hot rules (by commit time)",
        TOP_K.min(rules.len())
    );
    println!("{:<24} {:>8} {:>12}", "rule", "commits", "total_ms");
    for (rule, row) in rules.iter().take(TOP_K) {
        println!("{:<24} {:>8} {:>12.3}", rule, row.count, ms(row.total_ns));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--slow") {
        let path = args
            .get(1)
            .unwrap_or_else(|| panic!("--slow requires a path to a /debug/slow JSON document"));
        let entries = load_slow(path);
        if entries.is_empty() {
            println!("no slow queries captured in {path}");
            return;
        }
        println!("{} slow quer(ies) in {path}", entries.len());
        for (i, entry) in entries.iter().enumerate() {
            println!(
                "\n[{i}] {} ({:.1}ms{})",
                entry.goal,
                entry.elapsed_ms,
                match &entry.trace_id {
                    Some(t) => format!(", trace {t}"),
                    None => String::new(),
                }
            );
            if entry.nodes.is_empty() {
                println!("no spans captured");
            } else {
                profile(&entry.nodes);
            }
        }
        return;
    }

    let nodes = match args.first() {
        Some(path) => load_trace(path),
        None => collect_live(),
    };
    if nodes.is_empty() {
        println!("no spans to profile");
        return;
    }
    profile(&nodes);
    hot_rules(&nodes);
}

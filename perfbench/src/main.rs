//! `perfbench`: the repository's end-to-end benchmark.
//!
//! Boots `finkg-serve` in-process on loopback, wired as its `main` wires
//! it, drives `POST /explain` from closed-loop clients in this process
//! beside an open-loop writer, checks every answer byte for byte against
//! a sequential reference explainer, and prints the metrics. The last
//! line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload control_deep|sanctions_live \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the same
//! load twice, untraced and then with the benchmark's spans recorded,
//! times each layer's public calls, reports the per-layer metrics and
//! writes a Chrome trace to `perfbench/out/`. See `perfbench/README.md`.

mod client;
mod layers;
mod load;
mod serving;
mod stats;
mod workload;

use serving::{Phase, Reference, Replay, Server, Writer};
use stats::{median, tail};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use vadalog::obs::flight::{self, FlightRecorder};
use vadalog::obs::json::JsonWriter;
use vadalog::obs::span::{self, RingCollector, SpanRecord, SpanSink};
use vadalog::ChaseSession;
use workload::Workload;

/// Server boots timed per end-to-end run: at least `SETUPS_MIN`, and
/// more, up to `SETUPS_MAX`, while the boots so far took less than
/// `SETUP_BUDGET` (the median is reported).
const SETUPS_MIN: usize = 3;
const SETUPS_MAX: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(3);
/// Load before the measured window of each phase.
const WARMUP: Duration = Duration::from_secs(1);
/// Window widths, in seconds, of the per-window p50 latency and
/// throughput.
const P50_WINDOW_S: f64 = 1.0;
const GOALS_WINDOW_S: f64 = 1.0;
/// Requests per p99 window (the tail rule needs 1000, and windows are
/// equal in time, not in requests), and the most p99 windows in a run.
const P99_WINDOW_REQUESTS: usize = 1500;
const P99_WINDOWS_MAX: usize = 8;
/// A seed kept out of development runs, for confirming a later claim.
const CONFIRM_SEED: u64 = 1_000_003;
/// Span ring of the traced run, and how many spans of each traced stage
/// the Chrome trace keeps.
const RING_SPANS: usize = 200_000;
const KEEP_SPANS: usize = 10_000;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// End-to-end metric names, in report order. `BENCHMARK.json` lists the
/// same names under `end_to_end`.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "explain_p50_ms",
    "explain_p99_ms",
    "goals_per_s",
    "peak_rss_mb",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?.max(1),
            "--trace" => args.trace = number(&value)? == 1,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required: one of {}",
            workload::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print();
            if !report.problems.is_empty() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

struct Report {
    /// The metrics of the result object.
    metrics: Vec<Metric>,
    /// Metrics printed in the table only: `failed_ratio`, which is 0 on a
    /// correct build, and the live workload's publish latency, which the
    /// read-only workloads do not have.
    info: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    record: String,
}

impl Report {
    fn print(&self) {
        for m in self.metrics.iter().chain(&self.info) {
            println!(
                "{:<30} {:>16.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for p in &self.problems {
            println!("correctness check failed: {p}");
        }
        println!("record {}", self.record);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The traced run's sink: the production flight recorder plus a ring
/// the Chrome trace is cut from.
struct Tee {
    ring: RingCollector,
    flight: Arc<FlightRecorder>,
}

impl SpanSink for Tee {
    fn record(&self, span: SpanRecord) {
        self.flight.record(span.clone());
        self.ring.record(span);
    }
}

impl Tee {
    /// Moves the newest `KEEP_SPANS` spans of the ring into `kept`.
    fn cut(&self, kept: &mut Vec<SpanRecord>) {
        let spans = self.ring.drain();
        kept.extend(spans.into_iter().rev().take(KEEP_SPANS).rev());
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let phases = if args.trace { 2 } else { 1 };
    let w = Workload::new(
        &args.workload,
        args.seed,
        phases * serving::ticks_in(args.seconds),
        nproc,
    )?;
    if w.clients > nproc {
        return Err(format!("{} clients exceed nproc = {nproc}", w.clients));
    }
    let flight: Arc<dyn SpanSink> = flight::global().clone();
    let tee = Arc::new(Tee {
        ring: RingCollector::new(RING_SPANS),
        flight: flight::global().clone(),
    });
    let mut kept = Vec::new();

    let mut setups: Vec<f64> = Vec::new();
    let mut server: Option<Server> = None;
    let (min, max) = if args.trace {
        (1, 1)
    } else {
        (SETUPS_MIN, SETUPS_MAX)
    };
    while setups.len() < min
        || (setups.len() < max && setups.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        drop(server.take());
        let db = w.db.clone();
        let booted = if args.trace {
            serving::boot(&w.app, db, nproc, tee.clone(), true)?
        } else {
            serving::boot(&w.app, db, nproc, Arc::clone(&flight), false)?
        };
        setups.push(booted.setup.as_secs_f64());
        server = Some(booted);
    }
    let server = server.expect("at least one boot");
    tee.cut(&mut kept);

    let pool = w.goal_pool(&server.outcome);
    if pool.is_empty() {
        return Err(format!("{} has no derived {} goals", w.name, w.app.goal));
    }
    let batches: Vec<_> = (0..w.clients)
        .map(|c| w.batches(&pool, args.seed, c))
        .collect();
    let reference = Reference::new(&w, &server, &batches);
    let mut writer = Writer::new(&w, &server);
    let mut replay = Replay::new(&w, &server);

    span::install(Arc::clone(&flight));
    let mut plain = serving::phase(
        &server,
        writer.as_mut(),
        &reference,
        &batches,
        WARMUP,
        args.seconds,
        false,
    )?;
    // The server's high-water mark: the checks below hold stores of
    // their own.
    let peak_rss = peak_rss_mb()?;
    replay.check(
        &mut plain,
        &batches,
        writer.as_ref().map_or(&[], Writer::published),
        nproc,
    )?;
    let traced = if args.trace {
        span::install(tee.clone());
        let mut traced = serving::phase(
            &server,
            writer.as_mut(),
            &reference,
            &batches,
            WARMUP,
            args.seconds,
            true,
        )?;
        tee.cut(&mut kept);
        span::install(Arc::clone(&flight));
        replay.check(
            &mut traced,
            &batches,
            writer.as_ref().map_or(&[], Writer::published),
            nproc,
        )?;
        span::install(tee.clone());
        Some(traced)
    } else {
        None
    };

    let mut problems = Vec::new();
    let mut tally = plain.tally.clone();
    if let Some(t) = &traced {
        tally.merge(t.tally.clone());
    }
    if tally.goals_failed() > 0 {
        problems.push(format!(
            "{} of {} goals failed ({} answered wrongly, {} refused or lost)",
            tally.goals_failed(),
            tally.goals_attempted,
            tally.goals_wrong,
            tally.goals_refused
        ));
    }
    if let (Some(writer), Some(live)) = (&writer, &w.live) {
        check_live(
            &w.app.program,
            writer,
            live,
            &plain,
            traced.as_ref(),
            &mut problems,
        )?;
    }

    let mut info = vec![Metric::new(
        "failed_ratio",
        tally.failed_ratio(),
        "ratio",
        tally.goals_attempted as usize,
    )];
    let metrics = match &traced {
        None => {
            let publish = plain.publish_ms();
            if !publish.is_empty() {
                info.extend([
                    Metric::new("publish_p50_ms", tail(&publish, 50.0)?, "ms", publish.len()),
                    Metric::new("publish_p90_ms", tail(&publish, 90.0)?, "ms", publish.len()),
                ]);
            }
            end_to_end(&plain, &setups, peak_rss)?
        }
        Some(traced) => {
            let deltas = serving::ticks_in(args.seconds);
            let metrics = layers::measure(&w, &server, &batches, nproc, deltas, &plain, traced)?;
            tee.cut(&mut kept);
            write_trace(&w, args.seed, &kept)?;
            metrics
        }
    };
    span::uninstall();
    let record = record(args, &w, nproc, &metrics, tally.samples.len());
    Ok(Report {
        metrics,
        info,
        attempted: tally.goals_attempted,
        failed: tally.goals_failed(),
        problems,
        record,
    })
}

/// On the live workload: every delta ran incrementally, and the
/// maintained store equals a from-scratch chase of the final EDB.
fn check_live(
    program: &vadalog::Program,
    writer: &Writer<'_>,
    live: &workload::Live,
    plain: &Phase,
    traced: Option<&Phase>,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let writes = plain
        .writes
        .iter()
        .chain(traced.into_iter().flat_map(|t| &t.writes));
    let full = writes.filter(|t| t.first && t.value).count();
    if full > 0 {
        problems.push(format!("{full} publishes fell back to a full re-chase"));
    }
    let maintained = writer.live();
    let scratch = ChaseSession::new(program)
        .run(live.final_edb.iter().cloned().collect())
        .map_err(|e| format!("from-scratch chase of the final EDB failed: {e}"))?;
    if serving::structural(maintained) != serving::structural(&scratch) {
        problems
            .push("the maintained store differs from a from-scratch chase of the final EDB".into());
    }
    Ok(())
}

/// The end-to-end metrics of the untraced phase. Request latency and
/// throughput are taken per window of the run and reported as the
/// median over windows.
fn end_to_end(plain: &Phase, setups: &[f64], peak_rss: f64) -> Result<Vec<Metric>, String> {
    let samples = &plain.tally.samples;
    let per_window = |width: f64, value: fn(&load::Sample) -> f64| {
        stats::windows(
            samples.iter().map(|s| (s.at, value(s))),
            width,
            plain.seconds,
        )
    };
    let latency_at = |width: f64, p: f64| -> Result<f64, String> {
        let per: Vec<f64> = per_window(width, |s| s.latency_ms)
            .iter()
            .map(|w| tail(w, p))
            .collect::<Result<_, _>>()?;
        Ok(median(&per))
    };
    // As many p99 windows as leave each about P99_WINDOW_REQUESTS.
    let p99_windows = (samples.len() / P99_WINDOW_REQUESTS).clamp(1, P99_WINDOWS_MAX);
    let goals: Vec<f64> = per_window(GOALS_WINDOW_S, |s| f64::from(s.goals_correct))
        .iter()
        .map(|w| w.iter().sum::<f64>() / GOALS_WINDOW_S)
        .collect();
    let metrics = vec![
        Metric::new("setup_s", median(setups), "s", setups.len()),
        Metric::new(
            "explain_p50_ms",
            latency_at(P50_WINDOW_S, 50.0)?,
            "ms",
            samples.len(),
        ),
        Metric::new(
            "explain_p99_ms",
            latency_at(plain.seconds / p99_windows as f64, 99.0)?,
            "ms",
            samples.len(),
        ),
        Metric::new("goals_per_s", median(&goals), "1/s", samples.len()),
        Metric::new("peak_rss_mb", peak_rss, "MB", 1),
    ];
    debug_assert!(metrics.iter().map(|m| m.name).eq(END_TO_END));
    Ok(metrics)
}

/// `VmHWM`, the resident-set high-water mark of this process so far, in
/// MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_trace(w: &Workload, seed: u64, spans: &[SpanRecord]) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{seed}.json", w.name));
    std::fs::write(&path, vadalog::obs::chrome::to_chrome_trace(spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("chrome trace: {} ({} spans)", path.display(), spans.len());
    Ok(())
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> Option<String> {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_owned()),
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .ok()
            .map(|c| c.trim().to_owned()),
    }
}

/// The run record: host, load shape, seeds, commit and sample counts.
fn record(args: &Args, w: &Workload, nproc: usize, metrics: &[Metric], requests: usize) -> String {
    let online = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let mut j = JsonWriter::new();
    j.open_object();
    j.field_str("workload", w.name);
    j.field_u64("seed", args.seed);
    j.field_u64("confirm_seed", CONFIRM_SEED);
    j.field_u64("seconds", args.seconds);
    j.field_u64("trace", u64::from(args.trace));
    j.field_u64("nproc", online as u64);
    j.field_u64("available_parallelism", nproc as u64);
    j.field_u64("client_threads", w.clients as u64);
    j.field_u64("connections", w.clients as u64);
    j.field_u64("writer_threads", u64::from(w.live.is_some()));
    j.field_u64("server_workers", nproc as u64);
    j.field_u64("requests", requests as u64);
    match commit() {
        Some(c) => j.field_str("commit", &c),
        None => j.field_str("commit", "unknown (not a git checkout)"),
    }
    j.key("samples");
    j.open_object();
    for m in metrics {
        j.field_u64(m.name, m.samples as u64);
    }
    j.close_object();
    j.close_object();
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog::obs::json::{parse, JsonValue};

    fn names(doc: &JsonValue, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(names(&doc, "end_to_end"), END_TO_END);
        assert_eq!(names(&doc, "per_layer"), layers::NAMES);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(workloads, workload::NAMES);
    }
}

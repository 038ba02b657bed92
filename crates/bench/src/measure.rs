//! The one measurement loop of the perf bins, and their one result
//! writer.
//!
//! The bench host is shared and its speed drifts within a run, so each
//! perf bin gates on deterministic work counters checked against
//! committed values and reports wall clock beside them. The wall clock
//! comes from [`paired`]: one warm-up call of each side, then [`PAIRS`]
//! back-to-back pairs that alternate which side goes first, so a load
//! burst hits both members of a pair. A bin that keeps a wall-clock bar
//! puts it on the median of the per-pair ratios. Every summary is a
//! [`stats::Boxplot`]; result files carry its median, q1 and q3.

use stats::Boxplot;
use std::time::{Duration, Instant};
use vadalog::telemetry::JsonWriter;

/// Pairs per [`paired`] measurement, in every bin.
pub const PAIRS: usize = 21;

/// A sample repeats its closure until it lasts at least this long, so
/// that a few-millisecond pass is not timed alone and a scheduling
/// hiccup is averaged over many calls.
const MIN_SAMPLE: Duration = Duration::from_millis(100);

/// The samples of one [`paired`] measurement: seconds per call of each
/// side, one sample per pair, and each pair's ratio.
#[derive(Debug)]
pub struct Paired {
    /// Seconds per call of side `a`.
    pub a: Vec<f64>,
    /// Seconds per call of side `b`.
    pub b: Vec<f64>,
    /// `a[i] / b[i]`, the ratio of pair `i`.
    pub ratios: Vec<f64>,
}

impl Paired {
    /// The summary of the per-pair ratios `a / b`.
    pub fn ratio(&self) -> Boxplot {
        summary(&self.ratios)
    }
}

/// Times `a` against `b` in [`PAIRS`] pairs. Each closure is called
/// once to warm up; its time sets how many consecutive calls make one of
/// its samples last at least 100 ms. What a call returns is dropped
/// within the sample, as a caller would drop it.
pub fn paired<A, B>(a: impl FnMut() -> A, b: impl FnMut() -> B) -> Paired {
    paired_with(MIN_SAMPLE, a, b)
}

fn paired_with<A, B>(
    min_sample: Duration,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> Paired {
    let calls_a = calls_per_sample(min_sample, &mut a);
    let calls_b = calls_per_sample(min_sample, &mut b);
    let mut out = Paired {
        a: Vec::with_capacity(PAIRS),
        b: Vec::with_capacity(PAIRS),
        ratios: Vec::with_capacity(PAIRS),
    };
    for pair in 0..PAIRS {
        let (ta, tb) = if pair % 2 == 0 {
            let ta = sample(&mut a, calls_a);
            (ta, sample(&mut b, calls_b))
        } else {
            let tb = sample(&mut b, calls_b);
            (sample(&mut a, calls_a), tb)
        };
        out.a.push(ta);
        out.b.push(tb);
        out.ratios.push(ta / tb);
    }
    out
}

/// Makes the warm-up call of `f` and returns how many consecutive calls
/// last at least `min_sample`.
fn calls_per_sample<R>(min_sample: Duration, f: &mut impl FnMut() -> R) -> usize {
    let start = Instant::now();
    std::hint::black_box(f());
    let once = start.elapsed().as_nanos().max(1);
    min_sample.as_nanos().div_ceil(once).max(1) as usize
}

/// Seconds per call over `calls` consecutive calls of `f`.
fn sample<R>(f: &mut impl FnMut() -> R, calls: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / calls as f64
}

/// The summary of a non-empty sample.
pub fn summary(xs: &[f64]) -> Boxplot {
    Boxplot::of(xs).expect("a measurement has samples")
}

/// Writes `"key": {"median": …, "q1": …, "q3": …}` of `xs`, each
/// multiplied by `scale` (1e3 turns seconds into milliseconds).
pub fn write_quartiles(w: &mut JsonWriter, key: &str, xs: &[f64], scale: f64) {
    let b = summary(xs);
    w.key(key);
    w.open_object();
    w.field_f64("median", b.median * scale);
    w.field_f64("q1", b.q1 * scale);
    w.field_f64("q3", b.q3 * scale);
    w.close_object();
}

/// Writes `results/BENCH_<name>.json`: one object holding `name`, the
/// `date` given as the bin's first argument (`unreported` without one)
/// and `description`, then the fields `body` writes.
pub fn write_result(name: &str, description: &str, body: impl FnOnce(&mut JsonWriter)) {
    let date = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "unreported".into());
    let mut w = JsonWriter::new();
    w.open_object();
    w.field_str("name", name);
    w.field_str("date", &date);
    w.field_str("description", description);
    body(&mut w);
    w.close_object();
    let path = format!("results/BENCH_{name}.json");
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write(&path, pretty(&w.finish())).expect("write results");
    println!("wrote {path}");
}

/// Indents compact JSON by two spaces per level, so that a committed
/// result diffs line by line. Bytes inside strings are copied as they
/// are.
fn pretty(json: &str) -> String {
    let mut out = String::with_capacity(json.len() * 2);
    let mut indent = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let newline = |out: &mut String, indent: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(indent));
    };
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
                newline(&mut out, indent);
            }
            '}' | ']' => {
                indent = indent.saturating_sub(1);
                newline(&mut out, indent);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, indent);
            }
            ':' => out.push_str(": "),
            c => out.push(c),
        }
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use vadalog::obs::json::parse;

    #[test]
    fn pairs_alternate_which_side_goes_first() {
        let seen = RefCell::new(String::new());
        let p = paired_with(
            Duration::ZERO,
            || seen.borrow_mut().push('a'),
            || seen.borrow_mut().push('b'),
        );
        assert_eq!(p.a.len(), PAIRS);
        let seen = seen.into_inner();
        // One warm-up call each, then ab, ba, ab, ...
        let (warm_up, pairs) = seen.split_at(2);
        assert_eq!(warm_up, "ab");
        for (i, pair) in pairs.as_bytes().chunks(2).enumerate() {
            let expected: &[u8] = if i % 2 == 0 { b"ab" } else { b"ba" };
            assert_eq!(pair, expected, "pair {i}");
        }
        assert_eq!(pairs.len(), 2 * PAIRS);
    }

    #[test]
    fn each_pair_gets_its_own_ratio() {
        let p = paired_with(
            Duration::ZERO,
            || std::thread::sleep(Duration::from_millis(2)),
            || std::thread::sleep(Duration::from_millis(1)),
        );
        assert_eq!(p.ratios.len(), PAIRS);
        for i in 0..PAIRS {
            assert_eq!(p.ratios[i], p.a[i] / p.b[i], "pair {i}");
        }
        assert_eq!(p.ratio(), Boxplot::of(&p.ratios).unwrap());
    }

    #[test]
    fn quartiles_are_the_boxplot_of_the_samples() {
        let xs = [0.004, 0.001, 0.003, 0.005, 0.002];
        let b = Boxplot::of(&xs).unwrap();
        assert_eq!(summary(&xs), b);
        let mut w = JsonWriter::new();
        w.open_object();
        write_quartiles(&mut w, "t_ms", &xs, 1e3);
        w.close_object();
        let parsed = parse(&w.finish()).unwrap();
        let t = parsed.get("t_ms").unwrap();
        for (key, want) in [("median", b.median), ("q1", b.q1), ("q3", b.q3)] {
            let got = t.get(key).and_then(|v| v.as_f64()).unwrap();
            assert!((got - want * 1e3).abs() < 1e-9, "{key}: {got}");
        }
    }

    #[test]
    fn pretty_printing_keeps_the_value_and_every_string_byte() {
        let mut w = JsonWriter::new();
        w.open_object();
        w.field_str("tricky", r#"{a, b: "c"} \ [d]"#);
        w.key("nested");
        w.open_object();
        w.field_u64("n", 3);
        w.key("list");
        w.open_array();
        w.value_str(":,{}");
        w.value_f64(0.5);
        w.open_object();
        w.close_object();
        w.close_array();
        w.close_object();
        w.close_object();
        let compact = w.finish();
        let printed = pretty(&compact);
        assert!(printed.lines().count() > 5, "{printed}");
        assert_eq!(parse(&printed).unwrap(), parse(&compact).unwrap());
        let tricky = parse(&printed).unwrap();
        assert_eq!(
            tricky.get("tricky").and_then(|v| v.as_str()),
            Some(r#"{a, b: "c"} \ [d]"#)
        );
    }
}

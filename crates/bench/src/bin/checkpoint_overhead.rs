//! Regenerates `results/BENCH_checkpoint.json`: cost of the durability
//! layer.
//!
//! Three questions, answered on the company-control workload with the
//! alternating pairs of [`bench::measure::paired`]:
//!
//! * **Snapshot latency** — how long does one `checkpoint_to` of the
//!   finished outcome take, how long does one `resume_from_path` of a
//!   completed snapshot take, and how big is the file?
//! * **Autosave overhead** — how much slower is a chase that autosaves
//!   *every* round (the worst-case policy) than one that never saves, at
//!   1/2/8 worker threads?
//! * **Recovery fidelity** — asserted, not just measured: every run
//!   must report the same deterministic counters as the reference, and
//!   every load must restore every fact.
//!
//! Usage: `cargo run --release -p bench --bin checkpoint_overhead [-- DATE]`.

use bench::measure::{self, Paired};
use vadalog::{AutosavePolicy, ChaseConfig, ChaseSession};

const THREADS: [usize; 3] = [1, 2, 8];

fn main() {
    let program = finkg::apps::control::program();
    let db = finkg::random_ownership(400, 3, 7);
    let workload = "company_control over random_ownership(400, 3, 7)";

    let dir = std::env::temp_dir().join("vadalog-checkpoint-bench");
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let path = dir.join("snapshot.ckpt");

    // Snapshot latency on the finished outcome: save against load.
    let session = ChaseSession::new(&program).with_threads(1);
    let outcome = session.run(db.clone()).expect("chase");
    let io = measure::paired(
        || session.checkpoint_to(&outcome, &path).expect("save"),
        || {
            let loaded = session.resume_from_path(&path).expect("load");
            assert_eq!(loaded.database.len(), outcome.database.len());
            loaded
        },
    );
    let snapshot_bytes = std::fs::metadata(&path).expect("snapshot size").len();

    // Worst-case autosave policy (every round) vs. no checkpointing.
    let fingerprint = outcome.report.count_fingerprint();
    let cells: Vec<(usize, Paired, u64)> = THREADS
        .iter()
        .map(|&threads| {
            let run = |autosave: bool| {
                let mut config = ChaseConfig::default().with_threads(threads);
                if autosave {
                    config = config.with_autosave(AutosavePolicy::new(&path).every_rounds(1));
                }
                let out = ChaseSession::new(&program)
                    .with_config(config)
                    .run(db.clone())
                    .expect("chase");
                assert_eq!(
                    out.report.count_fingerprint(),
                    fingerprint,
                    "counters diverged at {threads} threads (autosave={autosave})"
                );
                out
            };
            let mut autosaves = 0;
            let times = measure::paired(
                || {
                    let out = run(true);
                    autosaves = out.report.autosaves;
                    out
                },
                || run(false),
            );
            (threads, times, autosaves)
        })
        .collect();

    println!(
        "snapshot: {snapshot_bytes} bytes, save {:.3} ms, load {:.3} ms",
        measure::summary(&io.a).median * 1e3,
        measure::summary(&io.b).median * 1e3,
    );
    for (threads, times, autosaves) in &cells {
        println!(
            "threads {threads}: autosave x{:.3} ({autosaves} saves)",
            times.ratio().median
        );
    }

    measure::write_result(
        "checkpoint",
        "Durability-layer cost on the company-control workload: latency \
         and size of one snapshot save/load of the finished outcome, and \
         wall-clock of a chase autosaving every round against one that \
         never saves, at 1/2/8 worker threads. Deterministic counters \
         are asserted identical across all modes before emission. Times \
         are median [q1, q3] of paired samples. Regenerate with `cargo \
         run --release -p bench --bin checkpoint_overhead -- $(date \
         +%F)`.",
        |w| {
            w.key("environment");
            w.open_object();
            w.field_u64(
                "logical_cores",
                std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            );
            w.close_object();
            w.field_str("workload", workload);
            w.field_u64("pairs", measure::PAIRS as u64);
            w.key("snapshot");
            w.open_object();
            w.field_u64("bytes", snapshot_bytes);
            w.field_u64("facts", outcome.database.len() as u64);
            w.field_u64("derivations", outcome.graph.derivations().len() as u64);
            measure::write_quartiles(w, "save_ms", &io.a, 1e3);
            measure::write_quartiles(w, "load_ms", &io.b, 1e3);
            w.close_object();
            w.key("autosave_every_round");
            w.open_object();
            for (threads, times, autosaves) in &cells {
                w.key(&threads.to_string());
                w.open_object();
                measure::write_quartiles(w, "baseline_ms", &times.b, 1e3);
                measure::write_quartiles(w, "autosave_ms", &times.a, 1e3);
                measure::write_quartiles(w, "autosave_over_baseline", &times.ratios, 1.0);
                w.field_u64("autosaves", *autosaves);
                w.close_object();
            }
            w.close_object();
        },
    );
}

//! Regenerates `results/BENCH_goal_directed.json`: goal-directed
//! (relevance-cone-pruned) evaluation against the full chase, measured
//! as end-to-end per-goal explain latency — chase the EDB, then explain
//! every derived goal fact.
//!
//! Three finkg goals exercise cones of different sharpness:
//!
//! * *golden_power / control* — the control substrate (g1–g3) is the
//!   cone; the pruned run skips the golden-power screening join g4 and
//!   the screening aggregate g5 over a foreign/strategic-rich network —
//!   the workload where pruning pays off most;
//! * *sanctions / flagged* — the cone crosses the negated `sanctioned`
//!   edges but drops s4, so none of the (numerous) clean_link facts are
//!   matched or committed;
//! * *sanctions / clean_link* — the dual goal: s3's flagged facts are
//!   pruned instead, a deliberately thin cone documenting the small-win
//!   end of the spectrum.
//!
//! Before any timing is written, the pruned run's explanations are
//! asserted byte-identical to the full run's for every goal fact.
//! Times are best-of-3, single-threaded. Acceptance: the pruned path
//! must be at least 2x faster on one workload.
//!
//! Usage: `cargo run --release -p bench --bin goal_directed [-- DATE]`.

use explain::{DomainGlossary, Explainer, ProgramArtifacts};
use std::sync::Arc;
use std::time::Instant;
use vadalog::telemetry::JsonWriter;
use vadalog::{ChaseOutcome, ChaseSession, Database, Program};

const REPS: usize = 3;
/// The acceptance bar from the issue: the cone-pruned explain path must
/// beat the full chase by at least this factor on one workload.
const REQUIRED_SPEEDUP: f64 = 2.0;

struct Workload {
    name: &'static str,
    note: &'static str,
    program: Program,
    goal: &'static str,
    glossary: DomainGlossary,
    db: Database,
}

/// The golden-power network with foreign/strategic designations dense
/// enough that the screening rules dominate the full chase.
fn golden_power_network(n: usize, seed: u64) -> Database {
    let mut db = finkg::random_ownership(n, 3, seed);
    // Every company is both a foreign acquirer and a strategic target:
    // the screening join g4 and the aggregate g5 then join the whole
    // control relation — exactly the work the control cone prunes away.
    for i in 0..n {
        db.add("foreign", &[format!("C{i}").as_str().into()]);
        db.add("strategic", &[format!("C{i}").as_str().into()]);
    }
    db
}

fn workloads() -> Vec<Workload> {
    use finkg::apps::{golden_power, sanctions};
    vec![
        Workload {
            name: "golden_power/control",
            note: "control-substrate cone (g1-g3): prunes the golden-power \
                   screening join g4 and the screening aggregate g5 over a \
                   foreign/strategic-rich network",
            program: golden_power::program(),
            goal: "control",
            glossary: golden_power::glossary(),
            db: golden_power_network(1000, 7),
        },
        Workload {
            name: "sanctions/flagged",
            note: "negation-crossing cone (s1-s3): keeps the negated \
                   sanctioned dependencies, prunes the clean_link \
                   certification s4",
            program: sanctions::program(),
            goal: "flagged",
            glossary: sanctions::glossary(),
            db: finkg::random_sanctions(2500, 3, 7, 7),
        },
        Workload {
            name: "sanctions/clean_link",
            note: "the dual cone: prunes only the flagged screening s3 - \
                   the deliberately thin end of the spectrum",
            program: sanctions::program(),
            goal: "clean_link",
            glossary: sanctions::glossary(),
            db: finkg::random_sanctions(2500, 3, 7, 7),
        },
    ]
}

/// Renders every goal explanation of `out` into one comparable blob.
/// The caller keeps `out` alive, so dropping it stays outside any timed
/// region.
fn rendered(artifacts: &Arc<ProgramArtifacts>, out: &Arc<ChaseOutcome>) -> Vec<String> {
    Explainer::for_snapshot(Arc::clone(artifacts), Arc::clone(out))
        .report()
        .expect("report must succeed")
        .into_iter()
        .map(|e| {
            let support: Vec<String> = e.support.iter().map(|f| f.to_string()).collect();
            format!(
                "{} || {} || {:?} || {} || {:?}",
                e.fact, e.text, e.paths, e.chase_steps, support
            )
        })
        .collect()
}

struct BenchRow {
    name: &'static str,
    note: &'static str,
    edb_facts: usize,
    cone_predicates: usize,
    retained_rules: usize,
    pruned_rules: usize,
    goal_facts: usize,
    full_derived: usize,
    pruned_derived: usize,
    full_ms: f64,
    pruned_ms: f64,
    speedup: f64,
}

fn run(w: &Workload) -> BenchRow {
    let artifacts = ProgramArtifacts::builder(w.program.clone(), w.goal)
        .with_glossary(&w.glossary)
        .build_cached()
        .unwrap_or_else(|e| panic!("{}: artifact build failed: {e}", w.name));
    let cone = Arc::clone(artifacts.goal_cone());

    // Correctness gate first: pruned explanations must be byte-identical.
    let full = Arc::new(
        ChaseSession::new(&w.program)
            .with_threads(1)
            .run(w.db.clone())
            .unwrap(),
    );
    let pruned = Arc::new(
        ChaseSession::new(&w.program)
            .with_config(artifacts.pruned_chase_config().with_threads(1))
            .run(w.db.clone())
            .unwrap(),
    );
    let reference = rendered(&artifacts, &full);
    assert_eq!(
        rendered(&artifacts, &pruned),
        reference,
        "{}: pruned explanations diverged from the full chase",
        w.name
    );
    assert!(
        !reference.is_empty(),
        "{}: the workload derives no {} facts",
        w.name,
        w.goal
    );
    let (full_derived, pruned_derived) = (full.derived_facts, pruned.derived_facts);
    let goal_facts = reference.len();

    // End-to-end per-goal explain latency: chase, then explain every
    // derived goal fact. The explain stage is identical on both sides;
    // the cone changes only how much chase work precedes it.
    let mut full_ms = f64::INFINITY;
    let mut pruned_ms = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        let out = Arc::new(
            ChaseSession::new(&w.program)
                .with_threads(1)
                .run(w.db.clone())
                .unwrap(),
        );
        let report = rendered(&artifacts, &out);
        full_ms = full_ms.min(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(report);

        let t = Instant::now();
        let out = Arc::new(
            ChaseSession::new(&w.program)
                .with_config(artifacts.pruned_chase_config().with_threads(1))
                .run(w.db.clone())
                .unwrap(),
        );
        let report = rendered(&artifacts, &out);
        pruned_ms = pruned_ms.min(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(report);
    }

    BenchRow {
        name: w.name,
        note: w.note,
        edb_facts: w.db.len(),
        cone_predicates: cone.predicate_count(),
        retained_rules: cone.retained_rule_count(),
        pruned_rules: cone.pruned_rule_count(),
        goal_facts,
        full_derived,
        pruned_derived,
        full_ms,
        pruned_ms,
        speedup: full_ms / pruned_ms.max(1e-9),
    }
}

fn main() {
    let date = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "unreported".into());

    let rows: Vec<BenchRow> = workloads().iter().map(run).collect();
    for row in &rows {
        println!(
            "{}: full {:.1} ms, pruned {:.1} ms -> x{:.2} \
             ({} cone predicates, {} of {} rules pruned, {} goal facts)",
            row.name,
            row.full_ms,
            row.pruned_ms,
            row.speedup,
            row.cone_predicates,
            row.pruned_rules,
            row.retained_rules + row.pruned_rules,
            row.goal_facts
        );
    }
    let max_speedup = rows.iter().map(|r| r.speedup).fold(0.0f64, f64::max);
    assert!(
        max_speedup >= REQUIRED_SPEEDUP,
        "no workload reached the x{REQUIRED_SPEEDUP} acceptance bar (best x{max_speedup:.2})"
    );

    let mut jw = JsonWriter::new();
    jw.open_object();
    jw.field_str("name", "goal_directed_evaluation");
    jw.field_str("date", &date);
    jw.field_str(
        "description",
        "Goal-directed (relevance-cone-pruned) evaluation against the \
         full chase, measured as end-to-end per-goal explain latency: \
         chase the EDB single-threaded, then explain every derived goal \
         fact. The cone restricts the chase to the rules that can reach \
         the goal through positive or negated dependency edges, closed \
         over SCCs; before timing, the pruned run's explanations are \
         asserted byte-identical to the full run's. Times are best-of-3. \
         Acceptance: speedup >= 2 on at least one workload. Regenerate \
         with `cargo run --release -p bench --bin goal_directed -- \
         $(date +%F)`.",
    );
    jw.field_f64("required_speedup", REQUIRED_SPEEDUP);
    jw.field_f64("max_speedup", max_speedup);
    jw.key("workloads");
    jw.open_array();
    for row in &rows {
        jw.open_object();
        jw.field_str("workload", row.name);
        jw.field_str("note", row.note);
        jw.field_u64("edb_facts", row.edb_facts as u64);
        jw.field_u64("cone_predicates", row.cone_predicates as u64);
        jw.field_u64("retained_rules", row.retained_rules as u64);
        jw.field_u64("pruned_rules", row.pruned_rules as u64);
        jw.field_u64("goal_facts", row.goal_facts as u64);
        jw.field_u64("full_derived_facts", row.full_derived as u64);
        jw.field_u64("pruned_derived_facts", row.pruned_derived as u64);
        jw.field_f64("full_explain_ms", row.full_ms);
        jw.field_f64("pruned_explain_ms", row.pruned_ms);
        jw.field_f64("speedup_full_over_pruned", row.speedup);
        jw.close_object();
    }
    jw.close_array();
    jw.close_object();

    let json = jw.finish();
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_goal_directed.json", pretty(&json)).expect("write results");
    println!("wrote results/BENCH_goal_directed.json (max speedup x{max_speedup:.2})");
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

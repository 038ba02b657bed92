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
//! Gates, all single-threaded: the pruned run's explanations are
//! byte-identical to the full run's for every goal fact; each
//! workload's work counters (cone predicates, pruned rules, and the
//! matches and derived facts of the full and the pruned chase) equal
//! the committed values; and golden_power/control's median paired
//! full/pruned ratio ([`bench::measure::paired`]) reaches
//! [`REQUIRED_SPEEDUP`].
//!
//! Usage: `cargo run --release -p bench --bin goal_directed [-- DATE]`.

use bench::measure::{self, Paired};
use explain::{DomainGlossary, Explainer, ProgramArtifacts};
use std::sync::Arc;
use vadalog::{ChaseOutcome, ChaseSession, Database, Program};

/// The bar on golden_power/control's median paired full/pruned ratio,
/// re-set from paired runs of the parent commit (every one read at
/// least 1.56); a cone that keeps every rule reads about 1.
const REQUIRED_SPEEDUP: f64 = 1.3;

/// The deterministic work of one workload's single-threaded runs.
#[derive(Debug, PartialEq)]
struct Work {
    cone_predicates: usize,
    pruned_rules: usize,
    full_matches: u64,
    full_derived: usize,
    pruned_matches: u64,
    pruned_derived: usize,
}

struct Workload {
    name: &'static str,
    note: &'static str,
    program: Program,
    goal: &'static str,
    glossary: DomainGlossary,
    db: Database,
    expected: Work,
    /// The workload carrying the wall-clock bar.
    gated: bool,
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
            expected: Work {
                cone_predicates: 3,
                pruned_rules: 2,
                full_matches: 10_481,
                full_derived: 6_122,
                pruned_matches: 5_385,
                pruned_derived: 2_694,
            },
            gated: true,
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
            expected: Work {
                cone_predicates: 4,
                pruned_rules: 1,
                full_matches: 65_548,
                full_derived: 54_491,
                pruned_matches: 44_837,
                pruned_derived: 33_780,
            },
            gated: false,
        },
        Workload {
            name: "sanctions/clean_link",
            note: "the dual cone: prunes only the flagged screening s3 - \
                   the deliberately thin end of the spectrum",
            program: sanctions::program(),
            goal: "clean_link",
            glossary: sanctions::glossary(),
            db: finkg::random_sanctions(2500, 3, 7, 7),
            expected: Work {
                cone_predicates: 4,
                pruned_rules: 1,
                full_matches: 65_548,
                full_derived: 54_491,
                pruned_matches: 60_538,
                pruned_derived: 49_481,
            },
            gated: false,
        },
    ]
}

/// Renders every goal explanation of `out` into one comparable blob.
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
    retained_rules: usize,
    goal_facts: usize,
    work: Work,
    times: Paired,
}

fn run(w: &Workload) -> BenchRow {
    let artifacts = ProgramArtifacts::builder(w.program.clone(), w.goal)
        .with_glossary(&w.glossary)
        .build_cached()
        .unwrap_or_else(|e| panic!("{}: artifact build failed: {e}", w.name));
    let cone = Arc::clone(artifacts.goal_cone());
    // Chase then explain every goal fact.
    let explain = |pruned: bool| {
        let config = if pruned {
            artifacts.pruned_chase_config()
        } else {
            Default::default()
        };
        let out = Arc::new(
            ChaseSession::new(&w.program)
                .with_config(config.with_threads(1))
                .run(w.db.clone())
                .unwrap(),
        );
        let report = rendered(&artifacts, &out);
        (out, report)
    };

    let (full, reference) = explain(false);
    let (pruned, pruned_report) = explain(true);
    assert_eq!(
        pruned_report, reference,
        "{}: pruned explanations diverged from the full chase",
        w.name
    );
    assert!(
        !reference.is_empty(),
        "{}: the workload derives no {} facts",
        w.name,
        w.goal
    );
    BenchRow {
        retained_rules: cone.retained_rule_count(),
        goal_facts: reference.len(),
        work: Work {
            cone_predicates: cone.predicate_count(),
            pruned_rules: cone.pruned_rule_count(),
            full_matches: full.report.total_matches(),
            full_derived: full.derived_facts,
            pruned_matches: pruned.report.total_matches(),
            pruned_derived: pruned.derived_facts,
        },
        times: measure::paired(|| explain(false), || explain(true)),
    }
}

fn main() {
    let workloads = workloads();
    let rows: Vec<BenchRow> = workloads.iter().map(run).collect();
    for (w, row) in workloads.iter().zip(&rows) {
        let ratio = row.times.ratio();
        println!(
            "{}: full {:.1} ms, pruned {:.1} ms, paired ratio x{:.2} [{:.2}, {:.2}] \
             ({} cone predicates, {} of {} rules pruned, {} goal facts)",
            w.name,
            measure::summary(&row.times.a).median * 1e3,
            measure::summary(&row.times.b).median * 1e3,
            ratio.median,
            ratio.q1,
            ratio.q3,
            row.work.cone_predicates,
            row.work.pruned_rules,
            row.retained_rules + row.work.pruned_rules,
            row.goal_facts,
        );
    }
    for (w, row) in workloads.iter().zip(&rows) {
        assert_eq!(
            row.work, w.expected,
            "{}: work counters differ from the committed values",
            w.name
        );
        let ratio = row.times.ratio().median;
        assert!(
            !w.gated || ratio >= REQUIRED_SPEEDUP,
            "{}: median paired ratio x{ratio:.2} is below the x{REQUIRED_SPEEDUP} bar",
            w.name
        );
    }

    measure::write_result(
        "goal_directed",
        "Goal-directed (relevance-cone-pruned) evaluation against the \
         full chase, measured as end-to-end per-goal explain latency: \
         chase the EDB single-threaded, then explain every derived goal \
         fact. The cone restricts the chase to the rules that can reach \
         the goal through positive or negated dependency edges, closed \
         over SCCs. Gates: the pruned run's explanations are \
         byte-identical to the full run's; each workload's cone size, \
         pruned rules and chase matches and derived facts equal \
         committed values; golden_power/control's median paired \
         full/pruned ratio reaches required_speedup. Times are median \
         [q1, q3] of paired samples. Regenerate with `cargo run \
         --release -p bench --bin goal_directed -- $(date +%F)`.",
        |jw| {
            jw.field_f64("required_speedup", REQUIRED_SPEEDUP);
            jw.field_u64("pairs", measure::PAIRS as u64);
            jw.key("workloads");
            jw.open_array();
            for (w, row) in workloads.iter().zip(&rows) {
                jw.open_object();
                jw.field_str("workload", w.name);
                jw.field_str("note", w.note);
                jw.field_u64("edb_facts", w.db.len() as u64);
                jw.field_u64("cone_predicates", row.work.cone_predicates as u64);
                jw.field_u64("retained_rules", row.retained_rules as u64);
                jw.field_u64("pruned_rules", row.work.pruned_rules as u64);
                jw.field_u64("goal_facts", row.goal_facts as u64);
                jw.field_u64("full_matches", row.work.full_matches);
                jw.field_u64("full_derived_facts", row.work.full_derived as u64);
                jw.field_u64("pruned_matches", row.work.pruned_matches);
                jw.field_u64("pruned_derived_facts", row.work.pruned_derived as u64);
                measure::write_quartiles(jw, "full_explain_ms", &row.times.a, 1e3);
                measure::write_quartiles(jw, "pruned_explain_ms", &row.times.b, 1e3);
                measure::write_quartiles(jw, "full_over_pruned", &row.times.ratios, 1.0);
                jw.close_object();
            }
            jw.close_array();
        },
    );
}

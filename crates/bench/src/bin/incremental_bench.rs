//! Regenerates `results/BENCH_incremental.json`: incremental fixpoint
//! maintenance (`ChaseSession::apply_delta`) against a full re-chase on
//! live-update finkg workloads.
//!
//! Three aggregate-free applications exercise the maintenance
//! algorithm:
//!
//! * *joint_exposure* — the closing-edge triangle join: a from-scratch
//!   chase enumerates every two-hop path to probe for the closing
//!   stake, while maintenance only re-matches around the delta's pivots
//!   and replays the (small) surviving model — the workload where the
//!   incremental path pays off;
//! * *sanctions* — exposure chains with stratified negation: additions
//!   propagate semi-naively from the delta pivots, retractions of
//!   `sanctioned` designations both tear down flagged cones (DRed) and
//!   unblock negated `clean_link` matches;
//! * *close_links* — multiplicative ownership chains: a deep recursive
//!   IDB where most chase work is committing facts the replay must
//!   also commit, so maintenance only wins modestly.
//!
//! Each workload applies a ~1% mixed add/retract delta to a chased
//! outcome, single-threaded. Gates: the maintained outcome is bitwise
//! identical to a from-scratch chase on the updated EDB (facts, ids,
//! activity, extensional marks, every derivation field); maintenance
//! takes [`DeltaStrategy::Incremental`]; its work counters (facts
//! added, removed and re-derived, and the matches maintenance
//! enumerated) equal the committed values; and joint_exposure's median
//! paired re-chase/maintenance ratio ([`bench::measure::paired`])
//! reaches [`REQUIRED_SPEEDUP`].
//!
//! Usage: `cargo run --release -p bench --bin incremental_bench [-- DATE]`.

use bench::measure::{self, Paired};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use vadalog::{ChaseOutcome, ChaseSession, Database, Delta, DeltaStrategy, Fact, Program};

/// The bar on joint_exposure's median paired re-chase/maintenance
/// ratio, re-set from paired runs of the parent commit (every one read
/// at least 2.07); maintenance that always re-chases reads about 1.
const REQUIRED_SPEEDUP: f64 = 1.8;

/// The deterministic work of one maintained delta.
#[derive(Debug, PartialEq)]
struct Work {
    strategy: DeltaStrategy,
    facts_added: usize,
    facts_removed: usize,
    facts_rederived: usize,
    /// `report.total_matches()` of the maintained outcome: the matches
    /// maintenance enumerated.
    maintenance_matches: u64,
}

struct Workload {
    name: &'static str,
    note: &'static str,
    program: Program,
    /// The base EDB in insertion order.
    edb: Vec<Fact>,
    /// Entity count, for drawing fresh delta facts.
    n: usize,
    /// Whether delta additions may be `sanctioned` designations (only
    /// meaningful for programs that mention them).
    add_designations: bool,
    expected: Work,
    /// The workload carrying the wall-clock bar.
    gated: bool,
}

fn joint_exposure() -> Workload {
    Workload {
        name: "joint_exposure",
        note: "closing-edge triangle join: the chase enumerates every \
               two-hop path to probe the closing stake; maintenance \
               re-matches only around the delta",
        program: finkg::apps::joint_exposure::program(),
        edb: facts_of(finkg::random_ownership(6000, 40, 7)),
        n: 6000,
        add_designations: false,
        expected: Work {
            strategy: DeltaStrategy::Incremental,
            facts_added: 724,
            facts_removed: 864,
            facts_rederived: 60,
            maintenance_matches: 126,
        },
        gated: true,
    }
}

fn sanctions() -> Workload {
    Workload {
        name: "sanctions",
        note: "exposure chains with stratified negation: retracting a \
               sanctioned designation tears down flagged cones and \
               unblocks negated clean_link matches",
        program: finkg::apps::sanctions::program(),
        edb: facts_of(finkg::random_sanctions(4000, 3, 3, 7)),
        n: 4000,
        add_designations: true,
        expected: Work {
            strategy: DeltaStrategy::Incremental,
            facts_added: 4_679,
            facts_removed: 4_312,
            facts_rederived: 3_088,
            maintenance_matches: 36_559,
        },
        gated: false,
    }
}

fn close_links() -> Workload {
    Workload {
        name: "close_links",
        note: "multiplicative ownership chains: a deep recursive IDB \
               where the delta touches a small derivation cone",
        program: finkg::apps::close_links::program(),
        edb: facts_of(finkg::random_ownership(4000, 3, 7)),
        n: 4000,
        add_designations: false,
        expected: Work {
            strategy: DeltaStrategy::Incremental,
            facts_added: 747,
            facts_removed: 786,
            facts_rederived: 26,
            maintenance_matches: 706,
        },
        gated: false,
    }
}

fn facts_of(db: vadalog::Database) -> Vec<Fact> {
    db.iter().map(|(_, f)| f.clone()).collect()
}

/// A ~1% mixed delta: half retractions of existing EDB facts, half
/// additions of fresh `own` edges (and, where the program screens them,
/// `sanctioned` designations). Mirrors the engine's canonical EDB order
/// into `edb` (survivors keep their relative order, additions append).
fn one_percent_delta(rng: &mut StdRng, w: &Workload, edb: &mut Vec<Fact>) -> Delta {
    let ops = (edb.len() / 100).max(2);
    let mut delta = Delta::new();
    for k in 0..ops {
        if k % 2 == 0 {
            let victim = edb.remove(rng.random_range(0..edb.len()));
            delta = delta.retract(victim);
        } else {
            let fact = loop {
                let (i, j) = (rng.random_range(0..w.n), rng.random_range(0..w.n));
                let candidate = if !w.add_designations || k % 4 == 1 {
                    Fact::new(
                        "own",
                        vec![
                            format!("C{i}").as_str().into(),
                            format!("C{j}").as_str().into(),
                            (rng.random_range(20..95) as f64 / 100.0).into(),
                        ],
                    )
                } else {
                    Fact::new("sanctioned", vec![format!("C{i}").as_str().into()])
                };
                if !edb.contains(&candidate) {
                    break candidate;
                }
            };
            edb.push(fact.clone());
            delta = delta.add(fact);
        }
    }
    delta
}

/// The full structural fingerprint: equality means the maintained and
/// re-chased outcomes are interchangeable downstream.
fn structural(out: &ChaseOutcome) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for (id, fact) in out.database.iter() {
        let _ = writeln!(
            s,
            "{id} {fact} active={} edb={}",
            out.database.is_active(id),
            out.graph.is_extensional(id)
        );
    }
    for d in out.graph.derivations() {
        let _ = writeln!(
            s,
            "r{} {:?} -> {} round={} contrib={}",
            d.rule.0, d.premises, d.conclusion, d.round, d.contributors
        );
    }
    let _ = write!(s, "rounds={}", out.rounds);
    s
}

struct BenchRow {
    delta_ops: usize,
    total_facts: usize,
    rechase_matches: u64,
    work: Work,
    times: Paired,
}

fn run(w: &Workload) -> BenchRow {
    let mut rng = StdRng::seed_from_u64(0xBEEF ^ w.edb.len() as u64);
    let mut updated = w.edb.clone();
    let delta = one_percent_delta(&mut rng, w, &mut updated);
    let updated: Database = updated.into_iter().collect();
    let initial: Arc<ChaseOutcome> = Arc::new(
        ChaseSession::new(&w.program)
            .with_threads(1)
            .run(w.edb.iter().cloned().collect())
            .unwrap(),
    );
    let maintain = || {
        let mut session = ChaseSession::new(&w.program).with_threads(1);
        session.load(Arc::clone(&initial));
        session.apply_delta(delta.clone()).unwrap()
    };
    let rechase = || {
        ChaseSession::new(&w.program)
            .with_threads(1)
            .run(updated.clone())
            .unwrap()
    };

    let applied = maintain();
    let scratch = rechase();
    assert_eq!(
        structural(&scratch),
        structural(&applied.outcome),
        "{}: maintained outcome diverged from the full re-chase",
        w.name
    );
    BenchRow {
        delta_ops: delta.len(),
        total_facts: applied.outcome.database.len(),
        rechase_matches: scratch.report.total_matches(),
        work: Work {
            strategy: applied.strategy,
            facts_added: applied.facts_added,
            facts_removed: applied.facts_removed,
            facts_rederived: applied.facts_rederived,
            maintenance_matches: applied.outcome.report.total_matches(),
        },
        times: measure::paired(rechase, maintain),
    }
}

fn main() {
    // joint_exposure carries the bar; the other two document where
    // maintenance wins less.
    let workloads = [joint_exposure(), sanctions(), close_links()];
    let rows: Vec<BenchRow> = workloads.iter().map(run).collect();
    for (w, row) in workloads.iter().zip(&rows) {
        let ratio = row.times.ratio();
        println!(
            "{}: re-chase {:.1} ms, maintain {:.1} ms, paired ratio x{:.2} [{:.2}, {:.2}] \
             ({} delta ops on {} EDB facts; {} maintenance matches against {} re-chase matches)",
            w.name,
            measure::summary(&row.times.a).median * 1e3,
            measure::summary(&row.times.b).median * 1e3,
            ratio.median,
            ratio.q1,
            ratio.q3,
            row.delta_ops,
            w.edb.len(),
            row.work.maintenance_matches,
            row.rechase_matches,
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
        "incremental",
        "Incremental fixpoint maintenance (ChaseSession::apply_delta: \
         semi-naive propagation for additions, DRed over-delete/ \
         re-derive for retractions) against a full re-chase on the \
         updated EDB, for a ~1% mixed add/retract delta on live-update \
         finkg workloads, single-threaded. Gates: the maintained outcome \
         is bitwise identical to the from-scratch chase (facts, ids, \
         activity, extensional marks, every derivation field); \
         maintenance takes the incremental strategy; facts added, \
         removed and re-derived and the matches maintenance enumerated \
         equal committed values; joint_exposure's median paired \
         re-chase/maintenance ratio reaches required_speedup. Times are \
         median [q1, q3] of paired samples. Regenerate with `cargo run \
         --release -p bench --bin incremental_bench -- $(date +%F)`.",
        |jw| {
            jw.field_f64("required_speedup", REQUIRED_SPEEDUP);
            jw.field_u64("pairs", measure::PAIRS as u64);
            jw.key("workloads");
            jw.open_array();
            for (w, row) in workloads.iter().zip(&rows) {
                jw.open_object();
                jw.field_str("workload", w.name);
                jw.field_str("note", w.note);
                jw.field_u64("edb_facts", w.edb.len() as u64);
                jw.field_u64("delta_ops", row.delta_ops as u64);
                jw.field_u64("total_facts", row.total_facts as u64);
                jw.field_u64("facts_added", row.work.facts_added as u64);
                jw.field_u64("facts_removed", row.work.facts_removed as u64);
                jw.field_u64("facts_rederived", row.work.facts_rederived as u64);
                jw.field_u64("maintenance_matches", row.work.maintenance_matches);
                jw.field_u64("rechase_matches", row.rechase_matches);
                measure::write_quartiles(jw, "full_rechase_ms", &row.times.a, 1e3);
                measure::write_quartiles(jw, "maintain_ms", &row.times.b, 1e3);
                measure::write_quartiles(jw, "rechase_over_maintain", &row.times.ratios, 1.0);
                jw.close_object();
            }
            jw.close_array();
        },
    );
}

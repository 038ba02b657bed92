//! The determinism suite of the parallel chase: for every finkg
//! application and for seeded generator bundles, chasing at 1, 2 and 8
//! worker threads yields identical fact sets, identical dense `FactId`
//! assignment, and isomorphic chase graphs (derivation-for-derivation
//! equal, in recording order — stronger than isomorphism).

mod reference;

use finkg::apps::{close_links, control, golden_power, simple_stress, stress};
use finkg::scenario;
use std::sync::Arc;
use vadalog::{
    Budget, CancelToken, ChaseConfig, ChaseError, ChaseOutcome, ChaseSession, Database,
    MetricsRegistry, Program, RowRef, RunGuard,
};

const THREAD_SWEEP: [usize; 2] = [2, 8];

/// A full structural fingerprint of a chase outcome: every fact in id
/// order with its activity flag, every derivation in recording order
/// with its head bindings and each contributor's bindings in contributor
/// order, the round count and the violations. Equal fingerprints mean
/// the outcomes are interchangeable for every downstream consumer
/// (proofs, explanations, benches).
fn fingerprint(out: &ChaseOutcome) -> String {
    use std::fmt::Write;
    let sorted = |b: RowRef<'_>| {
        let mut pairs: Vec<String> = b.iter().map(|(k, v)| format!("{k}={v}")).collect();
        pairs.sort();
        pairs.join(",")
    };
    let mut s = String::new();
    for (id, fact) in out.database.iter() {
        let _ = writeln!(s, "{id} {fact} active={}", out.database.is_active(id));
    }
    for d in out.graph.derivations() {
        let _ = write!(
            s,
            "r{} {:?} -> {} round={} contrib={} [{}]",
            d.rule.0,
            d.premises,
            d.conclusion,
            d.round,
            d.contributors,
            sorted(d.bindings.view()),
        );
        for c in &d.contributor_bindings {
            let _ = write!(s, " <{}>", sorted(c));
        }
        let _ = writeln!(s);
    }
    let _ = write!(s, "rounds={} violations={:?}", out.rounds, out.violations);
    s
}

/// Chases `db` under `program` once per thread count and asserts all
/// fingerprints equal the single-threaded reference.
fn assert_thread_invariant(name: &str, program: &Program, db: &Database) {
    let reference = ChaseSession::new(program)
        .with_threads(1)
        .run(db.clone())
        .unwrap_or_else(|e| panic!("{name}: single-threaded chase failed: {e}"));
    let expected = fingerprint(&reference);
    for threads in THREAD_SWEEP {
        let out = ChaseSession::new(program)
            .with_threads(threads)
            .run(db.clone())
            .unwrap_or_else(|e| panic!("{name}: chase at {threads} threads failed: {e}"));
        assert_eq!(
            fingerprint(&out),
            expected,
            "{name}: outcome diverged at {threads} threads"
        );
    }
}

fn golden_power_scenario() -> Database {
    let mut db = Database::new();
    for c in ["OffshoreCo", "HoldCo", "SubA", "SubB", "GridCo"] {
        db.add("company", &[c.into()]);
    }
    db.add("foreign", &["OffshoreCo".into()]);
    db.add("strategic", &["GridCo".into()]);
    db.add("own", &["OffshoreCo".into(), "HoldCo".into(), 0.7.into()]);
    db.add("own", &["HoldCo".into(), "SubA".into(), 0.9.into()]);
    db.add("own", &["HoldCo".into(), "SubB".into(), 0.6.into()]);
    db.add("own", &["SubA".into(), "GridCo".into(), 0.06.into()]);
    db.add("own", &["SubB".into(), "GridCo".into(), 0.06.into()]);
    db
}

#[test]
fn company_control_is_thread_invariant() {
    assert_thread_invariant(
        "control/scenario",
        &control::program(),
        &scenario::database(),
    );
    assert_thread_invariant(
        "control/random",
        &control::program(),
        &finkg::random_ownership(80, 3, 7),
    );
}

#[test]
fn stress_test_is_thread_invariant() {
    assert_thread_invariant("stress/scenario", &stress::program(), &scenario::database());
    assert_thread_invariant(
        "stress/random",
        &stress::program(),
        &finkg::random_debt_network(80, 3, 5, 11),
    );
}

#[test]
fn simple_stress_is_thread_invariant() {
    assert_thread_invariant(
        "simple_stress/figure8",
        &simple_stress::program(),
        &simple_stress::figure_8_database(),
    );
}

#[test]
fn golden_power_is_thread_invariant() {
    assert_thread_invariant(
        "golden_power/scenario",
        &golden_power::program(),
        &golden_power_scenario(),
    );
}

#[test]
fn close_links_is_thread_invariant() {
    assert_thread_invariant(
        "close_links/random",
        &close_links::program(),
        &finkg::random_ownership(60, 4, 9),
    );
}

#[test]
fn seeded_control_bundle_is_thread_invariant() {
    let bundle = finkg::generator::control_bundle(4, 6, 42);
    assert_thread_invariant("bundle/control", &control::program(), &bundle.database);
}

#[test]
fn seeded_stress_bundle_is_thread_invariant() {
    let bundle = finkg::generator::stress_bundle(4, 6, 43);
    assert_thread_invariant("bundle/stress", &stress::program(), &bundle.database);
}

/// Semi-naive evaluation — aggregate rules included, whose kept groups
/// re-fold only when they gain or lose a contributor — matches the
/// reference chase of `reference/` at 1, 2 and 8 threads. The cases
/// cover multi-contributor groups (the jointly held links of
/// `control_bundle_aggregated`) and supersession (the stress test's
/// growing `risk` sums, which `o7` sums again per company).
#[test]
fn aggregate_programs_match_the_reference() {
    let mut cases: Vec<(String, Program, Database)> = Vec::new();
    for (hops, seed) in [(2usize, 1u64), (5, 7), (8, 13)] {
        let bundle = finkg::generator::control_bundle_aggregated(hops, 4, seed);
        cases.push((
            format!("control_bundle_aggregated({hops}, 4, {seed})"),
            control::program(),
            bundle.database,
        ));
    }
    // Seeds whose cascades reach some creditor over several rounds, so
    // its `risk` sum is superseded.
    for (n, seed) in [(40usize, 7u64), (40, 9), (80, 0), (200, 9)] {
        cases.push((
            format!("stress/random_debt_network({n}, 3, 5, {seed})"),
            stress::program(),
            finkg::random_debt_network(n, 3, 5, seed),
        ));
    }
    let (mut multi_contributor, mut superseded) = (false, false);
    for (name, program, db) in &cases {
        let outcomes = reference::assert_engine_matches(name, program, db, &ChaseConfig::default());
        let out = &outcomes[0];
        multi_contributor |= out.graph.derivations().iter().any(|d| d.contributors > 1);
        superseded |= out.database.inactive_count() > 0;
    }
    assert!(multi_contributor, "no case folds a multi-contributor group");
    assert!(superseded, "no case supersedes an aggregate");
}

/// The determinism contract extends to the metrics registry: running the
/// same chase into a fresh registry at 1, 2 and 8 worker threads must
/// leave bitwise-identical counter, gauge and histogram-observation
/// counts (`MetricsRegistry::count_fingerprint`). Only histogram bucket
/// placement — wall-clock latency — is exempt.
#[test]
fn metric_counts_are_thread_invariant() {
    let cases: [(&str, Program, Database); 2] = [
        ("control", control::program(), scenario::database()),
        (
            "stress",
            stress::program(),
            finkg::random_debt_network(60, 3, 5, 11),
        ),
    ];
    for (name, program, db) in &cases {
        let run = |threads: usize| {
            let registry = Arc::new(MetricsRegistry::new());
            ChaseSession::new(program)
                .with_config(
                    ChaseConfig::default()
                        .with_threads(threads)
                        .with_metrics(registry.clone()),
                )
                .run(db.clone())
                .unwrap_or_else(|e| panic!("{name}: chase at {threads} threads failed: {e}"));
            registry.count_fingerprint()
        };
        let expected = run(1);
        assert!(
            expected.contains("vadalog_chase_runs_total"),
            "{name}: registry missing run counters:\n{expected}"
        );
        for threads in THREAD_SWEEP {
            assert_eq!(
                run(threads),
                expected,
                "{name}: metric counts diverged at {threads} threads"
            );
        }
    }
}

/// The determinism contract extends across interruption: a chase tripped
/// by a fact budget and then resumed must land on a state bitwise
/// identical to the uninterrupted single-threaded run, at every thread
/// count and for every trip point.
#[test]
fn budget_interrupted_chase_resumes_to_the_uninterrupted_state() {
    let program = control::program();
    let db = finkg::random_ownership(60, 3, 7);
    let reference = ChaseSession::new(&program)
        .with_threads(1)
        .run(db.clone())
        .expect("uninterrupted chase");
    let expected = fingerprint(&reference);
    let mut tripped = 0usize;
    for threads in [1usize, 2, 8] {
        for budget in [80u64, 150, 400] {
            let run = ChaseSession::new(&program)
                .with_threads(threads)
                .with_guard(RunGuard::new().with_max_facts(budget))
                .run(db.clone());
            let out = match run {
                Err(ChaseError::ResourceExhausted { partial, .. }) => {
                    tripped += 1;
                    ChaseSession::new(&program)
                        .with_threads(threads)
                        .resume(*partial)
                        .expect("resume to fixpoint")
                }
                Ok(out) => out,
                Err(e) => panic!("unexpected chase error: {e}"),
            };
            assert_eq!(
                fingerprint(&out),
                expected,
                "resumed outcome diverged at {threads} threads, budget {budget}"
            );
        }
    }
    assert!(tripped > 0, "no budget ever tripped; tighten the sweep");
}

/// Cancelling a chase from another thread at an arbitrary moment and
/// resuming the partial outcome must also reach the bitwise-identical
/// final state — regardless of where the cancellation landed.
#[test]
fn cancelled_chase_resumes_to_the_uninterrupted_state() {
    let program = control::program();
    let db = finkg::random_ownership(80, 3, 11);
    let reference = ChaseSession::new(&program)
        .with_threads(1)
        .run(db.clone())
        .expect("uninterrupted chase");
    let expected = fingerprint(&reference);
    for threads in [1usize, 2, 8] {
        for delay_us in [0u64, 200, 2000] {
            let token = CancelToken::new();
            let canceller = {
                let token = token.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_micros(delay_us));
                    token.cancel();
                })
            };
            let run = ChaseSession::new(&program)
                .with_threads(threads)
                .with_guard(RunGuard::new().with_cancel_token(token))
                .run(db.clone());
            canceller.join().unwrap();
            let out = match run {
                Err(ChaseError::ResourceExhausted {
                    budget: Budget::Cancelled,
                    partial,
                    ..
                }) => ChaseSession::new(&program)
                    .with_threads(threads)
                    .resume(*partial)
                    .expect("resume to fixpoint"),
                Ok(out) => out,
                Err(e) => panic!("unexpected chase error: {e}"),
            };
            assert_eq!(
                fingerprint(&out),
                expected,
                "cancel-resume diverged at {threads} threads, delay {delay_us}us"
            );
        }
    }
}

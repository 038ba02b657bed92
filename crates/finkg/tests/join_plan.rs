//! Equivalence and determinism suite for the planned join: the engine
//! (pivot-first delta expansions over composite-index probes) must
//! produce the outcome of the independent reference chase of
//! `reference/` — bitwise-identical fact stores, `FactId` assignment and
//! derivation logs — at 1, 2 and 8 worker threads, on seeded finkg
//! bundles and on randomized programs with negation, aggregation and
//! existentials. The probes themselves are checked against the scan they
//! replace by the randomized index test of `vadalog`'s `database` module.

mod reference;

use finkg::apps::{control, golden_power, stress};
use finkg::scenario;
use proptest::prelude::*;
use vadalog::{parse_program, ChaseConfig, ChaseSession, Database, Program, Value};

/// Chases `db` at 1, 2 and 8 threads and asserts: every outcome equal to
/// the reference chase's, and one `count_fingerprint()` across the
/// thread sweep.
fn assert_plan_equivalent(name: &str, program: &Program, db: &Database) {
    let outcomes = reference::assert_engine_matches(name, program, db, &ChaseConfig::default());
    let counters = outcomes[0].report.count_fingerprint();
    for (out, threads) in outcomes.iter().zip(reference::THREADS) {
        assert_eq!(
            out.report.count_fingerprint(),
            counters,
            "{name}: counters diverged at {threads} threads"
        );
    }
}

#[test]
fn finkg_applications_are_plan_invariant() {
    assert_plan_equivalent(
        "control/scenario",
        &control::program(),
        &scenario::database(),
    );
    assert_plan_equivalent(
        "control/random",
        &control::program(),
        &finkg::random_ownership(80, 3, 7),
    );
    assert_plan_equivalent(
        "stress/random",
        &stress::program(),
        &finkg::random_debt_network(80, 3, 5, 11),
    );
    assert_plan_equivalent(
        "golden_power/random",
        &golden_power::program(),
        &finkg::random_ownership(60, 4, 9),
    );
}

#[test]
fn seeded_bundles_are_plan_invariant() {
    let bundle = finkg::control_bundle(5, 4, 42);
    assert_plan_equivalent("bundle/control", &control::program(), &bundle.database);
    let bundle = finkg::stress_bundle(4, 4, 43);
    assert_plan_equivalent("bundle/stress", &stress::program(), &bundle.database);
}

/// With the composite plan active, negated-atom checks and restricted-
/// chase satisfaction checks are answered by index probes, never by the
/// linear scan — the headline claim of the planner.
#[test]
fn planned_negation_and_satisfaction_never_scan() {
    let program = parse_program(
        "p1: own(x, y, s) -> linked(x, y).
         p2: linked(x, y), not sanctioned(x) -> clean(x, y).
         p3: clean(x, y) -> audit(x, z).",
    )
    .unwrap()
    .program;
    let mut db = finkg::random_ownership(60, 3, 5);
    for i in (0..60usize).step_by(4) {
        db.add("sanctioned", &[format!("C{i}").as_str().into()]);
    }
    let out = ChaseSession::new(&program).run(db).unwrap();
    let sum =
        |f: fn(&vadalog::telemetry::RuleStats) -> u64| out.report.rules.iter().map(f).sum::<u64>();
    assert!(sum(|r| r.negation_probes) > 0, "negation never exercised");
    assert_eq!(
        sum(|r| r.negation_scans),
        0,
        "planned negation fell back to a scan"
    );
    assert!(
        sum(|r| r.satisfaction_probes) > 0,
        "satisfaction check never exercised"
    );
    assert_eq!(
        sum(|r| r.satisfaction_scans),
        0,
        "planned satisfaction check fell back to a scan"
    );
    assert!(
        sum(|r| r.composite_probes) == 0 || sum(|r| r.index_probes) >= sum(|r| r.composite_probes)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On a randomized recursive program with negation and aggregation,
    /// the engine produces the reference chase's outcome at 1, 2 and 8
    /// threads.
    #[test]
    fn random_programs_are_plan_invariant(
        inputs in prop::collection::vec((0u8..10, 0u8..10, 30u8..100), 0..18),
        sanctioned in prop::collection::vec(0u8..10, 0..5),
    ) {
        let program = parse_program(
            "o1: own(x, y, s), s > 0.5 -> control(x, y).
             o2: company(x) -> control(x, x).
             o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).
             o4: company(x), not controlled(x) -> top(x).
             o5: control(x, y), x != y -> controlled(y).
             o6: top(x), not sanctioned(x) -> clean_top(x, z).",
        )
        .unwrap()
        .program;
        let mut db = Database::new();
        for i in 0..10u8 {
            db.add("company", &[format!("c{i}").as_str().into()]);
        }
        for (a, b, s) in &inputs {
            if a == b { continue; }
            db.add("own", &[
                format!("c{a}").as_str().into(),
                format!("c{b}").as_str().into(),
                Value::Float(f64::from(*s) / 100.0),
            ]);
        }
        for s in &sanctioned {
            db.add("sanctioned", &[format!("c{s}").as_str().into()]);
        }
        assert_plan_equivalent("random", &program, &db);
    }

    /// Seeded generator bundles stay plan-invariant for any seed.
    #[test]
    fn random_bundles_are_plan_invariant(
        steps in 1usize..5,
        count in 1usize..3,
        seed in 0u64..500,
    ) {
        let bundle = finkg::control_bundle(steps, count, seed);
        assert_plan_equivalent("bundle", &control::program(), &bundle.database);
    }
}

//! The engine against the independent reference chase of `reference/`,
//! byte for byte at 1, 2 and 8 threads: the hand-built refold and
//! pre-emption shapes of aggregate supersession, a recursive aggregate
//! program with negation over random EDBs, and random stratified
//! programs from `reference::generator`. A generated program is also
//! checked for a lossless parse → print → parse, for the engine's strata,
//! under the goal cone of each IDB predicate, and across one
//! `apply_delta` when maintenance is incremental.
//!
//! `cargo test -p finkg --test reference_diff -- --ignored` runs the
//! 2,000-program soak. A failing case prints its seed and program text;
//! `Case::generate(seed)` rebuilds it.

mod reference;

use proptest::prelude::*;
use reference::generator::Case;
use vadalog::prelude::*;

/// A downstream aggregate grouping by an upstream aggregate's result. In
/// round 2 `u` supersedes `tot("a", 1)` by `tot("a", 4)`, which `d`'s
/// `s < 3` filters out: `d`'s group `s = 1` loses a contributor without
/// gaining one, and must still be re-folded from 2 to 1.
#[test]
fn refolds_groups_that_only_lose_contributors() {
    let parsed = parse_program(
        r#"
        u: p(x, v), s = sum(v) -> tot(x, s).
        d: tot(x, s), s < 3, n = count(x) -> small(s, n).
        g: q(x, v) -> r(x, v).
        h: r(x, v) -> p(x, v).
        p("a", 1). p("b", 1). q("a", 3).
    "#,
    )
    .unwrap();
    let db: Database = parsed.facts.iter().cloned().collect();
    let outcomes =
        reference::assert_engine_matches("refold", &parsed.program, &db, &ChaseConfig::default());

    let out = &outcomes[0];
    let small = |n: i64| {
        out.lookup(&Fact::new("small", vec![Value::Int(1), Value::Int(n)]))
            .unwrap_or_else(|| panic!("small(1, {n}) derived"))
    };
    assert!(!out.database.is_active(small(2)));
    assert!(out.database.is_active(small(1)));
}

/// Aggregate groups whose step the restricted-chase check pre-empted by a
/// fact that is superseded later. The group itself never changes, yet a
/// full re-match fires it again and derives a fresh fact, so skipping
/// unchanged groups would leave its aggregate without an active fact.
/// First shape: `r2`'s step `q(3, _)` is pre-empted by `r1`'s, which a
/// later `b(4)` re-folds from 3 to 7. Second shape, within one rule: the
/// groups `y = 0` and `y = 1` differ only in a post-condition variable
/// outside the head, and `e("a", 0, 4)` re-folds the first from 3 to 7.
#[test]
fn refires_groups_preempted_by_a_superseded_fact() {
    let programs = [
        r#"
        r1: b(v), t = sum(v) -> q(t, z).
        r2: a(v), s = sum(v) -> q(s, z).
        x2: d(v) -> b(v).
        x1: c(v) -> d(v).
        b(3). a(3). c(4).
    "#,
        r#"
        r: p(x, y, v), s = sum(v), s > y -> q(x, s, z).
        c: e(x, y, v) -> p(x, y, v).
        p("a", 0, 3). p("a", 1, 3). e("a", 0, 4).
    "#,
    ];
    for source in programs {
        let parsed = parse_program(source).unwrap();
        let db: Database = parsed.facts.iter().cloned().collect();
        let outcomes =
            reference::assert_engine_matches(source, &parsed.program, &db, &ChaseConfig::default());

        let out = &outcomes[0];
        let q = Symbol::new("q");
        let mut sums: Vec<Value> = out
            .database
            .iter()
            .filter(|(id, f)| f.predicate == q && out.database.is_active(*id))
            .map(|(_, f)| f.values[f.values.len() - 2])
            .collect();
        sums.sort_by_key(|v| v.to_string());
        assert_eq!(sums, [Value::Int(3), Value::Int(7)], "{source}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Recursive programs with aggregation and negation match the
    /// reference — fact ids, liveness, derivations with their rounds and
    /// contributors — at any thread count. `o6` and `o7` share an
    /// existential head, so a step of `o6` can pre-empt one of `o7` until
    /// a re-fold of `o6` supersedes it.
    #[test]
    fn recursive_aggregates_with_negation_match_the_reference(
        inputs in prop::collection::vec((0u8..10, 0u8..10, 30u8..100), 0..18),
    ) {
        let program = parse_program(
            "o1: own(x, y, s), s > 0.5 -> control(x, y).
             o2: company(x) -> control(x, x).
             o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).
             o4: company(x), not controlled(x) -> top(x).
             o5: control(x, y), x != y -> controlled(y).
             o6: control(x, y), t = count(y) -> reach(x, t, n).
             o7: own(x, y, s), t = count(y) -> reach(x, t, n).",
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
        reference::assert_engine_matches("o1-o7", &program, &db, &ChaseConfig::default());
    }
}

/// Prints a failing case's seed and program text.
struct Context<'c>(&'c Case);

impl Drop for Context<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let case = self.0;
            let edb: Vec<String> = case.edb.iter().map(ToString::to_string).collect();
            eprintln!(
                "generated case, seed {}:\n{}EDB: {}\nretracts: {:?}\nadds: {:?}",
                case.seed,
                case.text,
                edb.join(" "),
                case.retracts
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>(),
                case.adds
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>(),
            );
        }
    }
}

/// Checks one generated case against the reference.
fn check(case: &Case) {
    let _context = Context(case);
    let program = &case.program;

    let printed = program.to_string();
    let reparsed = parse_program(&printed)
        .unwrap_or_else(|e| panic!("the printed program does not parse: {e}\n{printed}"))
        .program;
    assert_eq!(program.rules(), reparsed.rules(), "parse → print → parse");

    let strata = reference::strata(program.rules()).expect("generated programs are stratified");
    let engine = program.stratification();
    assert_eq!(
        engine.predicate_stratum, strata.predicate,
        "predicate strata"
    );
    assert_eq!(engine.rule_stratum, strata.rule, "rule strata");
    assert_eq!(engine.strata, strata.count, "stratum count");

    let db: Database = case.edb.iter().cloned().collect();
    let config = ChaseConfig::default();
    let mut outcomes = reference::assert_engine_matches("program", program, &db, &config);

    let mut goals: Vec<Symbol> = program
        .rules()
        .iter()
        .filter_map(|r| r.head.atom().map(|h| h.predicate))
        .collect();
    goals.sort_by_key(|g| g.as_str().to_owned());
    goals.dedup();
    for goal in goals {
        let pruned = config.clone().with_goal_cone(goal);
        reference::assert_engine_matches(&format!("cone of {goal}"), program, &db, &pruned);
    }

    let incremental = program
        .rules()
        .iter()
        .all(|r| r.aggregate.is_none() && r.existential_variables().is_empty());
    if incremental {
        let mut session = ChaseSession::new(program);
        session.load(outcomes.swap_remove(0));
        let delta = Delta::new()
            .retract_all(case.retracts.iter().cloned())
            .add_all(case.adds.iter().cloned());
        let applied = session.apply_delta(delta).expect("the delta applies");
        assert_eq!(applied.strategy, DeltaStrategy::Incremental);
        let updated: Vec<Fact> = case
            .edb
            .iter()
            .filter(|f| !case.retracts.contains(f))
            .chain(&case.adds)
            .cloned()
            .collect();
        let expected = reference::chase(program, &updated, None)
            .expect("the reference chase of the updated EDB")
            .render();
        reference::assert_same(
            "the maintained outcome",
            &reference::render(&applied.outcome),
            &expected,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random stratified programs match the reference.
    #[test]
    fn generated_programs_match_the_reference(seed in any::<u64>()) {
        check(&Case::generate(seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The long soak of [`generated_programs_match_the_reference`].
    #[test]
    #[ignore = "soak of 2,000 generated programs, run with --ignored"]
    fn generated_programs_soak(seed in any::<u64>()) {
        check(&Case::generate(seed));
    }
}

/// Regression: a plain rule's existential step pre-empted by an aggregate
/// fact must fire once a re-fold supersedes that fact. `r2`'s step
/// `q(3, _)` is pre-empted in round 1 by `a`'s `q(3, "k")`, which `b(4)`
/// re-folds to `q(7, "k")` in round 2. Matching `r2` by deltas alone never
/// saw `e(3)` again and left `q(3, _)` underived.
#[test]
fn refires_plain_steps_preempted_by_a_superseded_aggregate() {
    let parsed = parse_program(
        r#"
        a: b(v), t = sum(v) -> q(t, "k").
        r2: e(v) -> q(v, z).
        x1: c(v) -> b(v).
        b(3). e(3). c(4).
    "#,
    )
    .unwrap();
    let db: Database = parsed.facts.iter().cloned().collect();
    let outcomes = reference::assert_engine_matches(
        "pre-empted",
        &parsed.program,
        &db,
        &ChaseConfig::default(),
    );

    let out = &outcomes[0];
    let q = Symbol::new("q");
    let active: Vec<String> = out
        .database
        .iter()
        .filter(|(id, f)| f.predicate == q && out.database.is_active(*id))
        .map(|(_, f)| f.to_string())
        .collect();
    assert_eq!(active, [r#"q(7,"k")"#, "q(3,_:n1)"]);
}

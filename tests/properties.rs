//! Property-based integration tests: invariants of the chase, the
//! explanation pipeline and the statistics toolkit over randomized inputs.

use ekg_explain::finkg::apps::control;
use ekg_explain::prelude::*;
use proptest::prelude::*;
use std::collections::HashSet;

/// Strategy: a random acyclic ownership database over `n` companies.
fn ownership_db(max_companies: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    let n = max_companies;
    prop::collection::vec((0..n, 0..n, 1u32..100), 0..30).prop_map(move |edges| {
        edges
            .into_iter()
            .filter(|(a, b, _)| a != b)
            .map(|(a, b, s)| {
                // Orient edges upward to keep the graph acyclic.
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                (lo, hi, f64::from(s) / 100.0)
            })
            .collect()
    })
}

fn build_db(edges: &[(usize, usize, f64)]) -> Database {
    let mut db = Database::new();
    let mut seen = HashSet::new();
    for &(a, b, s) in edges {
        if !seen.insert((a, b)) {
            continue; // one stake per pair
        }
        db.add(
            "own",
            &[
                format!("C{a}").as_str().into(),
                format!("C{b}").as_str().into(),
                s.into(),
            ],
        );
    }
    db
}

/// Reference implementation of company control (independent oracle): the
/// official fixpoint definition computed with plain loops over an
/// adjacency map, no chase machinery.
fn control_oracle(edges: &[(usize, usize, f64)], n: usize) -> HashSet<(usize, usize)> {
    let mut own = std::collections::HashMap::<(usize, usize), f64>::new();
    for &(a, b, s) in edges {
        own.entry((a, b)).or_insert(s);
    }
    let mut controls: HashSet<(usize, usize)> = HashSet::new();
    // Direct majorities.
    for (&(a, b), &s) in &own {
        if s > 0.5 {
            controls.insert((a, b));
        }
    }
    // Fixpoint of the joint rule (x controls z's jointly owning > 50%,
    // possibly with x itself: x trivially "controls" x for the sum).
    loop {
        let mut changed = false;
        for x in 0..n {
            for y in 0..n {
                if x == y || controls.contains(&(x, y)) {
                    continue;
                }
                let mut total = 0.0;
                for z in 0..n {
                    let z_controlled = z == x || controls.contains(&(x, z));
                    if z_controlled {
                        if let Some(&s) = own.get(&(z, y)) {
                            total += s;
                        }
                    }
                }
                if total > 0.5 {
                    controls.insert((x, y));
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    controls
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The chase agrees with an independently implemented fixpoint oracle
    /// on the company-control semantics.
    #[test]
    fn chase_matches_control_oracle(edges in ownership_db(8)) {
        let n = 8;
        let mut db = build_db(&edges);
        for i in 0..n {
            db.add("company", &[format!("C{i}").as_str().into()]);
        }
        let outcome = ChaseSession::new(&control::program()).run(db).unwrap();
        let derived: HashSet<(usize, usize)> = outcome
            .database
            .facts_of(Symbol::new("control"))
            .iter()
            .map(|&id| {
                let f = outcome.database.fact(id);
                let parse = |v: &Value| match v {
                    Value::Str(s) => s.as_str()[1..].parse::<usize>().unwrap(),
                    _ => unreachable!(),
                };
                (parse(&f.values[0]), parse(&f.values[1]))
            })
            .filter(|(a, b)| a != b)
            .collect();
        // Deduplicate pair stakes the same way build_db does.
        let mut seen = HashSet::new();
        let deduped: Vec<(usize, usize, f64)> = edges
            .iter()
            .copied()
            .filter(|(a, b, _)| seen.insert((*a, *b)))
            .collect();
        let expected = control_oracle(&deduped, n);
        prop_assert_eq!(derived, expected);
    }

    /// The chase is deterministic: same input, same closed database.
    #[test]
    fn chase_is_deterministic(edges in ownership_db(8)) {
        let a = ChaseSession::new(&control::program()).run(build_db(&edges)).unwrap();
        let b = ChaseSession::new(&control::program()).run(build_db(&edges)).unwrap();
        prop_assert_eq!(a.database.len(), b.database.len());
        for (id, fact) in a.database.iter() {
            prop_assert_eq!(b.database.fact(id), fact);
        }
    }

    /// Every derived control fact is explainable, with no unsubstituted
    /// tokens and all proof constants present (the completeness
    /// guarantee).
    #[test]
    fn explanations_are_complete_on_random_graphs(edges in ownership_db(7)) {
        let program = control::program();
        let glossary = control::glossary();
        let artifacts = ProgramArtifacts::builder(program.clone(), control::GOAL)
            .with_glossary(&glossary)
            .build_cached()
            .unwrap();
        let outcome = ChaseSession::new(&program).run(build_db(&edges)).unwrap();
        let explainer = Explainer::for_snapshot(artifacts, outcome);
        let outcome = explainer.outcome();
        for &id in outcome.database.facts_of(Symbol::new("control")) {
            if !outcome.graph.is_derived(id) {
                continue;
            }
            let e = explainer.explain_id(id).unwrap();
            prop_assert!(!e.text.contains('<'), "{}", e.text);
            for c in ekg_explain::studies::proof_constants(outcome, id, &glossary) {
                prop_assert!(e.text.contains(&c), "missing {} in {}", c, e.text);
            }
        }
    }

    /// Proof linearization length never exceeds the total number of chase
    /// steps of the proof, and matches the reported chase_steps.
    #[test]
    fn linearization_is_a_spine(edges in ownership_db(7)) {
        let program = control::program();
        let outcome = ChaseSession::new(&program).run(build_db(&edges)).unwrap();
        for &id in outcome.database.facts_of(Symbol::new("control")) {
            if !outcome.graph.is_derived(id) {
                continue;
            }
            let proof = outcome.graph.proof(id);
            let tau = proof.linearize(&outcome.graph);
            prop_assert!(tau.len() <= proof.steps());
            prop_assert!(!tau.is_empty());
        }
    }

    /// Wilcoxon invariants: p in (0, 1]; swapping samples preserves p.
    #[test]
    fn wilcoxon_is_symmetric(
        pairs in prop::collection::vec((1u8..=5, 1u8..=5), 5..40)
    ) {
        let x: Vec<f64> = pairs.iter().map(|(a, _)| f64::from(*a)).collect();
        let y: Vec<f64> = pairs.iter().map(|(_, b)| f64::from(*b)).collect();
        match (
            ekg_explain::stats::wilcoxon_signed_rank(&x, &y),
            ekg_explain::stats::wilcoxon_signed_rank(&y, &x),
        ) {
            (Ok(a), Ok(b)) => {
                prop_assert!(a.p_value > 0.0 && a.p_value <= 1.0);
                prop_assert!((a.p_value - b.p_value).abs() < 1e-12);
                prop_assert_eq!(a.w_plus, b.w_minus);
            }
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "asymmetric result: {:?}", other),
        }
    }

    /// Boxplot invariants: ordered five-number summary bracketing the mean.
    #[test]
    fn boxplot_is_ordered(xs in prop::collection::vec(-1e6f64..1e6, 1..60)) {
        let b = ekg_explain::stats::Boxplot::of(&xs).unwrap();
        prop_assert!(b.min <= b.q1);
        prop_assert!(b.q1 <= b.median);
        prop_assert!(b.median <= b.q3);
        prop_assert!(b.q3 <= b.max);
        prop_assert!(b.mean >= b.min && b.mean <= b.max);
    }
}

/// Independent oracle for the two-channel stress test: iterate the default
/// set to fixpoint with plain loops (no chase machinery).
fn stress_oracle(
    capitals: &[(usize, i64)],
    debts: &[(usize, usize, i64)], // debtor, creditor, amount (both channels merged)
    shocks: &[(usize, i64)],
) -> HashSet<usize> {
    let cap: std::collections::HashMap<usize, i64> = capitals.iter().copied().collect();
    let mut defaulted: HashSet<usize> = shocks
        .iter()
        .filter(|(e, s)| cap.get(e).is_some_and(|c| s > c))
        .map(|(e, _)| *e)
        .collect();
    loop {
        let mut changed = false;
        for (&entity, &capital) in &cap {
            if defaulted.contains(&entity) {
                continue;
            }
            let exposure: i64 = debts
                .iter()
                .filter(|(d, c, _)| *c == entity && defaulted.contains(d))
                .map(|(_, _, v)| v)
                .sum();
            if exposure > capital {
                defaulted.insert(entity);
                changed = true;
            }
        }
        if !changed {
            return defaulted;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The chase over the two-channel stress-test program agrees with the
    /// independent cascade oracle (channels merged: σ7 sums over both).
    #[test]
    fn stress_chase_matches_cascade_oracle(
        capitals in prop::collection::vec(1i64..12, 6..10),
        debts in prop::collection::vec((0usize..9, 0usize..9, 1i64..10, any::<bool>()), 0..16),
        shock in (0usize..9, 1i64..25),
    ) {
        use ekg_explain::finkg::apps::stress;
        let n = capitals.len();
        let caps: Vec<(usize, i64)> = capitals.iter().copied().enumerate().collect();
        let debts: Vec<(usize, usize, i64, bool)> = debts
            .into_iter()
            .filter(|(d, c, _, _)| d != c && *d < n && *c < n)
            .collect();
        // One debt edge per (debtor, creditor, channel): the engine's fact
        // dedup would otherwise collapse duplicate amounts the oracle
        // counts twice.
        let mut seen = HashSet::new();
        let debts: Vec<(usize, usize, i64, bool)> = debts
            .into_iter()
            .filter(|(d, c, _, long)| seen.insert((*d, *c, *long)))
            .collect();
        let (shock_entity, shock_size) = (shock.0 % n, shock.1);

        let mut db = Database::new();
        for (e, c) in &caps {
            db.add("has_capital", &[format!("e{e}").as_str().into(), Value::Int(*c)]);
        }
        for (d, c, v, long) in &debts {
            let channel = if *long { "long_term_debts" } else { "short_term_debts" };
            db.add(channel, &[
                format!("e{d}").as_str().into(),
                format!("e{c}").as_str().into(),
                Value::Int(*v),
            ]);
        }
        db.add("shock", &[format!("e{shock_entity}").as_str().into(), Value::Int(shock_size)]);

        let out = ChaseSession::new(&stress::program()).run(db).unwrap();
        let derived: HashSet<usize> = out
            .database
            .facts_of(Symbol::new("default"))
            .iter()
            .map(|&id| {
                let f = out.database.fact(id);
                match &f.values[0] {
                    Value::Str(s) => s.as_str()[1..].parse::<usize>().unwrap(),
                    _ => unreachable!(),
                }
            })
            .collect();

        let merged: Vec<(usize, usize, i64)> =
            debts.iter().map(|(d, c, v, _)| (*d, *c, *v)).collect();
        let expected = stress_oracle(&caps, &merged, &[(shock_entity, shock_size)]);
        prop_assert_eq!(derived, expected);
    }
}

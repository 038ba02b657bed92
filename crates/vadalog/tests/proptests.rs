//! Property-based tests of the vadalog crate: parser round-trips, chase
//! invariants and provenance well-formedness over randomized inputs.

use proptest::prelude::*;
use vadalog::prelude::*;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// Identifiers usable as predicates and variables.
fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}"
}

/// Printable string constants (Rust's Debug escaping round-trips through
/// the lexer's escape handling).
fn string_value() -> impl Strategy<Value = Value> {
    "[ -~]{0,12}".prop_map(|s| Value::str(&s))
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i32>().prop_map(|i| Value::Int(i64::from(i))),
        // Finite floats with short decimal forms round-trip exactly.
        (-1_000_000i32..1_000_000, 0u8..100)
            .prop_map(|(w, f)| { Value::Float(f64::from(w) + f64::from(f) / 100.0) }),
        string_value(),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn fact_strategy() -> impl Strategy<Value = Fact> {
    (ident(), prop::collection::vec(value(), 0..4)).prop_map(|(p, vs)| Fact::new(&p, vs))
}

/// A random valid chain program: rules `pk(x..) -> pk+1(x..)` with
/// optional conditions, all safe by construction.
fn chain_program() -> impl Strategy<Value = String> {
    (2usize..5, prop::collection::vec(0.0f64..1.0, 1..4)).prop_map(|(depth, thresholds)| {
        let mut text = String::new();
        for k in 0..depth {
            let cond = thresholds
                .get(k % thresholds.len())
                .map(|t| format!(", s > {:.2}", t))
                .unwrap_or_default();
            text.push_str(&format!("r{k}: p{k}(x, s){cond} -> p{}(x, s).\n", k + 1));
        }
        text
    })
}

// ---------------------------------------------------------------------
// Parser round-trips
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fact -> Display -> parse -> the same fact.
    #[test]
    fn fact_display_round_trips(fact in fact_strategy()) {
        let text = format!("{}.", fact);
        let parsed = parse_program(&text);
        // Facts with no arguments parse as `p()`: still a fact.
        let parsed = parsed.unwrap();
        prop_assert_eq!(parsed.facts.len(), 1);
        prop_assert_eq!(&parsed.facts[0], &fact);
    }

    /// Program -> Display -> parse -> structurally equal rules.
    #[test]
    fn chain_program_display_round_trips(text in chain_program()) {
        let first = parse_program(&text).unwrap().program;
        let printed = first.to_string();
        let second = parse_program(&printed).unwrap().program;
        prop_assert_eq!(first.rules(), second.rules());
    }

    /// The financial programs round-trip too (regression anchor).
    #[test]
    fn value_display_round_trips(v in value()) {
        let fact = Fact::new("p", vec![v]);
        let text = format!("{}.", fact);
        let parsed = parse_program(&text).unwrap();
        prop_assert_eq!(&parsed.facts[0].values[0], &v);
    }
}

// ---------------------------------------------------------------------
// Chase invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chains propagate exactly the tuples passing every threshold, and
    /// every derivation's premises precede its conclusion (acyclicity of
    /// the chase graph).
    #[test]
    fn chain_chase_is_sound_and_acyclic(
        text in chain_program(),
        inputs in prop::collection::vec((0u8..20, 0.0f64..1.0), 0..12),
    ) {
        let parsed = parse_program(&text).unwrap();
        let mut db = Database::new();
        for (i, s) in &inputs {
            db.add("p0", &[format!("e{i}").as_str().into(), Value::Float(*s)]);
        }
        let out = ChaseSession::new(&parsed.program).run(db).unwrap();

        // Acyclic provenance: premises have smaller fact ids than their
        // conclusion (facts are appended in derivation order).
        for der in out.graph.derivations() {
            for p in &der.premises {
                prop_assert!(p.0 < der.conclusion.0 || out.graph.is_extensional(*p));
            }
        }

        // Soundness + completeness of the final predicate: a tuple reaches
        // p<depth> iff its s passes every rule's condition.
        let depth = parsed.program.len();
        let final_pred = Symbol::new(&format!("p{depth}"));
        let mut expected = 0usize;
        'outer: for (_, s) in &inputs {
            for rule in parsed.program.rules() {
                for c in &rule.conditions {
                    let mut b = Bindings::new();
                    b.insert(Symbol::new("s"), Value::Float(*s));
                    if !c.holds(&b).unwrap() {
                        continue 'outer;
                    }
                }
            }
            expected += 1;
        }
        // Distinct inputs may collide on (entity, share); compare against
        // the distinct expected set instead of raw counts.
        let mut distinct: std::collections::HashSet<(u8, u64)> = Default::default();
        'outer2: for (i, s) in &inputs {
            for rule in parsed.program.rules() {
                for c in &rule.conditions {
                    let mut b = Bindings::new();
                    b.insert(Symbol::new("s"), Value::Float(*s));
                    if !c.holds(&b).unwrap() {
                        continue 'outer2;
                    }
                }
            }
            distinct.insert((*i, s.to_bits()));
        }
        prop_assert_eq!(out.database.facts_of(final_pred).len(), distinct.len());
        let _ = expected;
    }

    /// Every derived fact has at least one derivation and a non-empty
    /// linearization; extensional facts have none.
    #[test]
    fn provenance_is_well_formed(
        inputs in prop::collection::vec((0u8..12, 0u8..12, 30u8..100), 0..15),
    ) {
        let program = parse_program(
            "o1: own(x, y, s), s > 0.5 -> control(x, y).
             o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).",
        )
        .unwrap()
        .program;
        let mut db = Database::new();
        for (a, b, s) in &inputs {
            if a == b { continue; }
            db.add("own", &[
                format!("c{a}").as_str().into(),
                format!("c{b}").as_str().into(),
                Value::Float(f64::from(*s) / 100.0),
            ]);
        }
        let out = ChaseSession::new(&program).run(db).unwrap();
        for (id, _) in out.database.iter() {
            let derived = out.graph.is_derived(id);
            let extensional = out.graph.is_extensional(id);
            prop_assert!(derived != extensional, "fact {} is both/neither", id);
            if derived {
                let proof = out.graph.proof(id);
                prop_assert!(proof.steps() >= 1);
                prop_assert!(!proof.linearize(&out.graph).is_empty());
            }
        }
    }

    /// Aggregation sanity: the sum aggregate equals the sum of its
    /// contributors' inputs, for every recorded aggregate derivation.
    #[test]
    fn sum_aggregates_add_up(
        inputs in prop::collection::vec((0u8..6, 1i64..50), 1..12),
    ) {
        let program = parse_program(
            "r: contrib(g, v), t = sum(v) -> total(g, t).",
        )
        .unwrap()
        .program;
        let mut db = Database::new();
        for (g, v) in &inputs {
            db.add("contrib", &[format!("g{g}").as_str().into(), Value::Int(*v)]);
        }
        let out = ChaseSession::new(&program).run(db).unwrap();
        for der in out.graph.derivations() {
            let total = out.database.fact(der.conclusion).values[1]
                .as_f64()
                .unwrap();
            let contributed: f64 = der
                .contributor_bindings
                .iter()
                .map(|b| b.get(Symbol::new("v")).unwrap().as_f64().unwrap())
                .sum();
            prop_assert!((total - contributed).abs() < 1e-9);
            prop_assert_eq!(der.contributors as usize, der.contributor_bindings.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Adding facts to a loaded outcome with `apply_delta` closes to the
    /// same fact set as a chase from scratch, for any split point of a
    /// random ownership fact set. The program aggregates, so the delta
    /// takes the full re-chase over the updated EDB.
    #[test]
    fn added_facts_close_like_scratch_at_any_split(
        inputs in prop::collection::vec((0u8..8, 0u8..8, 30u8..100), 0..14),
        split_ratio in 0.0f64..1.0,
    ) {
        let program = parse_program(
            "o1: own(x, y, s), s > 0.5 -> control(x, y).
             o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).",
        )
        .unwrap()
        .program;
        let facts: Vec<Fact> = inputs
            .iter()
            .filter(|(a, b, _)| a != b)
            .map(|(a, b, s)| {
                Fact::new("own", vec![
                    format!("c{a}").as_str().into(),
                    format!("c{b}").as_str().into(),
                    Value::Float(f64::from(*s) / 100.0),
                ])
            })
            .collect();
        let split = ((facts.len() as f64) * split_ratio) as usize;

        let scratch = ChaseSession::new(&program).run(facts.clone().into_iter().collect()).unwrap();
        let mut session = ChaseSession::new(&program);
        let base = session.run(facts[..split].iter().cloned().collect()).unwrap();
        session.load(base);
        let applied = session
            .apply_delta(Delta::new().add_all(facts[split..].to_vec()))
            .unwrap();
        let ext = &applied.outcome;

        prop_assert_eq!(scratch.database.len(), ext.database.len());
        for (_, fact) in scratch.database.iter() {
            prop_assert!(ext.database.contains(fact), "missing {}", fact);
        }
    }
}

// ---------------------------------------------------------------------
// Thread-count determinism
// ---------------------------------------------------------------------

/// A full structural fingerprint of a chase outcome: every fact in id
/// order (with its activity flag), every recorded derivation, and the
/// round count. Two outcomes with equal fingerprints are bitwise
/// interchangeable for every downstream consumer.
fn outcome_fingerprint(out: &ChaseOutcome) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for (id, fact) in out.database.iter() {
        let _ = writeln!(s, "{id} {fact} active={}", out.database.is_active(id));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random monotone chain programs chase to bitwise-identical outcomes
    /// (fact ids, values, derivations, rounds) at any worker count.
    #[test]
    fn chain_chase_is_thread_count_invariant(
        text in chain_program(),
        inputs in prop::collection::vec((0u8..20, 0.0f64..1.0), 0..12),
    ) {
        let parsed = parse_program(&text).unwrap();
        let build = || {
            let mut db = Database::new();
            for (i, s) in &inputs {
                db.add("p0", &[format!("e{i}").as_str().into(), Value::Float(*s)]);
            }
            db
        };
        let reference = ChaseSession::new(&parsed.program).with_threads(1).run(build()).unwrap();
        let fp = outcome_fingerprint(&reference);
        for threads in [2usize, 8] {
            let out = ChaseSession::new(&parsed.program).with_threads(threads).run(build()).unwrap();
            prop_assert_eq!(outcome_fingerprint(&out), fp.clone(), "threads={}", threads);
        }
    }

    /// The recursive aggregate control program is thread-count invariant
    /// over random ownership graphs (exercises semi-naive deltas, the
    /// commit-phase top-up and aggregate supersession together).
    #[test]
    fn recursive_aggregate_chase_is_thread_count_invariant(
        edges in prop::collection::vec((0u8..8, 0u8..8, 30u8..100), 0..16),
    ) {
        let program = parse_program(
            "o1: own(x, y, s), s > 0.5 -> control(x, y).
             o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).",
        )
        .unwrap()
        .program;
        let build = || {
            let mut db = Database::new();
            for (a, b, s) in &edges {
                if a == b { continue; }
                db.add("own", &[
                    format!("c{a}").as_str().into(),
                    format!("c{b}").as_str().into(),
                    Value::Float(f64::from(*s) / 100.0),
                ]);
            }
            db
        };
        let reference = ChaseSession::new(&program).with_threads(1).run(build()).unwrap();
        let fp = outcome_fingerprint(&reference);
        for threads in [2usize, 8] {
            let out = ChaseSession::new(&program).with_threads(threads).run(build()).unwrap();
            prop_assert_eq!(outcome_fingerprint(&out), fp.clone(), "threads={}", threads);
        }
    }
}

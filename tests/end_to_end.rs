//! Cross-crate integration tests: parse → chase → structural analysis →
//! explanation, for every KG application.

use ekg_explain::finkg::apps::{close_links, control, simple_stress, stress};
use ekg_explain::finkg::{self, scenario};
use ekg_explain::prelude::*;

/// Runs one application end to end and returns all explanations of its
/// derived goal facts.
fn explain_all(
    program: Program,
    goal: &str,
    glossary: &DomainGlossary,
    db: Database,
) -> Vec<Explanation> {
    let artifacts = ProgramArtifacts::builder(program.clone(), goal)
        .with_glossary(glossary)
        .build_cached()
        .expect("artifacts");
    let outcome = ChaseSession::new(&program).run(db).expect("chase");
    Explainer::for_snapshot(artifacts, outcome)
        .report()
        .unwrap_or_else(|e| panic!("explaining every derived {goal} fact: {e}"))
}

#[test]
fn company_control_scenario_explains_every_derived_fact() {
    let es = explain_all(
        control::program(),
        control::GOAL,
        &control::glossary(),
        scenario::database(),
    );
    assert!(!es.is_empty());
    for e in es {
        assert!(!e.text.is_empty(), "{}", e.fact);
        assert!(!e.text.contains('<'), "{}: {}", e.fact, e.text);
        assert!(!e.paths.is_empty());
    }
}

#[test]
fn stress_test_scenario_explains_every_derived_default() {
    let es = explain_all(
        stress::program(),
        stress::GOAL,
        &stress::glossary(),
        scenario::database(),
    );
    assert_eq!(es.len(), 4); // A, B, C, F
    for e in &es {
        assert!(!e.text.contains('<'), "{}: {}", e.fact, e.text);
    }
}

#[test]
fn close_links_chain_explains() {
    let mut db = Database::new();
    db.add("own", &["A".into(), "B".into(), 0.9.into()]);
    db.add("own", &["B".into(), "C".into(), 0.5.into()]);
    let es = explain_all(
        close_links::program(),
        close_links::GOAL,
        &close_links::glossary(),
        db,
    );
    assert_eq!(es.len(), 3); // A-B, B-C, A-C
}

#[test]
fn random_ownership_graphs_always_explain_cleanly() {
    // Explanation must succeed for every derived control fact of randomly
    // generated graphs (not just hand-built scenarios).
    for seed in 0..5u64 {
        let db = finkg::random_ownership(25, 3, seed);
        let es = explain_all(control::program(), control::GOAL, &control::glossary(), db);
        for e in es {
            assert!(!e.text.contains('<'), "seed {seed}, {}: {}", e.fact, e.text);
        }
    }
}

#[test]
fn random_debt_networks_always_explain_cleanly() {
    // The 40-company networks have long cascades whose proofs cross
    // several reasoning cycles; every derived default must explain.
    let small = (0..5u64).map(|seed| (25, 3, seed));
    let large = (5..10u64).map(|seed| (40, 5, seed));
    for (companies, shocks, seed) in small.chain(large) {
        let db = finkg::random_debt_network(companies, 3, shocks, seed);
        let es = explain_all(stress::program(), stress::GOAL, &stress::glossary(), db);
        for e in es {
            assert!(
                !e.text.contains('<'),
                "{companies} companies, seed {seed}, {}: {}",
                e.fact,
                e.text
            );
        }
    }
}

#[test]
fn explanations_contain_every_proof_constant() {
    // The completeness guarantee of Sec. 6.3, as an invariant over random
    // inputs: the enhanced explanation carries all constants of the proof.
    use ekg_explain::studies::proof_constants;
    for seed in 0..5u64 {
        let db = finkg::random_ownership(20, 3, 100 + seed);
        let program = control::program();
        let glossary = control::glossary();
        let artifacts = ProgramArtifacts::builder(program.clone(), control::GOAL)
            .with_glossary(&glossary)
            .build_cached()
            .expect("artifacts");
        let outcome = ChaseSession::new(&program).run(db).expect("chase");
        let explainer = Explainer::for_snapshot(artifacts, outcome);
        let outcome = explainer.outcome();
        for &id in outcome.database.facts_of(Symbol::new("control")) {
            if !outcome.graph.is_derived(id) {
                continue;
            }
            let e = explainer.explain_id(id).expect("explainable");
            for c in proof_constants(outcome, id, &glossary) {
                assert!(
                    e.text.contains(&c),
                    "seed {seed}: {} missing constant {c}\n{}",
                    outcome.database.fact(id),
                    e.text
                );
            }
        }
    }
}

#[test]
fn deterministic_flavor_also_contains_every_constant() {
    use ekg_explain::studies::proof_constants;
    let program = simple_stress::program();
    let glossary = simple_stress::glossary();
    let artifacts = ProgramArtifacts::builder(program.clone(), simple_stress::GOAL)
        .with_glossary(&glossary)
        .build_cached()
        .expect("artifacts");
    let outcome = ChaseSession::new(&program)
        .run(simple_stress::figure_8_database())
        .expect("chase");
    let id = outcome
        .lookup(&Fact::new("default", vec!["C".into()]))
        .unwrap();
    let explainer =
        Explainer::for_snapshot(artifacts, outcome).with_flavor(TemplateFlavor::Deterministic);
    let e = explainer.explain_id(id).expect("explainable");
    for c in proof_constants(explainer.outcome(), id, &glossary) {
        assert!(e.text.contains(&c), "missing {c}: {}", e.text);
    }
}

#[test]
fn pipeline_with_llm_enhancer_still_explains_completely() {
    use ekg_explain::studies::proof_constants;
    let llm = SimulatedLlm::new(Prompt::Paraphrase, 3);
    let program = control::program();
    let glossary = control::glossary();
    let artifacts = ProgramArtifacts::builder(program.clone(), control::GOAL)
        .with_glossary(&glossary)
        .with_enhancer(&llm, 4)
        .build_cached()
        .expect("artifacts");
    let bundle = finkg::control_bundle(6, 2, 8);
    let outcome = ChaseSession::new(&program)
        .run(bundle.database)
        .expect("chase");
    let explainer = Explainer::for_snapshot(artifacts, outcome);
    let outcome = explainer.outcome();
    for target in &bundle.targets {
        let id = outcome.lookup(target).expect("derived");
        let e = explainer.explain_id(id).expect("explainable");
        for c in proof_constants(outcome, id, &glossary) {
            assert!(e.text.contains(&c), "missing {c}: {}", e.text);
        }
    }
}

#[test]
fn explanation_queries_on_inputs_are_rejected() {
    let program = control::program();
    let artifacts = ProgramArtifacts::builder(program.clone(), control::GOAL)
        .with_glossary(&control::glossary())
        .build_cached()
        .expect("artifacts");
    let outcome = ChaseSession::new(&program)
        .run(scenario::database())
        .expect("chase");
    let own_id = outcome.database.facts_of(Symbol::new("own"))[0];
    assert!(matches!(
        Explainer::for_snapshot(artifacts, outcome).explain_id(own_id),
        Err(ExplainError::ExtensionalFact(_))
    ));
}

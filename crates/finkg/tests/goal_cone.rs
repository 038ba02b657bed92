//! The goal-cone equivalence suite: for every finkg application, a
//! chase restricted to the goal's relevance cone
//! (`ChaseConfig::with_goal_cone`) must yield explanations that are
//! byte-identical — text, path labels, chase-step counts and support
//! facts — to the full chase, at 1, 2 and 8 worker threads. The suite
//! includes the negation-heavy sanctions screening, both for its
//! `flagged` goal and for the `clean_link` goal whose cone crosses two
//! negated edges, plus a property-based sweep over random sanctions
//! graphs.

mod common;

use explain::{DomainGlossary, Explainer, ProgramArtifacts};
use finkg::apps::{
    close_links, control, golden_power, joint_exposure, sanctions, simple_stress, stress,
};
use finkg::scenario;
use proptest::prelude::*;
use std::sync::Arc;
use vadalog::{ChaseOutcome, ChaseSession, Database, Program};

const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

/// Renders the full business report of `out` — one line per derived
/// goal fact carrying every byte an explanation exposes.
fn rendered_report(artifacts: &Arc<ProgramArtifacts>, out: ChaseOutcome) -> Vec<String> {
    Explainer::for_snapshot(Arc::clone(artifacts), out)
        .report()
        .expect("report must succeed")
        .iter()
        .map(common::rendered_line)
        .collect()
}

/// Asserts the pruned chase explains `goal` byte-identically to the
/// full chase on `db`, at every thread count of the sweep.
fn assert_cone_equivalence(
    name: &str,
    program: &Program,
    goal: &str,
    glossary: &DomainGlossary,
    db: &Database,
) {
    let artifacts = ProgramArtifacts::builder(program.clone(), goal)
        .with_glossary(glossary)
        .build_cached()
        .unwrap_or_else(|e| panic!("{name}: artifact build failed: {e}"));
    let reference = {
        let full = ChaseSession::new(program)
            .with_threads(1)
            .run(db.clone())
            .unwrap_or_else(|e| panic!("{name}: full chase failed: {e}"));
        rendered_report(&artifacts, full)
    };
    assert!(
        !reference.is_empty(),
        "{name}: the scenario derives no {goal} facts; the equivalence would be vacuous"
    );
    for threads in THREAD_SWEEP {
        let pruned = ChaseSession::new(program)
            .with_config(artifacts.pruned_chase_config().with_threads(threads))
            .run(db.clone())
            .unwrap_or_else(|e| panic!("{name}: pruned chase at {threads} threads failed: {e}"));
        assert_eq!(
            rendered_report(&artifacts, pruned),
            reference,
            "{name}: pruned explanations diverged at {threads} threads"
        );
    }
}

#[test]
fn control_cone_explanations_match_the_full_chase() {
    assert_cone_equivalence(
        "control/scenario",
        &control::program(),
        control::GOAL,
        &control::glossary(),
        &scenario::database(),
    );
    assert_cone_equivalence(
        "control/random",
        &control::program(),
        control::GOAL,
        &control::glossary(),
        &finkg::random_ownership(60, 3, 7),
    );
}

#[test]
fn stress_cone_explanations_match_the_full_chase() {
    assert_cone_equivalence(
        "stress/scenario",
        &stress::program(),
        stress::GOAL,
        &stress::glossary(),
        &scenario::database(),
    );
}

#[test]
fn simple_stress_cone_explanations_match_the_full_chase() {
    assert_cone_equivalence(
        "simple_stress/figure8",
        &simple_stress::program(),
        simple_stress::GOAL,
        &simple_stress::glossary(),
        &simple_stress::figure_8_database(),
    );
}

#[test]
fn close_links_cone_explanations_match_the_full_chase() {
    assert_cone_equivalence(
        "close_links/random",
        &close_links::program(),
        close_links::GOAL,
        &close_links::glossary(),
        &finkg::random_ownership(40, 4, 9),
    );
}

#[test]
fn joint_exposure_cone_explanations_match_the_full_chase() {
    assert_cone_equivalence(
        "joint_exposure/random",
        &joint_exposure::program(),
        joint_exposure::GOAL,
        &joint_exposure::glossary(),
        &finkg::random_ownership(40, 6, 11),
    );
}

#[test]
fn golden_power_cone_explanations_match_the_full_chase() {
    assert_cone_equivalence(
        "golden_power/scenario",
        &golden_power::program(),
        golden_power::GOAL,
        &golden_power::glossary(),
        &common::golden_power_scenario(),
    );
}

#[test]
fn sanctions_flagged_cone_explanations_match_the_full_chase() {
    assert_cone_equivalence(
        "sanctions/flagged",
        &sanctions::program(),
        sanctions::GOAL,
        &sanctions::glossary(),
        &finkg::random_sanctions(40, 3, 7, 7),
    );
}

#[test]
fn sanctions_clean_link_cone_explanations_match_the_full_chase() {
    // clean_link's cone enters `sanctioned` through two negated edges;
    // the equivalence would break immediately if negated dependencies
    // were dropped from the cone.
    assert_cone_equivalence(
        "sanctions/clean_link",
        &sanctions::program(),
        "clean_link",
        &sanctions::glossary(),
        &finkg::random_sanctions(40, 3, 7, 7),
    );
}

#[test]
fn sanctions_flagged_cone_actually_prunes() {
    // Not an equivalence claim: the flagged cone excludes s4, so the
    // pruned run must derive no clean_link facts at all.
    let program = sanctions::program();
    let db = finkg::random_sanctions(40, 3, 7, 7);
    let artifacts = ProgramArtifacts::builder(program.clone(), sanctions::GOAL)
        .with_glossary(&sanctions::glossary())
        .build_cached()
        .unwrap();
    let full = ChaseSession::new(&program).run(db.clone()).unwrap();
    let pruned = ChaseSession::new(&program)
        .with_config(artifacts.pruned_chase_config())
        .run(db)
        .unwrap();
    assert!(!full.database.facts_of("clean_link".into()).is_empty());
    assert!(pruned.database.facts_of("clean_link".into()).is_empty());
    assert!(pruned.derived_facts < full.derived_facts);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random sanctions graphs: pruned-chase explanations stay
    /// byte-identical to the full chase for both stratified goals, at
    /// every thread count — whatever the topology and the density of
    /// sanctioned designations.
    #[test]
    fn random_sanctions_cone_equivalence(
        n in 5usize..40,
        out_deg in 1usize..4,
        every in 2usize..9,
        seed in 0u64..500,
    ) {
        let program = sanctions::program();
        let glossary = sanctions::glossary();
        let db = finkg::random_sanctions(n, out_deg, every, seed);
        for goal in ["flagged", "clean_link"] {
            let artifacts = ProgramArtifacts::builder(program.clone(), goal)
                .with_glossary(&glossary)
                .build_cached()
                .unwrap();
            let full = ChaseSession::new(&program)
                .with_threads(1)
                .run(db.clone())
                .unwrap();
            let reference = rendered_report(&artifacts, full);
            for threads in THREAD_SWEEP {
                let pruned = ChaseSession::new(&program)
                    .with_config(artifacts.pruned_chase_config().with_threads(threads))
                    .run(db.clone())
                    .unwrap();
                prop_assert_eq!(
                    &rendered_report(&artifacts, pruned),
                    &reference,
                    "goal {} diverged at {} threads", goal, threads
                );
            }
        }
    }
}

//! Byte pins of the explanation path. For every finkg application the
//! business report — every derived goal fact with its text, path labels,
//! chase-step count and support facts, rendered as in the goal-cone
//! suite — is hashed under each template flavour and derivation policy,
//! and the FNV-1a digest and line count are compared with recorded
//! constants. Any change to proof extraction, path covering, token
//! substitution or value formatting that moves a single byte fails here.
//!
//! On a mismatch the test prints the whole table it computed, in the
//! syntax of [`PINS`], so an intended change of output can be reviewed
//! line by line against the recorded one.

mod common;

use explain::{DomainGlossary, Explainer, ProgramArtifacts, TemplateFlavor};
use finkg::apps::{
    close_links, control, golden_power, joint_exposure, sanctions, simple_stress, stress,
};
use finkg::scenario;
use std::sync::Arc;
use vadalog::{ChaseSession, Database, DerivationPolicy, Program};

/// `(case, flavour, policy, FNV-1a digest, line count)`.
type Pin = (&'static str, &'static str, &'static str, u64, usize);

/// Recorded before the allocation-lean rewrite of the explain path.
#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("control/scenario", "enhanced", "richest", 0xc066781f8f5a3f3b, 9),
    ("control/scenario", "enhanced", "earliest", 0xc066781f8f5a3f3b, 9),
    ("control/scenario", "deterministic", "richest", 0xeac4a1793eb991b7, 9),
    ("control/scenario", "deterministic", "earliest", 0xeac4a1793eb991b7, 9),
    ("control/random", "enhanced", "richest", 0x941de07e8fb1e3c7, 154),
    ("control/random", "enhanced", "earliest", 0xc90303182fbf6efa, 154),
    ("control/random", "deterministic", "richest", 0x7d649b57ef6894e8, 154),
    ("control/random", "deterministic", "earliest", 0xd68b76804a950200, 154),
    ("control/bundle(21,8,1)", "enhanced", "richest", 0x95f104088d2c525e, 1848),
    ("control/bundle(21,8,1)", "enhanced", "earliest", 0x95f104088d2c525e, 1848),
    ("control/bundle(21,8,1)", "deterministic", "richest", 0xa0429d4c3691aac4, 1848),
    ("control/bundle(21,8,1)", "deterministic", "earliest", 0xa0429d4c3691aac4, 1848),
    ("control/bundle_aggregated(5,4,7)", "enhanced", "richest", 0x7700e3f695e5e8aa, 144),
    ("control/bundle_aggregated(5,4,7)", "enhanced", "earliest", 0x7700e3f695e5e8aa, 144),
    ("control/bundle_aggregated(5,4,7)", "deterministic", "richest", 0xb22ba6642f3db0b8, 144),
    ("control/bundle_aggregated(5,4,7)", "deterministic", "earliest", 0xb22ba6642f3db0b8, 144),
    ("stress/scenario", "enhanced", "richest", 0x72a26c5f346e99a0, 4),
    ("stress/scenario", "enhanced", "earliest", 0x72a26c5f346e99a0, 4),
    ("stress/scenario", "deterministic", "richest", 0x2e9cdc666ab1c6fd, 4),
    ("stress/scenario", "deterministic", "earliest", 0x2e9cdc666ab1c6fd, 4),
    ("stress/random_debt_network(40,3,5,7)", "enhanced", "richest", 0xe035cce4dd005685, 16),
    ("stress/random_debt_network(40,3,5,7)", "enhanced", "earliest", 0xe035cce4dd005685, 16),
    ("stress/random_debt_network(40,3,5,7)", "deterministic", "richest", 0x48e752f6c01410d5, 16),
    ("stress/random_debt_network(40,3,5,7)", "deterministic", "earliest", 0x48e752f6c01410d5, 16),
    ("simple_stress/figure8", "enhanced", "richest", 0x626b87494224f446, 3),
    ("simple_stress/figure8", "enhanced", "earliest", 0x626b87494224f446, 3),
    ("simple_stress/figure8", "deterministic", "richest", 0x9b464a8b60a56531, 3),
    ("simple_stress/figure8", "deterministic", "earliest", 0x9b464a8b60a56531, 3),
    ("close_links/random", "enhanced", "richest", 0x205c661027b20788, 79),
    ("close_links/random", "enhanced", "earliest", 0x205c661027b20788, 79),
    ("close_links/random", "deterministic", "richest", 0x0a904693875cf746, 79),
    ("close_links/random", "deterministic", "earliest", 0x0a904693875cf746, 79),
    ("joint_exposure/random", "enhanced", "richest", 0x5a490e643e26cea5, 4),
    ("joint_exposure/random", "enhanced", "earliest", 0x5a490e643e26cea5, 4),
    ("joint_exposure/random", "deterministic", "richest", 0xd045b457585c7662, 4),
    ("joint_exposure/random", "deterministic", "earliest", 0xd045b457585c7662, 4),
    ("golden_power/scenario", "enhanced", "richest", 0x8716d227fe92bf1d, 1),
    ("golden_power/scenario", "enhanced", "earliest", 0x8716d227fe92bf1d, 1),
    ("golden_power/scenario", "deterministic", "richest", 0xe7e5b17976b2d496, 1),
    ("golden_power/scenario", "deterministic", "earliest", 0xe7e5b17976b2d496, 1),
    ("sanctions/flagged", "enhanced", "richest", 0xc5d9e740de216afc, 29),
    ("sanctions/flagged", "enhanced", "earliest", 0xc5d9e740de216afc, 29),
    ("sanctions/flagged", "deterministic", "richest", 0x7d41db6cbb503723, 29),
    ("sanctions/flagged", "deterministic", "earliest", 0x7d41db6cbb503723, 29),
    ("sanctions/clean_link", "enhanced", "richest", 0x182729ff319cb5c8, 127),
    ("sanctions/clean_link", "enhanced", "earliest", 0x182729ff319cb5c8, 127),
    ("sanctions/clean_link", "deterministic", "richest", 0x72881b210bda9f4a, 127),
    ("sanctions/clean_link", "deterministic", "earliest", 0x72881b210bda9f4a, 127),
];

const FLAVORS: [(&str, TemplateFlavor); 2] = [
    ("enhanced", TemplateFlavor::Enhanced),
    ("deterministic", TemplateFlavor::Deterministic),
];

const POLICIES: [(&str, DerivationPolicy); 2] = [
    ("richest", DerivationPolicy::Richest),
    ("earliest", DerivationPolicy::Earliest),
];

struct Case {
    name: &'static str,
    program: Program,
    goal: &'static str,
    glossary: DomainGlossary,
    db: Database,
}

fn case(
    name: &'static str,
    program: Program,
    goal: &'static str,
    glossary: DomainGlossary,
    db: Database,
) -> Case {
    Case {
        name,
        program,
        goal,
        glossary,
        db,
    }
}

/// The goal-cone suite's inputs for every application, plus a deep
/// solid control chain, jointly held (dashed) control links, and a
/// random debt network whose `risk` sums are superseded.
fn cases() -> Vec<Case> {
    let sanctions_db = finkg::random_sanctions(40, 3, 7, 7);
    vec![
        case(
            "control/scenario",
            control::program(),
            control::GOAL,
            control::glossary(),
            scenario::database(),
        ),
        case(
            "control/random",
            control::program(),
            control::GOAL,
            control::glossary(),
            finkg::random_ownership(60, 3, 7),
        ),
        case(
            "control/bundle(21,8,1)",
            control::program(),
            control::GOAL,
            control::glossary(),
            finkg::control_bundle(21, 8, 1).database,
        ),
        case(
            "control/bundle_aggregated(5,4,7)",
            control::program(),
            control::GOAL,
            control::glossary(),
            finkg::control_bundle_aggregated(5, 4, 7).database,
        ),
        case(
            "stress/scenario",
            stress::program(),
            stress::GOAL,
            stress::glossary(),
            scenario::database(),
        ),
        case(
            "stress/random_debt_network(40,3,5,7)",
            stress::program(),
            stress::GOAL,
            stress::glossary(),
            finkg::random_debt_network(40, 3, 5, 7),
        ),
        case(
            "simple_stress/figure8",
            simple_stress::program(),
            simple_stress::GOAL,
            simple_stress::glossary(),
            simple_stress::figure_8_database(),
        ),
        case(
            "close_links/random",
            close_links::program(),
            close_links::GOAL,
            close_links::glossary(),
            finkg::random_ownership(40, 4, 9),
        ),
        case(
            "joint_exposure/random",
            joint_exposure::program(),
            joint_exposure::GOAL,
            joint_exposure::glossary(),
            finkg::random_ownership(40, 6, 11),
        ),
        case(
            "golden_power/scenario",
            golden_power::program(),
            golden_power::GOAL,
            golden_power::glossary(),
            common::golden_power_scenario(),
        ),
        case(
            "sanctions/flagged",
            sanctions::program(),
            sanctions::GOAL,
            sanctions::glossary(),
            sanctions_db.clone(),
        ),
        case(
            "sanctions/clean_link",
            sanctions::program(),
            "clean_link",
            sanctions::glossary(),
            sanctions_db,
        ),
    ]
}

/// FNV-1a over the report lines, each followed by a newline.
fn digest(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One [`common::rendered_line`] per derived goal fact, in report order.
/// A goal the explainer rejects renders as its error, so the pins cover
/// which goals fail as well as what the others say.
fn report_lines(explainer: &Explainer, goal: &str) -> Vec<String> {
    let outcome = explainer.outcome();
    outcome
        .database
        .facts_of(goal.into())
        .iter()
        .filter(|&&id| outcome.graph.is_derived(id))
        .map(|&id| match explainer.explain_id(id) {
            Ok(e) => common::rendered_line(&e),
            Err(err) => format!("{} || error: {err}", outcome.database.fact(id)),
        })
        .collect()
}

#[test]
fn explanations_match_their_recorded_digests() {
    let mut computed: Vec<Pin> = Vec::new();
    for c in cases() {
        let artifacts = ProgramArtifacts::builder(c.program.clone(), c.goal)
            .with_glossary(&c.glossary)
            .build_cached()
            .unwrap_or_else(|e| panic!("{}: artifact build failed: {e}", c.name));
        let outcome = Arc::new(
            ChaseSession::new(&c.program)
                .with_threads(1)
                .run(c.db)
                .unwrap_or_else(|e| panic!("{}: chase failed: {e}", c.name)),
        );
        if c.name.starts_with("stress/random") {
            assert!(
                outcome.database.inactive_count() > 0,
                "{}: no risk sum is superseded; pick a seed whose cascade reaches a creditor twice",
                c.name
            );
        }
        for (flavor_name, flavor) in FLAVORS {
            for (policy_name, policy) in POLICIES {
                let explainer =
                    Explainer::for_snapshot(Arc::clone(&artifacts), Arc::clone(&outcome))
                        .with_flavor(flavor)
                        .with_policy(policy);
                let lines = report_lines(&explainer, c.goal);
                assert!(!lines.is_empty(), "{}: no derived {} facts", c.name, c.goal);
                computed.push((
                    c.name,
                    flavor_name,
                    policy_name,
                    digest(&lines),
                    lines.len(),
                ));
            }
        }
    }
    if computed != PINS {
        let table: String = computed
            .iter()
            .map(|(case, flavor, policy, digest, lines)| {
                format!("    ({case:?}, {flavor:?}, {policy:?}, {digest:#018x}, {lines}),\n")
            })
            .collect();
        panic!("explanation digests moved; computed table:\n{table}");
    }
}

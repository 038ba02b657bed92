//! Golden-power screening: detecting foreign entities that reach a
//! notification-relevant stake in strategic assets through layered
//! shareholdings — the takeover-reasoning use case the paper's group runs
//! on the same Enterprise Knowledge Graph.
//!
//! This application has a second critical node besides the goal: the
//! `control` predicate feeds two different consumer rules, so simple
//! reasoning paths may also end there (Def. 4.2's "leaf or critical
//! node").
//!
//! Run with: `cargo run --example golden_power`

use ekg_explain::finkg::apps::golden_power;
use ekg_explain::prelude::*;

fn main() {
    let program = golden_power::program();
    let artifacts = ProgramArtifacts::builder(program.clone(), golden_power::GOAL)
        .with_glossary(&golden_power::glossary())
        .build_cached()
        .expect("artifacts build");

    println!("Critical nodes: {:?}", artifacts.analysis().critical);
    println!("Reasoning paths:");
    for p in &artifacts.analysis().paths {
        println!("  {:?} {}", p.kind, p.label(&program));
    }

    // A foreign holding splits a strategic stake below any single-entity
    // threshold across two controlled subsidiaries.
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

    let outcome = ChaseSession::new(&program)
        .run(db)
        .expect("chase terminates");
    println!("\nGolden-power alerts:");
    for (_, fact) in outcome.facts_of(golden_power::GOAL) {
        println!("  {fact}");
    }

    let explainer = Explainer::for_snapshot(artifacts, outcome);
    for (id, fact) in explainer.outcome().facts_of(golden_power::GOAL) {
        if fact.values[0] != Value::str("OffshoreCo") {
            continue;
        }
        let e = explainer.explain_id(id).expect("explainable");
        println!("\nQ_e = {{{fact}}} via {:?}:\n{}", e.paths, e.text);
    }
}

//! The company-control application (Sec. 5) on the representative
//! scenario of Fig. 12/13: who controls whom in a cluster of financial
//! institutions, with explanation queries for derived control edges —
//! including the paper's Q_e = {Control("B","D")} and the Fig. 15
//! joint-control example.
//!
//! Run with: `cargo run --example company_control`

use ekg_explain::finkg::apps::control;
use ekg_explain::finkg::scenario;
use ekg_explain::prelude::*;
use std::sync::Arc;

fn main() {
    let program = control::program();
    let artifacts = ProgramArtifacts::builder(program.clone(), control::GOAL)
        .with_glossary(&control::glossary())
        .build_cached()
        .expect("artifacts build");

    // --- The Fig. 12 cluster ---
    let outcome = ChaseSession::new(&program)
        .run(scenario::database())
        .expect("chase terminates");
    println!("Derived control edges (auto-control omitted):");
    for (id, fact) in outcome.facts_of("control") {
        if outcome.graph.is_derived(id) && fact.values[0] != fact.values[1] {
            println!("  {fact}");
        }
    }

    let q = Fact::new("control", vec!["B".into(), "D".into()]);
    let e = Explainer::for_snapshot(Arc::clone(&artifacts), outcome)
        .explain(&q)
        .expect("explainable");
    println!(
        "\nQ_e = {{Control(\"B\",\"D\")}} via {:?}:\n{}",
        e.paths, e.text
    );

    // --- The Fig. 15 joint-control example ---
    let mut db = Database::new();
    for c in ["Irish Bank", "Fondo Italiano", "FrenchPLC", "Madrid Credit"] {
        db.add("company", &[c.into()]);
    }
    db.add(
        "own",
        &["Irish Bank".into(), "Fondo Italiano".into(), 0.83.into()],
    );
    db.add(
        "own",
        &["Irish Bank".into(), "FrenchPLC".into(), 0.54.into()],
    );
    db.add(
        "own",
        &["FrenchPLC".into(), "Madrid Credit".into(), 0.21.into()],
    );
    db.add(
        "own",
        &["Fondo Italiano".into(), "Madrid Credit".into(), 0.36.into()],
    );
    let outcome = ChaseSession::new(&program)
        .run(db)
        .expect("chase terminates");
    let q = Fact::new("control", vec!["Irish Bank".into(), "Madrid Credit".into()]);
    let e = Explainer::for_snapshot(artifacts, outcome)
        .explain(&q)
        .expect("explainable");
    println!(
        "\nQ_e = {{Control(\"Irish Bank\",\"Madrid Credit\")}} via {:?}:\n{}",
        e.paths, e.text
    );
}

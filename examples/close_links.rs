//! The close-link application (the third KG application of the expert
//! study, Sec. 6.2): parties are closely linked when one holds, directly
//! or indirectly (compounding multiplicatively along ownership chains), at
//! least 20% of the other.
//!
//! Run with: `cargo run --example close_links`

use ekg_explain::finkg::apps::close_links;
use ekg_explain::prelude::*;

fn main() {
    let program = close_links::program();
    let artifacts = ProgramArtifacts::builder(program.clone(), close_links::GOAL)
        .with_glossary(&close_links::glossary())
        .build_cached()
        .expect("artifacts build");

    let mut db = Database::new();
    db.add(
        "own",
        &["Alpha Holding".into(), "Beta Bank".into(), 0.8.into()],
    );
    db.add("own", &["Beta Bank".into(), "Gamma Re".into(), 0.6.into()]);
    db.add("own", &["Gamma Re".into(), "Delta Fin".into(), 0.55.into()]);
    db.add(
        "own",
        &["Alpha Holding".into(), "Delta Fin".into(), 0.05.into()],
    );

    let outcome = ChaseSession::new(&program)
        .run(db)
        .expect("chase terminates");
    println!("Derived close links:");
    for (_, fact) in outcome.facts_of("close_link") {
        println!("  {fact}");
    }

    // 0.8 * 0.6 * 0.55 = 26.4% ≥ 20%: Alpha and Delta are closely linked
    // through the full chain.
    let q = Fact::new(
        "close_link",
        vec!["Alpha Holding".into(), "Delta Fin".into()],
    );
    let e = Explainer::for_snapshot(artifacts, outcome)
        .explain(&q)
        .expect("explainable");
    println!(
        "\nQ_e = {{CloseLink(\"Alpha Holding\",\"Delta Fin\")}} via {:?}:\n{}",
        e.paths, e.text
    );
}

//! Quickstart: Example 4.3 of the paper end to end.
//!
//! Defines the simplified stress test (rules α, β, γ), loads the Fig. 8
//! extensional data, runs the chase, prints the dependency-graph analysis
//! and answers the explanation query Q_e = {Default("C")}, reproducing the
//! content of Example 4.8.
//!
//! Run with: `cargo run --example quickstart`

use ekg_explain::finkg::apps::simple_stress;
use ekg_explain::prelude::*;

fn main() {
    // 1. The knowledge-graph application: rules in Vadalog-like syntax.
    let parsed = parse_program(
        r#"
        alpha: shock(f, s), has_capital(f, p1), s > p1 -> default(f).
        beta:  default(d), debts(d, c, v), e = sum(v) -> risk(c, e).
        gamma: has_capital(c, p2), risk(c, e), p2 < e -> default(c).

        % Fig. 8 extensional knowledge (amounts in millions of euros).
        shock("A", 6).      has_capital("A", 5).
        debts("A", "B", 7). has_capital("B", 2).
        debts("B", "C", 2). debts("B", "C", 9).
        has_capital("C", 10).
    "#,
    )
    .expect("program parses");

    // 2. Structural analysis: the reasoning paths of Sec. 4.1.
    let analysis = analyze(&parsed.program, "default").expect("goal is intensional");
    println!("Reasoning paths (Fig. 4/5):");
    for path in &analysis.paths {
        println!("  {:?} {}", path.kind, path.label(&parsed.program));
    }

    // 3. The explanation artifacts: templates generated once, before any
    //    data is touched (Sec. 4.2).
    let glossary = simple_stress::glossary();
    let artifacts = ProgramArtifacts::builder(parsed.program.clone(), "default")
        .with_glossary(&glossary)
        .build_cached()
        .expect("artifacts build");
    println!("\nGenerated templates: {}", artifacts.telemetry().paths);

    // 4. Reasoning: chase to fixpoint with provenance (Sec. 3).
    let db: Database = parsed.facts.into_iter().collect();
    let outcome = ChaseSession::new(&parsed.program)
        .run(db)
        .expect("chase terminates");
    println!(
        "Chase: {} derived facts in {} rounds",
        outcome.derived_facts, outcome.rounds
    );
    for (_, fact) in outcome.facts_of("default") {
        println!("  derived {fact}");
    }

    // 5. The explanation query of Example 4.7/4.8, answered over the
    //    chase outcome.
    let explainer = Explainer::for_snapshot(artifacts, outcome);
    let q = Fact::new("default", vec!["C".into()]);
    let e = explainer.explain(&q).expect("explainable");
    println!(
        "\nQ_e = {{Default(\"C\")}} over {} chase steps, via {:?}:",
        e.chase_steps, e.paths
    );
    println!("\n{}", e.text);
}

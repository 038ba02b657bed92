//! The two-channel stress-test application (Sec. 5, rules σ4–σ7) on the
//! representative scenario: a 15M shock on "A" cascades through long- and
//! short-term debt exposures; the explanation query Q_e = {Default("F")}
//! reproduces the shock-propagation narrative of the paper.
//!
//! Run with: `cargo run --example stress_test`

use ekg_explain::finkg::apps::stress;
use ekg_explain::finkg::scenario;
use ekg_explain::prelude::*;

fn main() {
    let program = stress::program();
    let artifacts = ProgramArtifacts::builder(program.clone(), stress::GOAL)
        .with_glossary(&stress::glossary())
        .build_cached()
        .expect("artifacts build");

    let outcome = ChaseSession::new(&program)
        .run(scenario::database())
        .expect("chase terminates");

    println!("Cascade from the 15M shock on A:");
    for (_, fact) in outcome.facts_of("default") {
        println!("  {fact}");
    }
    println!("\nRisk exposures:");
    for (_, fact) in outcome.facts_of("risk") {
        println!("  {fact}");
    }

    let explainer = Explainer::for_snapshot(artifacts, outcome);
    for entity in ["B", "C", "F"] {
        let q = Fact::new("default", vec![entity.into()]);
        let e = explainer.explain(&q).expect("explainable");
        println!(
            "\nQ_e = {{Default(\"{entity}\")}} ({} chase steps, via {:?}):\n{}",
            e.chase_steps, e.paths, e.text
        );
    }
}

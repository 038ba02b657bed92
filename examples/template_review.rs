//! The human-in-the-loop template workflow of Sec. 4.4: templates for a
//! deployed KG application are exported once, reviewed/edited by the
//! Vadalog experts who defined the application, and imported back under
//! the same anti-omission check that guards automated enhancement.
//!
//! Run with: `cargo run --example template_review`

use ekg_explain::explain::{export_templates, import_templates, TemplateFlavor};
use ekg_explain::finkg::apps::simple_stress;
use ekg_explain::prelude::*;

fn main() {
    let mut artifacts = ProgramArtifacts::builder(simple_stress::program(), simple_stress::GOAL)
        .with_glossary(&simple_stress::glossary())
        .build_cached()
        .expect("artifacts build");

    // 1. Export the generated templates for expert review.
    let review_file = export_templates(&artifacts);
    println!("--- exported review file (excerpt) ---");
    for line in review_file.lines().take(6) {
        println!("{line}");
    }

    // 2. The expert rewrites template 0 (keeping every token) ...
    let t0 = artifacts.templates(TemplateFlavor::Enhanced)[0].clone();
    let tokens: Vec<String> = t0
        .classes
        .iter()
        .map(|c| format!("<{}>", c.display))
        .collect();
    let edited = format!(
        "[template 0 reviewed]\nHit by a shock of {}, {} cannot cover it with its capital of {} and defaults.\n",
        tokens[1], tokens[0], tokens[2],
    );
    // ... and also tries a sloppy edit that loses a token.
    let sloppy = "[template 1 broken]\nThe institution defaults because of its exposures.\n";

    // 3. Import: the good edit is applied, the sloppy one rejected. The
    //    edit lands in a private copy; the cached templates stay as built.
    let report = import_templates(&mut artifacts, &format!("{edited}{sloppy}"));
    println!(
        "\napplied: {}, rejected: {:?}",
        report.applied, report.rejected
    );

    // 4. Explanations now use the reviewed wording — still complete.
    let outcome = ChaseSession::new(&simple_stress::program())
        .run(simple_stress::figure_8_database())
        .expect("chase terminates");
    let e = Explainer::for_snapshot(artifacts, outcome)
        .explain(&Fact::new("default", vec!["A".into()]))
        .expect("explainable");
    println!("\nreviewed explanation of Default(\"A\"):\n{}", e.text);
    assert!(e.text.contains("cannot cover it"));
}

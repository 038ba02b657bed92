//! Ablation experiments for the design choices documented in DESIGN.md:
//!
//! 1. **Template flavour** (deterministic vs fluent/enhanced): text length
//!    at equal completeness.
//! 2. **User-model sensitivity**: comprehension accuracy as the simulated
//!    reader's slip probability varies (the study's robustness).

use explain::{Explainer, ProgramArtifacts, TemplateFlavor};
use finkg::apps::control;
use llm_sim::retained_ratio;
use studies::comprehension::{run as run_comprehension, ComprehensionConfig};
use studies::proof_constants;
use vadalog::ChaseSession;

fn main() {
    ablation_flavor();
    ablation_sensitivity();
}

/// Template flavour: text length at equal (full) completeness.
fn ablation_flavor() {
    println!("== Ablation 1: template flavour (12-step control chains) ==");
    let program = control::program();
    let glossary = control::glossary();
    let artifacts = ProgramArtifacts::builder(program.clone(), control::GOAL)
        .with_glossary(&glossary)
        .build_cached()
        .expect("artifacts");
    let bundle = finkg::control_bundle(12, 5, 3);
    let outcome = ChaseSession::new(&program)
        .run(bundle.database.clone())
        .expect("chase");
    let explainer = Explainer::for_snapshot(artifacts, outcome);
    let outcome = explainer.outcome();
    for flavor in [TemplateFlavor::Deterministic, TemplateFlavor::Enhanced] {
        let explainer = explainer.clone().with_flavor(flavor);
        let mut len_total = 0usize;
        let mut complete = true;
        for target in &bundle.targets {
            let id = outcome.lookup(target).expect("derived");
            let e = explainer.explain_id(id).expect("explainable");
            len_total += e.text.len();
            let constants = proof_constants(outcome, id, &glossary);
            complete &= retained_ratio(&e.text, &constants) == 1.0;
        }
        println!(
            "  {:?}: mean length {} chars, complete = {}",
            flavor,
            len_total / bundle.targets.len(),
            complete
        );
    }
    println!();
}

/// Comprehension-study sensitivity to the reader slip probability.
fn ablation_sensitivity() {
    println!("== Ablation 2: comprehension accuracy vs reader slip probability ==");
    for slip in [0.0, 0.12, 0.3, 0.6, 0.95] {
        let out = run_comprehension(&ComprehensionConfig {
            users: 24,
            slip_probability: slip,
            seed: 7,
        });
        println!(
            "  slip {:.2}: overall accuracy {:.1}%",
            slip,
            100.0 * out.overall_accuracy()
        );
    }
    println!("  (chance level with three candidates: 33.3%)");
    println!();
}

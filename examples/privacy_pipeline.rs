//! The privacy argument of the paper, demonstrated: the template-based
//! pipeline touches an LLM only with *templates* (rules + glossary, never
//! data), while the baseline ships the full materialized explanation to
//! the LLM — and loses constants on long proofs.
//!
//! This example builds a long control chain, explains it three ways
//! (template-based; LLM paraphrase; LLM summary) and reports which
//! constants of the proof survived in each output (Sec. 6.3).
//!
//! Run with: `cargo run --example privacy_pipeline`

use ekg_explain::finkg::apps::control;
use ekg_explain::prelude::*;
use ekg_explain::studies::proof_constants;

fn main() {
    // A 12-step control chain: long enough for the LLM to lose detail.
    let bundle = ekg_explain::finkg::control_bundle(12, 1, 99);
    let program = control::program();
    let glossary = control::glossary();

    // The paper's pipeline may use an LLM to enhance the *templates*
    // (pre-computed, data-free); the anti-omission check retries or falls
    // back when the LLM drops a token.
    let llm_for_templates = SimulatedLlm::new(Prompt::Paraphrase, 7);
    let artifacts = ProgramArtifacts::builder(program.clone(), control::GOAL)
        .with_glossary(&glossary)
        .with_enhancer(&llm_for_templates, 3)
        .build_cached()
        .expect("artifacts build");
    let telemetry = artifacts.telemetry();
    println!(
        "Template enhancement: {} paths, {} retries, {} fallbacks (tokens always preserved)",
        telemetry.paths, telemetry.enhancement_retries, telemetry.enhancement_fallbacks
    );

    let outcome = ChaseSession::new(&program)
        .run(bundle.database.clone())
        .expect("chase terminates");
    let id = outcome.lookup(&bundle.targets[0]).expect("derived");
    let constants = proof_constants(&outcome, id, &glossary);
    println!("\nThe proof uses {} distinct constants.", constants.len());
    let explainer = Explainer::for_snapshot(artifacts, outcome);

    // Method 1: template-based (no data leaves the process).
    let template_text = explainer.explain_id(id).expect("explainable").text;

    // Baseline: the deterministic explanation is shipped to the LLM.
    let deterministic = explainer
        .with_flavor(TemplateFlavor::Deterministic)
        .explain_id(id)
        .expect("explainable")
        .text;
    let paraphrase = SimulatedLlm::new(Prompt::Paraphrase, 7).rewrite(&deterministic, 0);
    let summary = SimulatedLlm::new(Prompt::Summarize, 7).rewrite(&deterministic, 0);

    for (name, text, shares_data) in [
        ("template-based", &template_text, false),
        ("LLM paraphrase", &paraphrase, true),
        ("LLM summary", &summary, true),
    ] {
        let retained = ekg_explain::llm_sim::retained_ratio(text, &constants);
        println!(
            "  {name:15} retained {:>5.1}% of constants | data sent to LLM: {}",
            retained * 100.0,
            if shares_data {
                "YES (full instance)"
            } else {
                "no (templates only)"
            }
        );
    }

    println!("\n--- template-based explanation ---\n{template_text}");
}

//! Ablation experiments for the design choices documented in DESIGN.md:
//!
//! 1. **Derivation policy** (richest vs earliest): effect on explanation
//!    completeness when aggregates accumulate contributors over rounds.
//! 2. **Template flavour** (deterministic vs fluent/enhanced): text length
//!    and redundancy, at equal completeness.
//! 3. **Side-branch recursion** (the completeness mechanism): how many
//!    constants explanations would lose without it, approximated by the
//!    spine-only covering.
//! 4. **User-model sensitivity**: comprehension accuracy as the simulated
//!    reader's slip probability varies (the study's robustness).

use explain::{Explainer, ProgramArtifacts, TemplateFlavor};
use finkg::apps::control;
use llm_sim::retained_ratio;
use studies::comprehension::{run as run_comprehension, ComprehensionConfig};
use studies::proof_constants;
use vadalog::{ChaseSession, DerivationPolicy};

fn main() {
    ablation_policy();
    ablation_flavor();
    ablation_sensitivity();
}

/// Derivation policy: on joint-control workloads, the `Earliest` policy
/// may pick a partial aggregate; `Richest` always surfaces the fullest
/// contributor set.
fn ablation_policy() {
    println!("== Ablation 1: derivation policy (joint-control workload) ==");
    let program = control::program();
    let glossary = control::glossary();
    for policy in [DerivationPolicy::Richest, DerivationPolicy::Earliest] {
        let mut total_completeness = 0.0;
        let mut n = 0usize;
        for seed in 0..6u64 {
            let bundle = finkg::control_bundle_aggregated(3, 2, seed);
            let artifacts = ProgramArtifacts::builder(program.clone(), control::GOAL)
                .with_glossary(&glossary)
                .build_cached()
                .expect("artifacts");
            let outcome = ChaseSession::new(&program)
                .run(bundle.database.clone())
                .expect("chase");
            let explainer = Explainer::for_snapshot(artifacts, outcome).with_policy(policy);
            let outcome = explainer.outcome();
            for target in &bundle.targets {
                let id = outcome.lookup(target).expect("derived");
                let e = explainer.explain_id(id).expect("explainable");
                let constants = proof_constants(outcome, id, &glossary);
                total_completeness += retained_ratio(&e.text, &constants);
                n += 1;
            }
        }
        println!(
            "  {:?}: mean completeness over {} explanations = {:.3}",
            policy,
            n,
            total_completeness / n as f64
        );
    }
    println!();
}

/// Template flavour: length and repeated-sentence ratio at equal (full)
/// completeness.
fn ablation_flavor() {
    println!("== Ablation 2: template flavour (12-step control chains) ==");
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
    println!("== Ablation 3: comprehension accuracy vs reader slip probability ==");
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

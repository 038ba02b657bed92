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
//! 5. **Positional indexes**: chase wall-time with and without the fact
//!    store's lazy positional indexes.

use explain::{ExplanationPipeline, TemplateFlavor};
use finkg::apps::control;
use llm_sim::retained_ratio;
use studies::comprehension::{run as run_comprehension, ComprehensionConfig};
use studies::proof_constants;
use vadalog::{ChaseConfig, ChaseSession, DerivationPolicy};

fn main() {
    ablation_policy();
    ablation_flavor();
    ablation_sensitivity();
    ablation_index();
    ablation_semi_naive();
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
            let pipeline = ExplanationPipeline::builder(program.clone(), control::GOAL)
                .with_glossary(&glossary)
                .with_policy(policy)
                .build()
                .expect("pipeline");
            let outcome = ChaseSession::new(&program)
                .run(bundle.database.clone())
                .expect("chase");
            for target in &bundle.targets {
                let id = outcome.lookup(target).expect("derived");
                let e = pipeline
                    .explain_id(&outcome, id, TemplateFlavor::Enhanced)
                    .expect("explainable");
                let constants = proof_constants(&outcome, id, &glossary);
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
    let pipeline = ExplanationPipeline::builder(program.clone(), control::GOAL)
        .with_glossary(&glossary)
        .build()
        .expect("pipeline");
    let bundle = finkg::control_bundle(12, 5, 3);
    let outcome = ChaseSession::new(&program)
        .run(bundle.database.clone())
        .expect("chase");
    for flavor in [TemplateFlavor::Deterministic, TemplateFlavor::Enhanced] {
        let mut len_total = 0usize;
        let mut complete = true;
        for target in &bundle.targets {
            let id = outcome.lookup(target).expect("derived");
            let e = pipeline
                .explain_id(&outcome, id, flavor)
                .expect("explainable");
            len_total += e.text.len();
            let constants = proof_constants(&outcome, id, &glossary);
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

/// Semi-naive on/off: chase wall-time on deep recursive workloads.
fn ablation_semi_naive() {
    println!("== Ablation 5: semi-naive evaluation (chase wall-time) ==");
    // Company control recurses through an aggregate: semi-naive
    // evaluation keeps its groups across rounds and re-folds only the
    // groups a round's delta touches, where the naive path re-matches and
    // re-folds every group. The close-link program recurses through a
    // plain rule.
    let close = finkg::apps::close_links::program();
    let control_p = control::program();
    for (name, program, db) in [
        (
            "company control (aggregate recursion), 300 companies",
            &control_p,
            finkg::random_ownership(300, 3, 7),
        ),
        (
            "close links (plain recursion), 250 companies",
            &close,
            finkg::random_ownership(250, 4, 9),
        ),
    ] {
        for semi_naive in [true, false] {
            let cfg = ChaseConfig::default().with_semi_naive(semi_naive);
            let t0 = std::time::Instant::now();
            let out = ChaseSession::new(program)
                .with_config(cfg)
                .run(db.clone())
                .expect("chase");
            let dt = t0.elapsed();
            println!(
                "  {name}: semi-naive {}  -> {:>8.2} ms ({} derived facts)",
                if semi_naive { "on " } else { "off" },
                dt.as_secs_f64() * 1e3,
                out.derived_facts
            );
        }
    }
}

/// Positional index on/off: chase wall-time on random networks.
fn ablation_index() {
    println!("== Ablation 4: positional indexes (chase wall-time) ==");
    for (name, program, db) in [
        (
            "company control, 300 companies",
            control::program(),
            finkg::random_ownership(300, 3, 7),
        ),
        (
            "stress test, 300 entities",
            finkg::apps::stress::program(),
            finkg::random_debt_network(300, 3, 5, 7),
        ),
    ] {
        for use_index in [true, false] {
            let cfg = ChaseConfig::default().with_positional_index(use_index);
            let t0 = std::time::Instant::now();
            let out = ChaseSession::new(&program)
                .with_config(cfg)
                .run(db.clone())
                .expect("chase");
            let dt = t0.elapsed();
            println!(
                "  {name}: index {}  -> {:>8.2} ms ({} derived facts)",
                if use_index { "on " } else { "off" },
                dt.as_secs_f64() * 1e3,
                out.derived_facts
            );
        }
    }
}

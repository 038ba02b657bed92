//! Reproduction checks against the paper's concrete artefacts: the worked
//! examples of Sections 4–5 and the shapes of every evaluation figure
//! (small parameterizations; the full sweeps live in `crates/bench`).

use ekg_explain::finkg::apps::{control, simple_stress, stress};
use ekg_explain::prelude::*;

#[test]
fn figure_3_and_4_structural_analysis_of_example_4_3() {
    let program = simple_stress::program();
    let g = DependencyGraph::build(&program);
    assert!(g.is_cyclic());
    assert_eq!(g.nodes().len(), 5);
    assert_eq!(g.edges().len(), 6);

    let a = analyze(&program, "default").unwrap();
    // Fig. 4: Π1 = {α}, Π2 = {α,β,γ}; Γ1 = {β,γ}.
    // Fig. 5: plus one dashed variant each.
    assert_eq!(a.simple_paths().count(), 3);
    assert_eq!(a.cycles().count(), 2);
}

#[test]
fn example_4_7_tau_and_covering() {
    let program = simple_stress::program();
    let outcome = ChaseSession::new(&program)
        .run(simple_stress::figure_8_database())
        .unwrap();
    let id = outcome
        .lookup(&Fact::new("default", vec!["C".into()]))
        .unwrap();
    let proof = outcome.graph.proof(id);
    let tau: Vec<String> = proof
        .linearize(&outcome.graph)
        .iter()
        .map(|s| program.rule(s.rule).label.clone())
        .collect();
    assert_eq!(tau, vec!["alpha", "beta", "gamma", "beta", "gamma"]);
}

#[test]
fn example_4_8_explanation_mentions_every_amount() {
    let program = simple_stress::program();
    let artifacts = ProgramArtifacts::builder(program.clone(), simple_stress::GOAL)
        .with_glossary(&simple_stress::glossary())
        .build_cached()
        .unwrap();
    let outcome = ChaseSession::new(&program)
        .run(simple_stress::figure_8_database())
        .unwrap();
    let e = Explainer::for_snapshot(artifacts, outcome)
        .explain(&Fact::new("default", vec!["C".into()]))
        .unwrap();
    // The amounts of Example 4.8's text: 6M shock, 5M/2M/10M capitals,
    // 7M debt, 2M and 9M loans, 11M total.
    for amount in ["6M", "5M", "2M", "10M", "7M", "9M", "11M"] {
        assert!(e.text.contains(amount), "missing {amount}: {}", e.text);
    }
    assert!(
        e.text.contains("sum of 2M euros and 9M euros"),
        "{}",
        e.text
    );
}

#[test]
fn figure_10_reproduced_exactly() {
    let apps = bench_fig10();
    assert_eq!(
        apps.0,
        vec!["{o1}", "{o2}", "{o1,o3}*", "{o2,o3}*", "{o1,o2,o3}*"]
    );
    assert_eq!(apps.1, vec!["{o3}*"]);
    assert_eq!(
        apps.2,
        vec!["{o4}", "{o4,o5,o7}*", "{o4,o6,o7}*", "{o4,o5,o6,o7}*"]
    );
    assert_eq!(apps.3, vec!["{o5,o7}*", "{o6,o7}*", "{o5,o6,o7}*"]);
}

/// Base path labels (with `*` for aggregation alternatives) of the two
/// Fig. 10 applications, computed independently of the bench crate.
fn bench_fig10() -> (Vec<String>, Vec<String>, Vec<String>, Vec<String>) {
    fn labels(program: &Program, goal: &str, kind: ekg_explain::explain::PathKind) -> Vec<String> {
        let a = analyze(program, goal).unwrap();
        let mut bases: Vec<(Vec<RuleId>, bool)> = Vec::new();
        for p in a.paths.iter().filter(|p| p.kind == kind) {
            match bases.iter_mut().find(|(r, _)| *r == p.rules) {
                Some((_, d)) => *d |= !p.dashed.is_empty(),
                None => bases.push((p.rules.clone(), !p.dashed.is_empty())),
            }
        }
        bases
            .into_iter()
            .map(|(rules, dashed)| {
                let names: Vec<&str> = rules
                    .iter()
                    .map(|&r| program.rule(r).label.as_str())
                    .collect();
                format!("{{{}}}{}", names.join(","), if dashed { "*" } else { "" })
            })
            .collect()
    }
    use ekg_explain::explain::PathKind::{Cycle, Simple};
    let cc = control::program();
    let st = stress::program();
    (
        labels(&cc, control::GOAL, Simple),
        labels(&cc, control::GOAL, Cycle),
        labels(&st, stress::GOAL, Simple),
        labels(&st, stress::GOAL, Cycle),
    )
}

#[test]
fn figure_14_shape_high_accuracy_no_dominant_archetype() {
    let out =
        ekg_explain::studies::comprehension::run(&ekg_explain::studies::ComprehensionConfig {
            users: 24,
            ..Default::default()
        });
    assert!(out.overall_accuracy() >= 0.9, "{}", out.overall_accuracy());
    // No archetype dominates: the total errors of any single archetype
    // stay below a third of all answers of any case.
    for c in &out.cases {
        for (&archetype, &n) in &c.errors {
            assert!(
                n * 3 <= c.total,
                "{:?} dominates case {}: {n}/{}",
                archetype,
                c.name,
                c.total
            );
        }
    }
}

#[test]
fn figure_16_shape_no_significant_difference() {
    use ekg_explain::studies::Method;
    let out = ekg_explain::studies::expert::run(&ekg_explain::studies::ExpertConfig::default());
    assert!(out.p_value(Method::Paraphrase, Method::Templates) > 0.05);
    assert!(out.p_value(Method::Summary, Method::Templates) > 0.05);
    for m in [Method::Paraphrase, Method::Summary, Method::Templates] {
        assert!((2.8..=4.6).contains(&out.mean_of(m)), "{m:?}");
    }
}

#[test]
fn figure_17_shape_omissions_grow_templates_stay_complete() {
    use bench::fig17::{run, App};
    use llm_sim::Prompt;
    let points = run(App::CompanyControl, &[3, 15], 5, 1);
    let mean = |steps: usize, prompt: Prompt| {
        points
            .iter()
            .find(|p| p.steps == steps && p.prompt == prompt)
            .unwrap()
            .boxplot
            .mean
    };
    assert!(mean(15, Prompt::Summarize) > mean(3, Prompt::Summarize));
    assert!(mean(15, Prompt::Summarize) >= mean(15, Prompt::Paraphrase));
    assert!(points.iter().all(|p| p.template_max_omission == 0.0));
}

#[test]
fn figure_18_shape_latency_grows_with_steps() {
    use bench::fig17::App;
    use bench::fig18::run;
    for app in [App::CompanyControl, App::StressTest] {
        let points = run(app, &[1, 9], 5, 2);
        assert!(
            points[1].boxplot_us.median > points[0].boxplot_us.median,
            "{app:?}"
        );
        assert!(points[1].boxplot_us.max < 1e6, "{app:?} not interactive");
    }
}

#[test]
fn section_5_narrative_default_f_explanation() {
    let program = stress::program();
    let artifacts = ProgramArtifacts::builder(program.clone(), stress::GOAL)
        .with_glossary(&stress::glossary())
        .build_cached()
        .unwrap();
    let outcome = ChaseSession::new(&program)
        .run(ekg_explain::finkg::scenario::database())
        .unwrap();
    let e = Explainer::for_snapshot(artifacts, outcome)
        .explain(&Fact::new("default", vec!["F".into()]))
        .unwrap();
    // The narrative: shock on A, cascade through B (long channel) and C
    // (short channel), both exposures of F, F's capital.
    for needle in [
        "15M euros",
        "7M euros",
        "9M euros",
        "8M euros",
        "2M euros",
        "F",
    ] {
        assert!(e.text.contains(needle), "missing {needle}: {}", e.text);
    }
    // Both channels are verbalized.
    assert!(e.text.contains("long-term"), "{}", e.text);
    assert!(e.text.contains("short-term"), "{}", e.text);
}

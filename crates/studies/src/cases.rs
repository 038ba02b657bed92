//! The concrete scenarios of the two user studies (Sec. 6.1–6.2), built
//! from the financial applications on synthetic data.

use explain::{DomainGlossary, Explainer, ProgramArtifacts, TemplateFlavor};
use finkg::apps::{close_links, control, simple_stress, stress};
use vadalog::{ChaseSession, Database, Fact, FactId};

/// One prepared scenario: an explainer over the application's artifacts
/// and the scenario's chase outcome, plus the fact to explain.
pub struct Case {
    /// Human-readable description.
    pub name: &'static str,
    /// The application's explainer, bound to the chase outcome over the
    /// scenario data (see [`Explainer::outcome`]).
    pub explainer: Explainer,
    /// The fact of the explanation query.
    pub target: FactId,
    /// The application's domain glossary.
    pub glossary: DomainGlossary,
}

impl Case {
    fn build(
        name: &'static str,
        program: vadalog::Program,
        goal: &str,
        glossary: DomainGlossary,
        db: Database,
        target: Fact,
    ) -> Case {
        let artifacts = ProgramArtifacts::builder(program.clone(), goal)
            .with_glossary(&glossary)
            .build_cached()
            .expect("study scenarios analyze cleanly");
        let outcome = ChaseSession::new(&program)
            .run(db)
            .expect("study scenarios chase cleanly");
        let target = outcome
            .lookup(&target)
            .unwrap_or_else(|| panic!("{name}: target not derived"));
        Case {
            name,
            explainer: Explainer::for_snapshot(artifacts, outcome),
            target,
            glossary,
        }
    }

    /// The enhanced (template-based) explanation text.
    pub fn template_text(&self) -> String {
        self.explainer
            .explain_id(self.target)
            .expect("explainable")
            .text
    }

    /// The deterministic verbalized explanation (the LLM baselines'
    /// input).
    pub fn deterministic_text(&self) -> String {
        self.explainer
            .clone()
            .with_flavor(TemplateFlavor::Deterministic)
            .explain_id(self.target)
            .expect("explainable")
            .text
    }
}

/// Case 1 of the comprehension study: control through aggregation over
/// multiple entities (the Fig. 15 joint-control pattern).
pub fn control_aggregation() -> Case {
    let mut db = Database::new();
    for c in ["IB", "FI", "FP", "MC"] {
        db.add("company", &[c.into()]);
    }
    db.add("own", &["IB".into(), "FI".into(), 0.83.into()]);
    db.add("own", &["IB".into(), "FP".into(), 0.54.into()]);
    db.add("own", &["FP".into(), "MC".into(), 0.21.into()]);
    db.add("own", &["FI".into(), "MC".into(), 0.36.into()]);
    Case::build(
        "control with aggregation over multiple entities",
        control::program(),
        control::GOAL,
        control::glossary(),
        db,
        Fact::new("control", vec!["IB".into(), "MC".into()]),
    )
}

/// Case 2: a simple stress-test scenario (Fig. 8).
pub fn simple_stress_case() -> Case {
    Case::build(
        "simple stress test",
        simple_stress::program(),
        simple_stress::GOAL,
        simple_stress::glossary(),
        simple_stress::figure_8_database(),
        Fact::new("default", vec!["C".into()]),
    )
}

/// Case 3: control via recursion (a four-layer chain of majorities).
pub fn control_recursion() -> Case {
    let bundle = finkg::control_bundle(4, 1, 2024);
    Case::build(
        "control via recursion",
        control::program(),
        control::GOAL,
        control::glossary(),
        bundle.database,
        bundle.targets[0].clone(),
    )
}

/// Case 4: a complex stress test involving recursion and aggregation (the
/// two-channel cascade of the representative scenario, Q_e = Default(F)).
pub fn stress_recursion_aggregation() -> Case {
    Case::build(
        "complex stress test with recursion and aggregation",
        stress::program(),
        stress::GOAL,
        stress::glossary(),
        finkg::scenario::database(),
        Fact::new("default", vec!["F".into()]),
    )
}

/// Case 5: control combining recursion and aggregation (joint holdings on
/// every layer).
pub fn control_recursion_aggregation() -> Case {
    let bundle = finkg::control_bundle_aggregated(3, 1, 77);
    Case::build(
        "control combining recursion and aggregation",
        control::program(),
        control::GOAL,
        control::glossary(),
        bundle.database,
        bundle.targets[0].clone(),
    )
}

/// The five comprehension-study cases, in the paper's order.
pub fn comprehension_cases() -> Vec<Case> {
    vec![
        control_aggregation(),
        simple_stress_case(),
        control_recursion(),
        stress_recursion_aggregation(),
        control_recursion_aggregation(),
    ]
}

/// Expert-study scenario: a short control chain (the Fig. 15 case: Irish
/// Bank's joint control over Madrid Credit).
pub fn expert_short_control() -> Case {
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
    Case::build(
        "short control chain (Fig. 15)",
        control::program(),
        control::GOAL,
        control::glossary(),
        db,
        Fact::new("control", vec!["Irish Bank".into(), "Madrid Credit".into()]),
    )
}

/// Expert-study scenario: a long control chain with multiple layers of
/// intermediate controls.
pub fn expert_long_control() -> Case {
    let bundle = finkg::control_bundle(7, 1, 6);
    Case::build(
        "long control chain",
        control::program(),
        control::GOAL,
        control::glossary(),
        bundle.database,
        bundle.targets[0].clone(),
    )
}

/// Expert-study scenario: the stress-test application.
pub fn expert_stress() -> Case {
    stress_recursion_aggregation()
}

/// Expert-study scenario: the close-link application.
pub fn expert_close_link() -> Case {
    let mut db = Database::new();
    db.add("own", &["HoldCo".into(), "MidCo".into(), 0.7.into()]);
    db.add("own", &["MidCo".into(), "OpCo".into(), 0.5.into()]);
    Case::build(
        "close link",
        close_links::program(),
        close_links::GOAL,
        close_links::glossary(),
        db,
        Fact::new("close_link", vec!["HoldCo".into(), "OpCo".into()]),
    )
}

/// The four expert-study scenarios, in the paper's order.
pub fn expert_cases() -> Vec<Case> {
    vec![
        expert_short_control(),
        expert_long_control(),
        expert_stress(),
        expert_close_link(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_comprehension_cases_build_and_explain() {
        for case in comprehension_cases() {
            let text = case.template_text();
            assert!(!text.is_empty(), "{}", case.name);
            assert!(!text.contains('<'), "{}: {}", case.name, text);
        }
    }

    #[test]
    fn all_expert_cases_build_and_explain() {
        for case in expert_cases() {
            assert!(!case.template_text().is_empty(), "{}", case.name);
            let det = case.deterministic_text();
            assert!(det.len() >= case.template_text().len(), "{}", case.name);
        }
    }
}

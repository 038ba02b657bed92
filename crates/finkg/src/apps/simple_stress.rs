//! The simplified single-channel stress test of Example 4.3 (rules α–γ).
//!
//! Used throughout the paper's Section 4 to introduce reasoning paths,
//! templates and the mapping; kept here as a first-class application for
//! the quickstart example and tests.

use explain::{DomainGlossary, GlossaryEntry, ValueFormat};
use vadalog::{parse_program, Program};

/// The goal predicate of the application.
pub const GOAL: &str = "default";

/// The rule text (α, β, γ of Example 4.3).
pub const RULES: &str = r#"
    alpha: shock(f, s), has_capital(f, p1), s > p1 -> default(f).
    beta: default(d), debts(d, c, v), e = sum(v) -> risk(c, e).
    gamma: has_capital(c, p2), risk(c, e), p2 < e -> default(c).
"#;

/// Builds the validated program.
pub fn program() -> Program {
    parse_program(RULES)
        .expect("the Example 4.3 program is well-formed")
        .program
}

/// The domain glossary of Fig. 7.
pub fn glossary() -> DomainGlossary {
    DomainGlossary::new()
        .with(GlossaryEntry::new(
            "has_capital",
            &[("f", ValueFormat::Plain), ("p", ValueFormat::MillionsEuro)],
            "<f> is a financial institution with capital of <p>",
        ))
        .with(GlossaryEntry::new(
            "shock",
            &[("f", ValueFormat::Plain), ("s", ValueFormat::MillionsEuro)],
            "a shock amounting to <s> affects <f>",
        ))
        .with(GlossaryEntry::new(
            "default",
            &[("f", ValueFormat::Plain)],
            "<f> is in default",
        ))
        .with(GlossaryEntry::new(
            "debts",
            &[
                ("d", ValueFormat::Plain),
                ("c", ValueFormat::Plain),
                ("v", ValueFormat::MillionsEuro),
            ],
            "<d> has an amount <v> of debts with <c>",
        ))
        .with(GlossaryEntry::new(
            "risk",
            &[("c", ValueFormat::Plain), ("e", ValueFormat::MillionsEuro)],
            "<c> is at risk of defaulting given its loan of <e> of exposures to a defaulted debtor",
        ))
}

/// The Fig. 8 extensional database (shock of 6M on "A").
pub fn figure_8_database() -> vadalog::Database {
    let mut db = vadalog::Database::new();
    db.add("shock", &["A".into(), 6i64.into()]);
    db.add("has_capital", &["A".into(), 5i64.into()]);
    db.add("debts", &["A".into(), "B".into(), 7i64.into()]);
    db.add("has_capital", &["B".into(), 2i64.into()]);
    db.add("debts", &["B".into(), "C".into(), 2i64.into()]);
    db.add("debts", &["B".into(), "C".into(), 9i64.into()]);
    db.add("has_capital", &["C".into(), 10i64.into()]);
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use explain::{Explainer, ProgramArtifacts};
    use vadalog::{ChaseSession, Fact};

    #[test]
    fn figure_8_chase_derives_the_cascade() {
        let out = ChaseSession::new(&program())
            .run(figure_8_database())
            .unwrap();
        for entity in ["A", "B", "C"] {
            assert!(out
                .database
                .contains(&Fact::new("default", vec![entity.into()])));
        }
        assert!(out
            .database
            .contains(&Fact::new("risk", vec!["C".into(), 11i64.into()])));
    }

    #[test]
    fn example_4_8_pipeline_round_trip() {
        let artifacts = ProgramArtifacts::builder(program(), GOAL)
            .with_glossary(&glossary())
            .build_cached()
            .unwrap();
        let out = ChaseSession::new(&program())
            .run(figure_8_database())
            .unwrap();
        let e = Explainer::for_snapshot(artifacts, out)
            .explain(&Fact::new("default", vec!["C".into()]))
            .unwrap();
        assert_eq!(e.chase_steps, 5);
        assert!(e.text.contains("11M euros"));
    }
}

//! The sanctions-screening KG application.
//!
//! Compliance staff must flag every party whose ownership network
//! exposes it to a sanctioned entity — directly or through a chain of
//! significant stakes — and, dually, certify the links that are *clean*
//! of sanctioned endpoints. Exposure propagates along stakes of at
//! least 20%; the screening itself is a stratified-negation query over
//! the extensional `sanctioned` designations, which makes the program
//! aggregate-free and therefore eligible for incremental maintenance
//! under `ChaseSession::apply_delta` as designations are added and
//! lifted.

use explain::{DomainGlossary, GlossaryEntry, ValueFormat};
use vadalog::{parse_program, Program};

/// The goal predicate of the application.
pub const GOAL: &str = "flagged";

/// The rule text.
pub const RULES: &str = r#"
    s1: own(x, y, w), w >= 0.2 -> exposure(x, y).
    s2: exposure(x, z), own(z, y, w), w >= 0.2, x != y -> exposure(x, y).
    s3: exposure(x, y), sanctioned(y) -> flagged(x, y).
    s4: exposure(x, y), not sanctioned(x), not sanctioned(y) -> clean_link(x, y).
"#;

/// Builds the validated sanctions-screening program.
pub fn program() -> Program {
    parse_program(RULES)
        .expect("the sanctions program is well-formed")
        .program
}

/// The domain glossary of the application.
pub fn glossary() -> DomainGlossary {
    DomainGlossary::new()
        .with(GlossaryEntry::new(
            "own",
            &[
                ("x", ValueFormat::Plain),
                ("y", ValueFormat::Plain),
                ("w", ValueFormat::Percent),
            ],
            "<x> owns <w> shares of <y>",
        ))
        .with(GlossaryEntry::new(
            "sanctioned",
            &[("x", ValueFormat::Plain)],
            "<x> is a sanctioned entity",
        ))
        .with(GlossaryEntry::new(
            "exposure",
            &[("x", ValueFormat::Plain), ("y", ValueFormat::Plain)],
            "<x> is exposed to <y> through a chain of significant stakes",
        ))
        .with(GlossaryEntry::new(
            "flagged",
            &[("x", ValueFormat::Plain), ("y", ValueFormat::Plain)],
            "<x> is flagged for exposure to the sanctioned entity <y>",
        ))
        .with(GlossaryEntry::new(
            "clean_link",
            &[("x", ValueFormat::Plain), ("y", ValueFormat::Plain)],
            "the link between <x> and <y> is clean of sanctions",
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use explain::{analyze, Explainer, ProgramArtifacts};
    use vadalog::{ChaseSession, Database, Fact};

    fn screen(db: Database) -> vadalog::ChaseOutcome {
        ChaseSession::new(&program()).run(db).unwrap()
    }

    #[test]
    fn exposure_chains_flag_indirect_sanctions_hits() {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.5.into()]);
        db.add("own", &["B".into(), "C".into(), 0.3.into()]);
        db.add("own", &["A".into(), "D".into(), 0.1.into()]);
        db.add("sanctioned", &["C".into()]);
        db.add("sanctioned", &["D".into()]);
        let out = screen(db);
        // A reaches sanctioned C through B; the 10% stake in D is below
        // the exposure threshold.
        assert!(out
            .database
            .contains(&Fact::new("flagged", vec!["A".into(), "C".into()])));
        assert!(out
            .database
            .contains(&Fact::new("flagged", vec!["B".into(), "C".into()])));
        assert!(!out
            .database
            .contains(&Fact::new("flagged", vec!["A".into(), "D".into()])));
    }

    #[test]
    fn clean_links_exclude_sanctioned_endpoints() {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        db.add("own", &["B".into(), "C".into(), 0.6.into()]);
        db.add("sanctioned", &["C".into()]);
        let out = screen(db);
        assert!(out
            .database
            .contains(&Fact::new("clean_link", vec!["A".into(), "B".into()])));
        assert!(!out
            .database
            .contains(&Fact::new("clean_link", vec!["A".into(), "C".into()])));
        assert!(!out
            .database
            .contains(&Fact::new("clean_link", vec!["B".into(), "C".into()])));
    }

    #[test]
    fn explanations_cover_the_exposure_chain() {
        let p = program();
        let artifacts = ProgramArtifacts::builder(p.clone(), GOAL)
            .with_glossary(&glossary())
            .build_cached()
            .unwrap();
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.8.into()]);
        db.add("own", &["B".into(), "C".into(), 0.4.into()]);
        db.add("sanctioned", &["C".into()]);
        let out = ChaseSession::new(&p).run(db).unwrap();
        let e = Explainer::for_snapshot(artifacts, out)
            .explain(&Fact::new("flagged", vec!["A".into(), "C".into()]))
            .unwrap();
        for needle in ["80%", "40%", "sanctioned"] {
            assert!(e.text.contains(needle), "missing {needle}: {}", e.text);
        }
    }

    #[test]
    fn structural_analysis_finds_the_exposure_recursion() {
        let a = analyze(&program(), GOAL).unwrap();
        assert!(a.cycles().count() >= 1);
        assert!(a.simple_paths().count() >= 1);
    }
}

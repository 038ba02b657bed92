//! The joint-exposure (triangular cross-holding) KG application.
//!
//! Supervisors screen ownership networks for *reinforced* stakes: a
//! direct holding that is backed by a majority-control chain through a
//! common intermediary (each leg of the two-hop path a majority stake).
//! Such triangles are how circular and reciprocal cross-holdings
//! surface — the pattern prudential rules treat as artificially
//! inflated capital — and detecting them is a closing-edge triangle
//! join: for every two-hop path the engine must probe whether the
//! closing stake exists, so the join enumerates far more candidates
//! than it commits. The program is aggregate- and existential-free,
//! which makes it eligible for incremental maintenance under
//! `ChaseSession::apply_delta` as stakes are bought and sold.

use explain::{DomainGlossary, GlossaryEntry, ValueFormat};
use vadalog::{parse_program, Program};

/// The goal predicate of the application.
pub const GOAL: &str = "reinforced";

/// The rule text.
pub const RULES: &str = r#"
    j1: own(x, y, v), own(y, z, w), own(x, z, u), v >= 0.5, w >= 0.5 -> triangle(x, y, z, u).
    j2: triangle(x, y, z, u), u >= 0.25 -> reinforced(x, z).
"#;

/// Builds the validated joint-exposure program.
pub fn program() -> Program {
    parse_program(RULES)
        .expect("the joint-exposure program is well-formed")
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
            "triangle",
            &[
                ("x", ValueFormat::Plain),
                ("y", ValueFormat::Plain),
                ("z", ValueFormat::Plain),
                ("u", ValueFormat::Percent),
            ],
            "<x> holds <u> of <z> directly while also reaching it through <y>",
        ))
        .with(GlossaryEntry::new(
            "reinforced",
            &[("x", ValueFormat::Plain), ("z", ValueFormat::Plain)],
            "the stake of <x> in <z> is reinforced by an indirect path",
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
    fn closing_stakes_form_triangles() {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        db.add("own", &["B".into(), "C".into(), 0.55.into()]);
        db.add("own", &["A".into(), "C".into(), 0.3.into()]);
        db.add("own", &["A".into(), "D".into(), 0.2.into()]);
        // A sub-majority leg: the path A -> E -> C does not control C.
        db.add("own", &["A".into(), "E".into(), 0.4.into()]);
        db.add("own", &["E".into(), "C".into(), 0.6.into()]);
        let out = screen(db);
        assert!(out.database.contains(&Fact::new(
            "triangle",
            vec!["A".into(), "B".into(), "C".into(), 0.3.into()],
        )));
        // No two-hop path reaches D, and the path through E is not a
        // control chain: neither closing stake forms a triangle.
        assert!(!out
            .database
            .iter()
            .any(|(_, f)| f.predicate == vadalog::Symbol::new("triangle")
                && (f.values.last() == Some(&0.2.into()) || f.values.get(1) == Some(&"E".into()))));
    }

    #[test]
    fn only_significant_closing_stakes_are_reinforced() {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        db.add("own", &["B".into(), "C".into(), 0.55.into()]);
        db.add("own", &["A".into(), "C".into(), 0.3.into()]);
        db.add("own", &["B".into(), "D".into(), 0.5.into()]);
        db.add("own", &["C".into(), "D".into(), 0.5.into()]);
        db.add("own", &["B".into(), "E".into(), 0.5.into()]);
        db.add("own", &["E".into(), "D".into(), 0.5.into()]);
        // B -> D closes two triangles at 50%; A -> C closes one at 30%.
        let mut db2 = db.clone();
        let out = screen(db);
        assert!(out
            .database
            .contains(&Fact::new("reinforced", vec!["B".into(), "D".into()])));
        assert!(out
            .database
            .contains(&Fact::new("reinforced", vec!["A".into(), "C".into()])));
        // Below the 25% bar the triangle exists but is not flagged.
        db2.add("own", &["A".into(), "F".into(), 0.6.into()]);
        db2.add("own", &["F".into(), "G".into(), 0.55.into()]);
        db2.add("own", &["A".into(), "G".into(), 0.1.into()]);
        let out2 = screen(db2);
        assert!(out2.database.contains(&Fact::new(
            "triangle",
            vec!["A".into(), "F".into(), "G".into(), 0.1.into()],
        )));
        assert!(!out2
            .database
            .contains(&Fact::new("reinforced", vec!["A".into(), "G".into()])));
    }

    #[test]
    fn explanations_cover_the_closing_edge() {
        let p = program();
        let artifacts = ProgramArtifacts::builder(p.clone(), GOAL)
            .with_glossary(&glossary())
            .build_cached()
            .unwrap();
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        db.add("own", &["B".into(), "C".into(), 0.5.into()]);
        db.add("own", &["A".into(), "C".into(), 0.3.into()]);
        let out = ChaseSession::new(&p).run(db).unwrap();
        let e = Explainer::for_snapshot(artifacts, out)
            .explain(&Fact::new("reinforced", vec!["A".into(), "C".into()]))
            .unwrap();
        for needle in ["30%", "indirect"] {
            assert!(e.text.contains(needle), "missing {needle}: {}", e.text);
        }
    }

    #[test]
    fn structural_analysis_sees_the_two_step_pipeline() {
        let a = analyze(&program(), GOAL).unwrap();
        assert!(a.simple_paths().count() >= 1);
    }
}

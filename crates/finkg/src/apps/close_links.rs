//! The close-link KG application (third application of the expert study,
//! Sec. 6.2; cf. Atzeni et al., "Weaving Enterprise Knowledge Graphs: The
//! Case of Company Ownership Graphs", EDBT 2020).
//!
//! Two parties are *closely linked* when one holds, directly or
//! indirectly, at least 20% of the other's capital. Indirect holdings
//! compound multiplicatively along ownership chains; propagation is
//! pruned below the regulatory threshold, which also guarantees chase
//! termination (weights never increase along a chain).

use explain::{DomainGlossary, GlossaryEntry, ValueFormat};
use vadalog::{parse_program, Program};

/// The goal predicate of the application.
pub const GOAL: &str = "close_link";

/// The rule text.
pub const RULES: &str = r#"
    k1: own(x, y, w) -> int_own(x, y, w).
    k2: int_own(x, z, w1), own(z, y, w2), w = w1 * w2, w >= 0.2, x != y -> int_own(x, y, w).
    k3: int_own(x, y, w), w >= 0.2 -> close_link(x, y).
"#;

/// Builds the validated close-link program.
pub fn program() -> Program {
    parse_program(RULES)
        .expect("the close-link program is well-formed")
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
            "int_own",
            &[
                ("x", ValueFormat::Plain),
                ("y", ValueFormat::Plain),
                ("w", ValueFormat::Percent),
            ],
            "<x> holds, directly or indirectly, <w> of <y>",
        ))
        .with(GlossaryEntry::new(
            "close_link",
            &[("x", ValueFormat::Plain), ("y", ValueFormat::Plain)],
            "<x> and <y> are closely linked",
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use explain::{analyze, Explainer, ProgramArtifacts};
    use vadalog::{ChaseSession, Database, Fact};

    #[test]
    fn direct_and_indirect_close_links() {
        let p = program();
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.5.into()]);
        db.add("own", &["B".into(), "C".into(), 0.5.into()]);
        db.add("own", &["C".into(), "D".into(), 0.5.into()]);
        let out = ChaseSession::new(&p).run(db).unwrap();
        // A-B direct (50%), A-C indirect (25%), A-D indirect (12.5% < 20%).
        assert!(out
            .database
            .contains(&Fact::new("close_link", vec!["A".into(), "B".into()])));
        assert!(out
            .database
            .contains(&Fact::new("close_link", vec!["A".into(), "C".into()])));
        assert!(!out
            .database
            .contains(&Fact::new("close_link", vec!["A".into(), "D".into()])));
    }

    #[test]
    fn ownership_cycles_terminate() {
        let p = program();
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 1.0.into()]);
        db.add("own", &["B".into(), "A".into(), 1.0.into()]);
        let out = ChaseSession::new(&p).run(db).unwrap();
        assert!(out
            .database
            .contains(&Fact::new("close_link", vec!["A".into(), "B".into()])));
        // Fixpoint reached despite the 100% cycle.
        assert!(out.rounds < 20);
    }

    #[test]
    fn explanations_cover_indirect_chains() {
        let p = program();
        let artifacts = ProgramArtifacts::builder(p.clone(), GOAL)
            .with_glossary(&glossary())
            .build_cached()
            .unwrap();
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.8.into()]);
        db.add("own", &["B".into(), "C".into(), 0.6.into()]);
        let out = ChaseSession::new(&p).run(db).unwrap();
        let e = Explainer::for_snapshot(artifacts, out)
            .explain(&Fact::new("close_link", vec!["A".into(), "C".into()]))
            .unwrap();
        for needle in ["80%", "60%", "48%", "closely linked"] {
            assert!(e.text.contains(needle), "missing {needle}: {}", e.text);
        }
    }

    #[test]
    fn structural_analysis_finds_the_recursion_cycle() {
        let a = analyze(&program(), GOAL).unwrap();
        assert!(a.cycles().count() >= 1);
        assert!(a.simple_paths().count() >= 2);
    }
}

//! The company-control KG application (Sec. 5, rules σ1–σ3).
//!
//! "A company (or a person) x controls a company y if: (i) x directly owns
//! more than 50% of y; or (ii) x controls a set of companies that jointly
//! (i.e., summing the shares), and possibly together with x, own more than
//! 50% of y."

use explain::{DomainGlossary, GlossaryEntry, ValueFormat};
use vadalog::{parse_program, Program};

/// The goal predicate of the application.
pub const GOAL: &str = "control";

/// The rule text (σ1–σ3 of the paper).
pub const RULES: &str = r#"
    o1: own(x, y, s), s > 0.5 -> control(x, y).
    o2: company(x) -> control(x, x).
    o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).
"#;

/// Builds the validated company-control program.
pub fn program() -> Program {
    parse_program(RULES)
        .expect("the company-control program is well-formed")
        .program
}

/// The domain glossary of the application (Fig. 11).
pub fn glossary() -> DomainGlossary {
    DomainGlossary::new()
        .with(GlossaryEntry::new(
            "own",
            &[
                ("x", ValueFormat::Plain),
                ("y", ValueFormat::Plain),
                ("s", ValueFormat::Percent),
            ],
            "<x> owns <s> shares of <y>",
        ))
        .with(GlossaryEntry::new(
            "control",
            &[("x", ValueFormat::Plain), ("y", ValueFormat::Plain)],
            "<x> exercises control over <y>",
        ))
        .with(GlossaryEntry::new(
            "company",
            &[("x", ValueFormat::Plain)],
            "<x> is a business corporation",
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use explain::{analyze, Explainer, ProgramArtifacts};
    use vadalog::{ChaseSession, Database, Fact, Symbol};

    #[test]
    fn program_parses_and_classifies() {
        let p = program();
        assert_eq!(p.len(), 3);
        assert!(p.is_intensional(Symbol::new("control")));
        assert!(p.is_extensional(Symbol::new("own")));
    }

    #[test]
    fn structural_analysis_matches_figure_10() {
        let a = analyze(&program(), GOAL).unwrap();
        // 5 simple base paths, 1 cycle base path (Fig. 10).
        let mut simple_bases = std::collections::HashSet::new();
        for p in a.simple_paths() {
            simple_bases.insert(p.rules.clone());
        }
        assert_eq!(simple_bases.len(), 5);
        let mut cycle_bases = std::collections::HashSet::new();
        for p in a.cycles() {
            cycle_bases.insert(p.rules.clone());
        }
        assert_eq!(cycle_bases.len(), 1);
    }

    #[test]
    fn irish_bank_controls_madrid_credit() {
        // The Fig. 15 worked example.
        let p = program();
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
        let out = ChaseSession::new(&p).run(db).unwrap();
        let target = Fact::new("control", vec!["Irish Bank".into(), "Madrid Credit".into()]);
        assert!(out.database.contains(&target));

        let artifacts = ProgramArtifacts::builder(p, GOAL)
            .with_glossary(&glossary())
            .build_cached()
            .unwrap();
        let e = Explainer::for_snapshot(artifacts, out)
            .explain(&target)
            .unwrap();
        // The explanation carries all shares of the Fig. 15 texts.
        for needle in [
            "83%",
            "54%",
            "21%",
            "36%",
            "57%",
            "Irish Bank",
            "Madrid Credit",
        ] {
            assert!(e.text.contains(needle), "missing {needle}: {}", e.text);
        }
    }
}

//! The golden-power screening application, modelled after the
//! company-takeover reasoning the paper's group runs on the same EKG
//! (Bellomarini et al., "Reasoning on company takeovers", cited as the
//! COVID-19 golden-power exercise).
//!
//! Under golden-power regulation, the authority must be notified when a
//! foreign entity acquires a *relevant stake* (here: 10%) in a strategic
//! company — directly, or aggregated through the companies it controls.
//! The application layers two rules on top of the company-control
//! substrate (σ1–σ3).

use explain::{DomainGlossary, GlossaryEntry, ValueFormat};
use vadalog::{parse_program, Program};

/// The goal predicate of the application.
pub const GOAL: &str = "golden_power";

/// The rule text: the control substrate plus the screening rules.
pub const RULES: &str = r#"
    g1: own(x, y, s), s > 0.5 -> control(x, y).
    g2: company(x) -> control(x, x).
    g3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).
    g4: own(x, y, w), foreign(x), strategic(y), w >= 0.1 -> golden_power(x, y, w).
    g5: control(x, z), own(z, y, w), foreign(x), strategic(y),
        tw = sum(w), tw >= 0.1 -> golden_power(x, y, tw).
"#;

/// Builds the validated golden-power program.
pub fn program() -> Program {
    parse_program(RULES)
        .expect("the golden-power program is well-formed")
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
        .with(GlossaryEntry::new(
            "foreign",
            &[("x", ValueFormat::Plain)],
            "<x> is a foreign entity",
        ))
        .with(GlossaryEntry::new(
            "strategic",
            &[("y", ValueFormat::Plain)],
            "<y> is an asset of strategic national relevance",
        ))
        .with(GlossaryEntry::new(
            "golden_power",
            &[
                ("x", ValueFormat::Plain),
                ("y", ValueFormat::Plain),
                ("w", ValueFormat::Percent),
            ],
            "<x> reaches a stake of <w> in the strategic asset <y>, subject to golden-power notification",
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use explain::{analyze, Explainer, ProgramArtifacts};
    use vadalog::{ChaseSession, Database, Symbol};

    fn scenario() -> Database {
        let mut db = Database::new();
        for c in ["OffshoreCo", "HoldCo", "SubA", "SubB", "GridCo"] {
            db.add("company", &[c.into()]);
        }
        db.add("foreign", &["OffshoreCo".into()]);
        db.add("strategic", &["GridCo".into()]);
        // OffshoreCo controls HoldCo (70%); HoldCo controls SubA and SubB.
        db.add("own", &["OffshoreCo".into(), "HoldCo".into(), 0.7.into()]);
        db.add("own", &["HoldCo".into(), "SubA".into(), 0.9.into()]);
        db.add("own", &["HoldCo".into(), "SubB".into(), 0.6.into()]);
        // The subsidiaries each hold 6% of the strategic grid operator:
        // individually immaterial, jointly 12% >= 10%.
        db.add("own", &["SubA".into(), "GridCo".into(), 0.06.into()]);
        db.add("own", &["SubB".into(), "GridCo".into(), 0.06.into()]);
        db
    }

    #[test]
    fn aggregated_stake_triggers_notification() {
        let out = ChaseSession::new(&program()).run(scenario()).unwrap();
        let hits = out.facts_of(GOAL);
        assert!(
            hits.iter()
                .any(|(_, f)| f.values[0] == "OffshoreCo".into() && f.values[1] == "GridCo".into()),
            "{hits:?}"
        );
        // 6% + 6% = 12%.
        let stake = hits
            .iter()
            .find(|(_, f)| f.values[0] == "OffshoreCo".into())
            .and_then(|(_, f)| f.values[2].as_f64())
            .unwrap();
        assert!((stake - 0.12).abs() < 1e-9);
    }

    #[test]
    fn direct_small_stakes_do_not_trigger() {
        let mut db = Database::new();
        db.add("foreign", &["F".into()]);
        db.add("strategic", &["S".into()]);
        db.add("own", &["F".into(), "S".into(), 0.05.into()]);
        let out = ChaseSession::new(&program()).run(db).unwrap();
        assert!(out.facts_of(GOAL).is_empty());
    }

    #[test]
    fn domestic_acquirers_are_ignored() {
        let mut db = Database::new();
        db.add("strategic", &["S".into()]);
        db.add("own", &["Domestic".into(), "S".into(), 0.4.into()]);
        let out = ChaseSession::new(&program()).run(db).unwrap();
        assert!(out.facts_of(GOAL).is_empty());
    }

    #[test]
    fn structural_analysis_finds_control_as_second_critical_node() {
        let a = analyze(&program(), GOAL).unwrap();
        // control feeds two distinct consumers (g3, g5): out-degree > 1,
        // so it is critical alongside the leaf.
        assert!(a.critical.contains(&Symbol::new("golden_power")));
        assert!(a.critical.contains(&Symbol::new("control")));
        assert!(a.simple_paths().count() >= 4);
        assert!(a.cycles().count() >= 1);
    }

    #[test]
    fn explanation_covers_the_joint_stake_story() {
        let artifacts = ProgramArtifacts::builder(program(), GOAL)
            .with_glossary(&glossary())
            .build_cached()
            .unwrap();
        let out = ChaseSession::new(&program()).run(scenario()).unwrap();
        let (id, _) = out
            .facts_of(GOAL)
            .into_iter()
            .find(|(_, f)| f.values[0] == "OffshoreCo".into())
            .unwrap();
        let e = Explainer::for_snapshot(artifacts, out)
            .explain_id(id)
            .unwrap();
        for needle in [
            "OffshoreCo",
            "GridCo",
            "12%",
            "6%",
            "strategic",
            "golden-power",
        ] {
            assert!(e.text.contains(needle), "missing {needle}: {}", e.text);
        }
        assert!(!e.text.contains('<'), "{}", e.text);
    }
}

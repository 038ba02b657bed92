//! The representative scenario of Sec. 5 (Figures 12 and 13): a synthetic
//! cluster of financial institutions with ownership stakes, capitals and
//! two-channel debt exposures, on which both the company-control and the
//! stress-test applications run.

use vadalog::Database;

/// Entity names of the scenario.
pub const ENTITIES: [&str; 6] = ["A", "B", "C", "D", "E", "F"];

/// Builds the extensional knowledge of the representative scenario.
///
/// The cluster reproduces the narrative of Sec. 5:
/// * the control side: `B` controls `D` through its majority stake in `E`
///   (reasoning path Π2 = {σ1, σ3});
/// * the stress side: a 15M shock on `A` (capital 5M) cascades through
///   `B` (7M long-term debt from `A`, capital 4M), `C` (9M short-term debt
///   from `B`, capital 8M) and finally `F` (2M long-term from `C` plus 8M
///   short-term from `B`, capital 9M).
pub fn database() -> Database {
    let mut db = Database::new();
    for e in ENTITIES {
        db.add("company", &[e.into()]);
    }
    // Capitals (millions of euros).
    for (e, c) in [("A", 5), ("B", 4), ("C", 8), ("D", 6), ("E", 7), ("F", 9)] {
        db.add("has_capital", &[e.into(), i64::from(c).into()]);
    }
    // Ownership stakes.
    db.add("own", &["B".into(), "E".into(), 0.6.into()]);
    db.add("own", &["E".into(), "D".into(), 0.55.into()]);
    db.add("own", &["A".into(), "C".into(), 0.3.into()]);
    db.add("own", &["F".into(), "A".into(), 0.15.into()]);
    // The simulated shock.
    db.add("shock", &["A".into(), 15i64.into()]);
    // Debt exposures (creditor holds debtor's paper): debtor, creditor, amount.
    db.add("long_term_debts", &["A".into(), "B".into(), 7i64.into()]);
    db.add("short_term_debts", &["B".into(), "C".into(), 9i64.into()]);
    db.add("long_term_debts", &["C".into(), "F".into(), 2i64.into()]);
    db.add("short_term_debts", &["B".into(), "F".into(), 8i64.into()]);
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{control, stress};
    use explain::{Explainer, ProgramArtifacts};
    use vadalog::{ChaseSession, Fact};

    #[test]
    fn control_side_derives_b_controls_d() {
        let out = ChaseSession::new(&control::program())
            .run(database())
            .unwrap();
        assert!(out
            .database
            .contains(&Fact::new("control", vec!["B".into(), "E".into()])));
        assert!(out
            .database
            .contains(&Fact::new("control", vec!["B".into(), "D".into()])));
        // A's 30% stake does not control C.
        assert!(!out
            .database
            .contains(&Fact::new("control", vec!["A".into(), "C".into()])));
    }

    #[test]
    fn q_e_control_b_d_uses_pi2() {
        // Sec. 5: "the corresponding reasoning path followed — that in
        // this scenario is Π2".
        let artifacts = ProgramArtifacts::builder(control::program(), control::GOAL)
            .with_glossary(&control::glossary())
            .build_cached()
            .unwrap();
        let out = ChaseSession::new(&control::program())
            .run(database())
            .unwrap();
        let e = Explainer::for_snapshot(artifacts, out)
            .explain(&Fact::new("control", vec!["B".into(), "D".into()]))
            .unwrap();
        assert_eq!(e.paths, vec!["{o1,o3}".to_string()]);
        for needle in ["60%", "55%", "B", "E", "D"] {
            assert!(e.text.contains(needle), "missing {needle}: {}", e.text);
        }
    }

    #[test]
    fn stress_side_cascades_to_f() {
        let out = ChaseSession::new(&stress::program())
            .run(database())
            .unwrap();
        for e in ["A", "B", "C", "F"] {
            assert!(
                out.database.contains(&Fact::new("default", vec![e.into()])),
                "{e} should default"
            );
        }
        // D and E are not exposed: no default.
        for e in ["D", "E"] {
            assert!(!out.database.contains(&Fact::new("default", vec![e.into()])));
        }
    }

    #[test]
    fn q_e_default_f_mentions_both_channels() {
        let artifacts = ProgramArtifacts::builder(stress::program(), stress::GOAL)
            .with_glossary(&stress::glossary())
            .build_cached()
            .unwrap();
        let out = ChaseSession::new(&stress::program())
            .run(database())
            .unwrap();
        let e = Explainer::for_snapshot(artifacts, out)
            .explain(&Fact::new("default", vec!["F".into()]))
            .unwrap();
        // The Sec. 5 narrative: shock 15M, capitals 5/4/8/9, exposures
        // 7 long, 9 short, 2 long + 8 short on F.
        for needle in [
            "15M euros",
            "5M euros",
            "7M euros",
            "4M euros",
            "9M euros",
            "8M euros",
            "2M euros",
        ] {
            assert!(e.text.contains(needle), "missing {needle}: {}", e.text);
        }
        assert!(!e.text.contains('<'), "unsubstituted token: {}", e.text);
    }
}

//! Scenario builders and the explanation rendering shared by the finkg
//! integration suites, each of which includes this module with `mod
//! common;`.

use explain::Explanation;
use vadalog::Database;

/// One line carrying every byte an explanation exposes: the fact, the
/// text, the path labels, the chase-step count and the support facts.
pub fn rendered_line(e: &Explanation) -> String {
    let support: Vec<String> = e.support.iter().map(|f| f.to_string()).collect();
    format!(
        "{} || {} || {:?} || steps={} || {:?}",
        e.fact, e.text, e.paths, e.chase_steps, support
    )
}

/// The golden power scenario: a foreign holding reaches the strategic
/// `GridCo` through two 6% stakes of companies it controls.
pub fn golden_power_scenario() -> Database {
    let mut db = Database::new();
    for c in ["OffshoreCo", "HoldCo", "SubA", "SubB", "GridCo"] {
        db.add("company", &[c.into()]);
    }
    db.add("foreign", &["OffshoreCo".into()]);
    db.add("strategic", &["GridCo".into()]);
    db.add("own", &["OffshoreCo".into(), "HoldCo".into(), 0.7.into()]);
    db.add("own", &["HoldCo".into(), "SubA".into(), 0.9.into()]);
    db.add("own", &["HoldCo".into(), "SubB".into(), 0.6.into()]);
    db.add("own", &["SubA".into(), "GridCo".into(), 0.06.into()]);
    db.add("own", &["SubB".into(), "GridCo".into(), 0.06.into()]);
    db
}

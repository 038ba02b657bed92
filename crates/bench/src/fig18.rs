//! Fig. 18: running times of template-based explanation generation as the
//! inference length grows (Sec. 6.4): time to select, parse and combine
//! templates for one explanation query.

use crate::fig17::App;
use explain::{Explainer, ProgramArtifacts};
use finkg::apps::{control, stress};
use stats::Boxplot;
use std::time::Instant;
use vadalog::ChaseSession;

/// One measured point: explanation latency distribution at one proof
/// length.
#[derive(Clone, Debug)]
pub struct LatencyPoint {
    /// Proof length in chase steps.
    pub steps: usize,
    /// Boxplot of per-query latencies, in microseconds.
    pub boxplot_us: Boxplot,
}

/// The paper's x-axes (Fig. 18a: 1..21; Fig. 18b: 1..22).
pub fn paper_steps(app: App) -> Vec<usize> {
    match app {
        App::CompanyControl => vec![1, 3, 5, 7, 9, 11, 13, 16, 18, 21],
        App::StressTest => vec![1, 4, 7, 10, 13, 16, 19, 22],
    }
}

/// Runs the latency sweep: `proofs_per_len` distinct proofs per length
/// (paper: 15), explanation generation timed per query (artifacts and chase
/// are built once per length, as in a deployed KG application).
pub fn run(app: App, steps: &[usize], proofs_per_len: usize, seed: u64) -> Vec<LatencyPoint> {
    let (program, glossary) = match app {
        App::CompanyControl => (control::program(), control::glossary()),
        App::StressTest => (stress::program(), stress::glossary()),
    };

    let mut out = Vec::new();
    for &len in steps {
        let bundle = match app {
            App::CompanyControl => finkg::control_bundle(len, proofs_per_len, seed + len as u64),
            App::StressTest => finkg::stress_bundle(len, proofs_per_len, seed + len as u64),
        };
        let goal = bundle.targets[0].predicate.as_str();
        let artifacts = ProgramArtifacts::builder(program.clone(), goal)
            .with_glossary(&glossary)
            .build_cached()
            .expect("artifacts build");
        let outcome = ChaseSession::new(&program)
            .run(bundle.database.clone())
            .expect("chase succeeds");
        let explainer = Explainer::for_snapshot(artifacts, outcome);

        let mut times_us = Vec::with_capacity(proofs_per_len);
        for target in &bundle.targets {
            let id = explainer.outcome().lookup(target).expect("target derived");
            // Warm-up query (index construction etc.), then the timed one.
            let _ = explainer.explain_id(id);
            let t0 = Instant::now();
            let e = explainer.explain_id(id).expect("explainable");
            let dt = t0.elapsed();
            assert_eq!(e.chase_steps, len);
            times_us.push(dt.as_secs_f64() * 1e6);
        }
        out.push(LatencyPoint {
            steps: len,
            boxplot_us: Boxplot::of(&times_us).expect("non-empty"),
        });
    }
    out
}

/// Table rows of one sweep.
pub fn rows(points: &[LatencyPoint]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|p| {
            vec![
                p.steps.to_string(),
                format!("{:.1}", p.boxplot_us.min),
                format!("{:.1}", p.boxplot_us.q1),
                format!("{:.1}", p.boxplot_us.median),
                format!("{:.1}", p.boxplot_us.q3),
                format!("{:.1}", p.boxplot_us.max),
                format!("{:.1}", p.boxplot_us.mean),
            ]
        })
        .collect()
}

/// Column headers of the latency tables.
pub const HEADERS: [&str; 7] = [
    "Chase Steps",
    "min µs",
    "q1 µs",
    "median µs",
    "q3 µs",
    "max µs",
    "mean µs",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_grows_with_proof_length() {
        let points = run(App::CompanyControl, &[1, 13], 5, 9);
        let t1 = points[0].boxplot_us.median;
        let t13 = points[1].boxplot_us.median;
        assert!(t13 > t1, "median {t13} vs {t1}");
    }

    #[test]
    fn latencies_stay_interactive() {
        // The paper's worst case is ~3s on a laptop; ours must stay well
        // below a second per query.
        for app in [App::CompanyControl, App::StressTest] {
            let points = run(app, &[9], 5, 4);
            assert!(points[0].boxplot_us.max < 1e6, "{app:?}");
        }
    }
}

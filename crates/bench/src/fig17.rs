//! Fig. 17: relative proportion of missing information in the output of
//! the (simulated) LLM asked to paraphrase/summarize deterministic proofs
//! of increasing length — and the template-based approach's zero-omission
//! counterpoint (Sec. 6.3).

use explain::{Explainer, ProgramArtifacts, TemplateFlavor};
use finkg::apps::{control, stress};
use llm_sim::{omission_ratio, Prompt, SimulatedLlm};
use stats::Boxplot;
use studies::proof_constants;
use vadalog::ChaseSession;

/// Which application the sweep runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum App {
    /// Company control (Fig. 17a; chase steps 3..21).
    CompanyControl,
    /// Two-channel stress test (Fig. 17b; chase steps 1..9).
    StressTest,
}

impl App {
    /// The paper's x-axis for this application.
    pub fn paper_steps(self) -> Vec<usize> {
        match self {
            App::CompanyControl => vec![3, 6, 9, 12, 15, 18, 21],
            App::StressTest => vec![1, 3, 5, 7, 9],
        }
    }
}

/// One measured point of the figure: the distribution of omission ratios
/// over `proofs` distinct proofs of one length.
#[derive(Clone, Debug)]
pub struct OmissionPoint {
    /// Proof length in chase steps.
    pub steps: usize,
    /// The LLM prompt.
    pub prompt: Prompt,
    /// Boxplot of the omission ratios.
    pub boxplot: Boxplot,
    /// Maximum omission ratio of the *template-based* explanations of the
    /// same proofs (the paper's guarantee: always 0).
    pub template_max_omission: f64,
}

/// Runs the sweep for one application.
pub fn run(app: App, steps: &[usize], proofs_per_len: usize, seed: u64) -> Vec<OmissionPoint> {
    let (program, goal_for, glossary) = match app {
        App::CompanyControl => (control::program(), None, control::glossary()),
        App::StressTest => (stress::program(), Some(()), stress::glossary()),
    };
    let _ = goal_for;

    let mut out = Vec::new();
    for &len in steps {
        let bundle = match app {
            App::CompanyControl => finkg::control_bundle(len, proofs_per_len, seed + len as u64),
            App::StressTest => finkg::stress_bundle(len, proofs_per_len, seed + len as u64),
        };
        // For even stress lengths the target is a risk fact; the artifacts'
        // goal must match the target predicate.
        let goal = bundle.targets[0].predicate.as_str();
        let artifacts = ProgramArtifacts::builder(program.clone(), goal)
            .with_glossary(&glossary)
            .build_cached()
            .expect("artifacts build");
        let outcome = ChaseSession::new(&program)
            .run(bundle.database.clone())
            .expect("chase succeeds");
        let explainer = Explainer::for_snapshot(artifacts, outcome);
        let deterministic = explainer.clone().with_flavor(TemplateFlavor::Deterministic);
        let outcome = explainer.outcome();

        let mut ratios_para = Vec::with_capacity(proofs_per_len);
        let mut ratios_summ = Vec::with_capacity(proofs_per_len);
        let mut template_max: f64 = 0.0;
        for (i, target) in bundle.targets.iter().enumerate() {
            let id = outcome.lookup(target).expect("target derived");
            let det = deterministic.explain_id(id).expect("explainable").text;
            let constants = proof_constants(outcome, id, &glossary);

            let para = SimulatedLlm::new(Prompt::Paraphrase, seed).rewrite(&det, i as u64);
            let summ = SimulatedLlm::new(Prompt::Summarize, seed).rewrite(&det, i as u64);
            ratios_para.push(omission_ratio(&para, &constants));
            ratios_summ.push(omission_ratio(&summ, &constants));

            let template = explainer.explain_id(id).expect("explainable").text;
            template_max = template_max.max(omission_ratio(&template, &constants));
        }
        out.push(OmissionPoint {
            steps: len,
            prompt: Prompt::Paraphrase,
            boxplot: Boxplot::of(&ratios_para).expect("non-empty"),
            template_max_omission: template_max,
        });
        out.push(OmissionPoint {
            steps: len,
            prompt: Prompt::Summarize,
            boxplot: Boxplot::of(&ratios_summ).expect("non-empty"),
            template_max_omission: template_max,
        });
    }
    out
}

/// Table rows for one prompt's series.
pub fn rows(points: &[OmissionPoint], prompt: Prompt) -> Vec<Vec<String>> {
    points
        .iter()
        .filter(|p| p.prompt == prompt)
        .map(|p| {
            vec![
                p.steps.to_string(),
                format!("{:.3}", p.boxplot.min),
                format!("{:.3}", p.boxplot.q1),
                format!("{:.3}", p.boxplot.median),
                format!("{:.3}", p.boxplot.q3),
                format!("{:.3}", p.boxplot.max),
                format!("{:.3}", p.boxplot.mean),
                format!("{:.3}", p.template_max_omission),
            ]
        })
        .collect()
}

/// Column headers of the omission tables.
pub const HEADERS: [&str; 8] = [
    "Chase Steps",
    "min",
    "q1",
    "median",
    "q3",
    "max",
    "mean",
    "templates",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_never_omit() {
        for app in [App::CompanyControl, App::StressTest] {
            let steps = match app {
                App::CompanyControl => vec![3, 9],
                App::StressTest => vec![1, 5],
            };
            for p in run(app, &steps, 3, 7) {
                assert_eq!(
                    p.template_max_omission, 0.0,
                    "{app:?}@{}: template omitted",
                    p.steps
                );
            }
        }
    }

    #[test]
    fn omissions_grow_with_proof_length() {
        let points = run(App::CompanyControl, &[3, 18], 6, 3);
        let mean_at = |steps: usize, prompt: Prompt| {
            points
                .iter()
                .find(|p| p.steps == steps && p.prompt == prompt)
                .unwrap()
                .boxplot
                .mean
        };
        assert!(mean_at(18, Prompt::Summarize) > mean_at(3, Prompt::Summarize));
        assert!(mean_at(18, Prompt::Summarize) >= mean_at(18, Prompt::Paraphrase));
    }
}

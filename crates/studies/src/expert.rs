//! The expert user study (Sec. 6.2, Fig. 15/16), simulated.
//!
//! Fourteen simulated central-bank experts grade, on a 5-point Likert
//! scale, three explanation texts per scenario: the GPT paraphrase and
//! GPT summary of the deterministic verbalization (both produced by the
//! simulated LLM) and the template-based explanation. Texts are graded on
//! measured features — completeness of the conveyed constants, conciseness
//! w.r.t. the deterministic baseline and phrasing variety — plus
//! per-expert bias and per-judgement noise, so the reported means are a
//! property of the texts the three methods actually produce.

use crate::cases::{expert_cases, Case};
use crate::util::{proof_constants, sentences};
use llm_sim::{retained_ratio, Prompt, SimulatedLlm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stats::{mean, std_dev, wilcoxon_signed_rank, WilcoxonResult};
use std::collections::HashSet;

/// The three graded methodologies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Method {
    /// GPT paraphrase of the deterministic explanation.
    Paraphrase,
    /// GPT summary of the deterministic explanation.
    Summary,
    /// The template-based approach.
    Templates,
}

/// All methods, in the paper's column order.
pub const METHODS: [Method; 3] = [Method::Paraphrase, Method::Summary, Method::Templates];

impl Method {
    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Method::Paraphrase => "Paraphrasis",
            Method::Summary => "Summary",
            Method::Templates => "Templates",
        }
    }
}

/// Configuration of the simulated study.
#[derive(Clone, Copy, Debug)]
pub struct ExpertConfig {
    /// Number of simulated experts (paper: 14).
    pub experts: usize,
    /// Std-dev of the per-expert leniency bias.
    pub expert_bias_sd: f64,
    /// Std-dev of the per-judgement noise.
    pub judgement_noise_sd: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExpertConfig {
    fn default() -> ExpertConfig {
        ExpertConfig {
            experts: 14,
            expert_bias_sd: 0.5,
            judgement_noise_sd: 0.75,
            seed: 42,
        }
    }
}

/// Study outcome: all Likert grades plus the pairwise Wilcoxon tests.
#[derive(Clone, Debug)]
pub struct ExpertOutcome {
    /// Grades per method, one entry per (expert, scenario) pair, aligned
    /// across methods for the paired tests.
    pub grades: Vec<(Method, Vec<f64>)>,
    /// Pairwise Wilcoxon signed-rank tests.
    pub tests: Vec<(Method, Method, WilcoxonResult)>,
}

impl ExpertOutcome {
    /// Grades of one method.
    pub fn of(&self, method: Method) -> &[f64] {
        &self
            .grades
            .iter()
            .find(|(m, _)| *m == method)
            .expect("all methods graded")
            .1
    }

    /// Mean Likert value of one method (Fig. 16 row 1).
    pub fn mean_of(&self, method: Method) -> f64 {
        mean(self.of(method)).expect("non-empty")
    }

    /// Std deviation of one method (Fig. 16 row 2).
    pub fn std_of(&self, method: Method) -> f64 {
        std_dev(self.of(method)).expect("non-degenerate")
    }

    /// The Wilcoxon p-value of a method pair.
    pub fn p_value(&self, a: Method, b: Method) -> f64 {
        self.tests
            .iter()
            .find(|(x, y, _)| (*x == a && *y == b) || (*x == b && *y == a))
            .expect("pair tested")
            .2
            .p_value
    }
}

/// Runs the simulated study on the paper's four scenarios.
pub fn run(config: &ExpertConfig) -> ExpertOutcome {
    run_on(&expert_cases(), config)
}

/// Runs the simulated study on the given scenarios.
pub fn run_on(cases: &[Case], config: &ExpertConfig) -> ExpertOutcome {
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Prepare the three texts + grading features per scenario.
    let mut items: Vec<Vec<GradedText>> = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let det = case.deterministic_text();
        let constants = proof_constants(case.explainer.outcome(), case.target, &case.glossary);
        let paraphrase =
            SimulatedLlm::new(Prompt::Paraphrase, config.seed ^ 0xA).rewrite(&det, i as u64);
        let summary =
            SimulatedLlm::new(Prompt::Summarize, config.seed ^ 0xB).rewrite(&det, i as u64);
        let template = case.template_text();
        items.push(
            [
                (Method::Paraphrase, paraphrase),
                (Method::Summary, summary),
                (Method::Templates, template),
            ]
            .into_iter()
            .map(|(m, text)| GradedText {
                method: m,
                features: features(&text, &det, &constants),
            })
            .collect(),
        );
    }

    let mut grades: Vec<(Method, Vec<f64>)> = METHODS.iter().map(|&m| (m, Vec::new())).collect();

    for _ in 0..config.experts {
        let bias = normal(&mut rng) * config.expert_bias_sd;
        for scenario in &items {
            for gt in scenario {
                let noise = normal(&mut rng) * config.judgement_noise_sd;
                let grade = likert(gt.features.score() + bias + noise);
                grades
                    .iter_mut()
                    .find(|(m, _)| *m == gt.method)
                    .expect("method present")
                    .1
                    .push(grade);
            }
        }
    }

    let mut tests = Vec::new();
    #[allow(clippy::needless_range_loop)]
    for i in 0..METHODS.len() {
        for j in i + 1..METHODS.len() {
            let a = &grades.iter().find(|(m, _)| *m == METHODS[i]).unwrap().1;
            let b = &grades.iter().find(|(m, _)| *m == METHODS[j]).unwrap().1;
            if let Ok(t) = wilcoxon_signed_rank(a, b) {
                tests.push((METHODS[i], METHODS[j], t));
            }
        }
    }

    ExpertOutcome { grades, tests }
}

struct GradedText {
    method: Method,
    features: Features,
}

/// Measured quality features of an explanation text.
#[derive(Clone, Copy, Debug)]
pub struct Features {
    /// Fraction of proof constants conveyed.
    pub completeness: f64,
    /// 1 - (length / deterministic length), clamped to [0, 1].
    pub conciseness: f64,
    /// Distinct sentence openers over sentences.
    pub variety: f64,
    /// Distinct words over words (type-token ratio).
    pub diversity: f64,
}

impl Features {
    /// The latent quality score feeding the Likert grade.
    pub fn score(&self) -> f64 {
        1.0 + 2.0 * self.completeness
            + 0.5 * self.conciseness
            + 0.5 * self.variety
            + 0.8 * self.diversity
    }
}

/// Computes the grading features of `text`.
pub fn features(text: &str, deterministic: &str, constants: &[String]) -> Features {
    let completeness = retained_ratio(text, constants);
    let conciseness = (1.0 - text.len() as f64 / deterministic.len().max(1) as f64).clamp(0.0, 1.0);
    let sents = sentences(text);
    let openers: HashSet<String> = sents
        .iter()
        .map(|s| s.split_whitespace().take(2).collect::<Vec<_>>().join(" "))
        .collect();
    let variety = if sents.is_empty() {
        0.0
    } else {
        (openers.len() as f64 / sents.len() as f64).min(1.0)
    };
    let words: Vec<&str> = text.split_whitespace().collect();
    let distinct: HashSet<&str> = words.iter().copied().collect();
    let diversity = if words.is_empty() {
        0.0
    } else {
        distinct.len() as f64 / words.len() as f64
    };
    Features {
        completeness,
        conciseness,
        variety,
        diversity,
    }
}

/// Clamps and rounds a latent score to the 1..5 Likert scale.
fn likert(score: f64) -> f64 {
    score.round().clamp(1.0, 5.0)
}

/// Standard normal via Box–Muller.
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn methods_are_statistically_indistinguishable() {
        let out = run(&ExpertConfig::default());
        // 14 experts x 4 scenarios = 56 grades per method, as in the paper.
        assert_eq!(out.of(Method::Templates).len(), 56);
        // Means in a plausible Likert band.
        for m in METHODS {
            let mu = out.mean_of(m);
            assert!((2.8..=4.6).contains(&mu), "{m:?} mean {mu}");
        }
        // The headline result: no significant pairwise difference.
        let p1 = out.p_value(Method::Paraphrase, Method::Templates);
        let p2 = out.p_value(Method::Summary, Method::Templates);
        assert!(p1 > 0.05, "paraphrase vs templates p = {p1}");
        assert!(p2 > 0.05, "summary vs templates p = {p2}");
    }

    #[test]
    fn templates_have_smallest_variance() {
        // Fig. 16: templates σ = 0.94 vs 1.09 / 1.25 — the deterministic
        // method is the most consistent.
        let out = run(&ExpertConfig::default());
        let s_t = out.std_of(Method::Templates);
        let s_s = out.std_of(Method::Summary);
        assert!(s_t <= s_s + 0.15, "templates {s_t} vs summary {s_s}");
    }

    #[test]
    fn study_is_deterministic_per_seed() {
        let a = run(&ExpertConfig::default());
        let b = run(&ExpertConfig::default());
        assert_eq!(a.of(Method::Summary), b.of(Method::Summary));
    }

    #[test]
    fn features_score_monotone_in_completeness() {
        let base = Features {
            completeness: 0.5,
            conciseness: 0.5,
            variety: 0.5,
            diversity: 0.5,
        };
        let better = Features {
            completeness: 1.0,
            ..base
        };
        assert!(better.score() > base.score());
    }

    #[test]
    fn likert_clamps_to_scale() {
        assert_eq!(likert(9.3), 5.0);
        assert_eq!(likert(-2.0), 1.0);
        assert_eq!(likert(3.4), 3.0);
    }
}

#[cfg(test)]
mod grader_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// All grades stay on the 1..5 Likert scale for any configuration.
        #[test]
        fn grades_stay_on_scale(
            seed in 0u64..200,
            bias in 0.0f64..2.0,
            noise in 0.0f64..2.0,
        ) {
            let out = run(&ExpertConfig {
                experts: 4,
                expert_bias_sd: bias,
                judgement_noise_sd: noise,
                seed,
            });
            for m in METHODS {
                for &g in out.of(m) {
                    prop_assert!((1.0..=5.0).contains(&g));
                    prop_assert_eq!(g, g.round());
                }
            }
        }

        /// The latent score is monotone in every feature.
        #[test]
        fn score_is_monotone(
            c in 0.0f64..1.0,
            conc in 0.0f64..1.0,
            v in 0.0f64..1.0,
            d in 0.0f64..1.0,
            bump in 0.01f64..0.5,
        ) {
            let base = Features {
                completeness: c * 0.5,
                conciseness: conc * 0.5,
                variety: v * 0.5,
                diversity: d * 0.5,
            };
            for better in [
                Features { completeness: base.completeness + bump, ..base },
                Features { conciseness: base.conciseness + bump, ..base },
                Features { variety: base.variety + bump, ..base },
                Features { diversity: base.diversity + bump, ..base },
            ] {
                prop_assert!(better.score() > base.score());
            }
        }
    }
}

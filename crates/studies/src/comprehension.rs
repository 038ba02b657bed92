//! The comprehension user study (Sec. 6.1, Fig. 14), simulated.
//!
//! Each of 24 simulated non-expert users reads the template-based textual
//! explanation of five cases and must pick the matching KG visualization
//! among three candidates: the faithful proof graph and two distractors
//! carrying one error archetype each (Sec. 6.1's archetypes I–IV).
//!
//! The user model is a *careful but imperfect reader*: it cross-checks
//! every numeric annotation and every edge of a candidate against the
//! sentences of the explanation, overlooking each individual mismatch with
//! a per-user slip probability. The reported table is therefore a measured
//! property of the explanations the pipeline actually produced — if the
//! pipeline dropped constants or scrambled a chain, accuracy would
//! collapse.

use crate::cases::{comprehension_cases, Case};
use crate::util::sentences;
use finkg::{inject_error, ErrorArchetype, VizGraph, ALL_ARCHETYPES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Configuration of the simulated study.
#[derive(Clone, Copy, Debug)]
pub struct ComprehensionConfig {
    /// Number of simulated participants (paper: 24).
    pub users: usize,
    /// Probability that a user overlooks one individual mismatch.
    pub slip_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ComprehensionConfig {
    fn default() -> ComprehensionConfig {
        ComprehensionConfig {
            users: 24,
            slip_probability: 0.12,
            seed: 2025,
        }
    }
}

/// Per-case results of the study.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Case description.
    pub name: &'static str,
    /// Number of correct answers.
    pub correct: usize,
    /// Number of answers.
    pub total: usize,
    /// Wrong answers per error archetype of the chosen distractor.
    pub errors: HashMap<ErrorArchetype, usize>,
}

impl CaseResult {
    /// Correct-answer rate.
    pub fn accuracy(&self) -> f64 {
        self.correct as f64 / self.total as f64
    }
}

/// The full study outcome (Fig. 14).
#[derive(Clone, Debug)]
pub struct ComprehensionOutcome {
    /// One row per case.
    pub cases: Vec<CaseResult>,
}

impl ComprehensionOutcome {
    /// Overall accuracy across all answers.
    pub fn overall_accuracy(&self) -> f64 {
        let correct: usize = self.cases.iter().map(|c| c.correct).sum();
        let total: usize = self.cases.iter().map(|c| c.total).sum();
        correct as f64 / total as f64
    }
}

/// Runs the simulated study on the paper's five cases.
pub fn run(config: &ComprehensionConfig) -> ComprehensionOutcome {
    run_on(&comprehension_cases(), config)
}

/// Runs the simulated study on the given cases.
pub fn run_on(cases: &[Case], config: &ComprehensionConfig) -> ComprehensionOutcome {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut results = Vec::with_capacity(cases.len());

    for case in cases {
        let text = case.template_text();
        let correct_graph = VizGraph::from_proof(case.explainer.outcome(), case.target);

        // Two distractors with distinct archetypes, as in the paper. The
        // study designer verifies each distractor is genuinely wrong w.r.t.
        // the text (detectable by a perfectly careful reader), retrying
        // the random injection otherwise.
        let sents_of_text = sentences(&text);
        let mut distractors: Vec<(ErrorArchetype, VizGraph)> = Vec::new();
        let mut archetype_pool: Vec<ErrorArchetype> = ALL_ARCHETYPES.to_vec();
        while distractors.len() < 2 && !archetype_pool.is_empty() {
            let idx = rng.random_range(0..archetype_pool.len());
            let archetype = archetype_pool.remove(idx);
            for _attempt in 0..20 {
                let Some(bad) = inject_error(&correct_graph, archetype, &mut rng) else {
                    break;
                };
                if !bad.same_structure(&correct_graph) && mismatches(&sents_of_text, &bad) > 0 {
                    distractors.push((archetype, bad));
                    break;
                }
            }
        }
        assert_eq!(
            distractors.len(),
            2,
            "{}: distractors unavailable",
            case.name
        );

        let mut correct = 0usize;
        let mut errors: HashMap<ErrorArchetype, usize> = HashMap::new();
        for _ in 0..config.users {
            // Candidate order shuffled per user: candidates 0..3 with
            // index of the faithful graph.
            let mut candidates: Vec<(Option<ErrorArchetype>, &VizGraph)> =
                vec![(None, &correct_graph)];
            for (a, g) in &distractors {
                candidates.push((Some(*a), g));
            }
            // Fisher-Yates.
            for i in (1..candidates.len()).rev() {
                let j = rng.random_range(0..=i);
                candidates.swap(i, j);
            }

            let choice = pick_candidate(&text, &candidates, config.slip_probability, &mut rng);
            match candidates[choice].0 {
                None => correct += 1,
                Some(archetype) => *errors.entry(archetype).or_insert(0) += 1,
            }
        }

        results.push(CaseResult {
            name: case.name,
            correct,
            total: config.users,
            errors,
        });
    }

    ComprehensionOutcome { cases: results }
}

/// The reader model: per candidate, count perceived mismatches (each real
/// mismatch is overlooked with `slip`); pick the candidate with the fewest
/// perceived mismatches, breaking ties randomly.
fn pick_candidate(
    text: &str,
    candidates: &[(Option<ErrorArchetype>, &VizGraph)],
    slip: f64,
    rng: &mut StdRng,
) -> usize {
    let sents = sentences(text);
    let mut best: Vec<usize> = Vec::new();
    let mut best_score = usize::MAX;
    for (i, (_, graph)) in candidates.iter().enumerate() {
        let real = mismatches(&sents, graph);
        let mut perceived = 0usize;
        for _ in 0..real {
            if !rng.random_bool(slip) {
                perceived += 1;
            }
        }
        match perceived.cmp(&best_score) {
            std::cmp::Ordering::Less => {
                best_score = perceived;
                best = vec![i];
            }
            std::cmp::Ordering::Equal => best.push(i),
            std::cmp::Ordering::Greater => {}
        }
    }
    best[rng.random_range(0..best.len())]
}

/// Counts objective mismatches between an explanation and a candidate
/// graph:
///
/// * numeric annotations absent from the text;
/// * edges without a *witness sentence* mentioning source before target
///   together with the edge value;
/// * order inversions between aggregation contributors: two same-target
///   edges whose sources and values appear in one sentence but in
///   opposite orders (the reading that detects archetype III).
pub fn mismatches(sents: &[String], graph: &VizGraph) -> usize {
    let all_text = sents.join(" ");
    let mut count = 0usize;

    for v in graph.numeric_annotations() {
        if !contains_number(&all_text, v) {
            count += 1;
        }
    }

    for e in &graph.edges {
        let ok = sents.iter().any(|s| witnesses(s, e));
        if !ok {
            count += 1;
        }
    }

    // Contributor order: for same-target edge pairs co-mentioned in one
    // sentence, source order and value order must agree.
    for i in 0..graph.edges.len() {
        for j in i + 1..graph.edges.len() {
            let (a, b) = (&graph.edges[i], &graph.edges[j]);
            if a.to != b.to || a.from == b.from {
                continue;
            }
            let (Some(va), Some(vb)) = (a.value, b.value) else {
                continue;
            };
            for s in sents {
                let (Some(pa), Some(pb)) = (s.find(&a.from), s.find(&b.from)) else {
                    continue;
                };
                let (Some(qa), Some(qb)) = (number_pos(s, va), number_pos(s, vb)) else {
                    continue;
                };
                if qa != qb && ((pa < pb) != (qa < qb)) {
                    count += 1;
                }
                break;
            }
        }
    }
    count
}

/// True iff sentence `s` states edge `e`. Valued edges (ownership stakes,
/// debts) are verbalized "source ... value ... target", so the source must
/// precede the target; derived edges (control, close links) only need
/// co-occurrence, since fluent sentences may mention the target first.
fn witnesses(s: &str, e: &finkg::VizEdge) -> bool {
    let (Some(pf), Some(pt)) = (s.find(&e.from), s.find(&e.to)) else {
        return false;
    };
    match e.value {
        Some(v) => (pf < pt || e.from == e.to) && contains_number(s, v),
        None => true,
    }
}

/// Position of the first textual form of number `v` in `s`.
fn number_pos(s: &str, v: f64) -> Option<usize> {
    for form in number_forms(v) {
        if let Some(p) = s.find(form.as_str()) {
            return Some(p);
        }
    }
    None
}

fn number_forms(v: f64) -> Vec<String> {
    let mut forms = vec![format!("{v}")];
    if v.fract() == 0.0 {
        forms.push(format!("{}", v as i64));
    }
    let pct = v * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        forms.push(format!("{}%", pct.round() as i64));
    }
    forms
}

/// True iff `text` mentions the number `v` in any of the formats the
/// verbalizer uses (plain, integral, percent).
fn contains_number(text: &str, v: f64) -> bool {
    number_forms(v).iter().any(|f| text.contains(f.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> ComprehensionConfig {
        ComprehensionConfig {
            users: 12,
            ..ComprehensionConfig::default()
        }
    }

    #[test]
    fn study_reaches_high_accuracy() {
        let out = run(&quick_config());
        assert_eq!(out.cases.len(), 5);
        let acc = out.overall_accuracy();
        assert!(acc >= 0.85, "overall accuracy {acc}");
    }

    #[test]
    fn study_is_deterministic_per_seed() {
        let a = run(&quick_config());
        let b = run(&quick_config());
        for (x, y) in a.cases.iter().zip(&b.cases) {
            assert_eq!(x.correct, y.correct);
        }
    }

    #[test]
    fn careless_users_do_worse() {
        let careful = run(&quick_config());
        let careless = run(&ComprehensionConfig {
            slip_probability: 0.95,
            ..quick_config()
        });
        assert!(careless.overall_accuracy() < careful.overall_accuracy());
        // Near-blind users approach chance level (1/3).
        assert!(careless.overall_accuracy() < 0.7);
    }

    #[test]
    fn faithful_graph_has_no_mismatches() {
        for case in comprehension_cases() {
            let text = case.template_text();
            let graph = VizGraph::from_proof(case.explainer.outcome(), case.target);
            let m = mismatches(&sentences(&text), &graph);
            assert_eq!(m, 0, "{}: {} mismatches\n{}", case.name, m, text);
        }
    }

    #[test]
    fn distractors_have_mismatches() {
        let case = crate::cases::simple_stress_case();
        let text = case.template_text();
        let graph = VizGraph::from_proof(case.explainer.outcome(), case.target);
        let mut rng = StdRng::seed_from_u64(9);
        for archetype in ALL_ARCHETYPES {
            if let Some(bad) = inject_error(&graph, archetype, &mut rng) {
                let m = mismatches(&sentences(&text), &bad);
                assert!(m > 0, "{archetype:?} undetectable");
            }
        }
    }
}

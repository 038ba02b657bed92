//! Why-not explanations: negative provenance for facts the reasoning task
//! did *not* derive.
//!
//! The paper's provenance line of work also covers non-answers (Lee et
//! al., "Provenance Summaries for Answers and Non-Answers", cited in
//! Sec. 2). This module adds the counterpart to the explanation query: for
//! a ground goal atom absent from the chase outcome, each rule that could
//! have derived it is analysed under the head unification, reporting the
//! first body atom with no supporting facts or the condition that failed —
//! verbalized through the same domain glossary.

use crate::glossary::DomainGlossary;
use crate::verbalizer::{atom_segments, cmp_words, RawSeg};
use vadalog::query::select;
use vadalog::{Atom, Bindings, ChaseOutcome, Condition, Fact, Program, RuleId, Term};

/// Why one candidate rule failed to derive the fact.
#[derive(Clone, Debug, PartialEq)]
pub enum FailureReason {
    /// A body atom has no matching facts (under the head bindings and any
    /// partial join with earlier atoms).
    UnmatchedAtom {
        /// Index of the atom in the rule's positive body.
        atom_index: usize,
        /// The verbalized atom requirement.
        requirement: String,
    },
    /// The body fully matches but a comparison condition fails for every
    /// match.
    FailedCondition {
        /// The verbalized condition, with the closest observed values.
        requirement: String,
    },
    /// The head does not unify with the requested fact (e.g. repeated
    /// head variables with different constants).
    HeadMismatch,
}

/// The analysis of one candidate rule.
#[derive(Clone, Debug)]
pub struct RuleFailure {
    /// The candidate rule.
    pub rule: RuleId,
    /// The rule's label.
    pub label: String,
    /// Why it did not fire for this fact.
    pub reason: FailureReason,
}

/// A why-not answer.
#[derive(Clone, Debug)]
pub struct WhyNot {
    /// The absent fact.
    pub fact: Fact,
    /// One failure analysis per rule that could derive the predicate.
    pub failures: Vec<RuleFailure>,
    /// A natural-language rendering of the analysis.
    pub text: String,
}

/// Analyses why `fact` was not derived by `program` over the (closed)
/// outcome database. Returns `None` if the fact *is* present.
pub fn why_not(
    program: &Program,
    glossary: &DomainGlossary,
    outcome: &ChaseOutcome,
    fact: &Fact,
) -> Option<WhyNot> {
    if outcome.lookup(fact).is_some() {
        return None;
    }
    let mut db = outcome.database.clone();
    let candidates = program.rules_deriving(fact.predicate);
    let mut failures = Vec::new();
    for rule_id in candidates {
        let rule = program.rule(rule_id);
        let reason = analyse_rule(program, glossary, &mut db, rule_id, fact);
        failures.push(RuleFailure {
            rule: rule_id,
            label: rule.label.clone(),
            reason,
        });
    }

    let mut text = format!("{} was not derived.", render_atom_for(fact, glossary));
    if failures.is_empty() {
        text.push_str(" No rule derives this predicate.");
    }
    for f in &failures {
        match &f.reason {
            FailureReason::UnmatchedAtom { requirement, .. } => {
                text.push_str(&format!(
                    " Rule {} would need {}, but no such fact exists.",
                    f.label, requirement
                ));
            }
            FailureReason::FailedCondition { requirement } => {
                text.push_str(&format!(
                    " Rule {} matches, but the condition fails: {}.",
                    f.label, requirement
                ));
            }
            FailureReason::HeadMismatch => {
                text.push_str(&format!(
                    " Rule {} cannot produce this combination of constants.",
                    f.label
                ));
            }
        }
    }

    Some(WhyNot {
        fact: fact.clone(),
        failures,
        text,
    })
}

/// Analyses a single candidate rule.
fn analyse_rule(
    program: &Program,
    glossary: &DomainGlossary,
    db: &mut vadalog::Database,
    rule_id: RuleId,
    fact: &Fact,
) -> FailureReason {
    let rule = program.rule(rule_id);
    let head = rule.head.atom().expect("deriving rule has a head");

    // Unify the head with the fact: head variables take the fact's values.
    let mut head_bindings = Bindings::new();
    for (term, value) in head.terms.iter().zip(&fact.values) {
        match term {
            Term::Const(c) => {
                if !c.eq_values(value) {
                    return FailureReason::HeadMismatch;
                }
            }
            Term::Var(v) => {
                // Skip binding the aggregate result: its value emerges
                // from the aggregation, not from the body join.
                if rule.aggregate.as_ref().is_some_and(|a| a.result == *v) {
                    continue;
                }
                if let Some(prev) = head_bindings.get(v) {
                    if !prev.eq_values(value) {
                        return FailureReason::HeadMismatch;
                    }
                } else {
                    head_bindings.insert(*v, *value);
                }
            }
        }
    }

    // Substitute the head bindings into the body atoms and grow the join
    // atom by atom; the first atom with zero matches is the blocker.
    let body: Vec<Atom> = rule
        .positive_body()
        .map(|a| substitute(a, &head_bindings))
        .collect();
    for upto in 1..=body.len() {
        let rows = select(db, &body[..upto], &[]).unwrap_or_default();
        if rows.is_empty() {
            let original = &body[upto - 1];
            return FailureReason::UnmatchedAtom {
                atom_index: upto - 1,
                requirement: render_atom(original, glossary),
            };
        }
    }

    // Full body matches: a condition must be the blocker (otherwise the
    // fact would exist, possibly with a different aggregate value).
    let requirement = rule
        .conditions
        .first()
        .map(render_condition)
        .unwrap_or_else(|| "an internal condition".to_owned());
    FailureReason::FailedCondition { requirement }
}

fn substitute(atom: &Atom, bindings: &Bindings) -> Atom {
    Atom {
        predicate: atom.predicate,
        terms: atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => bindings.get(v).map(|val| Term::Const(*val)).unwrap_or(*t),
                c => *c,
            })
            .collect(),
    }
}

fn render_atom(atom: &Atom, glossary: &DomainGlossary) -> String {
    atom_segments(atom, glossary)
        .into_iter()
        .map(|s| match s {
            RawSeg::Text(t) => t,
            RawSeg::Var(v) => format!("some <{}>", v),
        })
        .collect()
}

fn render_atom_for(fact: &Fact, glossary: &DomainGlossary) -> String {
    let atom = Atom {
        predicate: fact.predicate,
        terms: fact.values.iter().map(|v| Term::Const(*v)).collect(),
    };
    render_atom(&atom, glossary)
}

fn render_condition(c: &Condition) -> String {
    format!("{} {} {}", c.left, cmp_words(c.op), c.right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog::{parse_program, ChaseSession, Database};

    fn setup() -> (Program, DomainGlossary, ChaseOutcome) {
        let parsed = parse_program(
            r#"
            o1: own(x, y, s), s > 0.5 -> control(x, y).
            o2: company(x) -> control(x, x).
            o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).

            own("A", "B", 0.4).
            own("B", "C", 0.9).
        "#,
        )
        .unwrap();
        let glossary = crate::glossary::DomainGlossary::parse(
            "own(x, y, s:percent): <x> owns <s> shares of <y>\n\
             control(x, y): <x> exercises control over <y>\n\
             company(x): <x> is a business corporation\n",
        )
        .unwrap();
        let db: Database = parsed.facts.clone().into_iter().collect();
        let outcome = ChaseSession::new(&parsed.program).run(db).unwrap();
        (parsed.program, glossary, outcome)
    }

    #[test]
    fn derived_facts_have_no_why_not() {
        let (program, glossary, outcome) = setup();
        let fact = Fact::new("control", vec!["B".into(), "C".into()]);
        assert!(why_not(&program, &glossary, &outcome, &fact).is_none());
    }

    #[test]
    fn failing_condition_is_reported() {
        let (program, glossary, outcome) = setup();
        // A owns only 40% of B: o1's threshold fails.
        let fact = Fact::new("control", vec!["A".into(), "B".into()]);
        let wn = why_not(&program, &glossary, &outcome, &fact).unwrap();
        let o1 = wn.failures.iter().find(|f| f.label == "o1").unwrap();
        assert!(
            matches!(&o1.reason, FailureReason::FailedCondition { requirement } if requirement.contains("higher than")),
            "{:?}",
            o1.reason
        );
        assert!(wn.text.contains("o1"), "{}", wn.text);
    }

    #[test]
    fn missing_supporting_fact_is_reported() {
        let (program, glossary, outcome) = setup();
        // Nothing links A to Z.
        let fact = Fact::new("control", vec!["A".into(), "Z".into()]);
        let wn = why_not(&program, &glossary, &outcome, &fact).unwrap();
        let o1 = wn.failures.iter().find(|f| f.label == "o1").unwrap();
        assert!(
            matches!(&o1.reason, FailureReason::UnmatchedAtom { requirement, .. } if requirement.contains('Z')),
            "{:?}",
            o1.reason
        );
        assert!(wn.text.contains("no such fact exists"), "{}", wn.text);
    }

    #[test]
    fn head_mismatch_is_reported() {
        let (program, glossary, outcome) = setup();
        // o2 derives control(x, x): control(A, B) cannot unify with it.
        let fact = Fact::new("control", vec!["A".into(), "B".into()]);
        let wn = why_not(&program, &glossary, &outcome, &fact).unwrap();
        let o2 = wn.failures.iter().find(|f| f.label == "o2").unwrap();
        // company("A") is absent, so either the head mismatch (x=A vs x=B)
        // or the missing company fact blocks o2; the head mismatch comes
        // first.
        assert_eq!(o2.reason, FailureReason::HeadMismatch);
    }

    #[test]
    fn unknown_predicate_reports_no_deriving_rule() {
        let (program, glossary, outcome) = setup();
        let fact = Fact::new("control", vec!["A".into(), "B".into(), 0.5.into()]);
        // Arity mismatch: no rule head unifies -> all candidates fail with
        // HeadMismatch (the zip stops early) or no rules at all; the text
        // is still produced.
        let wn = why_not(&program, &glossary, &outcome, &fact).unwrap();
        assert!(!wn.text.is_empty());
    }

    #[test]
    fn aggregate_threshold_failure_mentions_the_sum() {
        let (program, glossary, outcome) = setup();
        // control(B, ...) exists but B's only stake chain toward A fails.
        let fact = Fact::new("control", vec!["B".into(), "A".into()]);
        let wn = why_not(&program, &glossary, &outcome, &fact).unwrap();
        let o3 = wn.failures.iter().find(|f| f.label == "o3").unwrap();
        // o3 needs own(z, "A", s): nothing owns A.
        assert!(matches!(o3.reason, FailureReason::UnmatchedAtom { .. }));
    }
}

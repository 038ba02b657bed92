//! Stratification of programs with negation.
//!
//! A program with negated body atoms is *stratifiable* when no recursion
//! passes through negation: predicates are assigned strata such that a
//! rule's head stratum is ≥ the stratum of every positive body predicate
//! and > the stratum of every negated body predicate. The chase then
//! evaluates strata bottom-up, so a negated atom is only checked once its
//! predicate's extension is complete (the classic perfect-model
//! semantics).

use crate::depgraph::DependencyGraph;
use crate::rule::Rule;
use crate::symbol::Symbol;
use std::collections::HashMap;

/// The stratification of a rule set: strata per predicate and per rule.
#[derive(Clone, Debug, Default)]
pub struct Stratification {
    /// Stratum of each predicate (extensional predicates sit at 0).
    pub predicate_stratum: HashMap<Symbol, usize>,
    /// Stratum of each rule (the stratum of its head predicate;
    /// constraints run at the top stratum).
    pub rule_stratum: Vec<usize>,
    /// Number of strata.
    pub strata: usize,
}

/// Computes the stratification, or `None` when recursion passes through
/// negation.
///
/// Walks the SCC condensation of the dependency graph D(Σ) in
/// topological order. A negated edge inside a component is recursion
/// through negation. Otherwise a component's stratum is the largest
/// number of negated edges along a path into it: the maximum, over its
/// incoming edges from other components, of the source's stratum plus one
/// for a negated edge. Predicates that only constraints read are no nodes
/// of D(Σ) and sit at stratum 0.
pub fn stratify(rules: &[Rule]) -> Option<Stratification> {
    let graph = DependencyGraph::of_rules(rules);
    let condensation = graph.condensation();
    let mut component_stratum = vec![0usize; condensation.len()];
    // Components come in reverse topological order: every edge points
    // into a component listed before its source's.
    for (c, members) in condensation.components().iter().enumerate().rev() {
        for &member in members {
            for edge in graph.incoming(member) {
                let from = condensation.component_of(edge.from).expect("edge endpoint");
                if from == c {
                    if edge.negated {
                        return None;
                    }
                } else {
                    let stratum = component_stratum[from] + usize::from(edge.negated);
                    component_stratum[c] = component_stratum[c].max(stratum);
                }
            }
        }
    }
    let mut predicate_stratum: HashMap<Symbol, usize> = graph
        .nodes()
        .iter()
        .map(|&p| {
            let c = condensation.component_of(p).expect("graph node");
            (p, component_stratum[c])
        })
        .collect();
    for rule in rules.iter().filter(|r| r.is_constraint()) {
        for literal in &rule.body {
            predicate_stratum.entry(literal.atom.predicate).or_insert(0);
        }
    }
    let top = predicate_stratum.values().copied().max().unwrap_or(0);
    let rule_stratum = rules
        .iter()
        .map(|r| match r.head.atom() {
            Some(h) => predicate_stratum[&h.predicate],
            // Constraints run last, when everything is derived.
            None => top,
        })
        .collect();
    Some(Stratification {
        predicate_stratum,
        rule_stratum,
        strata: top + 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn rules_of(text: &str) -> Vec<Rule> {
        parse_program(text).unwrap().program.rules().to_vec()
    }

    #[test]
    fn positive_program_is_single_stratum() {
        let rules = rules_of("r1: a(x) -> b(x). r2: b(x) -> c(x).");
        let s = stratify(&rules).unwrap();
        assert_eq!(s.strata, 1);
        assert_eq!(s.rule_stratum, vec![0, 0]);
    }

    #[test]
    fn negation_over_edb_is_stratum_one() {
        let rules = rules_of("r: node(x), not excluded(x) -> active(x).");
        let s = stratify(&rules).unwrap();
        assert_eq!(s.predicate_stratum[&Symbol::new("excluded")], 0);
        assert_eq!(s.predicate_stratum[&Symbol::new("active")], 1);
    }

    #[test]
    fn negation_over_idb_stacks_strata() {
        // reach is derived; unreachable = node \ reach; isolated uses
        // unreachable negatively again.
        let rules = rules_of(
            "r1: edge(x, y) -> reach(y).
             r2: reach(x), edge(x, y) -> reach(y).
             r3: node(x), not reach(x) -> unreachable(x).
             r4: node(x), not unreachable(x) -> connected(x).",
        );
        let s = stratify(&rules).unwrap();
        let st = |p: &str| s.predicate_stratum[&Symbol::new(p)];
        assert_eq!(st("reach"), 0);
        assert_eq!(st("unreachable"), 1);
        assert_eq!(st("connected"), 2);
        assert_eq!(s.strata, 3);
    }

    #[test]
    fn recursion_through_negation_is_rejected() {
        // p :- q, not p  (win/lose-style paradox). Built directly: the
        // validating Program constructor would already reject it.
        use crate::atom::Atom;
        use crate::rule::RuleBuilder;
        use crate::term::Term;
        let rules = vec![RuleBuilder::new("r")
            .body(Atom::new("q", vec![Term::var("x")]))
            .body_not(Atom::new("p", vec![Term::var("x")]))
            .head(Atom::new("p", vec![Term::var("x")]))];
        assert!(stratify(&rules).is_none());
    }

    #[test]
    fn mutual_negative_recursion_is_rejected() {
        use crate::atom::Atom;
        use crate::rule::RuleBuilder;
        use crate::term::Term;
        let rules = vec![
            RuleBuilder::new("r1")
                .body(Atom::new("e", vec![Term::var("x")]))
                .body_not(Atom::new("b", vec![Term::var("x")]))
                .head(Atom::new("a", vec![Term::var("x")])),
            RuleBuilder::new("r2")
                .body(Atom::new("e", vec![Term::var("x")]))
                .body_not(Atom::new("a", vec![Term::var("x")]))
                .head(Atom::new("b", vec![Term::var("x")])),
        ];
        assert!(stratify(&rules).is_none());
    }

    #[test]
    fn positive_recursion_stays_in_one_stratum() {
        let rules = rules_of(
            "o1: own(x, y, s), s > 0.5 -> control(x, y).
             o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).",
        );
        let s = stratify(&rules).unwrap();
        assert_eq!(s.strata, 1);
    }

    #[test]
    fn recursion_clique_takes_its_most_negated_input() {
        // p and q recurse positively; p reads n negated (stratum 1 + 1)
        // and q reads e2 negated (0 + 1): both sit at 2.
        let rules = rules_of(
            "r0: e(x) -> m(x).
             r1: e(x), not m(x) -> n(x).
             r2: p(x) -> q(x).
             r3: q(x) -> p(x).
             r4: e(x), not n(x) -> p(x).
             r5: e(x), not e2(x) -> q(x).",
        );
        let s = stratify(&rules).unwrap();
        let st = |p: &str| s.predicate_stratum[&Symbol::new(p)];
        assert_eq!((st("m"), st("n"), st("p"), st("q")), (0, 1, 2, 2));
        assert_eq!(s.rule_stratum, vec![0, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn predicates_only_constraints_read_sit_at_stratum_zero() {
        let rules = rules_of(
            "r: node(x), not blocked(x) -> open(x).
             c: audit(x), open(x) -> !.",
        );
        let s = stratify(&rules).unwrap();
        assert_eq!(s.predicate_stratum[&Symbol::new("audit")], 0);
        assert_eq!(s.predicate_stratum[&Symbol::new("open")], 1);
        assert_eq!(s.rule_stratum, vec![1, 1]);
    }

    #[test]
    fn constraints_run_at_the_top_stratum() {
        let rules = rules_of(
            "r1: node(x), not reach(x) -> unreachable(x).
             c: unreachable(x) -> !.",
        );
        let s = stratify(&rules).unwrap();
        assert_eq!(s.rule_stratum[1], s.strata - 1);
    }
}

//! The chase graph: fact-level provenance of a chase run.
//!
//! Nodes are facts; each *derivation* records which rule produced a fact
//! from which premises (Sec. 3, "Chase Procedure and Chase Graph"). A fact
//! may have several derivations (e.g. a default triggered by two distinct
//! risk facts); explanation extraction picks the richest one
//! ([`ChaseGraph::choose_derivation`]).

use crate::database::{table_growth, vec_growth, FactId};
use crate::row::{Row, Rows};
use crate::rule::RuleId;
use crate::value::Value;
use std::collections::{HashMap, HashSet};

/// Identifier of a derivation inside a [`ChaseGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DerivationId(pub u32);

/// One chase step: `rule` applied to `premises` concluded `conclusion`.
#[derive(Clone, Debug)]
pub struct Derivation {
    /// The applied rule.
    pub rule: RuleId,
    /// The premise facts (for aggregates: the union over all contributing
    /// matches, as in Fig. 8 where `Risk(C,11)` has three premises).
    pub premises: Vec<FactId>,
    /// The derived fact.
    pub conclusion: FactId,
    /// The chase round in which the step fired (1-based).
    pub round: u32,
    /// Number of contributing matches. 1 for non-aggregate rules; for
    /// aggregate rules, the number of body matches folded into the
    /// aggregate (the paper's single- vs multi-contributor distinction).
    pub contributors: u32,
    /// The substitution used to instantiate the head, as a row of the
    /// rule's head layout ([`RuleLayout::head`](crate::rule::RuleLayout::head)):
    /// the full match row for plain rules, the group key plus the
    /// aggregate result for aggregates.
    pub bindings: Row,
    /// For aggregate steps: the match row of each contributing match, in
    /// match order, as one block. Empty for non-aggregate steps.
    pub contributor_bindings: Rows,
}

impl Derivation {
    /// Builds a derivation without bindings (tests, hand-built graphs).
    pub fn bare(rule: RuleId, premises: Vec<FactId>, conclusion: FactId, round: u32) -> Derivation {
        Derivation {
            rule,
            premises,
            conclusion,
            round,
            contributors: 1,
            bindings: Row::empty(),
            contributor_bindings: Rows::empty(),
        }
    }
}

/// The chase graph of a run.
#[derive(Clone, Debug, Default)]
pub struct ChaseGraph {
    derivations: Vec<Derivation>,
    by_conclusion: HashMap<FactId, Vec<DerivationId>>,
    /// Facts present before the chase started.
    extensional: HashSet<FactId>,
    /// Running approximation of the graph's heap footprint, maintained in
    /// O(1) per recorded derivation and extensional mark (see
    /// [`ChaseGraph::approx_bytes`]).
    approx_bytes: usize,
}

impl ChaseGraph {
    /// An empty graph.
    pub fn new() -> ChaseGraph {
        ChaseGraph::default()
    }

    /// Marks a fact as extensional (pre-chase).
    pub fn mark_extensional(&mut self, fact: FactId) {
        let marked = self.extensional.len();
        if self.extensional.insert(fact) {
            self.approx_bytes += table_growth::<FactId>(marked);
        }
    }

    /// Withdraws a fact's extensional status; returns whether it was
    /// marked. Used by delta retraction: a retracted EDB fact loses its
    /// axiomatic support, and survives only if some derivation still
    /// concludes it.
    pub fn unmark_extensional(&mut self, fact: FactId) -> bool {
        self.extensional.remove(&fact)
    }

    /// Builds the downstream-derivation index: for every fact id below
    /// `num_facts`, the derivations that *use* it as a premise, in
    /// recording order. This is the inverse of the premise links
    /// explanations walk, and is what DRed-style retraction traverses to
    /// find the over-deletion cone. Dense by construction — the graph's
    /// premise ids are store ids — so a plain vector beats hashing.
    pub fn by_premise(&self, num_facts: usize) -> Vec<Vec<DerivationId>> {
        let mut index: Vec<Vec<DerivationId>> = vec![Vec::new(); num_facts];
        for (i, der) in self.derivations.iter().enumerate() {
            let id = DerivationId(i as u32);
            for &premise in &der.premises {
                let slot = &mut index[premise.0 as usize];
                // Premise vectors may repeat a fact; index each use once.
                if slot.last() != Some(&id) {
                    slot.push(id);
                }
            }
        }
        index
    }

    /// Records a derivation.
    pub fn record(&mut self, derivation: Derivation) -> DerivationId {
        let id = DerivationId(u32::try_from(self.derivations.len()).expect("derivation overflow"));
        let conclusions = self.by_conclusion.len();
        let ids = self.by_conclusion.entry(derivation.conclusion).or_default();
        ids.push(id);
        let mut bytes = vec_growth::<DerivationId>(ids.len() - 1);
        if self.by_conclusion.len() > conclusions {
            bytes += table_growth::<(FactId, Vec<DerivationId>)>(conclusions);
        }
        // The derivation's slot, its premises and its rows. Deterministic:
        // a function of the recorded sequence only.
        self.approx_bytes += bytes
            + vec_growth::<Derivation>(self.derivations.len())
            + derivation.premises.len() * std::mem::size_of::<FactId>()
            + (derivation.bindings.len() + derivation.contributor_bindings.values().len())
                * std::mem::size_of::<Value>();
        self.derivations.push(derivation);
        id
    }

    /// The derivation with the given id.
    pub fn derivation(&self, id: DerivationId) -> &Derivation {
        &self.derivations[id.0 as usize]
    }

    /// All derivations, in recording order.
    pub fn derivations(&self) -> &[Derivation] {
        &self.derivations
    }

    /// Derivations concluding `fact`.
    pub fn derivations_of(&self, fact: FactId) -> &[DerivationId] {
        self.by_conclusion.get(&fact).map_or(&[], Vec::as_slice)
    }

    /// True iff `fact` was present before the chase.
    pub fn is_extensional(&self, fact: FactId) -> bool {
        self.extensional.contains(&fact)
    }

    /// True iff `fact` was derived by at least one chase step.
    pub fn is_derived(&self, fact: FactId) -> bool {
        self.by_conclusion.contains_key(&fact)
    }

    /// Approximate heap footprint of the graph, in bytes: what the
    /// derivation vector, each derivation's premises and binding rows,
    /// the by-conclusion index and the extensional set request from the
    /// allocator, counted like [`Database::approx_bytes`](crate::database::Database::approx_bytes).
    /// Maintained in O(1) per record; polled (together with
    /// [`Database::approx_bytes`](crate::database::Database::approx_bytes))
    /// by the engine's memory budget.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// The derivation of `fact` that explanations use: the one with the
    /// most aggregation contributors, tie-broken by earliest round then
    /// earliest id. For aggregates this selects the fullest contributor
    /// set (matching the explanations shown in the paper); among
    /// equally-contributing derivations it keeps the chase-order one.
    pub fn choose_derivation(&self, fact: FactId) -> Option<DerivationId> {
        self.derivations_of(fact).iter().copied().max_by_key(|&d| {
            let der = self.derivation(d);
            (
                der.contributors,
                std::cmp::Reverse(der.round),
                std::cmp::Reverse(d.0),
            )
        })
    }

    /// Extracts the proof tree of `fact`, choosing each derivation with
    /// [`ChaseGraph::choose_derivation`].
    ///
    /// The chase graph is acyclic by construction (premises always precede
    /// conclusions), so recursion terminates; a visited set guards against
    /// pathological graphs built by hand.
    pub fn proof(&self, fact: FactId) -> ProofTree {
        let mut on_path = HashSet::new();
        self.proof_rec(fact, &mut on_path)
    }

    fn proof_rec(&self, fact: FactId, on_path: &mut HashSet<FactId>) -> ProofTree {
        if !on_path.insert(fact) {
            // Cycle guard: treat the repeated fact as a leaf premise.
            return ProofTree {
                fact,
                step: None,
                children: Vec::new(),
            };
        }
        let tree = match self.choose_derivation(fact) {
            None => ProofTree {
                fact,
                step: None,
                children: Vec::new(),
            },
            Some(did) => {
                let children = self
                    .derivation(did)
                    .premises
                    .iter()
                    .map(|&p| self.proof_rec(p, on_path))
                    .collect();
                ProofTree {
                    fact,
                    step: Some(did),
                    children,
                }
            }
        };
        on_path.remove(&fact);
        tree
    }
}

/// A proof tree for a fact: the fact, the derivation that concluded it (if
/// derived) and the proofs of its premises.
#[derive(Clone, Debug)]
pub struct ProofTree {
    /// The proved fact.
    pub fact: FactId,
    /// The chase step concluding it; `None` for extensional leaves.
    pub step: Option<DerivationId>,
    /// Proofs of the premises (empty for leaves).
    pub children: Vec<ProofTree>,
}

/// One element of a linearized proof: a chase step along the spine.
#[derive(Clone, Copy, Debug)]
pub struct ChaseStep {
    /// The applied rule.
    pub rule: RuleId,
    /// The derivation carrying premises/conclusion.
    pub derivation: DerivationId,
    /// Number of contributing matches (see [`Derivation::contributors`]).
    pub contributors: u32,
}

impl ProofTree {
    /// Total number of chase steps in the proof (distinct derivations).
    pub fn steps(&self) -> usize {
        let mut seen = HashSet::new();
        self.collect_steps(&mut seen);
        seen.len()
    }

    fn collect_steps(&self, seen: &mut HashSet<DerivationId>) {
        if let Some(d) = self.step {
            seen.insert(d);
        }
        for c in &self.children {
            c.collect_steps(seen);
        }
    }

    /// All facts appearing in the proof (premises and conclusions).
    pub fn facts(&self) -> Vec<FactId> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        self.collect_facts(&mut seen, &mut out);
        out
    }

    fn collect_facts(&self, seen: &mut HashSet<FactId>, out: &mut Vec<FactId>) {
        if seen.insert(self.fact) {
            out.push(self.fact);
        }
        for c in &self.children {
            c.collect_facts(seen, out);
        }
    }

    /// Depth of the derivation spine: the longest root-to-leaf chain of
    /// chase steps.
    pub fn depth(&self) -> usize {
        let child_depth = self
            .children
            .iter()
            .map(ProofTree::depth)
            .max()
            .unwrap_or(0);
        child_depth + usize::from(self.step.is_some())
    }

    /// Linearizes the proof into the chase-step sequence τ of Sec. 4.3:
    /// the ordered rules along the source-to-leaf *spine*, choosing at each
    /// aggregate the deepest intensional contributor (side contributions
    /// are folded into their step's premises, as in the paper's
    /// τ = {α, β, γ, β, γ} for `Default(C)` in Fig. 8).
    pub fn linearize(&self, graph: &ChaseGraph) -> Vec<ChaseStep> {
        let mut spine = Vec::new();
        self.linearize_into(graph, &mut spine);
        spine
    }

    /// Appends this subtree's spine to `out` and returns its length,
    /// which is the subtree's [`depth`](Self::depth). Each derived child
    /// appends its own spine in turn; only the deepest is kept, the last
    /// one on a tie, so every depth is computed once.
    fn linearize_into(&self, graph: &ChaseGraph, out: &mut Vec<ChaseStep>) -> usize {
        let Some(did) = self.step else {
            return 0;
        };
        let start = out.len();
        let mut kept = 0;
        for child in self.children.iter().filter(|c| c.step.is_some()) {
            let len = child.linearize_into(graph, out);
            if len >= kept {
                out.drain(start..start + kept);
                kept = len;
            } else {
                out.truncate(start + kept);
            }
        }
        let der = graph.derivation(did);
        out.push(ChaseStep {
            rule: der.rule,
            derivation: did,
            contributors: der.contributors,
        });
        kept + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn der(
        rule: usize,
        premises: &[u32],
        conclusion: u32,
        round: u32,
        contributors: u32,
    ) -> Derivation {
        Derivation {
            contributors,
            ..Derivation::bare(
                RuleId(rule),
                premises.iter().map(|&p| FactId(p)).collect(),
                FactId(conclusion),
                round,
            )
        }
    }

    /// Builds the chase graph of Fig. 8 by hand:
    /// facts f0..f9, derivations for Default(A), Risk(B,7), Default(B),
    /// Risk(C,11), Default(C).
    fn figure_8() -> (ChaseGraph, FactId) {
        let mut g = ChaseGraph::new();
        // EDB: 0 shock(A,6), 1 hascap(A,5), 2 debts(A,B,7), 3 hascap(B,2),
        //      4 debts(B,C,2), 5 debts(B,C,9), 6 hascap(C,10)
        for i in 0..7 {
            g.mark_extensional(FactId(i));
        }
        // 7 default(A) <- alpha(0,1)
        g.record(der(0, &[0, 1], 7, 1, 1));
        // 8 risk(B,7) <- beta(7,2)
        g.record(der(1, &[7, 2], 8, 2, 1));
        // 9 default(B) <- gamma(8,3)
        g.record(der(2, &[8, 3], 9, 3, 1));
        // 10 risk(C,11) <- beta(9,4,5), two contributors
        g.record(der(1, &[9, 4, 5], 10, 4, 2));
        // 11 default(C) <- gamma(10,6)
        g.record(der(2, &[10, 6], 11, 5, 1));
        (g, FactId(11))
    }

    #[test]
    fn proof_counts_steps_and_facts() {
        let (g, target) = figure_8();
        let proof = g.proof(target);
        assert_eq!(proof.steps(), 5);
        assert_eq!(proof.facts().len(), 12);
        assert_eq!(proof.depth(), 5);
    }

    #[test]
    fn linearization_matches_paper_tau() {
        let (g, target) = figure_8();
        let proof = g.proof(target);
        let tau: Vec<usize> = proof.linearize(&g).iter().map(|s| s.rule.0).collect();
        // τ = {α, β, γ, β, γ} with α=0, β=1, γ=2.
        assert_eq!(tau, vec![0, 1, 2, 1, 2]);
    }

    #[test]
    fn linearization_follows_the_deepest_child_and_the_last_on_a_tie() {
        let mut g = ChaseGraph::new();
        for i in 0..3 {
            g.mark_extensional(FactId(i));
        }
        // 3 <- r0(0); 4 <- r1(1); 5 <- r2(3): fact 5 is one step deeper.
        let d3 = g.record(der(0, &[0], 3, 1, 1));
        let d4 = g.record(der(1, &[1], 4, 1, 1));
        let d5 = g.record(der(2, &[3], 5, 2, 1));
        // 6 <- r3(3, 4): a tie at depth 1, so the later premise 4 wins.
        let d6 = g.record(der(3, &[3, 2, 4], 6, 2, 1));
        // 7 <- r4(5, 4, 3): the deeper premise 5 wins over later ties.
        let d7 = g.record(der(4, &[5, 4, 3], 7, 3, 1));
        let spine = |fact: u32| -> Vec<DerivationId> {
            let proof = g.proof(FactId(fact));
            let steps = proof.linearize(&g);
            assert_eq!(steps.len(), proof.depth());
            steps.iter().map(|s| s.derivation).collect()
        };
        assert_eq!(spine(6), vec![d4, d6]);
        assert_eq!(spine(7), vec![d3, d5, d7]);
    }

    #[test]
    fn contributors_flow_into_steps() {
        let (g, target) = figure_8();
        let proof = g.proof(target);
        let steps = proof.linearize(&g);
        // The second beta step (risk(C,11)) has two contributors.
        assert_eq!(steps[3].contributors, 2);
        assert_eq!(steps[1].contributors, 1);
    }

    #[test]
    fn choose_derivation_prefers_more_contributors() {
        let mut g = ChaseGraph::new();
        g.mark_extensional(FactId(0));
        g.mark_extensional(FactId(1));
        // Fact 2 derived two ways: one contributor vs two, the richer
        // one recorded second.
        g.record(der(0, &[0], 2, 1, 1));
        g.record(der(1, &[0, 1], 2, 1, 2));
        let rich = g.choose_derivation(FactId(2)).unwrap();
        assert_eq!(g.derivation(rich).rule, RuleId(1));
    }

    #[test]
    fn extensional_fact_has_trivial_proof() {
        let (g, _) = figure_8();
        let proof = g.proof(FactId(3));
        assert_eq!(proof.steps(), 0);
        assert!(proof.step.is_none());
        assert!(g.is_extensional(FactId(3)));
        assert!(!g.is_derived(FactId(3)));
    }

    #[test]
    fn premise_index_inverts_the_premise_links() {
        let mut g = ChaseGraph::new();
        g.mark_extensional(FactId(0));
        g.mark_extensional(FactId(1));
        let d0 = g.record(der(0, &[0, 1], 2, 1, 2));
        let d1 = g.record(der(1, &[0, 0], 3, 1, 1)); // repeated premise
        let index = g.by_premise(4);
        assert_eq!(index[0], vec![d0, d1]);
        assert_eq!(index[1], vec![d0]);
        assert!(index[2].is_empty());
    }

    #[test]
    fn unmark_extensional_withdraws_the_mark() {
        let mut g = ChaseGraph::new();
        g.mark_extensional(FactId(0));
        assert!(g.unmark_extensional(FactId(0)));
        assert!(!g.is_extensional(FactId(0)));
        assert!(!g.unmark_extensional(FactId(0)));
    }
}

//! The dependency graph D(Σ) of a program.
//!
//! Nodes are predicates; for every rule with head `a` and body atom `a'`
//! — positive *or* negated — there is an edge `a' -> a` labelled by the
//! rule (Sec. 3 of the paper). Negated body atoms carry the `negated`
//! edge label: they are dependencies all the same (the head's truth
//! hinges on the negated predicate's fixpoint under stratified
//! negation), so the Def. 4.1 criticality measures and any relevance
//! analysis must see them. The graph drives the structural analysis of
//! the `explain` crate and the goal-directed relevance cones
//! ([`GoalCone`]) of the engine's pruned chase mode.

use crate::program::Program;
use crate::rule::{Rule, RuleId};
use crate::symbol::Symbol;
use std::collections::{HashMap, HashSet, VecDeque};

/// A rule-labelled edge `from -> to` of the dependency graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DepEdge {
    /// The body predicate.
    pub from: Symbol,
    /// The head predicate.
    pub to: Symbol,
    /// The rule inducing the edge.
    pub rule: RuleId,
    /// True iff the body occurrence is negated (`not from(...)`): the
    /// head still depends on `from` — its stratum must reach fixpoint
    /// first — so the edge participates in reachability, criticality and
    /// relevance cones like any positive edge.
    pub negated: bool,
}

/// The dependency graph of a program.
#[derive(Clone, Debug)]
pub struct DependencyGraph {
    nodes: Vec<Symbol>,
    edges: Vec<DepEdge>,
    outgoing: HashMap<Symbol, Vec<usize>>,
    incoming: HashMap<Symbol, Vec<usize>>,
    extensional: HashSet<Symbol>,
}

impl DependencyGraph {
    /// Builds the dependency graph of `program`.
    pub fn build(program: &Program) -> DependencyGraph {
        DependencyGraph::of_rules(program.rules())
    }

    /// The dependency graph of `rules`: a node is extensional iff no rule
    /// derives it.
    pub(crate) fn of_rules(rules: &[Rule]) -> DependencyGraph {
        let mut nodes: Vec<Symbol> = Vec::new();
        let mut seen = HashSet::new();
        let push_node = |nodes: &mut Vec<Symbol>, seen: &mut HashSet<Symbol>, s: Symbol| {
            if seen.insert(s) {
                nodes.push(s);
            }
        };

        let mut edges = Vec::new();
        for (i, rule) in rules.iter().enumerate() {
            let Some(head) = rule.head.atom() else {
                continue; // constraints do not contribute edges
            };
            push_node(&mut nodes, &mut seen, head.predicate);
            for literal in &rule.body {
                push_node(&mut nodes, &mut seen, literal.atom.predicate);
                edges.push(DepEdge {
                    from: literal.atom.predicate,
                    to: head.predicate,
                    rule: RuleId(i),
                    negated: literal.negated,
                });
            }
        }

        let mut outgoing: HashMap<Symbol, Vec<usize>> = HashMap::new();
        let mut incoming: HashMap<Symbol, Vec<usize>> = HashMap::new();
        for (i, e) in edges.iter().enumerate() {
            outgoing.entry(e.from).or_default().push(i);
            incoming.entry(e.to).or_default().push(i);
        }

        let derived: HashSet<Symbol> = rules
            .iter()
            .filter_map(|r| r.head.atom().map(|h| h.predicate))
            .collect();
        let extensional = nodes
            .iter()
            .copied()
            .filter(|p| !derived.contains(p))
            .collect();

        DependencyGraph {
            nodes,
            edges,
            outgoing,
            incoming,
            extensional,
        }
    }

    /// All predicate nodes, in first-occurrence order.
    pub fn nodes(&self) -> &[Symbol] {
        &self.nodes
    }

    /// All rule-labelled edges.
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Outgoing edges of `node`.
    pub fn outgoing(&self, node: Symbol) -> impl Iterator<Item = &DepEdge> {
        self.outgoing
            .get(&node)
            .into_iter()
            .flatten()
            .map(|&i| &self.edges[i])
    }

    /// Incoming edges of `node`.
    pub fn incoming(&self, node: Symbol) -> impl Iterator<Item = &DepEdge> {
        self.incoming
            .get(&node)
            .into_iter()
            .flatten()
            .map(|&i| &self.edges[i])
    }

    /// True iff `node` is extensional (never derived).
    pub fn is_extensional(&self, node: Symbol) -> bool {
        self.extensional.contains(&node)
    }

    /// Root nodes: the extensional predicates of the graph. They are
    /// never derived by a rule, so every dependency chain bottoms out in
    /// them — they are the sources from which all reachability starts.
    /// Returned in first-occurrence order.
    pub fn roots(&self) -> Vec<Symbol> {
        self.nodes
            .iter()
            .copied()
            .filter(|n| self.is_extensional(*n))
            .collect()
    }

    /// True iff the graph has a cycle (i.e. the program is recursive): a
    /// node with a self-edge, or a strongly connected component of two
    /// or more members.
    pub fn is_cyclic(&self) -> bool {
        self.edges.iter().any(|e| e.from == e.to)
            || self
                .condensation()
                .components()
                .iter()
                .any(|members| members.len() > 1)
    }

    /// True iff there is a (possibly empty) path from `from` to `to`.
    ///
    /// The path may be *empty*: `reaches(p, p)` is `true` for every `p`
    /// — even when `p` sits on no cycle and is not a node of the graph
    /// at all — mirroring the reflexive-transitive closure of the edge
    /// relation. A *non-empty* path means "`to` depends on `from`":
    /// some rule chain derives `to` from `from`, through positive and
    /// negated body occurrences alike.
    pub fn reaches(&self, from: Symbol, to: Symbol) -> bool {
        if from == to {
            return true;
        }
        let mut seen = HashSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            for e in self.outgoing(n) {
                if e.to == to {
                    return true;
                }
                stack.push(e.to);
            }
        }
        false
    }

    /// Number of distinct rules deriving `node` (rule-labelled in-degree,
    /// counting each rule once even if several of its body atoms point at
    /// `node`).
    pub fn deriving_rule_count(&self, node: Symbol) -> usize {
        let mut rules: Vec<RuleId> = self.incoming(node).map(|e| e.rule).collect();
        rules.sort_unstable();
        rules.dedup();
        rules.len()
    }

    /// Out-degree of `node` counting edges (the criticality measure of
    /// Def. 4.1; see DESIGN.md for the reading used). Negated body
    /// occurrences count: a predicate consumed under `not` by many rules
    /// is load-bearing for the program exactly like a positive support.
    pub fn out_degree(&self, node: Symbol) -> usize {
        self.outgoing.get(&node).map_or(0, Vec::len)
    }

    /// The strongly-connected-component condensation of the graph.
    ///
    /// Components are returned in reverse topological order (a component
    /// appears after every component it has an edge into — Tarjan's
    /// natural emission order), so recursion cliques collapse to single
    /// condensation nodes and any cone or stratification analysis over
    /// the condensation is a plain DAG walk.
    pub fn condensation(&self) -> Condensation {
        // Iterative Tarjan: an explicit stack of (node, next-edge-index)
        // frames so deep ownership chains cannot overflow the call stack.
        let index_of: HashMap<Symbol, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i))
            .collect();
        let n = self.nodes.len();
        let mut order = vec![usize::MAX; n]; // discovery order
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut components: Vec<Vec<Symbol>> = Vec::new();
        let mut component_of: HashMap<Symbol, usize> = HashMap::new();
        let mut counter = 0usize;

        for root in 0..n {
            if order[root] != usize::MAX {
                continue;
            }
            let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
            order[root] = counter;
            low[root] = counter;
            counter += 1;
            stack.push(root);
            on_stack[root] = true;
            while let Some(&mut (v, ref mut next)) = frames.last_mut() {
                let succ = self
                    .outgoing(self.nodes[v])
                    .nth(*next)
                    .map(|e| index_of[&e.to]);
                match succ {
                    Some(w) => {
                        *next += 1;
                        if order[w] == usize::MAX {
                            order[w] = counter;
                            low[w] = counter;
                            counter += 1;
                            stack.push(w);
                            on_stack[w] = true;
                            frames.push((w, 0));
                        } else if on_stack[w] {
                            low[v] = low[v].min(order[w]);
                        }
                    }
                    None => {
                        frames.pop();
                        if let Some(&(parent, _)) = frames.last() {
                            low[parent] = low[parent].min(low[v]);
                        }
                        if low[v] == order[v] {
                            let id = components.len();
                            let mut members = Vec::new();
                            loop {
                                let w = stack.pop().expect("tarjan stack underflow");
                                on_stack[w] = false;
                                component_of.insert(self.nodes[w], id);
                                members.push(self.nodes[w]);
                                if w == v {
                                    break;
                                }
                            }
                            members.reverse(); // discovery order within the SCC
                            components.push(members);
                        }
                    }
                }
            }
        }
        Condensation {
            components,
            component_of,
        }
    }
}

/// The strongly-connected-component condensation of a
/// [`DependencyGraph`]: every recursion clique of D(Σ) collapsed to one
/// node, leaving a DAG. Built by [`DependencyGraph::condensation`].
#[derive(Clone, Debug)]
pub struct Condensation {
    /// Member predicates per component, in reverse topological order.
    components: Vec<Vec<Symbol>>,
    component_of: HashMap<Symbol, usize>,
}

impl Condensation {
    /// The components, in reverse topological order (a component follows
    /// every component it points into).
    pub fn components(&self) -> &[Vec<Symbol>] {
        &self.components
    }

    /// The component id of `node`, or `None` when the predicate is not a
    /// node of the underlying graph.
    pub fn component_of(&self, node: Symbol) -> Option<usize> {
        self.component_of.get(&node).copied()
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True iff the underlying graph had no nodes.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

/// The goal-directed relevance cone of a program: the predicates and
/// rules that can contribute to deriving (or refuting, through stratified
/// negation) facts of one goal predicate.
///
/// A predicate is *relevant* iff it reaches the goal in D(Σ) through
/// positive **or** negated edges, closed over the SCC condensation so
/// every member of a recursion clique enters together. A rule is
/// relevant iff its head predicate is; since every body occurrence
/// (positive or negated) of a relevant rule has an edge into the head,
/// all of a retained rule's support — including the predicates it
/// negates — is itself in the cone, and the cone-restricted chase
/// computes exactly the full perfect model restricted to cone
/// predicates. Constraints (falsum heads) induce no edges and are never
/// in a cone: a pruned run is an *explanation* evaluation mode, not a
/// constraint-validation one.
#[derive(Clone, Debug)]
pub struct GoalCone {
    goal: Symbol,
    predicates: HashSet<Symbol>,
    /// `rules[i]` iff rule `i` of the program is retained.
    rules: Vec<bool>,
}

impl GoalCone {
    /// Computes the relevance cone of `goal` over `program`'s dependency
    /// graph.
    pub fn compute(program: &Program, goal: Symbol) -> GoalCone {
        GoalCone::from_graph(program, &DependencyGraph::build(program), goal)
    }

    /// Computes the cone from an already-built dependency graph.
    pub fn from_graph(program: &Program, graph: &DependencyGraph, goal: Symbol) -> GoalCone {
        let condensation = graph.condensation();
        let mut predicates = HashSet::new();
        predicates.insert(goal);
        if let Some(goal_comp) = condensation.component_of(goal) {
            // Predecessors per condensation node, from the edge list.
            let mut preds: Vec<HashSet<usize>> = vec![HashSet::new(); condensation.len()];
            for e in graph.edges() {
                let from = condensation.component_of(e.from).expect("edge endpoint");
                let to = condensation.component_of(e.to).expect("edge endpoint");
                if from != to {
                    preds[to].insert(from);
                }
            }
            // Backward BFS over the condensation DAG: everything that
            // reaches the goal's component is relevant.
            let mut seen = vec![false; condensation.len()];
            seen[goal_comp] = true;
            let mut queue = VecDeque::from([goal_comp]);
            while let Some(c) = queue.pop_front() {
                predicates.extend(condensation.components()[c].iter().copied());
                for &p in &preds[c] {
                    if !seen[p] {
                        seen[p] = true;
                        queue.push_back(p);
                    }
                }
            }
        }
        let rules = program
            .rules()
            .iter()
            .map(|rule| {
                rule.head
                    .atom()
                    .is_some_and(|head| predicates.contains(&head.predicate))
            })
            .collect();
        GoalCone {
            goal,
            predicates,
            rules,
        }
    }

    /// The goal predicate the cone was computed for.
    pub fn goal(&self) -> Symbol {
        self.goal
    }

    /// True iff `predicate` is in the cone.
    pub fn contains(&self, predicate: Symbol) -> bool {
        self.predicates.contains(&predicate)
    }

    /// True iff rule `rule` is retained by the cone.
    pub fn includes_rule(&self, rule: RuleId) -> bool {
        self.rules.get(rule.0).copied().unwrap_or(false)
    }

    /// Number of predicates in the cone (the goal included).
    pub fn predicate_count(&self) -> usize {
        self.predicates.len()
    }

    /// Number of rules the cone retains.
    pub fn retained_rule_count(&self) -> usize {
        self.rules.iter().filter(|&&r| r).count()
    }

    /// Number of rules the cone prunes away.
    pub fn pruned_rule_count(&self) -> usize {
        self.rules.len() - self.retained_rule_count()
    }

    /// True iff the cone retains every rule — pruning would be a no-op.
    pub fn is_total(&self) -> bool {
        self.rules.iter().all(|&r| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::expr::{CmpOp, Condition, Expr};
    use crate::rule::{AggFunc, RuleBuilder};
    use crate::term::Term;

    /// The simplified stress test of Example 4.3 (rules α, β, γ).
    fn example_4_3() -> Program {
        Program::new(vec![
            RuleBuilder::new("alpha")
                .body(Atom::new("shock", vec![Term::var("f"), Term::var("s")]))
                .body(Atom::new(
                    "has_capital",
                    vec![Term::var("f"), Term::var("p1")],
                ))
                .condition(Condition::new(Expr::var("s"), CmpOp::Gt, Expr::var("p1")))
                .head(Atom::new("default", vec![Term::var("f")])),
            RuleBuilder::new("beta")
                .body(Atom::new("default", vec![Term::var("d")]))
                .body(Atom::new(
                    "debts",
                    vec![Term::var("d"), Term::var("c"), Term::var("v")],
                ))
                .aggregate(AggFunc::Sum, "e", Expr::var("v"))
                .head(Atom::new("risk", vec![Term::var("c"), Term::var("e")])),
            RuleBuilder::new("gamma")
                .body(Atom::new(
                    "has_capital",
                    vec![Term::var("c"), Term::var("p2")],
                ))
                .body(Atom::new("risk", vec![Term::var("c"), Term::var("e")]))
                .condition(Condition::new(Expr::var("p2"), CmpOp::Lt, Expr::var("e")))
                .head(Atom::new("default", vec![Term::var("c")])),
        ])
        .unwrap()
    }

    #[test]
    fn figure_3_dependency_graph() {
        let g = DependencyGraph::build(&example_4_3());
        // Nodes: default, shock, has_capital, risk, debts.
        assert_eq!(g.nodes().len(), 5);
        // Edges: shock->default, has_capital->default (alpha),
        //        default->risk, debts->risk (beta),
        //        has_capital->default, risk->default (gamma).
        assert_eq!(g.edges().len(), 6);
        let roots = g.roots();
        assert!(roots.contains(&Symbol::new("shock")));
        assert!(roots.contains(&Symbol::new("has_capital")));
        assert!(roots.contains(&Symbol::new("debts")));
        assert!(!roots.contains(&Symbol::new("default")));
        assert!(g.is_cyclic());
    }

    #[test]
    fn deriving_rule_counts_match_example() {
        let g = DependencyGraph::build(&example_4_3());
        // default derived by alpha and gamma; risk by beta only.
        assert_eq!(g.deriving_rule_count(Symbol::new("default")), 2);
        assert_eq!(g.deriving_rule_count(Symbol::new("risk")), 1);
        assert_eq!(g.deriving_rule_count(Symbol::new("shock")), 0);
    }

    #[test]
    fn reachability_follows_edges() {
        let g = DependencyGraph::build(&example_4_3());
        assert!(g.reaches(Symbol::new("shock"), Symbol::new("risk")));
        assert!(g.reaches(Symbol::new("risk"), Symbol::new("default")));
        assert!(!g.reaches(Symbol::new("default"), Symbol::new("shock")));
        assert!(g.reaches(Symbol::new("default"), Symbol::new("default")));
    }

    #[test]
    fn acyclic_program_is_detected() {
        let p = Program::new(vec![RuleBuilder::new("r")
            .body(Atom::new("a", vec![Term::var("x")]))
            .head(Atom::new("b", vec![Term::var("x")]))])
        .unwrap();
        let g = DependencyGraph::build(&p);
        assert!(!g.is_cyclic());
        assert_eq!(g.out_degree(Symbol::new("a")), 1);
        assert_eq!(g.out_degree(Symbol::new("b")), 0);
    }

    /// The sanctions-screening shape: recursion plus stratified negation.
    ///
    /// ```text
    /// s1: own(x, y)                              -> exposure(x, y).
    /// s2: exposure(x, z), own(z, y)              -> exposure(x, y).
    /// s3: exposure(x, y), sanctioned(y)          -> flagged(x, y).
    /// s4: exposure(x, y), not sanctioned(x),
    ///     not sanctioned(y)                      -> clean_link(x, y).
    /// ```
    fn negation_program() -> Program {
        Program::new(vec![
            RuleBuilder::new("s1")
                .body(Atom::new("own", vec![Term::var("x"), Term::var("y")]))
                .head(Atom::new("exposure", vec![Term::var("x"), Term::var("y")])),
            RuleBuilder::new("s2")
                .body(Atom::new("exposure", vec![Term::var("x"), Term::var("z")]))
                .body(Atom::new("own", vec![Term::var("z"), Term::var("y")]))
                .head(Atom::new("exposure", vec![Term::var("x"), Term::var("y")])),
            RuleBuilder::new("s3")
                .body(Atom::new("exposure", vec![Term::var("x"), Term::var("y")]))
                .body(Atom::new("sanctioned", vec![Term::var("y")]))
                .head(Atom::new("flagged", vec![Term::var("x"), Term::var("y")])),
            RuleBuilder::new("s4")
                .body(Atom::new("exposure", vec![Term::var("x"), Term::var("y")]))
                .body_not(Atom::new("sanctioned", vec![Term::var("x")]))
                .body_not(Atom::new("sanctioned", vec![Term::var("y")]))
                .head(Atom::new(
                    "clean_link",
                    vec![Term::var("x"), Term::var("y")],
                )),
        ])
        .unwrap()
    }

    #[test]
    fn negated_body_atoms_contribute_nodes_and_labelled_edges() {
        let g = DependencyGraph::build(&negation_program());
        // Nodes: own, exposure, sanctioned, flagged, clean_link.
        assert_eq!(g.nodes().len(), 5);
        // Edges: own->exposure (s1), exposure->exposure + own->exposure
        // (s2), exposure->flagged + sanctioned->flagged (s3), and
        // exposure->clean_link plus TWO negated sanctioned->clean_link
        // occurrences (s4).
        assert_eq!(g.edges().len(), 8);
        let negated: Vec<&DepEdge> = g.edges().iter().filter(|e| e.negated).collect();
        assert_eq!(negated.len(), 2);
        assert!(negated
            .iter()
            .all(|e| e.from == Symbol::new("sanctioned") && e.to == Symbol::new("clean_link")));
        // The positive sanctioned occurrence of s3 keeps its solid edge.
        assert!(g
            .outgoing(Symbol::new("sanctioned"))
            .any(|e| !e.negated && e.to == Symbol::new("flagged")));
    }

    #[test]
    fn criticality_measures_see_negated_support() {
        let g = DependencyGraph::build(&negation_program());
        // sanctioned supports flagged positively and clean_link twice
        // under negation: out-degree 3, not the 1 the negation-blind
        // graph reported.
        assert_eq!(g.out_degree(Symbol::new("sanctioned")), 3);
        // clean_link is derived by s4 alone, even though s4 reaches it
        // through two negated occurrences and one positive one.
        assert_eq!(g.deriving_rule_count(Symbol::new("clean_link")), 1);
        // sanctioned is a root alongside own.
        let roots = g.roots();
        assert!(roots.contains(&Symbol::new("own")));
        assert!(roots.contains(&Symbol::new("sanctioned")));
    }

    #[test]
    fn reachability_crosses_negated_edges() {
        let g = DependencyGraph::build(&negation_program());
        assert!(g.reaches(Symbol::new("sanctioned"), Symbol::new("clean_link")));
        assert!(g.reaches(Symbol::new("own"), Symbol::new("clean_link")));
        assert!(!g.reaches(Symbol::new("flagged"), Symbol::new("clean_link")));
        // Reflexivity holds even for predicates absent from the graph.
        assert!(g.reaches(Symbol::new("unknown"), Symbol::new("unknown")));
    }

    #[test]
    fn condensation_collapses_the_recursion_clique() {
        let g = DependencyGraph::build(&example_4_3());
        let c = g.condensation();
        // default and risk are mutually recursive (beta/gamma); shock,
        // has_capital and debts are singletons.
        assert_eq!(c.len(), 4);
        let default_comp = c.component_of(Symbol::new("default")).unwrap();
        assert_eq!(c.component_of(Symbol::new("risk")), Some(default_comp));
        assert_eq!(c.components()[default_comp].len(), 2);
        assert_ne!(
            c.component_of(Symbol::new("shock")),
            c.component_of(Symbol::new("debts"))
        );
        assert_eq!(c.component_of(Symbol::new("unknown")), None);
        // Reverse topological order: every edge points from a later
        // component to an earlier one (or stays inside its clique).
        for e in g.edges() {
            let from = c.component_of(e.from).unwrap();
            let to = c.component_of(e.to).unwrap();
            assert!(from >= to, "{:?} -> {:?} breaks the order", e.from, e.to);
        }
    }

    #[test]
    fn goal_cone_follows_negated_edges_and_scc_closure() {
        let p = negation_program();

        // Goal `flagged`: exposure, own and sanctioned are relevant;
        // clean_link and its rule s4 are pruned.
        let flagged = GoalCone::compute(&p, Symbol::new("flagged"));
        for pred in ["flagged", "exposure", "own", "sanctioned"] {
            assert!(flagged.contains(Symbol::new(pred)), "missing {pred}");
        }
        assert!(!flagged.contains(Symbol::new("clean_link")));
        assert_eq!(flagged.retained_rule_count(), 3); // s1, s2, s3
        assert_eq!(flagged.pruned_rule_count(), 1); // s4
        assert!(!flagged.is_total());

        // Goal `clean_link`: the cone must keep `sanctioned` — it is
        // consumed only under negation, but the negation check needs its
        // fixpoint — while pruning the flagged rule s3.
        let clean = GoalCone::compute(&p, Symbol::new("clean_link"));
        assert!(clean.contains(Symbol::new("sanctioned")));
        assert!(clean.contains(Symbol::new("exposure")));
        assert!(!clean.contains(Symbol::new("flagged")));
        assert!(clean.includes_rule(RuleId(3)));
        assert!(!clean.includes_rule(RuleId(2)));
        assert_eq!(clean.pruned_rule_count(), 1);

        // Goal `exposure`: the recursion clique enters whole.
        let exposure = GoalCone::compute(&p, Symbol::new("exposure"));
        assert!(exposure.includes_rule(RuleId(0)) && exposure.includes_rule(RuleId(1)));
        assert_eq!(exposure.pruned_rule_count(), 2);
    }

    #[test]
    fn goal_cone_of_the_recursive_stress_program_is_total() {
        let p = example_4_3();
        let cone = GoalCone::compute(&p, Symbol::new("default"));
        // risk is in default's SCC, so every rule stays relevant.
        assert!(cone.is_total());
        assert_eq!(cone.predicate_count(), 5);
        assert_eq!(cone.goal(), Symbol::new("default"));
    }

    #[test]
    fn goal_cone_of_an_unknown_goal_retains_nothing() {
        let cone = GoalCone::compute(&example_4_3(), Symbol::new("nonexistent"));
        assert_eq!(cone.predicate_count(), 1);
        assert_eq!(cone.retained_rule_count(), 0);
        assert!(!cone.includes_rule(RuleId(0)));
        assert!(!cone.includes_rule(RuleId(99)));
    }
}

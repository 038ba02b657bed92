//! Structural analysis of the dependency graph (Sec. 4.1).
//!
//! The analysis pre-distills all database-independent "reasoning stories"
//! of a program: *simple reasoning paths* Π (root-to-critical derivation
//! subgraphs) and *reasoning cycles* Γ (critical-to-critical subgraphs),
//! each possibly in an additional "dashed" variant per aggregating rule
//! denoting the multi-contributor aggregation case (Sec. 4.1, "Analysis of
//! Aggregations").
//!
//! Reasoning paths are represented in the paper's compact rule notation: a
//! topologically ordered list of distinct rules. See `DESIGN.md` for the
//! exact reading of Def. 4.1/4.2 used here (validated against every worked
//! example of the paper, including Fig. 4, Fig. 5 and Fig. 10).

use crate::error::ExplainError;
use std::collections::{BTreeSet, HashMap, HashSet};
use vadalog::{DependencyGraph, Program, RuleId, Symbol};

/// Whether a reasoning path is a simple path or a cycle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PathKind {
    /// A simple reasoning path Π: from root rules to a critical node.
    Simple,
    /// A reasoning cycle Γ: from a critical node back to a critical node.
    Cycle,
}

/// How one positive body atom of a path rule is supplied.
#[derive(Clone, PartialEq, Debug)]
pub enum Supply {
    /// The atom is over an extensional predicate (database input).
    External,
    /// The atom is over the cycle's entry critical predicate, assumed
    /// already derived when the cycle applies.
    Entry,
    /// The atom is derived within the path by the given rules (indices
    /// into [`ReasoningPath::rules`]).
    Internal(Vec<usize>),
}

/// A reasoning path: a set of rules in application order, with aggregation
/// mode markings and the supply structure of every body atom.
#[derive(Clone, Debug)]
pub struct ReasoningPath {
    /// Simple path or cycle.
    pub kind: PathKind,
    /// The rules, in application (topological) order; the last rule
    /// derives the critical node the path conducts to.
    pub rules: Vec<RuleId>,
    /// Aggregating rules marked as multi-contributor ("dashed" in the
    /// paper's figures). Rules with aggregates not listed here are in
    /// single-contributor (solid) mode.
    pub dashed: BTreeSet<RuleId>,
    /// For cycles: the critical predicate assumed given at entry.
    pub entry: Option<Symbol>,
    /// `supply[i][a]` describes how the a-th positive body atom of
    /// `rules[i]` is supplied.
    pub supply: Vec<Vec<Supply>>,
}

impl ReasoningPath {
    /// The rule concluding the path (deriving the critical node).
    pub fn sink(&self) -> RuleId {
        *self.rules.last().expect("paths are non-empty")
    }

    /// Human-readable label, e.g. `"{o1,o3}"` or `"{o3}*"` for dashed.
    pub fn label(&self, program: &Program) -> String {
        let names: Vec<&str> = self
            .rules
            .iter()
            .map(|&r| program.rule(r).label.as_str())
            .collect();
        let star = if self.dashed.is_empty() { "" } else { "*" };
        format!("{{{}}}{}", names.join(","), star)
    }

    /// True iff `rule` is part of this path.
    pub fn contains(&self, rule: RuleId) -> bool {
        self.rules.contains(&rule)
    }

    /// True iff `rule` is in multi-contributor (dashed) mode here.
    pub fn is_dashed(&self, rule: RuleId) -> bool {
        self.dashed.contains(&rule)
    }
}

impl PartialEq for ReasoningPath {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
            && self.rules == other.rules
            && self.dashed == other.dashed
            && self.entry == other.entry
    }
}

/// Maximum number of rules per reasoning path.
const MAX_PATH_RULES: usize = 16;

/// Cap on the number of enumerated paths (dashed variants included); the
/// analysis fails with [`ExplainError::PathExplosion`] beyond it.
const MAX_PATHS: usize = 4096;

/// The result of the structural analysis of a program for a goal.
#[derive(Clone, Debug)]
pub struct StructuralAnalysis {
    /// The goal (leaf) predicate.
    pub goal: Symbol,
    /// The critical nodes (Def. 4.1), goal included.
    pub critical: Vec<Symbol>,
    /// All reasoning paths: simple paths first, then cycles; dashed
    /// variants follow their base path.
    pub paths: Vec<ReasoningPath>,
}

impl StructuralAnalysis {
    /// The simple reasoning paths.
    pub fn simple_paths(&self) -> impl Iterator<Item = &ReasoningPath> {
        self.paths.iter().filter(|p| p.kind == PathKind::Simple)
    }

    /// The reasoning cycles.
    pub fn cycles(&self) -> impl Iterator<Item = &ReasoningPath> {
        self.paths.iter().filter(|p| p.kind == PathKind::Cycle)
    }
}

/// Runs the structural analysis of `program` for `goal`.
pub fn analyze(program: &Program, goal: &str) -> Result<StructuralAnalysis, ExplainError> {
    let goal_sym = Symbol::new(goal);
    if !program.is_intensional(goal_sym) {
        return Err(ExplainError::UnknownGoal { goal: goal_sym });
    }
    let graph = DependencyGraph::build(program);

    // Def. 4.1 (see DESIGN.md): V critical iff intensional and (V is the
    // leaf or V has more than one outgoing rule-labelled edge). The
    // out-degree counts negated body occurrences too — D(Σ) carries one
    // edge per occurrence, `not` or not — so an intensional predicate
    // consumed under negation by several rules is critical exactly like
    // a positively shared one. Path enumeration below stays over the
    // positive bodies: a reasoning path narrates how facts are *derived*,
    // and negated atoms contribute no derivation step to narrate.
    let critical: Vec<Symbol> = graph
        .nodes()
        .iter()
        .copied()
        .filter(|&n| !graph.is_extensional(n) && (n == goal_sym || graph.out_degree(n) > 1))
        .collect();
    let critical_set: HashSet<Symbol> = critical.iter().copied().collect();

    let enumerator = Enumerator {
        program,
        critical: &critical_set,
    };

    let mut paths = enumerator.simple_paths()?;
    for &entry in &critical {
        paths.extend(enumerator.cycles(entry)?);
    }

    // Expand dashed variants.
    let mut expanded = Vec::new();
    for base in paths {
        expanded.extend(expand_variants(program, base));
        if expanded.len() > MAX_PATHS {
            return Err(ExplainError::PathExplosion { cap: MAX_PATHS });
        }
    }

    Ok(StructuralAnalysis {
        goal: goal_sym,
        critical,
        paths: expanded,
    })
}

struct Enumerator<'a> {
    program: &'a Program,
    critical: &'a HashSet<Symbol>,
}

impl Enumerator<'_> {
    /// Rule ids of non-constraint rules.
    fn derivation_rules(&self) -> Vec<RuleId> {
        self.program
            .rules()
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_constraint())
            .map(|(i, _)| RuleId(i))
            .collect()
    }

    /// Intensional positive body predicates of a rule.
    fn intensional_body(&self, rule: RuleId) -> Vec<Symbol> {
        self.program
            .rule(rule)
            .positive_body()
            .map(|a| a.predicate)
            .filter(|&p| self.program.is_intensional(p))
            .collect()
    }

    fn head_pred(&self, rule: RuleId) -> Symbol {
        self.program
            .rule(rule)
            .head
            .atom()
            .expect("derivation rule")
            .predicate
    }

    /// Enumerates all simple reasoning paths (base, undashed).
    fn simple_paths(&self) -> Result<Vec<ReasoningPath>, ExplainError> {
        self.enumerate(None)
    }

    /// Enumerates all reasoning cycles for the given entry critical node.
    fn cycles(&self, entry: Symbol) -> Result<Vec<ReasoningPath>, ExplainError> {
        self.enumerate(Some(entry))
    }

    /// Set-based DFS over rule subsets: a rule is addable when all its
    /// intensional body predicates are supplied by heads already in the
    /// set (or by the entry, for cycles). Each reached subset is validated
    /// and, if it forms a path, ordered and emitted.
    fn enumerate(&self, entry: Option<Symbol>) -> Result<Vec<ReasoningPath>, ExplainError> {
        let rules = self.derivation_rules();
        let mut out = Vec::new();
        let mut visited: HashSet<BTreeSet<RuleId>> = HashSet::new();
        let mut stack: Vec<BTreeSet<RuleId>> = vec![BTreeSet::new()];

        while let Some(set) = stack.pop() {
            if visited.len() > MAX_PATHS * 8 {
                return Err(ExplainError::PathExplosion { cap: MAX_PATHS });
            }
            if !set.is_empty() {
                if let Some(path) = self.validate(&set, entry) {
                    out.push(path);
                    if out.len() > MAX_PATHS {
                        return Err(ExplainError::PathExplosion { cap: MAX_PATHS });
                    }
                }
            }
            if set.len() >= MAX_PATH_RULES {
                continue;
            }
            let heads: HashSet<Symbol> = set.iter().map(|&r| self.head_pred(r)).collect();
            for &r in &rules {
                if set.contains(&r) {
                    continue;
                }
                let body = self.intensional_body(r);
                // Cycles contain only rules on critical-to-critical walks:
                // every cycle rule consumes at least one intensional atom.
                if entry.is_some() && body.is_empty() {
                    continue;
                }
                let addable = body.iter().all(|p| heads.contains(p) || entry == Some(*p));
                if !addable {
                    continue;
                }
                let mut next = set.clone();
                next.insert(r);
                if visited.insert(next.clone()) {
                    stack.push(next);
                }
            }
        }
        // Deterministic output order: by length, then by rule ids.
        out.sort_by(|a, b| (a.rules.len(), &a.rules).cmp(&(b.rules.len(), &b.rules)));
        Ok(out)
    }

    /// Validates a rule subset as a reasoning path; returns the ordered
    /// path on success.
    fn validate(&self, set: &BTreeSet<RuleId>, entry: Option<Symbol>) -> Option<ReasoningPath> {
        // Order rules by supply (Kahn-style placement from roots/entry).
        let order = self.place(set, entry)?;
        let exit = *order.last()?;
        if !self.critical.contains(&self.head_pred(exit)) {
            return None;
        }

        // Connectivity: every non-exit rule's head is consumed by a rule
        // placed after it.
        let pos: HashMap<RuleId, usize> = order.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        for (&r, &i) in &pos {
            if r == exit {
                continue;
            }
            let h = self.head_pred(r);
            let consumed = order
                .iter()
                .enumerate()
                .any(|(j, &r2)| j > i && self.intensional_body(r2).contains(&h));
            if !consumed {
                return None;
            }
        }

        // Feasibility of producer-to-slot assignment per predicate.
        if !self.feasible(&order, exit, entry) {
            return None;
        }

        // Supply structure.
        let supply = self.supply(&order, entry);

        Some(ReasoningPath {
            kind: if entry.is_some() {
                PathKind::Cycle
            } else {
                PathKind::Simple
            },
            rules: order,
            dashed: BTreeSet::new(),
            entry,
            supply,
        })
    }

    /// Kahn-style placement: a rule is placeable once all its intensional
    /// body predicates are provided (by the entry or by placed rules).
    /// Returns `None` if some rule can never be placed.
    fn place(&self, set: &BTreeSet<RuleId>, entry: Option<Symbol>) -> Option<Vec<RuleId>> {
        let mut provided: HashSet<Symbol> = entry.into_iter().collect();
        let mut placed: Vec<RuleId> = Vec::new();
        let mut remaining: Vec<RuleId> = set.iter().copied().collect();
        while !remaining.is_empty() {
            let mut progressed = false;
            let mut i = 0;
            while i < remaining.len() {
                let r = remaining[i];
                if self
                    .intensional_body(r)
                    .iter()
                    .all(|p| provided.contains(p))
                {
                    provided.insert(self.head_pred(r));
                    placed.push(r);
                    remaining.remove(i);
                    progressed = true;
                } else {
                    i += 1;
                }
            }
            if !progressed {
                return None;
            }
        }
        Some(placed)
    }

    /// Producer-to-slot feasibility: for each intensional predicate `p`,
    /// the non-exit producers of `p` must be assignable to the body slots
    /// over `p` such that slots of non-aggregate rules receive exactly one
    /// producer and every producer feeds at least one slot. With an
    /// aggregate slot present any producer count works; otherwise the
    /// producer count must not exceed the slot count.
    fn feasible(&self, order: &[RuleId], exit: RuleId, entry: Option<Symbol>) -> bool {
        let mut preds: HashSet<Symbol> = HashSet::new();
        for &r in order {
            preds.insert(self.head_pred(r));
            preds.extend(self.intensional_body(r));
        }
        for p in preds {
            let producers: Vec<RuleId> = order
                .iter()
                .copied()
                .filter(|&r| r != exit && self.head_pred(r) == p)
                .collect();
            if producers.is_empty() {
                continue;
            }
            let mut slot_count = 0usize;
            let mut has_agg_slot = false;
            for &r in order {
                let rule = self.program.rule(r);
                for atom in rule.positive_body() {
                    if atom.predicate == p {
                        slot_count += 1;
                        if rule.has_aggregate() {
                            has_agg_slot = true;
                        }
                    }
                }
            }
            // Entry-consuming slots are also fed externally; that only
            // adds capacity, so the static check below stays sufficient.
            let _ = entry;
            if !has_agg_slot && producers.len() > slot_count {
                return false;
            }
        }
        true
    }

    /// Computes the supply structure of an ordered rule list.
    fn supply(&self, order: &[RuleId], entry: Option<Symbol>) -> Vec<Vec<Supply>> {
        order
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                self.program
                    .rule(r)
                    .positive_body()
                    .map(|atom| {
                        let p = atom.predicate;
                        if !self.program.is_intensional(p) {
                            return Supply::External;
                        }
                        let producers: Vec<usize> = order[..i]
                            .iter()
                            .enumerate()
                            .filter(|(_, &r2)| self.head_pred(r2) == p)
                            .map(|(j, _)| j)
                            .collect();
                        if producers.is_empty() {
                            if entry == Some(p) {
                                Supply::Entry
                            } else {
                                // Unreachable for validated paths; keep a
                                // conservative fallback.
                                Supply::External
                            }
                        } else {
                            Supply::Internal(producers)
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Expands a base path into its aggregation variants: one path per subset
/// of its aggregating rules marked dashed, constrained to include every
/// rule whose aggregation is structurally multi-contributor (an atom with
/// two or more in-path producers).
fn expand_variants(program: &Program, base: ReasoningPath) -> Vec<ReasoningPath> {
    let agg_rules: Vec<RuleId> = base
        .rules
        .iter()
        .copied()
        .filter(|&r| program.rule(r).has_aggregate())
        .collect();
    if agg_rules.is_empty() {
        return vec![base];
    }

    // Rules whose aggregation must be multi-contributor by structure.
    let mut required: BTreeSet<RuleId> = BTreeSet::new();
    for (i, &r) in base.rules.iter().enumerate() {
        if !program.rule(r).has_aggregate() {
            continue;
        }
        let multi = base.supply[i]
            .iter()
            .any(|s| matches!(s, Supply::Internal(ps) if ps.len() > 1));
        if multi {
            required.insert(r);
        }
    }

    // All subsets S with required ⊆ S ⊆ agg_rules.
    let optional: Vec<RuleId> = agg_rules
        .iter()
        .copied()
        .filter(|r| !required.contains(r))
        .collect();
    let mut out = Vec::new();
    for mask in 0..(1usize << optional.len()) {
        let mut dashed = required.clone();
        for (bit, &r) in optional.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                dashed.insert(r);
            }
        }
        let mut variant = base.clone();
        variant.dashed = dashed;
        out.push(variant);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog::parse_program;

    fn labels(program: &Program, path: &ReasoningPath) -> Vec<String> {
        path.rules
            .iter()
            .map(|&r| program.rule(r).label.clone())
            .collect()
    }

    /// Collects base (undashed) path rule-label lists of a given kind.
    fn base_paths(
        analysis: &StructuralAnalysis,
        program: &Program,
        kind: PathKind,
    ) -> Vec<Vec<String>> {
        let mut seen = Vec::new();
        for p in analysis.paths.iter().filter(|p| p.kind == kind) {
            let l = labels(program, p);
            if !seen.contains(&l) {
                seen.push(l);
            }
        }
        seen
    }

    fn example_4_3() -> Program {
        parse_program(
            r#"
            alpha: shock(f, s), has_capital(f, p1), s > p1 -> default(f).
            beta: default(d), debts(d, c, v), e = sum(v) -> risk(c, e).
            gamma: has_capital(c, p2), risk(c, e), p2 < e -> default(c).
        "#,
        )
        .unwrap()
        .program
    }

    fn company_control() -> Program {
        parse_program(
            r#"
            o1: own(x, y, s), s > 0.5 -> control(x, y).
            o2: company(x) -> control(x, x).
            o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).
        "#,
        )
        .unwrap()
        .program
    }

    fn stress_test() -> Program {
        parse_program(
            r#"
            o4: shock(f, s), has_capital(f, p1), s > p1 -> default(f).
            o5: default(d), long_term_debts(d, c, v), el = sum(v) -> risk(c, el, "long").
            o6: default(d), short_term_debts(d, c, v), es = sum(v) -> risk(c, es, "short").
            o7: risk(c, e, t), has_capital(c, p2), l = sum(e), l > p2 -> default(c).
        "#,
        )
        .unwrap()
        .program
    }

    #[test]
    fn figure_4_example_4_3_paths() {
        let p = example_4_3();
        let a = analyze(&p, "default").unwrap();
        // Critical nodes: only the leaf, default (as stated in Fig. 3).
        assert_eq!(a.critical, vec![Symbol::new("default")]);
        let simple = base_paths(&a, &p, PathKind::Simple);
        assert_eq!(
            simple,
            vec![
                vec!["alpha".to_string()],
                vec!["alpha".into(), "beta".into(), "gamma".into()]
            ]
        );
        let cycles = base_paths(&a, &p, PathKind::Cycle);
        assert_eq!(cycles, vec![vec!["beta".to_string(), "gamma".into()]]);
    }

    #[test]
    fn figure_5_aggregation_variants() {
        let p = example_4_3();
        let a = analyze(&p, "default").unwrap();
        // Π2 = {alpha,beta,gamma} has one aggregating rule (beta): solid +
        // dashed variant (Fig. 5's Π3). Same for the cycle (Γ2).
        let pi2_variants: Vec<_> = a.simple_paths().filter(|p2| p2.rules.len() == 3).collect();
        assert_eq!(pi2_variants.len(), 2);
        assert!(pi2_variants.iter().any(|v| v.dashed.is_empty()));
        assert!(pi2_variants.iter().any(|v| v.dashed.len() == 1));
        let cycle_variants: Vec<_> = a.cycles().collect();
        assert_eq!(cycle_variants.len(), 2);
    }

    #[test]
    fn figure_10_company_control_paths() {
        let p = company_control();
        let a = analyze(&p, "control").unwrap();
        assert_eq!(a.critical, vec![Symbol::new("control")]);
        let simple = base_paths(&a, &p, PathKind::Simple);
        // Π1..Π5 of Fig. 10.
        let expected: Vec<Vec<String>> = vec![
            vec!["o1".into()],
            vec!["o2".into()],
            vec!["o1".into(), "o3".into()],
            vec!["o2".into(), "o3".into()],
            vec!["o1".into(), "o2".into(), "o3".into()],
        ];
        assert_eq!(simple, expected);
        let cycles = base_paths(&a, &p, PathKind::Cycle);
        assert_eq!(cycles, vec![vec!["o3".to_string()]]);
    }

    #[test]
    fn figure_10_company_control_dashed_structure() {
        let p = company_control();
        let a = analyze(&p, "control").unwrap();
        // Π5 = {o1,o2,o3} is structurally multi-contributor: its only
        // variant has o3 dashed.
        let (o3, _) = p.rule_by_label("o3").unwrap();
        let pi5: Vec<_> = a
            .simple_paths()
            .filter(|path| path.rules.len() == 3)
            .collect();
        assert_eq!(pi5.len(), 1);
        assert!(pi5[0].is_dashed(o3));
        // Π2 = {o1,o3} has both solid and dashed variants.
        let pi2: Vec<_> = a
            .simple_paths()
            .filter(|path| labels(&p, path) == vec!["o1".to_string(), "o3".into()])
            .collect();
        assert_eq!(pi2.len(), 2);
    }

    #[test]
    fn figure_10_stress_test_paths() {
        let p = stress_test();
        let a = analyze(&p, "default").unwrap();
        let simple = base_paths(&a, &p, PathKind::Simple);
        let expected: Vec<Vec<String>> = vec![
            vec!["o4".into()],
            vec!["o4".into(), "o5".into(), "o7".into()],
            vec!["o4".into(), "o6".into(), "o7".into()],
            vec!["o4".into(), "o5".into(), "o6".into(), "o7".into()],
        ];
        assert_eq!(simple, expected);
        let cycles = base_paths(&a, &p, PathKind::Cycle);
        let expected_cycles: Vec<Vec<String>> = vec![
            vec!["o5".into(), "o7".into()],
            vec!["o6".into(), "o7".into()],
            vec!["o5".into(), "o6".into(), "o7".into()],
        ];
        assert_eq!(cycles, expected_cycles);
    }

    #[test]
    fn stress_test_risk_is_not_critical() {
        // Risk is derived by two rules but has out-degree 1; under the
        // paper's worked examples it must not be critical.
        let p = stress_test();
        let a = analyze(&p, "default").unwrap();
        assert!(!a.critical.contains(&Symbol::new("risk")));
    }

    #[test]
    fn joint_channel_path_requires_dashed_aggregation() {
        let p = stress_test();
        let a = analyze(&p, "default").unwrap();
        let (o7, _) = p.rule_by_label("o7").unwrap();
        for path in a.paths.iter().filter(|p2| p2.rules.len() >= 3) {
            // Any path containing both o5 and o6 must have o7 dashed.
            let (o5, _) = p.rule_by_label("o5").unwrap();
            let (o6, _) = p.rule_by_label("o6").unwrap();
            if path.contains(o5) && path.contains(o6) {
                assert!(path.is_dashed(o7), "path {:?}", labels(&p, path));
            }
        }
    }

    #[test]
    fn supply_structure_marks_entry_and_internal() {
        let p = example_4_3();
        let a = analyze(&p, "default").unwrap();
        let cycle = a.cycles().next().unwrap();
        // beta's body: default (entry), debts (external).
        assert_eq!(cycle.supply[0][0], Supply::Entry);
        assert_eq!(cycle.supply[0][1], Supply::External);
        // gamma's body: has_capital (external), risk (internal from beta).
        assert_eq!(cycle.supply[1][0], Supply::External);
        assert_eq!(cycle.supply[1][1], Supply::Internal(vec![0]));
    }

    #[test]
    fn unknown_goal_is_reported() {
        let p = example_4_3();
        assert!(matches!(
            analyze(&p, "nope"),
            Err(ExplainError::UnknownGoal { .. })
        ));
        // Extensional predicates are not goals either.
        assert!(matches!(
            analyze(&p, "shock"),
            Err(ExplainError::UnknownGoal { .. })
        ));
    }

    #[test]
    fn path_labels_render() {
        let p = company_control();
        let a = analyze(&p, "control").unwrap();
        let all_labels: Vec<String> = a.paths.iter().map(|path| path.label(&p)).collect();
        assert!(all_labels.contains(&"{o1}".to_string()));
        assert!(all_labels.contains(&"{o3}*".to_string()));
    }

    #[test]
    fn acyclic_program_has_no_cycles() {
        let p = parse_program("r1: a(x) -> b(x). r2: b(x) -> c(x).")
            .unwrap()
            .program;
        let a = analyze(&p, "c").unwrap();
        assert_eq!(a.cycles().count(), 0);
        assert_eq!(a.simple_paths().count(), 1);
        assert_eq!(
            labels(&p, a.simple_paths().next().unwrap()),
            vec!["r1", "r2"]
        );
    }

    #[test]
    fn diamond_with_non_aggregate_join_is_supported() {
        // a -> p (r1), a -> q (r2), p,q -> goal (r3): one simple path
        // using all three rules.
        let p = parse_program("r1: a(x) -> p(x). r2: a(x) -> q(x). r3: p(x), q(x) -> goal(x).")
            .unwrap()
            .program;
        let a = analyze(&p, "goal").unwrap();
        let simple: Vec<_> = a.simple_paths().collect();
        assert_eq!(simple.len(), 1);
        assert_eq!(simple[0].rules.len(), 3);
    }

    #[test]
    fn two_producers_one_non_aggregate_slot_is_rejected() {
        // r1 and r2 both derive p; r3 consumes one p without aggregation:
        // {r1,r2,r3} must not be a path (each instantiation uses one
        // producer), while {r1,r3} and {r2,r3} are.
        let p = parse_program("r1: a(x) -> p(x). r2: b(x) -> p(x). r3: p(x) -> goal(x).")
            .unwrap()
            .program;
        let a = analyze(&p, "goal").unwrap();
        let sizes: Vec<usize> = a.simple_paths().map(|p2| p2.rules.len()).collect();
        assert_eq!(sizes, vec![2, 2]);
    }

    #[test]
    fn negated_consumption_makes_a_predicate_critical() {
        // `mid` is derived by r1 and consumed twice: positively by r2 and
        // under `not` by r3. D(Σ) carries one edge per occurrence, so
        // mid's out-degree is 2 and it is critical alongside the leaf.
        let p = parse_program(
            r#"
            r1: base(x) -> mid(x).
            r2: mid(x) -> goal(x).
            r3: other(x), not mid(x) -> goal(x).
        "#,
        )
        .unwrap()
        .program;
        let a = analyze(&p, "goal").unwrap();
        assert!(a.critical.contains(&Symbol::new("mid")));
        assert!(a.critical.contains(&Symbol::new("goal")));
        // Path enumeration still walks positive bodies only: r3 appears
        // as the single-rule path {r3}, never routed through mid.
        let simple = base_paths(&a, &p, PathKind::Simple);
        assert!(simple.contains(&vec!["r3".to_string()]));
        assert!(!simple.contains(&vec!["r1".to_string(), "r3".into()]));
    }

    #[test]
    fn path_explosion_is_detected() {
        // A program with many interchangeable producers into an
        // aggregating consumer explodes combinatorially; the cap guards.
        let mut text = String::new();
        for i in 0..18 {
            text.push_str(&format!("p{i}: e{i}(x) -> p(x).\n"));
        }
        text.push_str("g: p(x), c = count(x) -> goal(x, c).\n");
        let p = parse_program(&text).unwrap().program;
        assert!(matches!(
            analyze(&p, "goal"),
            Err(ExplainError::PathExplosion { cap: 4096 })
        ));
    }
}

//! Rules: tuple-generating dependencies with conditions, assignments,
//! monotonic aggregations and (optional) negated atoms.

use crate::atom::Atom;
use crate::expr::{Assignment, Condition, Expr};
use crate::row::Layout;
use crate::symbol::Symbol;
use std::fmt;

/// Identifier of a rule inside its [`crate::program::Program`] (positional).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RuleId(pub usize);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The aggregation functions supported by the engine (monotonic
/// aggregations in the Vadalog sense).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AggFunc {
    /// Sum of the contributions.
    Sum,
    /// Product of the contributions.
    Prod,
    /// Minimum contribution.
    Min,
    /// Maximum contribution.
    Max,
    /// Number of contributions.
    Count,
}

impl AggFunc {
    /// Surface-syntax spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Prod => "prod",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Count => "count",
        }
    }
}

/// An aggregation `result = func(input)` appearing in a rule body.
///
/// The grouping key is implicit, as in Vadalog: all body variables that
/// also occur in the head (other than `result`). Each distinct body match
/// contributes one `input` value to its group.
#[derive(Clone, PartialEq, Debug)]
pub struct Aggregate {
    /// The aggregation function.
    pub func: AggFunc,
    /// The variable receiving the aggregate value.
    pub result: Symbol,
    /// The aggregated expression (usually a plain variable).
    pub input: Expr,
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} = {}({})",
            self.result,
            self.func.as_str(),
            self.input
        )
    }
}

/// A body literal: a positive or negated atom.
#[derive(Clone, PartialEq, Debug)]
pub struct Literal {
    /// The atom.
    pub atom: Atom,
    /// True for `not R(...)`. Negated atoms must be over extensional
    /// predicates (semipositive fragment).
    pub negated: bool,
}

impl Literal {
    /// A positive literal.
    pub fn pos(atom: Atom) -> Literal {
        Literal {
            atom,
            negated: false,
        }
    }

    /// A negated literal.
    pub fn neg(atom: Atom) -> Literal {
        Literal {
            atom,
            negated: true,
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "not {}", self.atom)
        } else {
            write!(f, "{}", self.atom)
        }
    }
}

/// The head of a rule: either a regular atom or falsum (negative
/// constraint, written `-> !` in the surface syntax).
#[derive(Clone, PartialEq, Debug)]
pub enum Head {
    /// A regular TGD head atom. Head variables not bound by the body, an
    /// assignment, or the aggregate are existentially quantified.
    Atom(Atom),
    /// Falsum: the body must never match.
    Falsum,
}

impl Head {
    /// The head atom, if any.
    pub fn atom(&self) -> Option<&Atom> {
        match self {
            Head::Atom(a) => Some(a),
            Head::Falsum => None,
        }
    }
}

/// A rule (TGD or negative constraint).
///
/// Construct rules with [`RuleBuilder`] or by parsing surface syntax via
/// [`crate::parser::parse_program`].
#[derive(Clone, PartialEq, Debug)]
pub struct Rule {
    /// Human-readable label (e.g. `"o1"`, `"alpha"`); unique in a program.
    pub label: String,
    /// The body literals (at least one positive literal).
    pub body: Vec<Literal>,
    /// Comparison conditions.
    pub conditions: Vec<Condition>,
    /// Non-aggregate assignments, evaluated in order.
    pub assignments: Vec<Assignment>,
    /// At most one aggregation.
    pub aggregate: Option<Aggregate>,
    /// The head.
    pub head: Head,
}

impl Rule {
    /// Positive body atoms, in order.
    pub fn positive_body(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter(|l| !l.negated).map(|l| &l.atom)
    }

    /// Negated body atoms, in order.
    pub fn negated_body(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter(|l| l.negated).map(|l| &l.atom)
    }

    /// True iff this rule carries an aggregation.
    pub fn has_aggregate(&self) -> bool {
        self.aggregate.is_some()
    }

    /// True iff this rule is a negative constraint.
    pub fn is_constraint(&self) -> bool {
        matches!(self.head, Head::Falsum)
    }

    /// All variables bound by the positive body atoms.
    pub fn body_variables(&self) -> Vec<Symbol> {
        let mut vars = Vec::new();
        for atom in self.positive_body() {
            for v in atom.variables() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        vars
    }

    /// Head variables that are existentially quantified: present in the
    /// head but not bound by body, assignments or aggregate result.
    pub fn existential_variables(&self) -> Vec<Symbol> {
        let Head::Atom(head) = &self.head else {
            return Vec::new();
        };
        let bound = self.bound_variables();
        let mut out = Vec::new();
        for v in head.variables() {
            if !bound.contains(&v) && !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// The grouping key of this rule's aggregation: the variables that
    /// stay fixed within one aggregate group. These are the head variables
    /// other than the aggregate result, plus any body variable referenced
    /// by a post-aggregate condition (a condition mentioning the result) —
    /// e.g. in `risk(c,e,t), has_capital(c,p2), l = sum(e), l > p2 ->
    /// default(c)` the key is `{c, p2}`.
    ///
    /// Empty for rules without aggregation.
    pub fn aggregate_group_vars(&self) -> Vec<Symbol> {
        let Some(agg) = &self.aggregate else {
            return Vec::new();
        };
        let mut key = Vec::new();
        if let Head::Atom(h) = &self.head {
            for v in h.variables() {
                if v != agg.result && !key.contains(&v) {
                    key.push(v);
                }
            }
        }
        for c in &self.conditions {
            let mut vars = Vec::new();
            c.collect_vars(&mut vars);
            if vars.contains(&agg.result) {
                for v in vars {
                    if v != agg.result && !key.contains(&v) {
                        key.push(v);
                    }
                }
            }
        }
        key
    }

    /// Variables bound by the body, assignments, or aggregate result.
    pub fn bound_variables(&self) -> Vec<Symbol> {
        let mut bound = self.body_variables();
        for a in &self.assignments {
            if !bound.contains(&a.var) {
                bound.push(a.var);
            }
        }
        if let Some(agg) = &self.aggregate {
            if !bound.contains(&agg.result) {
                bound.push(agg.result);
            }
        }
        bound
    }
}

/// The row layouts of one rule and the per-rule facts read off them,
/// computed once per rule: the engine keeps them in the rule's
/// [`JoinPlan`](crate::engine::JoinPlan), and explanations resolve their
/// template tokens against them. The layouts are the only place that
/// knows a rule's variable order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleLayout {
    /// The layout of the rule's match rows (and of a plain rule's step
    /// rows): the positive-body variables in first-occurrence order, then
    /// the assignment variables.
    pub matched: Layout,
    /// The layout of an aggregate rule's step rows: its group variables
    /// ([`Rule::aggregate_group_vars`]) that a match binds, then the
    /// aggregate result. `None` for rules without aggregation.
    pub step: Option<Layout>,
    /// Per group variable of the step layout, its slot in a match row:
    /// the values there are a match's group key, and a step row is its
    /// group key followed by the aggregate result.
    pub(crate) group_slots: Vec<usize>,
    /// The existentially quantified head variables
    /// ([`Rule::existential_variables`]).
    pub(crate) existentials: Vec<Symbol>,
    /// Indexes into [`Rule::conditions`] of the conditions checked per
    /// match: every condition not mentioning the aggregate result.
    pub(crate) pre_conditions: Vec<usize>,
    /// Indexes of the conditions over the aggregate result, checked on a
    /// step row after the fold.
    pub(crate) post_conditions: Vec<usize>,
}

impl RuleLayout {
    /// The layouts of `rule`.
    pub fn of(rule: &Rule) -> RuleLayout {
        let mut vars = rule.body_variables();
        // Program validation makes every assignment target a fresh
        // variable.
        vars.extend(rule.assignments.iter().map(|a| a.var));
        let matched = Layout::new(&vars);
        let (step, group_slots) = match &rule.aggregate {
            Some(agg) => {
                let mut step_vars = Vec::new();
                let mut slots = Vec::new();
                for v in rule.aggregate_group_vars() {
                    if let Some(slot) = matched.position(v) {
                        step_vars.push(v);
                        slots.push(slot);
                    }
                }
                step_vars.push(agg.result);
                (Some(Layout::new(&step_vars)), slots)
            }
            None => (None, Vec::new()),
        };
        let result = rule.aggregate.as_ref().map(|a| a.result);
        let (post_conditions, pre_conditions) = (0..rule.conditions.len()).partition(|&i| {
            let mut vars = Vec::new();
            rule.conditions[i].collect_vars(&mut vars);
            result.is_some_and(|r| vars.contains(&r))
        });
        RuleLayout {
            matched,
            step,
            group_slots,
            existentials: rule.existential_variables(),
            pre_conditions,
            post_conditions,
        }
    }

    /// The layout of the rows a derivation of the rule records as its
    /// bindings: the step layout of an aggregate rule, the match layout
    /// otherwise. An aggregate step's contributor rows are match rows.
    pub fn head(&self) -> Layout {
        self.step.unwrap_or(self.matched)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        for lit in &self.body {
            parts.push(lit.to_string());
        }
        for a in &self.assignments {
            parts.push(a.to_string());
        }
        if let Some(agg) = &self.aggregate {
            parts.push(agg.to_string());
        }
        for c in &self.conditions {
            parts.push(c.to_string());
        }
        write!(f, "{}: {} -> ", self.label, parts.join(", "))?;
        match &self.head {
            Head::Atom(a) => write!(f, "{}.", a),
            Head::Falsum => write!(f, "!."),
        }
    }
}

/// Fluent builder for [`Rule`], for programmatic construction in tests,
/// examples and applications.
#[derive(Debug)]
pub struct RuleBuilder {
    label: String,
    body: Vec<Literal>,
    conditions: Vec<Condition>,
    assignments: Vec<Assignment>,
    aggregate: Option<Aggregate>,
}

impl RuleBuilder {
    /// Starts a rule with the given label.
    pub fn new(label: &str) -> RuleBuilder {
        RuleBuilder {
            label: label.to_owned(),
            body: Vec::new(),
            conditions: Vec::new(),
            assignments: Vec::new(),
            aggregate: None,
        }
    }

    /// Adds a positive body atom.
    pub fn body(mut self, atom: Atom) -> Self {
        self.body.push(Literal::pos(atom));
        self
    }

    /// Adds a negated body atom.
    pub fn body_not(mut self, atom: Atom) -> Self {
        self.body.push(Literal::neg(atom));
        self
    }

    /// Adds a comparison condition.
    pub fn condition(mut self, c: Condition) -> Self {
        self.conditions.push(c);
        self
    }

    /// Adds an assignment `var = expr`.
    pub fn assign(mut self, var: &str, expr: Expr) -> Self {
        self.assignments.push(Assignment {
            var: Symbol::new(var),
            expr,
        });
        self
    }

    /// Sets the aggregation `result = func(input)`.
    pub fn aggregate(mut self, func: AggFunc, result: &str, input: Expr) -> Self {
        self.aggregate = Some(Aggregate {
            func,
            result: Symbol::new(result),
            input,
        });
        self
    }

    /// Finishes the rule with a head atom.
    pub fn head(self, atom: Atom) -> Rule {
        Rule {
            label: self.label,
            body: self.body,
            conditions: self.conditions,
            assignments: self.assignments,
            aggregate: self.aggregate,
            head: Head::Atom(atom),
        }
    }

    /// Finishes the rule as a negative constraint.
    pub fn falsum(self) -> Rule {
        Rule {
            label: self.label,
            body: self.body,
            conditions: self.conditions,
            assignments: self.assignments,
            aggregate: self.aggregate,
            head: Head::Falsum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::term::Term;

    fn alpha() -> Rule {
        // Shock(f,s), HasCapital(f,p1), s > p1 -> Default(f)
        RuleBuilder::new("alpha")
            .body(Atom::new("shock", vec![Term::var("f"), Term::var("s")]))
            .body(Atom::new(
                "has_capital",
                vec![Term::var("f"), Term::var("p1")],
            ))
            .condition(Condition::new(Expr::var("s"), CmpOp::Gt, Expr::var("p1")))
            .head(Atom::new("default", vec![Term::var("f")]))
    }

    #[test]
    fn builder_produces_expected_shape() {
        let r = alpha();
        assert_eq!(r.positive_body().count(), 2);
        assert_eq!(r.conditions.len(), 1);
        assert!(!r.has_aggregate());
        assert!(!r.is_constraint());
        assert!(r.existential_variables().is_empty());
    }

    #[test]
    fn aggregate_rule_binds_result() {
        // Default(d), Debts(d,c,v), e = sum(v) -> Risk(c,e)
        let r = RuleBuilder::new("beta")
            .body(Atom::new("default", vec![Term::var("d")]))
            .body(Atom::new(
                "debts",
                vec![Term::var("d"), Term::var("c"), Term::var("v")],
            ))
            .aggregate(AggFunc::Sum, "e", Expr::var("v"))
            .head(Atom::new("risk", vec![Term::var("c"), Term::var("e")]));
        assert!(r.has_aggregate());
        assert!(r.existential_variables().is_empty());
        let bound: Vec<_> = r.bound_variables().iter().map(|v| v.as_str()).collect();
        assert!(bound.contains(&"e"));
    }

    #[test]
    fn existential_variables_are_detected() {
        // Person(x) -> Parent(x, z)   with z existential
        let r = RuleBuilder::new("e1")
            .body(Atom::new("person", vec![Term::var("x")]))
            .head(Atom::new("parent", vec![Term::var("x"), Term::var("z")]));
        let ex: Vec<_> = r
            .existential_variables()
            .iter()
            .map(|v| v.as_str())
            .collect();
        assert_eq!(ex, vec!["z"]);
    }

    #[test]
    fn display_is_readable_surface_syntax() {
        let r = alpha();
        let s = r.to_string();
        assert!(s.starts_with("alpha: shock(f,s), has_capital(f,p1), s > p1 -> default(f)."));
    }

    #[test]
    fn constraint_head_is_falsum() {
        let r = RuleBuilder::new("c1")
            .body(Atom::new("own", vec![Term::var("x"), Term::var("x")]))
            .falsum();
        assert!(r.is_constraint());
        assert!(r.head.atom().is_none());
        assert!(r.to_string().ends_with("!."));
    }

    #[test]
    fn layouts_list_body_then_assignment_variables() {
        // Risk(c,e,t), has_capital(c,p2), l = sum(e), l > p2 -> default(c):
        // the step row is the bound group key {c, p2}, then the result.
        let r = RuleBuilder::new("g")
            .body(Atom::new(
                "risk",
                vec![Term::var("c"), Term::var("e"), Term::var("t")],
            ))
            .body(Atom::new(
                "has_capital",
                vec![Term::var("c"), Term::var("p2")],
            ))
            .assign("k", Expr::var("e"))
            .aggregate(AggFunc::Sum, "l", Expr::var("e"))
            .condition(Condition::new(Expr::var("t"), CmpOp::Gt, Expr::var("k")))
            .condition(Condition::new(Expr::var("l"), CmpOp::Gt, Expr::var("p2")))
            .head(Atom::new("default", vec![Term::var("c")]));
        let layout = RuleLayout::of(&r);
        let names = |l: Layout| l.vars().iter().map(|v| v.as_str()).collect::<Vec<_>>();
        assert_eq!(names(layout.matched), vec!["c", "e", "t", "p2", "k"]);
        assert_eq!(names(layout.step.unwrap()), vec!["c", "p2", "l"]);
        assert_eq!(layout.head(), layout.step.unwrap());
        assert_eq!(layout.group_slots, vec![0, 3]);
        assert_eq!(layout.pre_conditions, vec![0]);
        assert_eq!(layout.post_conditions, vec![1]);
        assert!(layout.existentials.is_empty());

        let plain = RuleLayout::of(&alpha());
        assert_eq!(names(plain.matched), vec!["f", "s", "p1"]);
        assert_eq!(plain.head(), plain.matched);
        assert_eq!(plain.step, None);
    }

    #[test]
    fn body_variables_deduplicate_preserving_order() {
        let r = alpha();
        let vars: Vec<_> = r.body_variables().iter().map(|v| v.as_str()).collect();
        assert_eq!(vars, vec!["f", "s", "p1"]);
    }
}

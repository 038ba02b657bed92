//! Programs: validated collections of rules with EDB/IDB classification.

use crate::error::ProgramError;
use crate::rule::{Head, Rule, RuleId};
use crate::stratify::{stratify, Stratification};
use crate::symbol::Symbol;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A validated Vadalog program: a set of rules Σ.
///
/// Validation enforces:
/// * rule labels are unique and bodies are non-empty;
/// * every predicate is used with a single arity;
/// * conditions/assignments only mention bound variables (safety);
/// * aggregate inputs are bound by the body;
/// * negated atoms have positively bound variables (safe negation) and
///   the program is stratifiable (no recursion through negation).
#[derive(Clone, Debug)]
pub struct Program {
    rules: Vec<Rule>,
    /// Predicates occurring in at least one head.
    intensional: HashSet<Symbol>,
    /// All predicates with their arity.
    arities: HashMap<Symbol, usize>,
    /// The stratification (single stratum for negation-free programs).
    stratification: Stratification,
}

impl Program {
    /// Builds and validates a program from rules.
    pub fn new(rules: Vec<Rule>) -> Result<Program, ProgramError> {
        let mut labels = HashSet::new();
        for r in &rules {
            if !labels.insert(r.label.clone()) {
                return Err(ProgramError::DuplicateRuleLabel(r.label.clone()));
            }
            if r.body.is_empty() {
                return Err(ProgramError::EmptyBody(r.label.clone()));
            }
        }

        let mut intensional = HashSet::new();
        for r in &rules {
            if let Head::Atom(h) = &r.head {
                intensional.insert(h.predicate);
            }
        }

        let mut arities: HashMap<Symbol, usize> = HashMap::new();
        let mut check_arity = |pred: Symbol, arity: usize| -> Result<(), ProgramError> {
            match arities.get(&pred) {
                Some(&a) if a != arity => Err(ProgramError::ArityMismatch {
                    predicate: pred,
                    expected: a,
                    found: arity,
                }),
                _ => {
                    arities.insert(pred, arity);
                    Ok(())
                }
            }
        };
        for r in &rules {
            for lit in &r.body {
                check_arity(lit.atom.predicate, lit.atom.arity())?;
            }
            if let Head::Atom(h) = &r.head {
                check_arity(h.predicate, h.arity())?;
            }
        }

        for r in &rules {
            validate_rule(r)?;
        }

        let stratification = stratify(&rules).ok_or(ProgramError::NotStratifiable)?;

        Ok(Program {
            rules,
            intensional,
            arities,
            stratification,
        })
    }

    /// The stratification of the program. Negation-free programs have a
    /// single stratum.
    pub fn stratification(&self) -> &Stratification {
        &self.stratification
    }

    /// The evaluation stratum of a rule.
    pub fn rule_stratum(&self, id: RuleId) -> usize {
        self.stratification.rule_stratum[id.0]
    }

    /// The rules, in declaration order; index = [`RuleId`].
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The rule with the given id.
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.0]
    }

    /// Looks a rule up by label.
    pub fn rule_by_label(&self, label: &str) -> Option<(RuleId, &Rule)> {
        self.rules
            .iter()
            .enumerate()
            .find(|(_, r)| r.label == label)
            .map(|(i, r)| (RuleId(i), r))
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True iff the program has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// True iff `pred` occurs in some rule head (IDB predicate).
    pub fn is_intensional(&self, pred: Symbol) -> bool {
        self.intensional.contains(&pred)
    }

    /// True iff `pred` is known to the program and never derived (EDB).
    pub fn is_extensional(&self, pred: Symbol) -> bool {
        self.arities.contains_key(&pred) && !self.intensional.contains(&pred)
    }

    /// All predicates mentioned by the program with their arities.
    pub fn predicates(&self) -> impl Iterator<Item = (Symbol, usize)> + '_ {
        self.arities.iter().map(|(&p, &a)| (p, a))
    }

    /// The declared arity of `pred`, if the program mentions it.
    pub fn arity(&self, pred: Symbol) -> Option<usize> {
        self.arities.get(&pred).copied()
    }

    /// Rules whose head predicate is `pred`.
    pub fn rules_deriving(&self, pred: Symbol) -> Vec<RuleId> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.head.atom().is_some_and(|h| h.predicate == pred))
            .map(|(i, _)| RuleId(i))
            .collect()
    }
}

fn validate_rule(rule: &Rule) -> Result<(), ProgramError> {
    let body_vars: HashSet<Symbol> = rule.body_variables().into_iter().collect();

    // Assignments may chain; bound set grows as we walk them in order.
    // Each binds a fresh variable: one already bound would need a
    // second value in its one slot.
    let mut bound = body_vars.clone();
    for a in &rule.assignments {
        let mut used = Vec::new();
        a.expr.collect_vars(&mut used);
        for v in used {
            if !bound.contains(&v) {
                return Err(ProgramError::UnboundBodyVariable {
                    rule: rule.label.clone(),
                    var: v,
                });
            }
        }
        if !bound.insert(a.var) {
            return Err(ProgramError::RebindingAssignment {
                rule: rule.label.clone(),
                var: a.var,
            });
        }
    }

    if let Some(agg) = &rule.aggregate {
        let mut used = Vec::new();
        agg.input.collect_vars(&mut used);
        for v in used {
            if !bound.contains(&v) {
                return Err(ProgramError::UnboundAggregateInput {
                    rule: rule.label.clone(),
                    var: v,
                });
            }
        }
        bound.insert(agg.result);
    }

    for c in &rule.conditions {
        let mut used = Vec::new();
        c.collect_vars(&mut used);
        for v in used {
            if !bound.contains(&v) {
                return Err(ProgramError::UnboundBodyVariable {
                    rule: rule.label.clone(),
                    var: v,
                });
            }
        }
    }

    // Negated atoms: their variables must be bound positively (safe
    // negation). Stratifiability is checked at the program level.
    for atom in rule.negated_body() {
        for v in atom.variables() {
            if !body_vars.contains(&v) {
                return Err(ProgramError::UnboundBodyVariable {
                    rule: rule.label.clone(),
                    var: v,
                });
            }
        }
    }

    // Falsum heads have nothing else to check; atom heads may carry
    // existential variables (those are fine by definition).
    Ok(())
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{}", r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::expr::{CmpOp, Condition, Expr};
    use crate::rule::{AggFunc, RuleBuilder};
    use crate::term::Term;

    fn control_rules() -> Vec<Rule> {
        // The company-control program of Sec. 5 (σ1, σ2, σ3).
        vec![
            RuleBuilder::new("o1")
                .body(Atom::new(
                    "own",
                    vec![Term::var("x"), Term::var("y"), Term::var("s")],
                ))
                .condition(Condition::new(
                    Expr::var("s"),
                    CmpOp::Gt,
                    Expr::constant(0.5f64),
                ))
                .head(Atom::new("control", vec![Term::var("x"), Term::var("y")])),
            RuleBuilder::new("o2")
                .body(Atom::new("company", vec![Term::var("x")]))
                .head(Atom::new("control", vec![Term::var("x"), Term::var("x")])),
            RuleBuilder::new("o3")
                .body(Atom::new("control", vec![Term::var("x"), Term::var("z")]))
                .body(Atom::new(
                    "own",
                    vec![Term::var("z"), Term::var("y"), Term::var("s")],
                ))
                .aggregate(AggFunc::Sum, "ts", Expr::var("s"))
                .condition(Condition::new(
                    Expr::var("ts"),
                    CmpOp::Gt,
                    Expr::constant(0.5f64),
                ))
                .head(Atom::new("control", vec![Term::var("x"), Term::var("y")])),
        ]
    }

    #[test]
    fn valid_program_classifies_edb_idb() {
        let p = Program::new(control_rules()).unwrap();
        assert!(p.is_intensional(Symbol::new("control")));
        assert!(p.is_extensional(Symbol::new("own")));
        assert!(p.is_extensional(Symbol::new("company")));
        assert_eq!(p.arity(Symbol::new("own")), Some(3));
        assert_eq!(p.rules_deriving(Symbol::new("control")).len(), 3);
    }

    #[test]
    fn duplicate_labels_are_rejected() {
        let mut rules = control_rules();
        rules[1].label = "o1".into();
        assert!(matches!(
            Program::new(rules),
            Err(ProgramError::DuplicateRuleLabel(_))
        ));
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut rules = control_rules();
        rules.push(
            RuleBuilder::new("bad")
                .body(Atom::new("own", vec![Term::var("x"), Term::var("y")]))
                .head(Atom::new("p", vec![Term::var("x")])),
        );
        assert!(matches!(
            Program::new(rules),
            Err(ProgramError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn unbound_condition_variable_is_rejected() {
        let rules = vec![RuleBuilder::new("bad")
            .body(Atom::new("p", vec![Term::var("x")]))
            .condition(Condition::new(
                Expr::var("nope"),
                CmpOp::Gt,
                Expr::constant(1i64),
            ))
            .head(Atom::new("q", vec![Term::var("x")]))];
        assert!(matches!(
            Program::new(rules),
            Err(ProgramError::UnboundBodyVariable { .. })
        ));
    }

    #[test]
    fn unbound_aggregate_input_is_rejected() {
        let rules = vec![RuleBuilder::new("bad")
            .body(Atom::new("p", vec![Term::var("x")]))
            .aggregate(AggFunc::Sum, "t", Expr::var("missing"))
            .head(Atom::new("q", vec![Term::var("x"), Term::var("t")]))];
        assert!(matches!(
            Program::new(rules),
            Err(ProgramError::UnboundAggregateInput { .. })
        ));
    }

    #[test]
    fn negated_intensional_is_accepted_when_stratifiable() {
        let rules = vec![
            RuleBuilder::new("r1")
                .body(Atom::new("p", vec![Term::var("x")]))
                .head(Atom::new("q", vec![Term::var("x")])),
            RuleBuilder::new("r2")
                .body(Atom::new("p", vec![Term::var("x")]))
                .body_not(Atom::new("q", vec![Term::var("x")]))
                .head(Atom::new("r", vec![Term::var("x")])),
        ];
        let p = Program::new(rules).unwrap();
        assert_eq!(p.stratification().strata, 2);
        assert_eq!(p.rule_stratum(RuleId(0)), 0);
        assert_eq!(p.rule_stratum(RuleId(1)), 1);
    }

    #[test]
    fn unstratifiable_program_is_rejected() {
        // p :- e, not p.
        let rules = vec![RuleBuilder::new("r")
            .body(Atom::new("e", vec![Term::var("x")]))
            .body_not(Atom::new("p", vec![Term::var("x")]))
            .head(Atom::new("p", vec![Term::var("x")]))];
        assert!(matches!(
            Program::new(rules),
            Err(ProgramError::NotStratifiable)
        ));
    }

    #[test]
    fn chained_assignments_bind_in_order() {
        let rules = vec![RuleBuilder::new("chain")
            .body(Atom::new("p", vec![Term::var("x")]))
            .assign(
                "a",
                Expr::binary(
                    crate::expr::ArithOp::Add,
                    Expr::var("x"),
                    Expr::constant(1i64),
                ),
            )
            .assign(
                "b",
                Expr::binary(
                    crate::expr::ArithOp::Mul,
                    Expr::var("a"),
                    Expr::constant(2i64),
                ),
            )
            .head(Atom::new("q", vec![Term::var("b")]))];
        assert!(Program::new(rules).is_ok());
    }

    #[test]
    fn assignments_to_bound_variables_are_rejected() {
        let plus_one = |v: &str| {
            Expr::binary(
                crate::expr::ArithOp::Add,
                Expr::var(v),
                Expr::constant(1i64),
            )
        };
        // `p(x, y), y = y + 1`: the target is a body variable.
        let body_var = RuleBuilder::new("body")
            .body(Atom::new("p", vec![Term::var("x"), Term::var("y")]))
            .assign("y", plus_one("y"))
            .head(Atom::new("q", vec![Term::var("x"), Term::var("y")]));
        // `p(x), a = x + 1, a = a + 1`: the target is an earlier
        // assignment's variable.
        let assigned_var = RuleBuilder::new("twice")
            .body(Atom::new("p", vec![Term::var("x")]))
            .assign("a", plus_one("x"))
            .assign("a", plus_one("a"))
            .head(Atom::new("q", vec![Term::var("a")]));
        for (rule, label, var) in [(body_var, "body", "y"), (assigned_var, "twice", "a")] {
            let err = Program::new(vec![rule]).unwrap_err();
            assert_eq!(
                err,
                ProgramError::RebindingAssignment {
                    rule: label.into(),
                    var: Symbol::new(var),
                }
            );
            assert!(err.to_string().contains(&format!("`{var}`")), "{err}");
        }
    }

    #[test]
    fn lookup_by_label_finds_rule() {
        let p = Program::new(control_rules()).unwrap();
        let (id, r) = p.rule_by_label("o3").unwrap();
        assert_eq!(id, RuleId(2));
        assert!(r.has_aggregate());
        assert!(p.rule_by_label("zzz").is_none());
    }
}

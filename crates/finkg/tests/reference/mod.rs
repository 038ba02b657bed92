//! An independent reference chase for the equivalence suites.
//!
//! A sequential, index-free evaluator of the engine's semantics: the
//! restricted chase of Sec. 3 with stratified negation and monotonic
//! aggregation whose partial results are superseded, as in *The Vadalog
//! System*. It reads the program's syntax tree and shares no code with
//! the engine: no `Database`, join plan, matcher, commit, aggregate fold,
//! stratification or goal cone. Every match is enumerated by nested loops
//! over the facts active at the rule's turn, so it is slow and plainly
//! sequential; the suites run it on small inputs and compare the engine's
//! outcome with it byte for byte through [`render`].
//!
//! The semantics, as the engine defines them:
//!
//! * EDB facts take ids `0..` in order. Strata ([`strata`]) run bottom-up,
//!   rounds are numbered across strata, and a stratum ends with a round
//!   that derives no fresh fact.
//! * Within a round the stratum's rules run in id order. A rule is skipped
//!   when no fact was added since its last evaluation; otherwise it
//!   enumerates every match over the facts active *now*, so a rule sees
//!   what lower-id rules derived earlier in the round. Matches come in
//!   premise-vector order (positive-body order).
//! * A match binds the positive atoms, evaluates the assignments in order,
//!   is blocked when an active fact unifies with a negated atom, and must
//!   pass every condition that does not mention the aggregate result.
//! * An aggregate rule groups its matches by the bound group variables
//!   ([`Rule::aggregate_group_vars`]); groups fire in the order of their
//!   first member. A step's row is the group key and the result, checked
//!   against the remaining conditions; its premises are the members'
//!   premises, deduplicated in member order, and its contributor rows are
//!   the members' rows.
//! * A step with an existential head is skipped when an active fact
//!   matches its head with each unbound variable taking one value at all
//!   its positions; nulls are numbered per existential variable in head
//!   order. A step whose
//!   fact exists keeps the fact's id and liveness and records nothing if
//!   the fact already has the same (rule, premises) derivation. An
//!   aggregate step deactivates the previous fact of its (rule, group
//!   key) when that fact differs and is still active.
//! * A constraint's label is recorded the first time it steps: a match of
//!   a plain constraint, or a group of an aggregate constraint that
//!   passes the conditions on the aggregate result.

#![allow(dead_code)] // each suite uses a part of the module

pub mod generator;

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use vadalog::{
    AggFunc, Atom, Bindings, ChaseConfig, ChaseOutcome, ChaseSession, Database, EvalError, Fact,
    Head, Program, Rule, Symbol, Term, Value,
};

/// The strata of a rule set, by relaxation: every predicate starts at 0
/// and a rule's head is raised to at least each positive body
/// predicate's stratum and above each negated one's, until nothing
/// changes. `None` when recursion passes through negation, which keeps
/// raising a stratum past the predicate count.
#[derive(Debug)]
pub struct Strata {
    /// Per predicate mentioned by a rule, its stratum.
    pub predicate: HashMap<Symbol, usize>,
    /// Per rule, its head's stratum; constraints take the top stratum.
    pub rule: Vec<usize>,
    /// The number of strata.
    pub count: usize,
}

/// Computes the [`Strata`] of `rules`.
pub fn strata(rules: &[Rule]) -> Option<Strata> {
    let mut predicate: HashMap<Symbol, usize> = HashMap::new();
    for rule in rules {
        for literal in &rule.body {
            predicate.insert(literal.atom.predicate, 0);
        }
        if let Head::Atom(head) = &rule.head {
            predicate.insert(head.predicate, 0);
        }
    }
    let mut changed = true;
    let mut rounds = 0;
    while changed {
        if rounds > predicate.len() {
            return None;
        }
        rounds += 1;
        changed = false;
        for rule in rules {
            let Head::Atom(head) = &rule.head else {
                continue;
            };
            let required = rule
                .body
                .iter()
                .map(|l| predicate[&l.atom.predicate] + usize::from(l.negated))
                .max()
                .unwrap_or(0);
            if required > predicate[&head.predicate] {
                predicate.insert(head.predicate, required);
                changed = true;
            }
        }
    }
    let top = predicate.values().copied().max().unwrap_or(0);
    let rule = rules
        .iter()
        .map(|r| r.head.atom().map_or(top, |h| predicate[&h.predicate]))
        .collect();
    Some(Strata {
        predicate,
        rule,
        count: top + 1,
    })
}

/// The rules of `goal`'s relevance cone: those whose head predicate
/// reaches `goal` through positive or negated body atoms. Constraints
/// reach nothing.
pub fn cone(program: &Program, goal: Symbol) -> Vec<bool> {
    let mut relevant = HashSet::from([goal]);
    let mut grew = true;
    while grew {
        grew = false;
        for rule in program.rules() {
            if rule
                .head
                .atom()
                .is_some_and(|h| relevant.contains(&h.predicate))
            {
                for literal in &rule.body {
                    grew |= relevant.insert(literal.atom.predicate);
                }
            }
        }
    }
    program
        .rules()
        .iter()
        .map(|r| {
            r.head
                .atom()
                .is_some_and(|h| relevant.contains(&h.predicate))
        })
        .collect()
}

/// One recorded chase step.
#[derive(Debug)]
pub struct Step {
    pub rule: usize,
    pub premises: Vec<usize>,
    pub conclusion: usize,
    pub round: u32,
    /// The step's row: a plain rule's match, or an aggregate's group key
    /// and result.
    pub bindings: Bindings,
    /// An aggregate step's member matches; empty for plain rules.
    pub contributors: Vec<Bindings>,
}

/// The outcome of a reference chase.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every fact, in id order.
    pub facts: Vec<Fact>,
    /// Per fact, whether it is active (not superseded).
    pub active: Vec<bool>,
    /// Every step, in recording order.
    pub steps: Vec<Step>,
    pub rounds: u32,
    pub violations: Vec<String>,
}

/// One body match: its bindings and its premises in positive-body order.
struct Match {
    bindings: Bindings,
    premises: Vec<usize>,
}

/// Chases `edb` under `program`, evaluating only the rules `mask` keeps
/// (every rule when `None`).
pub fn chase(program: &Program, edb: &[Fact], mask: Option<&[bool]>) -> Result<Outcome, EvalError> {
    let rules = program.rules();
    let strata = strata(rules).expect("the program is stratified");
    let mut chase = Reference::default();
    for fact in edb {
        chase.insert(fact.clone());
    }
    let mut last_seen: Vec<Option<usize>> = vec![None; rules.len()];
    let mut round = 0;
    for stratum in 0..strata.count {
        loop {
            round += 1;
            let mut changed = false;
            for (idx, rule) in rules.iter().enumerate() {
                if strata.rule[idx] != stratum || mask.is_some_and(|m| !m[idx]) {
                    continue;
                }
                let len = chase.out.facts.len();
                if last_seen[idx] == Some(len) {
                    continue;
                }
                last_seen[idx] = Some(len);
                changed |= chase.evaluate(idx, rule, round)?;
            }
            if !changed {
                break;
            }
        }
    }
    chase.out.rounds = round;
    Ok(chase.out)
}

#[derive(Default)]
struct Reference {
    out: Outcome,
    /// Fact ids by fact, for deduplication.
    ids: HashMap<Fact, usize>,
    /// Fact ids per predicate, in id order.
    by_predicate: HashMap<Symbol, Vec<usize>>,
    /// Every recorded (rule, conclusion, premises).
    recorded: HashSet<(usize, usize, Vec<usize>)>,
    /// The fact of each aggregate rule's group last stepped to.
    current: HashMap<(usize, Vec<Value>), usize>,
    nulls: u64,
}

impl Reference {
    /// Adds `fact` unless present; returns its id and whether it is new.
    fn insert(&mut self, fact: Fact) -> (usize, bool) {
        if let Some(&id) = self.ids.get(&fact) {
            return (id, false);
        }
        let id = self.out.facts.len();
        self.by_predicate
            .entry(fact.predicate)
            .or_default()
            .push(id);
        self.ids.insert(fact.clone(), id);
        self.out.facts.push(fact);
        self.out.active.push(true);
        (id, true)
    }

    /// The active facts of `predicate`, in id order.
    fn active(&self, predicate: Symbol) -> impl Iterator<Item = usize> + '_ {
        self.by_predicate
            .get(&predicate)
            .into_iter()
            .flatten()
            .copied()
            .filter(|&id| self.out.active[id])
    }

    /// Evaluates `rule` once; true iff it derived a fresh fact.
    fn evaluate(&mut self, idx: usize, rule: &Rule, round: u32) -> Result<bool, EvalError> {
        let atoms: Vec<&Atom> = rule.positive_body().collect();
        let mut matches = Vec::new();
        self.join(rule, &atoms, Bindings::new(), Vec::new(), &mut matches)?;
        let mut changed = false;
        let Some(agg) = &rule.aggregate else {
            for m in matches {
                changed |= self.fire(idx, rule, m.bindings, m.premises, None, round);
            }
            return Ok(changed);
        };
        let group_vars = rule.aggregate_group_vars();
        let mut groups: Vec<(Bindings, Vec<Value>, Vec<Match>)> = Vec::new();
        let mut group_of: HashMap<Vec<Value>, usize> = HashMap::new();
        for m in matches {
            let bound: Vec<Symbol> = group_vars
                .iter()
                .copied()
                .filter(|v| m.bindings.contains_key(v))
                .collect();
            let key: Vec<Value> = bound.iter().map(|v| m.bindings[v]).collect();
            let g = *group_of.entry(key.clone()).or_insert_with(|| {
                let row = bound.iter().map(|v| (*v, m.bindings[v])).collect();
                groups.push((row, key, Vec::new()));
                groups.len() - 1
            });
            groups[g].2.push(m);
        }
        for (mut row, key, members) in groups {
            let inputs = members
                .iter()
                .map(|m| agg.input.eval(&m.bindings))
                .collect::<Result<Vec<_>, _>>()?;
            row.insert(agg.result, fold(agg.func, &inputs)?);
            let mut passes = true;
            for c in rule.conditions.iter().filter(|c| mentions(c, agg.result)) {
                if !c.holds(&row)? {
                    passes = false;
                    break;
                }
            }
            if !passes {
                continue;
            }
            let mut premises: Vec<usize> = Vec::new();
            for m in &members {
                for &p in &m.premises {
                    if !premises.contains(&p) {
                        premises.push(p);
                    }
                }
            }
            let contributors = members.into_iter().map(|m| m.bindings).collect();
            let group = Some((key, contributors));
            changed |= self.fire(idx, rule, row, premises, group, round);
        }
        Ok(changed)
    }

    /// Extends `bindings` over `atoms` by nested loops over the active
    /// facts in id order, which yields matches in premise-vector order.
    fn join(
        &self,
        rule: &Rule,
        atoms: &[&Atom],
        bindings: Bindings,
        premises: Vec<usize>,
        out: &mut Vec<Match>,
    ) -> Result<(), EvalError> {
        let Some((atom, rest)) = atoms.split_first() else {
            return self.finish(rule, bindings, premises, out);
        };
        for id in self.active(atom.predicate) {
            if let Some(extended) = unify(atom, &self.out.facts[id], &bindings) {
                let mut premises = premises.clone();
                premises.push(id);
                self.join(rule, rest, extended, premises, out)?;
            }
        }
        Ok(())
    }

    /// Completes a positive match: assignments, negation, then the
    /// conditions that do not mention the aggregate result.
    fn finish(
        &self,
        rule: &Rule,
        mut bindings: Bindings,
        premises: Vec<usize>,
        out: &mut Vec<Match>,
    ) -> Result<(), EvalError> {
        for a in &rule.assignments {
            let value = a.expr.eval(&bindings)?;
            bindings.insert(a.var, value);
        }
        for atom in rule.negated_body() {
            let facts = &self.out.facts;
            if self
                .active(atom.predicate)
                .any(|id| unify(atom, &facts[id], &bindings).is_some())
            {
                return Ok(());
            }
        }
        let result = rule.aggregate.as_ref().map(|a| a.result);
        for c in &rule.conditions {
            if !result.is_some_and(|r| mentions(c, r)) && !c.holds(&bindings)? {
                return Ok(());
            }
        }
        out.push(Match { bindings, premises });
        Ok(())
    }

    /// Fires one step of `rule`; true iff it added a fresh fact. `group`
    /// carries an aggregate step's group key and contributor rows. A
    /// constraint's step records its violation.
    fn fire(
        &mut self,
        idx: usize,
        rule: &Rule,
        bindings: Bindings,
        premises: Vec<usize>,
        group: Option<(Vec<Value>, Vec<Bindings>)>,
        round: u32,
    ) -> bool {
        let Some(head) = rule.head.atom() else {
            if !self.out.violations.contains(&rule.label) {
                self.out.violations.push(rule.label.clone());
            }
            return false;
        };
        if !rule.existential_variables().is_empty() {
            let facts = &self.out.facts;
            if self
                .active(head.predicate)
                .any(|id| unify(head, &facts[id], &bindings).is_some())
            {
                return false;
            }
        }
        let mut nulls: HashMap<Symbol, Value> = HashMap::new();
        let values = head
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(c) => *c,
                Term::Var(x) => match bindings.get(x) {
                    Some(v) => *v,
                    None => *nulls.entry(*x).or_insert_with(|| {
                        self.nulls += 1;
                        Value::Null(self.nulls)
                    }),
                },
            })
            .collect();
        let (conclusion, fresh) = self.insert(Fact {
            predicate: head.predicate,
            values,
        });
        if !self.recorded.insert((idx, conclusion, premises.clone())) {
            return false;
        }
        let contributors = match group {
            Some((key, contributors)) => {
                if let Some(previous) = self.current.insert((idx, key), conclusion) {
                    if previous != conclusion {
                        self.out.active[previous] = false;
                    }
                }
                contributors
            }
            None => Vec::new(),
        };
        self.out.steps.push(Step {
            rule: idx,
            premises,
            conclusion,
            round,
            bindings,
            contributors,
        });
        fresh
    }
}

/// `bindings` extended so that `atom` matches `fact`, if it can.
fn unify(atom: &Atom, fact: &Fact, bindings: &Bindings) -> Option<Bindings> {
    if atom.terms.len() != fact.values.len() {
        return None;
    }
    let mut extended = bindings.clone();
    for (term, value) in atom.terms.iter().zip(&fact.values) {
        match term {
            Term::Const(c) if c != value => return None,
            Term::Const(_) => {}
            Term::Var(x) => {
                if *extended.entry(*x).or_insert(*value) != *value {
                    return None;
                }
            }
        }
    }
    Some(extended)
}

/// True iff condition `c` reads variable `var`.
fn mentions(c: &vadalog::Condition, var: Symbol) -> bool {
    let mut vars = Vec::new();
    c.collect_vars(&mut vars);
    vars.contains(&var)
}

/// Folds an aggregate over its inputs in member order: an integer
/// unless some input is a float; `min`/`max` keep the first of equal
/// extremes.
fn fold(func: AggFunc, inputs: &[Value]) -> Result<Value, EvalError> {
    let number = |v: &Value| v.as_f64().ok_or(EvalError::NonNumericOperand(*v));
    match func {
        AggFunc::Count => Ok(Value::Int(inputs.len() as i64)),
        AggFunc::Sum | AggFunc::Prod => {
            let sum = func == AggFunc::Sum;
            if inputs.iter().any(|v| matches!(v, Value::Float(_))) {
                let mut acc = if sum { 0.0 } else { 1.0 };
                for v in inputs {
                    acc = if sum {
                        acc + number(v)?
                    } else {
                        acc * number(v)?
                    };
                }
                if acc.is_nan() {
                    return Err(EvalError::NanResult);
                }
                return Ok(Value::Float(acc));
            }
            let mut acc: i64 = if sum { 0 } else { 1 };
            for v in inputs {
                let Value::Int(i) = v else {
                    return Err(EvalError::NonNumericOperand(*v));
                };
                acc = if sum {
                    acc.wrapping_add(*i)
                } else {
                    acc.wrapping_mul(*i)
                };
            }
            Ok(Value::Int(acc))
        }
        AggFunc::Min | AggFunc::Max => {
            let replace = if func == AggFunc::Min {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Less
            };
            let mut best = inputs[0];
            for v in &inputs[1..] {
                let ord = best
                    .partial_cmp_values(v)
                    .ok_or(EvalError::NonNumericOperand(*v))?;
                if ord == replace {
                    best = *v;
                }
            }
            Ok(best)
        }
    }
}

// ---------------------------------------------------------------------
// Comparing with the engine
// ---------------------------------------------------------------------

/// The facts of `db` in id order: the input a reference chase of `db`
/// takes.
pub fn edb(db: &Database) -> Vec<Fact> {
    db.iter().map(|(_, f)| f.clone()).collect()
}

/// The thread counts every comparison sweeps.
pub const THREADS: [usize; 3] = [1, 2, 8];

/// Chases `db` with the engine under `config` at 1, 2 and 8 threads and
/// asserts each rendering equal to the reference chase of the same EDB,
/// restricted to `config`'s goal cone if it has one. Returns the engine's
/// outcomes in thread order.
pub fn assert_engine_matches(
    name: &str,
    program: &Program,
    db: &Database,
    config: &ChaseConfig,
) -> Vec<ChaseOutcome> {
    let mask = config.goal_cone.map(|goal| cone(program, goal));
    let expected = chase(program, &edb(db), mask.as_deref())
        .unwrap_or_else(|e| panic!("{name}: the reference chase failed: {e}"))
        .render();
    THREADS
        .iter()
        .map(|&threads| {
            let out = ChaseSession::new(program)
                .with_config(config.clone().with_threads(threads))
                .run(db.clone())
                .unwrap_or_else(|e| panic!("{name}: the chase at {threads} threads failed: {e}"));
            assert_same(
                &format!("{name} at {threads} threads"),
                &render(&out),
                &expected,
            );
            out
        })
        .collect()
}

/// Asserts two renderings equal, reporting the first line that differs
/// with the lines before it.
pub fn assert_same(name: &str, engine: &str, reference: &str) {
    if engine == reference {
        return;
    }
    let (ours, theirs): (Vec<&str>, Vec<&str>) =
        (engine.lines().collect(), reference.lines().collect());
    let at = (0..ours.len().max(theirs.len()))
        .find(|&i| ours.get(i) != theirs.get(i))
        .unwrap_or(0);
    let context = theirs[at.saturating_sub(4)..at.min(theirs.len())].join("\n");
    panic!(
        "{name}: the engine differs from the reference at line {at}\n\
         ...\n{context}\n\
         engine:    {}\n\
         reference: {}",
        ours.get(at).unwrap_or(&"<end>"),
        theirs.get(at).unwrap_or(&"<end>"),
    );
}

/// A row as `var=value` pairs sorted by text.
fn sorted<'a>(pairs: impl Iterator<Item = (Symbol, &'a Value)>) -> String {
    let mut pairs: Vec<String> = pairs.map(|(k, v)| format!("{k}={v}")).collect();
    pairs.sort();
    pairs.join(",")
}

/// What a rendering shows of one derivation.
struct StepText {
    rule: usize,
    premises: Vec<usize>,
    conclusion: usize,
    round: u32,
    contributors: usize,
    row: String,
    rows: Vec<String>,
}

/// Renders an outcome: every fact in id order with its liveness, every
/// derivation in recording order with its rule, premises, conclusion,
/// round, contributor count, row and contributor rows, then the rounds
/// and violations.
fn render_parts<'a>(
    facts: impl Iterator<Item = (usize, &'a Fact, bool)>,
    steps: impl Iterator<Item = StepText>,
    rounds: usize,
    violations: &[String],
) -> String {
    let mut s = String::new();
    for (id, fact, active) in facts {
        let _ = writeln!(s, "{id} {fact} active={active}");
    }
    for step in steps {
        let _ = write!(
            s,
            "r{} {:?} -> {} round={} contrib={} [{}]",
            step.rule, step.premises, step.conclusion, step.round, step.contributors, step.row
        );
        for row in step.rows {
            let _ = write!(s, " <{row}>");
        }
        let _ = writeln!(s);
    }
    let _ = write!(s, "rounds={rounds} violations={violations:?}");
    s
}

/// The rendering of an engine outcome, comparable with
/// [`Outcome::render`].
pub fn render(out: &ChaseOutcome) -> String {
    render_parts(
        out.database
            .iter()
            .map(|(id, f)| (id.0 as usize, f, out.database.is_active(id))),
        out.graph.derivations().iter().map(|d| StepText {
            rule: d.rule.0,
            premises: d.premises.iter().map(|p| p.0 as usize).collect(),
            conclusion: d.conclusion.0 as usize,
            round: d.round,
            contributors: d.contributors as usize,
            row: sorted(d.bindings.iter()),
            rows: d
                .contributor_bindings
                .iter()
                .map(|c| sorted(c.iter()))
                .collect(),
        }),
        out.rounds,
        &out.violations,
    )
}

impl Outcome {
    /// The rendering of a reference outcome, comparable with [`render`].
    pub fn render(&self) -> String {
        let row = |b: &Bindings| sorted(b.iter().map(|(k, v)| (*k, v)));
        render_parts(
            self.facts
                .iter()
                .enumerate()
                .map(|(id, f)| (id, f, self.active[id])),
            self.steps.iter().map(|s| StepText {
                rule: s.rule,
                premises: s.premises.clone(),
                conclusion: s.conclusion,
                round: s.round,
                contributors: s.contributors.len().max(1),
                row: row(&s.bindings),
                rows: s.contributors.iter().map(row).collect(),
            }),
            self.rounds as usize,
            &self.violations,
        )
    }
}

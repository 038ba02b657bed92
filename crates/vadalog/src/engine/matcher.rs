//! Body matching: enumerating homomorphisms from rule bodies into the
//! database.
//!
//! Joins are driven by a static, per-rule [`JoinPlan`]: for every body
//! atom (positive *and* negated) the plan records the probe signature —
//! the set of argument positions bound by constants or earlier atoms —
//! the positive ones once per semi-naive pivot, in that pivot's
//! pivot-first evaluation order. Callers build exactly the plan's
//! composite indexes ([`JoinPlan::required_composite_indexes`]) before
//! matching. A candidate lookup then probes *all* statically-bound
//! positions at once via [`Database::probe_composite`], instead of
//! probing one position and filtering the rest per candidate.
//!
//! [`match_chunk`] is the one matching function. It is *read-only*:
//! probes fall back to predicate scans when an index was never built
//! (same ids, same order, just slower), so it runs safely from many
//! threads over a shared `&Database` snapshot.
//!
//! Work is decomposed into [`MatchChunk`]s — disjoint slices of the
//! outermost join loop — whose results, concatenated in chunk order,
//! reproduce the sequential enumeration exactly. This is what makes the
//! parallel chase phase deterministic: enumeration order is a property of
//! the plan and the chunk list, never of thread scheduling.

use crate::atom::Atom;
use crate::database::{Database, FactId};
use crate::error::EvalError;
use crate::row::{Layout, Row, RowRef};
use crate::rule::{Head, Rule, RuleLayout};
use crate::symbol::Symbol;
use crate::term::Term;
use crate::value::Value;
use std::borrow::Cow;

/// A homomorphism from a rule body into the database: the variable
/// bindings plus the matched premise facts (one per positive body atom, in
/// body order).
#[derive(Clone, Debug)]
pub struct BodyMatch {
    /// The substitution θ, as a row of the rule's match layout
    /// ([`RuleLayout::matched`]).
    pub bindings: Row,
    /// Matched facts, aligned with the rule's positive body atoms.
    pub premises: Vec<FactId>,
}

/// Index-vs-scan counters of one matching call, accumulated into the
/// per-rule [`RuleStats`](crate::telemetry::RuleStats) by the engine.
///
/// **Thread invariance:** for chunked work the outermost candidate lookup
/// happens once per chunk, but it is *counted* only by chunk 0 — so the
/// counters are identical no matter how many chunks (threads) the work
/// was split into. Inner-depth lookups run once per outer candidate and
/// sum invariantly by construction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MatchMetrics {
    /// Candidate lookups served by a positional index probe.
    pub index_probes: u64,
    /// Candidate lookups served by a predicate scan (no bound position,
    /// or an index that was never built).
    pub scans: u64,
    /// Subset of `index_probes` whose signature bound two or more
    /// positions at once (a genuinely composite probe).
    pub composite_probes: u64,
    /// Negated-atom checks served by an index probe. Counted once per
    /// complete positive match (in `finish_match`), so invariant across
    /// chunk counts by construction.
    pub negation_probes: u64,
    /// Negated-atom checks served by a full predicate scan.
    pub negation_scans: u64,
}

impl MatchMetrics {
    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &MatchMetrics) {
        self.index_probes += other.index_probes;
        self.scans += other.scans;
        self.composite_probes += other.composite_probes;
        self.negation_probes += other.negation_probes;
        self.negation_scans += other.negation_scans;
    }
}

/// One unit of matching work against an immutable database snapshot.
///
/// A full match evaluates the positive atoms in body order. A delta
/// match (`pivot` set) evaluates the pivot atom first, restricted to
/// facts past the watermark, then the other atoms in body order: the
/// restriction lands at join depth 0, so the work is proportional to the
/// delta's extensions rather than to the join prefix before the pivot.
/// Either way the premises come back in body order.
///
/// `part`/`parts` slice the outermost candidate loop of the join: chunk
/// `(i, n)` enumerates the `i`-th of `n` contiguous slices of the first
/// evaluated atom's candidate list. Concatenating the results of chunks
/// `(0, n) .. (n-1, n)` yields exactly the unchunked enumeration, for any
/// `n` — the parallel chase phase relies on this invariance.
#[derive(Clone, Copy, Debug)]
pub struct MatchChunk {
    /// Delta restriction: `Some((pivot, watermark))` evaluates the
    /// `pivot`-th positive body atom first, restricted to facts whose id
    /// is at least `watermark` (one pivot per semi-naive expansion
    /// step); `None` matches fully.
    pub pivot: Option<(usize, u32)>,
    /// Zero-based index of this slice of the outermost candidate loop.
    pub part: usize,
    /// Total number of slices the outermost loop is split into.
    pub parts: usize,
}

impl MatchChunk {
    /// The full, unchunked match of a rule body.
    pub fn full() -> MatchChunk {
        MatchChunk {
            pivot: None,
            part: 0,
            parts: 1,
        }
    }

    /// An unchunked delta expansion for one pivot.
    pub fn delta(pivot: usize, watermark: u32) -> MatchChunk {
        MatchChunk {
            pivot: Some((pivot, watermark)),
            part: 0,
            parts: 1,
        }
    }
}

/// The static join plan of one rule: the composite probe signature of
/// every positive body atom in each pivot-first evaluation order, plus
/// the signatures of the negated atoms and of the head-satisfaction
/// check.
///
/// At join depth `d` the bound variables are exactly the variables of the
/// atoms evaluated before it (every candidate binds all of its atom's
/// variables), so the set of bound argument positions of each atom is a
/// static property of the rule and the evaluation order. The plan
/// records that full set per positive atom and order; `candidates_for`
/// probes the matching composite index with all of them bound at once.
/// Negated atoms are checked once per complete positive match, when the
/// body variables and assignment results are all bound — their
/// signature is every position holding a constant or such a variable.
/// The head signature covers the restricted chase's satisfaction check
/// for existentially-quantified heads: every position holding a
/// constant or a non-existential variable.
///
/// The plan determines which indexes exist, never which facts match:
/// probes and scans yield identical candidate lists (insertion order), so
/// enumeration order is a property of the rule, the chunk and the
/// database — never of thread scheduling.
///
/// The plan also holds the rule's [`RuleLayout`] and, compiled against
/// it, what each argument of each atom does: at join depth `d` the slots
/// bound so far are as static as the probe signature, so every argument
/// either checks a constant, checks a bound slot, or binds a fresh one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinPlan {
    /// Per positive body atom `p`, the delta expansion pivoting on it:
    /// the positive atoms in evaluation order — `p` first, then the rest
    /// in body order — as `(body index, probe signature)` pairs, the
    /// signature being the statically-bound argument positions
    /// (ascending; empty = no bound position, scan). Pivot 0's order is
    /// the body order, which full matches use too.
    pub pivots: Vec<Vec<(usize, Vec<usize>)>>,
    /// Per negated body atom, in body order: the positions bound by the
    /// rule's positive body and assignments.
    pub negated: Vec<Vec<usize>>,
    /// Probe signature of the head-satisfaction check, for rules with an
    /// existentially-quantified head; `None` when the rule has no
    /// existentials or no position is statically bound.
    pub head: Option<Vec<usize>>,
    /// The rule's row layouts.
    pub(crate) layout: RuleLayout,
    /// Per pivot order, per atom in evaluation order: its arguments
    /// against the match layout.
    args: Vec<Vec<Vec<Arg>>>,
    /// Per negated atom: its arguments against the full match row
    /// (unbound variables are wildcards).
    negated_args: Vec<Vec<Arg>>,
    /// Per assignment: the slot it writes. Program validation makes each
    /// target fresh, so the slots before it — the body variables and the
    /// earlier assignments — are exactly what it may read.
    assignment_slots: Vec<usize>,
    /// The head arguments against the head layout
    /// ([`RuleLayout::head`]); [`Arg::Free`] marks an existential.
    head_args: Vec<Arg>,
}

/// What one argument of an atom does against a row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arg {
    /// A constant the fact must carry.
    Const(Value),
    /// A variable whose slot is bound before this argument: the fact must
    /// carry its value.
    Bound(usize),
    /// A variable first seen here: the argument writes its slot.
    Binds(usize),
    /// A variable no slot binds: a wildcard in negated atoms and in the
    /// satisfaction check, a fresh null in the head. An existential
    /// carries its index in [`RuleLayout::existentials`].
    Free(Option<usize>),
}

impl Arg {
    /// The value the argument is pinned to in `row`, `None` for a
    /// wildcard (a variable not yet bound).
    fn pinned(self, row: &[Value]) -> Option<Value> {
        match self {
            Arg::Const(v) => Some(v),
            Arg::Bound(slot) => Some(row[slot]),
            Arg::Binds(_) | Arg::Free(_) => None,
        }
    }
}

impl JoinPlan {
    /// The composite plan of `rule`.
    pub fn for_rule(rule: &Rule) -> JoinPlan {
        let layout = RuleLayout::of(rule);
        let atoms: Vec<&Atom> = rule.positive_body().collect();
        let n = atoms.len();
        let mut pivots = Vec::with_capacity(n);
        let mut args = Vec::with_capacity(n);
        for p in 0..n {
            let mut bound = vec![false; layout.matched.len()];
            let mut order = Vec::with_capacity(n);
            let mut order_args = Vec::with_capacity(n);
            for i in std::iter::once(p).chain((0..n).filter(|&i| i != p)) {
                // A variable repeated within the atom is checked, not
                // probed: only slots bound by earlier atoms join the
                // signature, mirroring the row at candidate-lookup time.
                let before = bound.clone();
                let atom_args: Vec<Arg> = atoms[i]
                    .terms
                    .iter()
                    .map(|t| match *t {
                        Term::Const(v) => Arg::Const(v),
                        Term::Var(v) => {
                            let slot = layout.matched.position(v).expect("body variable");
                            if std::mem::replace(&mut bound[slot], true) {
                                Arg::Bound(slot)
                            } else {
                                Arg::Binds(slot)
                            }
                        }
                    })
                    .collect();
                let signature = (0..atom_args.len())
                    .filter(|&k| match atom_args[k] {
                        Arg::Const(_) => true,
                        Arg::Bound(slot) => before[slot],
                        Arg::Binds(_) | Arg::Free(_) => false,
                    })
                    .collect();
                order.push((i, signature));
                order_args.push(atom_args);
            }
            pivots.push(order);
            args.push(order_args);
        }
        let resolve = |t: &Term, within: Layout| match *t {
            Term::Const(v) => Arg::Const(v),
            Term::Var(v) => match within.position(v) {
                Some(slot) => Arg::Bound(slot),
                None => Arg::Free(layout.existentials.iter().position(|&e| e == v)),
            },
        };
        // Negation runs after the assignments of a complete match, so
        // every slot of the match layout is bound.
        let negated_args: Vec<Vec<Arg>> = rule
            .negated_body()
            .map(|atom| {
                atom.terms
                    .iter()
                    .map(|t| resolve(t, layout.matched))
                    .collect()
            })
            .collect();
        let negated = negated_args
            .iter()
            .map(|args| pinned_positions(args))
            .collect();
        let assignment_slots: Vec<usize> = rule
            .assignments
            .iter()
            .map(|a| layout.matched.position(a.var).expect("assignment variable"))
            .collect();
        let (head, head_args) = match &rule.head {
            Head::Atom(h) => {
                let head_args: Vec<Arg> =
                    h.terms.iter().map(|t| resolve(t, layout.head())).collect();
                let sig = pinned_positions(&head_args);
                let probed = !layout.existentials.is_empty() && !sig.is_empty();
                (probed.then_some(sig), head_args)
            }
            Head::Falsum => (None, Vec::new()),
        };
        JoinPlan {
            pivots,
            negated,
            head,
            layout,
            args,
            negated_args,
            assignment_slots,
            head_args,
        }
    }

    /// The satisfaction pattern of the head under the step row `row`:
    /// the bound head values, `None` at existential positions.
    pub(crate) fn head_pattern(&self, row: &[Value]) -> Vec<Option<Value>> {
        self.head_args.iter().map(|a| a.pinned(row)).collect()
    }

    /// The head values under the step row `row`, with `null(k)` supplying
    /// the value of the `k`-th existential variable. An unbound head
    /// variable that is not existential is an evaluation error.
    pub(crate) fn head_values(
        &self,
        rule: &Rule,
        row: &[Value],
        mut null: impl FnMut(usize) -> Value,
    ) -> Result<Vec<Value>, EvalError> {
        let head = rule.head.atom().expect("only head atoms are instantiated");
        // Sized exactly: the values become the stored fact.
        let mut values = Vec::with_capacity(self.head_args.len());
        for (arg, term) in self.head_args.iter().zip(&head.terms) {
            values.push(match *arg {
                Arg::Free(Some(k)) => null(k),
                Arg::Free(_) | Arg::Binds(_) => {
                    return Err(EvalError::UnboundVariable(
                        term.as_var().expect("free head arguments are variables"),
                    ))
                }
                arg => arg.pinned(row).expect("bound head argument"),
            });
        }
        Ok(values)
    }

    /// The lookup pattern of negated atom `k` under the full match row
    /// `row`: constants and bound variables pinned, the rest wildcards.
    pub(crate) fn negated_pattern(&self, k: usize, row: &[Value]) -> Vec<Option<Value>> {
        self.negated_args[k].iter().map(|a| a.pinned(row)).collect()
    }

    /// Every composite index a chunk of this plan can probe, as
    /// `(predicate, positions)` signatures in plan order (each pivot
    /// order, negated atoms, head), deduplicated.
    pub fn required_composite_indexes(&self, rule: &Rule) -> Vec<(Symbol, Vec<usize>)> {
        let atoms: Vec<&Atom> = rule.positive_body().collect();
        let mut out: Vec<(Symbol, Vec<usize>)> = Vec::new();
        let mut push = |pred: Symbol, sig: &[usize]| {
            if !sig.is_empty() && !out.iter().any(|(p, s)| *p == pred && s == sig) {
                out.push((pred, sig.to_vec()));
            }
        };
        for (i, sig) in self.pivots.iter().flatten() {
            push(atoms[*i].predicate, sig);
        }
        for (atom, sig) in rule.negated_body().zip(&self.negated) {
            push(atom.predicate, sig);
        }
        if let (Some(head), Some(sig)) = (rule.head.atom(), &self.head) {
            push(head.predicate, sig);
        }
        out
    }

    /// Builds every index of [`JoinPlan::required_composite_indexes`]
    /// that `db` lacks, so that no chunk of this plan scans for want of
    /// one.
    pub(crate) fn build_indexes(&self, rule: &Rule, db: &mut Database) {
        for (pred, sig) in self.required_composite_indexes(rule) {
            db.ensure_composite_index(pred, &sig);
        }
    }
}

/// The positions of `args` pinned to a constant or a bound slot,
/// ascending.
fn pinned_positions(args: &[Arg]) -> Vec<usize> {
    (0..args.len())
        .filter(|&i| matches!(args[i], Arg::Const(_) | Arg::Bound(_)))
        .collect()
}

/// Runs one [`MatchChunk`] of `rule`'s body against an immutable
/// database snapshot, with `plan` (the rule's [`JoinPlan`]) choosing the
/// probes and `metrics` accumulating the index/scan counters. For
/// chunked work (`parts > 1`) only chunk 0 counts the outermost lookup,
/// keeping the totals identical at any chunk count.
///
/// Evaluation per match, in order: positive atoms (backtracking join,
/// probing composite indexes on already-bound arguments), assignments,
/// negated atoms, then every condition *not* involving the aggregate
/// result. Conditions over the aggregate result are the caller's
/// responsibility (they can only be checked after grouping).
///
/// Requires only `&Database`: index probes that miss (index never built)
/// fall back to a predicate scan, so results never depend on which indexes
/// exist — only speed does.
pub fn match_chunk(
    db: &Database,
    rule: &Rule,
    plan: &JoinPlan,
    chunk: &MatchChunk,
    metrics: &mut MatchMetrics,
) -> Result<Vec<BodyMatch>, EvalError> {
    let body: Vec<&Atom> = rule.positive_body().collect();
    // A full match is pivot 0 (body order) without a restriction.
    let (pivot, watermark) = chunk.pivot.unwrap_or((0, 0));
    let order = plan.pivots.get(pivot).map_or(&[][..], Vec::as_slice);
    let args = plan.args.get(pivot).map_or(&[][..], Vec::as_slice);
    let atoms: Vec<AtomPlan> = order
        .iter()
        .zip(args)
        .enumerate()
        .map(|(k, ((i, probe), args))| AtomPlan {
            atom: body[*i],
            probe,
            args,
            min_fact: if k == 0 { watermark } else { 0 },
        })
        .collect();
    let mut out = Vec::new();
    // Slots not yet bound hold a placeholder that no argument reads: the
    // plan binds each slot before any argument checks it.
    let mut row = vec![Value::Bool(false); plan.layout.matched.len()];
    let mut premises = Vec::with_capacity(atoms.len());
    join(
        db,
        rule,
        plan,
        &atoms,
        0,
        (chunk.part, chunk.parts),
        &mut row,
        &mut premises,
        &mut out,
        metrics,
    )?;
    if pivot > 0 {
        // `join` records premises in evaluation order; restore body
        // order so dedup and provenance see the canonical vector.
        for m in &mut out {
            let mut body_order = vec![FactId(0); order.len()];
            for (&(i, _), &id) in order.iter().zip(&m.premises) {
                body_order[i] = id;
            }
            m.premises = body_order;
        }
    }
    Ok(out)
}

/// One body atom with its planned probe, arguments and candidate
/// restriction.
struct AtomPlan<'a> {
    atom: &'a Atom,
    /// The statically-bound positions this atom's lookup probes
    /// (ascending; empty = unconstrained scan).
    probe: &'a [usize],
    /// What each argument checks or binds.
    args: &'a [Arg],
    /// Only facts with id >= this participate (0 = unrestricted).
    min_fact: u32,
}

/// The candidate facts for `atom` under the slots bound in `row`, in
/// insertion (= ascending id) order, before the activity and watermark
/// filters. Probes the composite index on the atom's planned signature
/// when available — borrowing its posting list — and scans (filtering on
/// the same positions) otherwise: identical ids in identical order
/// either way.
fn candidates_for<'d>(
    db: &'d Database,
    plan: &AtomPlan<'_>,
    row: &[Value],
    metrics: &mut MatchMetrics,
    count: bool,
) -> Cow<'d, [FactId]> {
    let atom = plan.atom;
    let probe = plan.probe;
    // Every planned position holds a constant or a variable bound by an
    // earlier atom, so the key is always fully resolvable.
    let key: Vec<Value> = probe
        .iter()
        .map(|&p| plan.args[p].pinned(row).expect("probed position is bound"))
        .collect();
    if probe.is_empty() {
        if count {
            metrics.scans += 1;
        }
        Cow::Borrowed(db.facts_of(atom.predicate))
    } else {
        match db.probe_composite(atom.predicate, probe, &key) {
            Some(hits) => {
                if count {
                    metrics.index_probes += 1;
                    if probe.len() > 1 {
                        metrics.composite_probes += 1;
                    }
                }
                Cow::Borrowed(hits)
            }
            // Index never built: scan the predicate and filter on the
            // same positions — same ids, same order, just slower.
            None => {
                if count {
                    metrics.scans += 1;
                }
                Cow::Owned(
                    db.facts_of(atom.predicate)
                        .iter()
                        .copied()
                        .filter(|&id| {
                            let f = db.fact(id);
                            probe
                                .iter()
                                .zip(&key)
                                .all(|(&p, v)| f.values.get(p) == Some(v))
                        })
                        .collect(),
                )
            }
        }
    }
}

/// The contiguous slice of `len` outermost candidates owned by chunk
/// `part` of `parts`.
fn chunk_bounds(len: usize, part: usize, parts: usize) -> (usize, usize) {
    let parts = parts.max(1);
    let base = len / parts;
    let extra = len % parts;
    // The first `extra` chunks get one additional candidate each.
    let start = part * base + part.min(extra);
    let size = base + usize::from(part < extra);
    (start.min(len), (start + size).min(len))
}

/// The backtracking join over `atoms` (in evaluation order) from `depth`
/// on. `slice` is the `(part, parts)` share of the outermost loop this
/// chunk owns; it applies at depth 0 only. Each candidate writes the
/// slots its atom binds into `row` and checks the ones bound before; a
/// slot bound at depth `d` is rewritten by the next candidate at `d`
/// before anything reads it again, so backtracking needs no undo.
/// Assignments write only the slots past the body variables.
#[allow(clippy::too_many_arguments)]
fn join(
    db: &Database,
    rule: &Rule,
    plan: &JoinPlan,
    atoms: &[AtomPlan<'_>],
    depth: usize,
    slice: (usize, usize),
    row: &mut [Value],
    premises: &mut Vec<FactId>,
    out: &mut Vec<BodyMatch>,
    metrics: &mut MatchMetrics,
) -> Result<(), EvalError> {
    if depth == atoms.len() {
        if let Some(m) = finish_match(db, rule, plan, row, premises, metrics)? {
            out.push(m);
        }
        return Ok(());
    }
    let atom_plan = &atoms[depth];

    // The outermost lookup runs once per chunk: only chunk 0 counts it,
    // so metric totals do not depend on how the work was split.
    let (part, parts) = slice;
    let count = depth > 0 || part == 0;
    let candidates = candidates_for(db, atom_plan, row, metrics, count);
    let live = |id: &FactId| id.0 >= atom_plan.min_fact && db.is_active(*id);
    // The outermost loop is sliced over the live candidates; inner loops
    // read the posting list in place.
    let outer: Vec<FactId>;
    let ids: &[FactId] = if depth == 0 {
        outer = candidates.iter().copied().filter(live).collect();
        let (lo, hi) = chunk_bounds(outer.len(), part, parts);
        &outer[lo..hi]
    } else {
        &candidates
    };

    for &id in ids.iter().filter(|id| depth == 0 || live(id)) {
        let fact = db.fact(id);
        if fact.values.len() != atom_plan.args.len() {
            continue;
        }
        let consistent = atom_plan
            .args
            .iter()
            .zip(&fact.values)
            .all(|(arg, &value)| match *arg {
                Arg::Const(c) => c == value,
                Arg::Bound(slot) => row[slot] == value,
                Arg::Binds(slot) => {
                    row[slot] = value;
                    true
                }
                Arg::Free(_) => true,
            });
        if consistent {
            premises.push(id);
            join(
                db,
                rule,
                plan,
                atoms,
                depth + 1,
                slice,
                row,
                premises,
                out,
                metrics,
            )?;
            premises.pop();
        }
    }
    Ok(())
}

/// Completes a full-atom match: assignments, negation, pre-aggregate
/// conditions. Returns the finished match, or `None` if a check failed.
/// Runs once per complete positive match, so the negation counters it
/// feeds are invariant across chunk counts by construction.
///
/// The assignments write into `row`. Their slots lie past the body
/// variables, so no atom of the join reads them.
fn finish_match(
    db: &Database,
    rule: &Rule,
    plan: &JoinPlan,
    row: &mut [Value],
    premises: &[FactId],
    metrics: &mut MatchMetrics,
) -> Result<Option<BodyMatch>, EvalError> {
    let layout = plan.layout.matched;
    // Each assignment reads the body variables and the assignments
    // before it.
    for (a, &slot) in rule.assignments.iter().zip(&plan.assignment_slots) {
        row[slot] = a.expr.eval(&RowRef::new(layout, &row[..slot]))?;
    }

    // Negated atoms: fail the match if any fact matches under θ. The
    // lookup probes the widest composite index whose positions are all
    // bound (built from the rule's JoinPlan), scanning only when none
    // exists.
    for (k, atom) in rule.negated_body().enumerate() {
        let pattern = plan.negated_pattern(k, row);
        let (hit, probed) = db.find_matching_metered(atom.predicate, &pattern);
        if probed {
            metrics.negation_probes += 1;
        } else {
            metrics.negation_scans += 1;
        }
        if hit.is_some() {
            return Ok(None);
        }
    }

    // Conditions over the aggregate result are checked by the chase
    // after grouping.
    let full = RowRef::new(layout, row);
    for &c in &plan.layout.pre_conditions {
        if !rule.conditions[c].holds(&full)? {
            return Ok(None);
        }
    }

    Ok(Some(BodyMatch {
        bindings: Row::new(layout, Box::from(&*row)),
        premises: premises.to_vec(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Condition, Expr};
    use crate::rule::RuleBuilder;
    use crate::symbol::Symbol;

    fn own_db() -> Database {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        db.add("own", &["A".into(), "C".into(), 0.4.into()]);
        db.add("own", &["B".into(), "C".into(), 0.3.into()]);
        db
    }

    /// Plans `rule`, builds its indexes on `db` and runs one full match,
    /// counting into `metrics`.
    fn match_all_metered(
        db: &mut Database,
        rule: &Rule,
        metrics: &mut MatchMetrics,
    ) -> Vec<BodyMatch> {
        let plan = JoinPlan::for_rule(rule);
        plan.build_indexes(rule, db);
        match_chunk(db, rule, &plan, &MatchChunk::full(), metrics).unwrap()
    }

    fn match_all(db: &mut Database, rule: &Rule) -> Vec<BodyMatch> {
        match_all_metered(db, rule, &mut MatchMetrics::default())
    }

    /// One full match on `db` as it is: no index is built, so every
    /// lookup takes the scan fallback.
    fn match_cold(db: &Database, rule: &Rule, metrics: &mut MatchMetrics) -> Vec<BodyMatch> {
        let plan = JoinPlan::for_rule(rule);
        match_chunk(db, rule, &plan, &MatchChunk::full(), metrics).unwrap()
    }

    pub(super) fn two_hop_rule() -> Rule {
        RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("z"), Term::var("s1")],
            ))
            .body(Atom::new(
                "own",
                vec![Term::var("z"), Term::var("y"), Term::var("s2")],
            ))
            .head(Atom::new("p", vec![Term::var("x"), Term::var("y")]))
    }

    #[test]
    fn single_atom_matching_binds_all_rows() {
        let mut db = own_db();
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("y"), Term::var("s")],
            ))
            .head(Atom::new("p", vec![Term::var("x")]));
        let ms = match_all(&mut db, &rule);
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn conditions_filter_matches() {
        let mut db = own_db();
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("y"), Term::var("s")],
            ))
            .condition(Condition::new(
                Expr::var("s"),
                CmpOp::Gt,
                Expr::constant(0.5f64),
            ))
            .head(Atom::new("control", vec![Term::var("x"), Term::var("y")]));
        let ms = match_all(&mut db, &rule);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].bindings.get(Symbol::new("y")), Some(&Value::str("B")));
    }

    #[test]
    fn join_respects_shared_variables() {
        let mut db = own_db();
        // own(x,z,_), own(z,y,_) : A->B->C is the only 2-hop chain.
        let ms = match_all(&mut db, &two_hop_rule());
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].bindings.get(Symbol::new("x")), Some(&Value::str("A")));
        assert_eq!(ms[0].bindings.get(Symbol::new("y")), Some(&Value::str("C")));
        assert_eq!(ms[0].premises.len(), 2);
    }

    #[test]
    fn repeated_variable_in_one_atom_requires_equality() {
        let mut db = Database::new();
        db.add("edge", &["A".into(), "A".into()]);
        db.add("edge", &["A".into(), "B".into()]);
        let rule = RuleBuilder::new("r")
            .body(Atom::new("edge", vec![Term::var("x"), Term::var("x")]))
            .head(Atom::new("loop", vec![Term::var("x")]));
        let ms = match_all(&mut db, &rule);
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn constants_in_body_atoms_filter() {
        let mut db = own_db();
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::constant("A"), Term::var("y"), Term::var("s")],
            ))
            .head(Atom::new("p", vec![Term::var("y")]));
        let ms = match_all(&mut db, &rule);
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn negated_atom_blocks_matches() {
        let mut db = own_db();
        db.add("blocked", &["A".into()]);
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("y"), Term::var("s")],
            ))
            .body_not(Atom::new("blocked", vec![Term::var("x")]))
            .head(Atom::new("p", vec![Term::var("x"), Term::var("y")]));
        let ms = match_all(&mut db, &rule);
        // A's two rows are blocked; only B->C remains.
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].bindings.get(Symbol::new("x")), Some(&Value::str("B")));
    }

    #[test]
    fn assignments_extend_bindings() {
        let mut db = own_db();
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("y"), Term::var("s")],
            ))
            .assign(
                "pct",
                Expr::binary(
                    crate::expr::ArithOp::Mul,
                    Expr::var("s"),
                    Expr::constant(100.0f64),
                ),
            )
            // A later assignment reads the earlier one.
            .assign(
                "half",
                Expr::binary(
                    crate::expr::ArithOp::Div,
                    Expr::var("pct"),
                    Expr::constant(2i64),
                ),
            )
            .head(Atom::new("p", vec![Term::var("x"), Term::var("pct")]));
        let ms = match_all(&mut db, &rule);
        let value = |m: &BodyMatch, var: &str| m.bindings.get(Symbol::new(var)).unwrap().as_f64();
        let pcts: Vec<f64> = ms.iter().map(|m| value(m, "pct").unwrap()).collect();
        assert!(pcts.contains(&60.0));
        for m in &ms {
            assert_eq!(value(m, "half"), value(m, "pct").map(|p| p / 2.0));
        }

        // An assignment cannot read one that runs after it.
        let early = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("y"), Term::var("s")],
            ))
            .assign("a", Expr::var("b"))
            .assign("b", Expr::var("s"))
            .head(Atom::new("p", vec![Term::var("a")]));
        let plan = JoinPlan::for_rule(&early);
        assert!(matches!(
            match_chunk(&db, &early, &plan, &MatchChunk::full(), &mut MatchMetrics::default()),
            Err(EvalError::UnboundVariable(v)) if v == Symbol::new("b")
        ));
    }

    /// `p(x,y), r(y,z)[, s(y,w)], y = y + 1`: the assignment rewrites a
    /// body variable the join still reads.
    #[test]
    fn post_aggregate_conditions_are_deferred() {
        let mut db = own_db();
        // ts = sum(s), ts > 10 : the condition must NOT filter individual
        // matches (no single share exceeds 10).
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("y"), Term::var("s")],
            ))
            .aggregate(crate::rule::AggFunc::Sum, "ts", Expr::var("s"))
            .condition(Condition::new(
                Expr::var("ts"),
                CmpOp::Gt,
                Expr::constant(10.0f64),
            ))
            .head(Atom::new("p", vec![Term::var("x"), Term::var("ts")]));
        let ms = match_all(&mut db, &rule);
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn missing_index_falls_back_to_scan() {
        // Matching on a cold database (no indexes built) must agree with
        // the indexed path, for a constant probe and for a join.
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::constant("A"), Term::var("y"), Term::var("s")],
            ))
            .head(Atom::new("p", vec![Term::var("y")]));
        let mut db = own_db();
        db.add("own", &["C".into(), "D".into(), 0.7.into()]);
        for rule in [rule, two_hop_rule()] {
            let cold = match_cold(&db, &rule, &mut MatchMetrics::default());
            assert!(!db.has_index(Symbol::new("own"), 0));
            let mut warm_db = db.clone();
            let warm = match_all(&mut warm_db, &rule);
            assert!(warm_db.has_index(Symbol::new("own"), 0));
            assert!(!warm.is_empty());
            assert_eq!(cold.len(), warm.len());
            for (a, b) in cold.iter().zip(&warm) {
                assert_eq!(a.premises, b.premises);
                assert_eq!(a.bindings, b.bindings);
            }
        }
    }

    #[test]
    fn chunked_enumeration_equals_sequential_for_any_part_count() {
        let mut db = own_db();
        db.add("own", &["C".into(), "D".into(), 0.7.into()]);
        db.add("own", &["B".into(), "D".into(), 0.2.into()]);
        let rule = two_hop_rule();
        let plan = JoinPlan::for_rule(&rule);
        let full = match_all(&mut db, &rule);
        for parts in 1..=7 {
            let mut concat = Vec::new();
            for part in 0..parts {
                let chunk = MatchChunk {
                    pivot: None,
                    part,
                    parts,
                };
                concat.extend(
                    match_chunk(&db, &rule, &plan, &chunk, &mut MatchMetrics::default()).unwrap(),
                );
            }
            assert_eq!(concat.len(), full.len(), "parts {parts}");
            for (a, b) in concat.iter().zip(&full) {
                assert_eq!(a.premises, b.premises, "parts {parts}");
            }
        }
    }

    #[test]
    fn match_metrics_are_invariant_across_chunk_counts() {
        let mut db = own_db();
        db.add("own", &["C".into(), "D".into(), 0.7.into()]);
        db.add("own", &["B".into(), "D".into(), 0.2.into()]);
        let rule = two_hop_rule();
        let plan = JoinPlan::for_rule(&rule);
        // Build the statically-required indexes once.
        let mut reference = MatchMetrics::default();
        match_all_metered(&mut db, &rule, &mut reference);
        assert!(reference.index_probes > 0);
        assert!(reference.scans > 0); // the outermost atom has no bound position
        for pivot in [None, Some((1, 3))] {
            let mut reference = MatchMetrics::default();
            let chunk = MatchChunk {
                pivot,
                part: 0,
                parts: 1,
            };
            match_chunk(&db, &rule, &plan, &chunk, &mut reference).unwrap();
            for parts in 2..=5 {
                let mut m = MatchMetrics::default();
                for part in 0..parts {
                    let chunk = MatchChunk { pivot, part, parts };
                    match_chunk(&db, &rule, &plan, &chunk, &mut m).unwrap();
                }
                assert_eq!(m, reference, "pivot {pivot:?} parts {parts}");
            }
        }
    }

    #[test]
    fn missing_indexes_count_scans_only() {
        let db = own_db();
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::constant("A"), Term::var("y"), Term::var("s")],
            ))
            .head(Atom::new("p", vec![Term::var("y")]));
        let mut m = MatchMetrics::default();
        match_cold(&db, &rule, &mut m);
        assert_eq!(m.index_probes, 0);
        assert!(m.scans > 0);
    }

    #[test]
    fn join_plan_signatures_cover_positive_negated_and_head_atoms() {
        // own(x,z,s1), own(z,y,s2), not blocked(z,y) -> p(x,y,w) with w
        // existential: atom 0 has no bound position, atom 1 probes [0],
        // the negated atom is fully bound, the head probes its
        // non-existential positions.
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("z"), Term::var("s1")],
            ))
            .body(Atom::new(
                "own",
                vec![Term::var("z"), Term::var("y"), Term::var("s2")],
            ))
            .body_not(Atom::new("blocked", vec![Term::var("z"), Term::var("y")]))
            .head(Atom::new(
                "p",
                vec![Term::var("x"), Term::var("y"), Term::var("w")],
            ));
        let plan = JoinPlan::for_rule(&rule);
        assert_eq!(plan.negated, vec![vec![0, 1]]);
        assert_eq!(plan.head, Some(vec![0, 1]));
        // Pivot 0 is the body order; pivot 1 evaluates own(z,y,s2) first,
        // so own(x,z,s1) then probes z at position 1.
        assert_eq!(plan.pivots[0], vec![(0, vec![]), (1, vec![0])]);
        assert_eq!(plan.pivots[1], vec![(1, vec![]), (0, vec![1])]);
        let sigs = plan.required_composite_indexes(&rule);
        assert_eq!(
            sigs,
            vec![
                (Symbol::new("own"), vec![0]),
                (Symbol::new("own"), vec![1]),
                (Symbol::new("blocked"), vec![0, 1]),
                (Symbol::new("p"), vec![0, 1]),
            ]
        );
    }

    #[test]
    fn join_plan_assignment_variables_bind_negated_positions() {
        // pct is only bound after the assignment; the negated atom's
        // second position still counts as bound.
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("y"), Term::var("s")],
            ))
            .assign(
                "pct",
                Expr::binary(
                    crate::expr::ArithOp::Mul,
                    Expr::var("s"),
                    Expr::constant(100.0f64),
                ),
            )
            .body_not(Atom::new("cap", vec![Term::var("x"), Term::var("pct")]))
            .head(Atom::new("p", vec![Term::var("x")]));
        let plan = JoinPlan::for_rule(&rule);
        assert_eq!(plan.negated, vec![vec![0, 1]]);
        assert_eq!(plan.head, None, "no existentials, no satisfaction probe");
    }

    #[test]
    fn composite_probe_agrees_with_scan_and_counts_composites() {
        // Triangle closure: the third atom has two bound positions, so the
        // planned join probes a genuinely composite (edge, [0, 1]) index.
        let mut db = Database::new();
        for (a, b) in [
            ("A", "B"),
            ("B", "C"),
            ("A", "C"),
            ("C", "D"),
            ("B", "D"),
            ("A", "D"),
        ] {
            db.add("edge", &[a.into(), b.into()]);
        }
        let rule = RuleBuilder::new("tri")
            .body(Atom::new("edge", vec![Term::var("x"), Term::var("y")]))
            .body(Atom::new("edge", vec![Term::var("y"), Term::var("z")]))
            .body(Atom::new("edge", vec![Term::var("x"), Term::var("z")]))
            .head(Atom::new(
                "triangle",
                vec![Term::var("x"), Term::var("y"), Term::var("z")],
            ));
        let plan = JoinPlan::for_rule(&rule);
        assert_eq!(
            plan.pivots[0],
            vec![(0, vec![]), (1, vec![0]), (2, vec![0, 1])]
        );
        let scanned = match_cold(&db, &rule, &mut MatchMetrics::default());
        let mut metrics = MatchMetrics::default();
        let indexed = match_all_metered(&mut db, &rule, &mut metrics);
        assert!(metrics.composite_probes > 0);
        assert!(db.has_composite_index(Symbol::new("edge"), &[0, 1]));
        assert_eq!(indexed.len(), scanned.len());
        assert!(!indexed.is_empty());
        for (a, b) in indexed.iter().zip(&scanned) {
            assert_eq!(a.premises, b.premises);
        }
    }

    #[test]
    fn negation_probes_an_index_when_built_and_scans_otherwise() {
        let mut db = own_db();
        db.add("blocked", &["A".into()]);
        db.add("blocked", &["Z".into()]);
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("y"), Term::var("s")],
            ))
            .body_not(Atom::new("blocked", vec![Term::var("x")]))
            .head(Atom::new("p", vec![Term::var("x"), Term::var("y")]));
        // Without the planned index the check scans.
        let mut metrics = MatchMetrics::default();
        let scanned = match_cold(&db, &rule, &mut metrics);
        assert_eq!(metrics.negation_probes, 0);
        assert_eq!(metrics.negation_scans, 3);
        let mut metrics = MatchMetrics::default();
        let ms = match_all_metered(&mut db, &rule, &mut metrics);
        assert_eq!(ms.len(), 1);
        // One negation check per complete positive match, all indexed.
        assert_eq!(metrics.negation_probes, 3);
        assert_eq!(metrics.negation_scans, 0);
        assert_eq!(ms.len(), scanned.len());
    }

    #[test]
    fn empty_predicate_yields_no_matches() {
        let mut db = Database::new();
        let rule = RuleBuilder::new("r")
            .body(Atom::new("nothing", vec![Term::var("x")]))
            .head(Atom::new("p", vec![Term::var("x")]));
        assert!(match_all(&mut db, &rule).is_empty());
    }
}

#[cfg(test)]
mod pivot_tests {
    //! Delta chunks: each pivot evaluates first, restricted to facts past
    //! the watermark, and hands back premises in body order.
    use super::tests::two_hop_rule;
    use super::*;

    /// The premise vectors of one delta chunk, on a fully indexed store.
    fn pivot_premises(db: &mut Database, pivot: usize, watermark: u32) -> Vec<Vec<FactId>> {
        let rule = two_hop_rule();
        let plan = JoinPlan::for_rule(&rule);
        plan.build_indexes(&rule, db);
        let chunk = MatchChunk::delta(pivot, watermark);
        match_chunk(db, &rule, &plan, &chunk, &mut MatchMetrics::default())
            .unwrap()
            .into_iter()
            .map(|m| m.premises)
            .collect()
    }

    fn chain_db() -> Database {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        db.add("own", &["B".into(), "C".into(), 0.7.into()]);
        db.add("own", &["C".into(), "D".into(), 0.8.into()]);
        db
    }

    #[test]
    fn watermark_zero_pivots_each_reproduce_the_full_match() {
        let mut db = chain_db();
        let full = pivot_premises(&mut db, 0, 0);
        assert_eq!(
            full,
            vec![vec![FactId(0), FactId(1)], vec![FactId(1), FactId(2)]]
        );
        // Pivot 1 enumerates in the order of its own first atom, but the
        // premise vectors are in body order.
        let mut second = pivot_premises(&mut db, 1, 0);
        second.sort();
        assert_eq!(second, full);
    }

    #[test]
    fn pivots_return_only_matches_touching_new_facts() {
        let mut db = chain_db();
        // Only C->D (id 2) is new: B->C->D pivots on the second atom,
        // and no chain starts at C.
        assert!(pivot_premises(&mut db, 0, 2).is_empty());
        assert_eq!(
            pivot_premises(&mut db, 1, 2),
            vec![vec![FactId(1), FactId(2)]]
        );
    }

    #[test]
    fn future_watermark_yields_nothing() {
        let mut db = chain_db();
        for pivot in 0..2 {
            assert!(pivot_premises(&mut db, pivot, 999).is_empty());
        }
    }

    #[test]
    fn pivot_first_order_probes_the_pivot_signatures() {
        let mut db = chain_db();
        let rule = two_hop_rule();
        let plan = JoinPlan::for_rule(&rule);
        plan.build_indexes(&rule, &mut db);
        assert!(db.has_composite_index(Symbol::new("own"), &[1]));
        let mut m = MatchMetrics::default();
        match_chunk(&db, &rule, &plan, &MatchChunk::delta(1, 2), &mut m).unwrap();
        // One scan over the pivot atom, one probe of own[1] for the
        // single new fact.
        assert_eq!((m.scans, m.index_probes), (1, 1));
    }
}

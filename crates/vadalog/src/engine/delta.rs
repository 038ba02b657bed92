//! Incremental fixpoint maintenance: live EDB deltas over a completed
//! chase outcome.
//!
//! [`ChaseSession::apply_delta`] takes a [`Delta`] — a batch of EDB
//! additions and retractions — and maintains the fixpoint without
//! re-chasing from scratch:
//!
//! * **Additions** reuse the semi-naive round machinery: each stratum's
//!   rules are re-evaluated with per-rule delta pivots restricted to the
//!   facts added since the live outcome was sealed, so only matches
//!   touching the extension are enumerated.
//! * **Retractions** run DRed (delete-and-re-derive): the retracted fact
//!   and everything downstream of it along the chase graph's premise
//!   links is *over-deleted* — aggressively, ignoring alternative
//!   support, which is what makes unfounded cycles (`a :- b`, `b :- a`)
//!   collapse correctly — and the survivors are re-derived, first by
//!   directly re-firing over-deleted derivations whose premises all
//!   survived, then by the same semi-naive loop.
//! * Stratified negation is honoured: when a negated predicate grew, the
//!   consuming stratum's recorded derivations are re-checked under their
//!   recorded bindings; when one shrank, the consuming rules are fully
//!   re-enumerated. Both happen only once the lower stratum is final.
//!
//! The hard contract is **bitwise determinism**: the maintained store is
//! indistinguishable from a from-scratch chase on the updated EDB — same
//! facts, same fact ids in the same canonical order, same provenance
//! (derivation ids, rounds, premises, bindings), same violations — at
//! any configured thread count. Maintenance works on interleaved ids, so
//! the final step *replays* the surviving derivations into a fresh store
//! in canonical round/rule/premise order, computing each derivation's
//! from-scratch firing round from premise availability (a derivation
//! fires the first round all its premises are visible to its rule, which
//! depends on commit order within a round: rule `i`'s round-`r` commits
//! are visible to rule `j > i` in round `r` via the commit-phase top-up,
//! and to rules `j <= i` in round `r + 1`).
//!
//! Telemetry: the replayed [`RunReport`] replicates the from-scratch
//! `firings` / `facts_committed` / `duplicates_preempted` counters, the
//! round log's commit columns and the peak fact/derivation sizes. Its
//! matching-side counters (`matches_enumerated`, probe, scan and
//! negation counts) report the work maintenance did: per rule, the
//! matches and lookups of every pivoted and full re-enumeration, plus
//! the constraint pass over the replayed store, so
//! [`RunReport::total_matches`] of a maintained outcome is the matching
//! cost of the delta. The round log's `matches` column stays 0, because
//! maintenance enumerates per stratum, not per from-scratch round.
//! Maintenance is sequential, so [`RunReport::count_fingerprint`] of a
//! maintained outcome is invariant across thread counts, but it is not
//! byte-equal to a from-scratch report.
//!
//! Programs using aggregates or existential invention fall back to
//! [`DeltaStrategy::FullRechase`]: a from-scratch chase on the updated
//! EDB, which trivially satisfies the determinism contract.

use super::{
    count_matching, join_plans, match_chunk, match_delta, Chase, ChaseConfig, ChaseOutcome,
    ChaseSession, JoinPlan, MatchChunk, MatchMetrics,
};
use crate::atom::Fact;
use crate::database::{Database, FactId};
use crate::error::{ChaseError, DeltaError};
use crate::program::Program;
use crate::provenance::{ChaseGraph, Derivation, DerivationId};
use crate::row::{Row, Rows};
use crate::rule::{Rule, RuleId};
use crate::symbol::Symbol;
use crate::telemetry::{RoundStats, RuleStats, RunReport, Termination};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// A batch of EDB mutations, applied atomically by
/// [`ChaseSession::apply_delta`].
///
/// Operations are recorded in call order; when the same fact is both
/// added and retracted, the *last* operation wins. Retractions must name
/// asserted (extensional) facts — derived knowledge is retracted by
/// retracting the EDB facts it rests on.
///
/// ```
/// use vadalog::prelude::*;
///
/// let delta = Delta::new()
///     .add(Fact::new("own", vec!["A".into(), "B".into(), 0.6.into()]))
///     .retract(Fact::new("own", vec!["A".into(), "C".into(), 0.9.into()]));
/// assert_eq!(delta.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Delta {
    /// `(is_addition, fact)` in call order.
    ops: Vec<(bool, Fact)>,
}

impl Delta {
    /// An empty delta.
    pub fn new() -> Delta {
        Delta::default()
    }

    /// Adds an EDB fact.
    // Builder verb, not arithmetic: `Delta::new().add(f).retract(g)`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(mut self, fact: Fact) -> Delta {
        self.ops.push((true, fact));
        self
    }

    /// Retracts an EDB fact.
    pub fn retract(mut self, fact: Fact) -> Delta {
        self.ops.push((false, fact));
        self
    }

    /// Adds every fact of `facts`.
    pub fn add_all(mut self, facts: impl IntoIterator<Item = Fact>) -> Delta {
        self.ops.extend(facts.into_iter().map(|f| (true, f)));
        self
    }

    /// Retracts every fact of `facts`.
    pub fn retract_all(mut self, facts: impl IntoIterator<Item = Fact>) -> Delta {
        self.ops.extend(facts.into_iter().map(|f| (false, f)));
        self
    }

    /// Number of recorded operations (before net-effect coalescing).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True iff no operations were recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// How [`ChaseSession::apply_delta`] maintained the fixpoint.
#[non_exhaustive]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeltaStrategy {
    /// Semi-naive propagation for additions, DRed over-delete/re-derive
    /// for retractions, followed by the canonical replay.
    Incremental,
    /// A from-scratch chase on the updated EDB: the program uses
    /// aggregates or existential invention (whose supersession/invention
    /// state is not incrementally maintainable), the session restricts
    /// the run to a goal cone, or the live store carries deactivated
    /// facts.
    FullRechase,
}

impl DeltaStrategy {
    /// The metrics label of this strategy.
    fn as_str(self) -> &'static str {
        match self {
            DeltaStrategy::Incremental => "incremental",
            DeltaStrategy::FullRechase => "full_rechase",
        }
    }
}

/// The result of [`ChaseSession::apply_delta`]: the maintained outcome
/// plus the delta's bookkeeping.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct DeltaOutcome {
    /// The maintained outcome — bitwise identical to a from-scratch chase
    /// on the updated EDB (see the module docs for the telemetry caveat).
    pub outcome: Arc<ChaseOutcome>,
    /// How the fixpoint was maintained.
    pub strategy: DeltaStrategy,
    /// Net EDB facts asserted (after last-op-wins coalescing; counts
    /// facts that were not already asserted).
    pub edb_added: usize,
    /// Net EDB facts retracted.
    pub edb_retracted: usize,
    /// Facts present in the maintained store that the previous live store
    /// did not hold (EDB and derived alike).
    pub facts_added: usize,
    /// Facts the previous live store held that the maintained store does
    /// not.
    pub facts_removed: usize,
    /// Facts that DRed over-deleted and then re-derived from surviving
    /// support (0 under [`DeltaStrategy::FullRechase`], which never
    /// over-deletes).
    pub facts_rederived: usize,
}

impl<'p> ChaseSession<'p> {
    /// Loads a completed outcome as the session's *live* store, the
    /// baseline [`ChaseSession::apply_delta`] maintains.
    pub fn load(&mut self, outcome: impl Into<Arc<ChaseOutcome>>) {
        self.live = Some(outcome.into());
    }

    /// The session's live outcome, if one is loaded. `apply_delta`
    /// replaces it on every successful application.
    pub fn live(&self) -> Option<&Arc<ChaseOutcome>> {
        self.live.as_ref()
    }

    /// Applies a batch of EDB additions and retractions to the live
    /// outcome, maintaining the fixpoint incrementally (see the module
    /// docs of `engine::delta` for the algorithm and the determinism
    /// contract).
    ///
    /// On success the session's live outcome is replaced by the
    /// maintained one; on any error — a rejected delta
    /// ([`ChaseError::Delta`]), a budget trip of the fallback re-chase —
    /// the live outcome is left untouched.
    ///
    /// Maintenance itself runs sequentially (its cost is proportional to
    /// the delta's footprint, not the store), so it is not governed by
    /// the session's [`RunGuard`](crate::engine::RunGuard); the guard
    /// applies when a program falls back to
    /// [`DeltaStrategy::FullRechase`].
    ///
    /// ```
    /// use vadalog::prelude::*;
    ///
    /// let parsed = parse_program(r#"
    ///     o1: own(x, y) -> reach(x, y).
    ///     o2: reach(x, y), own(y, z) -> reach(x, z).
    ///     own("A", "B").
    /// "#).unwrap();
    /// let db: Database = parsed.facts.into_iter().collect();
    /// let mut session = ChaseSession::new(&parsed.program);
    /// let out = session.run(db).unwrap();
    /// session.load(out);
    ///
    /// let applied = session
    ///     .apply_delta(Delta::new().add(Fact::new("own", vec!["B".into(), "C".into()])))
    ///     .unwrap();
    /// assert_eq!(applied.edb_added, 1);
    /// assert!(applied.outcome.database.contains(&Fact::new("reach", vec!["A".into(), "C".into()])));
    /// ```
    pub fn apply_delta(&mut self, delta: Delta) -> Result<DeltaOutcome, ChaseError> {
        let live = self
            .live
            .as_ref()
            .ok_or(ChaseError::Delta(DeltaError::NoLiveOutcome))?;
        if live.is_partial() {
            return Err(ChaseError::Delta(DeltaError::PartialOutcome));
        }
        let applied = apply(self.program, &self.config, live, delta)?;
        self.live = Some(Arc::clone(&applied.outcome));
        Ok(applied)
    }
}

/// The validated net effect of a [`Delta`] against a live outcome.
struct NetDelta {
    /// Facts to assert that the live store does not hold as EDB, in
    /// final-operation order. A fact already present as *derived* is
    /// promoted to extensional.
    adds: Vec<Fact>,
    /// Live extensional fact ids to retract.
    retracts: Vec<FactId>,
}

/// Coalesces `delta` to its net effect (last operation per fact wins)
/// and validates it against the live store.
fn net_delta(live: &ChaseOutcome, delta: &Delta) -> Result<NetDelta, DeltaError> {
    let mut last: HashMap<&Fact, (usize, bool)> = HashMap::new();
    let mut was_added: HashSet<&Fact> = HashSet::new();
    for (i, (is_add, fact)) in delta.ops.iter().enumerate() {
        if *is_add {
            was_added.insert(fact);
        }
        last.insert(fact, (i, *is_add));
    }
    let mut ordered: Vec<(usize, &Fact, bool)> =
        last.into_iter().map(|(f, (i, a))| (i, f, a)).collect();
    ordered.sort_unstable_by_key(|&(i, _, _)| i);

    let mut adds = Vec::new();
    let mut retracts = Vec::new();
    for (_, fact, is_add) in ordered {
        if is_add {
            if fact.has_nulls() {
                return Err(DeltaError::NullInAddition(fact.to_string()));
            }
            match live.database.lookup(fact) {
                Some(id) if live.graph.is_extensional(id) => {} // already asserted
                _ => adds.push(fact.clone()),
            }
        } else {
            match live.database.lookup(fact) {
                None if was_added.contains(fact) => {} // added and retracted here: net no-op
                None => return Err(DeltaError::UnknownRetraction(fact.to_string())),
                Some(id) if !live.graph.is_extensional(id) => {
                    return Err(DeltaError::NonExtensionalRetraction(fact.to_string()))
                }
                Some(id) => retracts.push(id),
            }
        }
    }
    Ok(NetDelta { adds, retracts })
}

/// The updated EDB in canonical order: surviving asserted facts in
/// original id order, then the net additions in operation order. Both
/// strategies derive their from-scratch-equivalent input from this.
fn updated_edb(live: &ChaseOutcome, net: &NetDelta) -> Vec<Fact> {
    let retracted: HashSet<FactId> = net.retracts.iter().copied().collect();
    let mut edb: Vec<Fact> = live
        .database
        .iter()
        .filter(|(id, _)| live.graph.is_extensional(*id) && !retracted.contains(id))
        .map(|(_, f)| f.clone())
        .collect();
    edb.extend(net.adds.iter().cloned());
    edb
}

/// True iff the incremental strategy applies: neither aggregates
/// (supersession state) nor existential invention (null counters) to
/// maintain, over a store with no deactivated facts. Goal-cone-restricted sessions
/// ([`ChaseConfig::goal_cone`]) also fall back: the maintenance loops
/// re-match every rule, which would fire rules outside the cone; the
/// full re-chase honours the cone and is itself pruned, so the fallback
/// stays cheap exactly when the cone is sharp.
fn incremental_eligible(program: &Program, config: &ChaseConfig, live: &ChaseOutcome) -> bool {
    config.goal_cone.is_none()
        && live.database.inactive_count() == 0
        && program
            .rules()
            .iter()
            .all(|r| r.aggregate.is_none() && r.existential_variables().is_empty())
}

/// Live-store difference counters for a [`DeltaOutcome`]. Incremental
/// maintenance accumulates them as it goes — O(delta), not O(store) —
/// while the full-rechase fallback diffs the two stores outright.
struct DeltaCounts {
    /// Facts live now that were not live before.
    added: usize,
    /// Facts live before that are not live now.
    removed: usize,
    /// Facts over-deleted by DRed and re-derived from surviving support.
    rederived: usize,
}

/// O(store) diff between the old and new live extents, for the
/// full-rechase path (which re-built the store anyway).
fn full_diff(live: &ChaseOutcome, outcome: &ChaseOutcome) -> DeltaCounts {
    let added = outcome
        .database
        .iter()
        .filter(|(id, _)| outcome.database.is_active(*id))
        .filter(|(_, f)| {
            live.database
                .lookup(f)
                .is_none_or(|old| !live.database.is_active(old))
        })
        .count();
    let removed = live
        .database
        .iter()
        .filter(|(id, _)| live.database.is_active(*id))
        .filter(|(_, f)| {
            outcome
                .database
                .lookup(f)
                .is_none_or(|new| !outcome.database.is_active(new))
        })
        .count();
    DeltaCounts {
        added,
        removed,
        rederived: 0,
    }
}

/// Applies a validated delta: maintains (or re-chases) the fixpoint and
/// seals the [`DeltaOutcome`] with its counters and metrics.
fn apply(
    program: &Program,
    config: &ChaseConfig,
    live: &Arc<ChaseOutcome>,
    delta: Delta,
) -> Result<DeltaOutcome, ChaseError> {
    let net = net_delta(live, &delta).map_err(ChaseError::Delta)?;
    let edb_added = net.adds.len();
    let edb_retracted = net.retracts.len();

    let strategy = if incremental_eligible(program, config, live) {
        DeltaStrategy::Incremental
    } else {
        DeltaStrategy::FullRechase
    };
    let (outcome, counts) = match strategy {
        DeltaStrategy::Incremental => maintain(program, config, live, &net)?,
        DeltaStrategy::FullRechase => {
            let db: Database = updated_edb(live, &net).into_iter().collect();
            let outcome = Chase::new(program, db, config.clone()).run()?;
            let counts = full_diff(live, &outcome);
            (outcome, counts)
        }
    };
    let DeltaCounts {
        added: facts_added,
        removed: facts_removed,
        rederived: facts_rederived,
    } = counts;

    let registry = config.metrics_registry();
    registry
        .counter_with(
            "vadalog_delta_applies_total",
            &[("strategy", strategy.as_str())],
            "Deltas applied to a live outcome, by maintenance strategy.",
        )
        .inc();
    registry
        .counter(
            "vadalog_delta_facts_added_total",
            "Facts added to live stores by delta maintenance (EDB and derived).",
        )
        .add(facts_added as u64);
    registry
        .counter(
            "vadalog_delta_facts_retracted_total",
            "Facts removed from live stores by delta maintenance (EDB and derived).",
        )
        .add(facts_removed as u64);
    registry
        .counter(
            "vadalog_delta_facts_rederived_total",
            "Facts over-deleted by DRed and re-derived from surviving support.",
        )
        .add(facts_rederived as u64);

    Ok(DeltaOutcome {
        outcome: Arc::new(outcome),
        strategy,
        edb_added,
        edb_retracted,
        facts_added,
        facts_removed,
        facts_rederived,
    })
}

/// DRed over-deletion state over the *old* chase graph. Derivations are
/// never removed from the graph copy — deadness is a bitmap — and
/// deleted facts keep their (retracted) slot in the working store, so
/// recorded premise ids stay resolvable throughout.
struct Teardown<'g> {
    graph: &'g ChaseGraph,
    /// Inverse premise links of the old graph, built lazily on the first
    /// over-deletion — pure additions never pay for it.
    by_premise: Option<Vec<Vec<DerivationId>>>,
    /// The old store's id range (the domain of `by_premise`).
    old_len: usize,
    /// Old derivations invalidated by this delta.
    dead: Vec<bool>,
    /// Working-store ids over-deleted by this delta.
    deleted: HashSet<FactId>,
    /// Values of the over-deleted facts (for re-derivation accounting).
    deleted_values: HashSet<Fact>,
    /// Predicates that lost a fact (their negating rules re-enumerate).
    shrank: HashSet<Symbol>,
}

impl Teardown<'_> {
    /// Over-deletes `seed` and everything downstream of it along premise
    /// links, marking every derivation that concluded *or* consumed a
    /// deleted fact dead. Extensional facts stop the cascade: they are
    /// asserted, not derived, so losing a derivation cannot unfound them.
    fn over_delete(&mut self, db: &mut Database, extensional: &HashSet<FactId>, seed: FactId) {
        if self.by_premise.is_none() {
            self.by_premise = Some(self.graph.by_premise(self.old_len));
        }
        let mut stack = vec![seed];
        while let Some(f) = stack.pop() {
            if extensional.contains(&f) || !self.deleted.insert(f) {
                continue;
            }
            let fact = db.fact(f).clone();
            self.shrank.insert(fact.predicate);
            self.deleted_values.insert(fact);
            db.retract(f);
            for &d in self.graph.derivations_of(f) {
                self.dead[d.0 as usize] = true;
            }
            // Deletion only ever walks old ids — fresh facts have no
            // old-graph consumers.
            let consumers: &[DerivationId] = self
                .by_premise
                .as_ref()
                .and_then(|bp| bp.get(f.0 as usize))
                .map_or(&[], Vec::as_slice);
            for &d in consumers {
                if !self.dead[d.0 as usize] {
                    self.dead[d.0 as usize] = true;
                    stack.push(self.graph.derivation(d).conclusion);
                }
            }
        }
    }
}

/// Instantiates a rule head under the match `row`. Only called for
/// existential-free rules, whose head variables are always bound.
fn head_fact(rule: &Rule, plan: &JoinPlan, row: &Row) -> Fact {
    let head = rule.head.atom().expect("constraints never fire");
    let values = plan
        .head_values(rule, row.values(), || {
            unreachable!("existential-free heads invent no nulls")
        })
        .expect("existential-free head variable is body-bound");
    Fact {
        predicate: head.predicate,
        values,
    }
}

/// A live derivation scheduled for the canonical replay: an old one that
/// survived the delta, or one recorded by this maintenance pass.
struct LiveDer<'a> {
    rule: usize,
    premises: &'a [FactId],
    conclusion: FactId,
    bindings: &'a Row,
}

/// Incremental maintenance: mutates a working copy of the live store
/// (interleaved ids), then replays the surviving derivations into a
/// fresh store in canonical order. Returns the maintained outcome plus
/// its O(delta) difference counters.
fn maintain(
    program: &Program,
    config: &ChaseConfig,
    live: &ChaseOutcome,
    net: &NetDelta,
) -> Result<(ChaseOutcome, DeltaCounts), ChaseError> {
    let started = Instant::now();
    let mut db = live.database.clone();
    let graph = &live.graph;
    let plans = join_plans(program);
    // Every index a maintenance match can probe, before the first one:
    // the live store may come from a checkpoint or from another session.
    for (rule, plan) in program.rules().iter().zip(&plans) {
        plan.build_indexes(rule, &mut db);
    }
    let pre_add_len = db.len();

    // The updated extensional set and its canonical order: survivors in
    // original id order, then the additions. A net addition whose value
    // already exists as derived keeps its (interleaved) id and is merely
    // promoted, which is why the order is tracked explicitly.
    let retracted: HashSet<FactId> = net.retracts.iter().copied().collect();
    let mut edb_order: Vec<FactId> = db
        .iter()
        .map(|(id, _)| id)
        .filter(|id| graph.is_extensional(*id) && !retracted.contains(id))
        .collect();
    let mut extensional: HashSet<FactId> = edb_order.iter().copied().collect();
    let mut grew: HashSet<Symbol> = HashSet::new();
    let mut added = 0usize;
    for fact in &net.adds {
        let (id, fresh) = db.insert(fact.clone());
        if fresh {
            grew.insert(fact.predicate);
            // Fresh means the value was nowhere in the live store.
            added += 1;
        }
        extensional.insert(id);
        edb_order.push(id);
    }

    // DRed over-deletion, seeded by the retractions. Unconditional: even
    // a retracted fact with surviving derivations is torn down and left
    // to re-derivation, which is what keeps self-supporting derivations
    // (whose only premises pass through the fact itself) from resurrecting
    // it.
    let mut teardown = Teardown {
        graph,
        by_premise: None,
        old_len: pre_add_len,
        dead: vec![false; graph.derivations().len()],
        deleted: HashSet::new(),
        deleted_values: HashSet::new(),
        shrank: HashSet::new(),
    };
    for &id in &net.retracts {
        teardown.over_delete(&mut db, &extensional, id);
    }

    // Old derivations grouped by rule, for the per-stratum passes.
    let mut ders_of_rule: Vec<Vec<usize>> = vec![Vec::new(); program.len()];
    for (i, der) in graph.derivations().iter().enumerate() {
        ders_of_rule[der.rule.0].push(i);
    }

    let mut seen: HashSet<(RuleId, FactId, Vec<FactId>)> = HashSet::new();
    let mut new_ders: Vec<Derivation> = Vec::new();
    let mut rederived = 0usize;
    // Per rule, the lookups and matches maintenance enumerated.
    let mut work: Vec<(MatchMetrics, u64)> = vec![Default::default(); program.len()];
    let strata = program.stratification().strata;
    for stratum in 0..strata {
        let stratum_rules: Vec<usize> = (0..program.len())
            .filter(|&i| program.rule_stratum(RuleId(i)) == stratum)
            .filter(|&i| !program.rule(RuleId(i)).is_constraint())
            .collect();

        // Negative invalidation: a grown negated predicate can block
        // derivations this stratum recorded earlier. Negated predicates
        // sit strictly below, so their extent is final here; the re-check
        // replays the recorded bindings against the current store.
        for &idx in &stratum_rules {
            let rule = program.rule(RuleId(idx));
            if !rule.negated_body().any(|a| grew.contains(&a.predicate)) {
                continue;
            }
            for &d in &ders_of_rule[idx] {
                if teardown.dead[d] {
                    continue;
                }
                let der = &graph.derivations()[d];
                // Uncounted: the re-check is no match maintenance enumerated.
                let row = der.bindings.values();
                if plans[idx].negation_blocks(rule, &db, row, &mut MatchMetrics::default()) {
                    teardown.dead[d] = true;
                    let conclusion = der.conclusion;
                    if !extensional.contains(&conclusion) {
                        teardown.over_delete(&mut db, &extensional, conclusion);
                    }
                }
            }
        }

        // Directly re-fire the over-deleted derivations whose premises
        // all survived — the cheap half of DRed's re-derivation, covering
        // everything whose support was merely *also* torn down. The
        // dedup set `seen` tracks only derivations recorded by this pass:
        // a re-fired or pivoted derivation can never collide with a
        // surviving old one (its key carries a fresh conclusion or
        // premise id), and the full re-enumerations below screen their
        // all-old matches against the old graph directly.
        for &idx in &stratum_rules {
            let rule = program.rule(RuleId(idx));
            for &d in &ders_of_rule[idx] {
                if !teardown.dead[d] {
                    continue;
                }
                let der = &graph.derivations()[d];
                if der.premises.iter().any(|p| teardown.deleted.contains(p)) {
                    continue;
                }
                let row = der.bindings.values();
                if plans[idx].negation_blocks(rule, &db, row, &mut MatchMetrics::default()) {
                    continue;
                }
                let value = db.fact(der.conclusion).clone();
                let (id, fresh) = db.insert(value);
                if fresh {
                    grew.insert(db.fact(id).predicate);
                    if teardown.deleted_values.contains(db.fact(id)) {
                        rederived += 1;
                    } else {
                        added += 1;
                    }
                }
                let key = (der.rule, id, der.premises.clone());
                if seen.insert(key) {
                    new_ders.push(Derivation {
                        rule: der.rule,
                        premises: der.premises.clone(),
                        conclusion: id,
                        round: 0, // replay assigns canonical rounds
                        contributors: 1,
                        bindings: der.bindings.clone(),
                        contributor_bindings: Rows::empty(),
                    });
                }
            }
        }

        // Semi-naive propagation to fixpoint. Rules negating a shrunken
        // predicate re-enumerate in full (a disappeared fact can unblock
        // matches anywhere); everything else pivots on the facts added
        // since the live outcome was sealed.
        let mut watermark: Vec<usize> = vec![usize::MAX; program.len()];
        let mut needs_full: Vec<bool> = vec![false; program.len()];
        for &idx in &stratum_rules {
            let rule = program.rule(RuleId(idx));
            let dirty = rule
                .negated_body()
                .any(|a| teardown.shrank.contains(&a.predicate));
            needs_full[idx] = dirty;
            watermark[idx] = pre_add_len;
        }
        loop {
            let mut changed = false;
            for &idx in &stratum_rules {
                let rule = program.rule(RuleId(idx));
                let current = db.len();
                let (metrics, enumerated) = &mut work[idx];
                let mut matches = if needs_full[idx] {
                    needs_full[idx] = false;
                    match_chunk(&db, rule, &plans[idx], &MatchChunk::full(), metrics)
                } else if watermark[idx] < current {
                    match_delta(&db, rule, &plans[idx], watermark[idx] as u32, metrics)
                } else {
                    continue;
                }
                .map_err(|source| ChaseError::Eval {
                    rule: rule.label.clone(),
                    source,
                })?;
                *enumerated += matches.len() as u64;
                watermark[idx] = current;
                matches.sort_by(|a, b| a.premises.cmp(&b.premises));
                matches.dedup_by(|a, b| a.premises == b.premises);
                for m in matches {
                    let (id, fresh) = db.insert(head_fact(rule, &plans[idx], &m.bindings));
                    if fresh {
                        changed = true;
                        grew.insert(db.fact(id).predicate);
                        if teardown.deleted_values.contains(db.fact(id)) {
                            rederived += 1;
                        } else {
                            added += 1;
                        }
                    }
                    // A match built entirely from old facts mirrors an
                    // old derivation; if that derivation survived the
                    // teardown it is still scheduled for replay, and
                    // recording it again would double it. Pivoted
                    // matches always carry a fresh premise, so only the
                    // full re-enumerations reach this screen.
                    let all_old = m.premises.iter().all(|p| (p.0 as usize) < pre_add_len);
                    if all_old
                        && graph.derivations_of(id).iter().any(|&d| {
                            !teardown.dead[d.0 as usize] && {
                                let od = &graph.derivations()[d.0 as usize];
                                od.rule == RuleId(idx) && od.premises == m.premises
                            }
                        })
                    {
                        continue;
                    }
                    let key = (RuleId(idx), id, m.premises.clone());
                    if seen.insert(key) {
                        new_ders.push(Derivation {
                            rule: RuleId(idx),
                            premises: m.premises,
                            conclusion: id,
                            round: 0,
                            contributors: 1,
                            bindings: m.bindings,
                            contributor_bindings: Rows::empty(),
                        });
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    // Every over-deleted value whose slot was never re-claimed is gone
    // from the live extent.
    let removed = teardown
        .deleted_values
        .iter()
        .filter(|v| db.lookup(v).is_none())
        .count();

    // The maintained model, on interleaved working ids: every surviving
    // or new derivation. Replay it into a fresh store in canonical order.
    let mut live_ders: Vec<LiveDer<'_>> = Vec::new();
    for (i, der) in graph.derivations().iter().enumerate() {
        if !teardown.dead[i] {
            live_ders.push(LiveDer {
                rule: der.rule.0,
                premises: &der.premises,
                conclusion: der.conclusion,
                bindings: &der.bindings,
            });
        }
    }
    for der in &new_ders {
        live_ders.push(LiveDer {
            rule: der.rule.0,
            premises: &der.premises,
            conclusion: der.conclusion,
            bindings: &der.bindings,
        });
    }
    let mut outcome = replay(program, config, db, &live_ders, &edb_order, &plans, started)?;
    for (stats, (metrics, enumerated)) in outcome.report.rules.iter_mut().zip(&work) {
        count_matching(stats, metrics, *enumerated);
    }
    Ok((
        outcome,
        DeltaCounts {
            added,
            removed,
            rederived,
        },
    ))
}

/// The round in which a fact first derived at `avail` becomes visible to
/// rule `consumer` of a stratum starting at round `first_round`:
/// anything older than the stratum is visible from its first round; a
/// same-stratum fact committed by an earlier rule is visible the same
/// round (commit-phase top-up), otherwise the next round. Extensional
/// facts carry producer rule −1 and are visible everywhere.
fn visible_from(avail: (u32, i64), first_round: u32, consumer: usize) -> u32 {
    let (round, producer) = avail;
    if round < first_round {
        first_round
    } else if producer < consumer as i64 {
        round
    } else {
        round + 1
    }
}

/// The canonical firing round of a derivation: the first round all its
/// premises are visible to its rule. `avail` is indexed by working fact
/// id; an unresolved premise carries the `u32::MAX` sentinel round.
fn firing_round(first_round: u32, rule: usize, premises: &[FactId], avail: &[(u32, i64)]) -> u32 {
    premises
        .iter()
        .map(|p| visible_from(avail[p.0 as usize], first_round, rule))
        .fold(first_round, u32::max)
}

/// Replays the maintained model into a fresh store, reproducing the
/// exact fact ids, derivation order, rounds and report counters a
/// from-scratch chase on the updated EDB would commit (see the module
/// docs). Per stratum, derivations are scheduled by a shortest-first
/// (Dijkstra-style) pass over premise availability, then fired in
/// (round, rule, premises) order — the from-scratch commit order.
///
/// Canonical ids are assigned arithmetically (EDB order, then firing
/// order) and the store itself is produced at the end by permuting the
/// consumed working store ([`Database::permuted`]): the canonical model
/// is exactly the live working facts under a new id order, so no fact
/// is cloned or re-hashed on the way.
fn replay(
    program: &Program,
    config: &ChaseConfig,
    wdb: Database,
    live_ders: &[LiveDer<'_>],
    edb_order: &[FactId],
    plans: &[JoinPlan],
    started: Instant,
) -> Result<ChaseOutcome, ChaseError> {
    let strata = program.stratification().strata;
    let mut ngraph = ChaseGraph::new();
    // Working id -> replayed id, and working id -> (first round, producer
    // rule) availability, both dense over the working store; `u32::MAX`
    // marks unmapped / unresolved slots.
    let mut map: Vec<FactId> = vec![FactId(u32::MAX); wdb.len()];
    let mut avail: Vec<(u32, i64)> = vec![(u32::MAX, 0); wdb.len()];
    let mut next_id: u32 = 0;
    for &wid in edb_order {
        let nid = FactId(next_id);
        next_id += 1;
        ngraph.mark_extensional(nid);
        debug_assert!(
            map[wid.0 as usize].0 == u32::MAX,
            "canonical EDB facts are distinct"
        );
        map[wid.0 as usize] = nid;
        avail[wid.0 as usize] = (0, -1);
    }
    let edb_len = next_id as usize;

    let mut by_stratum: Vec<Vec<usize>> = vec![Vec::new(); strata];
    for (i, der) in live_ders.iter().enumerate() {
        by_stratum[program.rule_stratum(RuleId(der.rule))].push(i);
    }

    // Schedule: per stratum, resolve premise availability shortest-first.
    // Keys pushed are always lexicographically above the key being
    // popped (a premise resolved at (r, i) yields firing rounds >= r,
    // with a strictly larger rule index at equality), so a single heap
    // pass finalizes every availability in canonical order.
    let mut fired: Vec<((u32, u32), usize)> = Vec::with_capacity(live_ders.len());
    let mut stratum_first: Vec<u32> = vec![0; strata];
    let mut next_round: u32 = 1;
    // Waiters indexed by working fact id; every list pushed within a
    // stratum is drained there (each premise resolves), so the buffer is
    // safely reused across strata.
    let mut waiting: Vec<Vec<usize>> = vec![Vec::new(); wdb.len()];
    for (stratum, members) in by_stratum.iter().enumerate() {
        let first_round = next_round;
        stratum_first[stratum] = first_round;
        let mut unresolved: Vec<u32> = vec![0; members.len()];
        let mut heap: BinaryHeap<Reverse<((u32, u32), usize)>> = BinaryHeap::new();
        for (k, &di) in members.iter().enumerate() {
            let der = &live_ders[di];
            let mut pending = 0;
            for p in der.premises {
                if avail[p.0 as usize].0 == u32::MAX {
                    pending += 1;
                    waiting[p.0 as usize].push(k);
                }
            }
            unresolved[k] = pending;
            if pending == 0 {
                let fr = firing_round(first_round, der.rule, der.premises, &avail);
                heap.push(Reverse(((fr, der.rule as u32), k)));
            }
        }
        let mut scheduled = 0usize;
        let mut last_fresh_round: Option<u32> = None;
        while let Some(Reverse((key, k))) = heap.pop() {
            let di = members[k];
            let der = &live_ders[di];
            fired.push((key, di));
            scheduled += 1;
            let slot = der.conclusion.0 as usize;
            if avail[slot].0 == u32::MAX {
                avail[slot] = (key.0, der.rule as i64);
                last_fresh_round = Some(last_fresh_round.map_or(key.0, |r| r.max(key.0)));
                for k2 in std::mem::take(&mut waiting[slot]) {
                    unresolved[k2] -= 1;
                    if unresolved[k2] == 0 {
                        let d2 = &live_ders[members[k2]];
                        let fr = firing_round(first_round, d2.rule, d2.premises, &avail);
                        heap.push(Reverse(((fr, d2.rule as u32), k2)));
                    }
                }
            }
        }
        assert_eq!(
            scheduled,
            members.len(),
            "every live derivation is grounded in the maintained store"
        );
        // A stratum deriving fresh facts up to round M runs its fixpoint
        // check in M+1; one deriving nothing spends a single round.
        next_round = match last_fresh_round {
            Some(m) => m + 2,
            None => first_round + 1,
        };
    }
    let total_rounds = next_round - 1;

    // Fire in canonical order: (round, rule) buckets, premise-id order
    // within a bucket — every premise is finalized before its consumer's
    // bucket, so the mapped ids are complete when needed.
    let mut rules_report: Vec<RuleStats> = program
        .rules()
        .iter()
        .map(|rule| RuleStats {
            label: rule.label.clone(),
            ..RuleStats::default()
        })
        .collect();
    let mut round_fresh: Vec<u64> = vec![0; total_rounds as usize + 1];
    fired.sort_unstable_by_key(|&(key, _)| key);
    let mut i = 0;
    while i < fired.len() {
        let key = fired[i].0;
        let mut j = i;
        while j < fired.len() && fired[j].0 == key {
            j += 1;
        }
        let mut bucket: Vec<(Vec<FactId>, usize)> = fired[i..j]
            .iter()
            .map(|&(_, di)| {
                let mapped: Vec<FactId> = live_ders[di]
                    .premises
                    .iter()
                    .map(|p| map[p.0 as usize])
                    .collect();
                (mapped, di)
            })
            .collect();
        bucket.sort_unstable();
        for (premises, di) in bucket {
            let der = &live_ders[di];
            // The working store is deduplicated, so distinct live slots
            // hold distinct values: a duplicate firing is exactly a
            // second derivation of an already-mapped conclusion slot.
            let slot = der.conclusion.0 as usize;
            let (nid, fresh) = if map[slot].0 == u32::MAX {
                let nid = FactId(next_id);
                next_id += 1;
                map[slot] = nid;
                (nid, true)
            } else {
                (map[slot], false)
            };
            let stats = &mut rules_report[der.rule];
            stats.firings += 1;
            if fresh {
                stats.facts_committed += 1;
                round_fresh[key.0 as usize] += 1;
            } else {
                stats.duplicates_preempted += 1;
            }
            ngraph.record(Derivation {
                rule: RuleId(der.rule),
                premises,
                conclusion: nid,
                round: key.0,
                contributors: 1,
                bindings: der.bindings.clone(),
                contributor_bindings: Rows::empty(),
            });
        }
        i = j;
    }

    // Materialize the canonical store: the working store's live facts,
    // scattered into the id order assigned above. Then mirror the
    // run-start eager index build, so the served store carries the same
    // indexes a from-scratch run would.
    let mut ndb = wdb.permuted(&map, next_id as usize);
    for (rule, plan) in program.rules().iter().zip(plans) {
        plan.build_indexes(rule, &mut ndb);
    }

    // Constraints: re-match against the final store and order the
    // violated labels by the canonical round (and rule) in which the
    // from-scratch run first saw a violating match. Constraint-free
    // programs skip the pass (and its replayed-id availability table)
    // entirely.
    let mut violated: Vec<(u32, usize)> = Vec::new();
    if program.rules().iter().any(|r| r.is_constraint()) {
        let mut avail_replayed: Vec<(u32, i64)> = vec![(u32::MAX, 0); ndb.len()];
        for (w, &nid) in map.iter().enumerate() {
            if nid.0 != u32::MAX {
                avail_replayed[nid.0 as usize] = avail[w];
            }
        }
        for (idx, rule) in program.rules().iter().enumerate() {
            if !rule.is_constraint() {
                continue;
            }
            let mut metrics = MatchMetrics::default();
            let matches = match_chunk(&ndb, rule, &plans[idx], &MatchChunk::full(), &mut metrics)
                .map_err(|source| ChaseError::Eval {
                rule: rule.label.clone(),
                source,
            })?;
            count_matching(&mut rules_report[idx], &metrics, matches.len() as u64);
            let first_round = stratum_first[program.rule_stratum(RuleId(idx))];
            if let Some(first) = matches
                .iter()
                .map(|m| firing_round(first_round, idx, &m.premises, &avail_replayed))
                .min()
            {
                violated.push((first, idx));
            }
        }
    }
    violated.sort_unstable();
    let violations: Vec<String> = violated
        .iter()
        .map(|&(_, idx)| program.rule(RuleId(idx)).label.clone())
        .collect();
    let mut report = RunReport {
        termination: Termination::Completed,
        threads: config.effective_threads(),
        rounds: total_rounds,
        strata: strata as u32,
        rules: rules_report,
        ..RunReport::default()
    };
    let mut facts_end = edb_len as u64;
    for round in 1..=total_rounds {
        let committed = round_fresh[round as usize];
        facts_end += committed;
        let stratum = stratum_first.partition_point(|&first| first <= round) - 1;
        report.rounds_log.push(RoundStats {
            round,
            stratum: stratum as u32,
            matches: 0, // maintenance enumerates no from-scratch matches
            facts_committed: committed,
            facts_end,
            duration_ns: 0,
        });
    }
    report.timings.total_ns = started.elapsed().as_nanos() as u64;
    report.peak.facts = ndb.len() as u64;
    report.peak.derivations = ngraph.derivations().len() as u64;
    report.peak.approx_bytes = (ndb.approx_bytes() + ngraph.approx_bytes()) as u64;

    Ok(ChaseOutcome {
        derived_facts: ndb.len() - edb_len,
        database: ndb,
        graph: ngraph,
        rounds: total_rounds as usize,
        violations,
        report,
        resume: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::value::Value;

    /// Runs `src` from scratch, returning the program is impossible here
    /// (the session borrows it), so callers parse themselves; this just
    /// builds the initial outcome.
    fn initial<'p>(
        program: &'p Program,
        facts: Vec<Fact>,
        config: &ChaseConfig,
    ) -> (ChaseSession<'p>, Arc<ChaseOutcome>) {
        let db: Database = facts.into_iter().collect();
        let mut session = ChaseSession::new(program).with_config(config.clone());
        let out = session.run(db).unwrap();
        session.load(out);
        let live = Arc::clone(session.live().unwrap());
        (session, live)
    }

    /// A binding row rendered with sorted keys, every (variable, value)
    /// pair included.
    fn render_bindings(b: &Row) -> String {
        let mut entries: Vec<(String, String)> = b
            .iter()
            .map(|(k, v)| (format!("{k}"), format!("{v:?}")))
            .collect();
        entries.sort();
        format!("{entries:?}")
    }

    /// A structural fingerprint of everything the determinism contract
    /// covers: facts in id order, activity, extensional marks, and every
    /// derivation field.
    fn structural(out: &ChaseOutcome) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (id, fact) in out.database.iter() {
            let _ = writeln!(
                s,
                "fact {} {} active={} edb={}",
                id.0,
                fact,
                out.database.is_active(id),
                out.graph.is_extensional(id)
            );
        }
        for (i, d) in out.graph.derivations().iter().enumerate() {
            let _ = writeln!(
                s,
                "der {} rule={} premises={:?} conclusion={} round={} contributors={} bindings={}",
                i,
                d.rule.0,
                d.premises.iter().map(|p| p.0).collect::<Vec<_>>(),
                d.conclusion.0,
                d.round,
                d.contributors,
                render_bindings(&d.bindings),
            );
        }
        let _ = writeln!(
            s,
            "rounds={} derived={} violations={:?}",
            out.rounds, out.derived_facts, out.violations
        );
        s
    }

    /// Asserts the maintained outcome is bitwise identical to a
    /// from-scratch chase on the same EDB.
    fn assert_matches_scratch(program: &Program, edb: Vec<Fact>, maintained: &ChaseOutcome) {
        let config = ChaseConfig::default();
        let db: Database = edb.into_iter().collect();
        let scratch = ChaseSession::new(program)
            .with_config(config)
            .run(db)
            .unwrap();
        assert_eq!(structural(&scratch), structural(maintained));
    }

    fn own(x: &str, y: &str) -> Fact {
        Fact::new("own", vec![x.into(), y.into()])
    }

    const REACH: &str = r#"
        r1: own(x, y) -> reach(x, y).
        r2: reach(x, y), own(y, z) -> reach(x, z).
    "#;

    #[test]
    fn additions_propagate_and_match_scratch() {
        let parsed = parse_program(REACH).unwrap();
        let config = ChaseConfig::default();
        let (mut session, _) =
            initial(&parsed.program, vec![own("A", "B"), own("B", "C")], &config);
        let applied = session
            .apply_delta(Delta::new().add(own("C", "D")))
            .unwrap();
        assert_eq!(applied.strategy, DeltaStrategy::Incremental);
        assert_eq!(applied.edb_added, 1);
        assert!(applied
            .outcome
            .database
            .contains(&Fact::new("reach", vec!["A".into(), "D".into()])));
        assert_matches_scratch(
            &parsed.program,
            vec![own("A", "B"), own("B", "C"), own("C", "D")],
            &applied.outcome,
        );
    }

    #[test]
    fn maintained_reports_count_the_matches_maintenance_enumerated() {
        // Adding own(C, D) to own(A, B), own(B, C), whose model holds
        // reach(A, B), reach(B, C) and reach(A, C). First pass: r1
        // pivots on own(C, D) (1 match, reach(C, D)); r2's reach pivot
        // finds no own(D, _) after reach(C, D), and its own pivot joins
        // own(C, D) with reach(B, C) and reach(A, C) (2 matches). Second
        // pass: no own fact is new, and no own(D, _) follows reach(B, D)
        // or reach(A, D). So r1 enumerates 1 match and r2 2.
        let parsed = parse_program(REACH).unwrap();
        for threads in [1, 2, 8] {
            let config = ChaseConfig::default().with_threads(threads);
            let (mut session, _) =
                initial(&parsed.program, vec![own("A", "B"), own("B", "C")], &config);
            let applied = session
                .apply_delta(Delta::new().add(own("C", "D")))
                .unwrap();
            assert_eq!(applied.strategy, DeltaStrategy::Incremental);
            let report = &applied.outcome.report;
            let per_rule: Vec<u64> = report.rules.iter().map(|r| r.matches_enumerated).collect();
            assert_eq!(per_rule, [1, 2], "threads {threads}");
            assert_eq!(report.total_matches(), 3, "threads {threads}");
            assert!(report.rounds_log.iter().all(|r| r.matches == 0));
        }
    }

    #[test]
    fn goal_cone_sessions_fall_back_to_a_pruned_rechase() {
        // A cone-restricted session must not take the incremental path
        // (the maintenance loops re-match rules outside the cone); the
        // full-rechase fallback honours the cone, so the maintained
        // outcome equals a from-scratch *pruned* chase on the updated
        // EDB.
        let parsed = parse_program(
            r#"
            r1: own(x, y) -> reach(x, y).
            r2: reach(x, y), own(y, z) -> reach(x, z).
            r3: own(x, y) -> audited(x).
        "#,
        )
        .unwrap();
        let config = ChaseConfig::default().with_goal_cone("reach");
        let (mut session, _) =
            initial(&parsed.program, vec![own("A", "B"), own("B", "C")], &config);
        let applied = session
            .apply_delta(Delta::new().add(own("C", "D")))
            .unwrap();
        assert_eq!(applied.strategy, DeltaStrategy::FullRechase);
        let scratch = ChaseSession::new(&parsed.program)
            .with_config(config)
            .run(
                vec![own("A", "B"), own("B", "C"), own("C", "D")]
                    .into_iter()
                    .collect::<Database>(),
            )
            .unwrap();
        assert_eq!(structural(&scratch), structural(&applied.outcome));
        assert!(applied
            .outcome
            .database
            .facts_of("audited".into())
            .is_empty());
    }

    #[test]
    fn retraction_tears_down_the_cone_and_matches_scratch() {
        let parsed = parse_program(REACH).unwrap();
        let config = ChaseConfig::default();
        let (mut session, _) = initial(
            &parsed.program,
            vec![own("A", "B"), own("B", "C"), own("C", "D")],
            &config,
        );
        let applied = session
            .apply_delta(Delta::new().retract(own("B", "C")))
            .unwrap();
        assert_eq!(applied.edb_retracted, 1);
        assert!(!applied
            .outcome
            .database
            .contains(&Fact::new("reach", vec!["A".into(), "C".into()])));
        // C->D survives: its own EDB fact still supports it.
        assert!(applied
            .outcome
            .database
            .contains(&Fact::new("reach", vec!["C".into(), "D".into()])));
        assert_matches_scratch(
            &parsed.program,
            vec![own("A", "B"), own("C", "D")],
            &applied.outcome,
        );
    }

    #[test]
    fn retraction_collapses_unfounded_cycles() {
        // a and b support each other once seeded; retracting the seed
        // must collapse the cycle, not let it survive on mutual support.
        let parsed = parse_program(
            r#"
            c1: seed(x) -> a(x).
            c2: a(x) -> b(x).
            c3: b(x) -> a(x).
        "#,
        )
        .unwrap();
        let config = ChaseConfig::default();
        let seed = Fact::new("seed", vec!["s".into()]);
        let (mut session, _) = initial(&parsed.program, vec![seed.clone()], &config);
        let applied = session.apply_delta(Delta::new().retract(seed)).unwrap();
        assert_eq!(applied.outcome.database.len(), 0);
        assert_matches_scratch(&parsed.program, vec![], &applied.outcome);
    }

    #[test]
    fn self_supporting_derivations_do_not_resurrect_a_retraction() {
        let parsed = parse_program("s1: p(x) -> p(x).").unwrap();
        let config = ChaseConfig::default();
        let fact = Fact::new("p", vec!["1".into()]);
        let (mut session, _) = initial(&parsed.program, vec![fact.clone()], &config);
        let applied = session.apply_delta(Delta::new().retract(fact)).unwrap();
        assert_eq!(applied.outcome.database.len(), 0);
        assert_matches_scratch(&parsed.program, vec![], &applied.outcome);
    }

    #[test]
    fn grown_negation_invalidates_and_shrunk_negation_unblocks() {
        let parsed = parse_program(
            r#"
            n1: own(x, y), not blocked(x) -> cleared(x, y).
        "#,
        )
        .unwrap();
        let config = ChaseConfig::default();
        let blocked = Fact::new("blocked", vec!["A".into()]);
        let (mut session, _) = initial(&parsed.program, vec![own("A", "B")], &config);

        // Growing `blocked` must retract the cleared fact...
        let applied = session
            .apply_delta(Delta::new().add(blocked.clone()))
            .unwrap();
        assert!(!applied
            .outcome
            .database
            .contains(&Fact::new("cleared", vec!["A".into(), "B".into()])));
        assert_matches_scratch(
            &parsed.program,
            vec![own("A", "B"), blocked.clone()],
            &applied.outcome,
        );

        // ...and retracting it must re-derive it.
        let applied = session.apply_delta(Delta::new().retract(blocked)).unwrap();
        assert!(applied
            .outcome
            .database
            .contains(&Fact::new("cleared", vec!["A".into(), "B".into()])));
        assert_matches_scratch(&parsed.program, vec![own("A", "B")], &applied.outcome);
    }

    #[test]
    fn retract_then_readd_across_deltas_restores_the_original_ids() {
        let parsed = parse_program(REACH).unwrap();
        let config = ChaseConfig::default();
        let edb = vec![own("A", "B"), own("B", "C")];
        let (mut session, original) = initial(&parsed.program, edb.clone(), &config);
        session
            .apply_delta(Delta::new().retract(own("A", "B")))
            .unwrap();
        let restored = session
            .apply_delta(Delta::new().add(own("A", "B")))
            .unwrap();
        // Re-adding at the *end* of the EDB order shifts ids relative to
        // the original, but must still equal a from-scratch chase on the
        // reordered EDB.
        assert_matches_scratch(
            &parsed.program,
            vec![own("B", "C"), own("A", "B")],
            &restored.outcome,
        );
        assert_eq!(original.database.len(), restored.outcome.database.len());
    }

    #[test]
    fn promoting_a_derived_fact_protects_it_from_teardown() {
        let parsed = parse_program(REACH).unwrap();
        let config = ChaseConfig::default();
        let (mut session, _) = initial(&parsed.program, vec![own("A", "B")], &config);
        let reach = Fact::new("reach", vec!["A".into(), "B".into()]);
        // Assert the derived fact as EDB, then retract its support: it
        // must survive as an asserted fact.
        session
            .apply_delta(Delta::new().add(reach.clone()))
            .unwrap();
        let applied = session
            .apply_delta(Delta::new().retract(own("A", "B")))
            .unwrap();
        assert!(applied.outcome.database.contains(&reach));
        assert_matches_scratch(&parsed.program, vec![reach], &applied.outcome);
    }

    #[test]
    fn net_effect_coalesces_to_the_last_operation() {
        let parsed = parse_program(REACH).unwrap();
        let config = ChaseConfig::default();
        let (mut session, _) = initial(&parsed.program, vec![own("A", "B")], &config);
        // add-then-retract of an unknown fact is a net no-op; retract-
        // then-add of a live fact is a net no-op too.
        let applied = session
            .apply_delta(
                Delta::new()
                    .add(own("X", "Y"))
                    .retract(own("X", "Y"))
                    .retract(own("A", "B"))
                    .add(own("A", "B")),
            )
            .unwrap();
        assert_eq!(applied.edb_added, 0);
        assert_eq!(applied.edb_retracted, 0);
        assert_matches_scratch(&parsed.program, vec![own("A", "B")], &applied.outcome);
    }

    #[test]
    fn rejected_deltas_leave_the_live_outcome_untouched() {
        let parsed = parse_program(REACH).unwrap();
        let config = ChaseConfig::default();
        let (mut session, live) = initial(&parsed.program, vec![own("A", "B")], &config);

        let unknown = session.apply_delta(Delta::new().retract(own("Z", "Z")));
        assert!(matches!(
            unknown,
            Err(ChaseError::Delta(DeltaError::UnknownRetraction(_)))
        ));
        let derived = session
            .apply_delta(Delta::new().retract(Fact::new("reach", vec!["A".into(), "B".into()])));
        assert!(matches!(
            derived,
            Err(ChaseError::Delta(DeltaError::NonExtensionalRetraction(_)))
        ));
        let null = session
            .apply_delta(Delta::new().add(Fact::new("own", vec![Value::Null(7), "B".into()])));
        assert!(matches!(
            null,
            Err(ChaseError::Delta(DeltaError::NullInAddition(_)))
        ));
        assert!(Arc::ptr_eq(session.live().unwrap(), &live));
    }

    #[test]
    fn apply_delta_requires_a_live_outcome() {
        let parsed = parse_program(REACH).unwrap();
        let mut session = ChaseSession::new(&parsed.program);
        assert!(matches!(
            session.apply_delta(Delta::new().add(own("A", "B"))),
            Err(ChaseError::Delta(DeltaError::NoLiveOutcome))
        ));
    }

    #[test]
    fn aggregate_programs_fall_back_to_full_rechase() {
        let parsed = parse_program(
            r#"
            a1: own(x, y), k = count(y) -> count_of(x, k).
        "#,
        )
        .unwrap();
        let config = ChaseConfig::default();
        let (mut session, _) = initial(&parsed.program, vec![own("A", "B")], &config);
        let applied = session
            .apply_delta(Delta::new().add(own("A", "C")))
            .unwrap();
        assert_eq!(applied.strategy, DeltaStrategy::FullRechase);
        assert_matches_scratch(
            &parsed.program,
            vec![own("A", "B"), own("A", "C")],
            &applied.outcome,
        );
    }

    #[test]
    fn violations_are_recomputed_in_canonical_order() {
        let parsed = parse_program(
            r#"
            r1: own(x, y) -> reach(x, y).
            v1: reach(x, x) -> !.
        "#,
        )
        .unwrap();
        let config = ChaseConfig::default();
        let (mut session, _) = initial(&parsed.program, vec![own("A", "B")], &config);
        let applied = session
            .apply_delta(Delta::new().add(own("B", "B")))
            .unwrap();
        assert_eq!(applied.outcome.violations, vec!["v1".to_string()]);
        assert_matches_scratch(
            &parsed.program,
            vec![own("A", "B"), own("B", "B")],
            &applied.outcome,
        );
    }

    #[test]
    fn delta_metrics_are_emitted() {
        use crate::obs::metrics::MetricsRegistry;
        let parsed = parse_program(REACH).unwrap();
        let registry = Arc::new(MetricsRegistry::new());
        let config = ChaseConfig::default().with_metrics(Arc::clone(&registry));
        let (mut session, _) = initial(&parsed.program, vec![own("A", "B")], &config);
        session
            .apply_delta(Delta::new().add(own("B", "C")))
            .unwrap();
        let rendered = registry.to_prometheus();
        assert!(rendered.contains("vadalog_delta_applies_total"));
        assert!(rendered.contains("strategy=\"incremental\""));
        assert!(rendered.contains("vadalog_delta_facts_added_total"));
    }
}

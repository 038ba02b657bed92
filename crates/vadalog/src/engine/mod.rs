//! The chase procedure: forward inference to fixpoint with provenance.
//!
//! The engine implements the (restricted) chase of Sec. 3: rules are
//! applied round by round until no chase step adds knowledge. Monotonic
//! aggregations fold each group over all currently visible contributors,
//! so aggregate facts grow towards their fixpoint value and the full
//! contributor set is recorded as provenance (cf. Fig. 8, where
//! `Risk(C,11)` is premised on both `Debts(B,C,2)` and `Debts(B,C,9)`).
//!
//! Aggregate rules are evaluated semi-naively like every other rule: the
//! engine keeps each group's contributor matches for the length of a run,
//! merges in the delta matches of each round and re-folds only the groups
//! that gained a contributor or lost one to supersession. A group whose
//! contributors did not change would re-derive a known step, so skipping
//! it changes no fact, id or derivation. Aggregate rules with an
//! existential head variable are the exception and re-match fully every
//! round: the restricted-chase check may have pre-empted a group's step by
//! a fact that is superseded later, and then the unchanged group fires
//! anew. For the same reason a plain rule re-matches fully when an
//! aggregate rule derives its existential head's predicate.
//!
//! # Parallel matching, sequential commit
//!
//! Each round is split into two phases:
//!
//! 1. **Parallel match phase** — every applicable rule's body matches are
//!    enumerated against the round-start snapshot of the (append-only)
//!    database, read-only, across a pool of worker threads. Work is
//!    decomposed into [`MatchChunk`]s (rules × semi-naive pivots ×
//!    slices of the outermost join loop), whose results are merged in a
//!    canonical order independent of thread scheduling.
//! 2. **Sequential commit phase** — rules are committed in rule-id order.
//!    Before a rule fires, a cheap incremental *top-up* match picks up
//!    matches that touch facts committed earlier in the same round (by
//!    lower-id rules), restoring exactly the intra-round visibility of a
//!    sequential evaluation. The union is filtered against superseded
//!    facts, sorted by premise-id vector (lexicographic) and fired in
//!    that order. Aggregate group maintenance, the restricted-chase
//!    existential satisfaction check, labelled-null invention and
//!    provenance recording all live in this phase: they read and write
//!    global state.
//!
//! **Determinism contract:** the committed fact set, the dense [`FactId`]
//! assignment and the chase-graph derivations are *bitwise identical at
//! any thread count* (including 1): commit order is `(rule id, premise-id
//! lexicographic)`, a pure function of the database state, never of
//! scheduling. `threads == 1` executes the same phases inline without
//! spawning.

mod delta;
mod matcher;

pub use delta::{Delta, DeltaOutcome, DeltaStrategy};
pub use matcher::{match_chunk, BodyMatch, JoinPlan, MatchChunk, MatchMetrics};

use crate::atom::Fact;
use crate::checkpoint::{self, AutosavePolicy, CheckpointError, SnapshotParts};
use crate::database::{Database, FactId};
use crate::depgraph::GoalCone;
use crate::error::{ChaseError, EvalError};
use crate::faultpoint;
use crate::obs::metrics::{Histogram, MetricsRegistry};
use crate::program::Program;
use crate::provenance::{ChaseGraph, Derivation, DerivationId};
use crate::row::{Row, Rows};
use crate::rule::{AggFunc, Aggregate, Rule, RuleId, RuleLayout};
use crate::symbol::Symbol;
use crate::telemetry::{
    ArmedGuard, Budget, RoundStats, RuleStats, RunGuard, RunReport, Termination,
};
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Configuration of a chase run.
///
/// Every run takes the same evaluation path: semi-naive evaluation with
/// joins planned per rule over composite indexes built at run start, a
/// parallel match phase and a sequential commit phase. The knobs bound,
/// observe or restrict that path. A run's budgets, including its round
/// and fact caps, live on the [`RunGuard`].
///
/// Marked `#[non_exhaustive]`: construct it with [`ChaseConfig::default`]
/// and the `with_*` setters.
#[non_exhaustive]
#[derive(Clone, Debug, Default)]
pub struct ChaseConfig {
    /// Worker threads for the parallel match phase. `0` (default) uses
    /// the available parallelism of the host; `1` evaluates inline
    /// without spawning. The chase output is bitwise identical at any
    /// thread count.
    pub threads: usize,
    /// Resource governance for the run: wall-clock deadline, cooperative
    /// cancellation and round/fact/memory budgets. The default guard runs
    /// under the default round and fact caps (see [`RunGuard`]); trips
    /// surface as [`ChaseError::ResourceExhausted`] carrying the
    /// deterministic partial outcome.
    pub guard: RunGuard,
    /// Crash-safety: when set, the engine snapshots the run to the
    /// policy's path every N completed rounds (if N > 0) and on budget
    /// trips and worker panics (see [`AutosavePolicy`]). A process crash then loses
    /// at most the work since the last snapshot:
    /// [`ChaseSession::resume_from_path`] picks it up. Default: off.
    pub autosave: Option<AutosavePolicy>,
    /// The metrics registry the run reports into. `None` (default) uses
    /// the process-wide [`crate::obs::metrics::global`] registry; tests
    /// pass their own to observe a single run in isolation. Every metric
    /// the engine writes is derived from the deterministic run telemetry,
    /// so registry contents are thread-count invariant (latency histogram
    /// *bucket placement* excepted — observation counts still are).
    pub metrics: Option<std::sync::Arc<MetricsRegistry>>,
    /// Goal-directed relevance pruning: when set, the run evaluates only
    /// the rules in the goal predicate's relevance cone (see
    /// [`crate::depgraph::GoalCone`]) and builds indexes only
    /// for them. The cone follows positive *and* negated dependency
    /// edges closed over the SCC condensation, so the pruned run derives
    /// exactly the full perfect model restricted to cone predicates —
    /// goal facts, their provenance and therefore their explanations are
    /// identical to a full run's. Rules outside the cone (constraints
    /// included) are skipped entirely: pruned runs are an explanation
    /// evaluation mode, not a constraint-validation one.
    ///
    /// Set by [`ChaseConfig::with_goal_cone`].
    pub goal_cone: Option<Symbol>,
}

impl ChaseConfig {
    /// Sets the worker-thread count (`0` = available parallelism).
    pub fn with_threads(mut self, threads: usize) -> ChaseConfig {
        self.threads = threads;
        self
    }

    /// Sets the run's resource governance (deadline, cancellation,
    /// budgets).
    pub fn with_guard(mut self, guard: RunGuard) -> ChaseConfig {
        self.guard = guard;
        self
    }

    /// Sets the autosave policy: periodic and on-trip checkpoint
    /// snapshots of the run (see [`AutosavePolicy`]).
    pub fn with_autosave(mut self, policy: AutosavePolicy) -> ChaseConfig {
        self.autosave = Some(policy);
        self
    }

    /// Directs the run's metrics into `registry` instead of the
    /// process-wide [`crate::obs::metrics::global`] registry.
    pub fn with_metrics(mut self, registry: std::sync::Arc<MetricsRegistry>) -> ChaseConfig {
        self.metrics = Some(registry);
        self
    }

    /// Restricts the run to the relevance cone of `goal`: only rules
    /// that can contribute to deriving `goal` facts — through positive
    /// or negated dependencies, closed over recursion cliques — are
    /// evaluated and indexed. Goal facts, their provenance and their
    /// explanations are bitwise identical to a full run's; facts of
    /// predicates outside the cone are simply never derived. See
    /// [`ChaseConfig::goal_cone`] for the semantics.
    pub fn with_goal_cone(mut self, goal: impl Into<Symbol>) -> ChaseConfig {
        self.goal_cone = Some(goal.into());
        self
    }

    /// The registry this run reports into.
    pub(crate) fn metrics_registry(&self) -> std::sync::Arc<MetricsRegistry> {
        self.metrics
            .clone()
            .unwrap_or_else(|| crate::obs::metrics::global().clone())
    }

    /// The resolved worker count: `threads`, or the host's available
    /// parallelism when `threads == 0`.
    fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }
}

/// The result of a chase run: the augmented database, the chase graph and
/// run statistics.
///
/// A *partial* outcome — carried by
/// [`ChaseError::ResourceExhausted`] when a
/// [`RunGuard`] budget trips — has exactly the same shape: every
/// completed round's facts and provenance, plus the telemetry
/// [`report`](ChaseOutcome::report) accumulated up to the trip point.
/// [`ChaseSession::resume`] continues it to the very state an
/// uninterrupted run would have produced, bit for bit.
#[derive(Clone, Debug)]
pub struct ChaseOutcome {
    /// The database closed under the program (or its deterministic prefix,
    /// for a partial outcome).
    pub database: Database,
    /// Fact-level provenance of every derivation.
    pub graph: ChaseGraph,
    /// Number of evaluation rounds executed (including the final fixpoint
    /// check).
    pub rounds: usize,
    /// Number of facts added by the chase.
    pub derived_facts: usize,
    /// Labels of violated negative constraints, in the order they were
    /// first violated.
    pub violations: Vec<String>,
    /// Telemetry of the run: termination, per-rule and per-round counters,
    /// phase timings and peak sizes.
    pub report: RunReport,
    /// Continuation state of an interrupted run, consumed by
    /// [`ChaseSession::resume`]; `None` once fixpoint was reached.
    pub(crate) resume: Option<EngineResume>,
}

impl ChaseOutcome {
    /// Facts of `predicate` in the closed database.
    pub fn facts_of(&self, predicate: &str) -> Vec<(FactId, &Fact)> {
        self.database
            .facts_of(Symbol::new(predicate))
            .iter()
            .map(|&id| (id, self.database.fact(id)))
            .collect()
    }

    /// Looks up a fact id in the closed database.
    pub fn lookup(&self, fact: &Fact) -> Option<FactId> {
        self.database.lookup(fact)
    }

    /// True iff this outcome is the partial state of an interrupted run
    /// (a budget tripped before fixpoint).
    pub fn is_partial(&self) -> bool {
        self.resume.is_some()
    }

    /// An empty, completed outcome; used by tests and error plumbing.
    #[cfg(test)]
    pub(crate) fn empty() -> ChaseOutcome {
        ChaseOutcome {
            database: Database::new(),
            graph: ChaseGraph::new(),
            rounds: 0,
            derived_facts: 0,
            violations: Vec::new(),
            report: RunReport::default(),
            resume: None,
        }
    }
}

/// Continuation state of an interrupted run, carried inside the partial
/// [`ChaseOutcome`] so [`ChaseSession::resume`] picks up at the exact trip
/// point. Round numbering continues across the resume, so the derivation
/// round stamps — and hence the whole provenance — match an uninterrupted
/// run bit for bit.
#[derive(Clone, Debug)]
pub(crate) struct EngineResume {
    /// Per-rule `db.len()` watermarks at the trip.
    pub(crate) last_seen_len: Vec<usize>,
    /// The stratum being evaluated when the budget tripped.
    pub(crate) stratum: usize,
    /// Number of fully committed rounds.
    pub(crate) completed_rounds: u32,
    /// A round interrupted mid-commit, to be finished before the loop
    /// continues.
    pub(crate) pending: Option<PendingRound>,
}

/// A round whose commit phase was interrupted between two rules.
#[derive(Clone, Debug)]
pub(crate) struct PendingRound {
    /// The interrupted round's number.
    pub(crate) round: u32,
    /// First rule index not yet committed.
    pub(crate) next_rule: usize,
    /// Whether any earlier rule of the round committed a fresh fact.
    pub(crate) changed_so_far: bool,
}

/// Outcome of one commit phase.
enum CommitControl {
    /// Every applicable rule committed.
    Completed {
        /// Whether any rule derived a fresh fact.
        changed: bool,
    },
    /// A budget tripped before `next_rule`; all earlier rules committed
    /// canonically.
    Interrupted {
        budget: Budget,
        observed: u64,
        next_rule: usize,
        changed: bool,
    },
}

/// A configured chase over one program: the engine's entry point.
///
/// ```
/// use vadalog::prelude::*;
///
/// let parsed = parse_program(r#"
///     o1: own(x, y, s), s > 0.5 -> control(x, y).
///     own("A", "B", 0.6).
/// "#).unwrap();
/// let db: Database = parsed.facts.into_iter().collect();
/// let out = ChaseSession::new(&parsed.program).run(db).unwrap();
/// assert!(out.database.contains(&Fact::new("control", vec!["A".into(), "B".into()])));
/// ```
///
/// The session borrows the program; configure it fluently and reuse it
/// for several runs or [resumes](ChaseSession::resume).
#[derive(Clone, Debug)]
pub struct ChaseSession<'p> {
    program: &'p Program,
    config: ChaseConfig,
    /// The live outcome maintained by [`ChaseSession::apply_delta`]
    /// (shared with snapshot consumers; see [`ChaseSession::load`]).
    live: Option<std::sync::Arc<ChaseOutcome>>,
}

impl<'p> ChaseSession<'p> {
    /// A session over `program` with the default configuration.
    pub fn new(program: &'p Program) -> ChaseSession<'p> {
        ChaseSession {
            program,
            config: ChaseConfig::default(),
            live: None,
        }
    }

    /// Replaces the whole configuration.
    pub fn with_config(mut self, config: ChaseConfig) -> ChaseSession<'p> {
        self.config = config;
        self
    }

    /// Sets the worker-thread count (`0` = available parallelism).
    pub fn with_threads(mut self, threads: usize) -> ChaseSession<'p> {
        self.config.threads = threads;
        self
    }

    /// Sets the run's resource governance: deadline, cancellation token
    /// and round/fact/memory budgets.
    pub fn with_guard(mut self, guard: RunGuard) -> ChaseSession<'p> {
        self.config.guard = guard;
        self
    }

    /// Atomically writes a checkpoint snapshot of `outcome` to `path`
    /// (temp file → fsync → rename; see [`crate::checkpoint`]).
    ///
    /// Works for completed and partial outcomes alike — checkpointing the
    /// partial carried by [`ChaseError::ResourceExhausted`] or
    /// [`ChaseError::WorkerPanic`] preserves an interrupted run across
    /// process restarts.
    pub fn checkpoint_to(
        &self,
        outcome: &ChaseOutcome,
        path: impl AsRef<Path>,
    ) -> Result<(), CheckpointError> {
        checkpoint::save(path.as_ref(), self.program, &self.config, outcome)
    }

    /// Loads the snapshot at `path` and continues it to fixpoint.
    ///
    /// The snapshot is verified (magic, version, checksum, program+config
    /// fingerprint) before anything is rebuilt; every corruption mode
    /// surfaces as [`ChaseError::Checkpoint`] with a precise
    /// [`CheckpointError`], never a panic. A snapshot of a *completed*
    /// run is returned as-is; a partial one is resumed with
    /// [`ChaseSession::resume`] and reaches a state bitwise identical to
    /// an uninterrupted run, at any thread count. The load/rebuild time
    /// is stamped into the outcome's
    /// [`checkpoint_restore_ns`](crate::telemetry::PhaseTimings::checkpoint_restore_ns).
    pub fn resume_from_path(&self, path: impl AsRef<Path>) -> Result<ChaseOutcome, ChaseError> {
        let t = Instant::now();
        let loaded =
            checkpoint::load(path.as_ref(), self.program, &self.config).map_err(|source| {
                ChaseError::Checkpoint {
                    source,
                    partial: None,
                }
            })?;
        let restore_ns = t.elapsed().as_nanos() as u64;
        match self.resume(loaded) {
            Ok(mut out) => {
                out.report.timings.checkpoint_restore_ns += restore_ns;
                Ok(out)
            }
            Err(ChaseError::ResourceExhausted {
                budget,
                observed,
                mut partial,
            }) => {
                partial.report.timings.checkpoint_restore_ns += restore_ns;
                Err(ChaseError::ResourceExhausted {
                    budget,
                    observed,
                    partial,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Runs the chase over `database` to fixpoint.
    pub fn run(&self, database: Database) -> Result<ChaseOutcome, ChaseError> {
        Chase::new(self.program, database, self.config.clone()).run()
    }

    /// Continues a *partial* outcome — one carried by
    /// [`ChaseError::ResourceExhausted`] or [`ChaseError::WorkerPanic`] —
    /// to fixpoint, reusing its database and chase graph. The
    /// continuation replays the very evaluation the trip paused, for any
    /// program, and reaches a final state bitwise identical to an
    /// uninterrupted run. A completed outcome is returned unchanged.
    ///
    /// To add or retract facts, [`load`](ChaseSession::load) a completed
    /// outcome and call [`ChaseSession::apply_delta`].
    pub fn resume(&self, outcome: ChaseOutcome) -> Result<ChaseOutcome, ChaseError> {
        if !outcome.is_partial() {
            return Ok(outcome);
        }
        let program = self.program;
        let ChaseOutcome {
            database,
            graph,
            violations,
            resume,
            ..
        } = outcome;
        let state = resume.expect("a partial outcome carries its continuation state");

        // Rebuild the engine state from the provenance. Aggregate groups
        // are not rebuilt: each aggregate rule's first evaluation after
        // the resume re-matches fully, and `fire` drops the steps it
        // repeats, which the chase graph already records.
        let plans = join_plans(program);
        let mut null_counter = 0u64;
        let mut agg_current: HashMap<(RuleId, Vec<Value>), FactId> = HashMap::new();
        for der in graph.derivations() {
            let layout = &plans[der.rule.0].layout;
            if layout.step.is_some() {
                agg_current.insert((der.rule, step_key(layout, &der.bindings)), der.conclusion);
            }
        }
        for (_, fact) in database.iter() {
            for v in &fact.values {
                if let Value::Null(n) = v {
                    null_counter = null_counter.max(*n);
                }
            }
        }

        let initial_facts = database.len();
        // The per-rule watermarks of the trip point are restored, so the
        // replay sees exactly the deltas the interrupted run would have
        // seen.
        let last_seen_len = state.last_seen_len.clone();
        let metrics = EngineMetrics::new(program, &self.config);
        let postings_at_start = database.postings_built();
        let (cone, pruned_edb_facts) = resolve_cone(program, &self.config, &database);
        let recorded = DerivationIndex::of(&graph);
        let engine = Chase {
            program,
            db: database,
            graph,
            config: self.config.clone(),
            null_counter,
            last_seen_len,
            agg_current,
            recorded,
            agg_groups: vec![None; program.len()],
            violations,
            initial_facts,
            report: RunReport::default(),
            resume_from: Some(state),
            metrics,
            plans,
            postings_at_start,
            cone,
            pruned_edb_facts,
        };
        // `initial_facts` counts the partial closure, so `derived_facts`
        // of the result counts only what the continuation derived.
        engine.run_in_place()
    }
}

/// Matching work below this many outermost candidates is not worth
/// splitting further: one chunk per ~64 candidates, capped per thread.
const CHUNK_TARGET: usize = 64;

/// One unit of work of the parallel match phase.
struct WorkItem<'r> {
    rule_idx: usize,
    rule: &'r Rule,
    plan: &'r JoinPlan,
    chunk: MatchChunk,
}

/// Result of matching one work item: the chunk's matches plus the probe
/// and scan counts the enumeration accumulated.
type ItemResult = Result<(Vec<BodyMatch>, MatchMetrics), EvalError>;

/// Per-item results of [`Chase::execute_items`]; `None` slots were never
/// started (the phase was interrupted and the caller discards them all).
type ItemResults = Vec<Option<ItemResult>>;

/// What [`Chase::execute_items`] hands back: the per-item results, the
/// async budget trip (if one interrupted the phase), and the first
/// worker panic as `(item index, message)`.
type ExecutedItems = (ItemResults, Option<(Budget, u64)>, Option<(usize, String)>);

/// Everything the match phase hands to the run loop: the merged matches
/// and the phase's telemetry.
struct MatchPhaseOutput {
    /// Per-rule merged matches, in canonical chunk order.
    merged: HashMap<usize, Result<Vec<BodyMatch>, EvalError>>,
    /// Per rule: snapshot-phase match metrics and matches enumerated.
    /// Thread-count invariant (chunk-boundary work is attributed to
    /// chunk 0 only).
    rule_metrics: Vec<(usize, MatchMetrics, u64)>,
    /// Total matches buffered after the merge (peak-size telemetry).
    buffered: u64,
    /// Set iff cancellation or the deadline tripped mid-phase; `merged`
    /// is then empty.
    interrupted: Option<(Budget, u64)>,
    /// Set iff a worker panicked mid-phase (rule index and panic
    /// message); `merged` is then empty. When several items panic, the
    /// lowest *observed* item index wins — which items were observed is
    /// scheduling-dependent, the committed state is not.
    panicked: Option<(usize, String)>,
    match_ns: u64,
    merge_ns: u64,
}

impl MatchPhaseOutput {
    fn empty() -> MatchPhaseOutput {
        MatchPhaseOutput {
            merged: HashMap::new(),
            rule_metrics: Vec::new(),
            buffered: 0,
            interrupted: None,
            panicked: None,
            match_ns: 0,
            merge_ns: 0,
        }
    }
}

/// Elapsed nanoseconds since a phase timer started.
fn lap(timer: Instant) -> u64 {
    timer.elapsed().as_nanos() as u64
}

/// The human-readable message of a caught panic payload (panics carry
/// `&str` or `String` in practice; anything else gets a placeholder).
/// Callers must pass `&*boxed` — `&boxed` would unsize the `Box` itself
/// into the trait object and every downcast would miss.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Pre-resolved metric handles the engine updates during a run.
/// Resolving a handle takes the registry lock once; updating one is a
/// relaxed atomic, cheap enough to stay on unconditionally.
struct EngineMetrics {
    registry: std::sync::Arc<MetricsRegistry>,
    /// Commit latency per rule, indexed like `Program::rules`. Observation
    /// *counts* are deterministic (the commit phase is sequential); bucket
    /// placement is wall-clock.
    rule_commit_ns: Vec<std::sync::Arc<Histogram>>,
    /// Facts committed per completed round.
    commit_batch_facts: std::sync::Arc<Histogram>,
    /// Wall-clock extent per completed round.
    round_duration_ns: std::sync::Arc<Histogram>,
}

/// Nanosecond histogram bounds: 10µs .. 10s, decade-spaced.
const NS_BOUNDS: &[u64] = &[
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

impl EngineMetrics {
    fn new(program: &Program, config: &ChaseConfig) -> EngineMetrics {
        let registry = config.metrics_registry();
        let rule_commit_ns = program
            .rules()
            .iter()
            .map(|rule| {
                registry.histogram_with(
                    "vadalog_rule_commit_ns",
                    &[("rule", &rule.label)],
                    NS_BOUNDS,
                    "Commit-phase latency per rule (match top-up, canonicalization and firing), in nanoseconds.",
                )
            })
            .collect();
        let commit_batch_facts = registry.histogram(
            "vadalog_commit_batch_facts",
            &[1, 10, 100, 1_000, 10_000, 100_000, 1_000_000],
            "Facts committed per completed chase round.",
        );
        let round_duration_ns = registry.histogram(
            "vadalog_round_duration_ns",
            NS_BOUNDS,
            "Wall-clock extent per completed chase round, in nanoseconds.",
        );
        EngineMetrics {
            registry,
            rule_commit_ns,
            commit_batch_facts,
            round_duration_ns,
        }
    }
}

/// Observes a rule-commit's latency into its histogram when dropped, so
/// every exit path of the commit block (no-match skips included) counts
/// exactly once.
struct LatencyGuard {
    hist: std::sync::Arc<Histogram>,
    timer: Instant,
}

impl Drop for LatencyGuard {
    fn drop(&mut self) {
        self.hist.observe(lap(self.timer));
    }
}

struct Chase<'p> {
    program: &'p Program,
    db: Database,
    graph: ChaseGraph,
    config: ChaseConfig,
    /// Fresh labelled-null counter.
    null_counter: u64,
    /// db.len() at the last evaluation of each rule; unchanged length
    /// means no new facts can have enabled the rule (the store is
    /// append-only).
    last_seen_len: Vec<usize>,
    /// Latest aggregate fact per (rule, group key): a fuller re-aggregation
    /// supersedes (deactivates) the previous partial fact, so downstream
    /// rules never sum a partial and a full aggregate of the same group.
    agg_current: HashMap<(RuleId, Vec<Value>), FactId>,
    /// Every derivation of `graph`, for the duplicate check of
    /// [`Chase::fire`].
    recorded: DerivationIndex,
    /// Per rule: the aggregate groups kept across rounds by semi-naive
    /// evaluation. `None` until the rule's first evaluation fills it, and
    /// always for rules that keep no groups (see [`Chase::keeps_groups`]).
    /// Not part of outcomes or checkpoints: a resumed run starts without
    /// it.
    agg_groups: Vec<Option<AggGroups>>,
    violations: Vec<String>,
    initial_facts: usize,
    /// Telemetry accumulated over this run (fresh per run: a resumed run
    /// reports only its own work).
    report: RunReport,
    /// Trip-point state to continue from, set by [`ChaseSession::resume`].
    resume_from: Option<EngineResume>,
    /// Pre-resolved handles into the run's metrics registry.
    metrics: EngineMetrics,
    /// Static join plans, one per program rule, computed once up front.
    plans: Vec<JoinPlan>,
    /// `db.postings_built()` at construction, so the run reports only the
    /// posting-list entries it built itself.
    postings_at_start: u64,
    /// The resolved relevance cone when goal-directed pruning is active:
    /// rules outside it are never matched, committed or indexed. `None`
    /// when no cone is configured.
    cone: Option<GoalCone>,
    /// EDB facts whose predicate lies outside the cone — facts the
    /// pruned run exempts from indexing and derivation.
    pruned_edb_facts: u64,
}

/// The per-rule join plans of `program`.
fn join_plans(program: &Program) -> Vec<JoinPlan> {
    program.rules().iter().map(JoinPlan::for_rule).collect()
}

/// Adds one enumeration's matching work to its rule's counters:
/// `enumerated` matches and the lookups `metrics` counted.
fn count_matching(stats: &mut RuleStats, metrics: &MatchMetrics, enumerated: u64) {
    stats.matches_enumerated += enumerated;
    stats.index_probes += metrics.index_probes;
    stats.scans += metrics.scans;
    stats.composite_probes += metrics.composite_probes;
    stats.negation_probes += metrics.negation_probes;
    stats.negation_scans += metrics.negation_scans;
}

/// Every match of `rule` that touches a fact with id >= `watermark`: one
/// pivot-first [`match_chunk`] per positive body atom, kept in pivot
/// order. A match touching several new facts is produced by every pivot
/// on one of them; only the first of those keeps it, so each premise
/// vector appears once.
fn match_delta(
    db: &Database,
    rule: &Rule,
    plan: &JoinPlan,
    watermark: u32,
    metrics: &mut MatchMetrics,
) -> Result<Vec<BodyMatch>, EvalError> {
    let mut out = Vec::new();
    for pivot in 0..plan.pivots.len() {
        let chunk = MatchChunk::delta(pivot, watermark);
        let matches = match_chunk(db, rule, plan, &chunk, metrics)?;
        out.extend(
            matches
                .into_iter()
                .filter(|m| m.premises[..pivot].iter().all(|p| p.0 < watermark)),
        );
    }
    Ok(out)
}

/// Resolves [`ChaseConfig::goal_cone`] against the program and the EDB:
/// the cone to prune by plus the number of EDB facts outside it. The
/// count is deterministic — a pure function of the EDB and the program —
/// so the cone metrics stay thread-count invariant like every other
/// engine metric.
fn resolve_cone(program: &Program, config: &ChaseConfig, db: &Database) -> (Option<GoalCone>, u64) {
    let Some(goal) = config.goal_cone else {
        return (None, 0);
    };
    let cone = GoalCone::compute(program, goal);
    let pruned_facts = db
        .iter()
        .filter(|(_, f)| !cone.contains(f.predicate))
        .count() as u64;
    (Some(cone), pruned_facts)
}

impl<'p> Chase<'p> {
    fn new(program: &'p Program, db: Database, config: ChaseConfig) -> Chase<'p> {
        let mut graph = ChaseGraph::new();
        for (id, _) in db.iter() {
            graph.mark_extensional(id);
        }
        let initial_facts = db.len();
        let metrics = EngineMetrics::new(program, &config);
        let plans = join_plans(program);
        let postings_at_start = db.postings_built();
        let (cone, pruned_edb_facts) = resolve_cone(program, &config, &db);
        Chase {
            program,
            db,
            graph,
            config,
            null_counter: 0,
            last_seen_len: vec![usize::MAX; program.len()],
            agg_current: HashMap::new(),
            recorded: DerivationIndex::default(),
            agg_groups: vec![None; program.len()],
            violations: Vec::new(),
            initial_facts,
            report: RunReport::default(),
            resume_from: None,
            metrics,
            plans,
            postings_at_start,
            cone,
            pruned_edb_facts,
        }
    }

    fn run(self) -> Result<ChaseOutcome, ChaseError> {
        self.run_in_place()
    }

    fn run_in_place(mut self) -> Result<ChaseOutcome, ChaseError> {
        let start = Instant::now();
        let armed = ArmedGuard::arm(&self.config.guard, start);
        let threads = self.config.effective_threads();
        let strata = self.program.stratification().strata;
        let _run_span = crate::span!("chase.run", strata = strata, threads = threads);

        // Build exactly the planned composite indexes before the first
        // parallel phase: a cold index must never be constructed while the
        // store is shared read-only across matching workers. The plans
        // cover the positive-atom probes of the full match and of every
        // pivot-first delta expansion, plus the negated-atom and
        // head-satisfaction signatures, so those checks probe instead of
        // scanning. Under goal-directed pruning only cone rules are
        // indexed: predicates outside the cone stay scan-only dead weight
        // the run never touches.
        let t = Instant::now();
        for (idx, (rule, plan)) in self.program.rules().iter().zip(&self.plans).enumerate() {
            if self.rule_in_cone(idx) {
                plan.build_indexes(rule, &mut self.db);
            }
        }
        self.report.timings.index_build_ns += lap(t);

        self.report.threads = threads;
        self.report.strata = strata as u32;
        self.report.rules = self
            .program
            .rules()
            .iter()
            .map(|rule| RuleStats {
                label: rule.label.clone(),
                ..RuleStats::default()
            })
            .collect();

        let (first_stratum, mut round, mut pending) = match self.resume_from.take() {
            Some(state) => (state.stratum, state.completed_rounds, state.pending),
            None => (0, 0, None),
        };

        // Strata are evaluated bottom-up: a negated atom is only checked
        // once its predicate's stratum has reached fixpoint, giving the
        // standard perfect-model semantics for stratified negation.
        for stratum in first_stratum..strata {
            let _stratum_span = crate::span!("chase.stratum", stratum = stratum);
            // Completion pass: finish a round that a previous run left
            // interrupted mid-commit, starting at the rule the trip
            // stopped before. Its matches are re-derived from each rule's
            // restored watermark, which (after canonicalization) is
            // exactly the snapshot-phase ∪ top-up set the uninterrupted
            // round would have committed.
            if let Some(p) = pending.take() {
                let round_t = Instant::now();
                let facts_before = self.db.len();
                let matches_before = self.report.total_matches();
                let t = Instant::now();
                let control = self.commit_phase(
                    stratum,
                    0,
                    HashMap::new(),
                    p.round,
                    p.next_rule,
                    true,
                    &armed,
                )?;
                self.report.timings.commit_ns += lap(t);
                match control {
                    CommitControl::Interrupted {
                        budget,
                        observed,
                        next_rule,
                        changed,
                    } => {
                        let still_pending = PendingRound {
                            round: p.round,
                            next_rule,
                            changed_so_far: p.changed_so_far || changed,
                        };
                        return self.exhausted(
                            budget,
                            observed,
                            stratum,
                            p.round - 1,
                            Some(still_pending),
                            start,
                        );
                    }
                    CommitControl::Completed { changed } => {
                        round = p.round;
                        self.log_round(p.round, stratum, matches_before, facts_before, round_t);
                        if !(changed || p.changed_so_far) {
                            // The interrupted round was the fixpoint check.
                            continue;
                        }
                    }
                }
            }
            loop {
                // Round boundary: the one place every budget is checked.
                // A run that reaches fixpoint in the same round it
                // exhausts a budget completes — trips only pre-empt
                // *further* work, deterministically.
                if let Some((budget, observed)) = armed.trip(
                    u64::from(round) + 1,
                    self.db.len() as u64,
                    self.memory_bytes(),
                ) {
                    return self.exhausted(budget, observed, stratum, round, None, start);
                }
                faultpoint::trigger("chase.round");
                round += 1;
                let _round_span = crate::span!("chase.round", round = round);
                let round_t = Instant::now();
                let snapshot_len = self.db.len();
                let matches_before = self.report.total_matches();
                // Phase 1: enumerate every applicable rule's matches
                // against the round-start snapshot, in parallel.
                let phase = self.match_phase(stratum, snapshot_len, threads, &armed);
                self.report.timings.match_ns += phase.match_ns;
                self.report.timings.merge_ns += phase.merge_ns;
                for (idx, metrics, enumerated) in &phase.rule_metrics {
                    count_matching(&mut self.report.rules[*idx], metrics, *enumerated);
                }
                self.report.peak.match_buffer = self.report.peak.match_buffer.max(phase.buffered);
                if let Some((budget, observed)) = phase.interrupted {
                    // The phase is read-only, so nothing was committed:
                    // the round never started.
                    return self.exhausted(budget, observed, stratum, round - 1, None, start);
                }
                if let Some((rule_idx, message)) = phase.panicked {
                    // Same reasoning: the panicked phase committed
                    // nothing, so the state is the last completed round.
                    return self.worker_panicked(rule_idx, message, stratum, round - 1, start);
                }
                // Phase 2: commit in rule-id order, topping up each rule
                // with the matches enabled by this round's earlier rules.
                let t = Instant::now();
                let control = self.commit_phase(
                    stratum,
                    snapshot_len,
                    phase.merged,
                    round,
                    0,
                    false,
                    &armed,
                )?;
                self.report.timings.commit_ns += lap(t);
                match control {
                    CommitControl::Interrupted {
                        budget,
                        observed,
                        next_rule,
                        changed,
                    } => {
                        let pending = PendingRound {
                            round,
                            next_rule,
                            changed_so_far: changed,
                        };
                        return self.exhausted(
                            budget,
                            observed,
                            stratum,
                            round - 1,
                            Some(pending),
                            start,
                        );
                    }
                    CommitControl::Completed { changed } => {
                        self.log_round(round, stratum, matches_before, snapshot_len, round_t);
                        if let Some(policy) = self.autosave_due(round, changed) {
                            if let Err(source) = self.autosave_now(&policy, stratum, round) {
                                return Err(self.checkpoint_failed(source, stratum, round, start));
                            }
                        }
                        if !changed {
                            break;
                        }
                    }
                }
            }
        }
        Ok(self.finish(Termination::Completed, round, start, None))
    }

    /// The governed memory observation: the deterministic O(1) running
    /// estimates of the fact store and the chase graph.
    fn memory_bytes(&self) -> u64 {
        (self.db.approx_bytes() + self.graph.approx_bytes()) as u64
    }

    /// Appends one round to the report's round log and the round
    /// histograms.
    fn log_round(
        &mut self,
        round: u32,
        stratum: usize,
        matches_before: u64,
        facts_before: usize,
        round_t: Instant,
    ) {
        let facts_end = self.db.len();
        self.metrics
            .commit_batch_facts
            .observe((facts_end - facts_before) as u64);
        let duration_ns = lap(round_t);
        self.metrics.round_duration_ns.observe(duration_ns);
        self.report.rounds_log.push(RoundStats {
            round,
            stratum: stratum as u32,
            matches: self.report.total_matches() - matches_before,
            facts_committed: (facts_end - facts_before) as u64,
            facts_end: facts_end as u64,
            duration_ns,
        });
    }

    /// Seals a budget trip: packages the deterministic partial outcome
    /// (with its continuation state) into
    /// [`ChaseError::ResourceExhausted`]. With an on-trip autosave policy
    /// the partial is also snapshotted to disk first.
    fn exhausted(
        self,
        budget: Budget,
        observed: u64,
        stratum: usize,
        completed_rounds: u32,
        pending: Option<PendingRound>,
        start: Instant,
    ) -> Result<ChaseOutcome, ChaseError> {
        let resume = EngineResume {
            last_seen_len: self.last_seen_len.clone(),
            stratum,
            completed_rounds,
            pending,
        };
        let program = self.program;
        let config = self.config.clone();
        let partial = self.finish(
            Termination::Exhausted { budget, observed },
            completed_rounds,
            start,
            Some(resume),
        );
        let partial = Self::trip_save(program, &config, partial)?;
        Err(ChaseError::ResourceExhausted {
            budget,
            observed,
            partial: Box::new(partial),
        })
    }

    /// Seals a worker panic (already isolated by [`Chase::execute_items`])
    /// into [`ChaseError::WorkerPanic`] carrying the deterministic state
    /// of the last completed round, resumable like any budget trip.
    fn worker_panicked(
        self,
        rule_idx: usize,
        message: String,
        stratum: usize,
        completed_rounds: u32,
        start: Instant,
    ) -> Result<ChaseOutcome, ChaseError> {
        let rule = self.program.rule(RuleId(rule_idx)).label.clone();
        let resume = EngineResume {
            last_seen_len: self.last_seen_len.clone(),
            stratum,
            completed_rounds,
            pending: None,
        };
        let program = self.program;
        let config = self.config.clone();
        let partial = self.finish(
            Termination::Panicked { rule: rule.clone() },
            completed_rounds,
            start,
            Some(resume),
        );
        let partial = Self::trip_save(program, &config, partial)?;
        Err(ChaseError::WorkerPanic {
            rule,
            message,
            partial: Box::new(partial),
        })
    }

    /// The autosave policy due after completing `round`, if any. Periodic
    /// saves fire every `every_rounds` completed rounds while the run is
    /// still making progress (the final fixpoint check is not worth a
    /// snapshot: the completed outcome follows immediately).
    fn autosave_due(&self, round: u32, changed: bool) -> Option<AutosavePolicy> {
        let policy = self.config.autosave.as_ref()?;
        (changed && policy.every_rounds > 0 && round.is_multiple_of(policy.every_rounds))
            .then(|| policy.clone())
    }

    /// Writes a periodic autosave snapshot of the run as of completed
    /// round `round`: the continuation cursor is a clean round boundary
    /// (no pending commit), exactly the state a budget trip at the next
    /// round top would produce.
    fn autosave_now(
        &mut self,
        policy: &AutosavePolicy,
        stratum: usize,
        round: u32,
    ) -> Result<(), CheckpointError> {
        let t = Instant::now();
        self.report.autosaves += 1;
        let mut report = self.report.clone();
        report.rounds = round;
        report.termination = Termination::Suspended;
        report.peak.facts = self.db.len() as u64;
        report.peak.derivations = self.graph.derivations().len() as u64;
        report.peak.approx_bytes = self.memory_bytes();
        let resume = EngineResume {
            last_seen_len: self.last_seen_len.clone(),
            stratum,
            completed_rounds: round,
            pending: None,
        };
        let result = checkpoint::save_parts(
            &policy.path,
            checkpoint::fingerprint(self.program, &self.config),
            &SnapshotParts {
                db: &self.db,
                graph: &self.graph,
                rounds: u64::from(round),
                derived_facts: (self.db.len() - self.initial_facts) as u64,
                violations: &self.violations,
                report: &report,
                resume: Some(&resume),
            },
            &self.metrics.registry,
        );
        self.report.timings.checkpoint_save_ns += lap(t);
        if result.is_err() {
            self.report.autosaves -= 1;
        }
        result
    }

    /// Seals a failed autosave: the run stops (so the caller learns about
    /// the failing disk *now*, not after hours more work), but the
    /// deterministic partial outcome is carried in the error and stays
    /// resumable in memory.
    fn checkpoint_failed(
        self,
        source: CheckpointError,
        stratum: usize,
        round: u32,
        start: Instant,
    ) -> ChaseError {
        let resume = EngineResume {
            last_seen_len: self.last_seen_len.clone(),
            stratum,
            completed_rounds: round,
            pending: None,
        };
        let partial = self.finish(Termination::Suspended, round, start, Some(resume));
        ChaseError::Checkpoint {
            source,
            partial: Some(Box::new(partial)),
        }
    }

    /// On-trip autosave: snapshots `partial` to the policy path (when a
    /// policy is configured), stamping the save time and count into the
    /// partial's report. A failed save turns into
    /// [`ChaseError::Checkpoint`] still carrying the partial.
    fn trip_save(
        program: &Program,
        config: &ChaseConfig,
        mut partial: ChaseOutcome,
    ) -> Result<ChaseOutcome, ChaseError> {
        let Some(policy) = config.autosave.as_ref() else {
            return Ok(partial);
        };
        partial.report.autosaves += 1;
        let t = Instant::now();
        let result = checkpoint::save(&policy.path, program, config, &partial);
        partial.report.timings.checkpoint_save_ns += lap(t);
        match result {
            Ok(()) => Ok(partial),
            Err(source) => {
                partial.report.autosaves -= 1;
                Err(ChaseError::Checkpoint {
                    source,
                    partial: Some(Box::new(partial)),
                })
            }
        }
    }

    /// Seals the run into its outcome, stamping the report's termination,
    /// peaks and total time.
    fn finish(
        mut self,
        termination: Termination,
        rounds: u32,
        start: Instant,
        resume: Option<EngineResume>,
    ) -> ChaseOutcome {
        self.report.termination = termination;
        self.report.rounds = rounds;
        self.report.peak.facts = self.db.len() as u64;
        self.report.peak.derivations = self.graph.derivations().len() as u64;
        self.report.peak.approx_bytes = self.memory_bytes();
        self.report.timings.total_ns = lap(start);
        self.flush_metrics();
        ChaseOutcome {
            derived_facts: self.db.len() - self.initial_facts,
            database: self.db,
            graph: self.graph,
            rounds: rounds as usize,
            violations: self.violations,
            report: self.report,
            resume,
        }
    }

    /// Flushes the sealed report's counters into the run's metrics
    /// registry. Every value here comes from the deterministic run
    /// telemetry, so registry counts are bitwise identical at any
    /// worker-thread count.
    fn flush_metrics(&self) {
        let registry = &self.metrics.registry;
        let status = match &self.report.termination {
            Termination::Completed => "completed",
            Termination::Exhausted { .. } => "exhausted",
            Termination::Suspended => "suspended",
            Termination::Panicked { .. } => "panicked",
        };
        registry
            .counter_with(
                "vadalog_chase_runs_total",
                &[("status", status)],
                "Chase runs sealed, by termination status.",
            )
            .inc();
        registry
            .counter(
                "vadalog_chase_rounds_total",
                "Chase rounds completed across runs.",
            )
            .add(u64::from(self.report.rounds));
        registry
            .counter(
                "vadalog_chase_matches_total",
                "Body matches enumerated across runs.",
            )
            .add(self.report.total_matches());
        registry
            .counter(
                "vadalog_chase_facts_derived_total",
                "Facts derived (beyond the EDB) across runs.",
            )
            .add((self.db.len() - self.initial_facts) as u64);
        let mut probes = 0;
        let mut scans = 0;
        let mut composite = 0;
        let mut neg_probes = 0;
        let mut neg_scans = 0;
        let mut sat_probes = 0;
        let mut sat_scans = 0;
        let mut duplicates = 0;
        for rule in &self.report.rules {
            probes += rule.index_probes;
            scans += rule.scans;
            composite += rule.composite_probes;
            neg_probes += rule.negation_probes;
            neg_scans += rule.negation_scans;
            sat_probes += rule.satisfaction_probes;
            sat_scans += rule.satisfaction_scans;
            duplicates += rule.duplicates_preempted;
        }
        registry
            .counter(
                "vadalog_index_probes_total",
                "Positional-index probes during matching (vs vadalog_index_scans_total: the probe/scan ratio).",
            )
            .add(probes);
        registry
            .counter(
                "vadalog_index_scans_total",
                "Full-predicate scans during matching.",
            )
            .add(scans);
        registry
            .counter(
                "vadalog_composite_probes_total",
                "Multi-position composite-index probes during matching (subset of vadalog_index_probes_total).",
            )
            .add(composite);
        registry
            .counter(
                "vadalog_negation_probes_total",
                "Negated-atom checks answered by an index probe.",
            )
            .add(neg_probes);
        registry
            .counter(
                "vadalog_negation_scans_total",
                "Negated-atom checks answered by a full-predicate scan.",
            )
            .add(neg_scans);
        registry
            .counter(
                "vadalog_satisfaction_probes_total",
                "Restricted-chase head-satisfaction checks answered by an index probe.",
            )
            .add(sat_probes);
        registry
            .counter(
                "vadalog_satisfaction_scans_total",
                "Restricted-chase head-satisfaction checks answered by a full-predicate scan.",
            )
            .add(sat_scans);
        registry
            .counter(
                "vadalog_index_postings_total",
                "Index posting-list entries built (eager builds plus incremental inserts).",
            )
            .add(self.db.postings_built() - self.postings_at_start);
        registry
            .counter(
                "vadalog_duplicates_preempted_total",
                "Chase steps preempted because the fact already existed.",
            )
            .add(duplicates);
        registry
            .counter(
                "vadalog_autosaves_total",
                "Autosave checkpoints written by the engine.",
            )
            .add(self.report.autosaves);
        if let Termination::Exhausted { budget, .. } = &self.report.termination {
            registry
                .counter_with(
                    "vadalog_guard_trips_total",
                    &[("budget", budget.kind())],
                    "Resource-guard trips, by exhausted budget.",
                )
                .inc();
        }
        if let Termination::Panicked { rule } = &self.report.termination {
            registry
                .counter_with(
                    "vadalog_worker_panics_total",
                    &[("rule", rule)],
                    "Match-phase worker panics isolated by the engine, by rule.",
                )
                .inc();
        }
        registry
            .gauge(
                "vadalog_peak_facts",
                "Largest fact store observed at the end of any run.",
            )
            .set_max(self.report.peak.facts);
        if let Some(cone) = &self.cone {
            registry
                .gauge(
                    "vadalog_cone_size",
                    "Predicates in the goal cone of the latest pruned run.",
                )
                .set(cone.predicate_count() as u64);
            registry
                .counter(
                    "vadalog_cone_pruned_rules_total",
                    "Rules excluded from evaluation by goal-directed pruning, across runs.",
                )
                .add(cone.pruned_rule_count() as u64);
            registry
                .counter(
                    "vadalog_cone_pruned_facts_total",
                    "EDB facts outside the goal cone (exempt from indexing and derivation), across pruned runs.",
                )
                .add(self.pruned_edb_facts);
        }
    }

    /// True iff rule `idx` participates in this run: always, unless
    /// goal-directed pruning is active and the rule falls outside the
    /// goal's relevance cone.
    fn rule_in_cone(&self, idx: usize) -> bool {
        self.cone
            .as_ref()
            .is_none_or(|cone| cone.includes_rule(RuleId(idx)))
    }

    /// True iff rule `idx` is matched semi-naively (delta expansion per
    /// pivot) at its current watermark. An aggregate rule additionally
    /// needs its kept groups: without them (first evaluation, resumed
    /// run, a rule that keeps none) one full match folds every group.
    fn is_incremental(&self, idx: usize, rule: &Rule, watermark: usize) -> bool {
        watermark != usize::MAX
            && !rule.is_constraint()
            && !self.rematches(idx, rule)
            && (!rule.has_aggregate() || self.agg_groups[idx].is_some())
    }

    /// True iff plain rule `idx` re-matches in full at every evaluation:
    /// its head has an existential variable and an aggregate rule derives
    /// its head predicate. The restricted-chase check may then have
    /// pre-empted one of its steps by an aggregate fact that a re-fold
    /// supersedes later, and only a full re-match fires that step anew:
    /// a delta never sees its premises again.
    fn rematches(&self, idx: usize, rule: &Rule) -> bool {
        let Some(head) = rule.head.atom() else {
            return false;
        };
        !rule.has_aggregate()
            && !self.plans[idx].layout.existentials.is_empty()
            && self.program.rules().iter().any(|r| {
                r.has_aggregate() && r.head.atom().is_some_and(|h| h.predicate == head.predicate)
            })
    }

    /// True iff aggregate rule `idx` keeps its groups across rounds,
    /// which it does unless its head has an existential variable.
    /// Skipping an unchanged group is a no-op only if the chase graph
    /// already records its last step. With an existential head the
    /// restricted-chase check may have pre-empted that step by a fact of
    /// another group or rule; once that fact is superseded, a full
    /// re-match fires the unchanged group again and derives a fresh fact.
    fn keeps_groups(&self, idx: usize) -> bool {
        self.plans[idx].layout.existentials.is_empty()
    }

    /// The parallel match phase: enumerates the body matches of every
    /// applicable rule of `stratum` against the snapshot, returning the
    /// merged per-rule results plus the phase's telemetry. Read-only on
    /// the database; executed inline when a single worker suffices.
    ///
    /// Cancellation and deadline are polled at chunk boundaries; on a
    /// trip the phase's (partial) results are discarded wholesale, so an
    /// interruption can never perturb the determinism of committed
    /// rounds.
    fn match_phase(
        &self,
        stratum: usize,
        snapshot_len: usize,
        threads: usize,
        armed: &ArmedGuard,
    ) -> MatchPhaseOutput {
        let mut items: Vec<WorkItem<'_>> = Vec::new();
        for (idx, rule) in self.program.rules().iter().enumerate() {
            if self.program.rule_stratum(RuleId(idx)) != stratum || !self.rule_in_cone(idx) {
                continue;
            }
            let watermark = self.last_seen_len[idx];
            if watermark == snapshot_len {
                // Nothing new since the rule's last evaluation; matches
                // enabled by *this* round's commits are found by the
                // commit-phase top-up instead.
                continue;
            }
            let parts = self.parts_for(rule, threads);
            if self.is_incremental(idx, rule, watermark) {
                for (pivot, atom) in rule.positive_body().enumerate() {
                    // A pivot atom with no fact past the watermark matches
                    // nothing; skipping it spares the chunks their
                    // outermost lookup.
                    let ids = self.db.facts_of(atom.predicate);
                    if ids.last().is_none_or(|id| (id.0 as usize) < watermark) {
                        continue;
                    }
                    for part in 0..parts {
                        items.push(WorkItem {
                            rule_idx: idx,
                            rule,
                            plan: &self.plans[idx],
                            chunk: MatchChunk {
                                pivot: Some((pivot, watermark as u32)),
                                part,
                                parts,
                            },
                        });
                    }
                }
            } else {
                for part in 0..parts {
                    items.push(WorkItem {
                        rule_idx: idx,
                        rule,
                        plan: &self.plans[idx],
                        chunk: MatchChunk {
                            pivot: None,
                            part,
                            parts,
                        },
                    });
                }
            }
        }

        let t = Instant::now();
        let (results, interrupted, panicked) = self.execute_items(&items, threads, armed);
        let match_ns = lap(t);
        if let Some((budget, observed)) = interrupted {
            return MatchPhaseOutput {
                interrupted: Some((budget, observed)),
                match_ns,
                ..MatchPhaseOutput::empty()
            };
        }
        if let Some((item_idx, message)) = panicked {
            return MatchPhaseOutput {
                panicked: Some((items[item_idx].rule_idx, message)),
                match_ns,
                ..MatchPhaseOutput::empty()
            };
        }

        // Merge per rule, in item order: chunk concatenation restores the
        // sequential enumeration; the commit phase canonicalizes further.
        let t = Instant::now();
        let mut merged: HashMap<usize, Result<Vec<BodyMatch>, EvalError>> = HashMap::new();
        let mut per_rule: HashMap<usize, (MatchMetrics, u64)> = HashMap::new();
        for (item, result) in items.iter().zip(results) {
            let result = result.expect("uninterrupted phase fills every slot");
            let slot = merged
                .entry(item.rule_idx)
                .or_insert_with(|| Ok(Vec::new()));
            match result {
                Ok((ms, metrics)) => {
                    let entry = per_rule.entry(item.rule_idx).or_default();
                    entry.0.merge(&metrics);
                    entry.1 += ms.len() as u64;
                    if let Ok(acc) = slot {
                        acc.extend(ms);
                    }
                }
                // Keep the first error, in item order.
                Err(e) => {
                    if slot.is_ok() {
                        *slot = Err(e);
                    }
                }
            }
        }
        let buffered = merged
            .values()
            .map(|r| r.as_ref().map(|v| v.len() as u64).unwrap_or(0))
            .sum();
        let mut rule_metrics: Vec<(usize, MatchMetrics, u64)> = per_rule
            .into_iter()
            .map(|(idx, (metrics, enumerated))| (idx, metrics, enumerated))
            .collect();
        rule_metrics.sort_by_key(|&(idx, _, _)| idx);
        MatchPhaseOutput {
            merged,
            rule_metrics,
            buffered,
            interrupted: None,
            panicked: None,
            match_ns,
            merge_ns: lap(t),
        }
    }

    /// Runs the work items, spreading them over up to `threads` workers.
    /// Results are slotted by item index, so scheduling cannot influence
    /// anything downstream. When the armed guard carries a cancellation
    /// token or a deadline, every worker polls it before taking the next
    /// chunk and the phase stops early with the trip; the partially
    /// filled slots are then discarded by the caller.
    ///
    /// Worker panics are isolated (`catch_unwind`, in the inline path
    /// too, so isolation is thread-count invariant): the phase stops and
    /// reports the lowest observed panicking item, which the run loop
    /// seals into [`ChaseError::WorkerPanic`]. The one exception is the
    /// [`faultpoint::FaultCrash`] payload of an injected crash, which is
    /// deliberately re-raised: a simulated process death must kill the
    /// run, not be absorbed by the isolation it is testing.
    fn execute_items(
        &self,
        items: &[WorkItem<'_>],
        threads: usize,
        armed: &ArmedGuard,
    ) -> ExecutedItems {
        let check = armed.has_async_trips();
        let workers = threads.min(items.len());
        let run_item = |item: &WorkItem<'_>| -> Result<ItemResult, Box<dyn std::any::Any + Send>> {
            panic::catch_unwind(AssertUnwindSafe(|| {
                faultpoint::trigger("chase.match_chunk");
                let mut metrics = MatchMetrics::default();
                match_chunk(&self.db, item.rule, item.plan, &item.chunk, &mut metrics)
                    .map(|ms| (ms, metrics))
            }))
            .map_err(|payload| {
                if payload.downcast_ref::<faultpoint::FaultCrash>().is_some() {
                    panic::resume_unwind(payload);
                }
                payload
            })
        };
        if workers <= 1 {
            let mut out: ItemResults = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                if check {
                    if let Some(trip) = armed.interrupted() {
                        return (out, Some(trip), None);
                    }
                }
                match run_item(item) {
                    Ok(result) => out.push(Some(result)),
                    Err(payload) => {
                        return (out, None, Some((i, panic_message(&*payload))));
                    }
                }
            }
            return (out, None, None);
        }
        let slots: Vec<OnceLock<ItemResult>> = items.iter().map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let trip: OnceLock<(Budget, u64)> = OnceLock::new();
        let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if check {
                        if let Some(t) = armed.interrupted() {
                            let _ = trip.set(t);
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    match run_item(item) {
                        Ok(result) => {
                            let _ = slots[i].set(result);
                        }
                        Err(payload) => {
                            panics
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .push((i, panic_message(&*payload)));
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                });
            }
        });
        let interrupted = trip.get().copied();
        let panicked = {
            let mut observed = panics
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            observed.sort_by_key(|&(i, _)| i);
            observed.into_iter().next()
        };
        (
            slots.into_iter().map(OnceLock::into_inner).collect(),
            interrupted,
            panicked,
        )
    }

    /// Number of outermost-loop slices for one rule's matching work: one
    /// per ~[`CHUNK_TARGET`] candidates, capped at a few chunks per
    /// worker. Any value yields the same output; this only shapes load
    /// balance.
    fn parts_for(&self, rule: &Rule, threads: usize) -> usize {
        if threads <= 1 {
            return 1;
        }
        let first = rule
            .positive_body()
            .next()
            .map(|atom| self.db.active_count(atom.predicate))
            .unwrap_or(0);
        (first / CHUNK_TARGET).clamp(1, threads * 4)
    }

    /// The sequential commit phase of one round. Processes the stratum's
    /// rules in rule-id order starting at `from_rule`; for each, unions
    /// the snapshot-phase matches with a top-up delta over facts committed
    /// earlier in this round, canonicalizes, and fires. Aggregate rules
    /// merge the union into their kept groups and fire only the groups
    /// it changed (see [`AggGroups::absorb`]).
    ///
    /// Budgets are checked *between* rule commits: a trip returns
    /// [`CommitControl::Interrupted`] with the first uncommitted rule, so
    /// the prefix already committed is exactly the canonical prefix of an
    /// uninterrupted round. In `completion` mode (resuming such a trip)
    /// no snapshot phase ran, so each rule re-derives the full match set
    /// this round would have seen: the semi-naive delta from the rule's
    /// own restored watermark, or — for aggregate rules without kept
    /// groups, whose firing folds over *all* contributors, and for rules
    /// that [re-match](Chase::rematches) — a full re-match. The same full
    /// re-match serves such a rule when the snapshot phase skipped it:
    /// the top-up alone would fold its groups over this round's new
    /// contributors only, or miss a pre-empted step.
    #[allow(clippy::too_many_arguments)]
    fn commit_phase(
        &mut self,
        stratum: usize,
        snapshot_len: usize,
        mut phase_matches: HashMap<usize, Result<Vec<BodyMatch>, EvalError>>,
        round: u32,
        from_rule: usize,
        completion: bool,
        armed: &ArmedGuard,
    ) -> Result<CommitControl, ChaseError> {
        let mut changed = false;
        for (idx, rule) in self.program.rules().iter().enumerate().skip(from_rule) {
            let rule_id = RuleId(idx);
            if self.program.rule_stratum(rule_id) != stratum || !self.rule_in_cone(idx) {
                continue;
            }
            if let Some((budget, observed)) =
                armed.trip(u64::from(round), self.db.len() as u64, self.memory_bytes())
            {
                return Ok(CommitControl::Interrupted {
                    budget,
                    observed,
                    next_rule: idx,
                    changed,
                });
            }
            faultpoint::trigger("chase.commit_rule");
            let watermark = self.last_seen_len[idx];
            let current_len = self.db.len();
            if watermark == current_len {
                continue; // nothing new since last evaluation
            }
            let _rule_span = crate::span!("chase.rule", rule = &rule.label, stratum = stratum);
            let _rule_latency = LatencyGuard {
                hist: self.metrics.rule_commit_ns[idx].clone(),
                timer: Instant::now(),
            };
            let eval_err = |source| ChaseError::Eval {
                rule: rule.label.clone(),
                source,
            };
            let incremental = self.is_incremental(idx, rule, watermark);
            let mut metrics = MatchMetrics::default();
            let phase = phase_matches.remove(&idx).transpose().map_err(eval_err)?;
            let phase_count = phase.as_ref().map_or(0, Vec::len);
            let plan = &self.plans[idx];
            // A rule the snapshot phase skipped (`watermark ==
            // snapshot_len`) is left with the top-up alone, which would
            // fold an aggregate rule without kept groups over this
            // round's new contributors only, and would never re-fire a
            // re-matching rule's pre-empted steps.
            let rederive = completion || (phase.is_none() && !incremental && !rule.is_constraint());
            let mut matches = if rederive {
                if incremental {
                    match_delta(&self.db, rule, plan, watermark as u32, &mut metrics)
                } else {
                    match_chunk(&self.db, rule, plan, &MatchChunk::full(), &mut metrics)
                }
                .map_err(eval_err)?
            } else {
                // Top-up: matches touching facts committed by lower-id
                // rules earlier in this round (ids >= the snapshot). This
                // restores sequential intra-round visibility; it is empty
                // whenever no earlier rule fired.
                let mut matches = phase.unwrap_or_default();
                let topup_from = if watermark == usize::MAX {
                    snapshot_len
                } else {
                    watermark.max(snapshot_len)
                };
                if current_len > topup_from {
                    matches.extend(
                        match_delta(&self.db, rule, plan, topup_from as u32, &mut metrics)
                            .map_err(eval_err)?,
                    );
                }
                matches
            };
            // Snapshot-phase matches were already counted at merge time;
            // attribute only what this phase added.
            count_matching(
                &mut self.report.rules[idx],
                &metrics,
                (matches.len() - phase_count) as u64,
            );
            self.last_seen_len[idx] = current_len;

            // Canonicalize: drop matches over facts superseded by an
            // earlier commit of this round, order by premise-id vector
            // (for full enumerations this is already the join order) and
            // dedup across semi-naive pivots and the top-up.
            matches.retain(|m| m.premises.iter().all(|&p| self.db.is_active(p)));
            matches.sort_by(|a, b| a.premises.cmp(&b.premises));
            matches.dedup_by(|a, b| a.premises == b.premises);

            if rule.has_aggregate() && !rule.is_constraint() {
                // Runs even without new matches: a kept group may have
                // lost a contributor to supersession.
                changed |= self.commit_aggregate(idx, rule, matches, incremental, round)?;
            } else if !matches.is_empty() {
                changed |= self.apply_matches(rule_id, rule, matches, round)?;
            }
        }
        Ok(CommitControl::Completed { changed })
    }

    /// Commits one rule's canonicalized matches: constraint handling or
    /// one chase step per match. Returns true if any new fact was added.
    /// Aggregate rules commit through [`Chase::commit_aggregate`].
    fn apply_matches(
        &mut self,
        rule_id: RuleId,
        rule: &Rule,
        matches: Vec<BodyMatch>,
        round: u32,
    ) -> Result<bool, ChaseError> {
        if rule.is_constraint() {
            if !self.violations.iter().any(|l| l == &rule.label) {
                self.violations.push(rule.label.clone());
            }
            return Ok(false);
        }

        let mut changed = false;
        for m in matches {
            changed |= self
                .fire(rule_id, rule, m.bindings, m.premises, None, round)
                .map_err(|source| ChaseError::Eval {
                    rule: rule.label.clone(),
                    source,
                })?;
        }
        Ok(changed)
    }

    /// Commits aggregate rule `idx`: merges its canonicalized `delta`
    /// matches into the kept groups (fresh groups unless `incremental`),
    /// then folds and fires every group that changed, in firing order.
    /// Returns true if any new fact was added.
    fn commit_aggregate(
        &mut self,
        idx: usize,
        rule: &Rule,
        delta: Vec<BodyMatch>,
        incremental: bool,
        round: u32,
    ) -> Result<bool, ChaseError> {
        let eval_err = |source| ChaseError::Eval {
            rule: rule.label.clone(),
            source,
        };
        let t = Instant::now();
        let mut groups = if incremental {
            self.agg_groups[idx]
                .take()
                .expect("an incremental aggregate rule keeps its groups")
        } else {
            AggGroups::default()
        };
        let folder = GroupFolder::new(rule, &self.plans[idx].layout);
        let mut folded = Vec::new();
        for (key, members) in groups.absorb(rule, &folder.layout.group_slots, delta, &self.db) {
            if let Some(group) = folder.fold(key, members).map_err(eval_err)? {
                folded.push(group);
            }
        }
        if self.keeps_groups(idx) {
            self.agg_groups[idx] = Some(groups);
        }
        self.report.timings.aggregate_ns += lap(t);
        let mut changed = false;
        for group in folded {
            changed |= self
                .fire(
                    RuleId(idx),
                    rule,
                    group.bindings,
                    group.premises,
                    Some(group.contributors),
                    round,
                )
                .map_err(eval_err)?;
        }
        Ok(changed)
    }

    /// Fires one chase step: instantiates the head, handles existentials
    /// with the restricted-chase satisfaction check, inserts the fact and
    /// records the derivation. `row` is the step's row of the rule's head
    /// layout; aggregate steps pass the rows of their group's
    /// contributors.
    fn fire(
        &mut self,
        rule_id: RuleId,
        rule: &Rule,
        row: Row,
        premises: Vec<FactId>,
        group: Option<Rows>,
        round: u32,
    ) -> Result<bool, EvalError> {
        let Some(head) = rule.head.atom() else {
            return Ok(false);
        };
        let plan = &self.plans[rule_id.0];
        self.report.rules[rule_id.0].firings += 1;

        if !plan.layout.existentials.is_empty() {
            // Restricted chase: skip the step if the head is already
            // satisfied by an existing fact (existential positions are
            // wildcards, consistently per variable).
            let pattern = plan.head_pattern(row.values());
            self.report.rules[rule_id.0].isomorphism_checks += 1;
            // The head-signature index was built at run start, so this is
            // a hash probe; all-existential heads have no signature and
            // scan.
            let (hit, probed) = self.db.find_matching_metered(head.predicate, &pattern);
            if probed {
                self.report.rules[rule_id.0].satisfaction_probes += 1;
            } else {
                self.report.rules[rule_id.0].satisfaction_scans += 1;
            }
            if hit.is_some() {
                self.report.rules[rule_id.0].satisfaction_preempted += 1;
                return Ok(false);
            }
        }

        // Fresh nulls, one per existential variable of this firing.
        let mut nulls: Vec<Option<Value>> = vec![None; plan.layout.existentials.len()];
        let null_counter = &mut self.null_counter;
        let values = plan.head_values(rule, row.values(), |k| {
            *nulls[k].get_or_insert_with(|| {
                *null_counter += 1;
                Value::Null(*null_counter)
            })
        })?;

        let fact = Fact {
            predicate: head.predicate,
            values,
        };
        let (fact_id, fresh) = self.db.insert(fact);
        if fresh {
            self.report.rules[rule_id.0].facts_committed += 1;
        } else {
            self.report.rules[rule_id.0].duplicates_preempted += 1;
            // A full re-match — of a rule with an existential head that
            // an aggregate rule derives, or a resumed aggregate rule's
            // first evaluation — fires steps already recorded. A fresh
            // fact has no derivation yet.
            if self
                .recorded
                .contains(&self.graph, rule_id, fact_id, &premises)
            {
                return Ok(false);
            }
        }

        // Monotonic-aggregate supersession: the new aggregate fact of a
        // group replaces (deactivates) the group's previous fact.
        let contributor_bindings = match group {
            Some(contributors) => {
                let key = step_key(&self.plans[rule_id.0].layout, &row);
                if let Some(prev) = self.agg_current.insert((rule_id, key), fact_id) {
                    if prev != fact_id && self.db.is_active(prev) {
                        self.db.deactivate(prev);
                    }
                }
                contributors
            }
            None => Rows::empty(),
        };
        let contributors = contributor_bindings.len().max(1) as u32;
        let id = self.graph.record(Derivation {
            rule: rule_id,
            premises,
            conclusion: fact_id,
            round,
            contributors,
            bindings: row,
            contributor_bindings,
        });
        if !fresh {
            self.recorded.add(&self.graph, id);
        }
        // A new derivation of an existing fact is knowledge for the chase
        // graph but must not keep the fixpoint loop alive forever: the
        // check above already guarantees each derivation is recorded
        // once, so only fresh facts report change.
        Ok(fresh)
    }
}

/// The derivations of every fact that has two or more, by a 32-bit hash
/// of their `(rule, conclusion, premises)`, for the duplicate check of
/// [`Chase::fire`]. Scanning a fact's derivations costs O(k) per firing,
/// O(k²) over a fact with k derivations (a dense transitive closure);
/// with the index a check is one probe. A fact with one derivation is
/// checked against it directly, so a chase whose facts have one
/// derivation each keeps no index. A key names the first derivation
/// that had it; a probe that finds another derivation under its key
/// falls back to the scan, so collisions cost time, never correctness.
#[derive(Default)]
struct DerivationIndex {
    first: HashMap<u32, DerivationId>,
}

impl DerivationIndex {
    /// The index of the derivations `graph` records.
    fn of(graph: &ChaseGraph) -> DerivationIndex {
        let mut index = DerivationIndex::default();
        for (i, der) in graph.derivations().iter().enumerate() {
            if graph.derivations_of(der.conclusion).len() > 1 {
                index.insert(der, DerivationId(i as u32));
            }
        }
        index
    }

    /// Indexes `id`, just recorded for a conclusion that was already in
    /// the store, and the conclusion's first derivation if `id` is its
    /// second.
    fn add(&mut self, graph: &ChaseGraph, id: DerivationId) {
        let ids = graph.derivations_of(graph.derivation(id).conclusion);
        if ids.len() == 2 {
            self.insert(graph.derivation(ids[0]), ids[0]);
        }
        if ids.len() > 1 {
            self.insert(graph.derivation(id), id);
        }
    }

    /// True iff `graph` records a derivation of `conclusion` by `rule`
    /// from `premises`.
    fn contains(
        &self,
        graph: &ChaseGraph,
        rule: RuleId,
        conclusion: FactId,
        premises: &[FactId],
    ) -> bool {
        let same = |&d: &DerivationId| {
            let der = graph.derivation(d);
            der.rule == rule && der.conclusion == conclusion && der.premises == premises
        };
        let ids = graph.derivations_of(conclusion);
        if ids.len() < 2 {
            return ids.iter().any(same);
        }
        match self.first.get(&Self::key(rule, conclusion, premises)) {
            None => false,
            Some(d) if same(d) => true,
            Some(_) => ids.iter().any(same),
        }
    }

    fn insert(&mut self, der: &Derivation, id: DerivationId) {
        let key = Self::key(der.rule, der.conclusion, &der.premises);
        self.first.entry(key).or_insert(id);
    }

    /// The key of a derivation of `conclusion` by `rule` from `premises`:
    /// FxHash's multiply-rotate mix of the ids, which are dense integers
    /// that nothing adversarial chooses.
    fn key(rule: RuleId, conclusion: FactId, premises: &[FactId]) -> u32 {
        let mix = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
        let h = mix(mix(0, rule.0 as u64), u64::from(conclusion.0));
        let h = premises.iter().fold(h, |h, p| mix(h, u64::from(p.0)));
        (h >> 32) as u32
    }
}

/// One folded group: its step row (bound key plus aggregate result),
/// the union of contributing premises, and the contributors' match rows.
struct AggGroup {
    bindings: Row,
    premises: Vec<FactId>,
    contributors: Rows,
}

/// The group key of an aggregate match: the values at `group_slots`
/// ([`RuleLayout::group_slots`]) of its row. Existential head variables
/// are never bound, so they have no slot and the key is the group's
/// bound head part. Grouping, supersession and the resume rebuild all
/// key groups by it.
fn group_key(group_slots: &[usize], row: &Row) -> Vec<Value> {
    group_slots.iter().map(|&s| row.values()[s]).collect()
}

/// The group key of an aggregate step: the leading group-key values of
/// its step row, which the fold copied out of the contributors' match
/// rows, so it equals their [`group_key`].
fn step_key(layout: &RuleLayout, row: &Row) -> Vec<Value> {
    row.values()
        .iter()
        .take(layout.group_slots.len())
        .copied()
        .collect()
}

/// The groups of one aggregate rule: per group key, the contributing
/// matches ordered by premise vector. Semi-naive evaluation keeps them
/// for the length of a run and merges each round's delta matches in
/// (see [`Chase::keeps_groups`]); otherwise every evaluation builds them
/// afresh from a full match.
#[derive(Clone, Default)]
struct AggGroups {
    groups: HashMap<Vec<Value>, Members>,
    /// Number of [`AggGroups::absorb`] calls so far: stamps the groups
    /// each call changes.
    absorbed: u64,
    /// Inactive facts of the rule's body predicates at the last absorb.
    /// Deactivation is permanent, so while the count stands still every
    /// member is still active.
    inactive_seen: usize,
}

/// The members of one group, and the absorb call that last changed them.
#[derive(Clone)]
struct Members {
    matches: Vec<BodyMatch>,
    changed_at: u64,
}

impl AggGroups {
    /// Brings the groups up to date for one evaluation and returns the
    /// groups to re-fold with their members, in firing order.
    ///
    /// Members over a fact deactivated since the last evaluation drop out
    /// (a full re-match would no longer find them); then `delta` —
    /// canonical: active, sorted and deduplicated, and disjoint from the
    /// members, since each match touches a fact newer than every member
    /// — is merged in. A group is re-folded iff it gained or lost a
    /// member; in a rule that keeps its groups (see
    /// [`Chase::keeps_groups`]) the others would re-derive their last
    /// step. Groups fire
    /// in the order of their smallest premise vector, the order a full
    /// re-match fires them in; groups left empty are dropped unfired.
    fn absorb(
        &mut self,
        rule: &Rule,
        group_slots: &[usize],
        delta: Vec<BodyMatch>,
        db: &Database,
    ) -> Vec<(&Vec<Value>, &[BodyMatch])> {
        self.absorbed += 1;
        let stamp = self.absorbed;
        let mut changed: Vec<Vec<Value>> = Vec::new();
        let inactive: usize = rule
            .positive_body()
            .map(|atom| db.facts_of(atom.predicate).len() - db.active_count(atom.predicate))
            .sum();
        if inactive != self.inactive_seen {
            self.inactive_seen = inactive;
            for (key, members) in &mut self.groups {
                let before = members.matches.len();
                members
                    .matches
                    .retain(|m| m.premises.iter().all(|&p| db.is_active(p)));
                if members.matches.len() != before {
                    members.changed_at = stamp;
                    changed.push(key.clone());
                }
            }
        }
        for m in delta {
            match self.groups.entry(group_key(group_slots, &m.bindings)) {
                Entry::Occupied(mut e) => {
                    if e.get().changed_at != stamp {
                        e.get_mut().changed_at = stamp;
                        changed.push(e.key().clone());
                    }
                    e.get_mut().matches.push(m);
                }
                Entry::Vacant(e) => {
                    changed.push(e.key().clone());
                    e.insert(Members {
                        matches: vec![m],
                        changed_at: stamp,
                    });
                }
            }
        }
        changed.retain(|key| {
            let members = self.groups.get_mut(key).expect("changed groups exist");
            if members.matches.is_empty() {
                self.groups.remove(key);
                return false;
            }
            // Members and delta are each sorted: this merges two runs.
            members.matches.sort_by(|a, b| a.premises.cmp(&b.premises));
            true
        });
        let mut order: Vec<(&Vec<Value>, &[BodyMatch])> = changed
            .iter()
            .map(|key| {
                let (key, members) = self
                    .groups
                    .get_key_value(key)
                    .expect("changed groups exist");
                (key, members.matches.as_slice())
            })
            .collect();
        order.sort_unstable_by(|a, b| a.1[0].premises.cmp(&b.1[0].premises));
        order
    }
}

/// What folding a group needs to know of its rule: the aggregate and the
/// rule's layouts.
struct GroupFolder<'r> {
    rule: &'r Rule,
    agg: &'r Aggregate,
    layout: &'r RuleLayout,
}

impl<'r> GroupFolder<'r> {
    fn new(rule: &'r Rule, layout: &'r RuleLayout) -> GroupFolder<'r> {
        GroupFolder {
            rule,
            agg: rule.aggregate.as_ref().expect("aggregate rule"),
            layout,
        }
    }

    /// Folds one group's members (non-empty, in premise order) into its
    /// step: the step row (the bound key plus the aggregate result), the
    /// union of the members' premises and their rows. `None` when a
    /// post-aggregate condition rejects the result. Those conditions may
    /// also mention group-key variables (all bound); other body variables
    /// are out of scope post-aggregation and yield an error, which
    /// validation of reasonable programs prevents.
    fn fold(&self, key: &[Value], members: &[BodyMatch]) -> Result<Option<AggGroup>, EvalError> {
        let mut inputs = Vec::with_capacity(members.len());
        for m in members {
            inputs.push(self.agg.input.eval(&m.bindings)?);
        }
        let value = fold_aggregate(self.agg.func, &inputs)?;

        let step = self
            .layout
            .step
            .expect("aggregate rules have a step layout");
        let mut values = Vec::with_capacity(key.len() + 1);
        values.extend_from_slice(key);
        values.push(value);
        let bindings = Row::new(step, values.into_boxed_slice());
        for &c in &self.layout.post_conditions {
            if !self.rule.conditions[c].holds(&bindings)? {
                return Ok(None);
            }
        }

        // Room for every member's premises: the union is exact unless
        // members share a premise.
        let mut premises: Vec<FactId> =
            Vec::with_capacity(members.iter().map(|m| m.premises.len()).sum());
        for m in members {
            for &p in &m.premises {
                if !premises.contains(&p) {
                    premises.push(p);
                }
            }
        }
        Ok(Some(AggGroup {
            bindings,
            premises,
            contributors: Rows::new(
                self.layout.matched,
                members.iter().map(|m| m.bindings.values()),
            ),
        }))
    }
}

/// Folds an aggregate function over the contributed values.
fn fold_aggregate(func: AggFunc, inputs: &[Value]) -> Result<Value, EvalError> {
    match func {
        AggFunc::Count => Ok(Value::Int(inputs.len() as i64)),
        AggFunc::Sum | AggFunc::Prod => {
            let mut acc_i: i64 = if func == AggFunc::Sum { 0 } else { 1 };
            let mut acc_f: f64 = if func == AggFunc::Sum { 0.0 } else { 1.0 };
            let mut is_float = false;
            for v in inputs {
                match v {
                    Value::Int(i) => {
                        if func == AggFunc::Sum {
                            acc_i = acc_i.wrapping_add(*i);
                            acc_f += *i as f64;
                        } else {
                            acc_i = acc_i.wrapping_mul(*i);
                            acc_f *= *i as f64;
                        }
                    }
                    Value::Float(f) => {
                        is_float = true;
                        if func == AggFunc::Sum {
                            acc_f += *f;
                        } else {
                            acc_f *= *f;
                        }
                    }
                    other => return Err(EvalError::NonNumericOperand(*other)),
                }
            }
            if is_float {
                if acc_f.is_nan() {
                    Err(EvalError::NanResult)
                } else {
                    Ok(Value::Float(acc_f))
                }
            } else {
                Ok(Value::Int(acc_i))
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<Value> = None;
            for v in inputs {
                best = Some(match best {
                    None => *v,
                    Some(b) => {
                        let ord = b
                            .partial_cmp_values(v)
                            .ok_or(EvalError::NonNumericOperand(*v))?;
                        let take_new = match func {
                            AggFunc::Min => ord == std::cmp::Ordering::Greater,
                            _ => ord == std::cmp::Ordering::Less,
                        };
                        if take_new {
                            *v
                        } else {
                            b
                        }
                    }
                });
            }
            best.ok_or(EvalError::NanResult)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::expr::{CmpOp, Condition, Expr};
    use crate::rule::RuleBuilder;
    use crate::term::Term;

    fn chase(program: &Program, db: Database) -> Result<ChaseOutcome, ChaseError> {
        ChaseSession::new(program).run(db)
    }

    fn control_program() -> Program {
        Program::new(vec![
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
        ])
        .unwrap()
    }

    #[test]
    fn direct_control_is_derived() {
        let mut db = Database::new();
        db.add("company", &["A".into()]);
        db.add("company", &["B".into()]);
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        let out = chase(&control_program(), db).unwrap();
        assert!(out
            .database
            .contains(&Fact::new("control", vec!["A".into(), "B".into()])));
    }

    #[test]
    fn joint_control_through_aggregation() {
        // The paper's running example (Fig. 15): Irish Bank controls
        // Madrid Credit with 21% + 36% through controlled intermediaries.
        let mut db = Database::new();
        for c in ["irish", "fondo", "french", "madrid"] {
            db.add("company", &[c.into()]);
        }
        db.add("own", &["irish".into(), "fondo".into(), 0.83.into()]);
        db.add("own", &["irish".into(), "french".into(), 0.54.into()]);
        db.add("own", &["french".into(), "madrid".into(), 0.21.into()]);
        db.add("own", &["fondo".into(), "madrid".into(), 0.36.into()]);
        let out = chase(&control_program(), db).unwrap();
        let target = Fact::new("control", vec!["irish".into(), "madrid".into()]);
        let id = out.lookup(&target).expect("joint control derived");
        // The winning derivation aggregates two contributors.
        let der = out
            .graph
            .derivations_of(id)
            .iter()
            .map(|&d| out.graph.derivation(d))
            .find(|d| d.contributors == 2)
            .expect("two-contributor aggregation recorded");
        assert_eq!(out.database.fact(der.conclusion), &target);
    }

    #[test]
    fn no_control_below_threshold() {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.5.into()]);
        let out = chase(&control_program(), db).unwrap();
        assert!(!out
            .database
            .contains(&Fact::new("control", vec!["A".into(), "B".into()])));
    }

    #[test]
    fn chase_reaches_fixpoint_on_cycles() {
        // Ownership cycle: A owns B, B owns A, both majority.
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.9.into()]);
        db.add("own", &["B".into(), "A".into(), 0.9.into()]);
        let out = chase(&control_program(), db).unwrap();
        assert!(out
            .database
            .contains(&Fact::new("control", vec!["A".into(), "A".into()])));
        assert!(out
            .database
            .contains(&Fact::new("control", vec!["B".into(), "B".into()])));
    }

    #[test]
    fn aggregate_premises_cover_all_contributors() {
        let mut db = Database::new();
        db.add("own", &["A".into(), "HUB".into(), 0.6.into()]);
        db.add("own", &["HUB".into(), "T".into(), 0.3.into()]);
        db.add("own", &["A".into(), "HUB2".into(), 0.7.into()]);
        db.add("own", &["HUB2".into(), "T".into(), 0.3.into()]);
        let out = chase(&control_program(), db).unwrap();
        let id = out
            .lookup(&Fact::new("control", vec!["A".into(), "T".into()]))
            .expect("joint control via two hubs");
        let best = out
            .graph
            .choose_derivation(id, crate::provenance::DerivationPolicy::Richest)
            .unwrap();
        let der = out.graph.derivation(best);
        assert_eq!(der.contributors, 2);
        // Premises: control(A,HUB), own(HUB,T), control(A,HUB2), own(HUB2,T).
        assert_eq!(der.premises.len(), 4);
    }

    #[test]
    fn existential_rule_invents_nulls_once() {
        // person(x) -> parent(x, z); parent(x, z) -> person(z)
        // Restricted chase: one invented parent per person, then the
        // invented null's own parent is satisfied by... nothing, so a
        // chain would grow; isomorphism pre-emption stops at the null
        // because parent(n1, z) is satisfied by checking patterns?  It is
        // not: this program is genuinely non-terminating under the
        // oblivious chase; the restricted check stops it because
        // parent(x,z) for x = n1 is satisfied only if some parent fact
        // with first argument n1 exists.  It does not, so we rely on the
        // fact limit to keep the test bounded and assert the engine
        // reports the overflow rather than hanging.
        let p = Program::new(vec![
            RuleBuilder::new("p1")
                .body(Atom::new("person", vec![Term::var("x")]))
                .head(Atom::new("parent", vec![Term::var("x"), Term::var("z")])),
            RuleBuilder::new("p2")
                .body(Atom::new("parent", vec![Term::var("x"), Term::var("z")]))
                .head(Atom::new("person", vec![Term::var("z")])),
        ])
        .unwrap();
        let mut db = Database::new();
        db.add("person", &["alice".into()]);
        let guard = RunGuard::new().with_max_rounds(50).with_max_facts(100);
        let result = ChaseSession::new(&p).with_guard(guard).run(db);
        match result {
            Err(ChaseError::ResourceExhausted {
                budget: Budget::Rounds(_) | Budget::Facts(_),
                partial,
                ..
            }) => {
                // The partial outcome is the deterministic prefix: the
                // rounds already committed carry their facts and report.
                assert!(partial.is_partial());
                assert!(partial.database.len() > 1);
                assert!(partial.report.is_partial());
            }
            Ok(out) => {
                // Acceptable alternative: engine terminated because each
                // new person's parent head was satisfied by an existing
                // fact. Verify nulls were introduced.
                assert!(out.database.iter().any(|(_, f)| f.has_nulls()));
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn existential_satisfaction_preempts_firing() {
        // employee(x) -> works_for(x, z); plus an explicit works_for fact:
        // the restricted chase must not invent a null for alice.
        let p = Program::new(vec![RuleBuilder::new("w")
            .body(Atom::new("employee", vec![Term::var("x")]))
            .head(Atom::new("works_for", vec![Term::var("x"), Term::var("z")]))])
        .unwrap();
        let mut db = Database::new();
        db.add("employee", &["alice".into()]);
        db.add("works_for", &["alice".into(), "acme".into()]);
        let out = chase(&p, db).unwrap();
        assert_eq!(out.derived_facts, 0);
        assert!(!out.database.iter().any(|(_, f)| f.has_nulls()));
    }

    #[test]
    fn constraints_are_collected() {
        let p = Program::new(vec![RuleBuilder::new("r")
            .body(Atom::new("own", vec![Term::var("x"), Term::var("x")]))
            .falsum()])
        .unwrap();
        let mut db = Database::new();
        db.add("own", &["A".into(), "A".into()]);
        let out = chase(&p, db).unwrap();
        assert_eq!(out.violations, vec!["r".to_string()]);
    }

    #[test]
    fn derivation_index_finds_every_recorded_step() {
        // Fact 2 gains three derivations, fact 3 one.
        let steps = [
            (RuleId(0), vec![FactId(0)], FactId(2)),
            (RuleId(0), vec![FactId(1)], FactId(2)),
            (RuleId(1), vec![FactId(0)], FactId(3)),
            (RuleId(1), vec![FactId(0)], FactId(2)),
        ];
        let mut graph = ChaseGraph::new();
        let mut index = DerivationIndex::default();
        for (rule, premises, conclusion) in &steps {
            let fresh = graph.derivations_of(*conclusion).is_empty();
            let id = graph.record(Derivation::bare(*rule, premises.clone(), *conclusion, 1));
            if !fresh {
                index.add(&graph, id);
            }
        }
        // Only the fact with several derivations is indexed, all of them.
        assert_eq!(index.first.len(), 3);
        for index in [&index, &DerivationIndex::of(&graph)] {
            for (rule, premises, conclusion) in &steps {
                assert!(index.contains(&graph, *rule, *conclusion, premises));
            }
            assert!(!index.contains(&graph, RuleId(0), FactId(2), &[FactId(3)]));
            assert!(!index.contains(&graph, RuleId(0), FactId(3), &[FactId(0)]));
        }

        // A key collision: the key names another derivation, and the
        // scan of the conclusion's derivations finds the step.
        let mut collided = DerivationIndex::default();
        let key = DerivationIndex::key(RuleId(0), FactId(2), &[FactId(1)]);
        collided.first.insert(key, DerivationId(0));
        assert!(collided.contains(&graph, RuleId(0), FactId(2), &[FactId(1)]));
    }

    #[test]
    fn fold_aggregates_cover_all_functions() {
        let ints = [Value::Int(2), Value::Int(3), Value::Int(4)];
        assert_eq!(fold_aggregate(AggFunc::Sum, &ints).unwrap(), Value::Int(9));
        assert_eq!(
            fold_aggregate(AggFunc::Prod, &ints).unwrap(),
            Value::Int(24)
        );
        assert_eq!(fold_aggregate(AggFunc::Min, &ints).unwrap(), Value::Int(2));
        assert_eq!(fold_aggregate(AggFunc::Max, &ints).unwrap(), Value::Int(4));
        assert_eq!(
            fold_aggregate(AggFunc::Count, &ints).unwrap(),
            Value::Int(3)
        );
        let mixed = [Value::Int(1), Value::Float(0.5)];
        assert_eq!(
            fold_aggregate(AggFunc::Sum, &mixed).unwrap(),
            Value::Float(1.5)
        );
        assert!(fold_aggregate(AggFunc::Sum, &[Value::str("x")]).is_err());
    }

    #[test]
    fn derived_fact_count_is_reported() {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.8.into()]);
        db.add("own", &["B".into(), "C".into(), 0.8.into()]);
        let out = chase(&control_program(), db).unwrap();
        // control(A,B), control(B,C), control(A,C)
        assert_eq!(out.derived_facts, 3);
        assert!(out.rounds >= 2);
    }

    #[test]
    fn session_builder_covers_run_and_resume() {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.8.into()]);
        let out = ChaseSession::new(&control_program()).run(db).unwrap();
        assert_eq!(out.derived_facts, 1);
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.8.into()]);
        let out = ChaseSession::new(&control_program())
            .with_config(ChaseConfig::default())
            .run(db)
            .unwrap();
        assert_eq!(out.derived_facts, 1);
        // Resuming a completed outcome hands it back unchanged.
        let resumed = ChaseSession::new(&control_program())
            .resume(out.clone())
            .unwrap();
        assert_eq!(resumed.derived_facts, 1);
        assert_eq!(resumed.database.len(), out.database.len());
    }

    #[test]
    fn delta_matches_are_deduplicated_across_pivots() {
        // own(x,z,_), own(z,y,_) over two new facts: both pivots produce
        // the A->B->C match; it must appear once.
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("z"), Term::var("s1")],
            ))
            .body(Atom::new(
                "own",
                vec![Term::var("z"), Term::var("y"), Term::var("s2")],
            ))
            .head(Atom::new("p", vec![Term::var("x"), Term::var("y")]));
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        db.add("own", &["B".into(), "C".into(), 0.7.into()]);
        let plan = JoinPlan::for_rule(&rule);
        plan.build_indexes(&rule, &mut db);
        let metrics = &mut MatchMetrics::default();
        let ms = match_delta(&db, &rule, &plan, 0, metrics).unwrap();
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].premises, vec![FactId(0), FactId(1)]);
        assert!(match_delta(&db, &rule, &plan, 2, metrics)
            .unwrap()
            .is_empty());
    }
}

#[cfg(test)]
mod determinism_tests {
    //! The in-crate half of the determinism contract: chase output is
    //! bitwise identical at any thread count. (The application-level half
    //! lives in the finkg crate's determinism suite.)
    use super::*;
    use crate::parser::parse_program;

    /// A full structural fingerprint of an outcome: every fact in id
    /// order, every derivation in recording order, rounds and violations.
    pub(super) fn fingerprint(out: &ChaseOutcome) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (id, fact) in out.database.iter() {
            let _ = writeln!(s, "{id} {fact} active={}", out.database.is_active(id));
        }
        for der in out.graph.derivations() {
            let _ = writeln!(
                s,
                "r{} {:?} -> {} round={} contrib={}",
                der.rule.0, der.premises, der.conclusion, der.round, der.contributors
            );
        }
        let _ = writeln!(s, "rounds={} violations={:?}", out.rounds, out.violations);
        s
    }

    pub(super) fn ladder_db(n: usize) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.add("company", &[format!("c{i}").as_str().into()]);
        }
        for i in 0..n {
            for j in 0..n {
                if i != j && (i + j) % 3 != 0 {
                    let share = 0.2 + 0.6 * ((i * 7 + j * 13) % 10) as f64 / 10.0;
                    db.add(
                        "own",
                        &[
                            format!("c{i}").as_str().into(),
                            format!("c{j}").as_str().into(),
                            share.into(),
                        ],
                    );
                }
            }
        }
        db
    }

    #[test]
    fn control_chase_is_identical_across_thread_counts() {
        let program = parse_program(
            "o1: own(x, y, s), s > 0.5 -> control(x, y).
             o2: company(x) -> control(x, x).
             o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).",
        )
        .unwrap()
        .program;
        let reference = ChaseSession::new(&program)
            .with_threads(1)
            .run(ladder_db(12))
            .unwrap();
        let reference_fp = fingerprint(&reference);
        assert!(reference.derived_facts > 0);
        for threads in [2, 4, 8] {
            let out = ChaseSession::new(&program)
                .with_threads(threads)
                .run(ladder_db(12))
                .unwrap();
            assert_eq!(fingerprint(&out), reference_fp, "threads={threads}");
        }
    }

    #[test]
    fn stratified_chase_is_identical_across_thread_counts() {
        let program = parse_program(
            "r1: edge(x, y) -> reach(y).
             r2: reach(x), edge(x, y) -> reach(y).
             r3: node(x), not reach(x) -> unreachable(x).
             r4: unreachable(x), n = count(x) -> dead_count(n).",
        )
        .unwrap()
        .program;
        let build = || {
            let mut db = Database::new();
            for i in 0..30 {
                db.add("node", &[format!("n{i}").as_str().into()]);
            }
            for i in 0..30usize {
                if i % 4 != 0 {
                    db.add(
                        "edge",
                        &[
                            format!("n{}", i).as_str().into(),
                            format!("n{}", (i * 3 + 1) % 30).as_str().into(),
                        ],
                    );
                }
            }
            db
        };
        let reference = ChaseSession::new(&program)
            .with_threads(1)
            .run(build())
            .unwrap();
        let reference_fp = fingerprint(&reference);
        for threads in [2, 8] {
            let out = ChaseSession::new(&program)
                .with_threads(threads)
                .run(build())
                .unwrap();
            assert_eq!(fingerprint(&out), reference_fp, "threads={threads}");
        }
    }
}

#[cfg(test)]
mod stratified_tests {
    use super::*;
    use crate::parser::parse_program;

    fn chase(program: &Program, db: Database) -> Result<ChaseOutcome, ChaseError> {
        ChaseSession::new(program).run(db)
    }

    #[test]
    fn stratified_negation_computes_complement() {
        let parsed = parse_program(
            r#"
            r1: edge(x, y) -> reach(y).
            r2: reach(x), edge(x, y) -> reach(y).
            r3: node(x), not reach(x) -> unreachable(x).

            node("a"). node("b"). node("c"). node("d").
            edge("a", "b"). edge("b", "c").
        "#,
        )
        .unwrap();
        let db: Database = parsed.facts.into_iter().collect();
        let out = chase(&parsed.program, db).unwrap();
        // b, c are reachable; a and d are not.
        assert!(out
            .database
            .contains(&Fact::new("unreachable", vec!["a".into()])));
        assert!(out
            .database
            .contains(&Fact::new("unreachable", vec!["d".into()])));
        assert!(!out
            .database
            .contains(&Fact::new("unreachable", vec!["b".into()])));
        assert!(!out
            .database
            .contains(&Fact::new("unreachable", vec!["c".into()])));
    }

    #[test]
    fn three_strata_evaluate_bottom_up() {
        let parsed = parse_program(
            r#"
            r1: edge(x, y) -> reach(y).
            r2: reach(x), edge(x, y) -> reach(y).
            r3: node(x), not reach(x) -> unreachable(x).
            r4: node(x), not unreachable(x) -> ok(x).

            node("a"). node("b").
            edge("a", "b").
        "#,
        )
        .unwrap();
        assert_eq!(parsed.program.stratification().strata, 3);
        let db: Database = parsed.facts.into_iter().collect();
        let out = chase(&parsed.program, db).unwrap();
        assert!(out.database.contains(&Fact::new("ok", vec!["b".into()])));
        assert!(!out.database.contains(&Fact::new("ok", vec!["a".into()])));
    }

    #[test]
    fn negation_with_aggregation_across_strata() {
        // Entities with no declared debts are "clean"; the count of clean
        // entities is aggregated in the top stratum.
        let parsed = parse_program(
            r#"
            r1: debt(d, c, v) -> indebted(d).
            r2: entity(x), not indebted(x) -> clean(x).
            r3: clean(x), n = count(x) -> clean_count(n).

            entity("a"). entity("b"). entity("c").
            debt("a", "b", 5).
        "#,
        )
        .unwrap();
        let db: Database = parsed.facts.into_iter().collect();
        let out = chase(&parsed.program, db).unwrap();
        assert!(out
            .database
            .contains(&Fact::new("clean_count", vec![2i64.into()])));
    }

    #[test]
    fn provenance_spans_strata() {
        let parsed = parse_program(
            r#"
            r1: edge(x, y) -> reach(y).
            r3: node(x), not reach(x) -> isolated(x).

            node("z").
            edge("a", "b").
        "#,
        )
        .unwrap();
        let db: Database = parsed.facts.into_iter().collect();
        let out = chase(&parsed.program, db).unwrap();
        let id = out
            .lookup(&Fact::new("isolated", vec!["z".into()]))
            .unwrap();
        let proof = out
            .graph
            .proof(id, crate::provenance::DerivationPolicy::Richest);
        // The proof of isolated("z") rests on node("z") (negation leaves
        // no positive premise for reach).
        assert_eq!(proof.steps(), 1);
    }
}

#[cfg(test)]
mod aggregate_supersession_tests {
    use super::*;
    use crate::parser::parse_program;

    fn chase(program: &Program, db: Database) -> Result<ChaseOutcome, ChaseError> {
        ChaseSession::new(program).run(db)
    }

    /// Regression: a partial aggregate (computed before all contributors
    /// defaulted) must not be double-counted with the fuller aggregate of
    /// the same group by a downstream sum.
    #[test]
    fn partial_aggregates_are_superseded_not_double_counted() {
        let parsed = parse_program(
            r#"
            o4: shock(f, s), has_capital(f, p1), s > p1 -> default(f).
            o5: default(d), long_term_debts(d, c, v), el = sum(v) -> risk(c, el, "long").
            o7: risk(c, e, t), has_capital(c, p2), l = sum(e), l > p2 -> default(c).

            shock("A", 10). has_capital("A", 1).
            has_capital("B", 4). has_capital("C", 7).
            long_term_debts("A", "B", 5).
            long_term_debts("A", "C", 3).
            long_term_debts("B", "C", 3).
        "#,
        )
        .unwrap();
        let db: Database = parsed.facts.into_iter().collect();
        let out = chase(&parsed.program, db).unwrap();
        // A and B default; C's true exposure is 3 + 3 = 6 < 7.
        assert!(out
            .database
            .contains(&Fact::new("default", vec!["A".into()])));
        assert!(out
            .database
            .contains(&Fact::new("default", vec!["B".into()])));
        assert!(
            !out.database
                .contains(&Fact::new("default", vec!["C".into()])),
            "partial aggregate was double-counted"
        );
        // Both risk facts remain in the store (provenance), but the
        // partial one is inactive.
        let partial = out
            .lookup(&Fact::new(
                "risk",
                vec!["C".into(), 3i64.into(), "long".into()],
            ))
            .expect("partial kept for provenance");
        let full = out
            .lookup(&Fact::new(
                "risk",
                vec!["C".into(), 6i64.into(), "long".into()],
            ))
            .expect("full aggregate derived");
        assert!(!out.database.is_active(partial));
        assert!(out.database.is_active(full));
        assert_eq!(out.database.inactive_count(), 1);
    }

    /// Facts derived from a later-superseded partial aggregate remain (the
    /// conditions are monotone, so they stay sound).
    #[test]
    fn conclusions_from_partials_survive_supersession() {
        let parsed = parse_program(
            r#"
            o4: shock(f, s), has_capital(f, p1), s > p1 -> default(f).
            o5: default(d), long_term_debts(d, c, v), el = sum(v) -> risk(c, el, "long").
            o7: risk(c, e, t), has_capital(c, p2), l = sum(e), l > p2 -> default(c).

            shock("A", 10). has_capital("A", 1).
            has_capital("B", 4). has_capital("C", 2).
            long_term_debts("A", "B", 5).
            long_term_debts("A", "C", 3).
            long_term_debts("B", "C", 3).
        "#,
        )
        .unwrap();
        // C's capital (2) is already exceeded by the partial exposure (3):
        // C defaults early and must stay defaulted after the aggregate is
        // superseded by 6.
        let db: Database = parsed.facts.into_iter().collect();
        let out = chase(&parsed.program, db).unwrap();
        assert!(out
            .database
            .contains(&Fact::new("default", vec!["C".into()])));
    }

    /// Regression: an aggregate rule with an existential head variable
    /// next to a bound key variable groups by the bound part of its key.
    /// Matches used to collapse into one group that lost `x`, failing the
    /// run with `unbound variable x`.
    #[test]
    fn existential_heads_group_by_their_bound_key() {
        let parsed = parse_program(
            r#"
            r: p(x, y), c = count(y) -> q(x, c, z).
            p("a", 1). p("a", 2). p("b", 3).
        "#,
        )
        .unwrap();
        for threads in [1, 2, 8] {
            let db: Database = parsed.facts.iter().cloned().collect();
            let out = ChaseSession::new(&parsed.program)
                .with_threads(threads)
                .run(db)
                .unwrap();
            let q: Vec<&Fact> = out.facts_of("q").into_iter().map(|(_, f)| f).collect();
            assert_eq!(q.len(), 2, "threads={threads}");
            assert_eq!(q[0].values[..2], [Value::str("a"), Value::Int(2)]);
            assert_eq!(q[1].values[..2], [Value::str("b"), Value::Int(1)]);
            let (Value::Null(n1), Value::Null(n2)) = (q[0].values[2], q[1].values[2]) else {
                panic!("threads={threads}: existential positions hold nulls: {q:?}");
            };
            assert_ne!(n1, n2, "threads={threads}: one null per group");
        }
    }

    /// Regression: an aggregate rule that adds nothing in one round and
    /// then sees new matches only through the commit-phase top-up (its
    /// snapshot phase is skipped) must still fold over every contributor.
    /// Folding the top-up alone superseded `tot("a", 1)` by the partial
    /// `tot("a", 0)`, and the repair round left neither active.
    #[test]
    fn topup_only_rounds_fold_every_contributor() {
        let parsed = parse_program(
            r#"
            r1: e(x, y, w) -> path(x, y, w).
            r2: path(x, z, w), e(z, y, v) -> path(x, y, v).
            r3: path(x, y, w), s = sum(w) -> tot(x, s).
            e("a", "b", 1). e("b", "c", 0). e("c", "d", 0). e("d", "f", 0). e("f", "g", 0).
        "#,
        )
        .unwrap();
        let db: Database = parsed.facts.iter().cloned().collect();
        let out = ChaseSession::new(&parsed.program).run(db).unwrap();
        let tot: Vec<String> = out
            .facts_of("tot")
            .into_iter()
            .filter(|(id, _)| out.database.is_active(*id))
            .map(|(_, f)| f.to_string())
            .collect();
        let expected = [
            r#"tot("a",1)"#,
            r#"tot("b",0)"#,
            r#"tot("c",0)"#,
            r#"tot("d",0)"#,
            r#"tot("f",0)"#,
        ];
        assert_eq!(tot, expected);
    }
}

#[cfg(test)]
mod governance_tests {
    //! Resource governance: budget trips surface as `ResourceExhausted`
    //! with a deterministic partial outcome, and resuming an interrupted
    //! run reaches a state bitwise identical to an uninterrupted one.
    use super::determinism_tests::{fingerprint, ladder_db};
    use super::*;
    use crate::parser::parse_program;
    use crate::telemetry::{CancelToken, RunGuard};
    use std::time::Duration;

    fn control_program() -> Program {
        parse_program(
            "o1: own(x, y, s), s > 0.5 -> control(x, y).
             o2: company(x) -> control(x, x).
             o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).",
        )
        .unwrap()
        .program
    }

    /// An unbounded existential chain: person -> parent(·, ∃z) -> person,
    /// genuinely non-terminating under the restricted chase.
    fn unbounded_program() -> Program {
        parse_program(
            "p1: person(x) -> parent(x, z).
             p2: parent(x, z) -> person(z).",
        )
        .unwrap()
        .program
    }

    fn seed_person() -> Database {
        let mut db = Database::new();
        db.add("person", &["alice".into()]);
        db
    }

    #[test]
    fn deadline_trips_with_partial_report() {
        // Acceptance scenario: a 50 ms deadline on an unbounded recursive
        // program must come back as ResourceExhausted carrying a partial
        // RunReport, not hang.
        let program = unbounded_program();
        let guard = RunGuard::default()
            .with_timeout(Duration::from_millis(50))
            .with_max_rounds(u64::MAX >> 1)
            .with_max_facts(u64::MAX >> 1);
        let err = ChaseSession::new(&program)
            .with_guard(guard)
            .run(seed_person())
            .expect_err("the deadline must trip");
        match err {
            ChaseError::ResourceExhausted {
                budget: Budget::Deadline(t),
                observed,
                partial,
            } => {
                assert_eq!(t, Duration::from_millis(50));
                assert!(observed >= 50, "observed elapsed ms: {observed}");
                assert!(partial.is_partial());
                assert!(partial.report.is_partial());
                assert!(partial.report.rounds > 0, "some rounds completed");
                assert!(partial.database.len() > 1, "partial state retained");
                assert_eq!(
                    partial.report.total_commits(),
                    (partial.database.len() - 1) as u64
                );
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn cancelled_token_preempts_the_run() {
        let program = control_program();
        let token = CancelToken::new();
        token.cancel();
        let cfg = ChaseConfig::default().with_guard(RunGuard::default().with_cancel_token(token));
        let err = ChaseSession::new(&program)
            .with_config(cfg)
            .run(ladder_db(6))
            .expect_err("a pre-cancelled token must trip at the first round");
        match err {
            ChaseError::ResourceExhausted {
                budget: Budget::Cancelled,
                partial,
                ..
            } => {
                assert_eq!(partial.rounds, 0);
                assert_eq!(partial.derived_facts, 0);
                assert!(partial.is_partial());
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn memory_budget_trips() {
        let program = control_program();
        let cfg = ChaseConfig::default().with_guard(RunGuard::default().with_max_bytes(1));
        let err = ChaseSession::new(&program)
            .with_config(cfg)
            .run(ladder_db(6))
            .expect_err("a 1-byte memory budget must trip immediately");
        assert!(matches!(
            err,
            ChaseError::ResourceExhausted {
                budget: Budget::MemoryBytes(1),
                ..
            }
        ));
    }

    #[test]
    fn guard_round_budget_returns_a_partial_outcome() {
        let program = unbounded_program();
        let err = ChaseSession::new(&program)
            .with_guard(RunGuard::default().with_max_rounds(3))
            .run(seed_person())
            .expect_err("a 3-round budget must trip on the unbounded program");
        let ChaseError::ResourceExhausted {
            budget: Budget::Rounds(3),
            observed: 4,
            partial,
        } = err
        else {
            panic!("expected a round-budget trip, got {err}");
        };
        assert!(partial.is_partial());
        assert_eq!(partial.rounds, 3);
        assert_eq!(partial.report.rounds, 3);
    }

    #[test]
    fn interrupted_runs_resume_to_the_uninterrupted_state() {
        // The core cancel/budget-then-resume contract, across thread
        // counts: for any fact budget, trip -> resume == one shot, bit
        // for bit (facts, activity, provenance, round stamps).
        let program = control_program();
        let reference = fingerprint(
            &ChaseSession::new(&program)
                .with_threads(1)
                .run(ladder_db(10))
                .unwrap(),
        );
        let mut tripped = 0;
        for threads in [1, 2, 8] {
            for budget in [12u64, 15, 20, 25, 40, 60] {
                let session = ChaseSession::new(&program).with_threads(threads);
                let governed = session
                    .clone()
                    .with_guard(RunGuard::default().with_max_facts(budget))
                    .run(ladder_db(10));
                let resumed = match governed {
                    Err(ChaseError::ResourceExhausted {
                        partial, budget: b, ..
                    }) => {
                        tripped += 1;
                        assert!(partial.is_partial());
                        assert_eq!(b, Budget::Facts(budget));
                        session.resume(*partial).unwrap()
                    }
                    Ok(done) => done, // budget above the fixpoint size
                    Err(other) => panic!("unexpected error: {other}"),
                };
                assert_eq!(
                    fingerprint(&resumed),
                    reference,
                    "threads={threads} budget={budget}"
                );
            }
        }
        assert!(tripped > 0, "the sweep must exercise real trips");
    }

    #[test]
    fn stratified_interrupted_runs_resume_without_new_facts() {
        // Continuation of a partial outcome is sound for *any* program.
        let program = parse_program(
            "r1: edge(x, y) -> reach(y).
             r2: reach(x), edge(x, y) -> reach(y).
             r3: node(x), not reach(x) -> unreachable(x).",
        )
        .unwrap()
        .program;
        let build = || {
            let mut db = Database::new();
            for i in 0..20 {
                db.add("node", &[format!("n{i}").as_str().into()]);
            }
            for i in 0..19usize {
                db.add(
                    "edge",
                    &[
                        format!("n{i}").as_str().into(),
                        format!("n{}", i + 1).as_str().into(),
                    ],
                );
            }
            db
        };
        let reference = fingerprint(&ChaseSession::new(&program).run(build()).unwrap());
        let mut tripped = 0;
        for budget in [42u64, 45, 50, 55] {
            let session = ChaseSession::new(&program);
            let governed = session
                .clone()
                .with_guard(RunGuard::default().with_max_facts(budget))
                .run(build());
            let resumed = match governed {
                Err(ChaseError::ResourceExhausted { partial, .. }) => {
                    tripped += 1;
                    session.resume(*partial).unwrap()
                }
                Ok(done) => done,
                Err(other) => panic!("unexpected error: {other}"),
            };
            assert_eq!(fingerprint(&resumed), reference, "budget={budget}");
        }
        assert!(tripped > 0);
    }

    #[test]
    fn resuming_a_completed_outcome_returns_it_unchanged() {
        let program = control_program();
        let out = ChaseSession::new(&program).run(ladder_db(6)).unwrap();
        let resumed = ChaseSession::new(&program).resume(out.clone()).unwrap();
        assert_eq!(fingerprint(&resumed), fingerprint(&out));
        assert_eq!(resumed.derived_facts, out.derived_facts);
        assert_eq!(
            resumed.report.count_fingerprint(),
            out.report.count_fingerprint()
        );
    }

    #[test]
    fn report_counts_are_exact_on_a_hand_computed_program() {
        // r1: a(x) -> b(x).        fires twice in round 1.
        // r2: b(x) -> c(x).        fires twice via the round-1 top-up.
        // r3: c(x), n = count(x) -> total(n).
        //   round 1: aggregates both c facts (top-up) -> total(2);
        //   round 2: the semi-naive delta past r3's watermark holds only
        //   total(2), so no match reaches the kept group and nothing
        //   fires.
        let program = parse_program(
            "r1: a(x) -> b(x).
             r2: b(x) -> c(x).
             r3: c(x), n = count(x) -> total(n).",
        )
        .unwrap()
        .program;
        let build = || {
            let mut db = Database::new();
            db.add("a", &["x".into()]);
            db.add("a", &["y".into()]);
            db
        };
        let out = ChaseSession::new(&program)
            .with_threads(1)
            .run(build())
            .unwrap();
        let report = &out.report;
        assert_eq!(out.database.len(), 7);
        assert_eq!(report.rounds, 2);
        assert_eq!(report.strata, 1);
        assert_eq!(report.termination, Termination::Completed);

        let [r1, r2, r3] = &report.rules[..] else {
            panic!("three rules expected");
        };
        assert_eq!((r1.matches_enumerated, r1.firings), (2, 2));
        assert_eq!((r1.facts_committed, r1.duplicates_preempted), (2, 0));
        assert_eq!((r2.matches_enumerated, r2.firings), (2, 2));
        assert_eq!((r2.facts_committed, r2.duplicates_preempted), (2, 0));
        // r3: 2 top-up matches in round 1 and none in round 2; one
        // firing, no duplicate.
        assert_eq!((r3.matches_enumerated, r3.firings), (2, 1));
        assert_eq!((r3.facts_committed, r3.duplicates_preempted), (1, 0));
        assert_eq!(r3.isomorphism_checks, 0);

        assert_eq!(report.rounds_log.len(), 2);
        assert_eq!(report.rounds_log[0].facts_committed, 5);
        assert_eq!(report.rounds_log[0].facts_end, 7);
        assert_eq!(report.rounds_log[0].matches, 6);
        assert_eq!(report.rounds_log[1].facts_committed, 0);
        assert_eq!(report.rounds_log[1].matches, 0);
        assert_eq!(report.peak.facts, 7);
        assert_eq!(report.peak.derivations, 5);
        assert!(report.peak.approx_bytes > 0);

        // The count fingerprint is thread-invariant.
        for threads in [2, 8] {
            let other = ChaseSession::new(&program)
                .with_threads(threads)
                .run(build())
                .unwrap();
            assert_eq!(
                other.report.count_fingerprint(),
                report.count_fingerprint(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn existential_counters_track_preemption() {
        // employee(x) -> works_for(x, ∃z) with one employee already
        // covered: one isomorphism check, one pre-emption, no commit.
        let program = parse_program("w: employee(x) -> works_for(x, z).")
            .unwrap()
            .program;
        let mut db = Database::new();
        db.add("employee", &["alice".into()]);
        db.add("works_for", &["alice".into(), "acme".into()]);
        let out = ChaseSession::new(&program).run(db).unwrap();
        let w = &out.report.rules[0];
        assert_eq!(w.isomorphism_checks, 1);
        assert_eq!(w.satisfaction_preempted, 1);
        assert_eq!(w.facts_committed, 0);
    }

    #[test]
    fn reports_serialize_to_json() {
        let program = control_program();
        let out = ChaseSession::new(&program).run(ladder_db(6)).unwrap();
        assert!(out.report.timings.total_ns > 0);
        assert_eq!(out.report.rounds_log.len(), out.report.rounds as usize);
        let json = out.report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"termination\":\"completed\""));
        assert!(json.contains("\"rules\""));
        assert!(json.contains("\"rounds_log\""));
    }

    #[test]
    fn completed_runs_cannot_double_resume_state() {
        let program = control_program();
        let out = ChaseSession::new(&program).run(ladder_db(4)).unwrap();
        assert!(!out.is_partial());
        assert!(!out.report.is_partial());
    }
}

#[cfg(test)]
mod goal_cone_tests {
    //! Goal-directed pruning: a cone-restricted run derives exactly the
    //! full model restricted to cone predicates, keeps negated support,
    //! stays thread-count invariant, and reports the cone metrics.
    use super::*;

    fn chase(program: &Program, db: Database) -> Result<ChaseOutcome, ChaseError> {
        ChaseSession::new(program).run(db)
    }

    fn control_program() -> Program {
        crate::parse_program(
            "o1: own(x, y, s), s > 0.5 -> control(x, y).
             o2: company(x) -> control(x, x).
             o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).",
        )
        .unwrap()
        .program
    }

    use super::determinism_tests::ladder_db;

    /// The sanctions shape: recursion, stratified negation, and a
    /// clean_link branch a `flagged` cone prunes away.
    fn sanctions_program() -> Program {
        crate::parse_program(
            r#"
            s1: own(x, y, w), w >= 0.2 -> exposure(x, y).
            s2: exposure(x, z), own(z, y, w), w >= 0.2, x != y -> exposure(x, y).
            s3: exposure(x, y), sanctioned(y) -> flagged(x, y).
            s4: exposure(x, y), not sanctioned(x), not sanctioned(y) -> clean_link(x, y).
            "#,
        )
        .unwrap()
        .program
    }

    fn sanctions_db() -> Database {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.5.into()]);
        db.add("own", &["B".into(), "C".into(), 0.3.into()]);
        db.add("own", &["C".into(), "D".into(), 0.4.into()]);
        db.add("sanctioned", &["D".into()]);
        db
    }

    #[test]
    fn pruned_chase_derives_the_goal_facts_and_skips_the_rest() {
        let program = sanctions_program();
        let full = chase(&program, sanctions_db()).unwrap();
        let pruned = ChaseSession::new(&program)
            .with_config(ChaseConfig::default().with_goal_cone("flagged"))
            .run(sanctions_db())
            .unwrap();
        // Cone facts (exposure, flagged) agree with the full run.
        for pred in ["exposure", "flagged"] {
            let facts = |out: &ChaseOutcome| -> Vec<Fact> {
                out.facts_of(pred)
                    .into_iter()
                    .map(|(_, f)| f.clone())
                    .collect()
            };
            assert_eq!(facts(&full), facts(&pruned), "{pred} facts diverge");
        }
        // The clean_link branch was never evaluated.
        assert_eq!(pruned.facts_of("clean_link").len(), 0);
        assert!(!full.facts_of("clean_link").is_empty());
        assert!(pruned.derived_facts < full.derived_facts);
    }

    #[test]
    fn pruned_chase_preserves_negated_support() {
        let program = sanctions_program();
        // Goal clean_link: `sanctioned` is consumed only under negation,
        // so a negation-blind cone would silently flip the negation
        // checks. The correct cone keeps it, and the clean links agree
        // with the full run.
        let full = chase(&program, sanctions_db()).unwrap();
        let pruned = ChaseSession::new(&program)
            .with_config(ChaseConfig::default().with_goal_cone("clean_link"))
            .run(sanctions_db())
            .unwrap();
        let links = |out: &ChaseOutcome| -> Vec<Fact> {
            out.facts_of("clean_link")
                .into_iter()
                .map(|(_, f)| f.clone())
                .collect()
        };
        assert_eq!(links(&full), links(&pruned));
        // The flagged branch was pruned.
        assert_eq!(pruned.facts_of("flagged").len(), 0);
    }

    #[test]
    fn pruned_chase_emits_cone_metrics() {
        let registry = std::sync::Arc::new(MetricsRegistry::new());
        let program = sanctions_program();
        ChaseSession::new(&program)
            .with_config(
                ChaseConfig::default()
                    .with_goal_cone("flagged")
                    .with_metrics(registry.clone()),
            )
            .run(sanctions_db())
            .unwrap();
        let text = registry.to_prometheus();
        assert!(text.contains("vadalog_cone_size 4"), "{text}");
        assert!(text.contains("vadalog_cone_pruned_rules_total 1"), "{text}");
        // All four EDB facts are in the cone: nothing exempted.
        assert!(text.contains("vadalog_cone_pruned_facts_total 0"), "{text}");
    }

    #[test]
    fn pruned_chase_is_thread_count_invariant() {
        let program = sanctions_program();
        let config = |threads| {
            ChaseConfig::default()
                .with_goal_cone("flagged")
                .with_threads(threads)
        };
        let base = ChaseSession::new(&program)
            .with_config(config(1))
            .run(sanctions_db())
            .unwrap();
        for threads in [2, 8] {
            let out = ChaseSession::new(&program)
                .with_config(config(threads))
                .run(sanctions_db())
                .unwrap();
            let dump = |o: &ChaseOutcome| -> Vec<(FactId, Fact)> {
                o.database.iter().map(|(id, f)| (id, f.clone())).collect()
            };
            assert_eq!(dump(&base), dump(&out), "threads={threads}");
        }
    }

    #[test]
    fn total_cone_leaves_the_run_unchanged() {
        // `control` reaches every predicate of the control program: the
        // cone retains all rules and the pruned run equals the full one.
        let program = control_program();
        let full = chase(&program, ladder_db(6)).unwrap();
        let pruned = ChaseSession::new(&program)
            .with_config(ChaseConfig::default().with_goal_cone("control"))
            .run(ladder_db(6))
            .unwrap();
        assert_eq!(full.derived_facts, pruned.derived_facts);
        assert_eq!(full.rounds, pruned.rounds);
    }
}

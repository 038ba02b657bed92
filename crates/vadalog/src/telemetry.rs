//! Run telemetry and resource governance: deadlines, cooperative
//! cancellation, budgets, and the machine-readable [`RunReport`].
//!
//! A production deployment of the reasoner must bound runaway recursion
//! and account for every derivation. This module provides the two halves
//! of that contract:
//!
//! * **Governance** — a [`RunGuard`] carries a wall-clock deadline, a
//!   cooperative [`CancelToken`] and round/fact/memory budgets. The engine
//!   polls the guard at *safe points only* (round boundaries, chunk
//!   boundaries of the parallel match phase, and between sequential rule
//!   commits), so an interrupted run is always a prefix of the canonical
//!   deterministic evaluation and can be resumed
//!   (`ChaseSession::resume`) to the exact state an
//!   uninterrupted run would have reached.
//! * **Telemetry** — a [`RunReport`] collected per run: per-rule and
//!   per-round counters, phase timings, and peak sizes, exposed as a typed
//!   struct plus JSON serialization so benches and service layers consume
//!   it without scraping logs.
//!
//! **Determinism contract:** every *count* field of the report (matches
//! enumerated, facts committed, duplicates pre-empted, isomorphism checks,
//! index probes, scans, rounds) is bitwise identical at any thread count.
//! Only wall-clock timings vary. [`RunReport::count_fingerprint`] renders
//! exactly the invariant subset, for tests and regression tracking.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation token, cloneable across threads.
///
/// Cancelling never interrupts work mid-commit: the engine observes the
/// token at chunk boundaries of the (read-only) parallel match phase and
/// between sequential rule commits, so the state left behind is always a
/// deterministic prefix of the run.
///
/// ```
/// use vadalog::telemetry::CancelToken;
/// let token = CancelToken::new();
/// let remote = token.clone();
/// remote.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True iff [`CancelToken::cancel`] was called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// The resource whose budget a run exhausted.
///
/// Carried by `ResourceExhausted` errors together with the observed value
/// at the trip point.
#[non_exhaustive]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Budget {
    /// The evaluation-round budget (the configured maximum).
    Rounds(u64),
    /// The fact budget (maximum facts in the store, EDB + derived).
    Facts(u64),
    /// The approximate fact-store memory budget, in bytes.
    MemoryBytes(u64),
    /// The wall-clock deadline (the configured timeout).
    Deadline(Duration),
    /// Cooperative cancellation via a [`CancelToken`].
    Cancelled,
}

impl fmt::Display for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Budget::Rounds(n) => write!(f, "round budget of {}", n),
            Budget::Facts(n) => write!(f, "fact budget of {}", n),
            Budget::MemoryBytes(n) => write!(f, "memory budget of {} bytes", n),
            Budget::Deadline(d) => write!(f, "deadline of {:?}", d),
            Budget::Cancelled => write!(f, "cancellation request"),
        }
    }
}

impl Budget {
    /// A short machine-readable tag (`"rounds"`, `"facts"`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            Budget::Rounds(_) => "rounds",
            Budget::Facts(_) => "facts",
            Budget::MemoryBytes(_) => "memory_bytes",
            Budget::Deadline(_) => "deadline",
            Budget::Cancelled => "cancelled",
        }
    }

    /// The configured limit, normalized to a number (milliseconds for
    /// deadlines, 0 for cancellation).
    pub fn limit(&self) -> u64 {
        match self {
            Budget::Rounds(n) | Budget::Facts(n) | Budget::MemoryBytes(n) => *n,
            Budget::Deadline(d) => d.as_millis() as u64,
            Budget::Cancelled => 0,
        }
    }
}

/// Resource governance for one run: deadline, cancellation and budgets.
///
/// The guard is the only place a chase run's budgets live. A round or
/// fact budget left unset means the engine's default cap, 10,000 rounds
/// and 5,000,000 facts: the backstop for existential programs whose chase
/// does not terminate. A budget set on the guard replaces the cap. The
/// deadline, the cancellation token and the memory budget have no
/// default.
///
/// ```
/// use std::time::Duration;
/// use vadalog::telemetry::{CancelToken, RunGuard};
///
/// let token = CancelToken::new();
/// let guard = RunGuard::new()
///     .with_timeout(Duration::from_millis(50))
///     .with_cancel_token(token.clone())
///     .with_max_facts(100_000);
/// ```
#[non_exhaustive]
#[derive(Clone, Debug, Default)]
pub struct RunGuard {
    /// Relative wall-clock budget, armed when the run starts.
    pub timeout: Option<Duration>,
    /// Cooperative cancellation token observed at safe points.
    pub cancel: Option<CancelToken>,
    /// Maximum number of evaluation rounds (unset: 10,000).
    pub max_rounds: Option<u64>,
    /// Maximum number of facts (EDB + derived) in the store (unset:
    /// 5,000,000).
    pub max_facts: Option<u64>,
    /// Maximum approximate fact-store size in bytes.
    pub max_bytes: Option<u64>,
}

impl RunGuard {
    /// A guard with no deadline, no token and the default caps.
    pub fn new() -> RunGuard {
        RunGuard::default()
    }

    /// Sets a relative wall-clock budget, armed when the run starts.
    pub fn with_timeout(mut self, timeout: Duration) -> RunGuard {
        self.timeout = Some(timeout);
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> RunGuard {
        self.cancel = Some(token);
        self
    }

    /// Sets the evaluation-round budget.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> RunGuard {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Sets the fact budget.
    pub fn with_max_facts(mut self, max_facts: u64) -> RunGuard {
        self.max_facts = Some(max_facts);
        self
    }

    /// Sets the approximate fact-store memory budget, in bytes.
    pub fn with_max_bytes(mut self, max_bytes: u64) -> RunGuard {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// True iff no deadline, token or budget is set.
    pub fn is_unlimited(&self) -> bool {
        self.timeout.is_none()
            && self.cancel.is_none()
            && self.max_rounds.is_none()
            && self.max_facts.is_none()
            && self.max_bytes.is_none()
    }

    /// The asynchronous trips of work started at `start`: a cancelled
    /// token, then an elapsed deadline. Returns the tripped budget and
    /// its observation (elapsed milliseconds for the deadline, 0 for
    /// cancellation). The chase polls it at its safe points; explanation
    /// builds and queries poll it between their stages.
    pub fn interrupted(&self, start: Instant) -> Option<(Budget, u64)> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some((Budget::Cancelled, 0));
        }
        let timeout = self.timeout?;
        let elapsed = start.elapsed();
        (elapsed >= timeout).then_some((Budget::Deadline(timeout), elapsed.as_millis() as u64))
    }
}

/// The round cap of a guard without a round budget.
const DEFAULT_MAX_ROUNDS: u64 = 10_000;
/// The fact cap of a guard without a fact budget.
const DEFAULT_MAX_FACTS: u64 = 5_000_000;

/// A [`RunGuard`] armed at a concrete start instant, with the default caps
/// filled in. Engine-internal; polled at safe points.
#[derive(Clone, Debug)]
pub(crate) struct ArmedGuard {
    guard: RunGuard,
    start: Instant,
    max_rounds: u64,
    max_facts: u64,
}

impl ArmedGuard {
    /// Arms `guard` at `start`; an unset round or fact budget takes its
    /// default cap.
    pub(crate) fn arm(guard: &RunGuard, start: Instant) -> ArmedGuard {
        ArmedGuard {
            guard: guard.clone(),
            start,
            max_rounds: guard.max_rounds.unwrap_or(DEFAULT_MAX_ROUNDS),
            max_facts: guard.max_facts.unwrap_or(DEFAULT_MAX_FACTS),
        }
    }

    /// True iff a trip can fire *between* safe points (cancellation or
    /// deadline): when false, the match phase skips its per-chunk checks
    /// entirely, so governance-free runs pay nothing there.
    pub(crate) fn has_async_trips(&self) -> bool {
        self.guard.cancel.is_some() || self.guard.timeout.is_some()
    }

    /// Cheap check of the asynchronous trips (cancellation, deadline);
    /// suitable for chunk boundaries of the parallel match phase.
    pub(crate) fn interrupted(&self) -> Option<(Budget, u64)> {
        self.guard.interrupted(self.start)
    }

    /// Full check of every budget; used at round boundaries and between
    /// rule commits. `rounds` is the number of rounds *about to have been
    /// started* (the check trips when it exceeds the budget).
    pub(crate) fn trip(&self, rounds: u64, facts: u64, bytes: u64) -> Option<(Budget, u64)> {
        if rounds > self.max_rounds {
            return Some((Budget::Rounds(self.max_rounds), rounds));
        }
        if facts > self.max_facts {
            return Some((Budget::Facts(self.max_facts), facts));
        }
        if let Some(max_bytes) = self.guard.max_bytes {
            if bytes > max_bytes {
                return Some((Budget::MemoryBytes(max_bytes), bytes));
            }
        }
        self.interrupted()
    }
}

/// How a run ended.
#[non_exhaustive]
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum Termination {
    /// The chase reached fixpoint (or the pipeline finished).
    #[default]
    Completed,
    /// A budget tripped; the run holds a deterministic partial state.
    Exhausted {
        /// The budget that tripped.
        budget: Budget,
        /// The observed value at the trip point (rounds, facts, bytes or
        /// elapsed milliseconds, depending on the budget).
        observed: u64,
    },
    /// The run was checkpointed mid-flight (an autosave snapshot of a run
    /// still in progress, or the partial sealed when a checkpoint write
    /// failed): no budget tripped, the state is a deterministic prefix.
    Suspended,
    /// A worker panicked while evaluating a rule in the parallel match
    /// phase; the run holds the deterministic state of the last completed
    /// round (see
    /// [`ChaseError::WorkerPanic`](crate::error::ChaseError)).
    Panicked {
        /// Label of the rule whose evaluation panicked.
        rule: String,
    },
}

/// Per-rule execution counters of one run.
///
/// All fields are deterministic across thread counts.
#[non_exhaustive]
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RuleStats {
    /// The rule's label.
    pub label: String,
    /// Body matches enumerated for the rule (snapshot phase, top-up and
    /// full re-matches), before canonicalization.
    pub matches_enumerated: u64,
    /// Chase steps fired (head instantiations attempted after grouping
    /// and the restricted-chase check).
    pub firings: u64,
    /// Fresh facts committed by the rule.
    pub facts_committed: u64,
    /// Firings that re-derived an existing fact (duplicate pre-empted by
    /// the store's dedup) or re-recorded a known derivation.
    pub duplicates_preempted: u64,
    /// Restricted-chase satisfaction checks performed for existential
    /// heads (pattern-isomorphism probes against the store).
    pub isomorphism_checks: u64,
    /// Isomorphism checks that found a satisfying fact, pre-empting a
    /// labelled-null invention.
    pub satisfaction_preempted: u64,
    /// Candidate lookups served by a positional index.
    pub index_probes: u64,
    /// Candidate lookups served by a predicate scan.
    pub scans: u64,
    /// Index probes that bound two or more positions at once (a subset
    /// of `index_probes`).
    pub composite_probes: u64,
    /// Negated-atom checks answered by an index probe.
    pub negation_probes: u64,
    /// Negated-atom checks answered by a full-predicate scan.
    pub negation_scans: u64,
    /// Head-satisfaction checks answered by an index probe (a subset of
    /// `isomorphism_checks`).
    pub satisfaction_probes: u64,
    /// Head-satisfaction checks answered by a full-predicate scan (the
    /// complement of `satisfaction_probes`).
    pub satisfaction_scans: u64,
}

/// Per-round counters of one run.
#[non_exhaustive]
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RoundStats {
    /// 1-based round number (global across strata).
    pub round: u32,
    /// The stratum evaluated in this round.
    pub stratum: u32,
    /// Matches enumerated across all rules of the round.
    pub matches: u64,
    /// Fresh facts committed in the round.
    pub facts_committed: u64,
    /// Store size at the end of the round.
    pub facts_end: u64,
    /// Wall-clock duration of the round, in nanoseconds (not thread
    /// invariant).
    pub duration_ns: u64,
}

/// Wall-clock phase timings of one run, in nanoseconds.
///
/// Not deterministic across runs or thread counts; excluded from
/// [`RunReport::count_fingerprint`].
#[non_exhaustive]
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PhaseTimings {
    /// Eager construction of the statically-probed positional indexes.
    pub index_build_ns: u64,
    /// The parallel match phase (work-item execution).
    pub match_ns: u64,
    /// Merging per-chunk results into per-rule match lists.
    pub merge_ns: u64,
    /// The sequential commit phase (top-up, canonicalization, firing).
    pub commit_ns: u64,
    /// Aggregate grouping and folding (a sub-span of the commit phase).
    pub aggregate_ns: u64,
    /// Writing checkpoint snapshots (autosaves and trip saves) to disk.
    pub checkpoint_save_ns: u64,
    /// Loading and rebuilding a snapshot in
    /// [`ChaseSession::resume_from_path`](crate::engine::ChaseSession::resume_from_path).
    pub checkpoint_restore_ns: u64,
    /// Whole-run wall clock.
    pub total_ns: u64,
}

/// Peak sizes observed during one run.
#[non_exhaustive]
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PeakStats {
    /// Facts in the store at the end of the run (the store is
    /// append-only, so the end is the peak).
    pub facts: u64,
    /// Derivations recorded in the chase graph.
    pub derivations: u64,
    /// Largest per-round match buffer (matches held after the merge).
    pub match_buffer: u64,
    /// Approximate fact-store size in bytes at the end of the run.
    pub approx_bytes: u64,
}

/// The machine-readable report of one chase run.
///
/// Carried by [`ChaseOutcome::report`](crate::engine::ChaseOutcome) for
/// completed *and* interrupted runs (an interrupted run's report covers
/// the completed prefix). Serialize with [`RunReport::to_json`].
#[non_exhaustive]
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RunReport {
    /// How the run ended.
    pub termination: Termination,
    /// Worker threads of the parallel match phase (resolved count).
    pub threads: usize,
    /// Evaluation rounds executed (including the final fixpoint check).
    pub rounds: u32,
    /// Strata of the evaluated program.
    pub strata: u32,
    /// Per-rule counters, indexed by rule id.
    pub rules: Vec<RuleStats>,
    /// Per-round counters, in execution order.
    pub rounds_log: Vec<RoundStats>,
    /// Wall-clock phase timings.
    pub timings: PhaseTimings,
    /// Peak sizes.
    pub peak: PeakStats,
    /// Checkpoint snapshots written by the autosave policy during this
    /// run (see [`AutosavePolicy`](crate::checkpoint::AutosavePolicy)).
    pub autosaves: u64,
}

impl RunReport {
    /// Sum of `matches_enumerated` over all rules.
    pub fn total_matches(&self) -> u64 {
        self.rules.iter().map(|r| r.matches_enumerated).sum()
    }

    /// Sum of `facts_committed` over all rules.
    pub fn total_commits(&self) -> u64 {
        self.rules.iter().map(|r| r.facts_committed).sum()
    }

    /// Sum of `index_probes` over all rules.
    pub fn total_index_probes(&self) -> u64 {
        self.rules.iter().map(|r| r.index_probes).sum()
    }

    /// Sum of `scans` over all rules.
    pub fn total_scans(&self) -> u64 {
        self.rules.iter().map(|r| r.scans).sum()
    }

    /// True iff the run ended by exhausting a budget.
    pub fn is_partial(&self) -> bool {
        !matches!(self.termination, Termination::Completed)
    }

    /// Renders exactly the thread-invariant subset of the report: every
    /// count field, no timings, no thread count. Two runs of the same
    /// program over the same database must produce equal fingerprints at
    /// any thread count — the telemetry half of the determinism contract.
    pub fn count_fingerprint(&self) -> String {
        use fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "rounds={} strata={}", self.rounds, self.strata);
        for (i, r) in self.rules.iter().enumerate() {
            let _ = writeln!(
                s,
                "rule[{i}]={} matches={} firings={} commits={} dups={} iso={} sat={} probes={} scans={} composite={} negp={} negs={} satp={} sats={}",
                r.label,
                r.matches_enumerated,
                r.firings,
                r.facts_committed,
                r.duplicates_preempted,
                r.isomorphism_checks,
                r.satisfaction_preempted,
                r.index_probes,
                r.scans,
                r.composite_probes,
                r.negation_probes,
                r.negation_scans,
                r.satisfaction_probes,
                r.satisfaction_scans,
            );
        }
        for r in &self.rounds_log {
            let _ = writeln!(
                s,
                "round={} stratum={} matches={} commits={} facts={}",
                r.round, r.stratum, r.matches, r.facts_committed, r.facts_end
            );
        }
        let _ = write!(
            s,
            "peak facts={} derivations={} match_buffer={}",
            self.peak.facts, self.peak.derivations, self.peak.match_buffer
        );
        s
    }

    /// Serializes the full report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object();
        match &self.termination {
            Termination::Completed => {
                w.field_str("termination", "completed");
            }
            Termination::Exhausted { budget, observed } => {
                w.key("termination");
                w.open_object();
                w.field_str("exhausted", budget.kind());
                w.field_u64("limit", budget.limit());
                w.field_u64("observed", *observed);
                w.close_object();
            }
            Termination::Suspended => {
                w.field_str("termination", "suspended");
            }
            Termination::Panicked { rule } => {
                w.key("termination");
                w.open_object();
                w.field_str("panicked", rule);
                w.close_object();
            }
        }
        w.field_u64("threads", self.threads as u64);
        w.field_u64("rounds", u64::from(self.rounds));
        w.field_u64("strata", u64::from(self.strata));
        w.key("rules");
        w.open_array();
        for r in &self.rules {
            w.open_object();
            w.field_str("label", &r.label);
            w.field_u64("matches_enumerated", r.matches_enumerated);
            w.field_u64("firings", r.firings);
            w.field_u64("facts_committed", r.facts_committed);
            w.field_u64("duplicates_preempted", r.duplicates_preempted);
            w.field_u64("isomorphism_checks", r.isomorphism_checks);
            w.field_u64("satisfaction_preempted", r.satisfaction_preempted);
            w.field_u64("index_probes", r.index_probes);
            w.field_u64("scans", r.scans);
            w.field_u64("composite_probes", r.composite_probes);
            w.field_u64("negation_probes", r.negation_probes);
            w.field_u64("negation_scans", r.negation_scans);
            w.field_u64("satisfaction_probes", r.satisfaction_probes);
            w.field_u64("satisfaction_scans", r.satisfaction_scans);
            w.close_object();
        }
        w.close_array();
        w.key("rounds_log");
        w.open_array();
        for r in &self.rounds_log {
            w.open_object();
            w.field_u64("round", u64::from(r.round));
            w.field_u64("stratum", u64::from(r.stratum));
            w.field_u64("matches", r.matches);
            w.field_u64("facts_committed", r.facts_committed);
            w.field_u64("facts_end", r.facts_end);
            w.field_u64("duration_ns", r.duration_ns);
            w.close_object();
        }
        w.close_array();
        w.key("timings_ns");
        w.open_object();
        w.field_u64("index_build", self.timings.index_build_ns);
        w.field_u64("match", self.timings.match_ns);
        w.field_u64("merge", self.timings.merge_ns);
        w.field_u64("commit", self.timings.commit_ns);
        w.field_u64("aggregate", self.timings.aggregate_ns);
        w.field_u64("checkpoint_save", self.timings.checkpoint_save_ns);
        w.field_u64("checkpoint_restore", self.timings.checkpoint_restore_ns);
        w.field_u64("total", self.timings.total_ns);
        w.close_object();
        w.field_u64("autosaves", self.autosaves);
        w.key("peak");
        w.open_object();
        w.field_u64("facts", self.peak.facts);
        w.field_u64("derivations", self.peak.derivations);
        w.field_u64("match_buffer", self.peak.match_buffer);
        w.field_u64("approx_bytes", self.peak.approx_bytes);
        w.close_object();
        w.close_object();
        w.finish()
    }
}

/// The dependency-free JSON writer, re-exported from its home in
/// [`crate::obs::json`] for existing callers of
/// `vadalog::telemetry::JsonWriter`.
pub use crate::obs::json::JsonWriter;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_only_guard_runs_under_the_default_caps() {
        let guard = RunGuard::new().with_timeout(Duration::from_secs(3600));
        let armed = ArmedGuard::arm(&guard, Instant::now());
        assert_eq!(
            armed.trip(10_001, 0, 0),
            Some((Budget::Rounds(10_000), 10_001))
        );
        assert_eq!(
            armed.trip(1, 5_000_001, 0),
            Some((Budget::Facts(5_000_000), 5_000_001))
        );
        assert_eq!(armed.trip(10_000, 5_000_000, 0), None);
    }

    #[test]
    fn guard_budget_above_the_default_cap_replaces_it() {
        let guard = RunGuard::new().with_max_rounds(20_000);
        let armed = ArmedGuard::arm(&guard, Instant::now());
        assert_eq!(armed.trip(10_001, 0, 0), None);
        assert_eq!(
            armed.trip(20_001, 0, 0),
            Some((Budget::Rounds(20_000), 20_001))
        );
    }

    #[test]
    fn armed_guard_reports_fact_and_memory_budgets() {
        let guard = RunGuard::new().with_max_facts(5).with_max_bytes(100);
        let armed = ArmedGuard::arm(&guard, Instant::now());
        assert_eq!(armed.trip(1, 6, 0), Some((Budget::Facts(5), 6)));
        assert_eq!(armed.trip(1, 5, 101), Some((Budget::MemoryBytes(100), 101)));
        assert_eq!(armed.trip(1, 5, 100), None);
    }

    #[test]
    fn expired_deadline_trips() {
        let guard = RunGuard::new().with_timeout(Duration::from_millis(1));
        let armed = ArmedGuard::arm(&guard, Instant::now() - Duration::from_millis(10));
        match armed.interrupted() {
            Some((Budget::Deadline(t), observed)) => {
                assert_eq!(t, Duration::from_millis(1));
                assert!(observed >= 1, "observed {observed}ms");
            }
            other => panic!("expected deadline trip, got {other:?}"),
        }
    }

    #[test]
    fn unrepresentable_deadline_never_trips() {
        let guard = RunGuard::new().with_timeout(Duration::MAX);
        let armed = ArmedGuard::arm(&guard, Instant::now());
        assert_eq!(armed.interrupted(), None);
    }

    #[test]
    fn cancelled_token_trips_immediately() {
        let token = CancelToken::new();
        token.cancel();
        let guard = RunGuard::new().with_cancel_token(token);
        let armed = ArmedGuard::arm(&guard, Instant::now());
        assert_eq!(armed.interrupted(), Some((Budget::Cancelled, 0)));
    }

    #[test]
    fn json_report_round_trips_structure() {
        let report = RunReport {
            termination: Termination::Exhausted {
                budget: Budget::Deadline(Duration::from_millis(50)),
                observed: 61,
            },
            threads: 2,
            rounds: 3,
            strata: 1,
            rules: vec![RuleStats {
                label: "o\"1".into(),
                matches_enumerated: 10,
                ..RuleStats::default()
            }],
            rounds_log: vec![RoundStats {
                round: 1,
                facts_end: 7,
                ..RoundStats::default()
            }],
            ..RunReport::default()
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"exhausted\":\"deadline\""));
        assert!(json.contains("\"observed\":61"));
        assert!(json.contains("\"label\":\"o\\\"1\""));
        assert!(json.contains("\"matches_enumerated\":10"));
        assert!(json.contains("\"facts_end\":7"));
        // Balanced braces/brackets.
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn count_fingerprint_excludes_timings_and_threads() {
        let mut a = RunReport {
            threads: 1,
            rounds: 2,
            ..RunReport::default()
        };
        let mut b = a.clone();
        b.threads = 8;
        b.timings.match_ns = 12345;
        a.timings.match_ns = 999;
        assert_eq!(a.count_fingerprint(), b.count_fingerprint());
    }
}

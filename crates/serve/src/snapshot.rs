//! Immutable, versioned chase snapshots with atomic publish-on-update.
//!
//! A serving process answers explanation queries over the *result* of a
//! chase run. That result never changes once computed — what changes is
//! *which* result is current, as fresh extensional data arrives and
//! either a background re-chase or an incremental
//! [`apply_delta`](vadalog::ChaseSession::apply_delta) produces a new
//! outcome. [`SnapshotHandle`] models exactly that: readers take an
//! `Arc` of the current [`Snapshot`] (two pointer reads under a
//! briefly-held lock) and keep answering against it for as long as they
//! like; a publisher [`publish`](SnapshotHandle::publish)es the next
//! [`SnapshotUpdate`] — a full rebuild or a maintained delta, each
//! carrying its provenance metadata — without waiting for readers to
//! finish. There are no torn reads by construction — the outcome, its
//! version and its update metadata travel in one immutable allocation.

use std::sync::{Arc, RwLock};
use vadalog::{ChaseOutcome, DeltaOutcome};

/// How a snapshot version came to be, surfaced via `/snapshot` and the
/// publish metrics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UpdateKind {
    /// A whole outcome replaced the previous one (initial publish or
    /// full re-chase).
    Full,
    /// The outcome was maintained incrementally from the previous
    /// version by [`apply_delta`](vadalog::ChaseSession::apply_delta).
    Delta,
}

impl UpdateKind {
    /// The wire/metrics label of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            UpdateKind::Full => "full",
            UpdateKind::Delta => "delta",
        }
    }
}

/// One publishable update: the next outcome plus how it was produced.
///
/// Built with [`SnapshotUpdate::full`] for whole-outcome replacement or
/// [`SnapshotUpdate::delta`] for an incrementally maintained one, and
/// handed to [`SnapshotHandle::publish`]. `Clone` is cheap: the outcome
/// travels behind an `Arc`.
#[derive(Clone, Debug)]
pub struct SnapshotUpdate {
    outcome: Arc<ChaseOutcome>,
    kind: UpdateKind,
    facts_added: u64,
    facts_retracted: u64,
}

impl SnapshotUpdate {
    /// A whole-outcome replacement (initial publish or full re-chase).
    pub fn full(outcome: impl Into<Arc<ChaseOutcome>>) -> SnapshotUpdate {
        SnapshotUpdate {
            outcome: outcome.into(),
            kind: UpdateKind::Full,
            facts_added: 0,
            facts_retracted: 0,
        }
    }

    /// An incrementally maintained outcome: publishes
    /// `applied.outcome` and carries the delta's fact counts as version
    /// metadata.
    pub fn delta(applied: &DeltaOutcome) -> SnapshotUpdate {
        SnapshotUpdate {
            outcome: Arc::clone(&applied.outcome),
            kind: UpdateKind::Delta,
            facts_added: applied.facts_added as u64,
            facts_retracted: applied.facts_removed as u64,
        }
    }
}

/// One immutable chase outcome plus its publication version and the
/// metadata of the update that produced it.
#[derive(Debug)]
pub struct Snapshot {
    outcome: Arc<ChaseOutcome>,
    version: u64,
    kind: UpdateKind,
    facts_added: u64,
    facts_retracted: u64,
}

impl Snapshot {
    /// The chase outcome (database + derivation graph + run report).
    pub fn outcome(&self) -> &Arc<ChaseOutcome> {
        &self.outcome
    }

    /// The monotonically increasing publication version (first is 1).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// How this version was produced.
    pub fn update_kind(&self) -> UpdateKind {
        self.kind
    }

    /// Facts this version added relative to its predecessor (0 for full
    /// publishes, whose diff is not computed).
    pub fn facts_added(&self) -> u64 {
        self.facts_added
    }

    /// Facts this version removed relative to its predecessor (0 for
    /// full publishes).
    pub fn facts_retracted(&self) -> u64 {
        self.facts_retracted
    }
}

/// A cloneable handle on the current snapshot; the unit every serving
/// worker and publisher shares.
///
/// Clones observe the same slot: a [`publish`](SnapshotHandle::publish)
/// through any clone is visible to all.
/// [`current`](SnapshotHandle::current) never blocks for longer than the
/// pointer swap itself.
#[derive(Clone, Debug)]
pub struct SnapshotHandle {
    slot: Arc<RwLock<Arc<Snapshot>>>,
}

impl SnapshotHandle {
    /// Publishes `outcome` as version 1 (a full update). Accepts an
    /// owned outcome or an already-shared `Arc<ChaseOutcome>`.
    pub fn new(outcome: impl Into<Arc<ChaseOutcome>>) -> SnapshotHandle {
        SnapshotHandle {
            slot: Arc::new(RwLock::new(Arc::new(Snapshot {
                outcome: outcome.into(),
                version: 1,
                kind: UpdateKind::Full,
                facts_added: 0,
                facts_retracted: 0,
            }))),
        }
    }

    /// The current snapshot. The returned `Arc` stays valid (and
    /// internally consistent) for as long as the caller holds it, even
    /// across concurrent publishes.
    pub fn current(&self) -> Arc<Snapshot> {
        Arc::clone(&self.slot.read().expect("snapshot slot poisoned"))
    }

    /// Atomically publishes `update` as the next version and returns
    /// that version. In-flight readers keep the snapshot they already
    /// took; new readers observe the new one. The swap cannot fail.
    pub fn publish(&self, update: SnapshotUpdate) -> u64 {
        let kind = update.kind;
        let mut slot = self.slot.write().expect("snapshot slot poisoned");
        let version = slot.version + 1;
        *slot = Arc::new(Snapshot {
            outcome: update.outcome,
            version,
            kind: update.kind,
            facts_added: update.facts_added,
            facts_retracted: update.facts_retracted,
        });
        drop(slot);
        let registry = vadalog::obs::metrics::global();
        registry
            .gauge(
                "vadalog_serve_snapshot_version",
                "Version of the currently published chase snapshot.",
            )
            .set(version);
        registry
            .counter_with(
                "vadalog_serve_publishes_total",
                &[("kind", kind.as_str())],
                "Snapshot versions published, by update kind.",
            )
            .inc();
        if kind == UpdateKind::Delta {
            registry
                .counter(
                    "vadalog_serve_delta_publishes_total",
                    "Snapshot versions published from incremental delta maintenance.",
                )
                .inc();
        }
        version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog::{parse_program, ChaseSession, Database, Delta, Fact};

    fn outcome(edges: &[(&str, &str)]) -> ChaseOutcome {
        let parsed = parse_program("alpha: edge(x, y) -> reach(x, y).").unwrap();
        let mut db = Database::new();
        for (a, b) in edges {
            db.add("edge", &[(*a).into(), (*b).into()]);
        }
        ChaseSession::new(&parsed.program).run(db).unwrap()
    }

    #[test]
    fn publish_bumps_version_and_keeps_old_readers_valid() {
        let handle = SnapshotHandle::new(outcome(&[("a", "b")]));
        let before = handle.current();
        assert_eq!(before.version(), 1);
        assert_eq!(before.update_kind(), UpdateKind::Full);
        let v2 = handle.publish(SnapshotUpdate::full(outcome(&[("a", "b"), ("b", "c")])));
        assert_eq!(v2, 2);
        // The old snapshot is untouched; the new one is independent.
        assert_eq!(before.outcome().derived_facts, 1);
        let after = handle.current();
        assert_eq!(after.version(), 2);
        assert_eq!(after.outcome().derived_facts, 2);
    }

    #[test]
    fn delta_publishes_carry_the_maintenance_metadata() {
        let parsed = parse_program("alpha: edge(x, y) -> reach(x, y).").unwrap();
        let mut db = Database::new();
        db.add("edge", &["a".into(), "b".into()]);
        let mut session = ChaseSession::new(&parsed.program);
        let out = session.run(db).unwrap();
        let handle = SnapshotHandle::new(out.clone());
        session.load(out);

        let applied = session
            .apply_delta(Delta::new().add(Fact::new("edge", vec!["b".into(), "c".into()])))
            .unwrap();
        handle.publish(SnapshotUpdate::delta(&applied));
        let snap = handle.current();
        assert_eq!(snap.version(), 2);
        assert_eq!(snap.update_kind(), UpdateKind::Delta);
        assert_eq!(snap.facts_added(), 2); // edge(b,c) + reach(b,c)
        assert_eq!(snap.facts_retracted(), 0);
        assert!(Arc::ptr_eq(snap.outcome(), &applied.outcome));
    }

    #[test]
    fn full_publish_replaces_the_snapshot() {
        let handle = SnapshotHandle::new(outcome(&[("a", "b")]));
        let v2 = handle.publish(SnapshotUpdate::full(outcome(&[("x", "y")])));
        assert_eq!(v2, 2);
        assert_eq!(handle.current().update_kind(), UpdateKind::Full);
    }

    #[test]
    fn clones_share_the_slot() {
        let handle = SnapshotHandle::new(outcome(&[("a", "b")]));
        let clone = handle.clone();
        handle.publish(SnapshotUpdate::full(outcome(&[("x", "y")])));
        assert_eq!(clone.current().version(), 2);
    }
}

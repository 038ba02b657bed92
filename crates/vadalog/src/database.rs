//! The fact store: deduplicated facts with per-predicate and composite
//! positional indexes.

use crate::atom::Fact;
use crate::symbol::Symbol;
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Identifier of a fact inside a [`Database`]. Ids are dense and stable:
/// the i-th inserted distinct fact has id `i`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FactId(pub u32);

impl std::fmt::Display for FactId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A composite positional index over one predicate: maps the tuple of
/// values at `positions` to the ids of the facts carrying them, postings
/// in insertion order. A fact is posted iff it has a value at *every*
/// indexed position (shorter facts are simply absent and can never match
/// a probe that binds those positions).
#[derive(Clone, Debug)]
struct CompositeIndex {
    /// Indexed argument positions, ascending and distinct.
    positions: Vec<usize>,
    map: HashMap<Vec<Value>, Vec<FactId>>,
}

impl CompositeIndex {
    /// The index key of `fact`, or `None` if the fact is too short to
    /// carry values at all indexed positions.
    fn key_of(&self, fact: &Fact) -> Option<Vec<Value>> {
        let mut key = Vec::with_capacity(self.positions.len());
        for &p in &self.positions {
            key.push(*fact.values.get(p)?);
        }
        Some(key)
    }

    /// Posts `id` under `key` and returns the heap bytes the posting
    /// adds: a new key's table slot, key and posting list, or the growth
    /// of an existing list.
    fn post(&mut self, key: Vec<Value>, id: FactId) -> usize {
        let keys = self.map.len();
        match self.map.entry(key) {
            Entry::Occupied(mut e) => {
                let postings = e.get_mut();
                postings.push(id);
                vec_growth::<FactId>(postings.len() - 1)
            }
            Entry::Vacant(e) => {
                let key_bytes = e.key().len() * std::mem::size_of::<Value>();
                e.insert(vec![id]);
                table_growth::<(Vec<Value>, Vec<FactId>)>(keys)
                    + key_bytes
                    + std::mem::size_of::<FactId>()
            }
        }
    }
}

/// Heap bytes a vector of `T` requests once `len` elements were pushed
/// one by one: its capacity doubles from four elements up.
pub(crate) fn vec_bytes<T>(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.next_power_of_two().max(4) * std::mem::size_of::<T>()
    }
}

/// Heap bytes a `HashMap`/`HashSet` with entries of type `T` requests
/// once `len` entries were inserted one by one: a power-of-two number of
/// buckets kept at most 7/8 full (at most `buckets - 1` below eight),
/// each holding one entry and one control byte, plus one group of
/// trailing control bytes.
pub(crate) fn table_bytes<T>(len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let buckets = if len < 4 {
        4
    } else if len < 8 {
        8
    } else {
        (len * 8 / 7).next_power_of_two()
    };
    buckets * (std::mem::size_of::<T>() + 1) + 16
}

/// The bytes a vector of `T` holding `len` elements grows by on a push.
pub(crate) fn vec_growth<T>(len: usize) -> usize {
    vec_bytes::<T>(len + 1) - vec_bytes::<T>(len)
}

/// The bytes a table of `T` holding `len` entries grows by on an insert.
pub(crate) fn table_growth<T>(len: usize) -> usize {
    table_bytes::<T>(len + 1) - table_bytes::<T>(len)
}

/// A deduplicated store of facts.
///
/// Lookups can be restricted by bound argument positions: each predicate
/// may carry any number of *composite* positional hash indexes, each
/// keyed by the tuple of values at a fixed set of positions
/// (`(predicate, [positions]) -> key -> ids`, postings in insertion
/// order). Single-position indexes are the one-position special case.
/// The store never chooses an index: indexes are built eagerly via
/// [`Database::ensure_composite_index`] — the chase engine builds the
/// ones its join plans name — maintained incrementally by inserts and
/// retractions afterwards, and read with [`Database::probe_composite`]
/// on the exact signature a lookup was planned with.
#[derive(Clone, Debug, Default)]
pub struct Database {
    facts: Vec<Fact>,
    dedup: HashMap<Fact, FactId>,
    by_predicate: HashMap<Symbol, Vec<FactId>>,
    /// Composite positional indexes, grouped by predicate so an insert
    /// only ever touches the indexes of its own predicate.
    indexes: HashMap<Symbol, Vec<CompositeIndex>>,
    /// Facts superseded by a fuller monotonic aggregate: still stored (the
    /// chase graph references them) but excluded from matching.
    inactive: std::collections::HashSet<FactId>,
    /// Deactivated-fact count per predicate, so the active population of a
    /// predicate is O(1) to read (the engine sizes match chunks from it).
    inactive_by_pred: HashMap<Symbol, usize>,
    /// Running approximation of the store's heap footprint, maintained in
    /// O(1) per insert so the engine's memory budget can poll it cheaply:
    /// the bytes the store's vectors and hash tables request, counted
    /// with their growth policy (see [`Database::approx_bytes`]).
    approx_bytes: usize,
    /// Posting bytes recorded by a checkpoint but not yet rebuilt locally:
    /// eager index builds after a restore consume this credit instead of
    /// re-charging `approx_bytes` (see [`Database::restore_approx_bytes`]).
    index_byte_credit: usize,
    /// Total posting-list entries ever built, eagerly or incrementally.
    /// A plain work counter (never decremented), deterministic for a given
    /// insertion/indexing sequence; used by tests and metrics to verify
    /// that inserts touch only their own predicate's indexes.
    postings_built: u64,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Inserts `fact`, returning its id and whether it was new.
    pub fn insert(&mut self, fact: Fact) -> (FactId, bool) {
        if let Some(&id) = self.dedup.get(&fact) {
            return (id, false);
        }
        let id = FactId(u32::try_from(self.facts.len()).expect("fact id overflow"));
        let predicates = self.by_predicate.len();
        let ids = self.by_predicate.entry(fact.predicate).or_default();
        ids.push(id);
        let mut bytes = vec_growth::<FactId>(ids.len() - 1);
        if self.by_predicate.len() > predicates {
            bytes += table_growth::<(Symbol, Vec<FactId>)>(predicates);
        }
        // Maintain the existing indexes of this predicate — and only this
        // predicate; indexes of unrelated predicates are never visited.
        if let Some(indexes) = self.indexes.get_mut(&fact.predicate) {
            for index in indexes.iter_mut() {
                if let Some(key) = index.key_of(&fact) {
                    bytes += index.post(key, id);
                    self.postings_built += 1;
                }
            }
        }
        // The stored fact, its dedup slot with the key's copy of the
        // values, and the id slots above. Deterministic: it depends only
        // on the insertion sequence, never on threads.
        self.approx_bytes += bytes
            + vec_growth::<Fact>(self.facts.len())
            + table_growth::<(Fact, FactId)>(self.dedup.len())
            + 2 * fact.values.len() * std::mem::size_of::<Value>();
        self.dedup.insert(fact.clone(), id);
        self.facts.push(fact);
        (id, true)
    }

    /// Convenience: inserts a fact built from a predicate and values.
    pub fn add(&mut self, predicate: &str, values: &[Value]) -> FactId {
        self.insert(Fact::new(predicate, values.to_vec())).0
    }

    /// Rebuilds the store under a fact-id permutation: the fact at id
    /// `i` moves to `map[i]`, ids mapped to the `FactId(u32::MAX)`
    /// sentinel are dropped (dead slots), and `live` is the number of
    /// mapped ids. The fact vector is scattered by moves and the dedup
    /// map's ids are rewritten in place — no fact is cloned or re-hashed
    /// — so this is how the incremental-maintenance engine turns its
    /// interleaved working store into the canonical replayed one.
    /// Composite indexes, activity marks and index accounting start
    /// fresh (the permuted store is a new insertion sequence); the byte
    /// estimate is the one inserting the live facts in their new order
    /// would have reached.
    ///
    /// Every live (dedup-claimed) fact must be mapped, and `map` must be
    /// injective over live ids with targets covering `0..live` — the
    /// scatter panics on uncovered slots.
    pub(crate) fn permuted(self, map: &[FactId], live: usize) -> Database {
        let mut scattered: Vec<Option<Fact>> = (0..live).map(|_| None).collect();
        for (wid, fact) in self.facts.into_iter().enumerate() {
            let nid = map[wid];
            if nid.0 != u32::MAX {
                let slot = &mut scattered[nid.0 as usize];
                debug_assert!(slot.is_none(), "fact-id permutation must be injective");
                *slot = Some(fact);
            }
        }
        let facts: Vec<Fact> = scattered
            .into_iter()
            .map(|f| f.expect("fact-id permutation covers every live slot"))
            .collect();
        let mut dedup = self.dedup;
        for id in dedup.values_mut() {
            *id = map[id.0 as usize];
            debug_assert!(id.0 != u32::MAX, "every live fact is mapped");
        }
        let mut by_predicate = self.by_predicate;
        for ids in by_predicate.values_mut() {
            ids.retain(|id| map[id.0 as usize].0 != u32::MAX);
            for id in ids.iter_mut() {
                *id = map[id.0 as usize];
            }
            // Postings are in insertion (= ascending id) order.
            ids.sort_unstable();
        }
        let value_bytes: usize =
            facts.iter().map(|f| f.values.len()).sum::<usize>() * std::mem::size_of::<Value>();
        let approx_bytes = vec_bytes::<Fact>(facts.len())
            + table_bytes::<(Fact, FactId)>(facts.len())
            + 2 * value_bytes
            + table_bytes::<(Symbol, Vec<FactId>)>(by_predicate.len())
            + by_predicate
                .values()
                .map(|ids| vec_bytes::<FactId>(ids.len()))
                .sum::<usize>();
        Database {
            facts,
            dedup,
            by_predicate,
            indexes: HashMap::new(),
            inactive: std::collections::HashSet::new(),
            inactive_by_pred: HashMap::new(),
            approx_bytes,
            index_byte_credit: 0,
            postings_built: 0,
        }
    }

    /// The fact with the given id.
    pub fn fact(&self, id: FactId) -> &Fact {
        &self.facts[id.0 as usize]
    }

    /// The id of `fact`, if present.
    pub fn lookup(&self, fact: &Fact) -> Option<FactId> {
        self.dedup.get(fact).copied()
    }

    /// True iff `fact` is present.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.dedup.contains_key(fact)
    }

    /// Total number of (distinct) facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True iff the database is empty.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// All fact ids for `predicate`, in insertion order.
    pub fn facts_of(&self, predicate: Symbol) -> &[FactId] {
        self.by_predicate.get(&predicate).map_or(&[], Vec::as_slice)
    }

    /// Number of *active* (not aggregate-superseded) facts of `predicate`.
    /// O(1): maintained alongside [`Database::deactivate`].
    pub fn active_count(&self, predicate: Symbol) -> usize {
        let total = self.facts_of(predicate).len();
        total - self.inactive_by_pred.get(&predicate).copied().unwrap_or(0)
    }

    /// Iterates over all facts with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, &Fact)> {
        self.facts
            .iter()
            .enumerate()
            .map(|(i, f)| (FactId(i as u32), f))
    }

    /// Eagerly builds the composite index on `(predicate, positions)` if it
    /// does not exist yet. Indexes are maintained incrementally by
    /// [`Database::insert`] afterwards.
    ///
    /// `positions` must be ascending and distinct (join plans emit them
    /// that way); the signature identifies the index, so probing requires
    /// the same ordering. The chase engine calls this for every planned
    /// probe signature *before* its parallel matching phase, which shares
    /// the store read-only across worker threads and scans wherever an
    /// index is missing.
    ///
    /// An eagerly-built index is charged to [`Database::approx_bytes`]
    /// posting by posting, exactly like an incrementally-maintained one,
    /// so the footprint estimate does not depend on whether an index was
    /// created before or after its facts were inserted.
    pub fn ensure_composite_index(&mut self, predicate: Symbol, positions: &[usize]) {
        debug_assert!(
            positions.windows(2).all(|w| w[0] < w[1]) && !positions.is_empty(),
            "index signature must be non-empty, ascending and distinct: {positions:?}"
        );
        if self.has_composite_index(predicate, positions) {
            return;
        }
        let mut index = CompositeIndex {
            positions: positions.to_vec(),
            map: HashMap::new(),
        };
        let mut postings = 0u64;
        let mut bytes = 0usize;
        if let Some(ids) = self.by_predicate.get(&predicate) {
            for &id in ids {
                if let Some(key) = index.key_of(&self.facts[id.0 as usize]) {
                    bytes += index.post(key, id);
                    postings += 1;
                }
            }
        }
        self.postings_built += postings;
        // Charge the new index, first consuming any credit left by a
        // checkpoint restore (whose recorded estimate already includes the
        // indexes of the captured run).
        let credited = bytes.min(self.index_byte_credit);
        self.index_byte_credit -= credited;
        self.approx_bytes += bytes - credited;
        self.indexes.entry(predicate).or_default().push(index);
    }

    /// True iff the composite index on `(predicate, positions)` exists.
    pub fn has_composite_index(&self, predicate: Symbol, positions: &[usize]) -> bool {
        self.indexes
            .get(&predicate)
            .is_some_and(|v| v.iter().any(|ix| ix.positions == positions))
    }

    /// Read-only probe of the composite index on `(predicate, positions)`
    /// for the facts whose values at those positions equal `key`
    /// (element-for-element). Returns the posting list in insertion order
    /// if the index exists, `None` if it was never built. Never builds an
    /// index — safe to call concurrently from matching workers.
    pub fn probe_composite(
        &self,
        predicate: Symbol,
        positions: &[usize],
        key: &[Value],
    ) -> Option<&[FactId]> {
        debug_assert_eq!(positions.len(), key.len());
        let index = self
            .indexes
            .get(&predicate)?
            .iter()
            .find(|ix| ix.positions == positions)?;
        Some(index.map.get(key).map_or(&[] as &[FactId], Vec::as_slice))
    }

    /// Total posting-list entries built so far, eagerly and incrementally.
    /// A monotone work counter: a deterministic function of the
    /// insertion/indexing sequence, independent of thread count.
    pub fn postings_built(&self) -> u64 {
        self.postings_built
    }

    /// Marks a fact as superseded: it stays in the store (ids and
    /// provenance remain valid) but no longer participates in matching.
    pub fn deactivate(&mut self, id: FactId) {
        let inactive = self.inactive.len();
        if self.inactive.insert(id) {
            self.approx_bytes += table_growth::<FactId>(inactive);
            let pred = self.facts[id.0 as usize].predicate;
            *self.inactive_by_pred.entry(pred).or_default() += 1;
        }
    }

    /// Retracts a fact: removes it from matching *and* from identity.
    ///
    /// Unlike [`deactivate`](Database::deactivate) (which supersedes a
    /// fact but keeps its value claimed in the store), retraction frees
    /// the fact's value — a later [`insert`](Database::insert) of the
    /// same value allocates a *fresh* id. The slot itself stays (ids of
    /// other facts remain stable, provenance referring to the retracted
    /// id stays resolvable), but the fact is dropped from the dedup map
    /// and its posting-list entries are removed from every composite
    /// index of its predicate — postings are maintained in place, never
    /// rebuilt. Used by the incremental-maintenance engine
    /// ([`ChaseSession::apply_delta`](crate::engine::ChaseSession::apply_delta)).
    /// The byte estimate stays as it is: tables and posting lists keep
    /// the capacity they grew to.
    pub fn retract(&mut self, id: FactId) {
        let fact = &self.facts[id.0 as usize];
        let pred = fact.predicate;
        // Only unclaim the value if this id still owns it: a stale slot
        // whose value was re-inserted under a fresh id must not clobber
        // the fresh claim.
        if self.dedup.get(fact) == Some(&id) {
            self.dedup.remove(fact);
        }
        if let Some(indexes) = self.indexes.get_mut(&pred) {
            let fact = &self.facts[id.0 as usize];
            for index in indexes.iter_mut() {
                let Some(key) = index.key_of(fact) else {
                    continue;
                };
                if let Some(list) = index.map.get_mut(&key) {
                    list.retain(|&fid| fid != id);
                    if list.is_empty() {
                        index.map.remove(&key);
                    }
                }
            }
        }
        self.deactivate(id);
    }

    /// True iff `id` participates in matching.
    pub fn is_active(&self, id: FactId) -> bool {
        !self.inactive.contains(&id)
    }

    /// Number of deactivated (superseded) facts.
    pub fn inactive_count(&self) -> usize {
        self.inactive.len()
    }

    /// Approximate heap footprint of the store, in bytes: what its fact
    /// vector, the facts' values, the dedup table, the per-predicate id
    /// lists, the composite indexes (table slots, keys, posting lists)
    /// and the inactive set request from the allocator, with vectors
    /// doubling from four elements and hash tables growing by powers of
    /// two at 7/8 load. Maintained in O(1) per insert; a deterministic
    /// function of the insertion sequence (the engine's memory budget
    /// relies on this to trip identically at any thread count).
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Overwrites the running footprint estimate with a recorded value.
    ///
    /// Used by checkpoint restore only: replaying the facts of a snapshot
    /// into a fresh (index-less) store under-counts relative to the live
    /// run it captured, because the recorded estimate includes the posting
    /// lists of the run's indexes. Restoring the recorded value keeps the
    /// memory observation bitwise identical across a save/load cycle. The
    /// difference between the recorded value and the locally-replayed one
    /// is retained as a credit that subsequent eager index rebuilds
    /// consume instead of charging those postings a second time — so a
    /// resumed run's estimate tracks the uninterrupted run exactly.
    pub(crate) fn restore_approx_bytes(&mut self, approx_bytes: usize) {
        self.index_byte_credit = approx_bytes.saturating_sub(self.approx_bytes);
        self.approx_bytes = approx_bytes;
    }
}

impl FromIterator<Fact> for Database {
    fn from_iter<T: IntoIterator<Item = Fact>>(iter: T) -> Database {
        let mut db = Database::new();
        for f in iter {
            db.insert(f);
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_deduplicates() {
        let mut db = Database::new();
        let a = db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        let b = db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        let c = db.add("own", &["A".into(), "C".into(), 0.4.into()]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn facts_of_returns_in_insertion_order() {
        let mut db = Database::new();
        db.add("p", &[1i64.into()]);
        db.add("q", &[9i64.into()]);
        db.add("p", &[2i64.into()]);
        let ids = db.facts_of(Symbol::new("p"));
        let vals: Vec<_> = ids.iter().map(|&id| db.fact(id).values[0]).collect();
        assert_eq!(vals, vec![Value::Int(1), Value::Int(2)]);
        assert!(db.facts_of(Symbol::new("zzz")).is_empty());
    }

    #[test]
    fn eager_index_probe_is_read_only() {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        db.add("own", &["C".into(), "B".into(), 0.3.into()]);
        let pred = Symbol::new("own");
        let b = [Value::str("B")];
        // Before the index is built, a probe reports it as missing.
        assert!(db.probe_composite(pred, &[1], &b).is_none());
        assert!(!db.has_composite_index(pred, &[1]));
        db.ensure_composite_index(pred, &[1]);
        assert!(db.has_composite_index(pred, &[1]));
        assert_eq!(db.probe_composite(pred, &[1], &b).unwrap().len(), 2);
        // Insertion keeps the eager index fresh.
        db.add("own", &["D".into(), "B".into(), 0.2.into()]);
        assert_eq!(db.probe_composite(pred, &[1], &b).unwrap().len(), 3);
        // A probe for an unseen value hits the index and returns empty.
        assert_eq!(
            db.probe_composite(pred, &[1], &[Value::str("Z")]),
            Some(&[] as &[FactId])
        );
    }

    #[test]
    fn composite_index_probes_all_bound_positions_at_once() {
        let mut db = Database::new();
        let e0 = db.add("edge", &["A".into(), "B".into()]);
        db.add("edge", &["A".into(), "C".into()]);
        db.add("edge", &["B".into(), "B".into()]);
        let e3 = db.add("edge", &["A".into(), "B".into(), 1i64.into()]);
        let pred = Symbol::new("edge");
        assert!(!db.has_composite_index(pred, &[0, 1]));
        db.ensure_composite_index(pred, &[0, 1]);
        assert!(db.has_composite_index(pred, &[0, 1]));
        // Longer facts with the same prefix share the key; postings stay
        // in insertion order.
        let hits = db
            .probe_composite(pred, &[0, 1], &[Value::str("A"), Value::str("B")])
            .unwrap();
        assert_eq!(hits, &[e0, e3]);
        // Incremental maintenance after the eager build.
        let e4 = db.add("edge", &["A".into(), "B".into(), 2i64.into()]);
        let hits = db
            .probe_composite(pred, &[0, 1], &[Value::str("A"), Value::str("B")])
            .unwrap();
        assert_eq!(hits, &[e0, e3, e4]);
        // Unseen key: index hit, empty postings. Unbuilt signature: None.
        assert_eq!(
            db.probe_composite(pred, &[0, 1], &[Value::str("Z"), Value::str("Z")]),
            Some(&[] as &[FactId])
        );
        assert!(db.probe_composite(pred, &[1], &[Value::str("B")]).is_none());
    }

    #[test]
    fn composite_index_skips_facts_missing_an_indexed_position() {
        let mut db = Database::new();
        db.add("p", &["A".into()]); // too short for position 1
        let long = db.add("p", &["A".into(), "B".into()]);
        let pred = Symbol::new("p");
        db.ensure_composite_index(pred, &[0, 1]);
        let hits = db
            .probe_composite(pred, &[0, 1], &[Value::str("A"), Value::str("B")])
            .unwrap();
        assert_eq!(hits, &[long]);
    }

    /// Regression test for the foreign-predicate insert bug: inserting a
    /// fact must maintain only its *own* predicate's indexes. With indexes
    /// on `own` only, inserting `company` facts must build zero postings.
    #[test]
    fn insert_never_touches_foreign_predicate_indexes() {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        db.ensure_composite_index(Symbol::new("own"), &[0]);
        db.ensure_composite_index(Symbol::new("own"), &[0, 1]);
        let after_build = db.postings_built();
        assert_eq!(after_build, 2);
        // Foreign-predicate inserts: no postings anywhere.
        db.add("company", &["A".into()]);
        db.add("company", &["B".into()]);
        assert_eq!(db.postings_built(), after_build);
        // Own-predicate insert: exactly one posting per index of `own`.
        db.add("own", &["B".into(), "C".into(), 0.4.into()]);
        assert_eq!(db.postings_built(), after_build + 2);
    }

    #[test]
    fn active_count_tracks_deactivation_per_predicate() {
        let mut db = Database::new();
        let a = db.add("p", &[1i64.into()]);
        db.add("p", &[2i64.into()]);
        db.add("q", &[3i64.into()]);
        let p = Symbol::new("p");
        let q = Symbol::new("q");
        assert_eq!(db.active_count(p), 2);
        assert_eq!(db.active_count(q), 1);
        db.deactivate(a);
        db.deactivate(a); // idempotent
        assert_eq!(db.active_count(p), 1);
        assert_eq!(db.active_count(q), 1);
        assert_eq!(db.facts_of(p).len(), 2, "facts_of still counts inactive");
        assert_eq!(db.active_count(Symbol::new("zzz")), 0);
    }

    #[test]
    fn lookup_and_contains_agree() {
        let mut db = Database::new();
        let f = Fact::new("company", vec![Value::str("A")]);
        assert!(!db.contains(&f));
        let (id, fresh) = db.insert(f.clone());
        assert!(fresh);
        assert_eq!(db.lookup(&f), Some(id));
        assert!(db.contains(&f));
    }

    #[test]
    fn approx_bytes_grows_only_on_fresh_inserts() {
        let mut db = Database::new();
        assert_eq!(db.approx_bytes(), 0);
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        let after_one = db.approx_bytes();
        assert!(after_one > 0);
        // Duplicate insert: no growth.
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        assert_eq!(db.approx_bytes(), after_one);
        db.add("own", &["A".into(), "C".into(), 0.4.into()]);
        assert!(db.approx_bytes() > after_one);

        // The estimate must not depend on whether an index was built
        // before or after its facts were inserted: eager builds charge
        // their postings exactly like incremental maintenance does.
        let facts = [
            Fact::new("own", vec!["A".into(), "B".into(), 0.6.into()]),
            Fact::new("own", vec!["A".into(), "C".into(), 0.4.into()]),
            Fact::new("company", vec!["A".into()]),
        ];
        let pred = Symbol::new("own");
        let mut index_first = Database::new();
        index_first.ensure_composite_index(pred, &[0]);
        index_first.ensure_composite_index(pred, &[0, 1]);
        for f in &facts {
            index_first.insert(f.clone());
        }
        let mut facts_first = Database::new();
        for f in &facts {
            facts_first.insert(f.clone());
        }
        facts_first.ensure_composite_index(pred, &[0]);
        facts_first.ensure_composite_index(pred, &[0, 1]);
        assert_eq!(index_first.approx_bytes(), facts_first.approx_bytes());
        assert_eq!(index_first.postings_built(), facts_first.postings_built());
        // And the indexed store is strictly heavier than an unindexed one.
        let plain: Database = facts.iter().cloned().collect();
        assert!(facts_first.approx_bytes() > plain.approx_bytes());
    }

    #[test]
    fn restore_credit_absorbs_eager_rebuild_charges() {
        // Simulates a checkpoint restore: the recorded estimate includes
        // posting bytes; the replayed store has no indexes yet. The eager
        // rebuild must consume the restored credit instead of charging the
        // postings a second time.
        let mut live = Database::new();
        live.ensure_composite_index(Symbol::new("own"), &[0]);
        live.add("own", &["A".into(), "B".into(), 0.6.into()]);
        live.add("own", &["B".into(), "C".into(), 0.4.into()]);
        let recorded = live.approx_bytes();

        let mut restored = Database::new();
        restored.add("own", &["A".into(), "B".into(), 0.6.into()]);
        restored.add("own", &["B".into(), "C".into(), 0.4.into()]);
        assert!(restored.approx_bytes() < recorded);
        restored.restore_approx_bytes(recorded);
        assert_eq!(restored.approx_bytes(), recorded);
        restored.ensure_composite_index(Symbol::new("own"), &[0]);
        assert_eq!(
            restored.approx_bytes(),
            recorded,
            "rebuild must not double-charge restored postings"
        );
        // Fresh postings beyond the credit are charged normally.
        restored.add("own", &["C".into(), "D".into(), 0.2.into()]);
        live.add("own", &["C".into(), "D".into(), 0.2.into()]);
        assert_eq!(restored.approx_bytes(), live.approx_bytes());
    }

    #[test]
    fn from_iterator_collects() {
        let db: Database = vec![
            Fact::new("p", vec![Value::Int(1)]),
            Fact::new("p", vec![Value::Int(1)]),
            Fact::new("p", vec![Value::Int(2)]),
        ]
        .into_iter()
        .collect();
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn retract_maintains_postings_in_place() {
        let mut db = Database::new();
        let a = db.add("own", &["A".into(), "B".into()]);
        let b = db.add("own", &["A".into(), "C".into()]);
        db.ensure_composite_index(Symbol::new("own"), &[0]);
        let built = db.postings_built();
        db.retract(a);
        // The posting list lost exactly the retracted id, without a
        // rebuild (the monotone built-counter is unchanged).
        let hits = db
            .probe_composite(Symbol::new("own"), &[0], &["A".into()])
            .unwrap();
        assert_eq!(hits, &[b]);
        assert_eq!(db.postings_built(), built);
        assert!(!db.is_active(a));
        assert!(db.is_active(b));
        assert_eq!(db.active_count(Symbol::new("own")), 1);
    }

    #[test]
    fn retract_frees_the_value_for_fresh_reinsertion() {
        let mut db = Database::new();
        let fact = Fact::new("p", vec![Value::Int(7)]);
        let a = db.add("p", &[Value::Int(7)]);
        db.ensure_composite_index(Symbol::new("p"), &[0]);
        db.retract(a);
        assert_eq!(db.lookup(&fact), None);
        assert_eq!(
            db.probe_composite(Symbol::new("p"), &[0], &[Value::Int(7)]),
            Some(&[] as &[FactId])
        );
        let (b, fresh) = db.insert(fact.clone());
        assert!(fresh, "a retracted value re-inserts as a fresh fact");
        assert_ne!(a, b);
        assert_eq!(db.lookup(&fact), Some(b));
        assert!(db.is_active(b));
        // Retracting the stale slot again must not unclaim the fresh id.
        db.retract(a);
        assert_eq!(db.lookup(&fact), Some(b));
    }

    /// The matcher's scan fallback for a composite probe: `pred`'s
    /// active facts in insertion order whose values at `positions`
    /// equal `key`.
    fn scan_reference(
        db: &Database,
        pred: Symbol,
        positions: &[usize],
        key: &[Value],
    ) -> Vec<FactId> {
        db.facts_of(pred)
            .iter()
            .copied()
            .filter(|&id| {
                let f = db.fact(id);
                positions
                    .iter()
                    .zip(key)
                    .all(|(&p, v)| f.values.get(p) == Some(v))
            })
            .filter(|&id| db.is_active(id))
            .collect()
    }

    /// Checks every index in `sigs` against the scan fallback, for the
    /// key of every stored fact plus an unseen one.
    fn assert_probes_agree_with_scans(db: &Database, sigs: &[(Symbol, Vec<usize>)], step: &str) {
        for (pred, positions) in sigs {
            let mut keys: Vec<Vec<Value>> = db
                .facts_of(*pred)
                .iter()
                .filter_map(|&id| {
                    let f = db.fact(id);
                    positions
                        .iter()
                        .map(|&p| f.values.get(p).copied())
                        .collect()
                })
                .collect();
            keys.push(positions.iter().map(|_| Value::Int(-1)).collect());
            for key in &keys {
                let probed: Vec<FactId> = db
                    .probe_composite(*pred, positions, key)
                    .expect("index is built")
                    .iter()
                    .copied()
                    .filter(|&id| db.is_active(id))
                    .collect();
                assert_eq!(
                    probed,
                    scan_reference(db, *pred, positions, key),
                    "{step}: probe {pred}{positions:?} {key:?}"
                );
            }
        }
    }

    #[test]
    fn composite_probes_agree_with_the_scan_fallback_under_random_updates() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let value = |rng: &mut StdRng| match rng.random_range(0..4) {
            0 => Value::Int(rng.random_range(0..3)),
            1 => Value::Float([0.0, -0.0, 0.5, 1.5][rng.random_range(0..4)]),
            2 => Value::str(["a", "b", "c"][rng.random_range(0..3)]),
            _ => Value::Null(rng.random_range(1..3)),
        };
        // `r` mixes arities, so some facts lack an indexed position.
        let preds = [("p", 2..=2), ("q", 3..=3), ("r", 1..=3)];
        let fact = |rng: &mut StdRng| {
            let (name, arity) = preds[rng.random_range(0..preds.len())].clone();
            let len = rng.random_range(arity);
            Fact::new(name, (0..len).map(|_| value(rng)).collect())
        };
        // Every non-empty ascending position set of each predicate.
        let mut sigs: Vec<(Symbol, Vec<usize>)> = Vec::new();
        for (name, arity) in &preds {
            let width = *arity.end();
            for mask in 1u32..(1 << width) {
                let positions = (0..width).filter(|i| mask & (1 << i) != 0).collect();
                sigs.push((Symbol::new(name), positions));
            }
        }
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut db = Database::new();
            // Half the indexes before any insert, the rest after.
            let (early, late) = sigs.split_at(sigs.len() / 2);
            for (pred, positions) in early {
                db.ensure_composite_index(*pred, positions);
            }
            for _ in 0..40 {
                db.insert(fact(&mut rng));
            }
            for (pred, positions) in late {
                db.ensure_composite_index(*pred, positions);
            }
            assert_probes_agree_with_scans(&db, &sigs, &format!("seed {seed} built"));
            for op in 0..12 {
                let id = FactId(rng.random_range(0..db.len() as u32));
                match rng.random_range(0..3) {
                    0 => db.deactivate(id),
                    1 => db.retract(id),
                    _ => {
                        // Re-insert a stored value: a no-op, or a fresh id
                        // if that value was retracted.
                        db.insert(db.fact(id).clone());
                    }
                }
                let step = format!("seed {seed} op {op}");
                assert_probes_agree_with_scans(&db, &sigs, &step);
            }
            // Permuted round trip: the live facts in a shuffled id order,
            // re-indexed half before and half after further inserts.
            let live: Vec<FactId> = db
                .iter()
                .filter(|(id, f)| db.lookup(f) == Some(*id))
                .map(|(id, _)| id)
                .collect();
            let mut targets: Vec<u32> = (0..live.len() as u32).collect();
            for i in (1..targets.len()).rev() {
                targets.swap(i, rng.random_range(0..=i));
            }
            let mut map = vec![FactId(u32::MAX); db.len()];
            for (id, target) in live.iter().zip(targets) {
                map[id.0 as usize] = FactId(target);
            }
            let mut db = db.permuted(&map, live.len());
            for (pred, positions) in late {
                db.ensure_composite_index(*pred, positions);
            }
            for _ in 0..10 {
                db.insert(fact(&mut rng));
            }
            for (pred, positions) in early {
                db.ensure_composite_index(*pred, positions);
            }
            let step = format!("seed {seed} permuted");
            assert_probes_agree_with_scans(&db, &sigs, &step);
        }
    }
}

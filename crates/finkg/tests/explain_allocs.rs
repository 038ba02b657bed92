//! The allocation gate of the explain path: heap allocations per
//! `Explainer::explain` call, counted by this binary's global allocator
//! on the calling thread. Unlike wall clock, the count repeats exactly
//! from run to run and is the same in debug and release builds, so it
//! can gate the cost of a query on a noisy host.
//!
//! The bounds are the counts measured when they were set plus 10%: a
//! change that reintroduces per-token vectors and strings, clones
//! derivations during proof extraction or extracts a proof twice per
//! goal fails here.

use explain::{Explainer, ProgramArtifacts};
use finkg::apps::{control, sanctions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use vadalog::{ChaseSession, Database, Fact, Program};

/// Counts every `alloc`, `alloc_zeroed` and `realloc` of the thread
/// that makes it.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Mean allocations per `explain` over `goals`, after one untimed pass
/// that fills every lazily built cache.
fn allocations_per_goal(explainer: &Explainer, goals: &[Fact]) -> f64 {
    for goal in goals {
        explainer.explain(goal).expect("warm-up explanation");
    }
    let before = allocations();
    for goal in goals {
        let e = explainer.explain(goal).expect("explanation");
        std::hint::black_box(e);
    }
    (allocations() - before) as f64 / goals.len() as f64
}

fn explainer(
    program: &Program,
    goal: &str,
    glossary: &explain::DomainGlossary,
    db: Database,
) -> Explainer {
    let artifacts = ProgramArtifacts::builder(program.clone(), goal)
        .with_glossary(glossary)
        .build_cached()
        .expect("artifact build");
    let outcome = ChaseSession::new(program)
        .with_threads(1)
        .run(db)
        .expect("chase");
    Explainer::for_snapshot(Arc::clone(&artifacts), outcome)
}

/// One test, so no other test of this binary allocates on a thread the
/// harness could reuse while a count runs.
#[test]
fn explain_allocations_per_goal_stay_bounded() {
    // 21-step solid control chains: the deep proofs of perfbench's
    // control_deep workload.
    let bundle = finkg::control_bundle(21, 16, 1);
    let control = explainer(
        &control::program(),
        control::GOAL,
        &control::glossary(),
        bundle.database,
    );
    let per_goal = allocations_per_goal(&control, &bundle.targets);
    println!("control_bundle(21, 16, 1): {per_goal:.1} allocations per goal");

    // Every derived `flagged` fact of a negation-heavy sanctions network.
    let sanctions = explainer(
        &sanctions::program(),
        sanctions::GOAL,
        &sanctions::glossary(),
        finkg::random_sanctions(125, 3, 3, 1),
    );
    let outcome = sanctions.outcome();
    let flagged: Vec<Fact> = outcome
        .facts_of(sanctions::GOAL)
        .into_iter()
        .filter(|&(id, _)| outcome.graph.is_derived(id))
        .map(|(_, fact)| fact.clone())
        .collect();
    assert!(
        flagged.len() >= 10,
        "too few flagged goals: {}",
        flagged.len()
    );
    let sanctions_per_goal = allocations_per_goal(&sanctions, &flagged);
    println!(
        "sanctions flagged ({} goals): {sanctions_per_goal:.1} allocations per goal",
        flagged.len()
    );

    assert!(
        per_goal <= CONTROL_BOUND,
        "control: {per_goal:.1} allocations per goal, bound {CONTROL_BOUND}"
    );
    assert!(
        sanctions_per_goal <= SANCTIONS_BOUND,
        "sanctions: {sanctions_per_goal:.1} allocations per goal, bound {SANCTIONS_BOUND}"
    );
}

/// 149.0 allocations per goal when set, plus 10%.
const CONTROL_BOUND: f64 = 163.0;
/// 38.3 allocations per goal when set, plus 10%.
const SANCTIONS_BOUND: f64 = 42.0;

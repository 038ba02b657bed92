//! The heap gate of the chase: live bytes per derivation of an outcome,
//! the chase's peak live heap, allocations per commit, and how close the
//! engine's `approx_bytes` estimate (what a memory budget polls) lands to
//! the counted heap of the outcome. This binary's global allocator counts
//! every allocation and the bytes it requests on the calling thread; a
//! chase at `with_threads(1)` runs inline on that thread, so the counts
//! repeat exactly from run to run and are the same in debug and release.
//!
//! The bounds are the measured counts plus at most 10%: a
//! change that brings back a hash map per match or per derivation, or a
//! second copy of every premise vector, fails here.

use finkg::apps::{control, sanctions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vadalog::{ChaseSession, Database, Program};

/// Counts every allocation of the thread that makes it, and the bytes
/// it holds: requested sizes, so the figures do not depend on the
/// system allocator's rounding.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn record(allocations: u64, bytes: i64) {
    // `try_with` fails only while the thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// const-initialised thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as i64));
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// What one chase of `db` costs on the heap.
#[derive(Debug)]
struct HeapFigures {
    derivations: u64,
    commits: u64,
    /// Bytes the outcome holds: freed when it is dropped.
    outcome_bytes: i64,
    /// Highest live heap during the chase, above the live heap before
    /// the input store was built (so the input counts too).
    peak_bytes: i64,
    /// Allocations made by the chase itself.
    allocations: u64,
    /// `db.approx_bytes() + graph.approx_bytes()` of the outcome.
    approx_bytes: u64,
}

impl HeapFigures {
    fn bytes_per_derivation(&self) -> f64 {
        self.outcome_bytes as f64 / self.derivations as f64
    }

    fn allocations_per_commit(&self) -> f64 {
        self.allocations as f64 / self.commits as f64
    }

    /// `approx_bytes` over the counted outcome heap.
    fn estimate_ratio(&self) -> f64 {
        self.approx_bytes as f64 / self.outcome_bytes as f64
    }
}

fn chase(program: &Program, build: impl FnOnce() -> Database) -> HeapFigures {
    let session = ChaseSession::new(program).with_threads(1);
    let base = live();
    let db = build();
    PEAK.with(|peak| peak.set(live()));
    let allocations = ALLOCATIONS.with(Cell::get);
    let outcome = session.run(db).expect("chase");
    let allocations = ALLOCATIONS.with(Cell::get) - allocations;
    let peak_bytes = PEAK.with(Cell::get) - base;
    let figures = HeapFigures {
        derivations: outcome.graph.derivations().len() as u64,
        commits: outcome.report.total_commits(),
        outcome_bytes: 0,
        peak_bytes,
        allocations,
        approx_bytes: (outcome.database.approx_bytes() + outcome.graph.approx_bytes()) as u64,
    };
    let held = live();
    drop(outcome);
    HeapFigures {
        outcome_bytes: held - live(),
        ..figures
    }
}

fn report(name: &str, f: &HeapFigures) {
    println!(
        "{name}: {} derivations, {} commits; outcome {} B ({:.1} B/derivation), \
         chase peak {} B, {} allocations ({:.2}/commit), approx_bytes {} ({:.3} of counted)",
        f.derivations,
        f.commits,
        f.outcome_bytes,
        f.bytes_per_derivation(),
        f.peak_bytes,
        f.allocations,
        f.allocations_per_commit(),
        f.approx_bytes,
        f.estimate_ratio(),
    );
}

/// Asserts one workload's figures against its bounds.
fn check(name: &str, f: &HeapFigures, bounds: &Bounds) {
    assert!(
        f.bytes_per_derivation() <= bounds.bytes_per_derivation,
        "{name}: {:.1} outcome bytes per derivation, bound {}",
        f.bytes_per_derivation(),
        bounds.bytes_per_derivation
    );
    assert!(
        f.peak_bytes <= bounds.peak_bytes,
        "{name}: chase peak {} bytes, bound {}",
        f.peak_bytes,
        bounds.peak_bytes
    );
    assert!(
        f.allocations_per_commit() <= bounds.allocations_per_commit,
        "{name}: {:.2} allocations per commit, bound {}",
        f.allocations_per_commit(),
        bounds.allocations_per_commit
    );
    assert!(
        (0.8..=1.2).contains(&f.estimate_ratio()),
        "{name}: approx_bytes {} is {:.3} of the counted outcome heap {}",
        f.approx_bytes,
        f.estimate_ratio(),
        f.outcome_bytes
    );
}

struct Bounds {
    bytes_per_derivation: f64,
    peak_bytes: i64,
    allocations_per_commit: f64,
}

/// One test, so no other test of this binary allocates on a thread the
/// harness could reuse while a count runs.
#[test]
fn chase_heap_stays_bounded() {
    // 21-step control chains: a tenth of perfbench's control_deep store.
    let control = chase(&control::program(), || {
        finkg::control_bundle(21, 40, 1).database
    });
    report("control_bundle(21, 40, 1)", &control);
    // One negation-heavy sanctions network of perfbench's sanctions_live.
    let sanctions = chase(&sanctions::program(), || {
        finkg::random_sanctions(125, 3, 3, 1)
    });
    report("random_sanctions(125, 3, 3, 1)", &sanctions);

    check("control", &control, &CONTROL);
    check("sanctions", &sanctions, &SANCTIONS);
}

/// 603.2 bytes per derivation, a peak of 8,781,266 bytes and 14.92
/// allocations per commit, plus at most 10%.
const CONTROL: Bounds = Bounds {
    bytes_per_derivation: 663.0,
    peak_bytes: 9_660_000,
    allocations_per_commit: 16.4,
};

/// 548.4 bytes per derivation, a peak of 486,866 bytes and 10.58
/// allocations per commit, plus at most 10%.
const SANCTIONS: Bounds = Bounds {
    bytes_per_derivation: 603.0,
    peak_bytes: 532_000,
    allocations_per_commit: 11.6,
};

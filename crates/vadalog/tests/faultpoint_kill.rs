//! Kill-and-resume property tests (feature `faultpoints`): a simulated
//! crash at every round boundary and at intra-round safe points, followed
//! by recovery from the last autosaved snapshot, must reach a state
//! bitwise identical to the uninterrupted run — at any thread count.
//!
//! Each test holds its armed plan across the whole crash-and-recover
//! cycle: a plan entry fires on an exact hit count, so once it has fired
//! the recovery run can never re-trigger it, and holding the guard keeps
//! concurrently running tests from injecting faults into each other's
//! recovery phases.

#![cfg(feature = "faultpoints")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use vadalog::faultpoint::{arm, FaultCrash, FaultPlan};
use vadalog::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("faultpoint_kill");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Company control over an ownership chain with diamond joints: control
/// propagates one hop per round, so the chase runs many rounds and every
/// round commits several rules.
fn scenario() -> ParsedProgram {
    let mut text = String::from(
        "o1: own(x, y, s), s > 0.5 -> control(x, y).\n\
         o2: company(x) -> control(x, x).\n\
         o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).\n\
         company(\"c0\").\n",
    );
    for k in 0..8 {
        text.push_str(&format!("own(\"c{k}\", \"c{}\", 0.6).\n", k + 1));
        // Diamond joints: two sub-threshold edges that only add up to
        // control through the o3 aggregation.
        text.push_str(&format!("own(\"c{k}\", \"d{k}\", 0.3).\n"));
        text.push_str(&format!("own(\"c{}\", \"d{k}\", 0.3).\n", k + 1));
    }
    parse_program(&text).unwrap()
}

fn db(parsed: &ParsedProgram) -> Database {
    parsed.facts.iter().cloned().collect()
}

/// The full structural fingerprint (facts in id order with activity,
/// derivations in recording order, rounds, violations): equality means
/// the outcomes are interchangeable for every downstream consumer.
fn fingerprint(out: &ChaseOutcome) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for (id, fact) in out.database.iter() {
        let _ = writeln!(s, "{id} {fact} active={}", out.database.is_active(id));
    }
    for d in out.graph.derivations() {
        let _ = writeln!(
            s,
            "r{} {:?} -> {} round={} contrib={} bindings={:?} {:?}",
            d.rule.0,
            d.premises,
            d.conclusion,
            d.round,
            d.contributors,
            d.bindings,
            d.contributor_bindings,
        );
    }
    let _ = write!(s, "rounds={} violations={:?}", out.rounds, out.violations);
    s
}

fn reference() -> (ParsedProgram, String, u64) {
    let parsed = scenario();
    // An empty plan keeps the hits of this run away from plans other
    // tests arm meanwhile.
    let _quiet = arm(FaultPlan::new());
    let out = ChaseSession::new(&parsed.program)
        .with_threads(1)
        .run(db(&parsed))
        .unwrap();
    let rounds = u64::from(out.report.rounds);
    let print = fingerprint(&out);
    (parsed, print, rounds)
}

/// Runs `session` expecting an injected crash; asserts the run died by
/// panic. The `FaultCrash` payload survives on the main thread; a crash
/// inside a pooled worker is re-raised through `thread::scope`, which
/// replaces the payload — so the payload type is only checked when
/// `expect_payload` is set.
fn expect_crash(session: &ChaseSession<'_>, database: Database, expect_payload: bool) {
    let payload = catch_unwind(AssertUnwindSafe(|| session.run(database)))
        .expect_err("the armed crash did not fire");
    if expect_payload {
        assert!(
            payload.downcast_ref::<FaultCrash>().is_some(),
            "crash unwound with an unexpected payload"
        );
    }
}

/// Recovers after a simulated crash: from the snapshot if one was
/// written, from scratch if the crash predated the first autosave.
fn recover(session: &ChaseSession<'_>, path: &Path, parsed: &ParsedProgram) -> ChaseOutcome {
    if path.exists() {
        session.resume_from_path(path).unwrap()
    } else {
        session.run(db(parsed)).unwrap()
    }
}

#[test]
fn crash_at_every_round_boundary_resumes_identically() {
    let (parsed, expected, rounds) = reference();
    assert!(
        rounds >= 4,
        "scenario too shallow to exercise round crashes"
    );
    for threads in THREADS {
        for n in 1..=rounds {
            let path = tmp(&format!("round-{threads}-{n}.ckpt"));
            let _ = std::fs::remove_file(&path);
            let session = ChaseSession::new(&parsed.program).with_config(
                ChaseConfig::default()
                    .with_threads(threads)
                    .with_autosave(AutosavePolicy::new(&path).every_rounds(1)),
            );
            let _armed = arm(FaultPlan::new().crash_at("chase.round", n));
            expect_crash(&session, db(&parsed), true);
            let recovered = recover(&session, &path, &parsed);
            assert_eq!(
                fingerprint(&recovered),
                expected,
                "divergence after a crash at round {n} with {threads} threads"
            );
        }
    }
}

#[test]
fn crash_at_intra_round_safe_points_resumes_identically() {
    let (parsed, expected, _) = reference();
    for threads in THREADS {
        for (point, on_main_thread) in [("chase.commit_rule", true), ("chase.match_chunk", false)] {
            for n in [1u64, 3, 7] {
                let path = tmp(&format!("intra-{threads}-{n}.ckpt"));
                let _ = std::fs::remove_file(&path);
                let session = ChaseSession::new(&parsed.program).with_config(
                    ChaseConfig::default()
                        .with_threads(threads)
                        .with_autosave(AutosavePolicy::new(&path).every_rounds(1)),
                );
                let _armed = arm(FaultPlan::new().crash_at(point, n));
                expect_crash(&session, db(&parsed), on_main_thread || threads == 1);
                let recovered = recover(&session, &path, &parsed);
                assert_eq!(
                    fingerprint(&recovered),
                    expected,
                    "divergence after a crash at {point} hit {n} with {threads} threads"
                );
            }
        }
    }
}

#[test]
fn crash_during_checkpoint_commit_preserves_the_previous_snapshot() {
    let (parsed, expected, _) = reference();
    let path = tmp("commit-crash.ckpt");
    let _ = std::fs::remove_file(&path);
    let session = ChaseSession::new(&parsed.program).with_config(
        ChaseConfig::default()
            .with_threads(2)
            .with_autosave(AutosavePolicy::new(&path).every_rounds(1)),
    );
    // The second autosave dies after fsyncing its temp file but before
    // the atomic rename: the snapshot of round 1 must still be intact.
    let _armed = arm(FaultPlan::new().crash_at("checkpoint.commit", 2));
    expect_crash(&session, db(&parsed), true);
    assert!(path.exists(), "the round-1 snapshot should have survived");
    let recovered = session.resume_from_path(&path).unwrap();
    assert_eq!(fingerprint(&recovered), expected);
}

#[test]
fn autosave_io_failure_returns_a_resumable_partial() {
    let (parsed, expected, _) = reference();
    let path = tmp("io-failure.ckpt");
    let _ = std::fs::remove_file(&path);
    let session = ChaseSession::new(&parsed.program).with_config(
        ChaseConfig::default()
            .with_threads(2)
            .with_autosave(AutosavePolicy::new(&path).every_rounds(1)),
    );
    let _armed = arm(FaultPlan::new().io_error_at("checkpoint.write", 1));
    match session.run(db(&parsed)) {
        Err(ChaseError::Checkpoint {
            source: CheckpointError::Io(_),
            partial: Some(partial),
        }) => {
            assert!(partial.is_partial());
            assert_eq!(partial.report.termination, Termination::Suspended);
            let out = session.resume(*partial).unwrap();
            assert_eq!(fingerprint(&out), expected);
        }
        other => panic!("expected ChaseError::Checkpoint with a partial, got {other:?}"),
    }
}

#[test]
fn worker_panic_is_isolated_and_resumable() {
    let (parsed, expected, _) = reference();
    for threads in THREADS {
        for n in [1u64, 4] {
            let path = tmp(&format!("panic-{threads}-{n}.ckpt"));
            let _ = std::fs::remove_file(&path);
            let session = ChaseSession::new(&parsed.program).with_config(
                ChaseConfig::default()
                    .with_threads(threads)
                    // Trip-save only: the snapshot on disk is the one
                    // written in reaction to the panic.
                    .with_autosave(AutosavePolicy::new(&path)),
            );
            let _armed = arm(FaultPlan::new().panic_at("chase.match_chunk", n));
            match session.run(db(&parsed)) {
                Err(ChaseError::WorkerPanic {
                    rule,
                    message,
                    partial,
                }) => {
                    assert!(!rule.is_empty(), "the panic should name a rule");
                    assert!(
                        message.contains("injected panic"),
                        "unexpected panic message: {message}"
                    );
                    assert!(partial.is_partial());
                    // In-memory continuation of the carried partial.
                    let out = session.resume(*partial).unwrap();
                    assert_eq!(
                        fingerprint(&out),
                        expected,
                        "in-memory resume diverged at {threads} threads, hit {n}"
                    );
                    // And the panic also trip-saved a resumable snapshot.
                    let out = session.resume_from_path(&path).unwrap();
                    assert_eq!(
                        fingerprint(&out),
                        expected,
                        "on-disk resume diverged at {threads} threads, hit {n}"
                    );
                }
                other => panic!("expected ChaseError::WorkerPanic, got {other:?}"),
            }
        }
    }
}

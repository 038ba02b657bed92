//! The durability contract on real finkg workloads: a budget-tripped
//! chase checkpointed to disk and resumed from the file must reach a
//! state bitwise identical to the uninterrupted run, at any thread
//! count; ditto a run interrupted by its own autosave policy, whose
//! resumed outcome must also explain every goal fact exactly as the
//! uninterrupted run does. No fault injection here — this is the tier-1
//! crash-recovery path.

use explain::{Explainer, ProgramArtifacts};
use std::path::PathBuf;
use std::sync::Arc;
use vadalog::prelude::*;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("checkpoint_resume");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The full structural fingerprint of an outcome (facts in id order with
/// activity, derivations in recording order, rounds, violations):
/// equality means the outcomes are interchangeable downstream.
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

#[test]
fn tripped_chase_checkpointed_to_disk_resumes_identically() {
    let program = finkg::apps::control::program();
    let db = finkg::random_ownership(60, 3, 7);
    let reference = ChaseSession::new(&program)
        .with_threads(1)
        .run(db.clone())
        .expect("uninterrupted chase");
    let expected = fingerprint(&reference);
    let mut tripped = 0usize;
    for threads in [1usize, 2, 8] {
        for budget in [80u64, 150, 400] {
            let session = ChaseSession::new(&program)
                .with_threads(threads)
                .with_guard(RunGuard::new().with_max_facts(budget));
            let out = match session.run(db.clone()) {
                Err(ChaseError::ResourceExhausted { partial, .. }) => {
                    tripped += 1;
                    // Through the disk: snapshot the partial, drop it,
                    // recover from the file alone.
                    let path = tmp(&format!("trip-{threads}-{budget}.ckpt"));
                    session.checkpoint_to(&partial, &path).unwrap();
                    drop(partial);
                    // Recover without the tripping guard (the budget is
                    // not part of the snapshot fingerprint).
                    ChaseSession::new(&program)
                        .with_threads(threads)
                        .resume_from_path(&path)
                        .expect("resume from disk")
                }
                Ok(out) => out,
                Err(e) => panic!("unexpected chase error: {e}"),
            };
            assert_eq!(
                fingerprint(&out),
                expected,
                "disk-resumed outcome diverged at {threads} threads, budget {budget}"
            );
        }
    }
    assert!(tripped > 0, "no budget ever tripped; tighten the sweep");
}

#[test]
fn guard_trip_autosaves_a_resumable_snapshot() {
    let program = finkg::apps::control::program();
    let db = finkg::random_ownership(60, 3, 7);
    let reference = ChaseSession::new(&program)
        .with_threads(1)
        .run(db.clone())
        .expect("uninterrupted chase");
    let expected = fingerprint(&reference);
    let path = tmp("guard-trip.ckpt");
    let session = ChaseSession::new(&program).with_config(
        ChaseConfig::default()
            .with_threads(2)
            .with_guard(RunGuard::new().with_max_facts(150))
            .with_autosave(AutosavePolicy::new(&path)),
    );
    let err = session.run(db.clone()).expect_err("budget should trip");
    let partial = match err {
        ChaseError::ResourceExhausted { partial, .. } => partial,
        e => panic!("unexpected chase error: {e}"),
    };
    assert_eq!(partial.report.autosaves, 1);
    assert!(
        path.exists(),
        "the guard trip should have written a snapshot"
    );
    let out = ChaseSession::new(&program)
        .with_threads(2)
        .resume_from_path(&path)
        .expect("resume from disk");
    assert_eq!(fingerprint(&out), expected);

    // Explanations over the restored outcome match the uninterrupted run.
    let artifacts = ProgramArtifacts::builder(program, finkg::apps::control::GOAL)
        .with_glossary(&finkg::apps::control::glossary())
        .build_cached()
        .expect("artifacts");
    let texts = |out: ChaseOutcome| -> Vec<String> {
        Explainer::for_snapshot(Arc::clone(&artifacts), out)
            .report()
            .expect("report")
            .into_iter()
            .map(|e| e.text)
            .collect()
    };
    let restored = texts(out);
    assert!(!restored.is_empty(), "no goal fact to explain");
    assert_eq!(restored, texts(reference));
}

#[test]
fn periodic_autosaves_leave_a_resumable_snapshot_trail() {
    let program = finkg::apps::control::program();
    let db = finkg::random_ownership(60, 3, 7);
    let reference = ChaseSession::new(&program)
        .with_threads(1)
        .run(db.clone())
        .expect("uninterrupted chase");
    let expected = fingerprint(&reference);
    let path = tmp("periodic.ckpt");
    let session = ChaseSession::new(&program).with_config(
        ChaseConfig::default()
            .with_threads(2)
            .with_autosave(AutosavePolicy::new(&path).every_rounds(1)),
    );
    let out = session.run(db.clone()).expect("chase with autosaves");
    assert!(out.report.autosaves > 0, "no periodic autosave ever fired");
    // The run completed, so the last snapshot is a mid-run state the
    // session must still be able to carry to the same fixpoint.
    let resumed = session.resume_from_path(&path).expect("resume from disk");
    assert_eq!(fingerprint(&resumed), expected);
    // And its final state checkpoints and reloads as a completed run.
    let done = tmp("completed.ckpt");
    session.checkpoint_to(&out, &done).unwrap();
    let reloaded = session.resume_from_path(&done).expect("reload completed");
    assert!(!reloaded.is_partial());
    assert_eq!(fingerprint(&reloaded), fingerprint(&out));
}

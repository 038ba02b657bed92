//! The incremental-maintenance contract on real finkg workloads: a live
//! outcome maintained through random add/retract sequences with
//! `ChaseSession::apply_delta` must stay bitwise identical to a
//! from-scratch chase over the updated EDB — facts and their ids,
//! activity, extensional marks, every derivation field — at any thread
//! count, across retract-then-readd round trips, and across a
//! checkpoint/resume in the middle of the sequence. Aggregate programs
//! must reach the same state through the full-rechase fallback.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;
use vadalog::prelude::*;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("incremental");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A binding row rendered with sorted keys, every (variable, value) pair
/// included.
fn render_bindings(b: &Row) -> String {
    let mut entries: Vec<(String, String)> = b
        .iter()
        .map(|(k, v)| (format!("{k}"), format!("{v:?}")))
        .collect();
    entries.sort();
    format!("{entries:?}")
}

/// The full structural fingerprint the determinism contract covers:
/// facts in id order with activity and extensional marks, every
/// derivation field, rounds, derived-fact count and violations.
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

/// From-scratch reference: chases `edb` (in the given insertion order)
/// single-threaded and returns its fingerprint.
fn scratch(program: &Program, edb: &[Fact]) -> String {
    let db: Database = edb.iter().cloned().collect();
    let out = ChaseSession::new(program).with_threads(1).run(db).unwrap();
    structural(&out)
}

/// One randomly drawn delta over the sanctions EDB, mirrored into `edb`
/// the way the engine canonicalizes it: retractions remove the fact in
/// place (surviving facts keep their id order), additions append.
fn random_delta(rng: &mut StdRng, edb: &mut Vec<Fact>, n: usize) -> Delta {
    let mut delta = Delta::new();
    let ops = rng.random_range(1..=4usize);
    for _ in 0..ops {
        if rng.random_bool(0.4) && !edb.is_empty() {
            let victim = edb.remove(rng.random_range(0..edb.len()));
            delta = delta.retract(victim);
        } else if rng.random_bool(0.5) {
            let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
            let w = rng.random_range(1..=9) as f64 / 10.0;
            let fact = Fact::new(
                "own",
                vec![
                    format!("C{i}").as_str().into(),
                    format!("C{j}").as_str().into(),
                    w.into(),
                ],
            );
            if !edb.contains(&fact) {
                edb.push(fact.clone());
                delta = delta.add(fact);
            }
        } else {
            let i = rng.random_range(0..n);
            let fact = Fact::new("sanctioned", vec![format!("C{i}").as_str().into()]);
            if !edb.contains(&fact) {
                edb.push(fact.clone());
                delta = delta.add(fact);
            }
        }
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random add/retract sequences over the sanctions app keep the
    /// maintained outcome bitwise identical to a from-scratch chase on
    /// the updated EDB, at 1, 2 and 8 threads, after every step.
    #[test]
    fn maintained_outcomes_match_scratch_at_any_thread_count(
        n in 8usize..24,
        seed in 0u64..500,
        steps in 1usize..4,
    ) {
        let program = finkg::apps::sanctions::program();
        let base: Vec<Fact> = finkg::random_sanctions(n, 3, 7, seed)
            .iter()
            .map(|(_, f)| f.clone())
            .collect();

        // The same delta sequence is drawn once and replayed per thread
        // count, so all runs see identical inputs.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD31A);
        let mut edb = base.clone();
        let script: Vec<(Delta, Vec<Fact>)> = (0..steps)
            .map(|_| {
                let delta = random_delta(&mut rng, &mut edb, n);
                (delta, edb.clone())
            })
            .collect();

        let mut per_thread: Vec<Vec<(String, String)>> = Vec::new();
        for threads in [1usize, 2, 8] {
            let mut session = ChaseSession::new(&program).with_threads(threads);
            let out = session.run(base.iter().cloned().collect()).unwrap();
            session.load(out);
            let mut states = Vec::new();
            for (delta, _) in &script {
                let applied = session.apply_delta(delta.clone()).unwrap();
                prop_assert_eq!(applied.strategy, DeltaStrategy::Incremental);
                states.push((
                    structural(&applied.outcome),
                    applied.outcome.report.count_fingerprint(),
                ));
                session.load(Arc::clone(&applied.outcome));
            }
            per_thread.push(states);
        }

        // Single-threaded maintenance equals the from-scratch reference...
        for (step, (_, edb_after)) in script.iter().enumerate() {
            prop_assert_eq!(
                &per_thread[0][step].0,
                &scratch(&program, edb_after),
                "maintained state diverged from scratch at step {}", step
            );
        }
        // ...and 2/8 threads reproduce it bitwise, telemetry included.
        for t in 1..per_thread.len() {
            prop_assert_eq!(&per_thread[t], &per_thread[0]);
        }
    }
}

#[test]
fn retract_then_readd_across_deltas_matches_scratch() {
    let program = finkg::apps::sanctions::program();
    let base: Vec<Fact> = finkg::random_sanctions(16, 3, 5, 11)
        .iter()
        .map(|(_, f)| f.clone())
        .collect();
    let victim = base
        .iter()
        .find(|f| f.predicate == Symbol::new("sanctioned"))
        .unwrap()
        .clone();

    let mut session = ChaseSession::new(&program);
    let out = session.run(base.iter().cloned().collect()).unwrap();
    session.load(out);

    let removed = session
        .apply_delta(Delta::new().retract(victim.clone()))
        .unwrap();
    session.load(Arc::clone(&removed.outcome));
    let readded = session
        .apply_delta(Delta::new().add(victim.clone()))
        .unwrap();

    // The readded designation lands at the end of the EDB order.
    let mut edb: Vec<Fact> = base.into_iter().filter(|f| *f != victim).collect();
    edb.push(victim);
    assert_eq!(structural(&readded.outcome), scratch(&program, &edb));
}

#[test]
fn checkpoint_resume_mid_sequence_continues_identically() {
    let program = finkg::apps::sanctions::program();
    let base: Vec<Fact> = finkg::random_sanctions(14, 3, 6, 3)
        .iter()
        .map(|(_, f)| f.clone())
        .collect();
    let mut rng = StdRng::seed_from_u64(99);
    let mut edb = base.clone();
    let first = random_delta(&mut rng, &mut edb, 14);
    let second = random_delta(&mut rng, &mut edb, 14);

    // The uninterrupted session applies both deltas in memory.
    let mut session = ChaseSession::new(&program);
    let out = session.run(base.iter().cloned().collect()).unwrap();
    session.load(out);
    let mid = session.apply_delta(first.clone()).unwrap();
    session.load(Arc::clone(&mid.outcome));
    let expected = session.apply_delta(second.clone()).unwrap();

    // The interrupted one goes through the disk between the deltas.
    let path = tmp("mid_sequence.ckpt");
    session.checkpoint_to(&mid.outcome, &path).unwrap();
    let mut resumed_session = ChaseSession::new(&program);
    let restored = resumed_session.resume_from_path(&path).unwrap();
    resumed_session.load(restored);
    let resumed = resumed_session.apply_delta(second).unwrap();

    assert_eq!(structural(&expected.outcome), structural(&resumed.outcome));
    assert_eq!(structural(&resumed.outcome), scratch(&program, &edb));
}

#[test]
fn aggregate_apps_fall_back_to_full_rechase_and_still_match() {
    let program = finkg::apps::control::program();
    let base: Vec<Fact> = finkg::random_ownership(20, 3, 21)
        .iter()
        .map(|(_, f)| f.clone())
        .collect();
    let mut session = ChaseSession::new(&program);
    let out = session.run(base.iter().cloned().collect()).unwrap();
    session.load(out);

    let added = Fact::new("own", vec!["C0".into(), "C19".into(), 0.9.into()]);
    let mut edb = base.clone();
    edb.push(added.clone());
    let applied = session.apply_delta(Delta::new().add(added)).unwrap();
    assert_eq!(applied.strategy, DeltaStrategy::FullRechase);
    assert_eq!(structural(&applied.outcome), scratch(&program, &edb));
}

//! Synthetic financial data generators.
//!
//! Real supervisory data (individual shares and loans) is confidential;
//! like the paper's own evaluation, every experiment here runs on
//! artificial data. Two families of generators are provided:
//!
//! * *bundles* — deterministic constructions that embed `count`
//!   independent proofs of an exact chase-step length (the workloads of
//!   Fig. 17 and Fig. 18: "ten distinct sampled proofs with equal
//!   length");
//! * *random networks* — seeded ownership/debt graphs for throughput
//!   benchmarks and property tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vadalog::{ChaseOutcome, Database, DerivationPolicy, Fact, FactId, Symbol};

/// A generated workload: the extensional database plus the target facts
/// whose proofs have the requested length.
#[derive(Clone, Debug)]
pub struct Bundle {
    /// The extensional database.
    pub database: Database,
    /// The facts to explain (one per embedded proof).
    pub targets: Vec<Fact>,
}

/// Builds `count` disjoint ownership chains, each yielding a proof of
/// exactly `steps` chase steps for `control(root_i, leaf_i)`.
///
/// A chain of `k` majority links produces τ = [σ1, σ3, ..., σ3] of length
/// `k`. No `company` facts are emitted so the self-control rule σ2 stays
/// silent and proof lengths are exact.
pub fn control_bundle(steps: usize, count: usize, seed: u64) -> Bundle {
    assert!(steps >= 1, "a proof needs at least one chase step");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0F_FEE);
    let mut db = Database::new();
    let mut targets = Vec::with_capacity(count);
    for c in 0..count {
        let name = |i: usize| format!("E{c}_{i}");
        for i in 0..steps {
            let share = rng.random_range(0.51..0.99f64);
            let share = (share * 100.0).round() / 100.0;
            db.add(
                "own",
                &[
                    name(i).as_str().into(),
                    name(i + 1).as_str().into(),
                    share.into(),
                ],
            );
        }
        targets.push(Fact::new(
            "control",
            vec![name(0).as_str().into(), name(steps).as_str().into()],
        ));
    }
    Bundle {
        database: db,
        targets,
    }
}

/// Like [`control_bundle`] but every link is held jointly by the parent
/// and a majority-owned intermediary (0.3 + 0.3), exercising the dashed
/// aggregation variants. Each hop costs two chase steps, plus self-control
/// side steps via `company` facts.
pub fn control_bundle_aggregated(hops: usize, count: usize, seed: u64) -> Bundle {
    assert!(hops >= 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA66);
    let mut db = Database::new();
    let mut targets = Vec::with_capacity(count);
    for c in 0..count {
        let name = |i: usize| format!("J{c}_{i}");
        let helper = |i: usize| format!("H{c}_{i}");
        db.add("company", &[name(0).as_str().into()]);
        for i in 0..hops {
            let s1 = (rng.random_range(0.26..0.45f64) * 100.0).round() / 100.0;
            let s2 = (rng.random_range((0.51 - s1).max(0.06)..0.45) * 100.0).round() / 100.0;
            db.add("company", &[name(i + 1).as_str().into()]);
            db.add(
                "own",
                &[
                    name(i).as_str().into(),
                    helper(i + 1).as_str().into(),
                    0.9.into(),
                ],
            );
            db.add(
                "own",
                &[
                    helper(i + 1).as_str().into(),
                    name(i + 1).as_str().into(),
                    s1.into(),
                ],
            );
            db.add(
                "own",
                &[
                    name(i).as_str().into(),
                    name(i + 1).as_str().into(),
                    s2.into(),
                ],
            );
        }
        targets.push(Fact::new(
            "control",
            vec![name(0).as_str().into(), name(hops).as_str().into()],
        ));
    }
    Bundle {
        database: db,
        targets,
    }
}

/// Builds `count` disjoint default cascades for the two-channel stress
/// test, alternating channels along each chain.
///
/// With cascade depth `d`, the proof of `default(e_d)` has `2d + 1` chase
/// steps and the proof of `risk(e_d, ..)` has `2d` — odd `steps` target a
/// default, even `steps` target a risk fact.
pub fn stress_bundle(steps: usize, count: usize, seed: u64) -> Bundle {
    assert!(steps >= 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57E55);
    let mut db = Database::new();
    let mut targets = Vec::with_capacity(count);
    let default_target = steps % 2 == 1;
    let depth = if default_target {
        (steps - 1) / 2
    } else {
        steps / 2
    };
    for c in 0..count {
        let name = |i: usize| format!("S{c}_{i}");
        let cap0 = rng.random_range(2..10i64);
        db.add("has_capital", &[name(0).as_str().into(), cap0.into()]);
        db.add(
            "shock",
            &[
                name(0).as_str().into(),
                (cap0 + rng.random_range(1..10i64)).into(),
            ],
        );
        let chain_end = depth.max(1);
        let mut exposures: Vec<(String, i64)> = Vec::new();
        for i in 0..chain_end {
            let cap = rng.random_range(2..10i64);
            let debt = cap + rng.random_range(1..8i64);
            let channel = if i % 2 == 0 {
                "long_term_debts"
            } else {
                "short_term_debts"
            };
            db.add(
                channel,
                &[
                    name(i).as_str().into(),
                    name(i + 1).as_str().into(),
                    debt.into(),
                ],
            );
            db.add("has_capital", &[name(i + 1).as_str().into(), cap.into()]);
            exposures.push((name(i + 1), debt));
        }
        if default_target {
            targets.push(Fact::new("default", vec![name(depth).as_str().into()]));
        } else {
            let (entity, debt) = exposures[depth - 1].clone();
            let channel = if (depth - 1) % 2 == 0 {
                "long"
            } else {
                "short"
            };
            targets.push(Fact::new(
                "risk",
                vec![entity.as_str().into(), debt.into(), channel.into()],
            ));
        }
    }
    Bundle {
        database: db,
        targets,
    }
}

/// A seeded random ownership network: `n` companies, each with up to
/// `max_out` outgoing stakes towards higher-numbered companies (acyclic,
/// so control chains of varied depth emerge).
pub fn random_ownership(n: usize, max_out: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let name = |i: usize| format!("C{i}");
    for i in 0..n {
        db.add("company", &[name(i).as_str().into()]);
    }
    for i in 0..n.saturating_sub(1) {
        let out = rng.random_range(0..=max_out);
        for _ in 0..out {
            let j = rng.random_range(i + 1..n);
            let share = (rng.random_range(0.05..0.95f64) * 100.0).round() / 100.0;
            db.add(
                "own",
                &[
                    name(i).as_str().into(),
                    name(j).as_str().into(),
                    share.into(),
                ],
            );
        }
    }
    db
}

/// A seeded random sanctions-screening workload: the
/// [`random_ownership`] network plus a `sanctioned` designation on every
/// `every`-th company, for the negation-heavy sanctions application.
pub fn random_sanctions(n: usize, max_out: usize, every: usize, seed: u64) -> Database {
    assert!(every >= 1, "a sanctions workload needs a designation rate");
    let mut db = random_ownership(n, max_out, seed);
    for i in (0..n).step_by(every) {
        db.add("sanctioned", &[format!("C{i}").as_str().into()]);
    }
    db
}

/// A seeded random debt network with `shocks` initial shocks, for chase
/// throughput and robustness tests.
pub fn random_debt_network(n: usize, max_out: usize, shocks: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let name = |i: usize| format!("B{i}");
    for i in 0..n {
        let cap = rng.random_range(1..20i64);
        db.add("has_capital", &[name(i).as_str().into(), cap.into()]);
    }
    for i in 0..n.saturating_sub(1) {
        let out = rng.random_range(0..=max_out);
        for _ in 0..out {
            let j = rng.random_range(i + 1..n);
            let v = rng.random_range(1..15i64);
            let channel = if rng.random_bool(0.5) {
                "long_term_debts"
            } else {
                "short_term_debts"
            };
            db.add(
                channel,
                &[name(i).as_str().into(), name(j).as_str().into(), v.into()],
            );
        }
    }
    for s in 0..shocks.min(n) {
        db.add(
            "shock",
            &[name(s).as_str().into(), rng.random_range(10..40i64).into()],
        );
    }
    db
}

/// Derived facts of `goal` whose (richest-policy) proof has exactly
/// `steps` chase steps.
pub fn proofs_with_steps(outcome: &ChaseOutcome, goal: &str, steps: usize) -> Vec<FactId> {
    let goal = Symbol::new(goal);
    outcome
        .database
        .facts_of(goal)
        .iter()
        .copied()
        .filter(|&id| outcome.graph.is_derived(id))
        .filter(|&id| {
            let proof = outcome.graph.proof(id, DerivationPolicy::Richest);
            proof.linearize(&outcome.graph).len() == steps
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{control, stress};
    use vadalog::ChaseSession;

    #[test]
    fn control_bundle_has_exact_proof_lengths() {
        for steps in [1usize, 3, 6, 12] {
            let bundle = control_bundle(steps, 3, 42);
            let out = ChaseSession::new(&control::program())
                .run(bundle.database)
                .unwrap();
            for target in &bundle.targets {
                let id = out
                    .lookup(target)
                    .unwrap_or_else(|| panic!("{target} derived"));
                let tau = out
                    .graph
                    .proof(id, DerivationPolicy::Richest)
                    .linearize(&out.graph);
                assert_eq!(tau.len(), steps, "target {target}");
            }
        }
    }

    /// Each chain of `control_bundle(21, k, s)` derives 231 `control`
    /// facts, one per match: 21 `σ1` matches on its links and 210 `σ3`
    /// matches `control(x, z), own(z, y)` with `x < z < y`. Semi-naive
    /// evaluation of the aggregate `σ3` enumerates each of them once,
    /// instead of re-matching every known `control` fact each round.
    #[test]
    fn control_bundle_chase_enumerates_each_match_once() {
        for (count, seed) in [(1usize, 1u64), (3, 2), (5, 1000003)] {
            let bundle = control_bundle(21, count, seed);
            let out = ChaseSession::new(&control::program())
                .with_config(vadalog::ChaseConfig::default().with_positional_index(true))
                .run(bundle.database)
                .unwrap();
            assert_eq!(out.report.total_matches(), 231 * count as u64);
            assert_eq!(out.derived_facts, 231 * count);
        }
    }

    #[test]
    fn aggregated_control_bundle_derives_targets() {
        let bundle = control_bundle_aggregated(3, 2, 7);
        let out = ChaseSession::new(&control::program())
            .run(bundle.database)
            .unwrap();
        for target in &bundle.targets {
            assert!(out.lookup(target).is_some(), "{target} not derived");
        }
    }

    #[test]
    fn stress_bundle_odd_steps_target_defaults() {
        for steps in [1usize, 3, 5, 9] {
            let bundle = stress_bundle(steps, 4, 11);
            let out = ChaseSession::new(&stress::program())
                .run(bundle.database)
                .unwrap();
            for target in &bundle.targets {
                let id = out
                    .lookup(target)
                    .unwrap_or_else(|| panic!("{target} derived"));
                let tau = out
                    .graph
                    .proof(id, DerivationPolicy::Richest)
                    .linearize(&out.graph);
                assert_eq!(tau.len(), steps, "target {target}");
            }
        }
    }

    #[test]
    fn stress_bundle_even_steps_target_risks() {
        for steps in [2usize, 4, 8] {
            let bundle = stress_bundle(steps, 3, 13);
            let out = ChaseSession::new(&stress::program())
                .run(bundle.database)
                .unwrap();
            for target in &bundle.targets {
                assert_eq!(target.predicate, Symbol::new("risk"));
                let id = out
                    .lookup(target)
                    .unwrap_or_else(|| panic!("{target} derived"));
                let tau = out
                    .graph
                    .proof(id, DerivationPolicy::Richest)
                    .linearize(&out.graph);
                assert_eq!(tau.len(), steps, "target {target}");
            }
        }
    }

    #[test]
    fn random_networks_are_deterministic_per_seed() {
        let a = random_ownership(30, 3, 99);
        let b = random_ownership(30, 3, 99);
        assert_eq!(a.len(), b.len());
        let c = random_ownership(30, 3, 100);
        // Overwhelmingly likely to differ.
        assert!(a.len() != c.len() || a.iter().zip(c.iter()).any(|((_, x), (_, y))| x != y));
    }

    #[test]
    fn random_debt_network_chases_to_fixpoint() {
        let db = random_debt_network(40, 3, 3, 5);
        let out = ChaseSession::new(&stress::program()).run(db).unwrap();
        // Some defaults should cascade from three shocks.
        assert!(!out.facts_of("default").is_empty());
    }

    #[test]
    fn proofs_with_steps_filters_exactly() {
        let bundle = control_bundle(4, 2, 1);
        let out = ChaseSession::new(&control::program())
            .run(bundle.database)
            .unwrap();
        let hits = proofs_with_steps(&out, "control", 4);
        assert_eq!(hits.len(), 2);
        assert!(proofs_with_steps(&out, "control", 17).is_empty());
    }
}

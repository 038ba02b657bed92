//! Property-based tests of the finkg crate: workload-generator guarantees
//! and error-archetype detectability over randomized parameters.

use finkg::apps::{control, stress};
use finkg::{inject_error, VizGraph, ALL_ARCHETYPES};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vadalog::ChaseSession;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Control bundles embed proofs of exactly the requested length, for
    /// any seed and count.
    #[test]
    fn control_bundle_lengths_are_exact(
        steps in 1usize..10,
        count in 1usize..4,
        seed in 0u64..1000,
    ) {
        let bundle = finkg::control_bundle(steps, count, seed);
        let out = ChaseSession::new(&control::program()).run(bundle.database).unwrap();
        prop_assert_eq!(bundle.targets.len(), count);
        for target in &bundle.targets {
            let id = out.lookup(target).expect("target derived");
            let tau = out
                .graph
                .proof(id)
                .linearize(&out.graph);
            prop_assert_eq!(tau.len(), steps);
        }
    }

    /// Stress bundles embed proofs of exactly the requested length, both
    /// parities (odd = default target, even = risk target).
    #[test]
    fn stress_bundle_lengths_are_exact(
        steps in 1usize..9,
        seed in 0u64..1000,
    ) {
        let bundle = finkg::stress_bundle(steps, 2, seed);
        let out = ChaseSession::new(&stress::program()).run(bundle.database).unwrap();
        for target in &bundle.targets {
            let id = out.lookup(target).expect("target derived");
            let tau = out
                .graph
                .proof(id)
                .linearize(&out.graph);
            prop_assert_eq!(tau.len(), steps);
        }
    }

    /// Every applicable error injection produces a structurally different
    /// graph (a distractor is never accidentally identical).
    #[test]
    fn injections_always_differ(seed in 0u64..500) {
        let out = ChaseSession::new(&finkg::apps::simple_stress::program())
            .run(finkg::apps::simple_stress::figure_8_database())
            .unwrap();
        let id = out
            .lookup(&vadalog::Fact::new("default", vec!["C".into()]))
            .unwrap();
        let graph = VizGraph::from_proof(&out, id);
        let mut rng = StdRng::seed_from_u64(seed);
        for archetype in ALL_ARCHETYPES {
            if let Some(bad) = inject_error(&graph, archetype, &mut rng) {
                prop_assert!(!bad.same_structure(&graph), "{:?}", archetype);
            }
        }
    }

    /// Random networks chase to fixpoint without errors for any seed.
    #[test]
    fn random_networks_always_terminate(
        n in 5usize..60,
        out_deg in 0usize..5,
        seed in 0u64..500,
    ) {
        let own = finkg::random_ownership(n, out_deg, seed);
        prop_assert!(ChaseSession::new(&control::program()).run(own).is_ok());
        let debt = finkg::random_debt_network(n, out_deg, 2, seed);
        prop_assert!(ChaseSession::new(&stress::program()).run(debt).is_ok());
    }

    /// Ownership shares generated for direct-majority chains are always
    /// majorities, so chain targets are always derived.
    #[test]
    fn chain_links_are_majorities(steps in 1usize..8, seed in 0u64..200) {
        let bundle = finkg::control_bundle(steps, 1, seed);
        for (_, fact) in bundle.database.iter() {
            if fact.predicate == vadalog::Symbol::new("own") {
                let share = fact.values[2].as_f64().unwrap();
                prop_assert!(share > 0.5 && share < 1.0, "share {share}");
            }
        }
    }

    /// Run telemetry is part of the determinism contract: every counter
    /// in the RunReport (matches, commits, duplicates, probes, scans,
    /// peaks — everything except wall-clock timings) agrees between 1, 2
    /// and 8 worker threads on random workloads.
    #[test]
    fn run_reports_are_thread_invariant(
        n in 5usize..40,
        out_deg in 0usize..4,
        seed in 0u64..500,
    ) {
        let program = control::program();
        let db = finkg::random_ownership(n, out_deg, seed);
        let reference = ChaseSession::new(&program)
            .with_threads(1)
            .run(db.clone())
            .unwrap();
        for threads in [2usize, 8] {
            let out = ChaseSession::new(&program)
                .with_threads(threads)
                .run(db.clone())
                .unwrap();
            prop_assert_eq!(
                out.report.count_fingerprint(),
                reference.report.count_fingerprint(),
                "telemetry diverged at {} threads", threads
            );
        }
    }
}

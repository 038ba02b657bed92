//! Shared helpers of the study simulations.

use explain::DomainGlossary;
use vadalog::{ChaseOutcome, FactId, Value};

/// The constants used in the proof of `fact`, rendered exactly as the
/// verbalizer renders them (same glossary formats). These are the items
/// whose presence the completeness experiment (Sec. 6.3) checks in the
/// output text.
pub fn proof_constants(
    outcome: &ChaseOutcome,
    fact: FactId,
    glossary: &DomainGlossary,
) -> Vec<String> {
    let proof = outcome.graph.proof(fact);
    let mut out: Vec<String> = Vec::new();
    for id in proof.facts() {
        let f = outcome.database.fact(id);
        for (pos, v) in f.values.iter().enumerate() {
            if matches!(v, Value::Null(_)) {
                continue;
            }
            let rendered = glossary.format_of(f.predicate, pos).render(v);
            if !out.contains(&rendered) {
                out.push(rendered);
            }
        }
    }
    out
}

/// Splits `text` into sentences (shared with `llm-sim`'s splitter).
pub fn sentences(text: &str) -> Vec<String> {
    llm_sim::split_sentences(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use finkg::apps::simple_stress;
    use vadalog::{ChaseSession, Fact};

    #[test]
    fn constants_cover_the_figure_8_proof() {
        let out = ChaseSession::new(&simple_stress::program())
            .run(simple_stress::figure_8_database())
            .unwrap();
        let id = out.lookup(&Fact::new("default", vec!["C".into()])).unwrap();
        let cs = proof_constants(&out, id, &simple_stress::glossary());
        for needle in [
            "A",
            "B",
            "C",
            "6M euros",
            "5M euros",
            "7M euros",
            "11M euros",
        ] {
            assert!(cs.contains(&needle.to_string()), "missing {needle}: {cs:?}");
        }
    }

    #[test]
    fn constants_are_deduplicated() {
        let out = ChaseSession::new(&simple_stress::program())
            .run(simple_stress::figure_8_database())
            .unwrap();
        let id = out.lookup(&Fact::new("default", vec!["C".into()])).unwrap();
        let cs = proof_constants(&out, id, &simple_stress::glossary());
        let mut sorted = cs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), cs.len());
    }
}

//! # ekg-explain
//!
//! A from-scratch Rust reproduction of *Template-based Explainable
//! Inference over High-Stakes Financial Knowledge Graphs* (EDBT 2025):
//! natural-language explanations for knowledge derived by rule-based
//! (Datalog/Vadalog-style) Knowledge Graph applications, generated from
//! pre-computed explanation templates instead of shipping instance data to
//! an LLM.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`vadalog`] — the chase-based reasoning engine with fact-level
//!   provenance (language, parser, chase, chase graph, dependency graph);
//! * [`explain`] — the paper's contribution: structural analysis into
//!   reasoning paths, the verbalizer, explanation templates with the
//!   anti-omission check, chase-step-to-template mapping, the cached
//!   per-application artifacts and the `Explainer` query handle;
//! * [`finkg`] — the financial KG applications (company control, stress
//!   tests, close links) with their domain glossaries, plus synthetic data
//!   generators and proof visualizations;
//! * [`llm_sim`] — the deterministic simulated LLM used as the paper's
//!   GPT baseline;
//! * [`stats`] — descriptive statistics, boxplots and the Wilcoxon
//!   signed-rank test;
//! * [`studies`] — the simulated comprehension and expert user studies.
//!
//! ## Quick start
//!
//! ```
//! use ekg_explain::prelude::*;
//!
//! // 1. A knowledge-graph application: rules + data (Example 4.3).
//! let parsed = parse_program(r#"
//!     alpha: shock(f, s), has_capital(f, p1), s > p1 -> default(f).
//!     beta:  default(d), debts(d, c, v), e = sum(v) -> risk(c, e).
//!     gamma: has_capital(c, p2), risk(c, e), p2 < e -> default(c).
//!
//!     shock("A", 6).      has_capital("A", 5).
//!     debts("A", "B", 7). has_capital("B", 2).
//!     debts("B", "C", 2). debts("B", "C", 9).
//!     has_capital("C", 10).
//! "#).unwrap();
//!
//! // 2. Build the explanation artifacts (analysis + templates) once per
//! //    application.
//! let glossary = ekg_explain::finkg::apps::simple_stress::glossary();
//! let artifacts = ProgramArtifacts::builder(parsed.program.clone(), "default")
//!     .with_glossary(&glossary)
//!     .build_cached()
//!     .unwrap();
//!
//! // 3. Reason (chase to fixpoint with provenance).
//! let db: Database = parsed.facts.into_iter().collect();
//! let outcome = ChaseSession::new(&parsed.program).run(db).unwrap();
//!
//! // 4. Answer an explanation query over the outcome.
//! let explainer = Explainer::for_snapshot(artifacts, outcome);
//! let e = explainer.explain(&Fact::new("default", vec!["C".into()])).unwrap();
//! assert!(e.text.contains("11M euros"));
//! ```

#![forbid(unsafe_code)]

pub use explain;
pub use finkg;
pub use llm_sim;
pub use serve;
pub use stats;
pub use studies;
pub use vadalog;

/// One-line import of the most common items across all crates.
pub mod prelude {
    pub use explain::{
        analyze, ArtifactCache, DomainGlossary, ExplainError, Explainer, Explanation,
        GlossaryEntry, PipelineReport, ProgramArtifacts, ReasoningPath, StructuralAnalysis,
        Template, TemplateFlavor, TemplateStyle, ValueFormat,
    };
    pub use llm_sim::{Prompt, SimulatedLlm};
    pub use serve::{ExplainService, HttpServer, ServeConfig, ServeError, SnapshotHandle};
    pub use vadalog::prelude::*;
}

//! # explain
//!
//! Template-based natural-language explanations for Datalog/Vadalog
//! reasoning — the core contribution of *"Template-based Explainable
//! Inference over High-Stakes Financial Knowledge Graphs"* (EDBT 2025).
//!
//! Given a rule program Σ and a goal predicate, the crate:
//!
//! 1. runs a **structural analysis** ([`structural`]) of the dependency
//!    graph D(Σ), pre-distilling every database-independent "reasoning
//!    story" into *simple reasoning paths* Π and *reasoning cycles* Γ,
//!    with *dashed* variants for multi-contributor aggregations
//!    (Sec. 4.1);
//! 2. **verbalizes** each path through a [`glossary::DomainGlossary`]
//!    into an explanation [`template::Template`] whose tokens map back to
//!    rule variables (Sec. 4.2), optionally rewritten by an
//!    [`enhance::Enhancer`] under an automatic anti-omission check
//!    (Sec. 4.4) or reviewed by a human via [`review`];
//! 3. at query time, **maps** the chase steps of a concrete proof onto
//!    templates ([`mapping`]): the simple path instantiating the longest
//!    prefix of the linearized proof τ, reasoning cycles for the rest,
//!    dashed variants exactly where an aggregation folded several
//!    contributors, then substitutes tokens with the constants recorded
//!    in the chase derivations (Sec. 4.3).
//!
//! Steps 1–2 run once per deployed KG application: an
//! [`ArtifactsBuilder`] produces the shared [`ProgramArtifacts`]
//! (memoized by the process-wide [`ArtifactCache`]). Step 3 runs per
//! query through an [`Explainer`], which binds the artifacts to one chase
//! outcome and carries the template flavour, the derivation policy and an
//! optional per-query guard. Explanations provably contain every constant
//! of the proof (side branches are explained recursively, with per-rule
//! fallback templates), which is the paper's completeness guarantee over
//! LLM-generated reports (Sec. 6.3).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifacts;
pub mod dot;
pub mod enhance;
pub mod error;
pub mod glossary;
pub mod mapping;
pub mod review;
pub mod structural;
pub mod template;
pub mod verbalizer;
pub mod whynot;

pub use artifacts::{
    ArtifactCache, ArtifactsBuilder, Explainer, Explanation, PipelineReport, ProgramArtifacts,
    TemplateFlavor,
};
pub use dot::{analysis_dot, reasoning_path_dot};
pub use enhance::{checked_enhance, EnhanceOutcome, Enhancer, IdentityEnhancer};
pub use error::ExplainError;
pub use glossary::{DomainGlossary, GlossaryEntry, GlossaryParseError, Param, ValueFormat};
pub use mapping::{cover, instantiate, step_infos, Cover, PathCover, StepInfo};
pub use review::{export as export_templates, import as import_templates, ReviewReport};
pub use structural::{analyze, PathKind, ReasoningPath, StructuralAnalysis, Supply};
pub use template::{
    generate, single_rule_path, Segment, Template, TemplateStyle, TokenClass, TokenMember,
};
pub use whynot::{why_not, FailureReason, RuleFailure, WhyNot};

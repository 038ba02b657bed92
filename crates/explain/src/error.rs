//! Error types of the explanation pipeline.
//!
//! The error surface mirrors the engine's governed design: resource trips
//! (a deadline or cancellation of an artifact build, see
//! [`ArtifactsBuilder::with_guard`](crate::ArtifactsBuilder::with_guard),
//! or of a query, see [`Explainer::with_guard`](crate::Explainer::with_guard))
//! surface as [`ExplainError::ResourceExhausted`] with the same
//! [`Budget`] vocabulary as
//! [`ChaseError::ResourceExhausted`](vadalog::ChaseError).

use std::fmt;
use vadalog::telemetry::Budget;
use vadalog::{FactId, Symbol};

/// Errors raised while building or applying explanations.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard
/// arm, so future variants are non-breaking.
#[non_exhaustive]
#[derive(Clone, PartialEq, Debug)]
pub enum ExplainError {
    /// The requested goal predicate does not occur in the program.
    UnknownGoal {
        /// The requested predicate.
        goal: Symbol,
    },
    /// The fact to explain is not present in the chase outcome.
    UnknownFact(FactId),
    /// The fact to explain is extensional; there is nothing to explain.
    ExtensionalFact(FactId),
    /// No combination of reasoning paths covers the proof's chase steps
    /// (should not happen for paths produced by the structural analysis of
    /// the same program; indicates a foreign chase graph).
    NoCoveringPath {
        /// Index of the first uncovered chase step.
        at_step: usize,
    },
    /// Path enumeration hit the configured cap before completing.
    PathExplosion {
        /// The configured cap.
        cap: usize,
    },
    /// An enhanced template lost tokens and no fallback was allowed.
    IncompleteTemplate {
        /// The missing token display names.
        missing: Vec<String>,
    },
    /// A pipeline resource budget tripped (deadline or cancellation, see
    /// [`RunGuard`](vadalog::telemetry::RunGuard)); same family as
    /// [`ChaseError::ResourceExhausted`](vadalog::ChaseError).
    ResourceExhausted {
        /// The budget that tripped.
        budget: Budget,
        /// The observed value at the trip point (elapsed milliseconds for
        /// a deadline; 0 for cancellation).
        observed: u64,
    },
}

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainError::UnknownGoal { goal } => {
                write!(f, "goal predicate `{}` not in program", goal)
            }
            ExplainError::UnknownFact(id) => write!(f, "fact {} not in the chase outcome", id),
            ExplainError::ExtensionalFact(id) => {
                write!(f, "fact {} is extensional input, not derived knowledge", id)
            }
            ExplainError::NoCoveringPath { at_step } => {
                write!(f, "no reasoning path covers chase step {}", at_step)
            }
            ExplainError::PathExplosion { cap } => {
                write!(f, "reasoning-path enumeration exceeded the cap of {}", cap)
            }
            ExplainError::IncompleteTemplate { missing } => {
                write!(f, "enhanced template lost tokens: {}", missing.join(", "))
            }
            ExplainError::ResourceExhausted { budget, observed } => match budget {
                Budget::Cancelled => write!(f, "explanation pipeline cancelled"),
                _ => write!(
                    f,
                    "explanation pipeline exceeded its {} (observed {})",
                    budget, observed
                ),
            },
        }
    }
}

impl std::error::Error for ExplainError {}

//! Error types for the engine, the parser and program validation.
//!
//! The engine's run-time error surface is *governed*: resource trips
//! (deadline, cancellation, round/fact/memory budgets) all surface as
//! [`ChaseError::ResourceExhausted`], carrying the tripped
//! [`Budget`], the observed value, and the
//! deterministic partial [`ChaseOutcome`]
//! reached so far — resumable via
//! [`ChaseSession::resume`](crate::engine::ChaseSession::resume).

use crate::checkpoint::CheckpointError;
use crate::engine::ChaseOutcome;
use crate::symbol::Symbol;
use crate::telemetry::Budget;
use crate::value::Value;
use std::fmt;

/// Errors raised while evaluating expressions and conditions.
#[derive(Clone, PartialEq, Debug)]
pub enum EvalError {
    /// A variable referenced by an expression is not bound by the match.
    UnboundVariable(Symbol),
    /// Division by zero (integer or float).
    DivisionByZero,
    /// Arithmetic was applied to a non-numeric operand.
    NonNumericOperand(Value),
    /// Floating-point arithmetic produced `NaN`.
    NanResult,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(v) => write!(f, "unbound variable `{}`", v),
            EvalError::DivisionByZero => write!(f, "division by zero"),
            EvalError::NonNumericOperand(v) => {
                write!(f, "arithmetic on non-numeric operand `{}`", v)
            }
            EvalError::NanResult => write!(f, "arithmetic produced NaN"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Errors raised by program validation (rule safety and well-formedness).
#[derive(Clone, PartialEq, Debug)]
pub enum ProgramError {
    /// A head variable is not bound by the body, an assignment, or an
    /// aggregate, and is not existentially quantifiable (constraint heads).
    UnsafeHeadVariable {
        /// The offending rule label.
        rule: String,
        /// The offending variable.
        var: Symbol,
    },
    /// A condition or assignment uses a variable never bound by body atoms
    /// or earlier assignments.
    UnboundBodyVariable {
        /// The offending rule label.
        rule: String,
        /// The offending variable.
        var: Symbol,
    },
    /// An assignment's target is already bound, by a body atom or an
    /// earlier assignment: a rule variable has one value per match.
    RebindingAssignment {
        /// The offending rule label.
        rule: String,
        /// The assigned variable.
        var: Symbol,
    },
    /// Two rules share the same label.
    DuplicateRuleLabel(String),
    /// A predicate is used with inconsistent arities.
    ArityMismatch {
        /// The predicate.
        predicate: Symbol,
        /// Arity seen first.
        expected: usize,
        /// Conflicting arity.
        found: usize,
    },
    /// A rule aggregates over a variable not bound by its body.
    UnboundAggregateInput {
        /// The offending rule label.
        rule: String,
        /// The aggregated variable.
        var: Symbol,
    },
    /// The program's recursion passes through negation: no stratification
    /// exists.
    NotStratifiable,
    /// A rule body is empty.
    EmptyBody(String),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnsafeHeadVariable { rule, var } => {
                write!(f, "rule `{}`: head variable `{}` is unsafe", rule, var)
            }
            ProgramError::UnboundBodyVariable { rule, var } => {
                write!(
                    f,
                    "rule `{}`: variable `{}` is not bound by any body atom",
                    rule, var
                )
            }
            ProgramError::RebindingAssignment { rule, var } => write!(
                f,
                "rule `{}`: assignment to `{}`, which is already bound",
                rule, var
            ),
            ProgramError::DuplicateRuleLabel(l) => write!(f, "duplicate rule label `{}`", l),
            ProgramError::ArityMismatch {
                predicate,
                expected,
                found,
            } => write!(
                f,
                "predicate `{}` used with arity {} but previously {}",
                predicate, found, expected
            ),
            ProgramError::UnboundAggregateInput { rule, var } => write!(
                f,
                "rule `{}`: aggregate input `{}` is not bound by the body",
                rule, var
            ),
            ProgramError::NotStratifiable => write!(
                f,
                "the program is not stratifiable: recursion passes through negation"
            ),
            ProgramError::EmptyBody(l) => write!(f, "rule `{}` has an empty body", l),
        }
    }
}

impl std::error::Error for ProgramError {}

/// Errors raised by the chase engine at run time.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard
/// arm, so future variants are non-breaking.
#[non_exhaustive]
#[derive(Debug)]
pub enum ChaseError {
    /// Expression evaluation failed inside a rule application.
    Eval {
        /// The rule label.
        rule: String,
        /// The underlying error (also exposed via
        /// [`std::error::Error::source`]).
        source: EvalError,
    },
    /// A resource budget tripped before fixpoint: deadline, cancellation,
    /// or a round/fact/memory budget (see
    /// [`RunGuard`](crate::telemetry::RunGuard)).
    ///
    /// Carries the deterministic partial outcome reached at the trip
    /// point — a prefix of the canonical evaluation, with its partial
    /// [`RunReport`](crate::telemetry::RunReport) — which
    /// [`ChaseSession::resume`](crate::engine::ChaseSession::resume)
    /// continues to the exact state an uninterrupted run would produce.
    ResourceExhausted {
        /// The budget that tripped.
        budget: Budget,
        /// The observed value at the trip point (rounds, facts, bytes, or
        /// elapsed milliseconds depending on the budget; 0 for
        /// cancellation).
        observed: u64,
        /// The partial outcome: every completed round's facts, provenance
        /// and report.
        partial: Box<ChaseOutcome>,
    },
    /// A worker panicked while evaluating a rule in the parallel match
    /// phase. The panic was isolated (`catch_unwind`): the process
    /// survives, and the error carries the deterministic state of the
    /// last completed round — the match phase is read-only, so nothing of
    /// the interrupted round was committed. The partial outcome is
    /// resumable via
    /// [`ChaseSession::resume`](crate::engine::ChaseSession::resume).
    ///
    /// When several rules panic in the same phase, which one is named is
    /// scheduling-dependent; the partial outcome is deterministic
    /// regardless.
    WorkerPanic {
        /// Label of the rule whose evaluation panicked.
        rule: String,
        /// The panic message (or a placeholder for non-string payloads).
        message: String,
        /// The deterministic partial outcome at the last completed round.
        partial: Box<ChaseOutcome>,
    },
    /// A checkpoint operation failed: an autosave or trip-save could not
    /// be written, or [`ChaseSession::resume_from_path`](crate::engine::ChaseSession::resume_from_path)
    /// could not load the snapshot. See
    /// [`CheckpointError`] for the precise corruption
    /// or I/O cause.
    Checkpoint {
        /// The underlying checkpoint failure (also exposed via
        /// [`std::error::Error::source`]).
        source: CheckpointError,
        /// For failed autosaves mid-run: the deterministic partial
        /// outcome at the failure point, resumable in memory. `None` when
        /// the failure happened while loading.
        partial: Option<Box<ChaseOutcome>>,
    },
    /// A delta could not be applied by
    /// [`ChaseSession::apply_delta`](crate::engine::ChaseSession::apply_delta);
    /// the live outcome is unchanged. See [`DeltaError`].
    Delta(DeltaError),
}

/// Why [`ChaseSession::apply_delta`](crate::engine::ChaseSession::apply_delta)
/// rejected a delta. The session's live outcome is never modified by a
/// rejected delta.
#[non_exhaustive]
#[derive(Clone, PartialEq, Debug)]
pub enum DeltaError {
    /// No completed outcome is loaded into the session (see
    /// [`ChaseSession::load`](crate::engine::ChaseSession::load)).
    NoLiveOutcome,
    /// The loaded outcome is the partial state of an interrupted run;
    /// continue it with
    /// [`ChaseSession::resume`](crate::engine::ChaseSession::resume)
    /// before applying deltas.
    PartialOutcome,
    /// A retraction names a fact not present in the live store.
    UnknownRetraction(String),
    /// A retraction names a fact that was derived, not asserted: only
    /// extensional (EDB) facts can be retracted.
    NonExtensionalRetraction(String),
    /// An added fact contains a labelled null; nulls are invented by the
    /// engine and cannot be asserted as EDB.
    NullInAddition(String),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::NoLiveOutcome => {
                write!(f, "no live outcome loaded; call ChaseSession::load first")
            }
            DeltaError::PartialOutcome => write!(
                f,
                "the live outcome is partial; resume it to fixpoint before applying deltas"
            ),
            DeltaError::UnknownRetraction(fact) => {
                write!(f, "cannot retract `{}`: not in the live store", fact)
            }
            DeltaError::NonExtensionalRetraction(fact) => {
                write!(f, "cannot retract `{}`: it is derived, not asserted", fact)
            }
            DeltaError::NullInAddition(fact) => write!(
                f,
                "cannot assert `{}`: labelled nulls are engine-invented",
                fact
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

impl fmt::Display for ChaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseError::Eval { rule, source } => {
                write!(f, "rule `{}`: {}", rule, source)
            }
            ChaseError::ResourceExhausted {
                budget, observed, ..
            } => match budget {
                Budget::Cancelled => {
                    write!(
                        f,
                        "chase cancelled before fixpoint; partial outcome retained"
                    )
                }
                _ => write!(
                    f,
                    "chase exceeded its {} (observed {}); partial outcome retained",
                    budget, observed
                ),
            },
            ChaseError::WorkerPanic { rule, message, .. } => write!(
                f,
                "worker panicked evaluating rule `{}`: {}; partial outcome retained",
                rule, message
            ),
            ChaseError::Checkpoint { source, partial } => {
                if partial.is_some() {
                    write!(
                        f,
                        "checkpoint save failed: {}; partial outcome retained",
                        source
                    )
                } else {
                    write!(f, "checkpoint load failed: {}", source)
                }
            }
            ChaseError::Delta(source) => write!(f, "delta rejected: {}", source),
        }
    }
}

impl std::error::Error for ChaseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChaseError::Eval { source, .. } => Some(source),
            ChaseError::Checkpoint { source, .. } => Some(source),
            ChaseError::Delta(source) => Some(source),
            _ => None,
        }
    }
}

/// Errors raised while parsing Vadalog surface syntax.
#[derive(Clone, PartialEq, Debug)]
pub struct ParseError {
    /// 1-based line of the error.
    pub line: usize,
    /// 1-based column of the error.
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_rule_context() {
        let e = ChaseError::Eval {
            rule: "o3".into(),
            source: EvalError::DivisionByZero,
        };
        assert!(e.to_string().contains("o3"));
        assert!(e.to_string().contains("division by zero"));
    }

    #[test]
    fn eval_errors_chain_their_source() {
        let e = ChaseError::Eval {
            rule: "o3".into(),
            source: EvalError::DivisionByZero,
        };
        let source = std::error::Error::source(&e).expect("chained source");
        assert_eq!(source.to_string(), "division by zero");
        let cancelled = ChaseError::ResourceExhausted {
            budget: Budget::Cancelled,
            observed: 0,
            partial: Box::new(crate::engine::ChaseOutcome::empty()),
        };
        assert!(std::error::Error::source(&cancelled).is_none());
    }

    #[test]
    fn resource_exhausted_renders_budget_and_observation() {
        let partial = Box::new(crate::engine::ChaseOutcome::empty());
        let e = ChaseError::ResourceExhausted {
            budget: Budget::Rounds(50),
            observed: 51,
            partial,
        };
        let msg = e.to_string();
        assert!(msg.contains("round budget of 50"), "{msg}");
        assert!(msg.contains("51"), "{msg}");
        let cancelled = ChaseError::ResourceExhausted {
            budget: Budget::Cancelled,
            observed: 0,
            partial: Box::new(crate::engine::ChaseOutcome::empty()),
        };
        assert!(cancelled.to_string().contains("cancelled"));
    }

    #[test]
    fn parse_error_renders_position() {
        let e = ParseError {
            line: 3,
            column: 14,
            message: "expected `)`".into(),
        };
        assert_eq!(e.to_string(), "parse error at 3:14: expected `)`");
    }

    #[test]
    fn program_error_messages_name_the_predicate() {
        let e = ProgramError::ArityMismatch {
            predicate: Symbol::new("own"),
            expected: 3,
            found: 2,
        };
        assert!(e.to_string().contains("own"));
    }
}

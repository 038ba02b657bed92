//! # vadalog
//!
//! A chase-based Datalog±/Vadalog-style reasoning engine with fact-level
//! provenance, built as the reasoning substrate for template-based
//! explainable inference (EDBT 2025, "Template-based Explainable Inference
//! over High-Stakes Financial Knowledge Graphs").
//!
//! The crate provides:
//!
//! * a rule language with TGDs (existentials as labelled nulls),
//!   comparison conditions, arithmetic assignments, monotonic aggregations
//!   (`sum`, `prod`, `min`, `max`, `count`), safe negation over extensional
//!   predicates, and negative constraints;
//! * a text [`parser`] for a Vadalog-like surface syntax;
//! * a [`Database`] fact store with lazy positional indexes;
//! * the [`engine`]: a restricted chase to fixpoint recording every
//!   derivation in a [`provenance::ChaseGraph`], plus incremental
//!   fixpoint maintenance over a live outcome
//!   ([`ChaseSession::apply_delta`]: semi-naive propagation for added
//!   facts, DRed over-delete/re-derive for retractions, bitwise
//!   identical to a from-scratch chase on the updated EDB);
//! * the [`depgraph::DependencyGraph`] D(Σ) used by structural analysis;
//! * [`telemetry`]: resource governance ([`RunGuard`]: deadlines,
//!   cooperative cancellation, fact/round/memory budgets) and the per-run
//!   [`RunReport`] of counters, timings and peaks every chase emits;
//! * [`checkpoint`]: crash-safe, checksummed snapshots of (partial) runs,
//!   written atomically by an autosave policy or on demand, resumable to
//!   a bitwise-identical state via `ChaseSession::resume_from_path` —
//!   with [`faultpoint`] hooks (feature `faultpoints`) for deterministic
//!   crash and I/O-failure injection in tests;
//! * [`obs`]: always-compiled observability — the structured
//!   [`span!`](crate::span!) collector with pluggable sinks, an
//!   always-on [`MetricsRegistry`]
//!   (Prometheus text exposition), and a Chrome `trace_event` exporter
//!   for Perfetto.
//!
//! ## Quick start
//!
//! ```
//! use vadalog::prelude::*;
//!
//! let parsed = parse_program(r#"
//!     o1: own(x, y, s), s > 0.5 -> control(x, y).
//!     o2: company(x) -> control(x, x).
//!     o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).
//!     company("A").
//!     own("A", "B", 0.6).
//!     own("B", "C", 0.3).
//!     own("A", "C", 0.4).
//! "#).unwrap();
//!
//! let db: Database = parsed.facts.into_iter().collect();
//! let out = ChaseSession::new(&parsed.program).run(db).unwrap();
//! let target = Fact::new("control", vec!["A".into(), "C".into()]);
//! assert!(out.database.contains(&target));
//! ```
//!
//! The chase runs a parallel match phase over a configurable worker pool
//! (`ChaseSession::threads`); its output is bitwise identical at any
//! thread count.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod atom;
pub mod checkpoint;
pub mod database;
pub mod depgraph;
pub mod dot;
pub mod engine;
pub mod error;
pub mod expr;
pub mod faultpoint;
pub mod obs;
pub mod parser;
pub mod program;
pub mod provenance;
pub mod query;
pub mod row;
pub mod rule;
pub mod stratify;
pub mod symbol;
pub mod telemetry;
pub mod term;
pub mod value;

/// Commonly used items, importable with one line.
pub mod prelude {
    pub use crate::atom::{fact, Atom, Fact};
    pub use crate::checkpoint::{AutosavePolicy, CheckpointError};
    pub use crate::database::{Database, FactId};
    pub use crate::depgraph::{Condensation, DepEdge, DependencyGraph, GoalCone};
    pub use crate::engine::{
        ChaseConfig, ChaseOutcome, ChaseSession, Delta, DeltaOutcome, DeltaStrategy,
    };
    pub use crate::error::{ChaseError, DeltaError, EvalError, ParseError, ProgramError};
    pub use crate::expr::{ArithOp, Assignment, Bindings, CmpOp, Condition, Env, Expr};
    pub use crate::obs::metrics::MetricsRegistry;
    pub use crate::obs::span::{RingCollector, SpanRecord, SpanSink};
    pub use crate::parser::{parse_program, ParsedProgram};
    pub use crate::program::Program;
    pub use crate::provenance::{
        ChaseGraph, ChaseStep, Derivation, DerivationId, DerivationPolicy, ProofTree,
    };
    pub use crate::row::{Layout, Row, RowRef, Rows, Slot};
    pub use crate::rule::{
        AggFunc, Aggregate, Head, Literal, Rule, RuleBuilder, RuleId, RuleLayout,
    };
    pub use crate::stratify::{stratify, Stratification};
    pub use crate::symbol::Symbol;
    pub use crate::telemetry::{Budget, CancelToken, RunGuard, RunReport, Termination};
    pub use crate::term::Term;
    pub use crate::value::Value;
}

pub use prelude::*;

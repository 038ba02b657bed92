//! Crash-safe checkpointing of chase runs.
//!
//! A *checkpoint* is a versioned, checksummed snapshot of a (partial or
//! completed) [`ChaseOutcome`]: every fact in [`FactId`] order, the full
//! chase-graph provenance, the run's [`RunReport`], and — for partial
//! outcomes — the engine's continuation cursor (per-rule watermarks,
//! stratum, round, next rule). Loading a snapshot and resuming it reaches
//! a state *bitwise identical* to an uninterrupted run, at any thread
//! count: the snapshot captures exactly the deterministic prefix the
//! engine's [resume](crate::engine::ChaseSession::resume) contract is
//! built on.
//!
//! # Durability protocol
//!
//! Snapshots are written atomically: the encoded bytes go to a sibling
//! temp file, which is fsynced and then renamed over the target (plus a
//! best-effort fsync of the directory). A crash at any point leaves
//! either the previous snapshot or the new one — never a torn file — and
//! a torn or tampered file is *detected*, not trusted: the header carries
//! a magic tag, a format version, a program+config fingerprint, the body
//! length and an FNV-1a checksum of the body. Each failure mode surfaces
//! as its own [`CheckpointError`] variant; loading never panics.
//!
//! # What the fingerprint covers
//!
//! The fingerprint hashes the program text and the *semantics-affecting*
//! configuration, the goal cone ([`ChaseConfig::goal_cone`]): a pruned
//! run evaluates only its cone's rules, so its prefix differs from an
//! unpruned run's and from another cone's. Thread count, budgets,
//! autosave and telemetry settings are deliberately excluded:
//! resuming on a different machine, with different budgets or a different
//! worker count, is legal and reaches the identical state.
//!
//! Interned [`Symbol`] ids are process-local, so
//! the snapshot stores strings (deduplicated in a table) and re-interns
//! them on load.
//!
//! ```no_run
//! use vadalog::prelude::*;
//!
//! # fn demo(program: &Program, db: Database) -> Result<(), Box<dyn std::error::Error>> {
//! let session = ChaseSession::new(program);
//! match session.run(db) {
//!     Ok(out) => session.checkpoint_to(&out, "run.ckpt")?,
//!     Err(ChaseError::ResourceExhausted { partial, .. }) => {
//!         session.checkpoint_to(&partial, "run.ckpt")?;
//!     }
//!     Err(e) => return Err(e.into()),
//! }
//! // Later — possibly in a new process:
//! let out = session.resume_from_path("run.ckpt")?;
//! # Ok(())
//! # }
//! ```

use crate::atom::Fact;
use crate::database::{Database, FactId};
use crate::engine::{ChaseConfig, ChaseOutcome, EngineResume, PendingRound};
use crate::faultpoint;
use crate::program::Program;
use crate::provenance::{ChaseGraph, Derivation};
use crate::row::{Layout, Row, Rows};
use crate::rule::{RuleId, RuleLayout};
use crate::symbol::Symbol;
use crate::telemetry::{
    Budget, PeakStats, PhaseTimings, RoundStats, RuleStats, RunReport, Termination,
};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The snapshot format version this build writes and reads.
///
/// v2 widened the per-rule stats block with the join-planning counters
/// (composite/negation/satisfaction probe-vs-scan splits). v3 stores
/// binding rows positionally: a table of the row layouts (variable
/// lists) precedes the derivations, and each row is its layout's index
/// plus its values in slot order. Earlier versions are rejected with
/// [`CheckpointError::UnsupportedVersion`]; there is no converter.
pub const FORMAT_VERSION: u32 = 3;

const MAGIC: [u8; 8] = *b"VDLGCKPT";
/// magic (8) + version (4) + fingerprint (8) + body length (8) +
/// body checksum (8).
const HEADER_LEN: usize = 36;

/// Why a checkpoint could not be written or loaded.
///
/// Every corruption mode of the load path is a distinct variant, so
/// callers (and operators) can tell a half-written file from a tampered
/// one from a snapshot of a different program. Loading never panics.
#[non_exhaustive]
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying filesystem operation failed (also covers injected
    /// I/O faults, see [`crate::faultpoint`]).
    Io(std::io::Error),
    /// The file is empty: a create that never got its contents (e.g. a
    /// crash between `open` and `write` of a non-atomic writer).
    Empty,
    /// The file ends before the length its header promises: a torn write
    /// or a truncated copy.
    Truncated {
        /// Bytes the header (or the minimum header size) requires.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The file does not start with the checkpoint magic: not a snapshot.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion {
        /// Version tag found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The body bytes do not hash to the header's checksum: bit rot or
    /// tampering.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
    /// The snapshot belongs to a different program or
    /// semantics-affecting configuration; resuming it here would not
    /// reproduce the original run.
    FingerprintMismatch {
        /// Fingerprint of the program+config attempting the load.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// The body passed the checksum but does not decode to a well-formed
    /// snapshot (internal inconsistency; should not happen for files this
    /// build wrote).
    Malformed {
        /// What failed to decode.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {}", e),
            CheckpointError::Empty => {
                write!(f, "checkpoint file is empty (never written or zeroed)")
            }
            CheckpointError::Truncated { expected, actual } => write!(
                f,
                "checkpoint truncated: {} bytes present, {} required (torn write?)",
                actual, expected
            ),
            CheckpointError::BadMagic => {
                write!(f, "not a checkpoint file (magic tag missing)")
            }
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "checkpoint format version {} unsupported (this build reads version {})",
                found, supported
            ),
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint body checksum mismatch: header says {:#018x}, body hashes to {:#018x}",
                expected, actual
            ),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different program/config: fingerprint {:#018x} \
                 recorded, {:#018x} expected",
                found, expected
            ),
            CheckpointError::Malformed { detail } => {
                write!(f, "checkpoint body malformed: {}", detail)
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

/// When the engine writes snapshots on its own (see
/// [`ChaseConfig::with_autosave`](crate::engine::ChaseConfig::with_autosave)).
///
/// With a policy set, the engine saves to `path` every
/// [`every_rounds`](AutosavePolicy::every_rounds) completed rounds, and
/// whenever a budget trips or a worker panic interrupts the run, so the
/// partial outcome those errors carry is also on disk. Autosave failures
/// surface as [`ChaseError::Checkpoint`](crate::error::ChaseError)
/// carrying the in-memory partial outcome: a full disk never silently
/// loses the run.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct AutosavePolicy {
    /// Snapshot target; each save atomically replaces the previous one.
    pub path: PathBuf,
    /// Save every N completed rounds (`0`: only on guard trips).
    pub every_rounds: u32,
}

impl AutosavePolicy {
    /// A policy writing to `path` on guard trips only; chain
    /// [`every_rounds`](AutosavePolicy::every_rounds) for periodic saves.
    pub fn new(path: impl Into<PathBuf>) -> AutosavePolicy {
        AutosavePolicy {
            path: path.into(),
            every_rounds: 0,
        }
    }

    /// Saves every `n` completed rounds (`0` disables periodic saves).
    pub fn every_rounds(mut self, n: u32) -> AutosavePolicy {
        self.every_rounds = n;
        self
    }
}

/// The program+config fingerprint embedded in (and checked against)
/// every snapshot: FNV-1a over the program text and the
/// semantics-affecting configuration, which is the goal cone
/// ([`ChaseConfig::goal_cone`]): it decides which rules a run evaluates.
/// Thread count, the guard's budgets, the autosave policy and the
/// metrics registry are excluded — they may differ between the saving
/// and the resuming process.
pub fn fingerprint(program: &Program, config: &ChaseConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write(b"vadalog-checkpoint-fingerprint-v1");
    h.write(program.to_string().as_bytes());
    h.write(&[
        // Once the index-use flag, always on since the scan path was
        // removed. The constant keeps every earlier snapshot's
        // fingerprint, so those snapshots stay resumable.
        1,
        // Once the semi-naive flag, always on since the naive mode was
        // removed; kept for the same reason.
        1,
        // Once the fail-on-violation flag, always off since violations
        // are only collected; kept for the same reason.
        0,
    ]);
    // Hashed only when set, so an unpruned run keeps its fingerprint.
    if let Some(goal) = config.goal_cone {
        h.write(b"goal-cone:");
        h.write(goal.as_str().as_bytes());
    }
    h.finish()
}

/// Atomically writes a snapshot of `outcome` to `path`.
///
/// Prefer the session-level wrapper
/// [`ChaseSession::checkpoint_to`](crate::engine::ChaseSession::checkpoint_to);
/// this free function exists for tooling that holds program and config
/// separately.
pub fn save(
    path: &Path,
    program: &Program,
    config: &ChaseConfig,
    outcome: &ChaseOutcome,
) -> Result<(), CheckpointError> {
    save_parts(
        path,
        fingerprint(program, config),
        &SnapshotParts {
            db: &outcome.database,
            graph: &outcome.graph,
            rounds: outcome.rounds as u64,
            derived_facts: outcome.derived_facts as u64,
            violations: &outcome.violations,
            report: &outcome.report,
            resume: outcome.resume.as_ref(),
        },
        &config.metrics_registry(),
    )
}

/// Loads, verifies and rebuilds the snapshot at `path` written for
/// `program` under `config`.
///
/// The returned outcome is exactly the state that was saved: for a
/// partial snapshot, [`ChaseOutcome::is_partial`] is true and
/// [`ChaseSession::resume`](crate::engine::ChaseSession::resume) (or the
/// one-call [`resume_from_path`](crate::engine::ChaseSession::resume_from_path))
/// continues it.
pub fn load(
    path: &Path,
    program: &Program,
    config: &ChaseConfig,
) -> Result<ChaseOutcome, CheckpointError> {
    let _span = crate::span!("checkpoint.load", path = path.display().to_string());
    config
        .metrics_registry()
        .counter(
            "vadalog_checkpoint_loads_total",
            "Checkpoint snapshots read back from disk.",
        )
        .inc();
    faultpoint::io("checkpoint.read")?;
    let bytes = fs::read(path)?;
    if bytes.is_empty() {
        return Err(CheckpointError::Empty);
    }
    if bytes.len() < HEADER_LEN {
        return Err(CheckpointError::Truncated {
            expected: HEADER_LEN as u64,
            actual: bytes.len() as u64,
        });
    }
    if bytes[..8] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 header bytes"));
    if version != FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let found_fp = u64::from_le_bytes(bytes[12..20].try_into().expect("8 header bytes"));
    let body_len = u64::from_le_bytes(bytes[20..28].try_into().expect("8 header bytes"));
    let checksum = u64::from_le_bytes(bytes[28..36].try_into().expect("8 header bytes"));
    let total = HEADER_LEN as u64 + body_len;
    if (bytes.len() as u64) < total {
        return Err(CheckpointError::Truncated {
            expected: total,
            actual: bytes.len() as u64,
        });
    }
    if bytes.len() as u64 > total {
        return Err(CheckpointError::Malformed {
            detail: format!(
                "{} trailing bytes after the declared body",
                bytes.len() as u64 - total
            ),
        });
    }
    let body = &bytes[HEADER_LEN..];
    let actual = fnv1a(body);
    if actual != checksum {
        return Err(CheckpointError::ChecksumMismatch {
            expected: checksum,
            actual,
        });
    }
    let expected_fp = fingerprint(program, config);
    if found_fp != expected_fp {
        return Err(CheckpointError::FingerprintMismatch {
            expected: expected_fp,
            found: found_fp,
        });
    }
    let rules: Vec<RuleLayout> = program.rules().iter().map(RuleLayout::of).collect();
    decode_body(body, &rules)
}

/// The borrowed pieces of a snapshot, so the engine can autosave without
/// materializing a [`ChaseOutcome`].
pub(crate) struct SnapshotParts<'a> {
    pub db: &'a Database,
    pub graph: &'a ChaseGraph,
    pub rounds: u64,
    pub derived_facts: u64,
    pub violations: &'a [String],
    pub report: &'a RunReport,
    pub resume: Option<&'a EngineResume>,
}

/// Encodes `parts` and writes them durably: temp file → fsync → rename,
/// with a best-effort directory fsync. Fault points guard every step.
pub(crate) fn save_parts(
    path: &Path,
    fingerprint: u64,
    parts: &SnapshotParts<'_>,
    registry: &crate::obs::metrics::MetricsRegistry,
) -> Result<(), CheckpointError> {
    let _span = crate::span!(
        "checkpoint.save",
        path = path.display().to_string(),
        facts = parts.db.len(),
    );
    let body = encode_body(parts);
    let mut bytes = Vec::with_capacity(HEADER_LEN + body.len());
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&fingerprint.to_le_bytes());
    bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv1a(&body).to_le_bytes());
    bytes.extend_from_slice(&body);

    let file_name = path
        .file_name()
        .ok_or_else(|| {
            CheckpointError::Io(std::io::Error::other("checkpoint path has no file name"))
        })?
        .to_owned();
    let mut tmp_name = file_name;
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);

    faultpoint::io("checkpoint.write")?;
    let mut f = fs::File::create(&tmp)?;
    f.write_all(&bytes)?;
    faultpoint::io("checkpoint.sync")?;
    let sync_start = std::time::Instant::now();
    f.sync_all()?;
    registry
        .histogram(
            "vadalog_checkpoint_fsync_ns",
            &[100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000],
            "Time spent in fsync per checkpoint write, in nanoseconds.",
        )
        .observe(sync_start.elapsed().as_nanos() as u64);
    drop(f);
    // A crash here (after the durable temp write, before the rename)
    // leaves the previous snapshot untouched — the atomicity the tests
    // inject faults to verify.
    faultpoint::trigger("checkpoint.commit");
    faultpoint::io("checkpoint.rename")?;
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Durability of the rename itself; best effort (not all
        // filesystems support fsync on directories).
        let _ = fs::File::open(dir).and_then(|d| d.sync_all());
    }
    // Counted only after the rename: a snapshot isn't "saved" until it
    // is the file at `path`.
    registry
        .counter(
            "vadalog_checkpoint_bytes_total",
            "Bytes written to committed checkpoint snapshots (header + body).",
        )
        .add(bytes.len() as u64);
    registry
        .counter(
            "vadalog_checkpoint_saves_total",
            "Checkpoint snapshots committed durably.",
        )
        .inc();
    Ok(())
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Streaming FNV-1a 64: the hash of snapshot fingerprints and
/// checksums, and of the explanation-artifact cache keys. Stable across
/// processes and platforms.
#[derive(Clone, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// The hash of the empty input.
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Interns strings in first-use order while the content section is
/// encoded; the table section is emitted first, so decoding is one pass.
#[derive(Default)]
struct StringTable {
    index: HashMap<String, u32>,
    strings: Vec<String>,
}

impl StringTable {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let i = self.strings.len() as u32;
        self.index.insert(s.to_string(), i);
        self.strings.push(s.to_string());
        i
    }
}

struct Enc {
    buf: Vec<u8>,
    strings: StringTable,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        let i = self.strings.intern(s);
        self.u32(i);
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Str(s) => {
                self.u8(0);
                self.str(s.as_str());
            }
            Value::Int(i) => {
                self.u8(1);
                self.i64(*i);
            }
            Value::Float(f) => {
                self.u8(2);
                self.u64(f.to_bits());
            }
            Value::Bool(b) => {
                self.u8(3);
                self.u8(u8::from(*b));
            }
            Value::Null(n) => {
                self.u8(4);
                self.u64(*n);
            }
        }
    }

    /// A row: its layout's index in `layouts` and its values in slot
    /// order. A derivation's row binds every slot of its layout, so the
    /// layout gives its length.
    fn row(&mut self, layouts: &HashMap<Layout, u32>, row: &Row) {
        debug_assert_eq!(
            row.len(),
            row.layout().len(),
            "a stored row binds every slot"
        );
        self.u32(layouts[&row.layout()]);
        for v in row.values() {
            self.value(v);
        }
    }

    /// A block of rows: its layout's index, its row count and every value,
    /// row after row.
    fn rows(&mut self, layouts: &HashMap<Layout, u32>, rows: &Rows) {
        self.u32(layouts[&rows.layout()]);
        self.u32(rows.len() as u32);
        for v in rows.values() {
            self.value(v);
        }
    }
}

fn encode_body(parts: &SnapshotParts<'_>) -> Vec<u8> {
    let mut e = Enc {
        buf: Vec::new(),
        strings: StringTable::default(),
    };

    // Facts, in FactId order (dense: the i-th entry is fact i).
    e.u32(parts.db.len() as u32);
    for (_, fact) in parts.db.iter() {
        e.str(fact.predicate.as_str());
        e.u32(fact.values.len() as u32);
        for v in &fact.values {
            e.value(v);
        }
    }
    // Inactive (superseded) facts, ascending.
    let inactive: Vec<u32> = (0..parts.db.len() as u32)
        .filter(|&i| !parts.db.is_active(FactId(i)))
        .collect();
    e.u32(inactive.len() as u32);
    for id in inactive {
        e.u32(id);
    }
    // Extensional facts, ascending.
    let extensional: Vec<u32> = (0..parts.db.len() as u32)
        .filter(|&i| parts.graph.is_extensional(FactId(i)))
        .collect();
    e.u32(extensional.len() as u32);
    for id in extensional {
        e.u32(id);
    }
    // Row layouts, in first-use order.
    let ders = parts.graph.derivations();
    let mut layouts: HashMap<Layout, u32> = HashMap::new();
    let mut layout_order: Vec<Layout> = Vec::new();
    for d in ders {
        for layout in [d.bindings.layout(), d.contributor_bindings.layout()] {
            layouts.entry(layout).or_insert_with(|| {
                layout_order.push(layout);
                layout_order.len() as u32 - 1
            });
        }
    }
    e.u32(layout_order.len() as u32);
    for layout in &layout_order {
        e.u32(layout.len() as u32);
        for var in layout.vars() {
            e.str(var.as_str());
        }
    }
    // Derivations, in recording order.
    e.u32(ders.len() as u32);
    for d in ders {
        e.u32(d.rule.0 as u32);
        e.u32(d.conclusion.0);
        e.u32(d.round);
        e.u32(d.contributors);
        e.u32(d.premises.len() as u32);
        for p in &d.premises {
            e.u32(p.0);
        }
        e.row(&layouts, &d.bindings);
        e.rows(&layouts, &d.contributor_bindings);
    }
    // Violations.
    e.u32(parts.violations.len() as u32);
    for v in parts.violations {
        e.str(v);
    }
    e.u64(parts.rounds);
    e.u64(parts.derived_facts);
    e.u64(parts.db.approx_bytes() as u64);
    // Continuation cursor.
    match parts.resume {
        None => e.u8(0),
        Some(r) => {
            e.u8(1);
            e.u32(r.last_seen_len.len() as u32);
            for &w in &r.last_seen_len {
                e.u64(w as u64);
            }
            e.u32(r.stratum as u32);
            e.u32(r.completed_rounds);
            match &r.pending {
                None => e.u8(0),
                Some(p) => {
                    e.u8(1);
                    e.u32(p.round);
                    e.u32(p.next_rule as u32);
                    e.u8(u8::from(p.changed_so_far));
                }
            }
        }
    }
    // Report.
    encode_report(&mut e, parts.report, parts.resume.is_some());

    // Final layout: string table first, content after.
    let mut body = Vec::with_capacity(e.buf.len() + 64);
    let mut head = Enc {
        buf: Vec::new(),
        strings: StringTable::default(),
    };
    head.u32(e.strings.strings.len() as u32);
    for s in &e.strings.strings {
        head.u32(s.len() as u32);
        head.buf.extend_from_slice(s.as_bytes());
    }
    body.extend_from_slice(&head.buf);
    body.extend_from_slice(&e.buf);
    body
}

fn encode_report(e: &mut Enc, report: &RunReport, partial: bool) {
    // A mid-run autosave clones a report whose termination was never
    // stamped; record it as Suspended so the loaded report reflects a
    // run in progress.
    let suspended = Termination::Suspended;
    let termination = if partial && matches!(report.termination, Termination::Completed) {
        &suspended
    } else {
        &report.termination
    };
    match termination {
        Termination::Completed => e.u8(0),
        Termination::Exhausted { budget, observed } => {
            e.u8(1);
            match budget {
                Budget::Rounds(n) => {
                    e.u8(0);
                    e.u64(*n);
                }
                Budget::Facts(n) => {
                    e.u8(1);
                    e.u64(*n);
                }
                Budget::MemoryBytes(n) => {
                    e.u8(2);
                    e.u64(*n);
                }
                Budget::Deadline(d) => {
                    e.u8(3);
                    e.u64(d.as_millis() as u64);
                }
                Budget::Cancelled => {
                    e.u8(4);
                    e.u64(0);
                }
            }
            e.u64(*observed);
        }
        Termination::Suspended => e.u8(2),
        Termination::Panicked { rule } => {
            e.u8(3);
            e.str(rule);
        }
    }
    e.u64(report.threads as u64);
    e.u32(report.rounds);
    e.u32(report.strata);
    e.u32(report.rules.len() as u32);
    for r in &report.rules {
        e.str(&r.label);
        for v in [
            r.matches_enumerated,
            r.firings,
            r.facts_committed,
            r.duplicates_preempted,
            r.isomorphism_checks,
            r.satisfaction_preempted,
            r.index_probes,
            r.scans,
            r.composite_probes,
            r.negation_probes,
            r.negation_scans,
            r.satisfaction_probes,
            r.satisfaction_scans,
        ] {
            e.u64(v);
        }
    }
    e.u32(report.rounds_log.len() as u32);
    for r in &report.rounds_log {
        e.u32(r.round);
        e.u32(r.stratum);
        e.u64(r.matches);
        e.u64(r.facts_committed);
        e.u64(r.facts_end);
        e.u64(r.duration_ns);
    }
    for v in [
        report.timings.index_build_ns,
        report.timings.match_ns,
        report.timings.merge_ns,
        report.timings.commit_ns,
        report.timings.aggregate_ns,
        report.timings.checkpoint_save_ns,
        report.timings.checkpoint_restore_ns,
        report.timings.total_ns,
    ] {
        e.u64(v);
    }
    for v in [
        report.peak.facts,
        report.peak.derivations,
        report.peak.match_buffer,
        report.peak.approx_bytes,
    ] {
        e.u64(v);
    }
    e.u64(report.autosaves);
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    strings: Vec<Symbol>,
}

type DecResult<T> = Result<T, CheckpointError>;

fn malformed(detail: impl Into<String>) -> CheckpointError {
    CheckpointError::Malformed {
        detail: detail.into(),
    }
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| malformed(format!("unexpected end of body at byte {}", self.pos)))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> DecResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> DecResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn i64(&mut self) -> DecResult<i64> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an element count and sanity-checks it against the bytes
    /// remaining (each element needs at least `min_elem` bytes), so a
    /// corrupted count cannot drive a huge allocation.
    fn count(&mut self, min_elem: usize, what: &str) -> DecResult<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.buf.len() - self.pos {
            return Err(malformed(format!("{} count {} exceeds body size", what, n)));
        }
        Ok(n)
    }

    fn str(&mut self) -> DecResult<Symbol> {
        let i = self.u32()? as usize;
        self.strings
            .get(i)
            .copied()
            .ok_or_else(|| malformed(format!("string index {} out of table range", i)))
    }

    fn value(&mut self) -> DecResult<Value> {
        match self.u8()? {
            0 => Ok(Value::Str(self.str()?)),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            3 => Ok(Value::Bool(self.u8()? != 0)),
            4 => Ok(Value::Null(self.u64()?)),
            t => Err(malformed(format!("unknown value tag {}", t))),
        }
    }

    /// A row layout: its variable count and variable names, which must
    /// be distinct.
    fn layout(&mut self) -> DecResult<Layout> {
        let n = self.count(4, "layout variable")?;
        let mut vars = Vec::with_capacity(n);
        for _ in 0..n {
            let var = self.str()?;
            if vars.contains(&var) {
                return Err(malformed(format!("layout repeats variable {var}")));
            }
            vars.push(var);
        }
        Ok(Layout::new(&vars))
    }

    /// The layout a row or block refers to by index.
    fn layout_ref(&mut self, layouts: &[Layout]) -> DecResult<Layout> {
        let i = self.u32()? as usize;
        layouts
            .get(i)
            .copied()
            .ok_or_else(|| malformed(format!("layout index {} out of table range", i)))
    }

    fn row(&mut self, layouts: &[Layout]) -> DecResult<Row> {
        let layout = self.layout_ref(layouts)?;
        let mut values = Vec::with_capacity(layout.len());
        for _ in 0..layout.len() {
            values.push(self.value()?);
        }
        Ok(Row::new(layout, values.into_boxed_slice()))
    }

    fn rows(&mut self, layouts: &[Layout]) -> DecResult<Rows> {
        let layout = self.layout_ref(layouts)?;
        let width = layout.len();
        let n = self.count(2 * width, "contributor row")?;
        let mut values = Vec::with_capacity(n * width);
        for _ in 0..n * width {
            values.push(self.value()?);
        }
        Ok(Rows::new(
            layout,
            (0..n).map(|i| &values[i * width..(i + 1) * width]),
        ))
    }

    fn fact_id(&mut self, facts: usize, what: &str) -> DecResult<FactId> {
        let id = self.u32()?;
        if (id as usize) < facts {
            Ok(FactId(id))
        } else {
            Err(malformed(format!(
                "{} references fact {} of {}",
                what, id, facts
            )))
        }
    }
}

/// Decodes a verified body. `rules` holds the layouts of the program's
/// rules by id: a derivation must name one of them, its row must be in
/// that rule's head layout and its contributor rows in its match layout,
/// which is what every reader of the rows indexes by.
fn decode_body(body: &[u8], rules: &[RuleLayout]) -> Result<ChaseOutcome, CheckpointError> {
    let mut d = Dec {
        buf: body,
        pos: 0,
        strings: Vec::new(),
    };
    // String table.
    let n_strings = d.count(4, "string table")?;
    for _ in 0..n_strings {
        let len = d.u32()? as usize;
        let bytes = d.take(len)?;
        let s =
            std::str::from_utf8(bytes).map_err(|_| malformed("string table entry is not UTF-8"))?;
        d.strings.push(Symbol::new(s));
    }

    // Facts → a fresh store; ids must come out dense and in order.
    let n_facts = d.count(8, "fact")?;
    let mut database = Database::new();
    for i in 0..n_facts {
        let predicate = d.str()?;
        let arity = d.count(1, "fact value")?;
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(d.value()?);
        }
        let (id, fresh) = database.insert(Fact { predicate, values });
        if !fresh || id.0 as usize != i {
            return Err(malformed(format!(
                "fact {} is a duplicate in the snapshot",
                i
            )));
        }
    }
    let n_inactive = d.count(4, "inactive fact")?;
    for _ in 0..n_inactive {
        let id = d.fact_id(n_facts, "inactive set")?;
        database.deactivate(id);
    }

    let mut graph = ChaseGraph::new();
    let n_ext = d.count(4, "extensional fact")?;
    for _ in 0..n_ext {
        let id = d.fact_id(n_facts, "extensional set")?;
        graph.mark_extensional(id);
    }
    let n_layouts = d.count(4, "layout")?;
    let mut layouts = Vec::with_capacity(n_layouts);
    for _ in 0..n_layouts {
        layouts.push(d.layout()?);
    }
    let n_ders = d.count(36, "derivation")?;
    for _ in 0..n_ders {
        let rule = RuleId(d.u32()? as usize);
        let layout = rules.get(rule.0).ok_or_else(|| {
            malformed(format!(
                "derivation of rule {} of a {}-rule program",
                rule.0,
                rules.len()
            ))
        })?;
        let conclusion = d.fact_id(n_facts, "derivation conclusion")?;
        let round = d.u32()?;
        let contributors = d.u32()?;
        let n_prem = d.count(4, "premise")?;
        let mut premises = Vec::with_capacity(n_prem);
        for _ in 0..n_prem {
            premises.push(d.fact_id(n_facts, "derivation premise")?);
        }
        let bindings = d.row(&layouts)?;
        let contributor_bindings = d.rows(&layouts)?;
        if bindings.layout() != layout.head() {
            return Err(malformed(format!(
                "derivation row {:?} is not in rule {}'s head layout {:?}",
                bindings.layout(),
                rule.0,
                layout.head()
            )));
        }
        if !contributor_bindings.is_empty() && contributor_bindings.layout() != layout.matched {
            return Err(malformed(format!(
                "contributor rows {:?} are not in rule {}'s match layout {:?}",
                contributor_bindings.layout(),
                rule.0,
                layout.matched
            )));
        }
        graph.record(Derivation {
            rule,
            premises,
            conclusion,
            round,
            contributors,
            bindings,
            contributor_bindings,
        });
    }

    let n_viol = d.count(4, "violation")?;
    let mut violations = Vec::with_capacity(n_viol);
    for _ in 0..n_viol {
        violations.push(d.str()?.as_str().to_string());
    }
    let rounds = d.u64()? as usize;
    let derived_facts = d.u64()? as usize;
    let approx_bytes = d.u64()? as usize;
    database.restore_approx_bytes(approx_bytes);

    let resume = match d.u8()? {
        0 => None,
        1 => {
            let n = d.count(8, "watermark")?;
            let mut last_seen_len = Vec::with_capacity(n);
            for _ in 0..n {
                last_seen_len.push(d.u64()? as usize);
            }
            let stratum = d.u32()? as usize;
            let completed_rounds = d.u32()?;
            let pending = match d.u8()? {
                0 => None,
                1 => Some(PendingRound {
                    round: d.u32()?,
                    next_rule: d.u32()? as usize,
                    changed_so_far: d.u8()? != 0,
                }),
                t => return Err(malformed(format!("unknown pending-round tag {}", t))),
            };
            Some(EngineResume {
                last_seen_len,
                stratum,
                completed_rounds,
                pending,
            })
        }
        t => return Err(malformed(format!("unknown resume tag {}", t))),
    };

    let report = decode_report(&mut d)?;
    if d.pos != d.buf.len() {
        return Err(malformed(format!(
            "{} undecoded bytes after the report",
            d.buf.len() - d.pos
        )));
    }

    Ok(ChaseOutcome {
        database,
        graph,
        rounds,
        derived_facts,
        violations,
        report,
        resume,
    })
}

fn decode_report(d: &mut Dec<'_>) -> DecResult<RunReport> {
    let termination = match d.u8()? {
        0 => Termination::Completed,
        1 => {
            let budget = match d.u8()? {
                0 => Budget::Rounds(d.u64()?),
                1 => Budget::Facts(d.u64()?),
                2 => Budget::MemoryBytes(d.u64()?),
                3 => Budget::Deadline(Duration::from_millis(d.u64()?)),
                4 => {
                    d.u64()?;
                    Budget::Cancelled
                }
                t => return Err(malformed(format!("unknown budget tag {}", t))),
            };
            Termination::Exhausted {
                budget,
                observed: d.u64()?,
            }
        }
        2 => Termination::Suspended,
        3 => Termination::Panicked {
            rule: d.str()?.as_str().to_string(),
        },
        t => return Err(malformed(format!("unknown termination tag {}", t))),
    };
    let threads = d.u64()? as usize;
    let rounds = d.u32()?;
    let strata = d.u32()?;
    let n_rules = d.count(108, "rule stats")?;
    let mut rules = Vec::with_capacity(n_rules);
    for _ in 0..n_rules {
        let label = d.str()?.as_str().to_string();
        let mut r = RuleStats {
            label,
            ..RuleStats::default()
        };
        r.matches_enumerated = d.u64()?;
        r.firings = d.u64()?;
        r.facts_committed = d.u64()?;
        r.duplicates_preempted = d.u64()?;
        r.isomorphism_checks = d.u64()?;
        r.satisfaction_preempted = d.u64()?;
        r.index_probes = d.u64()?;
        r.scans = d.u64()?;
        r.composite_probes = d.u64()?;
        r.negation_probes = d.u64()?;
        r.negation_scans = d.u64()?;
        r.satisfaction_probes = d.u64()?;
        r.satisfaction_scans = d.u64()?;
        rules.push(r);
    }
    let n_rounds = d.count(40, "round stats")?;
    let mut rounds_log = Vec::with_capacity(n_rounds);
    // Struct-literal fields evaluate in written order, which is the
    // serialized order.
    for _ in 0..n_rounds {
        rounds_log.push(RoundStats {
            round: d.u32()?,
            stratum: d.u32()?,
            matches: d.u64()?,
            facts_committed: d.u64()?,
            facts_end: d.u64()?,
            duration_ns: d.u64()?,
        });
    }
    let timings = PhaseTimings {
        index_build_ns: d.u64()?,
        match_ns: d.u64()?,
        merge_ns: d.u64()?,
        commit_ns: d.u64()?,
        aggregate_ns: d.u64()?,
        checkpoint_save_ns: d.u64()?,
        checkpoint_restore_ns: d.u64()?,
        total_ns: d.u64()?,
    };
    let peak = PeakStats {
        facts: d.u64()?,
        derivations: d.u64()?,
        match_buffer: d.u64()?,
        approx_bytes: d.u64()?,
    };
    let autosaves = d.u64()?;
    Ok(RunReport {
        termination,
        threads,
        rounds,
        strata,
        rules,
        rounds_log,
        timings,
        peak,
        autosaves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn small_outcome() -> (crate::program::Program, ChaseOutcome) {
        let parsed = parse_program(
            r#"
            o1: own(x, y, s), s > 0.5 -> control(x, y).
            o2: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).
            own("A", "B", 0.6).
            own("B", "C", 0.8).
        "#,
        )
        .unwrap();
        let db: Database = parsed.facts.into_iter().collect();
        let out = crate::engine::ChaseSession::new(&parsed.program)
            .run(db)
            .unwrap();
        (parsed.program, out)
    }

    fn rule_layouts(program: &crate::program::Program) -> Vec<RuleLayout> {
        program.rules().iter().map(RuleLayout::of).collect()
    }

    /// Structural equality of two outcomes, at the level the determinism
    /// contract promises: facts (with activity), provenance, counters.
    fn assert_same(a: &ChaseOutcome, b: &ChaseOutcome) {
        assert_eq!(a.database.len(), b.database.len());
        for (id, fact) in a.database.iter() {
            assert_eq!(fact, b.database.fact(id));
            assert_eq!(a.database.is_active(id), b.database.is_active(id));
        }
        assert_eq!(a.database.approx_bytes(), b.database.approx_bytes());
        assert_eq!(a.graph.derivations().len(), b.graph.derivations().len());
        for (x, y) in a.graph.derivations().iter().zip(b.graph.derivations()) {
            assert_eq!(x.rule, y.rule);
            assert_eq!(x.premises, y.premises);
            assert_eq!(x.conclusion, y.conclusion);
            assert_eq!(x.round, y.round);
            assert_eq!(x.contributors, y.contributors);
            assert_eq!(x.bindings, y.bindings);
            assert_eq!(x.contributor_bindings, y.contributor_bindings);
        }
        assert_eq!(a.graph.approx_bytes(), b.graph.approx_bytes());
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.derived_facts, b.derived_facts);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn body_round_trips_bit_for_bit() {
        let (program, out) = small_outcome();
        let parts = SnapshotParts {
            db: &out.database,
            graph: &out.graph,
            rounds: out.rounds as u64,
            derived_facts: out.derived_facts as u64,
            violations: &out.violations,
            report: &out.report,
            resume: None,
        };
        let body = encode_body(&parts);
        let decoded = decode_body(&body, &rule_layouts(&program)).unwrap();
        assert_same(&out, &decoded);
        assert!(decoded.resume.is_none());
        // Re-encoding the decoded outcome reproduces identical bytes.
        let parts2 = SnapshotParts {
            db: &decoded.database,
            graph: &decoded.graph,
            rounds: decoded.rounds as u64,
            derived_facts: decoded.derived_facts as u64,
            violations: &decoded.violations,
            report: &decoded.report,
            resume: None,
        };
        assert_eq!(body, encode_body(&parts2));
    }

    #[test]
    fn fingerprint_tracks_program_and_semantics_only() {
        let (program, _) = small_outcome();
        let other = parse_program("r: p(x) -> q(x).").unwrap().program;
        let base = ChaseConfig::default();
        let fp = fingerprint(&program, &base);
        assert_eq!(fp, fingerprint(&program, &base.clone().with_threads(8)));
        let budgeted = base
            .clone()
            .with_guard(crate::telemetry::RunGuard::new().with_max_rounds(3));
        assert_eq!(fp, fingerprint(&program, &budgeted));
        assert_ne!(fp, fingerprint(&other, &base));
        let pruned = fingerprint(&program, &base.clone().with_goal_cone("control"));
        assert_ne!(fp, pruned);
        assert_ne!(
            pruned,
            fingerprint(&program, &base.clone().with_goal_cone("own"))
        );
        // Pinned to the value computed before the index-use, semi-naive
        // and fail-on-violation flags became constant bytes: snapshots
        // written back then must still pass the fingerprint check.
        assert_eq!(fp, 0x5bf8_70fd_b439_730b);
    }

    #[test]
    fn truncated_body_is_malformed_not_a_panic() {
        let (program, out) = small_outcome();
        let parts = SnapshotParts {
            db: &out.database,
            graph: &out.graph,
            rounds: out.rounds as u64,
            derived_facts: out.derived_facts as u64,
            violations: &out.violations,
            report: &out.report,
            resume: None,
        };
        let body = encode_body(&parts);
        for cut in [0, 1, body.len() / 2, body.len() - 1] {
            assert!(
                matches!(
                    decode_body(&body[..cut], &rule_layouts(&program)),
                    Err(CheckpointError::Malformed { .. })
                ),
                "cut at {} must be malformed",
                cut
            );
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}

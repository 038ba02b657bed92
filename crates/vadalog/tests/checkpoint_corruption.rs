//! The checkpoint corruption matrix: every way a snapshot file can be
//! damaged — truncation, torn writes, bit flips in the body or the
//! checksum, stale format versions, a snapshot of a different program,
//! an empty file — must surface as its *specific*
//! [`CheckpointError`] variant, and never as a panic.

use std::path::{Path, PathBuf};
use vadalog::checkpoint::{self, CheckpointError};
use vadalog::prelude::*;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("checkpoint_corruption");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn control_program() -> ParsedProgram {
    parse_program(
        r#"
        o1: own(x, y, s), s > 0.5 -> control(x, y).
        o2: company(x) -> control(x, x).
        o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).
        company("A").
        own("A", "B", 0.6).
        own("B", "C", 0.3).
        own("A", "C", 0.4).
    "#,
    )
    .unwrap()
}

/// A valid snapshot of a completed run, as raw bytes plus the pieces
/// needed to re-load it.
fn snapshot(name: &str) -> (PathBuf, Vec<u8>, Program, ChaseConfig) {
    let parsed = control_program();
    let db: Database = parsed.facts.into_iter().collect();
    let session = ChaseSession::new(&parsed.program);
    let out = session.run(db).unwrap();
    let path = tmp(name);
    session.checkpoint_to(&out, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes, parsed.program, ChaseConfig::default())
}

fn load(path: &Path, program: &Program, config: &ChaseConfig) -> Result<(), CheckpointError> {
    checkpoint::load(path, program, config).map(|_| ())
}

#[test]
fn a_pristine_snapshot_round_trips() {
    let (path, _, program, config) = snapshot("pristine.ckpt");
    let loaded = checkpoint::load(&path, &program, &config).unwrap();
    assert!(!loaded.is_partial());
    let fresh: Database = control_program().facts.into_iter().collect();
    let reference = ChaseSession::new(&program).run(fresh).unwrap();
    assert_eq!(loaded.database.len(), reference.database.len());
    assert_eq!(
        loaded.graph.derivations().len(),
        reference.graph.derivations().len()
    );
    // Timings differ between runs; the deterministic counters must not.
    assert_eq!(loaded.report.rounds, reference.report.rounds);
    assert_eq!(loaded.report.termination, reference.report.termination);
}

#[test]
fn an_empty_file_is_reported_as_empty() {
    let (path, _, program, config) = snapshot("empty.ckpt");
    std::fs::write(&path, b"").unwrap();
    assert!(matches!(
        load(&path, &program, &config),
        Err(CheckpointError::Empty)
    ));
}

#[test]
fn a_missing_file_is_an_io_error() {
    let (_, _, program, config) = snapshot("present.ckpt");
    assert!(matches!(
        load(&tmp("never-written.ckpt"), &program, &config),
        Err(CheckpointError::Io(_))
    ));
}

#[test]
fn every_truncation_point_is_detected() {
    let (path, bytes, program, config) = snapshot("truncated.ckpt");
    // A few header cuts, plus body cuts including one-byte-short.
    for cut in [1, 8, 20, 35, 36, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(
            matches!(
                load(&path, &program, &config),
                Err(CheckpointError::Truncated { .. })
            ),
            "cut at {cut} of {} not reported as truncation",
            bytes.len()
        );
    }
}

#[test]
fn a_flipped_body_byte_fails_the_checksum() {
    let (path, bytes, program, config) = snapshot("bodyflip.ckpt");
    // Flip one byte in the body (header is 36 bytes).
    for pos in [36, 36 + (bytes.len() - 36) / 2, bytes.len() - 1] {
        let mut damaged = bytes.clone();
        damaged[pos] ^= 0x40;
        std::fs::write(&path, &damaged).unwrap();
        assert!(
            matches!(
                load(&path, &program, &config),
                Err(CheckpointError::ChecksumMismatch { .. })
            ),
            "body flip at {pos} not caught by the checksum"
        );
    }
}

#[test]
fn a_flipped_checksum_byte_is_a_checksum_mismatch() {
    let (path, mut bytes, program, config) = snapshot("sumflip.ckpt");
    bytes[28] ^= 0x01; // first byte of the stored checksum
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        load(&path, &program, &config),
        Err(CheckpointError::ChecksumMismatch { .. })
    ));
}

#[test]
fn a_stale_format_version_is_rejected_by_number() {
    let (path, mut bytes, program, config) = snapshot("version.ckpt");
    bytes[8] = bytes[8].wrapping_add(1); // version is LE at offset 8
    std::fs::write(&path, &bytes).unwrap();
    match load(&path, &program, &config) {
        Err(CheckpointError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, checkpoint::FORMAT_VERSION + 1);
            assert_eq!(supported, checkpoint::FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn a_version_2_snapshot_is_rejected() {
    // Version 2 stored bindings as name/value maps; version 3 stores
    // positional rows and reads no earlier format.
    let (path, mut bytes, program, config) = snapshot("version2.ckpt");
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match load(&path, &program, &config) {
        Err(CheckpointError::UnsupportedVersion { found, supported }) => {
            assert_eq!((found, supported), (2, 3));
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// Saves a completed run of the control program whose derivations went
/// through `edit`, with a valid checksum and fingerprint, and loads it.
fn load_edited(
    name: &str,
    edit: impl Fn(&ChaseGraph, &mut Derivation),
) -> Result<(), CheckpointError> {
    let parsed = control_program();
    let db: Database = parsed.facts.into_iter().collect();
    let session = ChaseSession::new(&parsed.program);
    let mut out = session.run(db).unwrap();
    let mut graph = ChaseGraph::new();
    for (id, _) in out.database.iter() {
        if out.graph.is_extensional(id) {
            graph.mark_extensional(id);
        }
    }
    for d in out.graph.derivations() {
        let mut d = d.clone();
        edit(&out.graph, &mut d);
        graph.record(d);
    }
    out.graph = graph;
    let path = tmp(name);
    session.checkpoint_to(&out, &path).unwrap();
    load(&path, &parsed.program, &ChaseConfig::default())
}

/// The first derivation of rule `rule` in `graph`.
fn first_of(graph: &ChaseGraph, rule: usize) -> &Derivation {
    graph
        .derivations()
        .iter()
        .find(|d| d.rule == RuleId(rule))
        .expect("the control run fires every rule")
}

#[test]
fn derivation_rows_outside_their_rules_layouts_are_malformed() {
    // Rebuilding the graph unchanged yields a loadable snapshot.
    assert!(load_edited("rows-unchanged.ckpt", |_, _| {}).is_ok());
    // o1's steps carrying o2's one-slot row: a reader indexing o1's
    // slots would run past its end.
    let narrow = load_edited("rows-narrow.ckpt", |graph, d| {
        if d.rule == RuleId(0) {
            d.bindings = first_of(graph, 1).bindings.clone();
        }
    });
    assert!(
        matches!(narrow, Err(CheckpointError::Malformed { .. })),
        "{narrow:?}"
    );
    // o3's contributor block in o1's match layout.
    let block = load_edited("rows-block.ckpt", |graph, d| {
        if d.rule == RuleId(2) {
            let row = &first_of(graph, 0).bindings;
            d.contributor_bindings = Rows::new(row.layout(), std::iter::once(row.values()));
        }
    });
    assert!(
        matches!(block, Err(CheckpointError::Malformed { .. })),
        "{block:?}"
    );
    // A step of a rule the program does not have.
    let foreign = load_edited("rows-rule.ckpt", |_, d| {
        if d.rule == RuleId(1) {
            d.rule = RuleId(7);
        }
    });
    assert!(
        matches!(foreign, Err(CheckpointError::Malformed { .. })),
        "{foreign:?}"
    );
}

#[test]
fn a_snapshot_of_a_different_program_is_a_fingerprint_mismatch() {
    let (path, _, _, config) = snapshot("foreign.ckpt");
    let other = parse_program("r: p(x) -> q(x).").unwrap().program;
    assert!(matches!(
        load(&path, &other, &config),
        Err(CheckpointError::FingerprintMismatch { .. })
    ));
    // Thread count is not part of the fingerprint; the goal cone is.
    let (path, _, program, config) = snapshot("config.ckpt");
    assert!(load(&path, &program, &config.clone().with_threads(7)).is_ok());
    assert!(matches!(
        load(&path, &program, &config.clone().with_goal_cone("control")),
        Err(CheckpointError::FingerprintMismatch { .. })
    ));
}

/// Every fact with its liveness and every derivation, in order.
fn shape(out: &ChaseOutcome) -> String {
    let facts = out
        .database
        .iter()
        .map(|(id, f)| format!("{id} {f} {}", out.database.is_active(id)));
    let steps = out.graph.derivations().iter().map(|d| {
        format!(
            "r{} {:?} -> {} round={}",
            d.rule.0, d.premises, d.conclusion, d.round
        )
    });
    facts.chain(steps).collect::<Vec<_>>().join("\n")
}

/// A run pruned to a goal cone skips the rules outside it, so its
/// snapshot is foreign to an unpruned session: resumed there, it would
/// complete without ever running the pruned rules of its finished
/// strata (`p("A")`, `p("B")` here). Under the same cone it resumes to
/// the uninterrupted pruned run.
#[test]
fn a_snapshot_of_a_pruned_run_resumes_only_under_its_cone() {
    let parsed = parse_program(
        r#"
        a: e(x) -> p(x).
        c: f(x), not h(x) -> q(x).
        d: q(x), g(x, y) -> q(y).
        e("A"). e("B"). f("1"). g("1", "2"). g("2", "3"). g("3", "4").
    "#,
    )
    .unwrap();
    let program = &parsed.program;
    let db: Database = parsed.facts.iter().cloned().collect();
    let pruned = ChaseConfig::default().with_goal_cone("q");
    let tripped = ChaseSession::new(program)
        .with_config(pruned.clone())
        .with_guard(RunGuard::new().with_max_rounds(2));
    let Err(ChaseError::ResourceExhausted { partial, .. }) = tripped.run(db.clone()) else {
        panic!("the 2-round guard trips the pruned run");
    };
    let path = tmp("pruned.ckpt");
    tripped.checkpoint_to(&partial, &path).unwrap();
    assert!(matches!(
        load(&path, program, &ChaseConfig::default()),
        Err(CheckpointError::FingerprintMismatch { .. })
    ));
    assert!(matches!(
        load(&path, program, &ChaseConfig::default().with_goal_cone("p")),
        Err(CheckpointError::FingerprintMismatch { .. })
    ));

    let session = ChaseSession::new(program).with_config(pruned);
    let resumed = session.resume_from_path(&path).unwrap();
    let uninterrupted = session.run(db).unwrap();
    assert_eq!(shape(&resumed), shape(&uninterrupted));
}

#[test]
fn wrong_magic_is_not_a_checkpoint() {
    let (path, mut bytes, program, config) = snapshot("magic.ckpt");
    bytes[0] = b'X';
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        load(&path, &program, &config),
        Err(CheckpointError::BadMagic)
    ));
}

#[test]
fn trailing_garbage_is_malformed() {
    let (path, mut bytes, program, config) = snapshot("trailing.ckpt");
    bytes.extend_from_slice(b"extra");
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        load(&path, &program, &config),
        Err(CheckpointError::Malformed { .. })
    ));
}

#[test]
fn session_load_errors_carry_no_partial_outcome() {
    let (path, mut bytes, program, config) = snapshot("session.ckpt");
    bytes[40] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let session = ChaseSession::new(&program).with_config(config);
    match session.resume_from_path(&path) {
        Err(ChaseError::Checkpoint { source, partial }) => {
            assert!(matches!(source, CheckpointError::ChecksumMismatch { .. }));
            assert!(partial.is_none());
        }
        other => panic!("expected ChaseError::Checkpoint, got {other:?}"),
    }
}

//! Integration tests of the `ekg-explain` command-line front end: drives
//! the compiled binary on a temporary program file.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Writes the demo program to a file of its own: tests run in parallel,
/// and one rewriting a shared file could truncate it under another's read.
fn write_demo() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("ekg_explain_cli_demo_{n}.vada"));
    std::fs::write(
        &path,
        r#"
        o1: own(x, y, s), s > 0.5 -> control(x, y).
        o2: company(x) -> control(x, x).
        o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).

        company("A"). company("B"). company("C").
        own("A", "B", 0.6).
        own("B", "C", 0.3).
        own("A", "C", 0.4).
    "#,
    )
    .expect("write demo program");
    path
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ekg-explain"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn analyze_prints_reasoning_paths() {
    let path = write_demo();
    let (ok, stdout, _) = run(&["analyze", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("recursive"));
    assert!(stdout.contains("{o1,o2,o3}*"));
    assert!(stdout.contains("critical nodes: control"));
}

#[test]
fn chase_lists_derived_goal_facts() {
    let path = write_demo();
    let (ok, stdout, _) = run(&["chase", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("control(\"A\",\"C\")"), "{stdout}");
    assert!(stdout.contains("derived"));
}

#[test]
fn explain_produces_complete_text() {
    let path = write_demo();
    let (ok, stdout, _) = run(&[
        "explain",
        path.to_str().unwrap(),
        "--fact",
        r#"control("A","C")"#,
    ]);
    assert!(ok);
    for needle in ["60%", "30%", "40%", "70%"] {
        assert!(stdout.contains(needle), "missing {needle}: {stdout}");
    }
    assert!(!stdout.contains('<'), "unsubstituted token: {stdout}");
}

#[test]
fn templates_render_with_tokens() {
    let path = write_demo();
    let (ok, stdout, _) = run(&["templates", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains('<'));
    assert!(stdout.contains("[{o1}]"));
}

#[test]
fn report_explains_every_derived_fact() {
    let path = write_demo();
    let (ok, stdout, _) = run(&["report", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.starts_with("Business report"));
    assert!(stdout.contains("control(\"A\",\"C\")"), "{stdout}");
    assert!(!stdout.contains('<'), "unsubstituted token: {stdout}");
}

#[test]
fn whynot_explains_absences() {
    let path = write_demo();
    let (ok, stdout, _) = run(&[
        "whynot",
        path.to_str().unwrap(),
        "--fact",
        r#"control("B","A")"#,
    ]);
    assert!(ok);
    assert!(stdout.contains("was not derived"), "{stdout}");
    // For a derived fact, it points at `explain` instead.
    let (ok, stdout, _) = run(&[
        "whynot",
        path.to_str().unwrap(),
        "--fact",
        r#"control("A","B")"#,
    ]);
    assert!(ok);
    assert!(stdout.contains("IS derived"), "{stdout}");
}

#[test]
fn dot_outputs_graphviz() {
    let path = write_demo();
    let (ok, stdout, _) = run(&["dot", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.starts_with("digraph dependency_graph {"));
    let (ok, stdout, _) = run(&["dot", path.to_str().unwrap(), "--chase"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph chase_graph {"));
}

#[test]
fn errors_exit_nonzero_with_usage() {
    let (ok, _, stderr) = run(&["explain", "/nonexistent/file.vada", "--fact", "p()"]);
    assert!(!ok);
    assert!(stderr.contains("error:"));
    assert!(stderr.contains("usage:"));
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("missing program file") || stderr.contains("unknown command"));
}

#[test]
fn extensional_fact_query_reports_cleanly() {
    let path = write_demo();
    let (ok, _, stderr) = run(&[
        "explain",
        path.to_str().unwrap(),
        "--fact",
        r#"own("A","B",0.6)"#,
    ]);
    assert!(!ok);
    assert!(stderr.contains("extensional"), "{stderr}");
}

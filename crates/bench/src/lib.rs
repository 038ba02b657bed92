//! # bench
//!
//! The experiment harness: one runner per table and figure of the paper's
//! evaluation (Sec. 6), shared between the `fig*` binaries, the Criterion
//! benches and the integration tests.
//!
//! | Paper artefact | Runner | Binary |
//! |---|---|---|
//! | Fig. 10 (reasoning paths)        | [`fig10`]   | `fig10_reasoning_paths` |
//! | Fig. 6/7/11 (templates/glossary) | [`catalog`] | `templates_catalog` |
//! | Fig. 14 (comprehension study)    | [`fig14`]   | `fig14_comprehension` |
//! | Fig. 15/16 (expert study)        | [`fig16`]   | `fig16_expert_study` |
//! | Fig. 17 (LLM omissions)          | [`fig17`]   | `fig17_omissions` |
//! | Fig. 18 (running times)          | [`fig18`]   | `fig18_performance` |
//!
//! The perf bins (`goal_directed`, `incremental_bench`, `serving`,
//! `serve_overload`, `obs_overhead`, `checkpoint_overhead`) share
//! [`measure`]: one paired-sample loop, one summary and one result
//! writer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod fig10;
pub mod fig14;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod measure;

/// Renders a markdown-ish table: header row plus aligned data rows.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{:<width$}", c, width = w))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(&sep, &widths));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a", "bbbb"],
            &[
                vec!["x".into(), "y".into()],
                vec!["long".into(), "z".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }
}

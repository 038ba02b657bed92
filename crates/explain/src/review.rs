//! Human-in-the-loop template review (Sec. 4.4).
//!
//! Templates for recurring KG applications can be pre-computed and
//! checked *once for all* by the experts who defined the application.
//! This module round-trips templates through a plain-text review file: the
//! expert exports the generated templates, edits the prose freely (tokens
//! in `<angle brackets>` must stay), and imports the file back. Every
//! edited template passes the same anti-omission check as automated
//! enhancement; entries that lost tokens are rejected individually and
//! keep their previous template.

use crate::artifacts::{ProgramArtifacts, TemplateFlavor};
use std::sync::Arc;

/// Marker line opening a review entry.
const HEADER_PREFIX: &str = "[template ";

/// Exports the enhanced templates of `artifacts` as an editable review
/// file.
pub fn export(artifacts: &ProgramArtifacts) -> String {
    let mut out = String::new();
    out.push_str("# ekg-explain template review file\n");
    out.push_str("# Edit the prose freely; every <token> must remain somewhere in its entry.\n");
    out.push_str("# Lines starting with '#' are ignored.\n\n");
    for (i, template) in artifacts
        .templates(TemplateFlavor::Enhanced)
        .iter()
        .enumerate()
    {
        let label = artifacts.analysis().paths[i].label(artifacts.program());
        out.push_str(&format!("{HEADER_PREFIX}{i} {label}]\n"));
        out.push_str(&template.render());
        out.push_str("\n\n");
    }
    out
}

/// One rejected entry of an import: the template index and its missing
/// tokens.
#[derive(Clone, Debug, PartialEq)]
pub struct Rejection {
    /// Index of the template in the artifacts.
    pub index: usize,
    /// Token display names missing from the edited text.
    pub missing: Vec<String>,
}

/// The result of importing a review file.
#[derive(Clone, Debug, Default)]
pub struct ReviewReport {
    /// Number of templates replaced by reviewed text.
    pub applied: usize,
    /// Entries rejected by the token-completeness check (their previous
    /// templates are kept).
    pub rejected: Vec<Rejection>,
    /// Header lines that did not parse (malformed index).
    pub malformed: Vec<String>,
}

/// Parses a review file into `(index, text)` entries.
pub fn parse_review_file(text: &str) -> (Vec<(usize, String)>, Vec<String>) {
    let mut entries: Vec<(usize, String)> = Vec::new();
    let mut malformed = Vec::new();
    let mut current: Option<(usize, String)> = None;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('#') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix(HEADER_PREFIX) {
            if let Some((idx, _)) = rest.split_once(' ').or_else(|| rest.split_once(']')) {
                if let Ok(i) = idx.trim_end_matches(']').parse::<usize>() {
                    if let Some(done) = current.take() {
                        entries.push(done);
                    }
                    current = Some((i, String::new()));
                    continue;
                }
            }
            malformed.push(trimmed.to_owned());
            continue;
        }
        if let Some((_, buf)) = current.as_mut() {
            if !trimmed.is_empty() {
                if !buf.is_empty() {
                    buf.push(' ');
                }
                buf.push_str(trimmed);
            }
        }
    }
    if let Some(done) = current.take() {
        entries.push(done);
    }
    (entries, malformed)
}

/// Imports a review file into `artifacts`: each entry replaces the
/// enhanced template at its index iff the edited text retains every token.
///
/// When the artifacts are shared (a cache hit, a clone of the `Arc`),
/// the first entry copy-on-writes a private edition through
/// `Arc::make_mut`, so other holders and the cache keep the unedited
/// templates.
pub fn import(artifacts: &mut Arc<ProgramArtifacts>, text: &str) -> ReviewReport {
    let (entries, malformed) = parse_review_file(text);
    let mut report = ReviewReport {
        malformed,
        ..ReviewReport::default()
    };
    for (index, edited) in entries {
        match Arc::make_mut(artifacts).replace_enhanced_template(index, &edited) {
            Ok(()) => report.applied += 1,
            Err(missing) => report.rejected.push(Rejection { index, missing }),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glossary::DomainGlossary;
    use vadalog::parse_program;

    fn artifacts() -> Arc<ProgramArtifacts> {
        let program = parse_program(
            "r1: own(x, y, s), s > 0.5 -> control(x, y).
             r2: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).",
        )
        .unwrap()
        .program;
        ProgramArtifacts::builder(program, "control")
            .with_glossary(&DomainGlossary::new())
            .build_cached()
            .unwrap()
    }

    #[test]
    fn export_import_round_trips_unchanged() {
        let mut p = artifacts();
        let file = export(&p);
        assert!(file.contains("[template 0"));
        let report = import(&mut p, &file);
        assert_eq!(report.applied, p.templates(TemplateFlavor::Enhanced).len());
        assert!(report.rejected.is_empty());
        assert!(report.malformed.is_empty());
    }

    #[test]
    fn edited_prose_is_applied() {
        let mut p = artifacts();
        let n = p.templates(TemplateFlavor::Enhanced).len();
        let mut file = String::from("[template 0 edited]\n");
        // Keep all tokens of template 0 but change the prose.
        let t0 = p.templates(TemplateFlavor::Enhanced)[0].clone();
        let tokens: Vec<String> = t0
            .classes
            .iter()
            .map(|c| format!("<{}>", c.display))
            .collect();
        file.push_str(&format!(
            "REVIEWED: entity {} holds {} of {} so control follows.\n",
            tokens[0],
            tokens.get(2).cloned().unwrap_or_default(),
            tokens.get(1).cloned().unwrap_or_default(),
        ));
        let report = import(&mut p, &file);
        assert_eq!(report.applied, 1, "{report:?}");
        assert!(p.templates(TemplateFlavor::Enhanced)[0]
            .render()
            .starts_with("REVIEWED:"));
        assert_eq!(p.templates(TemplateFlavor::Enhanced).len(), n);
    }

    #[test]
    fn token_loss_is_rejected() {
        let mut p = artifacts();
        let file = "[template 0 broken]\nThis text has no tokens at all.\n";
        let report = import(&mut p, file);
        assert_eq!(report.applied, 0);
        assert_eq!(report.rejected.len(), 1);
        assert!(!report.rejected[0].missing.is_empty());
        // The previous template is kept.
        assert!(p.templates(TemplateFlavor::Enhanced)[0]
            .render()
            .contains('<'));
    }

    #[test]
    fn malformed_headers_are_reported() {
        let mut p = artifacts();
        let report = import(&mut p, "[template abc oops]\nwhatever\n");
        assert_eq!(report.malformed.len(), 1);
    }

    #[test]
    fn out_of_range_index_is_rejected() {
        let mut p = artifacts();
        let report = import(&mut p, "[template 999 x]\n<nothing>\n");
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].index, 999);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let (entries, malformed) = parse_review_file(
            "# comment\n\n[template 1 label]\n# inner comment\nline one\nline two\n",
        );
        assert!(malformed.is_empty());
        assert_eq!(entries, vec![(1, "line one line two".to_owned())]);
    }
}

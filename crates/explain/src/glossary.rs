//! The domain glossary: a data dictionary mapping predicates to natural
//! language (Sec. 4.2, Fig. 7 and Fig. 11 of the paper).
//!
//! Each entry describes one predicate with a sentence pattern whose
//! placeholders `<name>` correspond positionally to the predicate's
//! arguments, plus an optional value format per argument (shares rendered
//! as percentages, amounts as millions of euros, ...).

use std::collections::HashMap;
use std::fmt::Write;
use vadalog::{Symbol, Value};

/// How to render a constant of a glossary parameter in explanation text.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ValueFormat {
    /// Default `Display` rendering (strings unquoted).
    #[default]
    Plain,
    /// Numeric value rendered as millions of euros: `11` -> `11M euros`.
    MillionsEuro,
    /// Fractional share rendered as a percentage: `0.57` -> `57%`.
    Percent,
}

impl ValueFormat {
    /// Renders `value` under this format.
    pub fn render(self, value: &Value) -> String {
        let mut out = String::new();
        self.render_into(value, &mut out);
        out
    }

    /// Appends `value` rendered under this format to `out`: the one
    /// value-formatting routine behind templates, verbalizations and
    /// studies.
    pub fn render_into(self, value: &Value, out: &mut String) {
        match self {
            ValueFormat::Plain => match value {
                Value::Str(s) => out.push_str(s.as_str()),
                other => {
                    let _ = write!(out, "{other}");
                }
            },
            ValueFormat::MillionsEuro => match value.as_f64() {
                Some(x) if x.fract() == 0.0 => {
                    let _ = write!(out, "{}M euros", x as i64);
                }
                Some(x) => {
                    let _ = write!(out, "{x:.1}M euros");
                }
                None => ValueFormat::Plain.render_into(value, out),
            },
            ValueFormat::Percent => match value.as_f64() {
                Some(x) => {
                    let pct = x * 100.0;
                    if (pct - pct.round()).abs() < 1e-9 {
                        let _ = write!(out, "{}%", pct.round() as i64);
                    } else {
                        let _ = write!(out, "{pct:.1}%");
                    }
                }
                None => ValueFormat::Plain.render_into(value, out),
            },
        }
    }
}

/// One named parameter of a glossary entry.
#[derive(Clone, Debug)]
pub struct Param {
    /// The placeholder name used in the pattern (`<name>`).
    pub name: String,
    /// How constants bound to this argument are rendered.
    pub format: ValueFormat,
}

/// A glossary entry: the NL pattern of one predicate.
#[derive(Clone, Debug)]
pub struct GlossaryEntry {
    /// The described predicate.
    pub predicate: Symbol,
    /// One parameter per argument position.
    pub params: Vec<Param>,
    /// Sentence pattern with `<name>` placeholders, e.g.
    /// `"<f> is a financial institution with capital of <p>"`.
    pub pattern: String,
}

impl GlossaryEntry {
    /// Builds an entry; `params` are `(name, format)` pairs, positional.
    pub fn new(predicate: &str, params: &[(&str, ValueFormat)], pattern: &str) -> GlossaryEntry {
        GlossaryEntry {
            predicate: Symbol::new(predicate),
            params: params
                .iter()
                .map(|(n, f)| Param {
                    name: (*n).to_owned(),
                    format: *f,
                })
                .collect(),
            pattern: pattern.to_owned(),
        }
    }

    /// The arity implied by the entry.
    pub fn arity(&self) -> usize {
        self.params.len()
    }
}

/// The domain glossary: predicate -> entry.
///
/// Missing entries are tolerated everywhere: the verbalizer falls back to
/// a generic rendering so that a partially filled data dictionary still
/// yields complete (if less fluent) explanations.
#[derive(Clone, Debug, Default)]
pub struct DomainGlossary {
    entries: HashMap<Symbol, GlossaryEntry>,
}

impl DomainGlossary {
    /// An empty glossary.
    pub fn new() -> DomainGlossary {
        DomainGlossary::default()
    }

    /// Adds (or replaces) an entry.
    pub fn insert(&mut self, entry: GlossaryEntry) -> &mut Self {
        self.entries.insert(entry.predicate, entry);
        self
    }

    /// Builder-style insertion.
    pub fn with(mut self, entry: GlossaryEntry) -> Self {
        self.insert(entry);
        self
    }

    /// The entry for `predicate`, if present.
    pub fn entry(&self, predicate: Symbol) -> Option<&GlossaryEntry> {
        self.entries.get(&predicate)
    }

    /// The format of argument `position` of `predicate` (Plain if the
    /// glossary has no entry).
    pub fn format_of(&self, predicate: Symbol, position: usize) -> ValueFormat {
        self.entry(predicate)
            .and_then(|e| e.params.get(position))
            .map(|p| p.format)
            .unwrap_or_default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the glossary has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_formats_render_as_in_the_paper() {
        assert_eq!(
            ValueFormat::MillionsEuro.render(&Value::Int(11)),
            "11M euros"
        );
        assert_eq!(
            ValueFormat::MillionsEuro.render(&Value::Float(7.0)),
            "7M euros"
        );
        assert_eq!(ValueFormat::Percent.render(&Value::Float(0.57)), "57%");
        assert_eq!(ValueFormat::Percent.render(&Value::Float(0.125)), "12.5%");
        assert_eq!(
            ValueFormat::Plain.render(&Value::str("Irish Bank")),
            "Irish Bank"
        );
    }

    #[test]
    fn non_numeric_values_degrade_to_plain() {
        assert_eq!(ValueFormat::MillionsEuro.render(&Value::str("B")), "B");
        assert_eq!(ValueFormat::Percent.render(&Value::Bool(true)), "true");
    }

    #[test]
    fn glossary_lookup_and_formats() {
        let g = DomainGlossary::new().with(GlossaryEntry::new(
            "has_capital",
            &[("f", ValueFormat::Plain), ("p", ValueFormat::MillionsEuro)],
            "<f> is a financial institution with capital of <p>",
        ));
        let pred = Symbol::new("has_capital");
        assert!(g.entry(pred).is_some());
        assert_eq!(g.format_of(pred, 1), ValueFormat::MillionsEuro);
        assert_eq!(g.format_of(pred, 0), ValueFormat::Plain);
        assert_eq!(g.format_of(Symbol::new("missing"), 0), ValueFormat::Plain);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn insert_replaces_existing_entry() {
        let mut g = DomainGlossary::new();
        g.insert(GlossaryEntry::new(
            "p",
            &[("x", ValueFormat::Plain)],
            "old <x>",
        ));
        g.insert(GlossaryEntry::new(
            "p",
            &[("x", ValueFormat::Plain)],
            "new <x>",
        ));
        assert_eq!(g.len(), 1);
        assert_eq!(g.entry(Symbol::new("p")).unwrap().pattern, "new <x>");
    }
}

/// Error from parsing a glossary text file.
#[derive(Clone, PartialEq, Debug)]
pub struct GlossaryParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for GlossaryParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "glossary line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for GlossaryParseError {}

impl ValueFormat {
    /// Surface name used by the glossary file format.
    pub fn name(self) -> &'static str {
        match self {
            ValueFormat::Plain => "plain",
            ValueFormat::MillionsEuro => "meuro",
            ValueFormat::Percent => "percent",
        }
    }

    /// Parses a surface name.
    pub fn from_name(name: &str) -> Option<ValueFormat> {
        match name {
            "plain" => Some(ValueFormat::Plain),
            "meuro" => Some(ValueFormat::MillionsEuro),
            "percent" => Some(ValueFormat::Percent),
            _ => None,
        }
    }
}

impl DomainGlossary {
    /// Parses a data-dictionary text file: one entry per line,
    ///
    /// ```text
    /// # the stress-test dictionary
    /// has_capital(f, p:meuro): <f> is a financial institution with capital of <p>
    /// own(x, y, s:percent):    <x> owns <s> shares of <y>
    /// ```
    ///
    /// Parameter formats default to `plain`; `percent` renders 0.57 as
    /// "57%", `meuro` renders 11 as "11M euros". Lines starting with `#`
    /// and blank lines are ignored.
    pub fn parse(text: &str) -> Result<DomainGlossary, GlossaryParseError> {
        let mut glossary = DomainGlossary::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |message: &str| GlossaryParseError {
                line: line_no,
                message: message.to_owned(),
            };
            let open = line.find('(').ok_or_else(|| err("expected `(`"))?;
            let close = line.find(')').ok_or_else(|| err("expected `)`"))?;
            if close < open {
                return Err(err("`)` before `(`"));
            }
            let predicate = line[..open].trim();
            if predicate.is_empty() {
                return Err(err("missing predicate name"));
            }
            let params_text = &line[open + 1..close];
            let rest = line[close + 1..].trim_start();
            let pattern = rest
                .strip_prefix(':')
                .ok_or_else(|| err("expected `:` after the parameter list"))?
                .trim();
            if pattern.is_empty() {
                return Err(err("empty pattern"));
            }
            let mut params: Vec<(String, ValueFormat)> = Vec::new();
            if !params_text.trim().is_empty() {
                for p in params_text.split(',') {
                    let p = p.trim();
                    let (name, format) = match p.split_once(':') {
                        None => (p, ValueFormat::Plain),
                        Some((n, f)) => (
                            n.trim(),
                            ValueFormat::from_name(f.trim())
                                .ok_or_else(|| err(&format!("unknown format `{}`", f.trim())))?,
                        ),
                    };
                    if name.is_empty() {
                        return Err(err("empty parameter name"));
                    }
                    params.push((name.to_owned(), format));
                }
            }
            let param_refs: Vec<(&str, ValueFormat)> =
                params.iter().map(|(n, f)| (n.as_str(), *f)).collect();
            glossary.insert(GlossaryEntry::new(predicate, &param_refs, pattern));
        }
        Ok(glossary)
    }

    /// Renders the glossary back into the text file format (entries in
    /// predicate-name order).
    pub fn to_text(&self) -> String {
        let mut entries: Vec<&GlossaryEntry> = self.entries.values().collect();
        entries.sort_by_key(|e| e.predicate.as_str());
        let mut out = String::new();
        for e in entries {
            let params: Vec<String> = e
                .params
                .iter()
                .map(|p| {
                    if p.format == ValueFormat::Plain {
                        p.name.clone()
                    } else {
                        format!("{}:{}", p.name, p.format.name())
                    }
                })
                .collect();
            out.push_str(&format!(
                "{}({}): {}\n",
                e.predicate,
                params.join(", "),
                e.pattern
            ));
        }
        out
    }
}

#[cfg(test)]
mod text_format_tests {
    use super::*;

    const SAMPLE: &str = r#"
        # stress test dictionary
        has_capital(f, p:meuro): <f> is a financial institution with capital of <p>
        own(x, y, s:percent): <x> owns <s> shares of <y>
        default(f): <f> is in default
    "#;

    #[test]
    fn parse_reads_entries_and_formats() {
        let g = DomainGlossary::parse(SAMPLE).unwrap();
        assert_eq!(g.len(), 3);
        let cap = g.entry(Symbol::new("has_capital")).unwrap();
        assert_eq!(cap.params[1].format, ValueFormat::MillionsEuro);
        assert_eq!(g.format_of(Symbol::new("own"), 2), ValueFormat::Percent);
        assert_eq!(g.format_of(Symbol::new("own"), 0), ValueFormat::Plain);
    }

    #[test]
    fn to_text_round_trips() {
        let g = DomainGlossary::parse(SAMPLE).unwrap();
        let text = g.to_text();
        let g2 = DomainGlossary::parse(&text).unwrap();
        assert_eq!(g2.len(), g.len());
        assert_eq!(g2.to_text(), text);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = DomainGlossary::parse("own(x, y, s:bogus): <x>").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("bogus"));
        let err = DomainGlossary::parse("\n\nnoparens: text").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn zero_arity_entries_parse() {
        let g = DomainGlossary::parse("alarm(): the alarm is raised").unwrap();
        assert_eq!(g.entry(Symbol::new("alarm")).unwrap().arity(), 0);
    }

    #[test]
    fn missing_colon_is_rejected() {
        assert!(DomainGlossary::parse("own(x) pattern without colon").is_err());
    }
}

//! Explanation templates (Sec. 4.2).
//!
//! A template verbalizes one reasoning path: literal text interleaved with
//! *tokens* that map back to rule variables and are later replaced by the
//! constants of an actual chase derivation. Tokens are grouped into
//! *classes*: variables of different rules in the path that are forced
//! equal by the join between a producer's head and its consumer's body
//! atom share one class (the paper's templates implicitly rely on this,
//! e.g. `<f>` of rule α and `<d>` of rule β both denote the defaulted
//! entity in Π2).
//!
//! Two generation styles are provided:
//! * [`TemplateStyle::Deterministic`] — the paper's plain verbalizer
//!   output: every body atom of every rule, "Since {body}, then {head}.";
//! * [`TemplateStyle::Fluent`] — the privacy-preserving enhanced form:
//!   atoms already stated by an earlier rule of the path are dropped
//!   (unless that would lose a token) and connectives vary, yielding text
//!   comparable to the paper's LLM-enhanced templates without any LLM.

use crate::glossary::{DomainGlossary, ValueFormat};
use crate::structural::{ReasoningPath, Supply};
use crate::verbalizer::{agg_words, atom_segments, condition_segments, expr_segments, RawSeg};
use std::collections::{HashMap, HashSet};
use vadalog::{Program, RuleLayout, Slot, Symbol};

/// Template generation style.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TemplateStyle {
    /// Complete rule-by-rule verbalization (verbose, repetitive).
    Deterministic,
    /// Redundancy-eliminating fluent verbalization (token-preserving).
    Fluent,
}

/// A token class: the set of (rule occurrence, variable) pairs of the path
/// that always instantiate to the same constant(s).
#[derive(Clone, Debug)]
pub struct TokenClass {
    /// Unique display name within the template (shown as `<display>`).
    pub display: String,
    /// The member (occurrence, variable) pairs.
    pub members: Vec<TokenMember>,
    /// True iff the token expands to a list of contributor values
    /// (variables of a dashed aggregation that vary per contributor).
    pub list: bool,
    /// How constants bound to this token are rendered.
    pub format: ValueFormat,
}

/// One (rule occurrence, variable) member of a token class, with the
/// slots its value occupies in the rows of the occurrence's derivations,
/// resolved against the rule's [`RuleLayout`] when the template is
/// generated.
#[derive(Clone, Copy, Debug)]
pub struct TokenMember {
    /// The rule occurrence in the path.
    pub occ: usize,
    /// The variable of that occurrence.
    pub var: Symbol,
    /// The variable's slot in the derivation's head row, if it has one.
    pub head: Option<Slot>,
    /// Its slot in the contributor rows of an aggregate step, if the
    /// rule aggregates and a match binds it.
    pub contributor: Option<Slot>,
}

/// A piece of template text.
#[derive(Clone, PartialEq, Debug)]
pub enum Segment {
    /// Literal text.
    Text(String),
    /// A token, by class index.
    Token(usize),
}

/// An explanation template for one reasoning path.
#[derive(Clone, Debug)]
pub struct Template {
    /// Index of the path in the [`crate::structural::StructuralAnalysis`].
    pub path_index: usize,
    /// The text segments.
    pub segments: Vec<Segment>,
    /// The token classes referenced by [`Segment::Token`].
    pub classes: Vec<TokenClass>,
}

impl Template {
    /// Renders the template with `<display>` token markers (the form shown
    /// in Fig. 6 of the paper, and the form sent to an enhancer).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.segments {
            match s {
                Segment::Text(t) => out.push_str(t),
                Segment::Token(c) => {
                    out.push('<');
                    out.push_str(&self.classes[*c].display);
                    out.push('>');
                }
            }
        }
        out
    }

    /// Token classes that are not mentioned in `text`.
    pub fn missing_tokens(&self, text: &str) -> Vec<String> {
        self.classes
            .iter()
            .filter(|c| !text.contains(&format!("<{}>", c.display)))
            .map(|c| c.display.clone())
            .collect()
    }

    /// Re-parses `text` (typically an enhanced version of [`render`]) into
    /// segments against this template's token classes.
    ///
    /// Fails with the missing display names if any token class is absent —
    /// the paper's automatic anti-omission check (Sec. 4.4).
    ///
    /// [`render`]: Template::render
    pub fn reparse(&self, text: &str) -> Result<Vec<Segment>, Vec<String>> {
        let missing = self.missing_tokens(text);
        if !missing.is_empty() {
            return Err(missing);
        }
        let by_name: HashMap<&str, usize> = self
            .classes
            .iter()
            .enumerate()
            .map(|(i, c)| (c.display.as_str(), i))
            .collect();
        let mut segments = Vec::new();
        let mut text_buf = String::new();
        let mut chars = text.chars().peekable();
        while let Some(c) = chars.next() {
            if c == '<' {
                // Try to read a known token marker.
                let mut name = String::new();
                let mut consumed = Vec::new();
                let mut closed = false;
                while let Some(&c2) = chars.peek() {
                    chars.next();
                    consumed.push(c2);
                    if c2 == '>' {
                        closed = true;
                        break;
                    }
                    name.push(c2);
                }
                match (closed, by_name.get(name.as_str())) {
                    (true, Some(&idx)) => {
                        if !text_buf.is_empty() {
                            segments.push(Segment::Text(std::mem::take(&mut text_buf)));
                        }
                        segments.push(Segment::Token(idx));
                    }
                    _ => {
                        text_buf.push('<');
                        text_buf.extend(consumed);
                    }
                }
            } else {
                text_buf.push(c);
            }
        }
        if !text_buf.is_empty() {
            segments.push(Segment::Text(text_buf));
        }
        Ok(segments)
    }

    /// Replaces this template's segments with a reparsed enhanced text.
    pub fn with_segments(&self, segments: Vec<Segment>) -> Template {
        Template {
            path_index: self.path_index,
            segments,
            classes: self.classes.clone(),
        }
    }
}

/// Builds a pseudo reasoning path consisting of a single rule occurrence,
/// used for *fallback* templates: a side derivation of a proof that no
/// enumerated reasoning path absorbs is still verbalized rule-by-rule, so
/// explanations never lose information (Sec. 6.3's completeness).
pub fn single_rule_path(program: &Program, rule: vadalog::RuleId, dashed: bool) -> ReasoningPath {
    let atoms = program.rule(rule).positive_body().count();
    ReasoningPath {
        kind: crate::structural::PathKind::Cycle,
        rules: vec![rule],
        dashed: if dashed {
            std::iter::once(rule).collect()
        } else {
            Default::default()
        },
        entry: None,
        supply: vec![vec![Supply::External; atoms]],
    }
}

/// Generates the template of `path` (at `path_index`) in the given style.
pub fn generate(
    program: &Program,
    glossary: &DomainGlossary,
    path: &ReasoningPath,
    path_index: usize,
    style: TemplateStyle,
) -> Template {
    Generator {
        program,
        glossary,
        path,
    }
    .generate(path_index, style)
}

struct Generator<'a> {
    program: &'a Program,
    glossary: &'a DomainGlossary,
    path: &'a ReasoningPath,
}

/// One verbalized piece of a rule occurrence, pre-assembled.
struct Piece {
    segs: Vec<RawSeg>,
    /// Set for internally supplied body atoms (candidates for dropping in
    /// fluent style).
    droppable: bool,
    /// The occurrence's variables mentioned by this piece.
    vars: Vec<Symbol>,
}

struct OccPieces {
    body: Vec<Piece>,
    head: Piece,
}

impl Generator<'_> {
    fn rule(&self, occ: usize) -> &vadalog::Rule {
        self.program.rule(self.path.rules[occ])
    }

    /// Variables of a dashed occurrence that vary per contributor: body and
    /// assignment variables not retained by the head.
    fn list_vars(&self, occ: usize) -> HashSet<Symbol> {
        let rule_id = self.path.rules[occ];
        if !self.path.is_dashed(rule_id) {
            return HashSet::new();
        }
        let rule = self.rule(occ);
        let Some(head) = rule.head.atom() else {
            return HashSet::new();
        };
        let mut keep: HashSet<Symbol> = head.variables().collect();
        keep.extend(rule.aggregate_group_vars());
        rule.bound_variables()
            .into_iter()
            .filter(|v| !keep.contains(v))
            .collect()
    }

    fn generate(&self, path_index: usize, style: TemplateStyle) -> Template {
        let classes = self.token_classes();
        let class_of: HashMap<(usize, Symbol), usize> = classes
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.members.iter().map(move |m| ((m.occ, m.var), i)))
            .collect();

        let occ_pieces: Vec<OccPieces> = (0..self.path.rules.len())
            .map(|occ| self.occ_pieces(occ))
            .collect();

        // Fluent style: a droppable piece is kept only if it mentions a
        // class not otherwise covered.
        let mut covered: HashSet<usize> = HashSet::new();
        if style == TemplateStyle::Fluent {
            for (occ, pieces) in occ_pieces.iter().enumerate() {
                for piece in pieces.body.iter().filter(|p| !p.droppable) {
                    for &v in &piece.vars {
                        if let Some(&c) = class_of.get(&(occ, v)) {
                            covered.insert(c);
                        }
                    }
                }
                for &v in &pieces.head.vars {
                    if let Some(&c) = class_of.get(&(occ, v)) {
                        covered.insert(c);
                    }
                }
            }
        }

        let mut segments: Vec<Segment> = Vec::new();
        let push_raw = |segments: &mut Vec<Segment>, occ: usize, segs: &[RawSeg]| {
            for s in segs {
                match s {
                    RawSeg::Text(t) => segments.push(Segment::Text(t.clone())),
                    RawSeg::Var(v) => {
                        match class_of.get(&(occ, *v)) {
                            Some(&c) => segments.push(Segment::Token(c)),
                            // Variable with no class (unreachable in
                            // practice): keep it visibly.
                            None => segments.push(Segment::Text(format!("<{}>", v))),
                        }
                    }
                }
            }
        };

        for (occ, pieces) in occ_pieces.iter().enumerate() {
            // Select body pieces for this style.
            let mut selected: Vec<&Piece> = Vec::new();
            for piece in &pieces.body {
                let keep = match style {
                    TemplateStyle::Deterministic => true,
                    TemplateStyle::Fluent => {
                        if !piece.droppable {
                            true
                        } else {
                            let needed = piece.vars.iter().any(|&v| {
                                class_of
                                    .get(&(occ, v))
                                    .is_some_and(|c| !covered.contains(c))
                            });
                            needed
                        }
                    }
                };
                if keep {
                    if style == TemplateStyle::Fluent {
                        for &v in &piece.vars {
                            if let Some(&c) = class_of.get(&(occ, v)) {
                                covered.insert(c);
                            }
                        }
                    }
                    selected.push(piece);
                }
            }

            let opener: &str = match (style, occ) {
                (TemplateStyle::Deterministic, _) => "Since ",
                (TemplateStyle::Fluent, 0) => "Since ",
                (TemplateStyle::Fluent, o) => match o % 3 {
                    1 => "As a result, since ",
                    2 => "In turn, since ",
                    _ => "Then, since ",
                },
            };

            if selected.is_empty() {
                // Everything already stated: connect head directly.
                segments.push(Segment::Text("Consequently, ".to_owned()));
                push_raw(&mut segments, occ, &pieces.head.segs);
                segments.push(Segment::Text(". ".to_owned()));
                continue;
            }

            segments.push(Segment::Text(opener.to_owned()));
            for (i, piece) in selected.iter().enumerate() {
                if i > 0 {
                    segments.push(Segment::Text(", and ".to_owned()));
                }
                push_raw(&mut segments, occ, &piece.segs);
            }
            segments.push(Segment::Text(
                if style == TemplateStyle::Deterministic {
                    ", then "
                } else {
                    ", "
                }
                .to_owned(),
            ));
            push_raw(&mut segments, occ, &pieces.head.segs);
            segments.push(Segment::Text(". ".to_owned()));
        }

        // Trim the trailing space of the last sentence.
        if let Some(Segment::Text(t)) = segments.last_mut() {
            while t.ends_with(' ') {
                t.pop();
            }
        }

        Template {
            path_index,
            segments,
            classes,
        }
    }

    /// Builds the verbalized pieces of one rule occurrence.
    fn occ_pieces(&self, occ: usize) -> OccPieces {
        let rule = self.rule(occ);
        let rule_id = self.path.rules[occ];
        let dashed = self.path.is_dashed(rule_id);
        let mut body: Vec<Piece> = Vec::new();

        for (a, atom) in rule.positive_body().enumerate() {
            let segs = atom_segments(atom, self.glossary);
            let droppable = matches!(
                self.path.supply.get(occ).and_then(|s| s.get(a)),
                Some(Supply::Internal(_))
            );
            body.push(Piece {
                vars: vars_of(&segs),
                segs,
                droppable,
            });
        }

        // Negated atoms: "it is not the case that ...".
        for atom in rule.negated_body() {
            let mut segs = vec![RawSeg::text("it is not the case that ")];
            segs.extend(atom_segments(atom, self.glossary));
            body.push(Piece {
                vars: vars_of(&segs),
                segs,
                droppable: false,
            });
        }

        // Assignments.
        for assign in &rule.assignments {
            let mut segs = vec![RawSeg::Var(assign.var), RawSeg::text(" being ")];
            expr_segments(&assign.expr, self.var_format(occ, assign.var), &mut segs);
            body.push(Piece {
                vars: vars_of(&segs),
                segs,
                droppable: false,
            });
        }

        // The aggregation phrase is verbalized only in dashed mode (the
        // paper truncates it for single-contributor paths).
        if dashed {
            if let Some(agg) = &rule.aggregate {
                let mut segs = vec![
                    RawSeg::text("with "),
                    RawSeg::Var(agg.result),
                    RawSeg::text(format!(" given by {} ", agg_words(agg.func))),
                ];
                expr_segments(&agg.input, self.var_format(occ, agg.result), &mut segs);
                body.push(Piece {
                    vars: vars_of(&segs),
                    segs,
                    droppable: false,
                });
            }
        }

        // Conditions.
        for cond in &rule.conditions {
            let mut cvars = Vec::new();
            cond.collect_vars(&mut cvars);
            let fmt = cvars
                .first()
                .map(|&v| self.var_format(occ, v))
                .unwrap_or_default();
            let segs = condition_segments(cond, fmt);
            body.push(Piece {
                vars: vars_of(&segs),
                segs,
                droppable: false,
            });
        }

        let head_segs = match rule.head.atom() {
            Some(h) => atom_segments(h, self.glossary),
            None => vec![RawSeg::text("an integrity violation is raised")],
        };
        OccPieces {
            body,
            head: Piece {
                vars: vars_of(&head_segs),
                segs: head_segs,
                droppable: false,
            },
        }
    }

    /// The glossary format of a variable at an occurrence: taken from the
    /// first argument position (body or head) where the variable appears.
    /// Aggregate results and assigned variables with no own position
    /// inherit the format of their defining expression's variables (so a
    /// `sum` of percentages renders as a percentage).
    fn var_format(&self, occ: usize, var: Symbol) -> ValueFormat {
        self.var_format_rec(occ, var, 0)
    }

    fn var_format_rec(&self, occ: usize, var: Symbol, depth: u8) -> ValueFormat {
        let rule = self.rule(occ);
        let atoms = rule.positive_body().chain(rule.head.atom());
        for atom in atoms {
            for (pos, t) in atom.terms.iter().enumerate() {
                if t.as_var() == Some(var) {
                    let f = self.glossary.format_of(atom.predicate, pos);
                    if f != ValueFormat::Plain {
                        return f;
                    }
                }
            }
        }
        if depth < 3 {
            let defining: Option<&vadalog::Expr> = rule
                .aggregate
                .as_ref()
                .filter(|a| a.result == var)
                .map(|a| &a.input)
                .or_else(|| {
                    rule.assignments
                        .iter()
                        .find(|a| a.var == var)
                        .map(|a| &a.expr)
                });
            if let Some(expr) = defining {
                let mut vars = Vec::new();
                expr.collect_vars(&mut vars);
                for v in vars {
                    let f = self.var_format_rec(occ, v, depth + 1);
                    if f != ValueFormat::Plain {
                        return f;
                    }
                }
            }
        }
        ValueFormat::Plain
    }

    /// Computes the token classes of the path: union-find over
    /// (occurrence, variable), unifying producer head variables with
    /// consumer body variables along single-producer links, except where
    /// the consumer variable varies per contributor (dashed aggregation).
    fn token_classes(&self) -> Vec<TokenClass> {
        // Collect all (occ, var) pairs in stable order.
        let mut pairs: Vec<(usize, Symbol)> = Vec::new();
        let mut index: HashMap<(usize, Symbol), usize> = HashMap::new();
        for occ in 0..self.path.rules.len() {
            let rule = self.rule(occ);
            let push = |v: Symbol,
                        pairs: &mut Vec<(usize, Symbol)>,
                        index: &mut HashMap<(usize, Symbol), usize>| {
                index.entry((occ, v)).or_insert_with(|| {
                    pairs.push((occ, v));
                    pairs.len() - 1
                });
            };
            for atom in rule.positive_body() {
                for v in atom.variables() {
                    push(v, &mut pairs, &mut index);
                }
            }
            for a in &rule.assignments {
                push(a.var, &mut pairs, &mut index);
                let mut used = Vec::new();
                a.expr.collect_vars(&mut used);
                for v in used {
                    push(v, &mut pairs, &mut index);
                }
            }
            if let Some(agg) = &rule.aggregate {
                push(agg.result, &mut pairs, &mut index);
                let mut used = Vec::new();
                agg.input.collect_vars(&mut used);
                for v in used {
                    push(v, &mut pairs, &mut index);
                }
            }
            for c in &rule.conditions {
                let mut used = Vec::new();
                c.collect_vars(&mut used);
                for v in used {
                    push(v, &mut pairs, &mut index);
                }
            }
            if let Some(h) = rule.head.atom() {
                for v in h.variables() {
                    push(v, &mut pairs, &mut index);
                }
            }
        }

        // Union-find.
        let mut parent: Vec<usize> = (0..pairs.len()).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let root = find(parent, parent[i]);
                parent[i] = root;
            }
            parent[i]
        }
        let union = |parent: &mut Vec<usize>, a: usize, b: usize| {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                // Union towards the earlier pair so display naming prefers
                // first occurrences.
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                parent[hi] = lo;
            }
        };

        // Links: single-producer internal supplies.
        for (occ, supplies) in self.path.supply.iter().enumerate() {
            let consumer_lists = self.list_vars(occ);
            let consumer_atoms: Vec<&vadalog::Atom> = self.rule(occ).positive_body().collect();
            for (a, supply) in supplies.iter().enumerate() {
                let Supply::Internal(producers) = supply else {
                    continue;
                };
                if producers.len() != 1 {
                    continue;
                }
                let producer_occ = producers[0];
                let Some(head) = self.rule(producer_occ).head.atom() else {
                    continue;
                };
                let atom = consumer_atoms[a];
                if head.terms.len() != atom.terms.len() {
                    continue;
                }
                for (ht, bt) in head.terms.iter().zip(&atom.terms) {
                    if let (Some(hv), Some(bv)) = (ht.as_var(), bt.as_var()) {
                        if consumer_lists.contains(&bv) {
                            continue;
                        }
                        let (Some(&i), Some(&j)) =
                            (index.get(&(producer_occ, hv)), index.get(&(occ, bv)))
                        else {
                            continue;
                        };
                        union(&mut parent, i, j);
                    }
                }
            }
        }

        // Build classes in order of first member, each member resolved to
        // its slots in the rows of its occurrence's rule.
        let layouts: Vec<RuleLayout> = (0..self.path.rules.len())
            .map(|occ| RuleLayout::of(self.rule(occ)))
            .collect();
        let mut class_of_root: HashMap<usize, usize> = HashMap::new();
        let mut classes: Vec<TokenClass> = Vec::new();
        let mut used_names: HashMap<String, usize> = HashMap::new();
        for i in 0..pairs.len() {
            let root = find(&mut parent, i);
            let class_idx = *class_of_root.entry(root).or_insert_with(|| {
                let base = pairs[root].1.as_str().to_owned();
                let n = used_names.entry(base.clone()).or_insert(0);
                *n += 1;
                let display = if *n == 1 {
                    base
                } else {
                    format!("{}_{}", base, n)
                };
                classes.push(TokenClass {
                    display,
                    members: Vec::new(),
                    list: false,
                    format: ValueFormat::Plain,
                });
                classes.len() - 1
            });
            let (occ, var) = pairs[i];
            let layout = &layouts[occ];
            classes[class_idx].members.push(TokenMember {
                occ,
                var,
                head: layout.head().slot(var),
                contributor: layout.step.and_then(|_| layout.matched.slot(var)),
            });
        }

        // List flags and formats.
        for class in &mut classes {
            for m in &class.members {
                if self.list_vars(m.occ).contains(&m.var) {
                    class.list = true;
                }
                if class.format == ValueFormat::Plain {
                    class.format = self.var_format(m.occ, m.var);
                }
            }
        }
        classes
    }
}

fn vars_of(segs: &[RawSeg]) -> Vec<Symbol> {
    let mut out = Vec::new();
    for s in segs {
        if let RawSeg::Var(v) = s {
            if !out.contains(v) {
                out.push(*v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glossary::GlossaryEntry;
    use crate::structural::analyze;
    use vadalog::parse_program;

    fn example_4_3() -> (Program, DomainGlossary) {
        let program = parse_program(
            r#"
            alpha: shock(f, s), has_capital(f, p1), s > p1 -> default(f).
            beta: default(d), debts(d, c, v), e = sum(v) -> risk(c, e).
            gamma: has_capital(c, p2), risk(c, e), p2 < e -> default(c).
        "#,
        )
        .unwrap()
        .program;
        // Fig. 7 domain glossary.
        let glossary = DomainGlossary::new()
            .with(GlossaryEntry::new(
                "has_capital",
                &[("f", ValueFormat::Plain), ("p", ValueFormat::MillionsEuro)],
                "<f> is a financial institution with capital of <p>",
            ))
            .with(GlossaryEntry::new(
                "shock",
                &[("f", ValueFormat::Plain), ("s", ValueFormat::MillionsEuro)],
                "a shock amounting to <s> affects <f>",
            ))
            .with(GlossaryEntry::new(
                "default",
                &[("f", ValueFormat::Plain)],
                "<f> is in default",
            ))
            .with(GlossaryEntry::new(
                "debts",
                &[
                    ("d", ValueFormat::Plain),
                    ("c", ValueFormat::Plain),
                    ("v", ValueFormat::MillionsEuro),
                ],
                "<d> has an amount <v> of debts with <c>",
            ))
            .with(GlossaryEntry::new(
                "risk",
                &[("c", ValueFormat::Plain), ("e", ValueFormat::MillionsEuro)],
                "<c> is at risk of defaulting given its loan of <e> of exposures to a defaulted debtor",
            ));
        (program, glossary)
    }

    /// Deterministic template for Π1 = {alpha}: matches Fig. 6's first row
    /// up to formatting.
    #[test]
    fn pi1_deterministic_template() {
        let (p, g) = example_4_3();
        let a = analyze(&p, "default").unwrap();
        let pi1 = a
            .simple_paths()
            .find(|x| x.rules.len() == 1)
            .unwrap()
            .clone();
        let t = generate(&p, &g, &pi1, 0, TemplateStyle::Deterministic);
        let text = t.render();
        assert_eq!(
            text,
            "Since a shock amounting to <s> affects <f>, and <f> is a financial institution with capital of <p1>, and <s> is higher than <p1>, then <f> is in default."
        );
    }

    #[test]
    fn pi2_unifies_joined_variables() {
        let (p, g) = example_4_3();
        let a = analyze(&p, "default").unwrap();
        let pi2 = a
            .simple_paths()
            .find(|x| x.rules.len() == 3 && x.dashed.is_empty())
            .unwrap()
            .clone();
        let t = generate(&p, &g, &pi2, 0, TemplateStyle::Deterministic);
        // alpha's f and beta's d are join-equal: one class.
        let f_class = t
            .classes
            .iter()
            .find(|c| c.members.iter().any(|m| m.var.as_str() == "f"))
            .unwrap();
        assert!(f_class.members.iter().any(|m| m.var.as_str() == "d"));
        // beta's (c,e) unify with gamma's (c,e) through risk.
        let c_class = t
            .classes
            .iter()
            .find(|c| {
                c.members
                    .iter()
                    .any(|m| m.occ == 1 && m.var.as_str() == "c")
            })
            .unwrap();
        assert!(c_class
            .members
            .iter()
            .any(|m| m.occ == 2 && m.var.as_str() == "c"));
    }

    #[test]
    fn solid_aggregation_is_truncated_dashed_is_verbalized() {
        let (p, g) = example_4_3();
        let a = analyze(&p, "default").unwrap();
        let solid = a
            .simple_paths()
            .find(|x| x.rules.len() == 3 && x.dashed.is_empty())
            .unwrap()
            .clone();
        let dashed = a
            .simple_paths()
            .find(|x| x.rules.len() == 3 && !x.dashed.is_empty())
            .unwrap()
            .clone();
        let t_solid = generate(&p, &g, &solid, 0, TemplateStyle::Deterministic).render();
        let t_dashed = generate(&p, &g, &dashed, 1, TemplateStyle::Deterministic).render();
        assert!(!t_solid.contains("given by the sum of"));
        assert!(t_dashed.contains("given by the sum of"), "got: {t_dashed}");
    }

    #[test]
    fn dashed_list_variables_are_not_unified_and_marked() {
        let (p, g) = example_4_3();
        let a = analyze(&p, "default").unwrap();
        let dashed = a
            .simple_paths()
            .find(|x| x.rules.len() == 3 && !x.dashed.is_empty())
            .unwrap()
            .clone();
        let t = generate(&p, &g, &dashed, 0, TemplateStyle::Deterministic);
        // beta is dashed: d and v vary per contributor -> list classes;
        // alpha's f must not be unified with beta's d.
        let d_class = t
            .classes
            .iter()
            .find(|c| {
                c.members
                    .iter()
                    .any(|m| m.occ == 1 && m.var.as_str() == "d")
            })
            .unwrap();
        assert!(d_class.list);
        assert!(!d_class.members.iter().any(|m| m.var.as_str() == "f"));
        let v_class = t
            .classes
            .iter()
            .find(|c| {
                c.members
                    .iter()
                    .any(|m| m.occ == 1 && m.var.as_str() == "v")
            })
            .unwrap();
        assert!(v_class.list);
        // c is in the group key: not a list.
        let c_class = t
            .classes
            .iter()
            .find(|c| {
                c.members
                    .iter()
                    .any(|m| m.occ == 1 && m.var.as_str() == "c")
            })
            .unwrap();
        assert!(!c_class.list);
    }

    #[test]
    fn fluent_style_drops_restated_atoms_but_keeps_tokens() {
        let (p, g) = example_4_3();
        let a = analyze(&p, "default").unwrap();
        let pi2 = a
            .simple_paths()
            .find(|x| x.rules.len() == 3 && x.dashed.is_empty())
            .unwrap()
            .clone();
        let det = generate(&p, &g, &pi2, 0, TemplateStyle::Deterministic);
        let fluent = generate(&p, &g, &pi2, 0, TemplateStyle::Fluent);
        let det_text = det.render();
        let fluent_text = fluent.render();
        // Fluent is strictly shorter (drops the restated default/risk
        // atoms) ...
        assert!(fluent_text.len() < det_text.len());
        // ... but loses no token class.
        assert!(fluent.missing_tokens(&fluent_text).is_empty());
        assert_eq!(det.classes.len(), fluent.classes.len());
    }

    #[test]
    fn reparse_round_trips_and_detects_omissions() {
        let (p, g) = example_4_3();
        let a = analyze(&p, "default").unwrap();
        let pi1 = a.simple_paths().next().unwrap().clone();
        let t = generate(&p, &g, &pi1, 0, TemplateStyle::Deterministic);
        let text = t.render();
        let segs = t.reparse(&text).unwrap();
        assert_eq!(t.with_segments(segs).render(), text);
        // Dropping a token is detected.
        let broken = text.replace("<p1>", "its capital");
        let err = t.reparse(&broken).unwrap_err();
        assert_eq!(err, vec!["p1".to_string()]);
    }

    #[test]
    fn reparse_keeps_unknown_markers_as_text() {
        let (p, g) = example_4_3();
        let a = analyze(&p, "default").unwrap();
        let pi1 = a.simple_paths().next().unwrap().clone();
        let t = generate(&p, &g, &pi1, 0, TemplateStyle::Deterministic);
        let text = format!("{} <unknown token>", t.render());
        let segs = t.reparse(&text).unwrap();
        let rendered = t.with_segments(segs).render();
        assert!(rendered.contains("<unknown token>"));
    }

    #[test]
    fn display_names_are_unique() {
        let (p, g) = example_4_3();
        let a = analyze(&p, "default").unwrap();
        for (i, path) in a.paths.iter().enumerate() {
            let t = generate(&p, &g, path, i, TemplateStyle::Deterministic);
            let mut names: Vec<&str> = t.classes.iter().map(|c| c.display.as_str()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(before, names.len(), "path {}", path.label(&p));
        }
    }

    #[test]
    fn cycle_template_keeps_entry_atom() {
        let (p, g) = example_4_3();
        let a = analyze(&p, "default").unwrap();
        let cycle = a.cycles().find(|c| c.dashed.is_empty()).unwrap().clone();
        let t = generate(&p, &g, &cycle, 0, TemplateStyle::Fluent);
        let text = t.render();
        // The entry atom ("<d> is in default") opens the story.
        assert!(text.starts_with("Since <d> is in default"), "got: {text}");
    }

    #[test]
    fn formats_flow_from_glossary_to_classes() {
        let (p, g) = example_4_3();
        let a = analyze(&p, "default").unwrap();
        let pi1 = a.simple_paths().next().unwrap().clone();
        let t = generate(&p, &g, &pi1, 0, TemplateStyle::Deterministic);
        let s_class = t.classes.iter().find(|c| c.display == "s").unwrap();
        assert_eq!(s_class.format, ValueFormat::MillionsEuro);
    }
}

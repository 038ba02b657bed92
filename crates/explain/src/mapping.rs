//! Mapping chase steps to templates (Sec. 4.3).
//!
//! Given the linearized chase-step sequence τ of a proof, the mapper
//! selects (i) the simple reasoning path instantiating the longest prefix
//! of τ and (ii) reasoning cycles instantiating the following steps, until
//! the leaf is reached. Aggregation (dashed) variants are selected exactly
//! when the corresponding chase step folded more than one contributor.
//! Finally, tokens are substituted with the constants recorded in the
//! chase derivations.

use crate::error::ExplainError;
use crate::glossary::ValueFormat;
use crate::structural::{PathKind, StructuralAnalysis};
use crate::template::{Segment, Template, TokenClass};
use std::collections::HashMap;
use vadalog::{ChaseGraph, ChaseStep, DerivationId, Program, RuleId, Value};

/// One chase step of τ enriched with its immediate side derivations (the
/// derivations of premises that are not the previous spine step).
#[derive(Clone, Debug)]
pub struct StepInfo {
    /// The applied rule.
    pub rule: RuleId,
    /// The spine derivation.
    pub derivation: DerivationId,
    /// Contributor count of the derivation.
    pub contributors: u32,
    /// Chosen derivations of derived side premises.
    pub sides: Vec<DerivationId>,
}

/// Enriches a linearized proof with side-derivation information.
pub fn step_infos(graph: &ChaseGraph, tau: &[ChaseStep]) -> Vec<StepInfo> {
    tau.iter()
        .enumerate()
        .map(|(i, step)| {
            let der = graph.derivation(step.derivation);
            let spine_child = if i > 0 {
                Some(graph.derivation(tau[i - 1].derivation).conclusion)
            } else {
                None
            };
            let sides = der
                .premises
                .iter()
                .filter(|&&p| Some(p) != spine_child && graph.is_derived(p))
                .filter_map(|&p| graph.choose_derivation(p))
                .collect();
            StepInfo {
                rule: step.rule,
                derivation: step.derivation,
                contributors: step.contributors,
                sides,
            }
        })
        .collect()
}

/// A reasoning path matched onto a segment of τ.
#[derive(Clone, Debug)]
pub struct PathCover {
    /// Index of the path (and its template) in the analysis.
    pub path_index: usize,
    /// Derivation backing each rule occurrence of the path.
    pub assignments: HashMap<usize, DerivationId>,
    /// Spine steps consumed by this piece.
    pub consumed: usize,
    /// Side derivations consumed (specificity tiebreaker).
    pub side_used: usize,
}

/// The full covering of a proof by reasoning paths: one simple path
/// followed by zero or more cycles.
#[derive(Clone, Debug)]
pub struct Cover {
    /// The covering pieces, in τ order.
    pub pieces: Vec<PathCover>,
}

/// Computes the covering of `steps` by the paths of `analysis`
/// (Sec. 4.3's two-phase greedy selection).
pub fn cover(
    program: &Program,
    analysis: &StructuralAnalysis,
    graph: &ChaseGraph,
    steps: &[StepInfo],
) -> Result<Cover, ExplainError> {
    cover_from(program, analysis, graph, steps, 0)
}

/// Like [`cover`] but starting at step `start`: the prefix is assumed
/// already explained (its conclusions play the role of the critical entry
/// facts), so only reasoning cycles apply from a non-zero start.
pub fn cover_from(
    program: &Program,
    analysis: &StructuralAnalysis,
    graph: &ChaseGraph,
    steps: &[StepInfo],
    start: usize,
) -> Result<Cover, ExplainError> {
    if start >= steps.len() {
        return Ok(Cover { pieces: Vec::new() });
    }
    let mut pieces = Vec::new();
    let mut pos = start;

    if pos == 0 {
        let best_simple = best_match(program, analysis, graph, steps, 0, PathKind::Simple)
            .ok_or(ExplainError::NoCoveringPath { at_step: 0 })?;
        pos = best_simple.consumed;
        pieces.push(best_simple);
    }

    while pos < steps.len() {
        let piece = best_match(program, analysis, graph, steps, pos, PathKind::Cycle)
            .ok_or(ExplainError::NoCoveringPath { at_step: pos })?;
        pos += piece.consumed;
        pieces.push(piece);
    }
    Ok(Cover { pieces })
}

/// The best-scoring path of `kind` matched at `start`: maximal consumed
/// spine steps, then maximal side specificity, then most rules.
fn best_match(
    program: &Program,
    analysis: &StructuralAnalysis,
    graph: &ChaseGraph,
    steps: &[StepInfo],
    start: usize,
    kind: PathKind,
) -> Option<PathCover> {
    analysis
        .paths
        .iter()
        .enumerate()
        .filter(|(_, p)| p.kind == kind)
        .filter_map(|(i, _)| match_path_at(program, analysis, graph, i, steps, start))
        .max_by_key(|c| {
            (
                c.consumed,
                c.side_used,
                analysis.paths[c.path_index].rules.len(),
            )
        })
}

/// Tries to match path `path_index` against τ starting at `start`.
///
/// Spine steps are consumed greedily while their rule belongs to the
/// path's remaining rules and the aggregation mode agrees (a step with
/// more than one contributor requires the dashed variant and vice versa),
/// then given back down to the last one the path's sink derives.
/// Remaining path rules must then be backed by side derivations of the
/// consumed steps; otherwise the path does not instantiate this segment.
pub fn match_path_at(
    program: &Program,
    analysis: &StructuralAnalysis,
    graph: &ChaseGraph,
    path_index: usize,
    steps: &[StepInfo],
    start: usize,
) -> Option<PathCover> {
    let path = &analysis.paths[path_index];
    let mode_ok = |rule: RuleId, contributors: u32| -> bool {
        if program.rule(rule).has_aggregate() {
            (contributors > 1) == path.is_dashed(rule)
        } else {
            true
        }
    };

    let mut assignments: HashMap<usize, DerivationId> = HashMap::new();
    let mut pos = start;
    while pos < steps.len() {
        let step = &steps[pos];
        // A rule occurring twice in the path binds its last occurrence.
        let Some(occ) = path.rules.iter().rposition(|&r| r == step.rule) else {
            break;
        };
        if assignments.contains_key(&occ) || !mode_ok(step.rule, step.contributors) {
            break;
        }
        assignments.insert(occ, step.derivation);
        pos += 1;
    }
    // A piece ends on its path's sink: the next piece starts where this
    // path's conclusion leaves off. Steps consumed past the last sink go
    // back to the following pieces.
    while pos > start && steps[pos - 1].rule != path.sink() {
        pos -= 1;
        assignments.retain(|_, &mut d| d != steps[pos].derivation);
    }
    let consumed = pos - start;
    if consumed == 0 {
        return None;
    }

    // Back the unassigned occurrences with side derivations.
    let mut side_used = 0usize;
    if assignments.len() < path.rules.len() {
        let mut side_pool: Vec<DerivationId> = steps[start..pos]
            .iter()
            .flat_map(|s| s.sides.iter().copied())
            .collect();
        for (occ, &rule) in path.rules.iter().enumerate() {
            if assignments.contains_key(&occ) {
                continue;
            }
            let found = side_pool.iter().position(|&d| {
                let der = graph.derivation(d);
                der.rule == rule && mode_ok(rule, der.contributors)
            });
            match found {
                Some(i) => {
                    assignments.insert(occ, side_pool.remove(i));
                    side_used += 1;
                }
                None => return None,
            }
        }
    }

    Some(PathCover {
        path_index,
        assignments,
        consumed,
        side_used,
    })
}

/// Instantiates the template of one cover piece against the chase graph,
/// appending the text to `out`: every token class is replaced by the
/// constant(s) bound to its variables in the assigned derivations
/// (Sec. 4.3, "template-wise substitution").
pub fn instantiate(template: &Template, piece: &PathCover, graph: &ChaseGraph, out: &mut String) {
    for seg in &template.segments {
        match seg {
            Segment::Text(t) => out.push_str(t),
            Segment::Token(c) => {
                let class = &template.classes[*c];
                if !substitute(class, piece, graph, out) {
                    // No binding recorded (foreign graph): keep the
                    // marker visible rather than inventing text.
                    out.push('<');
                    out.push_str(&class.display);
                    out.push('>');
                }
            }
        }
    }
}

/// Appends the value(s) of a token class, taken from the first assigned
/// derivation that binds one of its members; false when none does. Each
/// member reads the slots resolved for it when the template was built.
fn substitute(class: &TokenClass, piece: &PathCover, graph: &ChaseGraph, out: &mut String) -> bool {
    for m in &class.members {
        let Some(&did) = piece.assignments.get(&m.occ) else {
            continue;
        };
        let der = graph.derivation(did);
        if let Some(v) = m.head.and_then(|slot| der.bindings.at(slot)) {
            class.format.render_into(v, out);
            return true;
        }
        let Some(slot) = m.contributor else {
            continue;
        };
        // Entity mentions deduplicate (the same debtor listed once), but
        // numeric contributions repeat (two 6% stakes really are "6% and
        // 6%", not "6%"). An entity is a duplicate iff an earlier
        // contributor bound the same one, whose first mention was kept.
        let contributors = &der.contributor_bindings;
        let values = (0..contributors.len()).filter_map(|i| {
            let v = contributors.at(i, slot)?;
            let duplicate_entity =
                matches!(v, Value::Str(_)) && (0..i).any(|e| contributors.at(e, slot) == Some(v));
            (!duplicate_entity).then_some(v)
        });
        if join_into(class.format, values, out) > 0 {
            return true;
        }
    }
    false
}

/// Appends `values` rendered under `format` as an English list — "a",
/// "a and b", "a, b and c" — and returns how many there were.
fn join_into<'v>(
    format: ValueFormat,
    values: impl Iterator<Item = &'v Value>,
    out: &mut String,
) -> usize {
    let mut count = 0;
    let mut last_comma = 0;
    for v in values {
        if count > 0 {
            last_comma = out.len();
            out.push_str(", ");
        }
        format.render_into(v, out);
        count += 1;
    }
    if count > 1 {
        out.replace_range(last_comma..last_comma + 2, " and ");
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glossary::DomainGlossary;
    use crate::structural::analyze;
    use vadalog::{parse_program, ChaseSession, Database, Fact};

    fn example_4_3_figure_8() -> (
        Program,
        StructuralAnalysis,
        vadalog::ChaseOutcome,
        vadalog::FactId,
    ) {
        let parsed = parse_program(
            r#"
            alpha: shock(f, s), has_capital(f, p1), s > p1 -> default(f).
            beta: default(d), debts(d, c, v), e = sum(v) -> risk(c, e).
            gamma: has_capital(c, p2), risk(c, e), p2 < e -> default(c).

            % Fig. 8 EDB
            shock("A", 6).
            has_capital("A", 5).
            debts("A", "B", 7).
            has_capital("B", 2).
            debts("B", "C", 2).
            debts("B", "C", 9).
            has_capital("C", 10).
        "#,
        )
        .unwrap();
        let analysis = analyze(&parsed.program, "default").unwrap();
        let db: Database = parsed.facts.into_iter().collect();
        let out = ChaseSession::new(&parsed.program).run(db).unwrap();
        let target = out
            .lookup(&Fact::new("default", vec!["C".into()]))
            .expect("Default(C) derived");
        (parsed.program, analysis, out, target)
    }

    #[test]
    fn tau_of_figure_8_is_covered_by_pi2_and_dashed_cycle() {
        let (program, analysis, out, target) = example_4_3_figure_8();
        let proof = out.graph.proof(target);
        let tau = proof.linearize(&out.graph);
        let labels: Vec<&str> = tau
            .iter()
            .map(|s| program.rule(s.rule).label.as_str())
            .collect();
        assert_eq!(labels, vec!["alpha", "beta", "gamma", "beta", "gamma"]);

        let steps = step_infos(&out.graph, &tau);
        let c = cover(&program, &analysis, &out.graph, &steps).unwrap();
        assert_eq!(c.pieces.len(), 2);
        // Piece 1: Π2 (solid three-rule simple path), covering α, β, γ.
        let p1 = &analysis.paths[c.pieces[0].path_index];
        assert_eq!(p1.rules.len(), 3);
        assert!(p1.dashed.is_empty());
        assert_eq!(c.pieces[0].consumed, 3);
        // Piece 2: the dashed cycle Γ2 (Risk(C,11) has two contributors).
        let p2 = &analysis.paths[c.pieces[1].path_index];
        assert_eq!(p2.kind, PathKind::Cycle);
        assert_eq!(p2.dashed.len(), 1);
        assert_eq!(c.pieces[1].consumed, 2);
    }

    #[test]
    fn instantiation_substitutes_constants() {
        let (program, analysis, out, target) = example_4_3_figure_8();
        let proof = out.graph.proof(target);
        let tau = proof.linearize(&out.graph);
        let steps = step_infos(&out.graph, &tau);
        let c = cover(&program, &analysis, &out.graph, &steps).unwrap();

        let glossary = DomainGlossary::new();
        let piece = &c.pieces[1];
        let template = crate::template::generate(
            &program,
            &glossary,
            &analysis.paths[piece.path_index],
            piece.path_index,
            crate::template::TemplateStyle::Deterministic,
        );
        let mut text = String::new();
        instantiate(&template, piece, &out.graph, &mut text);
        // The dashed cycle explains Risk(C, 11) from debts 2 and 9.
        assert!(text.contains("11"), "got: {text}");
        assert!(text.contains("2 and 9"), "got: {text}");
        assert!(text.contains('B'), "got: {text}");
        assert!(text.contains('C'), "got: {text}");
        assert!(!text.contains('<'), "unsubstituted token in: {text}");
    }

    #[test]
    fn single_step_proof_uses_pi1() {
        let (program, analysis, out, _) = example_4_3_figure_8();
        // Default("A") is derived by alpha alone.
        let target = out.lookup(&Fact::new("default", vec!["A".into()])).unwrap();
        let proof = out.graph.proof(target);
        let tau = proof.linearize(&out.graph);
        let steps = step_infos(&out.graph, &tau);
        let c = cover(&program, &analysis, &out.graph, &steps).unwrap();
        assert_eq!(c.pieces.len(), 1);
        assert_eq!(analysis.paths[c.pieces[0].path_index].rules.len(), 1);
    }

    #[test]
    fn empty_tau_yields_empty_cover() {
        let (program, analysis, out, _) = example_4_3_figure_8();
        let steps = step_infos(&out.graph, &[]);
        let c = cover(&program, &analysis, &out.graph, &steps).unwrap();
        assert!(c.pieces.is_empty());
        let _ = out;
    }

    #[test]
    fn join_into_joins_lists_in_place() {
        let joined = |values: &[Value]| {
            let mut out = String::from("debts of ");
            let count = join_into(ValueFormat::Plain, values.iter(), &mut out);
            assert_eq!(count, values.len());
            out
        };
        assert_eq!(joined(&[Value::Int(2)]), "debts of 2");
        assert_eq!(joined(&[Value::Int(2), Value::Int(9)]), "debts of 2 and 9");
        assert_eq!(
            joined(&[Value::Int(1), Value::Int(2), Value::Int(3)]),
            "debts of 1, 2 and 3"
        );
    }
}

#[cfg(test)]
mod cover_from_tests {
    use super::*;
    use vadalog::{parse_program, ChaseSession, Database, Fact};

    /// A three-link control chain: τ = [o1, o3, o3].
    fn chain() -> (
        Program,
        StructuralAnalysis,
        vadalog::ChaseOutcome,
        Vec<StepInfo>,
    ) {
        let parsed = parse_program(
            r#"
            o1: own(x, y, s), s > 0.5 -> control(x, y).
            o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).

            own("A", "B", 0.9).
            own("B", "C", 0.9).
            own("C", "D", 0.9).
        "#,
        )
        .unwrap();
        let analysis = crate::structural::analyze(&parsed.program, "control").unwrap();
        let db: Database = parsed.facts.into_iter().collect();
        let out = ChaseSession::new(&parsed.program).run(db).unwrap();
        let id = out
            .lookup(&Fact::new("control", vec!["A".into(), "D".into()]))
            .unwrap();
        let proof = out.graph.proof(id);
        let tau = proof.linearize(&out.graph);
        let steps = step_infos(&out.graph, &tau);
        (parsed.program, analysis, out, steps)
    }

    #[test]
    fn cover_from_zero_equals_cover() {
        let (program, analysis, out, steps) = chain();
        let a = cover(&program, &analysis, &out.graph, &steps).unwrap();
        let b = cover_from(&program, &analysis, &out.graph, &steps, 0).unwrap();
        assert_eq!(a.pieces.len(), b.pieces.len());
    }

    #[test]
    fn cover_from_mid_uses_cycles_only() {
        let (program, analysis, out, steps) = chain();
        assert_eq!(steps.len(), 3);
        let c = cover_from(&program, &analysis, &out.graph, &steps, 1).unwrap();
        assert!(!c.pieces.is_empty());
        for piece in &c.pieces {
            assert_eq!(
                analysis.paths[piece.path_index].kind,
                PathKind::Cycle,
                "mid-proof coverage must use cycles"
            );
        }
        let covered: usize = c.pieces.iter().map(|p| p.consumed).sum();
        assert_eq!(covered, 2);
    }

    #[test]
    fn cover_from_past_the_end_is_empty() {
        let (program, analysis, out, steps) = chain();
        let c = cover_from(&program, &analysis, &out.graph, &steps, steps.len()).unwrap();
        assert!(c.pieces.is_empty());
        let c = cover_from(&program, &analysis, &out.graph, &steps, steps.len() + 5).unwrap();
        assert!(c.pieces.is_empty());
    }

    /// The stress test's default cascade A → B → C → D, where C defaults
    /// on two risks (B's short-term debt and E's long-term debt):
    /// τ = o4 o6 o7 o6 o7* o5 o7. The cycle `{o5,o6,o7}*` matches steps
    /// 3–5 greedily, but a piece must end on its path's sink: it takes
    /// `o6 o7*`, backs `o5` with the side derivation of E's long risk,
    /// and leaves `o5 o7` to `{o5,o7}`. Ending it on `o5` left step 6
    /// without a cover.
    #[test]
    fn cover_pieces_end_on_their_paths_sink() {
        let parsed = parse_program(
            r#"
            o4: shock(f, s), has_capital(f, p1), s > p1 -> default(f).
            o5: default(d), long_term_debts(d, c, v), el = sum(v) -> risk(c, el, "long").
            o6: default(d), short_term_debts(d, c, v), es = sum(v) -> risk(c, es, "short").
            o7: risk(c, e, t), has_capital(c, p2), l = sum(e), l > p2 -> default(c).

            shock("A", 10). has_capital("A", 5). shock("E", 10). has_capital("E", 5).
            short_term_debts("A", "B", 3). has_capital("B", 2).
            short_term_debts("B", "C", 2). long_term_debts("E", "C", 2). has_capital("C", 3).
            long_term_debts("C", "D", 5). has_capital("D", 1).
        "#,
        )
        .unwrap();
        let program = &parsed.program;
        let analysis = crate::structural::analyze(program, "default").unwrap();
        let db: Database = parsed.facts.into_iter().collect();
        let out = ChaseSession::new(program).run(db).unwrap();
        let id = out.lookup(&Fact::new("default", vec!["D".into()])).unwrap();
        let proof = out.graph.proof(id);
        let tau = proof.linearize(&out.graph);
        let steps = step_infos(&out.graph, &tau);
        let rules: Vec<String> = steps
            .iter()
            .map(|s| {
                let star = if s.contributors > 1 { "*" } else { "" };
                format!("{}{star}", program.rule(s.rule).label)
            })
            .collect();
        assert_eq!(rules, ["o4", "o6", "o7", "o6", "o7*", "o5", "o7"]);

        let c = cover(program, &analysis, &out.graph, &steps).unwrap();
        let pieces: Vec<(String, usize)> = c
            .pieces
            .iter()
            .map(|p| (analysis.paths[p.path_index].label(program), p.consumed))
            .collect();
        assert_eq!(
            pieces,
            [
                ("{o4,o6,o7}".to_string(), 3),
                ("{o5,o6,o7}*".to_string(), 2),
                ("{o5,o7}".to_string(), 2),
            ]
        );
    }
}

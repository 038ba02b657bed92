//! Ad-hoc queries: conjunctive pattern matching over a database, without
//! defining rules. Useful for application front ends and tests.

use crate::atom::Atom;
use crate::database::Database;
use crate::engine::{match_chunk, JoinPlan, MatchChunk, MatchMetrics};
use crate::error::EvalError;
use crate::expr::{Bindings, Condition};
use crate::program::Program;
use crate::rule::{Head, Literal, Rule};

/// Evaluates a conjunctive query (positive atoms + conditions) against the
/// database, returning one substitution map per match (the matcher's
/// rows, converted at this edge). Takes `&mut Database`
/// to build the query's join-plan indexes first; no fact is added or
/// removed.
///
/// ```
/// use vadalog::prelude::*;
/// use vadalog::query::select;
///
/// let mut db = Database::new();
/// db.add("own", &["A".into(), "B".into(), 0.6.into()]);
/// db.add("own", &["B".into(), "C".into(), 0.7.into()]);
///
/// // own(x, z, _), own(z, y, _): two-hop chains.
/// let q = vec![
///     Atom::new("own", vec![Term::var("x"), Term::var("z"), Term::var("s1")]),
///     Atom::new("own", vec![Term::var("z"), Term::var("y"), Term::var("s2")]),
/// ];
/// let rows = select(&mut db, &q, &[]).unwrap();
/// assert_eq!(rows.len(), 1);
/// assert_eq!(rows[0][&Symbol::new("y")], Value::str("C"));
/// ```
pub fn select(
    db: &mut Database,
    atoms: &[Atom],
    conditions: &[Condition],
) -> Result<Vec<Bindings>, EvalError> {
    let rule = Rule {
        label: "__query".to_owned(),
        body: atoms.iter().cloned().map(Literal::pos).collect(),
        conditions: conditions.to_vec(),
        assignments: Vec::new(),
        aggregate: None,
        head: Head::Falsum,
    };
    let plan = JoinPlan::for_rule(&rule);
    plan.build_indexes(&rule, db);
    let metrics = &mut MatchMetrics::default();
    Ok(match_chunk(db, &rule, &plan, &MatchChunk::full(), metrics)?
        .into_iter()
        .map(|m| m.bindings.to_bindings())
        .collect())
}

/// Checks an extensional database against a program: facts over unknown
/// predicates, facts over intensional predicates (pre-seeded IDB), and
/// arity mismatches are reported as human-readable warnings.
pub fn check_database(program: &Program, db: &Database) -> Vec<String> {
    let mut warnings = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (_, fact) in db.iter() {
        if !seen.insert((fact.predicate, fact.arity())) {
            continue;
        }
        match program.arity(fact.predicate) {
            None => warnings.push(format!(
                "predicate `{}` does not occur in the program (facts will be ignored)",
                fact.predicate
            )),
            Some(a) if a != fact.arity() => warnings.push(format!(
                "predicate `{}` has arity {} in the program but facts of arity {}",
                fact.predicate,
                a,
                fact.arity()
            )),
            Some(_) => {
                if program.is_intensional(fact.predicate) {
                    warnings.push(format!(
                        "predicate `{}` is derived by the program but also present as input",
                        fact.predicate
                    ));
                }
            }
        }
    }
    warnings.sort();
    warnings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::parser::parse_program;
    use crate::symbol::Symbol;
    use crate::term::Term;
    use crate::value::Value;

    fn db() -> Database {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        db.add("own", &["B".into(), "C".into(), 0.3.into()]);
        db.add("own", &["A".into(), "C".into(), 0.8.into()]);
        db
    }

    #[test]
    fn single_atom_select() {
        let mut db = db();
        let rows = select(
            &mut db,
            &[Atom::new(
                "own",
                vec![Term::constant("A"), Term::var("y"), Term::var("s")],
            )],
            &[],
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn conditions_filter_rows() {
        let mut db = db();
        let rows = select(
            &mut db,
            &[Atom::new(
                "own",
                vec![Term::var("x"), Term::var("y"), Term::var("s")],
            )],
            &[Condition::new(
                Expr::var("s"),
                CmpOp::Gt,
                Expr::constant(0.5f64),
            )],
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .all(|r| r[&Symbol::new("s")].as_f64().unwrap() > 0.5));
    }

    #[test]
    fn join_select_binds_shared_variables() {
        let mut db = db();
        let rows = select(
            &mut db,
            &[
                Atom::new("own", vec![Term::var("x"), Term::var("z"), Term::var("s1")]),
                Atom::new("own", vec![Term::var("z"), Term::var("y"), Term::var("s2")]),
            ],
            &[],
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][&Symbol::new("z")], Value::str("B"));
    }

    #[test]
    fn empty_query_yields_one_empty_row() {
        let mut db = db();
        let rows = select(&mut db, &[], &[]).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].is_empty());
    }

    #[test]
    fn check_database_reports_mismatches() {
        let program = parse_program("o1: own(x, y, s), s > 0.5 -> control(x, y).")
            .unwrap()
            .program;
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        db.add("own", &["A".into(), "B".into()]); // wrong arity
        db.add("unknown", &["X".into()]);
        db.add("control", &["P".into(), "Q".into()]); // pre-seeded IDB
        let warnings = check_database(&program, &db);
        assert_eq!(warnings.len(), 3, "{warnings:?}");
        assert!(warnings.iter().any(|w| w.contains("unknown")));
        assert!(warnings.iter().any(|w| w.contains("arity")));
        assert!(warnings.iter().any(|w| w.contains("also present as input")));
    }

    #[test]
    fn clean_database_has_no_warnings() {
        let program = parse_program("o1: own(x, y, s), s > 0.5 -> control(x, y).")
            .unwrap()
            .program;
        assert!(check_database(&program, &db()).is_empty());
    }
}

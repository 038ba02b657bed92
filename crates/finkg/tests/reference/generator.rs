//! Random stratified programs over small EDBs, for the reference suites.
//!
//! Every predicate has a level; EDB predicates sit at level 0. A rule
//! deriving a level-`l` predicate reads predicates of level at most `l`
//! positively and of level below `l` under negation, and binds every
//! variable of a negated atom positively. A predicate is *sealed* when no
//! rule of its own level reads it: only sealed predicates take aggregate
//! or existential rules, so neither sits on a recursive cycle, and integer
//! `+`/`-` assignments appear only in rules that read lower levels alone.
//! That keeps every program stratified and every chase finite. Argument
//! positions are typed, integer or string, so arithmetic and
//! `sum`/`min`/`max` only ever see integers; existential variables take
//! string positions. Constraints are added now and then; there is no
//! division.
//!
//! Most programs also carry a transitive closure `path` over an `edge`
//! relation, which grows for several rounds, with `count`/`sum`/`min`/
//! `max` aggregates over it into one `tally` head (some existential) and
//! an aggregate grouping by the tallies: that is what makes groups grow,
//! supersede, pre-empt one another and lose members to supersession.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vadalog::{parse_program, Fact, Program, Value};

#[derive(Clone, Copy, PartialEq)]
enum Ty {
    Int,
    Str,
}

struct Pred {
    name: String,
    level: usize,
    types: Vec<Ty>,
    edb: bool,
    sealed: bool,
}

/// One generated program with its EDB and an EDB delta.
pub struct Case {
    /// The seed that reproduces the case.
    pub seed: u64,
    /// The program text.
    pub text: String,
    pub program: Program,
    /// The EDB facts, in id order once loaded.
    pub edb: Vec<Fact>,
    /// EDB facts the delta retracts.
    pub retracts: Vec<Fact>,
    /// Facts the delta adds, none of them in the EDB.
    pub adds: Vec<Fact>,
}

const STRINGS: [&str; 3] = ["a", "b", "c"];

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.random_range(0..items.len())]
}

fn constant(rng: &mut StdRng, ty: Ty) -> String {
    match ty {
        Ty::Int => rng.random_range(0..4i64).to_string(),
        Ty::Str => format!("{:?}", pick(rng, &STRINGS[..])),
    }
}

fn value(rng: &mut StdRng, ty: Ty) -> Value {
    match ty {
        Ty::Int => Value::Int(rng.random_range(0..4i64)),
        Ty::Str => Value::str(pick::<&str>(rng, &STRINGS)),
    }
}

/// A bound variable of type `ty`, if the rule has one.
fn bound(rng: &mut StdRng, vars: &[(String, Ty)], ty: Ty) -> Option<String> {
    let typed: Vec<&String> = vars.iter().filter(|v| v.1 == ty).map(|v| &v.0).collect();
    (!typed.is_empty()).then(|| pick(rng, &typed).to_string())
}

/// The text of one rule deriving `head`, without its label.
fn rule(rng: &mut StdRng, preds: &[Pred], head: &Pred) -> String {
    let readable: Vec<&Pred> = preds
        .iter()
        .filter(|p| p.level < head.level || (p.level == head.level && !p.sealed))
        .collect();
    let mut vars: Vec<(String, Ty)> = Vec::new();
    let mut items: Vec<String> = Vec::new();
    let mut recursive = false;
    let atoms = if rng.random_bool(0.15) {
        3
    } else {
        rng.random_range(1..=2)
    };
    for _ in 0..atoms {
        let pred = *pick(rng, &readable);
        recursive |= pred.level == head.level && !pred.edb;
        let mut terms = Vec::new();
        for &ty in &pred.types {
            let reuse = rng
                .random_bool(0.5)
                .then(|| bound(rng, &vars, ty))
                .flatten();
            terms.push(match reuse {
                Some(v) => v,
                None if rng.random_bool(0.15) => constant(rng, ty),
                None => {
                    let v = format!("x{}", vars.len());
                    vars.push((v.clone(), ty));
                    v
                }
            });
        }
        items.push(format!("{}({})", pred.name, terms.join(", ")));
    }
    let lower: Vec<&Pred> = preds.iter().filter(|p| p.level < head.level).collect();
    if !lower.is_empty() && rng.random_bool(0.35) {
        let pred = *pick(rng, &lower);
        let terms: Vec<String> = pred
            .types
            .iter()
            .map(
                |&ty| match bound(rng, &vars, ty).filter(|_| rng.random_bool(0.8)) {
                    Some(v) => v,
                    None => constant(rng, ty),
                },
            )
            .collect();
        items.push(format!("not {}({})", pred.name, terms.join(", ")));
    }
    if !recursive && rng.random_bool(0.35) {
        if let Some(x) = bound(rng, &vars, Ty::Int) {
            let op = if rng.random_bool(0.5) { "+" } else { "-" };
            let y = bound(rng, &vars, Ty::Int)
                .filter(|_| rng.random_bool(0.5))
                .unwrap_or_else(|| constant(rng, Ty::Int));
            items.push(format!("m = {x} {op} {y}"));
            vars.push(("m".into(), Ty::Int));
        }
    }
    let result_at = head
        .types
        .iter()
        .position(|&ty| ty == Ty::Int)
        .filter(|_| head.sealed && !vars.is_empty() && rng.random_bool(0.45));
    let mut post = None;
    if result_at.is_some() {
        let (func, input) = match bound(rng, &vars, Ty::Int) {
            Some(x) => (*pick(rng, &["sum", "count", "min", "max"]), x),
            None => ("count", pick(rng, &vars).0.clone()),
        };
        items.push(format!("n = {func}({input})"));
        if rng.random_bool(0.4) {
            let rhs = bound(rng, &vars, Ty::Int)
                .filter(|_| rng.random_bool(0.5))
                .unwrap_or_else(|| constant(rng, Ty::Int));
            post = Some(format!("n {} {rhs}", pick(rng, &[">", ">=", "<", "!="])));
        }
    }
    for _ in 0..rng.random_range(0..=2usize.min(vars.len())) {
        let (x, ty) = pick(rng, &vars).clone();
        let rhs = bound(rng, &vars, ty)
            .filter(|_| rng.random_bool(0.5))
            .unwrap_or_else(|| constant(rng, ty));
        let op = match ty {
            Ty::Int => *pick(rng, &[">", "<", ">=", "<=", "==", "!="]),
            Ty::Str => *pick(rng, &["==", "!="]),
        };
        items.push(format!("{x} {op} {rhs}"));
    }
    items.extend(post);
    let terms: Vec<String> = head
        .types
        .iter()
        .enumerate()
        .map(|(i, &ty)| {
            if Some(i) == result_at {
                "n".to_string()
            } else if ty == Ty::Str && head.sealed && rng.random_bool(0.4) {
                pick(rng, &["z0", "z1"]).to_string()
            } else {
                // Aggregate heads bind fewer variables, so that groups
                // gather several members and grow over rounds.
                let keep = if result_at.is_some() { 0.4 } else { 0.85 };
                match bound(rng, &vars, ty).filter(|_| rng.random_bool(keep)) {
                    Some(v) => v,
                    None => constant(rng, ty),
                }
            }
        })
        .collect();
    format!(
        "{} -> {}({}).",
        items.join(", "),
        head.name,
        terms.join(", ")
    )
}

impl Case {
    /// The case of `seed`.
    pub fn generate(seed: u64) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let rng = &mut rng;
        let levels = rng.random_range(1..=3usize);
        let mut preds: Vec<Pred> = Vec::new();
        let typed = |rng: &mut StdRng| -> Vec<Ty> {
            (0..rng.random_range(1..=3))
                .map(|_| {
                    if rng.random_bool(0.5) {
                        Ty::Int
                    } else {
                        Ty::Str
                    }
                })
                .collect()
        };
        for i in 0..rng.random_range(2..=4) {
            let types = typed(rng);
            preds.push(Pred {
                name: format!("e{i}"),
                level: 0,
                types,
                edb: true,
                sealed: false,
            });
        }
        // A transitive closure over an edge relation grows for several
        // rounds, so aggregates reading it re-fold and supersede.
        let closure = rng.random_bool(0.6).then(|| {
            if rng.random_bool(0.5) {
                Ty::Int
            } else {
                Ty::Str
            }
        });
        if let Some(ty) = closure {
            preds.push(Pred {
                name: "edge".into(),
                level: 0,
                types: vec![ty, ty],
                edb: true,
                sealed: false,
            });
        }
        let edb_preds = preds.len();
        for i in 0..rng.random_range(2..=6) {
            let types = typed(rng);
            preds.push(Pred {
                name: format!("p{i}"),
                level: rng.random_range(0..levels),
                types,
                edb: false,
                sealed: rng.random_bool(0.4),
            });
        }
        let mut rules = Vec::new();
        if let Some(ty) = closure {
            let level = rng.random_range(0..levels);
            preds.push(Pred {
                name: "path".into(),
                level,
                types: vec![ty, ty],
                edb: false,
                sealed: false,
            });
            rules.push("edge(x, y) -> path(x, y).".to_string());
            rules.push("path(x, y), edge(y, z) -> path(x, z).".to_string());
            // Aggregates over the closure and the edges into one head,
            // some with an existential: their groups grow round by
            // round, and one's step can pre-empt the other's.
            let tally_level = rng.random_range(level..levels);
            preds.push(Pred {
                name: "tally".into(),
                level: tally_level,
                types: vec![ty, Ty::Int, Ty::Str],
                edb: false,
                sealed: true,
            });
            let funcs: &[&str] = match ty {
                Ty::Int => &["sum", "count", "min", "max"],
                Ty::Str => &["count"],
            };
            for body in ["path", "edge"] {
                if body == "edge" && rng.random_bool(0.5) {
                    continue;
                }
                let key = if rng.random_bool(0.7) { "x" } else { "y" };
                let input = if key == "x" { "y" } else { "x" };
                let tag = if rng.random_bool(0.5) { "z" } else { "\"a\"" };
                let func = pick(rng, funcs);
                rules.push(format!(
                    "{body}(x, y), n = {func}({input}) -> tally({key}, n, {tag})."
                ));
            }
            // An aggregate grouping by the tallies: a superseded tally
            // leaves its group, which must re-fold without it.
            if rng.random_bool(0.6) {
                preds.push(Pred {
                    name: "summary".into(),
                    level: tally_level + 1,
                    types: vec![Ty::Int, Ty::Int],
                    edb: false,
                    sealed: true,
                });
                let func = pick(rng, &["count(x)", "sum(n)", "max(n)"]);
                rules.push(format!("tally(x, n, t), m = {func} -> summary(n, m)."));
            }
        }
        for head in &preds[edb_preds..] {
            for _ in 0..rng.random_range(1..=2 + usize::from(head.sealed)) {
                rules.push(rule(rng, &preds, head));
            }
        }
        if rng.random_bool(0.3) {
            let pred = pick(rng, &preds);
            let terms: Vec<String> = (0..pred.types.len()).map(|i| format!("x{i}")).collect();
            let mut items = vec![format!("{}({})", pred.name, terms.join(", "))];
            if pred.types[0] == Ty::Int {
                items.push(format!("x0 > {}", constant(rng, Ty::Int)));
            }
            rules.push(format!("{} -> !.", items.join(", ")));
        }
        // Shuffle the rules so that id order does not follow the levels.
        for i in (1..rules.len()).rev() {
            rules.swap(i, rng.random_range(0..=i));
        }
        let text: String = rules
            .iter()
            .enumerate()
            .map(|(i, r)| format!("r{i}: {r}\n"))
            .collect();
        let program = parse_program(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: generated program rejected: {e}\n{text}"))
            .program;
        let fact = |rng: &mut StdRng, preds: &[Pred]| {
            let pred = pick(rng, preds);
            let values = pred.types.iter().map(|&ty| value(rng, ty)).collect();
            Fact::new(&pred.name, values)
        };
        let mut edb: Vec<Fact> = Vec::new();
        for _ in 0..rng.random_range(0..=30) {
            let from = if rng.random_bool(0.1) {
                &preds[..]
            } else {
                &preds[..edb_preds]
            };
            let f = fact(rng, from);
            if !edb.contains(&f) {
                edb.push(f);
            }
        }
        let mut retracts = Vec::new();
        for _ in 0..rng.random_range(0..=2usize.min(edb.len())) {
            let f = pick(rng, &edb).clone();
            if !retracts.contains(&f) {
                retracts.push(f);
            }
        }
        let mut adds = Vec::new();
        for _ in 0..rng.random_range(1..=2) {
            let f = fact(rng, &preds[..edb_preds]);
            if !edb.contains(&f) && !adds.contains(&f) {
                adds.push(f);
            }
        }
        Case {
            seed,
            text,
            program,
            edb,
            retracts,
            adds,
        }
    }
}

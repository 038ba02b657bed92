//! The two workloads: their inputs, made from the seed alone, and the
//! reference answers every HTTP response is checked against.

use explain::{DomainGlossary, ExplainError, Explainer};
use serve::ServeError;
use std::collections::HashSet;
use std::time::Duration;
use vadalog::obs::json::JsonWriter;
use vadalog::{ChaseOutcome, Database, Delta, Fact, Program, Symbol, Value};

/// The workload names, as given to `--workload`.
pub const NAMES: [&str; 2] = ["control_deep", "sanctions_live"];

/// Period of the open-loop writer: several times what a delta's apply
/// and publish take beside the readers (about 55 ms at p50), so the
/// writer never holds a core for a whole run and the readers' share of
/// the cores stays steady.
pub const PERIOD: Duration = Duration::from_millis(250);

/// The live workload's EDB is `NETWORKS` disjoint ownership networks of
/// `COMPANIES` companies each. The exposure closure of one random
/// ownership network is dominated by a few early companies, so its size
/// swings from seed to seed; a sum of independent networks swings less.
const NETWORKS: usize = 16;
const COMPANIES: usize = 125;

/// Goals in the cycle of request batches each client sends.
const CYCLE_GOALS: usize = 4096;

/// One EDB operation of a writer delta: `true` adds the fact, `false`
/// retracts it.
pub type Op = (bool, Fact);

/// The served application.
pub struct App {
    pub label: &'static str,
    pub program: Program,
    pub goal: &'static str,
    pub glossary: DomainGlossary,
}

/// One workload's generated inputs and load shape.
pub struct Workload {
    pub name: &'static str,
    pub app: App,
    pub db: Database,
    /// Goals to draw from; empty means every derived goal fact of the
    /// boot snapshot.
    pub targets: Vec<Fact>,
    /// Goals per `POST /explain`.
    pub batch: usize,
    /// Closed-loop clients (each holds at most one connection).
    pub clients: usize,
    /// `Some` for the workload whose writer applies EDB deltas.
    pub live: Option<Live>,
}

/// The writer's planned deltas and the EDB they lead to.
pub struct Live {
    pub deltas: Vec<Vec<Op>>,
    /// The EDB after every delta, in the engine's canonical order.
    pub final_edb: Vec<Fact>,
}

impl Workload {
    /// Builds workload `name` from `seed`. `deltas` is the number of
    /// writer deltas to plan (ignored by the read-only workload).
    pub fn new(name: &str, seed: u64, deltas: usize, nproc: usize) -> Result<Workload, String> {
        use finkg::apps::{control, sanctions};
        Ok(match name {
            "control_deep" => {
                let bundle = finkg::generator::control_bundle(21, 400, seed);
                Workload {
                    name: "control_deep",
                    app: App {
                        label: "control",
                        program: control::program(),
                        goal: control::GOAL,
                        glossary: control::glossary(),
                    },
                    db: bundle.database,
                    targets: bundle.targets,
                    batch: 8,
                    clients: 2.min(nproc),
                    live: None,
                }
            }
            "sanctions_live" => {
                let db = sanctions_edb(seed);
                let edb: Vec<Fact> = db.iter().map(|(_, f)| f.clone()).collect();
                Workload {
                    name: "sanctions_live",
                    app: App {
                        label: "sanctions",
                        program: sanctions::program(),
                        goal: sanctions::GOAL,
                        glossary: sanctions::glossary(),
                    },
                    db,
                    targets: Vec::new(),
                    batch: 8,
                    clients: 2.min(nproc),
                    live: Some(plan_deltas(edb, deltas, seed)),
                }
            }
            other => {
                return Err(format!(
                    "unknown workload {other:?}; known: {}",
                    NAMES.join(", ")
                ))
            }
        })
    }

    /// The goal pool: the bundle targets, or every derived goal fact.
    pub fn goal_pool(&self, outcome: &ChaseOutcome) -> Vec<Fact> {
        if !self.targets.is_empty() {
            return self.targets.clone();
        }
        outcome
            .facts_of(self.app.goal)
            .into_iter()
            .filter(|(id, _)| outcome.graph.is_derived(*id))
            .map(|(_, f)| f.clone())
            .collect()
    }

    /// Client `c`'s cycle of request batches, drawn uniformly from
    /// `pool` with the seed.
    pub fn batches(&self, pool: &[Fact], seed: u64, client: usize) -> Vec<Vec<Fact>> {
        let mut rng = SplitMix::new(seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9));
        (0..CYCLE_GOALS / self.batch)
            .map(|_| {
                (0..self.batch)
                    .map(|_| pool[rng.below(pool.len())].clone())
                    .collect()
            })
            .collect()
    }
}

/// One delta applying the planned deltas `planned` in order.
pub fn delta(planned: &[Vec<Op>]) -> Delta {
    planned
        .iter()
        .flatten()
        .fold(Delta::new(), |d, (add, fact)| {
            if *add {
                d.add(fact.clone())
            } else {
                d.retract(fact.clone())
            }
        })
}

/// The request body for a batch: one goal literal per line.
pub fn body(goals: &[Fact]) -> String {
    goals.iter().map(|g| format!("{g}.\n")).collect()
}

/// The `answers` array the server must return for `goals` on the
/// snapshot `explainer` is bound to, rendered as `finkg-serve` renders it.
pub fn expected_answers(explainer: &Explainer, goals: &[Fact]) -> String {
    let mut w = JsonWriter::new();
    w.open_array();
    for goal in goals {
        w.open_object();
        w.field_str("goal", &goal.to_string());
        match explainer.explain(goal) {
            Ok(e) => {
                w.field_str("text", &e.text);
                w.field_u64("chase_steps", e.chase_steps as u64);
                w.key("paths");
                w.open_array();
                for p in &e.paths {
                    w.value_str(p);
                }
                w.close_array();
            }
            Err(source) => w.field_str("error", &rejection(goal, source)),
        }
        w.close_object();
    }
    w.close_array();
    w.finish()
}

/// The error text the server renders for a goal the reference rejects:
/// the service error and its whole `source()` chain.
fn rejection(goal: &Fact, source: ExplainError) -> String {
    let err = ServeError::Explain {
        goal: goal.to_string(),
        source,
    };
    let mut text = err.to_string();
    let mut cause = std::error::Error::source(&err);
    while let Some(c) = cause {
        text.push_str(": ");
        text.push_str(&c.to_string());
        cause = c.source();
    }
    text
}

/// Splits an `/explain` response body into the snapshot version it
/// reports and the `answers` array.
pub fn split_answers(body: &[u8]) -> Option<(u64, &[u8])> {
    let rest = body.strip_prefix(b"{\"snapshot_version\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let version = std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()?;
    let answers = rest[digits..]
        .strip_prefix(b",\"answers\":")?
        .strip_suffix(b"}")?;
    Some((version, answers))
}

/// The live workload's EDB: `NETWORKS` disjoint
/// `random_sanctions(COMPANIES, 3, 3, ·)` networks, the `k`-th drawn with
/// seed `seed * NETWORKS + k` and its names prefixed `G{k}_`.
fn sanctions_edb(seed: u64) -> Database {
    let mut db = Database::new();
    for k in 0..NETWORKS {
        let network_seed = seed.wrapping_mul(NETWORKS as u64).wrapping_add(k as u64);
        let network = finkg::generator::random_sanctions(COMPANIES, 3, 3, network_seed);
        for (_, fact) in network.iter() {
            let values = fact
                .values
                .iter()
                .map(|v| match v {
                    Value::Str(name) => Value::from(format!("G{k}_{name}").as_str()),
                    other => other.clone(),
                })
                .collect();
            db.insert(Fact {
                predicate: fact.predicate,
                values,
            });
        }
    }
    db
}

/// A company of the live workload's EDB, drawn uniformly.
fn company(rng: &mut SplitMix) -> Value {
    let name = format!("G{}_C{}", rng.below(NETWORKS), rng.below(COMPANIES));
    Value::from(name.as_str())
}

/// Plans `count` writer deltas of ten operations each over the live
/// workload's EDB `edb`: three `own` and one `sanctioned` retraction of
/// existing facts, four `own` edges from entity names never seen before,
/// and two new `sanctioned` designations. Mirrors the engine's canonical
/// EDB order (survivors in order, additions appended) to give the final
/// EDB.
///
/// Every addition is a fact no earlier EDB held, so applying a run of
/// consecutive deltas as one merged delta leads to the same EDB, in the
/// same order, as applying them one by one.
fn plan_deltas(mut edb: Vec<Fact>, count: usize, seed: u64) -> Live {
    let own = Symbol::new("own");
    let sanctioned = Symbol::new("sanctioned");
    let mut seen: HashSet<Fact> = edb.iter().cloned().collect();
    let mut rng = SplitMix::new(seed ^ 0xDE17_A5EE);
    let mut deltas = Vec::with_capacity(count);
    for d in 0..count {
        let mut ops = Vec::with_capacity(10);
        for (predicate, times) in [(own, 3), (sanctioned, 1)] {
            for _ in 0..times {
                let i = loop {
                    let i = rng.below(edb.len());
                    if edb[i].predicate == predicate {
                        break i;
                    }
                };
                ops.push((false, edb.remove(i)));
            }
        }
        let mut fresh = Vec::with_capacity(6);
        for k in 0..4 {
            let weight = (20 + rng.below(76)) as f64 / 100.0;
            fresh.push(Fact::new(
                "own",
                vec![
                    format!("N{d}_{k}").as_str().into(),
                    company(&mut rng),
                    weight.into(),
                ],
            ));
        }
        for _ in 0..2 {
            fresh.push(loop {
                let fact = Fact::new("sanctioned", vec![company(&mut rng)]);
                if seen.insert(fact.clone()) {
                    break fact;
                }
            });
        }
        for fact in fresh {
            edb.push(fact.clone());
            ops.push((true, fact));
        }
        deltas.push(ops);
    }
    Live {
        deltas,
        final_edb: edb,
    }
}

/// SplitMix64: a tiny seeded generator, so the benchmark's draws do not
/// depend on any generator the program under test ships.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_split_from_the_version() {
        let body = br#"{"snapshot_version":12,"answers":[{"goal":"a"}]}"#;
        let (version, answers) = split_answers(body).unwrap();
        assert_eq!(version, 12);
        assert_eq!(answers, br#"[{"goal":"a"}]"#);
        assert!(split_answers(br#"{"error":"x"}"#).is_none());
    }

    #[test]
    fn deltas_are_seeded_and_keep_the_edb_mirror() {
        let w1 = Workload::new("sanctions_live", 3, 4, 2).unwrap();
        let w2 = Workload::new("sanctions_live", 3, 4, 2).unwrap();
        let (l1, l2) = (w1.live.unwrap(), w2.live.unwrap());
        assert_eq!(l1.deltas.len(), 4);
        assert_eq!(l1.final_edb, l2.final_edb);
        assert_eq!(l1.deltas, l2.deltas);
        assert!(l1.deltas.iter().all(|ops| ops.len() == 10));
        assert_eq!(delta(&l1.deltas[1..3]).len(), 20);
        // 4 deltas each retract 4 facts and add 6.
        assert_eq!(l1.final_edb.len(), w1.db.len() + 4 * 2);
    }
}

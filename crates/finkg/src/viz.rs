//! Graph visualizations of proofs, and the error archetypes of the
//! comprehension user study (Sec. 6.1).
//!
//! The study shows users a textual explanation next to candidate KG
//! visualizations — one faithful to the proof and distractors obtained by
//! injecting one of four error archetypes: (I) a false edge, (II) an
//! incorrect property value, (III) an incorrect order of aggregation
//! values, (IV) an incorrect chain in case of recursion.

use rand::rngs::StdRng;
use rand::Rng;
use vadalog::{ChaseOutcome, FactId, Value};

/// A node of a proof visualization.
#[derive(Clone, PartialEq, Debug)]
pub struct VizNode {
    /// Entity name.
    pub name: String,
    /// Capital annotation, if known.
    pub capital: Option<f64>,
    /// Shock annotation, if any.
    pub shock: Option<f64>,
    /// True iff the entity is marked as defaulted/derived in the proof.
    pub derived: bool,
}

/// An edge of a proof visualization.
#[derive(Clone, PartialEq, Debug)]
pub struct VizEdge {
    /// Source entity.
    pub from: String,
    /// Target entity.
    pub to: String,
    /// Edge kind (the predicate: `own`, `long_term_debts`, ...).
    pub label: String,
    /// Numeric annotation (share or amount), if any.
    pub value: Option<f64>,
}

/// A proof visualization: the KG fragment a business analyst would see.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct VizGraph {
    /// The nodes, in first-appearance order.
    pub nodes: Vec<VizNode>,
    /// The edges, in proof order (order matters for archetype III).
    pub edges: Vec<VizEdge>,
}

impl VizGraph {
    /// Builds the visualization of the proof of `fact` in `outcome`.
    ///
    /// Facts are mapped heuristically by shape: a fact with two leading
    /// string arguments becomes an edge (annotated with its first numeric
    /// argument); a fact with one leading string argument annotates that
    /// node (`has_capital` and `shock` get dedicated treatment).
    pub fn from_proof(outcome: &ChaseOutcome, fact: FactId) -> VizGraph {
        let proof = outcome.graph.proof(fact);
        let mut g = VizGraph::default();
        for id in proof.facts() {
            let f = outcome.database.fact(id);
            let derived = outcome.graph.is_derived(id);
            let pred = f.predicate.as_str();
            let strings: Vec<String> = f
                .values
                .iter()
                .take_while(|v| matches!(v, Value::Str(_)))
                .map(|v| match v {
                    Value::Str(s) => s.as_str().to_owned(),
                    _ => unreachable!(),
                })
                .collect();
            let first_num = f.values.iter().find_map(Value::as_f64);
            match (pred, strings.len()) {
                ("has_capital", _) if !strings.is_empty() => {
                    g.node_mut(&strings[0]).capital = first_num;
                }
                ("shock", _) if !strings.is_empty() => {
                    g.node_mut(&strings[0]).shock = first_num;
                }
                (_, n) if n >= 2 => {
                    g.node_mut(&strings[0]);
                    g.node_mut(&strings[1]);
                    g.edges.push(VizEdge {
                        from: strings[0].clone(),
                        to: strings[1].clone(),
                        label: pred.to_owned(),
                        value: first_num,
                    });
                }
                (_, 1) => {
                    let node = g.node_mut(&strings[0]);
                    if derived {
                        node.derived = true;
                    }
                }
                _ => {}
            }
        }
        g
    }

    fn node_mut(&mut self, name: &str) -> &mut VizNode {
        if let Some(i) = self.nodes.iter().position(|n| n.name == name) {
            return &mut self.nodes[i];
        }
        self.nodes.push(VizNode {
            name: name.to_owned(),
            capital: None,
            shock: None,
            derived: false,
        });
        self.nodes.last_mut().expect("just pushed")
    }

    /// Structural equality modulo edge order (except values): used by the
    /// simulated users to compare candidates.
    pub fn same_structure(&self, other: &VizGraph) -> bool {
        if self.nodes.len() != other.nodes.len() || self.edges.len() != other.edges.len() {
            return false;
        }
        let mut a = self.clone();
        let mut b = other.clone();
        let key_n = |n: &VizNode| (n.name.clone(),);
        a.nodes.sort_by_key(key_n);
        b.nodes.sort_by_key(key_n);
        let key_e = |e: &VizEdge| {
            (
                e.from.clone(),
                e.to.clone(),
                e.label.clone(),
                e.value.map(f64::to_bits),
            )
        };
        a.edges.sort_by_key(|x| key_e(x));
        b.edges.sort_by_key(|x| key_e(x));
        a == b
    }

    /// All numeric annotations (edge values, capitals, shocks) in a
    /// canonical order — the "constants" a careful reader cross-checks
    /// against the explanation text.
    pub fn numeric_annotations(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for n in &self.nodes {
            out.extend(n.capital);
            out.extend(n.shock);
        }
        for e in &self.edges {
            out.extend(e.value);
        }
        out
    }
}

/// The four error archetypes of the comprehension study.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ErrorArchetype {
    /// (I) A false edge is added.
    WrongEdge,
    /// (II) A property value is altered.
    WrongValue,
    /// (III) Two aggregation contributor values are swapped/misassigned.
    WrongAggregationOrder,
    /// (IV) The recursion chain is rewired.
    WrongChain,
}

/// All archetypes, for iteration.
pub const ALL_ARCHETYPES: [ErrorArchetype; 4] = [
    ErrorArchetype::WrongEdge,
    ErrorArchetype::WrongValue,
    ErrorArchetype::WrongAggregationOrder,
    ErrorArchetype::WrongChain,
];

/// Injects one error of the given archetype into a copy of `graph`.
/// Returns `None` when the graph is too small for the archetype (e.g. no
/// two edges to swap).
pub fn inject_error(
    graph: &VizGraph,
    archetype: ErrorArchetype,
    rng: &mut StdRng,
) -> Option<VizGraph> {
    let mut g = graph.clone();
    match archetype {
        ErrorArchetype::WrongEdge => {
            if g.nodes.len() < 2 {
                return None;
            }
            // Add a spurious edge between two random distinct nodes.
            let i = rng.random_range(0..g.nodes.len());
            let mut j = rng.random_range(0..g.nodes.len());
            if i == j {
                j = (j + 1) % g.nodes.len();
            }
            let label = g
                .edges
                .first()
                .map(|e| e.label.clone())
                .unwrap_or_else(|| "own".to_owned());
            g.edges.push(VizEdge {
                from: g.nodes[i].name.clone(),
                to: g.nodes[j].name.clone(),
                label,
                // A distinctive value that real scenarios never produce,
                // so the spurious edge is detectable by careful readers.
                value: Some(rng.random_range(11..20i64) as f64 + 0.31),
            });
            Some(g)
        }
        ErrorArchetype::WrongValue => {
            // Perturb one numeric annotation.
            let mut candidates: Vec<usize> = g
                .edges
                .iter()
                .enumerate()
                .filter(|(_, e)| e.value.is_some())
                .map(|(i, _)| i)
                .collect();
            if candidates.is_empty() {
                let node = g.nodes.iter_mut().find(|n| n.capital.is_some())?;
                node.capital = node.capital.map(|c| c * 2.0 + 0.31);
                return Some(g);
            }
            let i = candidates.remove(rng.random_range(0..candidates.len()));
            let e = &mut g.edges[i];
            // The .31 offset keeps the wrong value off the grid of values
            // real scenarios use, as a study designer would.
            e.value = e.value.map(|v| v * 2.0 + 0.31);
            Some(g)
        }
        ErrorArchetype::WrongAggregationOrder => {
            // Swap the values of two edges with distinct values,
            // preferring edges into the same target (true aggregation
            // contributors).
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            for i in 0..g.edges.len() {
                for j in i + 1..g.edges.len() {
                    let (a, b) = (&g.edges[i], &g.edges[j]);
                    // Swapping between two parallel edges of the same pair
                    // of nodes is invisible; require distinct endpoints.
                    if a.value.is_some()
                        && b.value.is_some()
                        && a.value != b.value
                        && (a.from != b.from || a.to != b.to)
                    {
                        pairs.push((i, j));
                    }
                }
            }
            if pairs.is_empty() {
                return None;
            }
            let same_target: Vec<(usize, usize)> = pairs
                .iter()
                .copied()
                .filter(|&(i, j)| g.edges[i].to == g.edges[j].to)
                .collect();
            let pool = if same_target.is_empty() {
                &pairs
            } else {
                &same_target
            };
            let (i, j) = pool[rng.random_range(0..pool.len())];
            let tmp = g.edges[i].value;
            g.edges[i].value = g.edges[j].value;
            g.edges[j].value = tmp;
            Some(g)
        }
        ErrorArchetype::WrongChain => {
            // Rewire: swap the targets of two edges (breaks the chain).
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            for i in 0..g.edges.len() {
                for j in i + 1..g.edges.len() {
                    if g.edges[i].to != g.edges[j].to {
                        pairs.push((i, j));
                    }
                }
            }
            if pairs.is_empty() {
                return None;
            }
            let (i, j) = pairs[rng.random_range(0..pairs.len())];
            let tmp = g.edges[i].to.clone();
            g.edges[i].to = g.edges[j].to.clone();
            g.edges[j].to = tmp;
            Some(g)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::simple_stress;
    use rand::SeedableRng;
    use vadalog::{ChaseSession, Fact};

    fn figure_8_viz() -> VizGraph {
        let out = ChaseSession::new(&simple_stress::program())
            .run(simple_stress::figure_8_database())
            .unwrap();
        let id = out.lookup(&Fact::new("default", vec!["C".into()])).unwrap();
        VizGraph::from_proof(&out, id)
    }

    #[test]
    fn proof_graph_has_expected_shape() {
        let g = figure_8_viz();
        // Entities A, B, C.
        let names: Vec<&str> = g.nodes.iter().map(|n| n.name.as_str()).collect();
        for e in ["A", "B", "C"] {
            assert!(names.contains(&e), "missing node {e}");
        }
        // Three debt edges (7; 2 and 9).
        let debt_edges: Vec<&VizEdge> = g.edges.iter().filter(|e| e.label == "debts").collect();
        assert_eq!(debt_edges.len(), 3);
        // Capitals and shock annotated.
        let a = g.nodes.iter().find(|n| n.name == "A").unwrap();
        assert_eq!(a.capital, Some(5.0));
        assert_eq!(a.shock, Some(6.0));
        // Defaults marked.
        assert!(g.nodes.iter().filter(|n| n.derived).count() >= 3);
    }

    #[test]
    fn archetypes_produce_detectably_different_graphs() {
        let g = figure_8_viz();
        let mut rng = StdRng::seed_from_u64(3);
        for archetype in ALL_ARCHETYPES {
            let bad = inject_error(&g, archetype, &mut rng)
                .unwrap_or_else(|| panic!("{archetype:?} applicable"));
            assert!(!bad.same_structure(&g), "{archetype:?} left graph equal");
        }
    }

    #[test]
    fn wrong_value_changes_annotations_only() {
        let g = figure_8_viz();
        let mut rng = StdRng::seed_from_u64(5);
        let bad = inject_error(&g, ErrorArchetype::WrongValue, &mut rng).unwrap();
        assert_eq!(bad.edges.len(), g.edges.len());
        assert_eq!(bad.nodes.len(), g.nodes.len());
        assert_ne!(bad.numeric_annotations(), g.numeric_annotations());
    }

    #[test]
    fn wrong_edge_adds_one_edge() {
        let g = figure_8_viz();
        let mut rng = StdRng::seed_from_u64(7);
        let bad = inject_error(&g, ErrorArchetype::WrongEdge, &mut rng).unwrap();
        assert_eq!(bad.edges.len(), g.edges.len() + 1);
    }

    #[test]
    fn same_structure_is_order_insensitive() {
        let g = figure_8_viz();
        let mut shuffled = g.clone();
        shuffled.edges.reverse();
        assert!(g.same_structure(&shuffled));
    }

    #[test]
    fn tiny_graphs_reject_inapplicable_archetypes() {
        let g = VizGraph::default();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(inject_error(&g, ErrorArchetype::WrongEdge, &mut rng).is_none());
        assert!(inject_error(&g, ErrorArchetype::WrongChain, &mut rng).is_none());
    }
}

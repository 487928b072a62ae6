//! Property-based tests for the arborescence solver and forests.

use proptest::prelude::*;
use rock_graph::{
    co_optimal_forests, min_arborescence, min_spanning_forest, ArborescenceResult, DiGraph, Forest,
};

/// Random small weighted digraphs (no self-loops, weights in 1..100).
fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (2usize..7).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n, 1u32..100), 0..20).prop_map(move |edges| {
            let mut g = DiGraph::new(n);
            for (f, t, w) in edges {
                if f != t {
                    g.add_edge(f, t, w as f64);
                }
            }
            g
        })
    })
}

/// Random digraphs whose weights repeat (1..4) and whose edges may
/// repeat, so co-optimal ties are common.
fn arb_tied_graph() -> impl Strategy<Value = DiGraph> {
    (2usize..8).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n, 1u32..4), 0..24).prop_map(move |edges| {
            let mut g = DiGraph::new(n);
            for (f, t, w) in edges {
                if f != t {
                    g.add_edge(f, t, w as f64);
                }
            }
            g
        })
    })
}

/// The tie search written against [`DiGraph::in_edges`], which scans
/// every edge of the graph for each child, twice.
fn co_optimal_forests_by_scan(graph: &DiGraph, eps: f64, limit: usize) -> Vec<ArborescenceResult> {
    let base = min_spanning_forest(graph);
    let mut out = vec![base.clone()];
    if limit <= 1 {
        return out;
    }
    for (child, parent) in base.parent.iter().enumerate() {
        let Some(parent) = parent else { continue };
        let chosen_weight = graph
            .in_edges(child)
            .filter(|e| e.from == *parent)
            .map(|e| e.weight)
            .fold(f64::INFINITY, f64::min);
        let has_tie = graph
            .in_edges(child)
            .any(|e| e.from != *parent && (e.weight - chosen_weight).abs() <= eps);
        if !has_tie {
            continue;
        }
        let mut alt_graph = graph.clone();
        alt_graph.retain_edges(|e| !(e.from == *parent && e.to == child));
        let alt = min_spanning_forest(&alt_graph);
        if (alt.total_weight - base.total_weight).abs() <= eps
            && !out.iter().any(|r| r.parent == alt.parent)
        {
            out.push(alt);
            if out.len() >= limit {
                break;
            }
        }
    }
    out
}

/// Walks up the parent chain and confirms it terminates at a root.
fn reaches_root(parent: &[Option<usize>], v: usize) -> bool {
    let mut cur = v;
    let mut steps = 0;
    while let Some(p) = parent[cur] {
        cur = p;
        steps += 1;
        if steps > parent.len() {
            return false;
        }
    }
    true
}

proptest! {
    /// The tie search reads each child's in-edges from one grouping of
    /// the graph's edges; it returns the same forests, in the same order
    /// and with the same weight bits, as the per-child scan.
    #[test]
    fn tie_search_equals_the_in_edge_scan(g in prop_oneof![arb_graph(), arb_tied_graph()]) {
        let bits = |rs: Vec<ArborescenceResult>| -> Vec<(Vec<Option<usize>>, u64)> {
            rs.into_iter().map(|r| (r.parent, r.total_weight.to_bits())).collect()
        };
        for eps in [0.0, 1e-9] {
            for limit in [1, 2, 8] {
                prop_assert_eq!(
                    bits(co_optimal_forests(&g, eps, limit)),
                    bits(co_optimal_forests_by_scan(&g, eps, limit))
                );
            }
        }
    }

    /// The spanning forest is always acyclic and total.
    #[test]
    fn forest_is_acyclic(g in arb_graph()) {
        let r = min_spanning_forest(&g);
        prop_assert_eq!(r.parent.len(), g.node_count());
        for v in 0..g.node_count() {
            prop_assert!(reaches_root(&r.parent, v), "cycle through {}", v);
        }
    }

    /// Heuristic 4.1: a node becomes a root only if it has no incoming
    /// edge at all (no feasible parent).
    #[test]
    fn roots_have_no_feasible_parent_or_break_cycles(g in arb_graph()) {
        let r = min_spanning_forest(&g);
        // Count nodes with incoming edges that ended up as roots: such a
        // root is only legitimate if all its in-neighbours are its own
        // descendants (tree-ness forbids the edge).
        for v in 0..g.node_count() {
            if r.parent[v].is_none() && g.in_edges(v).count() > 0 {
                let succs = descendants(&r.parent, v);
                let all_below = g.in_edges(v).all(|e| succs.contains(&e.from));
                prop_assert!(all_below, "node {} is a root despite a usable parent", v);
            }
        }

        fn descendants(parent: &[Option<usize>], v: usize) -> Vec<usize> {
            let mut out = Vec::new();
            let mut changed = true;
            while changed {
                changed = false;
                for (c, p) in parent.iter().enumerate() {
                    if let Some(p) = p {
                        if (*p == v || out.contains(p)) && !out.contains(&c) {
                            out.push(c);
                            changed = true;
                        }
                    }
                }
            }
            out
        }
    }

    /// Every selected edge exists in the input graph with the same weight.
    #[test]
    fn selected_edges_exist(g in arb_graph()) {
        let r = min_spanning_forest(&g);
        for (v, p) in r.parent.iter().enumerate() {
            if let Some(p) = p {
                prop_assert!(
                    g.edges().iter().any(|e| e.from == *p && e.to == v),
                    "edge {} -> {} not in graph", p, v
                );
            }
        }
    }

    /// Rooted arborescence (when it exists) never weighs more than any
    /// greedy parent assignment that happens to be a tree.
    #[test]
    fn rooted_weight_at_most_greedy(g in arb_graph()) {
        if let Some(r) = min_arborescence(&g, 0) {
            // Greedy: each node takes its min incoming edge; if that
            // happens to be acyclic it is a candidate solution.
            let n = g.node_count();
            let mut greedy_parent: Vec<Option<usize>> = vec![None; n];
            let mut greedy_weight = 0.0;
            let mut feasible = true;
            for (v, slot) in greedy_parent.iter_mut().enumerate().skip(1) {
                match g.in_edges(v).min_by(|a, b| a.weight.total_cmp(&b.weight)) {
                    Some(e) => {
                        *slot = Some(e.from);
                        greedy_weight += e.weight;
                    }
                    None => feasible = false,
                }
            }
            if feasible && (0..n).all(|v| reaches_root(&greedy_parent, v)) {
                prop_assert!(r.total_weight <= greedy_weight + 1e-9);
            }
        }
    }

    /// Forest successors/ancestors are consistent.
    #[test]
    fn forest_queries_consistent(g in arb_graph()) {
        let r = min_spanning_forest(&g);
        let forest: Forest<usize> = (0..g.node_count())
            .map(|v| (v, r.parent[v]))
            .collect();
        prop_assert!(forest.is_acyclic());
        for v in 0..g.node_count() {
            for s in forest.successors(&v) {
                prop_assert!(forest.ancestors(&s).contains(&&v));
            }
        }
    }
}

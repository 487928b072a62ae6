//! Property-based tests for the arborescence solver and forests.

use std::collections::BTreeSet;

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

/// The weight sets of [`arb_dense_graph`]: whole numbers, and two sets
/// with sums that round (`0.1 + 0.2` is one ulp above `0.3`).
const DENSE_WEIGHTS: [[f64; 3]; 3] =
    [[1.0, 2.0, 3.0], [0.1, 0.2, 0.1 + 0.2], [0.1 + 0.2, 0.3, 0.5]];

/// Complete digraphs of 2-48 nodes whose weights come from one of
/// [`DENSE_WEIGHTS`]: many cycles per level, and ties everywhere.
fn arb_dense_graph() -> impl Strategy<Value = DiGraph> {
    (2usize..49, 0usize..DENSE_WEIGHTS.len()).prop_flat_map(|(n, set)| {
        prop::collection::vec(0usize..3, n * (n - 1)).prop_map(move |picks| {
            let mut g = DiGraph::new(n);
            let mut picks = picks.into_iter();
            for f in 0..n {
                for t in (0..n).filter(|&t| t != f) {
                    g.add_edge(f, t, DENSE_WEIGHTS[set][picks.next().expect("one per edge")]);
                }
            }
            g
        })
    })
}

/// Chu-Liu/Edmonds contracting one cycle per recursion level: the
/// textbook form, which the solver must match forest for forest.
mod one_cycle {
    use rock_graph::{ArborescenceResult, DiGraph};

    #[derive(Clone, Copy)]
    struct WorkEdge {
        from: usize,
        to: usize,
        weight: f64,
        /// Index into the level above (`usize::MAX` for virtual edges).
        orig: usize,
    }

    pub fn min_arborescence(graph: &DiGraph, root: usize) -> Option<ArborescenceResult> {
        let edges = graph
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| WorkEdge { from: e.from, to: e.to, weight: e.weight, orig: i })
            .collect();
        let chosen = solve(graph.node_count(), edges, root)?;
        Some(result(graph, chosen))
    }

    pub fn min_spanning_forest(graph: &DiGraph) -> ArborescenceResult {
        let n = graph.node_count();
        if n == 0 {
            return ArborescenceResult { parent: vec![], total_weight: 0.0 };
        }
        let big: f64 = graph.edges().iter().map(|e| e.weight.abs()).sum::<f64>() + 1.0;
        let mut edges: Vec<WorkEdge> = graph
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| WorkEdge { from: e.from, to: e.to, weight: e.weight, orig: i })
            .collect();
        for v in 0..n {
            edges.push(WorkEdge { from: n, to: v, weight: big, orig: usize::MAX });
        }
        result(graph, solve(n + 1, edges, n).expect("virtual root reaches every node"))
    }

    /// Parents and total in the order `solve` returns the edges.
    fn result(graph: &DiGraph, chosen: Vec<usize>) -> ArborescenceResult {
        let mut parent = vec![None; graph.node_count()];
        let mut total = 0.0;
        for orig in chosen.into_iter().filter(|&o| o != usize::MAX) {
            let e = graph.edges()[orig];
            parent[e.to] = Some(e.from);
            total += e.weight;
        }
        ArborescenceResult { parent, total_weight: total }
    }

    fn solve(n: usize, edges: Vec<WorkEdge>, root: usize) -> Option<Vec<usize>> {
        let mut best: Vec<Option<usize>> = vec![None; n];
        for (i, e) in edges.iter().enumerate() {
            if e.to == root || e.from == e.to {
                continue;
            }
            match best[e.to] {
                None => best[e.to] = Some(i),
                Some(j) => {
                    if e.weight < edges[j].weight {
                        best[e.to] = Some(i);
                    }
                }
            }
        }
        if (0..n).any(|v| v != root && best[v].is_none()) {
            return None;
        }
        let Some(cycle_nodes) = find_cycle(n, root, &best, &edges) else {
            return Some(
                best.iter()
                    .enumerate()
                    .filter(|(v, _)| *v != root)
                    .map(|(_, b)| edges[b.expect("checked")].orig)
                    .collect(),
            );
        };
        let in_cycle = |v: usize| cycle_nodes.contains(&v);
        let mut relabel = vec![usize::MAX; n];
        let mut next = 0usize;
        for (v, slot) in relabel.iter_mut().enumerate() {
            if !in_cycle(v) {
                *slot = next;
                next += 1;
            }
        }
        let c = next;
        for &v in &cycle_nodes {
            relabel[v] = c;
        }
        let mut contracted: Vec<WorkEdge> = Vec::new();
        for (i, e) in edges.iter().enumerate() {
            let (fu, fv) = (in_cycle(e.from), in_cycle(e.to));
            if fu && fv {
                continue;
            }
            let weight = if !fu && fv {
                e.weight - edges[best[e.to].expect("cycle node has best")].weight
            } else {
                e.weight
            };
            contracted.push(WorkEdge { from: relabel[e.from], to: relabel[e.to], weight, orig: i });
        }
        let sub = solve(c + 1, contracted, relabel[root])?;
        let entering = *sub.iter().find(|&&i| in_cycle(edges[i].to)).expect("enters the cycle");
        let displaced = edges[entering].to;
        let kept = cycle_nodes.iter().filter(|&&v| v != displaced).map(|&v| best[v].expect("best"));
        Some(sub.iter().copied().chain(kept).map(|i| edges[i].orig).collect())
    }

    /// The first cycle of best in-edges a walk from node 0, 1, ... closes.
    fn find_cycle(
        n: usize,
        root: usize,
        best: &[Option<usize>],
        edges: &[WorkEdge],
    ) -> Option<Vec<usize>> {
        let parent = |v: usize| edges[best[v].expect("has best")].from;
        let mut walk = vec![usize::MAX; n];
        for start in 0..n {
            let mut v = start;
            while v != root && walk[v] == usize::MAX {
                walk[v] = start;
                v = parent(v);
            }
            if v != root && walk[v] == start {
                let mut cycle = vec![v];
                let mut u = parent(v);
                while u != v {
                    cycle.push(u);
                    u = parent(u);
                }
                return Some(cycle);
            }
        }
        None
    }
}

/// The tie search written against [`DiGraph::in_edges`], which scans
/// every edge of the graph for each child, twice, and re-solves a copy of
/// the graph with `solve`.
fn co_optimal_forests_by_scan(
    graph: &DiGraph,
    eps: f64,
    limit: usize,
    solve: fn(&DiGraph) -> ArborescenceResult,
) -> Vec<ArborescenceResult> {
    let base = solve(graph);
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
        let alt = solve(&alt_graph);
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

/// Whether every weight of `g` is a whole number, so that every total is
/// exact whatever order its terms are added in.
fn whole_weights(g: &DiGraph) -> bool {
    g.edges().iter().all(|e| e.weight.fract() == 0.0)
}

/// Asserts that `got` is `want`'s forest, with the same total: the same
/// bits if `whole`, else within 1e-12 relative (the two sum in different
/// orders).
fn assert_same_forest(got: &ArborescenceResult, want: &ArborescenceResult, whole: bool) {
    assert_eq!(got.parent, want.parent);
    if whole {
        assert_eq!(got.total_weight.to_bits(), want.total_weight.to_bits());
    } else {
        let scale = got.total_weight.abs().max(want.total_weight.abs());
        assert!(
            (got.total_weight - want.total_weight).abs() <= 1e-12 * scale,
            "totals {} and {}",
            got.total_weight,
            want.total_weight
        );
    }
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

/// `Forest::successors` as it was: a walk that rescans the whole parent
/// map for each node's children.
fn successors_by_rescan(forest: &Forest<usize>, node: &usize) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    let mut stack: Vec<&usize> = forest.children_of(node);
    while let Some(n) = stack.pop() {
        if out.insert(*n) {
            stack.extend(forest.children_of(n));
        }
    }
    out
}

proptest! {
    /// The tie search reads each child's in-edges from one grouping of
    /// the graph's edges and re-solves without copying the graph; it
    /// returns the same forests, in the same order and with the same
    /// weight bits, as the per-child scan re-solving filtered copies.
    #[test]
    fn tie_search_equals_the_in_edge_scan(
        g in prop_oneof![arb_graph(), arb_tied_graph(), arb_dense_graph()]
    ) {
        let bits = |rs: Vec<ArborescenceResult>| -> Vec<(Vec<Option<usize>>, u64)> {
            rs.into_iter().map(|r| (r.parent, r.total_weight.to_bits())).collect()
        };
        for eps in [0.0, 1e-9] {
            for limit in [1, 2, 8] {
                prop_assert_eq!(
                    bits(co_optimal_forests(&g, eps, limit)),
                    bits(co_optimal_forests_by_scan(&g, eps, limit, min_spanning_forest))
                );
            }
        }
    }

    /// Contracting every cycle of a level at once selects the forests
    /// (and finds the infeasible roots) that contracting one cycle per
    /// level does.
    #[test]
    fn solver_equals_the_one_cycle_reference(
        g in prop_oneof![arb_graph(), arb_tied_graph(), arb_dense_graph()]
    ) {
        let whole = whole_weights(&g);
        assert_same_forest(&min_spanning_forest(&g), &one_cycle::min_spanning_forest(&g), whole);
        for root in [0, g.node_count() - 1] {
            match (min_arborescence(&g, root), one_cycle::min_arborescence(&g, root)) {
                (Some(got), Some(want)) => assert_same_forest(&got, &want, whole),
                (got, want) => prop_assert_eq!(got, want),
            }
        }
    }

    /// The tie search, which re-solves without copying the graph, finds
    /// the forests that the per-child scan re-solving filtered copies with
    /// the one-cycle solver finds. A tie at `eps` 0 compares the totals'
    /// last bits, which depend on the order of summation, so fractional
    /// weights are searched at 1e-9 only.
    #[test]
    fn tie_search_equals_the_scan_over_the_reference(
        g in prop_oneof![arb_graph(), arb_tied_graph(), arb_dense_graph()]
    ) {
        let whole = whole_weights(&g);
        let epsilons: &[f64] = if whole { &[0.0, 1e-9] } else { &[1e-9] };
        for &eps in epsilons {
            for limit in [1, 2, 8] {
                let got = co_optimal_forests(&g, eps, limit);
                let want = co_optimal_forests_by_scan(&g, eps, limit, one_cycle::min_spanning_forest);
                prop_assert_eq!(got.len(), want.len());
                for (got, want) in got.iter().zip(&want) {
                    assert_same_forest(got, want, whole);
                }
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

    /// `successors` equals the per-node rescan for every node of random
    /// parent maps: forests, and malformed maps with cycles.
    #[test]
    fn successors_equal_the_per_node_rescan(
        parents in prop::collection::vec((0usize..12, 0usize..16), 0..24),
    ) {
        // A draw of 12 or more is a root.
        let forest: Forest<usize> =
            parents.iter().map(|&(node, p)| (node, (p < 12).then_some(p))).collect();
        for v in 0..12 {
            prop_assert_eq!(forest.successors(&v), successors_by_rescan(&forest, &v));
        }
    }
}

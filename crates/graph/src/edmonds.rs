//! Chu-Liu/Edmonds minimum-weight spanning arborescence, and the
//! minimum-weight **maximal forest** variant the paper actually solves.
//!
//! The paper's Heuristic 4.1 ("it is more plausible for a binary type to
//! be a derived type than a root type") is implemented by
//! [`min_spanning_forest`]: a virtual super-root is connected to every
//! node with a weight larger than the sum of all real edge weights, so the
//! optimal arborescence uses as few virtual edges as possible — every node
//! with *any* feasible parent receives one, and only genuinely
//! unreachable nodes become roots (Remark 4.2).

use crate::{DiGraph, Edge};

#[derive(Clone, Copy, Debug)]
struct WorkEdge {
    /// Endpoints on the current level.
    from: u32,
    to: u32,
    /// The input edge this one stands for ([`VIRTUAL`] for a super-root
    /// edge).
    orig: u32,
    /// The input edge's target node, the same on every level.
    head: u32,
    weight: f64,
}

/// The `orig` of the super-root's edges in [`min_spanning_forest`].
const VIRTUAL: u32 = u32::MAX;

/// The cycle id of a node on no cycle.
const NO_CYCLE: u32 = u32::MAX;

/// A node's selected in-edge: its input edge and that edge's target.
#[derive(Clone, Copy, Debug)]
struct Pick {
    orig: u32,
    head: u32,
}

/// What expanding a contracted level needs.
struct Level {
    /// Each node's id on the next level: the nodes on no cycle densely,
    /// in order, then one id per cycle.
    relabel: Vec<u32>,
    /// The first cycle's id on the next level.
    first_cycle: u32,
    /// Each node's best in-edge (`None` for the root).
    best: Vec<Option<Pick>>,
}

/// The outcome of an arborescence computation.
#[derive(Clone, Debug, PartialEq)]
pub struct ArborescenceResult {
    /// `parent[v]` is `v`'s parent node, or `None` for the root(s).
    pub parent: Vec<Option<usize>>,
    /// Total weight of the selected real edges, summed from `0.0` in
    /// node order: node 0's in-edge first, roots skipped.
    pub total_weight: f64,
}

impl ArborescenceResult {
    /// Nodes with no parent.
    pub fn roots(&self) -> Vec<usize> {
        self.parent.iter().enumerate().filter(|(_, p)| p.is_none()).map(|(i, _)| i).collect()
    }
}

/// Finds a minimum-weight spanning arborescence of `graph` rooted at
/// `root`, or `None` if some node is unreachable from `root`.
///
/// # Panics
///
/// Panics if `root` is out of range.
///
/// # Example
///
/// ```
/// use rock_graph::{DiGraph, min_arborescence};
/// let mut g = DiGraph::new(3);
/// g.add_edge(0, 1, 1.0);
/// g.add_edge(0, 2, 5.0);
/// g.add_edge(1, 2, 1.0);
/// let r = min_arborescence(&g, 0).unwrap();
/// assert_eq!(r.parent, vec![None, Some(0), Some(1)]);
/// assert_eq!(r.total_weight, 2.0);
/// ```
pub fn min_arborescence(graph: &DiGraph, root: usize) -> Option<ArborescenceResult> {
    assert!(root < graph.node_count(), "root out of range");
    let edges = graph.edges().iter().enumerate().map(|(i, e)| work_edge(i, e)).collect();
    let chosen = solve(graph.node_count(), edges, root)?;
    Some(read_forest(graph, &chosen))
}

/// Finds a minimum-weight **maximal forest**: every node that has at least
/// one feasible parent gets the best one consistent with global
/// tree-ness; nodes with no feasible parent become roots.
///
/// This is the paper's per-family lifting step (§4.2.2).
///
/// # Example
///
/// ```
/// use rock_graph::{DiGraph, min_spanning_forest};
/// let mut g = DiGraph::new(4);
/// g.add_edge(0, 1, 0.3);
/// g.add_edge(1, 0, 0.9);
/// g.add_edge(0, 2, 0.2);
/// // node 3 has no incoming edges: it stays a root.
/// let r = min_spanning_forest(&g);
/// assert_eq!(r.parent, vec![None, Some(0), Some(0), None]);
/// ```
pub fn min_spanning_forest(graph: &DiGraph) -> ArborescenceResult {
    spanning_forest_without(graph, None)
}

/// [`min_spanning_forest`] of `graph` with every edge from `excluded.0`
/// to `excluded.1` removed, without copying the graph: the tie search's
/// re-solve. The result is the one the filtered graph gives.
pub(crate) fn spanning_forest_without(
    graph: &DiGraph,
    excluded: Option<(usize, usize)>,
) -> ArborescenceResult {
    let n = graph.node_count();
    if n == 0 {
        return ArborescenceResult { parent: vec![], total_weight: 0.0 };
    }
    let kept =
        || graph.edges().iter().enumerate().filter(move |(_, e)| Some((e.from, e.to)) != excluded);
    // Virtual super-root n, connected to every node with a weight so large
    // that minimizing weight first minimizes the number of virtual edges.
    let big: f64 = kept().map(|(_, e)| e.weight.abs()).sum::<f64>() + 1.0;
    let mut edges: Vec<WorkEdge> = Vec::with_capacity(graph.edge_count() + n);
    edges.extend(kept().map(|(i, e)| work_edge(i, e)));
    let root = to_u32(n);
    edges.extend((0..n).map(|v| WorkEdge {
        from: root,
        to: to_u32(v),
        orig: VIRTUAL,
        head: to_u32(v),
        weight: big,
    }));
    let chosen = solve(n + 1, edges, n).expect("virtual root reaches every node");
    read_forest(graph, &chosen)
}

/// `graph`'s edge `i` as a level-0 work edge.
fn work_edge(i: usize, e: &Edge) -> WorkEdge {
    WorkEdge {
        from: to_u32(e.from),
        to: to_u32(e.to),
        orig: to_u32(i),
        head: to_u32(e.to),
        weight: e.weight,
    }
}

/// A node or edge index of the input as a work-edge field.
fn to_u32(i: usize) -> u32 {
    u32::try_from(i).expect("graph indices fit in u32")
}

/// Reads parents and the total off the solver's selected in-edges, one
/// per node of `graph` (a trailing super-root's entry is ignored);
/// virtual edges leave their node a root.
fn read_forest(graph: &DiGraph, chosen: &[Option<u32>]) -> ArborescenceResult {
    let mut parent = vec![None; graph.node_count()];
    let mut total = 0.0;
    for (slot, orig) in parent.iter_mut().zip(chosen) {
        let Some(orig) = orig.filter(|&o| o != VIRTUAL) else { continue };
        let e = graph.edges()[orig as usize];
        *slot = Some(e.from);
        total += e.weight;
    }
    ArborescenceResult { parent, total_weight: total }
}

/// Chu-Liu/Edmonds, one level per pass. A level picks each node's best
/// in-edge: the first minimal one in edge order, skipping edges into
/// `root` and self-loops. If those edges form no cycle they are the
/// answer. Otherwise every cycle they form is contracted at once into one
/// node of the next level: an edge inside a cycle is dropped, an edge
/// entering cycle node `v` is reduced to `w - best[v].w`, and the edges
/// keep their relative order. Contracting disjoint cycles commutes, so
/// this selects what contracting one cycle per level would.
///
/// Returns each node's selected in-edge as its `orig` (`None` for the
/// root), or `None` if some node has no in-edge on some level.
fn solve(mut n: usize, mut edges: Vec<WorkEdge>, mut root: usize) -> Option<Vec<Option<u32>>> {
    let mut levels: Vec<Level> = Vec::new();
    let mut next: Vec<WorkEdge> = Vec::new();
    loop {
        let best = best_in_edges(n, root, &edges)?;
        let picks: Vec<Option<Pick>> = best
            .iter()
            .map(|b| b.map(|i| Pick { orig: edges[i].orig, head: edges[i].head }))
            .collect();
        let (cycle, cycles) = mark_cycles(root, &best, &edges);
        if cycles == 0 {
            return Some(expand(&levels, picks));
        }
        let mut relabel = vec![0u32; n];
        let mut dense = 0u32;
        for (slot, &c) in relabel.iter_mut().zip(&cycle) {
            if c == NO_CYCLE {
                *slot = dense;
                dense += 1;
            }
        }
        for (slot, &c) in relabel.iter_mut().zip(&cycle) {
            if c != NO_CYCLE {
                *slot = dense + c;
            }
        }
        next.clear();
        next.reserve(edges.len());
        for e in &edges {
            let (cf, ct) = (cycle[e.from as usize], cycle[e.to as usize]);
            if ct != NO_CYCLE && cf == ct {
                continue;
            }
            let weight = if ct == NO_CYCLE {
                e.weight
            } else {
                e.weight - edges[best[e.to as usize].expect("cycle node has best")].weight
            };
            next.push(WorkEdge {
                from: relabel[e.from as usize],
                to: relabel[e.to as usize],
                weight,
                ..*e
            });
        }
        root = relabel[root] as usize;
        n = (dense + cycles) as usize;
        levels.push(Level { relabel, first_cycle: dense, best: picks });
        std::mem::swap(&mut edges, &mut next);
    }
}

/// Each node's cheapest in-edge (deterministic tie-break: first minimal
/// edge in edge order — the paper's multiple-minima case resolves to a
/// stable choice; see DESIGN.md), or `None` if a node other than `root`
/// has no in-edge.
fn best_in_edges(n: usize, root: usize, edges: &[WorkEdge]) -> Option<Vec<Option<usize>>> {
    let mut best: Vec<Option<usize>> = vec![None; n];
    for (i, e) in edges.iter().enumerate() {
        let to = e.to as usize;
        if to == root || e.from == e.to {
            continue;
        }
        match best[to] {
            None => best[to] = Some(i),
            Some(j) => {
                if e.weight < edges[j].weight {
                    best[to] = Some(i);
                }
            }
        }
    }
    let reachable = best.iter().enumerate().all(|(v, b)| v == root || b.is_some());
    reachable.then_some(best)
}

/// Gives each node on a cycle of the best in-edges its cycle's id
/// ([`NO_CYCLE`] for the rest), numbering cycles in the order the walks
/// close them; returns the ids and the number of cycles. Each walk
/// follows best in-edges backwards from the next unvisited node until it
/// reaches the root or a visited node; it closed a cycle if that node is
/// its own.
fn mark_cycles(root: usize, best: &[Option<usize>], edges: &[WorkEdge]) -> (Vec<u32>, u32) {
    let n = best.len();
    let parent = |v: usize| edges[best[v].expect("has best")].from as usize;
    let mut walk = vec![usize::MAX; n]; // the walk that first visited each node
    let mut cycle = vec![NO_CYCLE; n];
    let mut cycles = 0;
    for start in 0..n {
        let mut v = start;
        while v != root && walk[v] == usize::MAX {
            walk[v] = start;
            v = parent(v);
        }
        if v != root && walk[v] == start {
            let mut u = v;
            loop {
                cycle[u] = cycles;
                u = parent(u);
                if u == v {
                    break;
                }
            }
            cycles += 1;
        }
    }
    (cycle, cycles)
}

/// Expands the deepest level's best in-edges back through every
/// contracted level: a node on no cycle takes its next-level node's edge;
/// on a cycle, the member the contracted node's edge enters takes that
/// edge, and every other member its own best in-edge.
fn expand(levels: &[Level], deepest: Vec<Option<Pick>>) -> Vec<Option<u32>> {
    let mut chosen = deepest;
    for (depth, level) in levels.iter().enumerate().rev() {
        chosen = level
            .relabel
            .iter()
            .enumerate()
            .map(|(v, &c)| {
                let below = chosen[c as usize];
                if c < level.first_cycle {
                    return below;
                }
                let entering = below.expect("an arborescence enters every contracted cycle");
                let entered =
                    levels[..depth].iter().fold(entering.head, |u, l| l.relabel[u as usize]);
                if entered as usize == v {
                    below
                } else {
                    level.best[v]
                }
            })
            .collect();
    }
    chosen.into_iter().map(|p| p.map(|p| p.orig)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node() {
        let g = DiGraph::new(1);
        let r = min_arborescence(&g, 0).unwrap();
        assert_eq!(r.parent, vec![None]);
        assert_eq!(r.total_weight, 0.0);
        let f = min_spanning_forest(&g);
        assert_eq!(f.parent, vec![None]);
    }

    #[test]
    fn unreachable_node_fails_rooted() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 1.0);
        assert!(min_arborescence(&g, 0).is_none());
    }

    #[test]
    fn simple_chain() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(0, 2, 10.0);
        let r = min_arborescence(&g, 0).unwrap();
        assert_eq!(r.parent, vec![None, Some(0), Some(1)]);
        assert_eq!(r.total_weight, 3.0);
    }

    #[test]
    fn cycle_contraction() {
        // Classic example requiring contraction: 0 is root; 1 and 2 prefer
        // each other, but the arborescence must break the 1<->2 cycle.
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 10.0);
        g.add_edge(0, 2, 10.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 1, 1.0);
        let r = min_arborescence(&g, 0).unwrap();
        assert_eq!(r.total_weight, 11.0);
        // Either 0->1->2 or 0->2->1.
        let ok =
            r.parent == vec![None, Some(0), Some(1)] || r.parent == vec![None, Some(2), Some(0)];
        assert!(ok, "got {:?}", r.parent);
    }

    #[test]
    fn nested_cycles() {
        // 4 nodes, cycle 1->2->3->1 cheap, root edges expensive.
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 100.0);
        g.add_edge(0, 2, 101.0);
        g.add_edge(0, 3, 102.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 1, 1.0);
        let r = min_arborescence(&g, 0).unwrap();
        // Must pick the cheapest entry (0->1) and two cycle edges.
        assert_eq!(r.total_weight, 102.0);
        assert_eq!(r.parent[1], Some(0));
        assert_eq!(r.parent[2], Some(1));
        assert_eq!(r.parent[3], Some(2));
    }

    #[test]
    fn disjoint_two_cycles_are_each_entered_once() {
        // Root 0 and k pairs (a, b) that prefer each other; each pair is
        // cheapest to enter at a.
        for k in 1..=8 {
            let mut g = DiGraph::new(2 * k + 1);
            for i in 0..k {
                let (a, b) = (2 * i + 1, 2 * i + 2);
                g.add_edge(0, b, 12.0);
                g.add_edge(a, b, 1.0);
                g.add_edge(b, a, 1.0);
                g.add_edge(0, a, 10.0);
            }
            let r = min_arborescence(&g, 0).unwrap();
            for i in 0..k {
                assert_eq!(r.parent[2 * i + 1], Some(0));
                assert_eq!(r.parent[2 * i + 2], Some(2 * i + 1));
            }
            assert_eq!(r.total_weight, 11.0 * k as f64);
        }
    }

    #[test]
    fn a_cycle_can_close_through_a_contracted_node() {
        // Level 0 contracts 1 <-> 2 into A. A's cheapest entry is 3 -> 1
        // (2 - 1), and 3's best in-edge leaves A (1 -> 3), so A and 3 form
        // the next level's cycle, entered from the root at 1.
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 10.0);
        g.add_edge(0, 2, 10.0);
        g.add_edge(0, 3, 10.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 1, 1.0);
        g.add_edge(1, 3, 1.0);
        g.add_edge(3, 1, 2.0);
        let r = min_arborescence(&g, 0).unwrap();
        assert_eq!(r.parent, vec![None, Some(0), Some(1), Some(1)]);
        assert_eq!(r.total_weight, 12.0);
    }

    #[test]
    fn a_cycle_with_no_entering_edge_has_no_rooted_arborescence() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 3, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 1, 1.0);
        assert!(min_arborescence(&g, 0).is_none());
        // The forest breaks the cycle at its first node instead.
        let r = min_spanning_forest(&g);
        assert_eq!(r.parent, vec![None, None, Some(1), Some(0)]);
        assert_eq!(r.total_weight, 2.0);
    }

    #[test]
    fn forest_leaves_unparented_nodes_as_roots() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 0.3);
        g.add_edge(0, 2, 0.2);
        // 3 is isolated.
        let r = min_spanning_forest(&g);
        assert_eq!(r.parent, vec![None, Some(0), Some(0), None]);
        assert_eq!(r.roots(), vec![0, 3]);
        assert!((r.total_weight - 0.5).abs() < 1e-12);
    }

    #[test]
    fn forest_prefers_derived_over_root() {
        // Heuristic 4.1: even an expensive real parent beats becoming a
        // root.
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 1e6);
        let r = min_spanning_forest(&g);
        assert_eq!(r.parent, vec![None, Some(0)]);
    }

    #[test]
    fn forest_breaks_two_cycles_into_two_trees() {
        // Two independent 2-cycles: each must become a 2-node tree.
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 0, 2.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 2, 2.0);
        let r = min_spanning_forest(&g);
        assert_eq!(r.parent, vec![None, Some(0), None, Some(2)]);
        assert_eq!(r.roots(), vec![0, 2]);
        assert_eq!(r.total_weight, 2.0);
    }

    #[test]
    fn asymmetric_weights_pick_the_cheap_direction() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 0.07);
        g.add_edge(1, 0, 0.21);
        let r = min_spanning_forest(&g);
        assert_eq!(r.parent, vec![None, Some(0)]);
        assert!((r.total_weight - 0.07).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new(0);
        let r = min_spanning_forest(&g);
        assert!(r.parent.is_empty());
        assert_eq!(r.total_weight, 0.0);
    }

    /// Brute force: enumerate all parent assignments for tiny graphs and
    /// verify optimality of the rooted arborescence.
    #[test]
    fn matches_brute_force_on_small_graphs() {
        use std::collections::HashMap;
        let cases: Vec<Vec<(usize, usize, f64)>> = vec![
            vec![(0, 1, 3.0), (0, 2, 1.0), (1, 2, 0.5), (2, 1, 0.5)],
            vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 2.0), (3, 1, 0.1)],
            vec![(0, 1, 5.0), (0, 2, 5.0), (1, 2, 0.1), (2, 1, 0.1), (0, 3, 1.0), (3, 2, 0.2)],
        ];
        for edges in cases {
            let n = edges.iter().map(|e| e.0.max(e.1)).max().unwrap() + 1;
            let mut g = DiGraph::new(n);
            for (f, t, w) in &edges {
                g.add_edge(*f, *t, *w);
            }
            let got = min_arborescence(&g, 0).map(|r| r.total_weight);
            let want = brute_force(n, &edges);
            match (got, want) {
                (Some(gw), Some(ww)) => {
                    assert!((gw - ww).abs() < 1e-9, "edmonds {gw} vs brute {ww} for {edges:?}")
                }
                (None, None) => {}
                other => panic!("feasibility mismatch {other:?} for {edges:?}"),
            }
        }

        fn brute_force(n: usize, edges: &[(usize, usize, f64)]) -> Option<f64> {
            // Enumerate, for each non-root node, which incoming edge it
            // uses; check acyclicity/reachability.
            let mut best: Option<f64> = None;
            let mut incoming: Vec<Vec<(usize, f64)>> = vec![vec![]; n];
            for (f, t, w) in edges {
                incoming[*t].push((*f, *w));
            }
            let mut choice = vec![0usize; n];
            loop {
                // Evaluate current choice if every node has an option.
                if (1..n).all(|v| !incoming[v].is_empty()) {
                    let mut parent: HashMap<usize, usize> = HashMap::new();
                    let mut weight = 0.0;
                    for v in 1..n {
                        let (p, w) = incoming[v][choice[v]];
                        parent.insert(v, p);
                        weight += w;
                    }
                    // Reachability from 0 following parents upward.
                    let mut ok = true;
                    for v in 1..n {
                        let mut cur = v;
                        let mut steps = 0;
                        while cur != 0 {
                            match parent.get(&cur) {
                                Some(p) => cur = *p,
                                None => break,
                            }
                            steps += 1;
                            if steps > n {
                                ok = false;
                                break;
                            }
                        }
                        if cur != 0 {
                            ok = false;
                        }
                        if !ok {
                            break;
                        }
                    }
                    if ok {
                        best = Some(match best {
                            None => weight,
                            Some(b) => b.min(weight),
                        });
                    }
                } else {
                    return None;
                }
                // Next combination.
                let mut v = 1;
                loop {
                    if v >= n {
                        return best;
                    }
                    choice[v] += 1;
                    if choice[v] < incoming[v].len() {
                        break;
                    }
                    choice[v] = 0;
                    v += 1;
                }
            }
        }
    }
}

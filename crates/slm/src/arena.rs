//! Flat arena-backed PPM-C context trie over interned symbol ids, scored
//! as a one-state automaton.
//!
//! Replaces the seed's `BTreeMap`-of-`BTreeMap` trie (kept as
//! [`crate::reference`]).
//!
//! **Layout.** One node array and one edge array. Node `v`'s edges are a
//! contiguous range of the edge array, sorted by symbol id; each holds the
//! symbol's count after `v`'s context and, at a node shallower than `D`,
//! the child context one symbol longer. One list answers both questions
//! because a node's children are a subset of its counts: [`ArenaTrie::build`]
//! bumps every context suffix before it extends the first `D` of them, so
//! at a node shallower than `D` every counted symbol has a child, and at
//! depth `D` none has. Each node also keeps its **suffix link** (the node
//! of its context less the oldest symbol; the root's is itself), `T + d`
//! and its escape `d / (T + d)`, computed once from the final counts with
//! the same expressions the seed evaluates per query.
//!
//! **One state.** A scoring cursor's state is one node: the longest suffix
//! of the context so far that the trie holds. The trie is suffix-closed
//! (`build` creates every suffix of every context it creates), so the
//! state's suffix chain — state, its link, …, the root — is exactly the
//! set of context suffixes the trie holds, longest first. Contexts it does
//! not hold are the ones the seed recursion skips without paying escape,
//! so one node carries everything a query needs. [`ArenaTrie::step`]
//! scores a symbol and returns the next state in one walk of that chain.
//!
//! **Bits.** The seed computes `Pr(σ | s)` recursively: `c / (T + d)` at
//! the first context (longest first) that counts `σ`, `escape(s) ·
//! Pr(σ | shorter)` at a held, non-empty context that does not, the
//! context skipped where it is unheld or empty, and `1 / n` below the
//! root. `step` finds the same terminal deepest-first and then folds the
//! escapes of the nodes above it *ascending*, from just above the terminal
//! up to the state, as `escape · value`: the product associates exactly as
//! the recursion's does, so every result matches the seed to the `f64` bit
//! (asserted by the oracle property tests).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The root node: the empty context. It is nobody's child, so an edge's
/// `child` field uses it to mean "no child".
pub(crate) const ROOT: u32 = 0;

/// A hash map keyed by `u64`s that pack dense indices the program
/// assigns (trie nodes in creation order, symbol ids), hashed by
/// [`DenseKeyHasher`]. The trie build finds its edges through one; each
/// child's transition memo in [`crate::family`] is another.
pub(crate) type DenseMap<V> = HashMap<u64, V, BuildHasherDefault<DenseKeyHasher>>;

/// One multiply per key. The keys are dense indices the program assigns,
/// not values read from input, so SipHash's resistance to crafted
/// collisions buys nothing; it cost about half of the transition memo's
/// gain. The shift folds the product's high half, which every key bit
/// reaches, into the low bits that pick the bucket.
#[derive(Default)]
pub(crate) struct DenseKeyHasher(u64);

impl Hasher for DenseKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = (self.0 ^ key).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// One count edge: `count` occurrences of `sym` after the node's context,
/// and the child context extended by `sym` (`ROOT` at depth `D`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Edge {
    sym: u32,
    child: u32,
    count: u64,
}

/// One context node.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Node {
    /// The node's edges are `edges[start..end]`; an empty range is an
    /// empty context (one created at the end of a word, nothing counted
    /// after it).
    start: u32,
    end: u32,
    /// The node of this context less its oldest symbol.
    suffix: u32,
    /// `(T + d) as f64`; unused on an empty node.
    denom: f64,
    /// The PPM-C escape `d / (T + d)`; unused on an empty node.
    escape: f64,
}

impl Node {
    fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The arena trie: node 0 is the root (empty context).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ArenaTrie {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl ArenaTrie {
    /// Builds the trie from deduplicated `(interned word, multiplicity)`
    /// pairs. Each symbol occurrence bumps the counts of every context
    /// suffix of length `0..=depth` by the word's multiplicity — the same
    /// counts the reference implementation accumulates one clone at a
    /// time — and extends the suffixes shorter than `depth` by it. The
    /// suffix-node stack slides along the word, so the build is
    /// `O(len · depth)` node visits per word.
    ///
    /// One pass appends each new `(node, symbol)` edge to one edge array,
    /// found again through a [`DenseMap`], and numbers nodes in the order
    /// it creates them. A counting sort by node then lays each node's
    /// edges out as one range, sorted by symbol. The map and the arrays
    /// are sized up front for one new edge per node visit, so none of
    /// them grows during the pass: on the suite's pools, growing them
    /// took about as long as the rest of the build. That is `depth + 1`
    /// entries per symbol of the distinct words, freed when the build
    /// returns.
    pub fn build(depth: usize, words: &[(Vec<u32>, u64)]) -> Self {
        let visits = words.iter().map(|(word, _)| word.len()).sum::<usize>() * (depth + 1);
        let mut slot_of: DenseMap<u32> =
            DenseMap::with_capacity_and_hasher(visits, Default::default());
        let mut pass: Vec<(u32, Edge)> = Vec::with_capacity(visits);
        let mut links: Vec<u32> = Vec::with_capacity(visits + 1);
        links.push(ROOT);
        let mut stack: Vec<u32> = Vec::with_capacity(depth + 1);
        let mut next: Vec<u32> = Vec::with_capacity(depth + 1);
        for (word, count) in words {
            stack.clear();
            stack.push(ROOT);
            for &sym in word {
                // `next[k]` is the node of the last `k` symbols once `sym`
                // is read: the child of `stack[k - 1]`, and so the suffix
                // link of the child of `stack[k]` created below.
                next.clear();
                next.push(ROOT);
                for (k, &node) in stack.iter().enumerate() {
                    let key = u64::from(node) << 32 | u64::from(sym);
                    let slot = *slot_of.entry(key).or_insert_with(|| {
                        pass.push((node, Edge { sym, child: ROOT, count: 0 }));
                        u32::try_from(pass.len() - 1).expect("trie edge count overflow")
                    });
                    let edge = &mut pass[slot as usize].1;
                    edge.count += count;
                    if k == depth {
                        continue;
                    }
                    if edge.child == ROOT {
                        edge.child = u32::try_from(links.len()).expect("trie node count overflow");
                        links.push(*next.last().expect("next starts with the root"));
                    }
                    next.push(edge.child);
                }
                std::mem::swap(&mut stack, &mut next);
            }
        }
        // `ends[v + 1]` counts node `v`'s edges, and the prefix sums turn
        // `ends[v]` into the start of `v`'s range. Placing each edge at
        // `ends[node]` and bumping it leaves `ends[v]` at the range's end.
        let mut ends = vec![0u32; links.len() + 1];
        for (node, _) in &pass {
            ends[*node as usize + 1] += 1;
        }
        for v in 1..ends.len() {
            ends[v] += ends[v - 1];
        }
        let mut edges = vec![Edge { sym: 0, child: ROOT, count: 0 }; pass.len()];
        for (node, edge) in pass {
            let at = &mut ends[node as usize];
            edges[*at as usize] = edge;
            *at += 1;
        }
        let mut start = 0;
        let nodes = links
            .into_iter()
            .zip(&ends)
            .map(|(suffix, &end)| {
                let list = &mut edges[start as usize..end as usize];
                list.sort_unstable_by_key(|e| e.sym);
                let total: u64 = list.iter().map(|e| e.count).sum();
                let distinct = list.len() as u64;
                let (denom, escape) = if distinct == 0 {
                    (0.0, 0.0)
                } else {
                    ((total + distinct) as f64, distinct as f64 / (total + distinct) as f64)
                };
                let node = Node { start, end, suffix, denom, escape };
                start = end;
                node
            })
            .collect();
        ArenaTrie { nodes, edges }
    }

    fn edges_of(&self, node: u32) -> &[Edge] {
        let n = &self.nodes[node as usize];
        &self.edges[n.start as usize..n.end as usize]
    }

    /// The edge of `sym` at `node`, if `node` counts it.
    fn edge(&self, node: u32, sym: u32) -> Option<&Edge> {
        let edges = self.edges_of(node);
        edges.binary_search_by_key(&sym, |e| e.sym).ok().map(|i| &edges[i])
    }

    /// The node of context `node` extended by `sym`, if the trie holds it.
    fn child_of(&self, node: u32, sym: u32) -> Option<u32> {
        self.edge(node, sym).map(|e| e.child).filter(|&c| c != ROOT)
    }

    /// The node index for an exact context path from the root; any unknown
    /// symbol (`None`) or missing edge yields `None`.
    pub fn lookup(&self, ctx: &[Option<u32>]) -> Option<u32> {
        let mut node = ROOT;
        for sym in ctx {
            node = self.child_of(node, (*sym)?)?;
        }
        Some(node)
    }

    /// The state of a context: the node of its longest suffix the trie
    /// holds (the root at worst).
    pub fn state_of(&self, ctx: &[Option<u32>]) -> u32 {
        (0..=ctx.len())
            .find_map(|k| self.lookup(&ctx[k..]))
            .expect("the trie holds the empty context")
    }

    /// PPM-C escape mass `d/(T+d)` at a node, `None` when unobserved.
    pub fn escape(&self, node: u32) -> Option<f64> {
        let n = &self.nodes[node as usize];
        (!n.is_empty()).then_some(n.escape)
    }

    /// Scores `sym` in state `state` and moves on: `(Pr(sym | context),
    /// the state after sym)`, where `None` is a symbol the model never saw
    /// and `n` the alphabet size of the order-(-1) base case. Bit-identical
    /// to the reference recursion (see the module docs).
    ///
    /// The next state extends the deepest chain node shallower than `D`
    /// that counts `sym`: the terminal itself, or, when the terminal sits
    /// at depth `D` (whose edges have no child), its suffix, which counts
    /// every symbol its extension counts. After a symbol the model never
    /// saw the next state is the root.
    pub fn step(&self, state: u32, sym: Option<u32>, n: usize) -> (f64, u32) {
        // Deepest-first: the terminal is the first chain node that counts
        // `sym`; `above` chain nodes precede it (all of them, root
        // included, when none counts it).
        let mut node = state;
        let mut above = 0usize;
        let (mut value, next) = loop {
            if let Some(edge) = sym.and_then(|s| self.edge(node, s)) {
                let next = if edge.child != ROOT || node == ROOT {
                    edge.child
                } else {
                    let shorter = self.nodes[node as usize].suffix;
                    self.child_of(shorter, edge.sym)
                        .expect("a suffix counts what its extension counts")
                };
                break (edge.count as f64 / self.nodes[node as usize].denom, next);
            }
            above += 1;
            if node == ROOT {
                break (1.0 / n.max(1) as f64, ROOT);
            }
            node = self.nodes[node as usize].suffix;
        };
        // Fold the escapes ascending, from just above the terminal up to
        // `state`, so the product associates like the recursion's
        // `escape · Pr(σ | shorter)`. Links run one way, so each level is
        // found again from `state`: `above · (above − 1) / 2` hops, at most
        // three at the paper's `D = 2`.
        for level in (0..above).rev() {
            let mut node = state;
            for _ in 0..level {
                node = self.nodes[node as usize].suffix;
            }
            let node = &self.nodes[node as usize];
            if !node.is_empty() {
                // `value *= escape` is `escape * value`: IEEE
                // multiplication is commutative, so it keeps the bits.
                value *= node.escape;
            }
        }
        (value, next)
    }

    /// `ln Pr(word)`: the word scored from the empty context, one
    /// [`ArenaTrie::step`] per symbol.
    pub fn log_prob(&self, word: impl IntoIterator<Item = Option<u32>>, n: usize) -> f64 {
        let mut state = ROOT;
        let mut lp = 0.0;
        for sym in word {
            let (p, next) = self.step(state, sym, n);
            lp += p.ln();
            state = next;
        }
        lp
    }

    /// Number of context nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of child edges across all nodes.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.child != ROOT).count()
    }

    /// A deterministic size measure of the trie in bytes, for the
    /// `slm.arena_bytes` metric: 56 per node, 16 per count edge and 8 per
    /// child edge. That is the footprint of the earlier layout, a node
    /// with a cached total and separate count and child lists, kept so the
    /// metric's values stay comparable across versions. It is not a count
    /// of resident bytes.
    pub fn approx_bytes(&self) -> usize {
        self.nodes.len() * 56 + self.edges.len() * 16 + self.edge_count() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn words(seqs: &[(&[u32], u64)]) -> Vec<(Vec<u32>, u64)> {
        seqs.iter().map(|(s, c)| (s.to_vec(), *c)).collect()
    }

    fn count_of(trie: &ArenaTrie, node: u32, sym: u32) -> Option<u64> {
        trie.edge(node, sym).map(|e| e.count)
    }

    fn total(trie: &ArenaTrie, node: u32) -> u64 {
        trie.edges_of(node).iter().map(|e| e.count).sum()
    }

    #[test]
    fn build_counts_match_hand_computation() {
        // "aab" with a=0, b=1 at depth 2: root counts a:2 b:1.
        let trie = ArenaTrie::build(2, &words(&[(&[0, 0, 1], 1)]));
        assert_eq!(total(&trie, ROOT), 3);
        assert_eq!(count_of(&trie, ROOT, 0), Some(2));
        assert_eq!(count_of(&trie, ROOT, 1), Some(1));
        assert_eq!(trie.escape(ROOT), Some(2.0 / 5.0));
        // Context [a]: a once, b once.
        let a_node = trie.lookup(&[Some(0)]).unwrap();
        assert_eq!(total(&trie, a_node), 2);
        assert_eq!(trie.escape(a_node), Some(0.5));
        assert_eq!(trie.nodes[a_node as usize].suffix, ROOT);
        // Context [a, a]: b once; its suffix is [a].
        let aa = trie.lookup(&[Some(0), Some(0)]).unwrap();
        assert_eq!(count_of(&trie, aa, 1), Some(1));
        assert_eq!(trie.nodes[aa as usize].suffix, a_node);
        // Context [a, b] closes the word: held, but nothing counted.
        let ab = trie.lookup(&[Some(0), Some(1)]).unwrap();
        assert_eq!(trie.escape(ab), None);
        assert_eq!(trie.nodes[ab as usize].suffix, trie.lookup(&[Some(1)]).unwrap());
        assert_eq!(trie.lookup(&[Some(1), Some(1)]), None);
        assert_eq!(trie.lookup(&[None]), None);
        assert_eq!(trie.nodes[ROOT as usize].suffix, ROOT);
        // Depth-2 nodes count without children; shallower ones have a
        // child for every count.
        assert_eq!(trie.edge(aa, 1).unwrap().child, ROOT);
        assert!(trie.edges_of(ROOT).iter().all(|e| e.child != ROOT));
    }

    #[test]
    fn multiplicity_equals_repeated_training() {
        let once_x3 = ArenaTrie::build(2, &words(&[(&[0, 1, 0], 3)]));
        let thrice =
            ArenaTrie::build(2, &words(&[(&[0, 1, 0], 1), (&[0, 1, 0], 1), (&[0, 1, 0], 1)]));
        // The second build revisits the word, yet the tries are equal.
        assert_eq!(once_x3, thrice);
        assert_eq!(total(&once_x3, ROOT), 9);
    }

    #[test]
    fn approx_bytes_keeps_the_old_node_and_list_accounting() {
        // "ab" at depth 1: root {a, b} and child [a] {b}, plus the empty
        // context [b]. Four count edges; the root's two have children.
        let trie = ArenaTrie::build(1, &words(&[(&[0, 1], 1)]));
        assert_eq!(trie.node_count(), 3);
        assert_eq!(trie.edges.len(), 3);
        assert_eq!(trie.edge_count(), 2);
        assert_eq!(trie.approx_bytes(), 3 * 56 + 3 * 16 + 2 * 8);
    }

    #[test]
    fn step_follows_root_walks() {
        let trie = ArenaTrie::build(2, &words(&[(&[0, 1, 2, 0, 1], 1)]));
        let seq = [Some(0u32), Some(1), Some(2), Some(0), Some(1), None, Some(1), Some(2)];
        let mut state = ROOT;
        for i in 0..seq.len() {
            let lo = i.saturating_sub(2);
            assert_eq!(state, trie.state_of(&seq[lo..i]), "position {i}");
            state = trie.step(state, seq[i], 8).1;
        }
        // [0, 1] counts 2 and extends to [1, 2] past depth 2.
        let s01 = trie.lookup(&[Some(0), Some(1)]).unwrap();
        assert_eq!(
            trie.step(s01, Some(2), 8),
            (1.0 / 2.0, trie.lookup(&[Some(1), Some(2)]).unwrap())
        );
        // An unseen symbol pays every escape on the chain and resets.
        let (p, next) = trie.step(s01, None, 8);
        let esc = trie.escape(s01).unwrap()
            * (trie.escape(trie.lookup(&[Some(1)]).unwrap()).unwrap()
                * (trie.escape(ROOT).unwrap() * (1.0 / 8.0)));
        assert_eq!(p.to_bits(), esc.to_bits());
        assert_eq!(next, ROOT);
    }

    #[test]
    fn escapes_fold_from_the_shortest_context_up() {
        // At state [3, 3] of "0 2 0 3 3 3 3" the chain's escapes are 1/3,
        // 1/4 and 3/10. For a symbol the trie never saw, at n = 5, folding
        // them from the root up gives 0.004999999999999999; from the state
        // down, 0.005.
        let trie = ArenaTrie::build(2, &words(&[(&[0, 2, 0, 3, 3, 3, 3], 1)]));
        let s33 = trie.lookup(&[Some(3), Some(3)]).unwrap();
        let s3 = trie.lookup(&[Some(3)]).unwrap();
        let esc = |node| trie.escape(node).unwrap();
        assert_eq!((esc(s33), esc(s3), esc(ROOT)), (1.0 / 3.0, 0.25, 0.3));
        let (p, next) = trie.step(s33, None, 5);
        assert_eq!(p.to_bits(), (esc(s33) * (esc(s3) * (esc(ROOT) * 0.2))).to_bits());
        assert_ne!(p.to_bits(), (((0.2 * esc(s33)) * esc(s3)) * esc(ROOT)).to_bits());
        assert_eq!(next, ROOT);
    }

    #[test]
    fn empty_trie_scores_uniform() {
        let trie = ArenaTrie::build(2, &[]);
        assert_eq!(trie.step(ROOT, Some(0), 4), (0.25, ROOT));
        assert_eq!(trie.step(ROOT, None, 0), (1.0, ROOT)); // alphabet clamps to 1
        assert_eq!(trie.escape(ROOT), None);
        assert_eq!(trie.node_count(), 1);
        assert_eq!(trie.approx_bytes(), 56);
    }

    /// The build the one-pass build replaced, kept as its reference: one
    /// edge list per node, grown by sorted insert and moved into the flat
    /// layout at the end.
    fn build_with_node_lists(depth: usize, words: &[(Vec<u32>, u64)]) -> ArenaTrie {
        let mut lists: Vec<Vec<Edge>> = vec![Vec::new()];
        let mut links: Vec<u32> = vec![ROOT];
        let mut stack: Vec<u32> = Vec::with_capacity(depth + 1);
        let mut next: Vec<u32> = Vec::with_capacity(depth + 1);
        for (word, count) in words {
            stack.clear();
            stack.push(ROOT);
            for &sym in word {
                next.clear();
                next.push(ROOT);
                for (k, &node) in stack.iter().enumerate() {
                    let list = &mut lists[node as usize];
                    let i = match list.binary_search_by_key(&sym, |e| e.sym) {
                        Ok(i) => {
                            list[i].count += count;
                            i
                        }
                        Err(i) => {
                            list.insert(i, Edge { sym, child: ROOT, count: *count });
                            i
                        }
                    };
                    if k == depth {
                        continue;
                    }
                    let mut child = list[i].child;
                    if child == ROOT {
                        child = lists.len() as u32;
                        lists[node as usize][i].child = child;
                        lists.push(Vec::new());
                        links.push(*next.last().unwrap());
                    }
                    next.push(child);
                }
                std::mem::swap(&mut stack, &mut next);
            }
        }
        let mut nodes = Vec::with_capacity(lists.len());
        let mut edges = Vec::new();
        for (list, suffix) in lists.into_iter().zip(links) {
            let start = edges.len() as u32;
            let total: u64 = list.iter().map(|e| e.count).sum();
            let distinct = list.len() as u64;
            edges.extend(list);
            let end = edges.len() as u32;
            let (denom, escape) = if distinct == 0 {
                (0.0, 0.0)
            } else {
                ((total + distinct) as f64, distinct as f64 / (total + distinct) as f64)
            };
            nodes.push(Node { start, end, suffix, denom, escape });
        }
        ArenaTrie { nodes, edges }
    }

    proptest! {
        /// The one-pass build equals the per-node-list build, node
        /// numbering, edge order, counts, links, `denom` and `escape`
        /// included, at depth 0 to 4: on words drawn from a small pool
        /// and a small alphabet, in any order, so that symbols repeat
        /// within and across words, words repeat with counts above 1 and
        /// empty words occur.
        #[test]
        fn one_pass_build_equals_the_per_node_lists(
            pool in prop::collection::vec(prop::collection::vec(0u32..5, 0..10), 1..6),
            picks in prop::collection::vec((0usize..6, 1u64..5), 0..12),
            depth in 0usize..5,
        ) {
            let words: Vec<(Vec<u32>, u64)> =
                picks.iter().map(|&(i, count)| (pool[i % pool.len()].clone(), count)).collect();
            prop_assert_eq!(ArenaTrie::build(depth, &words), build_with_node_lists(depth, &words));
        }

        /// The state after each prefix of a query, known and unknown
        /// symbols mixed, is the node of the prefix's longest suffix that
        /// the trie holds — found by root walks of every suffix — at any
        /// depth: suffix links and the one-state reduction agree with the
        /// definition.
        #[test]
        fn state_is_the_longest_held_suffix(
            training in prop::collection::vec((prop::collection::vec(0u32..6, 0..16), 1u64..4), 0..8),
            depth in 0usize..5,
            query in prop::collection::vec(0u32..8, 0..24),
        ) {
            let trie = ArenaTrie::build(depth, &training);
            let query: Vec<Option<u32>> = query.iter().map(|&s| (s < 6).then_some(s)).collect();
            let mut state = ROOT;
            for i in 0..=query.len() {
                let held = (0..=i).find_map(|k| trie.lookup(&query[k..i])).unwrap();
                prop_assert_eq!(state, held, "prefix {}", i);
                if let Some(&sym) = query.get(i) {
                    state = trie.step(state, sym, 8).1;
                }
            }
        }
    }
}

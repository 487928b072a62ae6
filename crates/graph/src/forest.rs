//! Node-labelled directed forests (NLD-forests, paper §4.1).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A node-labelled directed forest: every node has at most one parent.
///
/// This is the output shape of hierarchy reconstruction: labels are
/// whatever identifies a binary type (vtable addresses in the pipeline,
/// class names in ground truths).
///
/// # Example
///
/// ```
/// use rock_graph::Forest;
/// let f = Forest::from_parents([("b", Some("a")), ("a", None), ("c", Some("a"))]);
/// assert_eq!(f.roots(), vec![&"a"]);
/// assert_eq!(f.successors(&"a").len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Forest<N: Ord> {
    parent: BTreeMap<N, Option<N>>,
}

impl<N: Ord + Clone> Forest<N> {
    /// Creates an empty forest.
    pub fn new() -> Self {
        Forest { parent: BTreeMap::new() }
    }

    /// Builds a forest from `(node, parent)` pairs.
    pub fn from_parents<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (N, Option<N>)>,
    {
        Forest { parent: pairs.into_iter().collect() }
    }

    /// Inserts or replaces a node with its parent.
    pub fn insert(&mut self, node: N, parent: Option<N>) {
        self.parent.insert(node, parent);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the forest has no nodes.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Returns `true` if `node` is present.
    pub fn contains(&self, node: &N) -> bool {
        self.parent.contains_key(node)
    }

    /// The parent of `node`, if it has one.
    pub fn parent_of(&self, node: &N) -> Option<&N> {
        self.parent.get(node)?.as_ref()
    }

    /// All nodes, sorted.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.parent.keys()
    }

    /// All roots (nodes without a parent), sorted.
    pub fn roots(&self) -> Vec<&N> {
        self.parent.iter().filter(|(_, p)| p.is_none()).map(|(n, _)| n).collect()
    }

    /// Direct children of `node`, sorted.
    pub fn children_of(&self, node: &N) -> Vec<&N> {
        self.parent.iter().filter(|(_, p)| p.as_ref() == Some(node)).map(|(n, _)| n).collect()
    }

    /// All transitive descendants of `node` — `successors_h(t)` in the
    /// paper's application distance (§6.3). One scan of the parent map
    /// builds every node's child list, and the walk reads those.
    pub fn successors(&self, node: &N) -> BTreeSet<N> {
        let mut children: BTreeMap<&N, Vec<&N>> = BTreeMap::new();
        for (child, parent) in &self.parent {
            if let Some(parent) = parent {
                children.entry(parent).or_default().push(child);
            }
        }
        let mut out = BTreeSet::new();
        let mut stack: Vec<&N> = children.get(node).cloned().unwrap_or_default();
        while let Some(n) = stack.pop() {
            if out.insert(n.clone()) {
                stack.extend(children.get(n).into_iter().flatten());
            }
        }
        out
    }

    /// Ancestors of `node`, nearest first. Stops if a cycle is detected
    /// (malformed forests).
    pub fn ancestors(&self, node: &N) -> Vec<&N> {
        let mut out = Vec::new();
        let mut cur = self.parent_of(node);
        while let Some(p) = cur {
            if out.contains(&p) {
                break;
            }
            out.push(p);
            cur = self.parent_of(p);
        }
        out
    }

    /// Depth of `node` (roots have depth 0).
    pub fn depth_of(&self, node: &N) -> usize {
        self.ancestors(node).len()
    }

    /// Applies `f` to every label, producing a relabelled forest.
    pub fn map<M: Ord + Clone>(&self, mut f: impl FnMut(&N) -> M) -> Forest<M> {
        Forest { parent: self.parent.iter().map(|(n, p)| (f(n), p.as_ref().map(&mut f))).collect() }
    }

    /// Verifies the forest is acyclic.
    pub fn is_acyclic(&self) -> bool {
        for node in self.parent.keys() {
            let mut cur = self.parent_of(node);
            let mut steps = 0;
            while let Some(p) = cur {
                steps += 1;
                if steps > self.parent.len() {
                    return false;
                }
                cur = self.parent_of(p);
            }
        }
        true
    }
}

impl<N: Ord + Clone> FromIterator<(N, Option<N>)> for Forest<N> {
    fn from_iter<T: IntoIterator<Item = (N, Option<N>)>>(iter: T) -> Self {
        Forest::from_parents(iter)
    }
}

impl<N: Ord + Clone + fmt::Display> fmt::Display for Forest<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec<N: Ord + Clone + fmt::Display>(
            forest: &Forest<N>,
            node: &N,
            depth: usize,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            writeln!(f, "{}{}", "  ".repeat(depth), node)?;
            for c in forest.children_of(node) {
                rec(forest, c, depth + 1, f)?;
            }
            Ok(())
        }
        for r in self.roots() {
            rec(self, r, 0, f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Forest<&'static str> {
        Forest::from_parents([
            ("root", None),
            ("a", Some("root")),
            ("b", Some("root")),
            ("aa", Some("a")),
            ("lone", None),
        ])
    }

    #[test]
    fn structure_queries() {
        let f = sample();
        assert_eq!(f.len(), 5);
        assert!(!f.is_empty());
        assert!(f.contains(&"aa"));
        assert!(!f.contains(&"zz"));
        assert_eq!(f.roots(), vec![&"lone", &"root"]);
        assert_eq!(f.parent_of(&"aa"), Some(&"a"));
        assert_eq!(f.parent_of(&"root"), None);
        assert_eq!(f.children_of(&"root"), vec![&"a", &"b"]);
    }

    #[test]
    fn successors_and_ancestors() {
        let f = sample();
        let s = f.successors(&"root");
        assert_eq!(s.len(), 3);
        assert!(s.contains("aa"));
        assert!(f.successors(&"lone").is_empty());
        assert_eq!(f.ancestors(&"aa"), vec![&"a", &"root"]);
        assert_eq!(f.depth_of(&"aa"), 2);
        assert_eq!(f.depth_of(&"root"), 0);
    }

    #[test]
    fn map_relabels() {
        let f = sample();
        let g = f.map(|s| s.to_uppercase());
        assert_eq!(g.parent_of(&"AA".to_string()), Some(&"A".to_string()));
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn acyclicity_check() {
        let mut f = sample();
        assert!(f.is_acyclic());
        f.insert("root", Some("aa")); // create a cycle
        assert!(!f.is_acyclic());
    }

    #[test]
    fn insert_and_collect() {
        let mut f = Forest::new();
        f.insert(1, None);
        f.insert(2, Some(1));
        assert_eq!(f.parent_of(&2), Some(&1));
        let g: Forest<i32> = vec![(1, None), (2, Some(1))].into_iter().collect();
        assert_eq!(f, g);
    }

    #[test]
    fn display_tree() {
        let f = sample();
        let s = f.to_string();
        assert!(s.contains("root"));
        assert!(s.contains("  a"));
        assert!(s.contains("    aa"));
    }
}

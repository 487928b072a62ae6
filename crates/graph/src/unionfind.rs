//! Disjoint-set union with path compression and union by rank.

/// A union-find structure over dense indices `0..n`.
///
/// Used by the structural analysis to cluster binary types into families:
/// two vtables sharing a function pointer are unioned (§5.1).
///
/// # Example
///
/// ```
/// use rock_graph::UnionFind;
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert!(uf.same(0, 1));
/// assert!(!uf.same(1, 2));
/// assert_eq!(uf.component_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect(), rank: vec![0; n], components: n }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The canonical representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.components -= 1;
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Returns `true` if `a` and `b` are in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Groups all elements by representative, each group sorted, the
    /// groups in ascending order of their representatives (which union
    /// by rank picks, so not in general the order of their smallest
    /// elements).
    pub fn components(&mut self) -> Vec<Vec<usize>> {
        use std::collections::BTreeMap;
        let mut map: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..self.len() {
            let r = self.find(i);
            map.entry(r).or_default().push(i);
        }
        map.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.len(), 3);
        assert!(!uf.is_empty());
        assert_eq!(uf.component_count(), 3);
        assert!(!uf.same(0, 2));
        assert_eq!(uf.find(1), 1);
    }

    #[test]
    fn union_and_find() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already joined");
        assert!(uf.same(0, 2));
        assert!(!uf.same(0, 3));
        assert_eq!(uf.component_count(), 3);
    }

    #[test]
    fn components_listing() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 4);
        uf.union(1, 3);
        let comps = uf.components();
        assert_eq!(comps.len(), 3);
        assert!(comps.contains(&vec![0, 4]));
        assert!(comps.contains(&vec![1, 3]));
        assert!(comps.contains(&vec![2]));
    }

    #[test]
    fn transitive_chain() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.component_count(), 1);
        assert!(uf.same(0, 99));
    }

    #[test]
    fn empty() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.components().len(), 0);
    }
}

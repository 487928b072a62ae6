//! The all-pairs definition of Phase I/II (§5.1–5.2), kept as a test
//! oracle for `analyze`: every pair of vtables is scanned for a shared
//! slot, every in-family pair enters a set, and the rules remove pairs
//! from it. This crate's unit tests and the root `structural_oracle`
//! integration test share this file.
//!
//! Rule 3's evidence (the ctor-call pins) is an input: the oracle checks
//! what the analysis does with its pins, not how it finds them.

use std::collections::{BTreeMap, BTreeSet};

use rock_binary::Addr;
use rock_graph::UnionFind;
use rock_loader::LoadedBinary;

/// What the all-pairs definition computes.
#[derive(Debug)]
pub struct Reference {
    /// The families, in union-find component order.
    pub families: Vec<Vec<Addr>>,
    /// Each type's candidate parents, sorted; a pinned child that is no
    /// discovered vtable has an entry too.
    pub possible: BTreeMap<Addr, Vec<Addr>>,
    /// Pairs eliminated by rules 1, 2 and 3, then the pairs remaining.
    pub stats: [usize; 4],
}

/// Runs the all-pairs definition over `loaded`, with `pure` the entries
/// of the pure-virtual trap and `pinned` the child → parent pins.
pub fn reference(
    loaded: &LoadedBinary,
    pure: &BTreeSet<Addr>,
    pinned: &BTreeMap<Addr, Addr>,
) -> Reference {
    let vtables = loaded.vtables();
    let n = vtables.len();
    let index: BTreeMap<Addr, usize> =
        vtables.iter().enumerate().map(|(i, v)| (v.addr(), i)).collect();

    let mut uf = UnionFind::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if vtables[i].shares_function_with(&vtables[j]) {
                uf.union(i, j);
            }
        }
    }
    for (child, parent) in pinned {
        if let (Some(&ci), Some(&pi)) = (index.get(child), index.get(parent)) {
            uf.union(ci, pi);
        }
    }
    let families: Vec<Vec<Addr>> = uf
        .components()
        .into_iter()
        .map(|c| c.into_iter().map(|i| vtables[i].addr()).collect())
        .collect();

    let mut possible: BTreeMap<Addr, BTreeSet<Addr>> = BTreeMap::new();
    for fam in &families {
        for &child in fam {
            possible.entry(child).or_default().extend(fam.iter().filter(|&&p| p != child));
        }
    }
    let [mut rule1, mut rule2, mut rule3] = [0usize; 3];
    for fam in &families {
        for &child in fam {
            let cvt = loaded.vtable_at(child).expect("family member exists");
            for &parent in fam {
                if parent == child {
                    continue;
                }
                let pvt = loaded.vtable_at(parent).expect("family member exists");
                if pvt.len() > cvt.len() {
                    possible.get_mut(&child).expect("initialized").remove(&parent);
                    rule1 += 1;
                    continue;
                }
                let contradiction = cvt
                    .slots()
                    .iter()
                    .zip(pvt.slots())
                    .any(|(cs, ps)| pure.contains(cs) && !pure.contains(ps));
                if contradiction {
                    possible.get_mut(&child).expect("initialized").remove(&parent);
                    rule2 += 1;
                }
            }
        }
    }
    for (&child, &parent) in pinned {
        let set = possible.entry(child).or_default();
        let before = set.len();
        set.retain(|p| *p == parent);
        rule3 += before - set.len();
        set.insert(parent);
    }
    let remaining = possible.values().map(BTreeSet::len).sum();
    Reference {
        families,
        possible: possible.into_iter().map(|(c, ps)| (c, ps.into_iter().collect())).collect(),
        stats: [rule1, rule2, rule3, remaining],
    }
}

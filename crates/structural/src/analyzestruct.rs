//! The two-phase structural analysis.

use std::collections::BTreeMap;
use std::fmt;

use rock_analysis::CtorMap;
use rock_binary::Addr;
use rock_graph::UnionFind;
use rock_loader::{LoadedBinary, Vtable};

use crate::purecall_candidates;

/// The `possibleParent` relation restricted to each child's family.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PossibleParents {
    /// Each child's candidate parents, sorted.
    allowed: BTreeMap<Addr, Vec<Addr>>,
}

impl PossibleParents {
    /// The candidate parents of `child`, sorted.
    pub fn of(&self, child: Addr) -> &[Addr] {
        self.allowed.get(&child).map_or(&[], Vec::as_slice)
    }

    /// Returns `true` if `parent` may be `child`'s parent.
    pub fn is_possible(&self, parent: Addr, child: Addr) -> bool {
        self.of(child).binary_search(&parent).is_ok()
    }
}

/// How many candidate child-parent pairs each Phase II rule eliminated —
/// diagnostics for the §5.2 discussion ("in certain simple benchmarks …
/// the structural analysis is precise enough").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EliminationStats {
    /// Pairs eliminated by rule 1 (parent longer than child).
    pub rule1_slot_count: usize,
    /// Pairs eliminated by rule 2 (pure slot vs concrete slot).
    pub rule2_pure_slot: usize,
    /// Pairs eliminated by rule 3 pinning (ctor-call evidence).
    pub rule3_pinning: usize,
    /// Candidate pairs remaining after all rules.
    pub remaining: usize,
}

impl fmt::Display for EliminationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rule1: {}, rule2: {}, rule3: {}, remaining: {}",
            self.rule1_slot_count, self.rule2_pure_slot, self.rule3_pinning, self.remaining
        )
    }
}

/// The output of the structural analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Structural {
    families: Vec<Vec<Addr>>,
    possible: PossibleParents,
    pinned: BTreeMap<Addr, Addr>,
    vptr_store_counts: BTreeMap<Addr, usize>,
    stats: EliminationStats,
}

impl Structural {
    /// The type families, each sorted by address.
    ///
    /// Families come in the order [`UnionFind::components`] gives them,
    /// by union-by-rank representative, which is not in general the
    /// order of their first members: slot sharing `(0,5)`, `(2,3)`,
    /// `(3,5)` over six vtables gives `[[1], [0,2,3,5], [4]]`. A family's
    /// index names it in diagnostics, lifting spans and fault plans, so
    /// this order is part of the output.
    pub fn families(&self) -> &[Vec<Addr>] {
        &self.families
    }

    /// The family containing `vtable`, if any.
    pub fn family_of(&self, vtable: Addr) -> Option<&[Addr]> {
        self.families.iter().find(|f| f.contains(&vtable)).map(Vec::as_slice)
    }

    /// The possible-parent relation.
    pub fn possible_parents(&self) -> &PossibleParents {
        &self.possible
    }

    /// Parents pinned by constructor-call evidence (rule 3).
    pub fn pinned(&self) -> &BTreeMap<Addr, Addr> {
        &self.pinned
    }

    /// How many vtable-pointer stores each type's constructor performs —
    /// under multiple inheritance, X stores mean X parents (§5.3).
    pub fn vptr_store_counts(&self) -> &BTreeMap<Addr, usize> {
        &self.vptr_store_counts
    }

    /// Per-rule elimination counts.
    pub fn stats(&self) -> EliminationStats {
        self.stats
    }

    /// Returns `true` if every type has at most one possible parent —
    /// the hierarchy is determined without any behavioral analysis
    /// (the paper's "structurally resolvable" benchmarks).
    pub fn is_structurally_resolved(&self) -> bool {
        self.families.iter().flatten().all(|vt| self.possible.of(*vt).len() <= 1)
    }

    /// Total number of candidate hierarchies left (product over types of
    /// `max(1, #candidates)`, before tree constraints), saturating.
    /// For echoparams — four types with three candidate parents each —
    /// this reports 3⁴ = 81; the paper quotes "64 equally likely possible
    /// hierarchies" under its own counting of tree-consistent choices.
    pub fn candidate_hierarchies(&self) -> u64 {
        let mut n: u64 = 1;
        for vt in self.families.iter().flatten() {
            let c = self.possible.of(*vt).len().max(1) as u64;
            n = n.saturating_mul(c);
        }
        n
    }
}

impl fmt::Display for Structural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} families", self.families.len())?;
        for (i, fam) in self.families.iter().enumerate() {
            write!(f, "  family {i}:")?;
            for vt in fam {
                write!(f, " {vt}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Runs the structural analysis over a loaded binary.
///
/// `ctors` must come from
/// [`recognize_ctors`](rock_analysis::recognize_ctors) on the same binary,
/// and `pinned` is the rule-3 evidence from those ctors, child vtable →
/// parent vtable ([`Analysis::pinned`](rock_analysis::Analysis::pinned),
/// or [`ctor_pins`](rock_analysis::ctor_pins)). Nothing is executed here.
pub fn analyze(
    loaded: &LoadedBinary,
    ctors: &CtorMap,
    pinned: &BTreeMap<Addr, Addr>,
) -> Structural {
    let vtables = loaded.vtables();
    let n = vtables.len();
    let index_of = |addr: Addr| vtables.binary_search_by_key(&addr, Vtable::addr).ok();

    // --- Phase I: families = connected components of slot sharing,
    //     joined further by ctor-call evidence. The slot index replays
    //     exactly the unions of an all-pairs scan (each `i` with every
    //     sharing `j > i`, ascending), so union by rank picks the same
    //     representatives and the families come out in the same order.
    let mut uf = UnionFind::new(n);
    let mut sharing = Vec::new();
    for (i, vt) in vtables.iter().enumerate() {
        sharing.clear();
        for &slot in vt.slots() {
            sharing.extend(loaded.vtable_indices_containing(slot).filter(|&j| j > i));
        }
        sharing.sort_unstable();
        sharing.dedup();
        for &j in &sharing {
            uf.union(i, j);
        }
    }
    for (child, parent) in pinned {
        if let (Some(ci), Some(pi)) = (index_of(*child), index_of(*parent)) {
            uf.union(ci, pi);
        }
    }
    let components = uf.components();
    let families: Vec<Vec<Addr>> =
        components.iter().map(|c| c.iter().map(|&i| vtables[i].addr()).collect()).collect();

    // --- Phase II: each child's candidates are its family minus the
    //     members a rule eliminates, in family (= address) order.
    let pure = purecall_candidates(loaded);
    let pure_slots: Vec<Vec<bool>> =
        vtables.iter().map(|vt| vt.slots().iter().map(|s| pure.contains(s)).collect()).collect();
    let mut stats = EliminationStats::default();
    let mut allowed: BTreeMap<Addr, Vec<Addr>> = BTreeMap::new();
    for family in &components {
        for &c in family {
            let child = &pure_slots[c];
            let child_has_pure = child.contains(&true);
            let parents = family
                .iter()
                .filter(|&&p| {
                    if p == c {
                        return false;
                    }
                    let parent = &pure_slots[p];
                    // Rule 1: a parent cannot have more virtual functions.
                    if parent.len() > child.len() {
                        stats.rule1_slot_count += 1;
                        return false;
                    }
                    // Rule 2: pure slot in the child where the parent is
                    // concrete.
                    if child_has_pure && child.iter().zip(parent).any(|(&cp, &pp)| cp && !pp) {
                        stats.rule2_pure_slot += 1;
                        return false;
                    }
                    true
                })
                .map(|&p| vtables[p].addr())
                .collect();
            allowed.insert(vtables[c].addr(), parents);
        }
    }
    // Rule 3: pinning overrides everything else. The pinned parent stays
    // even where a rule eliminated it (ctor evidence is authoritative),
    // and may lie outside the child's family when it is no discovered
    // vtable.
    for (&child, &parent) in pinned {
        let parents = allowed.entry(child).or_default();
        let kept = usize::from(parents.binary_search(&parent).is_ok());
        stats.rule3_pinning += parents.len() - kept;
        *parents = vec![parent];
    }
    stats.remaining = allowed.values().map(Vec::len).sum();
    let possible = PossibleParents { allowed };

    let vptr_store_counts = ctors
        .functions()
        .filter_map(|f| {
            let stores = ctors.stores_of(f)?;
            let primary = stores.iter().find(|(off, _)| *off == 0)?.1;
            Some((primary, stores.len()))
        })
        .collect();

    Structural { families, possible, pinned: pinned.clone(), vptr_store_counts, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::reference;
    use rock_analysis::{ctor_pins, recognize_ctors, AnalysisConfig};
    use rock_binary::{
        BinaryImage, FunctionHandle, ImageBuilder, Instr, Reg, Section, SectionKind, VtableHandle,
    };
    use rock_minicpp::{compile, CompileOptions, Compiled, ProgramBuilder};

    fn setup(p: ProgramBuilder, opts: &CompileOptions) -> (LoadedBinary, Compiled, Structural) {
        let compiled = compile(&p.finish(), opts).unwrap();
        let loaded = LoadedBinary::load(compiled.stripped_image()).unwrap();
        let config = AnalysisConfig::default();
        let ctors = recognize_ctors(&loaded, &config);
        let s = analyze(&loaded, &ctors, &ctor_pins(&loaded, &ctors, &config));
        assert_matches_reference(&loaded, &s);
        (loaded, compiled, s)
    }

    /// Asserts that `s` is what the all-pairs definition gives on
    /// `loaded` under the same pins: the families in the same order,
    /// every candidate list and every rule count.
    fn assert_matches_reference(loaded: &LoadedBinary, s: &Structural) {
        let r = reference(loaded, &purecall_candidates(loaded), s.pinned());
        assert_eq!(s.families(), r.families);
        for (child, parents) in &r.possible {
            assert_eq!(s.possible_parents().of(*child), parents.as_slice(), "child {child}");
        }
        let st = s.stats();
        let stats = [st.rule1_slot_count, st.rule2_pure_slot, st.rule3_pinning, st.remaining];
        assert_eq!(stats, r.stats);
    }

    /// Adds a function of one `enter` and a `ret`, or of an `enter` and
    /// a `halt` (the pure-virtual trap's shape).
    fn leaf(b: &mut ImageBuilder, name: &str, trap: bool) -> FunctionHandle {
        let f = b.begin_function(name);
        b.push(Instr::Enter { frame: 0 });
        b.push(if trap { Instr::Halt } else { Instr::Ret });
        b.end_function();
        f
    }

    /// Adds a ctor that stores `vt` through `this`, calling `parent`'s
    /// ctor on `this` first if given (`this` is kept in `r6`, which
    /// survives the call).
    fn ctor(
        b: &mut ImageBuilder,
        vt: VtableHandle,
        parent: Option<FunctionHandle>,
    ) -> FunctionHandle {
        let f = b.begin_function("ctor");
        b.push(Instr::Enter { frame: 0 });
        b.push(Instr::MovReg { dst: Reg::R6, src: Reg::R0 });
        if let Some(parent) = parent {
            b.push_call(parent);
        }
        b.push_mov_vtable_addr(Reg::R7, vt);
        b.push(Instr::Store { base: Reg::R6, offset: 0, src: Reg::R7 });
        b.push(Instr::Ret);
        b.end_function();
        f
    }

    /// Finishes a hand-built image whose vtables are `vts`, adding one
    /// function that references every table so that the loader finds
    /// them. Returns the stripped image and the tables' addresses.
    fn finish(mut b: ImageBuilder, vts: &[VtableHandle]) -> (BinaryImage, Vec<Addr>) {
        b.begin_function("anchor");
        b.push(Instr::Enter { frame: 0 });
        for &vt in vts {
            b.push_mov_vtable_addr(Reg::R1, vt);
        }
        b.push(Instr::Ret);
        b.end_function();
        let (mut image, layout) = b.finish_with_layout();
        image.strip();
        (image, vts.iter().map(|&vt| layout.vtable(vt)).collect())
    }

    fn analyze_hand_built(loaded: &LoadedBinary) -> Structural {
        let config = AnalysisConfig::default();
        let ctors = recognize_ctors(loaded, &config);
        let s = analyze(loaded, &ctors, &ctor_pins(loaded, &ctors, &config));
        assert_matches_reference(loaded, &s);
        s
    }

    #[test]
    fn families_come_in_union_find_order_not_first_member_order() {
        // Six tables; 0 and 5 share f0, 2 and 3 share f1, 3 and 5 share
        // f2. Union by rank makes 2 the representative of {0, 2, 3, 5},
        // so that family comes after {1} although its first member is 0.
        let mut b = ImageBuilder::new();
        let f: Vec<FunctionHandle> =
            (0..9).map(|i| leaf(&mut b, &format!("f{i}"), false)).collect();
        let slots = [
            vec![f[0], f[3]],
            vec![f[4]],
            vec![f[1], f[5]],
            vec![f[1], f[2], f[6]],
            vec![f[7]],
            vec![f[0], f[2], f[8]],
        ];
        let vts: Vec<VtableHandle> = slots
            .iter()
            .enumerate()
            .map(|(i, s)| b.add_vtable(format!("vt{i}"), s.clone()))
            .collect();
        let (image, addrs) = finish(b, &vts);
        let loaded = LoadedBinary::load(image).unwrap();
        let found: Vec<Addr> = loaded.vtables().iter().map(Vtable::addr).collect();
        assert_eq!(found, addrs, "tables load in the order they were added");
        let s = analyze_hand_built(&loaded);
        let family = |members: &[usize]| members.iter().map(|&i| addrs[i]).collect::<Vec<_>>();
        assert_eq!(s.families(), [family(&[1]), family(&[0, 2, 3, 5]), family(&[4])]);
    }

    #[test]
    fn a_pure_slot_under_a_concrete_parent_slot_is_eliminated() {
        // `concrete` is [m, n]; `pure` and `longer` hold the trap in slot
        // 0. Rule 2 removes `concrete` as a parent of both; rule 1
        // removes `longer` as a parent of the other two.
        let mut b = ImageBuilder::new();
        let trap = leaf(&mut b, "__purecall", true);
        let m = leaf(&mut b, "m", false);
        let n = leaf(&mut b, "n", false);
        let k = leaf(&mut b, "k", false);
        let vts = [
            b.add_vtable("concrete", vec![m, n]),
            b.add_vtable("pure", vec![trap, n]),
            b.add_vtable("longer", vec![trap, n, k]),
        ];
        let (image, addrs) = finish(b, &vts);
        let loaded = LoadedBinary::load(image).unwrap();
        let s = analyze_hand_built(&loaded);
        let [concrete, pure, longer] = [addrs[0], addrs[1], addrs[2]];
        assert_eq!(s.possible_parents().of(concrete), [pure]);
        assert_eq!(s.possible_parents().of(pure), [] as [Addr; 0]);
        assert_eq!(s.possible_parents().of(longer), [pure]);
        assert_eq!(s.stats().rule2_pure_slot, 2);
        assert_eq!(s.stats().rule1_slot_count, 2);
    }

    /// `parent` is [m], `child` and `sibling` are [m, _]; `child`'s ctor
    /// calls `parent`'s. Returns the image and the three tables'
    /// addresses.
    fn pinned_image() -> (BinaryImage, [Addr; 3]) {
        let mut b = ImageBuilder::new();
        let m = leaf(&mut b, "m", false);
        let k = leaf(&mut b, "k", false);
        let j = leaf(&mut b, "j", false);
        let vts = [
            b.add_vtable("parent", vec![m]),
            b.add_vtable("child", vec![m, k]),
            b.add_vtable("sibling", vec![m, j]),
        ];
        let parent_ctor = ctor(&mut b, vts[0], None);
        ctor(&mut b, vts[1], Some(parent_ctor));
        let (image, addrs) = finish(b, &vts);
        (image, [addrs[0], addrs[1], addrs[2]])
    }

    #[test]
    fn a_ctor_pin_inside_a_family_overrides_the_rules() {
        let (image, [parent, child, sibling]) = pinned_image();
        let loaded = LoadedBinary::load(image).unwrap();
        let s = analyze_hand_built(&loaded);
        assert_eq!(s.pinned(), &BTreeMap::from([(child, parent)]));
        assert_eq!(s.families(), [vec![parent, child, sibling]]);
        // Without the pin `child` could descend from either; the pin
        // leaves only `parent`.
        assert_eq!(s.possible_parents().of(child), [parent]);
        assert_eq!(s.possible_parents().of(sibling), [parent, child]);
        assert_eq!(s.stats().rule3_pinning, 1);
    }

    #[test]
    fn a_pin_to_an_undiscovered_table_is_a_foreign_candidate() {
        // Ctors recognized on the intact image, analysis run on a copy
        // whose `parent` table is corrupted: the pin names an address
        // that is no discovered vtable, so it joins no family, yet it
        // stays `child`'s only candidate.
        let (image, [parent, child, sibling]) = pinned_image();
        let intact = LoadedBinary::load(image.clone()).unwrap();
        let rodata = image.section(SectionKind::RoData).unwrap();
        let mut bytes = rodata.bytes().to_vec();
        let at = (parent.value() - rodata.base().value()) as usize;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut sections: Vec<Section> =
            image.sections().iter().filter(|s| s.kind() != SectionKind::RoData).cloned().collect();
        sections.push(Section::new(SectionKind::RoData, rodata.base(), bytes));
        let loaded = LoadedBinary::load(BinaryImage::new(sections)).unwrap();
        assert!(loaded.vtable_at(parent).is_none());

        let config = AnalysisConfig::default();
        let ctors = recognize_ctors(&intact, &config);
        let s = analyze(&loaded, &ctors, &ctor_pins(&loaded, &ctors, &config));
        assert_matches_reference(&loaded, &s);
        assert_eq!(s.families(), [vec![child, sibling]]);
        assert_eq!(s.possible_parents().of(child), [parent]);
        assert_eq!(s.possible_parents().of(sibling), [child]);
    }

    fn streams() -> ProgramBuilder {
        let mut p = ProgramBuilder::new();
        p.class("Stream").method("send", |b| {
            b.ret();
        });
        p.class("ConfirmableStream").base("Stream").method("confirm", |b| {
            b.ret();
        });
        p.class("FlushableStream")
            .base("Stream")
            .method("flush", |b| {
                b.ret();
            })
            .method("close", |b| {
                b.ret();
            });
        p.func("drive", |f| {
            f.new_obj("s", "Stream");
            f.new_obj("c", "ConfirmableStream");
            f.new_obj("fl", "FlushableStream");
            f.vcall("s", "send", vec![]);
            f.vcall("c", "confirm", vec![]);
            f.vcall("fl", "flush", vec![]);
            f.ret();
        });
        p
    }

    #[test]
    fn one_family_for_one_hierarchy() {
        let (_, compiled, s) = setup(streams(), &CompileOptions::default());
        assert_eq!(s.families().len(), 1);
        let fam = s.family_of(compiled.vtable_of("Stream").unwrap()).unwrap();
        assert_eq!(fam.len(), 3);
    }

    #[test]
    fn rule1_eliminates_longer_parents() {
        let (_, compiled, s) = setup(streams(), &CompileOptions::default());
        let stream = compiled.vtable_of("Stream").unwrap();
        let confirmable = compiled.vtable_of("ConfirmableStream").unwrap();
        let flushable = compiled.vtable_of("FlushableStream").unwrap();
        // Stream (1 slot) cannot descend from 2- or 3-slot tables.
        assert!(!s.possible_parents().is_possible(confirmable, stream));
        assert!(!s.possible_parents().is_possible(flushable, stream));
        // Flushable (3 slots) could structurally descend from either.
        // But ctor pinning resolves it to Stream.
        assert!(s.possible_parents().is_possible(stream, flushable));
    }

    #[test]
    fn ctor_calls_pin_parents_in_debug_builds() {
        let (_, compiled, s) = setup(streams(), &CompileOptions::default());
        let stream = compiled.vtable_of("Stream").unwrap();
        let confirmable = compiled.vtable_of("ConfirmableStream").unwrap();
        assert_eq!(s.pinned().get(&confirmable), Some(&stream));
        assert_eq!(s.possible_parents().of(confirmable), [stream]);
        assert!(s.is_structurally_resolved());
        assert_eq!(s.candidate_hierarchies(), 1);
    }

    #[test]
    fn inlining_removes_pinning() {
        let mut opts = CompileOptions::default();
        opts.inline_parent_ctors = true;
        let (_, compiled, s) = setup(streams(), &opts);
        assert!(s.pinned().is_empty(), "inlined ctors leave no call evidence");
        // Now FlushableStream has 2 possible parents (Stream and
        // ConfirmableStream) — exactly the paper's Fig. 6 ambiguity.
        let flushable = compiled.vtable_of("FlushableStream").unwrap();
        assert_eq!(s.possible_parents().of(flushable).len(), 2);
        assert!(!s.is_structurally_resolved());
        assert!(s.candidate_hierarchies() > 1);
    }

    #[test]
    fn unrelated_hierarchies_form_separate_families() {
        let mut p = ProgramBuilder::new();
        p.class("A").method("am", |b| {
            b.ret();
        });
        p.class("B").base("A").method("bm", |b| {
            b.ret();
        });
        p.class("X").method("xm", |b| {
            b.ret();
        });
        p.class("Y").base("X").method("ym", |b| {
            b.ret();
        });
        p.func("drive", |f| {
            f.new_obj("b", "B");
            f.new_obj("y", "Y");
            f.vcall("b", "bm", vec![]);
            f.vcall("y", "ym", vec![]);
            f.ret();
        });
        let (_, compiled, s) = setup(p, &CompileOptions::default());
        assert_eq!(s.families().len(), 2);
        let a = compiled.vtable_of("A").unwrap();
        let x = compiled.vtable_of("X").unwrap();
        assert_ne!(s.family_of(a).unwrap(), s.family_of(x).unwrap());
        // Cross-family parenthood is impossible.
        assert!(!s.possible_parents().is_possible(a, compiled.vtable_of("Y").unwrap()));
    }

    #[test]
    fn rule2_pure_slots_block_concrete_parents() {
        // Child has a pure slot where parent is concrete: impossible.
        let mut p = ProgramBuilder::new();
        p.class("Concrete").method("m", |b| {
            b.ret();
        });
        // AbstractChild overrides m as pure — contrived but legal, and
        // exactly the §5.2-rule-2 shape. It shares no impl with Concrete,
        // so give both a second, genuinely shared method through a common
        // driver call to keep them in one family via another route:
        // simpler: they share nothing, so force same family via ctor...
        // Instead craft it directly: Base defines m + n; child overrides m
        // as pure (keeps n shared).
        p.class("Base")
            .method("bm", |b| {
                b.ret();
            })
            .method("bn", |b| {
                b.ret();
            });
        p.class("PureChild").base("Base").pure_method("bm");
        p.class("Leaf").base("PureChild").method("bm", |b| {
            b.ret();
        });
        p.func("drive", |f| {
            f.new_obj("b", "Base");
            f.new_obj("l", "Leaf");
            f.vcall("b", "bm", vec![]);
            f.vcall("l", "bm", vec![]);
            f.ret();
        });
        let (_, compiled, s) = setup(p, &CompileOptions::default());
        let base = compiled.vtable_of("Base").unwrap();
        let pure_child = compiled.vtable_of("PureChild").unwrap();
        // PureChild's slot 0 is pure; Base's slot 0 is concrete: Base
        // cannot be... it IS the parent in truth, but rule 2 forbids the
        // *reverse*: PureChild (concrete at 0? no, pure) —
        // rule: child=PureChild (pure at 0), parent=Base (concrete at 0)
        // => eliminated by rule 2. However the ctor pinning re-adds it
        // (ctor evidence is authoritative in debug builds).
        let pp = s.possible_parents();
        assert!(pp.is_possible(base, pure_child), "pinning keeps the true parent");
        // And Leaf (concrete at 0) cannot be a parent of PureChild by
        // rule 2 + rule 1.
        assert!(!pp.is_possible(compiled.vtable_of("Leaf").unwrap(), pure_child));
    }

    #[test]
    fn vptr_store_counts_single_inheritance() {
        let (_, compiled, s) = setup(streams(), &CompileOptions::default());
        let stream = compiled.vtable_of("Stream").unwrap();
        assert_eq!(s.vptr_store_counts().get(&stream), Some(&1));
    }

    #[test]
    fn display_lists_families() {
        let (_, _, s) = setup(streams(), &CompileOptions::default());
        assert!(s.to_string().contains("1 families"));
    }

    #[test]
    fn elimination_stats_account_for_the_rules() {
        // Debug build: rule 1 fires (Stream cannot descend from longer
        // tables) and rule 3 pins the two children.
        let (_, _, s) = setup(streams(), &CompileOptions::default());
        let st = s.stats();
        assert!(st.rule1_slot_count >= 2, "{st}");
        assert!(st.rule3_pinning >= 1, "{st}");
        assert_eq!(st.remaining, 2, "one pinned parent per child: {st}");
        // Optimized build: no pins; remaining candidates grow.
        let mut opts = CompileOptions::default();
        opts.inline_parent_ctors = true;
        let (_, _, s2) = setup(streams(), &opts);
        assert_eq!(s2.stats().rule3_pinning, 0);
        assert!(s2.stats().remaining > st.remaining);
        assert!(s2.stats().to_string().contains("rule1:"));
    }
}

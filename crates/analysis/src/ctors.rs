//! Constructor/destructor recognition pre-pass.
//!
//! A function is **ctor-like** for vtable `vt` if executing it stores
//! `vt`'s address through its `this` argument (`r0` at entry). Such
//! functions type the receivers of their call sites — this is how the
//! analysis types heap objects whose constructors were *not* inlined, and
//! it doubles as the signal for structural rule 3 (§5.2: "vt1's
//! constructor calls the constructor of some other type").

use std::collections::BTreeMap;

use rock_binary::Addr;
use rock_loader::{Function, LoadedBinary};

use crate::canon::{CachedCtors, ContentLabels, ExecCache};
use crate::{execute_function, AnalysisConfig, ObjId};

/// Map from function entry address to the vtable stores it performs on
/// its `this` argument: `(subobject offset, vtable address)` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CtorMap {
    stores: BTreeMap<Addr, Vec<(i32, Addr)>>,
}

impl CtorMap {
    /// The vtable stores of a ctor-like function, if `f` is one.
    pub fn stores_of(&self, f: Addr) -> Option<Vec<(i32, Addr)>> {
        self.stores.get(&f).cloned()
    }

    /// Returns `true` if `f` stores a vtable through `this`.
    pub fn is_ctor_like(&self, f: Addr) -> bool {
        self.stores.contains_key(&f)
    }

    /// The *primary* vtable (offset-0 store) of a ctor-like function.
    pub fn primary_vtable_of(&self, f: Addr) -> Option<Addr> {
        self.stores.get(&f)?.iter().find(|(off, _)| *off == 0).map(|(_, vt)| *vt)
    }

    /// All ctor-like functions.
    pub fn functions(&self) -> impl Iterator<Item = Addr> + '_ {
        self.stores.keys().copied()
    }

    /// Number of ctor-like functions recognized.
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// Returns `true` if no ctor-like function was recognized.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }
}

/// Recognizes ctor-like functions in a loaded binary.
///
/// Runs the symbolic executor once per function with an empty [`CtorMap`]
/// (only *direct* vtable stores count) and collects, per function, the
/// typing of views rooted at the entry object.
pub fn recognize_ctors(loaded: &LoadedBinary, config: &AnalysisConfig) -> CtorMap {
    let mut stores: BTreeMap<Addr, Vec<(i32, Addr)>> = BTreeMap::new();
    for f in loaded.functions() {
        let found = ctor_stores_of(f, loaded, config);
        if !found.is_empty() {
            stores.insert(f.entry(), found);
        }
    }
    CtorMap { stores }
}

/// Like [`recognize_ctors`], but answers each function from the
/// content-addressed `cache` when possible and executes only the
/// misses, storing their results for the rest of the fleet.
///
/// A cached entry records vtables by content label; it is used only
/// when every label resolves to a unique vtable in *this* binary
/// (ambiguity falls back to live execution, deterministically per
/// binary). The pass contributes nothing to metrics, so reuse is
/// invisible in a job's outputs — the callers' bit-identity guarantees
/// hold unchanged.
pub fn recognize_ctors_cached(
    loaded: &LoadedBinary,
    config: &AnalysisConfig,
    labels: &ContentLabels,
    cache: &dyn ExecCache,
) -> CtorMap {
    let mut stores: BTreeMap<Addr, Vec<(i32, Addr)>> = BTreeMap::new();
    for f in loaded.functions() {
        let entry = f.entry();
        let key = labels.function_label(entry);
        let cached = key.and_then(|k| cache.load_ctors(k)).and_then(|c| {
            c.stores
                .iter()
                .map(|&(off, label)| Some((off, labels.vtable_by_label(label)?)))
                .collect::<Option<Vec<_>>>()
        });
        let found = match cached {
            Some(found) => found,
            None => {
                let found = ctor_stores_of(f, loaded, config);
                let encoded = found
                    .iter()
                    .map(|&(off, vt)| Some((off, labels.vtable_label(vt)?)))
                    .collect::<Option<Vec<_>>>();
                if let (Some(k), Some(stores)) = (key, encoded) {
                    cache.store_ctors(k, &CachedCtors { stores });
                }
                found
            }
        };
        if !found.is_empty() {
            stores.insert(entry, found);
        }
    }
    CtorMap { stores }
}

/// The sorted `(subobject offset, vtable)` stores one function performs
/// through `this`, by live symbolic execution against an empty map.
fn ctor_stores_of(
    f: &Function,
    loaded: &LoadedBinary,
    config: &AnalysisConfig,
) -> Vec<(i32, Addr)> {
    let empty = CtorMap::default();
    let mut found: Vec<(i32, Addr)> = Vec::new();
    for path in execute_function(f, loaded, &empty, config) {
        for sub in &path.subobjects {
            if sub.view.obj != ObjId::ENTRY {
                continue;
            }
            if let Some(vt) = sub.vtable {
                if !found.contains(&(sub.view.base, vt)) {
                    found.push((sub.view.base, vt));
                }
            }
        }
    }
    found.sort();
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_binary::{ImageBuilder, Instr, Reg};

    fn build() -> (LoadedBinary, Vec<Addr>, Vec<Addr>) {
        let mut b = ImageBuilder::new();
        let m = b.begin_function("A::m");
        b.push(Instr::Enter { frame: 0 });
        b.push(Instr::Ret);
        b.end_function();
        let vt_a = b.add_vtable("vtable for A", vec![m]);
        let vt_b = b.add_vtable("vtable for B", vec![m]);
        // A's ctor: classic store at offset 0.
        let ctor_a = b.begin_function("A::A");
        b.push(Instr::Enter { frame: 0 });
        b.push_mov_vtable_addr(Reg::R7, vt_a);
        b.push(Instr::Store { base: Reg::R0, offset: 0, src: Reg::R7 });
        b.push(Instr::Ret);
        b.end_function();
        // B's ctor with MI-style second store at offset 16.
        let ctor_b = b.begin_function("B::B");
        b.push(Instr::Enter { frame: 0 });
        b.push(Instr::MovReg { dst: Reg::R6, src: Reg::R0 });
        b.push_mov_vtable_addr(Reg::R7, vt_b);
        b.push(Instr::Store { base: Reg::R6, offset: 0, src: Reg::R7 });
        b.push_mov_vtable_addr(Reg::R7, vt_a);
        b.push(Instr::Store { base: Reg::R6, offset: 16, src: Reg::R7 });
        b.push(Instr::Ret);
        b.end_function();
        // Not a ctor: writes a plain constant.
        b.begin_function("plain");
        b.push(Instr::Enter { frame: 0 });
        b.push(Instr::MovImm { dst: Reg::R7, imm: 42 });
        b.push(Instr::Store { base: Reg::R0, offset: 0, src: Reg::R7 });
        b.push(Instr::Ret);
        b.end_function();
        let (mut image, layout) = b.finish_with_layout();
        image.strip();
        let loaded = LoadedBinary::load(image).unwrap();
        (
            loaded,
            vec![layout.function(ctor_a), layout.function(ctor_b)],
            vec![layout.vtable(vt_a), layout.vtable(vt_b)],
        )
    }

    #[test]
    fn recognizes_ctor_like_functions() {
        let (loaded, ctors, vts) = build();
        let map = recognize_ctors(&loaded, &AnalysisConfig::default());
        assert_eq!(map.len(), 2);
        assert!(map.is_ctor_like(ctors[0]));
        assert!(map.is_ctor_like(ctors[1]));
        assert_eq!(map.primary_vtable_of(ctors[0]), Some(vts[0]));
        assert_eq!(map.primary_vtable_of(ctors[1]), Some(vts[1]));
        assert_eq!(map.stores_of(ctors[1]).unwrap(), vec![(0, vts[1]), (16, vts[0])]);
        assert_eq!(map.functions().count(), 2);
        assert!(!map.is_empty());
    }

    #[test]
    fn plain_functions_are_not_ctors() {
        let (loaded, _, _) = build();
        let map = recognize_ctors(&loaded, &AnalysisConfig::default());
        // `plain` and `A::m` are not ctor-like.
        let plain = loaded.functions().last().unwrap().entry();
        assert!(!map.is_ctor_like(plain));
        assert_eq!(map.stores_of(plain), None);
        assert_eq!(map.primary_vtable_of(plain), None);
    }

    #[test]
    fn empty_map_queries() {
        let map = CtorMap::default();
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
        assert!(!map.is_ctor_like(Addr::new(0x1000)));
    }
}

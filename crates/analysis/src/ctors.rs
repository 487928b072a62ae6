//! Constructor/destructor recognition pre-pass.
//!
//! A function is **ctor-like** for vtable `vt` if executing it stores
//! `vt`'s address through its `this` argument (`r0` at entry). Such
//! functions type the receivers of their call sites — this is how the
//! analysis types heap objects whose constructors were *not* inlined, and
//! it doubles as the signal for structural rule 3 (§5.2: "vt1's
//! constructor calls the constructor of some other type"), which
//! [`ctor_pins`] reads.

use std::collections::BTreeMap;

use rock_binary::Addr;
use rock_loader::{Function, LoadedBinary};

use crate::canon::{CachedCtors, ContentLabels, ExecCache};
use crate::exec::may_store_vtable;
use crate::{execute_function, AnalysisConfig, Event, ObjId, PathResult, SubObj};

/// Map from function entry address to the vtable stores it performs on
/// its `this` argument: `(subobject offset, vtable address)` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CtorMap {
    stores: BTreeMap<Addr, Vec<(i32, Addr)>>,
}

impl CtorMap {
    /// The vtable stores of a ctor-like function, if `f` is one.
    pub fn stores_of(&self, f: Addr) -> Option<&[(i32, Addr)]> {
        self.stores.get(&f).map(Vec::as_slice)
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
/// Runs the symbolic executor with an empty [`CtorMap`] (only *direct*
/// vtable stores count) on every function that can store a vtable
/// pointer at all, and collects, per function, the typing of views
/// rooted at the entry object.
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
/// through `this`, by live symbolic execution against an empty map. A
/// function that can store no vtable pointer has none and is not run.
fn ctor_stores_of(
    f: &Function,
    loaded: &LoadedBinary,
    config: &AnalysisConfig,
) -> Vec<(i32, Addr)> {
    if !may_store_vtable(f, loaded) {
        return Vec::new();
    }
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

/// Rule-3 evidence (§5.2): the parents that constructor calls pin, as
/// child vtable → parent vtable.
///
/// A ctor-like function with primary vtable `child` pins `parent` when
/// it directly calls, on the primary view of its own `this`, a ctor-like
/// function whose primary vtable is `parent ≠ child`. Each ctor-like
/// function is executed under `config` with `ctors`, which must be the
/// map recognized on the same binary; a later call, and a later
/// function, overrides an earlier pin of the same child. Partial paths
/// of a function that runs out of fuel count.
pub fn ctor_pins(
    loaded: &LoadedBinary,
    ctors: &CtorMap,
    config: &AnalysisConfig,
) -> BTreeMap<Addr, Addr> {
    ctor_pins_reusing(loaded, ctors, config, &BTreeMap::new())
}

/// Like [`ctor_pins`], but takes a function's pin from `evidence` (by
/// entry: the [`parent_ctor_call`] of an execution [`ctor_pins`] would
/// have run) instead of executing it again.
pub(crate) fn ctor_pins_reusing(
    loaded: &LoadedBinary,
    ctors: &CtorMap,
    config: &AnalysisConfig,
    evidence: &BTreeMap<Addr, Option<Addr>>,
) -> BTreeMap<Addr, Addr> {
    let mut pins = BTreeMap::new();
    for f in loaded.functions() {
        let Some(own_vt) = ctors.primary_vtable_of(f.entry()) else {
            continue;
        };
        let parent = match evidence.get(&f.entry()) {
            Some(&parent) => parent,
            None => parent_ctor_call(&execute_function(f, loaded, ctors, config), own_vt, ctors),
        };
        if let Some(parent) = parent {
            pins.insert(own_vt, parent);
        }
    }
    pins
}

/// The primary vtable of the last ctor-like callee, other than `own_vt`,
/// that `paths` call directly on the entry object's primary view.
pub(crate) fn parent_ctor_call(
    paths: &[PathResult],
    own_vt: Addr,
    ctors: &CtorMap,
) -> Option<Addr> {
    paths
        .iter()
        .flat_map(|path| &path.subobjects)
        .filter(|sub| sub.view == SubObj::primary(ObjId::ENTRY))
        .flat_map(|sub| &sub.events)
        .rev()
        .find_map(|event| match event {
            Event::Call(g) => ctors.primary_vtable_of(*g).filter(|&parent| parent != own_vt),
            _ => None,
        })
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use super::*;
    use crate::canon::{CachedExec, Label};
    use crate::exec::counter::executions_during;
    use crate::oracle::{assert_matches, reference};
    use crate::{
        extract_tracelets, extract_tracelets_cached, extract_tracelets_canonical,
        extract_tracelets_instrumented, extract_tracelets_with, Analysis, AnalysisHooks, Budget,
        FunctionDirective, IncidentKind, NoHooks,
    };
    use rock_binary::{BinOp, ImageBuilder, Instr, Reg};
    use rock_minicpp::{compile, CompileOptions, Compiled, Expr, ProgramBuilder};
    use rock_trace::{names, LocalSpans, MetricsRegistry};

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

    /// `loaded` with a function that builds `vt` as `(vt - 8) + 8` and
    /// stores it through `this`, and an anchor that moves `vt` itself, so
    /// that the loader finds the table. Returns the ctor and the table.
    fn binop_ctor() -> (LoadedBinary, Addr, Addr) {
        let build = |imm: u64| {
            let mut b = ImageBuilder::new();
            let m = b.begin_function("A::m");
            b.push(Instr::Enter { frame: 0 });
            b.push(Instr::Ret);
            b.end_function();
            let vt = b.add_vtable("vtable for A", vec![m]);
            let ctor = b.begin_function("A::A");
            b.push(Instr::Enter { frame: 0 });
            b.push(Instr::MovImm { dst: Reg::R7, imm });
            b.push(Instr::MovImm { dst: Reg::R8, imm: 8 });
            b.push(Instr::BinOp { op: BinOp::Add, dst: Reg::R7, lhs: Reg::R7, rhs: Reg::R8 });
            b.push(Instr::Store { base: Reg::R0, offset: 0, src: Reg::R7 });
            b.push(Instr::Ret);
            b.end_function();
            b.begin_function("anchor");
            b.push(Instr::Enter { frame: 0 });
            b.push_mov_vtable_addr(Reg::R1, vt);
            b.push(Instr::Ret);
            b.end_function();
            let (mut image, layout) = b.finish_with_layout();
            image.strip();
            (image, layout.function(ctor), layout.vtable(vt))
        };
        // Immediates do not change the layout: learn it, then rebuild.
        let (_, _, vt) = build(0);
        let (image, ctor, vt2) = build(vt.value() - 8);
        assert_eq!(vt, vt2);
        (LoadedBinary::load(image).unwrap(), ctor, vt)
    }

    #[test]
    fn a_vtable_pointer_built_by_a_binop_is_still_a_ctor_store() {
        let (loaded, ctor, vt) = binop_ctor();
        assert!(loaded.vtable_at(Addr::new(vt.value() - 8)).is_none());
        let f = loaded.function_at(ctor).unwrap();
        assert!(may_store_vtable(f, &loaded), "the BinOp admits it");
        let map = recognize_ctors(&loaded, &AnalysisConfig::default());
        assert_eq!(map.stores_of(ctor), Some(&[(0, vt)][..]));
    }

    #[test]
    fn a_vtable_address_not_stored_through_this_is_no_ctor_store() {
        let mut b = ImageBuilder::new();
        let m = b.begin_function("A::m");
        b.push(Instr::Enter { frame: 0 });
        b.push(Instr::Ret);
        b.end_function();
        let vt = b.add_vtable("vtable for A", vec![m]);
        // Types a stack object and spills the address; `this` is untouched.
        let f = b.begin_function("local");
        b.push(Instr::Enter { frame: 32 });
        b.push_mov_vtable_addr(Reg::R7, vt);
        b.push(Instr::Lea { dst: Reg::R6, base: Reg::SP, offset: 16 });
        b.push(Instr::Store { base: Reg::R6, offset: 0, src: Reg::R7 });
        b.push(Instr::Store { base: Reg::SP, offset: 0, src: Reg::R7 });
        b.push(Instr::Ret);
        b.end_function();
        let (mut image, layout) = b.finish_with_layout();
        image.strip();
        let loaded = LoadedBinary::load(image).unwrap();
        let local = loaded.function_at(layout.function(f)).unwrap();
        let config = AnalysisConfig::default();
        assert!(may_store_vtable(local, &loaded), "it moves a vtable address");
        assert_eq!(ctor_stores_of(local, &loaded, &config), []);
        assert!(recognize_ctors(&loaded, &config).is_empty());
    }

    fn streams() -> (LoadedBinary, Compiled) {
        let mut p = ProgramBuilder::new();
        p.class("Stream").field("n").method("send", |b| {
            b.write("this", "n", Expr::Const(1));
            b.ret();
        });
        p.class("Confirmable").base("Stream").method("confirm", |b| {
            b.ret();
        });
        p.class("Flushable").base("Confirmable").method("flush", |b| {
            b.ret();
        });
        p.func("drive", |f| {
            f.new_obj("s", "Stream");
            f.new_obj("c", "Confirmable");
            f.new_obj("f", "Flushable");
            f.vcall("s", "send", vec![]);
            f.vcall("c", "confirm", vec![]);
            f.vcall("f", "flush", vec![]);
            f.ret();
        });
        let compiled = compile(&p.finish(), &CompileOptions::default()).unwrap();
        (LoadedBinary::load(compiled.stripped_image()).unwrap(), compiled)
    }

    #[test]
    fn a_cold_analysis_runs_the_filtered_once_and_the_admitted_twice() {
        let (loaded, compiled) = streams();
        let config = AnalysisConfig::default();
        let (analysis, runs) = executions_during(|| extract_tracelets(&loaded, &config));
        let admitted = |f: &Function| may_store_vtable(f, &loaded);
        for f in loaded.functions() {
            let want = if admitted(f) { 2 } else { 1 };
            assert_eq!(runs.get(&f.entry()), Some(&want), "function {}", f.entry());
        }
        assert!(loaded.functions().iter().any(|f| !admitted(f)));
        let vt = |class| compiled.vtable_of(class).unwrap();
        let pins = BTreeMap::from([
            (vt("Confirmable"), vt("Stream")),
            (vt("Flushable"), vt("Confirmable")),
        ]);
        assert_eq!(analysis.pinned(), &pins, "rule 3 is read off the tracelet pass");
        assert_eq!(analysis.pinned(), &ctor_pins(&loaded, analysis.ctors(), &config));
    }

    /// An in-memory execution cache.
    #[derive(Default)]
    struct MemCache {
        execs: Mutex<BTreeMap<Label, Arc<CachedExec>>>,
        ctors: Mutex<BTreeMap<Label, CachedCtors>>,
    }

    impl ExecCache for MemCache {
        fn load(&self, key: Label) -> Option<Arc<CachedExec>> {
            self.execs.lock().unwrap().get(&key).cloned()
        }
        fn store(&self, key: Label, exec: Arc<CachedExec>) {
            self.execs.lock().unwrap().insert(key, exec);
        }
        fn load_ctors(&self, key: Label) -> Option<CachedCtors> {
            self.ctors.lock().unwrap().get(&key).cloned()
        }
        fn store_ctors(&self, key: Label, ctors: &CachedCtors) {
            self.ctors.lock().unwrap().insert(key, ctors.clone());
        }
    }

    /// Decides one function's fate; every other function runs.
    struct On(Addr, FunctionDirective);

    impl AnalysisHooks for On {
        fn before_function(&self, f: Addr) -> FunctionDirective {
            if f == self.0 {
                self.1
            } else {
                FunctionDirective::Run
            }
        }
    }

    /// Every extraction mode, cold and through a cache twice, each
    /// compared with the plain flow. Returns the executions of the
    /// second (all-hit) cached pass without canonical calls.
    fn assert_every_mode_matches(
        loaded: &LoadedBinary,
        config: &AnalysisConfig,
        hooks: &dyn AnalysisHooks,
        what: &str,
    ) -> BTreeMap<Addr, usize> {
        let labels = ContentLabels::compute(loaded);
        let raw = reference(loaded, config, hooks, None);
        let canonical = reference(loaded, config, hooks, Some(&labels));
        let run = |f: &dyn Fn(&mut LocalSpans, &mut MetricsRegistry) -> Analysis| {
            let mut metrics = MetricsRegistry::new();
            let analysis = f(&mut LocalSpans::disabled(), &mut metrics);
            (analysis, metrics.counter(names::ANALYSIS_FUEL_SPENT))
        };
        let (a, fuel) = run(&|s, m| extract_tracelets_instrumented(loaded, config, hooks, s, m));
        assert_matches(&a, fuel, &raw, &format!("{what}: live"));
        let (a, fuel) =
            run(&|s, m| extract_tracelets_canonical(loaded, config, hooks, s, m, &labels, None));
        assert_matches(&a, fuel, &canonical, &format!("{what}: canonical"));
        let cache = MemCache::default();
        for pass in 0..2 {
            let (a, fuel) = run(&|s, m| {
                extract_tracelets_canonical(loaded, config, hooks, s, m, &labels, Some(&cache))
            });
            assert_matches(&a, fuel, &canonical, &format!("{what}: canonical, cached pass {pass}"));
        }
        let cache = MemCache::default();
        let mut runs = BTreeMap::new();
        for pass in 0..2 {
            let ((a, fuel), executed) = executions_during(|| {
                run(&|s, m| extract_tracelets_cached(loaded, config, hooks, s, m, &cache))
            });
            assert_matches(&a, fuel, &raw, &format!("{what}: image-bound, pass {pass}"));
            runs = executed;
        }
        runs
    }

    /// `parent` is [m]; `child` [m, k] and `starved` [m, j] have ctors
    /// that call `parent`'s on `this`. `starved`'s ctor completes one
    /// path, then takes a branch arm of 60 steps. Returns the image, the
    /// three ctors and the three tables.
    fn rule3_image() -> (LoadedBinary, [Addr; 3], [Addr; 3]) {
        let mut b = ImageBuilder::new();
        // Distinct bodies keep the tables' content labels apart, so that
        // a cached entry resolves to one table.
        let mut leaf = |name: &str, offset: i32| {
            let f = b.begin_function(name);
            b.push(Instr::Enter { frame: 0 });
            b.push(Instr::Load { dst: Reg::R8, base: Reg::R0, offset });
            b.push(Instr::Ret);
            b.end_function();
            f
        };
        let [m, k, j] = [leaf("m", 8), leaf("k", 16), leaf("j", 24)];
        let vts = [
            b.add_vtable("parent", vec![m]),
            b.add_vtable("child", vec![m, k]),
            b.add_vtable("starved", vec![m, j]),
        ];
        let mut ctor = |vt, parent, tail: usize| {
            let f = b.begin_function("ctor");
            let long = b.new_label();
            b.push(Instr::Enter { frame: 0 });
            b.push(Instr::MovReg { dst: Reg::R6, src: Reg::R0 });
            if let Some(parent) = parent {
                b.push_call(parent);
            }
            b.push_mov_vtable_addr(Reg::R7, vt);
            b.push(Instr::Store { base: Reg::R6, offset: 0, src: Reg::R7 });
            b.push(Instr::Load { dst: Reg::R8, base: Reg::R6, offset: 8 });
            b.push_branch(Reg::R1, long);
            b.push(Instr::Ret);
            b.bind_label(long);
            for _ in 0..tail {
                b.push(Instr::Nop);
            }
            b.push(Instr::Ret);
            b.end_function();
            f
        };
        let parent_ctor = ctor(vts[0], None, 0);
        let child_ctor = ctor(vts[1], Some(parent_ctor), 0);
        let starved_ctor = ctor(vts[2], Some(parent_ctor), 60);
        let (mut image, layout) = b.finish_with_layout();
        image.strip();
        let loaded = LoadedBinary::load(image).unwrap();
        let ctors = [parent_ctor, child_ctor, starved_ctor].map(|f| layout.function(f));
        (loaded, ctors, vts.map(|vt| layout.vtable(vt)))
    }

    #[test]
    fn hooks_and_budgets_keep_rule_3_exact() {
        let (loaded, [parent_ctor, child_ctor, starved_ctor], [parent, child, starved]) =
            rule3_image();
        let mut config = AnalysisConfig::default();
        config.fuel = Budget::steps(40);
        let plain = extract_tracelets(&loaded, &config);
        assert_eq!(plain.pinned(), &BTreeMap::from([(child, parent), (starved, parent)]));
        assert_eq!(plain.incidents(), [(starved_ctor, IncidentKind::FuelExhausted)]);

        let all_hit = assert_every_mode_matches(&loaded, &config, &NoHooks, "no hooks");
        // All hit: only the ctors the cache answered run, for their pins,
        // and the fuel-starved one, which is never stored, runs once.
        let want = BTreeMap::from([(parent_ctor, 1), (child_ctor, 1), (starved_ctor, 1)]);
        assert_eq!(all_hit, want);

        for directive in [
            FunctionDirective::Skip,
            FunctionDirective::Panic,
            FunctionDirective::Fuel(Budget::steps(3)),
            FunctionDirective::Fuel(Budget::steps(1_000)),
        ] {
            let hooks = On(child_ctor, directive);
            let what = format!("{directive:?} on the child's ctor");
            assert_every_mode_matches(&loaded, &config, &hooks, &what);
            let (analysis, runs) =
                executions_during(|| extract_tracelets_with(&loaded, &config, &hooks));
            assert_eq!(analysis.pinned(), plain.pinned(), "{what}");
            // Pre-pass, the tracelet pass unless it was kept from running,
            // and one more run for the pins unless it ran as `ctor_pins`
            // would have.
            let tracelet_pass = usize::from(matches!(directive, FunctionDirective::Fuel(_)));
            assert_eq!(runs[&child_ctor], 2 + tracelet_pass, "{what}");
        }
    }

    #[test]
    fn empty_map_queries() {
        let map = CtorMap::default();
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
        assert!(!map.is_ctor_like(Addr::new(0x1000)));
    }
}

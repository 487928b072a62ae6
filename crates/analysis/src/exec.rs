//! The intra-procedural symbolic executor.
//!
//! Each recovered function is executed path-by-path over its CFG (bounded
//! loop unrolling, bounded path count). The executor tracks symbolic
//! register and stack-slot values precisely enough to recognize the
//! compilation idioms the events are defined over:
//!
//! * `lea rD, [sp+k]` — a stack object is born;
//! * `st [obj+0], <vtable const>` — a vtable-pointer store types the view;
//! * `ld v, [obj+0]; ld t, [v + 8i]; call [t]` — virtual dispatch `C(i)`;
//! * `ld/st [obj+k]`, `k ≠ 0` — field events `R(k)` / `W(k)`;
//! * `call f` with an object in `r0` — `this` + `call(f)` events, and
//!   constructor-based typing when `f` is ctor-like.
//!
//! ABI assumed (matching the substrate compiler): `r0`–`r5` are
//! caller-saved argument registers, `r6`–`r13` are callee-saved, `r0`
//! carries the return value.

use rock_binary::{Addr, Instr, Reg, WORD_SIZE};
use rock_loader::{Cfg, Function, LoadedBinary};

use crate::{AnalysisConfig, CtorMap, Event, ObjId, SubObj, SymValue};

/// Events and final typing of one subobject view along one path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubObjectSummary {
    /// The view the events were applied to.
    pub view: SubObj,
    /// The event sequence, in program order.
    pub events: Vec<Event>,
    /// The vtable stored at this view's base (final store wins), if any.
    pub vtable: Option<Addr>,
}

/// The outcome of one execution path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathResult {
    /// Per-view summaries (sorted by view).
    pub subobjects: Vec<SubObjectSummary>,
}

/// How the symbolic execution of one function ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecStatus {
    /// Path enumeration ran to its natural (bounded) end.
    Completed,
    /// The per-function fuel budget ([`AnalysisConfig::fuel`]) ran out.
    FuelExhausted,
}

/// A map kept as one vector sorted by key. A path's maps hold a few
/// stack slots, objects and views, so a branch copies each with one
/// allocation, where a `BTreeMap` clones node by node.
#[derive(Clone, Debug)]
struct SortedMap<K, V>(Vec<(K, V)>);

impl<K: Ord + Copy, V> SortedMap<K, V> {
    fn new() -> Self {
        SortedMap(Vec::new())
    }

    fn find(&self, key: K) -> Result<usize, usize> {
        self.0.binary_search_by_key(&key, |e| e.0)
    }

    fn get(&self, key: K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.0[i].1)
    }

    fn insert(&mut self, key: K, value: V) {
        match self.find(key) {
            Ok(i) => self.0[i].1 = value,
            Err(i) => self.0.insert(i, (key, value)),
        }
    }

    fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let i = self.find(key).unwrap_or_else(|i| {
            self.0.insert(i, (key, make()));
            i
        });
        &mut self.0[i].1
    }
}

#[derive(Clone, Debug)]
struct State {
    regs: [SymValue; Reg::COUNT],
    stack: SortedMap<i32, SymValue>,
    stack_objs: SortedMap<i32, ObjId>,
    next_obj: u32,
    events: SortedMap<SubObj, Vec<Event>>,
    typing: SortedMap<SubObj, Addr>,
    /// Bit `k` is set when argument register `k` was written since the
    /// last call (used to decide which registers really carry arguments
    /// at a call site).
    args_written: u32,
}

impl State {
    fn entry() -> State {
        let mut regs = [SymValue::Unknown; Reg::COUNT];
        // r0 at entry is the potential `this` pointer.
        regs[0] = SymValue::ObjPtr(SubObj::primary(ObjId::ENTRY));
        State {
            regs,
            stack: SortedMap::new(),
            stack_objs: SortedMap::new(),
            next_obj: 1,
            events: SortedMap::new(),
            typing: SortedMap::new(),
            args_written: 0,
        }
    }

    fn fresh_obj(&mut self) -> ObjId {
        let id = ObjId(self.next_obj);
        self.next_obj += 1;
        id
    }

    fn emit(&mut self, view: SubObj, event: Event, cap: usize) {
        let seq = self.events.get_or_insert_with(view, Vec::new);
        if seq.len() < cap {
            seq.push(event);
        }
    }

    fn set(&mut self, reg: Reg, value: SymValue) {
        self.regs[reg.index() as usize] = value;
        if reg.is_arg() {
            self.args_written |= 1 << reg.index();
        }
    }

    fn get(&self, reg: Reg) -> SymValue {
        self.regs[reg.index() as usize]
    }

    /// One summary per view that has events or a vtable: the two sorted
    /// key lists merged, each event list moved out.
    fn finalize(self) -> PathResult {
        let mut events = self.events.0.into_iter().peekable();
        let mut typing = self.typing.0.into_iter().peekable();
        let mut subobjects = Vec::with_capacity(events.len().max(typing.len()));
        loop {
            let view = match (events.peek(), typing.peek()) {
                (Some(e), Some(t)) => e.0.min(t.0),
                (Some(e), None) => e.0,
                (None, Some(t)) => t.0,
                (None, None) => break,
            };
            subobjects.push(SubObjectSummary {
                view,
                events: events.next_if(|e| e.0 == view).map(|e| e.1).unwrap_or_default(),
                vtable: typing.next_if(|t| t.0 == view).map(|t| t.1),
            });
        }
        PathResult { subobjects }
    }
}

/// Symbolically executes one function under its fuel budget and returns
/// the per-path summaries, how enumeration ended, and the fuel spent.
///
/// `loaded` supplies the known vtable addresses (vtable-pointer stores
/// are recognized by value, through [`LoadedBinary::vtable_at`]); `ctors`
/// supplies constructor-like functions recognized by
/// [`recognize_ctors`](crate::recognize_ctors).
///
/// Fuel is spent one unit per instruction stepped, across all explored
/// paths, so exhaustion is deterministic. On [`ExecStatus::FuelExhausted`]
/// the paths completed so far are still returned; callers decide whether
/// partial evidence counts (the tracelet extractor drops it so a function
/// either finishes within budget or is excluded wholesale and recorded).
/// The fuel spent lets the observability layer attribute analysis cost
/// per function.
///
/// Paths are enumerated depth first: a block's open successors are
/// pushed in `succs` order and popped last first. Each successor but the
/// last gets a copy of the frame (the registers, a few small sorted
/// vectors and the visit counters); the last takes the frame itself.
pub fn execute_function(
    function: &Function,
    loaded: &LoadedBinary,
    ctors: &CtorMap,
    config: &AnalysisConfig,
) -> (Vec<PathResult>, ExecStatus, u64) {
    counter::record(function.entry());
    let cfg = Cfg::build(function);
    let blocks = cfg.blocks();
    // A block by its position in `blocks`; `blocks.len()` stands for an
    // address that starts no block, where a path ends at once, so its
    // counter is read only while it is still 0.
    let slot = |addr: Addr| blocks.binary_search_by_key(&addr, |b| b.start).unwrap_or(blocks.len());
    let mut results = Vec::new();
    let mut fuel = config.fuel.meter();

    struct Frame {
        block: usize,
        state: State,
        /// How often the path has entered each block, by slot. A count
        /// stays at most the visit limit, and each visit spends fuel, so
        /// it saturates only past `u32::MAX` steps on one path.
        visits: Vec<u32>,
    }

    let mut stack = vec![Frame {
        block: slot(cfg.entry()),
        state: State::entry(),
        visits: vec![0; blocks.len() + 1],
    }];

    while let Some(mut frame) = stack.pop() {
        if results.len() >= config.max_paths {
            break;
        }
        let visits = &mut frame.visits[frame.block];
        *visits = visits.saturating_add(1);
        let Some(block) = blocks.get(frame.block) else {
            results.push(frame.state.finalize());
            continue;
        };
        let (lo, hi) = block.instr_range;
        let mut terminated = false;
        for d in &function.instrs()[lo..hi] {
            if fuel.spend(1).is_err() {
                return (results, ExecStatus::FuelExhausted, fuel.spent());
            }
            step(&mut frame.state, &d.instr, loaded, ctors, config);
            if matches!(d.instr, Instr::Ret | Instr::Halt) {
                terminated = true;
            }
        }
        if terminated {
            results.push(frame.state.finalize());
            continue;
        }
        let open = |s: &Addr| (frame.visits[slot(*s)] as usize) < config.block_visit_limit;
        let Some(last) = block.succs.iter().rposition(open) else {
            results.push(frame.state.finalize());
            continue;
        };
        for &s in block.succs[..last].iter().filter(|s| open(s)) {
            stack.push(Frame {
                block: slot(s),
                state: frame.state.clone(),
                visits: frame.visits.clone(),
            });
        }
        frame.block = slot(block.succs[last]);
        stack.push(frame);
    }
    (results, ExecStatus::Completed, fuel.spent())
}

/// Returns `false` only for a function whose execution against an empty
/// [`CtorMap`] types no view, so that the ctor pre-pass need not run it.
///
/// With an empty map a view is typed only by a `Store` of a
/// [`SymValue::Const`] that is a vtable address, and [`step`] produces a
/// constant in exactly two places: a `MovImm` (its immediate) and a
/// `BinOp` of two constants. Every other instruction copies a value or
/// yields a non-constant one. So a function with no `MovImm` whose
/// immediate is a vtable address and no `BinOp` stores no vtable pointer
/// on any path. A new source of constants must be admitted here.
pub(crate) fn may_store_vtable(function: &Function, loaded: &LoadedBinary) -> bool {
    function.instrs().iter().any(|d| match d.instr {
        Instr::MovImm { imm, .. } => loaded.vtable_at(Addr::new(imm)).is_some(),
        Instr::BinOp { .. } => true,
        _ => false,
    })
}

fn step(
    state: &mut State,
    instr: &Instr,
    loaded: &LoadedBinary,
    ctors: &CtorMap,
    config: &AnalysisConfig,
) {
    let cap = config.max_events_per_object;
    match *instr {
        Instr::Enter { .. } | Instr::Nop | Instr::Jmp { .. } | Instr::Branch { .. } => {}
        Instr::MovImm { dst, imm } => state.set(dst, SymValue::Const(imm)),
        Instr::MovReg { dst, src } => {
            let v = state.get(src);
            state.set(dst, v);
        }
        Instr::Load { dst, base, offset } => {
            let value = if base == Reg::SP {
                state.stack.get(offset).copied().unwrap_or(SymValue::Unknown)
            } else {
                match state.get(base) {
                    SymValue::ObjPtr(view) => {
                        if offset == 0 {
                            // Vtable-pointer load: dispatch machinery, not
                            // a field event.
                            SymValue::VptrOf(view)
                        } else {
                            state.emit(view, Event::R(offset), cap);
                            SymValue::Unknown
                        }
                    }
                    SymValue::VptrOf(view) => SymValue::SlotOf(view, offset),
                    _ => SymValue::Unknown,
                }
            };
            state.set(dst, value);
        }
        Instr::Store { base, offset, src } => {
            let value = state.get(src);
            if base == Reg::SP {
                state.stack.insert(offset, value);
            } else if let SymValue::ObjPtr(view) = state.get(base) {
                match value {
                    SymValue::Const(a) if loaded.vtable_at(Addr::new(a)).is_some() => {
                        // Vtable-pointer store: types the subobject at
                        // base+offset (last store wins — constructed type).
                        state
                            .typing
                            .insert(SubObj::new(view.obj, view.base + offset), Addr::new(a));
                    }
                    _ => state.emit(view, Event::W(offset), cap),
                }
            }
        }
        Instr::Lea { dst, base, offset } => {
            let value = if base == Reg::SP {
                let obj = match state.stack_objs.get(offset) {
                    Some(o) => *o,
                    None => {
                        let o = state.fresh_obj();
                        state.stack_objs.insert(offset, o);
                        o
                    }
                };
                SymValue::ObjPtr(SubObj::primary(obj))
            } else {
                match state.get(base) {
                    SymValue::ObjPtr(view) => {
                        SymValue::ObjPtr(SubObj::new(view.obj, view.base + offset))
                    }
                    _ => SymValue::Unknown,
                }
            };
            state.set(dst, value);
        }
        Instr::BinOp { dst, lhs, rhs, op } => {
            let v = match (state.get(lhs), state.get(rhs)) {
                (SymValue::Const(a), SymValue::Const(b)) => SymValue::Const(op.eval(a, b)),
                _ => SymValue::Unknown,
            };
            state.set(dst, v);
        }
        Instr::Call { target } => {
            emit_call_events(state, Some(target), None, ctors, cap);
            post_call(state);
        }
        Instr::CallReg { target } => {
            let callee = state.get(target);
            let slot = match callee {
                SymValue::SlotOf(view, off) => Some((view, (off / WORD_SIZE as i32) as usize)),
                _ => None,
            };
            emit_call_events(state, None, slot, ctors, cap);
            post_call(state);
        }
        Instr::Ret | Instr::Halt => {
            if let SymValue::ObjPtr(view) = state.get(Reg::R0) {
                state.emit(view, Event::Ret, cap);
            }
        }
    }
}

/// Records the receiver/argument events of a call site.
fn emit_call_events(
    state: &mut State,
    direct_target: Option<Addr>,
    vslot: Option<(SubObj, usize)>,
    ctors: &CtorMap,
    cap: usize,
) {
    // Receiver (`this`) in r0.
    let receiver = state.get(Reg::R0).as_obj();
    match (direct_target, vslot) {
        (Some(f), _) => {
            if let Some(view) = receiver {
                state.emit(view, Event::This, cap);
                state.emit(view, Event::Call(f), cap);
                // Constructor-based typing (paper §3.2 / §5.2 rule 3).
                for &(off, vt) in ctors.stores_of(f).unwrap_or_default() {
                    state.typing.insert(SubObj::new(view.obj, view.base + off), vt);
                }
            }
        }
        (None, Some((slot_view, slot))) => {
            // Virtual call: attribute C(i) to the receiver (falling back
            // to the view the slot was loaded from).
            let view = receiver.unwrap_or(slot_view);
            state.emit(view, Event::C(slot), cap);
        }
        (None, None) => {
            if let Some(view) = receiver {
                state.emit(view, Event::This, cap);
            }
        }
    }
    // Object arguments in r1..r5 (only registers actually written since
    // the last call count as arguments).
    for k in 1..Reg::ARG_COUNT {
        if state.args_written & (1 << k) == 0 {
            continue;
        }
        if let SymValue::ObjPtr(view) = state.regs[k] {
            state.emit(view, Event::Arg(k), cap);
        }
    }
}

/// Caller-saved registers die at calls; `r0` becomes a fresh potential
/// object (heap allocations surface this way).
fn post_call(state: &mut State) {
    let fresh = state.fresh_obj();
    state.regs[0] = SymValue::ObjPtr(SubObj::primary(fresh));
    for k in 1..=5 {
        state.regs[k] = SymValue::Unknown;
    }
    state.regs[14] = SymValue::Unknown;
    state.args_written = 0;
}

/// Outside this crate's tests, counting executions is a no-op.
#[cfg(not(test))]
mod counter {
    pub(crate) fn record(_entry: rock_binary::Addr) {}
}

/// Test-only count of the symbolic executions run on this thread, by
/// function entry.
#[cfg(test)]
pub(crate) mod counter {
    use std::cell::RefCell;
    use std::collections::BTreeMap;

    use rock_binary::Addr;

    thread_local! {
        static EXECUTED: RefCell<BTreeMap<Addr, usize>> = const { RefCell::new(BTreeMap::new()) };
    }

    pub(crate) fn record(entry: Addr) {
        EXECUTED.with(|e| *e.borrow_mut().entry(entry).or_insert(0) += 1);
    }

    /// Runs `f` and returns its result with how many times it executed
    /// each function.
    pub(crate) fn executions_during<T>(f: impl FnOnce() -> T) -> (T, BTreeMap<Addr, usize>) {
        EXECUTED.with(|e| e.borrow_mut().clear());
        let out = f();
        (out, EXECUTED.with(|e| std::mem::take(&mut *e.borrow_mut())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use rock_binary::{BinOp, ImageBuilder, Instr};

    fn exec_single(build: impl FnOnce(&mut ImageBuilder)) -> (Vec<PathResult>, LoadedBinary) {
        let mut b = ImageBuilder::new();
        build(&mut b);
        let mut image = b.finish();
        image.strip();
        let loaded = LoadedBinary::load(image).unwrap();
        let f = &loaded.functions()[0];
        let (results, _, _) =
            execute_function(f, &loaded, &CtorMap::default(), &AnalysisConfig::default());
        (results, loaded.clone())
    }

    #[test]
    fn field_events_on_entry_object() {
        let (results, _) = exec_single(|b| {
            b.begin_function("m");
            b.push(Instr::Enter { frame: 0 });
            // this in r0: read field 8, write field 16.
            b.push(Instr::Load { dst: Reg::R8, base: Reg::R0, offset: 8 });
            b.push(Instr::Store { base: Reg::R0, offset: 16, src: Reg::R8 });
            b.push(Instr::Ret);
            b.end_function();
        });
        assert_eq!(results.len(), 1);
        let subs = &results[0].subobjects;
        let entry = subs.iter().find(|s| s.view.obj == ObjId::ENTRY).unwrap();
        // R(8), W(16), then ret is not emitted because r0 still holds the
        // object: Ret emits on r0... it does hold the object.
        assert_eq!(entry.events[0], Event::R(8));
        assert_eq!(entry.events[1], Event::W(16));
        assert_eq!(entry.events[2], Event::Ret);
    }

    #[test]
    fn vtable_store_types_object() {
        let (results, loaded) = exec_single(|b| {
            let m = b.begin_function("A::m");
            b.push(Instr::Enter { frame: 0 });
            b.push(Instr::Ret);
            b.end_function();
            let vt = b.add_vtable("vtable for A", vec![m]);
            b.begin_function("ctor");
            b.push(Instr::Enter { frame: 0 });
            b.push_mov_vtable_addr(Reg::R7, vt);
            b.push(Instr::Store { base: Reg::R0, offset: 0, src: Reg::R7 });
            b.push(Instr::Ret);
            b.end_function();
        });
        // exec_single runs functions()[0] = A::m; run the ctor instead.
        let f = loaded.function_containing(loaded.functions()[1].entry()).unwrap();
        let (res, _, _) =
            execute_function(f, &loaded, &CtorMap::default(), &AnalysisConfig::default());
        let entry = res[0].subobjects.iter().find(|s| s.view.obj == ObjId::ENTRY).unwrap();
        assert_eq!(entry.vtable, Some(loaded.vtables()[0].addr()));
        // The vtable store is not a W event.
        assert!(!entry.events.contains(&Event::W(0)));
        let _ = results;
    }

    #[test]
    fn virtual_dispatch_emits_c_event() {
        let (_, loaded) = {
            let mut b = ImageBuilder::new();
            let m = b.begin_function("A::m");
            b.push(Instr::Enter { frame: 0 });
            b.push(Instr::Ret);
            b.end_function();
            let _vt = b.add_vtable("vtable for A", vec![m, m]);
            // Driver: dispatch slot 1 on r0.
            b.begin_function("driver");
            b.push(Instr::Enter { frame: 0 });
            b.push(Instr::Load { dst: Reg::R7, base: Reg::R0, offset: 0 });
            b.push(Instr::Load { dst: Reg::R7, base: Reg::R7, offset: 8 });
            b.push(Instr::CallReg { target: Reg::R7 });
            b.push(Instr::Ret);
            b.end_function();
            let mut image = b.finish();
            image.strip();
            let loaded = LoadedBinary::load(image).unwrap();
            (0, loaded)
        };
        let driver = &loaded.functions()[1];
        let (res, _, _) =
            execute_function(driver, &loaded, &CtorMap::default(), &AnalysisConfig::default());
        let entry = res[0].subobjects.iter().find(|s| s.view.obj == ObjId::ENTRY).unwrap();
        assert_eq!(entry.events, vec![Event::C(1)]);
    }

    #[test]
    fn direct_call_emits_this_and_call() {
        let (_, loaded) = {
            let mut b = ImageBuilder::new();
            let callee = b.begin_function("callee");
            b.push(Instr::Enter { frame: 0 });
            b.push(Instr::Ret);
            b.end_function();
            b.begin_function("driver");
            b.push(Instr::Enter { frame: 0 });
            b.push_call(callee);
            b.push(Instr::Ret);
            b.end_function();
            let mut image = b.finish();
            image.strip();
            (0, LoadedBinary::load(image).unwrap())
        };
        let driver = &loaded.functions()[1];
        let (res, _, _) =
            execute_function(driver, &loaded, &CtorMap::default(), &AnalysisConfig::default());
        let callee_entry = loaded.functions()[0].entry();
        let entry = res[0].subobjects.iter().find(|s| s.view.obj == ObjId::ENTRY).unwrap();
        assert_eq!(entry.events, vec![Event::This, Event::Call(callee_entry)]);
    }

    #[test]
    fn branch_explores_both_paths() {
        let (results, _) = exec_single(|b| {
            b.begin_function("f");
            let l = b.new_label();
            b.push(Instr::Enter { frame: 0 });
            b.push_branch(Reg::R1, l);
            b.push(Instr::Load { dst: Reg::R8, base: Reg::R0, offset: 8 });
            b.bind_label(l);
            b.push(Instr::Ret);
            b.end_function();
        });
        assert_eq!(results.len(), 2);
        let with_read = results
            .iter()
            .filter(|r| r.subobjects.iter().any(|s| s.events.contains(&Event::R(8))))
            .count();
        assert_eq!(with_read, 1, "exactly one path reads the field");
    }

    #[test]
    fn loops_are_bounded() {
        let (results, _) = exec_single(|b| {
            b.begin_function("f");
            let top = b.new_label();
            b.push(Instr::Enter { frame: 0 });
            b.bind_label(top);
            b.push(Instr::Load { dst: Reg::R8, base: Reg::R0, offset: 8 });
            b.push_branch(Reg::R1, top);
            b.push(Instr::Ret);
            b.end_function();
        });
        // Finite path set despite the loop.
        assert!(!results.is_empty());
        assert!(results.len() <= AnalysisConfig::default().max_paths);
        for r in &results {
            for s in &r.subobjects {
                assert!(s.events.len() <= AnalysisConfig::default().max_events_per_object);
            }
        }
    }

    #[test]
    fn stack_slots_preserve_object_identity() {
        let (results, _) = exec_single(|b| {
            b.begin_function("f");
            b.push(Instr::Enter { frame: 32 });
            // Spill this, reload into r6, use field.
            b.push(Instr::Store { base: Reg::SP, offset: 0, src: Reg::R0 });
            b.push(Instr::Load { dst: Reg::R6, base: Reg::SP, offset: 0 });
            b.push(Instr::Load { dst: Reg::R8, base: Reg::R6, offset: 24 });
            b.push(Instr::Ret);
            b.end_function();
        });
        let entry = results[0].subobjects.iter().find(|s| s.view.obj == ObjId::ENTRY).unwrap();
        assert!(entry.events.contains(&Event::R(24)));
    }

    #[test]
    fn stack_objects_are_fresh_and_stable() {
        let (results, _) = exec_single(|b| {
            b.begin_function("f");
            b.push(Instr::Enter { frame: 64 });
            b.push(Instr::Lea { dst: Reg::R6, base: Reg::SP, offset: 4096 });
            b.push(Instr::Store { base: Reg::R6, offset: 8, src: Reg::R1 });
            b.push(Instr::Lea { dst: Reg::R7, base: Reg::SP, offset: 4096 });
            b.push(Instr::Load { dst: Reg::R8, base: Reg::R7, offset: 8 });
            b.push(Instr::Ret);
            b.end_function();
        });
        // Both leas denote the same object: W(8) then R(8) on one view.
        let obj_sub = results[0].subobjects.iter().find(|s| s.view.obj != ObjId::ENTRY).unwrap();
        assert_eq!(obj_sub.events, vec![Event::W(8), Event::R(8)]);
    }

    #[test]
    fn subobject_views_are_separate() {
        let (results, _) = exec_single(|b| {
            b.begin_function("f");
            b.push(Instr::Enter { frame: 0 });
            b.push(Instr::Lea { dst: Reg::R6, base: Reg::R0, offset: 16 });
            b.push(Instr::Store { base: Reg::R6, offset: 8, src: Reg::R1 });
            b.push(Instr::Ret);
            b.end_function();
        });
        let sub = results[0]
            .subobjects
            .iter()
            .find(|s| s.view.base == 16)
            .expect("secondary view tracked");
        assert_eq!(sub.events, vec![Event::W(8)]);
    }

    fn loaded_single(build: impl FnOnce(&mut ImageBuilder)) -> LoadedBinary {
        let mut b = ImageBuilder::new();
        build(&mut b);
        let mut image = b.finish();
        image.strip();
        LoadedBinary::load(image).unwrap()
    }

    #[test]
    fn zero_fuel_exhausts_immediately() {
        let loaded = loaded_single(|b| {
            b.begin_function("f");
            b.push(Instr::Enter { frame: 0 });
            b.push(Instr::Ret);
            b.end_function();
        });
        let mut cfg = AnalysisConfig::default();
        cfg.fuel = rock_budget::Budget::steps(0);
        let (paths, status, _) =
            execute_function(&loaded.functions()[0], &loaded, &CtorMap::default(), &cfg);
        assert_eq!(status, ExecStatus::FuelExhausted);
        assert!(paths.is_empty(), "no instruction could be stepped");
    }

    #[test]
    fn fuel_exhaustion_mid_enumeration_returns_partial_paths() {
        let loaded = loaded_single(|b| {
            b.begin_function("f");
            let l = b.new_label();
            b.push(Instr::Enter { frame: 0 });
            b.push_branch(Reg::R1, l);
            b.push(Instr::Load { dst: Reg::R8, base: Reg::R0, offset: 8 });
            b.bind_label(l);
            b.push(Instr::Ret);
            b.end_function();
        });
        let f = &loaded.functions()[0];
        let mut cfg = AnalysisConfig::default();
        let (full, status, _) = execute_function(f, &loaded, &CtorMap::default(), &cfg);
        assert_eq!(status, ExecStatus::Completed);
        assert_eq!(full.len(), 2);
        // Enough fuel for the first path only.
        cfg.fuel = rock_budget::Budget::steps(3);
        let (partial, status, _) = execute_function(f, &loaded, &CtorMap::default(), &cfg);
        assert_eq!(status, ExecStatus::FuelExhausted);
        assert!(partial.len() < full.len());
    }

    #[test]
    fn fuel_metering_is_deterministic() {
        let loaded = loaded_single(|b| {
            b.begin_function("f");
            let top = b.new_label();
            b.push(Instr::Enter { frame: 0 });
            b.bind_label(top);
            b.push(Instr::Load { dst: Reg::R8, base: Reg::R0, offset: 8 });
            b.push_branch(Reg::R1, top);
            b.push(Instr::Ret);
            b.end_function();
        });
        let f = &loaded.functions()[0];
        let mut cfg = AnalysisConfig::default();
        cfg.fuel = rock_budget::Budget::steps(5);
        let a = execute_function(f, &loaded, &CtorMap::default(), &cfg);
        let b = execute_function(f, &loaded, &CtorMap::default(), &cfg);
        assert_eq!(a, b);
    }

    /// The premise of [`may_store_vtable`]: stepping any instruction but
    /// a `MovImm` or a `BinOp` leaves only constants the state already
    /// held. The match names every instruction without a wildcard, so a
    /// new one does not compile until it is classified here.
    #[test]
    fn only_mov_imm_and_binop_make_new_constants() {
        let loaded = loaded_single(|b| {
            b.begin_function("f");
            b.push(Instr::Enter { frame: 0 });
            b.push(Instr::Ret);
            b.end_function();
        });
        let at = loaded.functions()[0].entry();
        let this = SubObj::primary(ObjId::ENTRY);
        let mut start = State::entry();
        start.regs[2] = SymValue::Const(7);
        start.regs[3] = SymValue::Const(7);
        start.regs[4] = SymValue::VptrOf(this);
        start.regs[5] = SymValue::SlotOf(this, 8);
        start.stack.insert(0, SymValue::Const(9));
        start.stack.insert(8, SymValue::ObjPtr(this));
        let constants = |state: &State| -> BTreeSet<u64> {
            let mut found = BTreeSet::new();
            for v in state.regs.iter().chain(state.stack.0.iter().map(|(_, v)| v)) {
                if let SymValue::Const(c) = v {
                    found.insert(*c);
                }
            }
            found
        };
        let held = constants(&start);
        let samples = [
            Instr::Enter { frame: 16 },
            Instr::Ret,
            Instr::MovImm { dst: Reg::R1, imm: 11 },
            Instr::MovReg { dst: Reg::R1, src: Reg::R2 },
            Instr::Load { dst: Reg::R1, base: Reg::SP, offset: 0 },
            Instr::Load { dst: Reg::R1, base: Reg::R0, offset: 0 },
            Instr::Load { dst: Reg::R1, base: Reg::R0, offset: 8 },
            Instr::Load { dst: Reg::R1, base: Reg::R4, offset: 8 },
            Instr::Load { dst: Reg::R1, base: Reg::R2, offset: 8 },
            Instr::Store { base: Reg::SP, offset: 16, src: Reg::R2 },
            Instr::Store { base: Reg::R0, offset: 8, src: Reg::R2 },
            Instr::Lea { dst: Reg::R1, base: Reg::SP, offset: 8 },
            Instr::Lea { dst: Reg::R1, base: Reg::R0, offset: 8 },
            Instr::Call { target: at },
            Instr::CallReg { target: Reg::R5 },
            Instr::Jmp { target: at },
            Instr::Branch { cond: Reg::R2, target: at },
            Instr::BinOp { op: BinOp::Add, dst: Reg::R1, lhs: Reg::R2, rhs: Reg::R3 },
            Instr::Nop,
            Instr::Halt,
        ];
        for instr in samples {
            let makes_constants = match instr {
                Instr::MovImm { .. } | Instr::BinOp { .. } => true,
                Instr::Enter { .. }
                | Instr::Ret
                | Instr::MovReg { .. }
                | Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::Lea { .. }
                | Instr::Call { .. }
                | Instr::CallReg { .. }
                | Instr::Jmp { .. }
                | Instr::Branch { .. }
                | Instr::Nop
                | Instr::Halt => false,
            };
            let mut state = start.clone();
            step(&mut state, &instr, &loaded, &CtorMap::default(), &AnalysisConfig::default());
            let new: Vec<u64> = constants(&state).difference(&held).copied().collect();
            assert_eq!(!new.is_empty(), makes_constants, "{instr:?} made {new:?}");
        }
    }
}

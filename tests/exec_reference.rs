//! The symbolic executor against its earlier form, kept here as a
//! reference: `BTreeMap` state, a `BTreeSet` of written argument
//! registers, a visits map per path, and a full clone of both for every
//! successor of every branch. `execute_function` must return the same
//! paths, status and fuel on generated functions, under configs that
//! make each bound bind (paths, visits, fuel, events per view), and on
//! every function of the suite programs, the stress sizes, corpus
//! members, the delta base and lenient loads of corrupted images, each
//! with the ctor map its analysis recognizes.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use rock::analysis::{
    execute_function, recognize_ctors, AnalysisConfig, CtorMap, Event, ExecStatus, ObjId,
    PathResult, SubObj, SubObjectSummary, SymValue,
};
use rock::binary::{
    image_from_bytes, image_to_bytes, Addr, BinOp, BinaryImage, ImageBuilder, Instr, Reg, Section,
    SectionKind, WORD_SIZE,
};
use rock::budget::Budget;
use rock::core::{suite, RockConfig};
use rock::loader::{Cfg, Function, LoadedBinary};
use rock::trace::splitmix64;

mod reference {
    use super::*;

    #[derive(Clone, Debug)]
    struct State {
        regs: [SymValue; Reg::COUNT],
        stack: BTreeMap<i32, SymValue>,
        stack_objs: BTreeMap<i32, ObjId>,
        next_obj: u32,
        events: BTreeMap<SubObj, Vec<Event>>,
        typing: BTreeMap<SubObj, Addr>,
        args_written: BTreeSet<usize>,
    }

    impl State {
        fn entry() -> State {
            let mut regs = [SymValue::Unknown; Reg::COUNT];
            regs[0] = SymValue::ObjPtr(SubObj::primary(ObjId::ENTRY));
            State {
                regs,
                stack: BTreeMap::new(),
                stack_objs: BTreeMap::new(),
                next_obj: 1,
                events: BTreeMap::new(),
                typing: BTreeMap::new(),
                args_written: BTreeSet::new(),
            }
        }

        fn fresh_obj(&mut self) -> ObjId {
            let id = ObjId(self.next_obj);
            self.next_obj += 1;
            id
        }

        fn emit(&mut self, view: SubObj, event: Event, cap: usize) {
            let seq = self.events.entry(view).or_default();
            if seq.len() < cap {
                seq.push(event);
            }
        }

        fn set(&mut self, reg: Reg, value: SymValue) {
            self.regs[reg.index() as usize] = value;
            if reg.is_arg() {
                self.args_written.insert(reg.index() as usize);
            }
        }

        fn get(&self, reg: Reg) -> SymValue {
            self.regs[reg.index() as usize]
        }

        fn finalize(self) -> PathResult {
            let mut views: BTreeSet<SubObj> = self.events.keys().copied().collect();
            views.extend(self.typing.keys().copied());
            PathResult {
                subobjects: views
                    .into_iter()
                    .map(|view| SubObjectSummary {
                        view,
                        events: self.events.get(&view).cloned().unwrap_or_default(),
                        vtable: self.typing.get(&view).copied(),
                    })
                    .collect(),
            }
        }
    }

    pub fn execute_function(
        function: &Function,
        loaded: &LoadedBinary,
        ctors: &CtorMap,
        config: &AnalysisConfig,
    ) -> (Vec<PathResult>, ExecStatus, u64) {
        let cfg = Cfg::build(function);
        let mut results = Vec::new();
        let mut fuel = config.fuel.meter();

        struct Frame {
            block: Addr,
            state: State,
            visits: BTreeMap<Addr, usize>,
        }

        let mut stack =
            vec![Frame { block: cfg.entry(), state: State::entry(), visits: BTreeMap::new() }];

        while let Some(mut frame) = stack.pop() {
            if results.len() >= config.max_paths {
                break;
            }
            *frame.visits.entry(frame.block).or_insert(0) += 1;
            let Some(block) = cfg.block_at(frame.block) else {
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
            let succs: Vec<Addr> = block
                .succs
                .iter()
                .copied()
                .filter(|s| frame.visits.get(s).copied().unwrap_or(0) < config.block_visit_limit)
                .collect();
            if succs.is_empty() {
                results.push(frame.state.finalize());
                continue;
            }
            for s in succs {
                stack.push(Frame {
                    block: s,
                    state: frame.state.clone(),
                    visits: frame.visits.clone(),
                });
            }
        }
        (results, ExecStatus::Completed, fuel.spent())
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
                    state.stack.get(&offset).copied().unwrap_or(SymValue::Unknown)
                } else {
                    match state.get(base) {
                        SymValue::ObjPtr(view) => {
                            if offset == 0 {
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
                    let obj = match state.stack_objs.get(&offset) {
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

    fn emit_call_events(
        state: &mut State,
        direct_target: Option<Addr>,
        vslot: Option<(SubObj, usize)>,
        ctors: &CtorMap,
        cap: usize,
    ) {
        let receiver = state.get(Reg::R0).as_obj();
        match (direct_target, vslot) {
            (Some(f), _) => {
                if let Some(view) = receiver {
                    state.emit(view, Event::This, cap);
                    state.emit(view, Event::Call(f), cap);
                    for &(off, vt) in ctors.stores_of(f).unwrap_or_default() {
                        state.typing.insert(SubObj::new(view.obj, view.base + off), vt);
                    }
                }
            }
            (None, Some((slot_view, slot))) => {
                let view = receiver.unwrap_or(slot_view);
                state.emit(view, Event::C(slot), cap);
            }
            (None, None) => {
                if let Some(view) = receiver {
                    state.emit(view, Event::This, cap);
                }
            }
        }
        for k in 1..Reg::ARG_COUNT {
            if !state.args_written.contains(&k) {
                continue;
            }
            if let SymValue::ObjPtr(view) = state.regs[k] {
                state.emit(view, Event::Arg(k), cap);
            }
        }
    }

    fn post_call(state: &mut State) {
        let fresh = state.fresh_obj();
        state.regs[0] = SymValue::ObjPtr(SubObj::primary(fresh));
        for k in 1..=5 {
            state.regs[k] = SymValue::Unknown;
        }
        state.regs[14] = SymValue::Unknown;
        state.args_written.clear();
    }
}

/// Both executors over every function of `loaded`; returns how many
/// paths they agreed on.
fn check(loaded: &LoadedBinary, ctors: &CtorMap, config: &AnalysisConfig, what: &str) -> usize {
    let mut paths = 0;
    for f in loaded.functions() {
        let got = execute_function(f, loaded, ctors, config);
        let want = reference::execute_function(f, loaded, ctors, config);
        assert_eq!(got, want, "{what}: function {}", f.entry());
        paths += got.0.len();
    }
    paths
}

/// Both executors over an image under the paper's analysis config, with
/// the ctor map the analysis recognizes.
fn check_image(loaded: &LoadedBinary, what: &str) -> usize {
    let config = RockConfig::paper().analysis;
    check(loaded, &recognize_ctors(loaded, &config), &config, what)
}

fn load(bench: &suite::Benchmark) -> LoadedBinary {
    LoadedBinary::load(bench.compile().unwrap().stripped_image()).unwrap()
}

#[test]
fn generated_programs_match_the_reference() {
    let mut benches = suite::all_benchmarks();
    benches
        .extend([(2, 5, 3), (4, 4, 3), (3, 4, 4)].map(|(f, d, o)| suite::stress_program(f, d, o)));
    benches.extend((0..4).map(|i| suite::corpus_member(i, 40)));
    let mut paths = 0;
    for bench in &benches {
        paths += check_image(&load(bench), bench.name);
    }
    assert!(paths > 1000, "{paths} paths");
}

#[test]
fn the_delta_base_matches_the_reference() {
    let loaded = load(&suite::delta_program(&suite::delta_spec(12, 10, 1205)));
    // The image holds functions that reach `max_paths` = 64.
    assert!(check_image(&loaded, "delta base") > 5000);
}

/// Corrupted images, loaded leniently: a cut text section, random byte
/// flips in the container, and garbage vtable slots.
#[test]
fn lenient_loads_of_corrupted_images_match_the_reference() {
    let image = suite::stress_program(2, 2, 2).compile().unwrap().stripped_image();
    let text = image.section(SectionKind::Text).unwrap();
    let rodata = image.section(SectionKind::RoData).unwrap();
    let bytes = image_to_bytes(&image);
    let with = |kind: SectionKind, section: Section| {
        let mut sections: Vec<Section> =
            image.sections().iter().filter(|s| s.kind() != kind).cloned().collect();
        sections.push(section);
        BinaryImage::new(sections)
    };
    for seed in 0..6u64 {
        let mut draw = seed;
        let mut below = |n: usize| {
            draw = splitmix64(draw);
            (draw % n.max(1) as u64) as usize
        };
        let keep = below(text.len());
        let cut = with(
            SectionKind::Text,
            Section::new(SectionKind::Text, text.base(), text.bytes()[..keep].to_vec()),
        );
        let mut flipped = bytes.clone();
        for _ in 0..16 {
            let at = below(flipped.len());
            flipped[at] ^= (below(255) + 1) as u8;
        }
        let mut table = rodata.bytes().to_vec();
        for _ in 0..4 {
            let at = below(table.len() / 8) * 8;
            let word = [u64::MAX, 0, text.base().value() + 1][below(3)];
            table[at..at + 8].copy_from_slice(&word.to_le_bytes());
        }
        let garbled =
            with(SectionKind::RoData, Section::new(SectionKind::RoData, rodata.base(), table));
        let mutants = [Some(cut), image_from_bytes(&flipped).ok(), Some(garbled)];
        for (i, mutant) in mutants.into_iter().flatten().enumerate() {
            check_image(&LoadedBinary::load_lenient(mutant), &format!("seed {seed}, mutant {i}"));
        }
    }
}

/// Registers the generated code moves values between: `this`, two
/// argument registers and two callee-saved ones.
const REGS: [Reg; 5] = [Reg::R0, Reg::R1, Reg::R2, Reg::R6, Reg::R7];

/// One generated instruction: a kind and three small operands.
type Op = (u8, usize, usize, usize);

/// An image of two methods, their two vtables, a ctor-like function
/// that stores both, and one function built from `ops`, with `labels`
/// bound at the given op positions as branch and jump targets, back
/// edges included.
fn generated_image(ops: &[Op], labels: &[usize]) -> LoadedBinary {
    let mut b = ImageBuilder::new();
    let m = b.begin_function("A::m");
    b.push(Instr::Enter { frame: 0 });
    b.push(Instr::Ret);
    b.end_function();
    let n = b.begin_function("B::n");
    b.push(Instr::Enter { frame: 0 });
    b.push(Instr::Ret);
    b.end_function();
    let vts = [b.add_vtable("vtable for A", vec![m, m]), b.add_vtable("vtable for B", vec![m, n])];
    let ctor = b.begin_function("B::B");
    b.push(Instr::Enter { frame: 0 });
    b.push_mov_vtable_addr(Reg::R7, vts[1]);
    b.push(Instr::Store { base: Reg::R0, offset: 0, src: Reg::R7 });
    b.push_mov_vtable_addr(Reg::R7, vts[0]);
    b.push(Instr::Store { base: Reg::R0, offset: 16, src: Reg::R7 });
    b.push(Instr::Ret);
    b.end_function();

    b.begin_function("f");
    let marks: Vec<_> = labels.iter().map(|_| b.new_label()).collect();
    let at = |i: usize| labels.iter().zip(&marks).filter(move |(p, _)| **p % (ops.len() + 1) == i);
    b.push(Instr::Enter { frame: 32 });
    for (i, &(kind, x, y, z)) in ops.iter().enumerate() {
        for (_, &l) in at(i) {
            b.bind_label(l);
        }
        let (rx, ry) = (REGS[x % REGS.len()], REGS[y % REGS.len()]);
        let base = if z == 3 { Reg::SP } else { ry };
        let offset = 8 * (z % 3) as i32;
        match kind {
            0 => b.push(Instr::Load { dst: rx, base, offset }),
            1 => b.push(Instr::Store { base, offset, src: rx }),
            2 => b.push(Instr::Lea { dst: rx, base, offset: 16 * (z % 2) as i32 }),
            3 => b.push_mov_vtable_addr(rx, vts[y % 2]),
            4 => b.push(Instr::MovImm { dst: rx, imm: z as u64 }),
            5 => b.push(Instr::MovReg { dst: rx, src: ry }),
            6 => b.push(Instr::BinOp { op: BinOp::Add, dst: rx, lhs: ry, rhs: rx }),
            7 => b.push_call([m, n, ctor][z % 3]),
            8 => b.push(Instr::CallReg { target: rx }),
            9..=13 => b.push_branch(rx, marks[y % marks.len()]),
            14 => b.push_jmp(marks[y % marks.len()]),
            _ => b.push(Instr::Ret),
        }
    }
    for (_, &l) in at(ops.len()) {
        b.bind_label(l);
    }
    b.push(Instr::Ret);
    b.end_function();
    let mut image = b.finish();
    image.strip();
    LoadedBinary::load(image).unwrap()
}

proptest! {
    /// Generated functions under configs whose path, visit, fuel and
    /// event bounds bind: equal paths, status and fuel.
    #[test]
    fn generated_functions_match_the_reference(
        ops in prop::collection::vec((0u8..16, 0usize..5, 0usize..5, 0usize..4), 1..32),
        labels in prop::collection::vec(0usize..32, 1..4),
        max_paths in 1usize..9,
        block_visit_limit in 1usize..4,
        fuel in 0u64..160,
        max_events_per_object in 1usize..4,
    ) {
        let loaded = generated_image(&ops, &labels);
        let mut config = AnalysisConfig::default();
        config.max_paths = max_paths;
        config.block_visit_limit = block_visit_limit;
        config.max_events_per_object = max_events_per_object;
        // A fifth of the cases run with the default fuel.
        if fuel < 128 {
            config.fuel = Budget::steps(fuel);
        }
        let ctors = recognize_ctors(&loaded, &AnalysisConfig::default());
        prop_assert!(!ctors.is_empty());
        check(&loaded, &ctors, &config, &format!("{ops:?} / {labels:?}"));
    }
}

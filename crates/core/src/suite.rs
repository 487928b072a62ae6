//! The evaluation suite: synthetic regenerations of the paper's 19
//! benchmarks (Table 2) and the figure examples.
//!
//! The original binaries (Windows/MSVC builds of open-source projects)
//! and their ground truths are not available, so each benchmark is a
//! MiniCpp program engineered to match the paper's reported **type
//! count** and **structural character**:
//!
//! * the ten *structurally resolvable* benchmarks compile with
//!   constructor calls intact (default options), so Phase II pinning
//!   resolves them — except where a split family is engineered (tinyxml,
//!   bafprp, tinyxmlSTL reproduce the "root lost its children" story);
//! * the nine *unresolvable* benchmarks compile with parent-ctor
//!   inlining (and, where the paper's error analysis calls for it,
//!   abstract-root elimination or COMDAT folding), leaving multiple
//!   candidate parents for the behavioral analysis to rank.
//!
//! Every [`Benchmark`] carries the paper's reported numbers so harnesses
//! can print measured-vs-paper tables.

use std::collections::BTreeMap;

use rock_minicpp::{
    compile, BodyBuilder, CompileError, CompileOptions, Compiled, Expr, Program, ProgramBuilder,
};

/// The paper's reported application distances for one benchmark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperNumbers {
    /// Binary size reported in the paper (Kb) — informational only.
    pub size_kb: f64,
    /// Number of binary types.
    pub types: usize,
    /// (missing, added) without SLMs.
    pub without: (f64, f64),
    /// (missing, added) with SLMs.
    pub with: (f64, f64),
}

/// One benchmark: a generated program, its compile options, and the
/// paper's reference numbers.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// Benchmark name (matches Table 2).
    pub name: &'static str,
    /// `true` for the top half of Table 2.
    pub structurally_resolvable: bool,
    /// The paper's numbers for this benchmark.
    pub paper: PaperNumbers,
    /// The source program.
    pub program: Program,
    /// Compilation options (which optimizations degrade the structure).
    pub options: CompileOptions,
}

impl Benchmark {
    /// Compiles the benchmark.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] (never expected for suite programs).
    pub fn compile(&self) -> Result<Compiled, CompileError> {
        compile(&self.program, &self.options)
    }
}

/// Per-class shape of a generated hierarchy — the public workload
/// generator's unit. Build a `Vec<ClassSpec>` (parents must have smaller
/// indices) and feed it to [`generate_program`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassSpec {
    /// Parent class index, or `None` for roots. Must be `<` this class's
    /// own index.
    pub parent: Option<usize>,
    /// New methods this class introduces.
    pub own_methods: usize,
    /// How many inherited slots to override (the first `k`; clipped to
    /// the inherited count).
    pub overrides: usize,
    /// Abstract: never instantiated, no driver; eliminated from the
    /// binary when `CompileOptions::eliminate_abstract` is set.
    pub is_abstract: bool,
    /// Inline this class's ctor into its children even in unoptimized
    /// builds (severs the rule-3 structural cue for this link only).
    pub inline_ctor: bool,
    /// Classes with equal seeds and equal field offsets produce
    /// byte-identical method bodies (COMDAT-folding bait).
    pub body_seed: u64,
}

impl ClassSpec {
    /// A plain node: no overrides, concrete, unique body seed.
    pub fn node(parent: Option<usize>, own_methods: usize, idx: usize) -> Self {
        ClassSpec {
            parent,
            own_methods,
            overrides: 0,
            is_abstract: false,
            inline_ctor: false,
            body_seed: idx as u64 + 1,
        }
    }
}

/// Generates a program from class specs: classes `{name}_C{i}` with one
/// field each, plus one driver per concrete class with a type-distinctive
/// usage pattern that preserves behavioral containment along inheritance
/// chains (children replay every ancestor's usage segment).
///
/// This is the workload generator behind the whole Table 2 suite; it is
/// public so downstream users can synthesize benchmarks with controlled
/// structural characters of their own.
pub fn generate_program(name: &str, specs: &[ClassSpec]) -> Program {
    let mut p = ProgramBuilder::new();
    emit_classes(&mut p, name, specs);
    p.finish()
}

/// Emits one spec family (classes + drivers) into an existing builder.
/// Everything the emitted *code* depends on — method bodies, driver
/// patterns — derives from `body_seed` and positions local to `specs`,
/// so two emissions with equal `name` and `specs` produce content-equal
/// functions no matter what else the program contains or where the
/// family lands in it (the property [`corpus_member`] builds on).
fn emit_classes(p: &mut ProgramBuilder, name: &str, specs: &[ClassSpec]) {
    // Slot-name bookkeeping: slots(i) = inherited slot names + own.
    let mut slots: Vec<Vec<String>> = Vec::with_capacity(specs.len());
    // The field each slot operates on: an overriding method accesses the
    // same object state as the method it replaces (the introducing
    // class's field), so override bodies stay within the shared
    // behavioral vocabulary and differ by their constants, not by alien
    // field offsets.
    let mut slot_fields: Vec<Vec<String>> = Vec::with_capacity(specs.len());
    // The slot indices each class "owns": slots it introduced plus slots
    // it overrode. Drivers replay one usage segment per chain member over
    // the member's owned slots, so a child's behavior *contains* every
    // ancestor's (the paper's containment hypothesis) while each class
    // still leaves a distinctive signature.
    let mut owned: Vec<Vec<usize>> = Vec::with_capacity(specs.len());

    for (i, spec) in specs.iter().enumerate() {
        let class_name = format!("{name}_C{i}");
        let (mut my_slots, mut my_slot_fields) = match spec.parent {
            None => (Vec::new(), Vec::new()),
            Some(pidx) => (slots[pidx].clone(), slot_fields[pidx].clone()),
        };
        let field = format!("f{i}");

        let mut cb = p.class(&class_name);
        if let Some(pidx) = spec.parent {
            cb.base(format!("{name}_C{pidx}"));
        }
        cb.field(&field);
        if spec.is_abstract {
            cb.abstract_class();
        }
        if spec.inline_ctor {
            cb.inline_ctor();
        }

        let mut my_owned = Vec::new();
        // Overrides: redefine the first k inherited slots, touching the
        // introducer's field.
        let k = spec.overrides.min(my_slots.len());
        let seed = spec.body_seed;
        for s in 0..k {
            let slot_name = my_slots[s].clone();
            let f = my_slot_fields[s].clone();
            cb.method(slot_name, move |b| {
                b.write("this", &f, Expr::Const(seed * 31 + s as u64));
                b.read("v", "this", &f);
                b.ret();
            });
            my_owned.push(s);
        }
        // New methods.
        for m in 0..spec.own_methods {
            let slot_name = format!("{name}_c{i}_m{m}");
            let f = field.clone();
            let s = my_slots.len();
            cb.method(slot_name.clone(), move |b| {
                b.write("this", &f, Expr::Const(seed * 31 + s as u64));
                b.read("v", "this", &f);
                b.ret();
            });
            my_slots.push(slot_name);
            my_slot_fields.push(field.clone());
            my_owned.push(s);
        }
        slots.push(my_slots);
        slot_fields.push(my_slot_fields);
        owned.push(my_owned);
    }

    // Drivers: one per concrete class, replaying each chain member's
    // segment root-first.
    for (i, spec) in specs.iter().enumerate() {
        if spec.is_abstract {
            continue;
        }
        let class_name = format!("{name}_C{i}");
        // Ancestor chain, root first, self last.
        let mut chain = vec![i];
        let mut cur = spec.parent;
        while let Some(pidx) = cur {
            chain.push(pidx);
            cur = specs[pidx].parent;
        }
        chain.reverse();
        let my_slots = slots[i].clone();
        let segments: Vec<(usize, Vec<String>)> = chain
            .iter()
            .map(|&a| {
                let names = owned[a].iter().map(|&s| my_slots[s].clone()).collect::<Vec<_>>();
                (a, names)
            })
            .collect();
        let anchor = my_slots[0].clone();
        let delete_it = i % 2 == 0;
        p.func(format!("drive_{name}_C{i}"), move |f| {
            f.new_obj("o", &class_name);
            for (a, seg) in &segments {
                if seg.is_empty() {
                    continue;
                }
                let reps = 1 + (a % 4);
                match a % 3 {
                    // Consecutive bursts per slot.
                    0 => {
                        for s in seg {
                            for _ in 0..reps {
                                f.vcall("o", s.clone(), vec![]);
                            }
                        }
                    }
                    // Interleaved with the anchor (Confirmable-style).
                    1 => {
                        for s in seg {
                            for _ in 0..reps {
                                f.vcall("o", anchor.clone(), vec![]);
                                f.vcall("o", s.clone(), vec![]);
                            }
                        }
                    }
                    // Single calls then an anchor burst (Flushable-style).
                    _ => {
                        for s in seg {
                            f.vcall("o", s.clone(), vec![]);
                        }
                        for _ in 0..reps {
                            f.vcall("o", anchor.clone(), vec![]);
                        }
                    }
                }
            }
            if delete_it {
                f.delete("o");
            }
            f.ret();
        });
    }
}

/// Builds a plain tree: `parents[i]` is the parent index of class `i`.
/// Own-method counts alternate 1/2 so vtable lengths vary.
fn tree(parents: &[Option<usize>]) -> Vec<ClassSpec> {
    parents.iter().enumerate().map(|(i, p)| ClassSpec::node(*p, 1 + i % 2, i)).collect()
}

fn resolvable_options() -> CompileOptions {
    CompileOptions::default()
}

fn optimized_options() -> CompileOptions {
    let mut o = CompileOptions::default();
    o.inline_parent_ctors = true;
    o.rodata_noise = 64;
    o
}

/// A chain of `n` classes: 0 -> 1 -> ... -> n-1.
fn chain(n: usize) -> Vec<Option<usize>> {
    (0..n).map(|i| if i == 0 { None } else { Some(i - 1) }).collect()
}

fn bench(
    name: &'static str,
    resolvable: bool,
    paper: PaperNumbers,
    specs: Vec<ClassSpec>,
    options: CompileOptions,
) -> Benchmark {
    Benchmark {
        name,
        structurally_resolvable: resolvable,
        paper,
        program: generate_program(name, &specs),
        options,
    }
}

fn paper(size_kb: f64, types: usize, without: (f64, f64), with: (f64, f64)) -> PaperNumbers {
    PaperNumbers { size_kb, types, without, with }
}

// --- the ten structurally resolvable benchmarks -------------------------

fn antispy_complete() -> Benchmark {
    bench(
        "AntispyComplete",
        true,
        paper(24.7, 3, (0.0, 0.33), (0.0, 0.33)),
        tree(&chain(3)),
        resolvable_options(),
    )
}

fn bafprp() -> Benchmark {
    // 23 types; a 3-node subtree (20,21,22) is severed: class 19 inlines
    // its ctor into its only child 20, which overrides everything it
    // inherits. Ancestors of 20 ({19, 0}) each lose 3 successors:
    // 6/23 ≈ 0.26 missing (paper: 0.3).
    let mut parents: Vec<Option<usize>> = vec![None];
    // Three subtrees under the root: 1-6, 7-12, 13-18 (chains of 6).
    for sub in 0..3 {
        for j in 0..6 {
            let idx = 1 + sub * 6 + j;
            parents.push(if j == 0 { Some(0) } else { Some(idx - 1) });
        }
    }
    parents.push(Some(0)); // 19: child of the root
    parents.push(Some(19)); // 20: severed below
    parents.push(Some(20)); // 21
    parents.push(Some(20)); // 22
    let mut specs = tree(&parents);
    specs[19].inline_ctor = true;
    specs[19].own_methods = 2;
    specs[20].overrides = usize::MAX; // clipped to inherited count
    specs[20].own_methods = 2;
    bench("bafprp", true, paper(52.9, 23, (0.3, 0.0), (0.3, 0.0)), specs, resolvable_options())
}

fn cppcheck() -> Benchmark {
    // Root + two subtrees.
    let parents = vec![None, Some(0), Some(1), Some(0), Some(3), Some(3)];
    bench(
        "cppcheck",
        true,
        paper(97.0, 6, (0.0, 0.0), (0.0, 0.0)),
        tree(&parents),
        resolvable_options(),
    )
}

fn midilib() -> Benchmark {
    // 20 types: root + 3 subtrees of 5 + chain of 4.
    let mut parents = vec![None];
    for sub in 0..3 {
        let base = 1 + sub * 5;
        parents.push(Some(0));
        for j in 1..5 {
            parents.push(Some(base + j - 1));
        }
    }
    for j in 0..4 {
        parents.push(if j == 0 { Some(0) } else { Some(15 + j) });
    }
    bench(
        "MidiLib",
        true,
        paper(400.0, 20, (0.0, 0.0), (0.0, 0.0)),
        tree(&parents),
        resolvable_options(),
    )
}

fn patl() -> Benchmark {
    bench(
        "patl",
        true,
        paper(36.5, 4, (0.0, 0.0), (0.0, 0.0)),
        tree(&[None, Some(0), Some(0), Some(1)]),
        resolvable_options(),
    )
}

fn pop3() -> Benchmark {
    bench(
        "pop3",
        true,
        paper(24.0, 2, (0.0, 0.0), (0.0, 0.0)),
        tree(&[None, Some(0)]),
        resolvable_options(),
    )
}

fn smtp() -> Benchmark {
    bench(
        "smtp",
        true,
        paper(26.0, 2, (0.0, 0.0), (0.0, 0.0)),
        tree(&[None, Some(0)]),
        resolvable_options(),
    )
}

fn tinyxml() -> Benchmark {
    // The paper's highest missing average: the root's link to the rest of
    // the hierarchy leaves no structural trace (ctor inlined, all methods
    // overridden), so the root lands in its own family and "loses" all 8
    // successors: 8/9 ≈ 0.89.
    let mut parents = vec![None, Some(0)];
    for j in 2..9 {
        parents.push(Some(j - 1));
    }
    let mut specs = tree(&parents);
    specs[0].inline_ctor = true;
    specs[0].own_methods = 2;
    specs[1].overrides = usize::MAX;
    specs[1].own_methods = 1;
    bench("tinyxml", true, paper(60.0, 9, (0.89, 0.0), (0.89, 0.0)), specs, resolvable_options())
}

fn tinyxml_stl() -> Benchmark {
    // 15 types in two trees; a 3-node subtree at depth 3 of the first
    // tree is severed: its 3 ancestors each lose 3 successors →
    // 9/15 = 0.6 missing.
    let mut parents = vec![None]; // 0: root of the second (intact) tree
    parents.push(None); // 1: root of the chain tree
    parents.push(Some(1)); // 2
    parents.push(Some(2)); // 3 (severed below this)
    parents.push(Some(3)); // 4: severed subtree root
    parents.push(Some(4)); // 5
    parents.push(Some(4)); // 6
    for j in 7..15 {
        parents.push(Some(if j < 11 { 0 } else { j - 4 }));
    }
    let mut specs = tree(&parents);
    specs[3].inline_ctor = true;
    specs[3].own_methods = 2;
    specs[4].overrides = usize::MAX;
    specs[4].own_methods = 2;
    bench(
        "tinyxmlSTL",
        true,
        paper(88.0, 15, (0.6, 0.27), (0.6, 0.27)),
        specs,
        resolvable_options(),
    )
}

fn yafc() -> Benchmark {
    // 15 types, two clean trees.
    let mut parents = vec![None];
    for j in 1..8 {
        parents.push(Some((j - 1) / 2));
    }
    parents.push(None); // 8: second root
    for j in 9..15 {
        parents.push(Some(8 + (j - 9) / 2));
    }
    bench(
        "yafc",
        true,
        paper(68.0, 15, (0.0, 0.2), (0.0, 0.2)),
        tree(&parents),
        resolvable_options(),
    )
}

// --- the nine benchmarks needing behavioral analysis ---------------------

fn analyzer() -> Benchmark {
    // Two 12-type trees; a leaf of each is COMDAT-folded with the other
    // (identical bodies at identical layout offsets), merging the
    // families; ctor inlining removes the pins.
    let mut parents: Vec<Option<usize>> = Vec::new();
    for t in 0..2 {
        let base = t * 12;
        parents.push(None);
        for j in 1..12 {
            parents.push(Some(base + (j - 1) / 3));
        }
    }
    let mut specs = tree(&parents);
    // Leaves 11 and 23 sit at the same depth with the same shape: force
    // identical bodies.
    specs[11].body_seed = 999;
    specs[23].body_seed = 999;
    specs[11].parent = Some(2);
    specs[23].parent = Some(14);
    specs[11].own_methods = 1;
    specs[23].own_methods = 1;
    let mut o = optimized_options();
    o.comdat_fold = true;
    bench("Analyzer", false, paper(419.0, 24, (0.21, 6.79), (0.25, 1.38)), specs, o)
}

fn cgridlistctrlex() -> Benchmark {
    // 28 concrete types + 2 abstract roots that are optimized out
    // (CEdit / CDialog in the paper's Fig. 9): their child pairs share
    // inherited implementations, so each pair forms a family with no
    // resolvable parent. The main 24-type tree keeps its ctor pins.
    let mut parents: Vec<Option<usize>> = vec![None];
    for j in 1..24 {
        parents.push(Some((j - 1) / 2));
    }
    let mut specs = tree(&parents);
    // Abstract root 24 with children 25, 26 (paper: CEdit's children).
    specs.push(ClassSpec { is_abstract: true, ..ClassSpec::node(None, 2, 24) });
    specs.push(ClassSpec::node(Some(24), 1, 25));
    specs.push(ClassSpec::node(Some(24), 1, 26));
    // Abstract root 27 with children 28, 29 (paper: CDialog's children).
    specs.push(ClassSpec { is_abstract: true, ..ClassSpec::node(None, 2, 27) });
    specs.push(ClassSpec::node(Some(27), 1, 28));
    specs.push(ClassSpec::node(Some(27), 1, 29));
    let mut o = CompileOptions::default();
    o.eliminate_abstract = true;
    o.rodata_noise = 64;
    bench("CGridListCtrlEx", false, paper(151.0, 28, (0.0, 0.46), (0.07, 0.07)), specs, o)
}

fn echoparams() -> Benchmark {
    // Four structurally equivalent types: a chain where each class
    // overrides exactly one inherited method and adds none — identical
    // vtable lengths, shared untouched slots, no ctor cues: 64 candidate
    // hierarchies (§6.4), resolved exactly by the SLMs.
    // generate() overrides the *first k* inherited slots, so give class i
    // a growing override window (1, 2, 3): every vtable keeps length 4,
    // slot 3 stays shared by all (one family), and no ctor cues survive.
    let mut specs = vec![ClassSpec::node(None, 4, 0)];
    for (i, k) in [(1usize, 1usize), (2, 2), (3, 3)] {
        let mut s = ClassSpec::node(Some(i - 1), 0, i);
        s.overrides = k;
        specs.push(s);
    }
    bench("echoparams", false, paper(58.0, 4, (0.0, 2.25), (0.0, 0.0)), specs, optimized_options())
}

fn gperf() -> Benchmark {
    // Root with 2 methods; three mids override one method each (equal
    // lengths → ambiguity), leaves below them.
    let mut specs = vec![ClassSpec::node(None, 3, 0)];
    for i in 1..4 {
        let mut s = ClassSpec::node(Some(0), 0, i);
        s.overrides = 1;
        specs.push(s);
    }
    for i in 4..10 {
        let mut s = ClassSpec::node(Some(1 + (i - 4) % 3), 0, i);
        s.overrides = 2;
        specs.push(s);
    }
    bench("gperf", false, paper(84.0, 10, (0.0, 3.8), (0.0, 0.5)), specs, optimized_options())
}

fn libctemplate() -> Benchmark {
    // 36 types, three trees; one subtree root is abstract and eliminated
    // (missing), the rest carries mild ambiguity.
    let mut parents: Vec<Option<usize>> = Vec::new();
    for t in 0..3 {
        let base = t * 12;
        parents.push(None);
        for j in 1..12 {
            parents.push(Some(base + (j - 1) / 2));
        }
    }
    parents.push(Some(2)); // 37th class so 36 remain after elimination
    let mut specs = tree(&parents);
    specs[12].is_abstract = true; // second tree's root vanishes
    bench("libctemplate", false, paper(1233.0, 36, (0.25, 0.33), (0.25, 0.11)), specs, {
        let mut o = optimized_options();
        o.eliminate_abstract = true;
        o
    })
}

fn showtraf() -> Benchmark {
    // 25 concrete types; like CGridListCtrlEx: a pinned main tree plus
    // one eliminated abstract root with a child pair.
    let mut parents: Vec<Option<usize>> = vec![None];
    for j in 1..22 {
        parents.push(Some((j - 1) / 2));
    }
    let mut specs = tree(&parents);
    specs.push(ClassSpec { is_abstract: true, ..ClassSpec::node(None, 2, 22) });
    specs.push(ClassSpec::node(Some(22), 1, 23));
    specs.push(ClassSpec::node(Some(22), 1, 24));
    specs.push(ClassSpec::node(Some(23), 1, 25));
    let mut o = CompileOptions::default();
    o.eliminate_abstract = true;
    bench("ShowTraf", false, paper(137.0, 25, (0.04, 0.4), (0.04, 0.08)), specs, o)
}

fn smoothing() -> Benchmark {
    // The paper's biggest Without-SLM blowup (added 7.9 → 1.1): a wide
    // family of equal-length vtables. Root with 2 methods; 14 children
    // each override one and add none; plus a clean 16-type second tree.
    let mut specs = vec![ClassSpec::node(None, 2, 0)];
    for i in 1..15 {
        let mut s = ClassSpec::node(Some(0), 0, i);
        s.overrides = 1;
        specs.push(s);
    }
    let base = specs.len();
    let mut parents: Vec<Option<usize>> = vec![None];
    for j in 1..16 {
        parents.push(Some(base + (j - 1) / 3));
    }
    for (j, p) in parents.into_iter().enumerate() {
        specs.push(ClassSpec::node(if j == 0 { None } else { p }, 1 + j % 2, base + j));
    }
    bench(
        "Smoothing",
        false,
        paper(453.0, 31, (0.19, 7.9), (0.23, 1.1)),
        specs,
        optimized_options(),
    )
}

fn td_unittest() -> Benchmark {
    // Two *unrelated* classes whose methods COMDAT-fold to one
    // implementation, wrongly merging their families (error source 1).
    let mut specs = vec![ClassSpec::node(None, 2, 0), ClassSpec::node(None, 2, 1)];
    specs[0].body_seed = 77;
    specs[1].body_seed = 77;
    let mut o = optimized_options();
    o.comdat_fold = true;
    bench("td_unittest", false, paper(101.0, 2, (0.0, 1.0), (0.0, 0.5)), specs, o)
}

fn tinyserver() -> Benchmark {
    // Two 2-chains merged by folded implementations.
    let mut specs = vec![
        ClassSpec::node(None, 2, 0),
        ClassSpec::node(Some(0), 1, 1),
        ClassSpec::node(None, 2, 2),
        ClassSpec::node(Some(2), 1, 3),
    ];
    specs[0].body_seed = 55;
    specs[2].body_seed = 55;
    let mut o = optimized_options();
    o.comdat_fold = true;
    bench("tinyserver", false, paper(46.0, 4, (0.0, 2.25), (0.0, 0.25)), specs, o)
}

/// All 19 Table 2 benchmarks, resolvable half first (paper order).
pub fn all_benchmarks() -> Vec<Benchmark> {
    vec![
        antispy_complete(),
        bafprp(),
        cppcheck(),
        midilib(),
        patl(),
        pop3(),
        smtp(),
        tinyxml(),
        tinyxml_stl(),
        yafc(),
        analyzer(),
        cgridlistctrlex(),
        echoparams(),
        gperf(),
        libctemplate(),
        showtraf(),
        smoothing(),
        td_unittest(),
        tinyserver(),
    ]
}

/// Looks a benchmark up by its Table 2 name.
pub fn benchmark(name: &str) -> Option<Benchmark> {
    all_benchmarks().into_iter().find(|b| b.name == name)
}

/// The Fig. 3/5 running example: `Stream`, `ConfirmableStream`,
/// `FlushableStream` with the `useX` drivers, compiled with ctor inlining
/// so structure alone cannot place `FlushableStream` (Fig. 6).
pub fn streams_example() -> Benchmark {
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
    p.func("useStream", |f| {
        f.new_obj("s", "Stream");
        for _ in 0..3 {
            f.vcall("s", "send", vec![]);
        }
        f.ret();
    });
    p.func("useConfirmableStream", |f| {
        f.new_obj("s", "ConfirmableStream");
        for _ in 0..3 {
            f.vcall("s", "send", vec![]);
            f.vcall("s", "confirm", vec![]);
        }
        f.ret();
    });
    p.func("useFlushableStream", |f| {
        f.new_obj("s", "FlushableStream");
        for _ in 0..3 {
            f.vcall("s", "send", vec![]);
        }
        f.vcall("s", "flush", vec![]);
        f.vcall("s", "close", vec![]);
        f.ret();
    });
    Benchmark {
        name: "streams (Fig. 3)",
        structurally_resolvable: false,
        paper: paper(0.0, 3, (0.0, 0.0), (0.0, 0.0)),
        program: p.finish(),
        options: {
            let mut o = CompileOptions::default();
            o.inline_parent_ctors = true;
            o
        },
    }
}

/// The Fig. 1/2 motivation: a `DataSource` hierarchy where internal and
/// external sources must not be conflated (the CFI scenario of §1).
pub fn datasource_example() -> Benchmark {
    let mut p = ProgramBuilder::new();
    p.class("DataSource")
        .method("connect", |b| {
            b.ret();
        })
        .method("read", |b| {
            b.ret();
        });
    p.class("InternalDataSource").base("DataSource").method("local_path", |b| {
        b.ret();
    });
    p.class("ExternalDataSource").base("DataSource").method("verify_credentials", |b| {
        b.ret();
    });
    for (i, base) in [(0, "InternalDataSource"), (1, "InternalDataSource")] {
        p.class(format!("Internal{i}")).base(base).method(format!("int_extra{i}"), |b| {
            b.ret();
        });
    }
    for (i, base) in [(0, "ExternalDataSource"), (1, "ExternalDataSource")] {
        p.class(format!("External{i}")).base(base).method(format!("ext_extra{i}"), |b| {
            b.ret();
        });
    }
    // readInternal: connect + read (Fig. 1).
    p.func("readInternal", |f| {
        f.new_obj("ds", "Internal0");
        f.vcall("ds", "connect", vec![]);
        f.vcall("ds", "read", vec![]);
        f.ret();
    });
    p.func("readInternal1", |f| {
        f.new_obj("ds", "Internal1");
        f.vcall("ds", "connect", vec![]);
        f.vcall("ds", "read", vec![]);
        f.vcall("ds", "int_extra1", vec![]);
        f.ret();
    });
    // readExternal: connect + verify + read + filter (Fig. 1).
    p.func("readExternal", |f| {
        f.new_obj("ds", "External0");
        f.vcall("ds", "connect", vec![]);
        f.vcall("ds", "verify_credentials", vec![]);
        f.vcall("ds", "read", vec![]);
        f.ret();
    });
    p.func("readExternal1", |f| {
        f.new_obj("ds", "External1");
        f.vcall("ds", "connect", vec![]);
        f.vcall("ds", "verify_credentials", vec![]);
        f.vcall("ds", "read", vec![]);
        f.vcall("ds", "ext_extra1", vec![]);
        f.ret();
    });
    p.func("useBases", |f| {
        f.new_obj("i", "InternalDataSource");
        f.vcall("i", "connect", vec![]);
        f.vcall("i", "read", vec![]);
        f.vcall("i", "local_path", vec![]);
        f.new_obj("e", "ExternalDataSource");
        f.vcall("e", "connect", vec![]);
        f.vcall("e", "verify_credentials", vec![]);
        f.vcall("e", "read", vec![]);
        f.ret();
    });
    Benchmark {
        name: "datasource (Fig. 1)",
        structurally_resolvable: false,
        paper: paper(0.0, 7, (0.0, 0.0), (0.0, 0.0)),
        program: p.finish(),
        options: {
            let mut o = CompileOptions::default();
            o.inline_parent_ctors = true;
            o
        },
    }
}

/// A large generated program (no ground-truth comparison in the paper —
/// the Skype soak test of §6.1). `families` trees of `depth` levels with
/// `fanout` children per node.
pub fn stress_program(families: usize, depth: usize, fanout: usize) -> Benchmark {
    let mut specs: Vec<ClassSpec> = Vec::new();
    for _ in 0..families {
        let root = specs.len();
        specs.push(ClassSpec::node(None, 2, root));
        let mut level = vec![root];
        for _ in 1..depth {
            let mut next = Vec::new();
            for &p in &level {
                for _ in 0..fanout {
                    let idx = specs.len();
                    specs.push(ClassSpec::node(Some(p), 1 + idx % 2, idx));
                    next.push(idx);
                }
            }
            level = next;
        }
    }
    let types = specs.len();
    Benchmark {
        name: "stress",
        structurally_resolvable: false,
        paper: paper(0.0, types, (0.0, 0.0), (0.0, 0.0)),
        program: generate_program("stress", &specs),
        options: optimized_options(),
    }
}

/// The parent table corpus families are carved from: a root, two mid
/// nodes, and fan-out below (deep enough for containment chains, wide
/// enough for parent ambiguity under ctor inlining). A family takes a
/// prefix of this table, so every size shares the same upper shape.
/// Family size sets the cacheable-to-fixed work ratio of a member:
/// distance scoring grows with the square of the class count, so a
/// dozen-plus classes per family keeps jobs dominated by work the
/// corpus cache can absorb.
const CORPUS_FAMILY_PARENTS: [Option<usize>; 18] = [
    None,
    Some(0),
    Some(0),
    Some(1),
    Some(2),
    Some(1),
    Some(2),
    Some(3),
    Some(4),
    Some(5),
    Some(3),
    Some(6),
    Some(7),
    Some(8),
    Some(5),
    Some(6),
    Some(10),
    Some(12),
];

/// Specs for one corpus family: the first `classes` rows of
/// [`CORPUS_FAMILY_PARENTS`]. All code content derives from
/// `seed_base` and the local index, so equal `seed_base` means
/// content-equal families across binaries.
fn corpus_family_specs(seed_base: u64, classes: usize) -> Vec<ClassSpec> {
    CORPUS_FAMILY_PARENTS[..classes]
        .iter()
        .enumerate()
        .map(|(i, &parent)| {
            // Heavy on purpose: fleet members should be dominated by the
            // cacheable stages (execution, training, scoring), as real
            // binaries are, not by the fixed per-job structural floor.
            let mut s = ClassSpec::node(parent, 2 + i % 2, i);
            s.body_seed = seed_base + i as u64;
            if i >= 3 {
                s.overrides = 2;
            }
            s
        })
        .collect()
}

/// One member of the synthetic dedup corpus (`benches/corpus.rs` and the
/// corpus-dedup tests): 18 `lib` classes shared verbatim by *every*
/// member, 8 `app` classes shared by members with the same template
/// (`index % templates`), and one salt class unique to the member. The
/// lib-heavy split models a statically linked fleet, where the runtime
/// and in-house libraries dwarf each binary's unique application code.
///
/// Odd members declare the salt class first, which shifts every shared
/// function to different addresses — cross-binary reuse of tracelets,
/// SLMs, and distances then only works with position-independent
/// (content-derived) cache keys, never with address keys.
///
/// `templates` controls overlap: members `i` and `j` share their app
/// family iff `i % templates == j % templates`, so a corpus of `n`
/// members carries `templates` distinct app families. `templates = 0`
/// is treated as 1 (all members share one app family).
pub fn corpus_member(index: usize, templates: usize) -> Benchmark {
    let templates = templates.max(1);
    let mut p = ProgramBuilder::new();
    let mut salt = ClassSpec::node(None, 2, 0);
    salt.body_seed = 9000 + index as u64;
    let salt_specs = vec![salt];
    let salt_first = index % 2 == 1;
    if salt_first {
        emit_classes(&mut p, "salt", &salt_specs);
    }
    emit_classes(&mut p, "lib", &corpus_family_specs(1000, 18));
    let template = (index % templates) as u64;
    emit_classes(&mut p, "app", &corpus_family_specs(2000 + template * 100, 8));
    if !salt_first {
        emit_classes(&mut p, "salt", &salt_specs);
    }
    Benchmark {
        name: "corpus",
        structurally_resolvable: false,
        paper: paper(0.0, 27, (0.0, 0.0), (0.0, 0.0)),
        program: p.finish(),
        options: optimized_options(),
    }
}

/// Convenience: benchmark names and whether the paper lists them above
/// the line.
pub fn paper_rows() -> BTreeMap<&'static str, bool> {
    all_benchmarks().iter().map(|b| (b.name, b.structurally_resolvable)).collect()
}

// --- the incremental-delta workload -------------------------------------

/// One class in a [`DeltaFamily`]: a declarative spec whose fields map
/// one-to-one onto source constructs, so a tiny mutation of the spec is
/// a tiny, *known* source edit with a predictable artifact dirty set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaClass {
    /// Parent class index within the family (must be `<` own index).
    pub parent: Option<usize>,
    /// One virtual method per seed. A method's **name and body both
    /// derive from its seed**, so reordering this list reorders the
    /// vtable slot layout without changing any method's code — the
    /// "reorder vtable slots" edit is a pure layout change.
    pub methods: Vec<u64>,
    /// Index (mod `methods.len()`) of the slot this class's driver
    /// interleaves between calls. Bumping it retargets driver calls
    /// without touching a single method body ("flip a call target").
    pub anchor: usize,
}

/// One independent class family of the delta workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaFamily {
    /// Seed every method seed in the family derives from. Families with
    /// equal tags and shapes are content-equal across programs.
    pub tag: u64,
    /// The classes, parents before children.
    pub classes: Vec<DeltaClass>,
}

/// The incremental-delta workload spec (`tests/incremental_delta.rs`,
/// `benches/incremental.rs`): several independent class families plus a
/// per-image salt class. Mutate the spec with [`apply_delta`], re-emit
/// with [`delta_program`], and the two programs differ by exactly the
/// edit — everything else is content-identical, so a content-addressed
/// incremental store should reuse it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaSpec {
    /// The families ("libraries") of the image.
    pub families: Vec<DeltaFamily>,
    /// Seed of the image-unique salt class.
    pub salt_seed: u64,
    /// Declare the salt class first instead of last. Flipping this
    /// shifts every family function to a different address while
    /// leaving all of their bytes alone — the position-shift probe for
    /// address-keyed (rather than content-keyed) artifact stores.
    pub salt_first: bool,
}

/// One source-level edit of a [`DeltaSpec`]. Indices are taken modulo
/// the live range, so any variant applies to any spec — seeded fuzzers
/// can draw edits blindly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaEdit {
    /// Rewrite one method body (the canonical 1-function edit).
    EditBody {
        /// Family index (mod family count).
        family: usize,
        /// Class index within the family (mod class count).
        class: usize,
        /// Method index within the class (mod method count).
        method: usize,
    },
    /// Append a brand-new virtual method to one class.
    AddMethod {
        /// Family index (mod family count).
        family: usize,
        /// Class index within the family (mod class count).
        class: usize,
    },
    /// Drop the last method of one class (kept if it is the only one).
    RemoveMethod {
        /// Family index (mod family count).
        family: usize,
        /// Class index within the family (mod class count).
        class: usize,
    },
    /// Swap the first two declared methods of one class: identical
    /// method set and bodies, different vtable slot order.
    ReorderSlots {
        /// Family index (mod family count).
        family: usize,
        /// Class index within the family (mod class count).
        class: usize,
    },
    /// Graft a fresh leaf class onto one family.
    AddClass {
        /// Family index (mod family count).
        family: usize,
    },
    /// Retarget one driver's interleaved call to the next slot.
    FlipCallTarget {
        /// Family index (mod family count).
        family: usize,
        /// Class index within the family (mod class count).
        class: usize,
    },
    /// Re-seed one whole family (the 1-family edit: every method body
    /// in it changes, every other family is untouched).
    ReseedFamily {
        /// Family index (mod family count).
        family: usize,
    },
    /// Re-seed the image's salt class (the salt-class edit: no family
    /// function changes at all).
    ReseedSalt,
}

/// Cheap, deterministic 64-bit seed mixer: the SplitMix64 finalizer of
/// `a ^ b·G`. [`rock_trace::splitmix64`] adds `G` before it finalizes,
/// so the argument subtracts it first.
fn mix(a: u64, b: u64) -> u64 {
    const G: u64 = 0x9E37_79B9_7F4A_7C15;
    rock_trace::splitmix64((a ^ b.wrapping_mul(G)).wrapping_sub(G))
}

/// Builds the base delta workload: `families` binary trees of
/// `classes_per_family` classes, two methods per class, all content
/// derived from `seed`. Trees are shallow so a leaf-class edit dirties
/// only the leaf's own driver, keeping the reachable dirty set of a
/// 1-function edit small relative to the image.
pub fn delta_spec(families: usize, classes_per_family: usize, seed: u64) -> DeltaSpec {
    let families = (0..families)
        .map(|f| {
            let tag = mix(seed, 0x00FA_0000 + f as u64);
            let classes = (0..classes_per_family)
                .map(|c| DeltaClass {
                    parent: if c == 0 { None } else { Some((c - 1) / 2) },
                    methods: (0..2).map(|m| mix(tag, (c * 16 + m) as u64)).collect(),
                    anchor: 0,
                })
                .collect();
            DeltaFamily { tag, classes }
        })
        .collect();
    DeltaSpec { families, salt_seed: mix(seed, 0x5A17), salt_first: false }
}

/// Applies one [`DeltaEdit`] in place. Always changes the emitted
/// program except for no-op corners (`RemoveMethod` on a single-method
/// class, `FlipCallTarget` on a single-method class), which callers
/// can detect by comparing specs.
pub fn apply_delta(spec: &mut DeltaSpec, edit: DeltaEdit) {
    let nfam = spec.families.len();
    match edit {
        DeltaEdit::EditBody { family, class, method } => {
            let fam = &mut spec.families[family % nfam];
            let nc = fam.classes.len();
            let cl = &mut fam.classes[class % nc];
            let nm = cl.methods.len();
            let m = &mut cl.methods[method % nm];
            *m = mix(*m, 0xED17_B0D1);
        }
        DeltaEdit::AddMethod { family, class } => {
            let fam = &mut spec.families[family % nfam];
            let nc = fam.classes.len();
            let cl = &mut fam.classes[class % nc];
            let fresh = mix(fam.tag, 0xADD0 + cl.methods.len() as u64 * 131);
            cl.methods.push(fresh);
        }
        DeltaEdit::RemoveMethod { family, class } => {
            let fam = &mut spec.families[family % nfam];
            let nc = fam.classes.len();
            let cl = &mut fam.classes[class % nc];
            if cl.methods.len() > 1 {
                cl.methods.pop();
            }
        }
        DeltaEdit::ReorderSlots { family, class } => {
            let fam = &mut spec.families[family % nfam];
            let nc = fam.classes.len();
            let cl = &mut fam.classes[class % nc];
            if cl.methods.len() > 1 {
                cl.methods.swap(0, 1);
            } else {
                // Single-method class: fall back to a body edit so the
                // mutation is never silently void.
                cl.methods[0] = mix(cl.methods[0], 0x5107_50A9);
            }
        }
        DeltaEdit::AddClass { family } => {
            let fam = &mut spec.families[family % nfam];
            let idx = fam.classes.len();
            fam.classes.push(DeltaClass {
                parent: Some((idx - 1) / 2),
                methods: vec![mix(fam.tag, 0xC1A5_5000 + idx as u64)],
                anchor: 0,
            });
        }
        DeltaEdit::FlipCallTarget { family, class } => {
            let fam = &mut spec.families[family % nfam];
            let nc = fam.classes.len();
            let cl = &mut fam.classes[class % nc];
            cl.anchor += 1;
        }
        DeltaEdit::ReseedFamily { family } => {
            let fam = &mut spec.families[family % nfam];
            fam.tag = mix(fam.tag, 0xFA_0511);
            let tag = fam.tag;
            for (c, cl) in fam.classes.iter_mut().enumerate() {
                for (m, seed) in cl.methods.iter_mut().enumerate() {
                    *seed = mix(tag, (c * 16 + m) as u64);
                }
            }
        }
        DeltaEdit::ReseedSalt => {
            spec.salt_seed = mix(spec.salt_seed, 0x5A17_ED17);
        }
    }
}

/// Emits one delta family into the builder. Class names derive from the
/// stable `name`, method names and bodies from the seeds alone, so
/// unchanged seeds produce byte-identical functions no matter what edit
/// happened elsewhere in the program.
fn emit_delta_family(p: &mut ProgramBuilder, name: &str, fam: &DeltaFamily) {
    // (method name, introducing field) per slot, inherited + own.
    let mut slots: Vec<Vec<(String, String)>> = Vec::with_capacity(fam.classes.len());
    for (ci, class) in fam.classes.iter().enumerate() {
        let class_name = format!("{name}_C{ci}");
        let field = format!("f{ci}");
        let mut my_slots = match class.parent {
            None => Vec::new(),
            Some(pi) => slots[pi].clone(),
        };
        let mut cb = p.class(&class_name);
        if let Some(pi) = class.parent {
            cb.base(format!("{name}_C{pi}"));
        }
        cb.field(&field);
        for &seed in &class.methods {
            let mname = format!("{name}_c{ci}_s{seed:016x}");
            let f = field.clone();
            cb.method(mname.clone(), move |b| {
                b.write("this", &f, Expr::Const(seed.wrapping_mul(31).wrapping_add(7)));
                b.read("v", "this", &f);
                b.ret();
            });
            my_slots.push((mname, field.clone()));
        }
        slots.push(my_slots);
    }

    // Drivers: every class is concrete; each driver replays its ancestor
    // chain's methods root-first, interleaving the class's anchor slot.
    for (ci, class) in fam.classes.iter().enumerate() {
        let class_name = format!("{name}_C{ci}");
        let mut chain = vec![ci];
        let mut cur = class.parent;
        while let Some(pi) = cur {
            chain.push(pi);
            cur = fam.classes[pi].parent;
        }
        chain.reverse();
        let segments: Vec<Vec<String>> = chain
            .iter()
            .map(|&a| {
                fam.classes[a].methods.iter().map(|&s| format!("{name}_c{a}_s{s:016x}")).collect()
            })
            .collect();
        let own = &class.methods;
        let anchor_seed = own[class.anchor % own.len()];
        let anchor = format!("{name}_c{ci}_s{anchor_seed:016x}");
        let delete_it = ci % 2 == 0;
        // Heavy on purpose, and heavy in the *cacheable* direction: each
        // replayed slot sits inside a branch diamond whose two arms make
        // the same calls. The symbolic executor forks on every branch
        // regardless of the condition, so cold analysis explores up to
        // `max_paths` near-identical paths per driver — while the
        // function body (hence its WL content label) stays small and the
        // tracelet multiset stays compact (identical arms add
        // multiplicity, not vocabulary). That mirrors real binaries,
        // where per-function analysis dwarfs the fixed per-run floor
        // (loading, labeling, preload i/o); a featherweight straight-line
        // driver would make that floor look artificially large and
        // understate the incremental win.
        let reps = 2 + ci % 3;
        let field = format!("f{ci}");
        p.func(format!("drive_{class_name}"), move |f| {
            f.new_obj("o", &class_name);
            f.read("c", "o", &field);
            for pass in 0..2 {
                for seg in &segments {
                    for s in seg {
                        let arm = |b: &mut BodyBuilder| {
                            for _ in 0..reps {
                                b.vcall("o", s.clone(), vec![]);
                                if pass == 0 {
                                    b.vcall("o", anchor.clone(), vec![]);
                                }
                            }
                        };
                        f.if_else(Expr::Var("c".into()), arm, arm);
                    }
                    f.vcall("o", anchor.clone(), vec![]);
                }
            }
            if delete_it {
                f.delete("o");
            }
            f.ret();
        });
    }
}

/// Emits a [`DeltaSpec`] into a compilable [`Benchmark`]. Family names
/// are positional (`d0`, `d1`, ...) so edits never rename a family; the
/// salt class is `salt_C0`, declared first when `salt_first` is set.
pub fn delta_program(spec: &DeltaSpec) -> Benchmark {
    let mut p = ProgramBuilder::new();
    let salt = DeltaFamily {
        tag: spec.salt_seed,
        classes: vec![DeltaClass {
            parent: None,
            methods: vec![mix(spec.salt_seed, 1), mix(spec.salt_seed, 2)],
            anchor: 0,
        }],
    };
    if spec.salt_first {
        emit_delta_family(&mut p, "salt", &salt);
    }
    for (fi, fam) in spec.families.iter().enumerate() {
        emit_delta_family(&mut p, &format!("d{fi}"), fam);
    }
    if !spec.salt_first {
        emit_delta_family(&mut p, "salt", &salt);
    }
    let types = spec.families.iter().map(|f| f.classes.len()).sum::<usize>() + 1;
    Benchmark {
        name: "delta",
        structurally_resolvable: false,
        paper: paper(0.0, types, (0.0, 0.0), (0.0, 0.0)),
        program: p.finish(),
        options: optimized_options(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nineteen_benchmarks_with_paper_type_counts() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 19);
        assert_eq!(all.iter().filter(|b| b.structurally_resolvable).count(), 10);
        for b in &all {
            let concrete = b
                .program
                .classes
                .iter()
                .filter(|c| !(b.options.eliminate_abstract && c.is_abstract()))
                .count();
            assert_eq!(
                concrete, b.paper.types,
                "{}: expected {} emitted types",
                b.name, b.paper.types
            );
        }
    }

    #[test]
    fn all_benchmarks_compile() {
        for b in all_benchmarks() {
            let compiled = b.compile().unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert_eq!(
                compiled.ground_truth().len(),
                b.paper.types,
                "{}: ground truth size",
                b.name
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(benchmark("tinyxml").is_some());
        assert!(benchmark("echoparams").is_some());
        assert!(benchmark("not-a-benchmark").is_none());
    }

    #[test]
    fn examples_compile() {
        assert!(streams_example().compile().is_ok());
        let ds = datasource_example();
        let c = ds.compile().unwrap();
        assert_eq!(c.ground_truth().len(), 7);
    }

    #[test]
    fn stress_scales() {
        let b = stress_program(2, 3, 2);
        assert_eq!(b.paper.types, 2 * (1 + 2 + 4));
        assert!(b.compile().is_ok());
    }

    #[test]
    fn corpus_members_share_content_at_shifted_addresses() {
        // Members 0 and 8 share the app template (8 % 8 == 0): identical
        // programs except for the salt class; member 1 shares nothing
        // with member 0 beyond the lib family and declares its salt
        // first, shifting every shared function.
        let m0 = corpus_member(0, 8).compile().unwrap();
        let m1 = corpus_member(1, 8).compile().unwrap();
        let m8 = corpus_member(8, 8).compile().unwrap();
        assert_eq!(m0.ground_truth().len(), 27);
        // Shared lib root method body exists in both, at *different*
        // addresses when the salt leads (member 1 vs member 0).
        let addr_of = |c: &rock_minicpp::Compiled, sym: &str| {
            c.image().symbols().by_name(sym).map(|s| s.addr).unwrap()
        };
        let sym = "lib_C0::lib_c0_m0";
        assert_ne!(addr_of(&m0, sym), addr_of(&m1, sym), "salt-first must shift {sym}");
        assert_eq!(addr_of(&m0, sym), addr_of(&m8, sym), "same layout, same address");
        // Distinct templates produce distinct app families.
        assert_eq!(corpus_member(0, 1).compile().unwrap().ground_truth().len(), 27);
    }

    #[test]
    fn delta_spec_compiles_and_every_edit_still_compiles() {
        let base = delta_spec(3, 5, 42);
        let b = delta_program(&base);
        assert_eq!(b.paper.types, 3 * 5 + 1);
        assert_eq!(b.compile().unwrap().ground_truth().len(), 16);
        let edits = [
            DeltaEdit::EditBody { family: 0, class: 4, method: 1 },
            DeltaEdit::AddMethod { family: 1, class: 2 },
            DeltaEdit::RemoveMethod { family: 1, class: 3 },
            DeltaEdit::ReorderSlots { family: 2, class: 0 },
            DeltaEdit::AddClass { family: 0 },
            DeltaEdit::FlipCallTarget { family: 2, class: 1 },
            DeltaEdit::ReseedFamily { family: 1 },
            DeltaEdit::ReseedSalt,
        ];
        for edit in edits {
            let mut mutated = base.clone();
            apply_delta(&mut mutated, edit);
            assert_ne!(mutated, base, "{edit:?} must change the spec");
            delta_program(&mutated).compile().unwrap_or_else(|e| panic!("{edit:?}: {e}"));
        }
    }

    #[test]
    fn delta_reorder_swaps_slots_without_touching_bodies() {
        let mut spec = delta_spec(2, 4, 7);
        let before = spec.families[1].classes[0].methods.clone();
        apply_delta(&mut spec, DeltaEdit::ReorderSlots { family: 1, class: 0 });
        let after = &spec.families[1].classes[0].methods;
        assert_eq!(after[0], before[1]);
        assert_eq!(after[1], before[0]);
        // Same method set (names and bodies travel with the seeds).
        let mut a = before.clone();
        let mut b = after.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn delta_salt_first_shifts_family_functions_without_changing_them() {
        let mut spec = delta_spec(2, 4, 11);
        let last = delta_program(&spec).compile().unwrap();
        spec.salt_first = true;
        let first = delta_program(&spec).compile().unwrap();
        let seed = spec.families[0].classes[0].methods[0];
        let sym = format!("d0_C0::d0_c0_s{seed:016x}");
        let addr_of = |c: &rock_minicpp::Compiled, sym: &str| {
            c.image().symbols().by_name(sym).map(|s| s.addr).unwrap()
        };
        assert_ne!(addr_of(&last, &sym), addr_of(&first, &sym), "salt-first must shift {sym}");
    }

    /// The delta generator's images, byte for byte: `serve_patch`'s base
    /// (`delta_spec(12, 10, 1205)`), a one-method patch of it and a
    /// re-seeded salt class, each as FNV-1a of its stripped `.rkb`
    /// bytes. A change to the seed mixer or to the emitter moves them.
    #[test]
    fn delta_images_match_the_pins() {
        let base = delta_spec(12, 10, 1205);
        let digest = |spec: &DeltaSpec| {
            let image = delta_program(spec).compile().unwrap().stripped_image();
            rock_trace::fnv1a(&rock_binary::image_to_bytes(&image))
        };
        let mut body = base.clone();
        apply_delta(&mut body, DeltaEdit::EditBody { family: 3, class: 7, method: 1 });
        let mut salt = base.clone();
        apply_delta(&mut salt, DeltaEdit::ReseedSalt);
        let got = [digest(&base), digest(&body), digest(&salt)];
        let want = [0xf099_b0b5_c292_c49f, 0x3e8b_595e_1c77_7534, 0x6e2f_1e4d_1554_0912];
        assert_eq!(got, want, "got {got:#018x?}");
    }
}

//! Execution keys without canonical calls cannot alias two functions.
//!
//! Without canonical calls, direct-call events keep raw callee
//! addresses, yet an attached corpus still answers whole symbolic
//! executions from its tracelet tier. Its keys must therefore name one
//! function of one image: the tier's salt hashes the image bytes, and
//! each key binds the function's content label to its entry address.
//! The image below is built so that content labels alone would alias:
//! `A::m0` and `B::m0` have equal bodies at different addresses, and
//! call two distinct helpers whose labels are equal too — so their raw
//! events differ only in the callee address. Three runs must agree bit
//! for bit (tracelet pools, hierarchy, distance bits, diagnostics,
//! coverage, the metrics document): cold with no corpus, cold with a
//! corpus attached, and a warm rerun through that corpus.

use std::sync::Arc;

use rock::analysis::ContentLabels;
use rock::core::{suite, CorpusCache, Parallelism, Reconstruction, Rock, RockConfig};
use rock::loader::LoadedBinary;
use rock::minicpp::{compile, CompileOptions, Expr, ProgramBuilder};
use rock::trace::names;

const PARS: [Parallelism; 2] = [Parallelism::Serial, Parallelism::Threads(8)];

fn assert_identical(a: &Reconstruction, b: &Reconstruction, what: &str) {
    assert_eq!(a.analysis, b.analysis, "{what}: tracelet pools diverged");
    assert_eq!(a.hierarchy, b.hierarchy, "{what}: hierarchy diverged");
    assert_eq!(a.distances.len(), b.distances.len(), "{what}: distance count diverged");
    for (key, d) in &a.distances {
        let other = b.distances.get(key).unwrap_or_else(|| panic!("{what}: missing edge {key:?}"));
        assert_eq!(d.to_bits(), other.to_bits(), "{what}: distance bits for {key:?}");
    }
    assert_eq!(a.diagnostics, b.diagnostics, "{what}: diagnostics diverged");
    assert_eq!(a.coverage, b.coverage, "{what}: coverage diverged");
    assert_eq!(a.metrics.to_json(), b.metrics.to_json(), "{what}: metrics document diverged");
}

/// Cold without a corpus, cold through a fresh corpus, then warm
/// through the same corpus: all three identical. Returns the warm run's
/// tracelet-tier hits.
fn three_way(loaded: &LoadedBinary, par: Parallelism, what: &str) -> u64 {
    let config = RockConfig::paper().with_parallelism(par);
    assert!(!config.canonical_calls);
    let cold = Rock::new(config).reconstruct(loaded);
    let corpus = Arc::new(CorpusCache::new());
    let attached = Rock::new(config).with_corpus_cache(Arc::clone(&corpus)).reconstruct(loaded);
    assert_identical(&cold, &attached, &format!("{what} {par:?}: corpus attached"));
    let before = corpus.stats();
    let warm = Rock::new(config).with_corpus_cache(Arc::clone(&corpus)).reconstruct(loaded);
    assert_identical(&cold, &warm, &format!("{what} {par:?}: warm rerun"));
    let delta = corpus.stats().since(&before);
    assert_eq!(delta.counter(names::CORPUS_TRACELET_MISS), 0, "{what} {par:?}: warm misses");
    delta.counter(names::CORPUS_TRACELET_HIT)
}

#[test]
fn equal_labels_calling_distinct_equal_callees_never_share_an_entry() {
    let mut p = ProgramBuilder::new();
    p.class("A").field("x").method("m0", |b| {
        b.call_obj("helper_a", "this");
        b.ret();
    });
    // B derives from A, so the distance stage scores B against A; its
    // second slot keeps the two vtables' labels apart.
    p.class("B")
        .base("A")
        .method("m0", |b| {
            b.call_obj("helper_b", "this");
            b.ret();
        })
        .method("m1", |b| {
            b.ret();
        });
    for helper in ["helper_a", "helper_b"] {
        p.func(helper, |f| {
            f.param_obj("o", "A");
            f.read("v", "o", "x");
            f.ret();
        });
    }
    p.func("drive", |f| {
        f.new_obj("a", "A");
        f.new_obj("b", "B");
        f.vcall("a", "m0", vec![]);
        f.vcall("b", "m0", vec![]);
        f.vcall("b", "m1", vec![]);
        f.let_("k", Expr::Const(1));
        f.ret();
    });
    let options = CompileOptions::default();
    assert!(!options.comdat_fold, "the equal helpers must stay two functions");
    let compiled = compile(&p.finish(), &options).expect("compiles");
    let entry = |name: &str| {
        compiled.image().symbols().by_name(name).unwrap_or_else(|| panic!("no {name}")).addr
    };
    let loaded = LoadedBinary::load(compiled.stripped_image()).expect("loads");

    // The shape the test needs: equal labels at different addresses,
    // calling distinct callees whose labels are equal as well.
    let labels = ContentLabels::compute(&loaded);
    let label = |name: &str| labels.function_label(entry(name)).expect("labeled");
    assert_ne!(entry("A::m0"), entry("B::m0"));
    assert_eq!(label("A::m0"), label("B::m0"), "A::m0 and B::m0 must share a content label");
    assert_ne!(entry("helper_a"), entry("helper_b"));
    assert_eq!(label("helper_a"), label("helper_b"), "the helpers must share a content label");

    for par in PARS {
        let hits = three_way(&loaded, par, "aliasing image");
        assert!(hits > 0, "the warm rerun must be answered by the tracelet tier");
    }
}

#[test]
fn suite_programs_agree_cold_attached_and_warm() {
    for bench in suite::all_benchmarks() {
        let compiled = bench.compile().expect("suite program compiles");
        let loaded = LoadedBinary::load(compiled.stripped_image()).expect("loads");
        for par in PARS {
            three_way(&loaded, par, bench.name);
        }
    }
}

//! Multiple-inheritance integration tests (paper §5.3).
//!
//! Under the MSVC-style ABI the substrate models, a type with X parents
//! stores X vtable pointers during construction; the structural analysis
//! exposes those counts, and secondary vtables are treated as synthetic
//! types that the evaluation projects away (§4.1).

use rock::analysis::{ctor_pins, recognize_ctors, AnalysisConfig};
use rock::core::{evaluate, Rock, RockConfig};
use rock::loader::LoadedBinary;
use rock::minicpp::{compile, CompileOptions, ProgramBuilder};
use rock::structural::analyze;

fn diamond_free_mi() -> ProgramBuilder {
    let mut p = ProgramBuilder::new();
    p.class("Readable").field("rbuf").method("read", |b| {
        b.read("v", "this", "rbuf");
        b.ret();
    });
    p.class("Writable").field("wbuf").method("write_it", |b| {
        b.write("this", "wbuf", rock::minicpp::Expr::Const(3));
        b.ret();
    });
    p.class("Duplex").base("Readable").base("Writable").method("flush_both", |b| {
        b.vcall("this", "read", vec![]);
        b.vcall("this", "write_it", vec![]);
        b.ret();
    });
    p.func("drive_r", |f| {
        f.new_obj("r", "Readable");
        f.vcall("r", "read", vec![]);
        f.vcall("r", "read", vec![]);
        f.ret();
    });
    p.func("drive_w", |f| {
        f.new_obj("w", "Writable");
        f.vcall("w", "write_it", vec![]);
        f.ret();
    });
    p.func("drive_d", |f| {
        f.new_obj("d", "Duplex");
        f.vcall("d", "read", vec![]);
        f.vcall("d", "write_it", vec![]);
        f.vcall("d", "flush_both", vec![]);
        f.ret();
    });
    p
}

#[test]
fn mi_object_layout_in_binary() {
    let compiled = compile(&diamond_free_mi().finish(), &CompileOptions::default()).unwrap();
    // Primary + secondary vtable are both emitted and discoverable.
    let loaded = LoadedBinary::load(compiled.stripped_image()).unwrap();
    let duplex_primary = compiled.vtable_of("Duplex").unwrap();
    assert!(loaded.vtable_at(duplex_primary).is_some());
    // One more vtable than classes: the secondary "Duplex in Writable".
    assert_eq!(loaded.vtables().len(), 4);
}

#[test]
fn mi_ctor_stores_two_vptrs() {
    let compiled = compile(&diamond_free_mi().finish(), &CompileOptions::default()).unwrap();
    let loaded = LoadedBinary::load(compiled.stripped_image()).unwrap();
    let config = AnalysisConfig::default();
    let ctors = recognize_ctors(&loaded, &config);
    let duplex_vt = compiled.vtable_of("Duplex").unwrap();
    // Find Duplex's ctor: the ctor-like function whose primary vtable is
    // Duplex's.
    let duplex_ctor = ctors
        .functions()
        .find(|f| ctors.primary_vtable_of(*f) == Some(duplex_vt))
        .expect("Duplex ctor recognized");
    let stores = ctors.stores_of(duplex_ctor).unwrap();
    assert_eq!(stores.len(), 2, "X parents => X vtable stores (§5.3): {stores:?}");
    assert_eq!(stores[0].0, 0, "primary store at offset 0");
    assert!(stores[1].0 > 0, "secondary store at the subobject offset");

    // The structural analysis surfaces the same counts.
    let s = analyze(&loaded, &ctors, &ctor_pins(&loaded, &ctors, &config));
    assert_eq!(s.vptr_store_counts().get(&duplex_vt), Some(&2));
    let readable_vt = compiled.vtable_of("Readable").unwrap();
    assert_eq!(s.vptr_store_counts().get(&readable_vt), Some(&1));
}

#[test]
fn mi_ctor_pins_primary_parent() {
    let compiled = compile(&diamond_free_mi().finish(), &CompileOptions::default()).unwrap();
    let loaded = LoadedBinary::load(compiled.stripped_image()).unwrap();
    let config = AnalysisConfig::default();
    let ctors = recognize_ctors(&loaded, &config);
    let s = analyze(&loaded, &ctors, &ctor_pins(&loaded, &ctors, &config));
    let duplex = compiled.vtable_of("Duplex").unwrap();
    let readable = compiled.vtable_of("Readable").unwrap();
    assert_eq!(s.pinned().get(&duplex), Some(&readable));
}

#[test]
fn mi_evaluation_projects_synthetic_types_away() {
    let compiled = compile(&diamond_free_mi().finish(), &CompileOptions::default()).unwrap();
    let loaded = LoadedBinary::load(compiled.stripped_image()).unwrap();
    let recon = Rock::new(RockConfig::paper()).reconstruct(&loaded);
    let eval = evaluate(&compiled, &recon);
    // Ground truth has the 3 source classes; the secondary vtable is
    // synthetic and must not pollute the measurement.
    assert_eq!(eval.num_types, 3);
    assert_eq!(eval.with_slm.avg_missing, 0.0, "{:?}", eval.with_slm.per_type);
    // The primary-parent edge Duplex<-Readable is reconstructed.
    let duplex = compiled.vtable_of("Duplex").unwrap();
    let readable = compiled.vtable_of("Readable").unwrap();
    assert_eq!(recon.parent_of(duplex), Some(readable));
}

#[test]
fn mi_ground_truth_records_extra_parent() {
    let compiled = compile(&diamond_free_mi().finish(), &CompileOptions::default()).unwrap();
    let gt = compiled.ground_truth();
    assert_eq!(gt.parent_of("Duplex"), Some("Readable"));
    assert_eq!(gt.parents_of("Duplex"), vec!["Readable", "Writable"]);
    // Successor queries follow the primary relation.
    assert!(gt.successors("Readable").contains("Duplex"));
}

#[test]
fn three_way_mi() {
    let mut p = ProgramBuilder::new();
    for name in ["A", "B", "C"] {
        p.class(name).method(format!("{}_m", name.to_lowercase()), |b| {
            b.ret();
        });
    }
    p.class("Omni").base("A").base("B").base("C").method("omni", |b| {
        b.ret();
    });
    p.func("drive", |f| {
        f.new_obj("o", "Omni");
        f.vcall("o", "a_m", vec![]);
        f.vcall("o", "b_m", vec![]);
        f.vcall("o", "c_m", vec![]);
        f.vcall("o", "omni", vec![]);
        f.ret();
    });
    let compiled = compile(&p.finish(), &CompileOptions::default()).unwrap();
    let loaded = LoadedBinary::load(compiled.stripped_image()).unwrap();
    let config = AnalysisConfig::default();
    let ctors = recognize_ctors(&loaded, &config);
    let s = analyze(&loaded, &ctors, &ctor_pins(&loaded, &ctors, &config));
    let omni = compiled.vtable_of("Omni").unwrap();
    assert_eq!(s.vptr_store_counts().get(&omni), Some(&3), "three stores, three parents");
    assert_eq!(compiled.ground_truth().parents_of("Omni"), vec!["A", "B", "C"]);
}

#[test]
fn mi_parents_returns_one_parent_per_vptr_store() {
    // §5.3: the Duplex ctor stores two vtable pointers, so the pipeline
    // assigns it two parents — the structurally pinned primary plus the
    // next most likely candidate.
    let compiled = compile(&diamond_free_mi().finish(), &CompileOptions::default()).unwrap();
    let loaded = LoadedBinary::load(compiled.stripped_image()).unwrap();
    let recon = Rock::new(RockConfig::paper()).reconstruct(&loaded);
    let mi = recon.mi_parents();
    let duplex = compiled.vtable_of("Duplex").unwrap();
    let readable = compiled.vtable_of("Readable").unwrap();
    let duplex_parents = &mi[&duplex];
    assert_eq!(duplex_parents.first(), Some(&readable), "primary parent first");
    // Single-inheritance types get exactly one (or zero for roots).
    assert!(mi[&readable].len() <= 1);
    let writable = compiled.vtable_of("Writable").unwrap();
    assert!(mi[&writable].len() <= 1);
}

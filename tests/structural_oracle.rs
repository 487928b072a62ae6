//! The structural analysis equals its all-pairs definition of Phase I/II
//! on the generated programs: the families in the same order, every
//! type's candidate parents and every rule count.

#[path = "../crates/structural/src/oracle.rs"]
mod oracle;

use rock::analysis::{ctor_pins, recognize_ctors};
use rock::core::{suite, RockConfig};
use rock::loader::LoadedBinary;
use rock::structural::{analyze, purecall_candidates};

#[test]
fn structural_analysis_equals_the_all_pairs_definition() {
    let mut benches = suite::all_benchmarks();
    benches
        .extend([(2, 5, 3), (4, 4, 3), (3, 4, 4)].map(|(f, d, o)| suite::stress_program(f, d, o)));
    benches.extend((0..6).map(|i| suite::corpus_member(i, 40)));
    let config = RockConfig::paper().analysis;
    for (i, bench) in benches.iter().enumerate() {
        let what = format!("image {i} ({})", bench.name);
        let loaded = LoadedBinary::load(bench.compile().unwrap().stripped_image()).unwrap();
        let ctors = recognize_ctors(&loaded, &config);
        let s = analyze(&loaded, &ctors, &ctor_pins(&loaded, &ctors, &config));
        let r = oracle::reference(&loaded, &purecall_candidates(&loaded), s.pinned());
        assert_eq!(s.families(), r.families, "{what}");
        for (child, parents) in &r.possible {
            assert_eq!(s.possible_parents().of(*child), parents.as_slice(), "{what}: {child}");
        }
        let st = s.stats();
        let stats = [st.rule1_slot_count, st.rule2_pure_slot, st.rule3_pinning, st.remaining];
        assert_eq!(stats, r.stats, "{what}");
    }
}

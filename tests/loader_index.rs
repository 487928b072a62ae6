//! The loader's lookups agree with the linear scans they replace, on
//! every suite image and the three `stress_scale` programs:
//! `vtables_containing` answers from an index built at load, and
//! `function_containing` binary-searches the sorted functions.

use rock::binary::Addr;
use rock::core::suite;
use rock::loader::{Function, LoadedBinary};

fn images() -> Vec<(String, LoadedBinary)> {
    let mut benches = suite::all_benchmarks();
    for (families, depth, fanout) in [(2, 5, 3), (4, 4, 3), (3, 4, 4)] {
        benches.push(suite::stress_program(families, depth, fanout));
    }
    benches
        .iter()
        .map(|b| {
            let image = b.compile().expect("suite programs compile").stripped_image();
            (b.name.to_string(), LoadedBinary::load(image).expect("suite images load"))
        })
        .collect()
}

#[test]
fn hosting_vtables_equal_a_scan_of_every_slot() {
    for (name, loaded) in images() {
        let mut hosted = 0;
        for f in loaded.functions() {
            let scan: Vec<Addr> = loaded
                .vtables()
                .iter()
                .filter(|vt| vt.slots().contains(&f.entry()))
                .map(|vt| vt.addr())
                .collect();
            let index: Vec<Addr> =
                loaded.vtables_containing(f.entry()).map(|vt| vt.addr()).collect();
            assert_eq!(index, scan, "{name}: hosts of {}", f.entry());
            assert_eq!(loaded.vtables_containing(f.entry()).len(), scan.len());
            hosted += usize::from(!scan.is_empty());
        }
        assert!(hosted > 0, "{name}: some function sits in a vtable");
        assert_eq!(loaded.vtables_containing(Addr::new(u64::MAX)).len(), 0);
    }
}

#[test]
fn function_search_equals_a_scan() {
    for (name, loaded) in images() {
        let scan = |a: Addr| loaded.functions().iter().find(|f| f.contains(a)).map(Function::entry);
        let search = |a: Addr| loaded.function_containing(a).map(Function::entry);
        for f in loaded.functions() {
            for a in [f.entry(), f.end() - 1, f.end()] {
                assert_eq!(search(a), scan(a), "{name}: {a}");
            }
        }
        let first = loaded.functions()[0].entry();
        for a in [Addr::new(0), first - 1, Addr::new(u64::MAX)] {
            assert_eq!(search(a), None, "{name}: {a} is out of range");
            assert_eq!(scan(a), None);
        }
    }
}

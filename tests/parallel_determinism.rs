//! Determinism under parallelism: `Parallelism::Serial` and
//! `Parallelism::Threads(4)` must produce **bit-identical**
//! reconstructions. All parallel merges happen in input order over
//! BTreeMap-backed structures, and every edge weight is the same
//! float computation on the same operands — so not just the chosen
//! hierarchy but every distance bit pattern must agree.

use std::sync::Arc;

use rock::core::{suite, FaultPlan, Parallelism, Rock, RockConfig};
use rock::loader::LoadedBinary;
use rock::trace::names;

fn reconstruct_with(
    loaded: &LoadedBinary,
    config: RockConfig,
    parallelism: Parallelism,
) -> rock::core::Reconstruction {
    Rock::new(config.with_parallelism(parallelism)).reconstruct(loaded)
}

#[test]
fn stress_program_serial_vs_threads_bit_identical() {
    // 3 families × (1 + 3 + 9) = 39 types — the §6.1 soak shape.
    let bench = suite::stress_program(3, 3, 3);
    let compiled = bench.compile().expect("compiles");
    let loaded = LoadedBinary::load(compiled.stripped_image()).expect("loads");

    // Tie resolution ON (the default): tie-vote outcomes are part of the
    // hierarchy, so equality covers them too.
    let config = RockConfig::paper();
    let serial = reconstruct_with(&loaded, config, Parallelism::Serial);
    let parallel = reconstruct_with(&loaded, config, Parallelism::Threads(4));

    assert_eq!(serial.hierarchy, parallel.hierarchy, "hierarchies diverged");

    // Distances must agree down to the bit pattern, not just under
    // float ==.
    assert_eq!(serial.distances.len(), parallel.distances.len());
    for (key, d_serial) in &serial.distances {
        let d_parallel = parallel.distances.get(key).expect("edge missing in parallel run");
        assert_eq!(
            d_serial.to_bits(),
            d_parallel.to_bits(),
            "distance for {key:?} differs: {d_serial} vs {d_parallel}"
        );
    }

    // Per-type chosen parents (including every tie-vote outcome) agree.
    for vt in loaded.vtables() {
        assert_eq!(
            serial.parent_of(vt.addr()),
            parallel.parent_of(vt.addr()),
            "tie-vote outcome diverged for {}",
            vt.addr()
        );
    }

    // The parallel run really did use more workers.
    assert_eq!(serial.timings.threads, 1);
    assert_eq!(parallel.timings.threads, 4);
    // Same work either way: one cache miss per computed pair.
    for name in [names::DISTANCES_CACHE_MISS, names::DISTANCES_EDGES] {
        assert_eq!(serial.metrics.counter(name), parallel.metrics.counter(name), "{name}");
    }
}

#[test]
fn repartitioning_path_is_deterministic_too() {
    // Repartitioning adds the snapshot-scan + guarded-apply phase; its
    // proposals and applications must not depend on thread count either.
    let bench = suite::stress_program(2, 2, 2);
    let compiled = bench.compile().expect("compiles");
    let loaded = LoadedBinary::load(compiled.stripped_image()).expect("loads");

    let config = RockConfig::paper().with_repartitioning();
    let serial = reconstruct_with(&loaded, config, Parallelism::Serial);
    let parallel = reconstruct_with(&loaded, config, Parallelism::Threads(4));

    assert_eq!(serial.hierarchy, parallel.hierarchy);
    assert!(serial.hierarchy.is_acyclic());
    assert_eq!(serial.distances, parallel.distances);

    // Two suite programs where two roots are each other's cross-family
    // candidate, so repartitioning asks for some pairs twice. The whole
    // metrics document — the distance cache counters included — must not
    // depend on the thread count, in any run.
    for name in ["CGridListCtrlEx", "yafc"] {
        let compiled = suite::benchmark(name).expect("suite program").compile().expect("compiles");
        let loaded = LoadedBinary::load(compiled.stripped_image()).expect("loads");
        let serial = reconstruct_with(&loaded, config, Parallelism::Serial);
        let want = serial.metrics.to_json();
        for threads in [2, 8] {
            for run in 0..100 {
                let parallel = reconstruct_with(&loaded, config, Parallelism::Threads(threads));
                assert_eq!(serial.hierarchy, parallel.hierarchy, "{name}: hierarchies diverged");
                assert_eq!(
                    want,
                    parallel.metrics.to_json(),
                    "{name}: metrics at Threads({threads}) differ from Serial in run {run}"
                );
            }
        }
    }
}

#[test]
fn fault_injected_runs_are_bit_identical_across_thread_counts() {
    // Fault containment must not cost determinism: with a seeded plan
    // panicking/skipping/starving a subset of items, `Serial`,
    // `Threads(2)` and `Threads(8)` must still agree bit for bit —
    // hierarchies, every distance bit pattern, diagnostics, coverage.
    let bench = suite::stress_program(2, 2, 2);
    let compiled = bench.compile().expect("compiles");
    let loaded = LoadedBinary::load(compiled.stripped_image()).expect("loads");

    let plan = Arc::new(FaultPlan::seeded(42, 150));
    let runs: Vec<_> = [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(8)]
        .into_iter()
        .map(|par| {
            Rock::new(RockConfig::paper().with_parallelism(par))
                .with_fault_plan(Arc::clone(&plan))
                .reconstruct(&loaded)
        })
        .collect();

    assert!(!runs[0].diagnostics.is_empty(), "the plan must actually inject faults");
    for other in &runs[1..] {
        assert_eq!(runs[0].hierarchy, other.hierarchy, "faulted hierarchies diverged");
        assert_eq!(runs[0].distances.len(), other.distances.len());
        for (key, d) in &runs[0].distances {
            assert_eq!(
                d.to_bits(),
                other.distances[key].to_bits(),
                "faulted distance bits for {key:?} diverged"
            );
        }
        assert_eq!(
            runs[0].diagnostics, other.diagnostics,
            "diagnostics must be recorded in the same deterministic order"
        );
        assert_eq!(runs[0].coverage, other.coverage);
    }
}

#[test]
fn auto_parallelism_matches_serial() {
    let bench = suite::streams_example();
    let compiled = bench.compile().expect("compiles");
    let loaded = LoadedBinary::load(compiled.stripped_image()).expect("loads");

    let serial = reconstruct_with(&loaded, RockConfig::paper(), Parallelism::Serial);
    let auto = reconstruct_with(&loaded, RockConfig::paper(), Parallelism::Auto);
    assert_eq!(serial.hierarchy, auto.hierarchy);
    assert_eq!(serial.distances, auto.distances);
}

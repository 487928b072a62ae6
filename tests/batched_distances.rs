//! The distance stage scores a child's candidate parents as one batch
//! over its family's word table (`rock_slm::FamilyScorer`). The batch must
//! reproduce the per-pair kernel exactly: every entry of the stage's
//! distance map equals `Metric::KlDivergence.distance(parent, child)` on
//! the run's own models, to the bit — cold, at every thread count, with
//! part of the pairs answered by a warm corpus, and with some family
//! members left without a model by injected faults. The map also holds
//! no edge more or less than the structural candidates allow.

use std::collections::BTreeSet;
use std::sync::Arc;

use rock::binary::Addr;
use rock::core::suite::{self, Benchmark};
use rock::core::{CorpusCache, FaultPlan, Parallelism, Rock, RockConfig, Stage, Subject};
use rock::loader::LoadedBinary;
use rock::slm::Metric;
use rock::trace::names;

const THREADS: [Parallelism; 2] = [Parallelism::Serial, Parallelism::Threads(8)];

fn load(bench: Benchmark) -> LoadedBinary {
    let compiled = bench.compile().expect("compiles");
    LoadedBinary::load(compiled.stripped_image()).expect("loads")
}

fn images() -> Vec<(&'static str, LoadedBinary)> {
    vec![
        ("stress(4,4,3)", load(suite::stress_program(4, 4, 3))),
        ("Analyzer", load(suite::benchmark("Analyzer").expect("suite program"))),
        ("Smoothing", load(suite::benchmark("Smoothing").expect("suite program"))),
        ("corpus member 0", load(suite::corpus_member(0, 2))),
        ("corpus member 1", load(suite::corpus_member(1, 2))),
    ]
}

/// Runs every stage on `rock` (whose distance cache must be fresh), checks
/// each distance against the per-pair kernel on the run's models and the
/// map's key set against the structural candidates, and returns how many
/// types got a model.
fn check_against_per_pair(what: &str, rock: &Rock, loaded: &LoadedBinary) -> usize {
    let mut run = rock.begin(loaded);
    while !run.is_done() {
        run.advance().expect("no strict failure");
    }
    let models = run.models().expect("models");
    let distances = run.distances().expect("distances");
    assert!(!distances.is_empty(), "{what}: no distances");
    for (&(parent, child), d) in distances {
        let want = Metric::KlDivergence.distance(&models[&parent], &models[&child]);
        assert_eq!(d.to_bits(), want.to_bits(), "{what}: {parent} -> {child}: {d} vs {want}");
    }
    let modeled: BTreeSet<Addr> = models.keys().copied().collect();
    let edges: Vec<(Addr, Addr)> = distances.keys().copied().collect();
    let recon = run.finish();
    assert!(
        recon.hierarchy.nodes().any(|&c| recon.structural.possible_parents().of(c).len() >= 2),
        "{what}: no child has two candidates, so no batch ran"
    );
    // No edge lost or added: the keys are exactly the in-family candidate
    // pairs whose endpoints both have a model, save those of a child
    // whose scoring faulted, and there is one per counted edge.
    let faulted: BTreeSet<Addr> = recon
        .diagnostics
        .iter()
        .filter(|e| e.stage == Stage::Distances)
        .filter_map(|e| match e.subject {
            Subject::Vtable(child) => Some(child),
            _ => None,
        })
        .collect();
    let mut want = Vec::new();
    for family in recon.structural.families() {
        for &child in family.iter().filter(|c| modeled.contains(c) && !faulted.contains(c)) {
            for &parent in recon.structural.possible_parents().of(child) {
                if family.binary_search(&parent).is_ok() && modeled.contains(&parent) {
                    want.push((parent, child));
                }
            }
        }
    }
    want.sort_unstable();
    assert_eq!(edges, want, "{what}: the map's keys");
    assert_eq!(edges.len() as u64, recon.metrics.counter(names::DISTANCES_EDGES), "{what}: edges");
    modeled.len()
}

#[test]
fn cold_runs_match_the_per_pair_kernel() {
    for (name, loaded) in images() {
        for par in THREADS {
            let rock = Rock::new(RockConfig::paper().with_parallelism(par));
            check_against_per_pair(&format!("{name} {par:?}"), &rock, &loaded);
        }
    }
}

#[test]
fn a_partly_warm_corpus_matches_the_per_pair_kernel() {
    // Both members share the 18 lib classes; their app families differ.
    // Warmed by member 0, member 1's lib pairs come from the corpus tier
    // and its app pairs are computed.
    let warm = load(suite::corpus_member(0, 2));
    let cold = load(suite::corpus_member(1, 2));
    let config = RockConfig::paper().with_canonical_calls();
    for par in THREADS {
        let corpus = Arc::new(CorpusCache::new());
        Rock::new(config).with_corpus_cache(Arc::clone(&corpus)).reconstruct(&warm);
        let before = corpus.stats();
        let rock = Rock::new(config.with_parallelism(par)).with_corpus_cache(Arc::clone(&corpus));
        check_against_per_pair(&format!("warm corpus {par:?}"), &rock, &cold);
        let delta = corpus.stats().since(&before);
        assert!(
            delta.counter(names::CORPUS_DISTANCE_HIT) > 0,
            "some pairs must come from the corpus: {delta:?}"
        );
        assert!(
            delta.counter(names::CORPUS_DISTANCE_MISS) > 0,
            "some pairs must be computed: {delta:?}"
        );
    }
}

#[test]
fn faulted_runs_match_the_per_pair_kernel() {
    let plan = Arc::new(FaultPlan::seeded(42, 150));
    for (name, loaded) in images() {
        for par in THREADS {
            let rock = Rock::new(RockConfig::paper().with_parallelism(par))
                .with_fault_plan(Arc::clone(&plan));
            let modeled =
                check_against_per_pair(&format!("{name} {par:?} faulted"), &rock, &loaded);
            assert!(
                modeled < loaded.vtables().len(),
                "{name}: the plan must leave some types without a model"
            );
        }
    }
}

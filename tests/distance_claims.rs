//! The distance tier computes each key once per cache, however the
//! workers of a run interleave: an asker that finds a key being computed
//! waits for it and counts a hit. So a cold run's `corpus.distance_hit`
//! and `corpus.distance_miss` at four threads read what a serial run
//! reads.

use std::sync::Arc;

use rock::core::{suite, CorpusCache, Parallelism, Rock, RockConfig};
use rock::loader::LoadedBinary;
use rock::trace::names;

/// Distance hits and misses of one cold run on a fresh cache.
fn distance_counts(loaded: &LoadedBinary, parallelism: Parallelism) -> (u64, u64) {
    let cache = Arc::new(CorpusCache::new());
    let config = RockConfig::paper()
        .with_canonical_calls()
        .with_repartitioning()
        .with_parallelism(parallelism);
    Rock::new(config).with_corpus_cache(Arc::clone(&cache)).reconstruct(loaded);
    let stats = cache.stats();
    (stats.counter(names::CORPUS_DISTANCE_HIT), stats.counter(names::CORPUS_DISTANCE_MISS))
}

/// CGridListCtrlEx has types whose models share a content key, so two
/// children scored by different workers ask the same distance key.
#[test]
fn threaded_runs_count_the_serial_distance_hits_and_misses() {
    let bench = suite::benchmark("CGridListCtrlEx").expect("suite program");
    let compiled = bench.compile().expect("compiles");
    let loaded = LoadedBinary::load(compiled.stripped_image()).expect("loads");
    let serial = distance_counts(&loaded, Parallelism::Serial);
    assert!(serial.0 > 0, "the image must repeat a distance key: {serial:?}");
    for run in 0..20 {
        assert_eq!(distance_counts(&loaded, Parallelism::Threads(4)), serial, "run {run}");
    }
}

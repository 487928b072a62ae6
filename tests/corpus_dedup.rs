//! Corpus dedup: attaching a shared content-addressed [`CorpusCache`]
//! to a fleet of jobs must change wall clock only — never an output
//! bit. Every tier's key hashes the exact inputs of the computation it
//! memoizes, so a hit returns exactly what the job would have computed
//! itself; these tests pin that equivalence (hierarchies, distance bit
//! patterns, diagnostics, coverage, the full metrics document) cold vs
//! warm vs interleaved, at three thread counts, and across deliberate
//! cache corruption.

use std::sync::Arc;

use rock::core::{suite, CorpusCache, FaultPlan, Parallelism, Reconstruction, Rock, RockConfig};
use rock::loader::LoadedBinary;
use rock::trace::names;

/// Compiles `n` corpus members with `templates` distinct app families
/// (see `suite::corpus_member` — odd members shift all shared code to
/// different addresses).
fn corpus(n: usize, templates: usize) -> Vec<LoadedBinary> {
    (0..n)
        .map(|i| {
            let c = suite::corpus_member(i, templates).compile().expect("compiles");
            LoadedBinary::load(c.stripped_image()).expect("loads")
        })
        .collect()
}

fn config(par: Parallelism) -> RockConfig {
    RockConfig::paper().with_parallelism(par).with_canonical_calls()
}

fn reconstruct_cold(loaded: &LoadedBinary, par: Parallelism) -> Reconstruction {
    Rock::new(config(par)).reconstruct(loaded)
}

fn reconstruct_warm(
    loaded: &LoadedBinary,
    par: Parallelism,
    shared: &Arc<CorpusCache>,
) -> Reconstruction {
    Rock::new(config(par)).with_corpus_cache(Arc::clone(shared)).reconstruct(loaded)
}

/// Bit-level equality over everything a job reports.
fn assert_identical(cold: &Reconstruction, warm: &Reconstruction, ctx: &str) {
    assert_eq!(cold.hierarchy, warm.hierarchy, "{ctx}: hierarchies diverged");
    assert_eq!(cold.distances.len(), warm.distances.len(), "{ctx}: distance sets differ");
    for (key, d) in &cold.distances {
        assert_eq!(
            d.to_bits(),
            warm.distances[key].to_bits(),
            "{ctx}: distance bits for {key:?} diverged"
        );
    }
    assert_eq!(cold.diagnostics, warm.diagnostics, "{ctx}: diagnostics diverged");
    assert_eq!(cold.coverage, warm.coverage, "{ctx}: coverage diverged");
    assert_eq!(
        cold.metrics.to_json(),
        warm.metrics.to_json(),
        "{ctx}: metrics documents diverged (corpus reuse must be invisible to the run)"
    );
}

#[test]
fn warm_runs_are_bit_identical_to_cold_at_every_thread_count() {
    let images = corpus(6, 2);
    for par in [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(8)] {
        let cold: Vec<Reconstruction> = images.iter().map(|l| reconstruct_cold(l, par)).collect();
        let shared = Arc::new(CorpusCache::new());
        let warm: Vec<Reconstruction> =
            images.iter().map(|l| reconstruct_warm(l, par, &shared)).collect();
        for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
            assert_identical(c, w, &format!("{par:?} job {i}"));
        }
        let s = shared.stats();
        assert!(
            s.counter(names::CORPUS_TRACELET_HIT) > 0,
            "{par:?}: shared functions must hit the exec tier"
        );
        assert!(
            s.counter(names::CORPUS_SLM_HIT) > 0,
            "{par:?}: shared pools must hit the model tier"
        );
        assert!(
            s.counter(names::CORPUS_DISTANCE_HIT) > 0,
            "{par:?}: shared pairs must hit the distance tier"
        );
        assert_eq!(
            s.counter(names::CORPUS_CORRUPT_DROPPED),
            0,
            "{par:?}: clean runs must not drop entries"
        );
        assert!(s.counter(names::CORPUS_BYTES_STORED) > 0);
    }
}

#[test]
fn interleaved_processing_order_does_not_change_outputs() {
    // The cache's content comes from whichever job got there first; the
    // answers must not depend on that race. Process the fleet in a
    // scrambled order against the order-0 cold baselines.
    let images = corpus(5, 1);
    let par = Parallelism::Threads(2);
    let cold: Vec<Reconstruction> = images.iter().map(|l| reconstruct_cold(l, par)).collect();
    let shared = Arc::new(CorpusCache::new());
    let mut warm: Vec<Option<Reconstruction>> = (0..images.len()).map(|_| None).collect();
    for &i in &[3usize, 0, 4, 2, 1] {
        warm[i] = Some(reconstruct_warm(&images[i], par, &shared));
    }
    for (i, w) in warm.iter().enumerate() {
        assert_identical(&cold[i], w.as_ref().expect("all jobs ran"), &format!("job {i}"));
    }
}

#[test]
fn corrupted_entries_recompute_without_poisoning_later_jobs() {
    let images = corpus(4, 1);
    let par = Parallelism::Serial;
    let cold: Vec<Reconstruction> = images.iter().map(|l| reconstruct_cold(l, par)).collect();
    let shared = Arc::new(CorpusCache::new());
    for l in &images[..2] {
        reconstruct_warm(l, par, &shared);
    }
    // Flip bits in every stored byte image, all three tiers.
    let touched = shared.corrupt_all(&FaultPlan::seeded(9, 0), 3);
    assert!(touched > 0, "the warm-up must have populated the cache");
    for (i, l) in images.iter().enumerate().skip(2) {
        let w = reconstruct_warm(l, par, &shared);
        assert_identical(&cold[i], &w, &format!("post-corruption job {i}"));
    }
    let s = shared.stats();
    assert!(
        s.counter(names::CORPUS_CORRUPT_DROPPED) > 0,
        "corruption must be detected and dropped, not trusted"
    );
    // Dropped entries were recomputed and re-stored: a fresh identical
    // job now runs against a healthy cache again.
    let again = reconstruct_warm(&images[2], par, &shared);
    assert_identical(&cold[2], &again, "job 2 re-run on the healed cache");
}

#[test]
fn bounded_cache_eviction_never_changes_outputs() {
    // A daemon-sized fleet against a cache far too small for it: the
    // cache thrashes (evictions happen), hit rates collapse, and not
    // one output bit may move. This pins the claim that bounding the
    // corpus cache is purely a memory/latency trade.
    let images = corpus(5, 2);
    for par in [Parallelism::Serial, Parallelism::Threads(4)] {
        let cold: Vec<Reconstruction> = images.iter().map(|l| reconstruct_cold(l, par)).collect();
        // Capacity 16 = one entry per shard, per tier — brutally tight.
        let tight = Arc::new(CorpusCache::bounded(16));
        for (i, l) in images.iter().enumerate() {
            let w = reconstruct_warm(l, par, &tight);
            assert_identical(&cold[i], &w, &format!("{par:?} bounded job {i}"));
        }
        let s = tight.stats();
        assert!(
            s.counter(names::CORPUS_EVICTED) > 0,
            "{par:?}: a 16-entry cache under this fleet must evict"
        );
        let (e, m, d) = tight.lens();
        assert!(e <= 16 && m <= 16 && d <= 16, "{par:?}: live entries exceed the bound");
        // And a re-run of the whole fleet against the thrashed cache is
        // still bit-identical — stale-entry reuse after eviction churn
        // would show up here.
        for (i, l) in images.iter().enumerate() {
            let w = reconstruct_warm(l, par, &tight);
            assert_identical(&cold[i], &w, &format!("{par:?} bounded rerun job {i}"));
        }
    }
}

#[test]
fn position_shifted_twins_share_every_tier() {
    // Members 0 and 1 share lib code at *different* addresses (member 1
    // declares its salt class first). Content keys must bridge the
    // shift: the second job hits all three tiers.
    let images = corpus(2, 1);
    let par = Parallelism::Serial;
    let shared = Arc::new(CorpusCache::new());
    let first = reconstruct_warm(&images[0], par, &shared);
    let after_first = shared.stats();
    let second = reconstruct_warm(&images[1], par, &shared);
    let delta = shared.stats().since(&after_first);
    assert!(delta.counter(names::CORPUS_TRACELET_HIT) > 0, "shifted twin must reuse executions");
    assert!(delta.counter(names::CORPUS_SLM_HIT) > 0, "shifted twin must reuse trained models");
    assert!(delta.counter(names::CORPUS_DISTANCE_HIT) > 0, "shifted twin must reuse distances");
    // And the reuse is invisible in the outputs.
    assert_identical(&reconstruct_cold(&images[0], par), &first, "member 0");
    assert_identical(&reconstruct_cold(&images[1], par), &second, "member 1");
}

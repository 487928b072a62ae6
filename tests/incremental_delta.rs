//! The incremental-invalidation contract, fuzzed over source edits:
//! reconstructing a *patched* image against sub-artifacts persisted
//! from the *base* image must be bit-identical to a cold run of the
//! patched image — reuse may only change wall clock, never an output —
//! while actually reusing everything the edit did not touch.
//!
//! The workload is `suite::delta_spec`: several independent class
//! families whose spec fields map one-to-one onto source constructs, so
//! a seeded fuzzer can draw small, *known* edits (edit a method body,
//! add/remove a method, reorder vtable slots, add a class, flip a call
//! target) and we can predict the artifact dirty set of each.
//!
//! `ROCK_DELTA_SEEDS=n` widens the sweep (default 4 seeds; CI runs 16).

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use rock::core::{suite, CorpusCache, Parallelism, Reconstruction, Rock, RockConfig};
use rock::loader::LoadedBinary;
use rock::supervisor::{flush_subartifacts, preload_subartifacts, ArtifactStore};
use rock::trace::{names, MetricsRegistry};

/// A scratch artifact-store root, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("rock-incr-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn store(&self) -> ArtifactStore {
        ArtifactStore::open(&self.0).unwrap()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn load(spec: &suite::DeltaSpec) -> LoadedBinary {
    let compiled = suite::delta_program(spec).compile().expect("delta programs compile");
    LoadedBinary::load(compiled.stripped_image()).expect("delta images load")
}

/// Position-independent function keys require canonical calls.
fn config(par: Parallelism) -> RockConfig {
    RockConfig::paper().with_parallelism(par).with_canonical_calls()
}

fn reconstruct_cold(loaded: &LoadedBinary, par: Parallelism) -> Reconstruction {
    Rock::new(config(par)).reconstruct(loaded)
}

fn reconstruct_warm(
    loaded: &LoadedBinary,
    par: Parallelism,
    cache: &Arc<CorpusCache>,
) -> Reconstruction {
    Rock::new(config(par)).with_corpus_cache(Arc::clone(cache)).reconstruct(loaded)
}

/// Runs the base image once, flushes its sub-artifacts to `store`, and
/// returns a **fresh** cache preloaded purely from disk — the patched
/// run sees only what survived the store round trip, exactly like a new
/// process after `rock batch --incremental`.
fn preloaded_from_base(
    base: &LoadedBinary,
    par: Parallelism,
    store: &ArtifactStore,
) -> Arc<CorpusCache> {
    let populate = Arc::new(CorpusCache::new());
    reconstruct_warm(base, par, &populate);
    let flushed = flush_subartifacts(store, &populate);
    assert!(flushed.counter(names::INCR_FLUSHED) > 0, "base run must persist sub-artifacts");
    assert_eq!(flushed.counter(names::INCR_IO_ERRORS), 0, "healthy store must not error");
    let warm = Arc::new(CorpusCache::new());
    let preloaded = preload_subartifacts(store, &warm);
    assert_eq!(
        preloaded.counter(names::INCR_PRELOADED),
        flushed.counter(names::INCR_FLUSHED),
        "every flushed artifact must preload"
    );
    assert_eq!(
        preloaded.counter(names::INCR_CORRUPT_SKIPPED),
        0,
        "healthy store must preload cleanly"
    );
    warm
}

/// Exec-tier (function-level) hits and lookups in a cache snapshot.
fn exec_tier(stats: &MetricsRegistry) -> (u64, u64) {
    let hits = stats.counter(names::CORPUS_TRACELET_HIT);
    (hits, hits + stats.counter(names::CORPUS_TRACELET_MISS))
}

/// Byte-level equality over everything a run reports.
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
        "{ctx}: metrics documents diverged (incremental reuse must be invisible)"
    );
}

/// xorshift64*: tiny deterministic PRNG for seed-indexed edit draws.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(2_685_821_657_736_338_717).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Draws one of the five issue-mandated edit kinds.
fn draw_edit(rng: &mut Rng) -> suite::DeltaEdit {
    let family = rng.pick(64);
    let class = rng.pick(64);
    match rng.pick(5) {
        0 => suite::DeltaEdit::EditBody { family, class, method: rng.pick(8) },
        1 => {
            if rng.pick(2) == 0 {
                suite::DeltaEdit::AddMethod { family, class }
            } else {
                suite::DeltaEdit::RemoveMethod { family, class }
            }
        }
        2 => suite::DeltaEdit::ReorderSlots { family, class },
        3 => suite::DeltaEdit::AddClass { family },
        _ => suite::DeltaEdit::FlipCallTarget { family, class },
    }
}

fn delta_seeds() -> u64 {
    std::env::var("ROCK_DELTA_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(4)
}

/// The fuzzer: for every seed, apply one random edit to a fresh base
/// spec and require cold ≡ incremental on the patched image at both
/// thread counts, with the warm run actually reusing base artifacts.
#[test]
fn fuzzed_edits_cold_vs_incremental_bit_identical() {
    for seed in 0..delta_seeds() {
        let mut rng = Rng::new(seed.wrapping_add(0xD317A));
        let base_spec = suite::delta_spec(3, 5, seed);
        let mut edited_spec = base_spec.clone();
        let edit = draw_edit(&mut rng);
        suite::apply_delta(&mut edited_spec, edit);
        if edited_spec == base_spec {
            // Documented no-op corners (e.g. RemoveMethod on a
            // single-method class); the identity claim is vacuous.
            continue;
        }
        let base = load(&base_spec);
        let edited = load(&edited_spec);
        for par in [Parallelism::Serial, Parallelism::Threads(8)] {
            let scratch = Scratch::new(&format!("fuzz-{seed}-{par:?}"));
            let cold = reconstruct_cold(&edited, par);
            let warm_cache = preloaded_from_base(&base, par, &scratch.store());
            let warm = reconstruct_warm(&edited, par, &warm_cache);
            assert_identical(&cold, &warm, &format!("seed {seed} {edit:?} {par:?}"));
            let s = warm_cache.stats();
            assert!(
                s.counter(names::CORPUS_TRACELET_HIT) > 0,
                "seed {seed} {edit:?} {par:?}: a small edit must reuse function artifacts"
            );
            assert_eq!(
                s.counter(names::CORPUS_CORRUPT_DROPPED),
                0,
                "seed {seed}: healthy artifacts must verify"
            );
        }
    }
}

/// The reuse-floor oracle: a 1-function edit (one method body rewritten
/// in a leaf class) must reuse at least 90% of the function-level
/// artifacts persisted by the base image.
#[test]
fn one_function_edit_reuses_ninety_percent_of_function_artifacts() {
    let base_spec = suite::delta_spec(6, 6, 77);
    let mut edited_spec = base_spec.clone();
    // Leaf class of family 2 (binary tree: the last class is a leaf), so
    // the dirty set is the method itself plus the leaf's own driver.
    suite::apply_delta(
        &mut edited_spec,
        suite::DeltaEdit::EditBody { family: 2, class: 5, method: 1 },
    );
    assert_ne!(edited_spec, base_spec);
    let base = load(&base_spec);
    let edited = load(&edited_spec);
    let par = Parallelism::Serial;
    let scratch = Scratch::new("reuse-floor");
    let cold = reconstruct_cold(&edited, par);
    let warm_cache = preloaded_from_base(&base, par, &scratch.store());
    let warm = reconstruct_warm(&edited, par, &warm_cache);
    assert_identical(&cold, &warm, "1-function edit");
    let s = warm_cache.stats();
    let (hits, lookups) = exec_tier(&s);
    assert!(lookups > 0, "the run must consult the exec tier");
    let reuse = hits as f64 / lookups as f64;
    assert!(
        reuse >= 0.90,
        "1-function edit reused only {:.1}% of function artifacts ({hits} hits / {lookups} lookups)",
        reuse * 100.0,
    );
    // Type- and pair-level tiers must also see substantial reuse: only
    // the types whose tracelet multiset changed may retrain.
    assert!(s.counter(names::CORPUS_SLM_HIT) > 0, "unchanged types must reuse their SLMs");
    assert!(s.counter(names::CORPUS_DISTANCE_HIT) > 0, "untouched pairs must reuse distances");
}

/// The position-shift regression: declaring the salt class first moves
/// every family function to a different address without changing a byte
/// of their code. Function-level keys are position-independent content
/// labels, so the shifted image must still hit massively — an
/// address-keyed (or whole-image-keyed) scheme scores 0% here.
#[test]
fn position_shifted_image_reuses_function_artifacts() {
    let base_spec = suite::delta_spec(4, 5, 13);
    let mut shifted_spec = base_spec.clone();
    shifted_spec.salt_first = true;
    let base = load(&base_spec);
    let shifted = load(&shifted_spec);
    let par = Parallelism::Serial;
    let scratch = Scratch::new("pos-shift");
    let cold = reconstruct_cold(&shifted, par);
    let warm_cache = preloaded_from_base(&base, par, &scratch.store());
    let warm = reconstruct_warm(&shifted, par, &warm_cache);
    assert_identical(&cold, &warm, "position-shifted image");
    let s = warm_cache.stats();
    let (hits, lookups) = exec_tier(&s);
    let reuse = hits as f64 / lookups.max(1) as f64;
    assert!(
        reuse >= 0.90,
        "pure position shift reused only {:.1}% ({hits} hits / {lookups} lookups) — keys are not position-independent",
        reuse * 100.0,
    );
    assert!(s.counter(names::CORPUS_SLM_HIT) > 0, "shifted types must reuse their SLMs");
    assert!(s.counter(names::CORPUS_DISTANCE_HIT) > 0, "shifted pairs must reuse distances");
}

/// A salt-class edit touches no family function: every family artifact
/// must be reused, and only the salt class's own functions recompute.
#[test]
fn salt_class_edit_reuses_all_family_artifacts() {
    let base_spec = suite::delta_spec(4, 5, 21);
    let mut edited_spec = base_spec.clone();
    suite::apply_delta(&mut edited_spec, suite::DeltaEdit::ReseedSalt);
    let base = load(&base_spec);
    let edited = load(&edited_spec);
    let par = Parallelism::Serial;
    let scratch = Scratch::new("salt-edit");
    let cold = reconstruct_cold(&edited, par);
    let warm_cache = preloaded_from_base(&base, par, &scratch.store());
    let warm = reconstruct_warm(&edited, par, &warm_cache);
    assert_identical(&cold, &warm, "salt-class edit");
    let (hits, lookups) = exec_tier(&warm_cache.stats());
    let reuse = hits as f64 / lookups.max(1) as f64;
    assert!(reuse >= 0.90, "salt edit reused only {:.1}%", reuse * 100.0);
}

/// A 1-family edit re-seeds one family wholesale: its artifacts all
/// miss, the other families' artifacts all hit, and the answers still
/// match a cold run bit for bit.
#[test]
fn one_family_edit_retrains_only_that_family() {
    let base_spec = suite::delta_spec(4, 5, 33);
    let mut edited_spec = base_spec.clone();
    suite::apply_delta(&mut edited_spec, suite::DeltaEdit::ReseedFamily { family: 1 });
    let base = load(&base_spec);
    let edited = load(&edited_spec);
    let par = Parallelism::Threads(8);
    let scratch = Scratch::new("family-edit");
    let cold = reconstruct_cold(&edited, par);
    let warm_cache = preloaded_from_base(&base, par, &scratch.store());
    let warm = reconstruct_warm(&edited, par, &warm_cache);
    assert_identical(&cold, &warm, "1-family edit");
    let s = warm_cache.stats();
    assert!(
        s.counter(names::CORPUS_TRACELET_HIT) > 0,
        "three untouched families must hit the exec tier"
    );
    assert!(
        s.counter(names::CORPUS_TRACELET_MISS) > 0,
        "the re-seeded family must miss the exec tier"
    );
    assert!(s.counter(names::CORPUS_SLM_HIT) > 0, "untouched types must reuse their SLMs");
}

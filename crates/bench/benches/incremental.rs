//! Incremental-invalidation benchmarks: the patch-and-rerun loop. A
//! large multi-family image (the delta workload,
//! `rock_core::suite::delta_spec`) is reconstructed once and its corpus
//! sub-artifacts flushed to an artifact store; then a *patched* variant
//! is reconstructed cold (no store) versus warm-delta (a fresh process
//! that preloads the base image's sub-artifacts from disk and recomputes
//! only what the edit dirtied).
//!
//! Three edit shapes are summarized to `BENCH_incremental.json`:
//!
//! * **edit_1fn** — one method body rewritten in one leaf class: the
//!   canonical one-line patch. CI gates warm-delta ≥ 3× cold here.
//! * **edit_family** — one whole family re-seeded: every artifact in it
//!   misses, every other family is served from disk.
//! * **edit_salt** — the image-unique salt class re-seeded: no family
//!   function changes; this is the ceiling of the approach.
//!
//! Warm-delta runs are asserted bit-identical to cold runs at `Serial`
//! and `Threads(8)` before any number is reported. The timed warm-delta
//! region includes the preload itself — it is the cost a patched rerun
//! actually pays. Set `ROCK_BENCH_SMOKE=1` for the CI subset, which
//! also *enforces* the speedup and reuse floors and writes its summary
//! under `target/bench-smoke/`.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rock_bench::{smoke, write_record};
use rock_core::suite::{self, DeltaEdit, DeltaSpec};
use rock_core::{CorpusCache, CorpusStats, Parallelism, Reconstruction, Rock, RockConfig};
use rock_loader::LoadedBinary;
use rock_supervisor::{flush_subartifacts, preload_subartifacts, ArtifactStore};

/// Position-independent function keys require canonical calls.
fn config(par: Parallelism) -> RockConfig {
    RockConfig::paper().with_parallelism(par).with_canonical_calls()
}

/// The base image: `families` shallow trees of `classes` classes each.
/// Full mode sizes it to 120 classes — the aggregate type count of the
/// 120-binary corpus fleet benchmark, i.e. a statically linked image at
/// fleet scale.
fn base_spec() -> DeltaSpec {
    if smoke() {
        suite::delta_spec(6, 12, 1205)
    } else {
        suite::delta_spec(12, 10, 1205)
    }
}

fn load(spec: &DeltaSpec) -> LoadedBinary {
    let compiled = suite::delta_program(spec).compile().expect("delta program compiles");
    LoadedBinary::load(compiled.stripped_image()).expect("delta image loads")
}

/// The three measured edits, applied to a clone of the base spec.
fn edits() -> Vec<(&'static str, DeltaEdit)> {
    let last_class = if smoke() { 5 } else { 9 };
    vec![
        ("edit_1fn", DeltaEdit::EditBody { family: 1, class: last_class, method: 1 }),
        ("edit_family", DeltaEdit::ReseedFamily { family: 2 }),
        ("edit_salt", DeltaEdit::ReseedSalt),
    ]
}

fn edited_spec(edit: DeltaEdit) -> DeltaSpec {
    let mut spec = base_spec();
    suite::apply_delta(&mut spec, edit);
    spec
}

fn run_cold(image: &LoadedBinary, par: Parallelism) -> Reconstruction {
    Rock::new(config(par)).reconstruct(image)
}

fn run_warm(image: &LoadedBinary, par: Parallelism, cache: &Arc<CorpusCache>) -> Reconstruction {
    Rock::new(config(par)).with_corpus_cache(Arc::clone(cache)).reconstruct(image)
}

/// A scratch artifact-store root, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("rock-bench-incr-{tag}-{}", std::process::id()));
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

/// Runs the base image once and flushes its sub-artifacts to `store`;
/// returns the flushed count.
fn populate(base: &LoadedBinary, store: &ArtifactStore) -> u64 {
    let cache = Arc::new(CorpusCache::new());
    run_warm(base, Parallelism::Serial, &cache);
    let stats = flush_subartifacts(store, &cache);
    assert_eq!(stats.io_errors, 0, "healthy flush must not error");
    assert!(stats.flushed > 0, "the base run must persist sub-artifacts");
    stats.flushed
}

/// One timed warm-delta pass: fresh cache, preload from disk, run the
/// patched image. Returns (elapsed ms, cache stats, preloaded count).
fn warm_delta(image: &LoadedBinary, store: &ArtifactStore) -> (f64, CorpusStats, u64) {
    let cache = Arc::new(CorpusCache::new());
    let start = Instant::now();
    let pre = preload_subartifacts(store, &cache);
    run_warm(image, Parallelism::Serial, &cache);
    let elapsed = ms(start);
    (elapsed, cache.stats(), pre.preloaded)
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

fn fmt_runs(xs: &[f64]) -> String {
    xs.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(", ")
}

/// Criterion group: cold reconstruction of the 1-function-edited image.
fn bench_incremental_cold(c: &mut Criterion) {
    let image = load(&edited_spec(edits()[0].1));
    let mut group = c.benchmark_group("incremental_cold");
    group.sample_size(if smoke() { 2 } else { 10 });
    group.bench_function("edit_1fn", |b| {
        b.iter(|| run_cold(&image, Parallelism::Serial).hierarchy.len());
    });
    group.finish();
}

/// Criterion group: the warm-delta rerun of the same image, preload
/// included, against a store populated once from the base image.
fn bench_incremental_warm_delta(c: &mut Criterion) {
    let base = load(&base_spec());
    let image = load(&edited_spec(edits()[0].1));
    let scratch = Scratch::new("criterion");
    let store = scratch.store();
    populate(&base, &store);
    let mut group = c.benchmark_group("incremental_warm_delta");
    group.sample_size(if smoke() { 2 } else { 10 });
    group.bench_function("edit_1fn", |b| {
        b.iter(|| warm_delta(&image, &store).0);
    });
    group.finish();
}

/// One instrumented edit shape: cold vs warm-delta medians plus the
/// warm cache's reuse profile.
struct Shape {
    label: &'static str,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    stats: CorpusStats,
    flushed: u64,
    preloaded: u64,
}

impl Shape {
    fn reuse(&self) -> f64 {
        let lookups = self.stats.tracelet_hits + self.stats.tracelet_misses;
        self.stats.tracelet_hits as f64 / (lookups.max(1)) as f64
    }

    fn speedup(&self) -> f64 {
        median(&self.cold_ms) / median(&self.warm_ms).max(1e-6)
    }
}

fn measure(label: &'static str, base: &LoadedBinary, edit: DeltaEdit, runs: usize) -> Shape {
    let image = load(&edited_spec(edit));
    let scratch = Scratch::new(label);
    let store = scratch.store();
    let flushed = populate(base, &store);
    // One untimed pass warms the process (allocator arenas, page
    // faults); cold and warm-delta passes then alternate so drift
    // affects both sides equally instead of whichever ran last.
    run_cold(&image, Parallelism::Serial);
    let mut cold_ms = Vec::new();
    let mut warm_ms = Vec::new();
    let mut stats = CorpusStats::default();
    let mut preloaded = 0;
    for _ in 0..runs {
        let start = Instant::now();
        run_cold(&image, Parallelism::Serial);
        cold_ms.push(ms(start));
        let (elapsed, s, pre) = warm_delta(&image, &store);
        warm_ms.push(elapsed);
        stats = s;
        preloaded = pre;
    }
    Shape { label, cold_ms, warm_ms, stats, flushed, preloaded }
}

fn shape_json(s: &Shape) -> String {
    let st = &s.stats;
    format!(
        "  \"{label}\": {{\n    \"cold_runs_ms\": [{cold_runs}],\n    \
         \"cold_median_ms\": {cold:.3},\n    \
         \"warm_delta_runs_ms\": [{warm_runs}],\n    \"warm_delta_median_ms\": {warm:.3},\n    \
         \"warm_delta_speedup\": {speedup:.2},\n    \
         \"function_artifact_reuse\": {reuse:.4},\n    \
         \"sub_flushed\": {flushed},\n    \"sub_preloaded\": {preloaded},\n    \
         \"tracelet_hits\": {th},\n    \"tracelet_misses\": {tm},\n    \
         \"slm_hits\": {sh},\n    \"slm_misses\": {sm},\n    \
         \"distance_hits\": {dh},\n    \"distance_misses\": {dm},\n    \
         \"lifting_hits\": {lh},\n    \"lifting_misses\": {lm}\n  }}",
        label = s.label,
        cold_runs = fmt_runs(&s.cold_ms),
        cold = median(&s.cold_ms),
        warm_runs = fmt_runs(&s.warm_ms),
        warm = median(&s.warm_ms),
        speedup = s.speedup(),
        reuse = s.reuse(),
        flushed = s.flushed,
        preloaded = s.preloaded,
        th = st.tracelet_hits,
        tm = st.tracelet_misses,
        sh = st.slm_hits,
        sm = st.slm_misses,
        dh = st.distance_hits,
        dm = st.distance_misses,
        lh = st.lifting_hits,
        lm = st.lifting_misses,
    )
}

/// Asserts warm-delta output equals cold output for every edit shape at
/// `Serial` and `Threads(8)` — through the disk round trip, exactly the
/// path the measurements take.
fn verify_identity(base: &LoadedBinary) {
    let scratch = Scratch::new("identity");
    let store = scratch.store();
    populate(base, &store);
    for (label, edit) in edits() {
        let image = load(&edited_spec(edit));
        for par in [Parallelism::Serial, Parallelism::Threads(8)] {
            let cold = run_cold(&image, par);
            let cache = Arc::new(CorpusCache::new());
            preload_subartifacts(&store, &cache);
            let warm = run_warm(&image, par, &cache);
            assert_eq!(cold.hierarchy, warm.hierarchy, "{label} {par:?}: hierarchy diverged");
            assert_eq!(cold.distances, warm.distances, "{label} {par:?}: distances diverged");
            assert_eq!(cold.diagnostics, warm.diagnostics, "{label} {par:?}: diagnostics diverged");
        }
    }
}

/// The summary pass: pins bit-identity, measures the three edit shapes,
/// writes `BENCH_incremental.json`, and (in smoke mode) enforces the CI
/// floors.
fn emit_bench_json(_c: &mut Criterion) {
    let runs = if smoke() { 2 } else { 5 };
    let base = load(&base_spec());

    // Bit-identity first: no number is worth reporting if reuse changes
    // an answer.
    verify_identity(&base);

    let shapes: Vec<Shape> =
        edits().into_iter().map(|(label, edit)| measure(label, &base, edit, runs)).collect();

    let body = shapes.iter().map(shape_json).collect::<Vec<_>>().join(",\n");
    let json = format!(
        "{{\n  \"mode\": \"{mode}\",\n  \"parallelism\": \"serial\",\n  \
         \"identity_pinned_at\": [\"serial\", \"threads8\"],\n{body}\n}}\n",
        mode = if smoke() { "smoke" } else { "full" },
    );
    let path = write_record("BENCH_incremental.json", &json);
    println!("\nwrote {}:\n{json}", path.display());

    if smoke() {
        // The CI floors: a one-line patch must rerun ≥ 3× faster than
        // cold and reuse ≥ 90% of the function-level artifacts.
        let one_fn = &shapes[0];
        assert!(
            one_fn.speedup() >= 3.0,
            "incremental-smoke: 1-function-edit warm-delta speedup {:.2}x fell below 3x",
            one_fn.speedup()
        );
        assert!(
            one_fn.reuse() >= 0.90,
            "incremental-smoke: 1-function-edit reuse {:.3} fell below 0.90",
            one_fn.reuse()
        );
    }
}

criterion_group!(benches, bench_incremental_cold, bench_incremental_warm_delta, emit_bench_json);
criterion_main!(benches);

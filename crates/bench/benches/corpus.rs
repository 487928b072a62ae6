//! Corpus-dedup benchmarks: amortized fleet throughput with the shared
//! content-addressed [`CorpusCache`] against the cold per-binary
//! baseline, on a synthetic corpus with controlled overlap (see
//! `rock_core::suite::corpus_member`: a lib family shared by every
//! member, app families shared per template, a unique salt class that
//! shifts addresses in half the members).
//!
//! Two corpus shapes are summarized to `BENCH_corpus.json`:
//!
//! * **50% overlap** — every app template is instantiated exactly
//!   twice (`templates = n/2`), the ≥2× amortized-speedup target;
//! * **high overlap** — a handful of templates across the whole fleet,
//!   the >90% hit-rate target.
//!
//! Warm runs are asserted bit-identical to cold runs at `Serial`,
//! `Threads(2)` and `Threads(8)` before any number is reported. Set
//! `ROCK_BENCH_SMOKE=1` for the CI subset, which also *enforces* the
//! hit-rate and speedup floors and writes its summary under
//! `target/bench-smoke/`.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rock_bench::{smoke, write_record};
use rock_core::suite::corpus_member;
use rock_core::{CorpusCache, CorpusStats, Parallelism, Reconstruction, Rock, RockConfig};
use rock_loader::LoadedBinary;

fn config(par: Parallelism) -> RockConfig {
    RockConfig::paper().with_parallelism(par).with_canonical_calls()
}

/// Compiles an `n`-member corpus with `templates` distinct app families.
fn corpus(n: usize, templates: usize) -> Vec<LoadedBinary> {
    (0..n)
        .map(|i| {
            let c = corpus_member(i, templates).compile().expect("corpus member compiles");
            LoadedBinary::load(c.stripped_image()).expect("corpus member loads")
        })
        .collect()
}

fn run_cold(images: &[LoadedBinary], par: Parallelism) -> Vec<Reconstruction> {
    images.iter().map(|l| Rock::new(config(par)).reconstruct(l)).collect()
}

fn run_warm(
    images: &[LoadedBinary],
    par: Parallelism,
    shared: &Arc<CorpusCache>,
) -> Vec<Reconstruction> {
    images
        .iter()
        .map(|l| Rock::new(config(par)).with_corpus_cache(Arc::clone(shared)).reconstruct(l))
        .collect()
}

/// Criterion group: the cold fleet, one full pass per iteration.
fn bench_corpus_cold(c: &mut Criterion) {
    let n = if smoke() { 8 } else { 24 };
    let images = corpus(n, n / 2);
    let mut group = c.benchmark_group("corpus_cold");
    group.sample_size(if smoke() { 2 } else { 10 });
    group.bench_with_input(BenchmarkId::from_parameter(n), &images, |b, images| {
        b.iter(|| run_cold(images, Parallelism::Serial).len());
    });
    group.finish();
}

/// Criterion group: the same fleet against a fresh shared cache per
/// iteration — amortized cost including cache population.
fn bench_corpus_amortized(c: &mut Criterion) {
    let n = if smoke() { 8 } else { 24 };
    let images = corpus(n, n / 2);
    let mut group = c.benchmark_group("corpus_amortized");
    group.sample_size(if smoke() { 2 } else { 10 });
    group.bench_with_input(BenchmarkId::from_parameter(n), &images, |b, images| {
        b.iter(|| {
            let shared = Arc::new(CorpusCache::new());
            run_warm(images, Parallelism::Serial, &shared).len()
        });
    });
    group.finish();
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

/// Asserts warm output equals cold output for every member, then
/// returns the cache stats of one warm pass.
fn verify_and_stats(images: &[LoadedBinary], pars: &[Parallelism]) -> CorpusStats {
    let mut stats = CorpusStats::default();
    for &par in pars {
        let cold = run_cold(images, par);
        let shared = Arc::new(CorpusCache::new());
        let warm = run_warm(images, par, &shared);
        for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
            assert_eq!(c.hierarchy, w.hierarchy, "{par:?} member {i}: hierarchy diverged");
            assert_eq!(c.distances, w.distances, "{par:?} member {i}: distances diverged");
        }
        stats = shared.stats();
    }
    stats
}

/// One instrumented measurement of a corpus shape: cold vs amortized
/// medians plus the warm cache's tier stats.
struct Shape {
    n: usize,
    templates: usize,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    stats: CorpusStats,
}

fn measure(n: usize, templates: usize, runs: usize) -> Shape {
    let images = corpus(n, templates);
    // One untimed pass warms the process (allocator arenas, page
    // faults); cold and warm passes then alternate so drift affects
    // both sides equally instead of whichever ran last.
    run_cold(&images, Parallelism::Serial);
    let mut cold_ms = Vec::new();
    let mut warm_ms = Vec::new();
    let mut stats = CorpusStats::default();
    for _ in 0..runs {
        let start = Instant::now();
        run_cold(&images, Parallelism::Serial);
        cold_ms.push(ms(start));
        let shared = Arc::new(CorpusCache::new());
        let start = Instant::now();
        run_warm(&images, Parallelism::Serial, &shared);
        warm_ms.push(ms(start));
        stats = shared.stats();
    }
    Shape { n, templates, cold_ms, warm_ms, stats }
}

fn shape_json(label: &str, s: &Shape) -> String {
    let cold = median(&s.cold_ms);
    let warm = median(&s.warm_ms);
    let st = &s.stats;
    format!(
        "  \"{label}\": {{\n    \"binaries\": {n},\n    \"app_templates\": {templates},\n    \
         \"cold_runs_ms\": [{cold_runs}],\n    \"cold_median_ms\": {cold:.3},\n    \
         \"cold_jobs_per_s\": {cold_tput:.1},\n    \
         \"amortized_runs_ms\": [{warm_runs}],\n    \"amortized_median_ms\": {warm:.3},\n    \
         \"amortized_jobs_per_s\": {warm_tput:.1},\n    \
         \"amortized_speedup\": {speedup:.2},\n    \"hit_rate\": {hit_rate:.4},\n    \
         \"tracelet_hits\": {th},\n    \"tracelet_misses\": {tm},\n    \
         \"slm_hits\": {sh},\n    \"slm_misses\": {sm},\n    \
         \"distance_hits\": {dh},\n    \"distance_misses\": {dm},\n    \
         \"bytes_stored\": {bytes}\n  }}",
        n = s.n,
        templates = s.templates,
        cold_runs = fmt_runs(&s.cold_ms),
        warm_runs = fmt_runs(&s.warm_ms),
        cold_tput = s.n as f64 / (cold / 1e3),
        warm_tput = s.n as f64 / (warm / 1e3),
        speedup = cold / warm.max(1e-6),
        hit_rate = st.hit_rate(),
        th = st.tracelet_hits,
        tm = st.tracelet_misses,
        sh = st.slm_hits,
        sm = st.slm_misses,
        dh = st.distance_hits,
        dm = st.distance_misses,
        bytes = st.bytes_stored,
    )
}

/// The summary pass: verifies bit-identity at three thread counts,
/// measures both corpus shapes, writes `BENCH_corpus.json`, and (in
/// smoke mode) enforces the CI floors.
fn emit_bench_json(_c: &mut Criterion) {
    let runs = if smoke() { 2 } else { 5 };
    let (n50, nhi, thi) = if smoke() { (12, 24, 1) } else { (120, 120, 6) };

    // Bit-identity first: no number is worth reporting if the cache
    // changes an answer. Serial, 2 and 8 threads over a mixed corpus.
    let pinned = corpus(6, 3);
    verify_and_stats(
        &pinned,
        &[Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(8)],
    );

    let overlap50 = measure(n50, n50 / 2, runs);
    let high = measure(nhi, thi, runs);

    let speedup50 = median(&overlap50.cold_ms) / median(&overlap50.warm_ms).max(1e-6);
    let hit_hi = high.stats.hit_rate();
    let json = format!(
        "{{\n  \"mode\": \"{mode}\",\n  \"parallelism\": \"serial\",\n  \
         \"identity_pinned_at\": [\"serial\", \"threads2\", \"threads8\"],\n\
         {fifty},\n{high}\n}}\n",
        mode = if smoke() { "smoke" } else { "full" },
        fifty = shape_json("overlap_50", &overlap50),
        high = shape_json("overlap_high", &high),
    );
    let path = write_record("BENCH_corpus.json", &json);
    println!("\nwrote {}:\n{json}", path.display());

    if smoke() {
        // The CI floors: dedup must stay worth having.
        assert!(hit_hi >= 0.90, "corpus-smoke: high-overlap hit rate {hit_hi:.3} fell below 0.90");
        assert!(
            speedup50 >= 1.5,
            "corpus-smoke: 50%-overlap amortized speedup {speedup50:.2}x fell below 1.5x"
        );
    }
}

criterion_group!(benches, bench_corpus_cold, bench_corpus_amortized, emit_bench_json);
criterion_main!(benches);

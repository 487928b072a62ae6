//! Microbenchmarks of the statistical substrate (§3.1): PPM-C training,
//! sequence scoring and pairwise divergence, as a function of training
//! volume and model depth — plus the arena-vs-seed comparison on real
//! `stress_program(3, 3, 3)` tracelets, with a machine-readable
//! `BENCH_slm.json` summary written at the workspace root.
//!
//! Set `ROCK_BENCH_SMOKE=1` to run a tiny subset (CI smoke); its summary
//! goes to `target/bench-smoke/` instead.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rock_analysis::{extract_tracelets, AnalysisConfig, Event};
use rock_bench::{smoke, write_record};
use rock_core::suite::stress_program;
use rock_core::{Parallelism, Rock, RockConfig};
use rock_loader::LoadedBinary;
use rock_slm::reference::{reference_kl_divergence, ReferenceSlm};
use rock_slm::{kl_divergence, Slm};

/// Serial cold-cache distance stage on `stress_program(3, 3, 3)` as
/// measured at the PR 1 head on the reference container (median of 4
/// runs). The JSON report cites this so the arena speedup is explicit;
/// on a different host the ratio is only indicative.
const PR1_DISTANCE_STAGE_MS: f64 = 1.33;

/// Deterministic pseudo-random tracelet corpus over a small alphabet.
fn corpus(sequences: usize, len: usize, salt: u64) -> Vec<Vec<u8>> {
    let mut state = 0xabcdef12u64 ^ salt;
    (0..sequences)
        .map(|_| {
            (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((state >> 33) % 12) as u8
                })
                .collect()
        })
        .collect()
}

fn bench_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("slm_train");
    for n in [16usize, 64, 256] {
        let data = corpus(n, 7, 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &data, |b, data| {
            b.iter(|| {
                let mut m = Slm::new(2);
                for seq in data {
                    m.train(std::hint::black_box(seq));
                }
                m
            });
        });
    }
    group.finish();
}

fn bench_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("slm_train_depth");
    let data = corpus(64, 7, 2);
    for depth in [1usize, 2, 4, 6] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            b.iter(|| {
                let mut m = Slm::new(depth);
                for seq in &data {
                    m.train(seq);
                }
                m
            });
        });
    }
    group.finish();
}

fn bench_divergence(c: &mut Criterion) {
    let mut group = c.benchmark_group("kl_divergence");
    for n in [16usize, 64, 256] {
        let mut a = Slm::new(2);
        let mut b_model = Slm::new(2);
        for seq in corpus(n, 7, 3) {
            a.train(&seq);
        }
        for seq in corpus(n, 7, 4) {
            b_model.train(&seq);
        }
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(a, b_model),
            |bencher, (a, b_model)| {
                bencher
                    .iter(|| kl_divergence(std::hint::black_box(a), std::hint::black_box(b_model)));
            },
        );
    }
    group.finish();
}

/// Per-type tracelet pools of the §6.1 stress shape — the real workload
/// the pipeline's training and distance stages see.
fn stress_pools() -> Vec<Vec<Arc<[Event]>>> {
    let bench = stress_program(3, 3, 3);
    let compiled = bench.compile().expect("stress program compiles");
    let loaded = LoadedBinary::load(compiled.stripped_image()).expect("loads");
    let analysis = extract_tracelets(&loaded, &AnalysisConfig::default());
    let mut pools: Vec<Vec<Arc<[Event]>>> =
        analysis.tracelets().types().map(|vt| analysis.tracelets().of_type(vt).to_vec()).collect();
    if smoke() {
        pools.truncate(6);
    }
    pools
}

fn train_arena(pools: &[Vec<Arc<[Event]>>], depth: usize) -> Vec<Slm<Event>> {
    pools
        .iter()
        .map(|pool| {
            let mut m = Slm::new(depth);
            for t in pool {
                m.train(t);
            }
            m.finalize(); // index build is part of the training cost
            m
        })
        .collect()
}

fn train_reference(pools: &[Vec<Arc<[Event]>>], depth: usize) -> Vec<ReferenceSlm<Event>> {
    pools
        .iter()
        .map(|pool| {
            let mut m = ReferenceSlm::new(depth);
            for t in pool {
                m.train(t);
            }
            m
        })
        .collect()
}

/// Train-throughput on real stress tracelets: dedup + interning + arena
/// build vs. the seed's per-clone nested-map inserts.
fn bench_stress_train(c: &mut Criterion) {
    let pools = stress_pools();
    let depth = AnalysisConfig::default().slm_depth;
    let mut group = c.benchmark_group("stress_slm_train");
    group.sample_size(if smoke() { 2 } else { 20 });
    group.bench_with_input(BenchmarkId::from_parameter("arena"), &pools, |b, pools| {
        b.iter(|| train_arena(pools, depth));
    });
    group.bench_with_input(BenchmarkId::from_parameter("reference"), &pools, |b, pools| {
        b.iter(|| train_reference(pools, depth));
    });
    group.finish();
}

fn pairwise_arena(models: &[Slm<Event>]) -> f64 {
    let mut acc = 0.0;
    for a in models {
        for b in models {
            acc += kl_divergence(a, b);
        }
    }
    acc
}

fn pairwise_reference(models: &[ReferenceSlm<Event>]) -> f64 {
    let mut acc = 0.0;
    for a in models {
        for b in models {
            acc += reference_kl_divergence(a, b);
        }
    }
    acc
}

/// All-ordered-pairs KL on stress tracelets. `arena_cold` clones the
/// models first (dropping the cached index and word tables — the shape of
/// a fresh binary); `arena_warm` reuses cached word-evaluation tables
/// (the shape of ablation sweeps and repeated passes).
fn bench_stress_divergence(c: &mut Criterion) {
    let pools = stress_pools();
    let depth = AnalysisConfig::default().slm_depth;
    let arena = train_arena(&pools, depth);
    let seed = train_reference(&pools, depth);
    let mut group = c.benchmark_group("stress_pairwise_divergence");
    group.sample_size(if smoke() { 2 } else { 10 });
    group.bench_with_input(BenchmarkId::from_parameter("arena_cold"), &arena, |b, arena| {
        b.iter(|| {
            let fresh: Vec<Slm<Event>> = arena.to_vec();
            pairwise_arena(std::hint::black_box(&fresh))
        });
    });
    group.bench_with_input(BenchmarkId::from_parameter("arena_warm"), &arena, |b, arena| {
        b.iter(|| pairwise_arena(std::hint::black_box(arena)));
    });
    group.bench_with_input(BenchmarkId::from_parameter("reference"), &seed, |b, seed| {
        b.iter(|| pairwise_reference(std::hint::black_box(seed)));
    });
    group.finish();
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let v = f();
    (ms(start.elapsed()), v)
}

fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// One instrumented measurement pass, summarized to `BENCH_slm.json` at
/// the workspace root. Runs regardless of any bench filter so the report
/// is always refreshed.
fn emit_bench_json(_c: &mut Criterion) {
    let runs = if smoke() { 2 } else { 5 };

    // Serial, cold-cache reconstructions: the pipeline's own stage
    // timings isolate the distance stage (the PR 1 baseline's unit).
    let bench = stress_program(3, 3, 3);
    let compiled = bench.compile().expect("stress program compiles");
    let loaded = LoadedBinary::load(compiled.stripped_image()).expect("loads");
    let config = RockConfig::paper().with_parallelism(Parallelism::Serial);
    let mut distance_ms = Vec::new();
    let mut training_ms = Vec::new();
    let mut timings = None;
    for _ in 0..runs {
        let recon = Rock::new(config).reconstruct(&loaded);
        distance_ms.push(ms(recon.timings.distances));
        training_ms.push(ms(recon.timings.training));
        timings = Some(recon.timings);
    }
    let t = timings.expect("at least one run");
    let distance_median = median(&distance_ms);
    let speedup = PR1_DISTANCE_STAGE_MS / distance_median;

    // Arena vs. seed, outside the pipeline: train-all and all-pairs KL.
    let pools = stress_pools();
    let depth = AnalysisConfig::default().slm_depth;
    let (train_arena_ms, arena) = time(|| train_arena(&pools, depth));
    let (train_reference_ms, seed) = time(|| train_reference(&pools, depth));
    let (pairwise_cold_ms, _) = time(|| {
        let fresh: Vec<Slm<Event>> = arena.to_vec();
        pairwise_arena(&fresh)
    });
    let (pairwise_warm_ms, _) = time(|| pairwise_arena(&arena));
    let (pairwise_reference_ms, _) = time(|| pairwise_reference(&seed));

    let runs_json = distance_ms.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(", ");
    let json = format!(
        "{{\n  \"benchmark\": \"stress_program(3,3,3)\",\n  \"mode\": \"{mode}\",\n  \
         \"parallelism\": \"serial\",\n  \
         \"pr1_baseline_distance_stage_ms\": {baseline},\n  \
         \"baseline_note\": \"PR 1 head, same container, serial cold-cache median of 4\",\n  \
         \"distance_stage_runs_ms\": [{runs_json}],\n  \
         \"distance_stage_median_ms\": {distance_median:.3},\n  \
         \"distance_speedup_vs_pr1\": {speedup:.2},\n  \
         \"training_stage_median_ms\": {training_median:.3},\n  \
         \"slm_count\": {slms},\n  \"slm_nodes\": {nodes},\n  \"slm_edges\": {edges},\n  \
         \"slm_bytes\": {bytes},\n  \"slm_unique_words\": {unique},\n  \
         \"slm_total_words\": {total},\n  \"cache_misses\": {misses},\n  \
         \"stress_models\": {models},\n  \
         \"train_all_arena_ms\": {train_arena_ms:.3},\n  \
         \"train_all_reference_ms\": {train_reference_ms:.3},\n  \
         \"pairwise_kl_arena_cold_ms\": {pairwise_cold_ms:.3},\n  \
         \"pairwise_kl_arena_warm_ms\": {pairwise_warm_ms:.3},\n  \
         \"pairwise_kl_reference_ms\": {pairwise_reference_ms:.3}\n}}\n",
        mode = if smoke() { "smoke" } else { "full" },
        baseline = PR1_DISTANCE_STAGE_MS,
        training_median = median(&training_ms),
        slms = t.slm_count,
        nodes = t.slm_nodes,
        edges = t.slm_edges,
        bytes = t.slm_bytes,
        unique = t.slm_unique_words,
        total = t.slm_total_words,
        misses = t.cache_misses,
        models = arena.len(),
    );
    let path = write_record("BENCH_slm.json", &json);
    println!("\nwrote {}:\n{json}", path.display());
}

criterion_group!(
    benches,
    bench_training,
    bench_depth,
    bench_divergence,
    bench_stress_train,
    bench_stress_divergence,
    emit_bench_json,
);
criterion_main!(benches);

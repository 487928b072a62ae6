//! End-to-end pipeline cost on representative Table 2 benchmarks: one
//! small structurally-resolved binary, the echoparams showcase, and the
//! two largest families (Smoothing, Analyzer) — plus the §6.1
//! "Skype-scale" stress shape, serial vs. parallel, with a per-stage
//! [`rock_core::StageTimings`] breakdown.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rock_bench::{smoke, write_record};
use rock_core::suite::{benchmark, stress_program};
use rock_core::{Parallelism, Rock, RockConfig, TraceLevel};
use rock_loader::LoadedBinary;
use rock_trace::Tracer;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("rock_reconstruct");
    group.sample_size(10);
    for name in ["pop3", "echoparams", "Smoothing", "Analyzer", "libctemplate"] {
        let bench = benchmark(name).expect("suite benchmark");
        let compiled = bench.compile().expect("compiles");
        let loaded = LoadedBinary::load(compiled.stripped_image()).expect("loads");
        let rock = Rock::new(RockConfig::paper());
        group.bench_with_input(BenchmarkId::from_parameter(name), &loaded, |b, loaded| {
            b.iter(|| rock.reconstruct(std::hint::black_box(loaded)));
        });
    }
    group.finish();
}

/// The same reconstruction, serial vs. 4 worker threads, on the largest
/// suite shape. Results are bit-identical (asserted by
/// `tests/parallel_determinism.rs`); only wall-clock should differ. The
/// speedup scales with available cores — on a single-core host the
/// threaded variant can only tie serial (minus scheduling overhead), so
/// the detected core count is printed alongside the numbers.
fn bench_parallelism(c: &mut Criterion) {
    let bench = stress_program(3, 3, 3);
    let compiled = bench.compile().expect("stress program compiles");
    let loaded = LoadedBinary::load(compiled.stripped_image()).expect("loads");

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("\ndetected hardware threads: {cores}");
    if cores < 2 {
        println!("(single-core host: expect parity, not speedup, from threads-4)");
    }

    let mut group = c.benchmark_group("rock_reconstruct_stress_3_3_3");
    group.sample_size(10);
    for (label, parallelism) in
        [("serial", Parallelism::Serial), ("threads-4", Parallelism::Threads(4))]
    {
        // Without a corpus a run reuses nothing, so both variants do the
        // full quadratic work every iteration.
        let config = RockConfig::paper().with_parallelism(parallelism);
        group.bench_with_input(BenchmarkId::from_parameter(label), &loaded, |b, loaded| {
            b.iter(|| Rock::new(config).reconstruct(std::hint::black_box(loaded)));
        });
    }
    group.finish();

    // One instrumented run per variant: where the time actually goes.
    for (label, parallelism) in
        [("serial", Parallelism::Serial), ("threads-4", Parallelism::Threads(4))]
    {
        let config = RockConfig::paper().with_parallelism(parallelism);
        let recon = Rock::new(config).reconstruct(&loaded);
        println!("\nstress_program(3, 3, 3) [{label}]\n{}", recon.timings);
    }
}

/// Tracer overhead guard: the same reconstruction with the tracer
/// detached vs. attached at each [`TraceLevel`]. The detached path is a
/// structural no-op (no clock reads, no span buffers, no locks — proven
/// allocation-free by `crates/trace/tests/no_alloc.rs`), so "tracer-off"
/// here must match the plain groups above; the per-level variants bound
/// the cost of span capture from stage-only up to full per-item
/// granularity. Medians land in `BENCH_trace.json` at the workspace
/// root; under `ROCK_BENCH_SMOKE=1` they land in `target/bench-smoke/`
/// instead, and the run doubles as a CI guard that
/// fails if `sampled` (the production default) costs more than 10%.
fn bench_trace_overhead(c: &mut Criterion) {
    let bench = stress_program(3, 3, 3);
    let compiled = bench.compile().expect("stress program compiles");
    let loaded = LoadedBinary::load(compiled.stripped_image()).expect("loads");
    let config = RockConfig::paper().with_parallelism(Parallelism::Threads(4));
    const LEVELS: [TraceLevel; 3] = [TraceLevel::Stage, TraceLevel::Sampled, TraceLevel::Full];

    let run_off = |loaded: &LoadedBinary| drop(Rock::new(config).reconstruct(loaded));
    let run_at = |loaded: &LoadedBinary, level: TraceLevel| {
        // A fresh tracer per iteration: steady-state span capture, not an
        // ever-growing log.
        drop(
            Rock::new(config)
                .with_tracer(Arc::new(Tracer::new()))
                .with_trace_level(level)
                .reconstruct(loaded),
        )
    };

    let mut group = c.benchmark_group("rock_reconstruct_stress_3_3_3_trace");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("tracer-off"), &loaded, |b, loaded| {
        b.iter(|| run_off(std::hint::black_box(loaded)));
    });
    for level in LEVELS {
        let id = BenchmarkId::from_parameter(format!("level-{level}"));
        group.bench_with_input(id, &loaded, |b, loaded| {
            b.iter(|| run_at(std::hint::black_box(loaded), level));
        });
    }
    group.finish();

    // Machine-readable timings for the workspace-root report. The
    // variants are interleaved round-robin (off, stage, sampled, full,
    // off, ...) so machine-load drift hits every variant equally, and
    // overhead compares best-of-runs: timing noise is strictly additive
    // (interruptions only ever slow a sample down), so the minimum is
    // the tightest estimate of each variant's true cost.
    fn best(xs: &[f64]) -> f64 {
        xs.iter().copied().fold(f64::INFINITY, f64::min)
    }
    // Each sample times a batch of reconstructions: the workload is a
    // few milliseconds, so single-shot samples are dominated by
    // scheduler jitter rather than tracer cost.
    const BATCH: usize = 5;
    let ms = |f: &dyn Fn()| {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            f();
        }
        t0.elapsed().as_secs_f64() * 1e3 / BATCH as f64
    };
    let runs = if smoke() { 7 } else { 17 };
    let mut off_ms = Vec::with_capacity(runs);
    let mut level_ms: [Vec<f64>; LEVELS.len()] = Default::default();
    run_off(&loaded); // warmup: caches, allocator, thread pool
    for _ in 0..runs {
        off_ms.push(ms(&|| run_off(&loaded)));
        for (i, level) in LEVELS.into_iter().enumerate() {
            level_ms[i].push(ms(&|| run_at(&loaded, level)));
        }
    }
    let off = best(&off_ms);
    let overhead_pct = |on: f64| (on / off.max(1e-9) - 1.0) * 100.0;

    // One counted run per level: how many spans each level records, plus
    // the (level-independent) metrics document size.
    let mut metrics_bytes = 0;
    let spans_at: Vec<usize> = LEVELS
        .into_iter()
        .map(|level| {
            let tracer = Arc::new(Tracer::new());
            let recon = Rock::new(config)
                .with_tracer(tracer.clone())
                .with_trace_level(level)
                .reconstruct(&loaded);
            metrics_bytes = recon.metrics.to_json().len();
            tracer.events().len()
        })
        .collect();

    let mode = if smoke() { "smoke" } else { "full" };
    let mut rows = String::new();
    let mut sampled_pct = f64::NAN;
    for (i, level) in LEVELS.into_iter().enumerate() {
        let on = best(&level_ms[i]);
        let pct = overhead_pct(on);
        if level == TraceLevel::Sampled {
            sampled_pct = pct;
        }
        rows.push_str(&format!(
            "    \"{level}\": {{ \"tracer_on_best_ms\": {on:.3}, \
             \"overhead_pct\": {pct:.1}, \"spans_recorded\": {spans} }}{comma}\n",
            spans = spans_at[i],
            comma = if i + 1 < LEVELS.len() { "," } else { "" },
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"stress_program(3,3,3)\",\n  \
         \"mode\": \"{mode}\",\n  \"parallelism\": \"threads-4\",\n  \
         \"tracer_off_best_ms\": {off:.3},\n  \
         \"levels\": {{\n{rows}  }},\n  \
         \"metrics_doc_bytes\": {metrics_bytes}\n}}\n",
    );
    let path = write_record("BENCH_trace.json", &json);
    println!("\nwrote {}:\n{json}", path.display());

    // CI smoke guard: the production default must stay cheap. The full
    // re-record targets <5%; the smoke bound is looser because smoke runs
    // are short and noisy.
    if smoke() {
        assert!(
            sampled_pct <= 10.0,
            "tracer-on overhead at --trace-level=sampled is {sampled_pct:.1}% (limit 10%)"
        );
    }
}

criterion_group!(benches, bench_pipeline, bench_parallelism, bench_trace_overhead);
criterion_main!(benches);

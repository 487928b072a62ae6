//! Batch-runtime benchmarks: supervised throughput (jobs/s through the
//! full checkpoint-writing pipeline) and the resume win — a warm second
//! pass that restores every stage from the artifact store instead of
//! recomputing. A machine-readable `BENCH_batch.json` summary is written
//! at the workspace root.
//!
//! Set `ROCK_BENCH_SMOKE=1` to run a tiny subset (CI smoke); its summary
//! goes to `target/bench-smoke/` instead.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rock_bench::{smoke, write_record};
use rock_binary::image_to_bytes;
use rock_core::suite::{datasource_example, streams_example, stress_program, Benchmark};
use rock_core::{Parallelism, RockConfig};
use rock_supervisor::{ArtifactStore, JobOutcome, StdVfs, Supervisor, SupervisorOptions, Vfs};

/// The job mix: the two worked examples plus a stress shape.
fn jobs() -> Vec<(String, Vec<u8>)> {
    let mut benches: Vec<Benchmark> = vec![streams_example(), datasource_example()];
    if !smoke() {
        benches.push(stress_program(2, 2, 2));
    }
    benches
        .into_iter()
        .map(|b| {
            let compiled = b.compile().expect("suite program compiles");
            (b.name.to_string(), image_to_bytes(&compiled.stripped_image()))
        })
        .collect()
}

/// A scratch artifact store under the target-adjacent temp dir.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("rock-bench-batch-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn supervisor(&self, resume: bool) -> Supervisor {
        let options = SupervisorOptions { resume, ..SupervisorOptions::default() };
        Supervisor::new(
            RockConfig::paper().with_parallelism(Parallelism::Serial),
            ArtifactStore::open(&self.0).unwrap(),
            options,
        )
    }

    /// Total bytes of every artifact in the store.
    fn store_bytes(&self) -> u64 {
        fn walk(dir: &PathBuf, acc: &mut u64) {
            let Ok(entries) = fs::read_dir(dir) else { return };
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, acc);
                } else if let Ok(m) = p.metadata() {
                    *acc += m.len();
                }
            }
        }
        let mut acc = 0;
        walk(&self.0, &mut acc);
        acc
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn run_batch(sup: &Supervisor, jobs: &[(String, Vec<u8>)]) -> usize {
    let batch = sup.run_batch(jobs);
    assert_eq!(batch.exit_code, 0, "bench jobs must be healthy");
    batch.jobs.len()
}

/// Cold supervised batch: every stage computed and checkpointed.
fn bench_batch_cold(c: &mut Criterion) {
    let jobs = jobs();
    let mut group = c.benchmark_group("batch_cold");
    group.sample_size(if smoke() { 2 } else { 10 });
    group.bench_with_input(BenchmarkId::from_parameter(jobs.len()), &jobs, |b, jobs| {
        b.iter(|| {
            // A fresh store per iteration: genuinely cold.
            let scratch = Scratch::new("cold-iter");
            run_batch(&scratch.supervisor(true), jobs)
        });
    });
    group.finish();
}

/// Warm resume: the store already holds every stage, so a rerun only
/// replays checkpoints.
fn bench_batch_resume(c: &mut Criterion) {
    let jobs = jobs();
    let scratch = Scratch::new("warm");
    run_batch(&scratch.supervisor(true), &jobs); // populate once
    let mut group = c.benchmark_group("batch_resume");
    group.sample_size(if smoke() { 2 } else { 10 });
    group.bench_with_input(BenchmarkId::from_parameter(jobs.len()), &jobs, |b, jobs| {
        b.iter(|| run_batch(&scratch.supervisor(true), jobs));
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

/// A/B of the `Vfs` seam on the warm-resume read path: the same
/// artifact file read through `Arc<dyn Vfs>` (one virtual dispatch per
/// call, the production shape since the store was ported onto the
/// trait) and via `fs::read` directly. Samples are interleaved so
/// clock drift and cache state hit both arms equally; the reported
/// number is the best of three median-ratio trials (syscall noise is
/// one-sided, so min-of-trials isolates the structural overhead).
fn vfs_read_overhead_ratio(scratch: &Scratch) -> f64 {
    fn largest_file(dir: &PathBuf, best: &mut Option<(u64, PathBuf)>) {
        let Ok(entries) = fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                largest_file(&p, best);
            } else if let Ok(m) = p.metadata() {
                if best.as_ref().is_none_or(|(len, _)| m.len() > *len) {
                    *best = Some((m.len(), p));
                }
            }
        }
    }
    let mut best = None;
    largest_file(&scratch.0, &mut best);
    let (_, path) = best.expect("a populated store has artifacts");
    let vfs: std::sync::Arc<dyn Vfs> = StdVfs::arc();
    let rounds = if smoke() { 128 } else { 512 };
    let mut ratio = f64::INFINITY;
    for _ in 0..3 {
        let mut dyn_ns = Vec::with_capacity(rounds);
        let mut std_ns = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t = Instant::now();
            let a = vfs.read(&path).expect("dyn read");
            dyn_ns.push(t.elapsed().as_nanos() as f64);
            std::hint::black_box(a);
            let t = Instant::now();
            let b = fs::read(&path).expect("std read");
            std_ns.push(t.elapsed().as_nanos() as f64);
            std::hint::black_box(b);
        }
        ratio = ratio.min(median(&dyn_ns) / median(&std_ns).max(1.0));
    }
    ratio
}

/// One instrumented pass, summarized to `BENCH_batch.json` at the
/// workspace root: throughput, resume overhead, and store footprint.
fn emit_bench_json(_c: &mut Criterion) {
    let runs = if smoke() { 2 } else { 5 };
    let jobs = jobs();

    let mut cold_ms = Vec::new();
    for _ in 0..runs {
        let scratch = Scratch::new("json-cold");
        let start = Instant::now();
        run_batch(&scratch.supervisor(true), &jobs);
        cold_ms.push(ms(start));
    }

    let scratch = Scratch::new("json-warm");
    run_batch(&scratch.supervisor(true), &jobs);
    let store_bytes = scratch.store_bytes();
    let mut resume_ms = Vec::new();
    let mut restored_stages = 0usize;
    for _ in 0..runs {
        let start = Instant::now();
        let batch = scratch.supervisor(true).run_batch(&jobs);
        resume_ms.push(ms(start));
        assert_eq!(batch.exit_code, 0);
        restored_stages = batch.jobs.iter().map(|j| j.report.restored.len()).sum::<usize>();
        assert!(batch.jobs.iter().all(|j| j.report.outcome == JobOutcome::Ok));
    }

    let vfs_overhead = vfs_read_overhead_ratio(&scratch);

    let cold = median(&cold_ms);
    let warm = median(&resume_ms);
    let json = format!(
        "{{\n  \"mode\": \"{mode}\",\n  \"jobs\": {jobs},\n  \
         \"parallelism\": \"serial\",\n  \
         \"cold_batch_runs_ms\": [{cold_runs}],\n  \
         \"cold_batch_median_ms\": {cold:.3},\n  \
         \"cold_throughput_jobs_per_s\": {cold_tput:.2},\n  \
         \"resume_batch_runs_ms\": [{warm_runs}],\n  \
         \"resume_batch_median_ms\": {warm:.3},\n  \
         \"resume_speedup\": {speedup:.2},\n  \
         \"restored_stages_per_resume\": {restored},\n  \
         \"artifact_store_bytes\": {store_bytes},\n  \
         \"vfs_read_overhead_ratio\": {vfs_overhead:.4}\n}}\n",
        mode = if smoke() { "smoke" } else { "full" },
        jobs = jobs.len(),
        cold_runs = cold_ms.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(", "),
        warm_runs = resume_ms.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(", "),
        cold_tput = jobs.len() as f64 / (cold / 1e3),
        speedup = cold / warm.max(1e-6),
        restored = restored_stages,
    );
    let path = write_record("BENCH_batch.json", &json);
    println!("\nwrote {}:\n{json}", path.display());
    // The storage trait must stay free: one virtual dispatch against a
    // multi-microsecond syscall. Enforced in CI (smoke mode, release).
    if smoke() {
        assert!(
            vfs_overhead <= 1.02,
            "Vfs indirection costs {:.2}% on the warm-resume read path (budget: 2%)",
            (vfs_overhead - 1.0) * 100.0
        );
    }
}

criterion_group!(benches, bench_batch_cold, bench_batch_resume, emit_bench_json);
criterion_main!(benches);

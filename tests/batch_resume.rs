//! The resume contract of the supervised batch runtime: a job
//! interrupted at **any** stage boundary and then resumed — even under a
//! different thread count — produces a reconstruction bit-identical to
//! an uninterrupted run: hierarchy, distances as raw f64 bits,
//! diagnostics, coverage and the metrics document.
//!
//! Resume is the incremental mechanism: with
//! `SupervisorOptions::incremental` on, every stage boundary flushes the
//! corpus cache's new sub-artifacts, and a resumed job is a preload plus
//! a rerun. Also proven here: the stages that ran before the interrupt
//! really are answered by the tiers, not re-run — the resumed job's
//! report shows zero misses on every tier up to the interrupted stage.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rock::binary::image_to_bytes;
use rock::core::{suite, FaultPlan, Parallelism, Reconstruction, RockConfig, StageId};
use rock::supervisor::{
    ArtifactStore, JobOutcome, JobOutput, JobResult, StdVfs, Supervisor, SupervisorOptions, Vfs,
};
use rock::trace::names;

/// A scratch artifact-store root, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("rock-batch-resume-{tag}-{}", std::process::id()));
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

fn image_bytes() -> Vec<u8> {
    let bench = suite::stress_program(2, 2, 2);
    let compiled = bench.compile().expect("compiles");
    image_to_bytes(&compiled.stripped_image())
}

fn config(par: Parallelism) -> RockConfig {
    RockConfig::paper().with_parallelism(par)
}

fn options(incremental: bool) -> SupervisorOptions {
    SupervisorOptions { incremental, ..SupervisorOptions::default() }
}

/// A fresh supervisor over `store` — a new process, as far as the
/// corpus is concerned — that preloads the store and runs the job.
fn resume(par: Parallelism, store: ArtifactStore, bytes: &[u8]) -> JobResult {
    let sup = Supervisor::new(config(par), store, options(true));
    sup.preload_incremental();
    sup.run_job("job", bytes)
}

/// The uninterrupted reference: no store traffic, no corpus.
fn reference(bytes: &[u8]) -> Reconstruction {
    let scratch = Scratch::new("reference");
    let sup = Supervisor::new(config(Parallelism::Serial), scratch.store(), options(false));
    let result = sup.run_job("ref", bytes);
    assert_eq!(result.report.outcome, JobOutcome::Ok);
    full(result.output)
}

fn full(output: JobOutput) -> Reconstruction {
    match output {
        JobOutput::Full(recon) => *recon,
        other => panic!("expected a full reconstruction, got {other:?}"),
    }
}

/// The corpus tier that answers `stage`'s work.
fn tier_miss(stage: StageId) -> &'static str {
    match stage {
        StageId::Analysis => names::CORPUS_TRACELET_MISS,
        StageId::Training => names::CORPUS_SLM_MISS,
        StageId::Distances => names::CORPUS_DISTANCE_MISS,
        StageId::Lifting => names::CORPUS_LIFTING_MISS,
    }
}

/// Every tier up to and including `stage` answered the resumed job
/// without a single miss.
fn assert_no_misses_through(result: &JobResult, stage: StageId, what: &str) {
    for s in StageId::ALL.into_iter().take_while(|s| *s <= stage) {
        let misses = result.report.counters.counter(tier_miss(s));
        assert_eq!(misses, 0, "{what}: the {s} tier missed {misses} times");
    }
}

/// Bit-level equality: hierarchy, structural pins, every distance on raw
/// bits, diagnostics, coverage and the metrics document.
fn assert_bit_identical(a: &Reconstruction, b: &Reconstruction, what: &str) {
    assert_eq!(a.hierarchy, b.hierarchy, "{what}: hierarchy diverged");
    assert_eq!(a.distances.len(), b.distances.len(), "{what}: distance count diverged");
    for (key, d) in &a.distances {
        let other = b.distances.get(key).unwrap_or_else(|| panic!("{what}: missing edge {key:?}"));
        assert_eq!(d.to_bits(), other.to_bits(), "{what}: distance bits for {key:?}");
    }
    assert_eq!(a.structural.pinned(), b.structural.pinned(), "{what}: pins diverged");
    assert_eq!(a.diagnostics, b.diagnostics, "{what}: diagnostics diverged");
    assert_eq!(a.coverage, b.coverage, "{what}: coverage diverged");
    assert_eq!(a.metrics.to_json(), b.metrics.to_json(), "{what}: metrics document diverged");
}

const PARS: [Parallelism; 3] =
    [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(8)];

#[test]
fn interrupt_at_every_stage_then_resume_is_bit_identical() {
    let bytes = image_bytes();
    let reference = reference(&bytes);

    for stage in StageId::ALL {
        for par in PARS {
            let scratch = Scratch::new(&format!("{}-{par:?}", stage.name()));
            // Crash the job right after `stage`'s boundary flush.
            let sup = Supervisor::new(config(par), scratch.store(), options(true))
                .with_fault_plan(Arc::new(FaultPlan::new().interrupt_after(stage)));
            let crashed = sup.run_job("job", &bytes);
            assert_eq!(
                crashed.report.outcome,
                JobOutcome::Interrupted(stage),
                "interrupt after {stage:?} under {par:?}"
            );
            assert!(matches!(crashed.output, JobOutput::None), "a crash leaves no output");

            // Resume with no faults: the tiers answer every stage that ran.
            let resumed = resume(par, scratch.store(), &bytes);
            assert_eq!(resumed.report.outcome, JobOutcome::Ok, "resume after {stage:?}");
            let what = format!("interrupt@{stage:?} par={par:?}");
            assert_no_misses_through(&resumed, stage, &what);
            assert_bit_identical(&full(resumed.output), &reference, &what);
        }
    }
}

#[test]
fn resume_crosses_thread_counts() {
    // Interrupt under one parallelism, resume under another: no tier key
    // depends on the thread count, so the persisted entries transfer.
    let bytes = image_bytes();
    let reference = reference(&bytes);
    for (crash_par, resume_par) in [
        (Parallelism::Threads(8), Parallelism::Serial),
        (Parallelism::Serial, Parallelism::Threads(2)),
    ] {
        let scratch = Scratch::new("cross");
        let sup = Supervisor::new(config(crash_par), scratch.store(), options(true))
            .with_fault_plan(Arc::new(FaultPlan::new().interrupt_after(StageId::Training)));
        let crashed = sup.run_job("job", &bytes);
        assert_eq!(crashed.report.outcome, JobOutcome::Interrupted(StageId::Training));

        let resumed = resume(resume_par, scratch.store(), &bytes);
        assert_eq!(resumed.report.outcome, JobOutcome::Ok);
        let what = format!("crash={crash_par:?} resume={resume_par:?}");
        assert_no_misses_through(&resumed, StageId::Training, &what);
        assert_bit_identical(&full(resumed.output), &reference, &what);
    }
}

#[test]
fn restored_stages_skip_fault_injection() {
    // A resumed job re-executes no function: every symbolic execution
    // the interrupted job ran is answered by the tracelet tier. (Fault
    // hooks deliberately run before the cache, so a poisoned plan fires
    // on a resumed job exactly as on a cold one.)
    let bytes = image_bytes();
    let scratch = Scratch::new("no-reexecution");
    let sup = Supervisor::new(config(Parallelism::Serial), scratch.store(), options(true))
        .with_fault_plan(Arc::new(FaultPlan::new().interrupt_after(StageId::Analysis)));
    let crashed = sup.run_job("job", &bytes);
    assert_eq!(crashed.report.outcome, JobOutcome::Interrupted(StageId::Analysis));
    let executed = crashed.report.counters.counter(names::CORPUS_TRACELET_MISS);
    assert!(executed > 0, "the interrupted job executed its functions");

    let resumed = resume(Parallelism::Serial, scratch.store(), &bytes);
    assert_eq!(resumed.report.outcome, JobOutcome::Ok);
    assert_eq!(resumed.report.counters.counter(names::CORPUS_TRACELET_MISS), 0);
    assert_eq!(
        resumed.report.counters.counter(names::CORPUS_TRACELET_HIT),
        executed,
        "every execution the interrupted job ran is answered by the tier"
    );
    assert_eq!(resumed.report.errors, 0);
}

#[test]
fn a_second_uninterrupted_run_restores_everything() {
    let bytes = image_bytes();
    let scratch = Scratch::new("warm");
    let sup = Supervisor::new(config(Parallelism::Serial), scratch.store(), options(true));
    let first = sup.run_job("job", &bytes);
    assert_eq!(first.report.outcome, JobOutcome::Ok);
    assert!(first.report.counters.counter(names::INCR_FLUSHED) > 0, "the cold run persisted");

    // The same supervisor (its cache is warm) and a fresh one over the
    // store (preloaded) both answer every stage from the tiers.
    let again = sup.run_job("job", &bytes);
    let resumed = resume(Parallelism::Serial, scratch.store(), &bytes);
    let first = full(first.output);
    for (result, what) in [(again, "warm rerun"), (resumed, "preloaded rerun")] {
        assert_eq!(result.report.outcome, JobOutcome::Ok);
        assert_no_misses_through(&result, StageId::Lifting, what);
        assert_eq!(result.report.counters.counter(names::INCR_FLUSHED), 0, "{what}: nothing new");
        assert_bit_identical(&full(result.output), &first, what);
    }
}

/// The real filesystem, counting every storage call.
#[derive(Debug, Default)]
struct CountingVfs(AtomicU64);

impl CountingVfs {
    fn count(&self) -> StdVfs {
        self.0.fetch_add(1, Ordering::Relaxed);
        StdVfs
    }
}

impl Vfs for CountingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.count().read(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.count().write(path, data)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.count().rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.count().remove_file(path)
    }
    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.count().remove_dir_all(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.count().create_dir_all(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.count().list(dir)
    }
    fn is_dir(&self, path: &Path) -> bool {
        self.count().is_dir(path)
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.count().sync_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.count().sync_dir(dir)
    }
}

#[test]
fn resume_off_ignores_a_populated_store() {
    let bytes = image_bytes();
    let scratch = Scratch::new("cold");
    let sup = Supervisor::new(config(Parallelism::Serial), scratch.store(), options(true));
    assert_eq!(sup.run_job("job", &bytes).report.outcome, JobOutcome::Ok);

    // A supervisor without the option, over the populated store, makes
    // no storage call at all — neither for its jobs nor for a batch.
    let vfs = Arc::new(CountingVfs::default());
    let store = ArtifactStore::open_with(&scratch.0, vfs.clone(), false).unwrap();
    vfs.0.store(0, Ordering::Relaxed);
    let cold = Supervisor::new(config(Parallelism::Serial), store, options(false));
    let result = cold.run_job("job", &bytes);
    assert_eq!(result.report.outcome, JobOutcome::Ok);
    let batch = cold.run_batch(&[("job".to_string(), bytes.clone())]);
    assert_eq!(batch.exit_code, 0);
    assert!(batch.incr.is_none());
    assert_eq!(vfs.0.load(Ordering::Relaxed), 0, "the option off must not touch the store");
    assert!(cold.corpus().is_none(), "no option, no private corpus");
}

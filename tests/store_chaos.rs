//! Storage-chaos soak: the artifact store and its supervisors under a
//! seeded, deterministic [`FaultyVfs`] — torn writes, ENOSPC, transient
//! EIO, rename failures, partial reads, crash-shaped stale tmp files.
//! The invariants:
//!
//! 1. **Survival** — no injected storage fault panics a job or the
//!    serve daemon; every job ends in a typed exit code.
//! 2. **Self-healing** — `ArtifactStore::scrub` quarantines whatever
//!    the chaos left corrupt, and a fault-free rerun over the scrubbed
//!    store is bit-identical (hierarchy, raw distance bits, metrics
//!    doc bytes) to a run that never saw a fault — at `Serial` and
//!    `Threads(8)` alike.
//! 3. **Classification** — scrub counts each damage class (corrupt
//!    frame, orphaned tmp, unknown entry) exactly, and a resumed job
//!    recomputes only what was quarantined.
//! 4. **One plan, both lanes** — a `FaultPlan` that drives a
//!    supervisor's compute faults and its store's storage faults in the
//!    same runs leaves nothing wrong behind: a contained compute fault
//!    never persists a wrong sub-artifact.
//!
//! Seeds come from `ROCK_CHAOS_SEEDS` (`"a..b"` range or a comma list;
//! CI sweeps `0..16`), defaulting to a small smoke set.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use rock::binary::image_to_bytes;
use rock::core::{suite, CorpusCache, FaultPlan, Parallelism, Reconstruction, Rock, RockConfig};
use rock::serve::{result_fp, ServeClient, ServeConfig, Server};
use rock::supervisor::{
    decode_snapshot, exit, flush_subartifacts, preload_subartifacts, ArtifactStore, FaultyVfs,
    JobOutcome, JobOutput, JobResult, StdVfs, Supervisor, SupervisorOptions, Vfs, QUARANTINE_DIR,
};
use rock::trace::{names, MetricsRegistry};

/// A scratch artifact-store root, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("rock-store-chaos-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn store(&self) -> ArtifactStore {
        ArtifactStore::open(&self.0).unwrap()
    }

    fn chaos_store(&self, seed: u64, rate_per_mille: u32) -> ArtifactStore {
        self.plan_store(Arc::new(FaultPlan::seeded(seed, rate_per_mille)))
    }

    /// The store behind a [`FaultyVfs`] that faults where `plan`'s
    /// storage lanes say.
    fn plan_store(&self, plan: Arc<FaultPlan>) -> ArtifactStore {
        let vfs: Arc<dyn Vfs> = Arc::new(FaultyVfs::new(StdVfs::arc(), plan));
        ArtifactStore::open_with(&self.0, vfs, false)
            .expect("chaos open survives (create_dir retries or store root pre-exists)")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Seeds to sweep: `ROCK_CHAOS_SEEDS="0..16"` or `"1,5,9"`, else `0..4`.
fn seeds() -> Vec<u64> {
    let Ok(spec) = std::env::var("ROCK_CHAOS_SEEDS") else {
        return (0..4).collect();
    };
    if let Some((lo, hi)) = spec.split_once("..") {
        let lo: u64 = lo.trim().parse().expect("bad ROCK_CHAOS_SEEDS lower bound");
        let hi: u64 = hi.trim().parse().expect("bad ROCK_CHAOS_SEEDS upper bound");
        (lo..hi).collect()
    } else {
        spec.split(',').map(|s| s.trim().parse().expect("bad ROCK_CHAOS_SEEDS entry")).collect()
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

/// Stage-boundary flushes on: the one resume format.
fn options() -> SupervisorOptions {
    SupervisorOptions { incremental: true, ..SupervisorOptions::default() }
}

/// A fresh supervisor (a new process, as far as the corpus is
/// concerned) that preloads `store` and runs the job: one resume.
/// Returns the preload's counts beside the result.
fn resume(par: Parallelism, store: ArtifactStore, bytes: &[u8]) -> (MetricsRegistry, JobResult) {
    let sup = Supervisor::new(config(par), store, options());
    let preloaded = sup.preload_incremental();
    (preloaded, sup.run_job("job", bytes))
}

/// Every corpus tier answered the job without a miss.
fn assert_all_hits(result: &JobResult, what: &str) {
    for tier in [
        names::CORPUS_TRACELET_MISS,
        names::CORPUS_SLM_MISS,
        names::CORPUS_DISTANCE_MISS,
        names::CORPUS_LIFTING_MISS,
    ] {
        assert_eq!(result.report.counters.counter(tier), 0, "{what}: {tier}");
    }
}

fn full(output: JobOutput) -> Reconstruction {
    match output {
        JobOutput::Full(recon) => *recon,
        other => panic!("expected a full reconstruction, got {other:?}"),
    }
}

/// Bit-level equality: hierarchy, raw distance bits, pins, coverage.
fn assert_bit_identical(a: &Reconstruction, b: &Reconstruction, what: &str) {
    assert_eq!(a.hierarchy, b.hierarchy, "{what}: hierarchy diverged");
    assert_eq!(a.distances.len(), b.distances.len(), "{what}: distance count diverged");
    for (key, d) in &a.distances {
        let other = b.distances.get(key).unwrap_or_else(|| panic!("{what}: missing edge {key:?}"));
        assert_eq!(d.to_bits(), other.to_bits(), "{what}: distance bits for {key:?}");
    }
    assert_eq!(a.structural.pinned(), b.structural.pinned(), "{what}: pins diverged");
    assert_eq!(a.coverage, b.coverage, "{what}: coverage diverged");
}

/// Metrics-doc byte equality: warm runs report exactly what cold runs
/// do.
fn assert_metrics_identical(a: &Reconstruction, b: &Reconstruction, what: &str) {
    assert_eq!(
        a.metrics.to_json(),
        b.metrics.to_json(),
        "{what}: metrics doc diverged byte-for-byte"
    );
}

const TYPED_CODES: [u8; 6] = [
    exit::OK,
    exit::INTERRUPTED,
    exit::DEGRADED,
    exit::FAILED,
    exit::DEADLINE,
    exit::RESUME_CORRUPT,
];

// ---------------------------------------------------------------------
// The batch soak: chaos runs, scrub, fault-free rerun bit-identity
// ---------------------------------------------------------------------

#[test]
fn chaos_sweep_survives_scrubs_and_reruns_bit_identical() {
    let bytes = image_bytes();
    // The never-faulted reference, one per parallelism (metrics docs
    // legitimately record thread counts): a cold run followed by a
    // warm rerun every tier answers; the warm reconstruction is what a
    // repaired store's rerun must reproduce byte-for-byte.
    let warm_reference = |par: Parallelism| -> Reconstruction {
        let reference = Scratch::new(&format!("reference-{par:?}"));
        let sup = Supervisor::new(config(par), reference.store(), options());
        assert_eq!(sup.run_job("job", &bytes).report.outcome, JobOutcome::Ok);
        let (_, result) = resume(par, reference.store(), &bytes);
        assert_all_hits(&result, "reference warm rerun");
        full(result.output)
    };

    for par in [Parallelism::Serial, Parallelism::Threads(8)] {
        let warm_reference = warm_reference(par);
        for seed in seeds() {
            let scratch = Scratch::new(&format!("sweep-{seed}-{par:?}"));
            // Three supervised runs under the same chaos plan: the
            // first cold, the rest resuming whatever survived. Faults
            // land on different op sequence numbers each run, so
            // damage accumulates in different places.
            for round in 0..3 {
                let (_, result) = resume(par, scratch.chaos_store(seed, 120), &bytes);
                let code = result.report.exit_code();
                assert!(
                    TYPED_CODES.contains(&code),
                    "seed {seed} {par:?} round {round}: untyped exit code {code}"
                );
                // Storage faults degrade persistence, never the
                // reconstruction itself: a completed run still answers.
                assert_eq!(
                    result.report.outcome,
                    JobOutcome::Ok,
                    "seed {seed} {par:?} round {round}"
                );
                assert_bit_identical(
                    &full(result.output),
                    &warm_reference,
                    &format!("seed {seed} {par:?} round {round} live output"),
                );
            }

            // Heal: scrub on the real filesystem, then prove the store
            // is coherent — a fault-free rerun must reuse every entry it
            // finds and recompute the rest bit-identically.
            let report = scratch.store().scrub(false);
            assert_eq!(report.io_errors, 0, "seed {seed} {par:?}: scrub must finish clean");
            let rescrub = scratch.store().scrub(false);
            assert!(
                rescrub.is_clean(),
                "seed {seed} {par:?}: scrub must converge, got {:?}",
                rescrub.details
            );
            let (preloaded, result) = resume(par, scratch.store(), &bytes);
            assert_eq!(result.report.outcome, JobOutcome::Ok);
            assert_eq!(
                preloaded.counter(names::INCR_CORRUPT_SKIPPED),
                0,
                "seed {seed} {par:?}: scrub left corrupt sub-artifacts behind"
            );
            assert_bit_identical(
                &full(result.output),
                &warm_reference,
                &format!("seed {seed} {par:?} post-scrub rerun"),
            );
            // That rerun persisted whatever scrub quarantined, so one
            // more fault-free run is answered by every tier, and its
            // metrics doc matches the never-faulted one byte-for-byte.
            let (_, result) = resume(par, scratch.store(), &bytes);
            assert_all_hits(&result, &format!("seed {seed} {par:?} healed warm rerun"));
            let recon = full(result.output);
            let what = format!("seed {seed} {par:?} healed warm rerun");
            assert_bit_identical(&recon, &warm_reference, &what);
            assert_metrics_identical(&recon, &warm_reference, &what);
        }
    }
}

#[test]
fn one_plan_faults_compute_and_storage_and_the_store_heals_bit_identical() {
    // One FaultPlan per run, attached to the supervisor (its compute
    // lanes: analysis functions, parallel stage items) and handed to
    // the store's FaultyVfs (its storage lanes). Contained compute
    // faults degrade the run; what the run persisted must still be
    // right, so after a scrub a fault-free rerun reproduces the
    // never-faulted warm reference, and the rerun after it is answered
    // by every tier with the same metrics doc.
    let bytes = image_bytes();
    for par in [Parallelism::Serial, Parallelism::Threads(8)] {
        let reference = {
            let scratch = Scratch::new(&format!("one-plan-reference-{par:?}"));
            let sup = Supervisor::new(config(par), scratch.store(), options());
            assert_eq!(sup.run_job("job", &bytes).report.outcome, JobOutcome::Ok);
            let (_, result) = resume(par, scratch.store(), &bytes);
            assert_all_hits(&result, "reference warm rerun");
            full(result.output)
        };
        let mut degraded = 0;
        for seed in seeds() {
            let scratch = Scratch::new(&format!("one-plan-{seed}-{par:?}"));
            for round in 0..3u64 {
                let plan = Arc::new(FaultPlan::seeded(seed ^ round, 120));
                let store = scratch.plan_store(Arc::clone(&plan));
                let sup = Supervisor::new(config(par), store, options()).with_fault_plan(plan);
                sup.preload_incremental();
                let result = sup.run_job("job", &bytes);
                let code = result.report.exit_code();
                assert!(
                    TYPED_CODES.contains(&code),
                    "seed {seed} {par:?} round {round}: untyped exit code {code}"
                );
                degraded += usize::from(matches!(result.report.outcome, JobOutcome::Degraded(_)));
            }

            let report = scratch.store().scrub(false);
            assert_eq!(report.io_errors, 0, "seed {seed} {par:?}: scrub must finish clean");
            let rescrub = scratch.store().scrub(false);
            assert!(
                rescrub.is_clean(),
                "seed {seed} {par:?}: scrub must converge, got {:?}",
                rescrub.details
            );
            let (preloaded, result) = resume(par, scratch.store(), &bytes);
            assert_eq!(result.report.outcome, JobOutcome::Ok, "seed {seed} {par:?}");
            assert_eq!(preloaded.counter(names::INCR_CORRUPT_SKIPPED), 0, "seed {seed} {par:?}");
            let what = format!("seed {seed} {par:?} fault-free rerun");
            assert_bit_identical(&full(result.output), &reference, &what);
            let (_, result) = resume(par, scratch.store(), &bytes);
            let what = format!("seed {seed} {par:?} healed warm rerun");
            assert_all_hits(&result, &what);
            let recon = full(result.output);
            assert_bit_identical(&recon, &reference, &what);
            assert_metrics_identical(&recon, &reference, &what);
        }
        assert!(degraded > 0, "{par:?}: the plan's compute lanes never fired");
    }
}

#[test]
fn chaos_runs_report_store_activity_with_typed_incidents() {
    // At a high fault rate some stage-boundary flushes must fail; the
    // report carries the delta and typed incidents, never a panic.
    // Across seeds, at least one run must record store activity (rate
    // 350 over dozens of ops makes a totally quiet sweep implausible).
    let bytes = image_bytes();
    let mut any_activity = false;
    for seed in seeds() {
        let scratch = Scratch::new(&format!("incidents-{seed}"));
        let store = scratch.chaos_store(seed, 350);
        let sup = Supervisor::new(config(Parallelism::Serial), store, options());
        let result = sup.run_job("job", &bytes);
        assert!(TYPED_CODES.contains(&result.report.exit_code()));
        for incident in &result.report.store_incidents {
            assert_eq!(incident.kind(), "checkpoint_lost", "unknown incident kind");
            assert!(!incident.detail().is_empty());
        }
        let store: Vec<_> = result
            .report
            .counters
            .counters()
            .filter(|(name, _)| name.starts_with("store."))
            .collect();
        if !store.is_empty() {
            assert_eq!(store.len(), 8, "all eight store counters or none: {store:?}");
            any_activity |= store.iter().any(|&(_, v)| v > 0);
            let json = result.report.to_json();
            assert!(json.contains("\"store.write_retries\":"), "store delta must render: {json}");
        }
    }
    assert!(any_activity, "rate-350 chaos sweep never touched the store counters");
}

#[test]
fn per_job_counters_sum_to_the_cache_and_store_totals() {
    // Counter conservation over a run of jobs: the per-job deltas of a
    // shared corpus cache and a shared (chaotic) store add up exactly to
    // what the cache and the store counted. Two passes with the option
    // on, so every stage boundary flushes; repeated images make the
    // second pass and the repeats hit the cache. Jobs run one by one:
    // a batch's preload and final flush belong to no job.
    let jobs: Vec<(String, Vec<u8>)> =
        ["AntispyComplete", "cppcheck", "patl", "echoparams", "tinyxml", "patl", "echoparams"]
            .into_iter()
            .map(|name| {
                let compiled = suite::benchmark(name).expect("suite image").compile().unwrap();
                (name.to_string(), image_to_bytes(&compiled.stripped_image()))
            })
            .collect();
    for seed in seeds() {
        let scratch = Scratch::new(&format!("conservation-{seed}"));
        let store = scratch.chaos_store(seed, 350);
        let store0 = store.stats();
        let corpus = Arc::new(CorpusCache::new());
        let cfg = config(Parallelism::Serial).with_canonical_calls();
        let sup = Supervisor::new(cfg, store, options()).with_corpus(Arc::clone(&corpus));
        let mut sums = MetricsRegistry::new();
        for _pass in 0..2 {
            for (name, bytes) in &jobs {
                sums.merge_from(&sup.run_job(name, bytes).report.counters);
            }
        }
        let cache = corpus.stats();
        for (name, total) in cache.counters() {
            assert_eq!(sums.counter(name), total, "seed {seed}: {name} not conserved");
        }
        assert!(cache.counter(names::CORPUS_TRACELET_HIT) > 0, "seed {seed}: repeats must hit");
        let store = sup.store().stats().since(&store0);
        for (name, total) in store.counters() {
            assert_eq!(sums.counter(name), total, "seed {seed}: {name} not conserved");
        }
        // Every flush at rate 350 meets some fault, so few (or no) flush
        // commits whole; the jobs' flushes must still have landed files.
        assert!(sums.counter(names::INCR_FLUSHED) > 0, "seed {seed}: flushes wrote nothing");
    }
}

// ---------------------------------------------------------------------
// The serve soak: chaos + drain/restart cycles, then a scrubbed rerun
// ---------------------------------------------------------------------

#[test]
fn serve_chaos_drain_restart_then_scrubbed_rerun_matches_fault_free_fp() {
    let image = image_bytes();
    // Fault-free daemon: the reference fingerprint.
    let reference_fp = {
        let scratch = Scratch::new("serve-ref");
        let mut cfg = ServeConfig::new(&scratch.0);
        cfg.poll_ms = 2;
        cfg.workers = 2;
        let server = Server::bind(cfg, "127.0.0.1:0").expect("bind");
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        let mut c = ServeClient::connect(addr, "ref").unwrap();
        let job = match c.submit("job", 0, &image).unwrap() {
            rock::serve::wire::Response::Accepted { job } => job,
            other => panic!("expected Accepted, got {other:?}"),
        };
        let state = c.wait(job, 10, 120_000).unwrap();
        let fp = match state {
            rock::serve::wire::JobState::Done { exit_code, result_fp, .. } => {
                assert_eq!(exit_code, exit::OK);
                result_fp
            }
            other => panic!("expected Done, got {other:?}"),
        };
        handle.drain();
        join.join().unwrap().unwrap();
        fp
    };
    assert_ne!(reference_fp, result_fp(&JobOutput::None), "reference produced a real result");

    for seed in seeds() {
        let scratch = Scratch::new(&format!("serve-chaos-{seed}"));
        // Two drain/restart cycles over the same chaotic store: every
        // admitted job must reach a typed terminal state each cycle.
        for cycle in 0..2u32 {
            let vfs: Arc<dyn Vfs> = Arc::new(FaultyVfs::new(
                StdVfs::arc(),
                Arc::new(FaultPlan::seeded(seed ^ u64::from(cycle), 120)),
            ));
            let mut cfg = ServeConfig::new(&scratch.0);
            cfg.poll_ms = 2;
            cfg.workers = 2;
            cfg.vfs = Some(vfs);
            let server = Server::bind(cfg, "127.0.0.1:0").expect("bind survives chaos");
            let addr = server.local_addr().unwrap();
            let handle = server.handle();
            let join = std::thread::spawn(move || server.run());
            let mut c = ServeClient::connect_with_retry(addr, "chaos", 3).unwrap();
            let mut jobs = Vec::new();
            for j in 0..3 {
                if let rock::serve::wire::Response::Accepted { job } =
                    c.submit(&format!("job-{j}"), 0, &image).unwrap()
                {
                    jobs.push(job);
                }
            }
            for job in jobs {
                match c.wait(job, 10, 120_000).unwrap() {
                    rock::serve::wire::JobState::Done { exit_code, .. } => {
                        assert!(
                            TYPED_CODES.contains(&exit_code),
                            "seed {seed} cycle {cycle}: untyped exit {exit_code}"
                        );
                    }
                    other => panic!("seed {seed} cycle {cycle}: non-terminal {other:?}"),
                }
            }
            handle.drain();
            let summary = join.join().unwrap().expect("daemon survives storage chaos");
            assert_eq!(summary.panics_contained, 0, "storage faults must not panic jobs");
        }

        // Heal the store, restart fault-free, and demand the reference
        // result back — the chaos must leave no observable residue.
        let report = scratch.store().scrub(false);
        assert_eq!(report.io_errors, 0);
        let mut cfg = ServeConfig::new(&scratch.0);
        cfg.poll_ms = 2;
        let server = Server::bind(cfg, "127.0.0.1:0").expect("bind");
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        let mut c = ServeClient::connect(addr, "verify").unwrap();
        let job = match c.submit("job-0", 0, &image).unwrap() {
            rock::serve::wire::Response::Accepted { job } => job,
            other => panic!("expected Accepted, got {other:?}"),
        };
        match c.wait(job, 10, 120_000).unwrap() {
            rock::serve::wire::JobState::Done { exit_code, result_fp: fp, .. } => {
                assert_eq!(exit_code, exit::OK, "seed {seed}: post-scrub job not clean");
                assert_eq!(fp, reference_fp, "seed {seed}: post-scrub fp diverged");
            }
            other => panic!("seed {seed}: non-terminal {other:?}"),
        }
        handle.drain();
        join.join().unwrap().unwrap();
    }
}

// ---------------------------------------------------------------------
// Scrub classification: one of each damage class, counted exactly
// ---------------------------------------------------------------------

/// The segment files under `<root>/sub/`, sorted.
fn segment_files(root: &std::path::Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(root.join("sub"))
        .map(|d| d.map(|e| e.unwrap().path()).collect())
        .unwrap_or_default();
    files.retain(|f| f.extension().is_some_and(|x| x == "pack"));
    files.sort();
    files
}

/// Where each frame of a segment file lies, as `(offset, len)`, in
/// order; the walk stops where the framing breaks (a torn tail).
fn frame_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let word = |at: usize| {
        let b = bytes.get(at..at + 8)?;
        Some(u64::from_le_bytes(b.try_into().unwrap()) as usize)
    };
    let (mut spans, mut at) = (Vec::new(), 8);
    while let Some(count) = word(at) {
        at += 8;
        for _ in 0..count {
            let Some(len) = word(at).filter(|len| at + 8 + len <= bytes.len()) else {
                return spans;
            };
            spans.push((at + 8, len));
            at += 8 + len;
        }
        at += 8; // the segment checksum
    }
    spans
}

/// Flips the middle byte of frame `index` of a segment file, so that
/// frame fails its checksum and no other does.
fn rot_frame(file: &std::path::Path, index: usize) {
    let mut bytes = fs::read(file).unwrap();
    let (at, len) = frame_spans(&bytes)[index];
    bytes[at + len / 2] ^= 0xFF;
    fs::write(file, &bytes).unwrap();
}

/// The segment file and frame index holding the first entry of `tier`.
fn frame_of_tier(root: &std::path::Path, tier: rock::core::SubTier) -> (PathBuf, usize) {
    segment_files(root)
        .into_iter()
        .find_map(|file| {
            let entries = decode_snapshot(&fs::read(&file).unwrap()).expect("intact segment");
            let index = entries.iter().position(|(t, ..)| *t == tier)?;
            Some((file, index))
        })
        .expect("a segment holds the tier")
}

#[test]
fn scrub_classifies_damage_and_resume_recomputes_only_the_quarantined_stage() {
    let bytes = image_bytes();
    let scratch = Scratch::new("classify");
    let (reference, persisted) = {
        let sup = Supervisor::new(config(Parallelism::Serial), scratch.store(), options());
        let result = sup.run_job("job", &bytes);
        assert_eq!(result.report.outcome, JobOutcome::Ok);
        (full(result.output), result.report.counters.counter(names::INCR_FLUSHED) as usize)
    };
    // One handle for the whole drill: re-opening would itself sweep
    // tmp files (that behavior gets its own test below), stealing the
    // scrub's count.
    let store = scratch.store();

    // Damage class 1: flip one byte of the lifting-tier frame — its
    // checksum breaks, scrub must quarantine its segment file.
    let (corrupt_path, index) = frame_of_tier(&scratch.0, rock::core::SubTier::Lifting);
    rot_frame(&corrupt_path, index);
    // Damage class 2: an orphaned tmp file from a phantom crash.
    let sub_dir = scratch.0.join("sub");
    let tmp = sub_dir.join(".000000000000002a.pack.tmp");
    fs::write(&tmp, b"half a segment").unwrap();
    // Damage class 3: an unknown entry no segment is named as.
    let alien = sub_dir.join("bogus.bin");
    fs::write(&alien, b"who wrote this").unwrap();

    // Dry run counts without touching anything.
    let dry = store.scrub(true);
    assert!(dry.dry_run);
    assert_eq!(
        (dry.corrupt_quarantined, dry.tmp_swept, dry.unknown_quarantined, dry.io_errors),
        (1, 1, 1, 0),
        "dry-run misclassified: {:?}",
        dry.details
    );
    assert!(corrupt_path.exists() && tmp.exists() && alien.exists(), "dry run must not move files");

    let report = store.scrub(false);
    assert_eq!(report.artifacts_ok, (persisted - 1) as u64);
    assert_eq!(
        (
            report.corrupt_quarantined,
            report.tmp_swept,
            report.unknown_quarantined,
            report.io_errors
        ),
        (1, 1, 1, 0),
        "scrub misclassified: {:?}",
        report.details
    );
    assert!(!report.is_clean());
    assert!(!corrupt_path.exists(), "the corrupt segment must be moved out of sub/");
    assert!(!tmp.exists() && !alien.exists());
    assert!(
        scratch.0.join(QUARANTINE_DIR).is_dir(),
        "quarantined files land under {QUARANTINE_DIR}"
    );
    assert!(store.scrub(false).is_clean(), "scrub converges");

    // Resume over the healed store: the three intact stages are answered
    // by their tiers; only the quarantined lifting entry is recomputed —
    // and the result is bit-identical to the never-damaged run.
    let (preloaded, result) = resume(Parallelism::Serial, scratch.store(), &bytes);
    assert_eq!(result.report.outcome, JobOutcome::Ok);
    assert_eq!(preloaded.counter(names::INCR_PRELOADED), (persisted - 1) as u64);
    assert_eq!(preloaded.counter(names::INCR_CORRUPT_SKIPPED), 0, "scrub removed the damage");
    let c = &result.report.counters;
    assert_eq!(
        [
            c.counter(names::CORPUS_TRACELET_MISS),
            c.counter(names::CORPUS_SLM_MISS),
            c.counter(names::CORPUS_DISTANCE_MISS),
            c.counter(names::CORPUS_LIFTING_MISS),
        ],
        [0, 0, 0, 1],
        "only the quarantined entry recomputes"
    );
    assert_bit_identical(&full(result.output), &reference, "post-scrub resume");
}

// ---------------------------------------------------------------------
// Stale-tmp leak: crashes strand tmps; open sweeps them
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// The incremental lane: chaos-faulted sub-artifacts degrade to
// recompute (never stale reuse), and scrub quarantines a corrupt
// function-level artifact without invalidating its tier siblings
// ---------------------------------------------------------------------

fn delta_config(par: Parallelism) -> RockConfig {
    // Position-independent function keys require canonical calls.
    RockConfig::paper().with_parallelism(par).with_canonical_calls()
}

fn delta_images() -> (rock::loader::LoadedBinary, rock::loader::LoadedBinary) {
    let base_spec = suite::delta_spec(3, 5, 5);
    let mut edited_spec = base_spec.clone();
    suite::apply_delta(
        &mut edited_spec,
        suite::DeltaEdit::EditBody { family: 1, class: 4, method: 0 },
    );
    let load = |spec: &suite::DeltaSpec| {
        let compiled = suite::delta_program(spec).compile().expect("compiles");
        rock::loader::LoadedBinary::load(compiled.stripped_image()).expect("loads")
    };
    (load(&base_spec), load(&edited_spec))
}

fn reconstruct(
    loaded: &rock::loader::LoadedBinary,
    cache: Option<&Arc<CorpusCache>>,
) -> Reconstruction {
    let rock = Rock::new(delta_config(Parallelism::Serial));
    match cache {
        Some(c) => rock.with_corpus_cache(Arc::clone(c)).reconstruct(loaded),
        None => rock.reconstruct(loaded),
    }
}

/// Everything a run reports, byte for byte (both sides are full cold
/// pipelines, so even the metrics doc must match).
fn assert_run_identical(cold: &Reconstruction, warm: &Reconstruction, what: &str) {
    assert_bit_identical(cold, warm, what);
    assert_eq!(cold.diagnostics, warm.diagnostics, "{what}: diagnostics diverged");
    assert_metrics_identical(cold, warm, what);
}

#[test]
fn chaos_faulted_subartifacts_degrade_to_recompute_never_stale_reuse() {
    let (base, edited) = delta_images();
    let cold = reconstruct(&edited, None);
    for seed in seeds() {
        let scratch = Scratch::new(&format!("incr-chaos-{seed}"));
        // Flush the base image's sub-artifacts through a faulty vfs:
        // torn writes, ENOSPC, rename failures. Failures are counted,
        // never thrown.
        let populate = Arc::new(CorpusCache::new());
        reconstruct(&base, Some(&populate));
        let flushed = flush_subartifacts(&scratch.chaos_store(seed, 200), &populate);
        assert!(
            flushed.counter(names::INCR_FLUSHED) + flushed.counter(names::INCR_IO_ERRORS) > 0,
            "seed {seed}: the flush must have attempted work"
        );

        // Bit-rot whatever landed: flip a byte in every third frame.
        let (mut landed, mut rotted) = (0u64, 0u64);
        for file in segment_files(&scratch.0) {
            let frames = frame_spans(&fs::read(&file).unwrap()).len();
            landed += frames as u64;
            for index in (0..frames).step_by(3) {
                rot_frame(&file, index);
                rotted += 1;
            }
        }

        // Preload through a *different* chaos plan (partial reads,
        // transient EIO): damaged or unreadable artifacts are skipped
        // and counted; whatever survives is trusted because it proved
        // its own key. The flush wrote one file, so a persistent fault
        // on the listing or on that one read leaves the whole file
        // unread: counted as an i/o error, and nothing imported.
        let warm_cache = Arc::new(CorpusCache::new());
        let preloaded = preload_subartifacts(&scratch.chaos_store(seed ^ 0xF00D, 200), &warm_cache);
        if rotted > 0 {
            let (corrupt, unread) = (
                preloaded.counter(names::INCR_CORRUPT_SKIPPED),
                preloaded.counter(names::INCR_IO_ERRORS),
            );
            assert!(
                corrupt > 0 || unread > 0,
                "seed {seed}: {rotted} rotted frames must be detected, not imported"
            );
            assert!(
                preloaded.counter(names::INCR_PRELOADED) + rotted <= landed,
                "seed {seed}: a rotted frame was imported: {preloaded:?}"
            );
        }

        // The patched run over the mangled store: degraded reuse at
        // worst, bit-identical always.
        let warm = reconstruct(&edited, Some(&warm_cache));
        assert_run_identical(&cold, &warm, &format!("seed {seed} chaos incremental"));

        // And the store heals: scrub quarantines the rot and converges.
        let report = scratch.store().scrub(false);
        assert_eq!(report.io_errors, 0, "seed {seed}: scrub must finish clean");
        assert!(scratch.store().scrub(false).is_clean(), "seed {seed}: scrub must converge");
    }
}

#[test]
fn scrub_quarantines_corrupt_subartifact_without_invalidating_siblings() {
    let (base, edited) = delta_images();
    let scratch = Scratch::new("incr-quarantine");
    let populate = Arc::new(CorpusCache::new());
    reconstruct(&base, Some(&populate));
    let flushed = flush_subartifacts(&scratch.store(), &populate);
    assert!(flushed.counter(names::INCR_FLUSHED) > 2, "need siblings to prove isolation");
    assert_eq!(flushed.counter(names::INCR_IO_ERRORS), 0);

    // Corrupt exactly one function-level (exec tier) artifact: a frame
    // in the middle of the one segment the flush wrote.
    let [victim] = &segment_files(&scratch.0)[..] else { panic!("one flush, one segment") };
    let victim = victim.clone();
    let entries = decode_snapshot(&fs::read(&victim).unwrap()).unwrap();
    let execs: Vec<usize> =
        (0..entries.len()).filter(|&i| entries[i].0 == rock::core::SubTier::Exec).collect();
    assert!(execs.len() > 1, "the exec tier needs siblings");
    let rotted = execs[execs.len() / 2];
    rot_frame(&victim, rotted);

    // Dry run classifies without touching; the real scrub quarantines
    // the victim's file and writes every sibling back.
    let dry = scratch.store().scrub(true);
    assert_eq!(dry.corrupt_quarantined, 1, "dry-run misclassified: {:?}", dry.details);
    assert!(victim.exists(), "dry run must not move files");
    let report = scratch.store().scrub(false);
    assert_eq!(report.corrupt_quarantined, 1, "scrub misclassified: {:?}", report.details);
    assert_eq!(
        report.artifacts_ok,
        flushed.counter(names::INCR_FLUSHED) - 1,
        "every sibling must verify"
    );
    assert!(!victim.exists(), "the corrupt segment must be quarantined");
    let quarantined: Vec<_> = fs::read_dir(scratch.0.join(QUARANTINE_DIR))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let victim_name = victim.file_name().unwrap().to_string_lossy();
    assert_eq!(quarantined, [format!("sub.{victim_name}")], "moved whole, under its name");
    let [healed] = &segment_files(&scratch.0)[..] else { panic!("one segment written back") };
    let kept = decode_snapshot(&fs::read(healed).unwrap()).unwrap();
    let mut siblings = entries.clone();
    siblings.remove(rotted);
    assert_eq!(kept, siblings, "every sibling survives the scrub, in order");
    assert!(scratch.store().scrub(false).is_clean(), "scrub converges");

    // The healed store preloads everything but the victim, and the
    // patched run is still bit-identical to cold.
    let warm_cache = Arc::new(CorpusCache::new());
    let preloaded = preload_subartifacts(&scratch.store(), &warm_cache);
    assert_eq!(preloaded.counter(names::INCR_PRELOADED), flushed.counter(names::INCR_FLUSHED) - 1);
    assert_eq!(
        preloaded.counter(names::INCR_CORRUPT_SKIPPED),
        0,
        "scrub already removed the damage"
    );
    let cold = reconstruct(&edited, None);
    let warm = reconstruct(&edited, Some(&warm_cache));
    assert_run_identical(&cold, &warm, "post-quarantine incremental run");
    let s = warm_cache.stats();
    assert!(s.counter(names::CORPUS_TRACELET_HIT) > 0, "surviving siblings must still be reused");
}

#[test]
fn open_sweeps_stale_tmp_files_and_counts_them() {
    let bytes = image_bytes();
    let scratch = Scratch::new("tmp-sweep");
    {
        let sup = Supervisor::new(config(Parallelism::Serial), scratch.store(), options());
        assert_eq!(sup.run_job("job", &bytes).report.outcome, JobOutcome::Ok);
    }
    let sub = scratch.0.join("sub");
    let stranded = [sub.join(".000000000000002a.pack.tmp"), sub.join(".000000000000002b.pack.tmp")];
    for tmp in &stranded {
        fs::write(tmp, b"stranded").unwrap();
    }

    let store = scratch.store(); // open() sweeps
    assert_eq!(store.stats().counter(names::STORE_TMP_SWEPT), 2, "open must sweep stale tmp files");
    assert!(stranded.iter().all(|tmp| !tmp.exists()));
    // The segments are untouched and answer a rerun in full.
    let (_, result) = resume(Parallelism::Serial, store, &bytes);
    assert_all_hits(&result, "rerun after the sweep");
}

//! The supervised job runner: watchdog deadline, retry ladder,
//! persistence at stage boundaries, and per-job reports.
//!
//! One *job* is one binary image to reconstruct. The supervisor drives
//! the staged pipeline ([`rock_core::StagedRun`]) and wraps it in
//! policy:
//!
//! * **Checkpointing** — with [`SupervisorOptions::incremental`] on,
//!   every completed stage boundary flushes the corpus cache's new
//!   sub-artifacts to the [`ArtifactStore`] ([`crate::incr`]). Resume is
//!   then the same mechanism as incremental reuse: a batch (or a daemon)
//!   preloads the store, and the rerun's content-addressed tier lookups
//!   answer every stage that already ran. The tiers return bit for bit
//!   what recomputation would, so an interrupted-then-resumed job equals
//!   an uninterrupted one.
//! * **Watchdog** — an optional per-job wall-clock deadline, checked
//!   cooperatively at stage boundaries. A blown deadline does not kill
//!   the job: it short-circuits to the structural-only fallback.
//! * **Retry ladder** — a faulting attempt is retried down the
//!   [`Rung`] ladder under the [`rock_budget::RetryPolicy`]'s backoff
//!   schedule. The schedule is *recorded*, and only slept when
//!   [`SupervisorOptions::sleep_backoff`] is set, which keeps every
//!   test of the retry logic clock-free.
//! * **Graceful floor** — if the ladder is exhausted the job still
//!   emits a structural-only hierarchy with diagnostics; a loadable
//!   image never produces an empty result.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use rock_binary::{image_from_bytes, Addr};
use rock_budget::{Deadline, RetryPolicy};
use rock_core::{CorpusCache, FaultPlan, Reconstruction, Rock, RockConfig, Severity, StageId};
use rock_graph::Forest;
use rock_loader::LoadedBinary;
use rock_structural::Structural;
use rock_trace::{
    json_escape, names, panic_message, MetricsRegistry, TraceCtx, TraceLevel, Tracer,
};

use crate::artifact::{content_key, ArtifactStore};
use crate::incr::{flush_subartifacts, preload_subartifacts};
use crate::ladder::{structural_only_hierarchy, Rung};

/// Typed process exit codes for supervised runs (documented in the
/// README; the CLI maps a batch to the numerically largest per-job
/// code, raised to [`exit::RESUME_CORRUPT`] when the batch's preload
/// skipped a corrupt sub-artifact, so the worst condition wins).
pub mod exit {
    /// Every job completed at full strength with complete coverage.
    pub const OK: u8 = 0;
    /// A job was interrupted at a stage boundary (fault injection).
    pub const INTERRUPTED: u8 = 1;
    /// A job completed, but degraded: a lower ladder rung, contained
    /// faults, or incomplete coverage.
    pub const DEGRADED: u8 = 2;
    /// A job failed outright: unloadable image, or strict mode hit an
    /// error-severity diagnostic.
    pub const FAILED: u8 = 3;
    /// A job blew its wall-clock deadline (structural fallback emitted).
    pub const DEADLINE: u8 = 4;
    /// The batch's preload skipped a corrupt sub-artifact
    /// (`incr.corrupt_skipped` > 0). Whichever job asked for the entry
    /// recomputed it; the damage is still surfaced. Batch-level only.
    pub const RESUME_CORRUPT: u8 = 5;
}

/// Supervision policy, orthogonal to the reconstruction config.
#[derive(Clone, Debug, Default)]
pub struct SupervisorOptions {
    /// Retry count + backoff curve for the ladder's middle rungs.
    pub retry: RetryPolicy,
    /// Per-job wall-clock deadline in milliseconds (`None`: no watchdog).
    pub deadline_ms: Option<u64>,
    /// Actually sleep the backoff delays. Off by default so retry
    /// behavior is testable without a wall clock; the schedule is
    /// recorded in the report either way.
    pub sleep_backoff: bool,
    /// Abort the batch after this many hard failures (code ≥ 3).
    pub max_failures: Option<usize>,
    /// Merge the run's own metrics registry into each job report's
    /// metrics document (`rock batch --metrics`). Without it the
    /// document holds only the job's operational counters
    /// ([`JobReport::counters`]). The pipeline computes its registry
    /// either way; this only controls report size.
    pub collect_metrics: bool,
    /// Persist the corpus cache's sub-artifacts across processes (see
    /// [`crate::incr`]): every job flushes what it added at each stage
    /// boundary, as one segment file per flush that added something,
    /// and [`Supervisor::run_batch`] preloads the store before its
    /// first job. An interrupted job then resumes as a
    /// preload plus a rerun the tiers answer, and a patched image
    /// recomputes only what its edit touched. [`Supervisor::new`]
    /// attaches a private unbounded [`CorpusCache`] when none is
    /// attached. Off, the supervisor never reads or writes the store.
    pub incremental: bool,
}

/// How one job ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Full-strength success with complete coverage.
    Ok,
    /// Interrupted at a stage boundary by the fault plan (the simulated
    /// crash of the resume tests; with [`SupervisorOptions::incremental`]
    /// the sub-artifacts up to the boundary are on disk).
    Interrupted(StageId),
    /// Completed, but on a lower rung and/or with contained faults.
    Degraded(Rung),
    /// No result: unloadable image or a strict-mode failure.
    Failed(String),
    /// The watchdog fired; the structural-only fallback was emitted.
    DeadlineBlown,
}

impl JobOutcome {
    /// Stable lowercase name (reports).
    pub fn name(&self) -> &'static str {
        match self {
            JobOutcome::Ok => "ok",
            JobOutcome::Interrupted(_) => "interrupted",
            JobOutcome::Degraded(_) => "degraded",
            JobOutcome::Failed(_) => "failed",
            JobOutcome::DeadlineBlown => "deadline",
        }
    }

    /// The exit-code contribution of this outcome.
    pub fn code(&self) -> u8 {
        match self {
            JobOutcome::Ok => exit::OK,
            JobOutcome::Interrupted(_) => exit::INTERRUPTED,
            JobOutcome::Degraded(_) => exit::DEGRADED,
            JobOutcome::Failed(_) => exit::FAILED,
            JobOutcome::DeadlineBlown => exit::DEADLINE,
        }
    }
}

impl fmt::Display for JobOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobOutcome::Interrupted(s) => write!(f, "interrupted after {s}"),
            JobOutcome::Degraded(r) => write!(f, "degraded ({r})"),
            JobOutcome::Failed(why) => write!(f, "failed: {why}"),
            _ => f.write_str(self.name()),
        }
    }
}

/// A typed storage incident recorded in a job report.
///
/// Incidents ride in the *report* only — never in pipeline diagnostics,
/// which must stay bit-identical between warm and cold runs. The store
/// has already retried transient faults internally by the time one of
/// these is recorded, so every incident reflects a persistent fault and
/// the graceful degradation that answered it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreIncident {
    /// A stage-boundary flush met a persistent i/o error; the
    /// supervisor degraded the job to recompute-without-checkpointing
    /// (its later flushes are skipped, the job itself runs to
    /// completion). The entries it could not write went back to the
    /// cache for the batch's final flush or the daemon's drain flush.
    CheckpointLost {
        /// The stage whose boundary flush failed.
        stage: StageId,
        /// What failed.
        detail: String,
    },
}

impl StoreIncident {
    /// Stable lowercase kind name (reports).
    pub fn kind(&self) -> &'static str {
        match self {
            StoreIncident::CheckpointLost { .. } => "checkpoint_lost",
        }
    }

    /// The underlying error text.
    pub fn detail(&self) -> &str {
        match self {
            StoreIncident::CheckpointLost { detail, .. } => detail,
        }
    }
}

/// One ladder attempt, as recorded in the report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttemptRecord {
    /// The rung this attempt ran on.
    pub rung: Rung,
    /// The backoff delay scheduled before this attempt (recorded even
    /// when `sleep_backoff` is off).
    pub backoff_ms: u64,
    /// What happened ("ok", "panicked: ...", "deadline", ...).
    pub result: String,
}

/// The machine-readable summary of one supervised job.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Job name (usually the image file stem).
    pub name: String,
    /// Content key of the image under the full-strength configuration.
    pub key: u64,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Every attempt, in order, including the fallback if it ran.
    pub attempts: Vec<AttemptRecord>,
    /// Error-severity diagnostics in the final result.
    pub errors: usize,
    /// Warning-severity diagnostics in the final result.
    pub warnings: usize,
    /// Types in the emitted hierarchy.
    pub types: usize,
    /// Roots in the emitted hierarchy.
    pub roots: usize,
    /// Wall-clock time spent on the job.
    pub elapsed_ms: u64,
    /// The job's versioned metrics document: [`JobReport::counters`],
    /// merged into the pipeline's own registry when
    /// [`SupervisorOptions::collect_metrics`] is set. Work counts only —
    /// no wall-clock values. `None` only for an unloadable image.
    pub metrics: Option<String>,
    /// The job's operational counters: three `supervisor.*` counts
    /// (attempts, checkpoints saved, backoff); all eleven `corpus.*`
    /// deltas when the supervisor has a [`CorpusCache`] attached; its
    /// flushes' `incr.flushed` and `incr.io_errors` with
    /// [`SupervisorOptions::incremental`]; and all eight `store.*`
    /// fault-path deltas when one fired or an incident was recorded
    /// (healthy runs on a healthy disk omit them). Deltas against a cache
    /// or store shared by concurrent jobs (serve) are approximate.
    pub counters: MetricsRegistry,
    /// Typed storage incidents (persistent faults) this job absorbed.
    pub store_incidents: Vec<StoreIncident>,
}

impl JobReport {
    /// A fresh report for job `name`: outcome ok, nothing recorded yet,
    /// and the three `supervisor.*` counters at zero (every report
    /// carries them).
    fn new(name: &str, key: u64) -> JobReport {
        let mut counters = MetricsRegistry::new();
        for name in [
            names::SUPERVISOR_ATTEMPTS,
            names::SUPERVISOR_CHECKPOINTS_SAVED,
            names::SUPERVISOR_BACKOFF_MS,
        ] {
            counters.set(name, 0);
        }
        JobReport {
            name: name.to_string(),
            key,
            outcome: JobOutcome::Ok,
            attempts: Vec::new(),
            errors: 0,
            warnings: 0,
            types: 0,
            roots: 0,
            elapsed_ms: 0,
            metrics: None,
            counters,
            store_incidents: Vec::new(),
        }
    }

    /// Folds the job's artifact-store delta into
    /// [`JobReport::counters`], as all eight `store.*` counters, when a
    /// fault path fired (a skipped save counts) or an incident was
    /// recorded. Healthy runs on a healthy disk stay unchanged
    /// byte-for-byte.
    fn attach_store_delta(&mut self, delta: &MetricsRegistry) {
        let skipped = self.counters.counter(names::STORE_CHECKPOINTS_SKIPPED);
        if skipped > 0 || delta.counters().any(|(_, v)| v > 0) || !self.store_incidents.is_empty() {
            self.counters.merge_from(delta);
            self.counters.set(names::STORE_CHECKPOINTS_SKIPPED, skipped);
        }
    }

    /// The job's process exit code: its outcome's code.
    pub fn exit_code(&self) -> u8 {
        self.outcome.code()
    }

    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"name\":\"{}\",", json_escape(&self.name)));
        s.push_str(&format!("\"key\":\"{:016x}\",", self.key));
        s.push_str(&format!("\"outcome\":\"{}\",", self.outcome.name()));
        if let JobOutcome::Degraded(rung) = &self.outcome {
            s.push_str(&format!("\"rung\":\"{rung}\","));
        }
        if let JobOutcome::Failed(why) = &self.outcome {
            s.push_str(&format!("\"reason\":\"{}\",", json_escape(why)));
        }
        if let JobOutcome::Interrupted(stage) = &self.outcome {
            s.push_str(&format!("\"interrupted_after\":\"{stage}\","));
        }
        s.push_str(&format!("\"exit_code\":{},", self.exit_code()));
        s.push_str("\"attempts\":[");
        for (i, a) in self.attempts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"rung\":\"{}\",\"backoff_ms\":{},\"result\":\"{}\"}}",
                a.rung,
                a.backoff_ms,
                json_escape(&a.result)
            ));
        }
        s.push_str("],");
        s.push_str(&format!("\"errors\":{},", self.errors));
        s.push_str(&format!("\"warnings\":{},", self.warnings));
        s.push_str(&format!("\"types\":{},", self.types));
        s.push_str(&format!("\"roots\":{},", self.roots));
        if let Some(doc) = &self.metrics {
            // Already a rendered JSON object; embed it verbatim.
            s.push_str(&format!("\"metrics\":{doc},"));
        }
        if !self.store_incidents.is_empty() {
            s.push_str("\"store_incidents\":[");
            for (i, inc) in self.store_incidents.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let StoreIncident::CheckpointLost { stage, detail } = inc;
                s.push_str(&format!(
                    "{{\"kind\":\"{}\",\"stage\":\"{stage}\",\"detail\":\"{}\"}}",
                    inc.kind(),
                    json_escape(detail)
                ));
            }
            s.push_str("],");
        }
        s.push_str(&format!("\"elapsed_ms\":{}", self.elapsed_ms));
        s.push('}');
        s
    }
}

/// What a job actually produced.
#[derive(Clone, Debug)]
pub enum JobOutput {
    /// The full pipeline result (possibly from a reduced rung).
    Full(Box<Reconstruction>),
    /// The bottom-rung fallback: hierarchy + structural facts + the
    /// issues that forced the degradation.
    StructuralOnly {
        /// The structurally-determined hierarchy.
        hierarchy: Forest<Addr>,
        /// The structural analysis it was read from.
        structural: Structural,
        /// Rendered diagnostics: load issues + failed-attempt records.
        issues: Vec<String>,
    },
    /// Nothing: the image did not load, strict mode failed the run, or
    /// the run was interrupted.
    None,
}

impl JobOutput {
    /// The emitted hierarchy, if any.
    pub fn hierarchy(&self) -> Option<&Forest<Addr>> {
        match self {
            JobOutput::Full(r) => Some(&r.hierarchy),
            JobOutput::StructuralOnly { hierarchy, .. } => Some(hierarchy),
            JobOutput::None => None,
        }
    }
}

/// Report plus output for one job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The machine-readable summary.
    pub report: JobReport,
    /// The reconstruction (or fallback) itself.
    pub output: JobOutput,
}

/// The outcome of a whole batch.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Per-job results, in submission order (prefix only if aborted).
    pub jobs: Vec<JobResult>,
    /// Numerically largest per-job exit code (0 for an empty batch),
    /// raised to [`exit::RESUME_CORRUPT`] when the preload skipped a
    /// corrupt sub-artifact.
    pub exit_code: u8,
    /// `Some(n)`: the batch stopped after `n` jobs because
    /// [`SupervisorOptions::max_failures`] tripped.
    pub aborted_after: Option<usize>,
    /// The batch's `incr.*` counts, present when
    /// [`SupervisorOptions::incremental`] was on: the preload's, every
    /// job's stage-boundary flushes (`incr.flushed`, `incr.io_errors`),
    /// and the final flush's.
    pub incr: Option<MetricsRegistry>,
}

/// Drives supervised reconstructions against one artifact store.
pub struct Supervisor {
    config: RockConfig,
    options: SupervisorOptions,
    store: ArtifactStore,
    corpus: Option<Arc<CorpusCache>>,
    fault: Option<Arc<FaultPlan>>,
    tracer: Option<Arc<Tracer>>,
    trace_level: TraceLevel,
}

enum AttemptOutcome {
    Completed(Box<Reconstruction>),
    Strict(String),
    Interrupted(StageId),
    Deadline,
    Panicked(String),
}

/// One job's stage-boundary flushes, across all of its attempts.
#[derive(Default)]
struct Checkpoints {
    /// A flush met an i/o error: the job's remaining flushes are skipped.
    disabled: bool,
    saved: u64,
    skipped: u64,
    flushed: u64,
    io_errors: u64,
    incidents: Vec<StoreIncident>,
}

impl Supervisor {
    /// A supervisor reconstructing under `config` over `store`. With
    /// [`SupervisorOptions::incremental`] on it attaches a private
    /// unbounded [`CorpusCache`] ([`Supervisor::with_corpus`] replaces
    /// it).
    pub fn new(config: RockConfig, store: ArtifactStore, options: SupervisorOptions) -> Self {
        let corpus = options.incremental.then(|| Arc::new(CorpusCache::new()));
        Supervisor {
            config,
            options,
            store,
            corpus,
            fault: None,
            tracer: None,
            trace_level: TraceLevel::default(),
        }
    }

    /// Attaches a fleet-wide [`CorpusCache`]: every attempt of every job
    /// reads and warms the shared four-tier store, and each report
    /// carries the job's hit/miss deltas. Pair with
    /// [`RockConfig::with_canonical_calls`] so content keys survive
    /// layout differences between the batch's images.
    pub fn with_corpus(mut self, corpus: Arc<CorpusCache>) -> Self {
        self.corpus = Some(corpus);
        self
    }

    /// The attached corpus cache, if any.
    pub fn corpus(&self) -> Option<&Arc<CorpusCache>> {
        self.corpus.as_ref()
    }

    /// Attaches a span [`Tracer`]: every job records `supervisor.*`
    /// spans (job, attempts, stage-boundary flushes, backoff waits) and
    /// the pipeline's stage/item spans into it, filtered through the
    /// level set by [`Supervisor::with_trace_level`] ([`TraceLevel::Full`]
    /// by default).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Sets the [`TraceLevel`] for this supervisor *and* the pipelines it
    /// drives. `supervisor.*` spans are coarse, so they survive every
    /// enabled level; only the pipeline's per-item spans are sampled away.
    pub fn with_trace_level(mut self, level: TraceLevel) -> Self {
        self.trace_level = level;
        self
    }

    /// The span-recording context at this supervisor's level.
    fn trace_ctx(&self) -> TraceCtx<'_> {
        match self.tracer.as_deref() {
            Some(t) => TraceCtx::with_level(t, self.trace_level),
            None => TraceCtx::disabled(),
        }
    }

    /// Attaches a fault plan (tests: injected panics + stage
    /// interrupts). The plan reaches the pipeline *and* the
    /// supervisor's interrupt checks.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The artifact store this supervisor persists into.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// The canonical (full-rung) content key of an image under this
    /// supervisor's config.
    pub fn job_key(&self, image_bytes: &[u8]) -> u64 {
        content_key(image_bytes, &Rung::Full.apply(&self.config))
    }

    /// Runs one job to a report + output. Never panics; never returns
    /// an empty output for a loadable image unless the run is strict,
    /// failed, or interrupted. With [`SupervisorOptions::incremental`]
    /// its last flush is the one at its last stage boundary (or, with
    /// `repartition_families`, after `finish`).
    pub fn run_job(&self, name: &str, image_bytes: &[u8]) -> JobResult {
        let start = Instant::now();
        let key = self.job_key(image_bytes);
        let ctx = self.trace_ctx();
        let _job_span = ctx.span(names::SUPERVISOR_JOB, key);
        let corpus0 = self.corpus.as_ref().map(|c| c.stats());
        let store0 = self.store.stats();
        let mut report = JobReport::new(name, key);
        let image = match image_from_bytes(image_bytes) {
            Ok(image) => image,
            Err(e) => {
                report.outcome = JobOutcome::Failed(format!("unloadable image: {e}"));
                report.errors = 1;
                report.elapsed_ms = start.elapsed().as_millis() as u64;
                return JobResult { report, output: JobOutput::None };
            }
        };
        let loaded = LoadedBinary::load_lenient(image);
        let deadline = Deadline::from_config(self.options.deadline_ms);
        let mut checkpoints = Checkpoints::default();

        let mut fall_through_to_fallback = false;
        let mut output = JobOutput::None;
        let total_attempts = 1 + self.options.retry.max_retries();
        let mut attempt = 0u32;
        loop {
            if attempt >= total_attempts {
                fall_through_to_fallback = true;
                break;
            }
            let rung = if attempt == 0 { Rung::Full } else { Rung::Reduced };
            let backoff_ms =
                if attempt == 0 { 0 } else { self.options.retry.backoff_ms(attempt - 1) };
            if backoff_ms > 0 {
                report.counters.add(names::SUPERVISOR_BACKOFF_MS, backoff_ms);
                let _backoff_span = ctx.span(names::SUPERVISOR_BACKOFF, backoff_ms);
                if self.options.sleep_backoff {
                    std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                }
            }
            if deadline.expired() {
                report.attempts.push(AttemptRecord { rung, backoff_ms, result: "deadline".into() });
                report.outcome = JobOutcome::DeadlineBlown;
                fall_through_to_fallback = true;
                break;
            }
            match self.attempt(attempt, rung, &loaded, &deadline, &mut checkpoints) {
                AttemptOutcome::Completed(recon) => {
                    report.attempts.push(AttemptRecord { rung, backoff_ms, result: "ok".into() });
                    report.errors = count_severity(&recon, Severity::Error);
                    report.warnings = count_severity(&recon, Severity::Warning);
                    report.types = recon.hierarchy.len();
                    report.roots = recon.hierarchy.roots().len();
                    report.outcome =
                        if rung == Rung::Full && report.errors == 0 && recon.coverage.is_complete()
                        {
                            JobOutcome::Ok
                        } else {
                            JobOutcome::Degraded(rung)
                        };
                    output = JobOutput::Full(recon);
                    break;
                }
                AttemptOutcome::Strict(why) => {
                    report.attempts.push(AttemptRecord {
                        rung,
                        backoff_ms,
                        result: format!("strict: {why}"),
                    });
                    // Strict failures are deterministic — retrying or
                    // degrading would betray the mode's contract.
                    report.outcome = JobOutcome::Failed(why);
                    report.errors = 1;
                    break;
                }
                AttemptOutcome::Interrupted(stage) => {
                    report.attempts.push(AttemptRecord {
                        rung,
                        backoff_ms,
                        result: format!("interrupted after {stage}"),
                    });
                    report.outcome = JobOutcome::Interrupted(stage);
                    break;
                }
                AttemptOutcome::Deadline => {
                    report.attempts.push(AttemptRecord {
                        rung,
                        backoff_ms,
                        result: "deadline".into(),
                    });
                    report.outcome = JobOutcome::DeadlineBlown;
                    fall_through_to_fallback = true;
                    break;
                }
                AttemptOutcome::Panicked(msg) => {
                    report.attempts.push(AttemptRecord {
                        rung,
                        backoff_ms,
                        result: format!("panicked: {msg}"),
                    });
                    attempt += 1;
                }
            }
        }

        if fall_through_to_fallback {
            // The graceful floor: no deadline check, no faults, no
            // retries — a loadable image always yields a hierarchy.
            let (hierarchy, structural) = structural_only_hierarchy(&loaded, &self.config.analysis);
            let mut issues: Vec<String> = loaded.issues().iter().map(|i| i.to_string()).collect();
            issues.extend(
                report
                    .attempts
                    .iter()
                    .filter(|a| a.result != "ok")
                    .map(|a| format!("attempt on rung {}: {}", a.rung, a.result)),
            );
            report.attempts.push(AttemptRecord {
                rung: Rung::StructuralOnly,
                backoff_ms: 0,
                result: "ok".into(),
            });
            if report.outcome != JobOutcome::DeadlineBlown {
                report.outcome = JobOutcome::Degraded(Rung::StructuralOnly);
            }
            report.errors = issues.len();
            report.types = hierarchy.len();
            report.roots = hierarchy.roots().len();
            output = JobOutput::StructuralOnly { hierarchy, structural, issues };
        }

        report.counters.set(names::SUPERVISOR_ATTEMPTS, report.attempts.len() as u64);
        report.counters.set(names::SUPERVISOR_CHECKPOINTS_SAVED, checkpoints.saved);
        if checkpoints.skipped > 0 {
            report.counters.set(names::STORE_CHECKPOINTS_SKIPPED, checkpoints.skipped);
        }
        if self.options.incremental {
            report.counters.set(names::INCR_FLUSHED, checkpoints.flushed);
            report.counters.set(names::INCR_IO_ERRORS, checkpoints.io_errors);
        }
        report.store_incidents = checkpoints.incidents;
        // The job's corpus-tier traffic: a delta against the shared
        // cache's counters at job start, kept out of the pipeline's own
        // registry so cold and warm runs stay byte-identical there.
        if let (Some(corpus), Some(corpus0)) = (&self.corpus, &corpus0) {
            report.counters.merge_from(&corpus.stats().since(corpus0));
        }
        report.attach_store_delta(&self.store.stats().since(&store0));
        report.metrics = Some(match &output {
            JobOutput::Full(recon) if self.options.collect_metrics => {
                let mut metrics = recon.metrics.clone();
                metrics.merge_from(&report.counters);
                metrics.to_json()
            }
            _ => report.counters.to_json(),
        });
        report.elapsed_ms = start.elapsed().as_millis() as u64;
        JobResult { report, output }
    }

    /// Restores persisted sub-artifacts into the attached corpus cache
    /// (no-op without one). Idempotent; call before running jobs.
    /// Traced as `supervisor.preload`; returns its `incr.*` counts.
    pub fn preload_incremental(&self) -> MetricsRegistry {
        let ctx = self.trace_ctx();
        let _span = ctx.span(names::SUPERVISOR_PRELOAD, 0);
        match &self.corpus {
            Some(corpus) => preload_subartifacts(&self.store, corpus),
            None => MetricsRegistry::new(),
        }
    }

    /// Writes the sub-artifacts the attached corpus cache added since
    /// its last preload or flush to the store, as one segment file
    /// (no-op without a cache). It costs what was added, not what the
    /// store holds: entries already persisted count as `unchanged` and
    /// are not touched, and a flush that adds nothing makes no storage
    /// call. Traced as `supervisor.flush`; returns its `incr.*` counts.
    pub fn flush_incremental(&self) -> MetricsRegistry {
        let ctx = self.trace_ctx();
        let _span = ctx.span(names::SUPERVISOR_FLUSH, 0);
        match &self.corpus {
            Some(corpus) => flush_subartifacts(&self.store, corpus),
            None => MetricsRegistry::new(),
        }
    }

    /// Runs a batch of `(name, image bytes)` jobs sequentially. With
    /// [`SupervisorOptions::incremental`] set, sub-artifacts are
    /// preloaded before the first job, every job flushes at its stage
    /// boundaries, and a final flush after the last job persists what a
    /// failed job flush handed back (even when the batch aborts early —
    /// completed work stays persisted; with nothing handed back it
    /// makes no storage call). A preload that skipped a corrupt
    /// sub-artifact raises the batch's exit code to
    /// [`exit::RESUME_CORRUPT`].
    pub fn run_batch(&self, jobs: &[(String, Vec<u8>)]) -> BatchResult {
        let incr0 = self.options.incremental.then(|| self.preload_incremental());
        let mut results = Vec::new();
        let mut failures = 0usize;
        let mut aborted_after = None;
        for (i, (name, bytes)) in jobs.iter().enumerate() {
            let r = self.run_job(name, bytes);
            if r.report.exit_code() >= exit::FAILED {
                failures += 1;
            }
            results.push(r);
            if let Some(max) = self.options.max_failures {
                if failures >= max && i + 1 < jobs.len() {
                    aborted_after = Some(i + 1);
                    break;
                }
            }
        }
        let incr = incr0.map(|mut incr| {
            for r in &results {
                for name in [names::INCR_FLUSHED, names::INCR_IO_ERRORS] {
                    incr.add(name, r.report.counters.counter(name));
                }
            }
            incr.merge_from(&self.flush_incremental());
            incr
        });
        let mut exit_code = results.iter().map(|r| r.report.exit_code()).max().unwrap_or(exit::OK);
        if incr.as_ref().is_some_and(|i| i.counter(names::INCR_CORRUPT_SKIPPED) > 0) {
            exit_code = exit_code.max(exit::RESUME_CORRUPT);
        }
        BatchResult { jobs: results, exit_code, aborted_after, incr }
    }

    /// One pipeline attempt on `rung`: advance every stage, flush at
    /// each stage boundary, honor interrupt directives and the
    /// watchdog. After `finish` it flushes once more only when
    /// repartition may have added distance entries. Panics are
    /// contained and reported, never propagated.
    fn attempt(
        &self,
        attempt: u32,
        rung: Rung,
        loaded: &LoadedBinary,
        deadline: &Deadline,
        checkpoints: &mut Checkpoints,
    ) -> AttemptOutcome {
        let ctx = self.trace_ctx();
        let _attempt_span = ctx.span(names::SUPERVISOR_ATTEMPT, attempt as u64);
        let mut rock = Rock::new(rung.apply(&self.config)).with_trace_level(self.trace_level);
        if let Some(corpus) = &self.corpus {
            rock = rock.with_corpus_cache(corpus.clone());
        }
        if let Some(plan) = &self.fault {
            rock = rock.with_fault_plan(plan.clone());
        }
        if let Some(tracer) = &self.tracer {
            rock = rock.with_tracer(tracer.clone());
        }
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if self.fault.as_ref().is_some_and(|p| p.should_fail_attempt(attempt)) {
                panic!("injected attempt fault");
            }
            let mut run = rock.begin(loaded);
            loop {
                if deadline.expired() {
                    return AttemptOutcome::Deadline;
                }
                match run.advance() {
                    Err(e) => return AttemptOutcome::Strict(e.to_string()),
                    Ok(None) => break,
                    Ok(Some(stage)) => {
                        self.checkpoint(stage, checkpoints);
                        if self.fault.as_ref().is_some_and(|p| p.should_interrupt_after(stage)) {
                            return AttemptOutcome::Interrupted(stage);
                        }
                    }
                }
            }
            let recon = run.finish();
            if rock.config().repartition_families {
                self.checkpoint(StageId::Lifting, checkpoints);
            }
            AttemptOutcome::Completed(Box::new(recon))
        }));
        match caught {
            Ok(outcome) => outcome,
            Err(payload) => AttemptOutcome::Panicked(panic_message(&*payload)),
        }
    }

    /// Flushes what the corpus cache added since the last flush, at the
    /// boundary after `stage` (with [`SupervisorOptions::incremental`]
    /// only). A failed flush must not fail the job: the stage already
    /// ran, only persistence is lost. The store retried transient
    /// faults, so an i/o error here is persistent — the job degrades to
    /// recompute-without-checkpointing instead of hammering a broken
    /// disk at every boundary.
    fn checkpoint(&self, stage: StageId, checkpoints: &mut Checkpoints) {
        let Some(corpus) = self.corpus.as_ref().filter(|_| self.options.incremental) else {
            return;
        };
        if checkpoints.disabled {
            checkpoints.skipped += 1;
            return;
        }
        let _span = self.trace_ctx().span(names::SUPERVISOR_CHECKPOINT, stage as u64);
        let flushed = flush_subartifacts(&self.store, corpus);
        let io_errors = flushed.counter(names::INCR_IO_ERRORS);
        checkpoints.flushed += flushed.counter(names::INCR_FLUSHED);
        checkpoints.io_errors += io_errors;
        if io_errors == 0 {
            checkpoints.saved += 1;
        } else {
            checkpoints.disabled = true;
            checkpoints.incidents.push(StoreIncident::CheckpointLost {
                stage,
                detail: format!("{io_errors} sub-artifact i/o error(s) at the {stage} boundary"),
            });
        }
    }
}

fn count_severity(recon: &Reconstruction, severity: Severity) -> usize {
    recon.diagnostics.iter().filter(|e| e.severity == severity).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_ordered_by_badness() {
        let codes = [
            JobOutcome::Ok.code(),
            JobOutcome::Interrupted(StageId::Analysis).code(),
            JobOutcome::Degraded(Rung::Reduced).code(),
            JobOutcome::Failed("x".into()).code(),
            JobOutcome::DeadlineBlown.code(),
        ];
        assert_eq!(codes, [0, 1, 2, 3, 4]);
        let mut sorted = codes;
        sorted.sort_unstable();
        assert_eq!(sorted, codes, "worse outcomes have larger codes");
        assert_eq!(exit::RESUME_CORRUPT, 5);
    }

    #[test]
    fn report_json_is_escaped_and_structured() {
        let mut report = JobReport::new("a\"b\\c\nd", 0xAB);
        report.outcome = JobOutcome::Failed("strict \"quote\"".into());
        report.attempts.push(AttemptRecord {
            rung: Rung::Full,
            backoff_ms: 0,
            result: "strict: boom".into(),
        });
        (report.errors, report.warnings, report.types, report.roots) = (1, 2, 3, 1);
        report.elapsed_ms = 7;
        let json = report.to_json();
        assert!(json.contains("\"name\":\"a\\\"b\\\\c\\nd\""));
        assert!(json.contains("\"key\":\"00000000000000ab\""));
        assert!(json.contains("\"outcome\":\"failed\""));
        assert!(json.contains("\"reason\":\"strict \\\"quote\\\"\""));
        assert!(json.contains("\"exit_code\":3"));
        assert!(!json.contains("\"restored\"") && !json.contains("resume_corrupt"), "{json}");
        assert!(json.contains("\"backoff_ms\":0"));
        assert!(!json.contains("\"metrics\""), "no document, no key: {json}");
        // The metrics document embeds verbatim, with no separate
        // corpus or store objects beside it.
        report.metrics = Some(report.counters.to_json());
        let json = report.to_json();
        assert!(
            json.contains("\"metrics\":{\"version\":1,\"counters\":{\"supervisor.attempts\":0,"),
            "{json}"
        );
        assert!(!json.contains("\"corpus\"") && !json.contains("\"store\""), "{json}");
        assert!(!json.contains('\n'), "single-line record");
    }

    #[test]
    fn store_sections_render_only_when_present() {
        let store_keys = |report: &JobReport| {
            report.counters.counters().filter(|(name, _)| name.starts_with("store.")).count()
        };
        let mut delta = MetricsRegistry::new();
        delta.set(names::STORE_TMP_SWEPT, 0);
        delta.set(names::STORE_WRITE_RETRIES, 0);
        let mut report = JobReport::new("j", 1);
        report.attach_store_delta(&delta);
        assert_eq!(store_keys(&report), 0, "healthy reports stay unchanged");
        // A skipped save alone is a fired fault path.
        let mut skipped = JobReport::new("j", 1);
        skipped.counters.add(names::STORE_CHECKPOINTS_SKIPPED, 3);
        skipped.attach_store_delta(&delta);
        assert_eq!(store_keys(&skipped), 3);
        assert_eq!(skipped.counters.counter(names::STORE_CHECKPOINTS_SKIPPED), 3);

        delta.set(names::STORE_WRITE_RETRIES, 2);
        report.store_incidents.push(StoreIncident::CheckpointLost {
            stage: StageId::Training,
            detail: "disk \"full\"".into(),
        });
        report.attach_store_delta(&delta);
        report.metrics = Some(report.counters.to_json());
        let json = report.to_json();
        assert!(json.contains("\"store.checkpoints_skipped\":0,"), "{json}");
        assert!(json.contains("\"store.tmp_swept\":0,\"store.write_retries\":2,"), "{json}");
        assert!(
            json.contains("{\"kind\":\"checkpoint_lost\",\"stage\":\"training\",\"detail\":\"disk \\\"full\\\"\"}"),
            "{json}"
        );
    }

    #[test]
    fn panic_payloads_render_as_text() {
        let e = catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(&*e), "static str");
        let e = catch_unwind(|| panic!("{}", String::from("owned"))).unwrap_err();
        assert_eq!(panic_message(&*e), "owned");
        let e = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(&*e), "opaque panic payload");
    }
}

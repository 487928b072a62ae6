//! The versioned on-disk artifact store for stage checkpoints.
//!
//! Every completed pipeline stage of a supervised job is snapshotted to
//! one file, so an interrupted run resumes from the last completed stage
//! instead of restarting:
//!
//! ```text
//! <root>/<key:016x>/<stage>.art
//! ```
//!
//! `key` is a *content hash*: FNV-1a over the job's image bytes plus a
//! fingerprint of every reconstruction-relevant config knob (see
//! [`content_key`]). Changing the binary or any knob that affects the
//! output silently lands the job in a fresh directory — stale artifacts
//! are never mixed into a run, and invalidation needs no bookkeeping.
//! Parallelism is deliberately *excluded* from the fingerprint: the
//! pipeline is deterministic across thread counts, so a run interrupted
//! under `Threads(8)` may resume under `Serial` (and vice versa) and
//! still produce bit-identical output.
//!
//! Each file is framed as:
//!
//! ```text
//! magic "ROCKART\x01" | stage tag u8 | content key u64 | payload len u64
//! | payload | FNV-1a checksum u64 (over everything before it)
//! ```
//!
//! Decoding is fully defensive: bad magic, a stage/key mismatch, a
//! truncated payload, or a checksum failure all surface as
//! [`StoreError::Corrupt`] — the supervisor reacts by wiping the job
//! directory and recomputing, never by trusting a damaged artifact.
//! Writes go through a temp file + atomic rename, so a crash mid-write
//! leaves either the old artifact or none, not a torn one.
//!
//! All filesystem traffic goes through a [`Vfs`] handle ([`StdVfs`] in
//! production, `FaultyVfs` under chaos testing). The store classifies
//! i/o faults with [`crate::vfs::is_transient`]: transient faults get a
//! bounded clock-free retry (schedule from [`RetryPolicy`], counted in
//! the `store.*` counters of [`ArtifactStore::stats`], slept only when
//! `sleep_backoff` is set); persistent faults surface to the caller,
//! which degrades instead of spinning.
//! In `durable` mode the tmp file is fsynced before the rename and the
//! parent directory after it, so a committed checkpoint survives power
//! loss; the default skips both fsyncs (honest benchmarks, and a lost
//! checkpoint merely recomputes). Opening a store sweeps orphaned
//! `.art.tmp` files left by crashes, and [`ArtifactStore::scrub`]
//! deep-verifies every artifact, quarantining what cannot be trusted.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use rock_analysis::{Analysis, CtorMap, Event, IncidentKind, TypeTracelets};
use rock_binary::Addr;
use rock_budget::RetryPolicy;
use rock_core::{Coverage, FaultKind, RockConfig, Severity, Stage, StageError, StageId, Subject};
use rock_graph::Forest;
use rock_slm::Metric;
use rock_trace::{names, MetricsRegistry};

use crate::vfs::{is_transient, StdVfs, Vfs};
use crate::wire::{fnv1a, Reader, WireError, Writer};

/// The 8-byte file magic; the trailing byte is the format version.
pub const MAGIC: &[u8; 8] = b"ROCKART\x02";

/// Bumps invalidate every existing artifact (the magic encodes it).
/// v2: the config fingerprint gained `canonical_calls` — canonical and
/// address-keyed runs of the same image must never share artifacts.
pub const FORMAT_VERSION: u8 = 2;

/// One stage's checkpointed output plus the observability snapshot
/// (cumulative diagnostics + coverage) at that stage's boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Stage output.
    pub payload: StagePayload,
    /// Every diagnostic recorded up to and including this stage.
    pub diagnostics: Vec<StageError>,
    /// Coverage accumulated up to and including this stage.
    pub coverage: Coverage,
}

/// The per-stage artifact payloads.
///
/// Training pins only *which* types trained — SLMs are re-derived
/// deterministically from the analysis artifact on restore, which keeps
/// the store small and sidesteps serializing the model internals.
#[derive(Clone, Debug, PartialEq)]
pub enum StagePayload {
    /// Behavioral analysis: tracelets + ctors + incidents.
    Analysis(Analysis),
    /// Addresses of the types whose SLM trained successfully.
    Training(Vec<Addr>),
    /// Scored candidate edges: `(parent, child) -> divergence`.
    Distances(BTreeMap<(Addr, Addr), f64>),
    /// The lifted hierarchy.
    Hierarchy(Forest<Addr>),
}

impl StagePayload {
    /// The stage this payload belongs to.
    pub fn stage(&self) -> StageId {
        match self {
            StagePayload::Analysis(_) => StageId::Analysis,
            StagePayload::Training(_) => StageId::Training,
            StagePayload::Distances(_) => StageId::Distances,
            StagePayload::Hierarchy(_) => StageId::Lifting,
        }
    }
}

/// Why the store could not produce an artifact.
#[derive(Debug)]
pub enum StoreError {
    /// The filesystem failed underneath the store.
    Io(io::Error),
    /// An artifact file exists but cannot be trusted.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What check failed.
        why: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "artifact store i/o: {e}"),
            StoreError::Corrupt { path, why } => {
                write!(f, "corrupt artifact {}: {why}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The *image-level* content-hashed cache key for one (image, config)
/// job.
///
/// FNV-1a over the raw image bytes followed by a fingerprint of every
/// config knob that can change reconstruction output. `parallelism` is
/// excluded on purpose (see the module docs); `strict` is *included*
/// because it changes which runs complete at all.
///
/// This key is deliberately coarse: any byte of the image changing —
/// even a shift that leaves every function body identical — lands the
/// job in a fresh directory. *Function-level* reuse is handled one
/// layer down by the incremental sub-artifact store (see
/// [`crate::incr`]), whose keys are derived from position-independent
/// Weisfeiler-Lehman content labels of each function body rather than
/// from image bytes, so byte-identical functions at shifted addresses
/// still hit.
pub fn content_key(image_bytes: &[u8], config: &RockConfig) -> u64 {
    let fingerprint = config_fingerprint(config);
    let mut all = Vec::with_capacity(image_bytes.len() + fingerprint.len());
    all.extend_from_slice(image_bytes);
    all.extend_from_slice(&fingerprint);
    fnv1a(&all)
}

/// The serialized fingerprint of every reconstruction-relevant config
/// knob, shared by the image-level [`content_key`] and by anything else
/// that must partition cached state by configuration.
pub fn config_fingerprint(config: &RockConfig) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(FORMAT_VERSION);
    w.len(config.analysis.tracelet_len);
    w.len(config.analysis.max_paths);
    w.len(config.analysis.block_visit_limit);
    w.len(config.analysis.max_events_per_object);
    w.len(config.analysis.slm_depth);
    w.u64(config.analysis.fuel.limit());
    match config.analysis.deadline_ms {
        Some(ms) => {
            w.u8(1);
            w.u64(ms);
        }
        None => w.u8(0),
    }
    w.u8(match config.metric {
        Metric::KlDivergence => 0,
        Metric::JsDivergence => 1,
        Metric::JsDistance => 2,
    });
    w.u8(config.resolve_ties as u8);
    w.f64_bits(config.tie_epsilon);
    w.len(config.max_tie_variants);
    w.u8(config.repartition_families as u8);
    w.u8(config.strict as u8);
    w.u8(config.canonical_calls as u8);
    w.into_bytes()
}

/// The fault-path counters behind [`ArtifactStore::stats`], shared by
/// every clone of a store.
#[derive(Debug, Default)]
struct StatsCell {
    tmp_swept: AtomicU64,
    write_retries: AtomicU64,
    write_failures: AtomicU64,
    read_retries: AtomicU64,
    read_failures: AtomicU64,
    corrupt_detected: AtomicU64,
    retry_backoff_ms: AtomicU64,
}

/// The snapshot-pack bytes a store last verified at preload or last
/// wrote (`None`: no verified pack), shared by every clone of the
/// store. Holding its lock serialises pack writes — and with them whole
/// flushes — across the daemon's workers (see [`crate::incr`]).
#[derive(Default)]
struct PackCell(Mutex<Option<Vec<u8>>>);

impl fmt::Debug for PackCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PackCell")
    }
}

/// Which counter lane a retried operation charges.
#[derive(Clone, Copy)]
pub(crate) enum OpClass {
    Read,
    Write,
}

/// The subdirectory scrub moves untrusted files into.
pub const QUARANTINE_DIR: &str = ".quarantine";

/// The subdirectory holding incremental sub-artifacts (one tier
/// directory per [`rock_core::SubTier`]; see [`crate::incr`]).
pub const SUB_DIR: &str = "sub";

/// A directory of per-job, per-stage checkpoint artifacts.
///
/// Cloning is cheap and shares the [`Vfs`] handle and fault counters;
/// the serve daemon opens one store at bind time and clones it per job.
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    vfs: Arc<dyn Vfs>,
    durable: bool,
    sleep_backoff: bool,
    retry: RetryPolicy,
    stats: Arc<StatsCell>,
    pack: Arc<PackCell>,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `root`, on the real
    /// filesystem, without durability fsyncs. Orphaned `.art.tmp` files
    /// from earlier crashes are swept (best-effort) before use.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with(root, StdVfs::arc(), false)
    }

    /// Opens a store on an explicit [`Vfs`] with an explicit durability
    /// mode. `durable` makes every save fsync the artifact before its
    /// commit rename and the job directory after it — a committed
    /// checkpoint then survives power loss, at real fsync cost per
    /// stage; without it a torn commit merely recomputes one stage.
    pub fn open_with(
        root: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
        durable: bool,
    ) -> io::Result<Self> {
        let store = ArtifactStore {
            root: root.into(),
            vfs,
            durable,
            sleep_backoff: false,
            // Store retries are cheap whole-file reruns: short fuse,
            // short (recorded, not slept) backoff curve.
            retry: RetryPolicy::new(3).with_backoff(10, 160),
            stats: Arc::new(StatsCell::default()),
            pack: Arc::default(),
        };
        store.with_retry_op(OpClass::Write, || store.vfs.create_dir_all(&store.root))?;
        // Safe here: nothing can be mid-commit while the store is still
        // being opened (batch and serve both open before running jobs).
        store.sweep_tmp();
        Ok(store)
    }

    /// Opens an existing store *without* the open-time tmp sweep, for
    /// offline inspection (`rock store scrub`): the scrub report then
    /// owns all tmp accounting, and a dry run genuinely touches
    /// nothing. Unlike [`ArtifactStore::open`] the root must already
    /// exist — scrubbing a mistyped path is an error, not a mkdir.
    pub fn open_unswept(root: impl Into<PathBuf>) -> io::Result<Self> {
        let store = ArtifactStore {
            root: root.into(),
            vfs: StdVfs::arc(),
            durable: false,
            sleep_backoff: false,
            retry: RetryPolicy::new(3).with_backoff(10, 160),
            stats: Arc::new(StatsCell::default()),
            pack: Arc::default(),
        };
        if !store.vfs.is_dir(&store.root) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("store root {} is not a directory", store.root.display()),
            ));
        }
        Ok(store)
    }

    /// Replaces the transient-fault retry policy (builder-style).
    pub fn with_retry(self, retry: RetryPolicy) -> Self {
        ArtifactStore { retry, ..self }
    }

    /// Makes retries actually sleep their backoff schedule instead of
    /// only recording it (tests stay clock-free by default).
    pub fn with_sleep_backoff(self, sleep_backoff: bool) -> Self {
        ArtifactStore { sleep_backoff, ..self }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Whether saves fsync through to stable storage.
    pub fn durable(&self) -> bool {
        self.durable
    }

    /// A snapshot of the store's fault-path counters under their
    /// `store.*` names, all seven the store owns present even at zero
    /// (process totals; per-job deltas come from
    /// [`MetricsRegistry::since`]). `store.checkpoints_skipped` is
    /// counted by the supervisor, not the store.
    pub fn stats(&self) -> MetricsRegistry {
        let s = &self.stats;
        let mut stats = MetricsRegistry::new();
        for (name, counter) in [
            (names::STORE_TMP_SWEPT, &s.tmp_swept),
            (names::STORE_WRITE_RETRIES, &s.write_retries),
            (names::STORE_WRITE_FAILURES, &s.write_failures),
            (names::STORE_READ_RETRIES, &s.read_retries),
            (names::STORE_READ_FAILURES, &s.read_failures),
            (names::STORE_CORRUPT_DETECTED, &s.corrupt_detected),
            (names::STORE_RETRY_BACKOFF_MS, &s.retry_backoff_ms),
        ] {
            stats.set(name, counter.load(Ordering::Relaxed));
        }
        stats
    }

    /// The directory holding one job's artifacts.
    pub fn job_dir(&self, key: u64) -> PathBuf {
        self.root.join(format!("{key:016x}"))
    }

    /// The directory holding one tier's incremental sub-artifacts.
    pub fn sub_tier_dir(&self, tier: rock_core::SubTier) -> PathBuf {
        self.root.join(SUB_DIR).join(tier.name())
    }

    /// The root of the incremental sub-artifact area (tier directories
    /// plus the read-optimized [`crate::incr::SNAPSHOT_NAME`] pack).
    pub fn sub_dir(&self) -> PathBuf {
        self.root.join(SUB_DIR)
    }

    /// The store's filesystem seam, shared with the [`crate::incr`]
    /// layer so sub-artifact traffic sees the same faults as artifacts.
    pub(crate) fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// The snapshot-pack bytes this store last verified or wrote, locked
    /// for the caller's whole preload or flush.
    pub(crate) fn pack(&self) -> MutexGuard<'_, Option<Vec<u8>>> {
        self.pack.0.lock().expect("snapshot pack lock poisoned")
    }

    fn artifact_path(&self, key: u64, stage: StageId) -> PathBuf {
        self.job_dir(key).join(format!("{}.art", stage.name()))
    }

    /// Runs `op`, retrying transient faults on the store's bounded
    /// backoff schedule. Persistent faults return immediately.
    pub(crate) fn with_retry_op<T>(
        &self,
        class: OpClass,
        mut op: impl FnMut() -> io::Result<T>,
    ) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) && self.retry.allows(attempt) => {
                    let lane = match class {
                        OpClass::Read => &self.stats.read_retries,
                        OpClass::Write => &self.stats.write_retries,
                    };
                    lane.fetch_add(1, Ordering::Relaxed);
                    let backoff = self.retry.backoff_ms(attempt);
                    self.stats.retry_backoff_ms.fetch_add(backoff, Ordering::Relaxed);
                    if self.sleep_backoff {
                        std::thread::sleep(std::time::Duration::from_millis(backoff));
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Atomically writes one stage checkpoint for job `key`.
    ///
    /// Transient faults are retried (whole commit sequence — it is
    /// idempotent); on any final failure the tmp file is removed
    /// best-effort so only a true crash strands one.
    pub fn save(&self, key: u64, checkpoint: &Checkpoint) -> io::Result<()> {
        let stage = checkpoint.payload.stage();
        let dir = self.job_dir(key);
        let bytes = encode_artifact(key, checkpoint);
        let tmp = dir.join(format!(".{}.art.tmp", stage.name()));
        let dst = self.artifact_path(key, stage);
        let result = self.with_retry_op(OpClass::Write, || {
            self.vfs.create_dir_all(&dir)?;
            self.vfs.write(&tmp, &bytes)?;
            if self.durable {
                self.vfs.sync_file(&tmp)?;
            }
            self.vfs.rename(&tmp, &dst)?;
            if self.durable {
                self.vfs.sync_dir(&dir)?;
            }
            Ok(())
        });
        if result.is_err() {
            self.stats.write_failures.fetch_add(1, Ordering::Relaxed);
            let _ = self.vfs.remove_file(&tmp);
        }
        result
    }

    /// Loads one stage checkpoint for job `key`.
    ///
    /// `Ok(None)` means "never checkpointed" (run the stage live);
    /// [`StoreError::Corrupt`] means the file exists but failed
    /// validation (the caller should [`ArtifactStore::invalidate`] the
    /// job and recompute).
    pub fn load(&self, key: u64, stage: StageId) -> Result<Option<Checkpoint>, StoreError> {
        let path = self.artifact_path(key, stage);
        let bytes = match self.with_retry_op(OpClass::Read, || self.vfs.read(&path)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                self.stats.read_failures.fetch_add(1, Ordering::Relaxed);
                return Err(StoreError::Io(e));
            }
        };
        decode_artifact(key, stage, &bytes).map(Some).map_err(|why| {
            self.stats.corrupt_detected.fetch_add(1, Ordering::Relaxed);
            StoreError::Corrupt { path, why }
        })
    }

    /// The contiguous prefix of stages already checkpointed for `key`,
    /// in execution order. Stops at the first gap: a later artifact
    /// without its predecessors cannot be restored (restore order is
    /// enforced by the pipeline) and is ignored.
    pub fn completed_prefix(&self, key: u64) -> Result<Vec<Checkpoint>, StoreError> {
        let mut prefix = Vec::new();
        for stage in StageId::ALL {
            match self.load(key, stage)? {
                Some(cp) => prefix.push(cp),
                None => break,
            }
        }
        Ok(prefix)
    }

    /// Drops every artifact of job `key` (used after corruption, or to
    /// force a fresh run).
    pub fn invalidate(&self, key: u64) -> io::Result<()> {
        match self.vfs.remove_dir_all(&self.job_dir(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Removes orphaned `.art.tmp` files (crash debris) from every job
    /// directory — and orphaned `.sub.tmp` files from every sub-artifact
    /// tier directory — best-effort. Returns how many were removed.
    /// Only call while no writer can be mid-commit — store open time,
    /// or scrub.
    pub fn sweep_tmp(&self) -> u64 {
        let mut swept = 0u64;
        let Ok(entries) = self.vfs.list(&self.root) else { return 0 };
        for dir in entries {
            if !self.vfs.is_dir(&dir) {
                continue;
            }
            if entry_name(&dir) == SUB_DIR {
                let Ok(tiers) = self.vfs.list(&dir) else { continue };
                for tier_dir in tiers {
                    if is_tmp_snapshot(&tier_dir) && self.vfs.remove_file(&tier_dir).is_ok() {
                        swept += 1;
                        continue;
                    }
                    let Ok(files) = self.vfs.list(&tier_dir) else { continue };
                    for file in files {
                        if is_tmp_sub(&file) && self.vfs.remove_file(&file).is_ok() {
                            swept += 1;
                        }
                    }
                }
                continue;
            }
            let Ok(files) = self.vfs.list(&dir) else { continue };
            for file in files {
                if is_tmp_artifact(&file) && self.vfs.remove_file(&file).is_ok() {
                    swept += 1;
                }
            }
        }
        self.stats.tmp_swept.fetch_add(swept, Ordering::Relaxed);
        swept
    }

    /// Deep-verifies the whole store: every artifact is read and
    /// checksum-decoded against the key its directory names.
    ///
    /// - corrupt artifacts are quarantined (moved under
    ///   [`QUARANTINE_DIR`]) so resume stops trusting them;
    /// - incremental sub-artifacts under [`SUB_DIR`] are individually
    ///   frame- and payload-verified; a corrupt one is quarantined
    ///   alone, leaving its tier siblings trusted;
    /// - the read-optimized snapshot pack is verified whole (every
    ///   embedded frame and payload) and quarantined whole if damaged
    ///   — it is an accelerator, so the next flush rebuilds it;
    /// - orphaned `.art.tmp` and `.sub.tmp` files are swept;
    /// - entries with unknown names (directories that are not 16-hex
    ///   content keys, stray files) are quarantined;
    /// - i/o errors are counted and scrubbing continues.
    ///
    /// With `dry_run` everything is counted but nothing is moved.
    /// Valid artifacts stranded behind a quarantined predecessor stay
    /// in place — `completed_prefix` already ignores post-gap stages,
    /// and the recomputing job overwrites them.
    pub fn scrub(&self, dry_run: bool) -> ScrubReport {
        let mut report = ScrubReport { dry_run, ..ScrubReport::default() };
        let entries = match self.vfs.list(&self.root) {
            Ok(e) => e,
            Err(e) => {
                report.io_errors += 1;
                report.details.push(format!("list {}: {e}", self.root.display()));
                return report;
            }
        };
        for entry in entries {
            let name = entry_name(&entry);
            if name == QUARANTINE_DIR {
                continue;
            }
            if name == SUB_DIR && self.vfs.is_dir(&entry) {
                self.scrub_sub_dirs(&entry, &mut report);
                continue;
            }
            let key = u64::from_str_radix(&name, 16).ok().filter(|_| name.len() == 16);
            match key {
                Some(key) if self.vfs.is_dir(&entry) => {
                    report.jobs_scanned += 1;
                    self.scrub_job_dir(&entry, key, &mut report);
                }
                _ => {
                    report.unknown_quarantined += 1;
                    report.details.push(format!("unknown entry: {name}"));
                    if !dry_run {
                        self.quarantine(&entry, &name, &mut report);
                    }
                }
            }
        }
        if report.tmp_swept > 0 && !dry_run {
            self.stats.tmp_swept.fetch_add(report.tmp_swept, Ordering::Relaxed);
        }
        report
    }

    fn scrub_job_dir(&self, dir: &Path, key: u64, report: &mut ScrubReport) {
        let files = match self.vfs.list(dir) {
            Ok(f) => f,
            Err(e) => {
                report.io_errors += 1;
                report.details.push(format!("list {}: {e}", dir.display()));
                return;
            }
        };
        for file in files {
            let name = entry_name(&file);
            if is_tmp_artifact(&file) {
                report.tmp_swept += 1;
                report.details.push(format!("{key:016x}: swept tmp {name}"));
                if !report.dry_run && self.vfs.remove_file(&file).is_err() {
                    report.io_errors += 1;
                }
                continue;
            }
            let Some(stage) = stage_of_artifact_name(&name) else {
                report.unknown_quarantined += 1;
                report.details.push(format!("{key:016x}: unknown file {name}"));
                if !report.dry_run {
                    self.quarantine(&file, &format!("{key:016x}.{name}"), report);
                }
                continue;
            };
            match self.with_retry_op(OpClass::Read, || self.vfs.read(&file)) {
                Ok(bytes) => match decode_artifact(key, stage, &bytes) {
                    Ok(_) => report.artifacts_ok += 1,
                    Err(why) => {
                        self.stats.corrupt_detected.fetch_add(1, Ordering::Relaxed);
                        report.corrupt_quarantined += 1;
                        report.details.push(format!("{key:016x}: corrupt {name}: {why}"));
                        if !report.dry_run {
                            self.quarantine(&file, &format!("{key:016x}.{name}"), report);
                        }
                    }
                },
                Err(e) => {
                    report.io_errors += 1;
                    report.details.push(format!("{key:016x}: read {name}: {e}"));
                }
            }
        }
    }

    /// Verifies every incremental sub-artifact under `<root>/sub/`.
    ///
    /// Each file is read, frame-decoded ([`crate::incr`]: checksum, the
    /// tier tag and the key its filename claims must all agree), and
    /// its payload replayed through the corpus importer's full
    /// validation. A damaged file is quarantined as
    /// `sub.<tier>.<name>` *individually* — its tier siblings keep
    /// their artifacts, so one corrupt function-level entry costs
    /// exactly one recompute, never the whole cache.
    fn scrub_sub_dirs(&self, dir: &Path, report: &mut ScrubReport) {
        let tiers = match self.vfs.list(dir) {
            Ok(t) => t,
            Err(e) => {
                report.io_errors += 1;
                report.details.push(format!("list {}: {e}", dir.display()));
                return;
            }
        };
        // Validation sink only; hit/miss counters are never consulted.
        let scratch = rock_core::CorpusCache::new();
        for tier_dir in tiers {
            let tname = entry_name(&tier_dir);
            if !self.vfs.is_dir(&tier_dir) {
                if tname == crate::incr::SNAPSHOT_NAME {
                    self.scrub_snapshot(&tier_dir, &scratch, report);
                    continue;
                }
                if is_tmp_snapshot(&tier_dir) {
                    report.tmp_swept += 1;
                    report.details.push(format!("sub: swept tmp {tname}"));
                    if !report.dry_run && self.vfs.remove_file(&tier_dir).is_err() {
                        report.io_errors += 1;
                    }
                    continue;
                }
            }
            let tier = rock_core::SubTier::ALL
                .into_iter()
                .find(|t| t.name() == tname)
                .filter(|_| self.vfs.is_dir(&tier_dir));
            let Some(tier) = tier else {
                report.unknown_quarantined += 1;
                report.details.push(format!("sub: unknown entry {tname}"));
                if !report.dry_run {
                    self.quarantine(&tier_dir, &format!("sub.{tname}"), report);
                }
                continue;
            };
            let files = match self.vfs.list(&tier_dir) {
                Ok(f) => f,
                Err(e) => {
                    report.io_errors += 1;
                    report.details.push(format!("list {}: {e}", tier_dir.display()));
                    continue;
                }
            };
            for file in files {
                let name = entry_name(&file);
                if is_tmp_sub(&file) {
                    report.tmp_swept += 1;
                    report.details.push(format!("sub/{tname}: swept tmp {name}"));
                    if !report.dry_run && self.vfs.remove_file(&file).is_err() {
                        report.io_errors += 1;
                    }
                    continue;
                }
                let Some(key) = crate::incr::key_of_sub_name(&name) else {
                    report.unknown_quarantined += 1;
                    report.details.push(format!("sub/{tname}: unknown file {name}"));
                    if !report.dry_run {
                        self.quarantine(&file, &format!("sub.{tname}.{name}"), report);
                    }
                    continue;
                };
                match self.with_retry_op(OpClass::Read, || self.vfs.read(&file)) {
                    Ok(bytes) => match crate::incr::verify_sub_bytes(tier, key, &bytes, &scratch) {
                        Ok(()) => report.artifacts_ok += 1,
                        Err(why) => {
                            self.stats.corrupt_detected.fetch_add(1, Ordering::Relaxed);
                            report.corrupt_quarantined += 1;
                            report.details.push(format!("sub/{tname}: corrupt {name}: {why}"));
                            if !report.dry_run {
                                self.quarantine(&file, &format!("sub.{tname}.{name}"), report);
                            }
                        }
                    },
                    Err(e) => {
                        report.io_errors += 1;
                        report.details.push(format!("sub/{tname}: read {name}: {e}"));
                    }
                }
            }
        }
    }

    /// Verifies the read-optimized snapshot pack: whole-file checksum,
    /// every embedded frame, and every payload through the corpus
    /// importer. The pack is an accelerator, not an artifact — a valid
    /// pack is left in place but *not* counted in `artifacts_ok`
    /// (its entries are already counted via their loose files), and a
    /// damaged one is quarantined whole (`sub.snapshot.pack`); the
    /// next flush rebuilds it.
    fn scrub_snapshot(
        &self,
        file: &Path,
        scratch: &rock_core::CorpusCache,
        report: &mut ScrubReport,
    ) {
        let verdict = match self.with_retry_op(OpClass::Read, || self.vfs.read(file)) {
            Ok(bytes) => match crate::incr::decode_snapshot(&bytes) {
                Ok(entries) => {
                    entries.iter().find(|(t, k, p)| !scratch.import_entry(*t, *k, p)).map(
                        |(t, k, _)| format!("entry {}/{k:032x} failed corpus validation", t.name()),
                    )
                }
                Err(why) => Some(why),
            },
            Err(e) => {
                report.io_errors += 1;
                report.details.push(format!("sub: read {}: {e}", crate::incr::SNAPSHOT_NAME));
                return;
            }
        };
        if let Some(why) = verdict {
            self.stats.corrupt_detected.fetch_add(1, Ordering::Relaxed);
            report.corrupt_quarantined += 1;
            report.details.push(format!("sub: corrupt {}: {why}", crate::incr::SNAPSHOT_NAME));
            if !report.dry_run {
                self.quarantine(file, &format!("sub.{}", crate::incr::SNAPSHOT_NAME), report);
            }
        }
    }

    /// Moves `path` under the quarantine directory as `name`, falling
    /// back to plain removal if the rename cannot land.
    fn quarantine(&self, path: &Path, name: &str, report: &mut ScrubReport) {
        let qdir = self.root.join(QUARANTINE_DIR);
        let ok = self.vfs.create_dir_all(&qdir).is_ok()
            && self.vfs.rename(path, &qdir.join(name)).is_ok();
        if !ok && self.vfs.remove_file(path).is_err() && self.vfs.remove_dir_all(path).is_err() {
            report.io_errors += 1;
            report.details.push(format!("quarantine failed: {}", path.display()));
        }
    }
}

/// `true` for `.{stage}.art.tmp` commit debris.
fn is_tmp_artifact(path: &Path) -> bool {
    entry_name(path).ends_with(".art.tmp")
}

/// `true` for `.{key}.sub.tmp` sub-artifact commit debris.
fn is_tmp_sub(path: &Path) -> bool {
    entry_name(path).ends_with(".sub.tmp")
}

/// `true` for `.snapshot.pack.tmp` pack commit debris.
fn is_tmp_snapshot(path: &Path) -> bool {
    entry_name(path) == format!(".{}.tmp", crate::incr::SNAPSHOT_NAME)
}

fn entry_name(path: &Path) -> String {
    path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default()
}

/// Maps `analysis.art` → `StageId::Analysis`, etc.
fn stage_of_artifact_name(name: &str) -> Option<StageId> {
    StageId::ALL.into_iter().find(|s| name == format!("{}.art", s.name()))
}

/// What [`ArtifactStore::scrub`] found (and, unless `dry_run`, fixed).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Job directories visited.
    pub jobs_scanned: u64,
    /// Artifacts that read and checksum-verified clean.
    pub artifacts_ok: u64,
    /// Corrupt artifacts moved to quarantine.
    pub corrupt_quarantined: u64,
    /// Orphaned `.art.tmp` files removed.
    pub tmp_swept: u64,
    /// Unknown-named entries (non-key directories, stray files) moved
    /// to quarantine.
    pub unknown_quarantined: u64,
    /// Operations that failed with i/o errors (scrub continued).
    pub io_errors: u64,
    /// Whether this was a counting-only pass.
    pub dry_run: bool,
    /// One human-readable line per finding, in deterministic order.
    pub details: Vec<String>,
}

impl ScrubReport {
    /// `true` when nothing needed fixing and nothing failed.
    pub fn is_clean(&self) -> bool {
        self.corrupt_quarantined == 0
            && self.tmp_swept == 0
            && self.unknown_quarantined == 0
            && self.io_errors == 0
    }

    /// Single-line JSON rendering (same hand-rolled style as job
    /// reports — no serialization dependency).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"jobs_scanned\":{},\"artifacts_ok\":{},\"corrupt_quarantined\":{},\
             \"tmp_swept\":{},\"unknown_quarantined\":{},\"io_errors\":{},\
             \"dry_run\":{},\"clean\":{},\"details\":[",
            self.jobs_scanned,
            self.artifacts_ok,
            self.corrupt_quarantined,
            self.tmp_swept,
            self.unknown_quarantined,
            self.io_errors,
            self.dry_run,
            self.is_clean(),
        );
        for (i, d) in self.details.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\"", d.replace('\\', "\\\\").replace('"', "\\\""));
        }
        s.push_str("]}");
        s
    }
}

fn encode_artifact(key: u64, checkpoint: &Checkpoint) -> Vec<u8> {
    let mut payload = Writer::new();
    encode_observability(&mut payload, &checkpoint.diagnostics, &checkpoint.coverage);
    match &checkpoint.payload {
        StagePayload::Analysis(a) => encode_analysis(&mut payload, a),
        StagePayload::Training(t) => {
            payload.len(t.len());
            for a in t {
                payload.addr(*a);
            }
        }
        StagePayload::Distances(d) => {
            payload.len(d.len());
            for (&(p, c), &dist) in d {
                payload.addr(p);
                payload.addr(c);
                payload.f64_bits(dist);
            }
        }
        StagePayload::Hierarchy(h) => {
            payload.len(h.len());
            for node in h.nodes() {
                payload.addr(*node);
                match h.parent_of(node) {
                    Some(p) => {
                        payload.u8(1);
                        payload.addr(*p);
                    }
                    None => payload.u8(0),
                }
            }
        }
    }
    let payload = payload.into_bytes();

    let mut w = Writer::new();
    let mut buf = Vec::with_capacity(payload.len() + 33);
    buf.extend_from_slice(MAGIC);
    w.u8(stage_tag(checkpoint.payload.stage()));
    w.u64(key);
    w.len(payload.len());
    buf.extend_from_slice(&w.into_bytes());
    buf.extend_from_slice(&payload);
    let checksum = fnv1a(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

fn decode_artifact(key: u64, stage: StageId, bytes: &[u8]) -> Result<Checkpoint, String> {
    if bytes.len() < MAGIC.len() + 1 + 8 + 8 + 8 {
        return Err("file shorter than the fixed frame".into());
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let checksum = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a(body) != checksum {
        return Err("checksum mismatch".into());
    }
    if &body[..MAGIC.len()] != MAGIC {
        return Err("bad magic or unsupported format version".into());
    }
    let mut r = Reader::new(&body[MAGIC.len()..]);
    let fail = |e: WireError| e.to_string();
    let tag = r.u8("stage tag").map_err(fail)?;
    if tag != stage_tag(stage) {
        return Err(format!("stage tag {tag} does not match expected stage {stage}"));
    }
    let stored_key = r.u64("content key").map_err(fail)?;
    if stored_key != key {
        return Err(format!("content key {stored_key:016x} does not match job {key:016x}"));
    }
    let payload_len = r.len("payload length").map_err(fail)?;
    let payload_start = MAGIC.len() + 1 + 8 + 8;
    if body.len() - payload_start != payload_len {
        return Err("payload length field disagrees with file size".into());
    }
    let mut r = Reader::new(&body[payload_start..]);
    let (diagnostics, coverage) = decode_observability(&mut r).map_err(fail)?;
    let payload = match stage {
        StageId::Analysis => StagePayload::Analysis(decode_analysis(&mut r).map_err(fail)?),
        StageId::Training => {
            let n = r.len("trained count").map_err(fail)?;
            let mut trained = Vec::with_capacity(n);
            for _ in 0..n {
                trained.push(r.addr("trained addr").map_err(fail)?);
            }
            StagePayload::Training(trained)
        }
        StageId::Distances => {
            let n = r.len("distance count").map_err(fail)?;
            let mut d = BTreeMap::new();
            for _ in 0..n {
                let p = r.addr("edge parent").map_err(fail)?;
                let c = r.addr("edge child").map_err(fail)?;
                d.insert((p, c), r.f64_bits("edge distance").map_err(fail)?);
            }
            StagePayload::Distances(d)
        }
        StageId::Lifting => {
            let n = r.len("node count").map_err(fail)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let node = r.addr("forest node").map_err(fail)?;
                let parent = match r.u8("parent flag").map_err(fail)? {
                    0 => None,
                    1 => Some(r.addr("forest parent").map_err(fail)?),
                    f => return Err(format!("bad parent flag {f}")),
                };
                pairs.push((node, parent));
            }
            StagePayload::Hierarchy(Forest::from_parents(pairs))
        }
    };
    if !r.is_at_end() {
        return Err("trailing bytes after payload".into());
    }
    Ok(Checkpoint { payload, diagnostics, coverage })
}

fn stage_tag(stage: StageId) -> u8 {
    match stage {
        StageId::Analysis => 0,
        StageId::Training => 1,
        StageId::Distances => 2,
        StageId::Lifting => 3,
    }
}

fn encode_observability(w: &mut Writer, diagnostics: &[StageError], coverage: &Coverage) {
    w.len(diagnostics.len());
    for e in diagnostics {
        w.u8(match e.stage {
            Stage::Load => 0,
            Stage::Analysis => 1,
            Stage::Structural => 2,
            Stage::Training => 3,
            Stage::Distances => 4,
            Stage::Lifting => 5,
            Stage::Repartition => 6,
        });
        match &e.subject {
            Subject::Image => w.u8(0),
            Subject::Function(a) => {
                w.u8(1);
                w.addr(*a);
            }
            Subject::Vtable(a) => {
                w.u8(2);
                w.addr(*a);
            }
            Subject::Family(i) => {
                w.u8(3);
                w.len(*i);
            }
            Subject::Edge(p, c) => {
                w.u8(4);
                w.addr(*p);
                w.addr(*c);
            }
        }
        match &e.kind {
            FaultKind::Panicked(msg) => {
                w.u8(0);
                w.string(msg);
            }
            FaultKind::FuelExhausted => w.u8(1),
            FaultKind::DeadlineExceeded => w.u8(2),
            FaultKind::Skipped => w.u8(3),
            FaultKind::TruncatedDecode => w.u8(4),
            FaultKind::SkippedPrefix => w.u8(5),
            FaultKind::MissingText => w.u8(6),
            FaultKind::RejectedVtable => w.u8(7),
            FaultKind::MissingModel => w.u8(8),
        }
        w.u8(match e.severity {
            Severity::Warning => 0,
            Severity::Error => 1,
        });
    }
    for v in [
        coverage.functions_total,
        coverage.functions_analyzed,
        coverage.functions_skipped,
        coverage.functions_timed_out,
        coverage.vtables_parsed,
        coverage.vtables_rejected,
        coverage.models_trained,
        coverage.families_total,
        coverage.families_lifted,
        coverage.families_degraded,
    ] {
        w.u64(v as u64);
    }
}

fn decode_observability(r: &mut Reader<'_>) -> Result<(Vec<StageError>, Coverage), WireError> {
    let bad = |offset: usize, what: &'static str| WireError { offset, what };
    let n = r.len("diagnostic count")?;
    let mut diagnostics = Vec::with_capacity(n);
    for _ in 0..n {
        let stage = match r.u8("stage")? {
            0 => Stage::Load,
            1 => Stage::Analysis,
            2 => Stage::Structural,
            3 => Stage::Training,
            4 => Stage::Distances,
            5 => Stage::Lifting,
            6 => Stage::Repartition,
            _ => return Err(bad(0, "stage variant")),
        };
        let subject = match r.u8("subject tag")? {
            0 => Subject::Image,
            1 => Subject::Function(r.addr("subject function")?),
            2 => Subject::Vtable(r.addr("subject vtable")?),
            3 => Subject::Family(r.len("subject family")?),
            4 => Subject::Edge(r.addr("edge parent")?, r.addr("edge child")?),
            _ => return Err(bad(0, "subject variant")),
        };
        let kind = match r.u8("fault tag")? {
            0 => FaultKind::Panicked(r.string("panic message")?),
            1 => FaultKind::FuelExhausted,
            2 => FaultKind::DeadlineExceeded,
            3 => FaultKind::Skipped,
            4 => FaultKind::TruncatedDecode,
            5 => FaultKind::SkippedPrefix,
            6 => FaultKind::MissingText,
            7 => FaultKind::RejectedVtable,
            8 => FaultKind::MissingModel,
            _ => return Err(bad(0, "fault variant")),
        };
        let severity = match r.u8("severity")? {
            0 => Severity::Warning,
            1 => Severity::Error,
            _ => return Err(bad(0, "severity variant")),
        };
        diagnostics.push(StageError { stage, subject, kind, severity });
    }
    let mut fields = [0usize; 10];
    for (i, f) in fields.iter_mut().enumerate() {
        let what = [
            "functions_total",
            "functions_analyzed",
            "functions_skipped",
            "functions_timed_out",
            "vtables_parsed",
            "vtables_rejected",
            "models_trained",
            "families_total",
            "families_lifted",
            "families_degraded",
        ][i];
        *f = r.u64(what)? as usize;
    }
    let coverage = Coverage {
        functions_total: fields[0],
        functions_analyzed: fields[1],
        functions_skipped: fields[2],
        functions_timed_out: fields[3],
        vtables_parsed: fields[4],
        vtables_rejected: fields[5],
        models_trained: fields[6],
        families_total: fields[7],
        families_lifted: fields[8],
        families_degraded: fields[9],
    };
    Ok((diagnostics, coverage))
}

fn encode_analysis(w: &mut Writer, analysis: &Analysis) {
    let tracelets = analysis.tracelets();
    let types: Vec<Addr> = tracelets.types().collect();
    w.len(types.len());
    for &t in &types {
        w.addr(t);
        let pool = tracelets.of_type(t);
        w.len(pool.len());
        for tracelet in pool {
            w.len(tracelet.len());
            for ev in tracelet.iter() {
                encode_event(w, *ev);
            }
        }
    }
    let entries: Vec<_> = analysis.ctors().entries().collect();
    w.len(entries.len());
    for (f, stores) in entries {
        w.addr(*f);
        w.len(stores.len());
        for &(off, vt) in stores {
            w.i32(off);
            w.addr(vt);
        }
    }
    let incidents = analysis.incidents();
    w.len(incidents.len());
    for (entry, kind) in incidents {
        w.addr(*entry);
        match kind {
            IncidentKind::Panicked(msg) => {
                w.u8(0);
                w.string(msg);
            }
            IncidentKind::FuelExhausted => w.u8(1),
            IncidentKind::DeadlineExceeded => w.u8(2),
            IncidentKind::Skipped => w.u8(3),
        }
    }
}

fn decode_analysis(r: &mut Reader<'_>) -> Result<Analysis, WireError> {
    let mut tracelets = TypeTracelets::default();
    let types = r.len("type count")?;
    for _ in 0..types {
        let vt = r.addr("type vtable")?;
        let pool = r.len("tracelet count")?;
        for _ in 0..pool {
            let events = r.len("event count")?;
            let mut tracelet = Vec::with_capacity(events);
            for _ in 0..events {
                tracelet.push(decode_event(r)?);
            }
            tracelets.add(vt, tracelet.into());
        }
    }
    let ctor_count = r.len("ctor count")?;
    let mut ctors = Vec::with_capacity(ctor_count);
    for _ in 0..ctor_count {
        let f = r.addr("ctor entry")?;
        let store_count = r.len("store count")?;
        let mut stores = Vec::with_capacity(store_count);
        for _ in 0..store_count {
            let off = r.i32("store offset")?;
            stores.push((off, r.addr("store vtable")?));
        }
        ctors.push((f, stores));
    }
    let incident_count = r.len("incident count")?;
    let mut incidents = Vec::with_capacity(incident_count);
    for _ in 0..incident_count {
        let entry = r.addr("incident entry")?;
        let kind = match r.u8("incident tag")? {
            0 => IncidentKind::Panicked(r.string("incident message")?),
            1 => IncidentKind::FuelExhausted,
            2 => IncidentKind::DeadlineExceeded,
            3 => IncidentKind::Skipped,
            _ => return Err(WireError { offset: 0, what: "incident variant" }),
        };
        incidents.push((entry, kind));
    }
    Ok(Analysis::from_parts(tracelets, CtorMap::from_entries(ctors), incidents))
}

fn encode_event(w: &mut Writer, ev: Event) {
    match ev {
        Event::C(i) => {
            w.u8(0);
            w.len(i);
        }
        Event::R(off) => {
            w.u8(1);
            w.i32(off);
        }
        Event::W(off) => {
            w.u8(2);
            w.i32(off);
        }
        Event::This => w.u8(3),
        Event::Arg(i) => {
            w.u8(4);
            w.len(i);
        }
        Event::Ret => w.u8(5),
        Event::Call(f) => {
            w.u8(6);
            w.addr(f);
        }
    }
}

fn decode_event(r: &mut Reader<'_>) -> Result<Event, WireError> {
    Ok(match r.u8("event tag")? {
        0 => Event::C(r.len("slot")?),
        1 => Event::R(r.i32("read offset")?),
        2 => Event::W(r.i32("write offset")?),
        3 => Event::This,
        4 => Event::Arg(r.len("arg index")?),
        5 => Event::Ret,
        6 => Event::Call(r.addr("callee")?),
        _ => return Err(WireError { offset: 0, what: "event variant" }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rock-artifact-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_observability() -> (Vec<StageError>, Coverage) {
        let diagnostics = vec![
            StageError {
                stage: Stage::Analysis,
                subject: Subject::Function(Addr::new(0x100)),
                kind: FaultKind::Panicked("boom".into()),
                severity: Severity::Error,
            },
            StageError {
                stage: Stage::Distances,
                subject: Subject::Edge(Addr::new(1), Addr::new(2)),
                kind: FaultKind::MissingModel,
                severity: Severity::Warning,
            },
            StageError {
                stage: Stage::Load,
                subject: Subject::Image,
                kind: FaultKind::MissingText,
                severity: Severity::Error,
            },
        ];
        let coverage = Coverage { functions_total: 9, functions_analyzed: 8, ..Default::default() };
        (diagnostics, coverage)
    }

    fn sample_analysis() -> Analysis {
        let mut t = TypeTracelets::default();
        t.add(Addr::new(0x4000), vec![Event::W(0), Event::C(1), Event::Ret].into());
        t.add(Addr::new(0x4000), vec![Event::This, Event::Call(Addr::new(0x80))].into());
        t.add(Addr::new(0x5000), vec![Event::R(8), Event::Arg(2)].into());
        let ctors = CtorMap::from_entries([
            (Addr::new(0x100), vec![(0, Addr::new(0x4000))]),
            (Addr::new(0x200), vec![(0, Addr::new(0x5000)), (16, Addr::new(0x4000))]),
        ]);
        let incidents = vec![
            (Addr::new(0x300), IncidentKind::FuelExhausted),
            (Addr::new(0x400), IncidentKind::Panicked("ouch".into())),
        ];
        Analysis::from_parts(t, ctors, incidents)
    }

    fn roundtrip(cp: &Checkpoint) -> Checkpoint {
        let bytes = encode_artifact(42, cp);
        decode_artifact(42, cp.payload.stage(), &bytes).expect("roundtrip")
    }

    #[test]
    fn all_payloads_roundtrip() {
        let (diagnostics, coverage) = sample_observability();
        for payload in [
            StagePayload::Analysis(sample_analysis()),
            StagePayload::Training(vec![Addr::new(0x4000), Addr::new(0x5000)]),
            StagePayload::Distances(BTreeMap::from([
                ((Addr::new(1), Addr::new(2)), 0.25),
                ((Addr::new(1), Addr::new(3)), f64::INFINITY),
                ((Addr::new(2), Addr::new(3)), -0.0),
            ])),
            StagePayload::Hierarchy(Forest::from_parents([
                (Addr::new(1), None),
                (Addr::new(2), Some(Addr::new(1))),
            ])),
        ] {
            let cp = Checkpoint { payload, diagnostics: diagnostics.clone(), coverage };
            assert_eq!(roundtrip(&cp), cp);
        }
    }

    #[test]
    fn distance_bits_survive_exactly() {
        let subtle = f64::from_bits(0x3FF0_0000_0000_0001); // 1.0 + 1 ulp
        let cp = Checkpoint {
            payload: StagePayload::Distances(BTreeMap::from([(
                (Addr::new(1), Addr::new(2)),
                subtle,
            )])),
            diagnostics: Vec::new(),
            coverage: Coverage::default(),
        };
        let StagePayload::Distances(d) = roundtrip(&cp).payload else { panic!("payload kind") };
        assert_eq!(d[&(Addr::new(1), Addr::new(2))].to_bits(), subtle.to_bits());
    }

    #[test]
    fn corruption_is_detected_not_trusted() {
        let cp = Checkpoint {
            payload: StagePayload::Training(vec![Addr::new(0x10)]),
            diagnostics: Vec::new(),
            coverage: Coverage::default(),
        };
        let good = encode_artifact(7, &cp);
        // Flip one payload byte: checksum must catch it.
        let mut bad = good.clone();
        bad[MAGIC.len() + 20] ^= 0xFF;
        assert!(decode_artifact(7, StageId::Training, &bad).unwrap_err().contains("checksum"));
        // Truncation.
        assert!(decode_artifact(7, StageId::Training, &good[..10]).is_err());
        // Wrong stage requested.
        assert!(decode_artifact(7, StageId::Distances, &good).unwrap_err().contains("stage tag"));
        // Wrong job key.
        assert!(decode_artifact(8, StageId::Training, &good).unwrap_err().contains("content key"));
        // Wrong magic/version.
        let mut wrong_magic = good.clone();
        wrong_magic[7] = 0x7F;
        // (checksum still covers the magic, so re-seal to isolate the check)
        let body_len = wrong_magic.len() - 8;
        let seal = fnv1a(&wrong_magic[..body_len]);
        wrong_magic[body_len..].copy_from_slice(&seal.to_le_bytes());
        assert!(decode_artifact(7, StageId::Training, &wrong_magic).unwrap_err().contains("magic"));
    }

    #[test]
    fn store_saves_loads_and_invalidates() {
        let store = ArtifactStore::open(tmpdir("store")).unwrap();
        let key = 0xABCD;
        assert!(store.load(key, StageId::Analysis).unwrap().is_none(), "empty store");
        let (diagnostics, coverage) = sample_observability();
        let cp = Checkpoint {
            payload: StagePayload::Analysis(sample_analysis()),
            diagnostics,
            coverage,
        };
        store.save(key, &cp).unwrap();
        assert_eq!(store.load(key, StageId::Analysis).unwrap().unwrap(), cp);
        assert!(store.load(key, StageId::Training).unwrap().is_none(), "only analysis saved");
        store.invalidate(key).unwrap();
        assert!(store.load(key, StageId::Analysis).unwrap().is_none(), "invalidated");
        store.invalidate(key).unwrap(); // idempotent
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn completed_prefix_stops_at_the_first_gap() {
        let store = ArtifactStore::open(tmpdir("prefix")).unwrap();
        let key = 1;
        let mk = |payload| Checkpoint {
            payload,
            diagnostics: Vec::new(),
            coverage: Coverage::default(),
        };
        store.save(key, &mk(StagePayload::Analysis(sample_analysis()))).unwrap();
        // Skip training; save distances — it must NOT appear in the prefix.
        store.save(key, &mk(StagePayload::Distances(BTreeMap::new()))).unwrap();
        let prefix = store.completed_prefix(key).unwrap();
        assert_eq!(prefix.len(), 1);
        assert_eq!(prefix[0].payload.stage(), StageId::Analysis);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_files_surface_as_store_errors() {
        let store = ArtifactStore::open(tmpdir("corrupt")).unwrap();
        let key = 2;
        let dir = store.job_dir(key);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("analysis.art"), b"garbage").unwrap();
        let err = store.load(key, StageId::Analysis).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
        assert!(err.to_string().contains("corrupt artifact"));
        store.invalidate(key).unwrap();
        assert!(store.load(key, StageId::Analysis).unwrap().is_none());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn open_unswept_preserves_tmps_and_rejects_missing_roots() {
        let root = tmpdir("unswept");
        assert_eq!(
            ArtifactStore::open_unswept(&root).unwrap_err().kind(),
            std::io::ErrorKind::NotFound,
            "scrubbing a mistyped path must not mkdir it"
        );
        let store = ArtifactStore::open(&root).unwrap();
        let dir = store.job_dir(7);
        fs::create_dir_all(&dir).unwrap();
        let tmp = dir.join(".analysis.art.tmp");
        fs::write(&tmp, b"half a commit").unwrap();
        drop(store);
        // The scrub entry point must leave the stale tmp in place so
        // the scrub report (and a dry run in particular) owns it.
        let store = ArtifactStore::open_unswept(&root).unwrap();
        assert!(tmp.exists(), "open_unswept must not sweep");
        let dry = store.scrub(true);
        assert_eq!(dry.tmp_swept, 1);
        assert!(tmp.exists(), "dry run must touch nothing");
        let real = store.scrub(false);
        assert_eq!(real.tmp_swept, 1);
        assert!(!tmp.exists());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn content_keys_separate_configs_but_not_parallelism() {
        let image = b"fake image bytes";
        let base = RockConfig::paper();
        let k0 = content_key(image, &base);
        assert_eq!(k0, content_key(image, &base), "deterministic");
        assert_ne!(k0, content_key(b"other image", &base), "image changes the key");
        let mut strict = base;
        strict.strict = true;
        assert_ne!(k0, content_key(image, &strict), "strictness changes the key");
        let canonical = base.with_canonical_calls();
        assert_ne!(
            k0,
            content_key(image, &canonical),
            "canonical calls change the event alphabet and must change the key"
        );
        let mut fast = base;
        fast.analysis = rock_analysis::AnalysisConfig::fast();
        assert_ne!(k0, content_key(image, &fast), "analysis knobs change the key");
        let mut threaded = base;
        threaded.parallelism = rock_core::Parallelism::Threads(8);
        assert_eq!(
            k0,
            content_key(image, &threaded),
            "parallelism must not change the key: resume may cross thread counts"
        );
    }
}

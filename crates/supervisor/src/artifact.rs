//! The on-disk artifact store: the filesystem seam, retry policy and
//! fault accounting that the incremental sub-artifact layer
//! ([`crate::incr`]) persists through, plus the offline scrub.
//!
//! ```text
//! <root>/sub/<tier>/<key:032x>.sub   one sub-artifact (source of truth)
//! <root>/sub/snapshot.pack           every frame, for one-read preload
//! <root>/.quarantine/                what scrub could not trust
//! ```
//!
//! All filesystem traffic goes through a [`Vfs`] handle ([`StdVfs`] in
//! production, `FaultyVfs` under chaos testing). The store classifies
//! i/o faults with [`crate::vfs::is_transient`]: transient faults get a
//! bounded clock-free retry (schedule from [`RetryPolicy`], counted in
//! the `store.*` counters of [`ArtifactStore::stats`], slept only when
//! `sleep_backoff` is set); persistent faults are counted as failures
//! and surface to the caller, which degrades instead of spinning.
//! In `durable` mode every file is fsynced before its commit rename and
//! its directory after it, so a committed sub-artifact survives power
//! loss; the default skips both fsyncs (honest benchmarks, and a lost
//! entry merely recomputes). Opening a store sweeps orphaned `.sub.tmp`
//! files left by crashes, and [`ArtifactStore::scrub`] deep-verifies
//! every sub-artifact, quarantining what cannot be trusted.

use std::fmt;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use rock_binary::codec::Writer;
use rock_budget::RetryPolicy;
use rock_core::{RockConfig, MAX_TIE_VARIANTS, TIE_EPSILON};
use rock_trace::{fnv1a, json_escape, names, MetricsRegistry};

use crate::vfs::{is_transient, StdVfs, Vfs};

/// The version byte leading every [`config_fingerprint`].
/// v2: the fingerprint gained `canonical_calls`.
pub const FORMAT_VERSION: u8 = 2;

/// The *image-level* content key of one (image, config) job, which
/// names the job in its report and trace spans.
///
/// FNV-1a over the raw image bytes followed by a fingerprint of every
/// config knob that can change reconstruction output. `parallelism` is
/// excluded on purpose: the pipeline is deterministic across thread
/// counts. `strict` is *included* because it changes which runs complete
/// at all. Reuse itself is keyed one layer down, per function, type,
/// pair and family (see [`crate::incr`]).
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
    // The retired per-function deadline's `None` tag: keeps every key.
    w.u8(0);
    w.u8(config.metric.tag());
    w.u8(config.resolve_ties as u8);
    w.f64_bits(TIE_EPSILON);
    w.len(MAX_TIE_VARIANTS);
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

/// What a store's pack lock guards, shared by every clone of the store.
/// Holding the lock serialises flushes across the daemon's workers (see
/// [`crate::incr`]).
#[derive(Default)]
pub(crate) struct PackState {
    /// The snapshot-pack bytes the store last verified at preload or
    /// last wrote (`None`: no verified pack).
    pub(crate) bytes: Option<Vec<u8>>,
    /// Frames committed to loose files since the pack was last written,
    /// for the next pack write to append (kept only beside `bytes`).
    pub(crate) pending: Vec<Vec<u8>>,
}

#[derive(Default)]
struct PackCell(Mutex<PackState>);

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

/// A directory of persisted corpus sub-artifacts.
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
    /// filesystem, without durability fsyncs. Orphaned `.sub.tmp` files
    /// from earlier crashes are swept (best-effort) before use; nothing
    /// outside `sub/` is touched.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with(root, StdVfs::arc(), false)
    }

    /// Opens a store on an explicit [`Vfs`] with an explicit durability
    /// mode. `durable` makes every write fsync the file before its
    /// commit rename and the directory after it — a committed
    /// sub-artifact then survives power loss, at real fsync cost per
    /// flush; without it a torn commit merely recomputes one entry.
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

    /// Whether writes fsync through to stable storage.
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

    /// The directory holding one tier's incremental sub-artifacts.
    pub fn sub_tier_dir(&self, tier: rock_core::SubTier) -> PathBuf {
        self.root.join(SUB_DIR).join(tier.name())
    }

    /// The root of the incremental sub-artifact area (tier directories
    /// plus the read-optimized [`crate::incr::SNAPSHOT_NAME`] pack).
    pub fn sub_dir(&self) -> PathBuf {
        self.root.join(SUB_DIR)
    }

    /// The store's filesystem seam, for the [`crate::incr`] layer.
    pub(crate) fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// The snapshot-pack state, locked for the caller's whole preload or
    /// flush.
    pub(crate) fn pack(&self) -> MutexGuard<'_, PackState> {
        self.pack.0.lock().expect("snapshot pack lock poisoned")
    }

    /// Runs `op`, retrying transient faults on the store's bounded
    /// backoff schedule. A persistent fault (anything but `NotFound`,
    /// which answers "absent") counts as a read or write failure and
    /// returns immediately.
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
                Err(e) => {
                    if e.kind() != io::ErrorKind::NotFound {
                        let lane = match class {
                            OpClass::Read => &self.stats.read_failures,
                            OpClass::Write => &self.stats.write_failures,
                        };
                        lane.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Removes orphaned `.sub.tmp` files (crash debris) from every
    /// sub-artifact tier directory, and the snapshot pack's tmp,
    /// best-effort. Returns how many were removed. Only call while no
    /// writer can be mid-commit — store open time, or scrub.
    pub fn sweep_tmp(&self) -> u64 {
        let mut swept = 0u64;
        let Ok(tiers) = self.vfs.list(&self.sub_dir()) else { return 0 };
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
        self.stats.tmp_swept.fetch_add(swept, Ordering::Relaxed);
        swept
    }

    /// Deep-verifies the whole store:
    ///
    /// - every sub-artifact under [`SUB_DIR`] is frame- and
    ///   payload-verified; a corrupt one is quarantined (moved under
    ///   [`QUARANTINE_DIR`]) alone, leaving its tier siblings trusted;
    /// - the read-optimized snapshot pack is verified whole (every
    ///   embedded frame and payload) and quarantined whole if damaged
    ///   — it is an accelerator, so the next flush rebuilds it;
    /// - orphaned `.sub.tmp` files and the pack's tmp are swept;
    /// - every other entry (a stray file, an unknown tier, a job
    ///   directory of the retired per-stage checkpoint format) counts as
    ///   one unknown entry and is quarantined: moved, never deleted;
    /// - i/o errors are counted and scrubbing continues.
    ///
    /// With `dry_run` everything is counted but nothing is moved.
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
            report.unknown_quarantined += 1;
            report.details.push(format!("unknown entry: {name}"));
            if !dry_run {
                self.quarantine(&entry, &name, &mut report);
            }
        }
        if report.tmp_swept > 0 && !dry_run {
            self.stats.tmp_swept.fetch_add(report.tmp_swept, Ordering::Relaxed);
        }
        report
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

    /// Moves `path` under the quarantine directory as `name`. A file
    /// whose rename cannot land is removed instead; a directory is never
    /// removed (it may hold data from another format).
    fn quarantine(&self, path: &Path, name: &str, report: &mut ScrubReport) {
        let qdir = self.root.join(QUARANTINE_DIR);
        let ok = self.vfs.create_dir_all(&qdir).is_ok()
            && self.vfs.rename(path, &qdir.join(name)).is_ok();
        if !ok && (self.vfs.is_dir(path) || self.vfs.remove_file(path).is_err()) {
            report.io_errors += 1;
            report.details.push(format!("quarantine failed: {}", path.display()));
        }
    }
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

/// What [`ArtifactStore::scrub`] found (and, unless `dry_run`, fixed).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Sub-artifacts that read and verified clean.
    pub artifacts_ok: u64,
    /// Corrupt sub-artifacts (or a corrupt pack) moved to quarantine.
    pub corrupt_quarantined: u64,
    /// Orphaned `.sub.tmp` files (and the pack's tmp) removed.
    pub tmp_swept: u64,
    /// Unknown entries (stray files, unknown tiers, retired per-stage
    /// checkpoint directories) moved to quarantine.
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
            "\"artifacts_ok\":{},\"corrupt_quarantined\":{},\
             \"tmp_swept\":{},\"unknown_quarantined\":{},\"io_errors\":{},\
             \"dry_run\":{},\"clean\":{},\"details\":[",
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
            let _ = write!(s, "\"{}\"", json_escape(d));
        }
        s.push_str("]}");
        s
    }
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

    #[test]
    fn open_unswept_preserves_tmps_and_rejects_missing_roots() {
        let root = tmpdir("unswept");
        assert_eq!(
            ArtifactStore::open_unswept(&root).unwrap_err().kind(),
            std::io::ErrorKind::NotFound,
            "scrubbing a mistyped path must not mkdir it"
        );
        let store = ArtifactStore::open(&root).unwrap();
        let dir = store.sub_tier_dir(rock_core::SubTier::Exec);
        fs::create_dir_all(&dir).unwrap();
        let tmp = dir.join(".0000000000000000000000000000002a.sub.tmp");
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
        assert_eq!(k0, content_key(image, &threaded), "parallelism must not change the key");
    }
}

//! The on-disk artifact store: the filesystem seam, retry policy and
//! fault accounting that the incremental sub-artifact layer
//! ([`crate::incr`]) persists through, plus the offline scrub.
//!
//! ```text
//! <root>/sub/<fnv1a:016x>.pack   one segment file per flush
//! <root>/.quarantine/            what scrub could not trust
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
//! entry merely recomputes). Opening a store sweeps the orphaned
//! `.<name>.pack.tmp` files crashes leave, and [`ArtifactStore::scrub`]
//! deep-verifies every segment file frame by frame, quarantining what
//! cannot be trusted.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rock_binary::codec::Writer;
use rock_budget::RetryPolicy;
use rock_core::{RockConfig, MAX_TIE_VARIANTS, TIE_EPSILON};
use rock_trace::{fnv1a, json_escape, names, MetricsRegistry};

use crate::incr::{
    decode_segment, encode_snapshot, encode_sub, is_segment_tmp, write_segment, SEGMENT_SUFFIX,
};
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

/// Which counter lane a retried operation charges.
#[derive(Clone, Copy)]
pub(crate) enum OpClass {
    Read,
    Write,
}

/// The subdirectory scrub moves untrusted files into.
pub const QUARANTINE_DIR: &str = ".quarantine";

/// The subdirectory holding incremental sub-artifacts: one segment file
/// per flush (see [`crate::incr`]).
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
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `root`, with its
    /// `sub/` directory, on the real filesystem, without durability
    /// fsyncs. Orphaned segment tmp files from earlier crashes are swept
    /// (best-effort) before use; nothing outside `sub/` is touched.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with(root, StdVfs::arc(), false)
    }

    /// Opens a store on an explicit [`Vfs`] with an explicit durability
    /// mode. `durable` makes every write fsync the file before its
    /// commit rename and the directory after it — a committed
    /// sub-artifact then survives power loss, at real fsync cost per
    /// flush; without it a torn commit merely recomputes that flush.
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
        };
        store.with_retry_op(OpClass::Write, || store.vfs.create_dir_all(&store.sub_dir()))?;
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

    /// The directory holding the incremental sub-artifacts' segment
    /// files.
    pub fn sub_dir(&self) -> PathBuf {
        self.root.join(SUB_DIR)
    }

    /// The store's filesystem seam, for the [`crate::incr`] layer.
    pub(crate) fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
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

    /// Removes the orphaned `.<name>.pack.tmp` files (crash debris)
    /// under `sub/`, best-effort. Returns how many were removed. Only
    /// call while no writer can be mid-commit — store open time, or
    /// scrub.
    pub fn sweep_tmp(&self) -> u64 {
        let Ok(files) = self.vfs.list(&self.sub_dir()) else { return 0 };
        let swept = files
            .iter()
            .filter(|f| is_segment_tmp(&entry_name(f)) && self.vfs.remove_file(f).is_ok())
            .count() as u64;
        self.stats.tmp_swept.fetch_add(swept, Ordering::Relaxed);
        swept
    }

    /// Deep-verifies the whole store:
    ///
    /// - every segment file under [`SUB_DIR`] is verified frame by
    ///   frame: each frame's checksum, then its payload through the
    ///   corpus importer. A damaged file is quarantined (moved under
    ///   [`QUARANTINE_DIR`]) whole, and the frames that still verified
    ///   are written back as a new segment, so one corrupt entry costs
    ///   exactly one recompute, never its file's siblings;
    /// - orphaned segment tmp files are swept;
    /// - every other entry (a stray file, a tier directory of the
    ///   retired one-file-per-entry layout, a job directory of the
    ///   retired per-stage checkpoint format) counts as one unknown
    ///   entry and is quarantined: moved, never deleted;
    /// - a quarantined entry takes the first free name among `<name>`,
    ///   `<name>.1`, `<name>.2`, …, so no scrub overwrites an earlier
    ///   one's; a move that fails leaves the entry in place;
    /// - i/o errors are counted and scrubbing continues.
    ///
    /// With `dry_run` everything is counted but nothing is moved or
    /// written.
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
        let mut quarantine = Quarantine::list(self);
        for entry in entries {
            let name = entry_name(&entry);
            if name == QUARANTINE_DIR {
                continue;
            }
            if name == SUB_DIR && self.vfs.is_dir(&entry) {
                self.scrub_sub(&entry, &mut quarantine, &mut report);
                continue;
            }
            report.unknown_quarantined += 1;
            report.details.push(format!("unknown entry: {name}"));
            if !dry_run {
                quarantine.admit(&entry, &name, &mut report);
            }
        }
        if report.tmp_swept > 0 && !dry_run {
            self.stats.tmp_swept.fetch_add(report.tmp_swept, Ordering::Relaxed);
        }
        report
    }

    /// Sorts what lies directly under `<root>/sub/` into segment files
    /// (verified), their tmp debris (swept) and unknown entries
    /// (quarantined whole as `sub.<name>`).
    fn scrub_sub(&self, dir: &Path, quarantine: &mut Quarantine<'_>, report: &mut ScrubReport) {
        let files = match self.vfs.list(dir) {
            Ok(f) => f,
            Err(e) => {
                report.io_errors += 1;
                report.details.push(format!("list {}: {e}", dir.display()));
                return;
            }
        };
        // Validation sink only; hit/miss counters are never consulted.
        let scratch = rock_core::CorpusCache::new();
        for file in files {
            let name = entry_name(&file);
            let is_file = !self.vfs.is_dir(&file);
            if is_file && is_segment_tmp(&name) {
                report.tmp_swept += 1;
                report.details.push(format!("sub: swept tmp {name}"));
                if !report.dry_run && self.vfs.remove_file(&file).is_err() {
                    report.io_errors += 1;
                }
            } else if is_file && name.ends_with(SEGMENT_SUFFIX) {
                self.scrub_segment(&file, &name, &scratch, quarantine, report);
            } else {
                report.unknown_quarantined += 1;
                report.details.push(format!("sub: unknown entry {name}"));
                if !report.dry_run {
                    quarantine.admit(&file, &format!("sub.{name}"), report);
                }
            }
        }
    }

    /// Verifies one segment file frame by frame, replaying each payload
    /// into `scratch`. A damaged file is quarantined whole as
    /// `sub.<name>`; once it has moved, the frames that verified are
    /// written back as a new segment.
    fn scrub_segment(
        &self,
        file: &Path,
        name: &str,
        scratch: &rock_core::CorpusCache,
        quarantine: &mut Quarantine<'_>,
        report: &mut ScrubReport,
    ) {
        let segment = match self.with_retry_op(OpClass::Read, || self.vfs.read(file)) {
            Ok(bytes) => decode_segment(&bytes),
            Err(e) => {
                report.io_errors += 1;
                report.details.push(format!("sub: read {name}: {e}"));
                return;
            }
        };
        let mut damage = segment.damage;
        let mut kept = Vec::with_capacity(segment.entries.len());
        for (tier, key, payload) in &segment.entries {
            if scratch.import_entry(*tier, *key, payload) {
                kept.push(encode_sub(*tier, *key, payload));
            } else {
                damage.get_or_insert_with(|| {
                    format!("entry {}/{key:032x} failed corpus validation", tier.name())
                });
            }
        }
        report.artifacts_ok += kept.len() as u64;
        let Some(why) = damage else { return };
        self.stats.corrupt_detected.fetch_add(1, Ordering::Relaxed);
        report.corrupt_quarantined += 1;
        report.details.push(format!("sub: corrupt {name}: {why} ({} frames verified)", kept.len()));
        if report.dry_run || !quarantine.admit(file, &format!("sub.{name}"), report) {
            return;
        }
        if !kept.is_empty() && write_segment(self, &encode_snapshot(&kept)).is_err() {
            report.io_errors += 1;
            report.details.push(format!("sub: rewriting the verified frames of {name} failed"));
        }
    }
}

/// Where one scrub moves what it cannot trust: `<root>/.quarantine/`,
/// listed once so that no move lands on a name already taken.
struct Quarantine<'a> {
    store: &'a ArtifactStore,
    dir: PathBuf,
    /// The names in use (`None`: the listing failed, so nothing moves).
    taken: Option<HashSet<String>>,
}

impl<'a> Quarantine<'a> {
    fn list(store: &'a ArtifactStore) -> Self {
        let dir = store.root.join(QUARANTINE_DIR);
        let taken = match store.vfs.list(&dir) {
            Ok(entries) => Some(entries.iter().map(|e| entry_name(e)).collect()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Some(HashSet::new()),
            Err(_) => None,
        };
        Quarantine { store, dir, taken }
    }

    /// Moves `path` in under the first free name among `name`,
    /// `name.1`, `name.2`, …. A move that cannot land leaves `path` in
    /// place and counts an i/o error. Returns whether it moved.
    fn admit(&mut self, path: &Path, name: &str, report: &mut ScrubReport) -> bool {
        let vfs = &self.store.vfs;
        let moved = self.taken.as_mut().is_some_and(|taken| {
            let free = (0..)
                .map(|n| if n == 0 { name.to_string() } else { format!("{name}.{n}") })
                .find(|candidate| !taken.contains(candidate))
                .unwrap_or_default();
            let moved = vfs.create_dir_all(&self.dir).is_ok()
                && vfs.rename(path, &self.dir.join(&free)).is_ok();
            if moved {
                taken.insert(free);
            }
            moved
        });
        if !moved {
            report.io_errors += 1;
            report.details.push(format!("quarantine failed: {}", path.display()));
        }
        moved
    }
}

/// The last component of `path`, lossily as text (empty for none).
pub(crate) fn entry_name(path: &Path) -> String {
    path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default()
}

/// What [`ArtifactStore::scrub`] found (and, unless `dry_run`, fixed).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Sub-artifact frames that read and verified clean (a damaged
    /// file's included: they are written back).
    pub artifacts_ok: u64,
    /// Damaged segment files moved to quarantine.
    pub corrupt_quarantined: u64,
    /// Orphaned segment tmp files removed.
    pub tmp_swept: u64,
    /// Unknown entries (stray files, retired tier directories, retired
    /// per-stage checkpoint directories) moved to quarantine.
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
        let tmp = store.sub_dir().join(".000000000000002a.pack.tmp");
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
    fn quarantine_never_overwrites_and_scrub_converges() {
        let root = tmpdir("quarantine");
        let store = ArtifactStore::open(&root).unwrap();
        let (alien, old_tier) = (store.sub_dir().join("alien.bin"), store.sub_dir().join("exec"));
        for round in ["first", "second"] {
            fs::write(&alien, round).unwrap();
            fs::create_dir_all(&old_tier).unwrap();
            fs::write(old_tier.join(format!("{round}.sub")), round).unwrap();
            let report = store.scrub(false);
            assert_eq!((report.unknown_quarantined, report.io_errors), (2, 0), "{report:?}");
            assert!(!alien.exists() && !old_tier.exists(), "{round}: moved, never left behind");
        }
        assert!(store.scrub(false).is_clean(), "scrub converges");
        let q = root.join(QUARANTINE_DIR);
        assert_eq!(fs::read(q.join("sub.alien.bin")).unwrap(), b"first");
        assert_eq!(fs::read(q.join("sub.alien.bin.1")).unwrap(), b"second");
        assert_eq!(fs::read(q.join("sub.exec").join("first.sub")).unwrap(), b"first");
        assert_eq!(fs::read(q.join("sub.exec.1").join("second.sub")).unwrap(), b"second");
        let _ = fs::remove_dir_all(&root);
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

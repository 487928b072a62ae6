//! What an incremental flush costs and what it leaves on disk.
//!
//! A flush persists only the corpus entries added since the last
//! preload or flush, then appends their frames to the snapshot pack as
//! one segment. The cost is pinned as storage-call counts through a
//! counting `Vfs`: a flush after a run that added nothing makes no call
//! at all, and a one-method patch costs one write and one rename per
//! added entry plus one of each for the pack, with no listing and no
//! read. Two flushes racing over one corpus write each entry once, and
//! a store holding the previous pack format (`ROCKSPK\x01`) is upgraded
//! whole by the next flush that writes anything. A supervised batch
//! writes each entry once and its pack once; a supervised job writes
//! its pack once, after its last stage.

use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use rock::binary::image_to_bytes;
use rock::core::{suite, CorpusCache, Parallelism, Rock, RockConfig, SubTier};
use rock::loader::LoadedBinary;
use rock::supervisor::{
    decode_snapshot, flush_subartifacts, preload_subartifacts, ArtifactStore, StdVfs, Supervisor,
    SupervisorOptions, Vfs, SNAPSHOT_NAME,
};
use rock::trace::{fnv1a, names};

/// A scratch artifact-store root, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("rock-flush-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn store(&self) -> ArtifactStore {
        ArtifactStore::open(&self.0).unwrap()
    }

    /// A store over this root whose every storage call is counted.
    fn counted_store(&self) -> (ArtifactStore, Arc<CountingVfs>) {
        let vfs = Arc::new(CountingVfs::default());
        let store = ArtifactStore::open_with(&self.0, vfs.clone(), false).unwrap();
        vfs.take();
        (store, vfs)
    }

    fn pack(&self) -> Vec<u8> {
        fs::read(self.0.join("sub").join(SNAPSHOT_NAME)).expect("the flush wrote a pack")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The storage operations a [`Vfs`] offers, as indices into
/// [`CountingVfs`]'s tallies.
#[derive(Clone, Copy, Debug)]
enum Op {
    Read,
    Write,
    Rename,
    RemoveFile,
    RemoveDirAll,
    CreateDirAll,
    List,
    IsDir,
    SyncFile,
    SyncDir,
}

const OPS: usize = 10;

/// The real filesystem, counting every call by operation.
#[derive(Debug, Default)]
struct CountingVfs {
    calls: [AtomicU64; OPS],
}

impl CountingVfs {
    fn count(&self, op: Op) -> StdVfs {
        self.calls[op as usize].fetch_add(1, Ordering::Relaxed);
        StdVfs
    }

    /// The calls made since the last `take`, by operation.
    fn take(&self) -> [u64; OPS] {
        std::array::from_fn(|i| self.calls[i].swap(0, Ordering::Relaxed))
    }
}

impl Vfs for CountingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.count(Op::Read).read(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.count(Op::Write).write(path, data)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.count(Op::Rename).rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.count(Op::RemoveFile).remove_file(path)
    }
    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.count(Op::RemoveDirAll).remove_dir_all(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.count(Op::CreateDirAll).create_dir_all(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.count(Op::List).list(dir)
    }
    fn is_dir(&self, path: &Path) -> bool {
        self.count(Op::IsDir).is_dir(path)
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.count(Op::SyncFile).sync_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.count(Op::SyncDir).sync_dir(dir)
    }
}

/// The base image of the delta workload and its one-method patch.
fn delta_images() -> (LoadedBinary, LoadedBinary) {
    let base_spec = suite::delta_spec(3, 5, 5);
    let mut edited_spec = base_spec.clone();
    suite::apply_delta(
        &mut edited_spec,
        suite::DeltaEdit::EditBody { family: 1, class: 4, method: 0 },
    );
    let load = |spec: &suite::DeltaSpec| {
        let compiled = suite::delta_program(spec).compile().expect("compiles");
        LoadedBinary::load(compiled.stripped_image()).expect("loads")
    };
    (load(&base_spec), load(&edited_spec))
}

fn run(loaded: &LoadedBinary, cache: &Arc<CorpusCache>) {
    let config = RockConfig::paper().with_parallelism(Parallelism::Serial).with_canonical_calls();
    Rock::new(config).with_corpus_cache(Arc::clone(cache)).reconstruct(loaded);
}

fn live_entries(cache: &CorpusCache) -> u64 {
    let (execs, models, distances) = cache.lens();
    (execs + models + distances + cache.lifting_len()) as u64
}

/// Every `(tier tag, key)` a pack holds, asserting none repeats.
fn pack_ids(pack: &[u8]) -> HashSet<(u8, u128)> {
    let entries = decode_snapshot(pack).expect("the pack decodes");
    let ids: HashSet<(u8, u128)> = entries.iter().map(|(t, k, _)| (t.tag(), *k)).collect();
    assert_eq!(ids.len(), entries.len(), "every entry appears in the pack once");
    ids
}

/// Flushes the base image's sub-artifacts into the scratch store, then
/// reopens it on a counting vfs and preloads a fresh cache from it.
fn preloaded(
    scratch: &Scratch,
    base: &LoadedBinary,
) -> (ArtifactStore, Arc<CountingVfs>, Arc<CorpusCache>) {
    let populate = Arc::new(CorpusCache::new());
    run(base, &populate);
    let flushed = flush_subartifacts(&scratch.store(), &populate);
    assert_eq!(flushed.counter(names::INCR_IO_ERRORS), 0);
    let (store, vfs) = scratch.counted_store();
    let cache = Arc::new(CorpusCache::new());
    let preloaded = preload_subartifacts(&store, &cache);
    assert_eq!(preloaded.counter(names::INCR_PRELOADED), flushed.counter(names::INCR_FLUSHED));
    assert_eq!(vfs.take()[Op::Read as usize], 1, "preload reads the pack alone");
    (store, vfs, cache)
}

#[test]
fn a_flush_after_a_run_that_added_nothing_makes_no_storage_call() {
    let (base, _) = delta_images();
    let scratch = Scratch::new("nothing-new");
    let (store, vfs, cache) = preloaded(&scratch, &base);
    let entries = live_entries(&cache);
    run(&base, &cache);
    assert_eq!(live_entries(&cache), entries, "the rerun computes nothing new");

    let stats = flush_subartifacts(&store, &cache);
    assert_eq!(vfs.take(), [0; OPS], "a flush with nothing to add touches no storage");
    let counts: Vec<_> = stats.counters().collect();
    assert_eq!(
        counts,
        [(names::INCR_FLUSHED, 0), (names::INCR_IO_ERRORS, 0), (names::INCR_UNCHANGED, entries)]
    );
}

#[test]
fn a_one_method_patch_flush_writes_what_the_patch_added_plus_the_pack() {
    let (base, edited) = delta_images();
    let scratch = Scratch::new("one-patch");
    let (store, vfs, cache) = preloaded(&scratch, &base);
    let before = live_entries(&cache);
    run(&edited, &cache);
    let k = live_entries(&cache) - before;
    assert!(k > 0, "the patch must add entries");

    let stats = flush_subartifacts(&store, &cache);
    let calls = vfs.take();
    assert_eq!(
        (
            stats.counter(names::INCR_FLUSHED),
            stats.counter(names::INCR_UNCHANGED),
            stats.counter(names::INCR_IO_ERRORS)
        ),
        (k, before, 0)
    );
    assert_eq!(calls[Op::Write as usize], k + 1, "one write per added entry, one for the pack");
    assert_eq!(calls[Op::Rename as usize], k + 1, "one rename per added entry, one for the pack");
    assert_eq!(calls[Op::List as usize], 0, "a flush lists no directory");
    assert_eq!(calls[Op::Read as usize], 0, "a flush reads nothing back");
    assert_eq!(pack_ids(&scratch.pack()).len() as u64, before + k);
}

#[test]
fn a_batch_writes_each_entry_once_and_its_pack_once() {
    let jobs: Vec<(String, Vec<u8>)> = (0..3)
        .map(|i| {
            let compiled = suite::corpus_member(i, 40).compile().expect("compiles");
            (format!("member{i}"), image_to_bytes(&compiled.stripped_image()))
        })
        .collect();
    let config = RockConfig::paper().with_parallelism(Parallelism::Serial);
    let options = SupervisorOptions { incremental: true, ..SupervisorOptions::default() };

    // A batch: loose files at every stage boundary, the pack once, in
    // its final flush.
    let scratch = Scratch::new("batch");
    let (store, vfs) = scratch.counted_store();
    let batch = Supervisor::new(config, store, options.clone()).run_batch(&jobs);
    assert_eq!(batch.exit_code, 0);
    let incr = batch.incr.expect("an incremental batch reports its incr counts");
    let flushed = incr.counter(names::INCR_FLUSHED);
    assert!(flushed > 0);
    assert_eq!(incr.counter(names::INCR_IO_ERRORS), 0);
    let calls = vfs.take();
    assert_eq!(calls[Op::Write as usize], flushed + 1, "one write per entry, one for the pack");
    assert_eq!(calls[Op::Rename as usize], flushed + 1, "one rename per entry, one for the pack");
    assert_eq!(pack_ids(&scratch.pack()).len() as u64, flushed, "the pack holds every entry");

    // Jobs run one by one: each writes the pack once, after its last
    // stage, if it added anything.
    let scratch = Scratch::new("jobs");
    let (store, vfs) = scratch.counted_store();
    let supervisor = Supervisor::new(config, store, options);
    let mut total = 0;
    for (name, bytes) in &jobs {
        let report = supervisor.run_job(name, bytes).report;
        let flushed = report.counters.counter(names::INCR_FLUSHED);
        let calls = vfs.take();
        let pack_writes = u64::from(flushed > 0);
        assert_eq!(calls[Op::Write as usize], flushed + pack_writes, "{name}");
        assert_eq!(calls[Op::Rename as usize], flushed + pack_writes, "{name}");
        total += flushed;
    }
    assert_eq!(pack_ids(&scratch.pack()).len() as u64, total);
}

#[test]
fn concurrent_flushes_of_one_corpus_write_each_entry_once() {
    let (base, edited) = delta_images();
    for trial in 0..3 {
        let scratch = Scratch::new(&format!("race-{trial}"));
        let corpus = Arc::new(CorpusCache::new());
        run(&base, &corpus);
        run(&edited, &corpus);
        let live = live_entries(&corpus);
        let store = scratch.store();
        let barrier = Barrier::new(2);
        let stats: Vec<_> = std::thread::scope(|s| {
            let flushes: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        flush_subartifacts(&store, &corpus)
                    })
                })
                .collect();
            flushes.into_iter().map(|h| h.join().expect("flush thread")).collect()
        });
        assert_eq!(
            stats[0].counter(names::INCR_FLUSHED) + stats[1].counter(names::INCR_FLUSHED),
            live,
            "trial {trial}: {stats:?}"
        );
        assert_eq!(
            stats[0].counter(names::INCR_IO_ERRORS) + stats[1].counter(names::INCR_IO_ERRORS),
            0,
            "trial {trial}: {stats:?}"
        );
        assert_eq!(pack_ids(&scratch.pack()).len() as u64, live, "trial {trial}");
    }
}

#[test]
fn a_v1_pack_is_rebuilt_whole_by_the_next_flush_that_writes() {
    let (base, edited) = delta_images();
    let scratch = Scratch::new("pack-v1");
    let populate = Arc::new(CorpusCache::new());
    run(&base, &populate);
    let flushed = flush_subartifacts(&scratch.store(), &populate);
    assert_eq!(flushed.counter(names::INCR_IO_ERRORS), 0);

    // Replace the pack with the previous format over the same loose
    // files: magic "ROCKSPK\x01" | count | (len | frame)* | checksum.
    let mut frames = Vec::new();
    for tier in SubTier::ALL {
        let dir = scratch.0.join("sub").join(tier.name());
        let mut files: Vec<PathBuf> =
            fs::read_dir(&dir).map(|d| d.map(|e| e.unwrap().path()).collect()).unwrap_or_default();
        files.sort();
        frames.extend(files.iter().map(|f| fs::read(f).unwrap()));
    }
    assert_eq!(frames.len() as u64, flushed.counter(names::INCR_FLUSHED));
    let mut v1 = b"ROCKSPK\x01".to_vec();
    v1.extend_from_slice(&(frames.len() as u64).to_le_bytes());
    for frame in &frames {
        v1.extend_from_slice(&(frame.len() as u64).to_le_bytes());
        v1.extend_from_slice(frame);
    }
    let checksum = fnv1a(&v1);
    v1.extend_from_slice(&checksum.to_le_bytes());
    fs::write(scratch.0.join("sub").join(SNAPSHOT_NAME), &v1).unwrap();

    // Preload serves every entry from the loose files and counts the
    // old pack once.
    let store = scratch.store();
    let cache = Arc::new(CorpusCache::new());
    let preloaded = preload_subartifacts(&store, &cache);
    assert_eq!(
        (preloaded.counter(names::INCR_PRELOADED), preloaded.counter(names::INCR_CORRUPT_SKIPPED)),
        (flushed.counter(names::INCR_FLUSHED), 1)
    );

    // The next flush that writes anything replaces it with a v2 pack
    // holding every live entry.
    run(&edited, &cache);
    let stats = flush_subartifacts(&store, &cache);
    assert!(
        stats.counter(names::INCR_FLUSHED) > 0 && stats.counter(names::INCR_IO_ERRORS) == 0,
        "{stats:?}"
    );
    let pack = scratch.pack();
    assert_eq!(&pack[..8], b"ROCKSPK\x02");
    let live: HashSet<(u8, u128)> =
        cache.export_entries().iter().map(|(t, k, _)| (t.tag(), *k)).collect();
    assert_eq!(live.len() as u64, live_entries(&cache));
    assert_eq!(pack_ids(&pack), live);

    // A fresh preload from that store reads exactly one file.
    let (store, vfs) = scratch.counted_store();
    let fresh = Arc::new(CorpusCache::new());
    let preloaded = preload_subartifacts(&store, &fresh);
    assert_eq!(vfs.take()[Op::Read as usize], 1);
    assert_eq!(
        (preloaded.counter(names::INCR_PRELOADED), preloaded.counter(names::INCR_CORRUPT_SKIPPED)),
        (live.len() as u64, 0)
    );
}

//! What an incremental flush costs and what it leaves on disk.
//!
//! A flush persists only the corpus entries added since the last
//! preload or flush, as one segment file under `sub/`. The cost is
//! pinned as storage-call counts through a counting `Vfs`: a flush
//! after a run that added nothing makes no call at all, a one-method
//! patch costs one write and one rename with no listing and no read,
//! and preloading a store one flush wrote costs one listing and one
//! read. Two flushes racing over one corpus put each entry in exactly
//! one segment. A supervised job writes one segment per stage boundary
//! that added entries and nothing after its last stage, and a batch
//! nothing at its end. A file in the previous pack format
//! (`ROCKSPK\x01`) counts once as corrupt, the segments beside it still
//! preload, and nothing rewrites it.

use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use rock::binary::image_to_bytes;
use rock::core::{suite, CorpusCache, Parallelism, Rock, RockConfig, SubTier};
use rock::loader::LoadedBinary;
use rock::supervisor::incr::encode_sub;
use rock::supervisor::{
    decode_snapshot, flush_subartifacts, preload_subartifacts, ArtifactStore, StdVfs, Supervisor,
    SupervisorOptions, Vfs,
};
use rock::trace::{fnv1a, names};

/// One decoded sub-artifact: tier, key, payload.
type Entry = (SubTier, u128, Vec<u8>);

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

    /// The segment files under `sub/`, by name, with their entries.
    fn segments(&self) -> Vec<(String, Vec<Entry>)> {
        let mut names: Vec<String> = fs::read_dir(self.0.join("sub"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".pack") && name != "snapshot.pack")
            .collect();
        names.sort();
        names
            .into_iter()
            .map(|name| {
                let bytes = fs::read(self.0.join("sub").join(&name)).unwrap();
                assert_eq!(name, format!("{:016x}.pack", fnv1a(&bytes)), "named by its bytes");
                let entries = decode_snapshot(&bytes).expect("a segment decodes");
                (name, entries)
            })
            .collect()
    }

    /// Every `(tier tag, key)` the segments hold, asserting none is in
    /// two segments or twice in one.
    fn stored_ids(&self) -> HashSet<(u8, u128)> {
        let entries: Vec<(u8, u128)> = self
            .segments()
            .iter()
            .flat_map(|(_, entries)| entries.iter().map(|(t, k, _)| (t.tag(), *k)))
            .collect();
        let ids: HashSet<(u8, u128)> = entries.iter().copied().collect();
        assert_eq!(ids.len(), entries.len(), "every entry is in exactly one segment");
        ids
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

/// The calls a counted store made, with only `read` and `list` allowed.
fn reads_and_lists(calls: [u64; OPS]) -> (u64, u64) {
    let others: u64 =
        calls.iter().sum::<u64>() - calls[Op::Read as usize] - calls[Op::List as usize];
    assert_eq!(others, 0, "only reads and listings: {calls:?}");
    (calls[Op::Read as usize], calls[Op::List as usize])
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
    assert_eq!(reads_and_lists(vfs.take()), (1, 1), "one listing, then the one segment");
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
fn a_one_method_patch_flush_writes_one_segment() {
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
    let mut expected = [0; OPS];
    expected[Op::Write as usize] = 1;
    expected[Op::Rename as usize] = 1;
    assert_eq!(calls, expected, "one write and one rename, whatever the patch added");
    let segments = scratch.segments();
    assert_eq!(segments.len(), 2, "the base's segment and the patch's");
    assert!(segments.iter().any(|(_, entries)| entries.len() as u64 == k));
    assert_eq!(scratch.stored_ids().len() as u64, before + k);
}

#[test]
fn a_job_and_a_batch_write_one_segment_per_stage_boundary_that_added_entries() {
    let jobs: Vec<(String, Vec<u8>)> = (0..3)
        .map(|i| {
            let compiled = suite::corpus_member(i, 40).compile().expect("compiles");
            (format!("member{i}"), image_to_bytes(&compiled.stripped_image()))
        })
        .collect();
    let config = RockConfig::paper().with_parallelism(Parallelism::Serial);
    let options = SupervisorOptions { incremental: true, ..SupervisorOptions::default() };

    // Jobs run one by one: each boundary that added entries writes one
    // segment holding that stage's tier, and nothing follows `finish`.
    let scratch = Scratch::new("jobs");
    let (store, vfs) = scratch.counted_store();
    let supervisor = Supervisor::new(config, store, options.clone());
    let mut seen = HashSet::new();
    for (i, (name, bytes)) in jobs.iter().enumerate() {
        let report = supervisor.run_job(name, bytes).report;
        assert_eq!(report.counters.counter(names::SUPERVISOR_CHECKPOINTS_SAVED), 4, "{name}");
        let calls = vfs.take();
        let new: Vec<_> =
            scratch.segments().into_iter().filter(|(seg, _)| seen.insert(seg.clone())).collect();
        let mut expected = [0; OPS];
        expected[Op::Write as usize] = new.len() as u64;
        expected[Op::Rename as usize] = new.len() as u64;
        assert_eq!(calls, expected, "{name}: one write and one rename per new segment");
        let mut tiers: Vec<u8> = new
            .iter()
            .map(|(seg, entries)| {
                let tier = entries[0].0.tag();
                assert!(entries.iter().all(|(t, ..)| t.tag() == tier), "{name}: {seg} mixes tiers");
                tier
            })
            .collect();
        tiers.sort_unstable();
        tiers.dedup();
        assert_eq!(tiers.len(), new.len(), "{name}: one segment per stage boundary");
        if i == 0 {
            assert_eq!(new.len(), 4, "a cold job adds entries at every boundary");
        }
        let flushed: usize = new.iter().map(|(_, entries)| entries.len()).sum();
        assert_eq!(report.counters.counter(names::INCR_FLUSHED), flushed as u64, "{name}");
    }
    let total = scratch.stored_ids().len();

    // A batch: the same segments, and nothing at its end.
    let scratch = Scratch::new("batch");
    let (store, vfs) = scratch.counted_store();
    let batch = Supervisor::new(config, store, options).run_batch(&jobs);
    assert_eq!(batch.exit_code, 0);
    let incr = batch.incr.expect("an incremental batch reports its incr counts");
    assert_eq!(incr.counter(names::INCR_FLUSHED), total as u64);
    assert_eq!(incr.counter(names::INCR_IO_ERRORS), 0);
    let calls = vfs.take();
    let segments = scratch.segments().len() as u64;
    assert_eq!(segments, seen.len() as u64, "the jobs' segments, no final one");
    assert_eq!(calls[Op::Write as usize], segments, "one write per segment");
    assert_eq!(calls[Op::Rename as usize], segments, "one rename per segment");
    assert_eq!(calls[Op::Read as usize], 0, "the preload of an empty store reads nothing");
    assert_eq!(scratch.stored_ids().len(), total);
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
        assert_eq!(scratch.stored_ids().len() as u64, live, "trial {trial}");
    }
}

#[test]
fn a_v1_pack_counts_once_and_nothing_rewrites_it() {
    let (base, edited) = delta_images();
    let scratch = Scratch::new("pack-v1");
    let populate = Arc::new(CorpusCache::new());
    run(&base, &populate);
    let flushed = flush_subartifacts(&scratch.store(), &populate);
    assert_eq!(flushed.counter(names::INCR_IO_ERRORS), 0);

    // Beside the segment, a pack in the previous format holding the
    // same frames: magic "ROCKSPK\x01" | count | (len | frame)* | checksum.
    let frames: Vec<Vec<u8>> = scratch
        .segments()
        .iter()
        .flat_map(|(_, entries)| entries.iter().map(|(t, k, p)| encode_sub(*t, *k, p)))
        .collect();
    assert_eq!(frames.len() as u64, flushed.counter(names::INCR_FLUSHED));
    let mut v1 = b"ROCKSPK\x01".to_vec();
    v1.extend_from_slice(&(frames.len() as u64).to_le_bytes());
    for frame in &frames {
        v1.extend_from_slice(&(frame.len() as u64).to_le_bytes());
        v1.extend_from_slice(frame);
    }
    let checksum = fnv1a(&v1);
    v1.extend_from_slice(&checksum.to_le_bytes());
    let old_pack = scratch.0.join("sub").join("snapshot.pack");
    fs::write(&old_pack, &v1).unwrap();

    // Preload serves every entry from the segment and counts the old
    // pack once.
    let store = scratch.store();
    let cache = Arc::new(CorpusCache::new());
    let preloaded = preload_subartifacts(&store, &cache);
    assert_eq!(
        (preloaded.counter(names::INCR_PRELOADED), preloaded.counter(names::INCR_CORRUPT_SKIPPED)),
        (flushed.counter(names::INCR_FLUSHED), 1)
    );

    // The next flush that writes anything adds a segment and leaves the
    // old pack alone.
    run(&edited, &cache);
    let stats = flush_subartifacts(&store, &cache);
    assert!(
        stats.counter(names::INCR_FLUSHED) > 0 && stats.counter(names::INCR_IO_ERRORS) == 0,
        "{stats:?}"
    );
    assert_eq!(fs::read(&old_pack).unwrap(), v1, "nothing rewrites the old pack");
    let live: HashSet<(u8, u128)> =
        cache.export_entries().iter().map(|(t, k, _)| (t.tag(), *k)).collect();
    assert_eq!(live.len() as u64, live_entries(&cache));
    assert_eq!(scratch.stored_ids(), live);

    // A fresh preload lists once and reads the two segments and the old
    // pack, which it counts once again.
    let (store, vfs) = scratch.counted_store();
    let fresh = Arc::new(CorpusCache::new());
    let preloaded = preload_subartifacts(&store, &fresh);
    assert_eq!(reads_and_lists(vfs.take()), (3, 1));
    assert_eq!(
        (preloaded.counter(names::INCR_PRELOADED), preloaded.counter(names::INCR_CORRUPT_SKIPPED)),
        (live.len() as u64, 1)
    );
}

//! The corpus cache: cross-binary content-addressed reuse of analysis,
//! training, and distance work.
//!
//! A fleet of binaries built from overlapping sources (COMDAT folding,
//! shared libraries, template instantiation) repeats the same function
//! bodies across images. The per-job pipeline cannot see that overlap:
//! every job re-executes, re-trains and re-scores work an earlier job
//! already did. [`CorpusCache`] is one shared, thread-safe store that a
//! whole batch attaches to ([`crate::Rock::with_corpus_cache`]), with
//! three tiers keyed by **content hash** — never by anything
//! position-dependent:
//!
//! 1. **Executions** — function content label (plus an analysis-config
//!    salt) → the symbolic execution's per-path sub-object summaries
//!    and fuel cost, with typing vtables recorded by content label
//!    (see [`rock_analysis::canon`]).
//! 2. **Models** — tracelet-pool content key (depth + training
//!    multiset, [`pool_key`]) → the trained SLM, shared by `Arc` so a
//!    hit reuses the finalized evaluation tables, not just the counts.
//! 3. **Distances** — `(metric, from-model key, to-model key)` → the
//!    divergence bits. This is the only distance cache: every pipeline
//!    call site asks [`CorpusCache::distance_with`] when a corpus is
//!    attached, and computes directly when none is.
//! 4. **Liftings** — family lifting key ([`lift_key`]: lifting config +
//!    the family's member model keys in family order + its weighted
//!    edge list) → the selected parent forest and tie-variant count.
//!
//! The same four tiers double as the **incremental invalidation**
//! layer: the supervisor persists the cache across processes as
//! per-function sub-artifacts (see `rock-supervisor`'s `incr` module).
//! Every entry carries a *persisted* mark. [`CorpusCache::import_entry`]
//! restores an entry from disk already marked;
//! [`CorpusCache::claim_unpersisted`] marks every unmarked entry under
//! its shard lock and serializes it in full (not just its verification
//! image), so a flush writes only what was added since the last one and
//! two concurrent flushes never claim the same entry;
//! [`CorpusCache::unclaim`] clears the mark again when a write fails.
//! Because all paths share one keyspace, the in-memory corpus tier and
//! the on-disk incremental tier never double-store: a preloaded entry
//! *is* the corpus entry.
//!
//! Every tier stores a compact verification image (a content
//! fingerprint of the entry) plus an FNV-1a checksum, verified on each
//! hit: a corrupted entry is dropped, counted, and recomputed by the
//! requesting job instead of poisoning it — the same self-verifying
//! discipline as the supervisor's artifact store, at O(1) per hit
//! instead of a full re-hash of the serialized result. Because keys
//! hash the *exact inputs* of the computation they memoize, a hit
//! returns bit-for-bit what the job would have computed itself; warm
//! runs differ from cold runs only in wall clock.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rock_analysis::canon::{CachedCtors, CachedExec, ExecCache, Label};
use rock_analysis::{AnalysisConfig, CachedSub, Event};
use rock_binary::Addr;
use rock_slm::{Metric, Slm};

use crate::faultplan::FaultPlan;

const SHARDS: usize = 16;

/// Version byte mixed into every key: bump to invalidate all entries
/// when any serialized layout or canonicalization rule changes.
/// v2: dictionary-encoded execution entries (see [`encode_exec`]).
const CORPUS_FORMAT: u8 = 2;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn shard_of(key: u128) -> usize {
    // Mix the halves so structured keys still spread.
    let k = (key as u64) ^ ((key >> 64) as u64).rotate_left(29);
    (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 60) as usize % SHARDS
}

/// One self-verifying stored blob.
#[derive(Clone, Debug)]
struct Entry {
    bytes: Vec<u8>,
    checksum: u64,
    /// Whether the incremental store holds the entry this blob belongs
    /// to: imported by a preload, or claimed by a flush. Read and written
    /// under the shard lock, never on the lookup path.
    persisted: bool,
}

impl Entry {
    fn new(bytes: Vec<u8>, persisted: bool) -> Entry {
        let checksum = fnv1a(&bytes);
        Entry { bytes, checksum, persisted }
    }

    fn verified(&self) -> Option<&[u8]> {
        (fnv1a(&self.bytes) == self.checksum).then_some(self.bytes.as_slice())
    }
}

/// A model-tier entry: the verification image (format byte + pool
/// fingerprint) plus the shared trained model.
#[derive(Clone, Debug)]
struct ModelEntry {
    entry: Entry,
    model: Arc<Slm<Event>>,
}

/// An execution-tier slot: either a full symbolic-execution result or a
/// ctor-recognition result (disjoint key spaces, see [`CTOR_TAG`]).
///
/// Execution entries keep the decoded result alongside the serialized
/// verification image, so a hit shares the `Arc` instead of
/// deserializing — the same discipline as [`ModelEntry`].
#[derive(Clone, Debug)]
enum ExecSlot {
    Exec { entry: Entry, exec: Arc<CachedExec> },
    Ctors(Entry),
}

/// Tier values whose verification image the shard bookkeeping (byte
/// accounting, eviction, corruption hooks) can reach uniformly.
trait Stored {
    fn image(&self) -> &Entry;
    fn image_mut(&mut self) -> &mut Entry;
}

impl Stored for Entry {
    fn image(&self) -> &Entry {
        self
    }
    fn image_mut(&mut self) -> &mut Entry {
        self
    }
}

impl Stored for ModelEntry {
    fn image(&self) -> &Entry {
        &self.entry
    }
    fn image_mut(&mut self) -> &mut Entry {
        &mut self.entry
    }
}

impl Stored for ExecSlot {
    fn image(&self) -> &Entry {
        match self {
            ExecSlot::Exec { entry, .. } => entry,
            ExecSlot::Ctors(entry) => entry,
        }
    }
    fn image_mut(&mut self) -> &mut Entry {
        match self {
            ExecSlot::Exec { entry, .. } => entry,
            ExecSlot::Ctors(entry) => entry,
        }
    }
}

/// One lock's worth of a tier: the entries plus their insertion order,
/// so a bounded cache can evict deterministically (FIFO per shard,
/// oldest insertion first) regardless of thread interleaving. Keys
/// whose entries were dropped out-of-band (corruption) linger in the
/// order queue and are skipped lazily when eviction reaches them.
#[derive(Debug)]
struct Shard<K, V> {
    map: BTreeMap<K, V>,
    order: VecDeque<K>,
}

impl<K: Ord, V> Default for Shard<K, V> {
    fn default() -> Shard<K, V> {
        Shard { map: BTreeMap::new(), order: VecDeque::new() }
    }
}

impl<K: Ord + Copy, V: Stored> Shard<K, V> {
    /// Inserts `value` if `key` is vacant, evicting oldest-first down
    /// to `cap - 1` live entries beforehand when `cap` is non-zero.
    /// Eviction is invisible to correctness — a future lookup simply
    /// misses and recomputes — so bounding the cache can only change
    /// hit rates, never output bits. An occupied key keeps its value
    /// (first write wins) but takes on an imported value's persisted
    /// mark: the store holds the same content-addressed entry.
    fn insert_bounded(&mut self, key: K, value: V, cap: usize, counters: &Counters) {
        if let Some(existing) = self.map.get_mut(&key) {
            existing.image_mut().persisted |= value.image().persisted;
            return;
        }
        if cap > 0 {
            while self.map.len() >= cap {
                let Some(oldest) = self.order.pop_front() else { break };
                if let Some(gone) = self.map.remove(&oldest) {
                    let freed = gone.image().bytes.len() as u64;
                    counters.bytes_stored.fetch_sub(freed, Ordering::Relaxed);
                    counters.evicted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        counters.bytes_stored.fetch_add(value.image().bytes.len() as u64, Ordering::Relaxed);
        self.order.push_back(key);
        self.map.insert(key, value);
    }

    /// Clears `key`'s persisted mark, if the key is still present.
    fn unclaim(&mut self, key: &K) {
        if let Some(value) = self.map.get_mut(key) {
            value.image_mut().persisted = false;
        }
    }
}

/// Monotonic hit/miss/bytes counters for the three tiers.
///
/// All counters are totals since construction; per-job deltas come from
/// subtracting two [`CorpusStats`] snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Execution-tier lookups answered from the cache.
    pub tracelet_hits: u64,
    /// Execution-tier lookups that ran live.
    pub tracelet_misses: u64,
    /// Model-tier lookups answered from the cache.
    pub slm_hits: u64,
    /// Model-tier lookups that trained live.
    pub slm_misses: u64,
    /// Distance-tier lookups answered from the cache.
    pub distance_hits: u64,
    /// Distance-tier lookups that computed live.
    pub distance_misses: u64,
    /// Lifting-tier lookups answered from the cache.
    pub lifting_hits: u64,
    /// Lifting-tier lookups that lifted live.
    pub lifting_misses: u64,
    /// Total serialized bytes currently stored across all tiers.
    pub bytes_stored: u64,
    /// Entries dropped because their checksum failed verification.
    pub corrupt_dropped: u64,
    /// Entries dropped by capacity eviction (bounded caches only).
    pub evicted: u64,
}

impl CorpusStats {
    /// Component-wise `self - earlier` (for per-job deltas).
    pub fn since(&self, earlier: &CorpusStats) -> CorpusStats {
        CorpusStats {
            tracelet_hits: self.tracelet_hits - earlier.tracelet_hits,
            tracelet_misses: self.tracelet_misses - earlier.tracelet_misses,
            slm_hits: self.slm_hits - earlier.slm_hits,
            slm_misses: self.slm_misses - earlier.slm_misses,
            distance_hits: self.distance_hits - earlier.distance_hits,
            distance_misses: self.distance_misses - earlier.distance_misses,
            lifting_hits: self.lifting_hits - earlier.lifting_hits,
            lifting_misses: self.lifting_misses - earlier.lifting_misses,
            bytes_stored: self.bytes_stored.saturating_sub(earlier.bytes_stored),
            corrupt_dropped: self.corrupt_dropped - earlier.corrupt_dropped,
            evicted: self.evicted - earlier.evicted,
        }
    }

    /// Hit rate over all four tiers, in `[0, 1]` (1.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.tracelet_hits + self.slm_hits + self.distance_hits + self.lifting_hits;
        let total = hits
            + self.tracelet_misses
            + self.slm_misses
            + self.distance_misses
            + self.lifting_misses;
        if total == 0 {
            1.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    tracelet_hits: AtomicU64,
    tracelet_misses: AtomicU64,
    slm_hits: AtomicU64,
    slm_misses: AtomicU64,
    distance_hits: AtomicU64,
    distance_misses: AtomicU64,
    lifting_hits: AtomicU64,
    lifting_misses: AtomicU64,
    bytes_stored: AtomicU64,
    corrupt_dropped: AtomicU64,
    evicted: AtomicU64,
}

/// A distance-tier key: the metric plus both pool content keys, in
/// evaluation order (KL divergence is not symmetric).
type DistanceKey = (Metric, ModelKey, ModelKey);

/// The distance-tier shard of a key (the metric does not pick the shard).
fn distance_shard((_, from, to): DistanceKey) -> usize {
    shard_of(from ^ to.rotate_left(64))
}

/// The shared cross-job content cache. See the module docs.
///
/// One instance is shared (via `Arc`) by every job of a corpus run;
/// all methods take `&self` and are safe to call concurrently.
#[derive(Debug, Default)]
pub struct CorpusCache {
    execs: [Mutex<Shard<u128, ExecSlot>>; SHARDS],
    models: [Mutex<Shard<ModelKey, ModelEntry>>; SHARDS],
    distances: [Mutex<Shard<DistanceKey, Entry>>; SHARDS],
    liftings: [Mutex<Shard<u128, Entry>>; SHARDS],
    /// Max live entries per shard per tier; 0 = unbounded.
    shard_cap: usize,
    counters: Counters,
}

impl CorpusCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> CorpusCache {
        CorpusCache::default()
    }

    /// Creates an empty cache holding at most (about)
    /// `max_entries_per_tier` entries in each of the three tiers, so a
    /// long-running daemon cannot grow without limit. The bound is
    /// enforced per shard (capacity rounds up to a multiple of the
    /// shard count); when a full shard admits a new entry it evicts its
    /// oldest insertions first, deterministically. Eviction never
    /// changes outputs — an evicted entry is recomputed on the next
    /// miss — it only trades hit rate for memory. `0` means unbounded.
    pub fn bounded(max_entries_per_tier: usize) -> CorpusCache {
        CorpusCache { shard_cap: max_entries_per_tier.div_ceil(SHARDS), ..CorpusCache::default() }
    }

    /// A point-in-time snapshot of the tier counters.
    pub fn stats(&self) -> CorpusStats {
        let c = &self.counters;
        CorpusStats {
            tracelet_hits: c.tracelet_hits.load(Ordering::Relaxed),
            tracelet_misses: c.tracelet_misses.load(Ordering::Relaxed),
            slm_hits: c.slm_hits.load(Ordering::Relaxed),
            slm_misses: c.slm_misses.load(Ordering::Relaxed),
            distance_hits: c.distance_hits.load(Ordering::Relaxed),
            distance_misses: c.distance_misses.load(Ordering::Relaxed),
            lifting_hits: c.lifting_hits.load(Ordering::Relaxed),
            lifting_misses: c.lifting_misses.load(Ordering::Relaxed),
            bytes_stored: c.bytes_stored.load(Ordering::Relaxed),
            corrupt_dropped: c.corrupt_dropped.load(Ordering::Relaxed),
            evicted: c.evicted.load(Ordering::Relaxed),
        }
    }

    /// Entries stored per tier: `(executions, models, distances)`.
    pub fn lens(&self) -> (usize, usize, usize) {
        (
            self.execs.iter().map(|m| m.lock().expect("corpus shard poisoned").map.len()).sum(),
            self.models.iter().map(|m| m.lock().expect("corpus shard poisoned").map.len()).sum(),
            self.distances.iter().map(|m| m.lock().expect("corpus shard poisoned").map.len()).sum(),
        )
    }

    /// Entries stored in the lifting tier (kept out of [`lens`] so the
    /// original three-tier shape stays stable for callers).
    ///
    /// [`lens`]: CorpusCache::lens
    pub fn lifting_len(&self) -> usize {
        self.liftings.iter().map(|m| m.lock().expect("corpus shard poisoned").map.len()).sum()
    }

    /// Looks up a cached family lifting: the selected parent forest
    /// (indices into the family's member list) and the number of
    /// co-optimal tie variants considered. Verified on hit like every
    /// tier; a corrupt entry is dropped and the family re-lifts.
    pub fn load_lifting(&self, key: u128) -> Option<(Vec<Option<usize>>, u64)> {
        let shard = &self.liftings[shard_of(key)];
        let mut s = shard.lock().expect("corpus shard poisoned");
        match s.map.get(&key) {
            None => {
                self.counters.lifting_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Some(entry) => match entry.verified().and_then(decode_lifting) {
                Some(v) => {
                    self.counters.lifting_hits.fetch_add(1, Ordering::Relaxed);
                    Some(v)
                }
                None => {
                    let freed = entry.bytes.len() as u64;
                    s.map.remove(&key);
                    self.counters.bytes_stored.fetch_sub(freed, Ordering::Relaxed);
                    self.counters.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
                    self.counters.lifting_misses.fetch_add(1, Ordering::Relaxed);
                    None
                }
            },
        }
    }

    /// Stores a freshly computed family lifting under its [`lift_key`].
    pub fn store_lifting(&self, key: u128, parent: &[Option<usize>], tie_variants: u64) {
        self.lifting_store(key, encode_lifting(parent, tie_variants), false);
    }

    fn lifting_store(&self, key: u128, bytes: Vec<u8>, persisted: bool) {
        let shard = &self.liftings[shard_of(key)];
        let mut s = shard.lock().expect("corpus shard poisoned");
        s.insert_bounded(key, Entry::new(bytes, persisted), self.shard_cap, &self.counters);
    }

    /// The execution-tier view for one analysis configuration: a
    /// [`rock_analysis::canon::ExecCache`] whose keys mix in the
    /// config's result-affecting knobs, so jobs running with different
    /// budgets never alias each other's entries.
    pub fn exec_cache(&self, config: &AnalysisConfig) -> CorpusExecCache<'_> {
        CorpusExecCache { cache: self, salt: exec_salt(config) }
    }

    fn exec_load(&self, key: u128) -> Option<Arc<CachedExec>> {
        let shard = &self.execs[shard_of(key)];
        let mut s = shard.lock().expect("corpus shard poisoned");
        match s.map.get(&key) {
            Some(ExecSlot::Exec { entry, exec }) => match entry.verified() {
                Some(_) => {
                    self.counters.tracelet_hits.fetch_add(1, Ordering::Relaxed);
                    Some(Arc::clone(exec))
                }
                None => {
                    // Corrupt: drop and recompute.
                    let freed = entry.bytes.len() as u64;
                    s.map.remove(&key);
                    self.counters.bytes_stored.fetch_sub(freed, Ordering::Relaxed);
                    self.counters.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
                    self.counters.tracelet_misses.fetch_add(1, Ordering::Relaxed);
                    None
                }
            },
            _ => {
                self.counters.tracelet_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn exec_store(&self, key: u128, exec: Arc<CachedExec>, persisted: bool) {
        let entry = Entry::new(exec_fp(&exec).to_le_bytes().to_vec(), persisted);
        let shard = &self.execs[shard_of(key)];
        let mut s = shard.lock().expect("corpus shard poisoned");
        s.insert_bounded(key, ExecSlot::Exec { entry, exec }, self.shard_cap, &self.counters);
    }

    // Ctor-recognition results live in the execution tier (they are
    // cached symbolic executions of a function body, just under the
    // empty ctor map), in a key space disjoint from the tracelet
    // entries via `CTOR_TAG`. They share the tier's counters and the
    // corruption hooks.
    fn ctor_load(&self, key: u128) -> Option<CachedCtors> {
        let shard = &self.execs[shard_of(key)];
        let mut s = shard.lock().expect("corpus shard poisoned");
        match s.map.get(&key) {
            Some(ExecSlot::Ctors(entry)) => match entry.verified().and_then(decode_ctors) {
                Some(ctors) => {
                    self.counters.tracelet_hits.fetch_add(1, Ordering::Relaxed);
                    Some(ctors)
                }
                None => {
                    let freed = entry.bytes.len() as u64;
                    s.map.remove(&key);
                    self.counters.bytes_stored.fetch_sub(freed, Ordering::Relaxed);
                    self.counters.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
                    self.counters.tracelet_misses.fetch_add(1, Ordering::Relaxed);
                    None
                }
            },
            _ => {
                self.counters.tracelet_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn ctor_store(&self, key: u128, ctors: &CachedCtors, persisted: bool) {
        let entry = Entry::new(encode_ctors(ctors), persisted);
        let shard = &self.execs[shard_of(key)];
        let mut s = shard.lock().expect("corpus shard poisoned");
        s.insert_bounded(key, ExecSlot::Ctors(entry), self.shard_cap, &self.counters);
    }

    /// Looks up the trained model for a pool content key, verifying the
    /// stored verification image first. A hit shares the model (`Arc`),
    /// so its lazily built index and evaluation table are reused too.
    pub fn load_model(&self, key: ModelKey) -> Option<Arc<Slm<Event>>> {
        let shard = &self.models[shard_of(key)];
        let mut s = shard.lock().expect("corpus shard poisoned");
        match s.map.get(&key) {
            None => {
                self.counters.slm_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Some(me) => match me.entry.verified() {
                Some(_) => {
                    self.counters.slm_hits.fetch_add(1, Ordering::Relaxed);
                    Some(Arc::clone(&me.model))
                }
                None => {
                    let freed = me.entry.bytes.len() as u64;
                    s.map.remove(&key);
                    self.counters.bytes_stored.fetch_sub(freed, Ordering::Relaxed);
                    self.counters.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
                    self.counters.slm_misses.fetch_add(1, Ordering::Relaxed);
                    None
                }
            },
        }
    }

    /// Stores a freshly trained model under its pool content key. The
    /// verification image is the key itself (format byte plus the
    /// 16-byte pool fingerprint) — enough for the checksum discipline
    /// to detect bit rot without re-hashing a serialized pool per hit.
    pub fn store_model(&self, key: ModelKey, model: Arc<Slm<Event>>) {
        self.model_store(key, model, false);
    }

    fn model_store(&self, key: ModelKey, model: Arc<Slm<Event>>, persisted: bool) {
        let mut bytes = vec![CORPUS_FORMAT];
        bytes.extend_from_slice(&key.to_le_bytes());
        let entry = Entry::new(bytes, persisted);
        let shard = &self.models[shard_of(key)];
        let mut s = shard.lock().expect("corpus shard poisoned");
        s.insert_bounded(key, ModelEntry { entry, model }, self.shard_cap, &self.counters);
    }

    /// The distance from the model keyed `from` to the one keyed `to`
    /// under `metric`: answered from the distance tier when it holds a
    /// verified entry, otherwise computed by `compute` and published.
    /// `compute` runs only on a miss (outside the shard lock) and must
    /// return exactly what `metric` gives for the two keyed models — the
    /// distance stage passes its batched family kernel here. Every call
    /// counts one `distance_hits` or `distance_misses`; a corrupt entry
    /// is dropped, counted, and recomputed.
    pub fn distance_with(
        &self,
        metric: Metric,
        from: ModelKey,
        to: ModelKey,
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        let key = (metric, from, to);
        if let Some(d) = self.distance_load(key) {
            return d;
        }
        let d = compute();
        self.distance_store(key, d, false);
        d
    }

    fn distance_load(&self, key: DistanceKey) -> Option<f64> {
        let shard = &self.distances[distance_shard(key)];
        let mut s = shard.lock().expect("corpus shard poisoned");
        match s.map.get(&key) {
            None => {
                self.counters.distance_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Some(entry) => match entry.verified().and_then(|b| {
                let bits: [u8; 8] = b.try_into().ok()?;
                Some(f64::from_le_bytes(bits))
            }) {
                Some(d) => {
                    self.counters.distance_hits.fetch_add(1, Ordering::Relaxed);
                    Some(d)
                }
                None => {
                    let freed = entry.bytes.len() as u64;
                    s.map.remove(&key);
                    self.counters.bytes_stored.fetch_sub(freed, Ordering::Relaxed);
                    self.counters.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
                    self.counters.distance_misses.fetch_add(1, Ordering::Relaxed);
                    None
                }
            },
        }
    }

    fn distance_store(&self, key: DistanceKey, d: f64, persisted: bool) {
        let shard = &self.distances[distance_shard(key)];
        let mut s = shard.lock().expect("corpus shard poisoned");
        let entry = Entry::new(d.to_le_bytes().to_vec(), persisted);
        s.insert_bounded(key, entry, self.shard_cap, &self.counters);
    }

    /// Deterministically corrupts every stored byte image (all tiers)
    /// with `plan`'s seeded XOR mutations — the corruption-recovery
    /// test hook. Returns the number of entries touched.
    pub fn corrupt_all(&self, plan: &FaultPlan, mutations_per_entry: usize) -> usize {
        let mut touched = 0;
        for shard in &self.execs {
            for slot in shard.lock().expect("corpus shard poisoned").map.values_mut() {
                plan.corrupt(&mut slot.image_mut().bytes, mutations_per_entry);
                touched += 1;
            }
        }
        for shard in &self.models {
            for me in shard.lock().expect("corpus shard poisoned").map.values_mut() {
                plan.corrupt(&mut me.entry.bytes, mutations_per_entry);
                touched += 1;
            }
        }
        for shard in &self.distances {
            for entry in shard.lock().expect("corpus shard poisoned").map.values_mut() {
                plan.corrupt(&mut entry.bytes, mutations_per_entry);
                touched += 1;
            }
        }
        for shard in &self.liftings {
            for entry in shard.lock().expect("corpus shard poisoned").map.values_mut() {
                plan.corrupt(&mut entry.bytes, mutations_per_entry);
                touched += 1;
            }
        }
        touched
    }

    /// Serializes every verified, persisted entry in full (not just its
    /// verification image): what the incremental store holds, for
    /// rebuilding a lost snapshot pack. Order and encoding are those of
    /// [`CorpusCache::claim_unpersisted`].
    pub fn export_entries(&self) -> Vec<(SubTier, u128, Vec<u8>)> {
        self.encode_entries(|entry| entry.persisted)
    }

    /// Claims every entry not yet persisted: marks it persisted under
    /// its shard lock and serializes it in full, so each entry is handed
    /// to exactly one flush however many run at once. Returns the
    /// claimed entries and the number of entries found already
    /// persisted. A caller whose write of a claimed entry fails hands it
    /// back with [`CorpusCache::unclaim`]. Only unpersisted entries are
    /// verified and encoded, so a claim costs what was added.
    ///
    /// Order is deterministic: tier by tier, shard index ascending, key
    /// ascending within each shard. Entries that fail their checksum
    /// are skipped — they would be dropped on the next lookup anyway.
    /// Exec-tier payloads lead with a sub-tag byte (`0` = execution,
    /// `1` = ctor recognition) because both kinds share the tier's
    /// keyspace. Distance entries are re-keyed by
    /// [`distance_disk_key`], which folds the full `(metric, from, to)`
    /// triple into one `u128` — the triple itself travels in the
    /// payload so an import can verify the key before trusting it.
    pub fn claim_unpersisted(&self) -> (Vec<(SubTier, u128, Vec<u8>)>, u64) {
        let mut unchanged = 0;
        let claimed = self.encode_entries(|entry| {
            if entry.persisted {
                unchanged += 1;
                return false;
            }
            entry.persisted = true;
            true
        });
        (claimed, unchanged)
    }

    /// Hands back an entry [`CorpusCache::claim_unpersisted`] returned
    /// (its write failed), so the next claim includes it again. The
    /// payload locates distance entries, whose disk key is a fold of
    /// their in-memory key. An entry evicted meanwhile is simply gone.
    pub fn unclaim(&self, tier: SubTier, key: u128, payload: &[u8]) {
        const POISONED: &str = "corpus shard poisoned";
        match tier {
            SubTier::Exec => self.execs[shard_of(key)].lock().expect(POISONED).unclaim(&key),
            SubTier::Model => self.models[shard_of(key)].lock().expect(POISONED).unclaim(&key),
            SubTier::Distance => {
                let Some((metric, from, to, _)) = decode_distance(payload) else { return };
                let key = (metric, from, to);
                self.distances[distance_shard(key)].lock().expect(POISONED).unclaim(&key);
            }
            SubTier::Lifting => self.liftings[shard_of(key)].lock().expect(POISONED).unclaim(&key),
        }
    }

    /// Serializes, in the order [`CorpusCache::claim_unpersisted`]
    /// documents, every entry whose image `pick` accepts and that then
    /// verifies (`pick` may update the image's persisted mark).
    fn encode_entries(
        &self,
        mut pick: impl FnMut(&mut Entry) -> bool,
    ) -> Vec<(SubTier, u128, Vec<u8>)> {
        let mut out = Vec::new();
        for shard in &self.execs {
            for (&key, slot) in &mut shard.lock().expect("corpus shard poisoned").map {
                if !pick(slot.image_mut()) || slot.image().verified().is_none() {
                    continue;
                }
                let bytes = match slot {
                    ExecSlot::Exec { exec, .. } => {
                        let mut bytes = vec![EXEC_SUBTAG_EXEC];
                        bytes.extend_from_slice(&encode_exec(exec));
                        bytes
                    }
                    ExecSlot::Ctors(entry) => {
                        let mut bytes = vec![EXEC_SUBTAG_CTORS];
                        bytes.extend_from_slice(&entry.bytes);
                        bytes
                    }
                };
                out.push((SubTier::Exec, key, bytes));
            }
        }
        for shard in &self.models {
            for (&key, me) in &mut shard.lock().expect("corpus shard poisoned").map {
                if pick(&mut me.entry) && me.entry.verified().is_some() {
                    out.push((SubTier::Model, key, encode_model(&me.model)));
                }
            }
        }
        for shard in &self.distances {
            for (&(metric, from, to), entry) in
                &mut shard.lock().expect("corpus shard poisoned").map
            {
                if !pick(entry) {
                    continue;
                }
                let Some(bits) = entry.verified().and_then(|b| {
                    let raw: [u8; 8] = b.try_into().ok()?;
                    Some(u64::from_le_bytes(raw))
                }) else {
                    continue;
                };
                let key = distance_disk_key(metric, from, to);
                out.push((SubTier::Distance, key, encode_distance(metric, from, to, bits)));
            }
        }
        for shard in &self.liftings {
            for (&key, entry) in &mut shard.lock().expect("corpus shard poisoned").map {
                if pick(entry) && entry.verified().is_some() {
                    out.push((SubTier::Lifting, key, entry.bytes.clone()));
                }
            }
        }
        out
    }

    /// Restores one exported entry. Decoding is fully validating:
    /// model payloads must reproduce their own pool content key,
    /// distance payloads must reproduce the disk key they were filed
    /// under — so a stale or misfiled artifact is rejected (`false`)
    /// rather than poisoning the cache. Existing keys are left
    /// untouched (first write wins, like every tier store). Imports
    /// count neither hits nor misses; only pipeline lookups do.
    pub fn import_entry(&self, tier: SubTier, key: u128, bytes: &[u8]) -> bool {
        match tier {
            SubTier::Exec => {
                let Some((&subtag, body)) = bytes.split_first() else {
                    return false;
                };
                match subtag {
                    EXEC_SUBTAG_EXEC => match decode_exec(body) {
                        Some(exec) => {
                            self.exec_store(key, Arc::new(exec), true);
                            true
                        }
                        None => false,
                    },
                    EXEC_SUBTAG_CTORS => match decode_ctors(body) {
                        Some(ctors) => {
                            self.ctor_store(key, &ctors, true);
                            true
                        }
                        None => false,
                    },
                    _ => false,
                }
            }
            SubTier::Model => match decode_model(key, bytes) {
                Some(model) => {
                    self.model_store(key, Arc::new(model), true);
                    true
                }
                None => false,
            },
            SubTier::Distance => match decode_distance(bytes) {
                Some((metric, from, to, d)) if distance_disk_key(metric, from, to) == key => {
                    self.distance_store((metric, from, to), d, true);
                    true
                }
                _ => false,
            },
            SubTier::Lifting => match decode_lifting(bytes) {
                Some(_) => {
                    self.lifting_store(key, bytes.to_vec(), true);
                    true
                }
                None => false,
            },
        }
    }
}

/// The four persistable cache tiers, as seen by the incremental
/// sub-artifact store (one directory per tier on disk).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubTier {
    /// Cached symbolic executions and ctor recognitions.
    Exec,
    /// Trained statistical language models.
    Model,
    /// Pairwise model divergences.
    Distance,
    /// Family lifting results (parent forests + tie counts).
    Lifting,
}

impl SubTier {
    /// All tiers, in persistence order.
    pub const ALL: [SubTier; 4] =
        [SubTier::Exec, SubTier::Model, SubTier::Distance, SubTier::Lifting];

    /// Stable directory / display name.
    pub fn name(self) -> &'static str {
        match self {
            SubTier::Exec => "exec",
            SubTier::Model => "model",
            SubTier::Distance => "distance",
            SubTier::Lifting => "lifting",
        }
    }

    /// Stable one-byte wire tag.
    pub fn tag(self) -> u8 {
        match self {
            SubTier::Exec => 0,
            SubTier::Model => 1,
            SubTier::Distance => 2,
            SubTier::Lifting => 3,
        }
    }

    /// Inverse of [`SubTier::tag`].
    pub fn from_tag(tag: u8) -> Option<SubTier> {
        SubTier::ALL.into_iter().find(|t| t.tag() == tag)
    }
}

/// The execution-tier adapter handed to the behavioral analysis: keys
/// are `salt ⊕ function label`, where the salt fingerprints every
/// analysis knob that can change an execution result (`max_paths`,
/// `block_visit_limit`, `max_events_per_object`, the fuel limit —
/// deliberately *not* `tracelet_len`, which is applied downstream of the
/// cached event sequences, and not `deadline_ms`, under which the cache
/// is bypassed entirely).
#[derive(Clone, Copy, Debug)]
pub struct CorpusExecCache<'a> {
    cache: &'a CorpusCache,
    salt: u128,
}

impl ExecCache for CorpusExecCache<'_> {
    fn load(&self, key: Label) -> Option<Arc<CachedExec>> {
        self.cache.exec_load(self.salt ^ key.as_u128())
    }

    fn store(&self, key: Label, exec: Arc<CachedExec>) {
        self.cache.exec_store(self.salt ^ key.as_u128(), exec, false);
    }

    fn load_ctors(&self, key: Label) -> Option<CachedCtors> {
        self.cache.ctor_load(self.salt ^ key.as_u128() ^ CTOR_TAG)
    }

    fn store_ctors(&self, key: Label, ctors: &CachedCtors) {
        self.cache.ctor_store(self.salt ^ key.as_u128() ^ CTOR_TAG, ctors, false);
    }
}

/// XORed into ctor-recognition keys so they can share the execution
/// tier's shards without ever aliasing a tracelet entry.
const CTOR_TAG: u128 = 0xc70c_70c7_0c70_c70c_5a5a_5a5a_5a5a_5a5a;

/// Fingerprints the result-affecting analysis knobs for execution keys.
/// `tracelet_len` is included because entries carry pre-windowed
/// pieces: two configs that split at different lengths must not share.
fn exec_salt(config: &AnalysisConfig) -> u128 {
    let mut w = Writer::default();
    w.u8(CORPUS_FORMAT);
    w.u64(config.max_paths as u64);
    w.u64(config.block_visit_limit as u64);
    w.u64(config.max_events_per_object as u64);
    w.u64(config.fuel.limit());
    w.u64(config.tracelet_len as u64);
    key_of_bytes(&w.bytes)
}

/// The pipeline's model key: a 128-bit content hash of a model's training
/// input ([`pool_key`]). Equal keys imply bit-equal trained models, which
/// is what makes sharing models and distances across runs — and across
/// *binaries* — sound.
pub type ModelKey = u128;

/// The content key of one SLM training input: model depth plus the
/// tracelet **multiset** — exactly the state a trained [`Slm`] is a
/// pure function of. Pools with equal keys train bit-equal models, at
/// any thread count, in any binary.
///
/// The key folds per-tracelet fingerprints with a commutative
/// (wrapping) sum, so extraction order cannot change it and no sorted
/// multiset is materialized — this runs on every pool of every warm
/// job, and must cost one pass over the events.
pub fn pool_key(depth: usize, pool: &[Arc<[Event]>]) -> ModelKey {
    let mut sum_a: u64 = 0;
    let mut sum_b: u64 = 0;
    for t in pool {
        let fp = tracelet_fp(t);
        sum_a = sum_a.wrapping_add(fp as u64);
        sum_b = sum_b.wrapping_add((fp >> 64) as u64);
    }
    pool_key_of_counts(depth as u64, pool.len() as u64, sum_a, sum_b)
}

/// [`pool_key`] from its commutative accumulators — shared with the
/// model-payload verifier, which recomputes the key from `(sequence,
/// count)` pairs (`count` copies of a fingerprint sum to
/// `fp.wrapping_mul(count)` mod 2⁶⁴).
fn pool_key_of_counts(depth: u64, total: u64, sum_a: u64, sum_b: u64) -> ModelKey {
    let mut w = Writer::default();
    w.u8(CORPUS_FORMAT);
    w.u64(depth);
    w.u64(total);
    w.u64(sum_a);
    w.u64(sum_b);
    key_of_bytes(&w.bytes)
}

/// The content key of one family lifting: every input the lifting
/// stage's output is a pure function of — the tie-resolution config,
/// the family's member model keys **in family order** (the parent
/// vector indexes members by that order), and the family's weighted
/// candidate edge list as `(parent index, child index, distance bits)`
/// triples in the caller's deterministic order. Any changed member
/// model flips its `ModelKey`; any changed divergence flips its bits;
/// either flips this key, so a stale lifting can never be reused.
pub fn lift_key(
    resolve_ties: bool,
    tie_epsilon: f64,
    max_tie_variants: usize,
    members: &[ModelKey],
    edges: &[(u32, u32, u64)],
) -> u128 {
    let mut w = Writer::default();
    w.u8(CORPUS_FORMAT);
    w.u8(u8::from(resolve_ties));
    w.u64(tie_epsilon.to_bits());
    w.u64(max_tie_variants as u64);
    w.u64(members.len() as u64);
    for &m in members {
        w.u64(m as u64);
        w.u64((m >> 64) as u64);
    }
    w.u64(edges.len() as u64);
    for &(from, to, bits) in edges {
        w.u32(from);
        w.u32(to);
        w.u64(bits);
    }
    key_of_bytes(&w.bytes)
}

/// One word-mixing step of the dual-FNV content fingerprints: each
/// stream absorbs the word, multiplies, and folds the high bits back
/// down — every step a bijection on the stream state.
fn mix(a: &mut u64, b: &mut u64, v: u64) {
    *a = (*a ^ v).wrapping_mul(0x100_0000_01b3);
    *a ^= *a >> 32;
    *b = (*b ^ v.rotate_left(17)).wrapping_mul(0x100_0000_01b3);
    *b ^= *b >> 32;
}

/// The (tag, payload) word pair an event contributes to a fingerprint.
fn event_words(e: Event) -> (u64, u64) {
    match e {
        Event::C(i) => (0, i as u64),
        Event::R(o) => (1, o as i64 as u64),
        Event::W(o) => (2, o as i64 as u64),
        Event::This => (3, 0),
        Event::Arg(i) => (4, i as u64),
        Event::Ret => (5, 0),
        Event::Call(addr) => (6, addr.value()),
    }
}

/// Dual-FNV fingerprint of one tracelet's event sequence.
fn tracelet_fp(t: &[Event]) -> u128 {
    let mut a: u64 = 0xcbf2_9ce4_8422_2325;
    let mut b: u64 = 0x9e37_79b9_7f4a_7c15;
    mix(&mut a, &mut b, t.len() as u64);
    for &e in t {
        let (tag, payload) = event_words(e);
        mix(&mut a, &mut b, tag);
        mix(&mut a, &mut b, payload);
    }
    (u128::from(b) << 64) | u128::from(a)
}

/// Content fingerprint of a cached execution — the execution tier's
/// 16-byte verification image. Walks every field a serialized image
/// would cover (fuel, attribution structure, vtable labels, windowed
/// events), allocation-free: stores cost one pass, hit verification
/// costs a 16-byte checksum.
fn exec_fp(exec: &CachedExec) -> u128 {
    let mut a: u64 = 0xcbf2_9ce4_8422_2325;
    let mut b: u64 = 0x9e37_79b9_7f4a_7c15;
    mix(&mut a, &mut b, exec.fuel_spent);
    mix(&mut a, &mut b, exec.subs.len() as u64);
    for s in &exec.subs {
        match s.vtable {
            None => mix(&mut a, &mut b, 0),
            Some(l) => {
                mix(&mut a, &mut b, 1);
                mix(&mut a, &mut b, l.lo);
                mix(&mut a, &mut b, l.hi);
            }
        }
        mix(&mut a, &mut b, s.pieces.len() as u64);
        for p in &s.pieces {
            mix(&mut a, &mut b, p.len() as u64);
            for &e in p.iter() {
                let (tag, payload) = event_words(e);
                mix(&mut a, &mut b, tag);
                mix(&mut a, &mut b, payload);
            }
        }
    }
    (u128::from(b) << 64) | u128::from(a)
}

/// Folds a byte image into a 128-bit key via two FNV-1a streams.
fn key_of_bytes(bytes: &[u8]) -> u128 {
    let mut a: u64 = 0xcbf2_9ce4_8422_2325;
    let mut b: u64 = 0x9e37_79b9_7f4a_7c15;
    for &x in bytes {
        a = (a ^ u64::from(x)).wrapping_mul(0x100_0000_01b3);
        b = (b ^ u64::from(x ^ 0xa5)).wrapping_mul(0x100_0000_01b3);
    }
    (u128::from(b) << 64) | u128::from(a)
}

// --- Serialization (little-endian, length-prefixed) -------------------

#[derive(Default)]
struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }
    fn u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }
    fn u32(&mut self) -> Option<u32> {
        let s = self.bytes.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(s.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        let s = self.bytes.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().ok()?))
    }
    fn i64(&mut self) -> Option<i64> {
        self.u64().map(|v| v as i64)
    }
    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn encode_ctors(ctors: &CachedCtors) -> Vec<u8> {
    let mut w = Writer::default();
    w.u8(CORPUS_FORMAT);
    w.u32(ctors.stores.len() as u32);
    for &(off, label) in &ctors.stores {
        w.i64(i64::from(off));
        w.u64(label.lo);
        w.u64(label.hi);
    }
    w.bytes
}

fn decode_ctors(bytes: &[u8]) -> Option<CachedCtors> {
    let mut r = Reader::new(bytes);
    if r.u8()? != CORPUS_FORMAT {
        return None;
    }
    let count = r.u32()? as usize;
    let mut stores = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let off = i32::try_from(r.i64()?).ok()?;
        let label = Label { lo: r.u64()?, hi: r.u64()? };
        stores.push((off, label));
    }
    r.done().then_some(CachedCtors { stores })
}

// --- Full-entry serializers (incremental persistence) ------------------
//
// The in-memory tiers keep compact verification images; persisting an
// entry across processes needs the *whole* value. These encoders share
// the tiers' little-endian `Writer`/`Reader` and are fully validating
// on decode: structural damage, count lies, or trailing garbage all
// return `None`, which an importer treats as "recompute".

/// Leading payload byte of a persisted execution-tier entry holding a
/// full symbolic execution.
const EXEC_SUBTAG_EXEC: u8 = 0;
/// Leading payload byte of a persisted execution-tier entry holding a
/// ctor-recognition result.
const EXEC_SUBTAG_CTORS: u8 = 1;

/// Event wire form: the same `(tag, payload)` pair the fingerprints
/// mix, so the two views can never drift apart.
fn encode_event(w: &mut Writer, e: Event) {
    let (tag, payload) = event_words(e);
    w.u8(tag as u8);
    w.u64(payload);
}

fn decode_event(r: &mut Reader) -> Option<Event> {
    let tag = r.u8()?;
    let payload = r.u64()?;
    Some(match tag {
        0 => Event::C(usize::try_from(payload).ok()?),
        1 => Event::R(i32::try_from(payload as i64).ok()?),
        2 => Event::W(i32::try_from(payload as i64).ok()?),
        3 if payload == 0 => Event::This,
        4 => Event::Arg(usize::try_from(payload).ok()?),
        5 if payload == 0 => Event::Ret,
        6 => Event::Call(Addr::new(payload)),
        _ => return None,
    })
}

// Executions are dictionary-encoded: paths through branchy functions
// repeat whole sub-objects (a fork whose arms make the same calls
// yields identical per-path summaries), so the wire form stores each
// distinct piece and each distinct sub once and spells the original
// `subs` sequence as indices. Decoding rebuilds the exact path-major
// order — multiplicity is training evidence and must survive — while
// identical pieces share one `Arc` in memory, like a live hit.
fn encode_exec(exec: &CachedExec) -> Vec<u8> {
    let mut piece_dict: Vec<&Arc<[Event]>> = Vec::new();
    let mut piece_ids: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut sub_dict: Vec<(&CachedSub, Vec<u32>)> = Vec::new();
    let mut sub_ids: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut sub_seq: Vec<u32> = Vec::with_capacity(exec.subs.len());
    for s in &exec.subs {
        let mut indices = Vec::with_capacity(s.pieces.len());
        for p in &s.pieces {
            let mut pw = Writer::default();
            for &e in p.iter() {
                encode_event(&mut pw, e);
            }
            let next = piece_dict.len() as u32;
            let id = *piece_ids.entry(pw.bytes).or_insert_with(|| {
                piece_dict.push(p);
                next
            });
            indices.push(id);
        }
        let mut sw = Writer::default();
        match s.vtable {
            None => sw.u8(0),
            Some(l) => {
                sw.u8(1);
                sw.u64(l.lo);
                sw.u64(l.hi);
            }
        }
        for &i in &indices {
            sw.u32(i);
        }
        let next = sub_dict.len() as u32;
        let id = *sub_ids.entry(sw.bytes).or_insert_with(|| {
            sub_dict.push((s, indices));
            next
        });
        sub_seq.push(id);
    }

    let mut w = Writer::default();
    w.u8(CORPUS_FORMAT);
    w.u64(exec.fuel_spent);
    w.u32(piece_dict.len() as u32);
    for p in &piece_dict {
        w.u32(p.len() as u32);
        for &e in p.iter() {
            encode_event(&mut w, e);
        }
    }
    w.u32(sub_dict.len() as u32);
    for (s, indices) in &sub_dict {
        match s.vtable {
            None => w.u8(0),
            Some(l) => {
                w.u8(1);
                w.u64(l.lo);
                w.u64(l.hi);
            }
        }
        w.u32(indices.len() as u32);
        for &i in indices {
            w.u32(i);
        }
    }
    w.u32(sub_seq.len() as u32);
    for &i in &sub_seq {
        w.u32(i);
    }
    w.bytes
}

fn decode_exec(bytes: &[u8]) -> Option<CachedExec> {
    let mut r = Reader::new(bytes);
    if r.u8()? != CORPUS_FORMAT {
        return None;
    }
    let fuel_spent = r.u64()?;
    let piece_count = r.u32()? as usize;
    let mut piece_dict: Vec<Arc<[Event]>> = Vec::with_capacity(piece_count.min(1 << 16));
    for _ in 0..piece_count {
        let len = r.u32()? as usize;
        let mut events = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            events.push(decode_event(&mut r)?);
        }
        piece_dict.push(events.into());
    }
    let sub_count = r.u32()? as usize;
    let mut sub_dict: Vec<CachedSub> = Vec::with_capacity(sub_count.min(1 << 16));
    for _ in 0..sub_count {
        let vtable = match r.u8()? {
            0 => None,
            1 => Some(Label { lo: r.u64()?, hi: r.u64()? }),
            _ => return None,
        };
        let piece_refs = r.u32()? as usize;
        let mut pieces = Vec::with_capacity(piece_refs.min(1 << 16));
        for _ in 0..piece_refs {
            let id = r.u32()? as usize;
            pieces.push(Arc::clone(piece_dict.get(id)?));
        }
        sub_dict.push(CachedSub { vtable, pieces });
    }
    let seq_count = r.u32()? as usize;
    let mut subs = Vec::with_capacity(seq_count.min(1 << 16));
    for _ in 0..seq_count {
        let id = r.u32()? as usize;
        subs.push(sub_dict.get(id)?.clone());
    }
    r.done().then_some(CachedExec { subs, fuel_spent })
}

fn encode_model(model: &Slm<Event>) -> Vec<u8> {
    let mut w = Writer::default();
    w.u8(CORPUS_FORMAT);
    w.u64(model.depth() as u64);
    w.u32(model.unique_training_len() as u32);
    for (seq, count) in model.training() {
        w.u64(count);
        w.u32(seq.len() as u32);
        for &e in seq {
            encode_event(&mut w, e);
        }
    }
    w.bytes
}

/// Decodes a persisted model and **verifies it against its own key**:
/// the decoded `(sequence, count)` multiset must reproduce `key` under
/// [`pool_key`]'s commutative fold. Training is order-independent
/// ([`Slm::train_counted`]), so the rebuilt model is bit-identical to
/// the one originally trained from the live pool.
fn decode_model(key: ModelKey, bytes: &[u8]) -> Option<Slm<Event>> {
    let mut r = Reader::new(bytes);
    if r.u8()? != CORPUS_FORMAT {
        return None;
    }
    let depth = usize::try_from(r.u64()?).ok()?;
    let unique = r.u32()? as usize;
    let mut model = Slm::new(depth);
    let mut sum_a: u64 = 0;
    let mut sum_b: u64 = 0;
    let mut total: u64 = 0;
    let mut events = Vec::new();
    for _ in 0..unique {
        let count = r.u64()?;
        if count == 0 {
            return None;
        }
        let len = r.u32()? as usize;
        events.clear();
        for _ in 0..len {
            events.push(decode_event(&mut r)?);
        }
        let fp = tracelet_fp(&events);
        sum_a = sum_a.wrapping_add((fp as u64).wrapping_mul(count));
        sum_b = sum_b.wrapping_add(((fp >> 64) as u64).wrapping_mul(count));
        total = total.checked_add(count)?;
        model.train_counted(&events, count);
    }
    if !r.done() || pool_key_of_counts(depth as u64, total, sum_a, sum_b) != key {
        return None;
    }
    Some(model)
}

fn metric_tag(metric: Metric) -> u8 {
    match metric {
        Metric::KlDivergence => 0,
        Metric::JsDivergence => 1,
        Metric::JsDistance => 2,
    }
}

fn metric_from_tag(tag: u8) -> Option<Metric> {
    Metric::ALL.into_iter().find(|&m| metric_tag(m) == tag)
}

/// Encodes the `(metric, from, to)` triple of one distance entry — both
/// the disk key's preimage and the leading portion of its payload.
fn encode_distance_triple(metric: Metric, from: ModelKey, to: ModelKey) -> Writer {
    let mut w = Writer::default();
    w.u8(CORPUS_FORMAT);
    w.u8(metric_tag(metric));
    w.u64(from as u64);
    w.u64((from >> 64) as u64);
    w.u64(to as u64);
    w.u64((to >> 64) as u64);
    w
}

/// The `u128` a distance entry is filed under on disk: a fold of its
/// full `(metric, from, to)` triple. The triple also travels in the
/// payload, so an import recomputes this and rejects a misfiled entry.
pub fn distance_disk_key(metric: Metric, from: ModelKey, to: ModelKey) -> u128 {
    key_of_bytes(&encode_distance_triple(metric, from, to).bytes)
}

fn encode_distance(metric: Metric, from: ModelKey, to: ModelKey, d_bits: u64) -> Vec<u8> {
    let mut w = encode_distance_triple(metric, from, to);
    w.u64(d_bits);
    w.bytes
}

fn decode_distance(bytes: &[u8]) -> Option<(Metric, ModelKey, ModelKey, f64)> {
    let mut r = Reader::new(bytes);
    if r.u8()? != CORPUS_FORMAT {
        return None;
    }
    let metric = metric_from_tag(r.u8()?)?;
    let from = u128::from(r.u64()?) | (u128::from(r.u64()?) << 64);
    let to = u128::from(r.u64()?) | (u128::from(r.u64()?) << 64);
    let d = f64::from_bits(r.u64()?);
    r.done().then_some((metric, from, to, d))
}

fn encode_lifting(parent: &[Option<usize>], tie_variants: u64) -> Vec<u8> {
    let mut w = Writer::default();
    w.u8(CORPUS_FORMAT);
    w.u64(tie_variants);
    w.u32(parent.len() as u32);
    for p in parent {
        match p {
            None => w.u8(0),
            Some(i) => {
                w.u8(1);
                w.u32(*i as u32);
            }
        }
    }
    w.bytes
}

fn decode_lifting(bytes: &[u8]) -> Option<(Vec<Option<usize>>, u64)> {
    let mut r = Reader::new(bytes);
    if r.u8()? != CORPUS_FORMAT {
        return None;
    }
    let tie_variants = r.u64()?;
    let count = r.u32()? as usize;
    let mut parent = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        match r.u8()? {
            0 => parent.push(None),
            1 => {
                let i = r.u32()? as usize;
                if i >= count {
                    return None;
                }
                parent.push(Some(i));
            }
            _ => return None,
        }
    }
    r.done().then_some((parent, tie_variants))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_exec() -> CachedExec {
        CachedExec {
            subs: vec![
                CachedSub {
                    vtable: Some(Label { lo: 7, hi: 9 }),
                    pieces: vec![
                        vec![
                            Event::This,
                            Event::C(2),
                            Event::W(-8),
                            Event::Call(Addr::new(0xdead_beef)),
                        ]
                        .into(),
                        vec![Event::Ret].into(),
                    ],
                },
                CachedSub {
                    vtable: None,
                    pieces: vec![vec![Event::R(4), Event::Arg(1), Event::Ret].into()],
                },
            ],
            fuel_spent: 12345,
        }
    }

    #[test]
    fn exec_fp_covers_every_field() {
        let base = exec_fp(&sample_exec());
        let mut fuel = sample_exec();
        fuel.fuel_spent += 1;
        assert_ne!(exec_fp(&fuel), base, "fuel is covered");
        let mut ev = sample_exec();
        ev.subs[0].pieces[1] = vec![Event::C(3)].into();
        assert_ne!(exec_fp(&ev), base, "events are covered");
        let mut vt = sample_exec();
        vt.subs[0].vtable = None;
        assert_ne!(exec_fp(&vt), base, "vtable labels are covered");
        let mut shape = sample_exec();
        shape.subs.pop();
        assert_ne!(exec_fp(&shape), base, "attribution structure is covered");
    }

    #[test]
    fn pool_key_is_order_independent_with_multiplicity() {
        let a: Arc<[Event]> = vec![Event::C(0), Event::Ret].into();
        let b: Arc<[Event]> = vec![Event::This, Event::W(8)].into();
        let k1 = pool_key(2, &[a.clone(), b.clone(), a.clone()]);
        let k2 = pool_key(2, &[b.clone(), a.clone(), a.clone()]);
        assert_eq!(k1, k2, "multiset key ignores extraction order");
        let k3 = pool_key(2, &[a.clone(), b.clone()]);
        assert_ne!(k1, k3, "multiplicity matters");
        let k4 = pool_key(3, &[a, b]);
        assert_ne!(k3, k4, "depth matters");
    }

    #[test]
    fn exec_tier_hits_misses_and_corruption() {
        let cache = CorpusCache::new();
        let cfg = AnalysisConfig::default();
        let view = cache.exec_cache(&cfg);
        let key = Label { lo: 11, hi: 22 };
        assert_eq!(view.load(key), None);
        let exec = Arc::new(sample_exec());
        view.store(key, Arc::clone(&exec));
        let hit = view.load(key).expect("stored exec must hit");
        assert!(Arc::ptr_eq(&hit, &exec), "hits share the decoded execution");
        let s = cache.stats();
        assert_eq!((s.tracelet_hits, s.tracelet_misses), (1, 1));
        assert!(s.bytes_stored > 0);
        // A different config salts to a different key space.
        let other = cache.exec_cache(&AnalysisConfig::fast());
        assert_eq!(other.load(key), None);
        // Corrupt every entry: next load detects, drops, recomputes.
        let touched = cache.corrupt_all(&FaultPlan::seeded(5, 0), 3);
        assert_eq!(touched, 1);
        assert_eq!(view.load(key), None);
        let s = cache.stats();
        assert_eq!(s.corrupt_dropped, 1);
        assert_eq!(s.bytes_stored, 0);
        // Recompute path: store again, clean hit.
        view.store(key, Arc::clone(&exec));
        assert_eq!(view.load(key), Some(exec));
    }

    #[test]
    fn ctor_entries_share_the_exec_tier() {
        let cache = CorpusCache::new();
        let cfg = AnalysisConfig::default();
        let view = cache.exec_cache(&cfg);
        let key = Label { lo: 33, hi: 44 };
        assert_eq!(view.load_ctors(key), None);
        let ctors =
            CachedCtors { stores: vec![(0, Label { lo: 1, hi: 2 }), (16, Label { lo: 3, hi: 4 })] };
        view.store_ctors(key, &ctors);
        assert_eq!(view.load_ctors(key), Some(ctors.clone()));
        // The tagged key space never aliases the execution entries.
        assert_eq!(view.load(key), None);
        view.store(key, Arc::new(sample_exec()));
        assert_eq!(view.load_ctors(key), Some(ctors.clone()));
        // Corruption drops ctor entries like any other.
        let touched = cache.corrupt_all(&FaultPlan::seeded(7, 0), 3);
        assert_eq!(touched, 2);
        assert_eq!(view.load_ctors(key), None);
        assert!(cache.stats().corrupt_dropped >= 1);
        // Negative results (no stores) round-trip too.
        view.store_ctors(key, &CachedCtors::default());
        assert_eq!(view.load_ctors(key), Some(CachedCtors::default()));
    }

    #[test]
    fn ctors_roundtrip() {
        let ctors = CachedCtors { stores: vec![(-8, Label { lo: 5, hi: 6 })] };
        assert_eq!(decode_ctors(&encode_ctors(&ctors)), Some(ctors));
        assert_eq!(
            decode_ctors(&encode_ctors(&CachedCtors::default())),
            Some(CachedCtors::default())
        );
        assert_eq!(decode_ctors(&[]), None);
        assert_eq!(decode_ctors(&[0xff, 1, 2]), None);
    }

    #[test]
    fn model_tier_shares_the_same_arc() {
        let cache = CorpusCache::new();
        let pool: Vec<Arc<[Event]>> =
            vec![vec![Event::C(0), Event::C(1)].into(), vec![Event::Ret].into()];
        let key = pool_key(2, &pool);
        assert!(cache.load_model(key).is_none());
        let mut m = Slm::new(2);
        for t in &pool {
            m.train(t);
        }
        m.finalize();
        let arc = Arc::new(m);
        cache.store_model(key, Arc::clone(&arc));
        let hit = cache.load_model(key).expect("stored model must hit");
        assert!(Arc::ptr_eq(&hit, &arc), "hits share the finalized model");
        let s = cache.stats();
        assert_eq!((s.slm_hits, s.slm_misses), (1, 1));
    }

    #[test]
    fn bounded_cache_evicts_oldest_first_and_counts() {
        // Shard cap of 1 per tier: the second insert landing in an
        // occupied shard must evict that shard's older entry.
        let cache = CorpusCache::bounded(SHARDS);
        let d = 1.5_f64;
        for k in 0..64u128 {
            cache.distance_with(Metric::KlDivergence, k, k + 1, || d + k as f64);
        }
        let (_, _, dist_len) = cache.lens();
        assert!(dist_len <= SHARDS, "live entries bounded by cap ({dist_len} > {SHARDS})");
        let s = cache.stats();
        assert_eq!(s.evicted, 64 - dist_len as u64, "every displaced entry is counted");
        // The newest entry in its shard survives and verifies clean.
        let got = cache.distance_load((Metric::KlDivergence, 63, 64));
        assert_eq!(got.map(f64::to_bits), Some((d + 63.0).to_bits()));
        // Evicted keys simply miss — the caller recomputes and
        // re-stores, which evicts again rather than growing the shard.
        let victim = (0..64u128)
            .find(|&k| cache.distance_load((Metric::KlDivergence, k, k + 1)).is_none())
            .expect("some key was evicted");
        assert_eq!(cache.distance_with(Metric::KlDivergence, victim, victim + 1, || 9.0), 9.0);
        let (_, _, after) = cache.lens();
        assert!(after <= SHARDS, "re-store under pressure must not grow the shard");
        // bytes_stored reflects live entries only: 8 bytes per distance.
        assert_eq!(cache.stats().bytes_stored, 8 * after as u64);
        // An unbounded cache never evicts.
        let unbounded = CorpusCache::new();
        for k in 0..64u128 {
            unbounded.distance_with(Metric::KlDivergence, k, k + 1, || d);
        }
        assert_eq!(unbounded.stats().evicted, 0);
        assert_eq!(unbounded.lens().2, 64);
    }

    #[test]
    fn bounded_exec_tier_evicts_deterministically() {
        let a = CorpusCache::bounded(SHARDS);
        let b = CorpusCache::bounded(SHARDS);
        let cfg = AnalysisConfig::default();
        for cache in [&a, &b] {
            let view = cache.exec_cache(&cfg);
            for i in 0..40 {
                view.store(Label { lo: i, hi: i * 3 + 1 }, Arc::new(sample_exec()));
            }
        }
        // Same insertion sequence → identical survivor sets.
        let cfg_view = (a.exec_cache(&cfg), b.exec_cache(&cfg));
        for i in 0..40 {
            let key = Label { lo: i, hi: i * 3 + 1 };
            assert_eq!(
                cfg_view.0.load(key).is_some(),
                cfg_view.1.load(key).is_some(),
                "eviction must be deterministic (key {i})"
            );
        }
        assert_eq!(a.stats().evicted, b.stats().evicted);
        assert!(a.stats().evicted > 0, "40 inserts over a 16-entry tier must evict");
    }

    #[test]
    fn claims_hand_each_entry_out_once() {
        let cache = CorpusCache::new();
        let view = cache.exec_cache(&AnalysisConfig::default());
        view.store(Label { lo: 1, hi: 2 }, Arc::new(sample_exec()));
        view.store_ctors(Label { lo: 3, hi: 4 }, &CachedCtors::default());
        let pool: Vec<Arc<[Event]>> = vec![vec![Event::C(0), Event::Ret].into()];
        let mut model = Slm::new(2);
        model.train(&pool[0]);
        model.finalize();
        cache.store_model(pool_key(2, &pool), Arc::new(model));
        cache.distance_with(Metric::KlDivergence, 5, 6, || 0.5);
        cache.store_lifting(7, &[None, Some(0)], 1);

        let (claimed, unchanged) = cache.claim_unpersisted();
        assert_eq!((claimed.len(), unchanged), (5, 0));
        assert_eq!(cache.export_entries(), claimed, "a claim marks its entries persisted");
        let (again, unchanged) = cache.claim_unpersisted();
        assert!(again.is_empty(), "a claimed entry is handed out once");
        assert_eq!(unchanged, 5);

        // A failed write hands the entry back, in every tier.
        for (tier, key, payload) in &claimed {
            cache.unclaim(*tier, *key, payload);
        }
        assert_eq!(cache.claim_unpersisted(), (claimed.clone(), 0));

        // Imported entries arrive persisted; a live store of the same
        // key keeps the mark, and an import marks a live entry.
        let warm = CorpusCache::new();
        for (tier, key, payload) in &claimed {
            assert!(warm.import_entry(*tier, *key, payload));
        }
        warm.distance_store((Metric::KlDivergence, 5, 6), 0.5, false);
        assert_eq!(warm.claim_unpersisted(), (Vec::new(), 5));
        let live = CorpusCache::new();
        live.store_lifting(7, &[None, Some(0)], 1);
        let lifting = claimed.iter().find(|(t, ..)| *t == SubTier::Lifting).expect("lifting");
        assert!(live.import_entry(lifting.0, lifting.1, &lifting.2));
        assert_eq!(live.claim_unpersisted(), (Vec::new(), 1));
    }

    fn slm(seqs: &[&[&'static str]]) -> Slm<&'static str> {
        let mut m = Slm::new(2);
        for s in seqs {
            m.train(s);
        }
        m
    }

    #[test]
    fn distance_with_computes_only_on_a_miss() {
        let cache = CorpusCache::new();
        let d = 0.1234567890123_f64;
        let mut calls = 0;
        for _ in 0..3 {
            let got = cache.distance_with(Metric::KlDivergence, 1, 2, || {
                calls += 1;
                d
            });
            assert_eq!(got.to_bits(), d.to_bits(), "hits return the stored bits");
        }
        assert_eq!(calls, 1);
        let s = cache.stats();
        assert_eq!((s.distance_hits, s.distance_misses), (2, 1));
        // A corrupt entry is dropped and recomputed, never returned.
        cache.corrupt_all(&FaultPlan::seeded(3, 0), 3);
        assert_eq!(cache.distance_with(Metric::KlDivergence, 1, 2, || d + 1.0), d + 1.0);
        let s = cache.stats();
        assert_eq!((s.distance_hits, s.distance_misses, s.corrupt_dropped), (2, 2, 1));
    }

    #[test]
    fn distance_keys_are_per_metric_and_direction() {
        let a = slm(&[&["x", "x", "x"]]);
        let b = slm(&[&["x", "y", "z"]]);
        let cache = CorpusCache::new();
        for metric in Metric::ALL {
            for (from, to, fm, tm) in [(1, 2, &a, &b), (2, 1, &b, &a)] {
                let d = cache.distance_with(metric, from, to, || metric.distance(fm, tm));
                assert_eq!(d.to_bits(), metric.distance(fm, tm).to_bits());
            }
        }
        assert_eq!(cache.lens().2, 6, "three metrics times two directions");
        let s = cache.stats();
        assert_eq!((s.distance_hits, s.distance_misses), (0, 6));
        // Each stored entry answers only its own key.
        let kl_ab = cache.distance_with(Metric::KlDivergence, 1, 2, || unreachable!());
        assert_eq!(kl_ab.to_bits(), rock_slm::kl_divergence(&a, &b).to_bits());
        assert_ne!(kl_ab, rock_slm::kl_divergence(&b, &a), "KL is not symmetric here");
    }

    #[test]
    fn concurrent_distance_callers_get_bit_equal_values() {
        let a = slm(&[&["x", "y", "x", "z"]]);
        let b = slm(&[&["y", "z", "y"]]);
        let want = rock_slm::kl_divergence(&a, &b).to_bits();
        let cache = CorpusCache::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..50u128 {
                        let d =
                            cache.distance_with(Metric::KlDivergence, i % 5, 10 + i % 7, || {
                                rock_slm::kl_divergence(&a, &b)
                            });
                        assert_eq!(d.to_bits(), want);
                    }
                });
            }
        });
        assert_eq!(cache.lens().2, 5 * 7);
        let s = cache.stats();
        assert_eq!(s.distance_hits + s.distance_misses, 200);
        assert!(s.distance_misses >= 35, "every distinct key missed at least once");
    }
}

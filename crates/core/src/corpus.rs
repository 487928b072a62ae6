//! The corpus cache: cross-binary content-addressed reuse of analysis,
//! training, and distance work.
//!
//! A fleet of binaries built from overlapping sources (COMDAT folding,
//! shared libraries, template instantiation) repeats the same function
//! bodies across images. The per-job pipeline cannot see that overlap:
//! every job re-executes, re-trains and re-scores work an earlier job
//! already did. [`CorpusCache`] is one shared, thread-safe store that a
//! whole batch attaches to ([`crate::Rock::with_corpus_cache`]), with
//! four tiers keyed by **content hash** — never by anything
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
//! fingerprint of the entry) plus an FNV-1a checksum, and every tier
//! answers through one verified lookup (`Tier::lookup`): the checksum
//! is checked on each hit, and a corrupted entry is dropped, counted,
//! and recomputed by the requesting job instead of poisoning it — the
//! same self-verifying discipline as the supervisor's artifact store,
//! at O(1) per hit instead of a full re-hash of the serialized result.
//! Because keys hash the *exact inputs* of the computation they
//! memoize, a hit returns bit-for-bit what the job would have computed
//! itself; warm runs differ from cold runs only in wall clock.
//!
//! Entries, keys and their preimages are written with the one byte
//! codec ([`rock_binary::codec`]), checksummed with
//! [`rock_trace::fnv1a`], and folded into 128-bit keys with the one
//! dual-FNV mixer ([`rock_analysis::canon::Mixer`]).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use rock_analysis::canon::{
    event_words, tracelet_fp, CachedCtors, CachedExec, ExecCache, Label, Mixer,
};
use rock_analysis::{AnalysisConfig, CachedSub, Event, PoolSum};
use rock_binary::codec::{Reader, WireError, Writer};
use rock_binary::{image_to_bytes, Addr, BinaryImage};
use rock_slm::{Metric, Slm};
use rock_trace::{fnv1a, names, MetricsRegistry};

use crate::config::{MAX_TIE_VARIANTS, TIE_EPSILON};
use crate::faultplan::FaultPlan;

const SHARDS: usize = 16;

/// Version byte mixed into every key: bump to invalidate all entries
/// when any serialized layout or canonicalization rule changes.
/// v2: dictionary-encoded execution entries (see [`encode_exec`]).
const CORPUS_FORMAT: u8 = 2;

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
    /// Once the shard has been claimed from: every key stored unmarked
    /// or unclaimed since the last claim (`None` before the first, which
    /// walks the whole map). A claim visits only these, so it costs what
    /// was added, and a cache that never persists keeps no list.
    unpersisted: Option<Vec<K>>,
}

impl<K: Ord, V> Default for Shard<K, V> {
    fn default() -> Shard<K, V> {
        Shard { map: BTreeMap::new(), order: VecDeque::new(), unpersisted: None }
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
        if let (Some(keys), false) = (&mut self.unpersisted, value.image().persisted) {
            keys.push(key);
        }
        self.order.push_back(key);
        self.map.insert(key, value);
    }

    /// Clears `key`'s persisted mark, if the key is still present.
    fn unclaim(&mut self, key: &K) {
        if let Some(value) = self.map.get_mut(key) {
            value.image_mut().persisted = false;
            if let Some(keys) = &mut self.unpersisted {
                keys.push(*key);
            }
        }
    }

    /// With `claim`, marks every unmarked entry persisted, returns their
    /// keys and adds the number of entries marked already to
    /// `unchanged`; without, returns the keys of every persisted entry.
    /// Keys come in ascending order.
    fn select(&mut self, claim: bool, unchanged: &mut u64) -> Vec<K> {
        if !claim {
            return self.map.iter().filter(|(_, v)| v.image().persisted).map(|(k, _)| *k).collect();
        }
        let mut keys = match self.unpersisted.replace(Vec::new()) {
            Some(keys) => keys,
            None => self.map.keys().copied().collect(),
        };
        keys.sort_unstable();
        keys.dedup();
        keys.retain(|key| {
            self.map
                .get_mut(key)
                .is_some_and(|v| !std::mem::replace(&mut v.image_mut().persisted, true))
        });
        *unchanged += (self.map.len() - keys.len()) as u64;
        keys
    }
}

/// One tier of the cache: its shards plus its hit and miss counts.
#[derive(Debug)]
struct Tier<K, V> {
    shards: [Mutex<Shard<K, V>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Ord, V> Default for Tier<K, V> {
    fn default() -> Tier<K, V> {
        Tier {
            shards: std::array::from_fn(|_| Mutex::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<K: Ord + Copy, V: Stored> Tier<K, V> {
    fn lock(&self, shard: usize) -> MutexGuard<'_, Shard<K, V>> {
        self.shards[shard].lock().expect("corpus shard poisoned")
    }

    /// Looks `key` up in `shard` and hands `read` the entry only once
    /// its checksum verifies. An entry that fails the checksum, or that
    /// `read` rejects, is dropped and counted as corrupt, so the caller
    /// recomputes it. Every call counts one hit or one miss.
    fn lookup<R>(
        &self,
        shard: usize,
        key: &K,
        counters: &Counters,
        read: impl FnOnce(&V) -> Option<R>,
    ) -> Option<R> {
        let mut s = self.lock(shard);
        let found = match s.map.get(key) {
            None => None,
            Some(value) => {
                let found = value.image().verified().and_then(|_| read(value));
                if found.is_none() {
                    let freed = value.image().bytes.len() as u64;
                    s.map.remove(key);
                    counters.bytes_stored.fetch_sub(freed, Ordering::Relaxed);
                    counters.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
                }
                found
            }
        };
        let count = if found.is_some() { &self.hits } else { &self.misses };
        count.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Hands `visit` every entry [`Shard::select`] picks whose checksum
    /// verifies, shard by shard, keys ascending within each; returns the
    /// number of entries a claim found persisted already.
    fn select_verified(&self, claim: bool, mut visit: impl FnMut(K, &V)) -> u64 {
        let mut unchanged = 0;
        for shard in 0..SHARDS {
            let mut shard = self.lock(shard);
            for key in shard.select(claim, &mut unchanged) {
                let value = &shard.map[&key];
                if value.image().verified().is_some() {
                    visit(key, value);
                }
            }
        }
        unchanged
    }

    /// Entries stored, over every shard.
    fn len(&self) -> usize {
        (0..SHARDS).map(|shard| self.lock(shard).map.len()).sum()
    }

    /// Applies `plan`'s seeded XOR mutations to every stored byte image,
    /// shard by shard; returns the number of entries touched.
    fn corrupt(&self, plan: &FaultPlan, mutations_per_entry: usize) -> usize {
        let mut touched = 0;
        for shard in 0..SHARDS {
            for value in self.lock(shard).map.values_mut() {
                plan.corrupt(&mut value.image_mut().bytes, mutations_per_entry);
                touched += 1;
            }
        }
        touched
    }
}

/// Hit rate over all four tiers of a [`CorpusCache::stats`] snapshot
/// (or a delta of two), in `[0, 1]` (1.0 when idle).
pub fn hit_rate(stats: &MetricsRegistry) -> f64 {
    let sum = |tiers: [&str; 4]| tiers.iter().map(|name| stats.counter(name)).sum::<u64>();
    let hits = sum([
        names::CORPUS_TRACELET_HIT,
        names::CORPUS_SLM_HIT,
        names::CORPUS_DISTANCE_HIT,
        names::CORPUS_LIFTING_HIT,
    ]);
    let misses = sum([
        names::CORPUS_TRACELET_MISS,
        names::CORPUS_SLM_MISS,
        names::CORPUS_DISTANCE_MISS,
        names::CORPUS_LIFTING_MISS,
    ]);
    if hits + misses == 0 {
        1.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// The counters every tier shares, behind [`CorpusCache::stats`]
/// beside each tier's own hits and misses: corruption drops and
/// evictions are totals since construction; `bytes_stored` is a gauge
/// of resident bytes.
#[derive(Debug, Default)]
struct Counters {
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
    execs: Tier<u128, ExecSlot>,
    models: Tier<ModelKey, ModelEntry>,
    distances: Tier<DistanceKey, Entry>,
    liftings: Tier<u128, Entry>,
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
    /// `max_entries_per_tier` entries in each of the four tiers, so a
    /// long-running daemon cannot grow without limit. The bound is
    /// enforced per shard (capacity rounds up to a multiple of the
    /// shard count); when a full shard admits a new entry it evicts its
    /// oldest insertions first, deterministically. Eviction never
    /// changes outputs — an evicted entry is recomputed on the next
    /// miss — it only trades hit rate for memory. `0` means unbounded.
    pub fn bounded(max_entries_per_tier: usize) -> CorpusCache {
        CorpusCache { shard_cap: max_entries_per_tier.div_ceil(SHARDS), ..CorpusCache::default() }
    }

    /// A point-in-time snapshot of the tier counters under their
    /// `corpus.*` names, all eleven present even at zero. Per-job deltas
    /// come from [`MetricsRegistry::since`] between two snapshots.
    pub fn stats(&self) -> MetricsRegistry {
        let c = &self.counters;
        let mut stats = MetricsRegistry::new();
        for (name, counter) in [
            (names::CORPUS_TRACELET_HIT, &self.execs.hits),
            (names::CORPUS_TRACELET_MISS, &self.execs.misses),
            (names::CORPUS_SLM_HIT, &self.models.hits),
            (names::CORPUS_SLM_MISS, &self.models.misses),
            (names::CORPUS_DISTANCE_HIT, &self.distances.hits),
            (names::CORPUS_DISTANCE_MISS, &self.distances.misses),
            (names::CORPUS_LIFTING_HIT, &self.liftings.hits),
            (names::CORPUS_LIFTING_MISS, &self.liftings.misses),
            (names::CORPUS_BYTES_STORED, &c.bytes_stored),
            (names::CORPUS_CORRUPT_DROPPED, &c.corrupt_dropped),
            (names::CORPUS_EVICTED, &c.evicted),
        ] {
            stats.set(name, counter.load(Ordering::Relaxed));
        }
        stats
    }

    /// Entries stored per tier: `(executions, models, distances)`.
    pub fn lens(&self) -> (usize, usize, usize) {
        (self.execs.len(), self.models.len(), self.distances.len())
    }

    /// Entries stored in the lifting tier (kept out of [`lens`] so the
    /// original three-tier shape stays stable for callers).
    ///
    /// [`lens`]: CorpusCache::lens
    pub fn lifting_len(&self) -> usize {
        self.liftings.len()
    }

    /// Looks up a cached family lifting: the selected parent forest
    /// (indices into the family's member list) and the number of
    /// co-optimal tie variants considered. Verified on hit like every
    /// tier; a corrupt entry is dropped and the family re-lifts.
    pub fn load_lifting(&self, key: u128) -> Option<(Vec<Option<usize>>, u64)> {
        self.liftings
            .lookup(shard_of(key), &key, &self.counters, |entry| decode_lifting(&entry.bytes).ok())
    }

    /// Stores a freshly computed family lifting under its [`lift_key`].
    pub fn store_lifting(&self, key: u128, parent: &[Option<usize>], tie_variants: u64) {
        self.lifting_store(key, encode_lifting(parent, tie_variants), false);
    }

    fn lifting_store(&self, key: u128, bytes: Vec<u8>, persisted: bool) {
        let entry = Entry::new(bytes, persisted);
        self.liftings.lock(shard_of(key)).insert_bounded(
            key,
            entry,
            self.shard_cap,
            &self.counters,
        );
    }

    /// The execution-tier view for one analysis configuration: a
    /// [`rock_analysis::canon::ExecCache`] whose keys mix in the
    /// config's result-affecting knobs, so jobs running with different
    /// budgets never alias each other's entries.
    pub fn exec_cache(&self, config: &AnalysisConfig) -> CorpusExecCache<'_> {
        CorpusExecCache { cache: self, salt: exec_salt(config) }
    }

    /// The execution-tier view for runs without canonical calls
    /// ([`rock_analysis::CallEvents::Raw`]). Their call events
    /// carry raw callee addresses, so the salt also hashes the whole
    /// image; with the extractor's entry-bound function keys, an entry
    /// then answers only the function, in the image, it came from.
    pub fn image_exec_cache(
        &self,
        config: &AnalysisConfig,
        image: &BinaryImage,
    ) -> CorpusExecCache<'_> {
        let mut w = Writer::new();
        w.u128(exec_salt(config));
        w.raw(&image_to_bytes(image));
        CorpusExecCache { cache: self, salt: key_of_bytes(&w.into_bytes()) }
    }

    // Ctor-recognition results live in the execution tier (they are
    // cached symbolic executions of a function body, just under the
    // empty ctor map), in a key space disjoint from the tracelet
    // entries via `CTOR_TAG`. They share the tier's counters and the
    // corruption hooks. A lookup that finds a slot of the other kind
    // treats it like a corrupt entry: dropped, counted, recomputed.
    fn exec_load(&self, key: u128) -> Option<Arc<CachedExec>> {
        self.execs.lookup(shard_of(key), &key, &self.counters, |slot| match slot {
            ExecSlot::Exec { exec, .. } => Some(Arc::clone(exec)),
            ExecSlot::Ctors(_) => None,
        })
    }

    fn exec_store(&self, key: u128, exec: Arc<CachedExec>, persisted: bool) {
        let entry = Entry::new(exec_fp(&exec).to_le_bytes().to_vec(), persisted);
        let slot = ExecSlot::Exec { entry, exec };
        self.execs.lock(shard_of(key)).insert_bounded(key, slot, self.shard_cap, &self.counters);
    }

    fn ctor_load(&self, key: u128) -> Option<CachedCtors> {
        self.execs.lookup(shard_of(key), &key, &self.counters, |slot| match slot {
            ExecSlot::Ctors(entry) => decode_ctors(&entry.bytes).ok(),
            ExecSlot::Exec { .. } => None,
        })
    }

    fn ctor_store(&self, key: u128, ctors: &CachedCtors, persisted: bool) {
        let slot = ExecSlot::Ctors(Entry::new(encode_ctors(ctors), persisted));
        self.execs.lock(shard_of(key)).insert_bounded(key, slot, self.shard_cap, &self.counters);
    }

    /// Looks up the trained model for a pool content key, verifying the
    /// stored verification image first. A hit shares the model (`Arc`),
    /// so its lazily built index and evaluation table are reused too.
    pub fn load_model(&self, key: ModelKey) -> Option<Arc<Slm<Event>>> {
        self.models.lookup(shard_of(key), &key, &self.counters, |me| Some(Arc::clone(&me.model)))
    }

    /// Stores a freshly trained model under its pool content key. The
    /// verification image is the key itself (format byte plus the
    /// 16-byte pool fingerprint) — enough for the checksum discipline
    /// to detect bit rot without re-hashing a serialized pool per hit.
    pub fn store_model(&self, key: ModelKey, model: Arc<Slm<Event>>) {
        self.model_store(key, model, false);
    }

    fn model_store(&self, key: ModelKey, model: Arc<Slm<Event>>, persisted: bool) {
        let mut w = Writer::new();
        w.u8(CORPUS_FORMAT);
        w.u128(key);
        let entry = ModelEntry { entry: Entry::new(w.into_bytes(), persisted), model };
        self.models.lock(shard_of(key)).insert_bounded(key, entry, self.shard_cap, &self.counters);
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
        self.distances.lookup(distance_shard(key), &key, &self.counters, |entry| {
            Some(f64::from_le_bytes(entry.bytes.as_slice().try_into().ok()?))
        })
    }

    fn distance_store(&self, key: DistanceKey, d: f64, persisted: bool) {
        let entry = Entry::new(d.to_le_bytes().to_vec(), persisted);
        let mut shard = self.distances.lock(distance_shard(key));
        shard.insert_bounded(key, entry, self.shard_cap, &self.counters);
    }

    /// Deterministically corrupts every stored byte image (all tiers)
    /// with `plan`'s seeded XOR mutations — the corruption-recovery
    /// test hook. Returns the number of entries touched.
    pub fn corrupt_all(&self, plan: &FaultPlan, mutations_per_entry: usize) -> usize {
        self.execs.corrupt(plan, mutations_per_entry)
            + self.models.corrupt(plan, mutations_per_entry)
            + self.distances.corrupt(plan, mutations_per_entry)
            + self.liftings.corrupt(plan, mutations_per_entry)
    }

    /// Serializes every verified, persisted entry in full (not just its
    /// verification image): what the incremental store holds, for
    /// rebuilding a lost snapshot pack. Order and encoding are those of
    /// [`CorpusCache::claim_unpersisted`].
    pub fn export_entries(&self) -> Vec<(SubTier, u128, Vec<u8>)> {
        self.encode_entries(false).0
    }

    /// Claims every entry not yet persisted: marks it persisted under
    /// its shard lock and serializes it in full, so each entry is handed
    /// to exactly one flush however many run at once. Returns the
    /// claimed entries and the number of entries found already
    /// persisted. A caller whose write of a claimed entry fails hands it
    /// back with [`CorpusCache::unclaim`]. After a shard's first claim
    /// it tracks the keys stored unmarked since, so a claim visits and
    /// encodes only what was added, not every entry the cache holds.
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
        self.encode_entries(true)
    }

    /// Hands back an entry [`CorpusCache::claim_unpersisted`] returned
    /// (its write failed), so the next claim includes it again. The
    /// payload locates distance entries, whose disk key is a fold of
    /// their in-memory key. An entry evicted meanwhile is simply gone.
    pub fn unclaim(&self, tier: SubTier, key: u128, payload: &[u8]) {
        match tier {
            SubTier::Exec => self.execs.lock(shard_of(key)).unclaim(&key),
            SubTier::Model => self.models.lock(shard_of(key)).unclaim(&key),
            SubTier::Distance => {
                let Ok((metric, from, to, _)) = decode_distance(payload) else { return };
                let key = (metric, from, to);
                self.distances.lock(distance_shard(key)).unclaim(&key);
            }
            SubTier::Lifting => self.liftings.lock(shard_of(key)).unclaim(&key),
        }
    }

    /// Serializes, in the order [`CorpusCache::claim_unpersisted`]
    /// documents, the verified entries it claims (`claim`), or else
    /// every verified persisted entry. Returns them and the number of
    /// entries a claim found persisted already (0 for an export).
    fn encode_entries(&self, claim: bool) -> (Vec<(SubTier, u128, Vec<u8>)>, u64) {
        let mut out = Vec::new();
        let mut unchanged = self.execs.select_verified(claim, |key, slot| {
            let bytes = match slot {
                ExecSlot::Exec { exec, .. } => {
                    [&[EXEC_SUBTAG_EXEC], &encode_exec(exec)[..]].concat()
                }
                ExecSlot::Ctors(entry) => [&[EXEC_SUBTAG_CTORS], &entry.bytes[..]].concat(),
            };
            out.push((SubTier::Exec, key, bytes));
        });
        unchanged += self.models.select_verified(claim, |key, me| {
            out.push((SubTier::Model, key, encode_model(&me.model)));
        });
        unchanged += self.distances.select_verified(claim, |(metric, from, to), entry| {
            let Ok(bits) = <[u8; 8]>::try_from(entry.bytes.as_slice()) else { return };
            let payload = encode_distance(metric, from, to, u64::from_le_bytes(bits));
            out.push((SubTier::Distance, distance_disk_key(metric, from, to), payload));
        });
        unchanged += self.liftings.select_verified(claim, |key, entry| {
            out.push((SubTier::Lifting, key, entry.bytes.clone()));
        });
        (out, unchanged)
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
            SubTier::Exec => match bytes.split_first() {
                Some((&EXEC_SUBTAG_EXEC, body)) => {
                    let Ok(exec) = decode_exec(body) else { return false };
                    self.exec_store(key, Arc::new(exec), true);
                }
                Some((&EXEC_SUBTAG_CTORS, body)) => {
                    let Ok(ctors) = decode_ctors(body) else { return false };
                    self.ctor_store(key, &ctors, true);
                }
                _ => return false,
            },
            SubTier::Model => {
                let Ok(model) = decode_model(key, bytes) else { return false };
                self.model_store(key, Arc::new(model), true);
            }
            SubTier::Distance => match decode_distance(bytes) {
                Ok((metric, from, to, d)) if distance_disk_key(metric, from, to) == key => {
                    self.distance_store((metric, from, to), d, true);
                }
                _ => return false,
            },
            SubTier::Lifting => {
                if decode_lifting(bytes).is_err() {
                    return false;
                }
                self.lifting_store(key, bytes.to_vec(), true);
            }
        }
        true
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
/// analysis knob that can change a stored execution: `max_paths`,
/// `block_visit_limit`, `max_events_per_object`, the fuel limit and
/// `tracelet_len`.
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
    let mut w = Writer::new();
    w.u8(CORPUS_FORMAT);
    w.u64(config.max_paths as u64);
    w.u64(config.block_visit_limit as u64);
    w.u64(config.max_events_per_object as u64);
    w.u64(config.fuel.limit());
    w.u64(config.tracelet_len as u64);
    key_of_bytes(&w.into_bytes())
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
/// The key folds per-tracelet fingerprints ([`tracelet_fp`]) with a
/// commutative (wrapping) sum, so extraction order cannot change it and
/// no sorted multiset is materialized. The pipeline never walks a pool
/// for it: the analysis carries each pool's accumulators
/// ([`rock_analysis::TypeTracelets::sum_of`]) and `pool_key_of_sum`
/// folds them. This is the reference those sums are tested against.
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

/// [`pool_key`] of the pool whose accumulators are `sum`.
pub(crate) fn pool_key_of_sum(depth: usize, sum: PoolSum) -> ModelKey {
    pool_key_of_counts(depth as u64, sum.count, sum.lo, sum.hi)
}

/// [`pool_key`] from its commutative accumulators — shared with the
/// model-payload verifier, which recomputes the key from `(sequence,
/// count)` pairs (`count` copies of a fingerprint sum to
/// `fp.wrapping_mul(count)` mod 2⁶⁴).
fn pool_key_of_counts(depth: u64, total: u64, sum_a: u64, sum_b: u64) -> ModelKey {
    let mut w = Writer::new();
    w.u8(CORPUS_FORMAT);
    w.u64(depth);
    w.u64(total);
    w.u64(sum_a);
    w.u64(sum_b);
    key_of_bytes(&w.into_bytes())
}

/// The content key of one family lifting: every input the lifting
/// stage's output is a pure function of — the tie-resolution config,
/// the family's member model keys **in family order** (the parent
/// vector indexes members by that order), and the family's weighted
/// candidate edge list as `(parent index, child index, distance bits)`
/// triples in the caller's deterministic order. Any changed member
/// model flips its `ModelKey`; any changed divergence flips its bits;
/// either flips this key, so a stale lifting can never be reused.
pub fn lift_key(resolve_ties: bool, members: &[ModelKey], edges: &[(u32, u32, u64)]) -> u128 {
    let mut w = Writer::new();
    w.u8(CORPUS_FORMAT);
    w.u8(u8::from(resolve_ties));
    w.u64(TIE_EPSILON.to_bits());
    w.u64(MAX_TIE_VARIANTS as u64);
    w.u64(members.len() as u64);
    for &m in members {
        w.u128(m);
    }
    w.u64(edges.len() as u64);
    for &(from, to, bits) in edges {
        w.u32(from);
        w.u32(to);
        w.u64(bits);
    }
    key_of_bytes(&w.into_bytes())
}

/// Content fingerprint of a cached execution — the execution tier's
/// 16-byte verification image. Walks every field a serialized image
/// would cover (fuel, attribution structure, vtable labels, windowed
/// events), allocation-free: stores cost one pass, hit verification
/// costs a 16-byte checksum.
fn exec_fp(exec: &CachedExec) -> u128 {
    let mut m = Mixer::new();
    m.u64(exec.fuel_spent);
    m.u64(exec.subs.len() as u64);
    for s in &exec.subs {
        match s.vtable {
            None => m.u64(0),
            Some(l) => {
                m.u64(1);
                m.u64(l.lo);
                m.u64(l.hi);
            }
        }
        m.u64(s.pieces().len() as u64);
        for p in s.pieces() {
            m.u64(p.len() as u64);
            for &e in p.iter() {
                m.event(e);
            }
        }
    }
    m.finish().as_u128()
}

/// Folds a byte image into a 128-bit key, byte by byte.
fn key_of_bytes(bytes: &[u8]) -> u128 {
    let mut m = Mixer::new();
    for &x in bytes {
        m.byte(x);
    }
    m.finish().as_u128()
}

// --- Serialization (the one byte codec) --------------------------------

/// Reads the format byte every corpus payload leads with.
fn read_format(r: &mut Reader<'_>) -> Result<(), WireError> {
    let at = r.offset();
    match r.u8("corpus format")? {
        CORPUS_FORMAT => Ok(()),
        _ => Err(WireError { offset: at, what: "corpus format" }),
    }
}

/// `value`, once `r` has consumed every byte.
fn finished<T>(r: &Reader<'_>, value: T) -> Result<T, WireError> {
    if r.is_at_end() {
        Ok(value)
    } else {
        Err(WireError { offset: r.offset(), what: "trailing bytes" })
    }
}

fn encode_ctors(ctors: &CachedCtors) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(CORPUS_FORMAT);
    w.u32(ctors.stores.len() as u32);
    for &(off, label) in &ctors.stores {
        w.u64(i64::from(off) as u64);
        w.u64(label.lo);
        w.u64(label.hi);
    }
    w.into_bytes()
}

fn decode_ctors(bytes: &[u8]) -> Result<CachedCtors, WireError> {
    let mut r = Reader::new(bytes);
    read_format(&mut r)?;
    let count = r.u32("ctor count")? as usize;
    let mut stores = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let at = r.offset();
        let off = i32::try_from(r.u64("ctor offset")? as i64)
            .map_err(|_| WireError { offset: at, what: "ctor offset" })?;
        stores.push((off, Label { lo: r.u64("ctor label")?, hi: r.u64("ctor label")? }));
    }
    finished(&r, CachedCtors { stores })
}

// --- Full-entry serializers (incremental persistence) ------------------
//
// The in-memory tiers keep compact verification images; persisting an
// entry across processes needs the *whole* value. These encoders are
// fully validating on decode: structural damage, count lies, or
// trailing garbage all return a `WireError`, which an importer treats
// as "recompute".

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

fn decode_event(r: &mut Reader<'_>) -> Result<Event, WireError> {
    let at = r.offset();
    let tag = r.u8("event tag")?;
    let payload = r.u64("event payload")?;
    let event = match tag {
        0 => usize::try_from(payload).ok().map(Event::C),
        1 => i32::try_from(payload as i64).ok().map(Event::R),
        2 => i32::try_from(payload as i64).ok().map(Event::W),
        3 if payload == 0 => Some(Event::This),
        4 => usize::try_from(payload).ok().map(Event::Arg),
        5 if payload == 0 => Some(Event::Ret),
        6 => Some(Event::Call(Addr::new(payload))),
        _ => None,
    };
    event.ok_or(WireError { offset: at, what: "event" })
}

/// Encodes a sub-object's vtable label: absent, or present with its
/// two words.
fn encode_vtable(w: &mut Writer, vtable: Option<Label>) {
    match vtable {
        None => w.u8(0),
        Some(l) => {
            w.u8(1);
            w.u64(l.lo);
            w.u64(l.hi);
        }
    }
}

/// Looks up `id` in a decoded dictionary.
fn dict_entry<'d, T>(
    dict: &'d [T],
    r: &mut Reader<'_>,
    what: &'static str,
) -> Result<&'d T, WireError> {
    let at = r.offset();
    dict.get(r.u32(what)? as usize).ok_or(WireError { offset: at, what })
}

// Executions are dictionary-encoded: paths through branchy functions
// repeat whole sub-objects (a fork whose arms make the same calls
// yields identical per-path summaries), so the wire form stores each
// distinct piece and each distinct sub once and spells the original
// `subs` sequence as indices. Decoding rebuilds the exact path-major
// order — multiplicity is training evidence and must survive — while
// identical pieces share one `Arc` in memory, like a live hit. Each
// dictionary piece is fingerprinted once, for the pool sums of the subs
// that name it.
fn encode_exec(exec: &CachedExec) -> Vec<u8> {
    let mut piece_dict: Vec<&Arc<[Event]>> = Vec::new();
    let mut piece_ids: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut sub_dict: Vec<(&CachedSub, Vec<u32>)> = Vec::new();
    let mut sub_ids: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut sub_seq: Vec<u32> = Vec::with_capacity(exec.subs.len());
    for s in &exec.subs {
        let mut indices = Vec::with_capacity(s.pieces().len());
        for p in s.pieces() {
            let mut pw = Writer::new();
            for &e in p.iter() {
                encode_event(&mut pw, e);
            }
            let next = piece_dict.len() as u32;
            let id = *piece_ids.entry(pw.into_bytes()).or_insert_with(|| {
                piece_dict.push(p);
                next
            });
            indices.push(id);
        }
        let mut sw = Writer::new();
        encode_vtable(&mut sw, s.vtable);
        for &i in &indices {
            sw.u32(i);
        }
        let next = sub_dict.len() as u32;
        let id = *sub_ids.entry(sw.into_bytes()).or_insert_with(|| {
            sub_dict.push((s, indices));
            next
        });
        sub_seq.push(id);
    }

    let mut w = Writer::new();
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
        encode_vtable(&mut w, s.vtable);
        w.u32(indices.len() as u32);
        for &i in indices {
            w.u32(i);
        }
    }
    w.u32(sub_seq.len() as u32);
    for &i in &sub_seq {
        w.u32(i);
    }
    w.into_bytes()
}

fn decode_exec(bytes: &[u8]) -> Result<CachedExec, WireError> {
    let mut r = Reader::new(bytes);
    read_format(&mut r)?;
    let fuel_spent = r.u64("fuel")?;
    let piece_count = r.u32("piece count")? as usize;
    let mut piece_dict: Vec<(Arc<[Event]>, u128)> = Vec::with_capacity(piece_count.min(1 << 16));
    for _ in 0..piece_count {
        let len = r.u32("piece length")? as usize;
        let mut events = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            events.push(decode_event(&mut r)?);
        }
        let fp = tracelet_fp(&events);
        piece_dict.push((events.into(), fp));
    }
    let sub_count = r.u32("sub count")? as usize;
    let mut sub_dict: Vec<CachedSub> = Vec::with_capacity(sub_count.min(1 << 16));
    for _ in 0..sub_count {
        let at = r.offset();
        let vtable = match r.u8("vtable tag")? {
            0 => None,
            1 => Some(Label { lo: r.u64("vtable label")?, hi: r.u64("vtable label")? }),
            _ => return Err(WireError { offset: at, what: "vtable tag" }),
        };
        let piece_refs = r.u32("piece refs")? as usize;
        let mut pieces = Vec::with_capacity(piece_refs.min(1 << 16));
        for _ in 0..piece_refs {
            pieces.push(dict_entry(&piece_dict, &mut r, "piece id")?.clone());
        }
        sub_dict.push(CachedSub::fingerprinted(vtable, pieces));
    }
    let seq_count = r.u32("sub sequence length")? as usize;
    let mut subs = Vec::with_capacity(seq_count.min(1 << 16));
    for _ in 0..seq_count {
        subs.push(dict_entry(&sub_dict, &mut r, "sub id")?.clone());
    }
    finished(&r, CachedExec { subs, fuel_spent })
}

fn encode_model(model: &Slm<Event>) -> Vec<u8> {
    let mut w = Writer::new();
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
    w.into_bytes()
}

/// Decodes a persisted model and **verifies it against its own key**:
/// the decoded `(sequence, count)` multiset must reproduce `key` under
/// [`pool_key`]'s commutative fold. Training is order-independent
/// ([`Slm::train_counted`]), so the rebuilt model is bit-identical to
/// the one originally trained from the live pool.
fn decode_model(key: ModelKey, bytes: &[u8]) -> Result<Slm<Event>, WireError> {
    let mut r = Reader::new(bytes);
    read_format(&mut r)?;
    let at = r.offset();
    let depth =
        usize::try_from(r.u64("depth")?).map_err(|_| WireError { offset: at, what: "depth" })?;
    let unique = r.u32("sequence count")? as usize;
    let mut model = Slm::new(depth);
    let mut sum_a: u64 = 0;
    let mut sum_b: u64 = 0;
    let mut total: u64 = 0;
    let mut events = Vec::new();
    for _ in 0..unique {
        let at = r.offset();
        let count = r.u64("sequence multiplicity")?;
        let bad_count = WireError { offset: at, what: "sequence multiplicity" };
        if count == 0 {
            return Err(bad_count);
        }
        let len = r.u32("sequence length")? as usize;
        events.clear();
        for _ in 0..len {
            events.push(decode_event(&mut r)?);
        }
        let fp = tracelet_fp(&events);
        sum_a = sum_a.wrapping_add((fp as u64).wrapping_mul(count));
        sum_b = sum_b.wrapping_add(((fp >> 64) as u64).wrapping_mul(count));
        total = total.checked_add(count).ok_or(bad_count)?;
        model.train_counted(&events, count);
    }
    let model = finished(&r, model)?;
    if pool_key_of_counts(depth as u64, total, sum_a, sum_b) != key {
        return Err(WireError { offset: 0, what: "pool key" });
    }
    Ok(model)
}

/// Encodes the `(metric, from, to)` triple of one distance entry — both
/// the disk key's preimage and the leading portion of its payload.
fn encode_distance_triple(metric: Metric, from: ModelKey, to: ModelKey) -> Writer {
    let mut w = Writer::new();
    w.u8(CORPUS_FORMAT);
    w.u8(metric.tag());
    w.u128(from);
    w.u128(to);
    w
}

/// The `u128` a distance entry is filed under on disk: a fold of its
/// full `(metric, from, to)` triple. The triple also travels in the
/// payload, so an import recomputes this and rejects a misfiled entry.
pub fn distance_disk_key(metric: Metric, from: ModelKey, to: ModelKey) -> u128 {
    key_of_bytes(&encode_distance_triple(metric, from, to).into_bytes())
}

fn encode_distance(metric: Metric, from: ModelKey, to: ModelKey, d_bits: u64) -> Vec<u8> {
    let mut w = encode_distance_triple(metric, from, to);
    w.u64(d_bits);
    w.into_bytes()
}

fn decode_distance(bytes: &[u8]) -> Result<(Metric, ModelKey, ModelKey, f64), WireError> {
    let mut r = Reader::new(bytes);
    read_format(&mut r)?;
    let at = r.offset();
    let metric =
        Metric::from_tag(r.u8("metric")?).ok_or(WireError { offset: at, what: "metric" })?;
    let from = r.u128("from key")?;
    let to = r.u128("to key")?;
    let d = r.f64_bits("distance")?;
    finished(&r, (metric, from, to, d))
}

fn encode_lifting(parent: &[Option<usize>], tie_variants: u64) -> Vec<u8> {
    let mut w = Writer::new();
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
    w.into_bytes()
}

fn decode_lifting(bytes: &[u8]) -> Result<(Vec<Option<usize>>, u64), WireError> {
    let mut r = Reader::new(bytes);
    read_format(&mut r)?;
    let tie_variants = r.u64("tie variants")?;
    let count = r.u32("member count")? as usize;
    let mut parent = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let at = r.offset();
        match r.u8("parent tag")? {
            0 => parent.push(None),
            1 => {
                let i = r.u32("parent index")? as usize;
                if i >= count {
                    return Err(WireError { offset: at, what: "parent index" });
                }
                parent.push(Some(i));
            }
            _ => return Err(WireError { offset: at, what: "parent tag" }),
        }
    }
    finished(&r, (parent, tie_variants))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_exec() -> CachedExec {
        CachedExec {
            subs: vec![
                CachedSub::new(
                    Some(Label { lo: 7, hi: 9 }),
                    vec![
                        vec![
                            Event::This,
                            Event::C(2),
                            Event::W(-8),
                            Event::Call(Addr::new(0xdead_beef)),
                        ]
                        .into(),
                        vec![Event::Ret].into(),
                    ],
                ),
                CachedSub::new(None, vec![vec![Event::R(4), Event::Arg(1), Event::Ret].into()]),
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
        let first = Arc::clone(&ev.subs[0].pieces()[0]);
        ev.subs[0] = CachedSub::new(ev.subs[0].vtable, vec![first, vec![Event::C(3)].into()]);
        assert_ne!(exec_fp(&ev), base, "events are covered");
        let mut vt = sample_exec();
        vt.subs[0].vtable = None;
        assert_ne!(exec_fp(&vt), base, "vtable labels are covered");
        let mut shape = sample_exec();
        shape.subs.pop();
        assert_ne!(exec_fp(&shape), base, "attribution structure is covered");
    }

    /// The accumulators of `pieces`, recomputed one fingerprint at a
    /// time.
    fn sum_of_pieces(pieces: &[Arc<[Event]>]) -> PoolSum {
        let mut sum = PoolSum::default();
        for p in pieces.iter().filter(|p| !p.is_empty()) {
            let fp = tracelet_fp(p);
            sum.count += 1;
            sum.lo = sum.lo.wrapping_add(fp as u64);
            sum.hi = sum.hi.wrapping_add((fp >> 64) as u64);
        }
        sum
    }

    #[test]
    fn decoded_subs_carry_the_sums_of_their_pieces() {
        // The second sub repeats the first one's pieces and adds an
        // empty one, so the decoder's dictionary shares them.
        let shared: Vec<Arc<[Event]>> =
            vec![vec![Event::This, Event::C(1)].into(), vec![Event::Ret].into()];
        let mut exec = sample_exec();
        let mut repeated = shared.clone();
        repeated.push(Vec::new().into());
        exec.subs.push(CachedSub::new(None, shared));
        exec.subs.push(CachedSub::new(Some(Label { lo: 1, hi: 2 }), repeated));
        let decoded = decode_exec(&encode_exec(&exec)).expect("round trip");
        assert_eq!(decoded, exec);
        for sub in &decoded.subs {
            assert_eq!(sub.sum(), sum_of_pieces(sub.pieces()));
        }
        assert_eq!(decoded.subs[3].sum().count, 2, "the empty piece adds nothing");
    }

    #[test]
    fn pool_sums_give_the_pool_key() {
        use rock_analysis::TypeTracelets;
        let (a, b) = (Addr::new(0x2000), Addr::new(0x3000));
        let mut pools = TypeTracelets::default();
        pools.add(a, vec![Event::C(0), Event::Ret].into());
        pools.add(a, Vec::new().into());
        pools.add(b, vec![Event::This].into());
        let sample = Arc::new(sample_exec());
        for index in 0..sample.subs.len() {
            pools.add_sub(a, &sample, index);
        }
        // A sub with an empty piece, and one with nothing but empties.
        let mixed = CachedSub::new(
            None,
            vec![vec![Event::W(8)].into(), Vec::new().into(), vec![Event::W(8)].into()],
        );
        let empty = CachedSub::new(None, vec![Vec::new().into()]);
        let subs = Arc::new(CachedExec { subs: vec![mixed, empty], fuel_spent: 0 });
        pools.add_sub(b, &subs, 0);
        pools.add_sub(Addr::new(0x4000), &subs, 1);
        assert_eq!(pools.types().collect::<Vec<_>>(), [a, b], "empty subs open no pool");
        assert_eq!(pools.of_type(b).len(), 3, "the empty piece joins no pool");
        pools.add(b, vec![Event::Ret].into());
        assert_eq!(pools.of_type(b).len(), 4, "a pool's list follows later additions");
        for vt in [a, b, Addr::new(0x4000)] {
            assert!(pools.tracelets_of(vt).eq(pools.of_type(vt)), "type {vt} walks as it lists");
            for depth in [2, 3] {
                assert_eq!(
                    pool_key_of_sum(depth, pools.sum_of(vt)),
                    pool_key(depth, pools.of_type(vt)),
                    "type {vt}, depth {depth}"
                );
            }
        }
        let by_len = pools.count_by_len();
        assert_eq!(by_len.iter().sum::<u64>(), pools.total() as u64);
        assert_eq!((by_len[1], by_len[2], by_len[3], by_len[4]), (5, 1, 1, 1));
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
        assert_eq!(
            (s.counter(names::CORPUS_TRACELET_HIT), s.counter(names::CORPUS_TRACELET_MISS)),
            (1, 1)
        );
        assert!(s.counter(names::CORPUS_BYTES_STORED) > 0);
        // A different config salts to a different key space.
        let other = cache.exec_cache(&AnalysisConfig::fast());
        assert_eq!(other.load(key), None);
        // Corrupt every entry: next load detects, drops, recomputes.
        let touched = cache.corrupt_all(&FaultPlan::seeded(5, 0), 3);
        assert_eq!(touched, 1);
        assert_eq!(view.load(key), None);
        let s = cache.stats();
        assert_eq!(s.counter(names::CORPUS_CORRUPT_DROPPED), 1);
        assert_eq!(s.counter(names::CORPUS_BYTES_STORED), 0);
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
        assert!(cache.stats().counter(names::CORPUS_CORRUPT_DROPPED) >= 1);
        // Negative results (no stores) round-trip too.
        view.store_ctors(key, &CachedCtors::default());
        assert_eq!(view.load_ctors(key), Some(CachedCtors::default()));
    }

    #[test]
    fn ctors_roundtrip() {
        let ctors = CachedCtors { stores: vec![(-8, Label { lo: 5, hi: 6 })] };
        assert_eq!(decode_ctors(&encode_ctors(&ctors)), Ok(ctors));
        assert_eq!(
            decode_ctors(&encode_ctors(&CachedCtors::default())),
            Ok(CachedCtors::default())
        );
        assert!(decode_ctors(&[]).is_err());
        assert!(decode_ctors(&[0xff, 1, 2]).is_err());
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
        assert_eq!((s.counter(names::CORPUS_SLM_HIT), s.counter(names::CORPUS_SLM_MISS)), (1, 1));
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
        assert_eq!(
            s.counter(names::CORPUS_EVICTED),
            64 - dist_len as u64,
            "every displaced entry is counted"
        );
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
        assert_eq!(cache.stats().counter(names::CORPUS_BYTES_STORED), 8 * after as u64);
        // An unbounded cache never evicts.
        let unbounded = CorpusCache::new();
        for k in 0..64u128 {
            unbounded.distance_with(Metric::KlDivergence, k, k + 1, || d);
        }
        assert_eq!(unbounded.stats().counter(names::CORPUS_EVICTED), 0);
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
        assert_eq!(
            a.stats().counter(names::CORPUS_EVICTED),
            b.stats().counter(names::CORPUS_EVICTED)
        );
        assert!(
            a.stats().counter(names::CORPUS_EVICTED) > 0,
            "40 inserts over a 16-entry tier must evict"
        );
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

        // After the first claim, the next one hands out what was stored
        // since, and only that.
        cache.store_lifting(8, &[None], 1);
        let (added, unchanged) = cache.claim_unpersisted();
        assert_eq!(
            added.iter().map(|(t, k, _)| (*t, *k)).collect::<Vec<_>>(),
            [(SubTier::Lifting, 8)]
        );
        assert_eq!(unchanged, 5);

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
        assert_eq!(
            (s.counter(names::CORPUS_DISTANCE_HIT), s.counter(names::CORPUS_DISTANCE_MISS)),
            (2, 1)
        );
        // A corrupt entry is dropped and recomputed, never returned.
        cache.corrupt_all(&FaultPlan::seeded(3, 0), 3);
        assert_eq!(cache.distance_with(Metric::KlDivergence, 1, 2, || d + 1.0), d + 1.0);
        let s = cache.stats();
        assert_eq!(
            (
                s.counter(names::CORPUS_DISTANCE_HIT),
                s.counter(names::CORPUS_DISTANCE_MISS),
                s.counter(names::CORPUS_CORRUPT_DROPPED)
            ),
            (2, 2, 1)
        );
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
        assert_eq!(
            (s.counter(names::CORPUS_DISTANCE_HIT), s.counter(names::CORPUS_DISTANCE_MISS)),
            (0, 6)
        );
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
        assert_eq!(
            s.counter(names::CORPUS_DISTANCE_HIT) + s.counter(names::CORPUS_DISTANCE_MISS),
            200
        );
        assert!(
            s.counter(names::CORPUS_DISTANCE_MISS) >= 35,
            "every distinct key missed at least once"
        );
    }
}

//! A thread-safe memo table for pairwise model distances.
//!
//! The lifting step of the pipeline is quadratic per family: one SLM per
//! vtable, then a divergence for every surviving parent/child pair
//! (§4.2). The same pair is re-queried by family repartitioning, by
//! `k_most_likely_parents` (§6.4 CFI), and by ablation sweeps that re-run
//! the pipeline with different knobs over the *same* binary. The cache
//! keys each computed distance by `(metric, from, to)` so every pair is
//! computed exactly once per binary, however many passes ask for it.
//!
//! Beneath the distance memo sits a second, cheaper layer: the pair's
//! **union alphabet size** is memoized per *unordered* `(from, to)` key,
//! so the two directions of a pair and every metric of an ablation sweep
//! merge the alphabets once. (The per-model word-evaluation tables — the
//! self-side of each divergence — are cached one layer further down, on
//! the models themselves; see `Slm::eval_table`.)
//!
//! Keys identify models by the caller-chosen `K`. The pipeline keys by
//! **content hash** ([`ModelKey`]: a 128-bit fingerprint of the model's
//! training multiset), so equal keys imply bit-equal models and a cache
//! — or the corpus-wide store behind it — can safely span binaries: two
//! images containing the same type reuse one distance computation. (The
//! pre-corpus design keyed by per-binary vtable address; that key path
//! is gone, content hash is the only pipeline key now.)
//!
//! [`DistanceCache::distance_via`] layers an optional
//! [`GlobalDistanceStore`] under the local memo: a local miss consults
//! the global store before computing, and a computed value is published
//! back. The local hit/miss counters deliberately count a global-store
//! answer as a *miss* (it was not answered locally), which keeps a run's
//! metrics byte-identical whether the global store is cold or warm.
//! [`DistanceCache::distance_with`] runs the same two layers and counts
//! around a computation the caller supplies: the distance stage passes
//! its batched family kernel ([`crate::ChildTarget::kl_from`]), which
//! takes the union alphabet size from family bitsets and so adds no
//! alphabet-memo entry.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{union_alphabet_len, Metric, Slm, Symbol};

const SHARDS: usize = 16;

/// The pipeline's cache key: a 128-bit content hash of a model's
/// training input (depth + tracelet multiset). Equal keys imply
/// bit-equal trained models, which is what makes sharing distances
/// across runs — and across *binaries* — sound.
pub type ModelKey = u128;

/// A second-level distance store consulted on local misses — typically a
/// corpus-wide cross-binary cache. Implementations must be `Sync`; both
/// methods may be called concurrently from distance workers.
pub trait GlobalDistanceStore<K>: Sync {
    /// Looks up a previously published distance.
    fn load_distance(&self, metric: Metric, from: &K, to: &K) -> Option<f64>;
    /// Publishes a freshly computed distance.
    fn store_distance(&self, metric: Metric, from: &K, to: &K, d: f64);
}

/// One lock-protected slice of the key space.
type Shard<K> = Mutex<BTreeMap<(Metric, K, K), f64>>;

/// One lock-protected slice of the union-alphabet memo (unordered pairs).
type AlphabetShard<K> = Mutex<BTreeMap<(K, K), usize>>;

/// A sharded, thread-safe `(metric, from, to) -> distance` memo table.
///
/// # Example
///
/// ```
/// use rock_slm::{DistanceCache, Metric, Slm};
/// let mut a = Slm::new(2);
/// a.train(&["x", "y"]);
/// let mut b = Slm::new(2);
/// b.train(&["y", "z"]);
/// let cache: DistanceCache<&str> = DistanceCache::new();
/// let first = cache.distance(Metric::KlDivergence, (&"a", &a), (&"b", &b));
/// let again = cache.distance(Metric::KlDivergence, (&"a", &a), (&"b", &b));
/// assert_eq!(first, again);
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(cache.misses(), 1);
/// ```
#[derive(Debug, Default)]
pub struct DistanceCache<K: Ord + Clone + Hash> {
    shards: [Shard<K>; SHARDS],
    alphabet_shards: [AlphabetShard<K>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Ord + Clone + Hash> DistanceCache<K> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        DistanceCache {
            shards: std::array::from_fn(|_| Mutex::new(BTreeMap::new())),
            alphabet_shards: std::array::from_fn(|_| Mutex::new(BTreeMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_of(key: &(Metric, K, K)) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % SHARDS as u64) as usize
    }

    fn pair_shard(key: &(K, K)) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % SHARDS as u64) as usize
    }

    /// The pair's union alphabet size, merged at most once per unordered
    /// `(from, to)` key — shared by both directions and all metrics.
    fn union_len<S: Symbol>(&self, from: (&K, &Slm<S>), to: (&K, &Slm<S>)) -> usize {
        let key = if from.0 <= to.0 {
            (from.0.clone(), to.0.clone())
        } else {
            (to.0.clone(), from.0.clone())
        };
        let shard = &self.alphabet_shards[Self::pair_shard(&key)];
        if let Some(n) = shard.lock().expect("alphabet shard poisoned").get(&key) {
            return *n;
        }
        let n = union_alphabet_len(from.1, to.1);
        shard.lock().expect("alphabet shard poisoned").insert(key, n);
        n
    }

    /// Returns `metric.distance(from_model, to_model)`, computing it at
    /// most once per `(metric, from, to)` key. The pair's union alphabet
    /// size is resolved through the per-pair memo, so an ablation sweep
    /// asking for every [`Metric`] of the same pair merges the two
    /// alphabets exactly once.
    pub fn distance<S: Symbol>(
        &self,
        metric: Metric,
        from: (&K, &Slm<S>),
        to: (&K, &Slm<S>),
    ) -> f64 {
        self.distance_via(metric, from, to, None)
    }

    /// Like [`DistanceCache::distance`], but consults `global` between
    /// the local memo and the computation: a local miss first asks the
    /// global store, and a freshly computed value is published back to
    /// it. A global answer still counts as a local **miss**, so a run's
    /// hit/miss counters do not depend on the global store's warmth —
    /// only its wall clock does.
    pub fn distance_via<S: Symbol>(
        &self,
        metric: Metric,
        from: (&K, &Slm<S>),
        to: (&K, &Slm<S>),
        global: Option<&dyn GlobalDistanceStore<K>>,
    ) -> f64 {
        self.distance_with(metric, from.0, to.0, global, || {
            metric.distance_with_alphabet(from.1, to.1, self.union_len(from, to))
        })
    }

    /// [`DistanceCache::distance_via`] around a computation the caller
    /// supplies: the memo, the `global` lookup, the publication and the
    /// hit/miss counts are the same, and `compute` runs only when neither
    /// layer holds `(metric, from, to)`. It must return exactly what
    /// `metric.distance` returns for the two models the keys name — the
    /// distance stage passes a batched kernel
    /// ([`crate::ChildTarget::kl_from`]) here.
    pub fn distance_with(
        &self,
        metric: Metric,
        from: &K,
        to: &K,
        global: Option<&dyn GlobalDistanceStore<K>>,
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        let key = (metric, from.clone(), to.clone());
        let shard = &self.shards[Self::shard_of(&key)];
        if let Some(d) = shard.lock().expect("cache shard poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *d;
        }
        if let Some(g) = global {
            if let Some(d) = g.load_distance(metric, from, to) {
                self.misses.fetch_add(1, Ordering::Relaxed);
                shard.lock().expect("cache shard poisoned").entry(key).or_insert(d);
                return d;
            }
        }
        // Compute outside the lock: divergences are expensive and pairs
        // are unique within one pass, so duplicated work is negligible.
        let d = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        shard.lock().expect("cache shard poisoned").entry(key).or_insert(d);
        if let Some(g) = global {
            g.store_distance(metric, from, to, d);
        }
        d
    }

    /// The cached distance for `(metric, from, to)`, if already computed.
    pub fn get(&self, metric: Metric, from: &K, to: &K) -> Option<f64> {
        let key = (metric, from.clone(), to.clone());
        self.shards[Self::shard_of(&key)].lock().expect("cache shard poisoned").get(&key).copied()
    }

    /// Number of lookups answered from the table.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct cached pairs.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").len()).sum()
    }

    /// Returns `true` if nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of unordered pairs whose union alphabet size is memoized.
    pub fn alphabet_entries(&self) -> usize {
        self.alphabet_shards.iter().map(|s| s.lock().expect("alphabet shard poisoned").len()).sum()
    }

    /// Drops all entries (distances and alphabet memos) and resets the
    /// hit/miss counters. Call when reusing a cache for a *different*
    /// binary.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().expect("cache shard poisoned").clear();
        }
        for s in &self.alphabet_shards {
            s.lock().expect("alphabet shard poisoned").clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kl_divergence;

    fn model(seqs: &[&[&'static str]]) -> Slm<&'static str> {
        let mut m = Slm::new(2);
        for s in seqs {
            m.train(s);
        }
        m
    }

    #[test]
    fn caches_and_counts() {
        let a = model(&[&["x", "y", "x"]]);
        let b = model(&[&["y", "z"]]);
        let cache: DistanceCache<u32> = DistanceCache::new();
        let d1 = cache.distance(Metric::KlDivergence, (&1, &a), (&2, &b));
        assert_eq!(d1, kl_divergence(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let d2 = cache.distance(Metric::KlDivergence, (&1, &a), (&2, &b));
        assert_eq!(d1, d2);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keyed_by_metric_and_direction() {
        let a = model(&[&["x", "x", "x"]]);
        let b = model(&[&["x", "y", "z"]]);
        let cache: DistanceCache<u32> = DistanceCache::new();
        cache.distance(Metric::KlDivergence, (&1, &a), (&2, &b));
        cache.distance(Metric::KlDivergence, (&2, &b), (&1, &a));
        cache.distance(Metric::JsDivergence, (&1, &a), (&2, &b));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.get(Metric::KlDivergence, &1, &2), Some(kl_divergence(&a, &b)));
        assert_eq!(cache.get(Metric::JsDistance, &1, &2), None);
    }

    #[test]
    fn clear_resets() {
        let a = model(&[&["x"]]);
        let cache: DistanceCache<u8> = DistanceCache::new();
        cache.distance(Metric::KlDivergence, (&0, &a), (&1, &a));
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert_eq!(cache.alphabet_entries(), 0);
    }

    #[test]
    fn alphabet_is_memoized_per_unordered_pair() {
        let a = model(&[&["x", "y", "x"]]);
        let b = model(&[&["y", "z"]]);
        let cache: DistanceCache<u32> = DistanceCache::new();
        // Both directions and all three metrics of the same pair: six
        // distance computations, one alphabet merge.
        for metric in Metric::ALL {
            cache.distance(metric, (&1, &a), (&2, &b));
            cache.distance(metric, (&2, &b), (&1, &a));
        }
        assert_eq!(cache.misses(), 6);
        assert_eq!(cache.alphabet_entries(), 1);
        // The memoized size matches a direct merge, so values agree with
        // the uncached entry points bit for bit.
        assert_eq!(cache.get(Metric::KlDivergence, &1, &2), Some(kl_divergence(&a, &b)),);
    }

    #[test]
    fn global_store_is_consulted_on_local_miss_and_counts_as_miss() {
        use std::sync::Mutex;
        #[derive(Default)]
        struct MapStore {
            map: Mutex<std::collections::BTreeMap<(Metric, u32, u32), f64>>,
            loads: std::sync::atomic::AtomicU64,
        }
        impl GlobalDistanceStore<u32> for MapStore {
            fn load_distance(&self, metric: Metric, from: &u32, to: &u32) -> Option<f64> {
                self.loads.fetch_add(1, Ordering::Relaxed);
                self.map.lock().unwrap().get(&(metric, *from, *to)).copied()
            }
            fn store_distance(&self, metric: Metric, from: &u32, to: &u32, d: f64) {
                self.map.lock().unwrap().insert((metric, *from, *to), d);
            }
        }
        let a = model(&[&["x", "y", "x"]]);
        let b = model(&[&["y", "z"]]);
        let global = MapStore::default();
        // Cold local + cold global: compute, publish to both layers.
        let cold: DistanceCache<u32> = DistanceCache::new();
        let d1 = cold.distance_via(Metric::KlDivergence, (&1, &a), (&2, &b), Some(&global));
        assert_eq!(d1, kl_divergence(&a, &b));
        assert_eq!((cold.hits(), cold.misses()), (0, 1));
        assert_eq!(global.map.lock().unwrap().len(), 1);
        // Fresh local + warm global: answered by the store, still a
        // local miss — counters match the cold run bit for bit.
        let warm: DistanceCache<u32> = DistanceCache::new();
        let d2 = warm.distance_via(Metric::KlDivergence, (&1, &a), (&2, &b), Some(&global));
        assert_eq!(d1.to_bits(), d2.to_bits());
        assert_eq!((warm.hits(), warm.misses()), (0, 1));
        // No alphabet merge happened on the warm path.
        assert_eq!(warm.alphabet_entries(), 0);
        // A local hit never reaches the store.
        let loads_before = global.loads.load(Ordering::Relaxed);
        warm.distance_via(Metric::KlDivergence, (&1, &a), (&2, &b), Some(&global));
        assert_eq!((warm.hits(), warm.misses()), (1, 1));
        assert_eq!(global.loads.load(Ordering::Relaxed), loads_before);
    }

    #[test]
    fn supplied_computation_runs_only_on_a_miss_in_both_layers() {
        let a = model(&[&["x", "y", "x"]]);
        let b = model(&[&["y", "z"]]);
        let want = kl_divergence(&a, &b);
        let cache: DistanceCache<u32> = DistanceCache::new();
        let mut calls = 0;
        for _ in 0..2 {
            let d = cache.distance_with(Metric::KlDivergence, &1, &2, None, || {
                calls += 1;
                want
            });
            assert_eq!(d.to_bits(), want.to_bits());
        }
        assert_eq!(calls, 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // The caller-supplied form memoizes no alphabet size, and a
        // per-pair query of the same key is a hit.
        assert_eq!(cache.alphabet_entries(), 0);
        assert_eq!(
            cache.distance(Metric::KlDivergence, (&1, &a), (&2, &b)).to_bits(),
            want.to_bits()
        );
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let a = model(&[&["x", "y", "x", "z"]]);
        let b = model(&[&["y", "z", "y"]]);
        let cache: DistanceCache<usize> = DistanceCache::new();
        let expect = kl_divergence(&a, &b);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..50 {
                        let d = cache.distance(
                            Metric::KlDivergence,
                            (&(i % 5), &a),
                            (&(10 + i % 7), &b),
                        );
                        assert_eq!(d, expect);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 5 * 7);
        assert_eq!(cache.hits() + cache.misses(), 200);
    }
}

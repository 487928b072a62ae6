//! Typed metrics: named counters and fixed-bucket histograms.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version stamped into every exported metrics document.
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// Default histogram bucket bounds: powers of two up to 1024 (an
/// observation lands in the first bucket whose bound is `>=` it; larger
/// values fall into the implicit overflow bucket).
pub const DEFAULT_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// A fixed-bucket histogram over `u64` observations.
///
/// Buckets never change after construction, so two registries built from
/// the same observations compare equal — the property the determinism
/// suite pins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// One count per bound, plus the trailing overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::with_bounds(DEFAULT_BOUNDS)
    }
}

impl Histogram {
    /// A histogram over the given strictly increasing bucket bounds.
    ///
    /// # Panics
    ///
    /// If `bounds` is empty or not strictly increasing.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be strictly increasing");
        Histogram { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], count: 0, sum: 0 }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.observe_n(value, 1);
    }

    /// Records `n` observations of the same value: the buckets, count
    /// and saturating sum end as `n` calls of [`Histogram::observe`]
    /// leave them.
    pub fn observe_n(&mut self, value: u64, n: u64) {
        let bucket = self.bounds.partition_point(|&b| b < value);
        self.counts[bucket] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The bucket bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds().len() + 1` entries; last = overflow).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Folds another histogram in (bounds must match).
    fn merge_from(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram merge needs identical buckets");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// A registry of named counters and histograms.
///
/// Names come from the [`crate::names`] taxonomy; values are plain `u64`
/// work counts, never wall-clock readings, so registries are comparable
/// across thread counts and repeated runs. The pipeline owns one per run
/// and updates it only on serial paths (stage bodies and merge loops) —
/// no interior locking, no atomics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry (allocation-free until first write).
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to a counter, creating it at zero.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Sets a counter to an absolute value.
    pub fn set(&mut self, name: &'static str, value: u64) {
        self.counters.insert(name, value);
    }

    /// Current value of a counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records one observation in a histogram, creating it with
    /// [`DEFAULT_BOUNDS`].
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.observe_n(name, value, 1);
    }

    /// Records `n` observations of one value, as `n` calls of
    /// [`MetricsRegistry::observe`] would; `n = 0` records nothing and
    /// creates no histogram.
    pub fn observe_n(&mut self, name: &'static str, value: u64, n: u64) {
        if n > 0 {
            self.histograms.entry(name).or_default().observe_n(value, n);
        }
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// Folds another registry in: counters add, histograms merge.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (&name, &v) in &other.counters {
            self.add(name, v);
        }
        for (&name, h) in &other.histograms {
            self.histograms
                .entry(name)
                .or_insert_with(|| Histogram::with_bounds(h.bounds()))
                .merge_from(h);
        }
    }

    /// The counters of `self` less those of `earlier`, one by one,
    /// saturating at zero (for per-job deltas of a shared cache or
    /// store; a gauge such as `corpus.bytes_stored` may fall between
    /// two snapshots). Histograms are not carried.
    pub fn since(&self, earlier: &MetricsRegistry) -> MetricsRegistry {
        let counters = self
            .counters
            .iter()
            .map(|(&name, &v)| (name, v.saturating_sub(earlier.counter(name))))
            .collect();
        MetricsRegistry { counters, histograms: BTreeMap::new() }
    }

    /// The versioned metrics document (see `DESIGN.md` §14): integer-only
    /// JSON, counters and histograms keyed by name in sorted order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"version\":{METRICS_SCHEMA_VERSION},\"counters\":{{");
        for (i, (name, v)) in self.counters().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let bounds = h.bounds().iter().map(u64::to_string).collect::<Vec<_>>().join(",");
            let counts = h.bucket_counts().iter().map(u64::to_string).collect::<Vec<_>>().join(",");
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"bounds\":[{bounds}],\"counts\":[{counts}],\
                 \"count\":{},\"sum\":{}}}",
                h.count(),
                h.sum()
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_observations() {
        let mut h = Histogram::with_bounds(&[1, 4, 16]);
        for v in [0, 1, 2, 4, 5, 16, 17, 1000] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), &[2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1045);
    }

    #[test]
    fn observe_n_equals_n_single_observations() {
        for (start, value, n) in
            [(0, 0, 3), (10, 5, 7), (0, 2000, 4), (u64::MAX - 10, 3, 5), (7, u64::MAX / 2, 3)]
        {
            let mut one_by_one = Histogram::with_bounds(&[1, 4, 16]);
            let mut batched = Histogram::with_bounds(&[1, 4, 16]);
            one_by_one.observe(start);
            batched.observe(start);
            for _ in 0..n {
                one_by_one.observe(value);
            }
            batched.observe_n(value, n);
            assert_eq!(batched, one_by_one, "start {start}, value {value}, n {n}");
        }
        let mut saturated = Histogram::default();
        saturated.observe_n(u64::MAX, 2);
        assert_eq!((saturated.count(), saturated.sum()), (2, u64::MAX));

        let mut registry = MetricsRegistry::new();
        registry.observe_n("h.len", 5, 0);
        assert!(registry.histogram("h.len").is_none(), "n = 0 creates no histogram");
        assert_eq!(registry, MetricsRegistry::new());
        registry.observe_n("h.len", 5, 3);
        let mut single = MetricsRegistry::new();
        for _ in 0..3 {
            single.observe("h.len", 5);
        }
        assert_eq!(registry, single);
        assert_eq!(registry.to_json(), single.to_json());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_bounds_are_rejected() {
        Histogram::with_bounds(&[4, 4]);
    }

    #[test]
    fn registry_round_trips_and_merges() {
        let mut a = MetricsRegistry::new();
        a.add("x.count", 2);
        a.add("x.count", 3);
        a.set("y.count", 7);
        a.observe("z.len", 3);
        let mut b = MetricsRegistry::new();
        b.add("x.count", 1);
        b.observe("z.len", 100);
        a.merge_from(&b);
        assert_eq!(a.counter("x.count"), 6);
        assert_eq!(a.counter("y.count"), 7);
        assert_eq!(a.counter("unknown"), 0);
        let h = a.histogram("z.len").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 103);
    }

    #[test]
    fn since_subtracts_counter_by_counter_and_saturates() {
        let mut earlier = MetricsRegistry::new();
        earlier.set("a.hits", 3);
        earlier.set("a.bytes", 900);
        earlier.set("a.gone", 5);
        let mut now = MetricsRegistry::new();
        now.set("a.hits", 10);
        now.set("a.bytes", 400); // a gauge that fell: saturates at zero
        now.set("a.new", 2);
        now.set("a.idle", 0);
        now.observe("h.len", 7);
        let delta = now.since(&earlier);
        let counters: Vec<_> = delta.counters().collect();
        assert_eq!(counters, [("a.bytes", 0), ("a.hits", 7), ("a.idle", 0), ("a.new", 2)]);
        assert!(delta.histograms().next().is_none(), "histograms are not carried");
        // A delta against an empty registry is the snapshot itself, and
        // adding a delta back onto its base restores the later snapshot.
        assert_eq!(now.since(&MetricsRegistry::new()).counters().count(), 4);
        let mut rebuilt = MetricsRegistry::new();
        rebuilt.set("a.hits", 3);
        rebuilt.merge_from(&delta);
        assert_eq!(rebuilt.counter("a.hits"), now.counter("a.hits"));
    }

    #[test]
    fn equal_observations_mean_equal_registries() {
        let build = || {
            let mut m = MetricsRegistry::new();
            m.add("a", 1);
            m.observe("h", 9);
            m.observe("h", 2000);
            m
        };
        assert_eq!(build(), build());
        assert_eq!(build().to_json(), build().to_json());
    }

    #[test]
    fn json_document_is_versioned_and_sorted() {
        let mut m = MetricsRegistry::new();
        m.set("b.second", 2);
        m.set("a.first", 1);
        m.observe("h.len", 5);
        let doc = m.to_json();
        assert!(doc.starts_with("{\"version\":1,"));
        let a = doc.find("a.first").unwrap();
        let b = doc.find("b.second").unwrap();
        assert!(a < b, "counters must serialize in name order");
        assert!(doc.contains("\"count\":1,\"sum\":5"));
        // Empty registry still emits the full shape.
        assert_eq!(
            MetricsRegistry::new().to_json(),
            "{\"version\":1,\"counters\":{},\"histograms\":{}}"
        );
    }
}

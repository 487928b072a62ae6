//! Per-stage observability for one reconstruction run.

use std::fmt;
use std::fmt::Write as _;
use std::time::Duration;

use rock_trace::{names, MetricsRegistry};

/// Wall-clock and work counters for each pipeline stage of a single
/// [`crate::Rock::reconstruct`] call.
///
/// Related binary-lifting systems (VPS; the GrammaTech type-inference
/// work) report analysis wall-clock as a first-class result; this struct
/// makes the same numbers available here — per stage, so regressions can
/// be pinned to tracelet extraction vs. model training vs. lifting rather
/// than observed only as an end-to-end blur. Surfaced by
/// `rock reconstruct --timings` and by the pipeline benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Behavioral analysis: tracelet extraction + ctor recognition (§3).
    pub analysis: Duration,
    /// Structural analysis: families + possible parents (§5).
    pub structural: Duration,
    /// Per-vtable SLM training (§3.1).
    pub training: Duration,
    /// Per-family distance-matrix computation (§4.2.1).
    pub distances: Duration,
    /// Per-family arborescence search + tie resolution (§4.2.2).
    pub lifting: Duration,
    /// Cross-family repartitioning (§6.4 extension; zero when disabled).
    pub repartition: Duration,
    /// End-to-end wall clock for the whole `reconstruct` call.
    pub total: Duration,
    /// Worker threads the parallel stages resolved to.
    pub threads: usize,
    /// SLMs trained (one per vtable).
    pub slm_count: usize,
    /// Context nodes across all SLM arena tries.
    pub slm_nodes: usize,
    /// Child edges across all SLM arena tries.
    pub slm_edges: usize,
    /// Approximate resident bytes of all SLM arena tries.
    pub slm_bytes: usize,
    /// Distinct training sequences stored across all SLMs (after
    /// multiplicity deduplication).
    pub slm_unique_words: usize,
    /// Total training sequences fed to all SLMs (clones included).
    pub slm_total_words: u64,
    /// Weighted candidate edges put into family digraphs.
    pub edge_count: usize,
    /// Candidate parents skipped because they were outside their family's
    /// member list (would previously have been an index panic).
    pub foreign_candidates: usize,
    /// Distance asks (distance stage + repartition) that repeat a
    /// `(from key, to key)` model pair the run already asked for.
    pub cache_hits: u64,
    /// Distinct `(from key, to key)` model pairs the run asked a
    /// distance for, across the distance stage and repartition.
    pub cache_misses: u64,
    /// Functions excluded from behavioral analysis (skips + contained
    /// panics + budget exhaustion).
    pub skipped_functions: usize,
    /// Functions excluded specifically by fuel exhaustion.
    pub fuel_exhausted: usize,
    /// Vtable candidates rejected by the loader.
    pub rejected_vtables: usize,
    /// Approximate bytes retained by the run's diagnostics.
    pub diagnostics_bytes: usize,
    /// Symbolic executions answered by the corpus tracelet tier (all
    /// corpus fields stay zero without an attached [`crate::CorpusCache`];
    /// they are per-run deltas injected by the batch driver, never part
    /// of the pipeline's own deterministic registry).
    pub corpus_tracelet_hits: u64,
    /// Symbolic executions the corpus tracelet tier could not answer.
    pub corpus_tracelet_misses: u64,
    /// SLM trainings answered by the corpus model tier.
    pub corpus_slm_hits: u64,
    /// SLM trainings the corpus model tier could not answer.
    pub corpus_slm_misses: u64,
    /// Distances answered by the corpus distance tier.
    pub corpus_distance_hits: u64,
    /// Distances the corpus distance tier could not answer.
    pub corpus_distance_misses: u64,
    /// Family liftings answered by the corpus lifting tier.
    pub corpus_lifting_hits: u64,
    /// Family liftings the corpus lifting tier could not answer.
    pub corpus_lifting_misses: u64,
    /// Bytes the run added to the corpus cache.
    pub corpus_bytes_stored: u64,
    /// Corpus entries dropped on checksum mismatch (then recomputed).
    pub corpus_corrupt_dropped: u64,
    /// Corpus entries displaced by capacity eviction (bounded caches).
    pub corpus_evicted: u64,
    /// Orphaned `.art.tmp` files the artifact store swept (all store
    /// fields stay zero without a batch artifact store; like the corpus
    /// fields they are per-run deltas injected by the batch driver,
    /// never part of the pipeline's own deterministic registry).
    pub store_tmp_swept: u64,
    /// Checkpoint saves re-attempted after a transient i/o fault.
    pub store_write_retries: u64,
    /// Checkpoint saves abandoned after retries (resume lost, job lives).
    pub store_write_failures: u64,
    /// Artifact loads re-attempted after a transient i/o fault.
    pub store_read_retries: u64,
    /// Artifact loads abandoned after retries (the job recomputed).
    pub store_read_failures: u64,
    /// Artifacts whose checksum or frame failed verification.
    pub store_corrupt_detected: u64,
    /// Saves skipped after degrading to recompute-without-checkpointing.
    pub store_checkpoints_skipped: u64,
    /// Backoff milliseconds scheduled for store retries.
    pub store_retry_backoff_ms: u64,
    /// Sub-artifacts restored into the corpus cache at preload (all
    /// incr fields stay zero without `--incremental`; like the corpus
    /// and store fields they are batch-level deltas injected by the
    /// driver, never part of the pipeline's deterministic registry).
    pub incr_preloaded: u64,
    /// Sub-artifacts newly written to disk at flush.
    pub incr_flushed: u64,
    /// Sub-artifacts already on disk and skipped at flush.
    pub incr_unchanged: u64,
    /// Sub-artifacts rejected at preload (recomputed instead).
    pub incr_corrupt_skipped: u64,
    /// Sub-artifact reads/writes abandoned on an i/o error.
    pub incr_io_errors: u64,
}

impl StageTimings {
    /// Projects the run's [`MetricsRegistry`] counters onto the legacy
    /// work-counter fields, making this struct a thin view over the
    /// registry: the wall-clock fields stay owned here (the registry
    /// deliberately holds no clock values), every other number has the
    /// registry as its single source of truth.
    pub fn absorb_counters(&mut self, metrics: &MetricsRegistry) {
        self.slm_count = metrics.counter(names::SLM_MODELS_TRAINED) as usize;
        self.slm_nodes = metrics.counter(names::SLM_ARENA_NODES) as usize;
        self.slm_edges = metrics.counter(names::SLM_ARENA_EDGES) as usize;
        self.slm_bytes = metrics.counter(names::SLM_ARENA_BYTES) as usize;
        self.slm_unique_words = metrics.counter(names::SLM_WORDS_UNIQUE) as usize;
        self.slm_total_words = metrics.counter(names::SLM_WORDS_TOTAL);
        self.edge_count = metrics.counter(names::DISTANCES_EDGES) as usize;
        self.foreign_candidates = metrics.counter(names::DISTANCES_FOREIGN_CANDIDATES) as usize;
        self.cache_hits = metrics.counter(names::DISTANCES_CACHE_HIT);
        self.cache_misses = metrics.counter(names::DISTANCES_CACHE_MISS);
        self.skipped_functions = metrics.counter(names::ANALYSIS_FUNCTIONS_SKIPPED) as usize;
        self.fuel_exhausted = metrics.counter(names::ANALYSIS_FUEL_EXHAUSTED) as usize;
        self.rejected_vtables = metrics.counter(names::LOAD_VTABLES_REJECTED) as usize;
        self.diagnostics_bytes = metrics.counter(names::DIAGNOSTICS_BYTES) as usize;
        self.corpus_tracelet_hits = metrics.counter(names::CORPUS_TRACELET_HIT);
        self.corpus_tracelet_misses = metrics.counter(names::CORPUS_TRACELET_MISS);
        self.corpus_slm_hits = metrics.counter(names::CORPUS_SLM_HIT);
        self.corpus_slm_misses = metrics.counter(names::CORPUS_SLM_MISS);
        self.corpus_distance_hits = metrics.counter(names::CORPUS_DISTANCE_HIT);
        self.corpus_distance_misses = metrics.counter(names::CORPUS_DISTANCE_MISS);
        self.corpus_lifting_hits = metrics.counter(names::CORPUS_LIFTING_HIT);
        self.corpus_lifting_misses = metrics.counter(names::CORPUS_LIFTING_MISS);
        self.corpus_bytes_stored = metrics.counter(names::CORPUS_BYTES_STORED);
        self.corpus_corrupt_dropped = metrics.counter(names::CORPUS_CORRUPT_DROPPED);
        self.corpus_evicted = metrics.counter(names::CORPUS_EVICTED);
        self.store_tmp_swept = metrics.counter(names::STORE_TMP_SWEPT);
        self.store_write_retries = metrics.counter(names::STORE_WRITE_RETRIES);
        self.store_write_failures = metrics.counter(names::STORE_WRITE_FAILURES);
        self.store_read_retries = metrics.counter(names::STORE_READ_RETRIES);
        self.store_read_failures = metrics.counter(names::STORE_READ_FAILURES);
        self.store_corrupt_detected = metrics.counter(names::STORE_CORRUPT_DETECTED);
        self.store_checkpoints_skipped = metrics.counter(names::STORE_CHECKPOINTS_SKIPPED);
        self.store_retry_backoff_ms = metrics.counter(names::STORE_RETRY_BACKOFF_MS);
        self.incr_preloaded = metrics.counter(names::INCR_PRELOADED);
        self.incr_flushed = metrics.counter(names::INCR_FLUSHED);
        self.incr_unchanged = metrics.counter(names::INCR_UNCHANGED);
        self.incr_corrupt_skipped = metrics.counter(names::INCR_CORRUPT_SKIPPED);
        self.incr_io_errors = metrics.counter(names::INCR_IO_ERRORS);
    }

    /// Copies one run's corpus-tier delta ([`crate::CorpusStats::since`])
    /// onto the corpus fields and mirrors it into `metrics` under the
    /// `corpus.*` counter names, so reports and JSON render it uniformly.
    pub fn absorb_corpus_stats(
        &mut self,
        delta: &crate::CorpusStats,
        metrics: &mut MetricsRegistry,
    ) {
        metrics.set(names::CORPUS_TRACELET_HIT, delta.tracelet_hits);
        metrics.set(names::CORPUS_TRACELET_MISS, delta.tracelet_misses);
        metrics.set(names::CORPUS_SLM_HIT, delta.slm_hits);
        metrics.set(names::CORPUS_SLM_MISS, delta.slm_misses);
        metrics.set(names::CORPUS_DISTANCE_HIT, delta.distance_hits);
        metrics.set(names::CORPUS_DISTANCE_MISS, delta.distance_misses);
        metrics.set(names::CORPUS_LIFTING_HIT, delta.lifting_hits);
        metrics.set(names::CORPUS_LIFTING_MISS, delta.lifting_misses);
        metrics.set(names::CORPUS_BYTES_STORED, delta.bytes_stored);
        metrics.set(names::CORPUS_CORRUPT_DROPPED, delta.corrupt_dropped);
        metrics.set(names::CORPUS_EVICTED, delta.evicted);
        self.corpus_tracelet_hits = delta.tracelet_hits;
        self.corpus_tracelet_misses = delta.tracelet_misses;
        self.corpus_slm_hits = delta.slm_hits;
        self.corpus_slm_misses = delta.slm_misses;
        self.corpus_distance_hits = delta.distance_hits;
        self.corpus_distance_misses = delta.distance_misses;
        self.corpus_lifting_hits = delta.lifting_hits;
        self.corpus_lifting_misses = delta.lifting_misses;
        self.corpus_bytes_stored = delta.bytes_stored;
        self.corpus_corrupt_dropped = delta.corrupt_dropped;
        self.corpus_evicted = delta.evicted;
    }

    /// Copies one batch's incremental preload/flush counters
    /// ([`crate::IncrStats`]) onto the incr fields and mirrors them into
    /// `metrics` under the `incr.*` counter names, so reports and JSON
    /// render them uniformly.
    pub fn absorb_incr_stats(&mut self, delta: &crate::IncrStats, metrics: &mut MetricsRegistry) {
        metrics.set(names::INCR_PRELOADED, delta.preloaded);
        metrics.set(names::INCR_FLUSHED, delta.flushed);
        metrics.set(names::INCR_UNCHANGED, delta.unchanged);
        metrics.set(names::INCR_CORRUPT_SKIPPED, delta.corrupt_skipped);
        metrics.set(names::INCR_IO_ERRORS, delta.io_errors);
        self.incr_preloaded = delta.preloaded;
        self.incr_flushed = delta.flushed;
        self.incr_unchanged = delta.unchanged;
        self.incr_corrupt_skipped = delta.corrupt_skipped;
        self.incr_io_errors = delta.io_errors;
    }

    /// Copies one run's artifact-store delta ([`crate::StoreStats::since`])
    /// onto the store fields and mirrors it into `metrics` under the
    /// `store.*` counter names, so reports and JSON render it uniformly.
    pub fn absorb_store_stats(&mut self, delta: &crate::StoreStats, metrics: &mut MetricsRegistry) {
        metrics.set(names::STORE_TMP_SWEPT, delta.tmp_swept);
        metrics.set(names::STORE_WRITE_RETRIES, delta.write_retries);
        metrics.set(names::STORE_WRITE_FAILURES, delta.write_failures);
        metrics.set(names::STORE_READ_RETRIES, delta.read_retries);
        metrics.set(names::STORE_READ_FAILURES, delta.read_failures);
        metrics.set(names::STORE_CORRUPT_DETECTED, delta.corrupt_detected);
        metrics.set(names::STORE_CHECKPOINTS_SKIPPED, delta.checkpoints_skipped);
        metrics.set(names::STORE_RETRY_BACKOFF_MS, delta.retry_backoff_ms);
        self.store_tmp_swept = delta.tmp_swept;
        self.store_write_retries = delta.write_retries;
        self.store_write_failures = delta.write_failures;
        self.store_read_retries = delta.read_retries;
        self.store_read_failures = delta.read_failures;
        self.store_corrupt_detected = delta.corrupt_detected;
        self.store_checkpoints_skipped = delta.checkpoints_skipped;
        self.store_retry_backoff_ms = delta.retry_backoff_ms;
    }

    /// `true` when any store fault-path counter is nonzero (healthy runs
    /// on a healthy disk keep all of them at zero).
    pub fn has_store_activity(&self) -> bool {
        self.store_tmp_swept
            + self.store_write_retries
            + self.store_write_failures
            + self.store_read_retries
            + self.store_read_failures
            + self.store_corrupt_detected
            + self.store_checkpoints_skipped
            + self.store_retry_backoff_ms
            > 0
    }

    /// `true` when any corpus-tier counter is nonzero (i.e. the run had a
    /// corpus cache attached and it saw traffic).
    pub fn has_corpus_activity(&self) -> bool {
        self.corpus_tracelet_hits
            + self.corpus_tracelet_misses
            + self.corpus_slm_hits
            + self.corpus_slm_misses
            + self.corpus_distance_hits
            + self.corpus_distance_misses
            + self.corpus_lifting_hits
            + self.corpus_lifting_misses
            + self.corpus_bytes_stored
            + self.corpus_corrupt_dropped
            + self.corpus_evicted
            > 0
    }

    /// `true` when the incremental sub-artifact layer saw any traffic
    /// (i.e. the batch ran with `--incremental`).
    pub fn has_incr_activity(&self) -> bool {
        self.incr_preloaded
            + self.incr_flushed
            + self.incr_unchanged
            + self.incr_corrupt_skipped
            + self.incr_io_errors
            > 0
    }

    /// Machine-readable rendering for `--timings=json`: one flat JSON
    /// object, durations as integer microseconds (no floats, no NaNs).
    /// The same document shape is emitted by `rock reconstruct` and
    /// `rock batch`, replacing the two drift-prone text formatters.
    pub fn to_json(&self) -> String {
        fn us(d: Duration) -> u128 {
            d.as_micros()
        }
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"threads\":{},\"analysis_us\":{},\"structural_us\":{},\"training_us\":{},\
             \"distances_us\":{},\"lifting_us\":{},\"repartition_us\":{},\"total_us\":{},",
            self.threads,
            us(self.analysis),
            us(self.structural),
            us(self.training),
            us(self.distances),
            us(self.lifting),
            us(self.repartition),
            us(self.total),
        );
        let _ = write!(
            s,
            "\"slm_count\":{},\"slm_nodes\":{},\"slm_edges\":{},\"slm_bytes\":{},\
             \"slm_unique_words\":{},\"slm_total_words\":{},\"edge_count\":{},\
             \"foreign_candidates\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"skipped_functions\":{},\"fuel_exhausted\":{},\"rejected_vtables\":{},\
             \"diagnostics_bytes\":{},",
            self.slm_count,
            self.slm_nodes,
            self.slm_edges,
            self.slm_bytes,
            self.slm_unique_words,
            self.slm_total_words,
            self.edge_count,
            self.foreign_candidates,
            self.cache_hits,
            self.cache_misses,
            self.skipped_functions,
            self.fuel_exhausted,
            self.rejected_vtables,
            self.diagnostics_bytes,
        );
        let _ = write!(
            s,
            "\"corpus_tracelet_hits\":{},\"corpus_tracelet_misses\":{},\
             \"corpus_slm_hits\":{},\"corpus_slm_misses\":{},\
             \"corpus_distance_hits\":{},\"corpus_distance_misses\":{},\
             \"corpus_lifting_hits\":{},\"corpus_lifting_misses\":{},\
             \"corpus_bytes_stored\":{},\"corpus_corrupt_dropped\":{},\"corpus_evicted\":{},",
            self.corpus_tracelet_hits,
            self.corpus_tracelet_misses,
            self.corpus_slm_hits,
            self.corpus_slm_misses,
            self.corpus_distance_hits,
            self.corpus_distance_misses,
            self.corpus_lifting_hits,
            self.corpus_lifting_misses,
            self.corpus_bytes_stored,
            self.corpus_corrupt_dropped,
            self.corpus_evicted,
        );
        let _ = write!(
            s,
            "\"store_tmp_swept\":{},\"store_write_retries\":{},\"store_write_failures\":{},\
             \"store_read_retries\":{},\"store_read_failures\":{},\
             \"store_corrupt_detected\":{},\"store_checkpoints_skipped\":{},\
             \"store_retry_backoff_ms\":{},",
            self.store_tmp_swept,
            self.store_write_retries,
            self.store_write_failures,
            self.store_read_retries,
            self.store_read_failures,
            self.store_corrupt_detected,
            self.store_checkpoints_skipped,
            self.store_retry_backoff_ms,
        );
        let _ = write!(
            s,
            "\"incr_preloaded\":{},\"incr_flushed\":{},\"incr_unchanged\":{},\
             \"incr_corrupt_skipped\":{},\"incr_io_errors\":{}}}",
            self.incr_preloaded,
            self.incr_flushed,
            self.incr_unchanged,
            self.incr_corrupt_skipped,
            self.incr_io_errors,
        );
        s
    }
}

impl fmt::Display for StageTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn ms(d: Duration) -> f64 {
            d.as_secs_f64() * 1e3
        }
        writeln!(f, "stage timings ({} thread(s)):", self.threads)?;
        writeln!(f, "  analysis     {:>10.3} ms", ms(self.analysis))?;
        writeln!(f, "  structural   {:>10.3} ms", ms(self.structural))?;
        writeln!(f, "  training     {:>10.3} ms  ({} SLMs)", ms(self.training), self.slm_count)?;
        writeln!(
            f,
            "  slm arenas   {} nodes, {} edges, ~{:.1} KiB, {}/{} unique words",
            self.slm_nodes,
            self.slm_edges,
            self.slm_bytes as f64 / 1024.0,
            self.slm_unique_words,
            self.slm_total_words
        )?;
        writeln!(
            f,
            "  distances    {:>10.3} ms  ({} edges, cache {} hit / {} miss)",
            ms(self.distances),
            self.edge_count,
            self.cache_hits,
            self.cache_misses
        )?;
        writeln!(f, "  lifting      {:>10.3} ms", ms(self.lifting))?;
        writeln!(f, "  repartition  {:>10.3} ms", ms(self.repartition))?;
        if self.foreign_candidates > 0 {
            writeln!(f, "  skipped foreign candidates: {}", self.foreign_candidates)?;
        }
        if self.has_corpus_activity() {
            writeln!(
                f,
                "  corpus       tracelets {}/{} hit, slms {}/{} hit, distances {}/{} hit, \
                 liftings {}/{} hit",
                self.corpus_tracelet_hits,
                self.corpus_tracelet_hits + self.corpus_tracelet_misses,
                self.corpus_slm_hits,
                self.corpus_slm_hits + self.corpus_slm_misses,
                self.corpus_distance_hits,
                self.corpus_distance_hits + self.corpus_distance_misses,
                self.corpus_lifting_hits,
                self.corpus_lifting_hits + self.corpus_lifting_misses,
            )?;
            writeln!(
                f,
                "               {} bytes stored, {} corrupt entries dropped, {} evicted",
                self.corpus_bytes_stored, self.corpus_corrupt_dropped, self.corpus_evicted
            )?;
        }
        if self.has_incr_activity() {
            writeln!(
                f,
                "  incr         {} preloaded, {} flushed, {} unchanged, \
                 {} corrupt skipped, {} io errors",
                self.incr_preloaded,
                self.incr_flushed,
                self.incr_unchanged,
                self.incr_corrupt_skipped,
                self.incr_io_errors,
            )?;
        }
        if self.has_store_activity() {
            writeln!(
                f,
                "  store        {} tmp swept, {} write retries ({} lost), \
                 {} read retries ({} lost), {} corrupt, {} saves skipped, {} ms backoff",
                self.store_tmp_swept,
                self.store_write_retries,
                self.store_write_failures,
                self.store_read_retries,
                self.store_read_failures,
                self.store_corrupt_detected,
                self.store_checkpoints_skipped,
                self.store_retry_backoff_ms,
            )?;
        }
        writeln!(
            f,
            "  robustness   {} skipped fns ({} fuel-starved), {} rejected vtables, \
             {} diagnostic bytes",
            self.skipped_functions,
            self.fuel_exhausted,
            self.rejected_vtables,
            self.diagnostics_bytes
        )?;
        write!(f, "  total        {:>10.3} ms", ms(self.total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_stage() {
        let t = StageTimings {
            analysis: Duration::from_millis(12),
            training: Duration::from_micros(1500),
            threads: 4,
            slm_count: 39,
            slm_nodes: 410,
            slm_edges: 380,
            slm_bytes: 4096,
            slm_unique_words: 57,
            slm_total_words: 200,
            edge_count: 120,
            cache_hits: 7,
            cache_misses: 113,
            skipped_functions: 2,
            fuel_exhausted: 1,
            rejected_vtables: 3,
            diagnostics_bytes: 96,
            ..StageTimings::default()
        };
        let text = t.to_string();
        for needle in [
            "4 thread(s)",
            "analysis",
            "structural",
            "39 SLMs",
            "410 nodes, 380 edges, ~4.0 KiB, 57/200 unique words",
            "120 edges",
            "cache 7 hit / 113 miss",
            "lifting",
            "repartition",
            "2 skipped fns (1 fuel-starved), 3 rejected vtables, 96 diagnostic bytes",
            "total",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // The foreign-candidate line only appears when something was skipped.
        assert!(!text.contains("foreign"));
        let skipped = StageTimings { foreign_candidates: 2, ..t };
        assert!(skipped.to_string().contains("skipped foreign candidates: 2"));
        // The corpus line only appears when a corpus cache saw traffic.
        assert!(!text.contains("corpus"));
        let corpus = StageTimings {
            corpus_tracelet_hits: 9,
            corpus_tracelet_misses: 1,
            corpus_slm_hits: 4,
            corpus_slm_misses: 2,
            corpus_distance_hits: 3,
            corpus_distance_misses: 3,
            corpus_bytes_stored: 2048,
            ..t
        };
        let text = corpus.to_string();
        assert!(text.contains("tracelets 9/10 hit, slms 4/6 hit, distances 3/6 hit"), "{text}");
        assert!(text.contains("2048 bytes stored, 0 corrupt entries dropped"), "{text}");
        assert!(corpus.to_json().contains("\"corpus_tracelet_hits\":9"));
    }

    #[test]
    fn corpus_stats_absorb_mirrors_into_the_registry() {
        let delta = crate::CorpusStats {
            tracelet_hits: 5,
            tracelet_misses: 2,
            slm_hits: 3,
            slm_misses: 1,
            distance_hits: 8,
            distance_misses: 4,
            lifting_hits: 2,
            lifting_misses: 1,
            bytes_stored: 512,
            corrupt_dropped: 1,
            evicted: 6,
        };
        let mut t = StageTimings::default();
        let mut metrics = MetricsRegistry::new();
        t.absorb_corpus_stats(&delta, &mut metrics);
        assert!(t.has_corpus_activity());
        assert_eq!(t.corpus_slm_hits, 3);
        assert_eq!(t.corpus_lifting_hits, 2);
        assert_eq!(metrics.counter(names::CORPUS_DISTANCE_MISS), 4);
        assert_eq!(metrics.counter(names::CORPUS_LIFTING_MISS), 1);
        // Re-absorbing the registry round-trips the same numbers.
        let mut back = StageTimings::default();
        back.absorb_counters(&metrics);
        assert_eq!(back.corpus_bytes_stored, 512);
        assert_eq!(back.corpus_corrupt_dropped, 1);
        assert_eq!(back.corpus_evicted, 6);
    }

    #[test]
    fn store_stats_absorb_mirrors_into_the_registry() {
        let delta = crate::StoreStats {
            tmp_swept: 2,
            write_retries: 3,
            write_failures: 1,
            read_retries: 4,
            read_failures: 2,
            corrupt_detected: 1,
            checkpoints_skipped: 5,
            retry_backoff_ms: 700,
        };
        let mut t = StageTimings::default();
        // The store line only appears when the fault paths fired.
        assert!(!t.has_store_activity());
        assert!(!t.to_string().contains("store "));
        let mut metrics = MetricsRegistry::new();
        t.absorb_store_stats(&delta, &mut metrics);
        assert!(t.has_store_activity());
        assert_eq!(metrics.counter(names::STORE_WRITE_RETRIES), 3);
        assert_eq!(metrics.counter(names::STORE_CHECKPOINTS_SKIPPED), 5);
        let text = t.to_string();
        assert!(text.contains("2 tmp swept, 3 write retries (1 lost)"), "{text}");
        assert!(text.contains("1 corrupt, 5 saves skipped, 700 ms backoff"), "{text}");
        assert!(t.to_json().contains("\"store_read_retries\":4"));
        // Re-absorbing the registry round-trips the same numbers.
        let mut back = StageTimings::default();
        back.absorb_counters(&metrics);
        assert_eq!(back.store_tmp_swept, 2);
        assert_eq!(back.store_retry_backoff_ms, 700);
    }

    #[test]
    fn incr_stats_absorb_mirrors_into_the_registry() {
        let delta = crate::IncrStats {
            preloaded: 12,
            flushed: 3,
            unchanged: 9,
            corrupt_skipped: 1,
            io_errors: 0,
        };
        let mut t = StageTimings::default();
        // The incr line only appears when the layer saw traffic.
        assert!(!t.has_incr_activity());
        assert!(!t.to_string().contains("incr "));
        let mut metrics = MetricsRegistry::new();
        t.absorb_incr_stats(&delta, &mut metrics);
        assert!(t.has_incr_activity());
        assert_eq!(metrics.counter(names::INCR_PRELOADED), 12);
        assert_eq!(metrics.counter(names::INCR_UNCHANGED), 9);
        let text = t.to_string();
        assert!(text.contains("12 preloaded, 3 flushed, 9 unchanged"), "{text}");
        assert!(t.to_json().contains("\"incr_preloaded\":12"));
        let mut back = StageTimings::default();
        back.absorb_counters(&metrics);
        assert_eq!(back.incr_preloaded, 12);
        assert_eq!(back.incr_corrupt_skipped, 1);
    }
}

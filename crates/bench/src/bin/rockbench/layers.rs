//! Layer accounting for traced runs.
//!
//! The benchmark opens its own spans around each public call it makes
//! (decode, load, each `advance`, `finish`, preload, flush) on the same
//! [`Tracer`] the program writes its `Stage`-level spans into, so one
//! job's spans form a single tree under the benchmark's job span. Each
//! span's self time (its duration minus its children's) is charged to
//! one layer; the job span's own self time, and that of any span no
//! layer claims, is the residual `core.other_ms`. The layers therefore
//! add up to the job time exactly, and the residual's share says how
//! much of the job the spans fail to explain.

use std::collections::BTreeMap;

use rock_trace::{names, Json, SpanEvent, SpanGuard, Tracer};

use crate::report::Report;

pub const JOB: &str = "rockbench.job";
pub const DECODE: &str = "rockbench.decode";
pub const LOAD: &str = "rockbench.load";
pub const BEGIN: &str = "rockbench.begin";
pub const ANALYSIS: &str = "rockbench.advance.analysis";
pub const TRAINING: &str = "rockbench.advance.training";
pub const DISTANCES: &str = "rockbench.advance.distances";
pub const LIFTING: &str = "rockbench.advance.lifting";
pub const FINISH: &str = "rockbench.finish";
pub const PRELOAD: &str = "rockbench.preload";
pub const FLUSH: &str = "rockbench.flush";
/// Around `Supervisor::run_job`: its time outside the supervisor's own
/// spans (content-key hashing, decode, load, report) is supervisor work.
pub const RUN_JOB: &str = "rockbench.run_job";

/// A traced run fails when the residual exceeds this share of job time.
pub const MAX_RESIDUAL_PCT: f64 = 5.0;

/// A benchmark span, or nothing on an untraced run.
pub fn span<'a>(tracer: Option<&'a Tracer>, name: &'static str) -> Option<SpanGuard<'a>> {
    tracer.map(|t| t.span(name, 0))
}

/// The layer metric a span's self time is charged to.
fn layer_of(span: &str) -> Option<&'static str> {
    Some(match span {
        DECODE => "binary.decode_ms",
        LOAD => "loader.load_ms",
        ANALYSIS | names::STAGE_ANALYSIS => "analysis.ms",
        names::STAGE_STRUCTURAL => "structural.ms",
        TRAINING | names::STAGE_TRAINING => "slm.train_ms",
        DISTANCES | names::STAGE_DISTANCES => "distances.ms",
        LIFTING | names::STAGE_LIFTING => "graph.lift_ms",
        BEGIN | FINISH | names::STAGE_REPARTITION => "core.finish_ms",
        RUN_JOB | names::SUPERVISOR_JOB | names::SUPERVISOR_ATTEMPT | names::SUPERVISOR_BACKOFF => {
            "supervisor.job_ms"
        }
        names::SUPERVISOR_CHECKPOINT => "supervisor.checkpoint_ms",
        names::SUPERVISOR_RESTORE => "supervisor.restore_ms",
        PRELOAD => "incr.preload_ms",
        FLUSH => "incr.flush_ms",
        _ => return None,
    })
}

/// A counter of a metrics document (as `rock_trace::parse_json` reads
/// it), 0 when absent.
pub fn doc_counter(doc: &Json, name: &str) -> u64 {
    doc.get("counters").and_then(|c| c.get(name)).and_then(Json::as_num).unwrap_or(0.0) as u64
}

/// Per-job counters read from the registry by name: (metric, counter).
const COUNTS: &[(&str, &str)] = &[
    ("loader.functions", names::ANALYSIS_FUNCTIONS_TOTAL),
    ("loader.vtables", names::LOAD_VTABLES_PARSED),
    ("analysis.functions_analyzed", names::ANALYSIS_FUNCTIONS_ANALYZED),
    ("analysis.events", names::ANALYSIS_EVENTS),
    ("structural.remaining_candidates", names::STRUCTURAL_REMAINING),
    ("slm.models_trained", names::SLM_MODELS_TRAINED),
    ("slm.arena_bytes", names::SLM_ARENA_BYTES),
    ("distances.pairs_scored", names::DISTANCES_PAIRS_SCORED),
    ("graph.tie_variants", names::LIFTING_TIE_VARIANTS),
    ("corpus.bytes_stored", names::CORPUS_BYTES_STORED),
    ("supervisor.checkpoints_saved", names::SUPERVISOR_CHECKPOINTS_SAVED),
    ("supervisor.stages_restored", names::SUPERVISOR_STAGES_RESTORED),
    ("store.write_retries", names::STORE_WRITE_RETRIES),
    ("store.read_failures", names::STORE_READ_FAILURES),
];

/// Corpus lookups behind the hit ratios.
const CORPUS: &[(&str, &str)] = &[
    (names::CORPUS_TRACELET_HIT, names::CORPUS_TRACELET_MISS),
    (names::CORPUS_SLM_HIT, names::CORPUS_SLM_MISS),
    (names::CORPUS_DISTANCE_HIT, names::CORPUS_DISTANCE_MISS),
    (names::CORPUS_LIFTING_HIT, names::CORPUS_LIFTING_MISS),
];

/// Sums over the traced jobs of one workload.
#[derive(Default)]
pub struct Layers {
    jobs: u64,
    /// Jobs whose counters were added.
    counted: u64,
    job_ms: f64,
    ms: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Charges one job's span tree; returns that job's per-layer ms.
    pub fn add_trace(&mut self, events: &[SpanEvent]) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; events.len()];
        for e in events {
            if let Some(p) = e.parent {
                child_ns[p as usize] += e.dur_ns;
            }
        }
        let mut job = BTreeMap::new();
        for (e, children) in events.iter().zip(child_ns) {
            let self_ms = e.dur_ns.saturating_sub(children) as f64 / 1e6;
            let layer = layer_of(e.name).unwrap_or("core.other_ms");
            *job.entry(layer).or_insert(0.0) += self_ms;
            if e.name == JOB {
                self.job_ms += e.dur_ns as f64 / 1e6;
            }
        }
        for (layer, ms) in &job {
            *self.ms.entry(layer).or_insert(0.0) += ms;
        }
        self.jobs += 1;
        job
    }

    /// Adds one job's counters, read by registry name.
    pub fn add_counters(&mut self, counter: impl Fn(&str) -> u64) {
        self.counted += 1;
        let corpus = CORPUS.iter().flat_map(|&(hit, miss)| [hit, miss]);
        for name in COUNTS.iter().map(|&(_, name)| name).chain(corpus) {
            *self.counts.entry(name).or_insert(0.0) += counter(name) as f64;
        }
    }

    /// Adds to a per-job count that has no registry counter.
    pub fn add_count(&mut self, metric: &'static str, v: f64) {
        *self.counts.entry(metric).or_insert(0.0) += v;
    }

    /// Writes the per-job means, ratios and the residual share.
    pub fn finish(&self, report: &mut Report) {
        let jobs = self.jobs.max(1) as f64;
        let counted = self.counted.max(1) as f64;
        let count = |name: &str| self.counts.get(name).copied().unwrap_or(0.0);
        for (layer, ms) in &self.ms {
            report.set(layer, ms / jobs);
        }
        for &(metric, name) in COUNTS {
            report.set(metric, count(name) / counted);
        }
        for metric in ["incr.preloaded", "incr.flushed"] {
            if self.counts.contains_key(metric) {
                report.set(metric, count(metric) / counted);
            }
        }
        let pairs = count(names::DISTANCES_PAIRS_SCORED);
        let distance_ms = self.ms.get("distances.ms").copied().unwrap_or(0.0);
        report.set(
            "distances.us_per_pair",
            if pairs > 0.0 { distance_ms * 1e3 / pairs } else { 0.0 },
        );
        let ratio = |hits: f64, misses: f64| {
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            }
        };
        let (hits, misses) =
            CORPUS.iter().fold((0.0, 0.0), |(h, m), (hn, mn)| (h + count(hn), m + count(mn)));
        report.set("corpus.hit_ratio", ratio(hits, misses));
        report.set(
            "corpus.tracelet_hit_ratio",
            ratio(count(names::CORPUS_TRACELET_HIT), count(names::CORPUS_TRACELET_MISS)),
        );
        report.set(
            "corpus.distance_hit_ratio",
            ratio(count(names::CORPUS_DISTANCE_HIT), count(names::CORPUS_DISTANCE_MISS)),
        );
        let other = self.ms.get("core.other_ms").copied().unwrap_or(0.0);
        report.set("harness.residual_pct", 100.0 * other / self.job_ms.max(f64::MIN_POSITIVE));
        report.samples("layers", self.jobs as usize);
    }
}

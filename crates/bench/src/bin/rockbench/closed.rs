//! The closed-loop workloads (`paper_suite`, `stress_scale`,
//! `fleet_dedup`): one client that sends its next operation only when
//! the previous one has completed. Runs in its own process, so its peak
//! resident set is the program's, not the input generator's.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rock_binary::image_from_bytes;
use rock_core::{CorpusCache, Reconstruction, Rock, RockConfig, StageId};
use rock_loader::LoadedBinary;
use rock_serve::result_fp;
use rock_supervisor::{ArtifactStore, Supervisor, SupervisorOptions};
use rock_trace::{parse_json, Json, MetricsRegistry, TraceLevel, Tracer};

use crate::inputs::{self, Input};
use crate::layers::{self, span, Layers};
use crate::memvfs;
use crate::probe::{self, Probe};
use crate::report::Report;
use crate::stats::{mean, ms_since, peak_rss_mib, percentile, Rng};
use crate::Workload;

/// Set-ups per run, each in a fresh process; `setup_s` is their median.
/// A fresh process's first `paper_suite` job took 0.4-2 ms on a 2-core
/// VM, so the median needs this many.
pub const SETUPS: usize = 11;

/// One cold run from bytes to hierarchy on `rock`, as `rock
/// reconstruct` does, with a benchmark span around each public call
/// when traced (the caller opens the job span).
pub fn cold_job(
    bytes: &[u8],
    rock: Rock,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Reconstruction, String> {
    let t = tracer.map(|t| &**t);
    let image = {
        let _s = span(t, layers::DECODE);
        image_from_bytes(bytes).map_err(|e| format!("decode: {e}"))?
    };
    let loaded = {
        let _s = span(t, layers::LOAD);
        LoadedBinary::load(image).map_err(|e| format!("load: {e}"))?
    };
    let rock = match tracer {
        Some(tr) => rock.with_tracer(Arc::clone(tr)).with_trace_level(TraceLevel::Stage),
        None => rock,
    };
    let mut run = {
        let _s = span(t, layers::BEGIN);
        rock.begin(&loaded)
    };
    while let Some(stage) = run.pending() {
        let _s = span(t, advance_span(stage));
        run.advance().map_err(|e| format!("advance {stage}: {e}"))?;
    }
    let _s = span(t, layers::FINISH);
    Ok(run.finish())
}

fn advance_span(stage: StageId) -> &'static str {
    match stage {
        StageId::Analysis => layers::ANALYSIS,
        StageId::Training => layers::TRAINING,
        StageId::Distances => layers::DISTANCES,
        StageId::Lifting => layers::LIFTING,
    }
}

/// Counters of one operation, by registry name.
enum Counters {
    Registry(MetricsRegistry),
    Doc(Json),
}

impl Counters {
    fn get(&self, name: &str) -> u64 {
        match self {
            Counters::Registry(m) => m.counter(name),
            Counters::Doc(doc) => layers::doc_counter(doc, name),
        }
    }
}

/// What one operation produced, once checked against its reference.
struct Done {
    ms: f64,
    input: usize,
    counters: Option<Counters>,
}

/// The operation source: seeded cycles over the inputs (every input once
/// per cycle, so each run has the same mix), and for `fleet_dedup` a
/// fresh store and corpus cache per pass over the fleet.
struct Driver<'a> {
    workload: Workload,
    inputs: &'a [Input],
    config: RockConfig,
    rng: Rng,
    order: Vec<usize>,
    pass: Option<(ArtifactStore, Arc<CorpusCache>)>,
}

impl<'a> Driver<'a> {
    fn next_input(&mut self) -> usize {
        if self.order.is_empty() {
            self.order = (0..self.inputs.len()).collect();
            self.rng.shuffle(&mut self.order);
            if self.workload == Workload::FleetDedup {
                self.pass = Some(fresh_pass());
            }
        }
        self.order.pop().expect("cycle refilled")
    }

    /// Runs and checks the next operation; `Err` is a failed operation.
    fn op(&mut self, tracer: Option<&Arc<Tracer>>) -> Result<Done, String> {
        let input = self.next_input();
        let want = &self.inputs[input];
        let traced = tracer.is_some();
        let (ms, fp, counters) = if let Some((store, cache)) = &self.pass {
            let mut sup = supervisor(self.config, store, cache);
            if let Some(tr) = tracer {
                sup = sup.with_tracer(Arc::clone(tr)).with_trace_level(TraceLevel::Stage);
            }
            let t = Instant::now();
            let result = {
                let t = tracer.map(|t| &**t);
                let _job = span(t, layers::JOB);
                let _run = span(t, layers::RUN_JOB);
                sup.run_job(&want.name, &want.bytes)
            };
            let ms = ms_since(t);
            let code = result.report.exit_code();
            if code != 0 {
                return Err(format!("{}: exit code {code}", want.name));
            }
            let counters = match (&result.report.metrics, traced) {
                (Some(doc), true) => Some(Counters::Doc(
                    parse_json(doc)
                        .map_err(|e| format!("{}: metrics document: {e:?}", want.name))?,
                )),
                _ => None,
            };
            (ms, result_fp(&result.output), counters)
        } else {
            let t = Instant::now();
            let recon = {
                let _job = span(tracer.map(|t| &**t), layers::JOB);
                cold_job(&want.bytes, Rock::new(self.config), tracer)?
            };
            let ms = ms_since(t);
            let counters = traced.then(|| Counters::Registry(recon.metrics.clone()));
            (ms, inputs::fingerprint(recon), counters)
        };
        if fp != want.expect {
            return Err(format!(
                "{}: fingerprint {fp:016x}, reference {:016x}",
                want.name, want.expect
            ));
        }
        Ok(Done { ms, input, counters })
    }
}

fn fresh_pass() -> (ArtifactStore, Arc<CorpusCache>) {
    (memvfs::fresh_store(), Arc::new(CorpusCache::new()))
}

fn supervisor(config: RockConfig, store: &ArtifactStore, cache: &Arc<CorpusCache>) -> Supervisor {
    let mut options = SupervisorOptions::default();
    options.collect_metrics = true;
    Supervisor::new(config, store.clone(), options).with_corpus(Arc::clone(cache))
}

/// The set-up a fresh process makes before its first timed operation: a
/// new reconstructor (for `fleet_dedup` also a new store, corpus cache
/// and supervisor) and one warm-up operation on the first input, which
/// pays every lazy initialization. The first input does not depend on
/// the seed. Returns the seconds the program spent.
fn setup(workload: Workload, inputs: &[Input], config: RockConfig) -> Result<f64, String> {
    let first = &inputs[0];
    let t = Instant::now();
    let fp = if workload == Workload::FleetDedup {
        let (store, cache) = fresh_pass();
        result_fp(&supervisor(config, &store, &cache).run_job(&first.name, &first.bytes).output)
    } else {
        inputs::fingerprint(cold_job(&first.bytes, Rock::new(config), None)?)
    };
    let seconds = t.elapsed().as_secs_f64();
    if fp != first.expect {
        return Err(format!("set-up {}: wrong result", first.name));
    }
    Ok(seconds)
}

/// Per-size rows for `stress_scale` (§3.2 linear analysis, §4.2.2
/// arborescence cost as numbers).
#[derive(Default)]
struct SizeRow {
    jobs: f64,
    vtables: f64,
    functions: f64,
    pairs: f64,
    analysis_ms: f64,
    distances_ms: f64,
    lift_ms: f64,
}

/// Runs a closed-loop workload for `seconds` after its set-up; with 0
/// seconds only the set-up.
pub fn run(workload: Workload, inputs: &[Input], seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let config = inputs::config(workload);
    // The set-up is scaled by the probes just before and after it.
    let mut host = Probe::new();
    host.sample_n(probe::NEAREST);
    let at = host.now_s();
    let set_up = setup(workload, inputs, config);
    host.sample_n(probe::NEAREST);
    match set_up {
        Ok(s) => {
            report.set("raw.setup_s", s);
            report.set("setup_s", s * host.scale_at(at));
        }
        Err(e) => report.fail(e),
    }
    if seconds == 0.0 {
        return report;
    }

    let mut driver =
        Driver { workload, inputs, config, rng: Rng::new(seed), order: Vec::new(), pass: None };
    // A traced run alternates traced and untraced operations, so drift
    // over the run lands on both sides of the overhead comparison.
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    // Untraced operations: (midpoint on the probe's clock in s, ms).
    let mut untraced: Vec<(f64, f64)> = Vec::new();
    let mut traced = Vec::new();
    let mut layers = Layers::default();
    let mut rows: BTreeMap<usize, SizeRow> = BTreeMap::new();
    while Instant::now() < end {
        host.maybe_sample();
        report.attempted += 1;
        let tracer = (trace && report.attempted % 2 == 0).then(|| Arc::new(Tracer::new()));
        let at = host.now_s();
        let done = match driver.op(tracer.as_ref()) {
            Ok(done) => done,
            Err(e) => {
                report.fail(e);
                continue;
            }
        };
        let Some(tracer) = tracer else {
            untraced.push((at + done.ms / 2e3, done.ms));
            continue;
        };
        traced.push(done.ms);
        let job = layers.add_trace(&tracer.events());
        if let Some(c) = &done.counters {
            layers.add_counters(|name| c.get(name));
            if workload == Workload::StressScale {
                let row = rows.entry(done.input).or_default();
                let get = |name| c.get(name) as f64;
                let ms = |layer| job.get(layer).copied().unwrap_or(0.0);
                row.jobs += 1.0;
                row.vtables += get(rock_trace::names::LOAD_VTABLES_PARSED);
                row.functions += get(rock_trace::names::ANALYSIS_FUNCTIONS_TOTAL);
                row.pairs += get(rock_trace::names::DISTANCES_PAIRS_SCORED);
                row.analysis_ms += ms("analysis.ms");
                row.distances_ms += ms("distances.ms");
                row.lift_ms += ms("graph.lift_ms");
            }
        }
    }
    host.sample();
    let latencies: Vec<f64> = untraced.iter().map(|&(_, ms)| ms).collect();
    if trace {
        layers.finish(&mut report);
        let base = mean(&latencies);
        report.set("harness.trace_overhead_pct", 100.0 * (mean(&traced) - base) / base);
        report.samples("trace_overhead.untraced", latencies.len());
        report.samples("trace_overhead.traced", traced.len());
        for (i, r) in rows {
            let n = r.jobs;
            report.note(format!(
                "size {}: types {:.0} functions {:.0} pairs {:.0} analysis.ms {:.2} \
                 distances.ms {:.2} graph.lift_ms {:.2} ({n:.0} jobs)",
                inputs[i].name,
                r.vtables / n,
                r.functions / n,
                r.pairs / n,
                r.analysis_ms / n,
                r.distances_ms / n,
                r.lift_ms / n,
            ));
        }
    }
    let scaled: Vec<f64> = untraced.iter().map(|&(at, ms)| ms * host.scale_at(at)).collect();
    for (prefix, xs) in [("", &scaled), ("raw.", &latencies)] {
        report.set(&format!("{prefix}job_p50_ms"), percentile(xs, 50.0));
        report.set(&format!("{prefix}job_p90_ms"), percentile(xs, 90.0));
        report.set(
            &format!("{prefix}jobs_per_s"),
            xs.len() as f64 * 1e3 / xs.iter().sum::<f64>().max(1e-9),
        );
    }
    report.samples("jobs", latencies.len());
    report.set("host.probe_ms", host.median_ms());
    report.samples("probes", host.count());
    report.set("peak_rss_mb", peak_rss_mib());
    report
}

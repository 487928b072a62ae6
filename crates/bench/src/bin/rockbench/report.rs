//! The metric catalogue, one workload's results, and the record and
//! result line built from them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). Times are
/// mean milliseconds per job and counts are per job, unless the unit
/// says otherwise; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("binary.decode_ms", "ms"),
    ("loader.load_ms", "ms"),
    ("loader.functions", "count"),
    ("loader.vtables", "count"),
    ("analysis.ms", "ms"),
    ("analysis.functions_analyzed", "count"),
    ("analysis.events", "count"),
    ("structural.ms", "ms"),
    ("structural.remaining_candidates", "count"),
    ("slm.train_ms", "ms"),
    ("slm.models_trained", "count"),
    ("slm.arena_bytes", "bytes"),
    ("distances.ms", "ms"),
    ("distances.pairs_scored", "count"),
    ("distances.us_per_pair", "us"),
    ("graph.lift_ms", "ms"),
    ("graph.tie_variants", "count"),
    ("core.finish_ms", "ms"),
    ("core.other_ms", "ms"),
    ("corpus.hit_ratio", "ratio"),
    ("corpus.tracelet_hit_ratio", "ratio"),
    ("corpus.distance_hit_ratio", "ratio"),
    ("corpus.bytes_stored", "bytes"),
    ("supervisor.job_ms", "ms"),
    ("supervisor.checkpoint_ms", "ms"),
    ("supervisor.restore_ms", "ms"),
    ("supervisor.checkpoints_saved", "count"),
    ("supervisor.stages_restored", "count"),
    ("store.write_retries", "count"),
    ("store.read_failures", "count"),
    ("incr.preload_ms", "ms"),
    ("incr.flush_ms", "ms"),
    ("incr.flushed", "count"),
    ("incr.preloaded", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.server_job_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.polls_per_job", "count"),
    ("serve.patch_p50_ms", "ms"),
    ("serve.resume_p50_ms", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.slo_rate_jobs_per_s", "1/s"),
    ("harness.gen_lag_p90_ms", "ms"),
    ("harness.trace_overhead_pct", "%"),
    ("harness.residual_pct", "%"),
    ("harness.inputs_s", "s"),
    ("harness.reference_s", "s"),
];

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, f64>,
    /// Sample count behind each percentile or mean.
    pub samples: BTreeMap<String, u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines: per-size rows, oracle mismatches, guards.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn samples(&mut self, what: &str, n: usize) {
        self.samples.insert(what.to_string(), n as u64);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A failed operation: a wrong output, a refusal, or an error. The
    /// first few are kept as notes; `failed` counts them all.
    pub fn fail(&mut self, why: String) {
        const KEPT: u64 = 20;
        self.failed += 1;
        if self.failed <= KEPT {
            self.notes.push(format!("FAILED {why}"));
        }
    }

    /// The line protocol a workload child writes to its parent.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.metrics {
            let _ = writeln!(out, "metric {k} {v}");
        }
        for (k, v) in &self.samples {
            let _ = writeln!(out, "samples {k} {v}");
        }
        let _ = writeln!(out, "attempted {}", self.attempted);
        let _ = writeln!(out, "failed {}", self.failed);
        for n in &self.notes {
            let _ = writeln!(out, "note {n}");
        }
        out
    }

    /// Folds a child's line protocol into this report.
    pub fn absorb_lines(&mut self, text: &str) -> Result<(), String> {
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let num = |s: &str| s.parse::<f64>().map_err(|e| format!("bad line {line:?}: {e}"));
            match tag {
                "metric" | "samples" => {
                    let (k, v) = rest.split_once(' ').ok_or(format!("bad line {line:?}"))?;
                    if tag == "metric" {
                        self.metrics.insert(k.to_string(), num(v)?);
                    } else {
                        self.samples.insert(k.to_string(), num(v)? as u64);
                    }
                }
                "attempted" => self.attempted += num(rest)? as u64,
                "failed" => self.failed += num(rest)? as u64,
                "note" => self.notes.push(rest.to_string()),
                _ => return Err(format!("unexpected child output {line:?}")),
            }
        }
        Ok(())
    }
}

/// The catalogue a run prints: end-to-end when untraced, per-layer when
/// traced.
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(report: &Report, trace: bool, correct: bool) -> String {
    let metrics: Vec<String> = catalogue(trace)
        .iter()
        .map(|(name, unit)| {
            let v = report.metrics.get(*name).copied().unwrap_or(0.0);
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_num(v))
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}

/// The record written under `target/rockbench/{full,smoke}/`: the
/// validity guards, every metric with its sample counts, and the notes.
pub fn record_json(report: &Report, header: &[(&str, String)], result: &str) -> String {
    let mut out = String::from("{\n");
    for (k, v) in header {
        let _ = writeln!(out, "  \"{k}\": {v},");
    }
    out.push_str("  \"metrics\": {");
    let all: Vec<String> =
        report.metrics.iter().map(|(k, v)| format!("\"{k}\": {}", json_num(*v))).collect();
    out.push_str(&all.join(", "));
    out.push_str("},\n  \"samples\": {");
    let counts: Vec<String> = report.samples.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    out.push_str(&counts.join(", "));
    out.push_str("},\n  \"notes\": [");
    let notes: Vec<String> = report.notes.iter().map(|n| json_str(n)).collect();
    out.push_str(&notes.join(", "));
    let _ = write!(out, "],\n  \"result\": {result}\n}}\n");
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

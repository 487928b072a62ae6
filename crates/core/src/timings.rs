//! Per-stage wall clock for one reconstruction run.

use std::fmt;
use std::time::Duration;

/// Wall-clock time of each pipeline stage of a single
/// [`crate::Rock::reconstruct`] call.
///
/// Related binary-lifting systems (VPS; the GrammaTech type-inference
/// work) report analysis wall-clock as a first-class result; this struct
/// makes the same numbers available here — per stage, so regressions can
/// be pinned to tracelet extraction vs. model training vs. lifting rather
/// than observed only as an end-to-end blur. Surfaced by
/// `rock reconstruct --timings` and by the pipeline benchmarks. Work
/// counts live in the run's [`crate::Reconstruction::metrics`] registry,
/// never here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Behavioral analysis: tracelet extraction + ctor recognition (§3).
    pub analysis: Duration,
    /// Structural analysis: families + possible parents (§5).
    pub structural: Duration,
    /// Per-vtable SLM training (§3.1), including the pools' content
    /// keys the model lookups use.
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
}

impl StageTimings {
    /// Machine-readable rendering for `--timings=json`: one flat JSON
    /// object, durations as integer microseconds (no floats, no NaNs).
    /// The same document shape is emitted by `rock reconstruct` and
    /// `rock batch`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"threads\":{},\"analysis_us\":{},\"structural_us\":{},\"training_us\":{},\
             \"distances_us\":{},\"lifting_us\":{},\"repartition_us\":{},\"total_us\":{}}}",
            self.threads,
            self.analysis.as_micros(),
            self.structural.as_micros(),
            self.training.as_micros(),
            self.distances.as_micros(),
            self.lifting.as_micros(),
            self.repartition.as_micros(),
            self.total.as_micros(),
        )
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
        writeln!(f, "  training     {:>10.3} ms", ms(self.training))?;
        writeln!(f, "  distances    {:>10.3} ms", ms(self.distances))?;
        writeln!(f, "  lifting      {:>10.3} ms", ms(self.lifting))?;
        writeln!(f, "  repartition  {:>10.3} ms", ms(self.repartition))?;
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
            total: Duration::from_millis(20),
            threads: 4,
            ..StageTimings::default()
        };
        let text = t.to_string();
        assert!(text.starts_with("stage timings (4 thread(s)):\n"), "{text}");
        let stages: Vec<&str> =
            text.lines().skip(1).map(|l| l.split_whitespace().next().unwrap()).collect();
        assert_eq!(
            stages,
            ["analysis", "structural", "training", "distances", "lifting", "repartition", "total"]
        );
        assert!(text.contains("analysis         12.000 ms"), "{text}");
        assert!(text.contains("training          1.500 ms"), "{text}");
        assert_eq!(
            t.to_json(),
            "{\"threads\":4,\"analysis_us\":12000,\"structural_us\":0,\"training_us\":1500,\
             \"distances_us\":0,\"lifting_us\":0,\"repartition_us\":0,\"total_us\":20000}"
        );
    }
}

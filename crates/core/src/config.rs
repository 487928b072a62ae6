//! Pipeline configuration.

use rock_analysis::AnalysisConfig;
use rock_slm::Metric;

use crate::Parallelism;

/// Two arborescence weights within this tolerance count as tied.
pub const TIE_EPSILON: f64 = 1e-9;

/// Cap on enumerated co-optimal arborescences per family.
pub const MAX_TIE_VARIANTS: usize = 8;

/// Configuration of the full Rock pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RockConfig {
    /// Behavioral-analysis knobs (tracelet length, path bounds, SLM depth).
    pub analysis: AnalysisConfig,
    /// Pairwise distance criterion (the paper uses KL; the symmetric
    /// alternatives exist for the §6.4 ablation).
    pub metric: Metric,
    /// Resolve co-optimal arborescences with the paper's majority-vote
    /// heuristic (§4.2.2 "Handling Multiple Arborescences"), within
    /// [`TIE_EPSILON`] and up to [`MAX_TIE_VARIANTS`] variants.
    pub resolve_ties: bool,
    /// Behavioral family repartitioning (OFF by default — the paper's
    /// §6.4 future-work extension): attach hierarchy roots to the most
    /// similar type of *another* family when the distance is within the
    /// range of already-accepted edges, healing false family splits.
    pub repartition_families: bool,
    /// Worker threads for the hot loops (SLM training, distance
    /// matrices, arborescences). Any setting yields a bit-identical
    /// [`crate::Reconstruction`]; only wall-clock changes.
    pub parallelism: Parallelism,
    /// Fail fast instead of degrading: the first error-severity
    /// [`crate::StageError`] aborts [`crate::Rock::try_reconstruct`]
    /// rather than being recorded and worked around.
    pub strict: bool,
    /// Rewrite direct-call events to the callee's position-independent
    /// content label (OFF by default; corpus mode turns it on). With
    /// canonical calls, tracelet pools — and the models and distances
    /// derived from them — hash identically across binaries that lay
    /// the same code out at different addresses, which is what lets a
    /// shared [`crate::CorpusCache`] dedup work fleet-wide. Changes the
    /// event *alphabet* (call targets become labels), so it is part of
    /// the supervisor's content key.
    pub canonical_calls: bool,
}

impl Default for RockConfig {
    fn default() -> Self {
        RockConfig {
            analysis: AnalysisConfig::default(),
            metric: Metric::default(),
            resolve_ties: true,
            repartition_families: false,
            parallelism: Parallelism::Auto,
            strict: false,
            canonical_calls: false,
        }
    }
}

impl RockConfig {
    /// The paper's configuration: KL divergence, depth-2 models,
    /// tracelets up to length 7.
    pub fn paper() -> Self {
        RockConfig::default()
    }

    /// Same pipeline with a different distance metric.
    pub fn with_metric(metric: Metric) -> Self {
        RockConfig { metric, ..RockConfig::default() }
    }

    /// Disables the majority-vote tie resolution (deterministic
    /// first-minimum tie-breaking only).
    pub fn without_tie_resolution(mut self) -> Self {
        self.resolve_ties = false;
        self
    }

    /// Enables behavioral family repartitioning (§6.4 future work).
    pub fn with_repartitioning(mut self) -> Self {
        self.repartition_families = true;
        self
    }

    /// Same pipeline with an explicit [`Parallelism`] setting.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Enables strict mode (fail fast on the first error-severity
    /// diagnostic instead of degrading).
    pub fn with_strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Enables position-independent (canonical) call events — the
    /// cross-binary key mode used by corpus runs.
    pub fn with_canonical_calls(mut self) -> Self {
        self.canonical_calls = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = RockConfig::default();
        assert_eq!(c.metric, Metric::KlDivergence);
        assert_eq!(c.analysis.tracelet_len, 7);
        assert_eq!(RockConfig::paper(), c);
        assert_eq!(RockConfig::with_metric(Metric::JsDistance).metric, Metric::JsDistance);
        assert!(c.resolve_ties);
        assert!(!RockConfig::default().without_tie_resolution().resolve_ties);
        assert!(!c.repartition_families, "repartitioning is opt-in");
        assert!(RockConfig::default().with_repartitioning().repartition_families);
        assert_eq!(c.parallelism, Parallelism::Auto);
        assert_eq!(
            RockConfig::default().with_parallelism(Parallelism::Threads(2)).parallelism,
            Parallelism::Threads(2)
        );
        assert!(!c.strict, "strict mode is opt-in");
        assert!(RockConfig::default().with_strict().strict);
        assert!(!c.canonical_calls, "canonical calls are opt-in");
        assert!(RockConfig::default().with_canonical_calls().canonical_calls);
    }
}

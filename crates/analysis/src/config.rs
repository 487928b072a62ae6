//! Tuning knobs of the behavioral analysis.

use rock_budget::Budget;

/// Configuration of the symbolic execution and tracelet extraction.
///
/// Defaults mirror the paper: tracelets up to length 7 (§3.2), bounded
/// path enumeration (the paper trades accuracy for scalability the same
/// way: "extract fewer and/or shorter tracelets from each procedure").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Maximum tracelet (window) length; longer event sequences are split.
    pub tracelet_len: usize,
    /// Maximum number of execution paths explored per function.
    pub max_paths: usize,
    /// Maximum times one basic block may appear on a single path
    /// (loop unrolling bound).
    pub block_visit_limit: usize,
    /// Hard cap on events recorded per object per path.
    pub max_events_per_object: usize,
    /// Depth `D` of the trained variable-order models (consumers read
    /// this; the paper's running example uses 2).
    pub slm_depth: usize,
    /// Per-function symbolic-execution fuel: one unit per instruction
    /// stepped across all explored paths. A function that exhausts its
    /// fuel is excluded (recorded, not propagated) — the same shared
    /// [`Budget`] vocabulary the interpreter uses. It is the one
    /// per-function bound: the analysis reads no clock, so a function's
    /// outcome is the same on every host and every rerun.
    pub fuel: Budget,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            tracelet_len: 7,
            max_paths: 64,
            block_visit_limit: 2,
            max_events_per_object: 512,
            slm_depth: 2,
            // Generous: bounded path enumeration stays far below this on
            // any function the loader accepts, so behavior is unchanged
            // unless a caller tightens it.
            fuel: Budget::steps(1_000_000),
        }
    }
}

impl AnalysisConfig {
    /// A cheaper configuration for very large binaries (shorter tracelets,
    /// fewer paths) — the scalability trade-off of §3.2.
    pub fn fast() -> Self {
        AnalysisConfig {
            tracelet_len: 5,
            max_paths: 16,
            block_visit_limit: 1,
            max_events_per_object: 128,
            slm_depth: 2,
            fuel: Budget::steps(200_000),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AnalysisConfig::default();
        assert_eq!(c.tracelet_len, 7);
        assert_eq!(c.slm_depth, 2);
        assert!(c.max_paths >= 16);
    }

    #[test]
    fn fast_is_cheaper() {
        let f = AnalysisConfig::fast();
        let d = AnalysisConfig::default();
        assert!(f.tracelet_len <= d.tracelet_len);
        assert!(f.max_paths <= d.max_paths);
        assert!(f.fuel <= d.fuel);
    }
}

//! Trace levels and the deterministic span sampler.
//!
//! Recording every per-item span costs real wall-clock (two monotonic
//! clock reads per span, plus buffer pushes), which `BENCH_trace.json`
//! put at ~48% of an untraced reconstruction. A [`TraceLevel`] trades
//! span-tree completeness for that cost without ever touching the
//! metrics registry: counters and histograms record 100% of the work at
//! every level, because they are fed by the stage bodies, not by span
//! emission.
//!
//! The `sampled` level keeps a deterministic 1-in-[`SPAN_SAMPLE_RATE`]
//! subset of per-item spans, chosen purely by a SplitMix64 hash of
//! `(name, subject)` — never by thread id, execution order, or clock —
//! so the sampled subject set is byte-identical across `Serial`,
//! `Threads(2)`, `Threads(8)`, and repeated runs.

use std::fmt;

/// Keep one per-item span in this many at [`TraceLevel::Sampled`]
/// (subjects whose hash clears `u64::MAX / SPAN_SAMPLE_RATE`).
pub const SPAN_SAMPLE_RATE: u64 = 16;

/// How much of the span taxonomy a tracer records.
///
/// Coarse spans (`stage.*`, `supervisor.*`) are a handful per run and
/// are kept at every enabled level; per-item spans (everything else)
/// are where the volume — and the overhead — lives. The variants are
/// ordered: a higher level records a superset of a lower one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceLevel {
    /// Record nothing (an attached tracer stays empty).
    Off,
    /// Only the stage spans and supervisor spans.
    Stage,
    /// Stage/supervisor spans plus a deterministic 1-in-16 sample of
    /// per-item spans (see [`span_sampled`]). The production default of
    /// the CLI's `--trace-level`.
    Sampled,
    /// Every span — today's complete tree, used by the golden and
    /// determinism suites. The default for embedders ([`Default`]), so
    /// attaching a tracer without choosing a level behaves exactly as
    /// it did before levels existed.
    #[default]
    Full,
}

impl TraceLevel {
    /// All levels, coarsest first.
    pub const ALL: [TraceLevel; 4] =
        [TraceLevel::Off, TraceLevel::Stage, TraceLevel::Sampled, TraceLevel::Full];

    /// Stable lowercase name (CLI flag values, bench rows).
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Stage => "stage",
            TraceLevel::Sampled => "sampled",
            TraceLevel::Full => "full",
        }
    }

    /// Parses a [`TraceLevel::name`] back to the level.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        TraceLevel::ALL.into_iter().find(|l| l.name() == s)
    }

    /// Whether a span with this `(name, subject)` is recorded at this
    /// level. Pure: depends on nothing but the arguments, which is what
    /// makes the recorded set identical across thread counts and reruns.
    pub fn admits(self, name: &str, subject: u64) -> bool {
        match self {
            TraceLevel::Off => false,
            TraceLevel::Stage => is_coarse_span(name),
            TraceLevel::Sampled => is_coarse_span(name) || span_sampled(name, subject),
            TraceLevel::Full => true,
        }
    }
}

impl fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether `name` is a coarse span — one of the handful of serial-driver
/// spans (`stage.*`), supervisor spans (`supervisor.*`), or daemon
/// spans (`serve.*`, per-connection/per-request) kept at every enabled
/// level.
pub fn is_coarse_span(name: &str) -> bool {
    name.starts_with("stage.") || name.starts_with("supervisor.") || name.starts_with("serve.")
}

/// The deterministic per-item sampling predicate: keep the span iff
/// `SplitMix64(FNV-1a(name) ^ subject)` clears the
/// 1-in-[`SPAN_SAMPLE_RATE`] threshold.
///
/// The hash sees only the span's identity, so whether a given
/// `(name, subject)` is sampled is a property of the work item itself:
/// the same functions, types, pairs, and families appear in every
/// sampled trace of a binary regardless of parallelism — and a span
/// that is dropped costs no clock read and no buffer push.
pub fn span_sampled(name: &str, subject: u64) -> bool {
    splitmix64(fnv1a(name.as_bytes()) ^ subject) < u64::MAX / SPAN_SAMPLE_RATE
}

/// SplitMix64 finalizer: a full-avalanche bijection on `u64`. The one
/// copy in the workspace: span sampling, the fault plan's seeded
/// decisions and the fuzzers' input streams all mix with it.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a (64-bit) over a byte slice. The one copy in the workspace:
/// span sampling folds a span name with it, and the stores checksum
/// every sub frame, pack segment and corpus entry, and fingerprint
/// jobs, configs and results with it. Stable across processes, builds
/// and endianness, so its outputs may be persisted.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn names_parse_and_roundtrip() {
        for level in TraceLevel::ALL {
            assert_eq!(TraceLevel::parse(level.name()), Some(level));
            assert_eq!(level.to_string(), level.name());
        }
        assert_eq!(TraceLevel::parse("verbose"), None);
        assert_eq!(TraceLevel::default(), TraceLevel::Full);
    }

    #[test]
    fn coarse_spans_survive_every_enabled_level() {
        for name in [
            names::STAGE_ANALYSIS,
            names::STAGE_REPARTITION,
            names::SUPERVISOR_JOB,
            names::SUPERVISOR_PRELOAD,
            names::SUPERVISOR_FLUSH,
            names::SERVE_CONNECTION,
            names::SERVE_REQUEST,
        ] {
            assert!(is_coarse_span(name));
            for subject in [0u64, 7, u64::MAX] {
                assert!(!TraceLevel::Off.admits(name, subject));
                assert!(TraceLevel::Stage.admits(name, subject));
                assert!(TraceLevel::Sampled.admits(name, subject));
                assert!(TraceLevel::Full.admits(name, subject));
            }
        }
    }

    #[test]
    fn per_item_spans_filter_by_level() {
        for name in [names::ANALYSIS_FUNCTION, names::DISTANCES_PAIR, names::REPARTITION_ROOT] {
            assert!(!is_coarse_span(name));
            for subject in 0..256u64 {
                assert!(!TraceLevel::Off.admits(name, subject));
                assert!(!TraceLevel::Stage.admits(name, subject));
                assert_eq!(TraceLevel::Sampled.admits(name, subject), span_sampled(name, subject));
                assert!(TraceLevel::Full.admits(name, subject));
            }
        }
    }

    #[test]
    fn levels_admit_monotonically() {
        // A higher level records a superset of a lower one, for every
        // span the pipeline can emit.
        for name in [names::STAGE_TRAINING, names::TRAINING_TYPE, names::LIFTING_FAMILY] {
            for subject in 0..512u64 {
                for pair in TraceLevel::ALL.windows(2) {
                    assert!(
                        !pair[0].admits(name, subject) || pair[1].admits(name, subject),
                        "{} admits ({name}, {subject}) but {} does not",
                        pair[0],
                        pair[1],
                    );
                }
            }
        }
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"rock"), fnv1a(b"rock"));
    }

    #[test]
    fn sampling_is_deterministic_and_near_the_nominal_rate() {
        let kept: Vec<u64> =
            (0..100_000u64).filter(|&s| span_sampled(names::DISTANCES_PAIR, s)).collect();
        let again: Vec<u64> =
            (0..100_000u64).filter(|&s| span_sampled(names::DISTANCES_PAIR, s)).collect();
        assert_eq!(kept, again, "the sampled set is a pure function of (name, subject)");
        // 1-in-16 nominal: allow a generous band around 6.25%.
        let rate = kept.len() as f64 / 100_000.0;
        assert!((0.04..=0.09).contains(&rate), "sample rate {rate} far from 1/16");
        // Different names sample different subject sets (the name seed
        // participates in the hash).
        let other: Vec<u64> =
            (0..100_000u64).filter(|&s| span_sampled(names::TRAINING_TYPE, s)).collect();
        assert_ne!(kept, other);
    }
}

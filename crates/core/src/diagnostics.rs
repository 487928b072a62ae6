//! Typed diagnostics for one reconstruction run.
//!
//! The pipeline degrades instead of dying: a function that panics under
//! symbolic execution, a vtable whose model cannot be trained, a family
//! whose arborescence search faults — each becomes a [`StageError`]
//! recorded in a [`DiagnosticSink`] and a gap accounted for by
//! [`Coverage`], while the rest of the binary is still reconstructed.
//! Strict mode ([`crate::RockConfig::strict`]) restores the old
//! fail-fast behavior by turning the first error-severity entry into a
//! hard failure.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use rock_binary::Addr;

/// A pipeline stage, as named in diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Image loading: function recovery + vtable discovery.
    Load,
    /// Behavioral analysis: symbolic execution + tracelet extraction.
    Analysis,
    /// Structural analysis: families + possible parents.
    Structural,
    /// Per-vtable SLM training.
    Training,
    /// Candidate-edge distance computation.
    Distances,
    /// Per-family arborescence search.
    Lifting,
    /// Cross-family repartitioning.
    Repartition,
}

impl Stage {
    /// Stable lowercase name (used in rendered diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Load => "load",
            Stage::Analysis => "analysis",
            Stage::Structural => "structural",
            Stage::Training => "training",
            Stage::Distances => "distances",
            Stage::Lifting => "lifting",
            Stage::Repartition => "repartition",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a [`StageError`] is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subject {
    /// The image as a whole.
    Image,
    /// A recovered function, by entry address.
    Function(Addr),
    /// A binary type, by vtable address.
    Vtable(Addr),
    /// A structural family, by index.
    Family(usize),
    /// A candidate `(parent, child)` edge.
    Edge(Addr, Addr),
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Image => write!(f, "image"),
            Subject::Function(a) => write!(f, "function {a}"),
            Subject::Vtable(a) => write!(f, "vtable {a}"),
            Subject::Family(i) => write!(f, "family #{i}"),
            Subject::Edge(p, c) => write!(f, "edge {p} -> {c}"),
        }
    }
}

/// What went wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A contained panic; the payload message is preserved.
    Panicked(String),
    /// A step budget ran out.
    FuelExhausted,
    /// A hook or plan directed the stage to skip the item.
    Skipped,
    /// The text section could not be decoded past some point.
    TruncatedDecode,
    /// Leading non-prologue instructions were dropped.
    SkippedPrefix,
    /// The image has no text section.
    MissingText,
    /// A vtable candidate failed validation and was dropped.
    RejectedVtable,
    /// A distance needed a model that was never trained.
    MissingModel,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Panicked(msg) => write!(f, "panicked: {msg}"),
            FaultKind::FuelExhausted => write!(f, "fuel exhausted"),
            FaultKind::Skipped => write!(f, "skipped"),
            FaultKind::TruncatedDecode => write!(f, "undecodable bytes truncated"),
            FaultKind::SkippedPrefix => write!(f, "pre-prologue bytes dropped"),
            FaultKind::MissingText => write!(f, "no text section"),
            FaultKind::RejectedVtable => write!(f, "vtable candidate rejected"),
            FaultKind::MissingModel => write!(f, "model missing"),
        }
    }
}

/// How bad a [`StageError`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Expected degradation (a dropped candidate, an explicit skip).
    Warning,
    /// Real loss of coverage (a panic, an exhausted budget, lost code).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One contained fault: which stage, about what, what happened, how bad.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageError {
    /// The pipeline stage that recorded the fault.
    pub stage: Stage,
    /// What the fault is about.
    pub subject: Subject,
    /// What happened.
    pub kind: FaultKind,
    /// How bad it is.
    pub severity: Severity,
}

impl StageError {
    /// Approximate retained size in bytes (for observability counters).
    pub fn approx_bytes(&self) -> usize {
        let payload = match &self.kind {
            FaultKind::Panicked(msg) => msg.len(),
            _ => 0,
        };
        std::mem::size_of::<StageError>() + payload
    }
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}: {}", self.severity, self.stage, self.subject, self.kind)
    }
}

impl std::error::Error for StageError {}

/// A lock-free, append-only collector of [`StageError`]s for one run.
///
/// Workers record concurrently: an atomic counter claims a slot, a
/// `OnceLock` publishes the entry. Entries past the fixed capacity are
/// counted as dropped instead of blocking or reallocating. The pipeline
/// records at serial merge points in input order, so the drained list is
/// deterministic; concurrent recording merely stays safe.
#[derive(Debug)]
pub struct DiagnosticSink {
    slots: Vec<OnceLock<StageError>>,
    claimed: AtomicUsize,
    dropped: AtomicUsize,
}

/// Default capacity of a [`DiagnosticSink`].
pub const DEFAULT_SINK_CAPACITY: usize = 4096;

impl Default for DiagnosticSink {
    fn default() -> Self {
        DiagnosticSink::new(DEFAULT_SINK_CAPACITY)
    }
}

impl DiagnosticSink {
    /// Creates a sink that retains up to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        DiagnosticSink {
            slots: (0..capacity).map(|_| OnceLock::new()).collect(),
            claimed: AtomicUsize::new(0),
            dropped: AtomicUsize::new(0),
        }
    }

    /// Records one fault. Lock-free; never blocks, never reallocates.
    pub fn record(&self, err: StageError) {
        let i = self.claimed.fetch_add(1, Ordering::Relaxed);
        match self.slots.get(i) {
            // A slot index is claimed exactly once, so the set cannot
            // collide; ignore the impossible error instead of unwrapping.
            Some(slot) => drop(slot.set(err)),
            None => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.claimed.load(Ordering::Acquire).min(self.slots.len())
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.claimed.load(Ordering::Acquire) == 0
    }

    /// Entries that arrived after the sink was full.
    pub fn dropped(&self) -> usize {
        self.dropped.load(Ordering::Acquire)
    }

    /// Iterates over retained entries in recording order.
    pub fn iter(&self) -> impl Iterator<Item = &StageError> {
        self.slots[..self.len()].iter().filter_map(OnceLock::get)
    }

    /// Consumes the sink into the retained entries, in recording order.
    pub fn into_entries(self) -> Vec<StageError> {
        let n = self.len();
        self.slots.into_iter().take(n).filter_map(OnceLock::into_inner).collect()
    }
}

/// What fraction of the binary the run actually covered.
///
/// Every skipped item in these counters has a matching [`StageError`] in
/// the run's diagnostics; `analyzed + skipped` always accounts for the
/// whole input.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Functions recovered by the loader.
    pub functions_total: usize,
    /// Functions whose behavioral analysis completed.
    pub functions_analyzed: usize,
    /// Functions excluded by a skip directive or a contained panic.
    pub functions_skipped: usize,
    /// Functions excluded by fuel exhaustion.
    pub functions_timed_out: usize,
    /// Vtables accepted by the loader.
    pub vtables_parsed: usize,
    /// Vtable candidates rejected while loading.
    pub vtables_rejected: usize,
    /// Vtables whose SLM trained successfully.
    pub models_trained: usize,
    /// Structural families in the binary.
    pub families_total: usize,
    /// Families whose arborescence was lifted cleanly.
    pub families_lifted: usize,
    /// Families degraded to all-roots by a contained fault.
    pub families_degraded: usize,
}

impl Coverage {
    /// Returns `true` if nothing was skipped, rejected, or degraded.
    pub fn is_complete(&self) -> bool {
        self.functions_analyzed == self.functions_total
            && self.vtables_rejected == 0
            && self.models_trained == self.vtables_parsed
            && self.families_lifted == self.families_total
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "coverage: {}/{} functions analyzed ({} skipped, {} timed out)",
            self.functions_analyzed,
            self.functions_total,
            self.functions_skipped,
            self.functions_timed_out
        )?;
        writeln!(
            f,
            "          {} vtables parsed ({} candidates rejected), {} models trained",
            self.vtables_parsed, self.vtables_rejected, self.models_trained
        )?;
        write!(
            f,
            "          {}/{} families lifted ({} degraded)",
            self.families_lifted, self.families_total, self.families_degraded
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(i: usize) -> StageError {
        StageError {
            stage: Stage::Training,
            subject: Subject::Vtable(Addr::new(i as u64)),
            kind: FaultKind::Panicked(format!("boom {i}")),
            severity: Severity::Error,
        }
    }

    #[test]
    fn records_in_order() {
        let sink = DiagnosticSink::new(8);
        assert!(sink.is_empty());
        for i in 0..3 {
            sink.record(err(i));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 0);
        let kinds: Vec<String> = sink.iter().map(|e| e.kind.to_string()).collect();
        assert_eq!(kinds, ["panicked: boom 0", "panicked: boom 1", "panicked: boom 2"]);
        assert_eq!(sink.into_entries().len(), 3);
    }

    #[test]
    fn overflow_is_counted_not_fatal() {
        let sink = DiagnosticSink::new(2);
        for i in 0..5 {
            sink.record(err(i));
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
        assert_eq!(sink.into_entries().len(), 2);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let sink = DiagnosticSink::new(64);
        std::thread::scope(|s| {
            for t in 0..4 {
                let sink = &sink;
                s.spawn(move || {
                    for i in 0..16 {
                        sink.record(err(t * 16 + i));
                    }
                });
            }
        });
        assert_eq!(sink.len(), 64);
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.iter().count(), 64);
    }

    #[test]
    fn display_forms() {
        let e = StageError {
            stage: Stage::Analysis,
            subject: Subject::Function(Addr::new(0x40)),
            kind: FaultKind::FuelExhausted,
            severity: Severity::Error,
        };
        assert_eq!(e.to_string(), "[error] analysis: function 0x40: fuel exhausted");
        assert_eq!(Subject::Edge(Addr::new(1), Addr::new(2)).to_string(), "edge 0x1 -> 0x2");
        assert_eq!(Subject::Family(3).to_string(), "family #3");
        assert_eq!(Subject::Image.to_string(), "image");
        assert_eq!(Stage::Repartition.to_string(), "repartition");
        assert_eq!(Severity::Warning.to_string(), "warning");
        assert!(err(0).approx_bytes() > std::mem::size_of::<StageError>());
    }

    #[test]
    fn coverage_completeness() {
        let mut c = Coverage {
            functions_total: 10,
            functions_analyzed: 10,
            vtables_parsed: 3,
            models_trained: 3,
            families_total: 2,
            families_lifted: 2,
            ..Coverage::default()
        };
        assert!(c.is_complete());
        c.functions_analyzed = 9;
        c.functions_skipped = 1;
        assert!(!c.is_complete());
        let text = c.to_string();
        assert!(text.contains("9/10 functions analyzed (1 skipped, 0 timed out)"));
        assert!(text.contains("3 vtables parsed"));
        assert!(text.contains("2/2 families lifted"));
    }
}

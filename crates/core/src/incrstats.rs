//! Plain counters describing incremental sub-artifact activity.
//!
//! The incremental persistence layer lives in `rock-supervisor` (its
//! `incr` module); the counter struct lives here (mirroring
//! [`crate::CorpusStats`] and [`crate::StoreStats`]) so that
//! [`crate::StageTimings`] can absorb incremental deltas without a
//! circular crate dependency.

/// Counters for one incremental preload/flush cycle.
///
/// Like store counters, these are observability only: they ride in
/// timings, metrics documents, and report lines, but never enter the
/// pipeline's own registry or diagnostics — an incremental run stays
/// byte-identical to a cold run everywhere that matters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Sub-artifacts restored into the corpus cache at preload.
    pub preloaded: u64,
    /// Sub-artifacts newly written to disk at flush.
    pub flushed: u64,
    /// Corpus entries a flush found already persisted (preloaded, or
    /// written by an earlier flush) and skipped.
    pub unchanged: u64,
    /// Sub-artifacts rejected at preload (bad frame, failed checksum,
    /// or a payload that does not reproduce its own key) — each one
    /// simply recomputes.
    pub corrupt_skipped: u64,
    /// Sub-artifact reads or writes abandoned on an i/o error.
    pub io_errors: u64,
}

impl IncrStats {
    /// Component-wise accumulation (preload + flush phases).
    pub fn add(&mut self, other: &IncrStats) {
        self.preloaded += other.preloaded;
        self.flushed += other.flushed;
        self.unchanged += other.unchanged;
        self.corrupt_skipped += other.corrupt_skipped;
        self.io_errors += other.io_errors;
    }

    /// True when any counter is non-zero.
    pub fn has_activity(&self) -> bool {
        *self != IncrStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_componentwise() {
        let mut a = IncrStats { preloaded: 3, flushed: 1, ..Default::default() };
        a.add(&IncrStats { preloaded: 2, corrupt_skipped: 1, ..Default::default() });
        assert_eq!(
            a,
            IncrStats { preloaded: 5, flushed: 1, corrupt_skipped: 1, ..Default::default() }
        );
    }

    #[test]
    fn activity_gate() {
        assert!(!IncrStats::default().has_activity());
        assert!(IncrStats { preloaded: 1, ..Default::default() }.has_activity());
        assert!(IncrStats { io_errors: 1, ..Default::default() }.has_activity());
    }
}

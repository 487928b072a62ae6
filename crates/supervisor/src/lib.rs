//! Supervised batch runtime for Rock reconstructions.
//!
//! `rock-core` makes a *single* reconstruction resilient (contained
//! faults, typed diagnostics, a staged pipeline). This crate makes a
//! *fleet* of reconstructions operable:
//!
//! * [`incr`] — persistence of the corpus cache's function-, type-,
//!   pair- and family-level sub-artifacts (tracelets, SLMs, distances,
//!   liftings) as one segment file per flush under `<root>/sub/`, keyed
//!   by content, so a patched image reuses everything its edit did not
//!   touch. It is also
//!   the one resume format: a supervised job flushes at every stage
//!   boundary, and an interrupted job resumes as a preload plus a rerun
//!   whose tier lookups answer every stage that already ran,
//!   bit-identical to an uninterrupted run (enforced by the integration
//!   property tests in `tests/batch_resume.rs`).
//! * [`artifact`] — the store those sub-artifacts live in: the storage
//!   seam, retry policy, fault counters and the offline scrub.
//! * [`ladder`] — the deterministic degradation ladder: full pipeline →
//!   reduced analysis budgets → structural-only hierarchy. The bottom
//!   rung cannot fail for a loadable image, so a supervised job never
//!   returns empty-handed.
//! * [`job`] — the [`job::Supervisor`] itself: watchdog deadlines
//!   checked at stage boundaries, retries on the
//!   [`rock_budget::RetryPolicy`] backoff schedule (recorded, and only
//!   slept on request, so tests stay clock-free), per-job JSON reports,
//!   and typed exit codes ([`job::exit`]).
//! * [`wire`] — the `rock serve` request and response frames, written
//!   with the one byte codec, [`rock_binary::codec`].
//! * [`vfs`] — the narrow storage trait the store runs on ([`StdVfs`]
//!   in production), with the durability (fsync) commit mode.
//! * [`chaos`] — seeded, clock-free storage fault injection: a
//!   [`FaultyVfs`] whose calls the storage lanes of a
//!   [`rock_core::FaultPlan`] fault as torn writes, ENOSPC, transient
//!   EIO, rename failures, partial reads and crash-shaped stale tmp
//!   files. One plan can drive a supervisor's compute faults and its
//!   store's storage faults at once.
//!
//! The CLI's `rock batch` subcommand is a thin shell around
//! [`job::Supervisor::run_batch`]; `rock store scrub` is a thin shell
//! around [`artifact::ArtifactStore::scrub`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod chaos;
pub mod incr;
pub mod job;
pub mod ladder;
pub mod vfs;
pub mod wire;

pub use artifact::{
    config_fingerprint, content_key, ArtifactStore, ScrubReport, QUARANTINE_DIR, SUB_DIR,
};
pub use chaos::FaultyVfs;
pub use incr::{decode_snapshot, encode_snapshot, flush_subartifacts, preload_subartifacts};
pub use job::{
    exit, AttemptRecord, BatchResult, JobOutcome, JobOutput, JobReport, JobResult, StoreIncident,
    Supervisor, SupervisorOptions,
};
pub use ladder::{structural_only_hierarchy, Rung};
pub use vfs::{is_transient, StdVfs, Vfs};

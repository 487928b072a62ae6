//! The reconstruction daemon: `rock serve`.
//!
//! `rock-supervisor` makes a fleet of reconstructions *operable*
//! (persistence, retries, typed exit codes); this crate makes them
//! *servable*: a dependency-free, thread-per-connection TCP daemon that
//! accepts jobs from many tenants over a versioned, length-prefixed
//! binary protocol ([`rock_supervisor::wire`]) and keeps its promises
//! under overload, slow clients, poisoned jobs, and restarts.
//!
//! The core is the robustness layer between `accept` and `execute`:
//!
//! * **Bounded admission** — a fixed-capacity queue with explicit load
//!   shedding. An overflowing submission is answered with a typed
//!   [`wire::Response::Rejected`] (`QueueFull`), never buffered without
//!   bound, never silently dropped.
//! * **Per-client quotas** — token-bucket rates and max-inflight
//!   limits keyed by the `Hello` identity ([`admission`]), so one noisy
//!   tenant degrades into `QuotaExceeded` rejections for itself instead
//!   of latency for everyone.
//! * **Cooperative deadlines** — each request runs under the
//!   supervisor's stage-boundary watchdog and retry ladder; a blown
//!   deadline is a typed `deadline` outcome, not a hung worker.
//! * **Slow-client defense** — write timeouts, an idle read timeout,
//!   and a per-connection send budget. A reader that stops draining its
//!   socket loses its *connection*; its admitted jobs still complete
//!   and stay queryable from any other connection.
//! * **Panic containment** — a worker wraps every job in
//!   `catch_unwind`; a poisoned job (e.g. a hostile
//!   [`rock_core::FaultPlan`]) fails *that request* with a typed error
//!   while the serving loop keeps serving.
//! * **Graceful drain** — `SIGTERM` or a `Drain` frame stops
//!   admission, finishes every admitted job, flushes the shared corpus,
//!   then exits cleanly. A restarted daemon pointed at the same artifact
//!   store preloads it and resumes interrupted jobs bit-identically
//!   ([`fingerprint::result_fp`] lets clients prove it over the wire).
//!
//! Jobs execute through the existing [`rock_supervisor::Supervisor`]
//! with one process-wide shared [`rock_core::CorpusCache`] (bounded, so
//! a long-lived daemon cannot grow without limit) and one artifact
//! store, so overlapping submissions from different tenants hit warm
//! stages.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod fingerprint;
pub mod frame;
pub mod server;
pub mod signals;

pub use admission::{QuotaConfig, Quotas};
pub use client::ServeClient;
pub use fingerprint::result_fp;
pub use frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME_BYTES};
pub use rock_supervisor::wire;
pub use server::{DrainSummary, ServeConfig, Server, ServerHandle};

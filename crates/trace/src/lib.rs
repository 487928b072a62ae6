//! Structured observability for the reconstruction pipeline.
//!
//! Two cooperating pieces:
//!
//! * a **hierarchical span tracer** ([`Tracer`]) recording monotonic
//!   wall-clock intervals with parent links — stage spans on the serial
//!   driver thread, per-item spans ([`LocalSpans`]) buffered inside
//!   parallel workers and merged back **in input order** at stage
//!   boundaries, so the span *tree* is deterministic modulo timestamps;
//! * a **typed metrics registry** ([`MetricsRegistry`]) of named counters
//!   and fixed-bucket histograms. No wall-clock value ever enters the
//!   registry, so two runs of the same binary under any thread count
//!   produce *equal* registries.
//!
//! The disabled path is a strict no-op: [`TraceCtx`] wraps
//! `Option<&Tracer>`, a disabled [`LocalSpans`] never allocates, never
//! reads the clock, and never takes a lock — the hot loops pay only a
//! branch. Enabled tracing is filtered through a [`TraceLevel`]:
//! `stage` keeps only the coarse `stage.*`/`supervisor.*` spans, and
//! `sampled` adds a deterministic 1-in-[`SPAN_SAMPLE_RATE`] subset of
//! per-item spans chosen purely by a hash of `(name, subject)` — a span
//! the level drops costs no clock read and no buffer push, which is
//! what takes tracer-on overhead from ~48% to a few percent.
//!
//! Exports: [`chrome_trace_json`] renders a span log in the Chrome
//! `chrome://tracing` event format; [`MetricsRegistry::to_json`] emits a
//! versioned metrics document. Both are validated (offline, no deps) by
//! [`validate_chrome_trace`] / [`validate_metrics_doc`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod json;
mod level;
mod local;
mod metrics;
pub mod names;
mod tracer;

pub use export::{
    chrome_trace_json, scrubbed, validate_chrome_trace, validate_metrics_doc, ScrubbedSpan,
};
pub use json::{json_escape, parse_json, Json};
pub use level::{fnv1a, is_coarse_span, span_sampled, splitmix64, TraceLevel, SPAN_SAMPLE_RATE};
pub use local::{LocalSpans, SpanToken};
pub use metrics::{Histogram, MetricsRegistry, DEFAULT_BOUNDS, METRICS_SCHEMA_VERSION};
pub use tracer::{SpanEvent, SpanGuard, TraceCtx, Tracer};

/// The text of a caught panic payload: the message of a `&str` or
/// `String` panic, or "opaque panic payload" for any other type. The
/// one copy in the workspace: contained stage items, analysed
/// functions, supervised attempts and daemon jobs all report panics
/// with it.
///
/// Pass the payload, `&*payload` for the `Box` `catch_unwind` returns:
/// `&payload` would coerce the box itself to `dyn Any`, which is never
/// a string.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

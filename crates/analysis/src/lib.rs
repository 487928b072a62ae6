//! Behavioral analysis: object tracelet extraction (Rock, ASPLOS'18 §3.2).
//!
//! A purely **intra-procedural** static analysis runs a symbolic execution
//! over every recovered function, tracking abstract objects and the events
//! applied to them (Table 1 of the paper):
//!
//! | event     | meaning                                              |
//! |-----------|------------------------------------------------------|
//! | `C(i)`    | call to the virtual function in vtable slot `i`      |
//! | `R(i)`    | read of the field at object offset `i`               |
//! | `W(i)`    | write of the field at object offset `i`              |
//! | `this`    | object passed as `this` to a direct call             |
//! | `Arg(i)`  | object passed as the i-th argument                   |
//! | `ret`     | object returned from the analyzed function           |
//! | `call(f)` | direct call to the concrete function `f`             |
//!
//! Objects are *predetermined* to belong to a type (§3.2) in three ways:
//!
//! 1. a **vtable-pointer store** into the object (inlined construction);
//! 2. a call to a recognized **constructor-like function** (a function
//!    that stores a vtable pointer through its `this` argument — the
//!    recognition pre-pass of [`recognize_ctors`]);
//! 3. being the `this` pointer of a **virtual function** — the function
//!    appears in some vtable's slots, and the tracelets are attributed to
//!    every such vtable.
//!
//! Event sequences per object are split into **tracelets** of bounded
//! length (7 in the paper), and pooled per binary type:
//! `TT(t) = ⋃_{type(o)=t} OT(o)`.
//!
//! # One driver
//!
//! [`extract_tracelets_with`] runs the whole analysis: the ctor
//! pre-pass, one [`execute_function`] per function, attribution, and
//! the rule-3 pins. [`extract_tracelets`] is its plain form. The driver
//! takes the two choices the pipeline makes, the form of call events
//! ([`CallEvents`]) and an optional execution cache, and derives the
//! labels each needs:
//!
//! | call events | cache | pipeline config |
//! |---|---|---|
//! | raw | none | the default config with no corpus (`rock reconstruct`) |
//! | raw | image-bound keys | no canonical calls, corpus attached (`rock batch --resume`) |
//! | canonical | none | `canonical_calls` with no corpus |
//! | canonical | content keys | `canonical_calls` with a corpus (`--incremental`, `rock serve`) |
//!
//! Every per-function bound is deterministic: path, visit and event
//! caps, and the fuel budget ([`AnalysisConfig::fuel`]). The analysis
//! reads no clock, so its output is the same on every host and rerun.
//!
//! # Example
//!
//! ```
//! use rock_minicpp::{ProgramBuilder, CompileOptions, compile};
//! use rock_loader::LoadedBinary;
//! use rock_analysis::{extract_tracelets, AnalysisConfig};
//!
//! let mut p = ProgramBuilder::new();
//! p.class("A").method("m", |b| { b.ret(); });
//! p.func("drive", |f| {
//!     f.new_obj("a", "A");
//!     f.vcall("a", "m", vec![]);
//!     f.ret();
//! });
//! let compiled = compile(&p.finish(), &CompileOptions::default())?;
//! let loaded = LoadedBinary::load(compiled.stripped_image())?;
//! let analysis = extract_tracelets(&loaded, &AnalysisConfig::default());
//! let vt = compiled.vtable_of("A").unwrap();
//! assert!(!analysis.tracelets().of_type(vt).is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Lets the oracle, which the root tests include too, name this crate.
#[cfg(test)]
extern crate self as rock_analysis;

pub mod canon;
mod config;
mod ctors;
mod event;
mod exec;
#[cfg(test)]
mod oracle;
mod tracelets;
mod value;

pub use canon::{CachedCtors, CachedExec, CachedSub, ContentLabels, ExecCache, Label, PoolSum};
pub use config::AnalysisConfig;
pub use ctors::{ctor_pins, recognize_ctors, CtorMap};
pub use event::Event;
pub use exec::{execute_function, ExecStatus, PathResult, SubObjectSummary};
pub use rock_budget::{Budget, Exhausted};
pub use tracelets::{
    extract_tracelets, extract_tracelets_with, Analysis, AnalysisHooks, CallEvents,
    FunctionDirective, IncidentKind, NoHooks, TraceletStats, TypeTracelets,
};
pub use value::{ObjId, SubObj, SymValue};

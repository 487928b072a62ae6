//! Rock: statistical reconstruction of class hierarchies in stripped
//! binaries (Katz, Rinetzky, Yahav — ASPLOS'18).
//!
//! This crate ties the substrates together into the end-to-end pipeline
//! the paper describes, plus the evaluation machinery of §6:
//!
//! 1. **Load** a stripped [`rock_binary::BinaryImage`]
//!    (`rock-loader`): recover functions, discover vtables (binary types).
//! 2. **Structural analysis** (`rock-structural`, §5): cluster the types
//!    into families, eliminate impossible parents.
//! 3. **Behavioral analysis** (`rock-analysis`, §3): extract object
//!    tracelets per type via intra-procedural symbolic execution.
//! 4. **Statistical modeling** (`rock-slm`, §3.1): train a PPM-C
//!    variable-order Markov model per type; edge weights are
//!    `D_KL(SLM(parent) ‖ SLM(child))`.
//! 5. **Lifting** (`rock-graph`, §4.2.2): per family, find a
//!    minimum-weight maximal forest (Chu-Liu/Edmonds with a virtual
//!    root); the union over families is the reconstructed hierarchy.
//! 6. **Evaluation** (§6.3): the *application distance* — per type,
//!    missing and added successors against a compile-time ground truth —
//!    in both the structural-only ("Without SLMs") and full ("With
//!    SLMs") settings.
//!
//! The [`suite`] module regenerates the paper's 19 benchmarks as
//! synthetic MiniCpp programs with matching type counts and structural
//! character; `rock-bench` turns them into Table 2.
//!
//! # Example
//!
//! ```
//! use rock_core::{Rock, RockConfig, suite};
//!
//! let bench = suite::streams_example();
//! let compiled = bench.compile()?;
//! let loaded = rock_loader::LoadedBinary::load(compiled.stripped_image())?;
//! let recon = Rock::new(RockConfig::default()).reconstruct(&loaded);
//! let eval = rock_core::evaluate(&compiled, &recon);
//! assert_eq!(eval.with_slm.avg_missing, 0.0);
//! assert_eq!(eval.with_slm.avg_added, 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod corpus;
pub mod diagnostics;
mod eval;
pub mod faultplan;
mod par;
mod pipeline;
mod pseudo;
mod report;
mod staged;
pub mod suite;
mod timings;

pub use config::RockConfig;
pub use corpus::{distance_disk_key, lift_key, pool_key, CorpusCache, SubTier};
pub use diagnostics::{Coverage, DiagnosticSink, FaultKind, Severity, Stage, StageError, Subject};
pub use eval::{evaluate, evaluate_k_parents, project_hierarchy, AppDistance, Evaluation};
pub use faultplan::{ChaosFlavor, ChaosOp, FaultPlan};
pub use par::{par_map, Parallelism};
pub use pipeline::{Reconstruction, Rock};
pub use pseudo::pseudo_source;
pub use report::{render_table2, render_table2_markdown, Table2Row};
pub use rock_trace::TraceLevel;
pub use staged::{StageId, StagedRun};
pub use timings::StageTimings;

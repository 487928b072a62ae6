//! Statistical language models (variable-order Markov models) and
//! divergence metrics, as used by Rock (ASPLOS'18, §3.1 and §4.2.1).
//!
//! The model is an n-gram model with **PPM-C** smoothing and backoff
//! (prediction by partial matching, Moffat's method C): a context trie of
//! maximum depth `D` holds symbol counts per context; a query for
//! `Pr(σ | s)` walks from the longest available context suffix down to the
//! order-(-1) uniform distribution, paying an *escape* probability each
//! time the symbol was unseen in the current context:
//!
//! ```text
//! Pr_k(σ|s)  = c(s,σ) / (T(s) + d(s))                 if σ seen after s
//!            = d(s)/(T(s)+d(s)) · Pr_{k-1}(σ|suffix)   otherwise (escape)
//! Pr_{-1}(σ) = 1 / |Σ|
//! ```
//!
//! where `T(s)` is the total count and `d(s)` the number of distinct
//! symbols observed after `s`.
//!
//! Divergences between two trained models are computed over a **word set**
//! (by default the union of both models' training windows):
//! Kullback–Leibler, Jensen–Shannon divergence, and Jensen–Shannon
//! distance. The paper found the *asymmetric* KL superior (§6.4, "Other
//! Metrics"); the symmetric alternatives are provided to reproduce that
//! ablation.
//!
//! # Example
//!
//! ```
//! use rock_slm::{Slm, kl_divergence};
//!
//! // Class1 is used as f0 f0 f0; Class3 as f0 f0 f0 f1 f2 (paper Fig. 7).
//! let mut c1 = Slm::new(2);
//! c1.train(&["f0", "f0", "f0"]);
//! let mut c2 = Slm::new(2);
//! c2.train(&["f0", "f1", "f0", "f1", "f0", "f1"]);
//! let mut c3 = Slm::new(2);
//! c3.train(&["f0", "f0", "f0", "f1", "f2"]);
//!
//! // Class3 behaves more like Class1 than like Class2 (Fig. 6a wins).
//! assert!(kl_divergence(&c3, &c1) < kl_divergence(&c3, &c2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod cache;
mod divergence;
mod family;
mod intern;
mod model;
pub mod reference;

pub use cache::{DistanceCache, GlobalDistanceStore, ModelKey};
pub use divergence::{
    cross_entropy, js_distance, js_distance_with_alphabet, js_divergence,
    js_divergence_with_alphabet, kl_divergence, kl_divergence_over, kl_divergence_over_set,
    kl_divergence_with_alphabet, perplexity, union_alphabet_len, word_set, Metric, WordSet,
};
pub use family::{ChildTarget, FamilyScorer};
pub use intern::SymbolTable;
pub use model::{Slm, Symbol};

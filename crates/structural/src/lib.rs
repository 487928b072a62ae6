//! Structural analysis: pruning infeasible class hierarchies (Rock,
//! ASPLOS'18 §5).
//!
//! Works in two phases on the vtables of a loaded binary:
//!
//! * **Phase I — clustering into type families** (§5.1): two vtables that
//!   share a virtual-function pointer ("DNA fingerprint") belong to the
//!   same family; families are the connected components of that sharing
//!   relation. Constructor-call evidence (rule 3) also joins families.
//! * **Phase II — eliminating impossible parents** (§5.2):
//!   1. a parent's vtable cannot be longer than its child's;
//!   2. a child with a *pure* slot (pointing at the `__purecall` trap)
//!      at position `i` cannot descend from a parent whose slot `i` is
//!      concrete;
//!   3. a constructor that calls another type's constructor on its own
//!      `this` **pins** that type as the parent.
//!
//! The result — families plus a `possibleParent` relation — feeds the
//! behavioral lifting of `rock-core`, and is also a complete hierarchy
//! reconstructor on its own for structurally-resolvable binaries
//! (the paper's Table 2 top half).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzestruct;
#[cfg(test)]
mod oracle;
mod purecall;

pub use analyzestruct::{analyze, EliminationStats, PossibleParents, Structural};
pub use purecall::purecall_candidates;

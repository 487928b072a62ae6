//! The deterministic degradation ladder.
//!
//! A supervised job that keeps faulting is not retried forever at full
//! strength — each retry walks one rung down a fixed ladder, trading
//! reconstruction quality for the certainty of *an* answer:
//!
//! 1. [`Rung::Full`] — the configured pipeline, untouched.
//! 2. [`Rung::Reduced`] — the same pipeline under
//!    [`AnalysisConfig::fast`] budgets (shorter tracelets, fewer paths,
//!    capped fuel) with repartitioning off; this is the paper's §3.2
//!    scalability lever ("extract fewer and/or shorter tracelets")
//!    applied as a fault-recovery policy.
//! 3. [`Rung::StructuralOnly`] — no behavioral analysis at all: the
//!    hierarchy is read straight off the structural constraints (pinned
//!    parents, then uniquely-determined candidates, everything else a
//!    root). This rung cannot meaningfully fail for a loadable image,
//!    which is what lets the supervisor promise a non-empty result even
//!    after the retry budget is gone.
//!
//! Each rung has its own [`crate::artifact::content_key`] (the config
//! fingerprint differs), so checkpoints from different rungs never mix.

use std::fmt;

use rock_analysis::{ctor_pins, recognize_ctors, AnalysisConfig};
use rock_binary::Addr;
use rock_core::RockConfig;
use rock_graph::Forest;
use rock_loader::LoadedBinary;
use rock_structural::{analyze, Structural};

/// One rung of the degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// The configured pipeline, at full budgets.
    Full,
    /// The pipeline under reduced (fast) analysis budgets.
    Reduced,
    /// Structural constraints only; no behavioral analysis.
    StructuralOnly,
}

impl Rung {
    /// The ladder, best rung first.
    pub const LADDER: [Rung; 3] = [Rung::Full, Rung::Reduced, Rung::StructuralOnly];

    /// Stable lowercase name (reports).
    pub fn name(self) -> &'static str {
        match self {
            Rung::Full => "full",
            Rung::Reduced => "reduced",
            Rung::StructuralOnly => "structural-only",
        }
    }

    /// The next rung down, if any.
    pub fn next(self) -> Option<Rung> {
        match self {
            Rung::Full => Some(Rung::Reduced),
            Rung::Reduced => Some(Rung::StructuralOnly),
            Rung::StructuralOnly => None,
        }
    }

    /// The pipeline config this rung runs under (meaningless for
    /// [`Rung::StructuralOnly`], which bypasses the pipeline).
    pub fn apply(self, base: &RockConfig) -> RockConfig {
        match self {
            Rung::Full | Rung::StructuralOnly => *base,
            Rung::Reduced => {
                let mut c = *base;
                c.analysis = AnalysisConfig::fast();
                c.repartition_families = false;
                c
            }
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The bottom-rung reconstruction: a hierarchy read directly off the
/// structural analysis, with no SLMs involved.
///
/// Per type: the pinned parent if constructor evidence fixed one
/// (rule 3), else the unique surviving candidate if elimination left
/// exactly one in-family choice, else a root. A parent that would close
/// a cycle under the choices made so far is dropped (the type stays a
/// root), so the result is always a valid forest.
pub fn structural_only_hierarchy(
    loaded: &LoadedBinary,
    config: &AnalysisConfig,
) -> (Forest<Addr>, Structural) {
    let ctors = recognize_ctors(loaded, config);
    let structural = analyze(loaded, &ctors, &ctor_pins(loaded, &ctors, config));
    let mut forest: Forest<Addr> = Forest::new();
    for family in structural.families() {
        for &vt in family {
            forest.insert(vt, None);
        }
    }
    for family in structural.families() {
        for &vt in family {
            let pinned = structural.pinned().get(&vt).copied();
            let choice = pinned.or_else(|| {
                let in_family: Vec<Addr> = structural
                    .possible_parents()
                    .of(vt)
                    .iter()
                    .copied()
                    .filter(|p| *p != vt && family.contains(p))
                    .collect();
                match in_family.as_slice() {
                    [only] => Some(*only),
                    _ => None,
                }
            });
            if let Some(parent) = choice {
                if parent != vt && !is_ancestor(&forest, vt, parent) {
                    forest.insert(vt, Some(parent));
                }
            }
        }
    }
    (forest, structural)
}

/// Returns `true` if `node` is an ancestor of (or equal to) `of` under
/// the forest's current parent assignment.
fn is_ancestor(forest: &Forest<Addr>, node: Addr, of: Addr) -> bool {
    let mut cur = Some(of);
    let mut hops = 0usize;
    while let Some(c) = cur {
        if c == node {
            return true;
        }
        // Parent chains are acyclic by construction; the hop cap is a
        // belt-and-braces bound against a corrupted forest.
        hops += 1;
        if hops > forest.len() {
            return true;
        }
        cur = forest.parent_of(&c).copied();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_minicpp::{compile, CompileOptions, ProgramBuilder};

    fn chain_sample() -> LoadedBinary {
        let mut p = ProgramBuilder::new();
        p.class("A").method("m0", |b| {
            b.ret();
        });
        p.class("B").base("A").method("m1", |b| {
            b.ret();
        });
        p.class("C").base("B").method("m2", |b| {
            b.ret();
        });
        p.func("drive", |f| {
            f.new_obj("c", "C");
            f.vcall("c", "m0", vec![]);
            f.ret();
        });
        let compiled = compile(&p.finish(), &CompileOptions::default()).unwrap();
        LoadedBinary::load(compiled.stripped_image()).unwrap()
    }

    #[test]
    fn ladder_shape() {
        assert_eq!(Rung::LADDER, [Rung::Full, Rung::Reduced, Rung::StructuralOnly]);
        assert_eq!(Rung::Full.next(), Some(Rung::Reduced));
        assert_eq!(Rung::StructuralOnly.next(), None);
        assert_eq!(Rung::Reduced.to_string(), "reduced");
    }

    #[test]
    fn reduced_rung_shrinks_budgets_but_keeps_the_rest() {
        let base = RockConfig::paper();
        let full = Rung::Full.apply(&base);
        assert_eq!(full.analysis.tracelet_len, base.analysis.tracelet_len);
        let reduced = Rung::Reduced.apply(&base);
        assert_eq!(reduced.analysis, AnalysisConfig::fast());
        assert!(!reduced.repartition_families);
        assert_eq!(reduced.metric, base.metric);
        assert_eq!(reduced.strict, base.strict);
    }

    #[test]
    fn structural_only_covers_every_family_member_acyclically() {
        let loaded = chain_sample();
        let (forest, structural) = structural_only_hierarchy(&loaded, &AnalysisConfig::default());
        let family_members: usize = structural.families().iter().map(Vec::len).sum();
        assert_eq!(forest.len(), family_members, "every type appears");
        assert!(forest.len() >= 3, "A, B, C are all typed");
        assert!(forest.is_acyclic());
        // Debug-build ctor pins fix the chain exactly.
        let parented = forest.nodes().filter(|n| forest.parent_of(n).is_some()).count();
        assert_eq!(parented, 2, "B under A, C under B");
    }

    #[test]
    fn cycle_closing_choices_degrade_to_roots() {
        // Two mutually-pinned nodes can only happen with corrupted
        // structural facts, but the forest must stay a forest anyway.
        let mut forest: Forest<Addr> = Forest::new();
        forest.insert(Addr::new(1), None);
        forest.insert(Addr::new(2), Some(Addr::new(1)));
        assert!(is_ancestor(&forest, Addr::new(1), Addr::new(2)));
        assert!(!is_ancestor(&forest, Addr::new(2), Addr::new(1)));
    }
}

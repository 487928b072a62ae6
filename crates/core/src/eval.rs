//! Evaluation: the application distance of §6.3.
//!
//! For a reverse engineer resolving virtual-call targets, what matters is
//! `successors(t)` — the set of types derived from `t`. The application
//! distance compares, per type, the reconstructed successor set against
//! the ground truth's:
//!
//! * **missing** = `|successors_GT(t) \ successors_h(t)|` — lost targets
//!   (soundness loss);
//! * **added** = `|successors_h(t) \ successors_GT(t)|` — spurious targets
//!   (extra payload to analyze).
//!
//! Two settings are measured (Table 2): *Without SLMs* — structural
//! analysis only, where a type counts as a successor of **each** of its
//! possible parents (transitively); *With SLMs* — the single-parent
//! hierarchy chosen by the full pipeline.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use rock_binary::Addr;
use rock_graph::Forest;
use rock_minicpp::Compiled;

use crate::Reconstruction;

/// Per-type and averaged missing/added counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AppDistance {
    /// Average number of missing successors per type.
    pub avg_missing: f64,
    /// Average number of added successors per type.
    pub avg_added: f64,
    /// Per-type `(missing, added)` counts.
    pub per_type: BTreeMap<String, (usize, usize)>,
}

impl AppDistance {
    /// Number of types with any error at all.
    pub fn types_with_errors(&self) -> usize {
        self.per_type.values().filter(|(m, a)| *m > 0 || *a > 0).count()
    }
}

impl fmt::Display for AppDistance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "missing {:.2}, added {:.2}", self.avg_missing, self.avg_added)
    }
}

/// The full Table 2 measurement for one benchmark binary.
#[derive(Clone, Debug, PartialEq)]
pub struct Evaluation {
    /// Structural-only setting.
    pub without_slm: AppDistance,
    /// Full-pipeline setting.
    pub with_slm: AppDistance,
    /// Whether the structural phase alone already determined a unique
    /// hierarchy (Table 2's horizontal line).
    pub structurally_resolved: bool,
    /// Number of ground-truth types.
    pub num_types: usize,
}

impl fmt::Display for Evaluation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} types (structurally resolved: {})",
            self.num_types, self.structurally_resolved
        )?;
        writeln!(f, "  without SLMs: {}", self.without_slm)?;
        writeln!(f, "  with SLMs:    {}", self.with_slm)
    }
}

/// Projects a vtable-address hierarchy onto ground-truth class names,
/// skipping synthetic types (secondary vtables etc.): unknown nodes are
/// bypassed by walking further up the parent chain (§4.1: "we identify
/// and remove synthetic classes to enable comparison").
pub fn project_hierarchy(hierarchy: &Forest<Addr>, compiled: &Compiled) -> Forest<String> {
    let mut out = Forest::new();
    for node in hierarchy.nodes() {
        let Some(name) = compiled.class_of(*node) else {
            continue;
        };
        // Walk up until a known class or a root.
        let mut parent = hierarchy.parent_of(node);
        let parent_name = loop {
            match parent {
                None => break None,
                Some(p) => match compiled.class_of(*p) {
                    Some(pn) => break Some(pn.to_string()),
                    None => parent = hierarchy.parent_of(p),
                },
            }
        };
        out.insert(name.to_string(), parent_name);
    }
    out
}

/// Successor sets in an arbitrary multi-parent relation: `c` is a
/// successor of `p` if `p` is transitively reachable from `c` through
/// parent links. Used for the Without-SLMs setting (every possible
/// parent) and for the §6.4 k-parents CFI trade-off.
fn closure_successors(parents: &BTreeMap<&str, Vec<&str>>) -> BTreeMap<String, BTreeSet<String>> {
    // successors(p) = all c such that p ∈ ancestors*(c).
    let mut successors: BTreeMap<String, BTreeSet<String>> =
        parents.keys().map(|k| (k.to_string(), BTreeSet::new())).collect();
    for &c in parents.keys() {
        // BFS upward through possible parents.
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack: Vec<&str> = parents[c].clone();
        while let Some(p) = stack.pop() {
            if !seen.insert(p) {
                continue;
            }
            if p != c {
                if let Some(s) = successors.get_mut(p) {
                    s.insert(c.to_string());
                }
            }
            if let Some(next) = parents.get(p) {
                stack.extend(next);
            }
        }
    }
    successors
}

fn distance_from_successors(
    gt_succ: &BTreeMap<String, BTreeSet<String>>,
    got_succ: &BTreeMap<String, BTreeSet<String>>,
) -> AppDistance {
    let mut per_type = BTreeMap::new();
    let empty = BTreeSet::new();
    for (t, gts) in gt_succ {
        let got = got_succ.get(t).unwrap_or(&empty);
        let missing = gts.difference(got).count();
        let added = got.difference(gts).count();
        per_type.insert(t.clone(), (missing, added));
    }
    let n = per_type.len().max(1) as f64;
    let avg_missing = per_type.values().map(|(m, _)| *m).sum::<usize>() as f64 / n;
    let avg_added = per_type.values().map(|(_, a)| *a).sum::<usize>() as f64 / n;
    AppDistance { avg_missing, avg_added, per_type }
}

fn named_parent_relation(
    compiled: &Compiled,
    of: impl Fn(rock_binary::Addr) -> Vec<rock_binary::Addr>,
) -> BTreeMap<&str, Vec<&str>> {
    compiled
        .vtables()
        .iter()
        .map(|(name, vt)| {
            let ps: Vec<&str> = of(*vt).into_iter().filter_map(|p| compiled.class_of(p)).collect();
            (name.as_str(), ps)
        })
        .collect()
}

/// Measures the §6.4 CFI trade-off: application distance when each type
/// is assigned its `k` most likely parents. `k = 1` degenerates to the
/// With-SLMs setting (modulo the closure semantics); larger `k` trades
/// added types (payload) for fewer missing types (soundness).
pub fn evaluate_k_parents(compiled: &Compiled, recon: &Reconstruction, k: usize) -> AppDistance {
    let gt = compiled.ground_truth();
    let gt_succ: BTreeMap<String, BTreeSet<String>> =
        gt.classes().map(|c| (c.to_string(), gt.successors(c))).collect();
    let k_parents = recon.k_most_likely_parents(k);
    let relation =
        named_parent_relation(compiled, |vt| k_parents.get(&vt).cloned().unwrap_or_default());
    let succ = closure_successors(&relation);
    distance_from_successors(&gt_succ, &succ)
}

/// Measures the application distance of a reconstruction against the
/// compile-time ground truth, in both Table 2 settings.
pub fn evaluate(compiled: &Compiled, recon: &Reconstruction) -> Evaluation {
    let gt = compiled.ground_truth();
    let gt_succ: BTreeMap<String, BTreeSet<String>> =
        gt.classes().map(|c| (c.to_string(), gt.successors(c))).collect();

    // With SLMs: single-parent forest successors.
    let projected = project_hierarchy(&recon.hierarchy, compiled);
    let with_succ: BTreeMap<String, BTreeSet<String>> =
        gt.classes().map(|c| (c.to_string(), projected.successors(&c.to_string()))).collect();

    // Without SLMs: every possible parent counts.
    let relation =
        named_parent_relation(compiled, |vt| recon.structural.possible_parents().of(vt).to_vec());
    let without_succ = closure_successors(&relation);

    Evaluation {
        without_slm: distance_from_successors(&gt_succ, &without_succ),
        with_slm: distance_from_successors(&gt_succ, &with_succ),
        structurally_resolved: recon.structural.is_structurally_resolved(),
        num_types: gt.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rock, RockConfig};
    use rock_loader::LoadedBinary;
    use rock_minicpp::{compile, CompileOptions, ProgramBuilder};

    fn two_tree_program() -> ProgramBuilder {
        let mut p = ProgramBuilder::new();
        p.class("A").method("am", |b| {
            b.ret();
        });
        p.class("B").base("A").method("bm", |b| {
            b.ret();
        });
        p.class("C").base("B").method("cm", |b| {
            b.ret();
        });
        p.func("drive", |f| {
            f.new_obj("a", "A");
            f.vcall("a", "am", vec![]);
            f.new_obj("b", "B");
            f.vcall("b", "am", vec![]);
            f.vcall("b", "bm", vec![]);
            f.new_obj("c", "C");
            f.vcall("c", "am", vec![]);
            f.vcall("c", "bm", vec![]);
            f.vcall("c", "cm", vec![]);
            f.ret();
        });
        p
    }

    #[test]
    fn perfect_reconstruction_scores_zero() {
        let compiled = compile(&two_tree_program().finish(), &CompileOptions::default()).unwrap();
        let loaded = LoadedBinary::load(compiled.stripped_image()).unwrap();
        let recon = Rock::new(RockConfig::default()).reconstruct(&loaded);
        let eval = evaluate(&compiled, &recon);
        assert_eq!(eval.num_types, 3);
        assert_eq!(eval.with_slm.avg_missing, 0.0);
        assert_eq!(eval.with_slm.avg_added, 0.0);
        assert!(eval.structurally_resolved, "debug build has ctor pins");
        // Structural-only is also perfect here (chain fully pinned).
        assert_eq!(eval.without_slm.avg_missing, 0.0);
        assert_eq!(eval.without_slm.avg_added, 0.0);
        assert_eq!(eval.with_slm.types_with_errors(), 0);
    }

    #[test]
    fn without_slm_counts_every_possible_parent() {
        // Optimized build: no ctor pins; B and C are ambiguous.
        let mut opts = CompileOptions::default();
        opts.inline_parent_ctors = true;
        let compiled = compile(&two_tree_program().finish(), &opts).unwrap();
        let loaded = LoadedBinary::load(compiled.stripped_image()).unwrap();
        let recon = Rock::new(RockConfig::default()).reconstruct(&loaded);
        let eval = evaluate(&compiled, &recon);
        assert!(!eval.structurally_resolved);
        // Without SLMs the ambiguity inflates added successors.
        assert!(
            eval.without_slm.avg_added >= eval.with_slm.avg_added,
            "without: {}, with: {}",
            eval.without_slm.avg_added,
            eval.with_slm.avg_added
        );
    }

    #[test]
    fn projection_skips_unknown_vtables() {
        let compiled = compile(&two_tree_program().finish(), &CompileOptions::default()).unwrap();
        let loaded = LoadedBinary::load(compiled.stripped_image()).unwrap();
        let recon = Rock::new(RockConfig::default()).reconstruct(&loaded);
        let projected = project_hierarchy(&recon.hierarchy, &compiled);
        assert_eq!(projected.len(), 3);
        assert_eq!(projected.parent_of(&"B".to_string()), Some(&"A".to_string()));
    }

    #[test]
    fn display_formats() {
        let compiled = compile(&two_tree_program().finish(), &CompileOptions::default()).unwrap();
        let loaded = LoadedBinary::load(compiled.stripped_image()).unwrap();
        let recon = Rock::new(RockConfig::default()).reconstruct(&loaded);
        let eval = evaluate(&compiled, &recon);
        let text = eval.to_string();
        assert!(text.contains("3 types"));
        assert!(text.contains("with SLMs"));
        assert!(eval.with_slm.to_string().contains("missing 0.00"));
    }
}

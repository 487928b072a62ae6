//! Ablation of **Heuristic 4.1** ("it is more plausible for a binary type
//! to be a derived type than a root type") and of the *global* tree
//! constraint.
//!
//! Compares three lifting strategies over the same structural candidates
//! and behavioral distances:
//!
//! 1. **arborescence** (the paper): minimum-weight maximal forest —
//!    global consistency + root-aversion;
//! 2. **greedy argmin**: every type independently picks its cheapest
//!    candidate parent — no tree constraint (may create cycles, which the
//!    successor computation then truncates);
//! 3. **thresholded greedy**: like 2, but a type stays a root unless its
//!    best candidate is below the median edge weight — root-friendly,
//!    violating Heuristic 4.1.
//!
//! ```text
//! cargo run -p rock-bench --bin heuristic_ablation
//! ```

use std::collections::BTreeMap;

use rock_binary::Addr;
use rock_core::suite::all_benchmarks;
use rock_core::{evaluate, Rock, RockConfig};
use rock_graph::Forest;
use rock_loader::LoadedBinary;

fn main() {
    let benches: Vec<_> =
        all_benchmarks().into_iter().filter(|b| !b.structurally_resolvable).collect();

    let mut totals: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    println!(
        "{:<18} | {:>13} | {:>13} | {:>13}",
        "benchmark", "arborescence", "greedy", "threshold"
    );
    println!("{}", "-".repeat(70));
    for bench in &benches {
        let compiled = bench.compile().expect("compiles");
        let loaded = LoadedBinary::load(compiled.stripped_image()).expect("loads");
        let recon = Rock::new(RockConfig::paper()).reconstruct(&loaded);

        // 1. The paper's result.
        let arb = evaluate(&compiled, &recon).with_slm;

        // Median edge weight for the threshold variant.
        let mut weights: Vec<f64> = recon.distances.values().copied().collect();
        weights.sort_by(f64::total_cmp);
        let median = weights.get(weights.len() / 2).copied().unwrap_or(f64::MAX);

        let variant = |threshold: Option<f64>| {
            let mut forest: Forest<Addr> = Forest::new();
            for family in recon.structural.families() {
                for &child in family {
                    let best = recon
                        .structural
                        .possible_parents()
                        .of(child)
                        .iter()
                        .copied()
                        .map(|p| (recon.distances.get(&(p, child)).copied().unwrap_or(f64::MAX), p))
                        .min_by(|a, b| a.0.total_cmp(&b.0));
                    let parent = match (best, threshold) {
                        (Some((w, p)), Some(t)) if w <= t => Some(p),
                        (Some(_), Some(_)) => None,
                        (Some((_, p)), None) => Some(p),
                        (None, _) => None,
                    };
                    forest.insert(child, parent);
                }
            }
            // Break any greedy cycles by re-rooting an arbitrary member.
            let nodes: Vec<Addr> = forest.nodes().copied().collect();
            for n in nodes {
                if !forest.is_acyclic() {
                    forest.insert(n, None);
                }
            }
            let mut alt = recon.clone();
            alt.hierarchy = forest;
            evaluate(&compiled, &alt).with_slm
        };

        let greedy = variant(None);
        let thresh = variant(Some(median));

        println!(
            "{:<18} | {:>5.2}/{:<6.2} | {:>5.2}/{:<6.2} | {:>5.2}/{:<6.2}",
            bench.name,
            arb.avg_missing,
            arb.avg_added,
            greedy.avg_missing,
            greedy.avg_added,
            thresh.avg_missing,
            thresh.avg_added,
        );
        for (key, d) in [("arb", &arb), ("greedy", &greedy), ("thresh", &thresh)] {
            let e = totals.entry(key).or_insert((0.0, 0.0));
            e.0 += d.avg_missing;
            e.1 += d.avg_added;
        }
    }
    println!("{}", "-".repeat(70));
    let n = benches.len() as f64;
    for (key, (m, a)) in &totals {
        println!("{key:>10}: mean missing {:.3}, mean added {:.3}", m / n, a / n);
    }
    let arb_total = totals["arb"].0 + totals["arb"].1;
    let thresh_total = totals["thresh"].0 + totals["thresh"].1;
    println!(
        "\nHeuristic 4.1 + global tree constraint {} the threshold variant.",
        if arb_total <= thresh_total { "beats" } else { "LOSES TO" }
    );
}

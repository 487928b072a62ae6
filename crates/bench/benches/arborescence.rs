//! §4.2.2 runtime claim: "it takes only a few minutes to construct the
//! weighted graph and find an arborescence" — here, the Chu-Liu/Edmonds
//! solver is benchmarked against growing complete candidate graphs
//! (the worst case: every pair of types in one family), and the tie
//! search against complete graphs whose weights repeat, where most
//! children have tied parents and each variant is a full re-solve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rock_graph::{co_optimal_forests, min_spanning_forest, DiGraph};

/// Complete digraph over `n` nodes whose weights `weight` draws from a
/// deterministic pseudo-random stream (mimicking a one-family KL matrix).
fn complete_graph(n: usize, weight: impl Fn(u64) -> f64) -> DiGraph {
    let mut g = DiGraph::new(n);
    let mut state = 0x12345678u64;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                g.add_edge(i, j, weight(state >> 33));
            }
        }
    }
    g
}

fn bench_arborescence(c: &mut Criterion) {
    let mut group = c.benchmark_group("edmonds_min_spanning_forest");
    group.sample_size(10);
    for n in [8usize, 16, 32, 64, 128] {
        let g = complete_graph(n, |r| r as f64 / (1u64 << 31) as f64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| {
                let r = min_spanning_forest(std::hint::black_box(g));
                assert_eq!(r.parent.len(), g.node_count());
                r
            });
        });
    }
    group.finish();
}

fn bench_tie_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("co_optimal_forests_tied");
    group.sample_size(10);
    for n in [16usize, 32, 64, 128] {
        let g = complete_graph(n, |r| [0.25, 0.5, 0.75][(r % 3) as usize]);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| {
                let variants = co_optimal_forests(std::hint::black_box(g), 1e-9, 8);
                assert!(variants.len() > 1, "repeated weights tie some child");
                variants
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_arborescence, bench_tie_search);
criterion_main!(benches);

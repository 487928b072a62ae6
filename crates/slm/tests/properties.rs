//! Property-based tests for the PPM-C model and divergences, including
//! the bit-exact equivalence oracle: the arena-backed [`Slm`] must agree
//! with the seed `BTreeMap` implementation ([`rock_slm::reference`]) on
//! every probability — to exact `f64` bits, unknown symbols included.

use proptest::prelude::*;
use rock_slm::reference::ReferenceSlm;
use rock_slm::{
    js_distance, js_divergence, kl_divergence, union_alphabet_len, FamilyScorer, Metric, Slm,
};

fn arb_seq() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..6, 1..20)
}

fn arb_training() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(arb_seq(), 1..8)
}

fn trained(depth: usize, seqs: &[Vec<u8>]) -> Slm<u8> {
    let mut m = Slm::new(depth);
    for s in seqs {
        m.train(s);
    }
    m
}

fn ref_trained(depth: usize, seqs: &[Vec<u8>]) -> ReferenceSlm<u8> {
    let mut m = ReferenceSlm::new(depth);
    for s in seqs {
        m.train(s);
    }
    m
}

/// The canonical weighted accumulation over `a`'s deduplicated sorted
/// words, with every probability drawn from the *reference* models: the
/// oracle value [`kl_divergence`] must reproduce bit for bit.
fn ref_canonical_kl(a: &Slm<u8>, ra: &ReferenceSlm<u8>, rb: &ReferenceSlm<u8>, n: usize) -> f64 {
    let mut sum_a = 0.0;
    let mut sum_b = 0.0;
    let mut positions = 0u64;
    for (w, cnt) in a.training() {
        sum_a += cnt as f64 * ra.sequence_log_prob_with_alphabet(w, n);
        sum_b += cnt as f64 * rb.sequence_log_prob_with_alphabet(w, n);
        positions += cnt * w.len() as u64;
    }
    if positions == 0 {
        0.0
    } else {
        (sum_a - sum_b) / positions as f64
    }
}

/// Reference-composed `D(A ‖ ½(A+B))` over `a`'s words (one JS half).
fn ref_canonical_klm(a: &Slm<u8>, ra: &ReferenceSlm<u8>, rb: &ReferenceSlm<u8>, n: usize) -> f64 {
    let mut total = 0.0;
    let mut positions = 0u64;
    for (w, cnt) in a.training() {
        let mut wsum = 0.0;
        for i in 0..w.len() {
            let pa = ra.prob_with_alphabet(&w[i], &w[..i], n);
            let pb = rb.prob_with_alphabet(&w[i], &w[..i], n);
            let pm = 0.5 * (pa + pb);
            wsum += (pa / pm).ln();
        }
        total += cnt as f64 * wsum;
        positions += cnt * w.len() as u64;
    }
    if positions == 0 {
        0.0
    } else {
        total / positions as f64
    }
}

proptest! {
    /// Every conditional probability lies in (0, 1].
    #[test]
    fn probabilities_are_valid(seqs in arb_training(), ctx in prop::collection::vec(0u8..6, 0..4), sym in 0u8..6) {
        let m = trained(2, &seqs);
        let p = m.prob(&sym, &ctx);
        prop_assert!(p > 0.0, "p = {p}");
        prop_assert!(p <= 1.0, "p = {p}");
    }

    /// The conditional distribution over the (shared) alphabet is a
    /// sub-measure: PPM without exclusion may leak mass, never exceed 1.
    /// The query must use the same alphabet size as the summation range.
    #[test]
    fn conditional_sums_to_at_most_one(seqs in arb_training(), ctx in prop::collection::vec(0u8..6, 0..3)) {
        let m = trained(2, &seqs);
        let sum: f64 = (0u8..6).map(|s| m.prob_with_alphabet(&s, &ctx, 6)).sum();
        prop_assert!(sum <= 1.0 + 1e-9, "sum = {sum}");
    }

    /// Sequence log-probability equals the sum of conditional logs.
    #[test]
    fn sequence_prob_factorizes(seqs in arb_training(), query in arb_seq()) {
        let m = trained(3, &seqs);
        let mut manual = 0.0;
        for i in 0..query.len() {
            let lo = i.saturating_sub(3);
            manual += m.prob(&query[i], &query[lo..i]).ln();
        }
        let got = m.sequence_log_prob(&query);
        prop_assert!((got - manual).abs() < 1e-9);
    }

    /// Self-divergence is exactly zero; divergence to a different model is
    /// finite.
    #[test]
    fn kl_self_zero_and_finite(seqs_a in arb_training(), seqs_b in arb_training()) {
        let a = trained(2, &seqs_a);
        let b = trained(2, &seqs_b);
        prop_assert!(kl_divergence(&a, &a).abs() < 1e-12);
        prop_assert!(kl_divergence(&a, &b).is_finite());
    }

    /// JS divergence is symmetric and non-negative.
    #[test]
    fn js_symmetric_nonnegative(seqs_a in arb_training(), seqs_b in arb_training()) {
        let a = trained(2, &seqs_a);
        let b = trained(2, &seqs_b);
        let ab = js_divergence(&a, &b);
        let ba = js_divergence(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!(ab >= -1e-12);
    }

    /// Training on more copies of a sequence raises (or keeps) its
    /// probability relative to an untrained competitor sequence.
    #[test]
    fn repetition_reinforces(seq in arb_seq()) {
        let mut m1 = Slm::new(2);
        m1.train(&seq);
        let mut m5 = Slm::new(2);
        for _ in 0..5 {
            m5.train(&seq);
        }
        let p1 = m1.sequence_log_prob(&seq);
        let p5 = m5.sequence_log_prob(&seq);
        prop_assert!(p5 >= p1 - 1e-9, "p5 = {p5}, p1 = {p1}");
    }

    /// Depth-0 models ignore context entirely.
    #[test]
    fn depth_zero_ignores_context(seqs in arb_training(), sym in 0u8..6, ctx in prop::collection::vec(0u8..6, 1..4)) {
        let m = trained(0, &seqs);
        prop_assert!((m.prob(&sym, &ctx) - m.prob(&sym, &[])).abs() < 1e-12);
    }

    /// Oracle equivalence: `prob_with_alphabet` agrees with the seed
    /// implementation to exact f64 bits — including symbols and context
    /// entries (6 and 7) the model has never seen, and alphabet sizes
    /// both smaller and larger than the observed alphabet.
    #[test]
    fn arena_prob_matches_reference_bits(
        seqs in arb_training(),
        depth in 0usize..4,
        sym in 0u8..8,
        ctx in prop::collection::vec(0u8..8, 0..5),
        n in 1usize..12,
    ) {
        let arena = trained(depth, &seqs);
        let seed = ref_trained(depth, &seqs);
        let pa = arena.prob_with_alphabet(&sym, &ctx, n);
        let pr = seed.prob_with_alphabet(&sym, &ctx, n);
        prop_assert_eq!(pa.to_bits(), pr.to_bits(), "prob {} vs {}", pa, pr);
    }

    /// Oracle equivalence: the cursor-based one-pass sequence scorer
    /// agrees with the seed's per-symbol root walks to exact f64 bits.
    #[test]
    fn arena_sequence_log_prob_matches_reference_bits(
        seqs in arb_training(),
        depth in 0usize..4,
        query in prop::collection::vec(0u8..8, 0..24),
        n in 1usize..12,
    ) {
        let arena = trained(depth, &seqs);
        let seed = ref_trained(depth, &seqs);
        let la = arena.sequence_log_prob_with_alphabet(&query, n);
        let lr = seed.sequence_log_prob_with_alphabet(&query, n);
        prop_assert_eq!(la.to_bits(), lr.to_bits(), "log prob {} vs {}", la, lr);
    }

    /// Oracle equivalence for all three metrics: every divergence equals
    /// the canonical weighted accumulation composed from *reference*
    /// model probabilities, to exact f64 bits, at every depth.
    #[test]
    fn metrics_match_reference_composition_bits(
        seqs_a in arb_training(),
        seqs_b in arb_training(),
        depth in 0usize..4,
    ) {
        let a = trained(depth, &seqs_a);
        let b = trained(depth, &seqs_b);
        let ra = ref_trained(depth, &seqs_a);
        let rb = ref_trained(depth, &seqs_b);
        let n = union_alphabet_len(&a, &b);

        let kl = ref_canonical_kl(&a, &ra, &rb, n);
        prop_assert_eq!(kl_divergence(&a, &b).to_bits(), kl.to_bits());
        prop_assert_eq!(Metric::KlDivergence.distance(&a, &b).to_bits(), kl.to_bits());

        let js = 0.5 * (ref_canonical_klm(&a, &ra, &rb, n) + ref_canonical_klm(&b, &rb, &ra, n));
        prop_assert_eq!(js_divergence(&a, &b).to_bits(), js.to_bits());
        prop_assert_eq!(js_distance(&a, &b).to_bits(), js.max(0.0).sqrt().to_bits());
    }

    /// Oracle equivalence for the batched kernel: over a family of 4–8
    /// members trained on shifted sub-alphabets (so parents hold words
    /// with symbols the child never saw), plus a duplicate model, an
    /// untrained one, one trained on an empty word and a member without
    /// a model, every ordered pair's `ChildTarget::kl_from` equals
    /// `kl_divergence` to exact f64 bits — in either parent order, so a
    /// word and a transition memoized for one parent are reused for
    /// another — and the canonical accumulation over *reference* models,
    /// so the batched kernel is pinned to the seed model and not only to
    /// the per-pair kernel, whose trie and step it shares.
    #[test]
    fn batched_family_kl_matches_per_pair_bits(
        depth in 0usize..4,
        pools in prop::collection::vec((0u8..4, arb_training()), 1..6),
    ) {
        let mut pools: Vec<Vec<Vec<u8>>> = pools
            .iter()
            .map(|(shift, seqs)| seqs.iter().map(|s| s.iter().map(|x| x + shift).collect()).collect())
            .collect();
        pools.push(pools[0].clone());
        pools.push(Vec::new());
        pools.push(vec![Vec::new()]);
        let models: Vec<Slm<u8>> = pools.iter().map(|seqs| trained(depth, seqs)).collect();
        let refs: Vec<ReferenceSlm<u8>> = pools.iter().map(|seqs| ref_trained(depth, seqs)).collect();
        let mut members: Vec<Option<usize>> = (0..models.len()).map(Some).collect();
        members.insert(1, None);
        let family = FamilyScorer::new(&members.iter().map(|m| m.map(|i| &models[i])).collect::<Vec<_>>());
        for (c, child) in members.iter().enumerate() {
            let Some(child) = *child else { continue };
            let mut target = family.target(c);
            let order: Vec<usize> = (0..members.len()).chain((0..members.len()).rev()).collect();
            for p in order {
                let Some(parent) = members[p] else { continue };
                let (a, b) = (&models[parent], &models[child]);
                let want = kl_divergence(a, b);
                let got = target.kl_from(p);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{} -> {}: {} vs {}", p, c, got, want);
                let seed = ref_canonical_kl(a, &refs[parent], &refs[child], union_alphabet_len(a, b));
                prop_assert_eq!(got.to_bits(), seed.to_bits(), "{} -> {}: {} vs seed {}", p, c, got, seed);
            }
        }
    }

    /// Interner-id stability regression: training order must not affect
    /// the symbol table or any probability bit. Ids are assigned by `Ord`
    /// rank over the alphabet *set*, not first-seen order.
    #[test]
    fn interner_ids_are_training_order_independent(
        seqs in arb_training(),
        sym in 0u8..8,
        ctx in prop::collection::vec(0u8..8, 0..4),
        probe in arb_training(),
    ) {
        let fwd = trained(2, &seqs);
        let rev_seqs: Vec<Vec<u8>> = seqs.iter().rev().cloned().collect();
        let rev = trained(2, &rev_seqs);
        prop_assert_eq!(fwd.symbol_table(), rev.symbol_table());
        prop_assert_eq!(
            fwd.prob(&sym, &ctx).to_bits(),
            rev.prob(&sym, &ctx).to_bits()
        );
        let other = trained(2, &probe);
        prop_assert_eq!(
            kl_divergence(&fwd, &other).to_bits(),
            kl_divergence(&rev, &other).to_bits()
        );
    }
}

//! Divergence metrics between trained models (paper §4.2.1 and the
//! "Other Metrics" ablation of §6.4).
//!
//! All metrics are computed over each model's **deduplicated** training
//! words, weighting every term by the word's multiplicity — algebraically
//! the same sum as the seed's clone-by-clone loop, but each distinct word
//! is scored once. The self side of every pair (`Σ count · ln Pr_A(w)`
//! over `A`'s own words and the per-position probability vectors) comes
//! from the model's cached word-evaluation table (`Slm::eval_table`),
//! computed **once per model** — own-word scoring never reaches the
//! alphabet-size-dependent order-(-1) base case — and reused across all
//! O(n²) pairs; the cross side reuses the *other* model's table whenever
//! the word also appears in its training set, and falls back to one-pass
//! cursor scoring for every other word.
//!
//! These are the per-pair kernels: each call scores one pair from
//! scratch. The distance stage scores a child's candidate parents as one
//! batch instead ([`crate::FamilyScorer`]), which reuses the child's word
//! scores across parents and gives the same bits; the kernels here stay
//! its test oracle and serve every other caller (single-candidate
//! children, the JS metrics, repartitioning, `k_most_likely_parents`).

use crate::arena::Cursor;
use crate::model::{EvalTable, Index};
use crate::{Slm, Symbol};

/// The pairwise distance criterion used to weigh hierarchy edges.
///
/// The paper's algorithm is parametric in this choice (Remark 4.1); only a
/// *ranking* over candidate parents is required.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Metric {
    /// Kullback–Leibler divergence `D_KL(child ‖ parent)` — the paper's
    /// choice, asymmetric like the problem itself.
    #[default]
    KlDivergence,
    /// Jensen–Shannon divergence (symmetrized KL) — reported to perform
    /// poorly (§6.4).
    JsDivergence,
    /// Jensen–Shannon distance (√JS) — likewise symmetric.
    JsDistance,
}

impl Metric {
    /// All metrics, for ablation sweeps.
    pub const ALL: [Metric; 3] = [Metric::KlDivergence, Metric::JsDivergence, Metric::JsDistance];

    /// Computes the distance from `a` to `b` under this metric with the
    /// per-pair kernels. The pair's union alphabet size is merged once
    /// per call (not once per internal KL term). Nothing is memoized
    /// here: the pipeline reuses a distance only through an attached
    /// corpus cache, keyed by the two models' content keys.
    pub fn distance<S: Symbol>(self, a: &Slm<S>, b: &Slm<S>) -> f64 {
        let n = union_alphabet_len(a, b);
        match self {
            Metric::KlDivergence => kl_divergence_with_alphabet(a, b, n),
            Metric::JsDivergence => js_divergence_with_alphabet(a, b, n),
            Metric::JsDistance => js_distance_with_alphabet(a, b, n),
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Metric::KlDivergence => "KL-divergence",
            Metric::JsDivergence => "JS-divergence",
            Metric::JsDistance => "JS-distance",
        };
        f.write_str(s)
    }
}

/// Size of the union of two models' observed alphabets (at least 1): the
/// `|Σ|` both sides of a comparison use for the order-(-1) base case.
/// One linear merge over the two sorted alphabets — no set allocation.
pub fn union_alphabet_len<S: Symbol>(a: &Slm<S>, b: &Slm<S>) -> usize {
    let mut ia = a.alphabet().peekable();
    let mut ib = b.alphabet().peekable();
    let mut n = 0usize;
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(x), Some(y)) => {
                match x.cmp(y) {
                    std::cmp::Ordering::Less => {
                        ia.next();
                    }
                    std::cmp::Ordering::Greater => {
                        ib.next();
                    }
                    std::cmp::Ordering::Equal => {
                        ia.next();
                        ib.next();
                    }
                }
                n += 1;
            }
            (Some(_), None) => {
                ia.next();
                n += 1;
            }
            (None, Some(_)) => {
                ib.next();
                n += 1;
            }
            (None, None) => break,
        }
    }
    n.max(1)
}

/// The word set two models are compared over: the union of their distinct
/// training sequences.
///
/// KL is "measured over a set of words W" (§4.2.1); using the observed
/// tracelets weights frequent behaviours highly and is finite by
/// construction. The set borrows the words straight out of the models'
/// deduplicated training pools — nothing is cloned per pair.
#[derive(Clone, Debug)]
pub struct WordSet<'m, S: Symbol> {
    words: Vec<&'m [S]>,
}

impl<'m, S: Symbol> WordSet<'m, S> {
    /// Number of distinct non-empty words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` if both models were untrained (or trained only on
    /// empty sequences).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterates the words in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &'m [S]> + '_ {
        self.words.iter().copied()
    }
}

/// Builds the union word set of two models' training pools (deduplicated,
/// empty words skipped), borrowing each word from its owning model.
pub fn word_set<'m, S: Symbol>(a: &'m Slm<S>, b: &'m Slm<S>) -> WordSet<'m, S> {
    let mut words = Vec::new();
    let mut ia = a.training().peekable();
    let mut ib = b.training().peekable();
    loop {
        let next: &'m [S] = match (ia.peek(), ib.peek()) {
            (Some(&(wa, _)), Some(&(wb, _))) => match wa.cmp(wb) {
                std::cmp::Ordering::Less => {
                    ia.next();
                    wa
                }
                std::cmp::Ordering::Greater => {
                    ib.next();
                    wb
                }
                std::cmp::Ordering::Equal => {
                    ia.next();
                    ib.next();
                    wa
                }
            },
            (Some(&(wa, _)), None) => {
                ia.next();
                wa
            }
            (None, Some(&(wb, _))) => {
                ib.next();
                wb
            }
            (None, None) => break,
        };
        if !next.is_empty() {
            words.push(next);
        }
    }
    WordSet { words }
}

/// A word of model `a` translated into model `b`'s id space, with the
/// cross-model evaluation-table fast path: when the translated word is
/// also one of `b`'s training words, its (bit-identical) cached score is
/// used instead of re-walking `b`'s trie.
struct CrossScorer<'m, S: Symbol> {
    ib: &'m Index<S>,
    table: &'m EvalTable,
    /// `a` id → `b` id.
    map: Vec<Option<u32>>,
    cursor: Cursor<'m>,
    opt_buf: Vec<Option<u32>>,
    id_buf: Vec<u32>,
}

impl<'m, S: Symbol> CrossScorer<'m, S> {
    fn new(ia: &Index<S>, b: &'m Slm<S>) -> Self {
        let ib = b.index();
        CrossScorer {
            ib,
            table: b.eval_table(),
            map: ia.table.translation_to(&ib.table),
            cursor: Cursor::new(&ib.trie),
            opt_buf: Vec::new(),
            id_buf: Vec::new(),
        }
    }

    /// Translates `word` (in `a` ids); returns the index of the matching
    /// training word of `b`, if any. `self.opt_buf` holds the translation
    /// afterwards either way.
    fn translate(&mut self, word: &[u32]) -> Option<usize> {
        self.opt_buf.clear();
        self.opt_buf.extend(word.iter().map(|&id| self.map[id as usize]));
        if self.opt_buf.iter().any(Option::is_none) {
            return None;
        }
        self.id_buf.clear();
        self.id_buf.extend(self.opt_buf.iter().map(|id| id.expect("checked above")));
        let ids = &self.id_buf;
        self.ib.words.binary_search_by(|(w, _)| w.as_slice().cmp(ids)).ok()
    }

    /// `ln Pr_B(word)` — cached when `word` is in `b`'s training pool.
    fn log_prob(&mut self, word: &[u32], n: usize) -> f64 {
        match self.translate(word) {
            Some(widx) => self.table.word_log_probs[widx],
            None => {
                self.cursor.reset();
                let mut lp = 0.0;
                for &id in &self.opt_buf {
                    lp += self.cursor.prob(id, n).ln();
                    self.cursor.advance(id);
                }
                lp
            }
        }
    }
}

/// `D_KL(A ‖ B)`: the Kullback–Leibler divergence *rate* between the two
/// models — the expected extra nats **per symbol** when encoding `A`'s
/// behaviours with `B`'s code instead of `A`'s own:
///
/// ```text
/// D(A‖B) = Σ_ctx P_A(ctx) · Σ_σ P_A(σ|ctx) · ln(P_A(σ|ctx) / P_B(σ|ctx))
/// ```
///
/// with the context distribution `P_A(ctx)` taken empirically from `A`'s
/// training tracelets (so "popular behaviors weigh more than rare ones",
/// §4.2.1): every distinct word's log-likelihood difference is weighted by
/// its clone count. Zero iff `B` assigns the same conditionals on `A`'s
/// support; asymmetric, as the parent/child relation demands.
pub fn kl_divergence<S: Symbol>(a: &Slm<S>, b: &Slm<S>) -> f64 {
    kl_divergence_with_alphabet(a, b, union_alphabet_len(a, b))
}

/// [`kl_divergence`] with the union alphabet size supplied by the caller.
pub fn kl_divergence_with_alphabet<S: Symbol>(a: &Slm<S>, b: &Slm<S>, n: usize) -> f64 {
    let ia = a.index();
    let ta = a.eval_table();
    if ta.weighted_positions == 0 {
        return 0.0;
    }
    let mut cross = CrossScorer::new(ia, b);
    let mut sum_b = 0.0;
    for (word, count) in &ia.words {
        sum_b += *count as f64 * cross.log_prob(word, n);
    }
    (ta.weighted_log_sum - sum_b) / ta.weighted_positions as f64
}

/// `D_KL(A ‖ B) = Σ_w Pr_A(w) · ln(Pr_A(w) / Pr_B(w))` over an explicit
/// word set.
///
/// Computed in log space: PPM-C never assigns a true zero, but for long
/// words `sequence_prob_with_alphabet` underflows `f64` to `0.0`, and a
/// naive `pa > 0 && pb > 0` guard would silently drop exactly the terms
/// that dominate the divergence (a word `A` knows well that `B` finds
/// astronomically unlikely). `ln(pa/pb) = log_pa − log_pb` stays finite,
/// and the `pa` weight underflowing to zero is then the mathematically
/// correct limit rather than a dropped term.
pub fn kl_divergence_over<S: Symbol>(a: &Slm<S>, b: &Slm<S>, words: &[Vec<S>]) -> f64 {
    let n = union_alphabet_len(a, b);
    let mut d = 0.0;
    for w in words {
        let log_pa = log_prob_cached(a, w, n);
        let log_pb = log_prob_cached(b, w, n);
        d += log_pa.exp() * (log_pa - log_pb);
    }
    d
}

/// [`kl_divergence_over`] over a borrowed [`WordSet`] (the zero-clone
/// form used by pair sweeps).
pub fn kl_divergence_over_set<S: Symbol>(a: &Slm<S>, b: &Slm<S>, words: &WordSet<'_, S>) -> f64 {
    let n = union_alphabet_len(a, b);
    let mut d = 0.0;
    for w in words.iter() {
        let log_pa = log_prob_cached(a, w, n);
        let log_pb = log_prob_cached(b, w, n);
        d += log_pa.exp() * (log_pa - log_pb);
    }
    d
}

/// `ln Pr_M(w)` — answered from `m`'s word-evaluation table when `w` is
/// one of its training words, scored with one cursor pass otherwise.
fn log_prob_cached<S: Symbol>(m: &Slm<S>, w: &[S], n: usize) -> f64 {
    let im = m.index();
    let ids = im.table.intern_seq(w);
    if ids.iter().all(Option::is_some) {
        let exact: Vec<u32> = ids.iter().map(|id| id.expect("checked above")).collect();
        if let Ok(widx) = im.words.binary_search_by(|(word, _)| word.as_slice().cmp(&exact)) {
            return m.eval_table().word_log_probs[widx];
        }
    }
    m.score_ids(&ids, n)
}

/// Jensen–Shannon divergence rate: `½·D(A‖M) + ½·D(B‖M)` where the
/// mixture model `M` has conditionals `½(P_A + P_B)`; each half is
/// evaluated over the corresponding model's training data, mirroring
/// [`kl_divergence`]. Symmetric by construction — provided for the §6.4
/// "Other Metrics" ablation, where symmetry is a *disadvantage*.
pub fn js_divergence<S: Symbol>(a: &Slm<S>, b: &Slm<S>) -> f64 {
    js_divergence_with_alphabet(a, b, union_alphabet_len(a, b))
}

/// [`js_divergence`] with the union alphabet size supplied by the caller.
pub fn js_divergence_with_alphabet<S: Symbol>(a: &Slm<S>, b: &Slm<S>, n: usize) -> f64 {
    0.5 * (kl_to_mixture(a, b, n) + kl_to_mixture(b, a, n))
}

/// `D(A ‖ ½(A+B))` over `A`'s training data. The `P_A` side comes from
/// `A`'s word-evaluation table; the `P_B` side reuses `B`'s table for
/// shared words and cursor-scores the rest.
fn kl_to_mixture<S: Symbol>(a: &Slm<S>, b: &Slm<S>, n: usize) -> f64 {
    let ia = a.index();
    let ta = a.eval_table();
    if ta.weighted_positions == 0 {
        return 0.0;
    }
    let mut cross = CrossScorer::new(ia, b);
    let mut total = 0.0;
    for (wi, (word, count)) in ia.words.iter().enumerate() {
        let pas = &ta.pos_probs[wi];
        let mut wsum = 0.0;
        match cross.translate(word) {
            Some(widx) => {
                let pbs = &cross.table.pos_probs[widx];
                for (pa, pb) in pas.iter().zip(pbs) {
                    let pm = 0.5 * (pa + pb);
                    wsum += (pa / pm).ln();
                }
            }
            None => {
                cross.cursor.reset();
                for (pos, &id) in cross.opt_buf.iter().enumerate() {
                    let pb = cross.cursor.prob(id, n);
                    let pm = 0.5 * (pas[pos] + pb);
                    wsum += (pas[pos] / pm).ln();
                    cross.cursor.advance(id);
                }
            }
        }
        total += *count as f64 * wsum;
    }
    total / ta.weighted_positions as f64
}

/// Jensen–Shannon distance: `√JS`.
pub fn js_distance<S: Symbol>(a: &Slm<S>, b: &Slm<S>) -> f64 {
    js_distance_with_alphabet(a, b, union_alphabet_len(a, b))
}

/// [`js_distance`] with the union alphabet size supplied by the caller.
pub fn js_distance_with_alphabet<S: Symbol>(a: &Slm<S>, b: &Slm<S>, n: usize) -> f64 {
    js_divergence_with_alphabet(a, b, n).max(0.0).sqrt()
}

/// Cross-entropy rate (nats per symbol) of `sequences` under `model`:
/// the average negative log-likelihood. [`kl_divergence`] is exactly
/// `cross_entropy(B's data, A) − cross_entropy(A's data, A)` evaluated on
/// `A`'s data — exposed separately for diagnostics.
pub fn cross_entropy<S: Symbol>(model: &Slm<S>, sequences: &[Vec<S>]) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for seq in sequences {
        total -= model.sequence_log_prob(seq);
        count += seq.len();
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Perplexity of `sequences` under `model`: `exp(cross_entropy)`. A model
/// that predicts its own training data well has low perplexity; an
/// unrelated type's model scores high.
pub fn perplexity<S: Symbol>(model: &Slm<S>, sequences: &[Vec<S>]) -> f64 {
    cross_entropy(model, sequences).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(depth: usize, seqs: &[&[&'static str]]) -> Slm<&'static str> {
        let mut m = Slm::new(depth);
        for s in seqs {
            m.train(s);
        }
        m
    }

    #[test]
    fn kl_self_is_zero() {
        let m = model(2, &[&["f0", "f1", "f0"]]);
        assert_eq!(kl_divergence(&m, &m), 0.0);
    }

    #[test]
    fn kl_is_asymmetric() {
        // Parent behaviours ⊂ child behaviours: encoding the child with
        // the parent's model differs from the reverse.
        let parent = model(2, &[&["f0", "f0", "f0"]]);
        let child = model(2, &[&["f0", "f0", "f0"], &["f0", "f1", "f2"]]);
        let d_cp = kl_divergence(&child, &parent);
        let d_pc = kl_divergence(&parent, &child);
        assert!((d_cp - d_pc).abs() > 1e-9, "KL should be asymmetric");
    }

    #[test]
    fn paper_fig6_ranking() {
        // Fig. 7 usage sequences; Class3's tracelet contains Class1's.
        let c1 = model(2, &[&["f0", "f0", "f0"]]);
        let c2 = model(2, &[&["f0", "f1", "f0", "f1", "f0", "f1"]]);
        let c3 = model(2, &[&["f0", "f0", "f0", "f1", "f2"]]);
        let d31 = kl_divergence(&c3, &c1);
        let d32 = kl_divergence(&c3, &c2);
        assert!(d31 < d32, "Class1 should rank as more likely parent of Class3: {d31} vs {d32}");
    }

    #[test]
    fn kl_weights_duplicate_words() {
        // A word trained five times must dominate the empirical context
        // distribution exactly as five stored clones did in the seed.
        let mut many = Slm::new(2);
        for _ in 0..5 {
            many.train(&["x", "y"]);
        }
        many.train(&["z"]);
        let mut each = Slm::new(2);
        each.train(&["x", "y"]);
        each.train(&["z"]);
        let b = model(2, &[&["y", "z", "y"]]);
        let d_many = kl_divergence(&many, &b);
        let d_each = kl_divergence(&each, &b);
        assert!((d_many - d_each).abs() > 1e-12, "multiplicity must shift the weighting");
        // Weighted average stays between the per-word extremes.
        assert!(d_many.is_finite() && d_each.is_finite());
    }

    #[test]
    fn js_is_symmetric() {
        let a = model(2, &[&["x", "y"]]);
        let b = model(2, &[&["y", "z", "z"]]);
        let ab = js_divergence(&a, &b);
        let ba = js_divergence(&b, &a);
        assert!((ab - ba).abs() < 1e-12);
        assert!((js_distance(&a, &b) - ab.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn js_self_is_zero() {
        let a = model(2, &[&["x", "y", "x"]]);
        assert!(js_divergence(&a, &a).abs() < 1e-12);
        assert!(js_distance(&a, &a).abs() < 1e-12);
    }

    #[test]
    fn word_set_unions_training() {
        let a = model(2, &[&["x"], &["y"]]);
        let b = model(2, &[&["y"], &["z"]]);
        let w = word_set(&a, &b);
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
        let words: Vec<&[&str]> = w.iter().collect();
        assert_eq!(words, vec![&["x"][..], &["y"][..], &["z"][..]]);
        // The set borrows from the models — same kl either way.
        let via_set = kl_divergence_over_set(&a, &b, &w);
        let owned: Vec<Vec<&str>> = w.iter().map(<[&str]>::to_vec).collect();
        assert_eq!(via_set.to_bits(), kl_divergence_over(&a, &b, &owned).to_bits());
    }

    #[test]
    fn metric_enum_dispatch() {
        let a = model(2, &[&["x", "y"]]);
        let b = model(2, &[&["y", "z"]]);
        assert_eq!(Metric::KlDivergence.distance(&a, &b), kl_divergence(&a, &b));
        assert_eq!(Metric::JsDivergence.distance(&a, &b), js_divergence(&a, &b));
        assert_eq!(Metric::JsDistance.distance(&a, &b), js_distance(&a, &b));
        assert_eq!(Metric::default(), Metric::KlDivergence);
        assert_eq!(Metric::ALL.len(), 3);
        assert_eq!(Metric::KlDivergence.to_string(), "KL-divergence");
        assert_eq!(union_alphabet_len(&a, &b), 3);
    }

    #[test]
    fn kl_over_explicit_words() {
        let a = model(2, &[&["x", "y"]]);
        let b = model(2, &[&["y", "z"]]);
        let words = vec![vec!["x", "y"]];
        let d = kl_divergence_over(&a, &b, &words);
        assert!(d > 0.0);
        // Over an empty word set the divergence collapses to zero.
        assert_eq!(kl_divergence_over(&a, &b, &[]), 0.0);
    }

    #[test]
    fn kl_over_long_words_survives_underflow() {
        // Regression: `b` finds a 64-symbol word of pure "q"s astronomically
        // unlikely — log Pr_B ≈ 64·ln(escape·1/|Σ|) is far below ln(f64::MIN),
        // so Pr_B rounds to exactly 0.0 and the old `pa > 0 && pb > 0` guard
        // silently dropped the single dominant term, reporting d == 0.
        let a = model(2, &[&["q"; 64]]);
        let mut b = Slm::new(2);
        let noise: Vec<&'static str> =
            ["u", "v", "w"].iter().cycle().take(120_000).copied().collect();
        b.train(&noise);
        let words = vec![vec!["q"; 64]];
        let n = 4; // union alphabet {q, u, v, w}
        assert_eq!(union_alphabet_len(&a, &b), n);
        assert_eq!(
            b.sequence_prob_with_alphabet(&words[0], n),
            0.0,
            "fixture must actually underflow in linear space"
        );
        let d = kl_divergence_over(&a, &b, &words);
        assert!(d.is_finite() && d > 100.0, "long-word term must dominate, not vanish: {d}");
        // Over an empty word set the divergence still collapses to zero.
        assert_eq!(kl_divergence_over(&a, &b, &[]), 0.0);
    }

    #[test]
    fn cross_entropy_and_perplexity() {
        let m = model(2, &[&["a", "b", "a", "b"], &["a", "b"]]);
        let own = cross_entropy(&m, &[vec!["a", "b"]]);
        let foreign = cross_entropy(&m, &[vec!["b", "b", "b"]]);
        assert!(own < foreign, "own data must be cheaper: {own} vs {foreign}");
        assert!((perplexity(&m, &[vec!["a", "b"]]) - own.exp()).abs() < 1e-12);
        assert_eq!(cross_entropy(&m, &[]), 0.0);
        assert_eq!(perplexity(&m, &[]), 1.0);
    }

    #[test]
    fn untrained_models_are_indistinguishable() {
        let a: Slm<&str> = Slm::new(2);
        let b: Slm<&str> = Slm::new(2);
        assert_eq!(kl_divergence(&a, &b), 0.0);
        assert_eq!(js_divergence(&a, &b), 0.0);
        assert_eq!(union_alphabet_len(&a, &b), 1);
        assert!(word_set(&a, &b).is_empty());
    }
}

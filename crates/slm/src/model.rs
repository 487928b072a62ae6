//! The PPM-C variable-order Markov model, arena-backed and interned.
//!
//! The public probability API is unchanged from the seed implementation
//! (which survives as [`crate::reference`] and serves as the equivalence
//! oracle), but the data plane is rebuilt around three ideas:
//!
//! 1. **Deduplicated training** — [`Slm::train`] stores each distinct
//!    sequence once with a multiplicity count. Stress binaries emit
//!    thousands of identical tracelet clones per type; every divergence
//!    loop now visits each distinct word once and weights by count.
//! 2. **Interned symbols** — a [`SymbolTable`] maps symbols to dense
//!    `u32` ids in `Ord` order (insertion-order independent), so the trie
//!    stores integers instead of cloned symbols.
//! 3. **Arena trie, scored as an automaton** — contexts live in one flat
//!    node array over one sorted edge array, each node with its suffix
//!    link, `T + d` and escape cached ([`crate::arena`]). A scoring
//!    cursor's state is one node, the longest context suffix the trie
//!    holds, and one `step` per symbol returns both the probability and
//!    the next state; every caller (the evaluation table, the per-pair
//!    and batched kernels, the JS metrics and the sequence APIs) scores
//!    through it.
//!
//! The interned index is built lazily on first query (training only
//! buffers sequences) and cached; further training invalidates it. All
//! probability results are bit-identical to the reference implementation.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::OnceLock;

use crate::arena::{ArenaTrie, ROOT};
use crate::intern::SymbolTable;

/// Marker trait for symbols an [`Slm`] can model.
///
/// Blanket-implemented for any ordered, clonable, debuggable type; event
/// alphabets, `&'static str`, integers and interned ids all qualify.
pub trait Symbol: Clone + Ord + fmt::Debug {}

impl<T: Clone + Ord + fmt::Debug> Symbol for T {}

/// The lazily-built interned view of a trained model: symbol table, arena
/// trie, interned unique words, and per-alphabet word-evaluation tables.
pub(crate) struct Index<S: Symbol> {
    pub(crate) table: SymbolTable<S>,
    pub(crate) trie: ArenaTrie,
    /// Unique training words as id sequences with multiplicities, in the
    /// same sorted order as [`Slm::training`] iteration. Sorted ids mean
    /// the list is also lexicographically sorted by id sequence, so other
    /// models' translated words can be binary-searched against it.
    pub(crate) words: Vec<(Vec<u32>, u64)>,
    /// The word-evaluation table, built once per model on first use.
    eval: OnceLock<EvalTable>,
}

/// Scores of a model's own training words: the reusable "A-side" of every
/// divergence this model participates in. Computed **once per model** and
/// shared across all O(n²) pairs: own-word scoring never reaches the
/// order-(-1) `1/|Σ|` base case (every symbol of a training word has a
/// root count, so the escape chain always terminates at a count hit), so
/// the table is independent of the pair's union alphabet size — bit for
/// bit.
pub(crate) struct EvalTable {
    /// Per unique word (aligned with [`Index::words`]): `ln Pr(word)`.
    pub(crate) word_log_probs: Vec<f64>,
    /// Every unique word's per-position conditional probabilities,
    /// concatenated in word order (see [`EvalTable::pos_probs`]).
    pos_probs: Vec<f64>,
    /// Word `w`'s probabilities are `pos_probs[pos_start[w]..pos_start[w + 1]]`.
    pos_start: Vec<usize>,
    /// `Σ_w count(w) · ln Pr(w)` in word order.
    pub(crate) weighted_log_sum: f64,
    /// `Σ_w count(w) · len(w)` — total symbol occurrences incl. clones.
    pub(crate) weighted_positions: u64,
}

impl EvalTable {
    /// Unique word `w`'s per-position conditional probabilities.
    pub(crate) fn pos_probs(&self, w: usize) -> &[f64] {
        &self.pos_probs[self.pos_start[w]..self.pos_start[w + 1]]
    }
}

/// A trained statistical language model over symbols of type `S`.
///
/// See the [crate docs](crate) for the probability definition. Models
/// remember their training sequences (deduplicated, with multiplicities)
/// so that divergence word sets can be derived from them (see
/// [`word_set`](crate::word_set)).
///
/// # Example
///
/// ```
/// use rock_slm::Slm;
/// let mut m = Slm::new(2);
/// m.train(&['a', 'a', 'b']);
/// // 'a' follows 'a' once and 'b' follows 'a' once: total 2, distinct 2,
/// // so PPM-C gives each 1/(2+2) = 1/4, with 2/(2+2) = 1/2 escape mass.
/// let p = m.prob(&'b', &['a']);
/// assert!((p - 0.25).abs() < 1e-12);
/// ```
pub struct Slm<S: Symbol> {
    depth: usize,
    /// Distinct training sequences → multiplicity, sorted by sequence.
    training: BTreeMap<Vec<S>, u64>,
    /// Total `train` calls (clones included).
    trained_total: u64,
    alphabet: BTreeSet<S>,
    /// Interned arena view, built lazily and reset by further training.
    index: OnceLock<Index<S>>,
}

impl<S: Symbol> Slm<S> {
    /// Creates an untrained model with maximum context depth `depth`
    /// (the paper uses depth 2 in its running example).
    pub fn new(depth: usize) -> Self {
        Slm {
            depth,
            training: BTreeMap::new(),
            trained_total: 0,
            alphabet: BTreeSet::new(),
            index: OnceLock::new(),
        }
    }

    /// The maximum context depth `D`.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Trains the model on one sequence. Call repeatedly for a training
    /// *set* (one call per tracelet). Duplicate sequences are stored once
    /// with a multiplicity count; counts in the context trie accumulate
    /// exactly as if every clone were stored.
    pub fn train(&mut self, seq: &[S]) {
        self.train_counted(seq, 1);
    }

    /// Trains the model on one sequence with an explicit multiplicity:
    /// equivalent to `count` calls to [`Slm::train`]. Training is
    /// order-independent (sorted map, additive counts), so a model
    /// rebuilt from `(sequence, count)` pairs — e.g. when restoring a
    /// persisted model — is bit-identical to the original.
    pub fn train_counted(&mut self, seq: &[S], count: u64) {
        if count == 0 {
            return;
        }
        // A repeat only adds its count: its symbols are in the alphabet
        // already, and the map holds its key.
        match self.training.get_mut(seq) {
            Some(c) => *c += count,
            None => {
                self.alphabet.extend(seq.iter().cloned());
                self.training.insert(seq.to_vec(), count);
            }
        }
        self.trained_total += count;
        self.index = OnceLock::new();
    }

    /// The interned view, building it on first use.
    pub(crate) fn index(&self) -> &Index<S> {
        self.index.get_or_init(|| {
            let table = SymbolTable::from_sorted_set(&self.alphabet);
            let words: Vec<(Vec<u32>, u64)> = self
                .training
                .iter()
                .map(|(seq, &count)| {
                    let ids = seq.iter().map(|s| table.id_of(s).expect("trained symbol")).collect();
                    (ids, count)
                })
                .collect();
            let trie = ArenaTrie::build(self.depth, &words);
            Index { table, trie, words, eval: OnceLock::new() }
        })
    }

    /// Forces the interned index (symbol table + arena trie) and the
    /// word-evaluation table to be built now. Queries do this lazily; the
    /// pipeline calls it inside the parallel training stage so the build
    /// cost lands there, not in the first divergence.
    pub fn finalize(&self) {
        self.eval_table();
    }

    /// The word-evaluation table: every unique training word scored once
    /// under this model. Built lazily, once per model — own-word scores
    /// never depend on the alphabet size (see [`EvalTable`]), so one
    /// table serves every pair this model appears in.
    pub(crate) fn eval_table(&self) -> &EvalTable {
        let idx = self.index();
        idx.eval.get_or_init(|| {
            let mut word_log_probs = Vec::with_capacity(idx.words.len());
            let mut pos_probs = Vec::with_capacity(idx.words.iter().map(|(w, _)| w.len()).sum());
            let mut pos_start = Vec::with_capacity(idx.words.len() + 1);
            pos_start.push(0);
            let mut weighted_log_sum = 0.0;
            let mut weighted_positions = 0u64;
            for (word, count) in &idx.words {
                let mut state = ROOT;
                let mut lp = 0.0;
                for &id in word {
                    // The alphabet size passed here is irrelevant: `id`
                    // is a trained symbol, so the order-(-1) base case is
                    // unreachable.
                    let (p, next) = idx.trie.step(state, Some(id), 1);
                    pos_probs.push(p);
                    lp += p.ln();
                    state = next;
                }
                word_log_probs.push(lp);
                pos_start.push(pos_probs.len());
                weighted_log_sum += *count as f64 * lp;
                weighted_positions += count * word.len() as u64;
            }
            EvalTable { word_log_probs, pos_probs, pos_start, weighted_log_sum, weighted_positions }
        })
    }

    /// Number of distinct symbols observed in training.
    pub fn alphabet_len(&self) -> usize {
        self.alphabet.len()
    }

    /// Iterates over the observed alphabet in `Ord` order.
    pub fn alphabet(&self) -> impl Iterator<Item = &S> {
        self.alphabet.iter()
    }

    /// The interned symbol table (built on first call).
    pub fn symbol_table(&self) -> &SymbolTable<S> {
        &self.index().table
    }

    /// The distinct sequences this model was trained on, with their
    /// multiplicities, in sorted order.
    pub fn training(&self) -> impl Iterator<Item = (&[S], u64)> {
        self.training.iter().map(|(seq, &count)| (seq.as_slice(), count))
    }

    /// Number of distinct training sequences.
    pub fn unique_training_len(&self) -> usize {
        self.training.len()
    }

    /// Total number of [`Slm::train`] calls, duplicate clones included.
    pub fn training_total(&self) -> u64 {
        self.trained_total
    }

    /// Returns `true` if the model has seen no training data.
    pub fn is_untrained(&self) -> bool {
        self.training.is_empty()
    }

    /// Number of context nodes in the arena trie (builds the index).
    pub fn node_count(&self) -> usize {
        self.index().trie.node_count()
    }

    /// Number of context-trie edges (builds the index).
    pub fn edge_count(&self) -> usize {
        self.index().trie.edge_count()
    }

    /// Approximate resident bytes of the interned trie (builds the index).
    pub fn approx_trie_bytes(&self) -> usize {
        self.index().trie.approx_bytes()
    }

    /// `Pr(sym | context)` using the model's own alphabet size for the
    /// order-(-1) base case.
    pub fn prob(&self, sym: &S, context: &[S]) -> f64 {
        self.prob_with_alphabet(sym, context, self.alphabet.len().max(1))
    }

    /// `Pr(sym | context)` with an explicit alphabet size — used when two
    /// models are compared over their *union* alphabet, so that both
    /// assign comparable base probabilities to symbols unseen by one.
    pub fn prob_with_alphabet(&self, sym: &S, context: &[S], alphabet_size: usize) -> f64 {
        let idx = self.index();
        let n = alphabet_size.max(1);
        // Truncate the context to the model depth (longest suffix).
        let ctx = if context.len() > self.depth {
            &context[context.len() - self.depth..]
        } else {
            context
        };
        let state = idx.trie.state_of(&idx.table.intern_seq(ctx));
        idx.trie.step(state, idx.table.id_of(sym), n).0
    }

    /// Probability of a whole sequence: `∏ Pr(x_i | x_{i-D}..x_{i-1})`.
    pub fn sequence_prob(&self, seq: &[S]) -> f64 {
        self.sequence_prob_with_alphabet(seq, self.alphabet.len().max(1))
    }

    /// [`Slm::sequence_prob`] with an explicit alphabet size.
    pub fn sequence_prob_with_alphabet(&self, seq: &[S], alphabet_size: usize) -> f64 {
        self.sequence_log_prob_with_alphabet(seq, alphabet_size).exp()
    }

    /// Natural-log probability of a sequence (numerically safe for long
    /// sequences).
    pub fn sequence_log_prob(&self, seq: &[S]) -> f64 {
        self.sequence_log_prob_with_alphabet(seq, self.alphabet.len().max(1))
    }

    /// [`Slm::sequence_log_prob`] with an explicit alphabet size. One
    /// pass over the sequence: each symbol is one automaton step from the
    /// previous context's state instead of a walk from the root.
    pub fn sequence_log_prob_with_alphabet(&self, seq: &[S], alphabet_size: usize) -> f64 {
        let idx = self.index();
        idx.trie.log_prob(seq.iter().map(|sym| idx.table.id_of(sym)), alphabet_size.max(1))
    }

    /// Scores a word already translated into this model's id space
    /// (`None` marks symbols outside the alphabet).
    pub(crate) fn score_ids(&self, ids: &[Option<u32>], n: usize) -> f64 {
        self.index().trie.log_prob(ids.iter().copied(), n)
    }

    /// The escape probability mass at a given context (PPM-C:
    /// `d / (T + d)`), or `None` if the context was never observed.
    pub fn escape_prob(&self, context: &[S]) -> Option<f64> {
        let idx = self.index();
        let ids = idx.table.intern_seq(context);
        let node = idx.trie.lookup(&ids)?;
        idx.trie.escape(node)
    }
}

impl<S: Symbol> Clone for Slm<S> {
    fn clone(&self) -> Self {
        // The interned index is derived state; the clone rebuilds it
        // lazily on first query.
        Slm {
            depth: self.depth,
            training: self.training.clone(),
            trained_total: self.trained_total,
            alphabet: self.alphabet.clone(),
            index: OnceLock::new(),
        }
    }
}

impl<S: Symbol> PartialEq for Slm<S> {
    fn eq(&self, other: &Self) -> bool {
        self.depth == other.depth
            && self.training == other.training
            && self.trained_total == other.trained_total
    }
}

impl<S: Symbol> fmt::Debug for Slm<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slm")
            .field("depth", &self.depth)
            .field("alphabet_len", &self.alphabet.len())
            .field("unique_words", &self.training.len())
            .field("trained_total", &self.trained_total)
            .field("indexed", &self.index.get().is_some())
            .finish()
    }
}

impl<S: Symbol> fmt::Display for Slm<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slm(depth={}, |Σ|={}, {} training sequences)",
            self.depth,
            self.alphabet.len(),
            self.trained_total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_model_is_uniform() {
        let m: Slm<char> = Slm::new(2);
        assert!(m.is_untrained());
        // alphabet size clamps to 1.
        assert!((m.prob(&'x', &[]) - 1.0).abs() < 1e-12);
        assert!((m.prob_with_alphabet(&'x', &[], 4) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn order0_counts_with_escape() {
        let mut m = Slm::new(2);
        m.train(&['a', 'a', 'b']);
        // Order-0: a seen twice, b once; total 3, distinct 2.
        assert!((m.prob(&'a', &[]) - 2.0 / 5.0).abs() < 1e-12);
        assert!((m.prob(&'b', &[]) - 1.0 / 5.0).abs() < 1e-12);
        assert_eq!(m.escape_prob(&[]), Some(2.0 / 5.0));
    }

    #[test]
    fn paper_training_example() {
        // Paper §3.1: sequences "aa" and "ab" — 'a' appears first with
        // certainty; after 'a', 'a' appears 50% of the time.
        let mut m = Slm::new(2);
        m.train(&['a', 'a']);
        m.train(&['a', 'b']);
        // After context 'a': counts a=1, b=1 → PPM-C gives 1/4 each with
        // 1/2 escape; the *ratio* between them is 1 (i.e. 50/50).
        let pa = m.prob(&'a', &['a']);
        let pb = m.prob(&'b', &['a']);
        assert!((pa - pb).abs() < 1e-12, "a and b equally likely after a");
        assert!((pa - 0.25).abs() < 1e-12);
    }

    #[test]
    fn escape_backs_off_to_shorter_context() {
        let mut m = Slm::new(2);
        m.train(&['a', 'b', 'c']);
        // Context [a]: only b seen. Pr(c|[a]) = escape([a]) * Pr(c|[]).
        let esc = m.escape_prob(&['a']).unwrap();
        let p_c0 = m.prob(&'c', &[]);
        let p = m.prob(&'c', &['a']);
        assert!((p - esc * p_c0).abs() < 1e-12);
    }

    #[test]
    fn unseen_context_skips_escape() {
        let mut m = Slm::new(2);
        m.train(&['a', 'b']);
        // Context [z] never seen: fall straight to order-0.
        assert!((m.prob(&'a', &['z']) - m.prob(&'a', &[])).abs() < 1e-12);
        assert_eq!(m.escape_prob(&['z']), None);
    }

    #[test]
    fn long_contexts_are_truncated_to_depth() {
        let mut m = Slm::new(1);
        m.train(&['a', 'b', 'a', 'b']);
        let with_long = m.prob(&'b', &['x', 'y', 'z', 'a']);
        let with_short = m.prob(&'b', &['a']);
        assert!((with_long - with_short).abs() < 1e-12);
    }

    #[test]
    fn probabilities_form_submeasure() {
        let mut m = Slm::new(2);
        m.train(&['a', 'b', 'a', 'c', 'a', 'b']);
        for ctx in [vec![], vec!['a'], vec!['b'], vec!['a', 'b'], vec!['z']] {
            let sum: f64 = ['a', 'b', 'c'].iter().map(|s| m.prob(s, &ctx)).sum();
            assert!(sum <= 1.0 + 1e-9, "context {ctx:?} sums to {sum}");
            for s in ['a', 'b', 'c'] {
                let p = m.prob(&s, &ctx);
                assert!(p > 0.0 && p <= 1.0);
            }
        }
    }

    #[test]
    fn sequence_probability_multiplies() {
        let mut m = Slm::new(2);
        m.train(&['a', 'b']);
        let p_manual = m.prob(&'a', &[]) * m.prob(&'b', &['a']);
        assert!((m.sequence_prob(&['a', 'b']) - p_manual).abs() < 1e-12);
        let lp = m.sequence_log_prob(&['a', 'b']);
        assert!((lp.exp() - p_manual).abs() < 1e-12);
    }

    #[test]
    fn trained_sequences_more_likely_than_foreign() {
        let mut m = Slm::new(3);
        for _ in 0..4 {
            m.train(&['f', '0', 'f', '0', 'f', '0']);
        }
        let own = m.sequence_log_prob(&['f', '0', 'f', '0']);
        let foreign = m.sequence_log_prob(&['0', 'f', '0', '0']);
        assert!(own > foreign);
    }

    #[test]
    fn training_is_remembered_and_deduplicated() {
        let mut m = Slm::new(2);
        m.train(&[1, 2, 3]);
        m.train(&[4]);
        m.train(&[1, 2, 3]);
        // Three calls, two distinct sequences; the duplicate carries
        // multiplicity 2 and training iterates in sorted order.
        assert_eq!(m.training_total(), 3);
        assert_eq!(m.unique_training_len(), 2);
        let words: Vec<(Vec<i32>, u64)> =
            m.training().map(|(seq, count)| (seq.to_vec(), count)).collect();
        assert_eq!(words, vec![(vec![1, 2, 3], 2), (vec![4], 1)]);
        assert_eq!(m.alphabet_len(), 4);
        assert_eq!(m.alphabet().copied().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert!(!m.is_untrained());
        assert_eq!(m.depth(), 2);
    }

    #[test]
    fn duplicate_training_matches_explicit_clones() {
        // Counts with multiplicity must equal the clone-by-clone seed
        // behaviour, so probabilities agree exactly.
        let mut dup = Slm::new(2);
        let mut explicit = Slm::new(2);
        for _ in 0..5 {
            dup.train(&['a', 'b', 'a']);
            explicit.train(&['a', 'b', 'a']);
        }
        dup.train(&['b', 'c']);
        explicit.train(&['b', 'c']);
        for (sym, ctx) in [('a', vec![]), ('b', vec!['a']), ('c', vec!['b']), ('c', vec!['a'])] {
            assert_eq!(dup.prob(&sym, &ctx).to_bits(), explicit.prob(&sym, &ctx).to_bits());
        }
    }

    #[test]
    fn interner_ids_are_insertion_order_independent() {
        let mut fwd = Slm::new(2);
        fwd.train(&['a', 'c']);
        fwd.train(&['b']);
        let mut rev = Slm::new(2);
        rev.train(&['b']);
        rev.train(&['a', 'c']);
        assert_eq!(fwd.symbol_table(), rev.symbol_table());
        assert_eq!(fwd.symbol_table().id_of(&'b'), Some(1));
    }

    #[test]
    fn clone_and_eq_cover_derived_state() {
        let mut m = Slm::new(2);
        m.train(&['x', 'y']);
        m.finalize();
        let c = m.clone();
        assert_eq!(m, c);
        assert_eq!(m.prob(&'y', &['x']).to_bits(), c.prob(&'y', &['x']).to_bits());
        assert!(format!("{m:?}").contains("depth"));
        // Training after queries invalidates and rebuilds the index.
        let before = m.node_count();
        m.train(&['x', 'z', 'y']);
        assert!(m.node_count() > before);
        assert_ne!(m, c);
    }

    #[test]
    fn trie_counters_are_exposed() {
        let mut m = Slm::new(2);
        m.train(&['a', 'b', 'a']);
        assert!(m.node_count() >= 4);
        assert!(m.edge_count() >= 3);
        assert!(m.approx_trie_bytes() > 0);
    }

    #[test]
    fn display() {
        let mut m = Slm::new(2);
        m.train(&['x']);
        assert_eq!(m.to_string(), "slm(depth=2, |Σ|=1, 1 training sequences)");
    }

    #[test]
    fn depth_zero_is_unigram() {
        let mut m = Slm::new(0);
        m.train(&['a', 'a', 'b']);
        assert!((m.prob(&'a', &['b']) - m.prob(&'a', &[])).abs() < 1e-12);
    }
}

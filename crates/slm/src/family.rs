//! Batched KL scoring of one type family's candidate pairs.
//!
//! The distance stage weighs every surviving parent→child edge of a
//! family by `D_KL(parent ‖ child)`: a sum over the parent's training
//! words of `ln Pr_child(w)`. Scored one pair at a time
//! ([`crate::kl_divergence_with_alphabet`]), every pair rebuilds the
//! parent→child symbol translation and re-walks the child's trie for each
//! parent word absent from the child's training pool — although a child's
//! candidate parents share most of their words.
//!
//! [`FamilyScorer`] is built once per family. It gives the members'
//! symbols family ids, stores each member's alphabet as a bitset over
//! them, and interns each member's unique training words as family word
//! ids. [`ChildTarget`] then scores every candidate parent of one child,
//! memoizing `ln Pr_child(w)` per family word whose symbols the child has
//! all seen. Reusing that value across parents is exact: such a word never
//! reaches the order-(-1) `1/n` base case (the child's trie root counts
//! every symbol the child has seen), so its score does not depend on the
//! pair's union alphabet size `n`. A word with a symbol the child never
//! saw does depend on `n`; it is walked per pair, with
//! `n = popcount(parent bits | child bits)`, which equals
//! [`crate::union_alphabet_len`].
//!
//! A child's first walks of the family's words repeat the same steps:
//! the words share prefixes and contexts. So each [`ChildTarget`] also
//! memoizes the transitions it has taken, `(trie state, child-local
//! symbol) → (ln p, next state)`, for symbols the child has seen. That is
//! exact for the same reason: such a step ends at a count hit at the
//! latest in the child's root, never at the `1/n` base case, so its
//! probability and next state are the same for every word and every
//! parent. A step on a symbol the child never saw depends on `n` and is
//! computed every time. The memo grows with the transitions walked, not
//! with the trie's nodes × alphabet, which real binaries do not bound.
//!
//! Each parent's sum keeps the per-pair kernel's word order and
//! expression (`sum_b += count · ln Pr_child(w)`, then
//! `(weighted_log_sum − sum_b) / weighted_positions`), so every result is
//! bit-identical to [`crate::kl_divergence`] (pinned by the `properties.rs`
//! oracle).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::arena::{ArenaTrie, DenseMap, ROOT};
use crate::{Slm, Symbol, SymbolTable};

/// One family member's view in family ids.
struct Member<'m, S: Symbol> {
    model: &'m Slm<S>,
    /// The model's alphabet as a bitset over family symbol ids.
    bits: Vec<u64>,
    /// The model's unique training words as `(family word id,
    /// multiplicity)`, in the model's own word order.
    words: Vec<(u32, u64)>,
}

/// A family's shared word table for batched [`ChildTarget`] scoring.
///
/// # Example
///
/// ```
/// use rock_slm::{kl_divergence, FamilyScorer, Slm};
/// let mut parent = Slm::new(2);
/// parent.train(&["x", "y", "x"]);
/// let mut child = Slm::new(2);
/// child.train(&["x", "y", "z"]);
/// let family = FamilyScorer::new(&[Some(&parent), Some(&child)]);
/// let mut target = family.target(1);
/// assert_eq!(target.kl_from(0).to_bits(), kl_divergence(&parent, &child).to_bits());
/// ```
pub struct FamilyScorer<'m, S: Symbol> {
    /// Indexed like the slice given to [`FamilyScorer::new`]; `None` for a
    /// member without a model.
    members: Vec<Option<Member<'m, S>>>,
    /// The union of the members' alphabets; a symbol's family id is its
    /// rank here.
    table: SymbolTable<S>,
    /// Family word `w` is `word_syms[word_start[w]..word_start[w + 1]]`.
    word_start: Vec<usize>,
    /// Every family word's symbols in family ids, concatenated.
    word_syms: Vec<u32>,
}

impl<'m, S: Symbol> FamilyScorer<'m, S> {
    /// Builds the family's symbol and word tables. `models[i]` is member
    /// `i`'s model, `None` where the member has none.
    pub fn new(models: &[Option<&'m Slm<S>>]) -> Self {
        let table =
            SymbolTable::from_symbols(models.iter().flatten().flat_map(|m| m.alphabet().cloned()));
        let blocks = table.len().div_ceil(64);
        let mut ids: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut word_start = vec![0];
        let mut word_syms = Vec::new();
        let mut buf = Vec::new();
        let members = models
            .iter()
            .map(|m| {
                let model = (*m)?;
                let index = model.index();
                let to_family: Vec<u32> = index
                    .table
                    .translation_to(&table)
                    .into_iter()
                    .map(|f| f.expect("the family alphabet holds every member symbol"))
                    .collect();
                let mut bits = vec![0u64; blocks];
                for &f in &to_family {
                    bits[f as usize / 64] |= 1u64 << (f % 64);
                }
                let words = index
                    .words
                    .iter()
                    .map(|(word, count)| {
                        buf.clear();
                        buf.extend(word.iter().map(|&id| to_family[id as usize]));
                        let id = match ids.get(buf.as_slice()) {
                            Some(&id) => id,
                            None => {
                                let id = u32::try_from(word_start.len() - 1)
                                    .expect("family word count overflow");
                                ids.insert(buf.clone(), id);
                                word_syms.extend_from_slice(&buf);
                                word_start.push(word_syms.len());
                                id
                            }
                        };
                        (id, *count)
                    })
                    .collect();
                Some(Member { model, bits, words })
            })
            .collect();
        FamilyScorer { members, table, word_start, word_syms }
    }

    fn member(&self, i: usize) -> &Member<'m, S> {
        self.members[i].as_ref().expect("scored family members have models")
    }

    /// Family word `w`'s symbols in family ids.
    fn word(&self, w: usize) -> &[u32] {
        &self.word_syms[self.word_start[w]..self.word_start[w + 1]]
    }

    /// A scorer of `D_KL(parent ‖ child)` for every candidate parent of
    /// member `child`.
    ///
    /// # Panics
    ///
    /// If member `child` has no model.
    pub fn target(&self, child: usize) -> ChildTarget<'_, 'm, S> {
        let member = self.member(child);
        let index = member.model.index();
        // The child's own words are already scored in its evaluation
        // table; every other word is scored on first use.
        let mut memo = vec![Memo::Unscored; self.word_start.len() - 1];
        let own = &member.model.eval_table().word_log_probs;
        for (&(w, _), &lp) in member.words.iter().zip(own) {
            memo[w as usize] = Memo::Covered(lp);
        }
        ChildTarget {
            family: self,
            child: member,
            local: self.table.translation_to(&index.table),
            memo,
            trie: &index.trie,
            steps: StepMemo::default(),
        }
    }
}

/// What a [`ChildTarget`] knows of one family word.
#[derive(Clone, Copy)]
enum Memo {
    /// Not met yet.
    Unscored,
    /// Every symbol is in the child's alphabet: `ln Pr_child(w)`, the same
    /// for every pair.
    Covered(f64),
    /// Holds a symbol the child never saw: walked per pair.
    Unseen,
}

/// One child's batched KL scorer over its family (see the module docs).
pub struct ChildTarget<'f, 'm, S: Symbol> {
    family: &'f FamilyScorer<'m, S>,
    child: &'f Member<'m, S>,
    /// Family symbol id → child-local id (`None`: unseen by the child).
    local: Vec<Option<u32>>,
    /// Per family word.
    memo: Vec<Memo>,
    trie: &'m ArenaTrie,
    /// The child's transitions taken so far, on symbols it has seen.
    steps: StepMemo,
}

/// `(state << 32 | child-local symbol)` → `(ln p, next state)`.
type StepMemo = DenseMap<(f64, u32)>;

impl<S: Symbol> ChildTarget<'_, '_, S> {
    /// `D_KL(parent ‖ child)` for family member `parent`, bit-identical to
    /// [`crate::kl_divergence`].
    ///
    /// # Panics
    ///
    /// If member `parent` has no model.
    pub fn kl_from(&mut self, parent: usize) -> f64 {
        let parent = self.family.member(parent);
        let ta = parent.model.eval_table();
        if ta.weighted_positions == 0 {
            return 0.0;
        }
        let n: u32 =
            parent.bits.iter().zip(&self.child.bits).map(|(a, b)| (a | b).count_ones()).sum();
        let mut sum_b = 0.0;
        for &(w, count) in &parent.words {
            sum_b += count as f64 * self.log_prob(w as usize, n as usize);
        }
        (ta.weighted_log_sum - sum_b) / ta.weighted_positions as f64
    }

    /// `ln Pr_child(w)` for family word `w` under union alphabet size `n`.
    fn log_prob(&mut self, w: usize, n: usize) -> f64 {
        match self.memo[w] {
            Memo::Covered(lp) => lp,
            Memo::Unseen => self.walk(w, n),
            Memo::Unscored => {
                let family = self.family;
                let covered = family.word(w).iter().all(|&s| self.local[s as usize].is_some());
                let lp = self.walk(w, n);
                self.memo[w] = if covered { Memo::Covered(lp) } else { Memo::Unseen };
                lp
            }
        }
    }

    /// One pass over family word `w` in the child's trie, a memoized or
    /// computed [`ArenaTrie::step`] per symbol. The sum adds `ln p` in word
    /// order, as the per-pair kernel does.
    fn walk(&mut self, w: usize, n: usize) -> f64 {
        let family = self.family;
        let trie = self.trie;
        let mut state = ROOT;
        let mut lp = 0.0;
        for &s in family.word(w) {
            let (l, next) = match self.local[s as usize] {
                Some(id) => match self.steps.entry(u64::from(state) << 32 | u64::from(id)) {
                    Entry::Occupied(e) => {
                        counter::record(state, id, false);
                        *e.get()
                    }
                    Entry::Vacant(e) => {
                        counter::record(state, id, true);
                        let (p, next) = trie.step(state, Some(id), n);
                        *e.insert((p.ln(), next))
                    }
                },
                None => {
                    let (p, next) = trie.step(state, None, n);
                    (p.ln(), next)
                }
            };
            lp += l;
            state = next;
        }
        lp
    }
}

/// Outside this crate's tests, counting steps is a no-op.
#[cfg(not(test))]
mod counter {
    pub(crate) fn record(_state: u32, _sym: u32, _computed: bool) {}
}

/// Test-only log of the seen-symbol steps [`ChildTarget`]s took on this
/// thread.
#[cfg(test)]
mod counter {
    use std::cell::RefCell;

    /// `(state, child-local symbol, computed)`: `false` for a step the
    /// memo answered.
    pub(crate) type Step = (u32, u32, bool);

    thread_local! {
        static STEPS: RefCell<Vec<Step>> = const { RefCell::new(Vec::new()) };
    }

    pub(crate) fn record(state: u32, sym: u32, computed: bool) {
        STEPS.with(|c| c.borrow_mut().push((state, sym, computed)));
    }

    /// Runs `f` and returns its result with the steps taken during it, in
    /// order.
    pub(crate) fn steps_during<T>(f: impl FnOnce() -> T) -> (T, Vec<Step>) {
        STEPS.with(|c| c.borrow_mut().clear());
        let out = f();
        (out, STEPS.with(|c| std::mem::take(&mut *c.borrow_mut())))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;
    use crate::kl_divergence;

    fn model(seqs: &[&[&'static str]]) -> Slm<&'static str> {
        let mut m = Slm::new(2);
        for s in seqs {
            m.train(s);
        }
        m
    }

    #[test]
    fn a_hand_built_family_computes_and_memoizes_the_expected_steps() {
        let child = model(&[&["a", "b", "a", "b"]]);
        let p1 = model(&[&["a", "b"], &["a", "b", "c"]]);
        let p2 = model(&[&["a", "b", "a"]]);
        let members = [Some(&child), Some(&p1), Some(&p2)];
        let family = FamilyScorer::new(&members);
        let (kls, steps) = counter::steps_during(|| {
            let mut target = family.target(0);
            [target.kl_from(1), target.kl_from(2), target.kl_from(1), target.kl_from(0)]
        });
        for (kl, parent) in kls.iter().zip([&p1, &p2, &p1, &child]) {
            assert_eq!(kl.to_bits(), kl_divergence(parent, &child).to_bits());
        }
        let index = child.index();
        let (a, b) = (index.table.id_of(&"a").unwrap(), index.table.id_of(&"b").unwrap());
        let state = |ctx: &[u32]| {
            let ctx: Vec<Option<u32>> = ctx.iter().copied().map(Some).collect();
            index.trie.lookup(&ctx).unwrap()
        };
        let (s_a, s_ab) = (state(&[a]), state(&[a, b]));
        assert_eq!(
            steps,
            [
                // p1's "ab": both transitions computed.
                (ROOT, a, true),
                (s_a, b, true),
                // p1's "abc": the prefix memoized; "c" is unseen and
                // computed unrecorded.
                (ROOT, a, false),
                (s_a, b, false),
                // p2's "aba": one new transition.
                (ROOT, a, false),
                (s_a, b, false),
                (s_ab, a, true),
                // p1 again: "ab" answers from the word memo, "abc" is
                // walked again for its unseen symbol. The child's own
                // word comes from its evaluation table.
                (ROOT, a, false),
                (s_a, b, false),
            ]
        );
    }

    #[test]
    fn unseen_steps_follow_each_parents_alphabet() {
        // "q" is unseen by the child, and the two parents' union
        // alphabets with it differ (3 and 5), so its step must not be
        // reused across them.
        let child = model(&[&["a", "b"]]);
        let p1 = model(&[&["a", "q"]]);
        let p2 = model(&[&["a", "q"], &["x", "y"]]);
        let family = FamilyScorer::new(&[Some(&child), Some(&p1), Some(&p2)]);
        let mut target = family.target(0);
        for (p, parent) in [(1, &p1), (2, &p2), (1, &p1)] {
            assert_eq!(target.kl_from(p).to_bits(), kl_divergence(parent, &child).to_bits());
        }
    }

    proptest! {
        /// Every child computes each `(state, seen symbol)` transition at
        /// most once, however many parents and repeats it scores, and
        /// every score keeps the per-pair kernel's bits.
        #[test]
        fn each_transition_is_computed_once_per_child(
            depth in 0usize..4,
            pools in prop::collection::vec(
                (0u8..4, prop::collection::vec(prop::collection::vec(0u8..6, 1..12), 1..6)),
                2..6,
            ),
        ) {
            let models: Vec<Slm<u8>> = pools
                .iter()
                .map(|(shift, seqs)| {
                    let mut m = Slm::new(depth);
                    for s in seqs {
                        m.train(&s.iter().map(|x| x + shift).collect::<Vec<u8>>());
                    }
                    m
                })
                .collect();
            let members: Vec<Option<&Slm<u8>>> = models.iter().map(Some).collect();
            let family = FamilyScorer::new(&members);
            for c in 0..models.len() {
                let (_, steps) = counter::steps_during(|| {
                    let mut target = family.target(c);
                    for p in (0..models.len()).chain((0..models.len()).rev()) {
                        let want = kl_divergence(&models[p], &models[c]);
                        assert_eq!(target.kl_from(p).to_bits(), want.to_bits(), "{p} -> {c}");
                    }
                });
                let computed: Vec<(u32, u32)> =
                    steps.iter().filter(|s| s.2).map(|&(st, sym, _)| (st, sym)).collect();
                let distinct: BTreeSet<(u32, u32)> = computed.iter().copied().collect();
                prop_assert_eq!(distinct.len(), computed.len(), "child {} recomputed a step", c);
            }
        }
    }
}

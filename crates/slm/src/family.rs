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
//! Each parent's sum keeps the per-pair kernel's word order and
//! expression (`sum_b += count · ln Pr_child(w)`, then
//! `(weighted_log_sum − sum_b) / weighted_positions`), so every result is
//! bit-identical to [`crate::kl_divergence`] (pinned by the `properties.rs`
//! oracle).

use std::collections::HashMap;

use crate::arena::Cursor;
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
            cursor: Cursor::new(&index.trie),
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
    cursor: Cursor<'m>,
}

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

    /// One cursor pass over family word `w` in the child's trie.
    fn walk(&mut self, w: usize, n: usize) -> f64 {
        let family = self.family;
        self.cursor.reset();
        let mut lp = 0.0;
        for &s in family.word(w) {
            let id = self.local[s as usize];
            lp += self.cursor.prob(id, n).ln();
            self.cursor.advance(id);
        }
        lp
    }
}

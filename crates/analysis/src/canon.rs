//! Position-independent content labels for functions and vtables.
//!
//! Two binaries that contain the same function body at different load
//! addresses must map it to the same cache key, otherwise a corpus-wide
//! cache degenerates to per-binary scope. Raw instruction bytes are not
//! enough: every `Call`, `Jmp`, `Branch` and vtable-address `MovImm`
//! embeds an absolute address that shifts whenever the surrounding
//! layout changes. This module computes **content labels** that erase
//! exactly those position-dependent operands:
//!
//! * intra-function control flow (`Jmp`/`Branch` targets) is rewritten
//!   as an offset relative to the function entry;
//! * direct call targets and code/data addresses materialized by
//!   `MovImm` (function entries, vtable addresses) are replaced by a
//!   placeholder and re-introduced as *operand references*;
//! * every other operand (register indices, field offsets, non-address
//!   immediates) is hashed literally.
//!
//! The masked stream gives each function a round-0 label; `ROUNDS`
//! Weisfeiler–Lehman refinement rounds then fold in the labels of the
//! referenced functions and vtables (and, for vtables, their slot
//! functions), so a function's final label captures its call graph and
//! vtable neighborhood to depth `ROUNDS` — position-independently.
//! Labels are 128-bit (two independent FNV-1a streams), making
//! accidental collisions across even very large corpora negligible;
//! equal labels therefore mean equal bodies *and* equal dependency
//! neighborhoods, which is exactly the precondition for reusing a
//! cached symbolic-execution result or trained model.

use std::collections::BTreeMap;
use std::sync::Arc;

use rock_binary::{Addr, Instr};
use rock_loader::LoadedBinary;

use crate::Event;

/// Weisfeiler–Lehman refinement rounds. Symbolic execution of a function
/// observes its own body, the ctor-store lists of its direct callees, and
/// the identities of everything it calls; eight rounds of refinement
/// separate any two functions whose behavior differs within that window
/// with a wide margin.
const ROUNDS: usize = 8;

/// A 128-bit position-independent content label.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label {
    /// Low 64 bits (first FNV-1a stream).
    pub lo: u64,
    /// High 64 bits (second FNV-1a stream).
    pub hi: u64,
}

impl Label {
    /// The label folded into one `u128` (for compact map keys).
    pub fn as_u128(self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

/// Two independent FNV-1a streams over the same input: the one dual-FNV
/// mixer in the workspace.
///
/// FNV-1a with distinct offset bases decorrelates quickly; the pair
/// behaves as a 128-bit fingerprint for hash-consing purposes. It
/// hashes content labels and tracelet fingerprints ([`tracelet_fp`])
/// here, and the corpus cache's pool, execution and byte-image keys
/// (`rock_core::corpus`).
///
/// Its outputs are persisted. An execution key is a config salt XOR a
/// function's label, a pool key is this mixer over a pool's tracelet
/// fingerprints, and both name the sub-artifact frames in segment
/// files that later processes preload. Changing a seed, the prime, the byte
/// step's `0xa5`, or the word step's shift or rotation therefore
/// orphans every store on disk: such a change must bump the corpus
/// format byte (`CORPUS_FORMAT` in `rock_core::corpus`) with it.
#[derive(Clone, Copy, Debug)]
pub struct Mixer {
    a: u64,
    b: u64,
}

const FNV_PRIME: u64 = 0x100_0000_01b3;

impl Default for Mixer {
    fn default() -> Self {
        Mixer::new()
    }
}

impl Mixer {
    /// A mixer at the two streams' offset bases.
    #[inline]
    pub fn new() -> Self {
        Mixer { a: 0xcbf2_9ce4_8422_2325, b: 0x9e37_79b9_7f4a_7c15 }
    }

    /// Absorbs one byte: a plain FNV-1a step on each stream (the second
    /// sees the byte XOR `0xa5`).
    #[inline]
    pub fn byte(&mut self, v: u8) {
        self.a = (self.a ^ u64::from(v)).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ u64::from(v ^ 0xa5)).wrapping_mul(FNV_PRIME);
    }

    /// Absorbs one word.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        // Word-at-a-time: one multiply-and-fold per stream instead of
        // eight byte steps. The xor-shift folds the product's high bits
        // back down (a bare FNV multiply only carries entropy upward);
        // each step stays a bijection of the state for fixed input, and
        // the rotation decorrelates the two streams. The word step
        // differs from eight byte steps, so a fingerprint must always
        // feed a given field the same way.
        self.a = (self.a ^ v).wrapping_mul(FNV_PRIME);
        self.a ^= self.a >> 32;
        self.b = (self.b ^ v.rotate_left(17)).wrapping_mul(FNV_PRIME);
        self.b ^= self.b >> 32;
    }

    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    fn label(&mut self, l: Label) {
        self.u64(l.lo);
        self.u64(l.hi);
    }

    /// Absorbs one event as its [`event_words`] pair.
    #[inline]
    pub fn event(&mut self, e: Event) {
        let (tag, payload) = event_words(e);
        self.u64(tag);
        self.u64(payload);
    }

    /// The 128-bit fingerprint: the first stream is [`Label::lo`].
    #[inline]
    pub fn finish(self) -> Label {
        Label { lo: self.a, hi: self.b }
    }
}

/// The `(tag, payload)` word pair an event contributes to a fingerprint,
/// and the corpus wire form of the event (`rock_core::corpus`), so the
/// two views can never drift apart.
pub fn event_words(e: Event) -> (u64, u64) {
    match e {
        Event::C(i) => (0, i as u64),
        Event::R(o) => (1, o as i64 as u64),
        Event::W(o) => (2, o as i64 as u64),
        Event::This => (3, 0),
        Event::Arg(i) => (4, i as u64),
        Event::Ret => (5, 0),
        Event::Call(addr) => (6, addr.value()),
    }
}

/// The fingerprint of one tracelet's event sequence: the one summand of
/// every pool key, whether the pipeline sums it from [`PoolSum`]s or a
/// model decoder recomputes it from a persisted model's words.
pub fn tracelet_fp(t: &[Event]) -> u128 {
    let mut m = Mixer::new();
    m.u64(t.len() as u64);
    for &e in t {
        m.event(e);
    }
    m.finish().as_u128()
}

/// The commutative accumulators of a tracelet pool's content key: how
/// many tracelets it holds and the wrapping sums of the low and high
/// halves of their [`tracelet_fp`]s. A pool key is a pure function of
/// these three words (`rock_core::corpus::pool_key_of_sum`), so a pool
/// assembled from cached pieces sums their stored accumulators instead
/// of hashing its events again. Empty tracelets join no pool and add
/// nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolSum {
    /// Non-empty tracelets summed.
    pub count: u64,
    /// Wrapping sum of the fingerprints' low halves.
    pub lo: u64,
    /// Wrapping sum of the fingerprints' high halves.
    pub hi: u64,
}

impl PoolSum {
    /// Adds one tracelet whose [`tracelet_fp`] is `fp`; an empty
    /// tracelet adds nothing.
    pub(crate) fn add(&mut self, tracelet: &[Event], fp: u128) {
        if !tracelet.is_empty() {
            self.count += 1;
            self.lo = self.lo.wrapping_add(fp as u64);
            self.hi = self.hi.wrapping_add((fp >> 64) as u64);
        }
    }

    /// Adds another pool's accumulators (the sum of the union multiset).
    pub(crate) fn merge(&mut self, other: PoolSum) {
        self.count += other.count;
        self.lo = self.lo.wrapping_add(other.lo);
        self.hi = self.hi.wrapping_add(other.hi);
    }
}

/// An operand reference discovered while masking one function's stream:
/// the label refinement folds the referent's previous-round label back
/// in at the operand's position.
#[derive(Clone, Copy)]
enum OperandRef {
    Function(Addr),
    Vtable(Addr),
}

/// Content labels for every function and vtable of one loaded binary.
#[derive(Clone, Debug, Default)]
pub struct ContentLabels {
    functions: BTreeMap<Addr, Label>,
    vtables: BTreeMap<Addr, Label>,
    /// Inverse vtable map; `None` marks an ambiguous label (two distinct
    /// vtables hashing equal — cache translation refuses such labels).
    vt_by_label: BTreeMap<Label, Option<Addr>>,
}

impl ContentLabels {
    /// Computes the labels of every function and vtable in `loaded`.
    ///
    /// The refinement loop is index-based: addresses are resolved to
    /// dense function/vtable indices once, so each of the `ROUNDS`
    /// passes is straight array traversal — no per-round map lookups.
    pub fn compute(loaded: &LoadedBinary) -> ContentLabels {
        let fn_index: BTreeMap<Addr, usize> =
            loaded.functions().iter().enumerate().map(|(i, f)| (f.entry(), i)).collect();
        let vt_index: BTreeMap<Addr, usize> =
            loaded.vtables().iter().enumerate().map(|(i, v)| (v.addr(), i)).collect();

        /// An operand reference with its referent pre-resolved; raw
        /// variants keep unrecovered addresses (position-dependent, but
        /// such references never recur cross-binary).
        enum Resolved {
            Function(usize),
            Vtable(usize),
            Raw(u64),
        }

        // Round 0: masked instruction streams, plus per-function operand
        // reference lists (reused verbatim by every refinement round).
        let mut fn_labels: Vec<Label> = Vec::with_capacity(loaded.functions().len());
        let mut fn_refs: Vec<Vec<Resolved>> = Vec::with_capacity(loaded.functions().len());
        for f in loaded.functions() {
            let entry = f.entry();
            let mut m = Mixer::new();
            let mut refs = Vec::new();
            m.u64(f.instrs().len() as u64);
            for di in f.instrs() {
                mask_instr(
                    &mut m,
                    &mut refs,
                    di.instr,
                    entry,
                    |a| fn_index.contains_key(&a),
                    |a| vt_index.contains_key(&a),
                );
            }
            fn_labels.push(m.finish());
            fn_refs.push(
                refs.into_iter()
                    .map(|r| match r {
                        OperandRef::Function(a) => match fn_index.get(&a) {
                            Some(&i) => Resolved::Function(i),
                            None => Resolved::Raw(a.value()),
                        },
                        OperandRef::Vtable(a) => match vt_index.get(&a) {
                            Some(&i) => Resolved::Vtable(i),
                            None => Resolved::Raw(a.value()),
                        },
                    })
                    .collect(),
            );
        }
        // Round 0 for vtables: slot count only (slot identities join in
        // the refinement rounds, once functions have labels). Slots are
        // pre-resolved to function indices alongside.
        let mut vt_labels: Vec<Label> = Vec::with_capacity(loaded.vtables().len());
        let mut vt_slots: Vec<Vec<Resolved>> = Vec::with_capacity(loaded.vtables().len());
        for vt in loaded.vtables() {
            let mut m = Mixer::new();
            m.byte(v_tag());
            m.u64(vt.len() as u64);
            vt_labels.push(m.finish());
            vt_slots.push(
                vt.slots()
                    .iter()
                    .map(|slot| match fn_index.get(slot) {
                        Some(&i) => Resolved::Function(i),
                        None => Resolved::Raw(slot.value()),
                    })
                    .collect(),
            );
        }

        for _ in 0..ROUNDS {
            let next_fn: Vec<Label> = fn_labels
                .iter()
                .zip(&fn_refs)
                .map(|(label, refs)| {
                    let mut m = Mixer::new();
                    m.label(*label);
                    for r in refs {
                        match r {
                            Resolved::Function(i) => {
                                m.byte(1);
                                m.label(fn_labels[*i]);
                            }
                            Resolved::Vtable(i) => {
                                m.byte(2);
                                m.label(vt_labels[*i]);
                            }
                            Resolved::Raw(v) => {
                                m.byte(3);
                                m.u64(*v);
                            }
                        }
                    }
                    m.finish()
                })
                .collect();
            let next_vt: Vec<Label> = vt_labels
                .iter()
                .zip(&vt_slots)
                .map(|(label, slots)| {
                    let mut m = Mixer::new();
                    m.label(*label);
                    for s in slots {
                        match s {
                            Resolved::Function(i) => m.label(fn_labels[*i]),
                            Resolved::Vtable(_) => unreachable!("slots hold functions"),
                            Resolved::Raw(v) => m.u64(*v),
                        }
                    }
                    m.finish()
                })
                .collect();
            fn_labels = next_fn;
            vt_labels = next_vt;
        }

        let functions: BTreeMap<Addr, Label> =
            fn_index.iter().map(|(a, &i)| (*a, fn_labels[i])).collect();
        let vtables: BTreeMap<Addr, Label> =
            vt_index.iter().map(|(a, &i)| (*a, vt_labels[i])).collect();
        let mut vt_by_label: BTreeMap<Label, Option<Addr>> = BTreeMap::new();
        for (addr, label) in &vtables {
            vt_by_label.entry(*label).and_modify(|slot| *slot = None).or_insert(Some(*addr));
        }
        ContentLabels { functions, vtables, vt_by_label }
    }

    /// The label of the function entered at `entry`, if it was labeled.
    pub fn function_label(&self, entry: Addr) -> Option<Label> {
        self.functions.get(&entry).copied()
    }

    /// The label of the vtable at `addr`, if it was labeled.
    pub fn vtable_label(&self, addr: Addr) -> Option<Label> {
        self.vtables.get(&addr).copied()
    }

    /// The unique vtable carrying `label` in this binary, or `None` if
    /// no — or more than one — vtable hashes to it.
    pub fn vtable_by_label(&self, label: Label) -> Option<Addr> {
        self.vt_by_label.get(&label).copied().flatten()
    }

    /// The same labels with every *function* label also hashing its
    /// entry address; vtable labels are unchanged. For execution caches
    /// whose entries keep raw, address-bearing call events: two functions
    /// with equal content labels can call distinct callees whose labels
    /// are equal too, and only the entry address tells their events
    /// apart. Bound labels are position-dependent by design, so they must
    /// never feed [`ContentLabels::canonical_event`].
    pub(crate) fn bound_to_entries(mut self) -> ContentLabels {
        for (entry, label) in &mut self.functions {
            let mut m = Mixer::new();
            m.label(*label);
            m.u64(entry.value());
            *label = m.finish();
        }
        self
    }

    /// Rewrites one event into its position-independent form: direct
    /// call targets become the callee's content label (folded to 64
    /// bits); every other event is already position-free. Unlabeled
    /// targets (calls outside the recovered function set) keep their raw
    /// address — they cannot alias a labeled callee because labeled
    /// substitutes have their high bit mixed by the label streams, and
    /// more importantly both cold and warm runs apply the same rewrite.
    pub fn canonical_event(&self, e: Event) -> Event {
        match e {
            Event::Call(target) => match self.function_label(target) {
                Some(l) => Event::Call(Addr::new(l.lo ^ l.hi)),
                None => e,
            },
            other => other,
        }
    }
}

/// Tag byte for vtable round-0 streams (distinct from any instr tag).
fn v_tag() -> u8 {
    0xee
}

/// One contributing sub-object's canonical, pre-windowed tracelets
/// within a cached execution.
///
/// The typing vtable is recorded by content [`Label`] rather than load
/// address, so the entry is valid in any binary that contains an
/// unambiguous vtable with that label. Pieces are already split at the
/// configured tracelet length and shared (`Arc`): attributing a hit
/// costs reference counts, not event copies.
///
/// A sub also carries the [`PoolSum`] of its pieces, built by its
/// constructor and never changed after, so attributing it adds to a
/// pool key without hashing an event. The sum is derived state: it is
/// not persisted and not part of an entry's verification image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedSub {
    /// `Some(label)` — the typing vtable's content label; `None` — the
    /// host-entry view (`this` of a virtual function), attributed to
    /// every vtable containing the function at hit time.
    pub vtable: Option<Label>,
    /// Canonical events ([`ContentLabels::canonical_event`] applied),
    /// split into tracelet windows.
    pieces: Vec<Arc<[Event]>>,
    /// The accumulators of `pieces`.
    sum: PoolSum,
}

impl CachedSub {
    /// A sub over `pieces`, fingerprinting each one.
    pub fn new(vtable: Option<Label>, pieces: Vec<Arc<[Event]>>) -> CachedSub {
        CachedSub::fingerprinted(
            vtable,
            pieces.into_iter().map(|p| {
                let fp = tracelet_fp(&p);
                (p, fp)
            }),
        )
    }

    /// A sub over pieces whose fingerprints are known already, each
    /// given as `(piece, tracelet_fp(piece))`: a decoder fingerprints a
    /// dictionary piece once however many subs repeat it.
    pub fn fingerprinted(
        vtable: Option<Label>,
        pieces: impl IntoIterator<Item = (Arc<[Event]>, u128)>,
    ) -> CachedSub {
        let mut sum = PoolSum::default();
        let pieces = pieces
            .into_iter()
            .map(|(p, fp)| {
                debug_assert_eq!(fp, tracelet_fp(&p), "a piece's fingerprint is its tracelet_fp");
                sum.add(&p, fp);
                p
            })
            .collect();
        CachedSub { vtable, pieces, sum }
    }

    /// The windowed pieces, in contribution order.
    pub fn pieces(&self) -> &[Arc<[Event]>] {
        &self.pieces
    }

    /// The accumulators of the non-empty pieces.
    pub fn sum(&self) -> PoolSum {
        self.sum
    }
}

/// A complete, position-independent symbolic-execution result for one
/// function body: every contributing sub-object's windowed tracelets
/// (path-major order) plus the fuel the execution consumed (credited to
/// the fuel counter on a hit so metrics stay byte-identical between
/// cold and warm runs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedExec {
    /// Contributing sub-objects, in path-major attribution order.
    pub subs: Vec<CachedSub>,
    /// Fuel the original execution spent.
    pub fuel_spent: u64,
}

/// A position-independent ctor-recognition result for one function
/// body: the `(subobject offset, vtable content label)` stores the
/// function performs through its `this` argument. An *empty* list is a
/// cacheable fact too — most functions store no vtable, and skipping
/// negative results would leave the bulk of the recognition pass
/// re-executing on every job.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CachedCtors {
    /// `(subobject offset, vtable content label)` pairs, sorted.
    pub stores: Vec<(i32, Label)>,
}

/// A content-addressed store for symbolic-execution results, keyed by
/// function content label. Implementations mix their own configuration
/// salt into the key (analysis knobs change results, so they must change
/// the key) and are free to drop or refuse entries at will — a miss is
/// always answered by live execution.
pub trait ExecCache: Sync {
    /// Looks up the cached execution for a function label. Entries are
    /// shared (`Arc`): a hit costs a verification pass, never a decode.
    fn load(&self, key: Label) -> Option<Arc<CachedExec>>;
    /// Stores an execution result under a function label.
    fn store(&self, key: Label, exec: Arc<CachedExec>);
    /// Looks up the cached ctor-recognition result for a function label.
    fn load_ctors(&self, _key: Label) -> Option<CachedCtors> {
        None
    }
    /// Stores a ctor-recognition result under a function label.
    fn store_ctors(&self, _key: Label, _ctors: &CachedCtors) {}
}

/// Hashes one instruction into `m` with position-dependent operands
/// masked, appending discovered function/vtable references to `refs`.
fn mask_instr(
    m: &mut Mixer,
    refs: &mut Vec<OperandRef>,
    instr: Instr,
    entry: Addr,
    is_function: impl Fn(Addr) -> bool,
    is_vtable: impl Fn(Addr) -> bool,
) {
    match instr {
        Instr::Enter { frame } => {
            m.byte(0);
            m.u64(u64::from(frame));
        }
        Instr::Ret => m.byte(1),
        Instr::MovImm { dst, imm } => {
            m.byte(2);
            m.byte(dst.index());
            let addr = Addr::new(imm);
            if is_vtable(addr) {
                // Masked: the vtable's identity joins via the refinement
                // rounds instead of its load address.
                m.byte(0xfd);
                refs.push(OperandRef::Vtable(addr));
            } else if is_function(addr) {
                m.byte(0xfc);
                refs.push(OperandRef::Function(addr));
            } else {
                m.byte(0xfb);
                m.u64(imm);
            }
        }
        Instr::MovReg { dst, src } => {
            m.byte(3);
            m.byte(dst.index());
            m.byte(src.index());
        }
        Instr::Load { dst, base, offset } => {
            m.byte(4);
            m.byte(dst.index());
            m.byte(base.index());
            m.i64(i64::from(offset));
        }
        Instr::Store { base, offset, src } => {
            m.byte(5);
            m.byte(base.index());
            m.i64(i64::from(offset));
            m.byte(src.index());
        }
        Instr::Lea { dst, base, offset } => {
            m.byte(6);
            m.byte(dst.index());
            m.byte(base.index());
            m.i64(i64::from(offset));
        }
        Instr::Call { target } => {
            m.byte(7);
            if is_function(target) {
                refs.push(OperandRef::Function(target));
            } else {
                m.u64(target.value());
            }
        }
        Instr::CallReg { target } => {
            m.byte(8);
            m.byte(target.index());
        }
        Instr::Jmp { target } => {
            m.byte(9);
            m.i64(target.value().wrapping_sub(entry.value()) as i64);
        }
        Instr::Branch { cond, target } => {
            m.byte(10);
            m.byte(cond.index());
            m.i64(target.value().wrapping_sub(entry.value()) as i64);
        }
        Instr::BinOp { op, dst, lhs, rhs } => {
            m.byte(11);
            m.byte(op.code());
            m.byte(dst.index());
            m.byte(lhs.index());
            m.byte(rhs.index());
        }
        Instr::Nop => m.byte(12),
        Instr::Halt => m.byte(13),
    }
}

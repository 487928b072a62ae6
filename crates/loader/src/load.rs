//! Whole-image loading: function recovery + vtable discovery.

use std::collections::BTreeSet;
use std::fmt;

use rock_binary::{
    decode_instr, Addr, BinaryImage, DecodeError, Instr, Section, SectionKind, WORD_SIZE,
};

use crate::{Cfg, DecodedInstr, Function, LoadError, LoadIssue, Vtable};

/// A fully loaded binary: the image plus recovered functions and vtables.
///
/// Built by [`LoadedBinary::load`] (strict) or
/// [`LoadedBinary::load_lenient`] (degrading); this is the input type of
/// the Rock structural and behavioral analyses.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadedBinary {
    image: BinaryImage,
    functions: Vec<Function>,
    vtables: Vec<Vtable>,
    /// `(function entry, vtable index)` for every vtable slot, sorted and
    /// without duplicates: the hosting vtables of each function, in
    /// vtable address order.
    hosts: Vec<(Addr, usize)>,
    issues: Vec<LoadIssue>,
}

impl LoadedBinary {
    /// Loads an image: disassembles the text section, recovers function
    /// boundaries from `enter` prologues, and discovers vtables in rodata.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] if the image has no text section or the text
    /// bytes fail to disassemble.
    pub fn load(image: BinaryImage) -> Result<LoadedBinary, LoadError> {
        let text = image.section(SectionKind::Text).ok_or(LoadError::NoTextSection)?;
        let sweep = Sweep::run(text);
        if let Some(stop) = sweep.stop {
            return Err(stop.reason.into());
        }
        if let Some((at, _)) = sweep.prefix {
            return Err(LoadError::NoPrologueAtStart { at });
        }
        let mut issues = Vec::new();
        let vtables = discover_vtables(&image, &sweep.functions, &mut issues);
        Ok(LoadedBinary::assemble(image, sweep.functions, vtables, issues))
    }

    /// Loads an image, degrading around defects instead of erroring.
    ///
    /// Never fails: undecodable text is truncated at the first bad byte,
    /// instructions before the first prologue are discarded, a missing
    /// text section yields an empty view, and bad vtable candidates are
    /// rejected individually — each defect is recorded as a [`LoadIssue`]
    /// retrievable via [`LoadedBinary::issues`].
    ///
    /// On a well-formed image this returns exactly what [`LoadedBinary::load`]
    /// returns (and no issues besides any rejected vtable candidates,
    /// which strict loading records identically).
    pub fn load_lenient(image: BinaryImage) -> LoadedBinary {
        let mut issues = Vec::new();
        let Some(text) = image.section(SectionKind::Text) else {
            issues.push(LoadIssue::NoTextSection);
            return LoadedBinary::assemble(image, Vec::new(), Vec::new(), issues);
        };
        let sweep = Sweep::run(text);
        if let Some(Stop { at, reason, dropped_bytes }) = sweep.stop {
            issues.push(LoadIssue::TruncatedText { at, reason, dropped_bytes });
        }
        if let Some((at, instrs)) = sweep.prefix {
            issues.push(LoadIssue::SkippedPrefix { at, instrs });
        }
        let vtables = discover_vtables(&image, &sweep.functions, &mut issues);
        LoadedBinary::assemble(image, sweep.functions, vtables, issues)
    }

    /// The loaded view, with the function → hosting-vtable index built
    /// once the vtables are fixed.
    fn assemble(
        image: BinaryImage,
        functions: Vec<Function>,
        vtables: Vec<Vtable>,
        issues: Vec<LoadIssue>,
    ) -> LoadedBinary {
        let mut hosts: Vec<(Addr, usize)> = vtables
            .iter()
            .enumerate()
            .flat_map(|(i, vt)| vt.slots().iter().map(move |&slot| (slot, i)))
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        LoadedBinary { image, functions, vtables, hosts, issues }
    }

    /// Non-fatal defects recorded while loading (always empty for a
    /// strict load of a well-formed image, except rejected vtable
    /// candidates which both paths record).
    pub fn issues(&self) -> &[LoadIssue] {
        &self.issues
    }

    /// The underlying image.
    pub fn image(&self) -> &BinaryImage {
        &self.image
    }

    /// Recovered functions, sorted by entry address.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// The function whose entry is exactly `addr`.
    pub fn function_at(&self, addr: Addr) -> Option<&Function> {
        self.functions.binary_search_by_key(&addr, Function::entry).ok().map(|i| &self.functions[i])
    }

    /// The function containing `addr`. Functions are sorted by entry
    /// and disjoint, so only the last one entered at or below `addr`
    /// can contain it.
    pub fn function_containing(&self, addr: Addr) -> Option<&Function> {
        let after = self.functions.partition_point(|f| f.entry() <= addr);
        after.checked_sub(1).map(|i| &self.functions[i]).filter(|f| f.contains(addr))
    }

    /// Discovered vtables (binary types), sorted by address.
    pub fn vtables(&self) -> &[Vtable] {
        &self.vtables
    }

    /// The vtable at `addr`.
    pub fn vtable_at(&self, addr: Addr) -> Option<&Vtable> {
        self.vtables.binary_search_by_key(&addr, Vtable::addr).ok().map(|i| &self.vtables[i])
    }

    /// All vtables containing `function` in some slot, each once, in
    /// address order.
    pub fn vtables_containing(
        &self,
        function: Addr,
    ) -> impl ExactSizeIterator<Item = &Vtable> + Clone + '_ {
        self.vtable_indices_containing(function).map(|i| &self.vtables[i])
    }

    /// The positions in [`LoadedBinary::vtables`] of the vtables
    /// containing `function` in some slot, each once, ascending.
    pub fn vtable_indices_containing(
        &self,
        function: Addr,
    ) -> impl ExactSizeIterator<Item = usize> + Clone + '_ {
        let start = self.hosts.partition_point(|&(f, _)| f < function);
        let len = self.hosts[start..].partition_point(|&(f, _)| f == function);
        self.hosts[start..start + len].iter().map(|&(_, i)| i)
    }

    /// Builds the CFG of `function`.
    pub fn cfg_of(&self, function: &Function) -> Cfg {
        Cfg::build(function)
    }
}

impl fmt::Display for LoadedBinary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "loaded binary: {} functions, {} vtables",
            self.functions.len(),
            self.vtables.len()
        )
    }
}

/// The linear sweep over a text section: every decoded instruction goes
/// straight into the function it belongs to, a new function starting at
/// each `enter` prologue.
struct Sweep {
    /// The recovered functions, in address order.
    functions: Vec<Function>,
    /// Instructions decoded before the first prologue, which no function
    /// holds: the first one's address and their count.
    prefix: Option<(Addr, usize)>,
    /// Where decoding stopped short of the section's end, if it did.
    stop: Option<Stop>,
}

/// The first undecodable instruction of a sweep.
struct Stop {
    at: Addr,
    reason: DecodeError,
    dropped_bytes: usize,
}

impl Sweep {
    /// Decodes `text` front to back, up to its end or its first
    /// undecodable byte.
    fn run(text: &Section) -> Sweep {
        let mut sweep = Sweep { functions: Vec::new(), prefix: None, stop: None };
        // The current function's instructions; its capacity is reused, so
        // each function is allocated once, at its exact length.
        let mut body: Vec<DecodedInstr> = Vec::new();
        let bytes = text.bytes();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let addr = text.base() + pos as u64;
            let (instr, len) = match decode_instr(&bytes[pos..], addr) {
                Ok(decoded) => decoded,
                Err(reason) => {
                    sweep.stop = Some(Stop { at: addr, reason, dropped_bytes: bytes.len() - pos });
                    break;
                }
            };
            pos += len;
            let is_prologue = matches!(instr, Instr::Enter { .. });
            if is_prologue && !body.is_empty() {
                sweep.functions.push(Function::new(body[0].addr, body.clone()));
                body.clear();
            }
            if body.is_empty() && !is_prologue {
                sweep.prefix.get_or_insert((addr, 0)).1 += 1;
            } else {
                body.push(DecodedInstr { addr, instr, len });
            }
        }
        if !body.is_empty() {
            sweep.functions.push(Function::new(body[0].addr, body));
        }
        sweep
    }
}

/// Vtable discovery (§3.2): candidate rodata addresses referenced from
/// code, scanned for runs of function-entry pointers. Candidates that
/// yield no valid slot (truncated tables, out-of-image pointers, plain
/// data) are rejected individually and recorded in `issues`.
fn discover_vtables(
    image: &BinaryImage,
    functions: &[Function],
    issues: &mut Vec<LoadIssue>,
) -> Vec<Vtable> {
    let Some(rodata) = image.section(SectionKind::RoData) else {
        return Vec::new();
    };
    let entries: BTreeSet<Addr> = functions.iter().map(Function::entry).collect();

    // Candidate table starts: immediates in code that point into rodata.
    let mut candidates: BTreeSet<Addr> = BTreeSet::new();
    for d in functions.iter().flat_map(Function::instrs) {
        if let Instr::MovImm { imm, .. } = d.instr {
            let a = Addr::new(imm);
            if rodata.contains(a) && a.value().is_multiple_of(WORD_SIZE) {
                candidates.insert(a);
            }
        }
    }

    let cand_list: Vec<Addr> = candidates.iter().copied().collect();
    let mut vtables = Vec::new();
    for (i, &start) in cand_list.iter().enumerate() {
        let limit = cand_list.get(i + 1).copied().unwrap_or(rodata.end());
        let mut slots = Vec::new();
        let mut cur = start;
        while cur < limit {
            match rodata.read_word(cur) {
                Some(w) if entries.contains(&Addr::new(w)) => {
                    slots.push(Addr::new(w));
                    cur += WORD_SIZE;
                }
                _ => break,
            }
        }
        if slots.is_empty() {
            issues.push(LoadIssue::RejectedVtableCandidate { at: start });
        } else {
            vtables.push(Vtable::new(start, slots));
        }
    }
    vtables
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_binary::{ImageBuilder, Reg, Section};

    /// Two classes; B extends A (2 slots), ctors reference the vtables.
    fn two_class_image() -> (BinaryImage, Vec<Addr>) {
        let mut b = ImageBuilder::new();
        let m0 = b.begin_function("A::m0");
        b.push(Instr::Enter { frame: 0 });
        b.push(Instr::Ret);
        b.end_function();
        let m1 = b.begin_function("B::m1");
        b.push(Instr::Enter { frame: 0 });
        b.push(Instr::Nop);
        b.push(Instr::Ret);
        b.end_function();
        let vt_a = b.add_vtable("vtable for A", vec![m0]);
        let vt_b = b.add_vtable("vtable for B", vec![m0, m1]);
        b.begin_function("A::ctor");
        b.push(Instr::Enter { frame: 0 });
        b.push_mov_vtable_addr(Reg::R7, vt_a);
        b.push(Instr::Store { base: Reg::R0, offset: 0, src: Reg::R7 });
        b.push(Instr::Ret);
        b.end_function();
        b.begin_function("B::ctor");
        b.push(Instr::Enter { frame: 0 });
        b.push_mov_vtable_addr(Reg::R7, vt_b);
        b.push(Instr::Store { base: Reg::R0, offset: 0, src: Reg::R7 });
        b.push(Instr::Ret);
        b.end_function();
        let (mut image, layout) = b.finish_with_layout();
        image.strip();
        let addrs = vec![layout.vtable(vt_a), layout.vtable(vt_b)];
        (image, addrs)
    }

    #[test]
    fn recovers_functions_and_vtables() {
        let (image, vt_addrs) = two_class_image();
        let loaded = LoadedBinary::load(image).unwrap();
        assert_eq!(loaded.functions().len(), 4);
        assert_eq!(loaded.vtables().len(), 2);
        assert_eq!(loaded.vtables()[0].addr(), vt_addrs[0]);
        assert_eq!(loaded.vtables()[1].addr(), vt_addrs[1]);
        assert_eq!(loaded.vtables()[0].len(), 1);
        assert_eq!(loaded.vtables()[1].len(), 2);
        // Shared slot 0 (inherited implementation).
        assert_eq!(loaded.vtables()[0].slots()[0], loaded.vtables()[1].slots()[0]);
    }

    #[test]
    fn function_lookup() {
        let (image, _) = two_class_image();
        let loaded = LoadedBinary::load(image).unwrap();
        let f0 = &loaded.functions()[0];
        assert_eq!(loaded.function_at(f0.entry()).unwrap().entry(), f0.entry());
        assert!(loaded.function_at(f0.entry() + 1).is_none());
        assert!(loaded.function_containing(f0.entry() + 1).is_some());
        let last = loaded.functions().last().unwrap();
        assert!(loaded.function_containing(last.end()).is_none());
        // The search equals a scan at each function's entry, last byte
        // and end, and below the first one.
        let scan = |a: Addr| loaded.functions().iter().find(|f| f.contains(a)).map(Function::entry);
        for f in loaded.functions() {
            for a in [f.entry(), f.end() - 1, f.end()] {
                assert_eq!(loaded.function_containing(a).map(Function::entry), scan(a), "{a}");
            }
        }
        assert_eq!(loaded.function_containing(Addr::new(0)).map(Function::entry), None);
        assert_eq!(loaded.function_containing(Addr::new(u64::MAX)).map(Function::entry), None);
    }

    #[test]
    fn vtable_membership() {
        let (image, _) = two_class_image();
        let loaded = LoadedBinary::load(image).unwrap();
        let shared = loaded.vtables()[0].slots()[0];
        assert_eq!(loaded.vtables_containing(shared).len(), 2);
        let own = loaded.vtables()[1].slots()[1];
        assert_eq!(loaded.vtables_containing(own).len(), 1);
        assert!(loaded.vtable_at(loaded.vtables()[0].addr()).is_some());
        assert!(loaded.vtable_at(Addr::new(1)).is_none());
    }

    #[test]
    fn unreferenced_tables_are_invisible() {
        // A vtable never mentioned in code is not discovered (mirrors real
        // scanners needing an anchor).
        let mut b = ImageBuilder::new();
        let f = b.begin_function("f");
        b.push(Instr::Enter { frame: 0 });
        b.push(Instr::Ret);
        b.end_function();
        b.add_vtable("orphan", vec![f]);
        let mut image = b.finish();
        image.strip();
        let loaded = LoadedBinary::load(image).unwrap();
        assert!(loaded.vtables().is_empty());
    }

    #[test]
    fn rodata_noise_rejected() {
        let mut b = ImageBuilder::new();
        let f = b.begin_function("f");
        b.push(Instr::Enter { frame: 0 });
        b.push(Instr::Ret);
        b.end_function();
        // Noise blob made of huge values, referenced from code as if data.
        b.add_rodata_blob(0, 0xfff0_0000_0000_0001u64.to_le_bytes().to_vec());
        let vt = b.add_vtable("vt", vec![f]);
        b.begin_function("g");
        b.push(Instr::Enter { frame: 0 });
        b.push_mov_vtable_addr(Reg::R1, vt);
        b.push(Instr::Ret);
        b.end_function();
        let mut image = b.finish();
        image.strip();
        let loaded = LoadedBinary::load(image).unwrap();
        assert_eq!(loaded.vtables().len(), 1);
        assert_eq!(loaded.vtables()[0].len(), 1);
    }

    #[test]
    fn empty_image_fails() {
        let image = BinaryImage::new(vec![]);
        assert_eq!(LoadedBinary::load(image), Err(LoadError::NoTextSection));
    }

    #[test]
    fn display() {
        let (image, _) = two_class_image();
        let loaded = LoadedBinary::load(image).unwrap();
        assert!(loaded.to_string().contains("4 functions"));
    }

    #[test]
    fn lenient_matches_strict_on_clean_images() {
        let (image, _) = two_class_image();
        let strict = LoadedBinary::load(image.clone()).unwrap();
        let lenient = LoadedBinary::load_lenient(image);
        assert_eq!(strict, lenient);
        assert!(strict.issues().is_empty());
    }

    #[test]
    fn lenient_tolerates_empty_images() {
        let loaded = LoadedBinary::load_lenient(BinaryImage::new(vec![]));
        assert!(loaded.functions().is_empty());
        assert!(loaded.vtables().is_empty());
        assert_eq!(loaded.issues(), &[LoadIssue::NoTextSection]);
    }

    /// Rebuilds `image` with one section's bytes replaced.
    fn with_section_bytes(image: &BinaryImage, kind: SectionKind, bytes: Vec<u8>) -> BinaryImage {
        let base = image.section(kind).unwrap().base();
        let mut sections: Vec<Section> =
            image.sections().iter().filter(|s| s.kind() != kind).cloned().collect();
        sections.push(Section::new(kind, base, bytes));
        BinaryImage::new(sections)
    }

    #[test]
    fn lenient_truncates_undecodable_text() {
        let (image, _) = two_class_image();
        // Append garbage to the text section: strict errors, lenient
        // truncates and keeps every function decoded before the garbage.
        let strict_clean = LoadedBinary::load(image.clone()).unwrap();
        let mut bytes = image.section(SectionKind::Text).unwrap().bytes().to_vec();
        bytes.extend([0xff; 7]);
        let corrupted = with_section_bytes(&image, SectionKind::Text, bytes);
        assert!(matches!(LoadedBinary::load(corrupted.clone()), Err(LoadError::Decode(_))));
        let lenient = LoadedBinary::load_lenient(corrupted);
        assert_eq!(lenient.functions().len(), strict_clean.functions().len());
        assert_eq!(lenient.vtables().len(), strict_clean.vtables().len());
        assert!(lenient
            .issues()
            .iter()
            .any(|i| matches!(i, LoadIssue::TruncatedText { dropped_bytes: 7, .. })));
    }

    #[test]
    fn lenient_skips_pre_prologue_instructions() {
        // An image whose text starts with stray non-prologue code: a
        // 1-byte `ret` prepended before the first `enter`.
        let mut b = ImageBuilder::new();
        b.begin_function("f");
        b.push(Instr::Enter { frame: 0 });
        b.push(Instr::Ret);
        b.end_function();
        let mut image = b.finish();
        image.strip();
        let mut bytes = vec![0x02];
        bytes.extend_from_slice(image.section(SectionKind::Text).unwrap().bytes());
        let shifted = with_section_bytes(&image, SectionKind::Text, bytes);
        assert!(matches!(
            LoadedBinary::load(shifted.clone()),
            Err(LoadError::NoPrologueAtStart { .. })
        ));
        let lenient = LoadedBinary::load_lenient(shifted);
        assert_eq!(lenient.functions().len(), 1);
        assert!(lenient
            .issues()
            .iter()
            .any(|i| matches!(i, LoadIssue::SkippedPrefix { instrs: 1, .. })));
    }

    #[test]
    fn rejected_vtable_candidates_are_recorded() {
        // Corrupt vtable A's only slot: the candidate at its address no
        // longer starts with a function entry, so it is rejected — and
        // recorded, on both the strict and the lenient path.
        let (image, vt_addrs) = two_class_image();
        let rodata = image.section(SectionKind::RoData).unwrap();
        let mut bytes = rodata.bytes().to_vec();
        let off = (vt_addrs[0].value() - rodata.base().value()) as usize;
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let patched = with_section_bytes(&image, SectionKind::RoData, bytes);
        for loaded in
            [LoadedBinary::load(patched.clone()).unwrap(), LoadedBinary::load_lenient(patched)]
        {
            assert_eq!(loaded.vtables().len(), 1, "only B's table survives");
            assert!(loaded
                .issues()
                .iter()
                .any(|i| *i == LoadIssue::RejectedVtableCandidate { at: vt_addrs[0] }));
        }
    }
}

//! Seeded structural fuzzer for the loader. Four mutation families —
//! truncation, length-field lies, overlapping sections, vtable slot
//! garbage — are applied to well-formed images, and every mutant is
//! pushed through `load_lenient` plus a full reconstruction.
//!
//! Two oracles hold for every seed:
//!
//! 1. **Never panics** — the worst outcome is an error value or a
//!    degraded load, whatever the mutation did.
//! 2. **Lenient ⊇ strict** — any image the strict loader rejects must
//!    surface at least one issue from the lenient loader; degradation
//!    is never silent.
//!
//! Seeds come from `ROCK_FUZZ_SEEDS` (`"a..b"` range or comma list; CI
//! sweeps `0..64`), defaulting to `0..8` for local runs.

use rock::binary::{image_from_bytes, image_to_bytes, Addr, BinaryImage, Section, SectionKind};
use rock::core::{suite, Rock, RockConfig, Stage};
use rock::loader::LoadedBinary;
use rock::trace::splitmix64;

/// A tiny seeded stream of draws.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Seeds to sweep: `ROCK_FUZZ_SEEDS="0..64"` or `"1,5,9"`, else `0..8`.
fn seeds() -> Vec<u64> {
    let Ok(spec) = std::env::var("ROCK_FUZZ_SEEDS") else {
        return (0..8).collect();
    };
    if let Some((lo, hi)) = spec.split_once("..") {
        let lo: u64 = lo.trim().parse().expect("bad ROCK_FUZZ_SEEDS lower bound");
        let hi: u64 = hi.trim().parse().expect("bad ROCK_FUZZ_SEEDS upper bound");
        (lo..hi).collect()
    } else {
        spec.split(',').map(|s| s.trim().parse().expect("bad ROCK_FUZZ_SEEDS entry")).collect()
    }
}

fn base_image() -> BinaryImage {
    let bench = suite::stress_program(2, 2, 2);
    bench.compile().expect("compiles").stripped_image()
}

/// The oracles, applied to one mutant image.
///
/// Returning at all is oracle (1): neither the strict loader, the
/// lenient loader, nor a full reconstruction over the lenient result may
/// panic. Oracle (2): a strict rejection implies a visible lenient
/// issue, and every lenient issue resurfaces as a `Load` diagnostic.
fn check(mutant: BinaryImage, what: &str) {
    let strict = LoadedBinary::load(mutant.clone());
    let lenient = LoadedBinary::load_lenient(mutant);
    if let Err(e) = &strict {
        assert!(
            !lenient.issues().is_empty(),
            "{what}: strict load failed ({e}) but the lenient load is silent"
        );
    }
    let recon = Rock::new(RockConfig::paper()).reconstruct(&lenient);
    assert!(recon.hierarchy.is_acyclic(), "{what}: cyclic hierarchy");
    let load_diags = recon.diagnostics.iter().filter(|d| d.stage == Stage::Load).count();
    assert_eq!(load_diags, lenient.issues().len(), "{what}: lenient issues must be diagnosed");
}

fn sections_of(image: &BinaryImage) -> Vec<Section> {
    image.sections().to_vec()
}

// ---------------------------------------------------------------------
// Mutation family 1: truncation
// ---------------------------------------------------------------------

#[test]
fn truncated_sections_survive_both_loaders() {
    let image = base_image();
    for seed in seeds() {
        let mut rng = Rng(seed ^ 0x7275_6e63); // "runc"
        let mut sections = sections_of(&image);
        let victim = rng.below(sections.len());
        let old = &sections[victim];
        if old.is_empty() {
            continue;
        }
        let keep = rng.below(old.len());
        sections[victim] = Section::new(old.kind(), old.base(), old.bytes()[..keep].to_vec());
        check(BinaryImage::new(sections), &format!("seed {seed}: truncate to {keep}"));
    }
}

// ---------------------------------------------------------------------
// Mutation family 2: length-field lies in the serialized container
// ---------------------------------------------------------------------

/// Byte offsets of every section `len` field in a serialized image.
fn len_field_offsets(bytes: &[u8]) -> Vec<usize> {
    let count = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let mut offsets = Vec::new();
    let mut pos = 8;
    for _ in 0..count {
        pos += 1 + 8; // kind + base
        offsets.push(pos);
        let len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize;
        pos += 8 + len;
    }
    offsets
}

#[test]
fn lying_length_fields_error_or_degrade_but_never_panic() {
    let bytes = image_to_bytes(&base_image());
    let offsets = len_field_offsets(&bytes);
    assert!(!offsets.is_empty());
    for seed in seeds() {
        let mut rng = Rng(seed ^ 0x6c69_6573); // "lies"
        let at = offsets[rng.below(offsets.len())];
        let truth = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let lies = [0, truth.wrapping_sub(1), truth + 1, truth * 2, 1 << 40, u64::MAX, rng.next()];
        for lie in lies {
            let mut mutant = bytes.clone();
            mutant[at..at + 8].copy_from_slice(&lie.to_le_bytes());
            // Decoding must reject the lie or reinterpret the stream —
            // either way without panicking; anything that still decodes
            // goes through the full loader oracles.
            if let Ok(image) = image_from_bytes(&mutant) {
                check(image, &format!("seed {seed}: len {truth} -> {lie}"));
            }
        }
    }
}

#[test]
fn random_container_corruption_errors_or_degrades_but_never_panics() {
    let bytes = image_to_bytes(&base_image());
    for seed in seeds() {
        let mut rng = Rng(seed ^ 0x636f_7272); // "corr"
        let mut mutant = bytes.clone();
        for _ in 0..16 {
            let pos = rng.below(mutant.len());
            mutant[pos] ^= (rng.next() as u8) | 1;
        }
        if let Ok(image) = image_from_bytes(&mutant) {
            check(image, &format!("seed {seed}: container corruption"));
        }
    }
}

// ---------------------------------------------------------------------
// Mutation family 3: overlapping sections
// ---------------------------------------------------------------------

#[test]
fn overlapping_sections_survive_both_loaders() {
    let image = base_image();
    let text = image.section(SectionKind::Text).unwrap();
    for seed in seeds() {
        let mut rng = Rng(seed ^ 0x6f76_6572); // "over"
                                               // A rodata section shoved into the middle of text: its "slots"
                                               // are seeded garbage that may alias real code addresses.
        let overlap_base = text.base().value() + rng.below(text.len()) as u64;
        let mut slots = Vec::new();
        for _ in 0..8 {
            let word = match rng.below(3) {
                0 => text.base().value() + rng.below(text.len()) as u64,
                1 => rng.next(),
                _ => 0,
            };
            slots.extend_from_slice(&word.to_le_bytes());
        }
        let mut sections = sections_of(&image);
        sections.push(Section::new(SectionKind::RoData, Addr::new(overlap_base), slots));
        check(BinaryImage::new(sections), &format!("seed {seed}: rodata overlaps text"));

        // Two text sections covering overlapping ranges.
        let mut sections = sections_of(&image);
        let shifted = Addr::new(text.base().value() + 1 + rng.below(16) as u64);
        sections.push(Section::new(SectionKind::Text, shifted, text.bytes().to_vec()));
        check(BinaryImage::new(sections), &format!("seed {seed}: duplicate shifted text"));
    }
}

// ---------------------------------------------------------------------
// Mutation family 4: vtable slot garbage
// ---------------------------------------------------------------------

#[test]
fn garbage_vtable_slots_survive_both_loaders() {
    let image = base_image();
    for seed in seeds() {
        let mut rng = Rng(seed ^ 0x736c_6f74); // "slot"
        let rodata = image.section(SectionKind::RoData).unwrap();
        let mut bytes = rodata.bytes().to_vec();
        let slots = bytes.len() / 8;
        if slots == 0 {
            continue;
        }
        for _ in 0..4 {
            let slot = rng.below(slots) * 8;
            let garbage = match rng.below(4) {
                0 => u64::MAX,
                1 => 0,
                2 => rng.next(),
                // A misaligned in-text address: looks plausible, is not
                // a function entry.
                _ => image.section(SectionKind::Text).unwrap().base().value() + 1,
            };
            bytes[slot..slot + 8].copy_from_slice(&garbage.to_le_bytes());
        }
        let mut sections: Vec<Section> =
            image.sections().iter().filter(|s| s.kind() != SectionKind::RoData).cloned().collect();
        sections.push(Section::new(SectionKind::RoData, rodata.base(), bytes));
        check(BinaryImage::new(sections), &format!("seed {seed}: vtable slot garbage"));
    }
}

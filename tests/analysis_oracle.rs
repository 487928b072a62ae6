//! The behavioral analysis equals its plain flow (every function run in
//! the ctor pre-pass, again in the tracelet pass, and every ctor-like
//! function a third time for rule 3's pins) on the generated programs,
//! the delta image and three patches of it, and lenient loads of the
//! loader fuzzer's mutants: the ctor map, every pool, its model key and
//! the tracelets per length, the incidents, the fuel spent, the pins,
//! and the structural analysis built on them. Each image runs cold with
//! raw and with canonical calls, then twice through a corpus cache under
//! canonical and under image-bound keys, the second pass answered from
//! it.

#[path = "../crates/analysis/src/oracle.rs"]
mod oracle;

use rock::analysis::{
    extract_tracelets_cached, extract_tracelets_canonical, extract_tracelets_instrumented,
    Analysis, AnalysisConfig, ContentLabels, NoHooks,
};
use rock::binary::{image_from_bytes, image_to_bytes, Addr, BinaryImage, Section, SectionKind};
use rock::core::{pool_key, suite, CorpusCache, RockConfig};
use rock::loader::LoadedBinary;
use rock::structural::analyze;
use rock::trace::{names, splitmix64, LocalSpans, MetricsRegistry};

/// Runs one extraction and returns it with the fuel it recorded.
fn run(f: impl FnOnce(&mut LocalSpans, &mut MetricsRegistry) -> Analysis) -> (Analysis, u64) {
    let mut metrics = MetricsRegistry::new();
    let analysis = f(&mut LocalSpans::disabled(), &mut metrics);
    (analysis, metrics.counter(names::ANALYSIS_FUEL_SPENT))
}

fn assert_equal(
    loaded: &LoadedBinary,
    config: &AnalysisConfig,
    run: (Analysis, u64),
    r: &oracle::Reference,
    what: &str,
) {
    let (analysis, fuel) = run;
    oracle::assert_matches(&analysis, fuel, r, what);
    for vt in loaded.vtables().iter().map(|vt| vt.addr()) {
        let key = |a: &Analysis| pool_key(config.slm_depth, a.tracelets().of_type(vt));
        let want = pool_key(config.slm_depth, r.tracelets.of_type(vt));
        assert_eq!(key(&analysis), want, "{what}: model key of {vt}");
    }
    let s = analyze(loaded, analysis.ctors(), analysis.pinned());
    let want = analyze(loaded, analysis.ctors(), &r.pinned);
    assert_eq!(s.pinned(), &r.pinned, "{what}: structural pins");
    assert_eq!(s.stats(), want.stats(), "{what}: structural rule counts");
}

/// Every mode over one image, each against the plain flow.
fn check(loaded: &LoadedBinary, corpus: &CorpusCache, what: &str) {
    let config = RockConfig::paper().analysis;
    let hooks = &NoHooks;
    let labels = ContentLabels::compute(loaded);
    let raw = oracle::reference(loaded, &config, hooks, None);
    let canonical = oracle::reference(loaded, &config, hooks, Some(&labels));

    let cold = run(|s, m| extract_tracelets_instrumented(loaded, &config, hooks, s, m));
    assert_equal(loaded, &config, cold, &raw, &format!("{what}: cold"));
    let cold = run(|s, m| extract_tracelets_canonical(loaded, &config, hooks, s, m, &labels, None));
    assert_equal(loaded, &config, cold, &canonical, &format!("{what}: cold canonical"));
    let by_content = corpus.exec_cache(&config);
    let by_image = corpus.image_exec_cache(&config, loaded.image());
    for pass in 0..2 {
        let cached = run(|s, m| {
            extract_tracelets_canonical(loaded, &config, hooks, s, m, &labels, Some(&by_content))
        });
        let how = format!("{what}: canonical corpus pass {pass}");
        assert_equal(loaded, &config, cached, &canonical, &how);
        let cached = run(|s, m| extract_tracelets_cached(loaded, &config, hooks, s, m, &by_image));
        let how = format!("{what}: image-bound corpus pass {pass}");
        assert_equal(loaded, &config, cached, &raw, &how);
    }
}

fn load(bench: &suite::Benchmark) -> LoadedBinary {
    LoadedBinary::load(bench.compile().unwrap().stripped_image()).unwrap()
}

#[test]
fn generated_programs_match_the_plain_flow() {
    let mut benches = suite::all_benchmarks();
    benches
        .extend([(2, 5, 3), (4, 4, 3), (3, 4, 4)].map(|(f, d, o)| suite::stress_program(f, d, o)));
    benches.extend((0..6).map(|i| suite::corpus_member(i, 40)));
    let corpus = CorpusCache::new();
    for (i, bench) in benches.iter().enumerate() {
        check(&load(bench), &corpus, &format!("image {i} ({})", bench.name));
    }
}

#[test]
fn the_delta_image_and_its_patches_match_the_plain_flow() {
    let base = suite::delta_spec(12, 10, 1205);
    let corpus = CorpusCache::new();
    check(&load(&suite::delta_program(&base)), &corpus, "delta base");
    for seed in 0..3u64 {
        let draw = |salt: u64, n: u64| (splitmix64(seed ^ salt) % n) as usize;
        let edit = suite::DeltaEdit::EditBody {
            family: draw(0xFA, 12),
            class: draw(0xC1, 10),
            method: draw(0x3E, 2),
        };
        let mut spec = base.clone();
        suite::apply_delta(&mut spec, edit);
        check(&load(&suite::delta_program(&spec)), &corpus, &format!("patch {seed} ({edit:?})"));
    }
}

/// A tiny seeded stream of draws, as the loader fuzzer draws them.
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

/// The loader fuzzer's mutants of its base image for one seed:
/// truncation, lying length fields, random container corruption,
/// overlapping sections and vtable slot garbage (`tests/loader_fuzz.rs`).
fn mutants(image: &BinaryImage, seed: u64) -> Vec<(String, BinaryImage)> {
    let mut out = Vec::new();
    let sections = image.sections().to_vec();

    let mut rng = Rng(seed ^ 0x7275_6e63);
    let mut cut = sections.clone();
    let victim = rng.below(cut.len());
    let old = &cut[victim];
    if !old.is_empty() {
        let keep = rng.below(old.len());
        cut[victim] = Section::new(old.kind(), old.base(), old.bytes()[..keep].to_vec());
        out.push((format!("truncate to {keep}"), BinaryImage::new(cut)));
    }

    let bytes = image_to_bytes(image);
    let mut rng = Rng(seed ^ 0x6c69_6573);
    let count = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let mut offsets = Vec::new();
    let mut pos = 8;
    for _ in 0..count {
        pos += 1 + 8;
        offsets.push(pos);
        pos += 8 + u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize;
    }
    let at = offsets[rng.below(offsets.len())];
    let truth = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    for lie in [0, truth.wrapping_sub(1), truth + 1, truth * 2, 1 << 40, u64::MAX, rng.next()] {
        let mut mutant = bytes.clone();
        mutant[at..at + 8].copy_from_slice(&lie.to_le_bytes());
        if let Ok(image) = image_from_bytes(&mutant) {
            out.push((format!("len {truth} -> {lie}"), image));
        }
    }

    let mut rng = Rng(seed ^ 0x636f_7272);
    let mut mutant = bytes.clone();
    for _ in 0..16 {
        let pos = rng.below(mutant.len());
        mutant[pos] ^= (rng.next() as u8) | 1;
    }
    if let Ok(image) = image_from_bytes(&mutant) {
        out.push(("container corruption".into(), image));
    }

    let text = image.section(SectionKind::Text).unwrap();
    let mut rng = Rng(seed ^ 0x6f76_6572);
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
    let mut overlapping = sections.clone();
    overlapping.push(Section::new(SectionKind::RoData, Addr::new(overlap_base), slots));
    out.push(("rodata overlaps text".into(), BinaryImage::new(overlapping)));
    let mut shifted = sections.clone();
    let base = Addr::new(text.base().value() + 1 + rng.below(16) as u64);
    shifted.push(Section::new(SectionKind::Text, base, text.bytes().to_vec()));
    out.push(("duplicate shifted text".into(), BinaryImage::new(shifted)));

    let mut rng = Rng(seed ^ 0x736c_6f74);
    let rodata = image.section(SectionKind::RoData).unwrap();
    let mut table = rodata.bytes().to_vec();
    let words = table.len() / 8;
    if words > 0 {
        for _ in 0..4 {
            let slot = rng.below(words) * 8;
            let garbage = match rng.below(4) {
                0 => u64::MAX,
                1 => 0,
                2 => rng.next(),
                _ => text.base().value() + 1,
            };
            table[slot..slot + 8].copy_from_slice(&garbage.to_le_bytes());
        }
        let mut garbled: Vec<Section> =
            sections.iter().filter(|s| s.kind() != SectionKind::RoData).cloned().collect();
        garbled.push(Section::new(SectionKind::RoData, rodata.base(), table));
        out.push(("vtable slot garbage".into(), BinaryImage::new(garbled)));
    }
    out
}

#[test]
fn lenient_loads_of_fuzzed_images_match_the_plain_flow() {
    let image = suite::stress_program(2, 2, 2).compile().unwrap().stripped_image();
    let corpus = CorpusCache::new();
    for seed in 0..8 {
        for (what, mutant) in mutants(&image, seed) {
            let loaded = LoadedBinary::load_lenient(mutant);
            check(&loaded, &corpus, &format!("seed {seed}: {what}"));
        }
    }
}

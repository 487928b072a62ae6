//! The end-to-end reconstruction pipeline.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use rock_analysis::{Analysis, Event, IncidentKind};
use rock_binary::Addr;
use rock_graph::Forest;
use rock_loader::{LoadIssue, LoadedBinary};
use rock_slm::{Metric, Slm};
use rock_structural::Structural;
use rock_trace::{names, MetricsRegistry, TraceCtx, TraceLevel, Tracer};

use crate::corpus::{CorpusCache, ModelKey};
use crate::diagnostics::{Coverage, FaultKind, Severity, Stage, StageError, Subject};
use crate::faultplan::FaultPlan;
use crate::par::{par_map, Parallelism};
use crate::{RockConfig, StageTimings};

/// The Rock reconstructor.
///
/// Construct one with a [`RockConfig`] and call [`Rock::reconstruct`] on a
/// loaded (stripped) binary. A reconstructor keeps nothing between runs:
/// every run computes its own distances.
///
/// [`Rock::with_corpus_cache`] attaches a fleet-wide [`CorpusCache`], the
/// one place work is reused: symbolic executions, trained models,
/// distances and liftings are then published to (and answered from) the
/// shared store, so a batch over overlapping binaries — or repeated runs
/// over one binary — trains and scores every distinct pool once. Keys are
/// **content hashes** of each type's tracelet pool
/// ([`crate::corpus::pool_key`]), so equal keys imply equal training
/// inputs, and with [`RockConfig::canonical_calls`] they hold across
/// different binaries.
#[derive(Clone, Debug, Default)]
pub struct Rock {
    config: RockConfig,
    corpus: Option<Arc<CorpusCache>>,
    fault: Option<Arc<FaultPlan>>,
    tracer: Option<Arc<Tracer>>,
    trace_level: TraceLevel,
}

/// Everything the pipeline produced for one binary.
#[derive(Clone, Debug)]
pub struct Reconstruction {
    /// The reconstructed hierarchy over binary types (vtable addresses) —
    /// the "With SLMs" result.
    pub hierarchy: Forest<Addr>,
    /// The structural analysis (families + possible parents) — the
    /// "Without SLMs" baseline works directly on this relation.
    pub structural: Structural,
    /// The behavioral analysis output (tracelets + recognized ctors).
    pub analysis: Analysis,
    /// Behavioral distances computed for surviving candidate edges:
    /// `(parent, child) -> distance`.
    pub distances: BTreeMap<(Addr, Addr), f64>,
    /// Per-stage wall clock for this run.
    pub timings: StageTimings,
    /// Every contained fault of the run, in deterministic record order.
    pub diagnostics: Vec<StageError>,
    /// How much of the binary the run actually covered.
    pub coverage: Coverage,
    /// The run's full metrics registry (counters + histograms): every
    /// work count of the run. Contains only deterministic work counts —
    /// never wall-clock values — so two runs of the same binary compare
    /// equal at any thread count.
    pub metrics: MetricsRegistry,
    /// The metric the distances were computed under.
    metric: Metric,
    /// The trained per-type models, kept so post-hoc queries
    /// ([`Reconstruction::k_most_likely_parents`]) can score pairs the
    /// distance stage did not.
    /// Shared (`Arc`) because corpus runs alias one model across every
    /// type — in one binary or many — whose pool hashes identically.
    models: BTreeMap<Addr, Arc<Slm<Event>>>,
    /// Content key of every type's tracelet pool (trained or not);
    /// [`CorpusCache`] lookups key on these.
    model_keys: BTreeMap<Addr, ModelKey>,
    /// The fleet-wide corpus cache, when the run had one attached.
    corpus: Option<Arc<CorpusCache>>,
}

impl Reconstruction {
    /// Convenience: candidate parents of `child` after the structural
    /// phase (the "Without SLMs" relation).
    pub fn possible_parents_of(&self, child: Addr) -> &[Addr] {
        self.structural.possible_parents().of(child)
    }

    /// The parent chosen by the full pipeline, if any.
    pub fn parent_of(&self, child: Addr) -> Option<Addr> {
        self.hierarchy.parent_of(&child).copied()
    }

    /// The trained model of a binary type, if the type exists.
    pub fn model_of(&self, addr: Addr) -> Option<&Slm<Event>> {
        self.models.get(&addr).map(|m| &**m)
    }

    /// §5.3 multiple inheritance: "if a type inherits from X different
    /// parents, we will observe assignments of X different vtable
    /// pointers … given that we observe X assignments, we will choose the
    /// X most likely parents as the type's parents." Returns, per type,
    /// as many parents as its constructor's vptr-store count indicates
    /// (single-inheritance types keep their one arborescence parent).
    pub fn mi_parents(&self) -> BTreeMap<Addr, Vec<Addr>> {
        let counts = self.structural.vptr_store_counts();
        let k_of = |child: &Addr| counts.get(child).copied().unwrap_or(1).max(1);
        // One ranking at the largest `k`: each child's list is a prefix of
        // its ranking, so truncating to its own `k` gives what a ranking at
        // that `k` would.
        let max_k = self.structural.families().iter().flatten().map(k_of).max().unwrap_or(1);
        let mut out = self.k_most_likely_parents(max_k);
        for (child, parents) in &mut out {
            parents.truncate(k_of(child));
        }
        out
    }

    /// §6.4 "Applying Control Flow Integrity": assigns up to `k` most
    /// likely parents per type, trading false negatives for false
    /// positives ("our algorithm supports this at the cost of increased
    /// computational complexity, while still polynomial").
    ///
    /// The arborescence-chosen parent always ranks first; further slots
    /// are filled by ascending behavioral distance among the surviving
    /// structural candidates. Distances not computed during lifting are
    /// computed here, through the corpus distance tier when the run had
    /// a corpus attached.
    pub fn k_most_likely_parents(&self, k: usize) -> BTreeMap<Addr, Vec<Addr>> {
        let mut out = BTreeMap::new();
        for family in self.structural.families() {
            for &child in family {
                let chosen = self.parent_of(child);
                let mut ranked: Vec<(f64, Addr)> = self
                    .structural
                    .possible_parents()
                    .of(child)
                    .iter()
                    .copied()
                    .filter(|p| Some(*p) != chosen)
                    .map(|p| (self.distance_of(p, child), p))
                    .collect();
                ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut parents: Vec<Addr> = chosen.into_iter().collect();
                parents.extend(ranked.into_iter().map(|(_, p)| p));
                parents.truncate(k);
                out.insert(child, parents);
            }
        }
        out
    }

    /// The behavioral distance of a candidate edge: answered from the
    /// lifting pass when available, otherwise computed (through the
    /// corpus, if any); `f64::MAX` if either endpoint has no model.
    fn distance_of(&self, parent: Addr, child: Addr) -> f64 {
        if let Some(d) = self.distances.get(&(parent, child)) {
            return *d;
        }
        let (Some(pm), Some(cm)) = (self.models.get(&parent), self.models.get(&child)) else {
            return f64::MAX;
        };
        let (Some(kp), Some(kc)) = (self.model_keys.get(&parent), self.model_keys.get(&child))
        else {
            return f64::MAX;
        };
        distance_through(self.corpus.as_deref(), self.metric, *kp, *kc, || {
            self.metric.distance(pm, cm)
        })
    }
}

impl fmt::Display for Reconstruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "reconstructed hierarchy over {} types:", self.hierarchy.len())?;
        write!(f, "{}", self.hierarchy)
    }
}

impl Rock {
    /// Creates a reconstructor with no corpus attached.
    pub fn new(config: RockConfig) -> Self {
        Rock { config, ..Rock::default() }
    }

    /// Attaches a fleet-wide [`CorpusCache`]: subsequent runs answer
    /// symbolic executions, SLM trainings, and distances from the shared
    /// store when a content key matches, and publish fresh results back.
    /// Pair it with [`RockConfig::with_canonical_calls`] so keys survive
    /// layout changes between binaries.
    pub fn with_corpus_cache(mut self, corpus: Arc<CorpusCache>) -> Self {
        self.corpus = Some(corpus);
        self
    }

    /// Attaches a deterministic [`FaultPlan`]: named functions and stage
    /// items panic, get skipped, or run starved, exercising the
    /// containment paths without any wall-clock randomness.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Attaches a span [`Tracer`]: stage and per-item spans of every
    /// subsequent run are recorded into it. Tracing never changes
    /// results — `tests/trace_determinism.rs` pins bit-identical output
    /// with and without a tracer at every thread count. Spans are
    /// filtered through the [`TraceLevel`] set by
    /// [`Rock::with_trace_level`] ([`TraceLevel::Full`] by default, so
    /// attaching a tracer alone behaves exactly as before levels
    /// existed).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Sets the [`TraceLevel`] spans are filtered through: `stage` keeps
    /// only the coarse stage spans, `sampled` adds a deterministic
    /// 1-in-16 sample of per-item spans, `full` records everything.
    /// Metrics and diagnostics are unaffected — they record 100% of the
    /// work at every level.
    pub fn with_trace_level(mut self, level: TraceLevel) -> Self {
        self.trace_level = level;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &RockConfig {
        &self.config
    }

    /// The attached corpus cache, if any.
    pub fn corpus_cache(&self) -> Option<&Arc<CorpusCache>> {
        self.corpus.as_ref()
    }

    /// Runs the full pipeline on a loaded binary.
    ///
    /// The hot loops (SLM training, distance matrices, arborescences) run
    /// on [`RockConfig::parallelism`] threads; every merge happens in
    /// deterministic input order, so the result is bit-identical to
    /// [`Parallelism::Serial`] whatever setting is active.
    ///
    /// # Panics
    ///
    /// Only with [`RockConfig::strict`] set, on the first error-severity
    /// diagnostic — use [`Rock::try_reconstruct`] to handle that case.
    pub fn reconstruct(&self, loaded: &LoadedBinary) -> Reconstruction {
        match self.try_reconstruct(loaded) {
            Ok(recon) => recon,
            Err(e) => panic!("strict reconstruction failed: {e}"),
        }
    }

    /// Like [`Rock::reconstruct`], but surfaces strict-mode failures.
    ///
    /// Without [`RockConfig::strict`] this never returns `Err`: every
    /// fault — a panicking symbolic execution, an untrainable model, a
    /// faulting arborescence search — is contained, recorded in
    /// [`Reconstruction::diagnostics`], and accounted for by
    /// [`Reconstruction::coverage`], while the rest of the binary is
    /// still reconstructed. With `strict`, the first error-severity
    /// [`StageError`] aborts the run instead (the old fail-fast shape).
    ///
    /// This is a thin loop over the staged pipeline ([`Rock::begin`] +
    /// [`crate::StagedRun::advance`]) — supervised checkpoint/resume runs
    /// drive the *same* stage bodies, so the two paths cannot drift.
    pub fn try_reconstruct(&self, loaded: &LoadedBinary) -> Result<Reconstruction, StageError> {
        let mut run = self.begin(loaded);
        while !run.is_done() {
            run.advance()?;
        }
        Ok(run.finish())
    }

    /// The attached fault plan, if any.
    pub(crate) fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_deref()
    }

    /// The span-recording context (disabled when no tracer is attached),
    /// filtering at the configured [`TraceLevel`].
    pub(crate) fn trace_ctx(&self) -> TraceCtx<'_> {
        match self.tracer.as_deref() {
            Some(t) => TraceCtx::with_level(t, self.trace_level),
            None => TraceCtx::disabled(),
        }
    }
}

/// Assembles a [`Reconstruction`] from finished stage outputs (the
/// private-field constructor used by [`crate::StagedRun::finish`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_reconstruction(
    hierarchy: Forest<Addr>,
    structural: Structural,
    analysis: Analysis,
    distances: BTreeMap<(Addr, Addr), f64>,
    timings: StageTimings,
    diagnostics: Vec<StageError>,
    coverage: Coverage,
    metrics: MetricsRegistry,
    metric: Metric,
    models: BTreeMap<Addr, Arc<Slm<Event>>>,
    model_keys: BTreeMap<Addr, ModelKey>,
    corpus: Option<Arc<CorpusCache>>,
) -> Reconstruction {
    Reconstruction {
        hierarchy,
        structural,
        analysis,
        distances,
        timings,
        diagnostics,
        coverage,
        metrics,
        metric,
        models,
        model_keys,
        corpus,
    }
}

/// The distance from the model keyed `from` to the one keyed `to`: through
/// the corpus distance tier when one is attached ([`CorpusCache::distance_with`]
/// runs `compute` only on a miss), by `compute` directly when none is.
/// `compute` must return what `metric` gives for the two keyed models.
pub(crate) fn distance_through(
    corpus: Option<&CorpusCache>,
    metric: Metric,
    from: ModelKey,
    to: ModelKey,
    compute: impl FnOnce() -> f64,
) -> f64 {
    match corpus {
        Some(c) => c.distance_with(metric, from, to, compute),
        None => compute(),
    }
}

/// A run's distinct model keys in order: a key's index is its dense
/// rank, so a distance ask is one `u64` ([`KeyRanks::ask`]) instead of a
/// pair of 16-byte keys. Ranks are a bijection on the keys, so the
/// distinct asks are exactly the distinct `(from key, to key)` pairs.
#[derive(Default)]
pub(crate) struct KeyRanks(Vec<ModelKey>);

impl KeyRanks {
    /// Ranks every key of `model_keys`.
    pub(crate) fn new(model_keys: &BTreeMap<Addr, ModelKey>) -> Self {
        let mut keys: Vec<ModelKey> = model_keys.values().copied().collect();
        keys.sort_unstable();
        keys.dedup();
        KeyRanks(keys)
    }

    /// The rank of one of the run's model keys.
    pub(crate) fn rank(&self, key: ModelKey) -> u32 {
        let rank = self.0.binary_search(&key).expect("a model key of this run");
        u32::try_from(rank).expect("fewer than 2^32 model keys")
    }

    /// The ask of the distance from the model ranked `from` to the one
    /// ranked `to`.
    pub(crate) fn ask(from: u32, to: u32) -> u64 {
        (u64::from(from) << 32) | u64::from(to)
    }
}

/// Maps a loader degradation onto the diagnostic taxonomy.
pub(crate) fn load_issue_error(issue: &LoadIssue) -> StageError {
    let (subject, kind, severity) = match issue {
        LoadIssue::NoTextSection => (Subject::Image, FaultKind::MissingText, Severity::Error),
        LoadIssue::TruncatedText { .. } => {
            (Subject::Image, FaultKind::TruncatedDecode, Severity::Error)
        }
        LoadIssue::SkippedPrefix { .. } => {
            (Subject::Image, FaultKind::SkippedPrefix, Severity::Warning)
        }
        LoadIssue::RejectedVtableCandidate { at } => {
            (Subject::Vtable(*at), FaultKind::RejectedVtable, Severity::Warning)
        }
    };
    StageError { stage: Stage::Load, subject, kind, severity }
}

/// Maps a behavioral-analysis incident onto the diagnostic taxonomy.
pub(crate) fn incident_error(entry: Addr, incident: &IncidentKind) -> StageError {
    let (kind, severity) = match incident {
        IncidentKind::Panicked(msg) => (FaultKind::Panicked(msg.clone()), Severity::Error),
        IncidentKind::FuelExhausted => (FaultKind::FuelExhausted, Severity::Error),
        IncidentKind::Skipped => (FaultKind::Skipped, Severity::Warning),
    };
    StageError { stage: Stage::Analysis, subject: Subject::Function(entry), kind, severity }
}

/// Behavioral family repartitioning — the future-work extension the paper
/// sketches in §6.4 ("our current implementation does not attempt to
/// repartition based on usage"): false family *splits* (error source 2 —
/// compiler-omitted structural cues) leave hierarchy roots whose true
/// parent sits in another family. For each root, consider cross-family
/// parents that pass the rule-1 slot check; adopt the best one if its
/// behavioral distance is no worse than the distances of the edges already
/// accepted within families.
///
/// Runs in two phases so the scan parallelizes and the outcome is
/// independent of scan order: first every root's best candidate is scored
/// against a **snapshot** of the hierarchy, then the proposals are applied
/// serially by [`apply_adoptions`], which re-checks ancestry against the
/// *current* hierarchy before each insert. Every distance the scan asked
/// for is appended to `asked` as a [`KeyRanks::ask`], in root order.
/// Returns the number of adoptions applied.
#[allow(clippy::too_many_arguments)]
pub(crate) fn repartition(
    hierarchy: &mut Forest<Addr>,
    distances: &mut BTreeMap<(Addr, Addr), f64>,
    structural: &Structural,
    models: &BTreeMap<Addr, Arc<Slm<Event>>>,
    model_keys: &BTreeMap<Addr, ModelKey>,
    ranks: &KeyRanks,
    loaded: &LoadedBinary,
    metric: Metric,
    corpus: Option<&CorpusCache>,
    asked: &mut Vec<u64>,
    par: Parallelism,
    ctx: TraceCtx<'_>,
) -> usize {
    // Acceptance threshold: the worst distance among already-chosen edges
    // (no edges chosen => nothing to calibrate against; bail out).
    let chosen: Vec<f64> = hierarchy
        .nodes()
        .filter_map(|n| {
            let p = hierarchy.parent_of(n)?;
            distances.get(&(*p, *n)).copied()
        })
        .collect();
    let Some(threshold) = chosen.iter().copied().reduce(f64::max) else {
        return 0;
    };

    let family_of: BTreeMap<Addr, usize> = structural
        .families()
        .iter()
        .enumerate()
        .flat_map(|(i, f)| f.iter().map(move |a| (*a, i)))
        .collect();

    // Phase 1: score every root against the snapshot. Roots come out of
    // the forest in address order and par_map preserves input order, so
    // the proposal list is deterministic.
    let roots: Vec<Addr> = hierarchy.roots().into_iter().copied().collect();
    let scanned = par_map(par, &roots, |&root| {
        let mut spans = ctx.local();
        let token = spans.enter(names::REPARTITION_ROOT, root.value());
        let mut keys = Vec::new();
        let proposal = scan_root(
            root, hierarchy, &family_of, models, model_keys, loaded, metric, corpus, &mut keys,
        );
        let asks: Vec<u64> =
            keys.iter().map(|&(f, t)| KeyRanks::ask(ranks.rank(f), ranks.rank(t))).collect();
        spans.exit(token);
        // Cross-family edges had no structural support, so require only
        // that they stay within 2x the worst accepted edge.
        (proposal.filter(|&(d, _)| d <= 2.0 * threshold), asks, spans)
    });

    // Phase 2: collect worker spans in input order (merged under one
    // lock at the end — the mutex is a stage-boundary cost, not a
    // per-root one), then apply serially with the ancestry re-check.
    let mut proposals = Vec::new();
    let mut buffers = Vec::new();
    for (&root, (proposal, asks, spans)) in roots.iter().zip(scanned) {
        if !spans.is_empty() {
            buffers.push(spans);
        }
        asked.extend(asks);
        if let Some((d, parent)) = proposal {
            proposals.push((root, parent, d));
        }
    }
    ctx.merge_many(buffers);
    apply_adoptions(hierarchy, distances, proposals)
}

/// Scores one hierarchy root against every cross-family candidate,
/// returning the best `(distance, parent)` if any survives the filters.
/// Appends every `(from, to)` key pair it asks a distance for to `asked`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_root(
    root: Addr,
    hierarchy: &Forest<Addr>,
    family_of: &BTreeMap<Addr, usize>,
    models: &BTreeMap<Addr, Arc<Slm<Event>>>,
    model_keys: &BTreeMap<Addr, ModelKey>,
    loaded: &LoadedBinary,
    metric: Metric,
    corpus: Option<&CorpusCache>,
    asked: &mut Vec<(ModelKey, ModelKey)>,
) -> Option<(f64, Addr)> {
    let root_vt = loaded.vtable_at(root)?;
    // A root whose training faulted has no model to compare with.
    let root_model = models.get(&root)?;
    let root_key = *model_keys.get(&root)?;
    let root_family = family_of.get(&root);
    // Cheap prefilter against the snapshot; the authoritative cycle
    // check happens at apply time.
    let below_root = hierarchy.successors(&root);
    let mut best: Option<(f64, Addr)> = None;
    for cand in loaded.vtables() {
        if family_of.get(&cand.addr()) == root_family {
            continue; // same family: structural phase already decided
        }
        // Rule 1 across families: a parent cannot have more slots.
        if cand.len() > root_vt.len() {
            continue;
        }
        if below_root.contains(&cand.addr()) {
            continue;
        }
        let Some(cand_model) = models.get(&cand.addr()) else {
            continue; // unmodeled candidate: nothing to score
        };
        let Some(&cand_key) = model_keys.get(&cand.addr()) else {
            continue;
        };
        let d = distance_through(corpus, metric, cand_key, root_key, || {
            metric.distance(cand_model, root_model)
        });
        // Parenthood is asymmetric (§4.2.1): the candidate's behavior
        // should be *contained* in the root's, so encoding parent
        // with child must be cheaper than the reverse.
        let d_rev = distance_through(corpus, metric, root_key, cand_key, || {
            metric.distance(root_model, cand_model)
        });
        asked.extend([(cand_key, root_key), (root_key, cand_key)]);
        if d >= d_rev {
            continue;
        }
        if best.map(|(bd, _)| d < bd).unwrap_or(true) {
            best = Some((d, cand.addr()));
        }
    }
    best
}

/// Applies cross-family adoption proposals to the hierarchy, skipping any
/// that would close a cycle.
///
/// Proposals were scored against a snapshot: by the time one is applied,
/// an *earlier* adoption in the same pass may have re-rooted `parent`'s
/// tree underneath `root`, so inserting the edge would create a cycle.
/// The ancestry check therefore runs against the **current** hierarchy
/// immediately before each insert — not against the snapshot. It walks
/// up from `parent` looking for `root`, which costs `parent`'s depth, not
/// `root`'s subtree.
fn apply_adoptions(
    hierarchy: &mut Forest<Addr>,
    distances: &mut BTreeMap<(Addr, Addr), f64>,
    proposals: impl IntoIterator<Item = (Addr, Addr, f64)>,
) -> usize {
    let mut applied = 0;
    for (root, parent, d) in proposals {
        if root == parent || hierarchy.ancestors(&parent).contains(&&root) {
            continue;
        }
        hierarchy.insert(root, Some(parent));
        distances.insert((parent, root), d);
        applied += 1;
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_minicpp::{compile, CompileOptions, ProgramBuilder};

    /// The paper's running example (Fig. 3/5): Stream + two children, each
    /// with a distinctive usage pattern, optimized so structure alone
    /// cannot decide FlushableStream's parent (Fig. 6 ambiguity).
    fn streams_optimized() -> (LoadedBinary, rock_minicpp::Compiled) {
        let mut p = ProgramBuilder::new();
        p.class("Stream").method("send", |b| {
            b.ret();
        });
        p.class("ConfirmableStream").base("Stream").method("confirm", |b| {
            b.ret();
        });
        p.class("FlushableStream")
            .base("Stream")
            .method("flush", |b| {
                b.ret();
            })
            .method("close", |b| {
                b.ret();
            });
        // Fig. 5 drivers.
        p.func("useStream", |f| {
            f.new_obj("s", "Stream");
            for _ in 0..3 {
                f.vcall("s", "send", vec![]);
            }
            f.ret();
        });
        p.func("useConfirmableStream", |f| {
            f.new_obj("s", "ConfirmableStream");
            for _ in 0..3 {
                f.vcall("s", "send", vec![]);
                f.vcall("s", "confirm", vec![]);
            }
            f.ret();
        });
        p.func("useFlushableStream", |f| {
            f.new_obj("s", "FlushableStream");
            for _ in 0..3 {
                f.vcall("s", "send", vec![]);
            }
            f.vcall("s", "flush", vec![]);
            f.vcall("s", "close", vec![]);
            f.ret();
        });
        let mut opts = CompileOptions::default();
        opts.inline_parent_ctors = true; // remove the ctor cue
        let compiled = compile(&p.finish(), &opts).unwrap();
        let loaded = LoadedBinary::load(compiled.stripped_image()).unwrap();
        (loaded, compiled)
    }

    #[test]
    fn reconstructs_fig4_hierarchy() {
        let (loaded, compiled) = streams_optimized();
        let recon = Rock::new(RockConfig::paper()).reconstruct(&loaded);
        let stream = compiled.vtable_of("Stream").unwrap();
        let confirmable = compiled.vtable_of("ConfirmableStream").unwrap();
        let flushable = compiled.vtable_of("FlushableStream").unwrap();
        // Structure alone leaves FlushableStream ambiguous...
        assert!(recon.possible_parents_of(flushable).len() >= 2);
        // ...but the SLM + arborescence resolves it to Stream (Fig. 6a).
        assert_eq!(recon.parent_of(flushable), Some(stream));
        assert_eq!(recon.parent_of(confirmable), Some(stream));
        assert_eq!(recon.parent_of(stream), None);
    }

    #[test]
    fn fig6_distances_rank_correct_parent_first() {
        let (loaded, compiled) = streams_optimized();
        let recon = Rock::new(RockConfig::paper()).reconstruct(&loaded);
        let stream = compiled.vtable_of("Stream").unwrap();
        let confirmable = compiled.vtable_of("ConfirmableStream").unwrap();
        let flushable = compiled.vtable_of("FlushableStream").unwrap();
        let d_good = recon.distances[&(stream, flushable)];
        let d_bad = recon.distances[&(confirmable, flushable)];
        assert!(
            d_good < d_bad,
            "D(Stream->Flushable) = {d_good} should beat D(Confirmable->Flushable) = {d_bad}"
        );
    }

    #[test]
    fn display_shows_tree() {
        let (loaded, _) = streams_optimized();
        let recon = Rock::new(RockConfig::default()).reconstruct(&loaded);
        let text = recon.to_string();
        assert!(text.contains("reconstructed hierarchy over 3 types"));
    }

    #[test]
    fn timings_cover_the_run() {
        let (loaded, _) = streams_optimized();
        let recon = Rock::new(RockConfig::paper()).reconstruct(&loaded);
        let t = recon.timings;
        assert!(t.threads >= 1);
        assert!(t.total >= t.analysis);
        let m = &recon.metrics;
        assert_eq!(m.counter(names::SLM_MODELS_TRAINED), 3);
        assert!(m.counter(names::SLM_ARENA_NODES) > 0 && m.counter(names::SLM_ARENA_EDGES) > 0);
        assert!(m.counter(names::SLM_ARENA_BYTES) > 0);
        assert!(m.counter(names::SLM_WORDS_TOTAL) > 0);
        assert!(
            m.counter(names::SLM_WORDS_UNIQUE) <= m.counter(names::SLM_WORDS_TOTAL),
            "dedup can only shrink"
        );
        assert!(m.counter(names::DISTANCES_EDGES) as usize >= recon.distances.len());
        assert_eq!(m.counter(names::DISTANCES_FOREIGN_CANDIDATES), 0);
        // Every lifted edge asked for its own distinct key pair.
        assert_eq!(m.counter(names::DISTANCES_CACHE_MISS) as usize, recon.distances.len());
        assert_eq!(m.counter(names::DISTANCES_CACHE_HIT), 0);
    }

    #[test]
    fn shared_cache_is_reused_across_runs() {
        let (loaded, _) = streams_optimized();
        let corpus = Arc::new(CorpusCache::new());
        let rock = Rock::new(RockConfig::paper()).with_corpus_cache(Arc::clone(&corpus));
        let first = rock.reconstruct(&loaded);
        let warm = corpus.stats();
        assert!(
            warm.counter(names::CORPUS_DISTANCE_MISS) > 0,
            "the first run computes and publishes"
        );
        // The second run through the shared corpus computes no distance
        // and gets the same bits.
        let second = rock.reconstruct(&loaded);
        let delta = corpus.stats().since(&warm);
        assert_eq!(delta.counter(names::CORPUS_DISTANCE_MISS), 0);
        assert!(delta.counter(names::CORPUS_DISTANCE_HIT) > 0);
        assert_eq!(first.distances.len(), second.distances.len());
        for (k, d) in &first.distances {
            assert_eq!(d.to_bits(), second.distances[k].to_bits(), "distance bits for {k:?}");
        }
        assert_eq!(first.metrics.to_json(), second.metrics.to_json());
        // Without a corpus a reused reconstructor keeps nothing: the
        // second run recomputes and reports the first run's metrics.
        let plain = Rock::new(RockConfig::paper());
        let first = plain.reconstruct(&loaded);
        let second = plain.reconstruct(&loaded);
        assert!(second.metrics.counter(names::DISTANCES_CACHE_MISS) > 0);
        assert_eq!(first.metrics.to_json(), second.metrics.to_json());
    }

    #[test]
    fn clean_run_has_empty_diagnostics_and_full_coverage() {
        let (loaded, _) = streams_optimized();
        let recon = Rock::new(RockConfig::paper()).reconstruct(&loaded);
        assert!(recon.diagnostics.is_empty(), "clean run: {:?}", recon.diagnostics);
        assert!(recon.coverage.is_complete(), "clean run: {:?}", recon.coverage);
        for name in [
            names::ANALYSIS_FUNCTIONS_SKIPPED,
            names::ANALYSIS_FUEL_EXHAUSTED,
            names::LOAD_VTABLES_REJECTED,
            names::DIAGNOSTICS_BYTES,
        ] {
            assert_eq!(recon.metrics.counter(name), 0, "{name}");
        }
    }

    #[test]
    fn analysis_fault_is_contained_and_recorded() {
        let (loaded, _) = streams_optimized();
        let victim = loaded.functions()[0].entry();
        let plan = Arc::new(FaultPlan::new().panic_on(victim));
        let recon = Rock::new(RockConfig::paper()).with_fault_plan(plan).reconstruct(&loaded);
        assert_eq!(recon.coverage.functions_skipped, 1);
        assert_eq!(recon.metrics.counter(names::ANALYSIS_FUNCTIONS_SKIPPED), 1);
        let e = recon
            .diagnostics
            .iter()
            .find(|e| e.stage == Stage::Analysis)
            .expect("analysis fault must be recorded");
        assert_eq!(e.subject, Subject::Function(victim));
        assert_eq!(e.severity, Severity::Error);
        assert!(recon.metrics.counter(names::DIAGNOSTICS_BYTES) > 0);
        // The rest of the binary is still reconstructed.
        assert_eq!(recon.hierarchy.len(), 3);
    }

    #[test]
    fn training_faults_degrade_types_to_roots() {
        let (loaded, _) = streams_optimized();
        let plan = Arc::new(FaultPlan::new().panic_in(Stage::Training));
        let recon = Rock::new(RockConfig::paper()).with_fault_plan(plan).reconstruct(&loaded);
        // No models trained: every candidate edge is unmodeled, every
        // type degrades to a root — but the run still completes.
        assert_eq!(recon.coverage.models_trained, 0);
        assert!(recon.distances.is_empty());
        assert_eq!(recon.hierarchy.len(), 3);
        for node in recon.hierarchy.nodes() {
            assert_eq!(recon.hierarchy.parent_of(node), None);
        }
        let training_errors =
            recon.diagnostics.iter().filter(|e| e.stage == Stage::Training).count();
        assert_eq!(training_errors, 3, "one error per vtable");
        assert!(recon
            .diagnostics
            .iter()
            .any(|e| e.stage == Stage::Distances && e.kind == FaultKind::MissingModel));
    }

    #[test]
    fn lifting_faults_degrade_families_not_the_run() {
        let (loaded, _) = streams_optimized();
        let plan = Arc::new(FaultPlan::new().panic_in(Stage::Lifting));
        let recon = Rock::new(RockConfig::paper()).with_fault_plan(plan).reconstruct(&loaded);
        assert_eq!(recon.coverage.families_degraded, recon.coverage.families_total);
        assert_eq!(recon.coverage.families_lifted, 0);
        // Distances were still computed; only the arborescence was lost.
        assert!(!recon.distances.is_empty());
        for node in recon.hierarchy.nodes() {
            assert_eq!(recon.hierarchy.parent_of(node), None);
        }
    }

    #[test]
    fn strict_mode_fails_fast_on_the_first_error() {
        let (loaded, _) = streams_optimized();
        let victim = loaded.functions()[0].entry();
        let plan = Arc::new(FaultPlan::new().panic_on(victim));
        let rock = Rock::new(RockConfig::paper().with_strict()).with_fault_plan(plan);
        let err = rock.try_reconstruct(&loaded).expect_err("strict must fail fast");
        assert_eq!(err.stage, Stage::Analysis);
        assert_eq!(err.subject, Subject::Function(victim));
        // Warnings alone do not trip strict mode.
        let skip_plan = Arc::new(FaultPlan::new().skip(victim));
        let rock = Rock::new(RockConfig::paper().with_strict()).with_fault_plan(skip_plan);
        assert!(rock.try_reconstruct(&loaded).is_ok(), "skips are warnings");
    }

    /// Regression for the repartition mutation-order hazard: proposals
    /// scored against a snapshot can, once an earlier adoption lands,
    /// point a root at its own (new) descendant. The apply step must
    /// re-check ancestry against the current hierarchy and keep the
    /// forest acyclic.
    #[test]
    fn apply_adoptions_rechecks_ancestry_against_current_hierarchy() {
        let (a, b) = (Addr::new(0x10), Addr::new(0x20));
        let mut hierarchy: Forest<Addr> = Forest::new();
        hierarchy.insert(a, None);
        hierarchy.insert(b, None);
        let mut distances = BTreeMap::new();
        // Scored against the snapshot (two independent roots), both
        // adoptions look fine; applying both would close the cycle a→b→a.
        let proposals = vec![(a, b, 0.5), (b, a, 0.6)];
        apply_adoptions(&mut hierarchy, &mut distances, proposals);
        assert!(hierarchy.is_acyclic(), "adoption pass must never close a cycle");
        assert_eq!(hierarchy.parent_of(&a), Some(&b));
        assert_eq!(hierarchy.parent_of(&b), None, "second adoption must be rejected");
        assert_eq!(distances.get(&(b, a)), Some(&0.5));
        assert_eq!(distances.get(&(a, b)), None);
        // Self-adoption is rejected outright.
        apply_adoptions(&mut hierarchy, &mut distances, vec![(b, b, 0.1)]);
        assert!(hierarchy.is_acyclic());
        assert_eq!(hierarchy.parent_of(&b), None);
    }
}
